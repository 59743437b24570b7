"""LCP-MP and ALCP-MP: message-passing multi-sweep SOR (paper Section 5.4).

LCP-MP (synchronous): each processor sweeps its rows against a private
copy of the solution vector; at the end of each step the copies are
reconciled with an all-to-all exchange in log2(P) point-to-point stages
across CMMD channels (recursive doubling), and a software reduction
tests convergence.

ALCP-MP (asynchronous): bulk updates are pushed to *all* other
processors after every sweep (a star communication); receivers fold
them in whenever they poll. Fewer steps to converge, far more
communication — the tradeoff of paper Tables 20/22.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.apps.lcp.common import (
    SWEEP_INT_OPS_PER_NNZ,
    LcpConfig,
    LcpProblem,
    generate_problem,
    row_block,
)
from repro.mp.machine import MpMachine, MpRunResult

#: Initialization cost per CSR entry (allocation + fill).
_BUILD_OPS_PER_NNZ = 20


def _row_plans(ctx, problem, regions, z_region, lo, hi, omega):
    """Prebuild each row's sweep and residual bulk runs.

    The CSR structure is static, so the per-row op sequence — read
    columns, read data, gather z at the columns, read z_i, (sweep only)
    write the clamped update, then the per-row compute — never changes.
    The SOR update itself runs inside the write's values-callable: the
    gathered z values it needs are the batch results read just before.
    """
    indptr = problem.indptr
    base = int(indptr[lo])
    sweep_scripts = []
    resid_rows = []
    for i in range(lo, hi):
        start, end = int(indptr[i]), int(indptr[i + 1])
        local = start - base
        nnz = end - start
        cols = problem.indices[start:end]
        q_i, d_i = float(problem.q[i]), float(problem.diag[i])

        def sor_update(got, _q=q_i, _d=d_i):
            z_i = float(got[3][0])
            residual_i = _q + float(np.dot(got[1], got[2])) + _d * z_i
            return [max(0.0, z_i - omega * residual_i / _d)]

        sweep_scripts.append(
            ctx.batch()
            .read(regions["indices"], local, local + nnz)
            .read(regions["data"], local, local + nnz)
            .read_gather(z_region, cols)
            .read(z_region, i, i + 1)
            .write(z_region, i, values=sor_update)
            .compute_flops(2 * nnz + 4)
            .compute(
                ctx.costs.divs(1)
                + ctx.costs.int_ops(4 + SWEEP_INT_OPS_PER_NNZ * nnz)
            )
        )
        resid_rows.append(
            (
                i,
                ctx.batch()
                .read(regions["indices"], local, local + nnz)
                .read(regions["data"], local, local + nnz)
                .read_gather(z_region, cols)
                .read(z_region, i, i + 1)
                .compute_flops(2 * nnz + 4)
                .compute(ctx.costs.int_ops(SWEEP_INT_OPS_PER_NNZ * nnz)),
            )
        )
    return sweep_scripts, resid_rows


def _sweep(ctx, sweep_scripts):
    """One Gauss-Seidel sweep over the local rows (prebuilt bulk runs)."""
    for script in sweep_scripts:
        yield from ctx.run_batch(script)


def _local_residual(ctx, problem, resid_rows):
    """Complementarity residual over the local rows (one full pass)."""
    worst = 0.0
    for i, script in resid_rows:
        got = yield from ctx.run_batch(script)
        z_i = float(got[3][0])
        w_i = problem.q[i] + float(np.dot(got[1], got[2])) + problem.diag[i] * z_i
        worst = max(worst, abs(min(z_i, w_i)))
    return worst


def lcp_mp_program(ctx, config: LcpConfig, problem: LcpProblem, asynchronous: bool):
    """Per-processor LCP-MP/ALCP-MP program. Returns (z, steps)."""
    n = config.n
    me, nprocs = ctx.pid, ctx.nprocs
    lo, hi = row_block(me, n, nprocs)
    myrows = hi - lo
    my_nnz = int(problem.indptr[hi] - problem.indptr[lo])
    stages = max(nprocs - 1, 1).bit_length() if nprocs > 1 else 0

    with ctx.stats.phase("init"):
        z_region = ctx.alloc("z", n)
        regions = {
            "indices": ctx.alloc("M.indices", max(my_nnz, 1), dtype=np.int64),
            "data": ctx.alloc("M.data", max(my_nnz, 1)),
        }
        row_slice = slice(int(problem.indptr[lo]), int(problem.indptr[hi]))
        if my_nnz:
            yield from ctx.write(
                regions["indices"], 0, values=problem.indices[row_slice]
            )
            yield from ctx.write(regions["data"], 0, values=problem.data[row_slice])
        yield from ctx.compute(ctx.costs.int_ops(_BUILD_OPS_PER_NNZ * my_nnz))
        # Channels: the full z vector is every channel's window, so a
        # sender can deposit any contiguous range at its home offset.
        partners = (
            [p for p in range(nprocs) if p != me]
            if asynchronous
            else [me ^ (1 << k) for k in range(stages)]
        )
        recv_channels = {}
        send_channels = {}
        for partner in sorted(partners):
            recv_channels[partner] = yield from ctx.cmmd.offer_channel(
                partner, z_region, key="z"
            )
        for partner in sorted(partners):
            send_channels[partner] = yield from ctx.cmmd.accept_channel(
                partner, key="z"
            )
        yield from ctx.barrier()

    steps = 0
    with ctx.stats.phase("main"):
        sweep_scripts, resid_rows = _row_plans(
            ctx, problem, regions, z_region, lo, hi, config.omega
        )
        while steps < config.max_steps:
            for _sweep_index in range(config.sweeps_per_step):
                yield from _sweep(ctx, sweep_scripts)
                if asynchronous and nprocs > 1:
                    # Star communication: push my portion everywhere.
                    mine = yield from ctx.read(z_region, lo, hi)
                    mine = np.array(mine)
                    for partner in sorted(send_channels):
                        yield from ctx.cmmd.write_channel(
                            send_channels[partner], mine, el_offset=lo
                        )
                    yield from ctx.drain_polls()
            if not asynchronous and nprocs > 1:
                # Recursive-doubling all-gather of the solution vector.
                for k in range(stages):
                    partner = me ^ (1 << k)
                    group = (me >> k) << k
                    glo, _ = row_block(group, n, nprocs)
                    _, ghi = row_block(group + (1 << k) - 1, n, nprocs)
                    outgoing = yield from ctx.read(z_region, glo, ghi)
                    yield from ctx.cmmd.write_channel(
                        send_channels[partner], np.array(outgoing), el_offset=glo
                    )
                    pgroup = (partner >> k) << k
                    plo, _ = row_block(pgroup, n, nprocs)
                    _, phi = row_block(pgroup + (1 << k) - 1, n, nprocs)
                    yield from ctx.cmmd.wait_channel(
                        recv_channels[partner], (phi - plo) * 8
                    )
            steps += 1
            worst = yield from _local_residual(ctx, problem, resid_rows)
            total = yield from ctx.coll.allreduce(worst, max)
            if total < config.tolerance:
                break
    yield from ctx.barrier()
    return np.array(z_region.np), steps


def run_lcp_mp(
    machine: MpMachine, config: LcpConfig, asynchronous: bool = False
) -> Tuple[MpRunResult, np.ndarray, int]:
    """Run LCP-MP (or ALCP-MP); returns (result, z, steps)."""
    config.check(machine.nprocs, "mp", asynchronous)
    problem = generate_problem(config)
    result = machine.run(lcp_mp_program, config, problem, asynchronous)
    z, steps = result.outputs[0]
    return result, z, steps
