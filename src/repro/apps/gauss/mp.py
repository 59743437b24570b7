"""Gauss-MP: the message-passing Gaussian elimination.

Communication (paper Section 5.2): pivot selection by software
reduction, pivot-row distribution by bulk broadcast over CMMD channels
along the collective tree, and one value broadcast per unknown during
backward substitution. Rows live in node-local memory.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.apps.gauss.common import (
    GaussConfig,
    generate_system,
    owner_of_row,
    pivot_search_flops,
    row_block,
    update_flops,
    update_int_ops,
)
from repro.mp.machine import MpMachine, MpRunResult


def gauss_mp_program(ctx, config: GaussConfig, a_full, b_full):
    """Per-processor Gauss-MP program."""
    n = config.n
    me, nprocs = ctx.pid, ctx.nprocs
    lo, hi = row_block(me, n, nprocs)
    myrows = hi - lo

    with ctx.stats.phase("init"):
        a_region = ctx.alloc("A", (max(myrows, 1), n))
        b_region = ctx.alloc("b", max(myrows, 1))
        if myrows:
            # Fill my rows with the (deterministically) random system.
            yield from ctx.compute(ctx.costs.int_ops(2 * myrows * n))
            yield from ctx.write(a_region, 0, values=a_full[lo:hi].reshape(-1))
            yield from ctx.write(b_region, 0, values=b_full[lo:hi])
        ctx.coll.setup_bulk(max_elems=n + 1)
        yield from ctx.barrier()

    mask = np.zeros(max(myrows, 1), dtype=bool)
    pivot_row_of_step = np.full(n, -1, dtype=np.int64)
    x = np.zeros(n)

    with ctx.stats.phase("main"):
        # Forward elimination.
        for k in range(n):
            best = (-1.0, -1)
            active = [r for r in range(myrows) if not mask[r]]
            if active:
                got = yield from ctx.run_batch(
                    ctx.batch()
                    .read_gather(a_region, [r * n + k for r in active])
                    .compute_flops(pivot_search_flops(len(active)))
                )
                column = got[0]
                j = int(np.argmax(np.abs(column)))
                best = (abs(float(column[j])), lo + active[j])
            pivot_val, pivot_row = yield from ctx.coll.allreduce(best, max)
            if pivot_val <= 0.0:
                raise ArithmeticError(f"singular system at column {k}")
            prow = int(pivot_row)
            powner = owner_of_row(prow, n, nprocs)
            pivot_row_of_step[k] = prow

            if me == powner:
                local = prow - lo
                mask[local] = True
                got = yield from ctx.run_batch(
                    ctx.batch()
                    .read(a_region, local * n + k, local * n + n)
                    .read(b_region, local, local + 1)
                )
                payload = np.concatenate([got[0], got[1]])
            else:
                payload = None
            pivot = np.array(
                (yield from ctx.coll.bulk_broadcast(payload, root=powner))
            )
            pivot_vals, pivot_b = pivot[:-1], float(pivot[-1])

            active = [r for r in range(myrows) if not mask[r]]
            for r in active:
                # One declared bulk run per row (see gauss/sm.py for the
                # factor-capture subtlety: the read result is a view the
                # A-row write overwrites).
                cell = []

                def updated_row(got, _cell=cell):
                    row = got[0]
                    factor = float(row[0]) / float(pivot_vals[0])
                    _cell.append(factor)
                    updated = row - factor * pivot_vals
                    updated[0] = 0.0
                    return updated

                def updated_b(got, _cell=cell):
                    return [float(got[1][0]) - _cell[0] * pivot_b]

                yield from ctx.run_batch(
                    ctx.batch()
                    .read(a_region, r * n + k, r * n + n)
                    .write(a_region, r * n + k, values=updated_row)
                    .read(b_region, r, r + 1)
                    .write(b_region, r, values=updated_b)
                )
            if active:
                yield from ctx.run_batch(
                    ctx.batch()
                    .compute_flops(update_flops(len(active), n - k))
                    .compute(ctx.costs.int_ops(update_int_ops(len(active), n - k)))
                    .compute(ctx.costs.loop(len(active)))
                )

        # Backward substitution: one value broadcast per unknown.
        unresolved = set(range(myrows))
        for k in range(n - 1, -1, -1):
            prow = int(pivot_row_of_step[k])
            powner = owner_of_row(prow, n, nprocs)
            x_k = None
            if me == powner:
                local = prow - lo
                unresolved.discard(local)
                diag = yield from ctx.read(a_region, local * n + k, local * n + k + 1)
                b_val = yield from ctx.read(b_region, local, local + 1)
                x_k = float(b_val[0]) / float(diag[0])
                yield from ctx.compute(ctx.costs.divs(1))
            x_k = yield from ctx.coll.broadcast(x_k, root=powner)
            x[k] = x_k
            if unresolved:
                coeffs = yield from ctx.read_gather(
                    a_region, [r * n + k for r in sorted(unresolved)]
                )
                for j, r in enumerate(sorted(unresolved)):
                    coeff = float(coeffs[j])
                    yield from ctx.run_batch(
                        ctx.batch()
                        .read(b_region, r, r + 1)
                        .write(
                            b_region,
                            r,
                            values=lambda got, c=coeff: [float(got[0][0]) - c * x_k],
                        )
                    )
                yield from ctx.compute_flops(2 * len(unresolved))
    return x


def run_gauss_mp(
    machine: MpMachine, config: GaussConfig
) -> Tuple[MpRunResult, np.ndarray]:
    """Run Gauss-MP; returns the machine result and the solution vector."""
    config.check(machine.nprocs)
    a_full, b_full, _x_true = generate_system(config)
    result = machine.run(gauss_mp_program, config, a_full, b_full)
    return result, result.outputs[0]
