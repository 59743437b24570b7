"""Gauss-SM: the shared-memory Gaussian elimination.

Communication (paper Section 5.2): pivot selection by an MCS-style
combining reduction; broadcasts by letting every processor read shared
data after a barrier ("they occur at hardware, not software speed");
the read requests then contend at the directories — the contention the
paper measures. The coefficient matrix lives in shared memory
(round-robin placement), but each processor's rows stay in its cache, so
misses concentrate on pivot rows and reduction flags.
"""

from __future__ import annotations

from typing import Dict, Tuple

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
from repro.sm.machine import SmMachine, SmRunResult


def gauss_sm_program(ctx, config: GaussConfig, a_full, b_full, shared: Dict):
    """Per-processor Gauss-SM program."""
    n = config.n
    me, nprocs = ctx.pid, ctx.nprocs
    lo, hi = row_block(me, n, nprocs)
    myrows = hi - lo
    reduction = ctx.machine.make_reduction("gauss.pivot", context="reduction")

    with ctx.stats.phase("init"):
        if me == 0:
            shared["A"] = ctx.gmalloc("A", (n, n))
            shared["b"] = ctx.gmalloc("b", n)
            shared["pivotbuf"] = ctx.gmalloc("pivotbuf", n + 1)
            shared["x"] = ctx.gmalloc("x", n)
            ctx.create()
        else:
            yield from ctx.wait_create()
        a_region, b_region = shared["A"], shared["b"]
        pivotbuf, x_region = shared["pivotbuf"], shared["x"]
        if myrows:
            yield from ctx.compute(ctx.costs.int_ops(2 * myrows * n))
            yield from ctx.write(a_region, lo * n, values=a_full[lo:hi].reshape(-1))
            yield from ctx.write(b_region, lo, values=b_full[lo:hi])
        yield from ctx.barrier()

    mask = np.zeros(max(myrows, 1), dtype=bool)
    pivot_row_of_step = np.full(n, -1, dtype=np.int64)
    x = np.zeros(n)

    with ctx.stats.phase("main"):
        # Forward elimination.
        for k in range(n):
            best = (-1.0, -1.0)
            active = [r for r in range(myrows) if not mask[r]]
            if active:
                got = yield from ctx.run_batch(
                    ctx.batch()
                    .read_gather(a_region, [(lo + r) * n + k for r in active])
                    .compute_flops(pivot_search_flops(len(active)))
                )
                column = got[0]
                j = int(np.argmax(np.abs(column)))
                best = (abs(float(column[j])), float(lo + active[j]))
            pivot_val, pivot_row = yield from reduction.allreduce(
                ctx, best[0], max, aux=best[1]
            )
            if pivot_val <= 0.0:
                raise ArithmeticError(f"singular system at column {k}")
            prow = int(pivot_row)
            powner = owner_of_row(prow, n, nprocs)
            pivot_row_of_step[k] = prow

            if me == powner:
                mask[prow - lo] = True
                yield from ctx.run_batch(
                    ctx.batch()
                    .read(a_region, prow * n + k, prow * n + n)
                    .read(b_region, prow, prow + 1)
                    .write(
                        pivotbuf,
                        0,
                        values=lambda got: np.concatenate([got[0], got[1]]),
                    )
                )
            # All processors wait until the write completes, then read:
            # the shared-memory broadcast.
            yield from ctx.barrier()
            pivot = np.array((yield from ctx.read(pivotbuf, 0, n - k + 1)))
            pivot_vals, pivot_b = pivot[:-1], float(pivot[-1])

            active = [r for r in range(myrows) if not mask[r]]
            for r in active:
                grow = lo + r
                # One declared bulk run per row: read the row, write the
                # eliminated row, then read-modify-write b. The factor
                # must be captured when the A-row write is evaluated —
                # the read result is a view the write overwrites.
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
                    .read(a_region, grow * n + k, grow * n + n)
                    .write(a_region, grow * n + k, values=updated_row)
                    .read(b_region, grow, grow + 1)
                    .write(b_region, grow, values=updated_b)
                )
            if active:
                yield from ctx.run_batch(
                    ctx.batch()
                    .compute_flops(update_flops(len(active), n - k))
                    .compute(ctx.costs.int_ops(update_int_ops(len(active), n - k)))
                    .compute(ctx.costs.loop(len(active)))
                )

        # Backward substitution: shared-cell broadcast per unknown.
        unresolved = set(range(myrows))
        for k in range(n - 1, -1, -1):
            prow = int(pivot_row_of_step[k])
            powner = owner_of_row(prow, n, nprocs)
            if me == powner:
                unresolved.discard(prow - lo)
                diag = yield from ctx.read(a_region, prow * n + k, prow * n + k + 1)
                b_val = yield from ctx.read(b_region, prow, prow + 1)
                x_k = float(b_val[0]) / float(diag[0])
                yield from ctx.compute(ctx.costs.divs(1))
                yield from ctx.write(x_region, k, values=[x_k])
            yield from ctx.barrier()
            x_vals = yield from ctx.read(x_region, k, k + 1)
            x_k = float(x_vals[0])
            x[k] = x_k
            if unresolved:
                coeffs = yield from ctx.read_gather(
                    a_region, [(lo + r) * n + k for r in sorted(unresolved)]
                )
                for j, r in enumerate(sorted(unresolved)):
                    grow = lo + r
                    coeff = float(coeffs[j])
                    yield from ctx.run_batch(
                        ctx.batch()
                        .read(b_region, grow, grow + 1)
                        .write(
                            b_region,
                            grow,
                            values=lambda got, c=coeff: [float(got[0][0]) - c * x_k],
                        )
                    )
                yield from ctx.compute_flops(2 * len(unresolved))
    return x


def run_gauss_sm(
    machine: SmMachine, config: GaussConfig
) -> Tuple[SmRunResult, np.ndarray]:
    """Run Gauss-SM; returns the machine result and the solution vector."""
    config.check(machine.nprocs)
    a_full, b_full, _x_true = generate_system(config)
    shared: Dict = {}
    result = machine.run(gauss_sm_program, config, a_full, b_full, shared)
    return result, result.outputs[0]
