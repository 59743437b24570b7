"""MSE-SM: shared-memory microstructure electrostatics.

The solution vector lives in the shared address space; each processor
still computes against a private copy, refreshed from the shared vector
according to the schedule and republished each iteration. Because the
schedule is sparse, shared misses are a small fraction of all misses —
and a processor's published values usually stay exclusive in its cache,
so write faults are rare (paper Tables 5/7).

Initialization includes a sequential portion on processor 0 while the
other processors sit idle; the single barrier between initialization
and the main loop turns that imbalance into barrier/start-up time, as
the paper reports.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.apps.mse.common import (
    MseConfig,
    MseProblem,
    body_block,
    generate_problem,
    refresh_period,
)
from repro.sm.machine import SmMachine, SmRunResult

#: Extra start-up work processor 0 performs alone (sequential setup).
_SETUP_OPS_PER_PAIR = 150


def mse_sm_program(ctx, config: MseConfig, problem: MseProblem, shared: Dict):
    """Per-processor MSE-SM program. Returns the local solution vector."""
    n = config.total_elements
    m = config.elements_per_body
    me, nprocs = ctx.pid, ctx.nprocs
    body_lo, body_hi = body_block(me, config.bodies, nprocs)
    row_lo, row_hi = body_lo * m, body_hi * m

    with ctx.stats.phase("init"):
        if me == 0:
            shared["solution"] = ctx.gmalloc("solution", n)
            # The sequential portion of initialization: only processor 0
            # works while the others wait (the paper's 80M-cycle skew).
            yield from ctx.compute(
                ctx.costs.int_ops(
                    _SETUP_OPS_PER_PAIR * config.bodies * config.bodies
                )
            )
            ctx.create()
        else:
            yield from ctx.wait_create()
        solution_global = shared["solution"]
        positions = ctx.alloc_private("positions", 3 * n)
        solution = ctx.alloc_private("solution_local", n, fill=0.0)
        rhs = ctx.alloc_private("rhs", n)
        yield from ctx.compute(ctx.costs.int_ops(12 * n))
        yield from ctx.write(positions, 0, values=problem.positions.reshape(-1))
        yield from ctx.write(rhs, 0, values=problem.rhs)
        yield from ctx.write(solution_global, row_lo, values=np.zeros(row_hi - row_lo))
        # The single barrier between initialization and the main loop.
        yield from ctx.barrier()

    with ctx.stats.phase("main"):
        solution_np = solution.np
        # The row kernel is the same declared bulk run every time: scan
        # positions and the local solution, then the kernel flops. The
        # Jacobi update itself is untimed Python against the views.
        row_script = (
            ctx.batch()
            .read(positions)
            .read(solution)
            .compute_flops(problem.kernel_flops())
        )
        for iteration in range(config.iterations):
            # Scheduled refreshes from the shared solution vector.
            for body in range(config.bodies):
                if body_lo <= body < body_hi:
                    continue
                if iteration % refresh_period(problem, me, body, nprocs) != 0:
                    continue
                yield from ctx.run_batch(
                    ctx.batch()
                    .read(solution_global, body * m, (body + 1) * m)
                    .write(
                        solution,
                        body * m,
                        values=lambda got: np.array(got[0]),
                    )
                )

            new_values = np.empty(row_hi - row_lo)
            for i in range(row_lo, row_hi):
                yield from ctx.run_batch(row_script)
                new_values[i - row_lo] = problem.jacobi_row_update(
                    solution_np, i, config.omega
                )
            yield from ctx.write(solution, row_lo, values=new_values)
            # Publish to the shared vector (usually cache hits: the
            # blocks stay exclusive unless a reader pulled them).
            yield from ctx.write(solution_global, row_lo, values=new_values)
        yield from ctx.barrier()
    return np.array(solution.np)


def run_mse_sm(
    machine: SmMachine, config: MseConfig
) -> Tuple[SmRunResult, np.ndarray]:
    """Run MSE-SM; returns (result, solution from processor 0)."""
    config.check(machine.nprocs)
    problem = generate_problem(config)
    shared: Dict = {}
    result = machine.run(mse_sm_program, config, problem, shared)
    return result, result.outputs[0]
