"""MSE-MP: message-passing microstructure electrostatics.

Each processor keeps a local copy of the solution vector. When its
schedule calls for updates to a body's values, it sends an asynchronous
request to the owner and awaits the reply; processors service such
requests asynchronously at poll points inside their compute loop
(paper Section 5.1). There are no barriers in the main loop: the
communication cost and load-imbalance waiting both surface as library
time, as the paper observes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.apps.mse.common import (
    MseConfig,
    MseProblem,
    body_block,
    generate_problem,
    owner_of_body,
    refresh_period,
)
from repro.mp.machine import MpMachine, MpRunResult

_REQ_HANDLER = "_mse_req"
_VAL_HANDLER = "_mse_val"

#: Extra start-up work processor 0 performs (problem setup the original
#: code runs sequentially before the parallel phase).
_SETUP_OPS_PER_PAIR = 150


class _NodeState:
    def __init__(self) -> None:
        self.replies = 0


def mse_mp_program(ctx, config: MseConfig, problem: MseProblem):
    """Per-processor MSE-MP program. Returns the local solution vector."""
    n = config.total_elements
    m = config.elements_per_body
    me, nprocs = ctx.pid, ctx.nprocs
    body_lo, body_hi = body_block(me, config.bodies, nprocs)
    row_lo, row_hi = body_lo * m, body_hi * m
    state = _NodeState()

    with ctx.stats.phase("init"):
        positions = ctx.alloc("positions", 3 * n)
        solution = ctx.alloc("solution", n, fill=0.0)
        rhs = ctx.alloc("rhs", n)

        def on_request(handler_ctx, packet):
            body = packet.payload[0]
            lo = body * m
            values = yield from handler_ctx.read(solution, lo, lo + m)
            yield from handler_ctx.am.send_train(
                packet.src, _VAL_HANDLER, (body, np.array(values)), nbytes=8 * m
            )

        def on_values(handler_ctx, packet):
            body, values = packet.payload
            yield from handler_ctx.write(solution, body * m, values=values)
            state.replies += 1

        ctx.am.register(_REQ_HANDLER, on_request)
        ctx.am.register(_VAL_HANDLER, on_values)

        # Geometry generation (every processor builds the full geometry,
        # as the matrix-free formulation requires).
        yield from ctx.compute(ctx.costs.int_ops(12 * n))
        yield from ctx.write(positions, 0, values=problem.positions.reshape(-1))
        yield from ctx.write(rhs, 0, values=problem.rhs)
        # Every processor participates in initialization (unlike MSE-SM,
        # where processor 0 works alone for part of it).
        yield from ctx.compute(
            ctx.costs.int_ops(
                _SETUP_OPS_PER_PAIR * config.bodies * config.bodies // max(nprocs, 1)
            )
        )
        yield from ctx.barrier()

    with ctx.stats.phase("main"):
        solution_np = solution.np
        for iteration in range(config.iterations):
            # Scheduled refreshes of non-owned bodies.
            requested = 0
            for body in range(config.bodies):
                if body_lo <= body < body_hi:
                    continue
                if iteration % refresh_period(problem, me, body, nprocs) != 0:
                    continue
                owner = owner_of_body(body, config.bodies, nprocs)
                yield from ctx.am.send(owner, _REQ_HANDLER, body)
                requested += 1
            target = state.replies + requested
            yield from ctx.poll_wait(lambda: state.replies >= target)

            # Jacobi updates of owned rows; the kernel row is recomputed,
            # so the only memory traffic is positions + solution scans.
            # Each row is one declared bulk run; the Jacobi update is
            # untimed Python against the views.
            row_script = (
                ctx.batch()
                .read(positions)
                .read(solution)
                .compute_flops(problem.kernel_flops())
            )
            new_values = np.empty(row_hi - row_lo)
            for i in range(row_lo, row_hi):
                yield from ctx.run_batch(row_script)
                new_values[i - row_lo] = problem.jacobi_row_update(
                    solution_np, i, config.omega
                )
                # Service incoming requests between rows (the paper's
                # asynchronous request servicing).
                yield from ctx.drain_polls()
            yield from ctx.write(solution, row_lo, values=new_values)
        yield from ctx.barrier()
        yield from ctx.drain_polls()
    return np.array(solution.np)


def run_mse_mp(
    machine: MpMachine, config: MseConfig
) -> Tuple[MpRunResult, np.ndarray]:
    """Run MSE-MP; returns (result, solution from processor 0)."""
    config.check(machine.nprocs)
    problem = generate_problem(config)
    result = machine.run(mse_mp_program, config, problem)
    return result, result.outputs[0]
