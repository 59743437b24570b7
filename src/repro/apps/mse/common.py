"""Machine-independent core of MSE (microstructure electrostatics).

The paper's program computes boundary-integral solutions of the Laplace
equation for an N-body system, each body discretized into M boundary
elements. The (NM)^2 system matrix cannot be stored and is *recomputed
as needed*; the system is solved by parallel asynchronous Jacobi
iterations. Updates to the solution vector follow a precomputed
*schedule* exploiting physical structure: distant bodies interact
weakly, so their solutions are exchanged less frequently, drastically
reducing communication at a small cost in iterations.

The original is production chemical-engineering code (Traenkle); this
is a synthetic boundary-element kernel with the same structure — dense
recomputed interactions, scheduled exchange, computation-bound profile
(see DESIGN.md section 2.8 on the substitution).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.apps.mse import MseConfig
from repro.sim.rng import RngStreams


@dataclass
class MseProblem:
    """Geometry, right-hand side, and the exchange schedule."""

    config: MseConfig
    centers: np.ndarray  # (bodies, 3)
    positions: np.ndarray  # (bodies * elements, 3)
    rhs: np.ndarray  # (bodies * elements,)
    periods: np.ndarray  # (bodies, bodies) exchange periods

    def kernel_row(self, i: int) -> np.ndarray:
        """Row i of the interaction matrix, recomputed on the fly."""
        diffs = self.positions - self.positions[i]
        distances = np.sqrt((diffs * diffs).sum(axis=1))
        row = 1.0 / (4.0 * np.pi * (distances + 0.05))
        # Strong self-interaction keeps the Jacobi iteration convergent.
        row[i] = 2.0 * row.sum()
        return row

    def jacobi_row_update(self, solution: np.ndarray, i: int, omega: float) -> float:
        row = self.kernel_row(i)
        diagonal = row[i]
        off = float(np.dot(row, solution)) - diagonal * solution[i]
        return (1.0 - omega) * solution[i] + omega * (self.rhs[i] - off) / diagonal

    def residual(self, solution: np.ndarray) -> float:
        """Relative residual of K s = rhs."""
        n = self.config.total_elements
        result = np.empty(n)
        for i in range(n):
            result[i] = float(np.dot(self.kernel_row(i), solution))
        return float(
            np.linalg.norm(result - self.rhs) / np.linalg.norm(self.rhs)
        )

    def kernel_flops(self) -> int:
        """FLOPs to recompute one kernel row (distance + kernel eval)."""
        return 10 * self.config.total_elements


def generate_problem(config: MseConfig) -> MseProblem:
    """Deterministic geometry: body centers in the unit cube, elements on
    small spheres around them; schedule periods from center distances."""
    rng = RngStreams(config.seed).stream("mse.geometry")
    centers = rng.uniform(0.0, 1.0, size=(config.bodies, 3))
    offsets = rng.normal(0.0, 0.03, size=(config.total_elements, 3))
    positions = np.repeat(centers, config.elements_per_body, axis=0) + offsets
    rhs = rng.uniform(0.5, 1.5, size=config.total_elements)
    diffs = centers[:, None, :] - centers[None, :, :]
    distances = np.sqrt((diffs * diffs).sum(axis=2))
    ratio = np.maximum(distances / config.near_distance, 1.0)
    periods = np.minimum(np.ceil(ratio**2), config.max_period).astype(np.int64)
    np.fill_diagonal(periods, 1)
    return MseProblem(
        config=config,
        centers=centers,
        positions=positions,
        rhs=rhs,
        periods=periods,
    )


def body_block(pid: int, bodies: int, nprocs: int) -> Tuple[int, int]:
    """Blockwise distribution of bodies to processors."""
    lo = pid * bodies // nprocs
    hi = (pid + 1) * bodies // nprocs
    return lo, hi


def owner_of_body(body: int, bodies: int, nprocs: int) -> int:
    for pid in range(nprocs):
        lo, hi = body_block(pid, bodies, nprocs)
        if lo <= body < hi:
            return pid
    raise ValueError(f"body {body} out of range")


def refresh_period(problem: MseProblem, pid: int, body: int, nprocs: int) -> int:
    """How often processor ``pid`` refreshes ``body``'s values: the
    tightest period over the bodies ``pid`` owns."""
    lo, hi = body_block(pid, problem.config.bodies, nprocs)
    if lo >= hi:
        return int(problem.config.max_period)
    return int(problem.periods[lo:hi, body].min())
