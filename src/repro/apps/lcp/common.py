"""Machine-independent core of the LCP application.

The linear complementarity problem: find z with ``M z + q >= 0``,
``z >= 0`` and ``z' (M z + q) = 0``. M is symmetric sparse (the paper's
run has 4096 variables) with uniform non-zeros per row, so the static
blockwise row distribution balances load (the paper's footnote).

The solver is multi-sweep synchronous projected SOR (De Leone et al.):
each step runs a fixed number (5) of Gauss-Seidel sweeps over the local
rows against a local copy of the solution vector, then updates the
global solution vector and tests convergence. The asynchronous variants
(ALCP) publish updates after every sweep, converging in fewer steps but
communicating much more — the computation/communication tradeoff the
paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.apps.lcp import LcpConfig
from repro.sim.rng import RngStreams


@dataclass
class LcpProblem:
    """CSR representation of the symmetric sparse M plus dense q."""

    n: int
    indptr: np.ndarray  # (n + 1,)
    indices: np.ndarray  # column indices
    data: np.ndarray  # values
    diag: np.ndarray  # M[i, i]
    q: np.ndarray

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        start, end = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[start:end], self.data[start:end]

    def mz_plus_q(self, z: np.ndarray) -> np.ndarray:
        result = self.q + self.diag * z
        for i in range(self.n):
            cols, vals = self.row(i)
            result[i] += float(np.dot(vals, z[cols]))
        return result

    def complementarity_residual(self, z: np.ndarray) -> float:
        """||min(z, Mz + q)||_inf — zero exactly at a solution."""
        w = self.mz_plus_q(z)
        return float(np.max(np.abs(np.minimum(z, w))))


def generate_problem(config: LcpConfig) -> LcpProblem:
    """A symmetric, strictly diagonally dominant M (PSOR converges).

    Structure: a band of near-diagonal couplings plus circulant
    long-range couplings at stride ``n // 8`` (reaching neighboring row
    blocks, so processors genuinely exchange values). Every row has the
    same number of non-zeros, matching the paper's footnote that its
    matrices had uniform non-zeros per row.
    """
    rng = RngStreams(config.seed).stream("lcp.problem")
    n, band, stride_couples = config.n, config.band, config.stride_couples
    if band >= n:
        raise ValueError("band must be smaller than n")
    stride = max(n // 8, band + 1)
    offsets = sorted(
        set(range(-band, 0))
        | set(range(1, band + 1))
        | {s * stride for s in range(1, stride_couples + 1)}
        | {-s * stride for s in range(1, stride_couples + 1)}
    )
    # Symmetric values: depend on the unordered pair via a hash of the
    # smaller index and the absolute offset (circulant couplings wrap).
    off_values = {
        k: -np.abs(rng.uniform(0.1, 1.0, size=n)) for k in {abs(o) for o in offsets}
    }
    indptr = [0]
    indices = []
    data = []
    for i in range(n):
        for k in offsets:
            j = (i + k) % n if abs(k) >= stride else i + k
            if abs(k) < stride and not 0 <= j < n:
                continue
            indices.append(j)
            # min(i, j) keys the unordered pair, so M stays symmetric.
            data.append(float(off_values[abs(k)][min(i, j)]))
        indptr.append(len(indices))
    max_row_sum = max(
        sum(abs(data[indptr[i] + j]) for j in range(indptr[i + 1] - indptr[i]))
        for i in range(n)
    )
    diag = np.full(n, max_row_sum + 1.0)  # strict diagonal dominance
    q = rng.uniform(-1.0, 1.0, size=n)
    return LcpProblem(
        n=n,
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
        data=np.array(data, dtype=np.float64),
        diag=diag,
        q=q,
    )


def psor_row_update(
    problem: LcpProblem, z: np.ndarray, i: int, omega: float
) -> float:
    """One projected-SOR update of variable ``i`` against vector ``z``.

    ``z_i <- max(0, z_i - omega * (M z + q)_i / M_ii)`` — the diagonal
    is stored separately from the off-diagonal CSR entries.
    """
    cols, vals = problem.row(i)
    residual_i = problem.q[i] + float(np.dot(vals, z[cols])) + problem.diag[i] * z[i]
    return max(0.0, z[i] - omega * residual_i / problem.diag[i])


#: Non-FP work per CSR entry in a sweep (index loads, pointer chasing,
#: projection branch on a single-issue SPARC). Calibrated so that, like
#: the paper's LCP, computation dominates LCP-MP at roughly 73%.
SWEEP_INT_OPS_PER_NNZ = 18


def row_block(pid: int, n: int, nprocs: int) -> Tuple[int, int]:
    """Blockwise distribution of rows (and of z entries)."""
    lo = pid * n // nprocs
    hi = (pid + 1) * n // nprocs
    return lo, hi
