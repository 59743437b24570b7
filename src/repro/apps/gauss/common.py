"""Machine-independent core of the Gauss application.

The program solves ``A x = b`` by Gaussian elimination with partial
pivoting: a forward-elimination phase (pivot selection by reduction,
pivot-row broadcast, row updates) and a backward-substitution phase
(one value broadcast per unknown). Rows are distributed blockwise and
never redistributed; a mask array tracks which global row was chosen as
the pivot of each elimination step (paper Section 5.2).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.apps.gauss import GaussConfig
from repro.sim.rng import RngStreams


def generate_system(config: GaussConfig) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build the full system ``(A, b, x_true)``.

    Each processor "fills its rows with random numbers and solves the
    equations using a known vector": entries are uniform random, the
    known solution is deterministic, and ``b = A @ x_true``.
    """
    rng = RngStreams(config.seed).stream("gauss.system")
    n = config.n
    a_matrix = rng.uniform(-1.0, 1.0, size=(n, n))
    # Mild diagonal boost keeps random systems comfortably non-singular.
    a_matrix[np.arange(n), np.arange(n)] += 2.0 * np.sign(
        a_matrix[np.arange(n), np.arange(n)]
    )
    x_true = np.cos(np.arange(n, dtype=np.float64))
    b = a_matrix @ x_true
    return a_matrix, b, x_true


def row_block(pid: int, n: int, nprocs: int) -> Tuple[int, int]:
    """Blockwise row distribution: processor ``pid`` owns [lo, hi)."""
    lo = pid * n // nprocs
    hi = (pid + 1) * n // nprocs
    return lo, hi


def owner_of_row(row: int, n: int, nprocs: int) -> int:
    """Which processor owns a global row under blockwise distribution."""
    for pid in range(nprocs):
        lo, hi = row_block(pid, n, nprocs)
        if lo <= row < hi:
            return pid
    raise ValueError(f"row {row} out of range for n={n}")


def residual(a_matrix: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """Relative residual ``||A x - b|| / ||b||``."""
    return float(np.linalg.norm(a_matrix @ x - b) / np.linalg.norm(b))


def update_flops(active_rows: int, row_len: int) -> int:
    """FLOPs of one elimination update: factor + scale + subtract."""
    return active_rows * (1 + 2 * row_len)


#: Non-FP work per updated element (loads, stores, index arithmetic on a
#: single-issue SPARC). Calibrated against the paper's Gauss computation
#: time: 40.8M cycles over ~1.4M updated elements per processor is ~29
#: cycles per element; 2 FLOPs cover 6 of those.
UPDATE_INT_OPS_PER_ELEMENT = 18


def update_int_ops(active_rows: int, row_len: int) -> int:
    """Integer/memory-op cycles of one elimination update."""
    return active_rows * row_len * UPDATE_INT_OPS_PER_ELEMENT


def pivot_search_flops(active_rows: int) -> int:
    """FLOPs of a local pivot search (abs + compare per row)."""
    return 2 * active_rows
