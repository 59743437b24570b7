"""Gaussian elimination with partial pivoting (paper Section 5.2)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GaussConfig:
    """Workload parameters for one Gauss run."""

    n: int = 512  # number of variables (the paper's run)
    seed: int = 1994

    @classmethod
    def paper(cls) -> "GaussConfig":
        return cls(n=512)

    @classmethod
    def small(cls, n: int = 32, seed: int = 1994) -> "GaussConfig":
        """A scaled-down configuration for tests."""
        return cls(n=n, seed=seed)

    def check(self, nprocs: int) -> None:
        """Raise ``ValueError`` unless this system runs on ``nprocs``
        processors (the run-time check; configs are checked by it too)."""
        if self.n < nprocs:
            raise ValueError(
                f"need at least one row per processor: n={self.n}, {nprocs} processors"
            )
