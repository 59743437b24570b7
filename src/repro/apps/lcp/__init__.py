"""LCP: linear complementarity by multi-sweep SOR (paper Section 5.4)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LcpConfig:
    """Workload parameters for one LCP run."""

    n: int = 4096  # variables (the paper's run)
    band: int = 4  # off-diagonal non-zeros per side (uniform rows)
    stride_couples: int = 1  # circulant long-range couplings per side
    sweeps_per_step: int = 5
    omega: float = 1.0  # SOR relaxation factor
    tolerance: float = 1e-6
    max_steps: int = 200
    seed: int = 1994

    @classmethod
    def paper(cls) -> "LcpConfig":
        return cls()

    @classmethod
    def small(cls, n: int = 64, seed: int = 1994, **kwargs) -> "LcpConfig":
        return cls(n=n, seed=seed, **kwargs)

    def check(self, nprocs: int, kind: str, asynchronous: bool = False) -> None:
        """Raise ``ValueError`` unless the ``kind`` program (``"mp"`` or
        ``"sm"``) runs on ``nprocs`` processors (the run-time check;
        configs are checked by it too): synchronous LCP-MP reconciles its
        copies by recursive doubling, which needs a power of two."""
        if kind == "mp" and not asynchronous and nprocs & (nprocs - 1):
            raise ValueError(
                "synchronous LCP-MP uses recursive doubling: the processor "
                f"count must be a power of two, got {nprocs}"
            )
