"""MSE: microstructure electrostatics (paper Section 5.1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class MseConfig:
    """Workload parameters for one MSE run."""

    bodies: int = 256  # the paper's run
    elements_per_body: int = 20
    iterations: int = 20
    near_distance: float = 0.35  # bodies closer than this exchange every step
    max_period: int = 4  # farthest bodies exchange every max_period steps
    omega: float = 0.9  # Jacobi damping
    seed: int = 1994

    @classmethod
    def paper(cls) -> "MseConfig":
        return cls()

    @classmethod
    def small(
        cls,
        bodies: int = 12,
        elements_per_body: int = 4,
        iterations: int = 6,
        seed: int = 1994,
    ) -> "MseConfig":
        return cls(
            bodies=bodies,
            elements_per_body=elements_per_body,
            iterations=iterations,
            seed=seed,
        )

    @property
    def total_elements(self) -> int:
        return self.bodies * self.elements_per_body

    def check(self, nprocs: int, **side: Any) -> None:
        """Raise ``ValueError`` unless this problem runs on ``nprocs``
        processors (the run-time check; configs are checked by it too),
        whatever the ``side`` keywords."""
        if self.bodies < nprocs:
            raise ValueError(
                f"need at least one body per processor: bodies={self.bodies}, "
                f"{nprocs} processors"
            )
