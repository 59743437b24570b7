"""EM3D: electromagnetic-wave propagation on a bipartite graph
(paper Section 5.3)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Em3dConfig:
    """Workload parameters for one EM3D run."""

    nodes_per_proc: int = 1000  # E nodes (and H nodes) per processor
    degree: int = 10  # out-degree of every node
    remote_frac: float = 0.20  # fraction of edges pointing off-processor
    iterations: int = 50
    seed: int = 1994

    @classmethod
    def paper(cls) -> "Em3dConfig":
        return cls()

    @classmethod
    def small(
        cls,
        nodes_per_proc: int = 30,
        degree: int = 4,
        remote_frac: float = 0.20,
        iterations: int = 4,
        seed: int = 1994,
    ) -> "Em3dConfig":
        return cls(nodes_per_proc, degree, remote_frac, iterations, seed)

    def check(self, nprocs: int) -> None:
        """Raise ``ValueError`` unless this graph builds on ``nprocs``
        processors (the run-time check; configs are checked by it too)."""
        if not 0.0 <= self.remote_frac <= 1.0:
            raise ValueError("remote_frac must be in [0, 1]")
        if nprocs == 1 and self.remote_frac > 0.0:
            raise ValueError(
                f"remote edges require at least two processors: "
                f"remote_frac={self.remote_frac}, 1 processor"
            )
