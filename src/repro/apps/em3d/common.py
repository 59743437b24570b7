"""Machine-independent core of EM3D.

The problem is a computation on a bipartite graph: directed edges from
E nodes (electric field) to H nodes (magnetic field) and vice versa. At
each half-step, new E values are computed from the weighted sum of
neighboring H nodes, then new H values from neighboring E nodes. Each
processor allocates an equal set of E and H nodes; a user-specified
percentage of edges point to nodes on remote processors (paper: 1000 E
+ 1000 H nodes per processor, out-degree 10, 20% remote, 50 iterations).

The generator produces *out*-edges (source-side adjacency); the two
machine programs build the in-edge (dependency) structures through
simulated communication, because that construction — bulk messages in
MP, locks and remote writes in SM — is exactly the initialization cost
the paper analyzes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.apps.em3d import Em3dConfig
from repro.sim.rng import RngStreams

#: Kinds of graph node. E nodes read from H nodes and vice versa.
E, H = 0, 1
KIND_NAMES = {E: "E", H: "H"}

#: Computation charged for building one edge / one node of the graph
#: (random generation, allocation, pointer initialization). Derived
#: from the paper's EM3D-MP initialization, which is 91% computation:
#: 18.2M cycles over ~40K edges per processor.
BUILD_OPS_PER_EDGE = 150
BUILD_OPS_PER_NODE = 200


@dataclass
class Em3dGraph:
    """Out-edge representation, per source processor.

    ``out_edges[kind][pid]`` is a list of ``(src_index, dest_pid,
    dest_index, weight)`` tuples: an edge from node ``src_index`` of
    ``kind`` on ``pid`` to the opposite-kind node ``dest_index`` on
    ``dest_pid``. Initial node values are deterministic functions of
    identity so both machine versions start identically.
    """

    config: Em3dConfig
    nprocs: int
    out_edges: Dict[int, List[List[Tuple[int, int, int, float]]]]

    def initial_value(self, kind: int, pid: int, index: int) -> float:
        base = 1.0 if kind == E else -1.0
        return base * (1.0 + 0.01 * pid + 0.001 * index)

    def initial_values(self, kind: int, pid: int) -> np.ndarray:
        n = self.config.nodes_per_proc
        return np.array(
            [self.initial_value(kind, pid, i) for i in range(n)], dtype=np.float64
        )

    def in_edges(self, kind: int, pid: int) -> List[List[Tuple[int, int, float]]]:
        """Dependency lists: for each ``kind`` node on ``pid``, the
        ``(src_pid, src_index, weight)`` of its opposite-kind sources.

        This is the *reference* construction (no simulated cost); the
        machine programs must arrive at the same structure through
        communication.
        """
        n = self.config.nodes_per_proc
        src_kind = H if kind == E else E
        result: List[List[Tuple[int, int, float]]] = [[] for _ in range(n)]
        for src_pid in range(self.nprocs):
            for src, dest_pid, dest, weight in self.out_edges[src_kind][src_pid]:
                if dest_pid == pid:
                    result[dest].append((src_pid, src, weight))
        return result


def build_graph(config: Em3dConfig, nprocs: int) -> Em3dGraph:
    """Randomly generate the bipartite graph (deterministic in the seed)."""
    config.check(nprocs)
    rng = RngStreams(config.seed).stream("em3d.graph")
    n = config.nodes_per_proc
    out_edges: Dict[int, List[List[Tuple[int, int, int, float]]]] = {E: [], H: []}
    for kind in (E, H):
        for pid in range(nprocs):
            edges: List[Tuple[int, int, int, float]] = []
            for src in range(n):
                for _ in range(config.degree):
                    if nprocs > 1 and rng.uniform() < config.remote_frac:
                        dest_pid = int(rng.integers(nprocs - 1))
                        if dest_pid >= pid:
                            dest_pid += 1
                    else:
                        dest_pid = pid
                    dest = int(rng.integers(n))
                    weight = float(rng.uniform(0.01, 1.0)) / config.degree
                    edges.append((src, dest_pid, dest, weight))
            out_edges[kind].append(edges)
    return Em3dGraph(config=config, nprocs=nprocs, out_edges=out_edges)


def reference_values(
    graph: Em3dGraph, iterations: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the computation directly in numpy (the oracle for both programs).

    Returns final (e_values, h_values) of shape (nprocs, nodes_per_proc).
    """
    config = graph.config
    nprocs = graph.nprocs
    n = config.nodes_per_proc
    e_vals = np.stack([graph.initial_values(E, p) for p in range(nprocs)])
    h_vals = np.stack([graph.initial_values(H, p) for p in range(nprocs)])
    e_in = [graph.in_edges(E, p) for p in range(nprocs)]
    h_in = [graph.in_edges(H, p) for p in range(nprocs)]
    for _ in range(iterations):
        new_e = np.zeros_like(e_vals)
        for pid in range(nprocs):
            for i, deps in enumerate(e_in[pid]):
                new_e[pid, i] = sum(w * h_vals[sp, si] for sp, si, w in deps)
        e_vals = new_e
        new_h = np.zeros_like(h_vals)
        for pid in range(nprocs):
            for i, deps in enumerate(h_in[pid]):
                new_h[pid, i] = sum(w * e_vals[sp, si] for sp, si, w in deps)
        h_vals = new_h
    return e_vals, h_vals
