"""Looped (pre-blocking) resistance solve paths.

Before the blocked multi-RHS solver (:func:`repro.linalg.cg.laplacian_solve_many`)
landed, every resistance path issued one conjugate-gradient solve per pair,
per edge, or per JL direction inside a Python loop.  Those loops are kept
here, each column now a one-column ``laplacian_solve_many`` call, for two
purposes:

* ``benchmarks/bench_resistance.py`` times blocked-vs-looped on identical
  inputs, so the recorded speedups always compare against the real
  pre-optimization code path;
* the parity tests pin the blocked implementations to the looped ones
  within solver tolerance.

They are *reference* implementations: correct, object-at-a-time, and slow.
Production callers use :mod:`repro.resistance.exact` and
:mod:`repro.resistance.approx`.
"""

from __future__ import annotations


import numpy as np

from repro.graphs.graph import Graph
from repro.linalg.cg import laplacian_solve_many
from repro.utils.rng import SeedLike, as_rng

__all__ = [
    "looped_resistances_of_pairs",
    "looped_resistances_all_edges",
    "looped_approximate_resistances",
]


def looped_resistances_of_pairs(
    graph: Graph, pairs: np.ndarray, tol: float = 1e-10
) -> np.ndarray:
    """One CG solve per pair — the pre-blocking ``method="solve"`` path."""
    pair_arr = np.asarray(pairs, dtype=np.int64)
    n = graph.num_vertices
    lap = graph.laplacian()
    results = np.empty(pair_arr.shape[0])
    for i, (a, b) in enumerate(pair_arr):
        rhs = np.zeros(n)
        rhs[a] = 1.0
        rhs[b] = -1.0
        solution = laplacian_solve_many(lap, rhs, tol=tol).x.ravel()
        results[i] = float(solution[a] - solution[b])
    return results


def looped_resistances_all_edges(graph: Graph, tol: float = 1e-10) -> np.ndarray:
    """One CG solve per edge — no deduplication, no blocking."""
    pairs = np.stack([graph.edge_u, graph.edge_v], axis=1)
    return looped_resistances_of_pairs(graph, pairs, tol=tol)


def looped_approximate_resistances(
    graph: Graph,
    num_directions: int,
    seed: SeedLike = None,
    solver_tol: float = 1e-8,
) -> np.ndarray:
    """One CG solve per JL direction — the pre-blocking sketch loop.

    Draws one sign vector per direction from the stream (the blocked
    implementation spawns an independent generator per direction, so the
    two produce different estimates for the same seed; parity tests feed
    both the same sign matrix instead).
    """
    if graph.num_edges == 0:
        return np.zeros(0)
    rng = as_rng(seed)
    n = graph.num_vertices
    m = graph.num_edges
    lap = graph.laplacian()
    sqrt_w = np.sqrt(graph.edge_weights)
    u = graph.edge_u
    v = graph.edge_v
    scale = 1.0 / np.sqrt(num_directions)
    resistance_estimate = np.zeros(m)
    for _ in range(num_directions):
        signs = rng.choice(np.array([-1.0, 1.0]), size=m) * scale
        y = np.zeros(n)
        contrib = signs * sqrt_w
        np.add.at(y, u, contrib)
        np.add.at(y, v, -contrib)
        z = laplacian_solve_many(lap, y, tol=solver_tol).x.ravel()
        diff = z[u] - z[v]
        resistance_estimate += diff * diff
    return resistance_estimate
