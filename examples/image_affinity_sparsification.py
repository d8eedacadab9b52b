"""Sparsifying image-affinity graphs (the Remark 1 workload).

Run with:  python examples/image_affinity_sparsification.py

Builds weighted 4-connected affinity graphs of synthetic grayscale images
(``w_ij = exp(-beta (I_i - I_j)^2)``), sparsifies them, and uses them for a
small graph-based smoothing task (solving ``(L + lambda I) x = lambda y``,
the screened-Poisson / weighted-smoothing system common in graph-based
image processing), comparing the result computed on the original graph and
on the sparsifier.
"""

from __future__ import annotations

import numpy as np

from repro import SparsifierConfig, certify_approximation, generators, parallel_sparsify
from repro.linalg.cg import laplacian_solve_many


def smooth(graph, signal: np.ndarray, strength: float = 0.5) -> np.ndarray:
    """Solve (L + strength*I) x = strength * signal — graph-regularised smoothing."""
    import scipy.sparse as sp

    system = graph.laplacian() + strength * sp.identity(graph.num_vertices, format="csr")
    return laplacian_solve_many(system, strength * signal, tol=1e-9, deflate=False).x.ravel()


def main() -> None:
    rows = cols = 24
    # Affinity grids are already sparse (4 edges per pixel), so a single-spanner
    # bundle is the right setting; denser inputs would use a larger bundle.
    config = SparsifierConfig.practical(bundle_t=1)

    for kind, beta in (("blobs", 30.0), ("stripes", 30.0)):
        graph = generators.image_affinity_graph(rows, cols, beta=beta, seed=5, kind=kind)
        sparse = parallel_sparsify(graph, epsilon=0.5, rho=4, config=config, seed=6)
        cert = certify_approximation(graph, sparse.sparsifier)

        # Noisy version of the underlying intensity image as the signal to smooth.
        rng = np.random.default_rng(7)
        base = generators._synthetic_image(rows, cols, seed=5, kind=kind).ravel()
        noisy = base + 0.3 * rng.standard_normal(base.shape)

        smoothed_full = smooth(graph, noisy)
        smoothed_sparse = smooth(sparse.sparsifier, noisy)
        agreement = np.linalg.norm(smoothed_full - smoothed_sparse) / np.linalg.norm(smoothed_full)

        print(f"image kind={kind!r} ({rows}x{cols}, beta={beta}):")
        print(f"  affinity graph edges: {graph.num_edges}, sparsifier edges: {sparse.output_edges}")
        print(f"  spectral certificate: [{cert.lower:.3f}, {cert.upper:.3f}]")
        print(f"  smoothing disagreement (relative L2, full vs sparsified graph): {agreement:.3f}")
        print()


if __name__ == "__main__":
    main()
