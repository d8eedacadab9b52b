"""Converged spectral checks for sparsifier outputs.

``pencil_bounds`` returns the extreme generalized eigenvalues of the
pencil ``(L_H, L_G)``: the tightest ``lo, hi`` with
``lo * L_G <= L_H <= hi * L_G``.  Both Laplacians are grounded (one
vertex removed per connected component of ``G``), which leaves two
symmetric positive definite matrices with the same nonzero pencil
spectrum.  Each extreme eigenvalue comes from Lanczos (``eigsh``) run to
a tight tolerance with an exact sparse LU of the other matrix as the
inner solve, so the result is a converged value and not a random-probe
estimate.  ``dense_pencil_bounds`` is the dense reference the tests pin
it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

# Lanczos tolerance on the extreme eigenvalues (relative).
EIGSH_TOL = 1e-10


@dataclass(frozen=True)
class PencilBounds:
    """Extreme eigenvalues of ``(L_H, L_G)`` and the spectral error they imply."""

    lam_min: float
    lam_max: float

    @property
    def eps(self) -> float:
        """Smallest ``eps`` with ``(1 - eps) L_G <= L_H <= (1 + eps) L_G``."""
        return max(self.lam_max - 1.0, 1.0 - self.lam_min)


def _components(laplacian: sp.spmatrix) -> Tuple[int, np.ndarray]:
    adjacency = sp.csr_matrix(laplacian, copy=True)
    adjacency.setdiag(0)
    adjacency.eliminate_zeros()
    return csgraph.connected_components(adjacency, directed=False)


def grounded_pair(
    lap_g: sp.spmatrix, lap_h: sp.spmatrix
) -> Tuple[sp.csc_matrix, sp.csc_matrix, np.ndarray]:
    """Ground both Laplacians at the first vertex of every component of ``G``.

    Returns ``(G_grounded, H_grounded, keep)`` where ``keep`` is the
    boolean mask of retained vertices.  Raises ``ValueError`` when ``H``
    does not have exactly the components of ``G`` (then no finite bound
    exists).
    """
    lap_g = sp.csr_matrix(lap_g)
    lap_h = sp.csr_matrix(lap_h)
    if lap_g.shape != lap_h.shape:
        raise ValueError(f"shape mismatch: {lap_g.shape} vs {lap_h.shape}")
    count_g, labels_g = _components(lap_g)
    count_h, labels_h = _components(lap_h)
    if count_g != count_h:
        raise ValueError(
            f"H has {count_h} connected components but G has {count_g}: "
            "no finite spectral bound"
        )
    _, first = np.unique(labels_g, return_index=True)
    if np.unique(labels_h[first]).size != count_h:
        raise ValueError("H and G have different connected components")
    keep = np.ones(lap_g.shape[0], dtype=bool)
    keep[first] = False
    return (
        sp.csc_matrix(lap_g[keep][:, keep]),
        sp.csc_matrix(lap_h[keep][:, keep]),
        keep,
    )


def _factor(matrix: sp.csc_matrix) -> spla.SuperLU:
    return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})


def _largest(a: sp.csc_matrix, b: sp.csc_matrix, b_lu: spla.SuperLU) -> float:
    """Largest eigenvalue of ``a x = lam b x`` (``b`` SPD, factorised)."""
    n = a.shape[0]
    if n <= 2:
        return float(sla.eigh(a.toarray(), b.toarray(), eigvals_only=True)[-1])
    inverse = spla.LinearOperator((n, n), matvec=b_lu.solve, dtype=float)
    # A fixed start vector keeps the checker deterministic.
    v0 = np.linspace(1.0, 2.0, n)
    values = spla.eigsh(
        a, k=1, M=b, Minv=inverse, which="LA", tol=EIGSH_TOL, v0=v0,
        return_eigenvectors=False,
    )
    return float(values[0])


def pencil_bounds(lap_g: sp.spmatrix, lap_h: sp.spmatrix) -> PencilBounds:
    """Converged extreme eigenvalues of the pencil ``(L_H, L_G)``."""
    g, h, _ = grounded_pair(lap_g, lap_h)
    if g.shape[0] == 0:
        return PencilBounds(1.0, 1.0)
    lam_max = _largest(h, g, _factor(g))
    lam_min = 1.0 / _largest(g, h, _factor(h))
    return PencilBounds(lam_min=lam_min, lam_max=lam_max)


def dense_pencil_bounds(lap_g: sp.spmatrix, lap_h: sp.spmatrix) -> PencilBounds:
    """Dense reference for :func:`pencil_bounds` (small graphs only)."""
    g, h, _ = grounded_pair(lap_g, lap_h)
    if g.shape[0] == 0:
        return PencilBounds(1.0, 1.0)
    values = sla.eigh(h.toarray(), g.toarray(), eigvals_only=True)
    return PencilBounds(lam_min=float(values[0]), lam_max=float(values[-1]))


def substitution_residual(
    lap_g: sp.spmatrix, lap_h: sp.spmatrix, rhs: np.ndarray
) -> float:
    """Max over columns of ``||b - L_G x|| / ||b||`` with ``x = L_H^+ b``.

    How well the sparsifier stands in for the input in a Laplacian solve.
    Each column of ``rhs`` is first projected to sum zero on every
    component of ``G`` (the range of both Laplacians).
    """
    g_full = sp.csr_matrix(lap_g)
    _, labels = _components(g_full)
    _, h, keep = grounded_pair(lap_g, lap_h)
    block = np.array(rhs, dtype=float, ndmin=2).reshape(g_full.shape[0], -1)
    counts = np.bincount(labels).astype(float)
    for j in range(block.shape[1]):
        block[:, j] -= (np.bincount(labels, weights=block[:, j]) / counts)[labels]
    x = np.zeros_like(block)
    x[keep] = _factor(h).solve(np.ascontiguousarray(block[keep]))
    residual = block - g_full @ x
    return float(np.max(np.linalg.norm(residual, axis=0) / np.linalg.norm(block, axis=0)))
