"""End-user SDD / Laplacian solver built on the approximate inverse chain.

``solve_laplacian`` builds (or reuses) a chain for the input graph and runs
chain-preconditioned conjugate gradient through the package's one CG
kernel, :func:`repro.linalg.cg.laplacian_solve_many`; ``solve_sdd`` first
reduces a general SDD system to a Laplacian system via the Gremban double cover
(:mod:`repro.linalg.sdd`).  Following Section 4 of the paper, the chain is
built not for the input itself but for a 2-approximation of it produced by
``PARALLELSPARSIFY`` (ρ chosen from the estimated condition number), which
"can be used as a preconditioner for M ... incurring only a constant
factor".

The plain-CG and Jacobi-CG baselines used by benchmark E7 live here too so
the comparison shares one code path for work accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.core.config import SparsifierConfig
from repro.core.sparsify import parallel_sparsify
from repro.exceptions import NotSDDError
from repro.graphs.conversion import from_laplacian
from repro.graphs.graph import Graph
from repro.linalg.cg import BatchSolveResult, SolveResult, laplacian_solve_many
from repro.linalg.eigen import condition_number
from repro.linalg.sdd import SDDMatrix, is_sdd
from repro.solvers.chain import InverseChain, build_inverse_chain, chain_preconditioner
from repro.solvers.work_model import ChainWorkModel, chain_work_model
from repro.utils.rng import SeedLike, as_rng

__all__ = [
    "SDDSolveReport",
    "solve_laplacian",
    "solve_sdd",
    "baseline_cg_solve",
    "baseline_jacobi_cg_solve",
    "estimate_condition_number",
]


@dataclass
class SDDSolveReport:
    """Everything the benchmarks need about one solve.

    Attributes
    ----------
    result:
        Summary of the solve: the solution (a vector for a 1-D right-hand
        side), the worst column's iteration count and residual, and the
        aggregate matvecs and work.  The per-column data lives in
        ``batch``.
    chain:
        The approximate inverse chain used (None for baselines).
    work_model:
        Work summary derived from the chain and the solve.
    preconditioner_graph_edges:
        Edges of the (possibly pre-sparsified) graph the chain was built
        on.
    condition_estimate:
        Estimated condition number of the input system, which sets the
        chain's per-level epsilon; None when an existing chain was reused.
    batch:
        Per-column :class:`repro.linalg.cg.BatchSolveResult` of the solve
        (one column for a 1-D right-hand side).
    """

    result: SolveResult
    chain: Optional[InverseChain]
    work_model: Optional[ChainWorkModel]
    preconditioner_graph_edges: int
    condition_estimate: Optional[float]
    batch: BatchSolveResult

    @property
    def x(self) -> np.ndarray:
        return self.result.x


def estimate_condition_number(graph: Graph, cap: float = 1e12) -> float:
    """Finite condition number of the graph Laplacian (dense path, capped)."""
    if graph.num_vertices > 1500:
        # Cheap surrogate for large graphs: ratio of extreme weighted degrees
        # times n^2 over-estimates kappa; good enough to pick log kappa.
        degrees = graph.weighted_degrees()
        positive = degrees[degrees > 0]
        if positive.size == 0:
            return 1.0
        ratio = float(positive.max() / positive.min())
        return min(cap, ratio * graph.num_vertices ** 2)
    kappa = condition_number(graph.laplacian())
    if not np.isfinite(kappa):
        return cap
    return min(cap, float(kappa))


def _summary(batch: BatchSolveResult, rhs: np.ndarray) -> SolveResult:
    """Worst-column summary of ``batch``; a 1-D ``rhs`` gets a 1-D ``x``."""
    return SolveResult(
        x=batch.x.ravel() if np.ndim(rhs) == 1 else batch.x,
        converged=batch.all_converged,
        iterations=int(batch.iterations.max(initial=0)),
        residual_norm=float(batch.residual_norms.max(initial=0.0)),
        matvecs=batch.matvecs,
        precond_applications=batch.precond_applications,
        work=batch.work,
    )


def solve_laplacian(
    graph: Graph,
    rhs: np.ndarray,
    tol: float = 1e-8,
    config: Optional[SparsifierConfig] = None,
    rho: Optional[float] = None,
    epsilon_per_level: Optional[float] = None,
    presparsify: bool = True,
    chain: Optional[InverseChain] = None,
    max_iterations: Optional[int] = None,
    seed: SeedLike = None,
    block_size: int = 128,
) -> SDDSolveReport:
    """Solve ``L_G x = rhs`` with the chain-preconditioned solver.

    Parameters
    ----------
    graph:
        Connected weighted graph defining the Laplacian.
    rhs:
        Right-hand side (projected against constants internally): an
        ``(n,)`` vector or an ``(n, k)`` block.  Either way it is solved by
        blocked CG (:func:`repro.linalg.cg.laplacian_solve_many`) with the
        chain attached as a blocked preconditioner — one chain build and
        one flat matrix pass per iteration for all ``k`` columns; a vector
        is solved as a one-column block and its solution raveled.
    tol:
        Relative residual target.
    config:
        Sparsifier configuration for chain construction.
    rho:
        Per-level sparsification factor of the chain build; defaults to
        ``O(log n * log^2 kappa)`` scaled to practical size.
    epsilon_per_level:
        Per-level epsilon of the chain build; defaults to
        ``min(0.5, 1 / log2(kappa))`` as the framework requires.
    presparsify:
        Build the chain for a 2-approximation of the input (Section 4's
        final improvement) rather than for the input itself.
    chain:
        Reuse an existing chain instead of building one.  ``config``,
        ``rho``, ``epsilon_per_level``, ``presparsify`` and ``seed`` only
        serve the build and are ignored then, and the condition estimate
        is not computed.
    seed:
        RNG seed for all sparsifier invocations.
    block_size:
        Columns per chunk of the blocked solve.
    """
    rhs_arr = np.asarray(rhs, dtype=float)
    if rhs_arr.ndim > 2:
        raise ValueError(f"rhs must be 1-D or 2-D, got shape {rhs_arr.shape}")
    kappa: Optional[float] = None
    preconditioner_graph = graph
    if chain is None:
        rng = as_rng(seed)
        config = config if config is not None else SparsifierConfig()
        kappa = estimate_condition_number(graph)
        log_kappa = max(1.0, np.log2(max(kappa, 2.0)))
        if epsilon_per_level is None:
            epsilon_per_level = float(min(0.5, 1.0 / log_kappa))
            epsilon_per_level = max(epsilon_per_level, 0.05)
        if rho is None:
            rho = float(max(2.0, min(16.0, np.log2(max(graph.num_vertices, 2)))))
        if presparsify and graph.num_edges > 4 * graph.num_vertices:
            pre = parallel_sparsify(
                graph, epsilon=0.5, rho=rho, config=config, seed=rng
            )
            preconditioner_graph = pre.sparsifier
        chain = build_inverse_chain(
            preconditioner_graph,
            epsilon_per_level=epsilon_per_level,
            rho=rho,
            config=config,
            seed=rng,
        )

    batch = laplacian_solve_many(
        graph.laplacian(),
        rhs_arr,
        tol=tol,
        max_iterations=max_iterations,
        block_size=block_size,
        preconditioner=chain_preconditioner(chain),
        precond_work_per_application=chain_work_model(chain).work_per_application,
    )
    result = _summary(batch, rhs_arr)
    return SDDSolveReport(
        result=result,
        chain=chain,
        work_model=chain_work_model(chain, result),
        preconditioner_graph_edges=preconditioner_graph.num_edges,
        condition_estimate=kappa,
        batch=batch,
    )


def solve_sdd(
    matrix: sp.spmatrix | np.ndarray,
    rhs: np.ndarray,
    tol: float = 1e-8,
    config: Optional[SparsifierConfig] = None,
    seed: SeedLike = None,
    **kwargs,
) -> SDDSolveReport:
    """Solve a general SDD system ``M x = b`` (Theorem 6 interface).

    The system is reduced to a Laplacian on the Gremban double cover, the
    Laplacian solver runs there, and the solution is mapped back.  The
    returned report's ``result.x`` is the solution of the *original*
    system; iteration/work numbers (and ``batch``) refer to the reduced
    solve.
    """
    if not is_sdd(matrix):
        raise NotSDDError("solve_sdd requires a symmetric diagonally dominant matrix")
    sdd = SDDMatrix.from_matrix(matrix)
    graph = from_laplacian(sdd.laplacian)
    reduced_rhs = sdd.reduce_rhs(np.asarray(rhs, dtype=float).ravel())
    report = solve_laplacian(
        graph, reduced_rhs, tol=tol, config=config, seed=seed, **kwargs
    )
    recovered = replace(report.result, x=sdd.recover(report.result.x))
    return replace(report, result=recovered)


def baseline_cg_solve(
    graph: Graph, rhs: np.ndarray, tol: float = 1e-8, max_iterations: Optional[int] = None
) -> SolveResult:
    """Plain (unpreconditioned) CG on the Laplacian — the E7 baseline."""
    batch = laplacian_solve_many(graph.laplacian(), rhs, tol=tol, max_iterations=max_iterations)
    return _summary(batch, rhs)


def baseline_jacobi_cg_solve(
    graph: Graph, rhs: np.ndarray, tol: float = 1e-8, max_iterations: Optional[int] = None
) -> SolveResult:
    """Diagonally preconditioned CG on the Laplacian — the cheap-preconditioner baseline."""
    lap = graph.laplacian()
    diag = lap.diagonal()
    safe = np.where(diag > 0, diag, 1.0)[:, None]

    def jacobi(residual: np.ndarray) -> np.ndarray:
        return residual / safe

    batch = laplacian_solve_many(
        lap,
        rhs,
        tol=tol,
        max_iterations=max_iterations,
        preconditioner=jacobi,
        precond_work_per_application=float(graph.num_vertices),
    )
    return _summary(batch, rhs)
