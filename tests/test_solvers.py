"""Tests for the Peng–Spielman chain solver stack (repro.solvers)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.config import SparsifierConfig
from repro.exceptions import NotSDDError, SparsificationError
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.laplacian import is_laplacian
from repro.solvers.chain import (
    apply_chain,
    build_inverse_chain,
    chain_preconditioner,
    _two_hop_laplacian,
    _split_level,
)
from repro.solvers.peng_spielman import (
    baseline_cg_solve,
    baseline_jacobi_cg_solve,
    estimate_condition_number,
    solve_laplacian,
    solve_sdd,
)

CONFIG = SparsifierConfig.practical(bundle_t=1)


def _rhs_for(graph: Graph, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(graph.num_vertices)
    return b - b.mean()


class TestTwoHopReduction:
    def test_two_hop_is_laplacian(self, grid_graph_8x8):
        level = _split_level(grid_graph_8x8.laplacian())
        two_hop = _two_hop_laplacian(level)
        assert is_laplacian(two_hop, tol=1e-8)

    def test_two_hop_preserves_null_space(self, small_er_graph):
        level = _split_level(small_er_graph.laplacian())
        two_hop = _two_hop_laplacian(level)
        ones = np.ones(small_er_graph.num_vertices)
        assert np.allclose(two_hop @ ones, 0.0, atol=1e-8)

    def test_two_hop_positive_semidefinite(self, grid_graph_8x8):
        level = _split_level(grid_graph_8x8.laplacian())
        two_hop = _two_hop_laplacian(level).toarray()
        eigenvalues = np.linalg.eigvalsh(0.5 * (two_hop + two_hop.T))
        assert eigenvalues.min() >= -1e-8


class TestChainConstruction:
    def test_chain_has_levels(self, grid_graph_8x8):
        chain = build_inverse_chain(grid_graph_8x8, config=CONFIG, seed=0)
        assert chain.depth >= 1
        assert chain.total_nnz >= grid_graph_8x8.laplacian().nnz

    def test_chain_levels_are_laplacians(self, grid_graph_8x8):
        chain = build_inverse_chain(grid_graph_8x8, config=CONFIG, seed=1)
        for level in chain:
            assert is_laplacian(level.laplacian, tol=1e-6)

    def test_chain_from_laplacian_matrix(self, grid_graph_8x8):
        chain = build_inverse_chain(grid_graph_8x8.laplacian(), config=CONFIG, seed=2)
        assert chain.depth >= 1

    def test_chain_rejects_non_laplacian(self):
        with pytest.raises(SparsificationError):
            build_inverse_chain(sp.identity(10, format="csr"), config=CONFIG)

    def test_sparsified_chain_smaller_than_unsparsified(self):
        g = gen.erdos_renyi_graph(150, 0.15, seed=3, ensure_connected=True)
        sparsified = build_inverse_chain(g, config=CONFIG, sparsify=True, seed=4, max_levels=4)
        plain = build_inverse_chain(g, config=CONFIG, sparsify=False, seed=4, max_levels=4)
        assert sparsified.total_nnz <= plain.total_nnz

    def test_max_levels_respected(self, grid_graph_8x8):
        chain = build_inverse_chain(grid_graph_8x8, config=CONFIG, max_levels=2, seed=5)
        assert chain.depth <= 2

    def test_level_bookkeeping(self):
        g = gen.erdos_renyi_graph(100, 0.15, seed=6, ensure_connected=True)
        chain = build_inverse_chain(g, config=CONFIG, seed=7, max_levels=3)
        assert not chain.levels[0].sparsified
        for level in chain.levels[1:]:
            if level.sparsified:
                assert level.edges_after_sparsify <= level.edges_before_sparsify


class TestChainApplication:
    def test_exact_chain_is_accurate_inverse(self, grid_graph_8x8):
        """Without per-level sparsification the chain is a near-exact inverse
        (validating the Peng–Spielman identity and the recursion plumbing)."""
        chain = build_inverse_chain(grid_graph_8x8, config=CONFIG, seed=0, sparsify=False)
        lap = grid_graph_8x8.laplacian()
        b = _rhs_for(grid_graph_8x8)
        x = apply_chain(chain, b)
        residual = np.linalg.norm(lap @ x - b) / np.linalg.norm(b)
        assert residual < 0.2

    def test_sparsified_chain_trades_accuracy_for_size(self, grid_graph_8x8):
        """Per-level sparsification keeps the chain small; accuracy per application
        drops but stays bounded (it is recovered by the outer PCG iteration)."""
        exact = build_inverse_chain(grid_graph_8x8, config=CONFIG, seed=0, sparsify=False)
        sparse = build_inverse_chain(grid_graph_8x8, config=CONFIG, seed=0, sparsify=True)
        # Without sparsification the levels densify (the "M~ can be too dense"
        # problem); with it every level stays near the input size.
        assert max(level.nnz for level in sparse) < max(level.nnz for level in exact)
        lap = grid_graph_8x8.laplacian()
        b = _rhs_for(grid_graph_8x8)
        x = apply_chain(sparse, b)
        residual = np.linalg.norm(lap @ x - b) / np.linalg.norm(b)
        assert np.isfinite(residual)
        assert residual < 20.0

    def test_apply_chain_output_mean_zero(self, grid_graph_8x8):
        chain = build_inverse_chain(grid_graph_8x8, config=CONFIG, seed=1)
        x = apply_chain(chain, _rhs_for(grid_graph_8x8, 3))
        assert abs(x.mean()) < 1e-9

    def test_apply_chain_length_checked(self, grid_graph_8x8):
        chain = build_inverse_chain(grid_graph_8x8, config=CONFIG, seed=2)
        with pytest.raises(ValueError):
            apply_chain(chain, np.ones(7))

    def test_preconditioner_is_roughly_linear(self, grid_graph_8x8):
        """PCG assumes a fixed linear preconditioner; check additivity numerically."""
        chain = build_inverse_chain(grid_graph_8x8, config=CONFIG, seed=3)
        precond = chain_preconditioner(chain)
        a = _rhs_for(grid_graph_8x8, 1)
        b = _rhs_for(grid_graph_8x8, 2)
        combined = precond(a + b)
        separate = precond(a) + precond(b)
        assert np.allclose(combined, separate, atol=1e-8)


class TestSolveLaplacian:
    def test_solution_correct_grid(self, grid_graph_8x8):
        b = _rhs_for(grid_graph_8x8)
        report = solve_laplacian(grid_graph_8x8, b, tol=1e-8, config=CONFIG, seed=0)
        lap = grid_graph_8x8.laplacian()
        assert report.result.converged
        assert np.linalg.norm(lap @ report.x - b) <= 1e-6 * np.linalg.norm(b)

    def test_solution_correct_dense_er(self):
        g = gen.erdos_renyi_graph(150, 0.2, seed=1, ensure_connected=True)
        b = _rhs_for(g, 2)
        report = solve_laplacian(g, b, tol=1e-8, config=CONFIG, seed=3)
        assert report.result.converged
        assert np.linalg.norm(g.laplacian() @ report.x - b) <= 1e-6 * np.linalg.norm(b)

    def test_preconditioned_beats_plain_cg_iterations(self):
        """The chain preconditioner should cut the iteration count on a grid
        (grids are moderately ill-conditioned, where preconditioning pays off)."""
        g = gen.grid_graph(20, 20)
        b = _rhs_for(g, 5)
        plain = baseline_cg_solve(g, b, tol=1e-8)
        chain = solve_laplacian(g, b, tol=1e-8, config=CONFIG, seed=6)
        assert chain.result.converged
        assert chain.result.iterations < plain.iterations

    def test_work_model_populated(self, grid_graph_8x8):
        report = solve_laplacian(grid_graph_8x8, _rhs_for(grid_graph_8x8), config=CONFIG, seed=7)
        assert report.work_model is not None
        assert report.work_model.chain_depth == report.chain.depth
        assert report.work_model.outer_iterations == report.result.iterations
        assert report.work_model.solve_work > 0
        assert "chain depth" in report.work_model.summary()

    def test_chain_reuse(self, grid_graph_8x8):
        b = _rhs_for(grid_graph_8x8)
        first = solve_laplacian(grid_graph_8x8, b, config=CONFIG, seed=8)
        second = solve_laplacian(grid_graph_8x8, b, config=CONFIG, chain=first.chain)
        assert second.result.converged
        assert second.chain is first.chain

    def test_reused_chain_skips_condition_estimate(self, grid_graph_8x8, monkeypatch):
        """Only the chain build uses the condition estimate."""
        import repro.solvers.peng_spielman as peng_spielman

        chain = build_inverse_chain(grid_graph_8x8, config=CONFIG, seed=8)

        def refuse(graph, cap=1e12):
            raise AssertionError("condition estimate computed for a reused chain")

        monkeypatch.setattr(peng_spielman, "estimate_condition_number", refuse)
        report = solve_laplacian(grid_graph_8x8, _rhs_for(grid_graph_8x8), chain=chain)
        assert report.result.converged
        assert report.condition_estimate is None

    def test_vector_rhs_is_column_zero_of_block(self, grid_graph_8x8):
        """A 1-D rhs is the one-column block solve, raveled: bit-identical."""
        chain = build_inverse_chain(grid_graph_8x8, config=CONFIG, seed=9)
        b = _rhs_for(grid_graph_8x8, 3)
        vector = solve_laplacian(grid_graph_8x8, b, chain=chain)
        block = solve_laplacian(grid_graph_8x8, b[:, None], chain=chain)
        assert vector.x.shape == (grid_graph_8x8.num_vertices,)
        assert np.array_equal(vector.x, block.x[:, 0])
        assert vector.result.iterations == block.result.iterations

    def test_condition_estimate_positive(self, grid_graph_8x8):
        assert estimate_condition_number(grid_graph_8x8) > 1.0

    def test_jacobi_baseline_converges(self, grid_graph_8x8):
        result = baseline_jacobi_cg_solve(grid_graph_8x8, _rhs_for(grid_graph_8x8), tol=1e-8)
        assert result.converged


class TestSolveSDD:
    def test_strictly_dominant_system(self):
        rng = np.random.default_rng(0)
        n = 40
        off = rng.uniform(-1.0, 0.0, size=(n, n))
        off = 0.5 * (off + off.T)
        np.fill_diagonal(off, 0.0)
        mat = np.diag(np.abs(off).sum(axis=1) + rng.uniform(0.5, 1.5, n)) + off
        x_true = rng.standard_normal(n)
        b = mat @ x_true
        report = solve_sdd(mat, b, tol=1e-10, config=CONFIG, seed=1)
        assert np.allclose(report.x, x_true, atol=1e-5)

    def test_mixed_sign_offdiagonals(self):
        rng = np.random.default_rng(3)
        n = 30
        off = rng.uniform(-1.0, 1.0, size=(n, n))
        off = 0.5 * (off + off.T)
        np.fill_diagonal(off, 0.0)
        mat = np.diag(np.abs(off).sum(axis=1) + 1.0) + off
        x_true = rng.standard_normal(n)
        report = solve_sdd(mat, mat @ x_true, tol=1e-10, config=CONFIG, seed=4)
        assert np.allclose(report.x, x_true, atol=1e-5)

    def test_rejects_non_sdd(self):
        with pytest.raises(NotSDDError):
            solve_sdd(np.array([[1.0, -3.0], [-3.0, 1.0]]), np.ones(2))

    def test_report_metrics_present(self):
        rng = np.random.default_rng(5)
        n = 25
        off = -np.abs(rng.uniform(0, 1, size=(n, n)))
        off = 0.5 * (off + off.T)
        np.fill_diagonal(off, 0.0)
        mat = np.diag(np.abs(off).sum(axis=1) + 1.0) + off
        report = solve_sdd(mat, rng.standard_normal(n), config=CONFIG, seed=6)
        assert report.condition_estimate >= 1.0
        assert report.result.iterations > 0
        assert report.batch.num_columns == 1
        assert report.x.shape == (n,)
