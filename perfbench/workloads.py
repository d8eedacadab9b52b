"""The three benchmark workloads.

Each workload generates its inputs from the seed (untimed), then exposes
the program calls the benchmark times:

* ``setup()``: the program's set-up calls only (``setup_s``);
* ``op(state)``: the timed work (``wall_s``);
* ``check_op(out)``: the per-operation output check, run untimed after
  every ``op``;
* ``check(...)``: the final output checks and quality numbers, run after
  the timed phase.

``reset()`` (untimed) restores whatever on-disk state ``setup()`` reads,
and a workload whose ``op`` consumes its state (``reusable_state =
False``) gets a fresh ``setup()`` before every further ``op``.

Sizes are constructor arguments so the tests can run each workload in
miniature; the benchmark uses the defaults.  The request parameters are
fixed for every size.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

import repro.graphs.io as gio
import repro.solvers.chain as chain_mod
import repro.solvers.peng_spielman as peng_spielman
from repro.api import Engine, SparsifyRequest
from repro.core.config import SparsifierConfig
from repro.graphs.generators import grid_graph
from repro.graphs.graph import Graph
from repro.streaming.sparsifier import StreamingSparsifier

from perfbench.checker import pencil_bounds, substitution_residual

# Columns of the substitution-residual check for sparsifier outputs.
SUBSTITUTION_RHS = 4

# The sparsify request (``repro-sparsify sparsify`` defaults) and the
# solve tolerance.
RHO = 16.0
EPSILON = 0.5
SOLVE_TOL = 1e-8


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def graph_digest(graph: Graph) -> str:
    return digest(graph.edge_u, graph.edge_v, graph.edge_weights)


@dataclass
class Quality:
    """What ``check`` found: checked-op counts plus the quality metrics."""

    attempted: int
    ok: int
    reduction: float
    eps_achieved: float
    rel_residual: float
    correct: bool
    notes: List[str] = field(default_factory=list)


def _banded_graph(n: int, band: int) -> Graph:
    offsets = np.arange(1, band + 1)
    u = np.repeat(np.arange(n, dtype=np.int64), band)
    v = u + np.tile(offsets, n)
    inside = v < n
    return Graph(n, u[inside], v[inside], np.ones(int(inside.sum())))


def _seeded_rhs(seed: int, n: int, columns: int) -> np.ndarray:
    return np.random.default_rng([seed, 1]).standard_normal((n, columns))


class Workload:
    """Defaults for the optional hooks described in the module docstring."""

    reusable_state = True
    # A DurableIO the traced run passes to the program (stream-er only).
    io: Any = None

    def prepare(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def check_op(self, out: Any) -> None:
        pass


class SparsifyBanded(Workload):
    """``repro-sparsify sparsify`` in-process: read, ``Engine.run``, write."""

    name = "sparsify-banded-1m"

    def __init__(self, workdir: Path, seed: int, n: int = 5000, band: int = 200) -> None:
        self.seed = seed
        self.input_path = workdir / "banded.txt"
        self.output_path = workdir / "banded.sparsified.txt"
        self.n, self.band = n, band

    def prepare(self) -> None:
        gio.write_edge_list(_banded_graph(self.n, self.band), self.input_path)

    def setup(self) -> Graph:
        return gio.read_edge_list(self.input_path)

    def op(self, graph: Graph) -> Any:
        request = SparsifyRequest(method="koutis", rho=RHO, epsilon=EPSILON, seed=self.seed)
        result = Engine(request).run(graph)
        gio.write_edge_list(result.sparsifier, self.output_path)
        return result

    def output_digest(self, result: Any) -> str:
        return hashlib.blake2b(self.output_path.read_bytes(), digest_size=16).hexdigest()

    def check(self, graph: Graph, result: Any, op_digests: List[str]) -> Quality:
        notes = []
        written = gio.read_edge_list(self.output_path)
        out = result.sparsifier
        ok_write = graph_digest(written) == graph_digest(out)
        if not ok_write:
            notes.append("written edge list differs from the returned sparsifier")
        in_keys = graph.edge_u * graph.num_vertices + graph.edge_v
        out_keys = out.edge_u * out.num_vertices + out.edge_v
        ok_subset = bool(np.isin(out_keys, in_keys).all()) and bool((out.edge_weights > 0).all())
        if not ok_subset:
            notes.append("output holds an edge that is not in the input")
        ok_repeat = len(set(op_digests)) == 1
        if not ok_repeat:
            notes.append("repeated runs of one request gave different outputs")
        if len(op_digests) < 2:
            notes.append("one operation only: the repeat check had nothing to compare")
        try:
            eps = pencil_bounds(graph.laplacian(), out.laplacian()).eps
            residual = substitution_residual(
                graph.laplacian(), out.laplacian(),
                _seeded_rhs(self.seed, graph.num_vertices, SUBSTITUTION_RHS),
            )
        except ValueError as exc:
            notes.append(str(exc))
            eps = residual = float("inf")
        ok_ops = len(op_digests) if (ok_write and ok_subset and ok_repeat) else 0
        return Quality(
            attempted=len(op_digests),
            ok=ok_ops,
            reduction=graph.num_edges / out.num_edges,
            eps_achieved=eps,
            rel_residual=residual,
            correct=ok_ops == len(op_digests) and np.isfinite(eps),
            notes=notes,
        )


def exact_two_hop(level: Any) -> sp.csr_matrix:
    """``D - A D^{-1} A`` of a chain level, as an exact Laplacian."""
    diag = np.where(level.diag > 0, level.diag, 1.0)
    product = level.adjacency @ sp.diags(1.0 / diag) @ level.adjacency
    off = sp.csr_matrix(-product)
    off.setdiag(0)
    off.eliminate_zeros()
    return sp.csr_matrix(off - sp.diags(np.asarray(off.sum(axis=1)).ravel()))


class SolveGrid(Workload):
    """Peng–Spielman: chain build (set-up), then a block of solves (timed)."""

    name = "solve-grid"

    def __init__(self, workdir: Path, seed: int, side: int = 32, columns: int = 128) -> None:
        self.seed = seed
        self.side, self.columns = side, columns
        self.graph = grid_graph(side, side)
        # Resistance queries: each column is e_s - e_t for a random pair.
        rng = np.random.default_rng([seed, 2])
        n = self.graph.num_vertices
        source = rng.integers(0, n, size=columns)
        target = (source + rng.integers(1, n, size=columns)) % n
        rhs = np.zeros((n, columns))
        rhs[source, np.arange(columns)] = 1.0
        rhs[target, np.arange(columns)] = -1.0
        self.rhs = rhs
        self.columns_attempted = 0
        self.columns_ok = 0

    def setup(self) -> Any:
        return chain_mod.build_inverse_chain(
            self.graph, config=SparsifierConfig.practical(bundle_t=2), seed=self.seed
        )

    def op(self, chain: Any) -> Any:
        return peng_spielman.solve_laplacian(self.graph, self.rhs, tol=SOLVE_TOL, chain=chain)

    def check_op(self, report: Any) -> None:
        """Every column must converge, with a recomputed residual within tol."""
        residuals = self.residuals(report.x)
        self.columns_attempted += self.columns
        self.columns_ok += int(np.sum(report.batch.converged & (residuals <= SOLVE_TOL * (1 + 1e-6))))

    def residuals(self, x: np.ndarray) -> np.ndarray:
        lap = self.graph.laplacian()
        return np.linalg.norm(self.rhs - lap @ x, axis=0) / np.linalg.norm(self.rhs, axis=0)

    def output_digest(self, report: Any) -> str:
        return digest(report.x)

    def check(self, chain: Any, report: Any, op_digests: List[str]) -> Quality:
        notes = []
        levels = chain.levels
        try:
            level_eps = [
                pencil_bounds(exact_two_hop(above), level.laplacian).eps
                for above, level in zip(levels, levels[1:]) if level.sparsified
            ]
            # The chain's error accumulates over its levels, so the mean
            # per-level eps (their sum over the level count) is reported.
            eps = float(np.mean(level_eps)) if level_eps else 0.0
            notes.append(f"per-level eps {[round(e, 4) for e in level_eps]}")
        except ValueError as exc:
            notes.append(str(exc))
            eps = float("inf")
        before = sum(level.edges_before_sparsify for level in levels)
        after = sum(level.edges_after_sparsify for level in levels)
        ok_repeat = len(set(op_digests)) == 1
        if not ok_repeat:
            notes.append("repeated solves gave different solutions")
        if self.columns_ok != self.columns_attempted:
            notes.append(f"{self.columns_attempted - self.columns_ok} columns missed tol")
        return Quality(
            attempted=self.columns_attempted,
            ok=self.columns_ok if ok_repeat else 0,
            reduction=before / after,
            eps_achieved=eps,
            rel_residual=float(self.residuals(report.x).max()),
            correct=ok_repeat and self.columns_ok == self.columns_attempted and np.isfinite(eps),
            notes=notes,
        )


class StreamER(Workload):
    """Durable stream restart: ``recover`` (set-up), then ingest the rest (timed)."""

    name = "stream-er"
    reusable_state = False

    def __init__(self, workdir: Path, seed: int, n: int = 800, num_batches: int = 40,
                 batch_edges: int = 2500, snapshot_every: int = 8) -> None:
        self.seed = seed
        self.n, self.snapshot_every = n, snapshot_every
        self.base = workdir / "stream-base"
        self.store = workdir / "stream-store"
        # Erdos-Renyi G(n, M) in a random arrival order.  M is fixed, so
        # every seed ends the stream at the same point of the compaction
        # cadence (compactions fire every fixed number of edges).
        rng = np.random.default_rng([seed, 3])
        iu, iv = np.triu_indices(n, k=1)
        picks = rng.choice(iu.shape[0], size=num_batches * batch_edges, replace=False)
        edges = np.column_stack([iu[picks], iv[picks]]).astype(np.int64)
        self.batches = [edges[i:i + batch_edges] for i in range(0, edges.shape[0], batch_edges)]
        self.half = len(self.batches) // 2
        self.num_edges = edges.shape[0]
        self.recoveries = 0
        self.recoveries_exact = 0
        self.batches_attempted = 0
        self.batches_ok = 0

    def prepare(self) -> None:
        """Stream the first half into a durable store, then drop the stream."""
        for path in (self.base, self.store):
            shutil.rmtree(path, ignore_errors=True)
        stream = StreamingSparsifier(
            self.n, seed=self.seed, store=self.base, snapshot_every=self.snapshot_every
        )
        for batch in self.batches[:self.half]:
            stream.ingest(batch)
        del stream

    def reset(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.base, self.store)

    def setup(self) -> StreamingSparsifier:
        stream, report = StreamingSparsifier.recover(
            self.store, snapshot_every=self.snapshot_every, io=self.io
        )
        self.recoveries += 1
        self.recoveries_exact += int(report.bit_exact and stream.batches_ingested == self.half)
        return stream

    def op(self, stream: StreamingSparsifier) -> Tuple[StreamingSparsifier, list]:
        records = [stream.ingest(batch) for batch in self.batches[self.half:]]
        stream.flush()
        return stream, records

    def check_op(self, out: Tuple[StreamingSparsifier, list]) -> None:
        """Every batch must be ingested whole."""
        for batch, record in zip(self.batches[self.half:], out[1]):
            self.batches_attempted += 1
            self.batches_ok += int(record.edges == batch.shape[0])

    def output_digest(self, out: Tuple[StreamingSparsifier, list]) -> str:
        return graph_digest(out[0].snapshot().graph)

    def check(self, _state: Any, out: Tuple[StreamingSparsifier, list], op_digests: List[str]) -> Quality:
        stream = out[0]
        notes = []
        snapshot = stream.snapshot().graph
        reference = stream.reference_graph()
        ok_count = stream.live_input_edges == self.num_edges
        if not ok_count:
            notes.append("stream lost or duplicated input edges")
        ok_repeat = len(set(op_digests)) == 1
        if not ok_repeat:
            notes.append("repeated restarts gave different snapshots")
        try:
            eps = pencil_bounds(reference.laplacian(), snapshot.laplacian()).eps
            residual = substitution_residual(
                reference.laplacian(), snapshot.laplacian(),
                _seeded_rhs(self.seed, self.n, SUBSTITUTION_RHS),
            )
        except ValueError as exc:
            notes.append(str(exc))
            eps = residual = float("inf")
        attempted = self.batches_attempted + self.recoveries
        ok = self.batches_ok + self.recoveries_exact if (ok_count and ok_repeat) else 0
        if self.recoveries_exact != self.recoveries:
            notes.append("a recovery was not bit-exact")
        return Quality(
            attempted=attempted,
            ok=ok,
            reduction=self.num_edges / snapshot.num_edges,
            eps_achieved=eps,
            rel_residual=residual,
            correct=ok == attempted and np.isfinite(eps),
            notes=notes,
        )


WORKLOADS: Dict[str, Any] = {w.name: w for w in (SparsifyBanded, SolveGrid, StreamER)}
