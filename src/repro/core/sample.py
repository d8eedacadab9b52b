"""Algorithm 1: ``PARALLELSAMPLE``.

    Input: graph G, parameter epsilon
    1. Compute a (24 log^2 n / eps^2)-bundle spanner H for G
    2. G~ := H
    3. For each edge e not in H, with probability 1/4 add e to G~ with weight 4 w_e
    4. Return G~

Theorem 4: with probability ``1 - 1/n^2`` the output satisfies
``(1 - eps) G ⪯ G~ ⪯ (1 + eps) G`` and has at most
``O(n log^3 n / eps^2) + m/2`` edges in expectation.  The proof applies the
matrix Chernoff bound (Theorem 3) to the edge indicators ``Y_e`` (scaled
edge Laplacians) plus slices of the bundle; the bundle guarantees each
``Y_e ⪯ (eps^2 / 6 log n) G`` via Corollary 1.

The implementation below is the vectorised sequential execution of the
parallel algorithm; the PRAM cost of each step is charged to the tracker
(Corollary 2 + an O(m) sampling pass), and the distributed execution lives
in :mod:`repro.core.distributed_sparsify`.

With ``config.num_shards > 1`` the graph is decomposed into vertex-range
shards (:mod:`repro.graphs.sharding`) and each shard's bundle construction
and sampling pass run as one job on the configured execution backend
(:mod:`repro.parallel.backends`); cross-shard boundary edges join the
bundle outright.  RNG sub-streams are split per shard before dispatch, so
a fixed seed gives bit-identical output on every backend and worker
count.  Shard costs combine with the PRAM fork/join rule (work adds,
depth is the max).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.config import SparsifierConfig
from repro.exceptions import SparsificationError
from repro.graphs.graph import Graph
from repro.graphs.sharding import GraphShards, shard_edges
from repro.parallel.metrics import PRAMCost, combine_parallel
from repro.parallel.pram import PRAMTracker
from repro.spanners.bundle import BundleResult, t_bundle_spanner
from repro.spanners.low_stretch_tree import tree_bundle
from repro.spanners.verification import repair_spanner
from repro.utils.rng import RandomState, SeedLike, as_rng, split_rng

__all__ = ["SampleResult", "parallel_sample", "assemble_sample_output"]


def assemble_sample_output(
    graph: Graph,
    bundle_indices: np.ndarray,
    kept_outside: np.ndarray,
    weight_multiplier: float,
) -> Graph:
    """Steps 2–3 output assembly shared by every execution path.

    Bundle edges keep their original weight; sampled survivors are
    reweighted by ``1/p`` so the Laplacian is preserved in expectation.
    The sharded, unsharded, and distributed pipelines all build their
    sparsifier through this one function so the reweighting rule cannot
    drift between them.
    """
    new_u = np.concatenate([graph.edge_u[bundle_indices], graph.edge_u[kept_outside]])
    new_v = np.concatenate([graph.edge_v[bundle_indices], graph.edge_v[kept_outside]])
    new_w = np.concatenate(
        [
            graph.edge_weights[bundle_indices],
            graph.edge_weights[kept_outside] * weight_multiplier,
        ]
    )
    return Graph(graph.num_vertices, new_u, new_v, new_w)


def sample_nonbundle_edges(
    idx: np.ndarray,
    local_bundle: np.ndarray,
    sample_rng: RandomState,
    sampling_probability: float,
) -> Tuple[np.ndarray, int]:
    """Bernoulli-sample the shard edges outside the shard's bundle.

    ``idx`` maps the shard's edge positions to original-graph indices and
    ``local_bundle`` lists the bundle picks in shard-local positions.
    Returns the kept survivors as original-graph indices plus the number
    of non-bundle candidates (for the degenerate check and the
    distributed message count).  Shared by the PRAM and distributed shard
    workers so the sampling rule cannot drift between them.
    """
    in_bundle = np.zeros(idx.size, dtype=bool)
    in_bundle[local_bundle] = True
    outside_local = np.flatnonzero(~in_bundle)
    keep_mask = sample_rng.random(outside_local.size) < sampling_probability
    return idx[outside_local[keep_mask]], int(outside_local.size)


def merge_shard_samples(
    results: list, boundary_edge_indices: np.ndarray, num_edges: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Combine per-shard worker results into global index arrays.

    The bundle is the union of every shard's picks plus all cross-shard
    boundary edges (a mark array over the ``num_edges`` graph edges); the
    sampled survivors are sorted into a canonical order so the output is
    independent of shard execution order.  Shared by the PRAM and
    distributed sharded drivers.
    """
    in_bundle = np.zeros(num_edges, dtype=bool)
    for part in [r["bundle"] for r in results] + [boundary_edge_indices]:
        in_bundle[part] = True
    bundle_indices = np.flatnonzero(in_bundle)
    kept_outside = np.sort(
        np.concatenate([r["kept"] for r in results] + [np.array([], dtype=np.int64)])
    )
    total_outside = sum(r["outside"] for r in results)
    return bundle_indices, kept_outside, total_outside


@dataclass
class SampleResult:
    """Output of one ``PARALLELSAMPLE`` invocation.

    Attributes
    ----------
    sparsifier:
        The output graph ``G~`` (bundle edges at original weight plus the
        surviving non-bundle edges at ``weight_multiplier`` times their
        original weight).
    bundle:
        The bundle construction result (``H`` and its components).
    bundle_edge_indices / sampled_edge_indices:
        Indices (into the input graph) of the edges kept via the bundle
        and via sampling respectively.
    epsilon:
        The epsilon this invocation targeted.
    t:
        Bundle size used.
    input_edges / output_edges:
        Edge counts before and after.
    degenerate:
        True when the bundle absorbed the whole graph so no sampling
        happened (the "threshold of applicability" case) — the output then
        equals the input.
    cost:
        PRAM work/depth charged for the bundle construction and the
        sampling pass.
    """

    sparsifier: Graph
    bundle: BundleResult
    bundle_edge_indices: np.ndarray
    sampled_edge_indices: np.ndarray
    epsilon: float
    t: int
    input_edges: int
    output_edges: int
    degenerate: bool
    cost: PRAMCost = field(default_factory=PRAMCost)

    @property
    def reduction_ratio(self) -> float:
        """Output edges divided by input edges (1.0 when degenerate)."""
        if self.input_edges == 0:
            return 1.0
        return self.output_edges / self.input_edges


def _shard_bundle_and_sample_worker(
    item: Tuple[int, RandomState, RandomState], shared: Dict[str, Any]
) -> Dict[str, Any]:
    """Bundle construction + Bernoulli sampling on one shard's edge subset.

    Module-level (not a closure) so the process backend can pickle it; the
    graph and shard index arrays travel through ``shared`` once per
    worker.  Returns original-graph edge indices plus the shard's PRAM
    cost so the parent can fork/join-combine the shards.
    """
    shard_id, bundle_rng, sample_rng = item
    graph: Graph = shared["graph"]
    config: SparsifierConfig = shared["config"]
    t: int = shared["t"]
    idx: np.ndarray = shared["shards"].shard_edge_indices[shard_id]
    empty = np.array([], dtype=np.int64)
    if idx.size == 0:
        return {"bundle": empty, "kept": empty, "outside": 0, "cost": PRAMCost(), "components": 0}

    tracker = PRAMTracker()
    # Trusted view of the shard's edges: the t-round peel inside
    # ``t_bundle_spanner`` then runs entirely on raw arrays, and a real
    # ``Graph`` is materialised only where graph semantics are needed.
    sub = graph.edge_subset(idx)
    if config.use_tree_bundle:
        bundle = tree_bundle(sub.materialize(), t=t, seed=bundle_rng, tracker=tracker)
    else:
        bundle = t_bundle_spanner(sub, t=t, k=config.spanner_k, seed=bundle_rng, tracker=tracker)
    local_bundle = bundle.edge_indices
    if config.certify_stretch and bundle.component_edge_indices:
        stretch_target = 2.0 * np.log2(max(graph.num_vertices, 2))
        local_bundle = repair_spanner(sub.materialize(), local_bundle, stretch_target)

    kept, outside = sample_nonbundle_edges(
        idx, local_bundle, sample_rng, config.sampling_probability
    )
    tracker.charge_parallel_for(outside, label="sample/bernoulli")
    return {
        "bundle": idx[local_bundle],
        "kept": kept,
        "outside": outside,
        "cost": tracker.total,
        "components": bundle.t,
    }


def _sharded_parallel_sample(
    graph: Graph,
    eps: float,
    config: SparsifierConfig,
    rng: RandomState,
    tracker: PRAMTracker,
) -> SampleResult:
    """Shard-parallel Algorithm 1: fan shard jobs out over the backend."""
    n = graph.num_vertices
    m = graph.num_edges
    t = config.bundle_size(n, eps)
    shards: GraphShards = shard_edges(graph, config.num_shards)
    backend = config.execution_backend()

    # Two streams per shard (bundle + sampling), split before dispatch so
    # scheduling order / backend / worker count cannot change the output.
    streams = split_rng(rng, 2 * shards.num_shards)
    items = [(s, streams[2 * s], streams[2 * s + 1]) for s in range(shards.num_shards)]
    shared = {"graph": graph, "config": config, "t": t, "shards": shards}
    results = backend.map(_shard_bundle_and_sample_worker, items, shared=shared)

    # Shards execute concurrently: PRAM fork/join (work adds, depth max).
    with tracker.parallel_region():
        for r in results:
            tracker.charge(r["cost"].work, r["cost"].depth, label="sample/shard")

    bundle_indices, kept_outside, total_outside = merge_shard_samples(
        results, shards.boundary_edge_indices, m
    )
    bundle_result = BundleResult(
        bundle=graph.select_edges(bundle_indices),
        edge_indices=bundle_indices,
        # Per-shard (not per-component) breakdown in shard order.
        component_edge_indices=[r["bundle"] for r in results],
        t=max((r["components"] for r in results), default=0),
        requested_t=t,
        exhausted=total_outside == 0,
        # Fork/join over the concurrent shards; slightly over-counts the
        # bundle share (each shard's cost includes its sampling pass).
        cost=combine_parallel(r["cost"] for r in results),
    )

    if total_outside == 0:
        # Bundle + boundary absorbed every edge: threshold of applicability.
        return SampleResult(
            sparsifier=graph,
            bundle=bundle_result,
            bundle_edge_indices=bundle_indices,
            sampled_edge_indices=np.array([], dtype=np.int64),
            epsilon=eps,
            t=t,
            input_edges=m,
            output_edges=m,
            degenerate=True,
            cost=tracker.total,
        )

    sparsifier = assemble_sample_output(
        graph, bundle_indices, kept_outside, config.weight_multiplier
    )
    tracker.charge_parallel_for(sparsifier.num_edges, label="sample/assemble-output")
    return SampleResult(
        sparsifier=sparsifier,
        bundle=bundle_result,
        bundle_edge_indices=bundle_indices,
        sampled_edge_indices=kept_outside,
        epsilon=eps,
        t=t,
        input_edges=m,
        output_edges=sparsifier.num_edges,
        degenerate=False,
        cost=tracker.total,
    )


def parallel_sample(
    graph: Graph,
    epsilon: Optional[float] = None,
    config: Optional[SparsifierConfig] = None,
    seed: SeedLike = None,
    tracker: Optional[PRAMTracker] = None,
) -> SampleResult:
    """Run Algorithm 1 (``PARALLELSAMPLE``) on ``graph``.

    Parameters
    ----------
    graph:
        Input weighted graph.
    epsilon:
        Spectral parameter for this invocation; defaults to
        ``config.epsilon``.
    config:
        :class:`SparsifierConfig`; defaults to the practical configuration.
        With ``config.num_shards > 1`` the bundle/sampling work is sharded
        and dispatched through ``config``'s execution backend (see the
        module docstring).
    seed:
        RNG seed (bundle construction and the Bernoulli sampling).
    tracker:
        Optional shared PRAM tracker.

    Returns
    -------
    SampleResult
    """
    config = config if config is not None else SparsifierConfig()
    eps = config.epsilon if epsilon is None else float(epsilon)
    if not 0 < eps <= 1:
        raise SparsificationError(f"epsilon must lie in (0, 1], got {eps}")
    tracker = tracker if tracker is not None else PRAMTracker()
    rng = as_rng(seed)

    n = graph.num_vertices
    m = graph.num_edges
    if m <= config.min_edges_to_sparsify:
        # Nothing to do: below the applicability threshold.
        return SampleResult(
            sparsifier=graph,
            bundle=BundleResult(
                bundle=Graph(n),
                edge_indices=np.array([], dtype=np.int64),
                component_edge_indices=[],
                t=0,
                requested_t=0,
                exhausted=False,
                cost=PRAMCost(),
            ),
            bundle_edge_indices=np.array([], dtype=np.int64),
            sampled_edge_indices=np.arange(m, dtype=np.int64),
            epsilon=eps,
            t=0,
            input_edges=m,
            output_edges=m,
            degenerate=True,
            cost=tracker.total,
        )

    if config.num_shards > 1:
        return _sharded_parallel_sample(graph, eps, config, rng, tracker)

    # ------------------------------------------------------------------ #
    # Step 1: the t-bundle spanner H.
    # ------------------------------------------------------------------ #
    t = config.bundle_size(n, eps)
    if config.use_tree_bundle:
        bundle = tree_bundle(graph, t=t, seed=rng, tracker=tracker)
    else:
        bundle = t_bundle_spanner(
            graph, t=t, k=config.spanner_k, seed=rng, tracker=tracker
        )

    bundle_indices = bundle.edge_indices
    if config.certify_stretch and bundle.component_edge_indices:
        # Repair the *union* against the per-component stretch target so the
        # Lemma 1 certificate holds deterministically: any edge whose stretch
        # over the full bundle exceeds the single-spanner target joins the
        # bundle outright.
        stretch_target = 2.0 * np.log2(max(n, 2))
        bundle_indices = repair_spanner(graph, bundle_indices, stretch_target)

    in_bundle = np.zeros(m, dtype=bool)
    in_bundle[bundle_indices] = True
    outside = np.flatnonzero(~in_bundle)

    # Degenerate case: the bundle swallowed every edge (theory-mode constants
    # on a small graph, or a graph sparser than the bundle target).
    if outside.size == 0:
        return SampleResult(
            sparsifier=graph,
            bundle=bundle,
            bundle_edge_indices=bundle_indices,
            sampled_edge_indices=np.array([], dtype=np.int64),
            epsilon=eps,
            t=t,
            input_edges=m,
            output_edges=m,
            degenerate=True,
            cost=tracker.total,
        )

    # ------------------------------------------------------------------ #
    # Steps 2–3: keep H, sample the rest uniformly, reweight by 1/p.
    # ------------------------------------------------------------------ #
    p = config.sampling_probability
    keep_mask = rng.random(outside.size) < p
    kept_outside = outside[keep_mask]
    tracker.charge_parallel_for(outside.size, label="sample/bernoulli")

    sparsifier = assemble_sample_output(
        graph, bundle_indices, kept_outside, config.weight_multiplier
    )
    tracker.charge_parallel_for(sparsifier.num_edges, label="sample/assemble-output")

    return SampleResult(
        sparsifier=sparsifier,
        bundle=bundle,
        bundle_edge_indices=bundle_indices,
        sampled_edge_indices=kept_outside,
        epsilon=eps,
        t=t,
        input_edges=m,
        output_edges=sparsifier.num_edges,
        degenerate=False,
        cost=tracker.total,
    )
