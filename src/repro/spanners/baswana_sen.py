"""Baswana–Sen randomized (2k-1)-spanner construction.

This is the algorithm behind Theorem 1 of the paper (their adaptation of
Baswana & Sen, Random Struct. Algorithms 2007, Theorem 5.4): a spanner of
expected size ``O(k n^{1 + 1/k})`` computable with ``O(k m)`` work in
polylogarithmic parallel time.  With ``k = ceil(log2 n)`` the spanner has
expected ``O(n log n)`` edges and stretch ``2k - 1 <= 2 log2 n``, which is
exactly the "log n-spanner" object the sparsifier needs.

Two important adaptations for this package:

* **Metric.**  The paper's stretch (Section 2) is *resistive*:
  ``st_p(e) = w_e * sum_{e' in p} 1 / w_{e'}``.  A classical spanner with
  multiplicative stretch ``s`` on edge lengths ``l_e = 1 / w_e`` gives
  exactly ``st_H(e) <= s`` in the paper's sense, so the algorithm runs on
  the lengths ``1 / w`` while the output subgraph keeps the original
  weights.
* **Cost accounting.**  The implementation is a sequence of vectorised
  passes over the edge array; each pass charges the PRAM tracker with the
  work/depth of the corresponding CRCW PRAM step (Corollary 2's
  accounting), so benchmarks can report work and depth without a PRAM.

The per-iteration clustering logic follows Baswana–Sen phase 1/phase 2:

1. ``k - 1`` clustering iterations.  Clusters of the current clustering are
   sampled with probability ``n^{-1/k}``; vertices of unsampled clusters
   either join the nearest sampled neighbouring cluster (adding that
   lightest edge) or, if none is adjacent, add one lightest edge per
   neighbouring cluster and leave the clustering.  Edges that become
   "covered" by these additions are discarded from the working edge set.
2. Phase 2 joins every vertex to each cluster of the final clustering that
   remains adjacent to it through one lightest edge.

Every per-vertex decision is a *segmented reduction* over the (vertex,
cluster) groups produced by one packed-key sort — ``np.minimum.reduceat``
/ ``np.logical_or.reduceat`` over group boundaries — and covered edges
are removed by scattering each group's decision back to its rows, so one
clustering iteration is a small constant number of flat NumPy passes
with no hashing, no searching and no Python loop over vertices.  The
pre-vectorization implementation is preserved in
:mod:`repro.spanners._reference` for golden tests and benchmarking; both
select bit-identical edge sets for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.graphs.views import EdgeSubset
from repro.parallel.metrics import PRAMCost
from repro.parallel.pram import PRAMTracker
from repro.utils.rng import RandomState, SeedLike, as_rng

__all__ = ["SpannerResult", "baswana_sen_spanner"]

GraphLike = Union[Graph, EdgeSubset]


@dataclass
class SpannerResult:
    """Output of a spanner construction.

    Attributes
    ----------
    spanner:
        The spanner subgraph (same vertex set, subset of the input edges,
        original weights).
    edge_indices:
        Indices (into the input graph's edge arrays) of the edges chosen.
    stretch_target:
        The stretch ``2k - 1`` the construction aims for.
    k:
        The Baswana–Sen parameter used.
    cost:
        PRAM work/depth charged while building the spanner.  When a shared
        tracker is passed in, this is the *delta* charged by this call
        alone, so per-component costs sum correctly.
    """

    spanner: Graph
    edge_indices: np.ndarray
    stretch_target: float
    k: int
    cost: PRAMCost = field(default_factory=PRAMCost)


def _segmented_argmin(
    keys: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by integer key; per group, locate the minimum value.

    The bucketing primitive shared by the shared-memory spanner and the
    columnar CONGEST decide round.  Each key is packed with its row index
    as ``((key - min) << row_bits) | row`` and the packed values are
    sorted in place.  They are all distinct, so NumPy's default
    (unstable) value sort yields exactly the *stable* key order:
    ``order`` is read from the low bits and keeps each bucket in input
    order, and the sorted keys from the high bits.  The earliest sorted
    position achieving the segment minimum is therefore the earliest
    *input row* at the minimum — the tie-break every golden test pins
    down.  When the key range plus ``row_bits`` needs more than 62 bits,
    a stable ``argsort`` on the raw keys produces the same order.

    ``keys`` must be non-empty (callers early-out on empty input).

    Returns
    -------
    order : permutation sorting the rows by key (stable)
    starts : segment start offsets into the sorted order, one per group
             (groups appear in ascending key order)
    seg_of : per sorted row, the index of its group
    minima : per group, the minimum value
    best : per group, the *sorted position* of the earliest row achieving
           the minimum (``order[best]`` gives original row indices)
    """
    size = keys.size
    positions = np.arange(size, dtype=np.int64)
    row_bits = (size - 1).bit_length()
    base = int(keys.min())
    if (int(keys.max()) - base).bit_length() + row_bits <= 62:
        keys_sorted = np.subtract(keys, base, dtype=np.int64)
        keys_sorted <<= row_bits
        keys_sorted |= positions
        keys_sorted.sort()
        order = keys_sorted & ((1 << row_bits) - 1)
        keys_sorted >>= row_bits
    else:
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
    starts, seg_of = _segments(keys_sorted)
    del keys_sorted
    values_sorted = values[order]
    minima = np.minimum.reduceat(values_sorted, starts)
    at_min = values_sorted == minima[seg_of]
    best = np.minimum.reduceat(np.where(at_min, positions, size), starts)
    return order, starts, seg_of, minima, best


def _segments(sorted_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Start offsets and per-row run index of the equal runs in ``sorted_ids``."""
    boundary = np.r_[True, sorted_ids[1:] != sorted_ids[:-1]]
    return np.flatnonzero(boundary), np.cumsum(boundary, dtype=np.int64) - 1


def _group_directed_rows(
    n: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    lengths: np.ndarray,
    cluster_u: np.ndarray,
    cluster_v: np.ndarray,
    rows_uv: np.ndarray,
    rows_vu: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """Lightest directed row per (tail vertex, head cluster) group.

    Directed row ``r < m`` reads edge ``r`` from ``edge_u`` towards the
    cluster of ``edge_v``; row ``m + r`` reads it the other way.
    ``rows_uv`` / ``rows_vu`` are the sorted valid edge positions of each
    half, so only valid rows are ever gathered.  Ties on length resolve
    to the earliest directed row.

    Returns ``(dir_rows, order, seg_of, grp_tail, grp_cluster, grp_len,
    grp_pos)``: the valid directed row ids, the sorting permutation and
    group id of each sorted row, and per group (in ascending (tail,
    cluster) order) its tail, head cluster, minimum length and the edge
    position achieving it.
    """
    m = edge_u.shape[0]
    tail = np.concatenate([edge_u[rows_uv], edge_v[rows_vu]])
    head = np.concatenate([cluster_v[rows_uv], cluster_u[rows_vu]])
    row_len = np.concatenate([lengths[rows_uv], lengths[rows_vu]])
    # tail * n + head orders groups lexicographically by (tail, cluster).
    order, _, seg_of, grp_len, best = _segmented_argmin(tail * np.int64(n) + head, row_len)
    sel = order[best]
    dir_rows = np.concatenate([rows_uv, rows_vu + m])
    return dir_rows, order, seg_of, tail[sel], head[sel], grp_len, dir_rows[sel] % m


def _spanner_select(
    n: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    weights: np.ndarray,
    k: int,
    rng: RandomState,
    tracker: PRAMTracker,
) -> np.ndarray:
    """Core Baswana–Sen edge selection on raw arrays.

    Returns the sorted unique local indices (into ``edge_u``/``edge_v``)
    of the spanner edges.  This is the function the bundle peel loop calls
    directly, so ``t`` rounds never materialise an intermediate ``Graph``.
    """
    # The working arrays are only ever re-bound to fancy-indexed slices,
    # never mutated in place, so the caller's (possibly read-only) arrays
    # are used as-is.
    lengths = 1.0 / weights  # resistive metric
    chosen = np.zeros(edge_u.shape[0], dtype=bool)
    edge_idx = np.arange(edge_u.shape[0], dtype=np.int64)

    # cluster[v] = centre vertex id, or -1 once v leaves the clustering.
    cluster = np.arange(n, dtype=np.int64)
    sample_probability = float(n) ** (-1.0 / k) if n > 1 else 1.0

    for _iteration in range(k - 1):
        m = edge_idx.size
        if m == 0:
            break
        # --- sample clusters -------------------------------------------------
        clustered = cluster >= 0
        center_sampled = np.zeros(n, dtype=bool)
        center_sampled[cluster[clustered]] = True
        active_centers = np.flatnonzero(center_sampled)
        sampled_flags = rng.random(active_centers.shape[0]) < sample_probability
        center_sampled[active_centers[~sampled_flags]] = False
        # PRAM: each cluster flips a coin, each vertex reads its centre's coin.
        tracker.charge_parallel_for(active_centers.shape[0], label="spanner/sample-clusters")
        tracker.charge_parallel_for(n, label="spanner/propagate-sampling")

        in_sampled = np.zeros(n, dtype=bool)
        in_sampled[clustered] = center_sampled[cluster[clustered]]

        # --- per (vertex, neighbouring cluster) lightest edges --------------
        # Directed view: each remaining edge appears once per endpoint.
        # Only clustered heads count, and only vertices outside sampled
        # clusters act this iteration.
        cluster_u = cluster[edge_u]
        cluster_v = cluster[edge_v]
        rows_uv = np.flatnonzero((cluster_v >= 0) & ~in_sampled[edge_u])
        rows_vu = np.flatnonzero((cluster_u >= 0) & ~in_sampled[edge_v])
        num_rows = rows_uv.size + rows_vu.size
        tracker.charge_parallel_for(2 * m, label="spanner/scan-edges")

        if num_rows == 0:
            # Nothing to do; clustering simply persists for sampled clusters.
            cluster = np.where(in_sampled, cluster, -1)
            continue

        dir_rows, order, row_group, grp_v, grp_c, grp_len, grp_pos = _group_directed_rows(
            n, edge_u, edge_v, lengths, cluster_u, cluster_v, rows_uv, rows_vu
        )
        # The O(m) temporaries are freed as soon as they are dead: at 10⁶
        # edges they set the process's peak memory.
        del cluster_u, cluster_v, rows_uv, rows_vu
        # PRAM: grouping/minimum per (v, c) pair is a segmented reduction.
        tracker.charge_reduction(num_rows, label="spanner/group-min")

        # --- per-vertex decisions (segmented reductions) --------------------
        # grp_* arrays are sorted by (vertex, cluster); one segment per
        # acting vertex.  Case (a) — no adjacent sampled cluster — keeps
        # every segment entry; case (b) keeps the strictly lighter entries
        # plus the lightest sampled one (first on ties, matching argmin
        # over the sorted segment).  The removal (vertex, cluster) pairs
        # coincide with the kept entries in both cases.
        new_cluster = np.where(in_sampled, cluster, -1)

        num_entries = grp_v.size
        seg_starts, seg_of = _segments(grp_v)

        entry_sampled = center_sampled[grp_c]
        seg_any_sampled = np.logical_or.reduceat(entry_sampled, seg_starts)
        masked_len = np.where(entry_sampled, grp_len, np.inf)
        seg_best_len = np.minimum.reduceat(masked_len, seg_starts)
        positions = np.arange(num_entries, dtype=np.int64)
        at_best = masked_len == seg_best_len[seg_of]
        seg_best_pos = np.minimum.reduceat(
            np.where(at_best, positions, num_entries), seg_starts
        )

        seg_vertices = grp_v[seg_starts]
        case_b = seg_any_sampled
        new_cluster[seg_vertices[~case_b]] = -1
        new_cluster[seg_vertices[case_b]] = grp_c[seg_best_pos[case_b]]

        keep_entry = (
            ~case_b[seg_of]
            | (grp_len < seg_best_len[seg_of])
            | (positions == seg_best_pos[seg_of])
        )
        # PRAM: decisions are per-vertex constant-depth selections (with a
        # log-depth min over the vertex's adjacent clusters).
        tracker.charge_reduction(num_entries, label="spanner/vertex-decisions")

        chosen[edge_idx[grp_pos[keep_entry]]] = True

        # --- remove covered edges -------------------------------------------
        # An edge (x, y) is removed if the pair (x, cluster_old(y)) or
        # (y, cluster_old(x)) was scheduled for removal, or if both endpoints
        # now share a cluster (it is covered inside that cluster).  The
        # removal pairs are exactly the kept (vertex, cluster) groups, and
        # every valid directed row knows its group, so the removal is one
        # scatter.  A filtered-out row cannot match a removal pair: its head
        # is unclustered, or its tail sits in a sampled cluster and so
        # heads no group.
        removed_dir = np.zeros(2 * m, dtype=bool)
        removed_dir[dir_rows[order]] = keep_entry[row_group]
        del dir_rows, order, row_group
        removed = removed_dir[:m] | removed_dir[m:]
        del removed_dir
        new_cluster_u = new_cluster[edge_u]
        keep = ~removed & ((new_cluster_u < 0) | (new_cluster_u != new_cluster[edge_v]))
        del removed, new_cluster_u
        tracker.charge_parallel_for(m, label="spanner/remove-covered")

        edge_u, edge_v, lengths, edge_idx = (
            edge_u[keep], edge_v[keep], lengths[keep], edge_idx[keep]
        )
        cluster = new_cluster

    # ------------------------------------------------------------------ #
    # Phase 2: vertex-cluster joining on the final clustering.
    # ------------------------------------------------------------------ #
    if edge_idx.size:
        cluster_u = cluster[edge_u]
        cluster_v = cluster[edge_v]
        rows_uv = np.flatnonzero(cluster_v >= 0)
        rows_vu = np.flatnonzero(cluster_u >= 0)
        num_rows = rows_uv.size + rows_vu.size
        if num_rows:
            grp_pos = _group_directed_rows(
                n, edge_u, edge_v, lengths, cluster_u, cluster_v, rows_uv, rows_vu
            )[-1]
            chosen[edge_idx[grp_pos]] = True
        tracker.charge_reduction(max(num_rows, 1), label="spanner/phase2")

    return np.flatnonzero(chosen)


def _materialize_selection(graph: GraphLike, indices: np.ndarray) -> Graph:
    """Selected subgraph as a real :class:`Graph` (views materialise once)."""
    sub = graph.select_edges(indices)
    return sub if isinstance(sub, Graph) else sub.materialize()


def _cost_delta(tracker: PRAMTracker, before: PRAMCost) -> PRAMCost:
    """Cost charged to ``tracker`` since ``before`` was snapshotted."""
    after = tracker.total
    return PRAMCost(after.work - before.work, after.depth - before.depth)


def baswana_sen_spanner(
    graph: GraphLike,
    k: Optional[int] = None,
    seed: SeedLike = None,
    tracker: Optional[PRAMTracker] = None,
) -> SpannerResult:
    """Compute a (2k-1)-spanner of ``graph`` in the resistive metric.

    Parameters
    ----------
    graph:
        Weighted input graph, or a trusted :class:`EdgeSubset` view (the
        bundle/shard pipelines peel on views so no intermediate ``Graph``
        is validated).  Parallel edges are allowed; each is treated
        independently (only one of a parallel class can enter the spanner).
    k:
        Number of clustering levels; defaults to ``ceil(log2 n)`` which
        yields the paper's log n-spanner with expected ``O(n log n)`` edges.
    seed:
        RNG seed controlling cluster sampling.
    tracker:
        Optional :class:`PRAMTracker` to charge; a fresh one is used if
        omitted.  The result's ``cost`` is always the delta charged by
        this call, so costs of successive calls on a shared tracker sum
        to the tracker total.

    Returns
    -------
    SpannerResult
    """
    n = graph.num_vertices
    m = graph.num_edges
    if k is None:
        k = max(1, int(np.ceil(np.log2(max(n, 2)))))
    if k < 1:
        raise GraphError(f"spanner parameter k must be >= 1, got {k}")
    rng = as_rng(seed)
    tracker = tracker if tracker is not None else PRAMTracker()
    before = tracker.total

    if m == 0 or n <= 1:
        return SpannerResult(
            spanner=Graph(n),
            edge_indices=np.array([], dtype=np.int64),
            stretch_target=float(2 * k - 1),
            k=k,
            cost=_cost_delta(tracker, before),
        )

    selected = _spanner_select(
        n, graph.edge_u, graph.edge_v, graph.edge_weights, k, rng, tracker
    )
    return SpannerResult(
        spanner=_materialize_selection(graph, selected),
        edge_indices=selected,
        stretch_target=float(2 * k - 1),
        k=k,
        cost=_cost_delta(tracker, before),
    )
