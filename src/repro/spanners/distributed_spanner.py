"""Baswana–Sen spanner as a synchronous distributed (CONGEST) protocol.

This is the object behind Theorem 2 of the paper: a log n-spanner computed
in the synchronous distributed model in ``O(log^2 n)`` rounds with
``O(m log n)`` communication and ``O(log n)``-sized messages.  The
implementation runs on :class:`repro.parallel.distributed.DistributedSimulator`,
so rounds, message counts and message sizes are *measured*, not assumed.

Protocol outline (per clustering iteration ``i`` of ``k - 1``):

1. **Flood phase** (``i + 1`` rounds): each cluster centre samples its
   cluster with probability ``n^{-1/k}`` and floods ``(centre, sampled)``
   through the cluster; every clustered node forwards the tuple to *all*
   its neighbours exactly once, so by the end of the phase every node also
   knows the cluster and sampled status of each clustered neighbour.
2. **Decision round** (1 round): nodes outside sampled clusters apply the
   Baswana–Sen rule locally (join the nearest sampled cluster / connect to
   every lighter neighbouring cluster / leave the clustering), record the
   chosen spanner edges, and notify neighbours whose connecting edges are
   now covered so both endpoints mark them dead.

After the iterations, a final exchange + decision (2 rounds) implements
phase 2: every node keeps one lightest live edge per adjacent cluster of
the final clustering.

The per-node program identifies edges by endpoint pairs, so the input is
coalesced to a simple graph first; the result records both the coalesced
graph and the selected edge indices into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.exceptions import GraphError, SimulationError
from repro.graphs.graph import Graph
from repro.graphs.views import EdgeSubset
from repro.parallel.congest import ColumnarSimulator
from repro.parallel.distributed import (
    DistributedSimulator,
    Message,
    NodeContext,
    NodeProgram,
)
from repro.parallel.metrics import DistributedCost
from repro.spanners.congest_spanner import ColumnarBaswanaSenProgram, build_schedule
from repro.utils.rng import RandomState, SeedLike, as_rng, split_rng

__all__ = [
    "DistributedSpannerResult",
    "DistributedBundleResult",
    "DISTRIBUTED_ENGINES",
    "distributed_baswana_sen_spanner",
    "distributed_bundle_spanner",
]

#: Round-engine implementations of the protocol.  ``"columnar"`` is the
#: vectorized engine (:mod:`repro.parallel.congest`); ``"reference"`` is
#: the per-node object simulator, kept as the semantic ground truth the
#: parity tests compare against.
DISTRIBUTED_ENGINES = ("columnar", "reference")


def _sorted_membership(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership mask of ``keys`` in the sorted unique array ``sorted_keys``.

    Two binary searches replace the ``np.isin`` sort-per-call: O(|keys|
    log |sorted_keys|) with no temporary sort of the haystack.
    """
    if sorted_keys.size == 0:
        return np.zeros(keys.shape[0], dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    inside = pos < sorted_keys.size
    out = np.zeros(keys.shape[0], dtype=bool)
    out[inside] = sorted_keys[pos[inside]] == keys[inside]
    return out


def _check_engine(engine: str) -> str:
    if engine not in DISTRIBUTED_ENGINES:
        raise SimulationError(
            f"unknown distributed engine {engine!r}; expected one of {DISTRIBUTED_ENGINES}"
        )
    return engine


@dataclass
class DistributedSpannerResult:
    """Outcome of the distributed spanner protocol.

    Attributes
    ----------
    spanner:
        The spanner as a subgraph of the coalesced input graph.
    edge_indices:
        Indices of the chosen edges in ``simple_graph``.
    simple_graph:
        The coalesced (simple) version of the input the protocol ran on.
    stretch_target:
        ``2k - 1`` for the ``k`` used.
    k:
        Number of clustering levels.
    cost:
        Rounds / messages / max message size measured by the simulator.
    completed:
        Whether every node terminated within the round limit.
    """

    spanner: Graph
    edge_indices: np.ndarray
    simple_graph: Graph
    stretch_target: float
    k: int
    cost: DistributedCost
    completed: bool


# Shared with the columnar engine: both programs follow the same per-round
# phase labels, which is what makes their cost triples comparable at all.
_build_schedule = build_schedule


class _BaswanaSenProgram(NodeProgram):
    """Per-node program implementing the protocol described in the module docstring."""

    def __init__(self, num_vertices: int, k: int) -> None:
        self.n = num_vertices
        self.k = k
        self.sample_probability = float(num_vertices) ** (-1.0 / k) if num_vertices > 1 else 1.0
        self.schedule = _build_schedule(k)

    # -------------------------------------------------------------- #

    def initialize(self, ctx: NodeContext) -> None:
        state = ctx.state
        state["center"] = ctx.node_id          # current cluster centre (-1 = unclustered)
        state["sampled"] = False               # is my cluster sampled this iteration
        state["informed"] = False              # have I learnt my cluster's bit this iteration
        state["pending_broadcast"] = False     # should I forward the flood tuple this round
        state["alive"] = np.ones(ctx.neighbors.shape[0], dtype=bool)
        state["neighbor_cluster"] = {}         # neighbour id -> (centre, sampled)
        state["spanner_pairs"] = set()         # frozenset-ish {(lo, hi), ...}
        state["lengths"] = 1.0 / ctx.edge_weights
        # Position of each neighbour id in the incident arrays (simple graph
        # guarantees unique neighbour ids).
        state["neighbor_pos"] = {int(nbr): pos for pos, nbr in enumerate(ctx.neighbors)}

    # -------------------------------------------------------------- #

    def _process_control_messages(self, ctx: NodeContext, inbox: List[Message]) -> List[Message]:
        """Handle edge-removal notifications; return the remaining messages."""
        state = ctx.state
        rest: List[Message] = []
        for msg in inbox:
            payload = msg.payload
            if isinstance(payload, tuple) and payload and payload[0] == "R":
                pos = state["neighbor_pos"].get(msg.sender)
                if pos is not None:
                    state["alive"][pos] = False
            else:
                rest.append(msg)
        return rest

    def _record_spanner_edge(self, ctx: NodeContext, neighbor: int) -> None:
        a, b = ctx.node_id, int(neighbor)
        ctx.state["spanner_pairs"].add((min(a, b), max(a, b)))

    # -------------------------------------------------------------- #

    def step(self, ctx: NodeContext, round_number: int, inbox: List[Message]) -> bool:
        state = ctx.state
        if round_number > len(self.schedule):
            return True
        phase, iteration = self.schedule[round_number - 1]
        inbox = self._process_control_messages(ctx, inbox)

        if phase == "flood":
            is_first_flood_round = round_number == 1 or self.schedule[round_number - 2][0] != "flood"
            if is_first_flood_round:
                # New iteration: reset per-iteration flags; centres sample.
                state["informed"] = False
                state["sampled"] = False
                state["pending_broadcast"] = False
                state["neighbor_cluster"] = {}
                if state["center"] == ctx.node_id:
                    state["sampled"] = bool(ctx.rng.random() < self.sample_probability)
                    state["informed"] = True
                    state["pending_broadcast"] = True
            # Learn from incoming flood tuples.
            for msg in inbox:
                payload = msg.payload
                if isinstance(payload, tuple) and payload and payload[0] == "F":
                    _, center, sampled = payload
                    state["neighbor_cluster"][msg.sender] = (int(center), bool(sampled))
                    if not state["informed"] and int(center) == state["center"] and state["center"] >= 0:
                        state["informed"] = True
                        state["sampled"] = bool(sampled)
                        state["pending_broadcast"] = True
            if state["pending_broadcast"]:
                ctx.broadcast(("F", int(state["center"]), bool(state["sampled"])))
                state["pending_broadcast"] = False
            return False

        if phase == "decide":
            # Late flood arrivals may still be in the inbox.
            for msg in inbox:
                payload = msg.payload
                if isinstance(payload, tuple) and payload and payload[0] == "F":
                    _, center, sampled = payload
                    state["neighbor_cluster"][msg.sender] = (int(center), bool(sampled))
                    if not state["informed"] and int(center) == state["center"] and state["center"] >= 0:
                        state["informed"] = True
                        state["sampled"] = bool(sampled)
            in_sampled_cluster = state["center"] >= 0 and state["sampled"]
            if not in_sampled_cluster:
                self._decide(ctx, iteration)
            return False

        if phase == "final_exchange":
            state["neighbor_cluster"] = {}
            if state["center"] >= 0:
                ctx.broadcast(("F", int(state["center"]), False))
            return False

        if phase == "final_decide":
            for msg in inbox:
                payload = msg.payload
                if isinstance(payload, tuple) and payload and payload[0] == "F":
                    state["neighbor_cluster"][msg.sender] = (int(payload[1]), bool(payload[2]))
            self._final_decide(ctx)
            return True

        raise GraphError(f"unknown protocol phase {phase!r}")  # pragma: no cover

    # -------------------------------------------------------------- #

    def _adjacent_cluster_minima(self, ctx: NodeContext) -> Dict[int, Tuple[float, int]]:
        """Per adjacent cluster: (lightest live edge length, neighbour id)."""
        state = ctx.state
        minima: Dict[int, Tuple[float, int]] = {}
        alive = state["alive"]
        lengths = state["lengths"]
        for pos, nbr in enumerate(ctx.neighbors):
            if not alive[pos]:
                continue
            info = state["neighbor_cluster"].get(int(nbr))
            if info is None:
                continue
            center, _sampled = info
            length = float(lengths[pos])
            best = minima.get(center)
            if best is None or length < best[0]:
                minima[center] = (length, int(nbr))
        return minima

    def _kill_edges_to_cluster(self, ctx: NodeContext, center: int) -> None:
        state = ctx.state
        alive = state["alive"]
        for pos, nbr in enumerate(ctx.neighbors):
            if not alive[pos]:
                continue
            info = state["neighbor_cluster"].get(int(nbr))
            if info is not None and info[0] == center:
                alive[pos] = False
                ctx.send(int(nbr), ("R",))

    def _decide(self, ctx: NodeContext, iteration: int) -> None:
        state = ctx.state
        minima = self._adjacent_cluster_minima(ctx)
        if not minima:
            return
        sampled_clusters = {
            center: value
            for center, value in minima.items()
            if state["neighbor_cluster"][value[1]][1]
        }
        if not sampled_clusters:
            # Case (a): connect once to every adjacent cluster and leave.
            for center, (_, nbr) in minima.items():
                self._record_spanner_edge(ctx, nbr)
                self._kill_edges_to_cluster(ctx, center)
            state["center"] = -1
        else:
            # Case (b): join the nearest sampled cluster.
            target_center, (target_len, target_nbr) = min(
                sampled_clusters.items(), key=lambda item: item[1][0]
            )
            self._record_spanner_edge(ctx, target_nbr)
            state["center"] = int(target_center)
            for center, (length, nbr) in minima.items():
                if center == target_center:
                    continue
                if length < target_len:
                    self._record_spanner_edge(ctx, nbr)
                    self._kill_edges_to_cluster(ctx, center)
            self._kill_edges_to_cluster(ctx, target_center)

    def _final_decide(self, ctx: NodeContext) -> None:
        minima = self._adjacent_cluster_minima(ctx)
        for _center, (_, nbr) in minima.items():
            self._record_spanner_edge(ctx, nbr)

    def finalize(self, ctx: NodeContext) -> Set[Tuple[int, int]]:
        return set(ctx.state["spanner_pairs"])


def distributed_baswana_sen_spanner(
    graph: Graph,
    k: Optional[int] = None,
    seed: SeedLike = None,
    max_rounds: Optional[int] = None,
    engine: str = "columnar",
) -> DistributedSpannerResult:
    """Run the distributed Baswana–Sen protocol and collect the spanner.

    Parameters
    ----------
    graph:
        Input graph; parallel edges are coalesced before the protocol runs
        (the protocol identifies edges by endpoint pairs).
    k:
        Number of clustering levels; defaults to ``ceil(log2 n)``.
    seed:
        Simulator seed (drives every node's private RNG stream).
    max_rounds:
        Safety cap on rounds; defaults to a generous multiple of the
        schedule length.
    engine:
        ``"columnar"`` (default) runs the vectorized round engine;
        ``"reference"`` runs the per-node object simulator.  Both produce
        the same spanner, the same ``DistributedCost`` triple, and the
        same per-round message histogram for a fixed seed — the engine
        only changes the wall clock.
    """
    _check_engine(engine)
    simple = graph.coalesce()
    n = simple.num_vertices
    if k is None:
        k = max(1, int(np.ceil(np.log2(max(n, 2)))))
    schedule_length = len(build_schedule(k))
    cap = max_rounds or (schedule_length + 4)

    if engine == "columnar":
        columnar = ColumnarSimulator(simple, seed=seed)
        run = columnar.run(ColumnarBaswanaSenProgram(n, k), max_rounds=cap)
        wanted_keys = run.outputs  # sorted unique lo * n + hi keys
        cost, completed = run.cost, run.completed
    else:
        simulator = DistributedSimulator(simple, seed=seed)
        result = simulator.run(_BaswanaSenProgram(n, k), max_rounds=cap)
        pairs: Set[Tuple[int, int]] = set()
        for node_pairs in result.outputs.values():
            pairs.update(node_pairs)
        if pairs:
            pair_array = np.asarray(sorted(pairs), dtype=np.int64)
            wanted_keys = pair_array[:, 0] * np.int64(n) + pair_array[:, 1]
        else:
            wanted_keys = np.empty(0, dtype=np.int64)
        cost, completed = result.cost, result.completed

    if wanted_keys.size:
        edge_indices = np.flatnonzero(_sorted_membership(wanted_keys, simple.edge_keys()))
    else:
        edge_indices = np.array([], dtype=np.int64)

    return DistributedSpannerResult(
        spanner=simple.select_edges(edge_indices),
        edge_indices=edge_indices,
        simple_graph=simple,
        stretch_target=float(2 * k - 1),
        k=k,
        cost=cost,
        completed=completed,
    )


@dataclass
class DistributedBundleResult:
    """Outcome of peeling ``t`` distributed spanners off one graph/shard.

    Attributes
    ----------
    edge_indices:
        Sorted indices of all bundle edges into the input graph's edge
        arrays (the input must be simple, e.g. a coalesced graph or a
        shard subgraph of one).
    component_edge_indices:
        Per-component index arrays in construction order.
    components_built:
        Number of spanner protocols actually executed (smaller than the
        requested ``t`` when the graph ran out of edges first).
    cost:
        Sequentially-composed rounds/messages across the components.
    completed:
        True when every component's protocol terminated within its round
        limit.
    """

    edge_indices: np.ndarray
    component_edge_indices: List[np.ndarray]
    components_built: int
    cost: DistributedCost
    completed: bool


def distributed_bundle_spanner(
    graph: Graph,
    t: int,
    k: Optional[int] = None,
    seed: SeedLike = None,
    component_seeds: Optional[List[RandomState]] = None,
    engine: str = "columnar",
) -> DistributedBundleResult:
    """Build a t-bundle by iterating the distributed Baswana–Sen protocol.

    This is the per-shard unit of work of the distributed sparsifier:
    component ``i`` runs the protocol on the graph with components
    ``1..i-1`` peeled off, exactly as in the sequential bundle
    construction, but with every round/message measured by the simulator.
    The caller typically pre-splits ``component_seeds`` (one RNG stream
    per component) before dispatching shards onto an execution backend so
    the result is independent of where the work runs.

    Parameters
    ----------
    graph:
        Simple input graph (one edge per endpoint pair); shard subgraphs
        of a coalesced graph qualify.  ``edge_indices`` refer to this
        graph's edge arrays.
    t:
        Number of bundle components requested.
    k:
        Baswana–Sen parameter per component (default ``ceil(log2 n)``).
    seed / component_seeds:
        Either a single seed (split into ``t`` sub-streams here) or the
        pre-split per-component streams; ``component_seeds`` wins.
    engine:
        Round engine for each component's protocol — ``"columnar"``
        (default) or ``"reference"``; see
        :func:`distributed_baswana_sen_spanner`.
    """
    _check_engine(engine)
    if t < 1:
        raise GraphError(f"bundle size t must be >= 1, got {t}")
    if component_seeds is None:
        component_seeds = split_rng(as_rng(seed), t)
    if len(component_seeds) < t:
        raise GraphError(
            f"need {t} component seeds, got {len(component_seeds)}"
        )

    # Peel on a trusted view: the per-round restriction never re-validates
    # the edge arrays, and the simulator input materialises zero-copy.
    remaining = EdgeSubset.full(graph)
    n = graph.num_vertices
    component_indices: List[np.ndarray] = []
    total_cost = DistributedCost()
    components_built = 0
    completed = True

    for i in range(t):
        if remaining.num_edges == 0:
            break
        result = distributed_baswana_sen_spanner(
            remaining.materialize(), k=k, seed=component_seeds[i], engine=engine
        )
        total_cost = total_cost + result.cost
        completed = completed and result.completed
        components_built += 1
        # ``result.edge_indices`` refer to ``result.simple_graph`` (the
        # coalesced, key-sorted view the protocol ran on), which need not
        # share ``remaining``'s edge order — translate through edge keys.
        selected_keys = result.simple_graph.edge_keys()[result.edge_indices]
        remaining_keys = remaining.edge_u * np.int64(n) + remaining.edge_v
        in_spanner = _sorted_membership(selected_keys, remaining_keys)
        component_indices.append(remaining.parent_indices[in_spanner])
        remaining = remaining.select_edges(~in_spanner)

    if component_indices:
        edge_indices = np.unique(np.concatenate(component_indices))
    else:
        edge_indices = np.array([], dtype=np.int64)

    return DistributedBundleResult(
        edge_indices=edge_indices,
        component_edge_indices=component_indices,
        components_built=components_built,
        cost=total_cost,
        completed=completed,
    )
