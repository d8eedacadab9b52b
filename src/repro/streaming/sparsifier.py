"""Incremental sparsification over edge streams.

All other entry points in the repo are batch-only; this module makes the
paper's machinery *incremental*.  A :class:`StreamingSparsifier` ingests
edge batches and maintains a compact state — the current t-bundle spanner
plus the reweighted survivors of Bernoulli sampling — so that at any
moment a spectral sparsifier of everything ingested so far can be
materialised (:meth:`~StreamingSparsifier.snapshot`) and certified
(:meth:`~StreamingSparsifier.certify`) without replaying the stream.

Design
------
* **Blocks, not batches, drive the work.**  ``ingest`` appends edges to a
  pending buffer; every ``compaction_interval`` ingested edges (counted
  cumulatively, independent of how the caller chops the stream into
  ``ingest`` calls) the earliest interval-many pending edges are folded
  into the retained state by one ``PARALLELSAMPLE``-style pass: a
  t-bundle spanner over (retained ∪ block) is kept whole, every edge
  outside it is kept with probability ``p`` at ``1/p`` times its weight.
  This is the streaming-clustering recipe of Baswana (cs/0611023) mapped
  onto the vectorised Baswana–Sen kernels — the per-block pass runs
  entirely on raw arrays (:func:`repro.spanners.bundle.bundle_select`),
  no per-edge Python loop.  The retained set stays ``O(bundle + interval)``,
  so the amortised cost per streamed edge is a constant number of
  vectorised operations.
* **Snapshots are split-invariant.**  Because compaction points depend
  only on the cumulative edge count, the state after ingesting a given
  edge sequence is bit-identical no matter how the sequence was split
  into ``ingest`` calls (unwindowed mode; a sliding ``window`` keeps the
  edges of the last ``w`` ingest batches, so it is batch-indexed by
  design).
* **Batch parity.**  Compaction ``c`` draws from an RNG stream that is a
  pure function of ``(seed, c)``; compaction 0's stream is exactly
  ``as_rng(seed)`` — the stream the batch path consumes — so a stream
  whose first block is the whole graph reproduces
  :func:`repro.core.sample.parallel_sample` (and the golden-pinned
  :func:`repro.spanners.bundle.t_bundle_spanner` selection) bit for bit.
* **Resilient ingestion.**  With ``store=`` each batch is journaled
  *before* it is processed (:class:`~repro.streaming.journal.StreamJournal`
  under a :class:`~repro.streaming.store.StreamStateStore`), so a crashed
  stream recovers (:meth:`StreamingSparsifier.recover`) losing at most
  the one batch whose append was torn; compaction work runs through the
  configured execution backend under an optional
  :class:`~repro.parallel.failure.FailurePolicy`, and retries are
  output-neutral because every compaction rebuilds its RNG from
  ``(seed, index)`` on each attempt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.spectral import ApproximationReport, approximation_report
from repro.api.result import UnifiedResult
from repro.core.certificates import ResistanceCertificate, certify_resistances
from repro.core.checkpoint import DurableIO
from repro.core.config import SparsifierConfig
from repro.exceptions import CheckpointError, GraphError, StreamingError
from repro.graphs.graph import Graph
from repro.parallel.failure import FailurePolicy
from repro.resistance.solver_select import ResistanceSolveStats
from repro.spanners.bundle import bundle_select
from repro.streaming.journal import DEFAULT_SEGMENT_BYTES, StreamJournal
from repro.streaming.store import StreamStateStore
from repro.utils.rng import as_rng, fresh_entropy_seed

__all__ = [
    "CompactionRecord",
    "IngestRecord",
    "StreamStats",
    "StreamSnapshot",
    "StreamCertificate",
    "StreamingSparsifier",
    "compaction_rng",
]

# spawn_key tag of the compactions after the first.  Compaction 0 uses
# the bare ``as_rng(seed)`` stream for batch parity (see module docstring).
_COMPACTION_KEY = 1


def compaction_rng(seed: int, index: int) -> np.random.Generator:
    """The RNG stream compaction ``index`` draws from (pure in its inputs).

    Compaction 0 consumes exactly ``as_rng(seed)`` — the same stream the
    batch ``parallel_sample`` / ``t_bundle_spanner`` path uses — so a
    single-compaction stream is bit-identical to the batch construction.
    Later compactions use independent ``SeedSequence(seed, spawn_key=...)``
    children.  Workers rebuild the generator from ``(seed, index)`` on
    every attempt, which is what makes failure-policy retries
    output-neutral.
    """
    if index == 0:
        return as_rng(int(seed))
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(_COMPACTION_KEY, int(index)))
    )


def _compaction_worker(item: int, shared: Dict[str, Any]) -> Dict[str, Any]:
    """One PARALLELSAMPLE-style pass over the working edge arrays.

    Module-level (not a closure) so process backends can pickle it and
    fault-injection wrappers can intercept it.  Mirrors the unsharded
    :func:`repro.core.sample.parallel_sample` operation order exactly:
    bundle selection consumes the stream via ``split_rng``, then the
    Bernoulli pass continues on the same generator.
    """
    index = int(item)
    rng = compaction_rng(shared["seed"], index)
    _, bundle, built, exhausted = bundle_select(
        shared["num_vertices"],
        shared["u"],
        shared["v"],
        shared["w"],
        shared["t"],
        k=shared["k"],
        seed=rng,
    )
    m = int(shared["u"].shape[0])
    in_bundle = np.zeros(m, dtype=bool)
    in_bundle[bundle] = True
    outside = np.flatnonzero(~in_bundle)
    if outside.size == 0:
        return {
            "bundle": bundle,
            "kept": np.array([], dtype=np.int64),
            "outside": 0,
            "built": built,
            "exhausted": True,
        }
    keep_mask = rng.random(outside.size) < shared["p"]
    return {
        "bundle": bundle,
        "kept": outside[keep_mask],
        "outside": int(outside.size),
        "built": built,
        "exhausted": exhausted,
    }


@dataclass(frozen=True)
class CompactionRecord:
    """Telemetry for one compaction pass.

    ``bundle_indices`` / ``kept_indices`` are positions into that
    compaction's *working set* (retained state followed by the consumed
    block, in ingest order).  For a stream whose first block is the whole
    input they therefore coincide with input-graph edge indices — which
    is how the golden parity tests pin the streaming path to the batch
    spanner.
    """

    index: int
    working_edges: int
    bundle_edges: int
    kept_edges: int
    outside_edges: int
    components_built: int
    exhausted: bool
    bundle_indices: np.ndarray
    kept_indices: np.ndarray


@dataclass(frozen=True)
class IngestRecord:
    """What one ``ingest`` call did."""

    batch_index: int
    edges: int
    compactions_run: int
    evicted_edges: int

    # Round-record protocol (the engine/CLI print rounds generically).
    @property
    def round_index(self) -> int:
        return self.batch_index

    @property
    def input_edges(self) -> int:
        return self.edges

    @property
    def output_edges(self) -> int:
        return self.edges


@dataclass(frozen=True)
class StreamStats:
    """Lightweight counters attached to snapshots (``UnifiedResult.native``).

    ``live_input_edges`` counts the ingested edges still in scope (all of
    them unless a ``window`` evicted old batches); ``evicted_edges``
    counts retained and pending edges the window dropped.

    ``seed`` is the stream's *resolved* integer seed and ``auto_seeded``
    records whether it was drawn from OS entropy (``seed=None`` at
    construction).  Surfacing the resolved seed on every result is what
    makes auto-seeded runs reproducible after the fact: feed it back as
    ``seed=`` to replay the identical stream.
    """

    batches_ingested: int
    edges_ingested: int
    live_input_edges: int
    retained_edges: int
    pending_edges: int
    compactions: int
    evicted_edges: int
    ingest_seconds: float
    seed: int = 0
    auto_seeded: bool = False


@dataclass(frozen=True)
class StreamSnapshot:
    """A materialised sparsifier of everything currently live in the stream.

    ``graph`` holds the retained edges (bundle at face weight, sampled
    survivors boosted ``1/p`` per surviving compaction) plus the pending
    edges that have not reached a compaction point yet (kept exactly).
    ``unified`` wraps the same graph in the engine's result model, so a
    snapshot drops into every comparison/reporting path a batch result
    can.
    """

    graph: Graph
    unified: UnifiedResult
    stats: StreamStats

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges


@dataclass(frozen=True)
class StreamCertificate:
    """Quality measurement of one snapshot against the live exact graph.

    ``report`` carries the full :class:`~repro.analysis.spectral.ApproximationReport`
    quality gates (dense spectral certificate, quadratic-form and
    resistance probes, connectivity); ``resistances`` is the
    probe-pair certificate whose inner solves were routed through the
    blocked solver stack with ``solver`` — ``stats`` records those
    solves' iteration counts and any degradation-ladder fallbacks.
    """

    report: ApproximationReport
    resistances: ResistanceCertificate
    solver: str
    stats: ResistanceSolveStats
    batches_ingested: int
    reference_edges: int

    def holds(self, epsilon: float, slack: float = 1e-7) -> bool:
        """True when both certificates are consistent with ``(1 ± eps)``."""
        return self.report.certificate.holds(epsilon, slack=slack) and self.resistances.holds(
            epsilon, slack=slack
        )


class StreamingSparsifier:
    """Ingest edge batches, keep a sparsifier-sized state, snapshot on demand.

    The state is one retained pool (bundle edges at face weight plus
    sampled survivors boosted ``1/p``), a pending buffer of raw arrivals,
    and the exact live edge list that :meth:`certify` measures against.

    Parameters
    ----------
    num_vertices:
        Vertex count of the streamed graph (fixed up front).
    epsilon:
        Target quality for sizing the bundle (default ``config.epsilon``).
    t / k:
        Bundle size and Baswana–Sen parameter; default to the config's
        sizing (``config.bundle_size`` / ``config.spanner_k``).
    config:
        :class:`~repro.core.config.SparsifierConfig` supplying the
        sampling probability ``p`` (``config.sampling_probability``, which
        must lie in ``(0, 1)``), execution backend and default solver.
    seed:
        Integer stream seed (a ``numpy`` Generator is accepted and
        collapsed to one draw; ``None`` draws fresh OS entropy).  The
        whole stream is deterministic given the seed and the batch
        sequence.
    window:
        Keep only edges from the last ``window`` ingest batches
        (``None`` = cumulative).
    compaction_interval:
        Ingested edges per compaction block (default
        ``max(4096, 2 * num_vertices)``).  Compaction points depend only
        on the cumulative count, which is what makes snapshots invariant
        to batch splits.
    store:
        Directory of a :class:`~repro.streaming.store.StreamStateStore`.
        Every batch is journaled *before* processing, so a crash loses at
        most one batch; ``snapshot_every=N`` adds a checksummed snapshot
        every ``N`` batches, bounding recovery replay to the suffix
        (without it the store holds the journal alone).  Use
        :meth:`recover` to pick a store back up.
    failure_policy:
        :class:`~repro.parallel.failure.FailurePolicy` governing the
        compaction work (``raise`` / ``retry``; ``collect`` is rejected —
        a stream cannot skip a compaction without diverging).
    """

    def __init__(
        self,
        num_vertices: int,
        *,
        epsilon: Optional[float] = None,
        t: Optional[int] = None,
        k: Optional[int] = None,
        config: Optional[SparsifierConfig] = None,
        seed: Any = 0,
        window: Optional[int] = None,
        compaction_interval: Optional[int] = None,
        store: Optional[Union[str, Path]] = None,
        snapshot_every: Optional[int] = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        keep_snapshots: int = 2,
        failure_policy: Optional[FailurePolicy] = None,
        io: Optional[DurableIO] = None,
    ) -> None:
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
        self._n = int(num_vertices)
        self._config = config if config is not None else SparsifierConfig()
        if self._config.use_tree_bundle:
            raise StreamingError(
                "streaming ingestion maintains spanner bundles; "
                "use_tree_bundle is not supported"
            )
        eps = self._config.epsilon if epsilon is None else float(epsilon)
        self._epsilon = eps
        self._t = int(t) if t is not None else self._config.bundle_size(self._n, eps)
        if self._t < 1:
            raise GraphError(f"bundle size t must be >= 1, got {self._t}")
        self._k = None if k is None and self._config.spanner_k is None else int(
            k if k is not None else self._config.spanner_k
        )
        self._p = float(self._config.sampling_probability)
        if not 0 < self._p < 1:
            raise StreamingError(
                f"sampling probability must lie in (0, 1), got {self._p}"
            )
        self._auto_seeded = seed is None
        self._seed = self._normalize_seed(seed)
        if window is not None and int(window) < 1:
            raise StreamingError(f"window must be >= 1 batches, got {window}")
        self._window = None if window is None else int(window)
        if compaction_interval is None:
            compaction_interval = max(4096, 2 * self._n)
        if int(compaction_interval) < 1:
            raise StreamingError(
                f"compaction_interval must be >= 1, got {compaction_interval}"
            )
        self._interval = int(compaction_interval)
        if failure_policy is not None and failure_policy.on_error == "collect":
            raise StreamingError(
                "a stream cannot skip a failed compaction without diverging; "
                'use on_error="raise" or "retry"'
            )
        self._failure_policy = failure_policy

        empty_i = np.array([], dtype=np.int64)
        empty_f = np.array([], dtype=np.float64)
        # Retained pool: bundle edges at base weight plus sampled survivors
        # at boosted weight, each tagged with its arrival batch.
        self._ret_u, self._ret_v = empty_i.copy(), empty_i.copy()
        self._ret_w, self._ret_b = empty_f.copy(), empty_i.copy()
        # Pending buffer: ingested edges not yet consumed by a compaction.
        self._pen_u, self._pen_v = empty_i.copy(), empty_i.copy()
        self._pen_w, self._pen_b = empty_f.copy(), empty_i.copy()
        self._exact: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        self._batch_sizes: List[int] = []
        self._batches_ingested = 0
        self._edges_ingested = 0
        self._compactions = 0
        self._evicted = 0
        self._ingest_seconds = 0.0
        self.records: List[CompactionRecord] = []
        self._replaying = False

        if snapshot_every is not None and store is None:
            raise StreamingError("snapshot_every requires store=")
        if snapshot_every is not None and int(snapshot_every) < 1:
            raise StreamingError(
                f"snapshot_every must be >= 1 batches, got {snapshot_every}"
            )
        self._snapshot_every = None if snapshot_every is None else int(snapshot_every)
        self._journal: Optional[StreamJournal] = None
        self._store: Optional[StreamStateStore] = None
        if store is not None:
            if StreamStateStore.has_content(store):
                raise CheckpointError(
                    f"stream store {store} already has content; use "
                    "StreamingSparsifier.recover() to continue it or pass a "
                    "fresh path"
                )
            self._store = StreamStateStore(
                store,
                segment_bytes=segment_bytes,
                keep_snapshots=keep_snapshots,
                io=io,
            )
            self._journal = self._store.create_journal(self._journal_params())

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _normalize_seed(seed: Any) -> int:
        if isinstance(seed, np.random.Generator):
            # Batch fan-outs hand methods pre-split generators; collapse
            # to one draw so the stream stays journal-able as an int.
            return int(seed.integers(0, 2**63 - 1))
        if seed is None:
            # The one sanctioned entropy draw: the resulting seed is
            # recorded (journal header, StreamStats.seed), so even an
            # auto-seeded stream resumes and recovers bit-exactly.
            return fresh_entropy_seed()
        return int(seed)

    def _journal_params(self) -> Dict[str, Any]:
        return {
            "num_vertices": self._n,
            "t": self._t,
            "k": self._k,
            "sampling_probability": self._p,
            "seed": self._seed,
            "auto_seeded": self._auto_seeded,
            "window": self._window,
            "compaction_interval": self._interval,
        }

    @classmethod
    def from_stream_params(
        cls,
        params: Dict[str, Any],
        *,
        config: Optional[SparsifierConfig] = None,
        failure_policy: Optional[FailurePolicy] = None,
    ) -> "StreamingSparsifier":
        """Build a fresh, unattached stream from pinned journal parameters."""
        config = replace(
            config if config is not None else SparsifierConfig(),
            sampling_probability=params["sampling_probability"],
        )
        stream = cls(
            params["num_vertices"],
            t=params["t"],
            k=params["k"],
            seed=params["seed"],
            window=params["window"],
            compaction_interval=params["compaction_interval"],
            config=config,
            failure_policy=failure_policy,
        )
        # The header pins the *resolved* seed, so the rebuilt stream is
        # constructed from an explicit int; restore the provenance flag.
        stream._auto_seeded = bool(params["auto_seeded"])
        return stream

    @classmethod
    def recover(
        cls,
        store: Union[str, Path],
        *,
        config: Optional[SparsifierConfig] = None,
        failure_policy: Optional[FailurePolicy] = None,
        snapshot_every: Optional[int] = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        keep_snapshots: int = 2,
        io: Optional[DurableIO] = None,
    ) -> Tuple["StreamingSparsifier", "Any"]:
        """Recover a stream from its durable state store after a crash.

        Walks the recovery ladder (latest valid snapshot → journal suffix
        replay → valid-prefix salvage of a corrupt segment), quarantining
        damaged files, and returns ``(stream, RecoveryReport)``.  The
        report says whether the restored state is bit-exact with respect
        to the batches whose appends completed, or lossy (and what was
        lost) — recovery never silently diverges.  A store written in
        another on-disk format is refused with :class:`CheckpointError`
        before any file is touched.
        """
        return StreamStateStore.recover(
            store,
            config=config,
            failure_policy=failure_policy,
            snapshot_every=snapshot_every,
            segment_bytes=segment_bytes,
            keep_snapshots=keep_snapshots,
            io=io,
        )

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def seed(self) -> int:
        """The resolved integer seed every stream draw derives from.

        For auto-seeded streams (``seed=None``) this is the recorded
        entropy draw — pass it back as ``seed=`` to reproduce the run.
        """
        return self._seed

    @property
    def auto_seeded(self) -> bool:
        """True when the seed was drawn from OS entropy (``seed=None``)."""
        return self._auto_seeded

    @property
    def t(self) -> int:
        return self._t

    @property
    def batches_ingested(self) -> int:
        return self._batches_ingested

    @property
    def edges_ingested(self) -> int:
        return self._edges_ingested

    @property
    def compactions(self) -> int:
        return self._compactions

    @property
    def pending_edges(self) -> int:
        return int(self._pen_u.shape[0])

    @property
    def retained_edges(self) -> int:
        return int(self._ret_u.shape[0])

    @property
    def live_input_edges(self) -> int:
        """Exact edges currently in scope (window-aware)."""
        if self._window is None:
            return self._edges_ingested
        return int(sum(self._batch_sizes[-self._window:]))

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def ingest(self, edges: Any, weights: Any = None) -> IngestRecord:
        """Fold one batch of edges into the stream.

        ``edges`` is an ``(m, 2)`` integer array of endpoints (any
        orientation; self-loops rejected) or an ``(m, 3)`` array with
        weights in the third column; ``weights`` optionally supplies the
        weights separately (default 1.0).  Returns an
        :class:`IngestRecord` describing what the call did.
        """
        u, v, w = self._validate_batch(edges, weights)
        batch = self._batches_ingested
        if self._journal is not None and not self._replaying:
            self._journal.append_batch(batch, u, v, w)
        start = time.perf_counter()
        self._batches_ingested += 1
        self._batch_sizes.append(int(u.shape[0]))
        self._edges_ingested += int(u.shape[0])
        self._exact.append((batch, u, v, w))
        evicted = self._evict_expired(batch)

        self._pen_u = np.concatenate([self._pen_u, u])
        self._pen_v = np.concatenate([self._pen_v, v])
        self._pen_w = np.concatenate([self._pen_w, w])
        self._pen_b = np.concatenate(
            [self._pen_b, np.full(u.shape[0], batch, dtype=np.int64)]
        )

        compactions_run = 0
        while self._pen_u.shape[0] >= self._interval:
            self._compact(self._interval)
            compactions_run += 1
        self._ingest_seconds += time.perf_counter() - start
        if (
            self._store is not None
            and self._snapshot_every is not None
            and not self._replaying
            and self._batches_ingested - self._store.last_snapshot_batch
            >= self._snapshot_every
        ):
            self._store.checkpoint(self)
        return IngestRecord(
            batch_index=batch,
            edges=int(u.shape[0]),
            compactions_run=compactions_run,
            evicted_edges=evicted,
        )

    def flush(self) -> Optional[CompactionRecord]:
        """Force-compact the pending buffer (one pass over the tail).

        Consumes the next compaction index, so — unlike plain ingestion —
        the resulting state depends on *when* flush was called.  Returns
        the compaction record, or ``None`` when nothing was pending.
        """
        if self._pen_u.shape[0] == 0:
            return None
        self._compact(int(self._pen_u.shape[0]))
        return self.records[-1]

    def checkpoint(self) -> Path:
        """Force a durable snapshot now (requires a store); returns its manifest.

        Also truncates journal segments wholly covered by the oldest
        retained snapshot, which is what bounds future resume replay to
        the recent suffix.
        """
        if self._store is None:
            raise StreamingError("checkpoint() requires the stream to be built with store=")
        return self._store.checkpoint(self)

    # ------------------------------------------------------------------ #
    # Durable state (consumed by repro.streaming.store)
    # ------------------------------------------------------------------ #

    def _state_payload(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """Full sampler state as ``(counters, named arrays)``.

        Everything future output depends on is here: the retained pool,
        the pending buffer, the exact-reference batches, batch sizes, and
        the counters that position the RNG schedule (``compactions``) and
        the batch index.  The ``records`` telemetry list is deliberately
        *not* persisted — it describes past passes, nothing downstream
        replays it.
        """
        arrays: Dict[str, np.ndarray] = {
            "retained/u": self._ret_u,
            "retained/v": self._ret_v,
            "retained/w": self._ret_w,
            "retained/b": self._ret_b,
            "pending/u": self._pen_u,
            "pending/v": self._pen_v,
            "pending/w": self._pen_w,
            "pending/b": self._pen_b,
            "batch_sizes": np.asarray(self._batch_sizes, dtype=np.int64),
        }
        for j, (_, u, v, w) in enumerate(self._exact):
            arrays[f"exact{j}/u"] = u
            arrays[f"exact{j}/v"] = v
            arrays[f"exact{j}/w"] = w
        counters = {
            "batches_ingested": int(self._batches_ingested),
            "edges_ingested": int(self._edges_ingested),
            "compactions": int(self._compactions),
            "evicted": int(self._evicted),
            "ingest_seconds": float(self._ingest_seconds),
            "exact_batches": [int(batch) for batch, *_ in self._exact],
        }
        return counters, arrays

    def _restore_state(
        self, counters: Dict[str, Any], arrays: Dict[str, np.ndarray]
    ) -> None:
        """Overwrite this (fresh) stream's state with a snapshot payload."""
        try:
            self._ret_u = arrays["retained/u"]
            self._ret_v = arrays["retained/v"]
            self._ret_w = arrays["retained/w"]
            self._ret_b = arrays["retained/b"]
            self._pen_u = arrays["pending/u"]
            self._pen_v = arrays["pending/v"]
            self._pen_w = arrays["pending/w"]
            self._pen_b = arrays["pending/b"]
            self._batch_sizes = [int(size) for size in arrays["batch_sizes"]]
            self._exact = [
                (
                    int(batch),
                    arrays[f"exact{j}/u"],
                    arrays[f"exact{j}/v"],
                    arrays[f"exact{j}/w"],
                )
                for j, batch in enumerate(counters["exact_batches"])
            ]
            self._batches_ingested = int(counters["batches_ingested"])
            self._edges_ingested = int(counters["edges_ingested"])
            self._compactions = int(counters["compactions"])
            self._evicted = int(counters["evicted"])
            self._ingest_seconds = float(counters.get("ingest_seconds", 0.0))
        except KeyError as exc:
            raise CheckpointError(
                f"snapshot payload is missing field {exc} — incompatible or "
                "damaged snapshot"
            ) from exc
        self.records = []

    def _validate_batch(
        self, edges: Any, weights: Any
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        arr = np.asarray(edges)
        if arr.size == 0:  # an empty batch still advances the batch index
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] not in (2, 3):
            raise GraphError(
                "ingest expects an (m, 2) [u v] or (m, 3) [u v w] edge array, "
                f"got shape {arr.shape}"
            )
        if arr.shape[1] == 3:
            if weights is not None:
                raise GraphError(
                    "weights passed both inside the edge array and separately"
                )
            weights = arr[:, 2]
        u_raw, v_raw = arr[:, 0], arr[:, 1]
        u = np.asarray(u_raw, dtype=np.int64)
        v = np.asarray(v_raw, dtype=np.int64)
        if not (np.array_equal(u, u_raw) and np.array_equal(v, v_raw)):
            raise GraphError("edge endpoints must be integers")
        m = u.shape[0]
        if weights is None:
            w = np.ones(m, dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (m,):
                raise GraphError(
                    f"weights must have shape ({m},), got {w.shape}"
                )
        if m == 0:
            return u, v, w.astype(np.float64)
        if u.min(initial=0) < 0 or v.min(initial=0) < 0 or max(
            u.max(initial=-1), v.max(initial=-1)
        ) >= self._n:
            raise GraphError(
                f"edge endpoints must lie in [0, {self._n}); got values outside"
            )
        if np.any(u == v):
            raise GraphError("self-loops are not allowed in ingested batches")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise GraphError("edge weights must be finite and positive")
        return np.minimum(u, v), np.maximum(u, v), w

    def _evict_expired(self, batch: int) -> int:
        """Drop state/reference edges outside the sliding window."""
        if self._window is None:
            return 0
        horizon = batch - self._window  # live: batch id > horizon
        evicted = 0
        ret_mask = self._ret_b > horizon
        if not ret_mask.all():
            evicted += int(ret_mask.shape[0] - ret_mask.sum())
            self._ret_u = self._ret_u[ret_mask]
            self._ret_v = self._ret_v[ret_mask]
            self._ret_w = self._ret_w[ret_mask]
            self._ret_b = self._ret_b[ret_mask]
        pen_mask = self._pen_b > horizon
        if not pen_mask.all():
            evicted += int(pen_mask.shape[0] - pen_mask.sum())
            self._pen_u = self._pen_u[pen_mask]
            self._pen_v = self._pen_v[pen_mask]
            self._pen_w = self._pen_w[pen_mask]
            self._pen_b = self._pen_b[pen_mask]
        self._exact = [rec for rec in self._exact if rec[0] > horizon]
        self._evicted += evicted
        return evicted

    def _compact(self, take: int) -> None:
        """Fold the earliest ``take`` pending edges into the retained pool.

        One PARALLELSAMPLE pass over (retained ∪ block): consumes the next
        compaction RNG index, keeps the bundle at face weight and the
        Bernoulli survivors at ``1/p`` times theirs, and appends a
        :class:`CompactionRecord`.
        """
        work_u = np.concatenate([self._ret_u, self._pen_u[:take]])
        work_v = np.concatenate([self._ret_v, self._pen_v[:take]])
        work_w = np.concatenate([self._ret_w, self._pen_w[:take]])
        work_b = np.concatenate([self._ret_b, self._pen_b[:take]])
        self._pen_u = self._pen_u[take:]
        self._pen_v = self._pen_v[take:]
        self._pen_w = self._pen_w[take:]
        self._pen_b = self._pen_b[take:]

        index = self._compactions
        shared = {
            "seed": self._seed,
            "num_vertices": self._n,
            "u": work_u,
            "v": work_v,
            "w": work_w,
            "t": self._t,
            "k": self._k,
            "p": self._p,
        }
        backend = self._config.execution_backend()
        result = backend.map(
            _compaction_worker, [index], shared=shared, policy=self._failure_policy
        )[0]

        bundle = result["bundle"]
        kept = result["kept"]
        self._compactions += 1
        self.records.append(
            CompactionRecord(
                index=index,
                working_edges=int(work_u.shape[0]),
                bundle_edges=int(bundle.shape[0]),
                kept_edges=int(kept.shape[0]),
                outside_edges=int(result["outside"]),
                components_built=int(result["built"]),
                exhausted=bool(result["exhausted"]),
                bundle_indices=bundle,
                kept_indices=kept,
            )
        )
        self._ret_u = np.concatenate([work_u[bundle], work_u[kept]])
        self._ret_v = np.concatenate([work_v[bundle], work_v[kept]])
        self._ret_w = np.concatenate([work_w[bundle], work_w[kept] * (1.0 / self._p)])
        self._ret_b = np.concatenate([work_b[bundle], work_b[kept]])

    # ------------------------------------------------------------------ #
    # Snapshot / certification
    # ------------------------------------------------------------------ #

    def _stats(self) -> StreamStats:
        return StreamStats(
            batches_ingested=self._batches_ingested,
            edges_ingested=self._edges_ingested,
            live_input_edges=self.live_input_edges,
            retained_edges=self.retained_edges,
            pending_edges=self.pending_edges,
            compactions=self._compactions,
            evicted_edges=self._evicted,
            ingest_seconds=self._ingest_seconds,
            seed=self._seed,
            auto_seeded=self._auto_seeded,
        )

    def snapshot(self) -> StreamSnapshot:
        """Materialise the current sparsifier (pure: does not mutate state).

        The graph holds the retained state plus pending edges; repeated
        snapshots without intervening ``ingest`` calls are identical, and
        in unwindowed mode the snapshot after a given edge sequence is
        bit-identical no matter how the sequence was split into batches.
        """
        graph = Graph._from_trusted(
            self._n,
            np.concatenate([self._ret_u, self._pen_u]),
            np.concatenate([self._ret_v, self._pen_v]),
            np.concatenate([self._ret_w, self._pen_w]),
        )
        stats = self._stats()
        unified = UnifiedResult(
            method="streaming",
            sparsifier=graph,
            input_edges=self.live_input_edges,
            output_edges=graph.num_edges,
            wall_time_seconds=self._ingest_seconds,
            native=stats,
        )
        return StreamSnapshot(graph=graph, unified=unified, stats=stats)

    def reference_graph(self) -> Graph:
        """The exact live graph (window applied) — certification ground truth."""
        if not self._exact:
            return Graph.empty(self._n)
        return Graph._from_trusted(
            self._n,
            np.concatenate([rec[1] for rec in self._exact]),
            np.concatenate([rec[2] for rec in self._exact]),
            np.concatenate([rec[3] for rec in self._exact]),
        )

    def certify(
        self,
        *,
        num_pairs: int = 16,
        num_vectors: int = 32,
        seed: Any = 0,
        solver: Optional[str] = None,
        snapshot: Optional[StreamSnapshot] = None,
    ) -> StreamCertificate:
        """Measure the current snapshot against the exact live graph.

        Runs the full :func:`~repro.analysis.spectral.approximation_report`
        quality gates plus a probe-pair resistance certificate whose
        inner Laplacian solves are routed through the blocked solver
        stack (``solver="cg"|"chain"``, default the config's);
        the returned certificate carries the
        :class:`~repro.resistance.solver_select.ResistanceSolveStats` so
        degraded solves are auditable.
        """
        reference = self.reference_graph()
        snap = snapshot if snapshot is not None else self.snapshot()
        chosen = self._config.solver if solver is None else solver
        stats = ResistanceSolveStats(solver=chosen)
        report = approximation_report(
            reference,
            snap.graph,
            num_vectors=num_vectors,
            num_pairs=num_pairs,
            seed=seed,
        )
        resistances = certify_resistances(
            reference,
            snap.graph,
            num_pairs=num_pairs,
            seed=seed,
            solver=chosen,
            stats=stats,
        )
        return StreamCertificate(
            report=report,
            resistances=resistances,
            solver=chosen,
            stats=stats,
            batches_ingested=self._batches_ingested,
            reference_edges=reference.num_edges,
        )
