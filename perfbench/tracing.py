"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: :meth:`Tracer.wrap`
rebinds a layer's public function (a module attribute or a class
attribute) to a wrapper that opens a span around every call, and
:meth:`Tracer.restore` puts the original back.  Nothing under ``src/`` is
edited, and an untraced run never installs a wrapper, so the timed runs
pay nothing for tracing.

A span has a name (``<layer>.<call>``), a start, an end, its parent span
and a few integer counters.  A layer's self time is the time its spans
cover minus the time their direct children cover.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.methods as methods
import repro.core.sample as sample
import repro.core.sparsify as sparsify
import repro.graphs.io as gio
import repro.solvers.chain as chain
import repro.solvers.peng_spielman as peng_spielman
import repro.streaming.sparsifier as streaming
import repro.streaming.store as store
from repro.core.checkpoint import DurableIO
from repro.graphs.graph import Graph
from repro.streaming.journal import StreamJournal

Counters = Callable[[Any, Tuple[Any, ...], Dict[str, Any]], Dict[str, float]]


@dataclass
class Span:
    span_id: int
    name: str
    parent: Optional[int]
    start_ns: int
    end_ns: int = 0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    """Records nested spans in memory; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def start(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span.span_id)
        return span

    def finish(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != span.span_id:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name: str, fn: Callable, *args: Any, counters: Optional[Counters] = None,
             **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        span = self.start(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.finish(span)
        if counters is not None:
            span.counters.update(counters(result, args, kwargs))
        return result

    def wrap(self, owner: Any, attr: str, name: str, counters: Optional[Counters] = None) -> None:
        """Rebind ``owner.attr`` to a span-recording wrapper until :meth:`restore`.

        Works for module functions, instance methods and classmethods: the
        raw attribute is saved from ``owner.__dict__`` and the wrapper
        calls whatever ``getattr`` returned (a plain or a bound function).
        """
        raw = owner.__dict__[attr]
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, original, *args, counters=counters, **kwargs)

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------ #

    def children(self) -> Dict[int, List[Span]]:
        kids: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(span)
        return kids

    def self_seconds(self) -> Dict[str, float]:
        """Per-layer self time: span time minus direct-children time."""
        kids = self.children()
        totals: Dict[str, float] = {}
        for span in self.spans:
            covered = sum(child.seconds for child in kids.get(span.span_id, ()))
            totals[span.layer] = totals.get(span.layer, 0.0) + span.seconds - covered
        return totals

    def self_seconds_of(self, name: str) -> float:
        kids = self.children()
        return sum(
            span.seconds - sum(child.seconds for child in kids.get(span.span_id, ()))
            for span in self.named(name)
        )

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def total_seconds(self, name: str) -> float:
        return sum(span.seconds for span in self.named(name))

    def total_counter(self, name: str, counter: str) -> float:
        return sum(span.counters.get(counter, 0.0) for span in self.named(name))

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def write(self, path: Path, summary: Dict[str, Any]) -> None:
        path.write_text(
            json.dumps({"summary": summary, "spans": [asdict(s) for s in self.spans]}),
            encoding="utf-8",
        )


class TimingIO(DurableIO):
    """A :class:`DurableIO` that records a span around every durable mutation.

    The span time is the mutation plus its fsync.  Each span counts the
    fsyncs the seam makes for it: one for a write, a rename, a directory
    sync or a truncation, one for ``mkdir`` only when it creates the
    directory, and none for ``remove``.
    """

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def _timed(self, fn: Callable, *args: Any, nbytes: int = 0, fsyncs: int = 1) -> None:
        self._tracer.call(
            "streaming.durable_io", fn, *args,
            counters=lambda _r, _a, _k: {"fsyncs": fsyncs, "bytes": nbytes},
        )

    def mkdir(self, path: Any) -> None:
        self._timed(super().mkdir, path, fsyncs=0 if Path(path).is_dir() else 1)

    def append_line(self, path: Any, text: str) -> None:
        self._timed(super().append_line, path, text, nbytes=len(text.encode("utf-8")))

    def write_bytes(self, path: Any, data: bytes) -> None:
        self._timed(super().write_bytes, path, data, nbytes=len(data))

    def replace(self, source: Any, target: Any) -> None:
        self._timed(super().replace, source, target)

    def fsync_dir(self, path: Any) -> None:
        self._timed(super().fsync_dir, path)

    def truncate(self, path: Any, size: int) -> None:
        self._timed(super().truncate, path, size)

    def remove(self, path: Any) -> None:
        self._timed(super().remove, path, fsyncs=0)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public seams of every layer the workloads reach."""

    def edges_in_out(result: Any, args: Tuple[Any, ...], _kw: Dict[str, Any]) -> Dict[str, float]:
        return {"edges_in": args[0].num_edges, "edges_out": int(result.edge_indices.shape[0])}

    def sparsify_counters(result: Any, _a: Any, _k: Any) -> Dict[str, float]:
        rounds = result.rounds
        last = rounds[-1] if rounds else None
        return {
            "rounds": len(rounds),
            "edges_in": result.input_edges,
            "edges_out": result.output_edges,
            "last_in": last.input_edges if last else 0,
            "last_out": last.output_edges if last else 0,
            "pram_work": result.cost.work,
            "pram_depth": result.cost.depth,
        }

    def cg_counters(result: Any, _a: Any, _k: Any) -> Dict[str, float]:
        return {
            "iterations": int(result.iterations.max(initial=0)),
            "matvecs": int(result.matvecs),
            "precond_applications": int(result.precond_applications),
        }

    def chain_counters(result: Any, _a: Any, _k: Any) -> Dict[str, float]:
        return {
            "depth": result.depth,
            "nnz": result.total_nnz,
            "edges_before": sum(level.edges_before_sparsify for level in result.levels),
            "edges_after": sum(level.edges_after_sparsify for level in result.levels),
        }

    def bundle_select_counters(result: Any, args: Tuple[Any, ...], _k: Any) -> Dict[str, float]:
        return {"edges_in": int(args[1].shape[0]), "edges_out": int(result[1].shape[0])}

    def recover_counters(result: Any, _a: Any, _k: Any) -> Dict[str, float]:
        return {"batches_replayed": result[1].batches_replayed}

    tracer.wrap(gio, "read_edge_list", "graphs.read_edge_list")
    tracer.wrap(gio, "write_edge_list", "graphs.write_edge_list")
    tracer.wrap(Graph, "coalesce", "graphs.coalesce")
    tracer.wrap(methods, "parallel_sparsify", "core.parallel_sparsify", sparsify_counters)
    tracer.wrap(chain, "parallel_sparsify", "core.parallel_sparsify", sparsify_counters)
    tracer.wrap(sparsify, "parallel_sample", "core.parallel_sample")
    tracer.wrap(sample, "t_bundle_spanner", "spanners.t_bundle_spanner", edges_in_out)
    tracer.wrap(chain, "build_inverse_chain", "solvers.build_inverse_chain", chain_counters)
    tracer.wrap(chain, "apply_chain", "solvers.apply_chain")
    tracer.wrap(peng_spielman, "solve_laplacian", "solvers.solve_laplacian")
    tracer.wrap(peng_spielman, "laplacian_solve_many", "linalg.laplacian_solve_many", cg_counters)
    tracer.wrap(streaming.StreamingSparsifier, "recover", "streaming.recover", recover_counters)
    tracer.wrap(streaming.StreamingSparsifier, "ingest", "streaming.ingest")
    tracer.wrap(streaming.StreamingSparsifier, "flush", "streaming.flush")
    tracer.wrap(streaming, "_compaction_worker", "streaming.compaction")
    tracer.wrap(streaming, "bundle_select", "spanners.bundle_select", bundle_select_counters)
    tracer.wrap(store, "load_snapshot", "streaming.load_snapshot")
    tracer.wrap(store.StreamStateStore, "checkpoint", "streaming.checkpoint")
    tracer.wrap(StreamJournal, "append_batch", "streaming.journal_append")


LAYERS = ("graphs", "spanners", "core", "solvers", "linalg", "streaming", "bench")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metric values, from the spans of one traced setup + op."""
    bundle_in = tracer.total_counter("spanners.t_bundle_spanner", "edges_in") + tracer.total_counter(
        "spanners.bundle_select", "edges_in"
    )
    bundle_out = tracer.total_counter("spanners.t_bundle_spanner", "edges_out") + tracer.total_counter(
        "spanners.bundle_select", "edges_out"
    )
    # Algorithm 2 as the workload calls it (not the per-level calls the
    # chain build makes).
    top_sparsify = [
        span for span in tracer.named("core.parallel_sparsify")
        if not tracer.has_ancestor(span, "solvers.build_inverse_chain")
    ]
    level_sparsify = [
        span for span in tracer.named("core.parallel_sparsify")
        if tracer.has_ancestor(span, "solvers.build_inverse_chain")
    ]
    last_in = sum(span.counters["last_in"] for span in top_sparsify)
    last_out = sum(span.counters["last_out"] for span in top_sparsify)
    io_spans = tracer.named("streaming.durable_io")
    journal_bytes = sum(
        span.counters["bytes"] for span in io_spans
        if tracer.has_ancestor(span, "streaming.journal_append")
    )
    self_times = tracer.self_seconds()
    metrics: Dict[str, float] = {
        "io.read_s": tracer.total_seconds("graphs.read_edge_list"),
        "io.write_s": tracer.total_seconds("graphs.write_edge_list"),
        "graphs.coalesce_s": tracer.total_seconds("graphs.coalesce"),
        "spanners.bundle_s": tracer.total_seconds("spanners.t_bundle_spanner")
        + tracer.total_seconds("spanners.bundle_select"),
        "spanners.bundle_calls": float(
            len(tracer.named("spanners.t_bundle_spanner")) + len(tracer.named("spanners.bundle_select"))
        ),
        "spanners.bundle_edge_frac": bundle_out / bundle_in if bundle_in else 0.0,
        "core.sample_self_s": tracer.self_seconds_of("core.parallel_sample"),
        "core.rounds": float(sum(span.counters["rounds"] for span in top_sparsify)),
        "core.last_round_cut": (last_in - last_out) / last_in if last_in else 0.0,
        "core.pram_work": float(sum(span.counters["pram_work"] for span in top_sparsify)),
        "core.pram_depth": float(sum(span.counters["pram_depth"] for span in top_sparsify)),
        "solvers.chain_build_s": tracer.total_seconds("solvers.build_inverse_chain"),
        "solvers.level_sparsify_s": sum(span.seconds for span in level_sparsify),
        "solvers.chain_depth": tracer.total_counter("solvers.build_inverse_chain", "depth"),
        "solvers.chain_nnz": tracer.total_counter("solvers.build_inverse_chain", "nnz"),
        "solvers.chain_apply_s": tracer.total_seconds("solvers.apply_chain"),
        "solvers.chain_applications": float(len(tracer.named("solvers.apply_chain"))),
        "linalg.cg_self_s": tracer.self_seconds_of("linalg.laplacian_solve_many"),
        "linalg.iterations": tracer.total_counter("linalg.laplacian_solve_many", "iterations"),
        "linalg.matvecs": tracer.total_counter("linalg.laplacian_solve_many", "matvecs"),
        "stream.recover_s": tracer.total_seconds("streaming.recover"),
        "stream.batches_replayed": tracer.total_counter("streaming.recover", "batches_replayed"),
        "stream.snapshot_load_s": tracer.total_seconds("streaming.load_snapshot"),
        "stream.compaction_s": tracer.total_seconds("streaming.compaction"),
        "stream.compactions": float(len(tracer.named("streaming.compaction"))),
        "stream.journal_append_s": tracer.total_seconds("streaming.journal_append"),
        "stream.journal_bytes": float(journal_bytes),
        "stream.checkpoint_s": tracer.total_seconds("streaming.checkpoint"),
        "stream.snapshots": float(len(tracer.named("streaming.checkpoint"))),
        "stream.fsync_s": sum(span.seconds for span in io_spans),
        "stream.fsyncs": float(sum(span.counters["fsyncs"] for span in io_spans)),
        "trace.spans": float(len(tracer.spans)),
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = self_times.get(layer, 0.0)
    return metrics


# Every per-layer metric and its unit.  ``layer_metrics`` fills all but the
# two overhead figures, which need the untraced run (see ``run.py``).
PER_LAYER_UNITS: Dict[str, str] = {
    "io.read_s": "s",
    "io.write_s": "s",
    "graphs.coalesce_s": "s",
    "spanners.bundle_s": "s",
    "spanners.bundle_calls": "count",
    "spanners.bundle_edge_frac": "ratio",
    "core.sample_self_s": "s",
    "core.rounds": "count",
    "core.last_round_cut": "ratio",
    "core.pram_work": "ops",
    "core.pram_depth": "ops",
    "solvers.chain_build_s": "s",
    "solvers.level_sparsify_s": "s",
    "solvers.chain_depth": "count",
    "solvers.chain_nnz": "count",
    "solvers.chain_apply_s": "s",
    "solvers.chain_applications": "count",
    "linalg.cg_self_s": "s",
    "linalg.iterations": "count",
    "linalg.matvecs": "count",
    "stream.recover_s": "s",
    "stream.batches_replayed": "count",
    "stream.snapshot_load_s": "s",
    "stream.compaction_s": "s",
    "stream.compactions": "count",
    "stream.journal_append_s": "s",
    "stream.journal_bytes": "bytes",
    "stream.checkpoint_s": "s",
    "stream.snapshots": "count",
    "stream.fsync_s": "s",
    "stream.fsyncs": "count",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}
