"""Batch sparsification: fan independent jobs across an execution backend.

A serving deployment of the sparsifier sees many independent graphs at
once — per-tenant similarity graphs, frames of a temporal graph stream,
parameter-sweep repetitions.  :func:`sparsify_many` is the entry point for
that workload shape: it splits the seed into one RNG sub-stream per job
*before* dispatch, fans the jobs out over an execution backend
(:mod:`repro.parallel.backends`), and returns the per-job
:class:`~repro.core.sparsify.SparsifyResult` objects together with the
fork/join-combined :class:`~repro.parallel.metrics.PRAMCost` aggregate.

Because the per-job sub-streams are fixed up front, the batch output is
bit-identical to running each job individually with its sub-stream — on
every backend and worker count.

Jobs always execute their *internal* work serially (the job-level fan-out
is the parallelism); this avoids nested pools when the batch itself runs
on a thread or process backend, and is output-neutral because backends
never affect results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.core.config import SparsifierConfig
from repro.core.sparsify import SparsifyResult, parallel_sparsify
from repro.graphs.graph import Graph
from repro.parallel.backends import BackendSpec, get_backend
from repro.parallel.failure import FailurePolicy, FailureRecord
from repro.parallel.metrics import PRAMCost, combine_parallel
from repro.utils.rng import SeedLike, as_rng, split_rng

if TYPE_CHECKING:  # deferred: checkpoint imports are lazy on the hot path
    from repro.core.checkpoint import DurableIO

__all__ = ["BatchSparsifyResult", "sparsify_many"]


@dataclass
class BatchSparsifyResult:
    """Outcome of a batch ``PARALLELSPARSIFY`` fan-out.

    Attributes
    ----------
    results:
        Per-job results, in input order.  Under
        ``failure_policy.on_error == "collect"`` a permanently failed
        job's slot holds ``None`` and a matching :class:`FailureRecord`
        appears in ``failures``; every other mode either succeeds fully
        or raises, so ``None`` never appears.
    cost:
        Aggregate PRAM cost with fork/join semantics across jobs: work
        adds, depth is the maximum (the jobs are independent).
    epsilon / rho:
        Parameters shared by every job.
    backend_name / max_workers:
        The execution backend the batch ran on.
    failures:
        Per-job failure records (exception type, message, attempts used,
        elapsed time) for jobs that exhausted their attempts under
        ``on_error="collect"``; empty on a fully successful batch.
    attempts:
        Per-job attempt counts when a failure policy ran the batch
        (``None`` on the plain fail-fast path, where attempts are not
        tracked); a retried-then-recovered job shows a value above 1.
    resumed_jobs:
        Number of jobs restored from the checkpoint journal instead of
        recomputed (0 without ``checkpoint=``).
    """

    results: List[Optional[SparsifyResult]]
    cost: PRAMCost = field(default_factory=PRAMCost)
    epsilon: Optional[float] = None
    rho: float = 4.0
    backend_name: str = "serial"
    max_workers: int = 1
    failures: List[FailureRecord] = field(default_factory=list)
    attempts: Optional[List[int]] = None
    resumed_jobs: int = 0

    @property
    def num_jobs(self) -> int:
        return len(self.results)

    @property
    def num_failed(self) -> int:
        return len(self.failures)

    @property
    def all_succeeded(self) -> bool:
        return not self.failures

    @property
    def total_input_edges(self) -> int:
        return sum(r.input_edges for r in self.results if r is not None)

    @property
    def total_output_edges(self) -> int:
        return sum(r.output_edges for r in self.results if r is not None)

    @property
    def reduction_factor(self) -> float:
        """Aggregate input edges divided by aggregate output edges."""
        out = self.total_output_edges
        if out == 0:
            return float("inf") if self.total_input_edges else 1.0
        return self.total_input_edges / out


def _batch_sparsify_job(item: Dict[str, Any]) -> SparsifyResult:
    """One batch job; module-level so the process backend can pickle it."""
    return parallel_sparsify(
        item["graph"],
        epsilon=item["epsilon"],
        rho=item["rho"],
        config=item["config"],
        seed=item["rng"],
    )


def sparsify_many(
    graphs: Sequence[Graph] | Iterable[Graph],
    epsilon: Optional[float] = None,
    rho: float = 4.0,
    config: Optional[SparsifierConfig] = None,
    seed: SeedLike = None,
    backend: BackendSpec = None,
    max_workers: Optional[int] = None,
    failure_policy: Optional[FailurePolicy] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    checkpoint_io: Optional["DurableIO"] = None,
) -> BatchSparsifyResult:
    """Sparsify many independent graphs concurrently.

    Parameters
    ----------
    graphs:
        The input graphs; one ``PARALLELSPARSIFY`` job per graph.
    epsilon / rho / config:
        Passed to every job (see :func:`repro.core.sparsify.parallel_sparsify`).
    seed:
        Batch seed; job ``i`` receives the ``i``-th sub-stream of it, so a
        fixed batch seed reproduces every job bit-identically regardless
        of backend or worker count.  Because the sub-streams are fixed
        *before* dispatch, a retried job re-runs with the same stream and
        produces the same result — retries are output-neutral.
    backend / max_workers:
        Execution backend for the job fan-out; defaults to the config's
        ``backend`` / ``max_workers`` fields (and through them to the
        process-wide default backend).
    failure_policy:
        :class:`~repro.parallel.failure.FailurePolicy` governing worker
        failures: ``on_error="raise"`` (default semantics — first failure
        cancels the batch), ``"retry"`` (re-run a crashed job up to
        ``max_attempts`` times with seeded exponential backoff before
        giving up), or ``"collect"`` (never raise; failed jobs come back
        as ``None`` with :class:`~repro.parallel.failure.FailureRecord`
        entries in ``failures``).
    checkpoint:
        Path to a JSON-lines journal (:class:`repro.core.checkpoint.BatchJournal`).
        Completed jobs are appended as the batch progresses; re-running
        the same batch with the same path skips them (validated by graph
        digest, so a journal from a different batch is refused, and by
        result digest, so a corrupted stored sparsifier is refused).
    checkpoint_io:
        :class:`~repro.core.checkpoint.DurableIO` the journal writes
        through (default: the real fsync'd filesystem).  The crash
        harness passes a :class:`~repro.testing.faults.CrashPointIO`
        here to kill or tear every journal append.

    Returns
    -------
    BatchSparsifyResult
    """
    config = config if config is not None else SparsifierConfig()
    resolved = get_backend(
        backend if backend is not None else config.backend,
        max_workers if max_workers is not None else config.max_workers,
    )
    graph_list = list(graphs)
    if not graph_list:
        return BatchSparsifyResult(
            results=[],
            cost=PRAMCost(),
            epsilon=epsilon,
            rho=rho,
            backend_name=resolved.name,
            max_workers=resolved.max_workers,
            attempts=[] if failure_policy is not None else None,
        )

    journal = None
    completed: Dict[int, SparsifyResult] = {}
    if checkpoint is not None:
        from repro.core.checkpoint import BatchJournal

        journal = BatchJournal(
            checkpoint, epsilon=epsilon, rho=rho, num_jobs=len(graph_list), io=checkpoint_io
        )
        completed = journal.load_completed(graph_list)

    # Jobs run their internal work serially: the batch IS the fan-out.
    job_config = config.with_overrides(backend="serial", max_workers=None)
    job_rngs = split_rng(as_rng(seed), len(graph_list))
    pending = [i for i in range(len(graph_list)) if i not in completed]
    items = [
        {
            "graph": graph_list[i],
            "epsilon": epsilon,
            "rho": rho,
            "config": job_config,
            "rng": job_rngs[i],
        }
        for i in pending
    ]

    results: List[Optional[SparsifyResult]] = [completed.get(i) for i in range(len(graph_list))]
    failures: List[FailureRecord] = []
    attempts: Optional[List[int]] = None
    if failure_policy is not None:
        attempts = [1] * len(graph_list)

    # With a journal, run the pending jobs in waves and append each wave's
    # results as they land — a crash mid-batch loses at most one wave, not
    # the whole run.  Without one, a single fan-out is cheapest.
    if journal is not None:
        wave_size = max(resolved.max_workers * 4, 8)
    else:
        wave_size = len(items) or 1
    for wave_start in range(0, len(items), wave_size):
        wave_items = items[wave_start:wave_start + wave_size]
        wave_indices = pending[wave_start:wave_start + wave_size]
        if failure_policy is None or failure_policy.is_fail_fast:
            wave_results = resolved.map(_batch_sparsify_job, wave_items)
            wave_attempts = [1] * len(wave_items)
            wave_failures: List[FailureRecord] = []
        else:
            outcome = resolved.map_outcomes(
                _batch_sparsify_job, wave_items, policy=failure_policy
            )
            wave_results = outcome.values
            wave_attempts = outcome.attempts
            # Re-key failure records from wave-local to batch job indices.
            wave_failures = [
                FailureRecord(
                    index=wave_indices[record.index],
                    error_type=record.error_type,
                    message=record.message,
                    attempts=record.attempts,
                    elapsed=record.elapsed,
                )
                for record in outcome.failures
            ]
        failures.extend(wave_failures)
        for local, job_index in enumerate(wave_indices):
            results[job_index] = wave_results[local]
            if attempts is not None:
                attempts[job_index] = wave_attempts[local]
            if journal is not None and wave_results[local] is not None:
                journal.record(job_index, graph_list[job_index], wave_results[local])

    return BatchSparsifyResult(
        results=results,
        cost=combine_parallel(r.cost for r in results if r is not None),
        epsilon=epsilon,
        rho=rho,
        backend_name=resolved.name,
        max_workers=resolved.max_workers,
        failures=failures,
        attempts=attempts,
        resumed_jobs=len(completed),
    )
