"""The durable record path: ``DurableIO``, the JSON-lines reader, the batch checkpoint.

Both persistence tiers — the ``sparsify_many(checkpoint=...)`` batch
checkpoint (:class:`BatchJournal`) and the streaming tier's segmented
journal (:class:`repro.streaming.journal.StreamJournal`) — write through
one seam and read through one parser:

* **One write seam.**  Every filesystem mutation goes through
  :class:`DurableIO` (fsync'd appends, atomic renames, directory fsyncs,
  truncation), which is where the crash harness
  (:class:`repro.testing.faults.CrashPointIO`) kills or tears writes.
* **One record reader.**  :func:`parse_journal` parses a JSON-lines file
  byte-exactly and classifies its tail as ``clean``, ``torn`` (a crash
  mid-append: droppable) or ``interior`` (real corruption).  Before its
  first append a writer cuts a torn tail off through
  :meth:`DurableIO.truncate`, so a new line never merges into the
  fragment.
* **One digest rule.**  Every stored edge set carries an
  :func:`edge_array_digest` that is recomputed on load; a mismatch raises
  :class:`~repro.exceptions.CheckpointError` instead of returning a
  corrupted result.

:class:`BatchJournal` is one file: a header line pinning the batch shape
(job count, shared ``epsilon`` / ``rho``) and one line per completed job.
Each job line carries a digest of its input graph — a mismatch at the
same index means a *different* batch is being replayed against an old
journal — and a digest of its stored sparsifier.  Edge weights and cost
scalars survive the JSON round-trip exactly (shortest round-trip float
repr), so a resumed batch is bit-identical to the run that wrote it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.sparsify import RoundRecord, SparsifyResult
from repro.exceptions import CheckpointError
from repro.graphs.graph import Graph
from repro.parallel.metrics import PRAMCost

__all__ = [
    "BatchJournal",
    "DurableIO",
    "DEFAULT_IO",
    "batch_graph_digest",
    "edge_array_digest",
    "fsync_directory",
    "parse_journal",
]

_JOURNAL_VERSION = 2


def fsync_directory(path: Union[str, Path]) -> None:
    """Fsync a directory so entry creations/renames inside it are durable.

    Writing and fsyncing a *file* makes its bytes durable, but the file's
    very existence lives in the parent directory's entry list — a crash
    between the file fsync and the directory fsync can lose the whole
    file.  Every create/rotate/rename in the durability layer is followed
    by this call.  Platforms whose directory handles reject fsync (some
    network filesystems, Windows) degrade gracefully.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return  # e.g. O_RDONLY on a directory unsupported: best effort
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class DurableIO:
    """The filesystem mutation surface of the durability layer.

    Every write the journals, snapshots and state store perform goes
    through one of these methods, which gives the crash-consistency
    torture harness (:class:`repro.testing.faults.CrashPointIO`) a single
    seam to kill the process at — or tear a write in half — at every
    possible point.  The default instance (:data:`DEFAULT_IO`) performs
    real, fsync'd filesystem operations.

    Reads are *not* routed through here: a crash cannot corrupt a read,
    and recovery must be able to read whatever survived.
    """

    def mkdir(self, path: Union[str, Path]) -> None:
        """Create a directory (parents included), then fsync its parent."""
        path = Path(path)
        existed = path.is_dir()
        path.mkdir(parents=True, exist_ok=True)
        if not existed:
            fsync_directory(path.parent)

    def append_line(self, path: Union[str, Path], text: str) -> None:
        """Append one line (with trailing newline) and fsync the file."""
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())

    def write_bytes(self, path: Union[str, Path], data: bytes) -> None:
        """Write a whole file and fsync it (no rename — see :meth:`replace`)."""
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def replace(self, source: Union[str, Path], target: Union[str, Path]) -> None:
        """Atomically rename ``source`` over ``target``, then fsync the directory."""
        os.replace(str(source), str(target))
        fsync_directory(Path(target).parent)

    def fsync_dir(self, path: Union[str, Path]) -> None:
        fsync_directory(path)

    def remove(self, path: Union[str, Path]) -> None:
        os.remove(str(path))

    def truncate(self, path: Union[str, Path], size: int) -> None:
        """Cut a file to ``size`` bytes (dropping a torn tail) and fsync it."""
        with open(path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())


DEFAULT_IO = DurableIO()


def edge_array_digest(
    num_vertices: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_weights: np.ndarray,
) -> str:
    """Content hash of exact edge arrays (stable across processes).

    Shared by the batch journal (input-graph and stored-result digests)
    and the streaming journal (per-batch digests), so the two persistence
    layers cannot drift in what "the same edges" means.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.int64(num_vertices).tobytes())
    digest.update(np.ascontiguousarray(edge_u, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(edge_v, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(edge_weights, dtype=np.float64).tobytes())
    return digest.hexdigest()


def batch_graph_digest(graph: Graph) -> str:
    """Content hash of a graph's exact edge data (stable across processes)."""
    return edge_array_digest(
        graph.num_vertices, graph.edge_u, graph.edge_v, graph.edge_weights
    )


def parse_journal(path: Path) -> Tuple[List[Dict[str, Any]], int, str]:
    """Parse a JSON-lines journal file: ``(records, valid_end_offset, status)``.

    The one record reader of the durability layer, shared by the batch
    checkpoint and the stream journal's segments.  ``valid_end_offset``
    is the byte offset just past the last complete, JSON-decodable,
    newline-terminated line.  ``status`` is ``"clean"`` (every byte
    parsed), ``"torn"`` (the *final* line is undecodable or unterminated
    — the signature of a crash mid-append, droppable; writers cut the
    file back to ``valid_end_offset`` before appending again), or
    ``"interior"`` (an undecodable line with valid data after it — not a
    torn append but real corruption).
    """
    data = path.read_bytes()
    records: List[Dict[str, Any]] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            # Unterminated tail (even if it happens to decode): the
            # append never completed, so its record was never committed.
            return records, offset, "torn"
        line = data[offset:newline]
        if line.strip():
            try:
                records.append(json.loads(line))
            except ValueError:  # JSONDecodeError, or bytes that are not UTF-8
                is_final_line = newline == len(data) - 1
                return records, offset, "torn" if is_final_line else "interior"
        offset = newline + 1
    return records, offset, "clean"


def _serialize_result(result: SparsifyResult) -> Dict[str, Any]:
    sparsifier = result.sparsifier
    return {
        "sparsifier": {
            "num_vertices": int(sparsifier.num_vertices),
            "edge_u": sparsifier.edge_u.tolist(),
            "edge_v": sparsifier.edge_v.tolist(),
            "edge_weights": sparsifier.edge_weights.tolist(),
        },
        "rounds": [vars(record) for record in result.rounds],
        "epsilon": result.epsilon,
        "rho": result.rho,
        "input_edges": int(result.input_edges),
        "output_edges": int(result.output_edges),
        "cost": {"work": result.cost.work, "depth": result.cost.depth},
        "stopped_early": bool(result.stopped_early),
    }


def _deserialize_result(payload: Dict[str, Any], digest: Any, where: str) -> SparsifyResult:
    """Rebuild a stored result, refusing a sparsifier that fails its digest."""
    sparsifier_data = payload["sparsifier"]
    num_vertices = int(sparsifier_data["num_vertices"])
    u = np.asarray(sparsifier_data["edge_u"], dtype=np.int64)
    v = np.asarray(sparsifier_data["edge_v"], dtype=np.int64)
    w = np.asarray(sparsifier_data["edge_weights"], dtype=np.float64)
    if digest != edge_array_digest(num_vertices, u, v, w):
        raise CheckpointError(
            f"{where} does not match its recorded digest — refusing to resume "
            "a corrupted sparsifier"
        )
    return SparsifyResult(
        sparsifier=Graph(num_vertices, u, v, w),
        rounds=[RoundRecord(**record) for record in payload["rounds"]],
        epsilon=payload["epsilon"],
        rho=payload["rho"],
        input_edges=payload["input_edges"],
        output_edges=payload["output_edges"],
        cost=PRAMCost(work=payload["cost"]["work"], depth=payload["cost"]["depth"]),
        stopped_early=payload["stopped_early"],
    )


@dataclass(frozen=True)
class _Header:
    version: int
    epsilon: Optional[float]
    rho: float
    num_jobs: int


class BatchJournal:
    """Append-only JSON-lines journal of completed batch jobs.

    One journal belongs to one logical batch: the header pins the batch
    shape (job count and shared ``epsilon`` / ``rho``), and each recorded
    job pins its input graph and its stored sparsifier by digest.
    ``load_completed`` returns the jobs that can be skipped on resume;
    ``record`` appends a newly finished one, first cutting off a torn
    tail a crash mid-append left behind.
    """

    def __init__(
        self,
        path: Union[str, Path],
        epsilon: Optional[float],
        rho: float,
        num_jobs: int,
        io: Optional[DurableIO] = None,
    ) -> None:
        self.path = Path(path)
        self._io = io if io is not None else DEFAULT_IO
        self._header = _Header(
            version=_JOURNAL_VERSION,
            epsilon=None if epsilon is None else float(epsilon),
            rho=float(rho),
            num_jobs=int(num_jobs),
        )
        # Byte length of the file's committed prefix (0 = no header yet);
        # None until the file has been read.
        self._valid_end: Optional[int] = None

    def _read(self) -> List[Dict[str, Any]]:
        """Parse the journal, remembering where its committed prefix ends."""
        if not self.path.exists():
            self._valid_end = 0
            return []
        try:
            records, valid_end, status = parse_journal(self.path)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint journal {self.path}: {exc}") from exc
        if status == "interior":
            raise CheckpointError(
                f"checkpoint journal {self.path} is corrupt at byte {valid_end} "
                "(not a torn trailing append)"
            )
        self._valid_end = valid_end if records else 0
        return records

    def load_completed(self, graphs: List[Graph]) -> Dict[int, SparsifyResult]:
        """Read the journal and return ``{job index: result}`` for resumable jobs.

        Missing file → empty dict (fresh batch).  A header that does not
        match this batch's shape, a job line whose graph digest does not
        match the graph now submitted at that index, or a stored result
        that fails its own digest raises :class:`CheckpointError` —
        silently reusing such a journal would return wrong sparsifiers.
        A torn trailing line (crash mid-append) is dropped.
        """
        records = self._read()
        if not records:
            return {}
        header = records[0]
        if header.get("kind") != "header":
            raise CheckpointError(
                f"checkpoint journal {self.path} has no header line; "
                "refusing to resume from an unrecognized file"
            )
        if header.get("version") != self._header.version:
            raise CheckpointError(
                f"checkpoint journal {self.path} has version {header.get('version')}, "
                f"expected {self._header.version}"
            )
        for key in ("epsilon", "rho", "num_jobs"):
            if header.get(key) != getattr(self._header, key):
                raise CheckpointError(
                    f"checkpoint journal {self.path} was written for a different "
                    f"batch: {key}={header.get(key)!r} vs {getattr(self._header, key)!r}"
                )
        completed: Dict[int, SparsifyResult] = {}
        for record in records[1:]:
            if record.get("kind") != "job":
                continue
            try:
                index = int(record["index"])
                if not 0 <= index < len(graphs):
                    raise CheckpointError(
                        f"checkpoint journal {self.path} records job {index} but the "
                        f"batch has {len(graphs)} jobs"
                    )
                if record["graph_digest"] != batch_graph_digest(graphs[index]):
                    raise CheckpointError(
                        f"checkpoint journal {self.path}: graph at job {index} does "
                        "not match the recorded digest — the journal belongs to a "
                        "different batch (delete it or pass a fresh checkpoint path)"
                    )
                completed[index] = _deserialize_result(
                    record["result"],
                    record["result_digest"],
                    f"checkpoint journal {self.path}: stored result of job {index}",
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"checkpoint journal {self.path} holds a malformed job record: {exc!r}"
                ) from exc
        return completed

    def record(self, index: int, graph: Graph, result: SparsifyResult) -> None:
        """Append one completed job (writing the header first if needed)."""
        line = json.dumps(
            {
                "kind": "job",
                "index": int(index),
                "graph_digest": batch_graph_digest(graph),
                "result_digest": batch_graph_digest(result.sparsifier),
                "result": _serialize_result(result),
            }
        ) + "\n"
        if self._valid_end is None:
            self._read()
        valid_end = int(self._valid_end or 0)
        if self.path.exists() and self.path.stat().st_size != valid_end:
            # Cut a torn tail (or torn header) off first: appending after
            # the fragment would merge into it and corrupt the file mid-way.
            self._io.truncate(self.path, valid_end)
        new_file = valid_end == 0
        # Every append routes through the DurableIO seam so the crash
        # harness can kill or tear each one.  A crash between the header
        # and the job leaves a header-only journal: an empty, valid batch.
        if new_file:
            header = json.dumps({"kind": "header", **vars(self._header)}) + "\n"
            self._io.append_line(self.path, header)
            valid_end += len(header)
        self._io.append_line(self.path, line)
        self._valid_end = valid_end + len(line)
        if new_file:
            # The file's bytes are durable, but its *directory entry* is
            # not until the parent is fsync'd — without this, a crash
            # right after creating the journal can lose the whole file.
            self._io.fsync_dir(self.path.parent)
