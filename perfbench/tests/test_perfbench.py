"""Tests of the benchmark itself: its checker, its tracing and its output.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import functools
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.api import Engine, SparsifyRequest  # noqa: E402
from repro.graphs.generators import grid_graph  # noqa: E402

from perfbench import run  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.checker import dense_pencil_bounds, pencil_bounds  # noqa: E402
from perfbench.tracing import PER_LAYER_UNITS, Tracer  # noqa: E402

MINIATURES = {
    "sparsify-banded-1m": functools.partial(wl.SparsifyBanded, n=300, band=20),
    "solve-grid": functools.partial(wl.SolveGrid, side=10, columns=8),
    "stream-er": functools.partial(wl.StreamER, n=120, num_batches=10, batch_edges=300, snapshot_every=3),
}


def test_checker_matches_dense_path_on_banded_fixture():
    graph = wl._banded_graph(1400, 60)
    result = Engine(SparsifyRequest(rho=16, epsilon=0.5, seed=1)).run(graph)
    lap_g, lap_h = graph.laplacian(), result.sparsifier.laplacian()
    converged = pencil_bounds(lap_g, lap_h)
    dense = dense_pencil_bounds(lap_g, lap_h)
    assert converged.lam_min == pytest.approx(dense.lam_min, abs=1e-9)
    assert converged.lam_max == pytest.approx(dense.lam_max, abs=1e-9)
    assert converged.eps == pytest.approx(dense.eps, abs=1e-9)
    assert 0.0 < converged.eps < 1.0


def test_checker_grounds_every_component():
    # A two-hop level of a bipartite grid splits into two components.
    lap = grid_graph(6, 6).laplacian()
    level = SimpleNamespace(diag=lap.diagonal(), adjacency=sp.diags(lap.diagonal()) - lap)
    two_hop = wl.exact_two_hop(level)
    scaled = 1.5 * two_hop
    bounds = pencil_bounds(two_hop, scaled)
    assert bounds.lam_min == pytest.approx(1.5) and bounds.lam_max == pytest.approx(1.5)
    dense = dense_pencil_bounds(two_hop, scaled)
    assert dense.eps == pytest.approx(0.5)


def test_checker_rejects_disconnecting_sparsifier():
    graph = wl._banded_graph(40, 2)
    keep = graph.edge_v - graph.edge_u == 1  # a path
    path = graph.select_edges(np.flatnonzero(keep))
    cut = path.select_edges(np.arange(1, path.num_edges))
    with pytest.raises(ValueError):
        pencil_bounds(graph.laplacian(), cut.laplacian())


@pytest.mark.parametrize("name", sorted(MINIATURES))
def test_traced_and_untraced_outputs_are_bit_identical(name, tmp_path):
    workload = MINIATURES[name](tmp_path, 3)
    workload.prepare()
    _, _, digests, state, out = run.measure(workload, 0.0)
    tracer = Tracer()
    traced = run.traced_once(workload, tracer)
    assert workload.output_digest(traced) == digests[0]
    quality = workload.check(state, out, digests + [workload.output_digest(traced)])
    assert quality.correct, quality.notes
    assert len(tracer.spans) > 2
    assert tracer.spans[0].name == "bench.setup"


def _run_main(monkeypatch, tmp_path, name, trace):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setitem(wl.WORKLOADS, name, MINIATURES[name])
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run.main(["--workload", name, "--seed", "2", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(stdout.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(MINIATURES))
def test_emitted_metrics_match_benchmark_json(name, monkeypatch, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert name in {w["name"] for w in spec["workloads"]}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run_main(monkeypatch, tmp_path, name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in spec[section]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == expected
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))
    assert set(PER_LAYER_UNITS) == {m["name"] for m in spec["per_layer"]}
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]}
