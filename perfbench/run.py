"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload sparsify-banded-1m --seed 1 --seconds 10 --trace 0

Workloads: ``sparsify-banded-1m``, ``solve-grid``, ``stream-er`` (see
``perfbench/workloads.py`` and ``perfbench/README.md``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and the raw per-repetition timings.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` additionally runs one traced set-up and
operation and reports the per-layer metrics instead.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# BLAS/OpenMP pools pinned to one thread (before numpy is first imported,
# in ``main``): an unpinned OpenBLAS spins a second thread that competes
# with the measured one.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# Set-up is repeated at least SETUP_MIN_REPEATS times and then until
# SETUP_SECONDS of set-up time have accumulated (at most SETUP_MAX_REPEATS
# times); ``setup_s`` is the median.  A cheap set-up thus gets more
# samples, spread over a longer stretch of the host's speed drift.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 12
SETUP_SECONDS = 8.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "reduction": "ratio",
    "eps_achieved": "ratio",
    "rel_residual": "ratio",
}


def _load_program():
    """Import the program from this checkout's ``src/``, or exit 2."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: program sources not found at {package.parent}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


def _timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def measure(workload, seconds: float):
    """Repeated set-ups (see ``SETUP_SECONDS``), then ops for ``seconds``."""
    setups, walls, digests = [], [], []
    state = out = None
    while len(setups) < SETUP_MIN_REPEATS or (
        sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX_REPEATS
    ):
        state = None  # each set-up starts afresh
        workload.reset()
        state, elapsed = _timed(workload.setup)
        setups.append(elapsed)
    while not walls or sum(walls) < seconds:
        if walls and not workload.reusable_state:
            state = out = None
            workload.reset()
            state, elapsed = _timed(workload.setup)
            setups.append(elapsed)
        out, elapsed = _timed(workload.op, state)
        walls.append(elapsed)
        workload.check_op(out)
        digests.append(workload.output_digest(out))
    return setups, walls, digests, state, out


def traced_once(workload, tracer):
    """One traced set-up + op with every layer wrapper installed."""
    from perfbench.tracing import TimingIO, install_layer_wrappers

    workload.reset()
    gc.collect()
    install_layer_wrappers(tracer)
    workload.io = TimingIO(tracer)
    try:
        state = tracer.call("bench.setup", workload.setup)
        gc.collect()
        out = tracer.call("bench.op", workload.op, state)
    finally:
        tracer.restore()
        workload.io = None
    return out


def _finite(value: float):
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    import numpy as np
    import scipy

    from perfbench.tracing import PER_LAYER_UNITS, Tracer, layer_metrics
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed)
        workload.prepare()
        setups, walls, digests, state, out = measure(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer = None
        if args.trace:
            tracer = Tracer()
            traced_out = traced_once(workload, tracer)
            # Tracing must not touch outputs: the traced op has to
            # reproduce the untraced digest bit for bit.
            digests.append(workload.output_digest(traced_out))
        quality = workload.check(state, out, digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall_s = statistics.median(walls)
    if tracer is None:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "success_rate": quality.ok / quality.attempted,
            "reduction": quality.reduction,
            "eps_achieved": _finite(quality.eps_achieved),
            "rel_residual": _finite(quality.rel_residual),
        }
        units = END_TO_END_UNITS
    else:
        values = layer_metrics(tracer)
        traced_wall = tracer.total_seconds("bench.op")
        values["trace.overhead_s"] = traced_wall - wall_s
        values["trace.overhead_ratio"] = (traced_wall - wall_s) / wall_s
        units = PER_LAYER_UNITS

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "setup_times_s": setups,
        "wall_times_s": walls,
        "quality": {
            "reduction": quality.reduction,
            "eps_achieved": _finite(quality.eps_achieved),
            "rel_residual": _finite(quality.rel_residual),
        },
        "notes": quality.notes,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.write(results / f"trace-{args.workload}-seed{args.seed}.json", {"env": env, "metrics": values})
    result = {
        "correct": bool(quality.correct),
        "attempted": quality.attempted,
        "failed": quality.attempted - quality.ok,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": result}, indent=1), encoding="utf-8"
    )
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for _var in THREAD_VARS:
        os.environ[_var] = "1"
    sys.exit(main())
