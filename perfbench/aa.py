"""A/A steadiness check: run the benchmark twice over the same seeds.

Usage, from the repository root::

    python3 perfbench/aa.py --seeds 10 --sets 2 --out perfbench/AA_REPORT.md

For every workload and every end-to-end metric this reports, per set,
the median and quartiles over the seeds and the spread (interquartile
distance over the median), and the relative gap between the two sets'
medians, each beside the metric's bound from ``BENCHMARK.json``.  The raw
per-run results go next to the report as ``<out>.json``.  One traced run
per workload is appended, with its per-layer metrics and tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(median)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: Dict[str, List[List[dict]]] = {w: [] for w in workloads}
    for _ in range(args.sets):
        for workload in workloads:
            runs[workload].append(
                [run_once(workload, seed, spec["run_seconds"]) for seed in range(1, args.seeds + 1)]
            )
    traced = {w: run_once(w, 1, spec["run_seconds"], trace=1) for w in workloads}
    args.out.with_suffix(".json").write_text(
        json.dumps({"runs": runs, "traced": traced}, indent=1), encoding="utf-8"
    )

    lines = [
        "# A/A steadiness report",
        "",
        f"{args.sets} sets x {args.seeds} seeds per workload, same commit, "
        f"`--seconds {spec['run_seconds']}`.  spread = (q3 - q1) / median over the seeds "
        "of one set; gap = relative change of the median from set 1 to the last set.  "
        "`use` = max(spread, |gap|) / bound; above 1 the metric is **unresolved**.",
        "",
        "| workload | metric | bound | set | median | q1 | q3 | spread | gap | use |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    closest = []
    for workload, sets in runs.items():
        if any(not r["correct"] for s in sets for r in s):
            lines.append(f"| {workload} | **incorrect run** | | | | | | | | |")
        for metric, bound in bounds.items():
            stats = [spread([r["metrics"][metric]["value"] for r in s]) for s in sets]
            gap = (stats[-1]["median"] - stats[0]["median"]) / abs(stats[0]["median"])
            for index, st in enumerate(stats):
                use = max(st["spread"], abs(gap)) / bound
                flag = " **unresolved**" if use > 1 else ""
                lines.append(
                    f"| {workload} | {metric} | {bound} | {index + 1} | {st['median']:.6g} | "
                    f"{st['q1']:.6g} | {st['q3']:.6g} | {st['spread']:.4f} | {gap:+.4f} | {use:.2f}{flag} |"
                )
                closest.append((use, workload, metric, index + 1))
    closest.sort(reverse=True)
    lines += ["", "Closest to their bound:", ""]
    lines += [f"- {w} / {m} (set {s}): {u:.2f} of the bound" for u, w, m, s in closest[:6]]
    lines += ["", "One traced run per workload (seed 1); per-layer metrics that are not 0:", ""]
    for workload, result in traced.items():
        values = ", ".join(
            f"{name}={m['value']:.4g}" for name, m in result["metrics"].items() if m["value"]
        )
        lines.append(f"- {workload} (correct={result['correct']}): {values}")
    args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
