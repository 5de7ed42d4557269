"""Steadiness of the benchmark: run each workload k times, one seed each.

    python3 perfbench/steady.py --runs 10 [--workloads fig7,serve-small] [--first-seed 1] [--trace]

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the interquartile
distance as a share of the median, beside the metric's bound from
``BENCHMARK.json``; and for every run the operations attempted and
failed.  The bounds in ``BENCHMARK.json`` are set from this output.
``--trace`` adds a traced run right after each of the first three
untraced runs: it prints the median of each per-layer metric, and the
tracing overhead, the median over those pairs of traced
``trace.round_s`` against untraced ``round_s``.  Exits 1 if a run is incorrect, a spread other than
``setup_s``'s exceeds its bound, or the failed share differs across runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: Traced runs per workload; the per-layer figures are their medians.
TRACED_RUNS = 3


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        results = []
        traced = []
        for index in range(args.runs):
            seed = args.first_seed + index
            result = run(workload, seed, args.seconds, 0)
            results.append(result)
            if args.trace and index < TRACED_RUNS:
                # Right after its untraced twin, so both see the same host.
                traced.append(run(workload, seed, args.seconds, 1))
            values = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
            print(
                f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}"
                f" correct {result['correct']} | {values}",
                flush=True,
            )
            ok &= result["correct"]
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        if len(shares) > 1:
            print(f"{workload}: failed share differs across runs: {sorted(map(float, shares))}")
            ok = False
        print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}{'spread/bound':>14}")
        medians = {}
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = medians[metric["name"]] = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            print(
                f"{metric['name']:<14}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}"
                f"{metric['bound']:>7}{spread / metric['bound']:>14.2f}  {metric['unit']}"
            )
            if metric["name"] != "setup_s" and spread > metric["bound"]:
                ok = False
        if traced:
            ok &= all(result["correct"] for result in traced)
            for metric in SPEC["per_layer"]:
                value = statistics.median(r["metrics"][metric["name"]]["value"] for r in traced)
                if value:
                    print(f"  {metric['name']} = {value:.6g} {metric['unit']}")
            overhead = statistics.median(
                t["metrics"]["trace.round_s"]["value"] / u["metrics"]["round_s"]["value"] - 1
                for t, u in zip(traced, results)
            )
            print(f"  tracing overhead on round_s (median of {len(traced)} adjacent pairs): {overhead:+.1%}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
