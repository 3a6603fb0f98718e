"""Run every workload over several seeds and summarise the metrics.

    python3 perfbench/summary.py --runs 10 --seed 0

For each workload, runs ``run.py`` once per seed (``--seed``,
``--seed + 1``, ...) and prints, per metric, its unit, the number of
repetitions pooled over all runs, their median and quartiles, and the
spread of the per-run values (interquartile range over median) next to
the metric's bound from BENCHMARK.json.  ``fail_ratio`` is the failed
repetitions over the attempted ones.  With ``--trace 1`` the per-layer
metrics are summarised instead.  Exits 1 if any run reports a failed
product check or an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    samples = next((json.loads(l[8:]) for l in lines if l.startswith("samples ")), {})
    if proc.returncode != 0 or not result:
        result = {"correct": False, "attempted": result.get("attempted", 1),
                  "failed": result.get("failed", 1), "metrics": result.get("metrics", {})}
    return result, samples


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="first seed")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every run's result here as JSON")
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    specs = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    everything, ok = {}, True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            result, samples = run_once(workload, args.seed + i, args.seconds, args.trace)
            results.append({"seed": args.seed + i, "result": result, "samples": samples})
            ok &= bool(result["correct"])
            print(f"{workload} seed {args.seed + i}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
        everything[workload] = results
        attempted = sum(r["result"]["attempted"] for r in results)
        failed = sum(r["result"]["failed"] for r in results)
        print(f"\n{workload}: {args.runs} runs, fail_ratio = {failed}/{attempted}"
              f" = {failed / max(attempted, 1):.3g}")
        print(f"  {'metric':<38}{'unit':>6}{'n':>5}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        for spec in specs:
            name = spec["name"]
            per_run = [r["result"]["metrics"][name]["value"] for r in results
                       if name in r["result"]["metrics"]]
            if args.trace:
                pooled = per_run
            else:
                pooled = [v for r in results for v in r["samples"].get(name, [])]
            if not per_run:
                print(f"  {name:<38} no values")
                ok = False
                continue
            q1, med, q3 = quartiles(pooled)
            r1, rmed, r3 = quartiles(per_run)
            spread = (r3 - r1) / rmed if rmed else 0.0
            bound = spec.get("bound")
            flag = "" if bound is None or spread < bound / 3 else "  <- spread above bound/3"
            print(f"  {name:<38}{spec['unit']:>6}{len(pooled):>5}{med:>12.5g}{q1:>12.5g}"
                  f"{q3:>12.5g}{spread:>9.3%}{'' if bound is None else format(bound, '.2f'):>7}{flag}")
    if args.out:
        args.out.write_text(json.dumps(everything, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
