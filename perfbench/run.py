"""qcrsim end-to-end benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each repetition is a fresh
interpreter (``child.py``) that imports ``qcrsim`` from ``src`` and runs
the workload's CLI presets, so it pays import and every in-process
cache like a command-line user.  Repetitions run one after another
(a closed loop with one client) until ``--seconds`` are used, at least
three of them.  Each repetition's CSV products are checked for physics
(``workloads.py``) and must be byte-identical across the repetitions of
the run.

``--trace 0`` reports the end-to-end metrics: medians of ``wall_s``
(first CLI call to last product, import excluded), ``setup_s``
(interpreter start plus ``import qcrsim.cli``) and ``peak_rss_mb``.
``--trace 1`` alternates traced and untraced repetitions and reports
the per-layer metrics of ``tracer.py``: counts, which must repeat
exactly, and the medians of the times.  The last stdout line is the
JSON result; the lines before it give the environment stamp and the
raw samples.  Exit code 0 when every check passed, 1 when one failed,
2 when the qcrsim sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_products  # noqa: E402

MIN_REPS = 3
#: A run ends within this many seconds, even when a repetition hangs.
TIME_LIMIT_S = 170

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def git_sha() -> str | None:
    """HEAD commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    import numpy  # noqa: F401 - loads the BLAS library into this process

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:  # no procfs: not Linux
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    return int(fn())
    return None


def stamp() -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401 - only whether it imports matters

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": has_numba,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
    }


def csv_digests(outdir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*.csv"))
    }


def run_child(workload, seed, rep_dir: Path, traced: bool, env, timeout) -> dict:
    """One repetition; returns its samples, or its problems under 'bad'."""
    record_path = rep_dir.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--outdir", str(rep_dir),
           "--record", str(record_path), "--trace", str(int(traced))]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"bad": [f"repetition timed out after {timeout:.0f} s"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"bad": [f"exit code {proc.returncode}: {' | '.join(tail)}"]}
    record = json.loads(record_path.read_text(encoding="utf-8"))
    out = {
        "bad": check_products(workload, rep_dir),
        "digests": csv_digests(rep_dir),
        "wall_s": record["t_done"] - record["t_start"],
        "setup_s": record["t_ready"] - t_spawn,
        "peak_rss_mb": record["maxrss_kb"] / 1024.0,
    }
    if traced:
        # The config echo holds the output path, so it is left out.
        written = sum(p.stat().st_size for p in rep_dir.rglob("*")
                      if p.is_file() and p.name != "config_echo.txt")
        out["layers"] = layer_metrics(record["spans"], written)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "qcrsim" / "cli.py").is_file():
        print(f"no qcrsim sources under {SRC}", file=sys.stderr)
        return 2
    # qcrsim seeds must be non-negative; equal for seeds in [0, 2**32).
    seed = args.seed % 2**32
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run_dir = RUNS / f"{args.workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    print("stamp " + json.dumps(stamp()), flush=True)

    # Compile the sources to bytecode once, as any installed CLI would be.
    subprocess.run([sys.executable, "-c", "import qcrsim.cli"], env=env,
                   stderr=subprocess.DEVNULL, check=False, timeout=TIME_LIMIT_S / 4)

    reps, problems, reference = [], [], None
    start = time.monotonic()
    while True:
        k = len(reps)
        elapsed = time.monotonic() - start
        if k >= MIN_REPS and elapsed * (k + 1) / k > args.seconds:
            break
        if time.monotonic() >= deadline:
            problems.append(f"only {k} repetitions within {TIME_LIMIT_S} s")
            break
        # Traced mode alternates traced and untraced repetitions, traced first.
        traced = bool(args.trace) and k % 2 == 0
        rep = run_child(args.workload, seed, run_dir / f"rep{k}", traced, env,
                        timeout=max(deadline - time.monotonic(), 1.0))
        rep["traced"] = traced
        if reference is None and "digests" in rep:
            reference = rep["digests"]
        elif "digests" in rep and rep["digests"] != reference:
            rep["bad"].append("CSV products differ from the first repetition")
        problems += [f"rep{k}: {msg}" for msg in rep["bad"]]
        reps.append(rep)

    ok_reps = [r for r in reps if not r["bad"]]
    failed = len(reps) - len(ok_reps)
    plain = [r for r in ok_reps if not r["traced"]]
    traced = [r for r in ok_reps if r["traced"]]
    samples = {name: [r[name] for r in plain] for name in END_TO_END}
    metrics = {}
    if not args.trace:
        for name, unit in END_TO_END.items():
            if samples[name]:
                metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    elif traced and plain:
        layers = [r["layers"] for r in traced]
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(samples["wall_s"]))
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                value = overhead
            elif unit in ("s", "s/us"):
                value = statistics.median(m[name] for m in layers)
            else:
                values = {m[name] for m in layers}
                if len(values) > 1:
                    problems.append(f"count {name} differs between traced runs: {sorted(values)}")
                value = layers[0][name]
            metrics[name] = {"value": value, "unit": unit}
        samples["layers"] = layers

    correct = not problems and set(metrics) == set(PER_LAYER if args.trace else END_TO_END)
    for msg in problems:
        print("problem " + msg, file=sys.stderr)
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:  # other runs' directories remain
            pass
    print("samples " + json.dumps(samples))
    print(json.dumps({"correct": correct, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
