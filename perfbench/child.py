"""One repetition of a workload in a fresh interpreter.

Started by ``run.py`` with ``src`` on PYTHONPATH.  Imports the CLI
(timed by the parent as set-up), runs the workload's presets through
``qcrsim.cli.main`` as a command-line user would, and writes a JSON
record with the monotonic clock readings, the peak RSS and, when traced,
every span.  Exits with the first nonzero CLI exit code.
"""

import time  # noqa: I001 - the clock first, so imports below count as set-up

import argparse
import json
import resource
import sys
from pathlib import Path

import qcrsim.cli

T_READY = time.monotonic()

from tracer import CLI, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument("--record", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = Path(qcrsim.cli.__file__).resolve().parents[1]
    if src != Path(sys.path[0]).resolve().parent / "src":
        print(f"qcrsim imported from {src}, not from the checkout", file=sys.stderr)
        return 3

    tracer = Tracer(run_id=str(args.outdir.name)) if args.trace else None
    if tracer:
        tracer.install()
    code = 0
    t_start = time.monotonic()
    for preset in WORKLOADS[args.workload]:
        argv = ["pipeline", preset, "--seed", str(args.seed),
                "--outdir", str(args.outdir / preset)]
        if tracer:
            with tracer.span(CLI):
                code = qcrsim.cli.main(argv)
        else:
            code = qcrsim.cli.main(argv)
        if code:
            break
    t_done = time.monotonic()
    if tracer:
        tracer.uninstall()

    record = {
        "t_ready": T_READY,
        "t_start": t_start,
        "t_done": t_done,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else None,
    }
    args.record.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
