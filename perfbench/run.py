"""Run one benchmark workload and print its metrics as JSON.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-plan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with timing spans around every layer and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (each a
value with its unit).  ``--smoke`` runs every workload, traced and
untraced, each in its own process with one set-up and one round, and
exits non-zero unless all of them ran correctly with no failed
operation.

Everything the benchmark writes (index files, span dumps, temporary
files) goes under ``.perfbench/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("serve-plan", "search-disk", "wire-hot")


def load_workload(name: str):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if name == "serve-plan":
        from serve_plan import ServePlan

        return ServePlan()
    if name == "search-disk":
        from search_disk import SearchDisk

        return SearchDisk(OUT_DIR)
    from wire_hot import WireHot

    return WireHot()


def smoke() -> int:
    """Every workload, untraced and traced, each with one set-up and one round."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__), "--smoke",
                "--workload", name, "--seed", "1", "--trace", str(trace),
            ]
            completed = subprocess.run(command, capture_output=True, text=True, timeout=170)
            lines = completed.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            ok = (
                completed.returncode == 0
                and result is not None
                and result["correct"]
                and result["failed"] == 0
                and result["attempted"] > 0
            )
            print(f"{name} trace={trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                status = 1
                sys.stdout.write(completed.stdout[-2000:])
                sys.stdout.write(completed.stderr[-2000:])
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None:
        if args.smoke:
            return smoke()
        parser.error("--workload is required unless --smoke is given")

    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    tempfile.tempdir = os.path.join(OUT_DIR, "tmp")
    sys.path.insert(0, HERE)
    workload = load_workload(args.workload)
    from harness import measure

    if args.smoke:
        result = measure(workload, args.seed, 0, bool(args.trace), OUT_DIR, setups=1, min_ops=1)
    else:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
