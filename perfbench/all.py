"""Run every benchmark workload in turn, one process each.

Usage, from the repository root::

    python3 perfbench/all.py --seed 0 --seconds 20 --trace 0

Each workload runs as ``perfbench/run.py --workload <name>`` in its own
process, so no process-wide cache or peak resident set carries over from
one workload to the next.  Their output is passed through unchanged.  The
exit code is 1 if any run exits with an error, fails a correctness gate or
counts a failed operation, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("paper_e2e", "feedback_serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ok = True
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        command = [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        sys.stdout.flush()
        if proc.returncode != 0:
            ok = False
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
