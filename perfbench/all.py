#!/usr/bin/env python3
"""Run every workload untraced, one after another, and print their metrics:

    python3 perfbench/all.py --seed 1 [--seconds 30]

Each workload runs as its own `perfbench/run.py` process, so one cannot
warm caches or heap for the next.  Exits 1 if any workload fails a check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args(argv)
    all_correct = True
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, f"--seed={args.seed}",
             f"--seconds={args.seconds}", "--trace", "0"],
            capture_output=True, text=True, timeout=180,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        all_correct = all_correct and result["correct"]
        print(f"  correct: {result['correct']} ({result['failed']}/{result['attempted']} failed)")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
