#!/usr/bin/env python3
"""Print every metric of every workload by name, with its unit.

    python3 perfbench/report.py --seed 1 --seconds 25

Runs ``run.py`` once per workload and trace mode, one after another, each
in its own process (peak RSS is per process), and prints one line per
metric, check and cross-check. ``failed_ops_frac`` is failed operations
over attempted ones: commands that exit non-zero plus failed output checks.

``deep_logistic`` runs here but is not a workload of ``BENCHMARK.json``:
its interpreter-bound passes spread too widely from run to run on a shared
host for a regression bound (see ``workloads.setup_deep_logistic``).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("acceptance", "deep_logistic", "large_n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            for line in proc.stdout.splitlines():
                kind, _, rest = line.partition(" ")
                if kind in ("metric", "check", "crosscheck"):
                    print(f"{workload:<14} trace={trace} {kind:<10} {rest}")
            print(f"{workload:<14} trace={trace} result     {proc.stdout.splitlines()[-1]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
