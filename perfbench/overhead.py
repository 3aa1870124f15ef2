"""Tracing overhead: the same workload and seed run untraced, then traced.

    python3 perfbench/overhead.py [--seed N] [--seconds S] [workload ...]

Prints, per workload, the median operation time without tracing (op_p50_s),
with tracing (trace.op_p50_s, the op spans of the traced run) and their
difference. The traced run also makes extra split calls between operations;
those sit outside the op spans and are not counted here.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("surface", "graph", "sphere", "cli_cold")


def result(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args()
    for name in args.workloads:
        plain = result(name, args.seed, args.seconds, 0)["metrics"]["op_p50_s"]["value"]
        traced = result(name, args.seed, args.seconds, 1)["metrics"]["trace.op_p50_s"]["value"]
        print(f"{name}: op_p50_s untraced {plain:.4f} s, traced {traced:.4f} s, "
              f"overhead {traced - plain:+.4f} s ({(traced - plain) / plain:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
