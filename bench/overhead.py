"""Tracing overhead: the same workload and seed untraced and traced.

    python3 bench/overhead.py --seed 9001 --seconds 35

For each workload prints the untraced `sents_per_s`, the traced
`bench.sents_per_s` and traced minus untraced (train-*: training
sentences/s; tag-eval: evaluate sentences/s). Each run is its own process,
one after the other.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def result(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    for workload in workloads.WORKLOADS:
        plain = result(workload, args.seed, args.seconds, 0)
        traced = result(workload, args.seed, args.seconds, 1)
        untraced_rate = plain["metrics"]["sents_per_s"]["value"]
        traced_rate = traced["metrics"]["bench.sents_per_s"]["value"]
        diff = traced_rate - untraced_rate
        print(f"{workload}: untraced {untraced_rate:.4f}/s, traced "
              f"{traced_rate:.4f}/s, traced - untraced {diff:+.4f}/s "
              f"({diff / untraced_rate:+.1%})")


if __name__ == "__main__":
    main()
