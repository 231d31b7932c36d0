#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py <workload> [first_seed] [runs]

Runs `perfbench/run.py --trace 0` once per seed (default: ten seeds from
1) with BENCHMARK.json's `run_seconds`, then prints for each end-to-end
metric its median and the distance between its first and third
quartiles as a share of the median, against the metric's bound. A
benchmark is steady when every spread but `setup_s`'s stays below a
third of its bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    workload = argv[0]
    first = int(argv[1]) if len(argv) > 1 else 1
    runs = int(argv[2]) if len(argv) > 2 else 10
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first, first + runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        lines = out.splitlines()
        result = json.loads(lines[-1])
        machine = next((l for l in lines if l.startswith("machine ")), "machine ?")
        if not result["correct"]:
            print(f"seed {seed}: output checks failed", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
              + f"  [{machine}]", flush=True)
    ok = True
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        steady = m["name"] == "setup_s" or spread < m["bound"] / 3
        ok &= steady
        print(f"{workload:<10} {m['name']:<18} median {med:<14.6g} spread {spread:.4f} "
              f"bound {m['bound']} {'ok' if steady else 'WIDE'}")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
