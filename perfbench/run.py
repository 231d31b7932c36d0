#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <fleet|chaos|analytics> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (into
$CARGO_TARGET_DIR, default `.bench_build`), runs it once with the given
arguments, checks that the result line names exactly the metrics
BENCHMARK.json declares for that mode, and prints the benchmark's report
with the result line last. Exits non-zero, without a result line, when
the build or the run fails. See `perfbench/src/main.rs` for the
workloads and metrics.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def main(argv):
    trace = argv[argv.index("--trace") + 1] == "1" if "--trace" in argv[:-1] else False
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return fail("build failed")
    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([exe] + argv, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        return fail(f"run exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return fail("last line of the run is not a result")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if reported != declared:
        return fail(f"metrics {sorted(reported.items())} differ from BENCHMARK.json "
                    f"{sorted(declared.items())}")
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
