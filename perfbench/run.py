#!/usr/bin/env python3
"""Build and run the GSKNN end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call builds the library and the
perfbench binary from source into .bench_build/ (Release); later calls only
re-check the build. The binary's output is passed through: a provenance
line and summary lines, then as the last line one JSON object
{correct, attempted, failed, metrics}. BENCHMARK.json is the one list of
metrics: --trace 0 reports its end-to-end metrics, every one measured;
--trace 1 its per-layer metrics, where one of a layer the workload leaves
idle reads 0. Units must match the declared ones.

Exits non-zero, without a result line, when the build fails (for example in
a directory that holds only the benchmark and not the library's sources),
and non-zero with the result line when an output was wrong.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def build() -> Path:
    """Configure and build the binary; build output goes to stderr."""
    log = sys.stderr
    gen = []
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"]
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release", *gen],
                   stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=log, stderr=log, check=True)
    return BUILD / "perfbench"


def result_line(line: str, trace: bool) -> str:
    """The binary's result line, completed and checked against
    BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (kind, m["unit"])
                for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    for name, m in res["metrics"].items():
        if name not in declared:
            raise ValueError(f"undeclared metric {name}")
        if m["unit"] != declared[name][1]:
            raise ValueError(f"{name} unit {m['unit']} != {declared[name][1]}")
        if type(m["value"]) not in (int, float):
            raise ValueError(f"{name} value {m['value']!r} is not a number")
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        got = res["metrics"].get(m["name"])
        if got is None and not trace:
            raise ValueError(f"workload did not measure {m['name']}")
        value = got["value"] if got is not None else 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    res["metrics"] = metrics
    return json.dumps(res)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["serve_steady", "allnn", "kernel"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--inject-slowdown", type=float, default=0.0,
                    help="busy-wait this fraction of every timed kernel call "
                         "of the kernel workload (gate self-test only)")
    args = ap.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject_slowdown > 0:
        cmd += ["--inject-slowdown", str(args.inject_slowdown)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print(f"perfbench: no result line (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 5
    try:
        result = result_line(lines[-1], bool(args.trace))
    except (OSError, ValueError, KeyError) as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"perfbench: malformed result: {e}", file=sys.stderr)
        return 6
    sys.stdout.write("\n".join(lines[:-1] + [result]) + "\n")
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
