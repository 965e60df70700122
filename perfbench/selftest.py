#!/usr/bin/env python3
"""Self-test: the regression gate catches a deliberate 10% slowdown.

    python3 perfbench/selftest.py

Runs the kernel workload in PAIRS pairs at BENCHMARK.json's run_seconds
(same seed, alternating which side runs first): a plain run and one with
--inject-slowdown 0.10, which busy-waits 10% of every timed knn_kernel call
after it returns. The slowdown is injected in the benchmark, around the
timed call into the core layer; the library is unchanged. Passes when the
gate can compare the two sets (their host contention agrees) and flags
p50_ms and useful_gflops of the injected runs as regressed, each worse by
at least 5%. Exits 0 on pass, 1 on fail or when the gate could not decide
(the host's contention changed between the two sides).
"""
import json
import subprocess
import sys
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
PAIRS = 10


def run(seed, seconds, inject):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "kernel",
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if inject:
        cmd += ["--inject-slowdown", str(inject)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         cwd=HERE.parent).stdout
    return gate.parse_runs(out)[-1]


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    base, slow = [], []
    for i in range(PAIRS):
        seed = 1000 + i
        if i % 2 == 0:
            base.append(run(seed, seconds, 0))
            slow.append(run(seed, seconds, 0.10))
        else:
            slow.append(run(seed, seconds, 0.10))
            base.append(run(seed, seconds, 0))
    rows = {r[0]: r for r in gate.compare(spec, base, slow)}
    ok = True
    for name in ("p50_ms", "useful_gflops"):
        _, b, c, w, bound, share, bad = rows[name]
        caught = bad and w >= 0.05
        print(f"{name:14s} base {b:.6g} injected {c:.6g} worse {w:+.4f} "
              f"pairs-worse {share:.2f} bound {bound:.2f} "
              f"{'caught' if caught else 'MISSED'}")
        ok = ok and caught
    why = gate.unresolved(base, slow)
    if why:
        print("unresolved:", why)
    print("selftest:", "UNRESOLVED" if why else "PASS" if ok else "FAIL")
    ok = ok and not why
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
