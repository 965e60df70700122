"""Regression gate over sets of benchmark runs.

A set is the standard output of runs of perfbench/run.py, one after
another: from each run the gate reads its `# host` line and its result line
(the JSON last line). For each end-to-end metric of BENCHMARK.json:

* spread(values) is the distance between the first and third quartiles
  (statistics.quantiles(values, n=4)) as a share of the median;
* bound rule: a change regresses a metric when its median is worse than
  the base median by more than the metric's bound (a share of the base
  median);
* paired rule, for runs made in pairs (same seed, alternating which side
  runs first): a change also regresses a metric when it is worse in at
  least nine tenths of the pairs and its median is worse by more than the
  base runs' own spread. This sees a consistent shift smaller than the
  bound, such as a 10% slowdown, on a host whose run-to-run noise needs
  the wide bounds.

Contention: a run's `# host` line holds the share of the machine's CPU time
stolen by the hypervisor (steal_frac) and spent on other work (foreign_frac)
while it ran. On a shared host these move the figures more than the bounds
allow, so when the two sets' median load (steal + foreign) differs by more
than LOAD_GAP, or a run lacks the line, the comparison is unresolved: the
rows are printed but nothing is decided.

    python3 perfbench/gate.py BASE.txt CHANGE.txt

prints a row per metric and exits 0 when nothing regressed, 1 when a metric
regressed and 3 when the comparison is unresolved.
"""
import json
import statistics
import sys
from pathlib import Path

# Two ten-run sets whose median load differed by 0.02-0.04 moved serving
# p50_ms by 10-17% and kernel setup_s by 50% on unchanged code.
LOAD_GAP = 0.02


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(base, change, better):
    """Relative worsening of the change's median against the base median."""
    b, c = statistics.median(base), statistics.median(change)
    return (c - b) / b if better == "lower" else (b - c) / b


def paired_worse(base, change, better):
    """Share of pairs in which the change reads worse than the base."""
    worse = sum(1 for b, c in zip(base, change)
                if (c > b if better == "lower" else c < b))
    return worse / len(base)


def compare(spec, base_runs, change_runs):
    """Rows (name, base median, change median, worsening, bound, share of
    pairs worse, regressed)."""
    rows = []
    for m in spec["end_to_end"]:
        base = [r["metrics"][m["name"]]["value"] for r in base_runs]
        change = [r["metrics"][m["name"]]["value"] for r in change_runs]
        w = worsening(base, change, m["better"])
        share = paired_worse(base, change, m["better"])
        paired = len(base) >= 3 and share >= 0.9 and w > spread(base)
        rows.append((m["name"], statistics.median(base),
                     statistics.median(change), w, m["bound"], share,
                     w > m["bound"] or paired))
    return rows


def load(runs):
    """Median load (steal + foreign share) of the runs; None if a run lacks
    its host line."""
    loads = [r.get("load") for r in runs]
    return None if None in loads else statistics.median(loads)


def unresolved(base_runs, change_runs):
    """Why the two sets cannot be compared, or None if they can."""
    b, c = load(base_runs), load(change_runs)
    if b is None or c is None:
        return "a run has no host contention line"
    if abs(c - b) > LOAD_GAP:
        return (f"host load differs: base {b:.3f}, change {c:.3f} "
                f"(limit {LOAD_GAP})")
    return None


def parse_runs(text):
    """Result objects of the runs in `text`, each with the load (steal +
    foreign share) of the `# host` line before it, or None."""
    runs, host_load = [], None
    for line in text.splitlines():
        if line.startswith("# host "):
            h = json.loads(line[len("# host "):])
            if None not in (h["steal_frac"], h["foreign_frac"]):
                host_load = h["steal_frac"] + h["foreign_frac"]
        elif line.startswith("{"):
            run = json.loads(line)
            run["load"] = host_load
            runs.append(run)
            host_load = None
    return runs


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent /
                       "BENCHMARK.json").read_text())
    base = parse_runs(Path(argv[1]).read_text())
    change = parse_runs(Path(argv[2]).read_text())
    rows = compare(spec, base, change)
    for name, b, c, w, bound, share, bad in rows:
        print(f"{name:16s} base {b:12.6g} change {c:12.6g} worse {w:+.4f} "
              f"bound {bound:.2f} pairs-worse {share:.2f} "
              f"{'REGRESSED' if bad else 'ok'}")
    why = unresolved(base, change)
    if why:
        print(f"unresolved: {why}")
        return 3
    return 1 if any(r[-1] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
