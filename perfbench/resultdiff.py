"""Compare two JSON-lines files of run records, per (workload, metric).

Each record is one run; a metric's runs give its median and quartiles.
The verdict for a pair follows the benchmark's rules:

- ``unresolved``: the run-to-run spread (quartile distance over median) of
  either side exceeds the metric's bound, and neither side beats every run
  of the other;
- ``worse``: the new median is worse than the base median by more than the
  bound;
- ``improved``: the new side wins at least nine tenths of all
  (new run, base run) pairs, the medians differ by more than the
  distance between the base quartiles, and the two sides' runs alternate
  in time, as paired runs of the two commits do;
- ``unchanged`` otherwise.

Per-layer metrics have no bound; they are judged ``worse`` by the mirror
of the ``improved`` rule. A gain found between runs made one side after
the other is ``unresolved``: a shared host's speed drifts by more than a
bound within minutes, and only alternating runs share that drift. Both
files must hold runs of BENCHMARK.json's ``run_seconds`` only; the diff
refuses to compare runs of other lengths.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> tuple:
    """(workload, metric) -> values, one per run; workload -> run start times; run lengths."""
    values = defaultdict(list)
    starts = defaultdict(list)
    seconds = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                seconds.add(float(record["seconds"]))
                starts[record["workload"]].append(record.get("started"))
                for name, value in record["metrics"].items():
                    values[(record["workload"], name)].append(float(value))
    return values, starts, seconds


def interleaved(base_starts, new_starts) -> bool:
    """Whether the runs of the two sides alternate in time, one pair after another."""
    if None in base_starts or None in new_starts:
        return False
    order = [side for _, side in sorted([(t, 0) for t in base_starts]
                                        + [(t, 1) for t in new_starts])]
    switches = sum(a != b for a, b in zip(order, order[1:]))
    return switches >= min(len(base_starts), len(new_starts))


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better: str, bound, paired: bool) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    scale = abs(b_med) or 1.0
    worse_by = sign * (n_med - b_med) / scale
    base_spread = (b_q3 - b_q1) / scale
    pairs = [sign * (n - b) for n in new for b in base]
    wins = sum(p < 0 for p in pairs) / len(pairs)
    losses = sum(p > 0 for p in pairs) / len(pairs)
    if bound is not None:
        spread = max(base_spread, (n_q3 - n_q1) / (abs(n_med) or 1.0))
        if spread > bound and wins < 1.0 and losses < 1.0:
            return "unresolved"
        if worse_by > bound:
            return "worse"
    elif losses >= 0.9 and worse_by > base_spread:
        return "worse" if paired else "unresolved"
    if wins >= 0.9 and -worse_by > base_spread:
        return "improved" if paired else "unresolved"
    return "unchanged"


def main(base_path: Path, new_path: Path, bench_path: Path) -> int:
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    specs = {entry["name"]: (entry["better"], entry.get("bound"))
             for key in ("end_to_end", "per_layer") for entry in bench[key]}
    specs["op_p90_s"] = ("lower", None)  # recorded only where a run holds 100 ops
    specs["op_cpu_p50_s"] = ("lower", None)  # recorded next to op_p50_s
    (base, base_t, base_s), (new, new_t, new_s) = load(base_path), load(new_path)
    run_seconds = float(bench["run_seconds"])
    for path, seconds in ((base_path, base_s), (new_path, new_s)):
        if seconds != {run_seconds}:
            lengths = ", ".join(f"{s:g}" for s in sorted(seconds))
            print(f"error: {path} holds runs of {lengths} s; BENCHMARK.json's run_seconds "
                  f"is {run_seconds:g}", file=sys.stderr)
            return 2
    paired = {w: interleaved(base_t[w], new_t[w]) for w in set(base_t) & set(new_t)}
    print(f"{'workload':<18} {'metric':<34} {'base median [q1, q3] n':>40} "
          f"{'new median [q1, q3] n':>40} {'change':>8}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        if name not in specs:
            continue
        better, bound = specs[name]
        b, n = quartiles(base[key]), quartiles(new[key])
        change = (n[1] - b[1]) / abs(b[1]) if b[1] else 0.0
        cols = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {len(v)}"
                for q, v in ((b, base[key]), (n, new[key]))]
        print(f"{workload:<18} {name:<34} {cols[0]:>40} {cols[1]:>40} {change:>+8.1%}  "
              f"{verdict(base[key], new[key], better, bound, paired[workload])}")
    only = sorted(key for key in set(base) ^ set(new) if key[1] in specs)
    if only:
        print("present on one side only: " + ", ".join(f"{w}/{m}" for w, m in only))
    sequential = sorted(w for w, ok in paired.items() if not ok)
    if sequential:
        print("runs not alternating between the sides, so no gain is resolved: "
              + ", ".join(sequential))
    return 0
