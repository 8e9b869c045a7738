"""Compare two result sets of the scan benchmark: a parent and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py BOTH.jsonl          # sides 0 and 1 of one sweep

Result sets are the JSON lines files perfbench/sweep.py writes.  Each
(workload, end-to-end metric) gets its own row with both sides' medians and
quartiles, and one verdict:

* improved   -- the change wins at least 9 in 10 of the runs paired by seed
                (ties count for neither), and the medians differ, in the
                better direction, by more than the parent's interquartile range;
* worse      -- the change's median is worse than the parent's by more than
                the metric's bound in BENCHMARK.json;
* unresolved -- neither of the above, and either side's spread (interquartile
                range over median) is wider than the bound, unless every run
                of the change reads better than every run of the parent;
* unchanged  -- within the bound, on runs steady enough to tell.

A workload whose runs are not like for like gets no verdicts: every row
reads ``not comparable`` when a run on either side is not correct, when the
change fails more files than the parent, or when, for some seed, the input
trees (the generator or the oracle drifted) or the rendered reports (the
change altered verdicts) differ between the sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def read_records(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    gain = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "improved", wins
    if -gain > bound * p_med:
        return "worse", wins
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def by_seed(records: list[dict]) -> dict[str, dict[int, list[dict]]]:
    out: dict[str, dict[int, list[dict]]] = defaultdict(lambda: defaultdict(list))
    for rec in records:
        out[rec["workload"]][rec["seed"]].append(rec)
    return out


def not_comparable(paired: list[tuple[dict, dict]]) -> list[str]:
    """Why the paired runs cannot be judged against each other; empty when they can."""
    reasons = []
    for p, c in paired:
        if p["inputs"]["tree_sha256"] != c["inputs"]["tree_sha256"]:
            reasons.append(f"seed {p['seed']}: input trees differ")
        if p["outputs"]["report_sha256"] != c["outputs"]["report_sha256"]:
            reasons.append(f"seed {p['seed']}: rendered reports differ")
        for side, rec in (("parent", p), ("change", c)):
            if not rec["correct"]:
                reasons.append(f"seed {rec['seed']}: {side} run not correct ({rec['failed']} files failed)")
        if c["failed"] > p["failed"]:
            reasons.append(f"seed {p['seed']}: change fails {c['failed']} files, parent {p['failed']}")
    return reasons


def compare(parent: list[dict], change: list[dict], bench: dict) -> list[str]:
    lines = []
    p_runs, c_runs = by_seed(parent), by_seed(change)
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in p_runs or workload not in c_runs:
            lines.append(f"{workload}: no runs on {'parent' if workload not in p_runs else 'change'} side")
            continue
        seeds = sorted(set(p_runs[workload]) & set(c_runs[workload]))
        paired = [(p, c) for s in seeds for p, c in zip(p_runs[workload][s], c_runs[workload][s])]
        lines.append(f"== {workload}: {len(paired)} pairs over seeds {seeds}")
        reasons = not_comparable(paired)
        lines.extend(f"   {reason}" for reason in reasons)
        lines.append(f"   {'metric':22} {'unit':5} {'parent median [Q1, Q3]':>34} "
                     f"{'change median [Q1, Q3]':>34} {'delta':>8} {'wins':>6}  verdict")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for s in seeds for r in p_runs[workload][s]]
            cv = [r["metrics"][name]["value"] for s in seeds for r in c_runs[workload][s]]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in paired]
            result, wins = verdict(pv, cv, pairs, metric["better"], metric["bound"])
            if reasons:
                result = "not comparable"
            pq, cq = quartiles(pv), quartiles(cv)
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else float("inf")
            lines.append(f"   {name:22} {metric['unit']:5} {_fmt(pq):>34} {_fmt(cq):>34} "
                         f"{delta:+8.2%} {wins:>3}/{len(pairs):<2}  {result}")
    return lines


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main() -> int:
    parser = argparse.ArgumentParser(description="Compare a parent and a change result set.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args()
    parent = [r for r in read_records(args.parent) if r["trace"] == 0]
    if args.change is None:
        change = [r for r in parent if r.get("side") == 1]
        parent = [r for r in parent if r.get("side", 0) == 0]
    else:
        change = [r for r in read_records(args.change) if r["trace"] == 0]
    if not parent or not change:
        print("compare: need trace-0 runs on both sides", file=sys.stderr)
        return 2
    print("\n".join(compare(parent, change, load_benchmark())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
