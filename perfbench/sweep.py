"""Run the scan benchmark over workloads and seeds; print every metric.

    python3 perfbench/sweep.py                        # every workload, seed 1
    python3 perfbench/sweep.py --seeds 1-10 --out runs.jsonl
    python3 perfbench/sweep.py --seeds 1-10 --trace 1
    python3 perfbench/sweep.py --seeds 1-10 --root ../parent --root . --out pair.jsonl

Each run is ``python3 perfbench/run.py`` in its own process, started from
the checkout given by ``--root`` (default: this one), one after another.
With two roots the runs alternate which side goes first, seed by seed, and
``perfbench/compare.py pair.jsonl`` judges the change (side 1) against the
parent (side 0).  For every (workload, metric) the sweep prints the median,
quartiles and spread (interquartile range over median) of each side; for
end-to-end metrics it also prints the bound from BENCHMARK.json, and the same
figures for the times as measured, before rescaling (``raw.*``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from compare import load_benchmark, quartiles, spread

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(root: Path, workload: str, seed: int, seconds: int, trace: int, part: Path) -> dict:
    part.unlink(missing_ok=True)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(part)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if not part.exists():
        raise SystemExit(f"sweep: {root} {workload} seed {seed} exited {proc.returncode} "
                         f"without a result:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    record = json.loads(part.read_text(encoding="utf-8"))
    part.unlink()
    record["exit_code"] = proc.returncode
    return record


def summary(records: list[dict], bench: dict) -> list[str]:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[tuple, list[float]] = defaultdict(list)
    units: dict[str, str] = {}
    for rec in records:
        key = (rec["workload"], rec.get("side", 0))
        for name, metric in rec["metrics"].items():
            values[key + (name,)].append(metric["value"])
            units[name] = metric["unit"]
        for name, value in rec.get("raw", {}).items():
            values[key + ("raw." + name,)].append(value)
            units["raw." + name] = rec["metrics"][name]["unit"]
        values[key + ("failed_share",)].append(rec["failed"] / rec["attempted"])
    units["failed_share"] = "share"
    lines = [f"{'workload':15} {'side':>4} {'metric':48} {'median':>12} {'Q1':>12} {'Q3':>12} "
             f"{'spread':>8} {'bound':>6} {'runs':>4}"]
    for (workload, side, name), vals in values.items():
        q1, med, q3 = quartiles(vals)
        bound = f"{bounds[name]:.2f}" if name in bounds else "-"
        share = f"{spread(vals):.2%}" if med else "-"
        lines.append(f"{workload:15} {side:>4} {name + ' (' + units[name] + ')':48} {med:12.6g} "
                     f"{q1:12.6g} {q3:12.6g} {share:>8} {bound:>6} {len(vals):>4}")
    lines.append(f"{len(records)} runs, {sum(not r['correct'] for r in records)} not correct")
    return lines


def main() -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="Run the benchmark over workloads and seeds.")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=parse_seeds, default=[1])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--root", type=Path, action="append", default=None,
                        help="checkout to run from (repeat for a parent/change pair)")
    parser.add_argument("--out", type=Path, default=None, help="write every record to this JSON lines file")
    args = parser.parse_args()
    roots = [r.resolve() for r in (args.root or [HERE.parent])]
    part = (args.out.resolve() if args.out else HERE.parent / ".perfbench_work" / "sweep").with_suffix(".part")
    part.parent.mkdir(parents=True, exist_ok=True)

    records = []
    for workload in args.workloads.split(","):
        for i, seed in enumerate(args.seeds):
            order = list(enumerate(roots))
            if i % 2:
                order.reverse()
            for side, root in order:
                rec = run_one(root, workload, seed, args.seconds, args.trace, part)
                rec.update(side=side, root=str(root))
                records.append(rec)
                shown = ", ".join(f"{k} {v['value']:.5g}" for k, v in rec["metrics"].items()
                                  if args.trace == 0)
                print(f"{workload} seed {seed} side {side}: correct {rec['correct']}"
                      f"{', ' + shown if shown else ''}", flush=True)
                if args.out:
                    with args.out.open("a", encoding="utf-8") as handle:
                        handle.write(json.dumps(rec) + "\n")
    print("\n".join(summary(records, bench)))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
