"""Scan benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload evidence-mixed --seed 1 --trace 0

Builds the workload's evidence tree from the seed (perfbench/workloads.py,
in a child process), checks every file's scan result against the tree's
ground truth, then runs ``mediafp scan`` in process through its click entry
point, pass after pass, until ``--seconds`` have elapsed (by default, the
``run_seconds`` of BENCHMARK.json).

Times are rescaled to a nominal machine speed with a calibration loop timed
between passes (see ``slowness``); the figures as measured are printed as
``raw.*``.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
alternates untraced and traced passes, reports the per-layer metrics (see
perfbench/tracer.py) and writes every span to
``.perfbench_work/spans-WORKLOAD-SEED.jsonl``.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--out FILE`` appends the full record (input and output fingerprints, sample
counts) to a JSON lines file.  The exit status is 1 when any file's result is
wrong.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads
from compare import load_benchmark

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# KB loads timed for setup_s: a few first, then some after every pass.
KB_LOADS_FIRST = 11
KB_LOADS_PER_PASS = 5
# Names the per-layer counts are reported under; anything else is "other".
ERROR_CLASSES = ("TruncatedFile", "MalformedBox", "NoVideoTrack", "UnknownBrand", "NoFrameHeader")
OUTCOMES = ("Identified", "Narrowed", "OriginalLike", "Indistinguishable", "Unknown")
LAYERS = ("cli", "kb", "report", "container", "jpeg", "engine")

E2E_UNITS = {
    "files_per_s": "1/s",
    "file_latency_p50_us": "us",
    "file_latency_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# correctness

def declared_errors(mf) -> set[str]:
    names, todo = set(), [mf.container.ParseError, mf.jpeg.JpegError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def result_ok(expect: dict, report, declared: set[str]) -> bool:
    """Whether one file's scan result is what the tree's ground truth says."""
    kind = expect["expect"]
    if kind == "hostile":
        return report.error is not None and report.error.split(":", 1)[0] in declared
    if report.error is not None:
        return False
    verdict = report.verdict
    if kind == "nearmiss":
        return True
    if kind == "original":
        return verdict.outcome.value == "OriginalLike"
    label = expect["label"]
    if "single" in label:
        app, os_name, quality = label["single"]
        return any(c.app == app and c.os.value == os_name and c.quality == quality
                   for c in verdict.candidates)
    nth, nplus1, os_name = label["chain"]
    return any(h.nth_app == nth and h.nplus1_app == nplus1 and h.os.value == os_name
               for h in verdict.chain_hypotheses)


def check_tree(mf, kb, files: list[Path], manifest: dict) -> dict:
    """Scan every file once, outside any timing; judge and count the results."""
    expected = {f["path"]: f for f in manifest["files"]}
    declared = declared_errors(mf)
    reports, failures = [], []
    outcomes, errors = Counter(), Counter()
    for path in files:
        try:
            report = mf.report.scan_file(path, kb, chains=True)
        except Exception as exc:  # an undeclared error is a failed file, not a crash
            errors["other"] += 1
            failures.append(f"{path}: {type(exc).__name__}: {exc}")
            continue
        reports.append(report)
        if report.error is not None:
            name = report.error.split(":", 1)[0]
            errors[name if name in ERROR_CLASSES else "other"] += 1
        else:
            outcome = report.verdict.outcome.value
            outcomes[outcome if outcome in OUTCOMES else "other"] += 1
        if not result_ok(expected[str(path)], report, declared):
            failures.append(f"{path}: expected {expected[str(path)]['expect']} "
                            f"{expected[str(path)]['label'] or ''}, got "
                            f"{report.error or report.verdict.outcome.value}")
    missing = set(expected) - {str(p) for p in files}
    failures.extend(f"{p}: not scanned" for p in sorted(missing))
    first = mf.report.render_report(reports, manifest["format"])
    second = mf.report.render_report(reports, manifest["format"])
    return {
        "failures": failures,
        "outcomes": outcomes,
        "errors": errors,
        "report_sha256": hashlib.sha256(first.encode("utf-8")).hexdigest(),
        "render_identical": first.encode("utf-8") == second.encode("utf-8"),
        "exit_code": 1 if any(r.error for r in reports) else 0,
    }


# ---------------------------------------------------------------------------
# measurement

def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) places it."""
    return statistics.quantiles(values, n=100)[q - 1]


class HashSink(io.RawIOBase):
    """A write-only stream that keeps a sha256 of what passes through, not the bytes."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.digest.update(data)
        return len(data)


def scan_pass(mf, fmt: str, expected: dict, wrap=None) -> tuple[float, bool]:
    """One ``mediafp scan . --format FMT``; returns (seconds, output as expected).

    Standard output goes to a hashing sink for the duration, so the check
    keeps no copy of the report and the process's memory is the command's.
    """
    def invoke():
        try:
            mf.cli.main.main(args=["scan", ".", "--format", fmt], prog_name="mediafp", standalone_mode=False)
        except SystemExit as exc:
            return exc.code or 0
        return 0

    sink = HashSink()
    stdout, sys.stdout = sys.stdout, io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    start = time.perf_counter()
    try:
        code = (invoke if wrap is None else wrap(invoke))()
        sys.stdout.flush()
    except Exception:  # a crash is a wrong result, reported with the rest
        traceback.print_exc()
        code = None
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout = stdout
    ok = code == expected["exit_code"] and sink.digest.hexdigest() == expected["report_sha256"]
    return elapsed, ok


class LatencyProbe:
    """Times each report.scan_file call the command makes; nothing else."""

    def __init__(self, mf) -> None:
        self.module = mf.report
        self.samples_ns: list[int] = []

    def __enter__(self) -> "LatencyProbe":
        self.samples_ns = samples = []
        original, clock = self.module.scan_file, time.perf_counter_ns
        self.original = original

        def timed(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(clock() - start)

        self.module.scan_file = timed
        return self

    def __exit__(self, *exc) -> None:
        self.module.scan_file = self.original


# A shared virtual machine's speed drifts by up to a third within seconds as
# other tenants come and go.  A fixed pure-Python loop that does not touch mediafp
# is timed between passes, and each pass's times are rescaled to the speed at
# which that loop takes NOMINAL_CALIBRATION_S.  Raw figures are printed too.
NOMINAL_CALIBRATION_S = 0.0016
CALIBRATION_REPS = 15


def calibration_work() -> int:
    table: dict[tuple[int, str], int] = {}
    for i in range(2000):
        key = (i % 97, f"k{i % 13}")
        table[key] = table.get(key, 0) + i
    ordered = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return sum(len(key[1]) for key, _ in ordered)


def slowness() -> float:
    """How many times slower than nominal the machine runs right now."""
    times = []
    gc.disable()  # the program's heap must not slow the loop down
    try:
        for _ in range(CALIBRATION_REPS):
            start = time.perf_counter()
            calibration_work()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times) / NOMINAL_CALIBRATION_S


@dataclass
class Measurement:
    # per untraced pass: (seconds, slowness, each scan_file call's ns in file order)
    untraced: list[tuple[float, float, list[int]]] = field(default_factory=list)
    # per traced pass: (seconds, slowness)
    traced: list[tuple[float, float]] = field(default_factory=list)
    # per KB load: (seconds, slowness)
    kb_loads: list[tuple[float, float]] = field(default_factory=list)
    trace: tracer.Tracer = field(default_factory=tracer.Tracer)
    mismatched: int = 0
    # Peak resident memory once the check pass and one timed scan are done:
    # a fixed amount of work, whatever the number of passes.
    peak_rss_mb: float = 0.0


def time_kb_loads(mf, n: int) -> list[float]:
    times = []
    for _ in range(n):
        start = time.perf_counter()
        mf.kb.load_kb_path()
        times.append(time.perf_counter() - start)
    return times


def measure(mf, fmt: str, expected: dict, seconds: float, traced: bool) -> Measurement:
    """Scan passes until ``seconds`` have passed, with KB loads between them.

    Every figure is a median of samples taken across the whole run, each
    sample rescaled by the calibration taken on either side of it.
    """
    m = Measurement()
    probe = LatencyProbe(mf)
    before = slowness()
    loads = time_kb_loads(mf, KB_LOADS_FIRST)
    after = slowness()
    m.kb_loads.extend((t, (before + after) / 2) for t in loads)
    before = after
    deadline = time.perf_counter() + seconds
    turn = 0
    while time.perf_counter() < deadline or not m.untraced or (traced and not m.traced):
        traced_pass = traced and turn % 2 == 1
        if traced_pass:
            with m.trace:
                elapsed, ok = scan_pass(mf, fmt, expected, wrap=m.trace.root)
        else:
            with probe:
                elapsed, ok = scan_pass(mf, fmt, expected)
            if not m.untraced:
                m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        loads = time_kb_loads(mf, KB_LOADS_PER_PASS)
        after = slowness()
        factor = (before + after) / 2
        if traced_pass:
            m.traced.append((elapsed, factor))
        else:
            m.untraced.append((elapsed, factor, probe.samples_ns))
        m.kb_loads.extend((t, factor) for t in loads)
        m.mismatched += not ok
        before = after
        turn += 1
    return m


def end_to_end(m: Measurement, n_files: int, rescale: bool = True) -> dict[str, float]:
    def k(factor: float) -> float:
        return factor if rescale else 1.0

    # Every pass scans the files in the same order, so each file has one time
    # per pass.  A file's time to verdict is the median of its times; the
    # percentiles are taken over files.  A slow spell during a few calls then
    # moves no file's figure.
    passes = [(f, samples) for _, f, samples in m.untraced if len(samples) == n_files]
    per_file_us = [statistics.median(samples[i] / k(f) for f, samples in passes) / 1000
                   for i in range(n_files)]
    return {
        "files_per_s": statistics.median(n_files / t * k(f) for t, f, _ in m.untraced),
        "file_latency_p50_us": quantile(per_file_us, 50),
        "file_latency_p99_us": quantile(per_file_us, 99),
        "setup_s": statistics.median(t / k(f) for t, f in m.kb_loads),
        "peak_rss_mb": m.peak_rss_mb,
    }


def layer_metrics(m: Measurement, n_files: int) -> dict[str, float]:
    """Per-layer figures from the traced passes, times rescaled like end_to_end."""
    rows = tracer.aggregate(m.trace.spans)
    counts = m.trace.counts
    passes = len(m.traced)
    files = n_files * passes
    factor = statistics.median(f for _, f in m.traced)

    def row(name):
        return rows.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0})

    def per(ns, n):
        return ns / n / 1000 / factor if n else 0.0

    out: dict[str, float] = {}
    out["cli.scan.self_us_per_file"] = per(row("cli.scan")["self_ns"], files)
    kb_row = row("kb.load_kb_path")
    out["kb.load_kb_path.ms"] = per(kb_row["total_ns"], kb_row["calls"]) / 1000
    out["report.scan_file.self_us_per_file"] = per(row("report.scan_file")["self_ns"], files)
    for name in ("container.extract_video_attributes", "jpeg.extract_image_attributes"):
        r = row(name)
        out[f"{name}.us_per_call"] = per(r["total_ns"], r["calls"])
        out[f"{name}.calls"] = r["calls"] / passes
    for name in ("engine.match_video", "engine.match_image"):
        r = row(name)
        out[f"{name}.self_us_per_call"] = per(r["self_ns"], r["calls"])
    infer = row("engine.infer_chain")
    out["engine.infer_chain.us_per_call"] = per(infer["total_ns"], infer["calls"])
    out["engine.infer_chain.calls"] = infer["calls"] / passes
    out["engine.is_overwritten_chain.calls_per_file"] = counts["engine.is_overwritten_chain.calls"] / files
    sv_calls = counts["engine.satisfies_video.calls"]
    out["engine.satisfies_video.calls_per_file"] = sv_calls / files
    out["engine.satisfies_video.hit_ratio"] = counts["engine.satisfies_video.hits"] / sv_calls if sv_calls else 0.0
    out["engine.disambiguate_by_size.calls"] = row("engine.disambiguate_by_size")["calls"] / passes
    out["report.render_report.us_per_file"] = per(row("report.render_report")["total_ns"], files)
    scan_ns = row("report.scan_file")["total_ns"]
    for name in ("engine.infer_chain", "jpeg.extract_image_attributes"):
        out[f"{name}.share_of_scan_file"] = row(name)["total_ns"] / scan_ns if scan_ns else 0.0
    root_ns = row("cli.scan")["total_ns"]
    for layer in LAYERS:
        self_ns = sum(r["self_ns"] for n, r in rows.items() if n.split(".")[0] == layer)
        out[f"{layer}.share"] = self_ns / root_ns if root_ns else 0.0
    untraced_fps = statistics.median(n_files / t * f for t, f, _ in m.untraced)
    out["tracing.overhead_ratio"] = untraced_fps / statistics.median(n_files / t * f for t, f in m.traced)
    return out


def layer_unit(name: str) -> str:
    if name.startswith(("report.errors.", "engine.outcome.")) or name.endswith((".calls", "calls_per_file")):
        return "count"
    if name.endswith(("ratio", "share", "share_of_scan_file")):
        return "ratio"
    return "ms" if name.endswith(".ms") else "us"


def trace_table(m: Measurement, n_files: int) -> list[str]:
    """Human-readable per-layer breakdown: one row per span name."""
    rows = tracer.aggregate(m.trace.spans)
    counts = m.trace.counts
    passes = len(m.traced)
    root_ns = rows.get(tracer.ROOT_SPAN, {}).get("total_ns", 0) or 1
    # ns -> rescaled us per file, as in layer_metrics
    scale = 1 / (n_files * passes * statistics.median(f for _, f in m.traced) * 1000)
    lines = [f"{'span':40} {'calls/pass':>10} {'total us/file':>13} {'self us/file':>12} {'self share':>10}"]
    for name, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(f"{name:40} {r['calls'] / passes:10.1f} {r['total_ns'] * scale:13.2f} "
                     f"{r['self_ns'] * scale:12.2f} {r['self_ns'] / root_ns:10.3f}")
    for name in sorted(counts):
        lines.append(f"{name:40} {counts[name] / passes:10.1f}   (count, no span)")
    return lines


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description="mediafp scan benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="append the full record to this JSON lines file")
    args = parser.parse_args()
    # On SIGTERM, unwind through the ``finally`` below so the tree is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    mf = workloads.import_mediafp(ROOT)
    import mediafp.cli  # noqa: F401  (not imported by the package itself)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    cwd = Path.cwd()
    try:
        subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--out", str(work)], check=True, timeout=300)
        manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))

        kb = mf.kb.load_kb_path()

        # Scan with the tree as working directory, so report paths (and the
        # report's fingerprint) do not depend on where the checkout lives.
        os.chdir(work / "tree")
        files = sorted((p for p in Path(".").rglob("*") if p.is_file()), key=str)
        checked = check_tree(mf, kb, files, manifest)
        # What the benchmark keeps alive is no part of the program's heap:
        # keep the collector from walking it during the timed passes.
        gc.collect()
        gc.freeze()
        m = measure(mf, manifest["format"], checked, args.seconds, bool(args.trace))
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    failed = len(checked["failures"])
    correct = failed == 0 and checked["render_identical"] and m.mismatched == 0
    for line in checked["failures"][:20]:
        print(f"FAIL {line}")
    if not checked["render_identical"]:
        print("FAIL rendering the same reports twice gave different bytes")
    if m.mismatched:
        print(f"FAIL {m.mismatched} scan passes differed from the checked report or exit status")

    report_sha = checked["report_sha256"]
    inputs = {"tree_sha256": manifest["tree_sha256"], "files": len(files),
              "unsynthesizable": manifest["unsynthesizable"]}
    print(f"workload {args.workload} seed {args.seed}: {len(files)} files, "
          f"{len(m.untraced)} untraced and {len(m.traced)} traced passes, {len(m.kb_loads)} KB loads, "
          f"slowness {statistics.median(f for _, f, *_ in m.untraced + m.traced):.3f}")
    print(f"inputs.tree_sha256 {inputs['tree_sha256']}")
    print(f"inputs.unsynthesizable {','.join(inputs['unsynthesizable']) or '-'}")
    print(f"outputs.report_sha256 {report_sha}")
    print(f"failed_share {failed / len(files):.6f} ({failed} of {len(files)} files)")

    raw: dict[str, float] = {}
    counts_metrics = {f"report.errors.{n}": checked["errors"][n] for n in ERROR_CLASSES + ("other",)}
    counts_metrics.update({f"engine.outcome.{n}": checked["outcomes"][n] for n in OUTCOMES + ("other",)})
    if args.trace:
        metrics = layer_metrics(m, len(files))
        metrics.update(counts_metrics)
        units = {name: layer_unit(name) for name in metrics}
        for line in trace_table(m, len(files)):
            print(line)
        spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        with spans.open("w", encoding="utf-8") as handle:
            for span in m.trace.spans:
                handle.write(json.dumps(span) + "\n")
        print(f"spans {len(m.trace.spans)} written to {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(m, len(files))
        raw = end_to_end(m, len(files), rescale=False)
        for name, value in raw.items():
            print(f"raw.{name} {value:.6g} {E2E_UNITS[name]}")
        units = E2E_UNITS
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    record = {
        "correct": correct,
        "attempted": len(files),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.out is not None:
        full = dict(record, workload=args.workload, seed=args.seed, trace=args.trace,
                    inputs=inputs, outputs={"report_sha256": report_sha},
                    passes={"untraced": len(m.untraced), "traced": len(m.traced)},
                    kb_loads=len(m.kb_loads), counts=counts_metrics, raw=raw)
        with args.out.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(full) + "\n")
    print(json.dumps(record))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
