"""Spans and counters taken from outside the package, by rebinding names.

Each target is a function at the name its caller resolves at call time, for
example ``mediafp.report.match_video`` (bound into ``report`` by import) or
``mediafp.engine.infer_chain`` (a global of ``engine``).  While a ``Tracer``
is active those names point at wrappers; leaving the ``with`` block puts the
originals back.  A target the package no longer has is skipped and reports
zero calls.

A span is ``[name, start_ns, end_ns, parent_index, file_id]``: one list per
call, kept in memory until the run ends.  Calls are strictly nested (one
thread), so a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (module, attribute, span name); the file id advances at report.scan_file.
SPAN_TARGETS = (
    ("mediafp.kb", "load_kb_path", "kb.load_kb_path"),
    ("mediafp.report", "scan_file", "report.scan_file"),
    ("mediafp.report", "render_report", "report.render_report"),
    ("mediafp.container", "extract_video_attributes", "container.extract_video_attributes"),
    ("mediafp.jpeg", "extract_image_attributes", "jpeg.extract_image_attributes"),
    ("mediafp.report", "match_video", "engine.match_video"),
    ("mediafp.report", "match_image", "engine.match_image"),
    ("mediafp.engine", "infer_chain", "engine.infer_chain"),
    ("mediafp.engine", "disambiguate_by_size", "engine.disambiguate_by_size"),
)
# Called tens of times per file: counted, never spanned.  Where the last
# field is set, ``hits`` counts the calls that returned something but None.
COUNT_TARGETS = (
    ("mediafp.engine", "is_overwritten_chain", "engine.is_overwritten_chain", False),
    ("mediafp.engine", "satisfies_video", "engine.satisfies_video", True),
)
ROOT_SPAN = "cli.scan"


class Tracer:
    """Collects spans and counts over every ``with`` block it is entered in."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._file_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, new_file: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if new_file:
                self._file_id += 1
            span = [name, 0, 0, stack[-1] if stack else -1, self._file_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def counter(self, name: str, fn, count_hits: bool):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            if count_hits and result is not None:
                counts[name + ".hits"] += 1
            return result

        return counted

    def _rebind(self, module_name: str, attr: str, wrapper_for) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper_for(original))

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in SPAN_TARGETS:
            self._rebind(module_name, attr,
                         lambda fn, name=name: self.span(name, fn, new_file=name == "report.scan_file"))
        for module_name, attr, name, count_hits in COUNT_TARGETS:
            self._rebind(module_name, attr, lambda fn, name=name, hits=count_hits: self.counter(name, fn, hits))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def root(self, fn):
        """Wrap the whole command call as the root span."""
        return self.span(ROOT_SPAN, fn)


def aggregate(spans: list[list]) -> dict[str, dict[str, int]]:
    """Per span name: calls, total ns and self ns (total minus children)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, int]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - child_ns[i]
    return out
