"""Per-file reports and their text/JSON renderings.

Files are routed to the right parser by magic bytes, never by name: JPEG
streams start with the start-of-image marker, everything else is treated as
an ISO-family container.  Report output is byte-deterministic for a fixed
input set and knowledge base; timestamps only appear when asked for.

The JSON report is written straight from the reports by per-object
templates, and its bytes are exactly those of ``json.dumps(doc, indent=2)``
over the equivalent dict (``tests/test_report.py`` pins this against a
frozen dict form).

Reports share their verdicts: under a verdict memo (below) every file of
one class holds one ``Verdict`` object.  So each render call renders each
distinct verdict's cells (JSON: "outcome" to "error"; text: OUTCOME on,
with the chain lines) once, and reuses the text on every row that holds
it; rendering cost follows the distinct verdicts, not the rows.

A video verdict never reads the file's byte size, so files with the same
video attribute vector in every other field get the same verdict
(``engine.video_verdict_key``).  An image verdict reads the resolution, and
the byte size only through the size bands that hold it, so images with one
resolution and a byte size in one interval between band edges get the same
verdict (``engine.image_verdict_key``).  ``scan_file(..., verdicts=memo)``
matches each such video vector once per memo and ``chains`` value, and each
such image class once per memo, and hands the one frozen ``Verdict`` to
every file that has it; ``mediafp scan`` keeps one memo per invocation.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from stat import S_ISDIR, S_ISREG

from . import container, jpeg
from .attributes import ImageAttributes, MediaKind, VideoAttributes, slot_setters
from .engine import (
    Candidate, ChainHypothesis, Verdict, image_verdict_key, match_image, match_video, video_verdict_key,
)
from .kb import KnowledgeBase

SCHEMA_VERSION = 1
# Each file is opened once as a raw descriptor, sized by fstat on it, and
# read by positioned reads, so no read depends on a file offset.  The first
# read is one os.pread call, read on only when it comes back short.  A file
# of HEAD_READ bytes or less is read whole by the first read; a larger one
# first reads one page, which serves sniffing the kind and the start of the
# JPEG walk, and a video tops that head up to HEAD_READ bytes.  A file that
# ends inside its head is parsed as read.  Any other is parsed through one
# _FileView of the whole file, which reads only what the parser asks for,
# at least a page at a time, and serves a slice inside its last read from
# it: a box walk reads a page of box headers at a time, and a JPEG walk a
# page at each segment header it lands on and jpeg.READ_WINDOW bytes at a
# time of entropy data or fill bytes, up to jpeg.HEAD_WINDOW.  Either way,
# read cost follows the file's structure, and no read grows with the file.
# A file that ends before its fstat size past its head fails with
# TruncatedFile.
HEAD_READ = 64 * 1024


@dataclass(frozen=True, slots=True, init=False)
class FileReport:
    """What scanning one file gave: its attributes and verdict, or an error.

    Every scanned file builds one, so, like the attribute vectors (see
    ``attributes``), it is a slotted frozen dataclass with a written-out
    ``__init__``: the generated frozen one stores each field through
    ``object.__setattr__``; this one checks its arguments, then stores each
    field through its slot's setter.
    """

    path: str
    media_kind: MediaKind | None  # None when the file could not even be read
    attributes: VideoAttributes | ImageAttributes | None
    verdict: Verdict | None
    error: str | None

    def __init__(self, path: str, media_kind: MediaKind | None, attributes: VideoAttributes | ImageAttributes | None,
                 verdict: Verdict | None, error: str | None) -> None:
        if (verdict is None) == (error is None):
            raise ValueError("exactly one of verdict/error must be set")
        set_path, set_media_kind, set_attributes, set_verdict, set_error = _REPORT_SETTERS
        set_path(self, path)
        set_media_kind(self, media_kind)
        set_attributes(self, attributes)
        set_verdict(self, verdict)
        set_error(self, error)


_REPORT_SETTERS = slot_setters(FileReport)


def sniff_media_kind(head: bytes) -> MediaKind:
    return MediaKind.IMAGE if head[:2] == jpeg.SOI else MediaKind.VIDEO


def _pread(fd: int, limit: int, offset: int, want: int, data: bytes = b"") -> bytes:
    # Up to `limit` bytes at `offset`, of which `data` are already read.  A
    # read may return short; read on until the bytes hold `want`, or the
    # file ends.
    while len(data) < want:
        more = os.pread(fd, limit - len(data), offset + len(data))
        if not more:
            break
        data += more
    return data


class _FileView:
    """A file of fstat ``size`` whose first bytes are ``head``: slices inside
    the head come from the head, and slices inside the last bytes read from
    those bytes.  Any other slice is read from its start, at least
    ``jpeg.PAGE`` bytes of it where the file holds them, so the headers that
    follow it come from the same read; a read short of the slice's end is a
    TruncatedFile."""

    def __init__(self, fd: int, head: bytes, size: int) -> None:
        self._fd, self._head, self._size = fd, head, size
        self._last, self._last_at = b"", 0

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: slice) -> bytes:
        start, stop, _ = index.indices(self._size)
        if stop <= len(self._head) or stop <= start:
            return self._head[start:stop]
        at = self._last_at
        if at <= start and stop <= at + len(self._last):
            return self._last[start - at:stop - at]
        want = stop - start
        page = jpeg.PAGE  # read at least a page, where the file holds one
        data = _pread(self._fd, want if want >= page else min(page, self._size - start), start, want)
        if len(data) < want:
            raise container.TruncatedFile(f"file ends before offset {stop}, short of its size {self._size}")
        self._last, self._last_at = data, start
        return data[:want]


def scan_file(path: str | os.PathLike[str], kb: KnowledgeBase, chains: bool = True, *,
              verdicts: dict[tuple, Verdict] | None = None) -> FileReport:
    """Parse and match one file, named by a str or path-like; parse and I/O failures become per-file errors.

    ``verdicts``, when given, memoizes video verdicts by ``chains`` and
    ``engine.video_verdict_key``, and image verdicts by
    ``engine.image_verdict_key`` (see the module docstring).  It belongs to
    one KB: pass it only with the ``kb`` of every call that filled it.
    Without it, a call matches against a memo of its own.
    """
    path = os.fspath(path)
    kind: MediaKind | None = None
    try:
        # Without O_NONBLOCK, opening a FIFO waits for a writer, before the
        # check below can refuse it; reads of a regular file never block.
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            stat = os.fstat(fd)
            if not S_ISREG(stat.st_mode):
                if S_ISDIR(stat.st_mode):
                    # As open() reports it; a read would raise without the path.
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
                raise OSError(f"not a regular file: {path!r}")
            size = stat.st_size
            first = HEAD_READ if size <= HEAD_READ else jpeg.PAGE
            head = os.pread(fd, first, 0)
            if len(head) < first and len(head) < size:
                head = _pread(fd, first, 0, min(first, size), head)
            kind = sniff_media_kind(head)
            want = first if kind is MediaKind.IMAGE else HEAD_READ
            if len(head) == first < want:
                head += _pread(fd, want - first, first, want - first)
            data = _FileView(fd, head, size) if len(head) == want < size else head
            if kind is MediaKind.IMAGE:
                attrs: VideoAttributes | ImageAttributes = jpeg.extract_image_attributes(data)
                key: tuple = image_verdict_key(attrs, kb)
            else:
                attrs = container.extract_video_attributes(data, name_hint=os.path.basename(path))
                key = (chains, video_verdict_key(attrs))
            memo = {} if verdicts is None else verdicts
            verdict = memo.get(key)
            if verdict is None:
                verdict = memo[key] = (match_image(attrs, kb) if kind is MediaKind.IMAGE
                                       else match_video(attrs, kb, chains=chains))
        finally:
            os.close(fd)
    except (container.ParseError, jpeg.JpegError, OSError) as exc:
        return FileReport(path, kind, None, None, f"{type(exc).__name__}: {exc}")
    return FileReport(path, kind, attrs, verdict, None)


# The report schema is fixed, so each object kind has one template at its
# fixed indent depth, giving what ``json.dumps(doc, indent=2)`` gives:
# ASCII-escaped strings, fixed key order, "," and ": " separators, "[]" for
# an empty list.  json.dumps itself is not used because with any indent set
# it falls back to its pure-Python encoder, which cost about as much per file
# as scanning a JPEG; the templates keep only the C string escaper that
# json.dumps uses under its default ensure_ascii=True.
_str = encode_basestring_ascii


def _nullable(text: str | None) -> str:
    return "null" if text is None else _str(text)


def _array(items: list[str], indent: str) -> str:
    """A JSON array of already-rendered items, each one level below ``indent``."""
    if not items:
        return "[]"
    inner = ",\n" + indent + "  "
    # One f-string copies the joined items once; a chain of + would copy
    # them once per operand, and the report's body is the largest array.
    return f"[\n{indent}  {inner.join(items)}\n{indent}]"


def _video_json(a: VideoAttributes) -> str:
    markers = _array([_str(m) for m in sorted(m.value for m in a.markers)], "        ")
    return (
        "{\n"
        f'        "extension": {_str(a.extension)},\n'
        f'        "format_profile": {_str(a.format_profile.value)},\n'
        f'        "codec_id": {_str(a.codec_id)},\n'
        f'        "video_format_profile": {_str(a.video_format_profile)},\n'
        f'        "width": {a.width},\n'
        f'        "length": {a.length},\n'
        f'        "encoder": {_nullable(a.encoder)},\n'
        f'        "markers": {markers},\n'
        f'        "byte_size": {a.byte_size}\n'
        "      }"
    )


def _image_json(a: ImageAttributes) -> str:
    return (
        "{\n"
        f'        "extension": {_str(a.extension)},\n'
        f'        "width": {a.width},\n'
        f'        "length": {a.length},\n'
        f'        "byte_size": {a.byte_size}\n'
        "      }"
    )


def _candidate_json(c: Candidate) -> str:
    fields = _array([_str(f) for f in c.matched_fields], "          ")
    band = "true" if c.used_size_band else "false"
    return (
        "{\n"
        f'          "app": {_str(c.app)},\n'
        f'          "os": {_str(c.os.value)},\n'
        f'          "quality": {_str(c.quality)},\n'
        f'          "matched_fields": {fields},\n'
        f'          "used_size_band": {band}\n'
        "        }"
    )


def _chain_json(h: ChainHypothesis) -> str:
    return (
        "{\n"
        f'          "nth": {_str(h.nth_app)},\n'
        f'          "nplus1": {_str(h.nplus1_app)},\n'
        f'          "os": {_str(h.os.value)}\n'
        "        }"
    )


_KIND_JSON = {None: "null", **{kind: _str(kind.value) for kind in MediaKind}}
_NO_VERDICT_JSON = '      "outcome": null,\n      "candidates": [],\n      "chains": [],\n'


def _verdict_json(v: Verdict) -> str:
    """The lines of a report object from "outcome" to "error", for a report with this verdict."""
    candidates = _array([_candidate_json(c) for c in v.candidates], "      ")
    chains = _array([_chain_json(h) for h in v.chain_hypotheses], "      ")
    return (
        f'      "outcome": {_str(v.outcome.value)},\n'
        f'      "candidates": {candidates},\n'
        f'      "chains": {chains},\n'
        '      "error": null\n'
    )


def _report_json(r: FileReport, memo: dict[int, tuple]) -> str:
    """One report's JSON object; ``memo`` is the render call's (see ``render_json``)."""
    attrs = r.attributes
    if attrs is None:
        attributes = "null"
    elif isinstance(attrs, VideoAttributes):
        attributes = _video_json(attrs)
    else:
        attributes = _image_json(attrs)
    verdict = r.verdict
    if verdict is None:
        result = f'{_NO_VERDICT_JSON}      "error": {_str(r.error)}\n'
    else:
        hit = memo.get(id(verdict))
        if hit is None:
            hit = memo[id(verdict)] = (verdict, _verdict_json(verdict))
        result = hit[1]
    return (
        "{\n"
        f'      "path": {_str(r.path)},\n'
        f'      "kind": {_KIND_JSON[r.media_kind]},\n'
        f'      "attributes": {attributes},\n'
        f"{result}"
        "    }"
    )


def render_json(reports: list[FileReport], timestamp: str | None = None) -> str:
    """The JSON report.

    Each distinct ``Verdict`` object's lines are rendered once per call and
    reused on every row that holds it.  The call's memo maps the ``id()`` of
    each verdict rendered to the verdict and its text.  An id names one
    object only while that object lives, and the memo keeps each verdict it
    holds alive, so no later verdict can take over its id, however soon its
    report is dropped; keying by the verdict itself would run a frozen
    dataclass's generated hash, in Python, on every row.  The memo holds one
    entry per distinct verdict among ``reports`` and is dropped when the
    call returns.
    """
    stamp = "" if timestamp is None else f'  "generated_at": {_str(timestamp)},\n'
    head = f'{{\n  "schema_version": {SCHEMA_VERSION},\n{stamp}  "reports": '
    memo: dict[int, tuple] = {}
    rows = [_report_json(r, memo) for r in reports]
    if not rows:
        return head + "[]\n}\n"
    # The one join copies the rows once; _array and f-strings around it
    # would copy the whole report twice more.
    rows[0] = f"{head}[\n    {rows[0]}"
    rows[-1] += "\n  ]\n}\n"
    return ",\n    ".join(rows)


def _top_candidate(verdict: Verdict) -> str:
    if not verdict.candidates:
        return "-"
    top = verdict.candidates[0]
    label = f"{top.app} ({top.os.value}, {top.quality})"
    if len(verdict.candidates) > 1:
        label += f" +{len(verdict.candidates) - 1}"
    return label


def _text_path(path: str) -> str:
    """A path as one text-report cell.

    A file name may hold line breaks or terminal controls, which would
    forge rows; those characters are written as backslash escapes.  In any
    path that holds one, or a backslash, each literal backslash is doubled,
    so no escape is misread and no two paths share a cell.  A printable
    path without a backslash is written as it is.
    """
    if path.isprintable() and "\\" not in path:
        return path
    return "".join(
        c if c.isprintable() and c != "\\" else c.encode("unicode_escape").decode("ascii") for c in path
    )


_KIND_CELL = {None: f"{'-':5}", **{kind: f"{kind.value:5}" for kind in MediaKind}}
_ERROR_CELL = f"{'error':17}  "


def render_text(reports: list[FileReport], timestamp: str | None = None) -> str:
    """The text report: one row per report, then one line per chain hypothesis.

    Each distinct ``Verdict`` object's cells from OUTCOME on, with its chain
    lines, are rendered once per call and reused on every row that holds
    it, through a memo like ``render_json``'s.
    """
    lines: list[str] = []
    if timestamp is not None:
        lines.append(f"generated at {timestamp}")
    paths = [_text_path(r.path) for r in reports]
    width = max([len(p) for p in paths], default=4)
    width = max(width, len("PATH"))
    lines.append(f"{'PATH'.ljust(width)}  {'KIND':5}  {'OUTCOME':17}  TOP CANDIDATE")
    indent = " " * width
    memo: dict[int, tuple] = {}

    def verdict_cells(v: Verdict) -> str:
        chains = "".join(f"\n{indent}  chain: {h.nth_app} -> {h.nplus1_app} ({h.os.value})"
                         for h in v.chain_hypotheses)
        return f"{v.outcome.value:17}  {_top_candidate(v)}{chains}"

    for report, path in zip(reports, paths):
        verdict = report.verdict
        if verdict is None:
            cells = _ERROR_CELL + report.error
        else:  # as in _report_json
            hit = memo.get(id(verdict))
            if hit is None:
                hit = memo[id(verdict)] = (verdict, verdict_cells(verdict))
            cells = hit[1]
        lines.append(f"{path.ljust(width)}  {_KIND_CELL[report.media_kind]}  {cells}")
    lines.append("")  # the final newline, without a second copy of the report
    return "\n".join(lines)


def render_report(reports: list[FileReport], fmt: str = "text", timestamp: str | None = None) -> str:
    if fmt == "json":
        return render_json(reports, timestamp)
    if fmt == "text":
        return render_text(reports, timestamp)
    raise ValueError(f"unknown report format {fmt!r}; expected 'text' or 'json'")


__all__ = [
    "SCHEMA_VERSION", "HEAD_READ", "FileReport",
    "sniff_media_kind", "scan_file",
    "render_json", "render_text", "render_report",
]
