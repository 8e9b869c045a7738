"""Per-file reports and their text/JSON renderings.

Files are routed to the right parser by magic bytes, never by name: JPEG
streams start with the start-of-image marker, everything else is treated as
an ISO-family container.  Report output is byte-deterministic for a fixed
input set and knowledge base; timestamps only appear when asked for.

The JSON report is written straight from the reports by per-object
templates, and its bytes are exactly those of ``json.dumps(doc, indent=2)``
over the equivalent dict (``tests/test_report.py`` pins this against a
frozen dict form).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from io import FileIO
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import container, jpeg
from .attributes import ImageAttributes, MediaKind, VideoAttributes
from .engine import Candidate, ChainHypothesis, Verdict, match_image, match_video
from .kb import KnowledgeBase

SCHEMA_VERSION = 1
# Each file is opened once, unbuffered, and sized by fstat on that descriptor.
# One head read of up to HEAD_READ bytes serves every use: sniffing the kind,
# the JPEG head parse, and the whole file for a video no larger than the head
# (or cut short by its end).  A larger video is parsed through a _FileView,
# which reads only what the box walk asks for: its cost follows box structure.
HEAD_READ = 64 * 1024
# The frame header of a real photo sits well inside the head.  Only when the
# head parse finds no frame header and the head came back full is the file
# re-read from offset 0, up to the head window, and parsed again.  The parser
# scans forward, so a success or NotJpeg on the head is what the full window
# would give too.
JPEG_HEAD_WINDOW = 16 * 1024 * 1024


@dataclass(frozen=True)
class FileReport:
    path: str
    media_kind: MediaKind | None  # None when the file could not even be read
    attributes: VideoAttributes | ImageAttributes | None
    verdict: Verdict | None
    error: str | None

    def __post_init__(self) -> None:
        if (self.verdict is None) == (self.error is None):
            raise ValueError("exactly one of verdict/error must be set")


def sniff_media_kind(head: bytes) -> MediaKind:
    return MediaKind.IMAGE if head[:2] == jpeg.SOI else MediaKind.VIDEO


def _read_upto(handle: FileIO, limit: int, size: int) -> bytes:
    # An unbuffered read may return short; read on until the buffer holds
    # `limit` bytes or all `size` bytes fstat reported, or the file ends.
    data = handle.read(limit)
    while len(data) < min(limit, size):
        more = handle.read(limit - len(data))
        if not more:
            break
        data += more
    return data


class _FileView:
    """A video of fstat size: slices inside the head come from the head,
    others are read when asked for, and a short read is a TruncatedFile."""

    def __init__(self, handle: FileIO, head: bytes, size: int) -> None:
        self._handle, self._head, self._size = handle, head, size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: slice) -> bytes:
        start, stop, _ = index.indices(self._size)
        if stop <= len(self._head) or stop <= start:
            return self._head[start:stop]
        self._handle.seek(start)
        data = _read_upto(self._handle, stop - start, stop - start)
        if len(data) < stop - start:
            raise container.TruncatedFile(f"file ends before offset {stop}, short of its size {self._size}")
        return data


def _read_jpeg(handle: FileIO, head: bytes, size: int) -> ImageAttributes:
    try:
        return jpeg.extract_image_attributes(head, byte_size=size)
    except jpeg.NoFrameHeader:
        if len(head) < HEAD_READ:
            raise
    # Re-read rather than append, so the head and a joined copy never coexist.
    handle.seek(0)
    return jpeg.extract_image_attributes(_read_upto(handle, JPEG_HEAD_WINDOW, size), byte_size=size)


def scan_file(path: Path, kb: KnowledgeBase, chains: bool = True) -> FileReport:
    """Parse and match one file; parse and I/O failures become per-file errors."""
    kind: MediaKind | None = None
    try:
        with open(path, "rb", buffering=0) as handle:
            size = os.fstat(handle.fileno()).st_size
            head = _read_upto(handle, HEAD_READ, size)
            kind = sniff_media_kind(head)
            if kind is MediaKind.IMAGE:
                attrs: VideoAttributes | ImageAttributes = _read_jpeg(handle, head, size)
                verdict = match_image(attrs, kb)
            else:
                data = _FileView(handle, head, size) if HEAD_READ <= len(head) < size else head
                attrs = container.extract_video_attributes(data, name_hint=path.name)
                verdict = match_video(attrs, kb, chains=chains)
    except (container.ParseError, jpeg.JpegError, OSError) as exc:
        return FileReport(str(path), kind, None, None, f"{type(exc).__name__}: {exc}")
    return FileReport(str(path), kind, attrs, verdict, None)


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
    return "[\n" + indent + "  " + inner.join(items) + "\n" + indent + "]"


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


def _report_json(r: FileReport) -> str:
    attrs = r.attributes
    if attrs is None:
        attributes = "null"
    elif isinstance(attrs, VideoAttributes):
        attributes = _video_json(attrs)
    else:
        attributes = _image_json(attrs)
    verdict = r.verdict
    if verdict is None:
        outcome, candidates, chains = "null", "[]", "[]"
    else:
        outcome = _str(verdict.outcome.value)
        candidates = _array([_candidate_json(c) for c in verdict.candidates], "      ")
        chains = _array([_chain_json(h) for h in verdict.chain_hypotheses], "      ")
    kind = "null" if r.media_kind is None else _str(r.media_kind.value)
    return (
        "{\n"
        f'      "path": {_str(r.path)},\n'
        f'      "kind": {kind},\n'
        f'      "attributes": {attributes},\n'
        f'      "outcome": {outcome},\n'
        f'      "candidates": {candidates},\n'
        f'      "chains": {chains},\n'
        f'      "error": {_nullable(r.error)}\n'
        "    }"
    )


def render_json(reports: list[FileReport], timestamp: str | None = None) -> str:
    stamp = "" if timestamp is None else f'  "generated_at": {_str(timestamp)},\n'
    body = _array([_report_json(r) for r in reports], "  ")
    return f'{{\n  "schema_version": {SCHEMA_VERSION},\n{stamp}  "reports": {body}\n}}\n'


def _top_candidate(verdict: Verdict) -> str:
    if not verdict.candidates:
        return "-"
    c = verdict.candidates[0]
    label = f"{c.app} ({c.os.value}, {c.quality})"
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


def render_text(reports: list[FileReport], timestamp: str | None = None) -> str:
    lines: list[str] = []
    if timestamp is not None:
        lines.append(f"generated at {timestamp}")
    paths = [_text_path(r.path) for r in reports]
    width = max([len(p) for p in paths], default=4)
    width = max(width, len("PATH"))
    lines.append(f"{'PATH'.ljust(width)}  {'KIND':5}  {'OUTCOME':17}  TOP CANDIDATE")
    for report, path in zip(reports, paths):
        if report.error is not None:
            kind = report.media_kind.value if report.media_kind else '-'
            lines.append(f"{path.ljust(width)}  {kind:5}  {'error':17}  {report.error}")
            continue
        verdict = report.verdict
        assert verdict is not None
        lines.append(
            f"{path.ljust(width)}  {report.media_kind.value if report.media_kind else '-':5}  "
            f"{verdict.outcome.value:17}  {_top_candidate(verdict)}"
        )
        for h in verdict.chain_hypotheses:
            lines.append(f"{''.ljust(width)}  chain: {h.nth_app} -> {h.nplus1_app} ({h.os.value})")
    return "\n".join(lines) + "\n"


def render_report(reports: list[FileReport], fmt: str = "text", timestamp: str | None = None) -> str:
    if fmt == "json":
        return render_json(reports, timestamp)
    return render_text(reports, timestamp)


__all__ = [
    "SCHEMA_VERSION", "HEAD_READ", "JPEG_HEAD_WINDOW", "FileReport",
    "sniff_media_kind", "scan_file",
    "render_json", "render_text", "render_report",
]
