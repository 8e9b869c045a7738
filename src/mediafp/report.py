"""Per-file reports and their text/JSON renderings.

Files are routed to the right parser by magic bytes, never by name: JPEG
streams start with the start-of-image marker, everything else is treated as
an ISO-family container.  Report output is byte-deterministic for a fixed
input set and knowledge base; timestamps only appear when asked for.
"""

from __future__ import annotations

import json
import mmap
import os
from dataclasses import dataclass
from io import FileIO
from pathlib import Path

from . import container, jpeg
from .attributes import ImageAttributes, MediaKind, VideoAttributes
from .engine import Verdict, match_image, match_video
from .kb import KnowledgeBase

SCHEMA_VERSION = 1
# Each file is opened once, unbuffered, and sized by fstat on that descriptor.
# One head read of up to HEAD_READ bytes serves every use: sniffing the kind,
# the JPEG head parse, and the whole file for a video no larger than the head.
# A larger video reads only the rest of the file, into a buffer sized for the
# whole, so its bytes are never held twice.
HEAD_READ = 64 * 1024
# The frame header of a real photo sits well inside the head.  Only when the
# head parse finds no frame header and the head came back full is the file
# re-read from offset 0, up to the head window, and parsed again.  The parser
# scans forward, so a success or NotJpeg on the head is what the full window
# would give too.
JPEG_HEAD_WINDOW = 16 * 1024 * 1024
# Above this size the container scan runs over a memory map instead of a copy.
MMAP_THRESHOLD = 16 * 1024 * 1024


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


def _read_rest(handle: FileIO, head: bytes, size: int) -> bytearray:
    data = bytearray(size)
    filled = len(head)
    data[:filled] = head
    with memoryview(data) as view:
        while filled < size:
            count = handle.readinto(view[filled:])
            if not count:
                break
            filled += count
    del data[filled:]  # the file shrank after fstat
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
            elif size > MMAP_THRESHOLD:
                with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
                    attrs = container.extract_video_attributes(mapped, name_hint=path.name)
                verdict = match_video(attrs, kb, chains=chains)
            else:
                data = head if len(head) >= size else _read_rest(handle, head, size)
                attrs = container.extract_video_attributes(data, name_hint=path.name)
                verdict = match_video(attrs, kb, chains=chains)
    except (container.ParseError, jpeg.JpegError, OSError) as exc:
        return FileReport(str(path), kind, None, None, f"{type(exc).__name__}: {exc}")
    return FileReport(str(path), kind, attrs, verdict, None)


def _attributes_dict(attrs: VideoAttributes | ImageAttributes) -> dict:
    if isinstance(attrs, VideoAttributes):
        return {
            "extension": attrs.extension,
            "format_profile": attrs.format_profile.value,
            "codec_id": attrs.codec_id,
            "video_format_profile": attrs.video_format_profile,
            "width": attrs.width,
            "length": attrs.length,
            "encoder": attrs.encoder,
            "markers": sorted(m.value for m in attrs.markers),
            "byte_size": attrs.byte_size,
        }
    return {
        "extension": attrs.extension,
        "width": attrs.width,
        "length": attrs.length,
        "byte_size": attrs.byte_size,
    }


def report_to_dict(report: FileReport) -> dict:
    verdict = report.verdict
    return {
        "path": report.path,
        "kind": report.media_kind.value if report.media_kind else None,
        "attributes": _attributes_dict(report.attributes) if report.attributes else None,
        "outcome": verdict.outcome.value if verdict else None,
        "candidates": [
            {
                "app": c.app,
                "os": c.os.value,
                "quality": c.quality,
                "matched_fields": list(c.matched_fields),
                "used_size_band": c.used_size_band,
            }
            for c in (verdict.candidates if verdict else ())
        ],
        "chains": [
            {"nth": h.nth_app, "nplus1": h.nplus1_app, "os": h.os.value}
            for h in (verdict.chain_hypotheses if verdict else ())
        ],
        "error": report.error,
    }


def render_json(reports: list[FileReport], timestamp: str | None = None) -> str:
    doc: dict = {"schema_version": SCHEMA_VERSION}
    if timestamp is not None:
        doc["generated_at"] = timestamp
    doc["reports"] = [report_to_dict(r) for r in reports]
    return json.dumps(doc, indent=2) + "\n"


def _top_candidate(verdict: Verdict) -> str:
    if not verdict.candidates:
        return "-"
    c = verdict.candidates[0]
    label = f"{c.app} ({c.os.value}, {c.quality})"
    if len(verdict.candidates) > 1:
        label += f" +{len(verdict.candidates) - 1}"
    return label


def render_text(reports: list[FileReport], timestamp: str | None = None) -> str:
    lines: list[str] = []
    if timestamp is not None:
        lines.append(f"generated at {timestamp}")
    width = max([len(r.path) for r in reports], default=4)
    width = max(width, len("PATH"))
    lines.append(f"{'PATH'.ljust(width)}  {'KIND':5}  {'OUTCOME':17}  TOP CANDIDATE")
    for report in reports:
        if report.error is not None:
            kind = report.media_kind.value if report.media_kind else '-'
            lines.append(f"{report.path.ljust(width)}  {kind:5}  {'error':17}  {report.error}")
            continue
        verdict = report.verdict
        assert verdict is not None
        lines.append(
            f"{report.path.ljust(width)}  {report.media_kind.value if report.media_kind else '-':5}  "
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
    "sniff_media_kind", "scan_file", "report_to_dict",
    "render_json", "render_text", "render_report",
]
