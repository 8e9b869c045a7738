"""JPEG dimension extraction.

Scans the marker-segment stream up to the first start-of-frame header and
reads the stored dimensions from it (ITU T.81 layout: precision byte, then
16-bit lines and samples-per-line).  Marker segments are skipped by their
declared length; entropy-coded data after a start-of-scan is searched for the
next real marker.  Entropy data and fill-byte runs are crossed by compiled
regex searches, not by a Python step per byte; a marker with no fill byte
before it takes no search.  Nothing is decoded.

The stream may be a view of a file in place of a buffer; then only the
pages where the walk lands are read, so a skipped segment costs nothing
however long it is, and entropy data and fill runs past the bytes in hand
are read ``READ_WINDOW`` bytes at a time, each once, so no read grows with
them.
Either way the walk stops at ``HEAD_WINDOW``: the frame header of a real
photo sits near the start, and hostile entropy data may run on for
gigabytes.
"""

from __future__ import annotations

import re
import struct

from .attributes import ImageAttributes

SOI = b"\xff\xd8"

# SOF0..SOF15 minus DHT (C4), JPG (C8) and DAC (CC), which share the range.
_SOF_MARKERS = frozenset(range(0xC0, 0xD0)) - {0xC4, 0xC8, 0xCC}
_STANDALONE = frozenset({0x01}) | frozenset(range(0xD0, 0xD8))  # TEM, RST0-7
_EOI = 0xD9
_SOS = 0xDA
# Inside entropy-coded data a 0xFF, alone or ending a run of 0xFF fill bytes,
# is always followed by 0x00 stuffing, TEM or a restart marker.  A 0xFF
# followed by anything else is a real marker or starts a fill run, which
# _skip_entropy crosses to see what follows it.
_NEXT_MARKER = re.compile(rb"\xff[^\x00\x01\xd0-\xd7]")
# Empty where the first byte is not 0xFF, so a match always ends somewhere.
_FILL_RUN = re.compile(rb"\xff*")
# A view is read PAGE bytes at a time, each page from a segment header on.  A
# header with no fill run before it takes _HEADER bytes up to the end of a
# frame header's dimensions, so one page covers it.
PAGE = 4 * 1024
_HEADER = 9
# Entropy data and fill runs that reach past the bytes in hand are read
# READ_WINDOW bytes at a time.
READ_WINDOW = 64 * 1024
# No walk reads or searches past this offset, however far the stream runs.
HEAD_WINDOW = 16 * 1024 * 1024


class JpegError(Exception):
    """Base class for JPEG parse failures."""


class NotJpeg(JpegError):
    """Input does not start with the start-of-image marker."""


class NoFrameHeader(JpegError):
    """No start-of-frame segment found before the stream ends or breaks."""


def _skip_entropy(data, pos: int) -> int:
    """Offset of the next real marker, or of the fill run before it, at or
    after ``pos``; ``len(data)`` when there is none.

    A fill run that ends in stuffing, TEM or a restart marker is still entropy
    data (T.81 B.1.1.2), so the search resumes after it.  Each search starts
    past the previous run, which keeps the walk linear in the input.
    """
    while True:
        match = _NEXT_MARKER.search(data, pos)
        if match is None:
            return len(data)
        pos = _FILL_RUN.match(data, match.start()).end()
        if pos == len(data) or not (data[pos] == 0x00 or data[pos] in _STANDALONE):
            return match.start()


def _read_past_fill(data, pos: int, end: int):
    """Read on past a fill run that reaches ``pos``, a window at a time:
    ``(window, its offset, the offset where the run ends)``, the last
    ``end`` when the run reaches it.  The window holds the run's end."""
    while True:
        buf = data[pos:min(pos + READ_WINDOW, end)]
        run_end = _FILL_RUN.match(buf).end()
        if run_end < len(buf) or pos + len(buf) == end:
            return buf, pos, pos + run_end
        pos += len(buf)


def _skip_entropy_windows(data, buf, base: int, pos: int, end: int):
    """Where ``_skip_entropy(data[:end], pos)`` finds a marker, the last
    byte of the fill run there, or ``end`` when it finds none; searched from
    ``buf``, the bytes ``data[base:base + len(buf)]`` in hand, then a window
    at a time: ``(window, its offset, the offset found)``, the window
    holding it.

    A window's result stands when the window reaches ``end`` or holds the
    byte after the fill run found.  A fill run, or a lone 0xFF, that ends
    the window is crossed by ``_read_past_fill`` to the byte that decides
    it: stuffing, TEM or a restart marker resumes the search there; a marker
    code or the end returns the run's last byte, so the segment walk goes on
    at the code without crossing the run again.
    """
    while True:
        have = base + len(buf)
        found = base + _skip_entropy(buf, pos - base)
        if found < have:
            run_end = base + _FILL_RUN.match(buf, found - base).end()
            if run_end < have or have == end:
                return buf, base, run_end - 1
        elif have == end:
            return buf, base, end
        elif not (pos < have and buf[-1] == 0xFF):
            buf, base, pos = data[have:min(have + READ_WINDOW, end)], have, have
            continue
        after_buf, after_base, after = _read_past_fill(data, have, end)
        code = after_buf[after - after_base] if after < end else None
        if not (code == 0x00 or code in _STANDALONE):
            # A run that ended with the window before has its last byte alone.
            return (after_buf, after_base, after - 1) if after > after_base else (b"\xff", after - 1, after - 1)
        buf, base, pos = after_buf, after_base, after


def extract_image_attributes(data) -> ImageAttributes:
    """Read width, length and byte size from JPEG bytes.

    ``data`` is a bytes-like buffer, or a view that reads the slices asked of
    it, such as ``report._FileView``; either way the result is that of the
    bytes it stands for.  A view is read a page at a time from each segment
    header the walk lands on past the bytes in hand, so segments it skips
    are never read; a fill run that reaches past those bytes, and the
    entropy data after a start-of-scan, are read on ``READ_WINDOW`` bytes
    at a time up to where they end.

    The walk ends at ``HEAD_WINDOW`` bytes as it would at the end of the
    stream; the reported size is ``len(data)``.  Raises NotJpeg on bad magic
    and NoFrameHeader when no usable start-of-frame segment precedes the
    end of the window; a view's own read errors pass through.
    """
    size = len(data)
    end = min(size, HEAD_WINDOW)
    # buf holds data[base:have], the bytes in hand.
    buf = data[:end] if isinstance(data, (bytes, bytearray, memoryview)) else data[:min(PAGE, end)]
    base, have = 0, len(buf)
    if bytes(buf[:2]) != SOI:
        raise NotJpeg("missing start-of-image marker")

    pos = 2
    while pos < end:
        if pos + _HEADER > have < end:
            buf, base = data[pos:min(pos + PAGE, end)], pos
            have = pos + len(buf)
        if buf[pos - base] != 0xFF:
            raise NoFrameHeader(f"expected marker at offset {pos}")
        pos += 1
        if pos == have or buf[pos - base] == 0xFF:  # fill bytes before the code
            pos = base + _FILL_RUN.match(buf, pos - base).end()
            if pos == have < end:
                buf, base, pos = _read_past_fill(data, have, end)
                have = base + len(buf)
        if pos >= end:
            break
        marker = buf[pos - base]
        pos += 1
        if marker == 0x00 or marker in _STANDALONE:
            continue
        if marker == _EOI:
            break
        if pos + 2 > end:
            break
        if pos + 7 > have < end:  # the length, and a frame header's dimensions
            buf, base = data[pos:min(pos + max(PAGE, 7), end)], pos
            have = pos + len(buf)
        seg_len = struct.unpack_from(">H", buf, pos - base)[0]
        if seg_len < 2 or pos + seg_len > end:
            raise NoFrameHeader(f"segment length {seg_len} at offset {pos} breaks the stream")
        if marker in _SOF_MARKERS:
            if seg_len < 7:
                raise NoFrameHeader("start-of-frame segment too short")
            height, width = struct.unpack_from(">HH", buf, pos - base + 3)
            if width < 1 or height < 1:
                raise NoFrameHeader("start-of-frame declares zero dimensions")
            return ImageAttributes(width=width, length=height, byte_size=size)
        pos += seg_len
        if marker == _SOS:
            if pos > have:  # the scan header ran past the bytes in hand
                buf, base = b"", pos
            buf, base, pos = _skip_entropy_windows(data, buf, base, pos, end)
            have = base + len(buf)
    raise NoFrameHeader("no start-of-frame segment before end of stream")
