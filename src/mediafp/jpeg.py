"""JPEG dimension extraction.

Scans the marker-segment stream up to the first start-of-frame header and
reads the stored dimensions from it (ITU T.81 layout: precision byte, then
16-bit lines and samples-per-line).  Marker segments are skipped by their
declared length; entropy-coded data after a start-of-scan is searched for the
next real marker, and the walk goes on at that marker's code.  One function
crosses every run of 0xFF fill bytes, before a marker or inside entropy
data, and one searches entropy data; both step by compiled regex, not by a
Python step per byte, and a marker with no fill byte before it takes no
search.  Nothing is decoded.

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
# followed by anything else, or by nothing in the bytes searched, is a real
# marker or starts a fill run, which _skip_entropy crosses with _past_fill
# to see what follows it.
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


def _past_fill(data, buf, base: int, pos: int, end: int):
    """Cross the run of 0xFF fill bytes that starts at ``pos``, if any:
    ``(window, its offset, the offset after the run)``, the last ``end``
    when the run reaches it.  ``buf`` holds ``data[base:base + len(buf)]``,
    the bytes in hand; a run that reaches past them is read on a
    ``READ_WINDOW`` at a time, and the window given back holds the run's
    end."""
    while True:
        after = base + _FILL_RUN.match(buf, pos - base).end()
        if after < base + len(buf) or after == end:
            return buf, base, after
        buf, base, pos = data[after:min(after + READ_WINDOW, end)], after, after


def _skip_entropy(data, buf, base: int, pos: int, end: int):
    """Cross entropy-coded data from ``pos`` to the code of the next real
    marker: ``(window, its offset, the code's offset)``, the window holding
    the code, or ``end`` when no marker comes before it.

    The search runs over ``buf``, the bytes ``data[base:base + len(buf)]``
    in hand, then a ``READ_WINDOW`` at a time.  Each 0xFF that may start a
    marker, a 0xFF that ends the window among them, is crossed with the fill
    run after it by ``_past_fill``; stuffing, TEM or a restart marker after
    the run is still entropy data (T.81 B.1.1.2), so the search resumes
    there.  Each search starts past the previous run, which keeps the walk
    linear in the input.
    """
    while True:
        have = base + len(buf)
        match = _NEXT_MARKER.search(buf, pos - base)
        if match is not None:
            pos = base + match.start()
        elif pos < have and buf[-1] == 0xFF:
            pos = have - 1
        elif have == end:
            return buf, base, end
        else:
            buf, base, pos = data[have:min(have + READ_WINDOW, end)], have, have
            continue
        buf, base, pos = _past_fill(data, buf, base, pos, end)
        if pos == end or not (buf[pos - base] == 0x00 or buf[pos - base] in _STANDALONE):
            return buf, base, pos


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
            buf, base, pos = _past_fill(data, buf, base, pos, end)
            have = base + len(buf)
        # At a marker code: a segment, or a scan and the codes that end its
        # entropy data, until a standalone marker or a segment not a scan.
        while pos < end:
            marker = buf[pos - base]
            pos += 1
            if marker == 0x00 or marker in _STANDALONE:
                break
            if marker == _EOI or pos + 2 > end:
                raise NoFrameHeader("no start-of-frame segment before end of stream")
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
            if marker != _SOS:
                break
            if pos > have:  # the scan header ran past the bytes in hand
                buf, base = b"", pos
            buf, base, pos = _skip_entropy(data, buf, base, pos, end)
            have = base + len(buf)
    raise NoFrameHeader("no start-of-frame segment before end of stream")
