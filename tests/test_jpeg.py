import os
import struct
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mediafp import jpeg, report
from mediafp.attributes import ImageAttributes
from mediafp.jpeg import (
    _EOI,
    _FILL_RUN,
    _SOF_MARKERS,
    _SOS,
    _STANDALONE,
    SOI,
    JpegError,
    NoFrameHeader,
    NotJpeg,
    _skip_entropy,
    extract_image_attributes,
)

from conftest import make_jpeg


def test_camera_default_dimensions():
    attrs = extract_image_attributes(make_jpeg(4032, 3024))
    assert (attrs.width, attrs.length) == (4032, 3024)
    assert attrs.extension == "JPG"


def test_smallest_legal_frame():
    attrs = extract_image_attributes(make_jpeg(1, 1))
    assert (attrs.width, attrs.length) == (1, 1)


def test_png_magic_rejected():
    with pytest.raises(NotJpeg):
        extract_image_attributes(b"\x89PNG\r\n\x1a\n" + b"\x00" * 16)


def test_progressive_frame():
    attrs = extract_image_attributes(make_jpeg(1280, 960, progressive=True))
    assert (attrs.width, attrs.length) == (1280, 960)


def test_byte_size_is_input_length():
    data = make_jpeg(720, 960, total_size=100_000)
    assert extract_image_attributes(data).byte_size == 100_000


_BASE = len(make_jpeg(1, 1))


@pytest.mark.parametrize("pad", [4, 5, 65535, 65536, 65537, 65538, 65539,
                                 2 * 65535 + 1, 2 * 65535 + 3, 2 * 65535 + 4])
def test_make_jpeg_pads_to_every_size(pad):
    data = make_jpeg(1, 1, total_size=_BASE + pad)
    assert len(data) == _BASE + pad
    assert extract_image_attributes(data).byte_size == _BASE + pad


@pytest.mark.parametrize("pad", [1, 2, 3])
def test_make_jpeg_rejects_a_pad_no_segment_fills(pad):
    with pytest.raises(ValueError):
        make_jpeg(1, 1, total_size=_BASE + pad)


def test_no_frame_header():
    with pytest.raises(NoFrameHeader):
        extract_image_attributes(b"\xff\xd8\xff\xd9")


def test_truncated_segment():
    data = make_jpeg(640, 480)
    with pytest.raises(NoFrameHeader):
        extract_image_attributes(data[:8])


@given(st.integers(min_value=0, max_value=8))
def test_padding_segments_do_not_change_result(n):
    plain = extract_image_attributes(make_jpeg(1600, 1200))
    padded = extract_image_attributes(make_jpeg(1600, 1200, leading_segments=n))
    assert (padded.width, padded.length) == (plain.width, plain.length)


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=0, max_size=256))
def test_fuzz_only_declared_errors(data):
    try:
        extract_image_attributes(data)
    except JpegError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=200), st.integers(min_value=0, max_value=255))
def test_fuzz_mutated_jpeg(offset, value):
    data = bytearray(make_jpeg(640, 480, leading_segments=2))
    data[offset % len(data)] = value
    try:
        extract_image_attributes(bytes(data))
    except JpegError:
        pass


def test_fill_bytes_before_a_marker_are_skipped():
    data = make_jpeg(640, 480)
    padded = data[:2] + b"\xff" * 1000 + data[2:]
    attrs = extract_image_attributes(padded)
    assert (attrs.width, attrs.length) == (640, 480)


def test_fill_bytes_to_end_of_stream():
    with pytest.raises(NoFrameHeader, match="no start-of-frame"):
        extract_image_attributes(b"\xff\xd8" + b"\xff" * 5000)


def _reference_skip_entropy(data, pos):
    # One byte at a time: stop at a 0xFF, short of the last byte, unless the
    # first byte after its run of 0xFF fill bytes is 0x00 stuffing, TEM (0x01)
    # or a restart marker (0xD0-0xD7).
    for i in range(pos, len(data) - 1):
        if data[i] == 0xFF:
            after = next((b for b in data[i + 1:] if b != 0xFF), None)
            if after not in (0x00, 0x01, *range(0xD0, 0xD8)):
                return i
    return len(data)


_ENTROPY_BYTES = st.one_of(
    st.sampled_from([0x00, 0x01, *range(0xD0, 0xD8), 0xD8, 0xD9, 0xDA, 0xFF, 0xFF, 0xFF]),
    st.integers(min_value=0, max_value=255),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_ENTROPY_BYTES, max_size=48).map(bytes))
def test_skip_entropy_matches_byte_walk(data):
    # With all the bytes in hand, the offset found is the code after the fill
    # run where the byte walk stops, or the end when it does not.
    for pos in range(len(data) + 1):
        stop = _reference_skip_entropy(data, pos)
        code = stop if stop == len(data) else _FILL_RUN.match(data, stop).end()
        buf, at, found = _skip_entropy(data, data, 0, pos, len(data))
        assert found == code, pos
        assert (buf, at) == (data, 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ENTROPY_BYTES, max_size=48).map(bytes), st.integers(min_value=1, max_value=6), st.data())
def test_skip_entropy_in_windows_matches_the_whole_search(data, read_window, draw):
    # The bytes in hand run from `base` to `have`; the rest is read in
    # windows of `read_window` bytes, so stuffing, restart markers and fill
    # runs straddle every edge.  The offset found is that of one search over
    # all the bytes, and the window given back holds it, but for the end.
    pos = draw.draw(st.integers(min_value=0, max_value=len(data)), label="pos")
    base = draw.draw(st.integers(min_value=0, max_value=pos), label="base")
    have = draw.draw(st.integers(min_value=pos, max_value=len(data)), label="have")
    with mock.patch.object(jpeg, "READ_WINDOW", read_window):
        buf, at, found = _skip_entropy(data, data[base:have], base, pos, len(data))
    assert found == _skip_entropy(data, data, 0, pos, len(data))[2]
    assert buf == data[at:at + len(buf)]
    assert at <= found < at + len(buf) or found == len(data)


# Segment streams: APPn, DQT, DHT and COM segments and scans (SOS plus entropy
# data) before a start-of-frame segment, each marker behind a run of fill bytes.
_SKIPPED_MARKERS = [*range(0xE0, 0xF0), 0xDB, 0xC4, 0xFE]
_FILL = st.integers(min_value=0, max_value=3).map(lambda n: b"\xff" * n)
# Entropy-coded data: any byte but 0xFF, stuffed 0xFF00 and restart markers,
# the last two sometimes behind a run of fill bytes.
_ENTROPY = st.lists(st.one_of(
    st.integers(min_value=0, max_value=0xFE).map(lambda b: bytes([b])),
    st.tuples(_FILL, st.sampled_from([bytes([0xFF, code]) for code in (0x00, *range(0xD0, 0xD8))])).map(b"".join),
), max_size=12).map(b"".join)


def _segment(marker, payload, declared=None):
    length = len(payload) + 2 if declared is None else declared
    return bytes([0xFF, marker]) + struct.pack(">H", length) + payload


def _frame_header(marker, width, height, components):
    return _segment(marker, struct.pack(">BHHB", 8, height, width, components) + bytes(3 * components))


@st.composite
def _well_formed_streams(draw):
    """A stream, the offset where its frame header ends, and its dimensions."""
    out = bytearray(b"\xff\xd8")
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        out += draw(_FILL)
        if draw(st.booleans()):
            out += _segment(0xDA, draw(st.binary(max_size=10))) + draw(_ENTROPY)
        else:
            out += _segment(draw(st.sampled_from(_SKIPPED_MARKERS)), draw(st.binary(max_size=24)))
    width, height = draw(st.integers(min_value=1, max_value=0xFFFF)), draw(st.integers(min_value=1, max_value=0xFFFF))
    out += draw(_FILL) + _frame_header(draw(st.sampled_from(sorted(_SOF_MARKERS))), width, height,
                                       draw(st.integers(min_value=1, max_value=3)))
    frame_end = len(out)
    if draw(st.booleans()):
        out += _segment(0xDA, draw(st.binary(max_size=10))) + draw(_ENTROPY) + b"\xff\xd9"
    return bytes(out), frame_end, (width, height)


@st.composite
def _segment_streams(draw):
    """Segments of any declared length, stray bytes between them, and entropy
    data with any bytes; often a well-formed stream with a few bytes changed."""
    if draw(st.booleans()):
        out = bytearray(draw(_well_formed_streams())[0])
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            out[draw(st.integers(min_value=0, max_value=len(out) - 1))] = draw(st.integers(0, 255))
        return bytes(out)
    out = bytearray(draw(st.sampled_from([b"\xff\xd8", b"\xff\xd8", b"\xff\xd9", b""])))
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        out += draw(_FILL)
        kind = draw(st.sampled_from(("segment", "frame", "scan", "standalone", "stray")))
        if kind == "stray":
            out += draw(st.binary(min_size=1, max_size=4))
            continue
        if kind == "standalone":
            out += bytes([0xFF, draw(st.sampled_from([0x00, 0x01, 0xD0, 0xD7, 0xD8, 0xD9]))])
            continue
        marker = {"segment": st.sampled_from(_SKIPPED_MARKERS), "frame": st.sampled_from(sorted(_SOF_MARKERS)),
                  "scan": st.just(0xDA)}[kind]
        payload = draw(st.binary(max_size=16))
        declared = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=0xFFFF)))
        out += _segment(draw(marker), payload, declared)
        if kind == "scan":
            out += draw(st.one_of(_ENTROPY, st.binary(max_size=12)))
    return bytes(out)


def _outcome(parse, *args):
    try:
        return parse(*args)
    except JpegError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_well_formed_streams())
def test_well_formed_stream_yields_its_frame_dimensions_at_every_cut(stream):
    data, frame_end, dims = stream
    for cut in range(len(data) + 1):
        if cut >= frame_end:
            attrs = extract_image_attributes(data[:cut])
            assert ((attrs.width, attrs.length), attrs.byte_size) == (dims, cut)
        else:
            with pytest.raises(NotJpeg if cut < 2 else NoFrameHeader):
                extract_image_attributes(data[:cut])


def _reference_extract(data, byte_size=None):
    """The parser over a buffer in hand, written from the rule with
    ``_reference_skip_entropy``: the reference a walk over a view or over
    bytes must equal, errors included."""
    if bytes(data[:2]) != SOI:
        raise NotJpeg("missing start-of-image marker")
    size = len(data) if byte_size is None else byte_size

    pos, end = 2, len(data)
    while pos < end:
        if data[pos] != 0xFF:
            raise NoFrameHeader(f"expected marker at offset {pos}")
        pos = _FILL_RUN.match(data, pos).end()
        if pos >= end:
            break
        marker = data[pos]
        pos += 1
        if marker == 0x00 or marker in _STANDALONE:
            continue
        if marker == _EOI:
            break
        if pos + 2 > end:
            break
        seg_len = struct.unpack_from(">H", data, pos)[0]
        if seg_len < 2 or pos + seg_len > end:
            raise NoFrameHeader(f"segment length {seg_len} at offset {pos} breaks the stream")
        if marker in _SOF_MARKERS:
            if seg_len < 7:
                raise NoFrameHeader("start-of-frame segment too short")
            height, width = struct.unpack_from(">HH", data, pos + 3)
            if width < 1 or height < 1:
                raise NoFrameHeader("start-of-frame declares zero dimensions")
            return ImageAttributes(width=width, length=height, byte_size=size)
        pos += seg_len
        if marker == _SOS:
            pos = _reference_skip_entropy(data, pos)
    raise NoFrameHeader("no start-of-frame segment before end of stream")


@settings(max_examples=300, deadline=None)
@given(_segment_streams(), st.data())
def test_any_segment_stream_raises_only_jpeg_errors_and_a_view_equals_the_reference(data, draw):
    # Over bytes, at every cut; over a file view, at every first-read
    # length, with a drawn page size, read window and HEAD_WINDOW.
    for cut in range(len(data) + 1):
        assert _outcome(extract_image_attributes, data[:cut]) == _outcome(_reference_extract, data[:cut]), cut
    # Pages shorter than a frame header are drawn as often as longer ones.
    page = draw.draw(st.integers(min_value=4, max_value=12) | st.integers(min_value=13, max_value=64), label="page")
    read_window = draw.draw(st.integers(min_value=4, max_value=64), label="read_window")
    window = draw.draw(st.just(len(data)) | st.integers(min_value=0, max_value=len(data)), label="window")
    _assert_views_equal_the_reference(data, [(page, read_window)], window)


def _assert_views_equal_the_reference(data, sizes, window=None):
    """With ``jpeg.HEAD_WINDOW`` at ``window``, the bytes of ``data`` and a
    view of a file of them, at every first-read length and each pair of
    ``jpeg.PAGE`` and ``jpeg.READ_WINDOW`` in ``sizes``, parse as the bytes
    up to the window do, with the whole size reported."""
    window = len(data) if window is None else window
    expected = _outcome(_reference_extract, data[:window], len(data))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "photo.jpg")
        with open(path, "wb") as out:
            out.write(data)
        fd = os.open(path, os.O_RDONLY)
        try:
            with mock.patch.object(jpeg, "HEAD_WINDOW", window):
                assert _outcome(extract_image_attributes, data) == expected
                for page, read_window in sizes:
                    with mock.patch.object(jpeg, "PAGE", page), mock.patch.object(jpeg, "READ_WINDOW", read_window):
                        for first in range(len(data) + 1):
                            view = report._FileView(fd, data[:first], len(data))
                            assert _outcome(extract_image_attributes, view) == expected, (page, read_window, first)
        finally:
            os.close(fd)


_SCAN = _segment(0xDA, bytes([1, 1, 0x00, 0, 63, 0]))


@pytest.mark.parametrize("data", [
    # A fill run longer than any page, then a frame header behind fill bytes.
    b"\xff\xd8" + _segment(0xE0, bytes(10)) + b"\xff" * 100 + b"\xff\xff\xff" + _frame_header(0xC0, 640, 480, 1),
    # Fill bytes that run to the end of the stream.
    b"\xff\xd8" + _segment(0xFE, bytes(40)) + b"\xff" * 70,
    # A scan, its entropy data with stuffing and restarts, then the frame.
    b"\xff\xd8" + _SCAN + b"\x12\xff\x00\x34\xff\xff\xd3" * 12 + b"\xff\xff" + _frame_header(0xC2, 1, 2, 3),
    # A segment whose length runs past the end of the stream.
    b"\xff\xd8" + _segment(0xE1, bytes(30)) + _segment(0xDB, bytes(8), declared=200),
], ids=["long-fill-run", "fill-to-end", "scan-first", "overlong-segment"])
def test_a_view_at_every_page_size_equals_the_reference(data):
    # Every page size from 4 to 64 bytes, each with a read window from 64
    # down to 4 bytes, so that entropy data and fill runs cross window edges.
    _assert_views_equal_the_reference(data, zip(range(4, 65), range(64, 3, -1)))


# The APP0 payload puts the frame marker's 0xFF, after 0, 1 or 2 fill bytes,
# on the last byte of a 16-byte page read from the APP0 header, and on the
# last byte of the head at one of the first-read lengths.
@pytest.mark.parametrize("fill", [0, 1, 2])
def test_a_marker_whose_0xff_ends_a_page_equals_the_reference(fill):
    data = b"\xff\xd8" + _segment(0xE0, bytes(11 - fill)) + b"\xff" * fill + _frame_header(0xC0, 640, 480, 1)
    assert data[2 + 16 - 1:2 + 16 + 1] == b"\xff\xc0"
    _assert_views_equal_the_reference(data, [(page, 64) for page in (14, 15, 16, 17, 18)])


@pytest.mark.parametrize("entropy", [b"\x12\xff\xd0\x34", b"\x12\xff\xff\xd0\x34", b"\x12\xff\xff\x00\x34",
                                     b"\x12\xff\xff\xff\x01\x34"])
def test_fill_bytes_inside_entropy_data_stay_in_the_scan(entropy):
    # T.81 B.1.1.2 allows fill bytes before any marker, restart markers too.
    scan = _segment(0xDA, bytes([1, 1, 0x00, 0, 63, 0])) + entropy
    attrs = extract_image_attributes(b"\xff\xd8" + scan + _frame_header(0xC0, 640, 480, 1))
    assert (attrs.width, attrs.length) == (640, 480)


def _count_preads(monkeypatch):
    """The byte count each positioned read by scan_file asks for, in order."""
    reads = []
    real = os.pread

    def counted(fd, count, offset):
        reads.append(count)
        return real(fd, count, offset)

    monkeypatch.setattr(report.os, "pread", counted)
    return reads


def _assert_read_once_a_window_at_a_time(path, kb, monkeypatch):
    """A JPEG of 16 MiB or more with no frame header is read to the end of
    HEAD_WINDOW once, a page and then READ_WINDOW bytes at a time."""
    reads = _count_preads(monkeypatch)
    result = report.scan_file(path, kb)
    assert result.error == "NoFrameHeader: no start-of-frame segment before end of stream"
    assert max(reads) <= jpeg.READ_WINDOW
    assert (len(reads), sum(reads)) == (257, 16_777_216)


# An APP1 segment of 48 KiB, and one that ends a byte before the first page
# does, so that the next segment header straddles the page's end.
@pytest.mark.parametrize("app1_payload", [48 * 1024, 4096 - 1 - 6])
def test_segments_the_walk_skips_are_never_read(tmp_path, kb, monkeypatch, app1_payload):
    # The APP1 segment sits between the start of the file and the frame
    # header: the walk reads the first page, then one page at the frame.
    app1 = _segment(0xE1, bytes(app1_payload))
    photo = b"\xff\xd8" + app1 + make_jpeg(720, 960)[2:]
    data = photo + bytes(200_000 - len(photo))
    path = tmp_path / "photo.jpg"
    path.write_bytes(data)
    reads = _count_preads(monkeypatch)
    result = report.scan_file(path, kb)
    assert result.attributes == _reference_extract(data) == ImageAttributes(720, 960, 200_000)
    assert 0 < sum(reads) <= 2 * 4096 and len(reads) == 2


def test_no_read_of_a_scan_before_frame_asks_for_more_than_the_read_window(tmp_path, kb, monkeypatch):
    # A scan header, then entropy data (a hole of zero bytes) to 16 MiB:
    # the walk reads it to the end of HEAD_WINDOW, a window at a time.
    path = tmp_path / "photo.jpg"
    with open(path, "wb") as out:
        out.write(b"\xff\xd8" + _SCAN)
        out.truncate(jpeg.HEAD_WINDOW)
    _assert_read_once_a_window_at_a_time(path, kb, monkeypatch)


def test_a_fill_run_after_a_scan_is_read_once(tmp_path, kb, monkeypatch):
    # A scan header, then fill bytes to 16 MiB: the entropy search crosses
    # the run a window at a time, and the segment walk goes on at its end
    # without reading it again.
    path = tmp_path / "photo.jpg"
    path.write_bytes(b"\xff\xd8" + _SCAN + b"\xff" * jpeg.HEAD_WINDOW)
    _assert_read_once_a_window_at_a_time(path, kb, monkeypatch)


@pytest.mark.parametrize("data", [
    # Fill bytes from the first segment header to 16 MiB.
    b"\xff\xd8" + b"\xff" * jpeg.HEAD_WINDOW,
    # Scan data with a stuffed 0xFF in every three bytes, cut at 16 MiB.
    (b"\xff\xd8" + _SCAN + b"\x12\xff\x00" * (jpeg.HEAD_WINDOW // 3))[:jpeg.HEAD_WINDOW],
], ids=["fill-run", "stuffed-scan"])
def test_a_16_mib_run_with_no_frame_header_is_read_once(tmp_path, kb, monkeypatch, data):
    path = tmp_path / "photo.jpg"
    path.write_bytes(data)
    _assert_read_once_a_window_at_a_time(path, kb, monkeypatch)


def test_a_fill_run_that_ends_a_read_in_scan_data_is_not_read_again(tmp_path, kb, monkeypatch):
    # The fill run ends with the first page; the window read after it to
    # find its marker code holds the frame header as well.
    photo = b"\xff\xd8" + _SCAN + bytes(jpeg.PAGE - 3 - 2 - len(_SCAN)) + b"\xff" * 3
    photo += _frame_header(0xC0, 640, 480, 1)[1:]
    data = photo + bytes(200_000 - len(photo))
    path = tmp_path / "photo.jpg"
    path.write_bytes(data)
    reads = _count_preads(monkeypatch)
    result = report.scan_file(path, kb)
    assert result.attributes == _reference_extract(data) == ImageAttributes(640, 480, 200_000)
    assert reads == [jpeg.PAGE, jpeg.READ_WINDOW]


def test_scan_before_frame_is_parsed_once(tmp_path, kb, monkeypatch):
    # Entropy data runs from a scan past the head to the frame header.
    sos = _segment(0xDA, bytes([1, 1, 0x00, 0, 63, 0]))
    data = b"\xff\xd8" + sos + b"\x5a" * (3 * report.HEAD_READ) + _frame_header(0xC0, 640, 480, 1)
    path = tmp_path / "photo.jpg"
    path.write_bytes(data)
    calls = []
    parse = jpeg.extract_image_attributes
    monkeypatch.setattr(jpeg, "extract_image_attributes", lambda *args, **kw: calls.append(args) or parse(*args, **kw))
    result = report.scan_file(path, kb)
    assert result.attributes == _reference_extract(data) == ImageAttributes(640, 480, len(data))
    assert len(calls) == 1


# The frame header's segment starts 10 bytes before the window's end, 2
# bytes before it (its length lies past it) and at it.
@pytest.mark.parametrize("sof_start", [jpeg.HEAD_WINDOW - 10, jpeg.HEAD_WINDOW - 2, jpeg.HEAD_WINDOW])
def test_a_frame_header_past_the_window_is_missed_by_bytes_and_by_a_scan(tmp_path, kb, sof_start):
    # make_jpeg pads before the frame header, which is followed by 12 bytes
    # of scan header and end marker.
    data = make_jpeg(640, 480, total_size=sof_start + 25)
    assert data[sof_start:sof_start + 2] == b"\xff\xc0"
    with pytest.raises(NoFrameHeader) as parsed:
        extract_image_attributes(data)
    path = tmp_path / "photo.jpg"
    path.write_bytes(data)
    assert report.scan_file(path, kb).error == f"NoFrameHeader: {parsed.value}"


def test_a_file_past_the_window_with_its_frame_header_first_reports_its_size(tmp_path, kb):
    path = tmp_path / "photo.jpg"
    with open(path, "wb") as out:
        out.write(make_jpeg(720, 960))
        out.truncate(2 * jpeg.HEAD_WINDOW + 1)  # a hole, not written bytes
    result = report.scan_file(path, kb)
    assert result.attributes == ImageAttributes(720, 960, path.stat().st_size)
