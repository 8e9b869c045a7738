import pytest
from hypothesis import given, settings, strategies as st

from mediafp.jpeg import JpegError, NoFrameHeader, NotJpeg, _skip_entropy, extract_image_attributes

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


def test_byte_size_override_for_head_window():
    data = make_jpeg(720, 960)
    assert extract_image_attributes(data, byte_size=123_456).byte_size == 123_456


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
    # One byte at a time: stop at a 0xFF whose next byte is neither 0x00
    # stuffing, TEM (0x01) nor a restart marker (0xD0-0xD7).
    end = len(data)
    while pos < end - 1:
        if data[pos] == 0xFF and data[pos + 1] not in (0x00, 0x01, *range(0xD0, 0xD8)):
            return pos
        pos += 1
    return end


_ENTROPY_BYTES = st.one_of(
    st.sampled_from([0x00, 0x01, *range(0xD0, 0xD8), 0xD8, 0xD9, 0xDA, 0xFF, 0xFF, 0xFF]),
    st.integers(min_value=0, max_value=255),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_ENTROPY_BYTES, max_size=48).map(bytes))
def test_skip_entropy_matches_byte_walk(data):
    for pos in range(len(data) + 1):
        assert _skip_entropy(data, pos) == _reference_skip_entropy(data, pos), pos
