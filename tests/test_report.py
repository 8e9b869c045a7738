import struct

import pytest

from mediafp.jpeg import NoFrameHeader, extract_image_attributes
from mediafp.report import JPEG_FIRST_READ, scan_file

from conftest import make_jpeg

# make_jpeg ends with SOF (13 bytes), SOS (10 bytes) and EOI (2 bytes).
_TAIL_LEN = 25


def _scan(tmp_path, kb, data):
    path = tmp_path / "photo.jpg"
    path.write_bytes(data)
    return scan_file(path, kb)


def test_frame_header_beyond_the_first_read(tmp_path, kb):
    data = make_jpeg(720, 960, total_size=200_000)
    report = _scan(tmp_path, kb, data)
    assert report.error is None
    assert report.attributes == extract_image_attributes(data)


# Past the first read, the padding crosses make_jpeg's 65535-byte comment
# chunk, so a short comment segment straddles the boundary instead.
@pytest.mark.parametrize("sof_start", range(JPEG_FIRST_READ - 13, JPEG_FIRST_READ + 8))
def test_frame_header_straddling_the_first_read(tmp_path, kb, sof_start):
    data = make_jpeg(1600, 1200, total_size=sof_start + _TAIL_LEN)
    assert data[sof_start:sof_start + 2] == b"\xff\xc0"
    report = _scan(tmp_path, kb, data)
    assert report.error is None
    assert report.attributes == extract_image_attributes(data)


def test_scan_before_frame_error_matches_whole_file_parse(tmp_path, kb):
    # SOS, then entropy data running past the first read into a segment
    # whose length overruns the file: only the whole file names that offset.
    sos = b"\xff\xda" + struct.pack(">HB", 8, 1) + bytes([1, 0x00, 0, 63, 0])
    data = b"\xff\xd8" + sos + b"\x5a" * (3 * JPEG_FIRST_READ) + b"\xff\xe0\xff\xff"
    with pytest.raises(NoFrameHeader) as whole:
        extract_image_attributes(data)
    assert f"at offset {len(data) - 2} breaks" in str(whole.value)
    report = _scan(tmp_path, kb, data)
    assert report.error == f"NoFrameHeader: {whole.value}"


def test_short_file_failure_is_final(tmp_path, kb):
    data = b"\xff\xd8" + b"\xff" * 1000
    with pytest.raises(NoFrameHeader) as whole:
        extract_image_attributes(data)
    assert _scan(tmp_path, kb, data).error == f"NoFrameHeader: {whole.value}"


def test_byte_size_is_the_file_size(tmp_path, kb):
    data = make_jpeg(720, 960) + b"\x00" * (2 * JPEG_FIRST_READ)
    report = _scan(tmp_path, kb, data)
    assert report.attributes.byte_size == len(data)
