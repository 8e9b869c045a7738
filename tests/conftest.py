import os
import struct

import pytest

from mediafp.kb import load_kb_path


@pytest.fixture(scope="session")
def kb():
    return load_kb_path()


def make_jpeg(width, length, total_size=None, progressive=False, leading_segments=0):
    """Minimal JPEG stream: SOI, optional padding segments, SOF, SOS, EOI.

    With total_size set, comment segments pad the stream to that exact byte
    count (before the frame header, to prove segment skipping works).  A
    comment segment takes 4 to 65537 bytes, so a pad of 1 to 3 bytes cannot
    be filled and raises ValueError.
    """
    sof_marker = 0xC2 if progressive else 0xC0
    sof = bytes([0xFF, sof_marker]) + struct.pack(">HBHHB", 11, 8, length, width, 1) + bytes([1, 0x11, 0])
    sos = bytes([0xFF, 0xDA]) + struct.pack(">HB", 8, 1) + bytes([1, 0x00, 0, 63, 0])
    tail = sof + sos + bytes([0xFF, 0xD9])

    segments = b""
    for _ in range(leading_segments):
        segments += bytes([0xFF, 0xFE]) + struct.pack(">H", 6) + b"padd"

    base = 2 + len(segments) + len(tail)
    if total_size is not None:
        pad = total_size - base
        if pad < 0:
            raise ValueError(f"total_size {total_size} below minimum {base}")
        if 0 < pad < 4:  # a comment segment needs marker + length
            raise ValueError(f"total_size {total_size} leaves {pad} bytes, too few for a segment")
        while pad > 0:
            chunk = min(pad, 65535)
            if 0 < pad - chunk < 4:
                chunk = pad - 4  # leave room for one more whole segment
            payload = chunk - 4
            segments += bytes([0xFF, 0xFE]) + struct.pack(">H", payload + 2) + b"\x00" * payload
            pad -= chunk
    data = b"\xff\xd8" + segments + tail
    if total_size is not None:
        assert len(data) == total_size, (len(data), total_size)
    return data


def write_sparse_video(path, movie, mdat_size, moov_last):
    """Write `movie` (ftyp first, as synthesize_container makes it) to `path`
    with an `mdat_size`-byte mdat after the ftyp box or at the end.  The mdat
    payload is seeked over, so the file holds a hole where its bytes would
    be and costs little disk."""
    ftyp_end = struct.unpack_from(">I", movie)[0]
    rest = movie[ftyp_end:]
    with open(path, "wb") as handle:
        handle.write(movie[:ftyp_end] + (b"" if moov_last else rest))
        handle.write(struct.pack(">I", 8 + mdat_size) + b"mdat")
        handle.seek(mdat_size, os.SEEK_CUR)
        handle.write(rest if moov_last else b"")
        handle.truncate()
