import dataclasses
import importlib.util
import os
import struct
from pathlib import Path

import pytest

from mediafp.kb import MediaKind, load_kb_path
from mediafp.oracle import InconsistentAttrs, generate_corpus, synthesize_container


@pytest.fixture(scope="session")
def kb():
    return load_kb_path()


def load_tracer():
    """The benchmark's ``perfbench/tracer.py``, loaded from its file, as the benchmark runs it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def brute_force_records(kb):
    """The records a match would check if the KB had no indexes, each tuple in
    KB file order: the image records, the single-hop video records and the
    relay video records whose constraints no single hop of the same app, OS
    and media kind repeats (those relays are overwritten), plus the ids of the
    overwritten relays."""
    overwritten = frozenset(
        rec.record_id for rec in kb.records
        if rec.nth_app and rec.distinguishable and any(
            not other.nth_app
            and other.app == rec.app
            and other.os is rec.os
            and other.media_kind is rec.media_kind
            and other.distinguishable
            and other.constraints == rec.constraints
            for other in kb.records
        )
    )
    usable = [rec for rec in kb.records if rec.distinguishable]
    return {
        "overwritten_chain_ids": overwritten,
        "image_records": tuple(r for r in usable if r.media_kind is MediaKind.IMAGE),
        "video_singles": tuple(r for r in usable if r.media_kind is MediaKind.VIDEO and not r.nth_app),
        "video_chains": tuple(
            r for r in usable
            if r.media_kind is MediaKind.VIDEO and r.nth_app and r.record_id not in overwritten
        ),
    }


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


# A file name suffix that scans back to each video extension value.
_SUFFIXES = {"mp4": "mp4", "MOV": "mov", "other": "3gp"}


def write_repeated_vectors(root, kb, copies=3):
    """Write each KB-generated video vector that a container can hold
    ``copies`` times under ``root``, each copy padded to its own byte size,
    and four 720x960 JPEGs, two sizes inside the ``100000 +- 10000`` band
    and two past its upper edge; return the paths, as strings, in sorted
    order.  A scan's verdict memo shares one verdict between the
    copies of a vector and between the JPEGs of one interval."""
    paths = []
    for entry in generate_corpus(kb):
        if entry.media_kind is not MediaKind.VIDEO:
            continue
        for copy in range(copies):
            attrs = dataclasses.replace(entry.attributes, byte_size=8192 + 512 * copy)
            try:
                data = synthesize_container(attrs)
            except InconsistentAttrs:
                break
            path = root / f"{entry.record_id}-{copy}.{_SUFFIXES[attrs.extension]}"
            path.write_bytes(data)
            paths.append(str(path))
    for name, size in (("photo-a.jpg", 100_000), ("photo-a2.jpg", 105_000),
                       ("photo-b.jpg", 120_000), ("photo-b2.jpg", 125_000)):
        (root / name).write_bytes(make_jpeg(720, 960, total_size=size))
        paths.append(str(root / name))
    return sorted(paths)
