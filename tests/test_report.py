import dataclasses
import io
import json
import os
import struct

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mediafp import container, report
from mediafp.attributes import (
    EXTENSIONS, OS, FormatProfile, ImageAttributes, Marker, MediaKind, VideoAttributes,
)
from mediafp.container import ParseError, extract_video_attributes
from mediafp.engine import Candidate, ChainHypothesis, Outcome, Verdict
from mediafp.jpeg import NoFrameHeader, extract_image_attributes
from mediafp.oracle import expected_attributes, synthesize_container
from mediafp.report import HEAD_READ, FileReport, render_json, scan_file

from conftest import make_jpeg, write_sparse_video
from test_container import _hostile_buffers

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
@pytest.mark.parametrize("sof_start", range(HEAD_READ - 13, HEAD_READ + 8))
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
    data = b"\xff\xd8" + sos + b"\x5a" * (3 * HEAD_READ) + b"\xff\xe0\xff\xff"
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
    data = make_jpeg(720, 960) + b"\x00" * (2 * HEAD_READ)
    report = _scan(tmp_path, kb, data)
    assert report.attributes.byte_size == len(data)


class _Handle(io.FileIO):
    """An unbuffered file that adds the bytes each read returns to `read_total`.

    With `short` set, a read returns at most half of what it asks for and
    never more than 1000 bytes, so every reader must read on.
    """

    short = False
    read_total = 0

    def _allowed(self, size):
        if not self.short:
            return size
        return 1000 if size < 0 else min(max(1, size // 2), 1000)

    def read(self, size=-1):
        data = super().read(self._allowed(size))
        type(self).read_total += len(data)
        return data

    def readinto(self, buffer):
        with memoryview(buffer) as view:
            count = super().readinto(view[:self._allowed(len(view))])
        type(self).read_total += count or 0
        return count


@pytest.fixture(params=[False, True], ids=["whole-reads", "short-reads"])
def short_reads(request, monkeypatch):
    """The handle type scan_file opens files with: whole or short reads."""
    handle = type("Handle", (_Handle,), {"short": request.param})
    monkeypatch.setattr(report, "open", lambda path, mode, buffering: handle(path, mode), raising=False)
    return handle


def _scan_video(tmp_path, kb, data, name="clip.mov"):
    path = tmp_path / name
    path.write_bytes(data)
    result = scan_file(path, kb)
    assert result.error is None, result.error
    assert result.attributes == extract_video_attributes(data, name_hint=name)
    assert result.attributes.byte_size == len(data) == path.stat().st_size
    return result


def _discord(kb, byte_size):
    attrs = expected_attributes(kb.record("t7-discord-default"))
    return synthesize_container(dataclasses.replace(attrs, byte_size=byte_size))


@pytest.mark.parametrize("size", [4096, HEAD_READ - 1, HEAD_READ, HEAD_READ + 1, 3 * HEAD_READ + 5])
def test_video_read_around_the_head(tmp_path, kb, short_reads, size):
    data = _discord(kb, size)
    assert len(data) == size
    assert _scan_video(tmp_path, kb, data).verdict.outcome.value == "Identified"


def test_moov_after_a_large_mdat(tmp_path, kb, short_reads):
    data = _discord(kb, 0)
    ftyp_end = struct.unpack_from(">I", data)[0]
    mdat = struct.pack(">I", 8 + 5 * HEAD_READ) + b"mdat" + b"\x5a" * (5 * HEAD_READ)
    moved = data[:ftyp_end] + mdat + data[ftyp_end:]
    result = _scan_video(tmp_path, kb, moved)
    assert (result.attributes.width, result.attributes.length) == (960, 540)


@pytest.mark.parametrize("data,kind,error", [
    (b"", "video", "MalformedBox: input shorter than one box header"),
    (b"\xff", "video", "MalformedBox: input shorter than one box header"),
    (b"abc", "video", "MalformedBox: input shorter than one box header"),
    (b"\xff\xd8", "image", "NoFrameHeader: no start-of-frame segment before end of stream"),
    (b"\xff\xd8\xff", "image", "NoFrameHeader: no start-of-frame segment before end of stream"),
])
def test_tiny_files_keep_their_errors(tmp_path, kb, short_reads, data, kind, error):
    path = tmp_path / "tiny"
    path.write_bytes(data)
    result = scan_file(path, kb)
    assert (result.media_kind.value, result.error) == (kind, error)


def test_jpeg_frame_header_beyond_the_head_across_reads(tmp_path, kb, short_reads):
    data = make_jpeg(720, 960, total_size=3 * HEAD_READ)
    result = _scan(tmp_path, kb, data)
    assert result.attributes == extract_image_attributes(data)


def _grow_fstat_size(monkeypatch, extra):
    real_fstat = report.os.fstat
    monkeypatch.setattr(report.os, "fstat",
                        lambda fd: type("Stat", (), {"st_size": real_fstat(fd).st_size + extra})())


def test_file_shorter_than_its_fstat_size(tmp_path, kb, monkeypatch):
    # A video larger than the head that ends before its fstat size fails
    # where the walk reads past its end.
    path = tmp_path / "clip.mov"
    path.write_bytes(_discord(kb, 2 * HEAD_READ))
    _grow_fstat_size(monkeypatch, 100)
    assert scan_file(path, kb).error == (
        f"TruncatedFile: file ends before offset {2 * HEAD_READ + 8}, short of its size {2 * HEAD_READ + 100}")


def test_file_ending_inside_the_head_is_parsed_as_read(tmp_path, kb, monkeypatch):
    # fstat reports more than the head holds, but the head read met the end
    # of the file: the head is the whole file.
    _grow_fstat_size(monkeypatch, HEAD_READ)
    _scan_video(tmp_path, kb, _discord(kb, 4096))


@pytest.mark.parametrize("moov_last", [False, True], ids=["moov-first", "moov-last"])
@pytest.mark.parametrize("mib", [1, 4, 15, 32])
def test_sparse_mdat_is_never_read(tmp_path, kb, short_reads, mib, moov_last):
    # Read cost follows the boxes: the head, then only the headers and leaf
    # payloads the walk asks for past it, whatever the size of the mdat.
    path = tmp_path / "clip.mov"
    write_sparse_video(path, _discord(kb, 0), mib << 20, moov_last)
    result = scan_file(path, kb)
    assert short_reads.read_total < 2 * HEAD_READ
    assert result.error is None, result.error
    assert result.attributes == extract_video_attributes(path.read_bytes(), name_hint=path.name)
    assert result.attributes.byte_size == path.stat().st_size > mib << 20


def test_ftyp_declaring_16_mib_is_refused_unread(tmp_path, kb, short_reads):
    # The ftyp payload is a hole the file view would read whole; a brand
    # list that long is refused as the file's own error instead.
    movie = _discord(kb, 0)
    ftyp_end = struct.unpack_from(">I", movie)[0]
    path = tmp_path / "clip.mov"
    with open(path, "wb") as handle:
        handle.write(struct.pack(">I", 8 + (16 << 20)) + b"ftypqt  " + bytes(4))
        handle.seek(8 + (16 << 20))
        handle.write(movie[ftyp_end:])
    result = scan_file(path, kb)
    assert result.error == f"MalformedBox: ftyp payload of {16 << 20} bytes exceeds 4096"
    assert short_reads.read_total < 2 * HEAD_READ


def test_boxes_straddling_the_end_of_the_head(tmp_path, kb, short_reads):
    # The moov slides across the end of the head, so that each of its box
    # headers and leaf payloads in turn starts inside the head and ends past it.
    movie = _discord(kb, 0)
    ftyp_end = struct.unpack_from(">I", movie)[0]
    moov = movie[ftyp_end:]
    path = tmp_path / "clip.mov"
    for moov_start in range(HEAD_READ - len(moov), HEAD_READ + 1):
        mdat = struct.pack(">I", moov_start - ftyp_end) + b"mdat" + bytes(moov_start - ftyp_end - 8)
        data = movie[:ftyp_end] + mdat + moov
        path.write_bytes(data)
        result = scan_file(path, kb)
        assert result.error is None, (moov_start, result.error)
        assert result.attributes == extract_video_attributes(data, name_hint=path.name)


_MDAT_PAST_THE_HEAD = struct.pack(">I", 8 + HEAD_READ) + b"mdat" + bytes(HEAD_READ)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_hostile_buffers, st.booleans())
def test_hostile_trees_past_the_head_scan_as_whole_buffers(tmp_path, kb, tree, tree_first):
    # A tree behind an mdat lies past the head; one before it makes the file
    # larger than the head.  Either way the scan through the file view gives
    # what the whole buffer gives: the attributes, or the same error string.
    data = tree + _MDAT_PAST_THE_HEAD if tree_first else _MDAT_PAST_THE_HEAD + tree
    path = tmp_path / "g.mp4"
    path.write_bytes(data)
    result = scan_file(path, kb)
    try:
        expected = extract_video_attributes(data, name_hint="g.mp4")
    except ParseError as exc:
        assert (result.attributes, result.error) == (None, f"{type(exc).__name__}: {exc}")
    else:
        assert (result.attributes, result.error) == (expected, None)


class TestTracedNames:
    """``perfbench/tracer.py`` times the container layer by rebinding
    ``mediafp.container.extract_video_attributes``; a scan that bound it
    locally would leave every ``container.*`` metric at 0."""

    @pytest.mark.parametrize("size", [4096, 3 * HEAD_READ])
    def test_scan_file_reaches_extract_video_attributes(self, tmp_path, kb, monkeypatch, size):
        calls = []
        original = container.extract_video_attributes

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(container, "extract_video_attributes", counted)
        assert _scan_video(tmp_path, kb, _discord(kb, size)).verdict.outcome.value == "Identified"
        assert len(calls) == 1


# Frozen reference for the JSON report: the dict form the report had when it
# was rendered by json.dumps(doc, indent=2).  The writer must give its bytes.

def _reference_attributes(attrs):
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


def _reference_report(report):
    verdict = report.verdict
    return {
        "path": report.path,
        "kind": report.media_kind.value if report.media_kind else None,
        "attributes": _reference_attributes(report.attributes) if report.attributes else None,
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


def reference_doc(reports, timestamp=None):
    doc = {"schema_version": 1}
    if timestamp is not None:
        doc["generated_at"] = timestamp
    doc["reports"] = [_reference_report(r) for r in reports]
    return doc


# Strings with everything JSON must escape: quotes, backslashes, control
# characters, non-ASCII and non-BMP characters, and lone surrogates.
_texts = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80\u2028\ufeff'),
        st.characters(min_codepoint=0x10000),
        st.integers(0xD800, 0xDFFF).map(chr),
    ),
    max_size=12,
)
# A non-UTF-8 file name decodes to lone surrogates.
_paths = st.one_of(_texts, st.binary(max_size=12).map(os.fsdecode))
_sizes = st.integers(1, 2**40)

_video_attributes = st.builds(
    VideoAttributes,
    extension=st.sampled_from(EXTENSIONS),
    format_profile=st.sampled_from(FormatProfile),
    codec_id=_texts,
    video_format_profile=_texts,
    width=_sizes,
    length=_sizes,
    encoder=st.none() | _texts,
    markers=st.frozensets(st.sampled_from(Marker)),
    byte_size=st.integers(0, 2**40),
)
_image_attributes = st.builds(
    ImageAttributes, width=_sizes, length=_sizes, byte_size=st.integers(4, 2**40), extension=_texts,
)
_candidates = st.builds(
    Candidate,
    record_id=_texts,
    app=_texts,
    os=st.sampled_from(OS),
    quality=_texts,
    matched_fields=st.lists(_texts, max_size=3).map(tuple),
    used_size_band=st.booleans(),
)
_chains = st.builds(
    ChainHypothesis,
    nth_app=_texts,
    nplus1_app=_texts,
    os=st.sampled_from(OS),
    quality=_texts,
    evidence_fields=st.lists(_texts, max_size=2).map(tuple),
)
_verdicts = st.builds(
    Verdict,
    candidates=st.lists(_candidates, max_size=3).map(tuple),
    outcome=st.sampled_from(Outcome),
    chain_hypotheses=st.lists(_chains, max_size=3).map(tuple),
)
_reports = st.builds(
    lambda path, kind, attributes, result: FileReport(path, kind, attributes, *result),
    _paths,
    st.none() | st.sampled_from(MediaKind),
    st.none() | _image_attributes | _video_attributes,
    _verdicts.map(lambda v: (v, None)) | _texts.map(lambda e: (None, e)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_reports, max_size=3), st.none() | _texts)
@example([], None)
def test_json_writer_matches_json_dumps(reports, timestamp):
    assert render_json(reports, timestamp) == json.dumps(reference_doc(reports, timestamp), indent=2) + "\n"


# The text report as it was before paths were escaped, kept as the reference
# for every path that needs no escape.
def _reference_render_text(reports, timestamp=None):
    lines = [] if timestamp is None else [f"generated at {timestamp}"]
    width = max(max([len(r.path) for r in reports], default=4), len("PATH"))
    lines.append(f"{'PATH'.ljust(width)}  {'KIND':5}  {'OUTCOME':17}  TOP CANDIDATE")
    for r in reports:
        kind = r.media_kind.value if r.media_kind else "-"
        if r.error is not None:
            lines.append(f"{r.path.ljust(width)}  {kind:5}  {'error':17}  {r.error}")
            continue
        lines.append(f"{r.path.ljust(width)}  {kind:5}  {r.verdict.outcome.value:17}  "
                     f"{report._top_candidate(r.verdict)}")
        for h in r.verdict.chain_hypotheses:
            lines.append(f"{''.ljust(width)}  chain: {h.nth_app} -> {h.nplus1_app} ({h.os.value})")
    return "\n".join(lines) + "\n"


# Paths of the characters str.isprintable() accepts (none of the "Other" or
# separator categories but the space) other than the backslash.
_printable_paths = st.text(
    st.characters(blacklist_categories=("Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp", "Zs"), blacklist_characters="\\")
    | st.sampled_from(" /"),
    max_size=20,
)
_printable_reports = st.builds(
    lambda path, kind, result: FileReport(path, kind, None, *result),
    _printable_paths,
    st.none() | st.sampled_from(MediaKind),
    _verdicts.map(lambda v: (v, None)) | _texts.map(lambda e: (None, e)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_printable_reports, max_size=4), st.none() | _texts)
def test_text_report_of_printable_paths_is_unchanged(reports, timestamp):
    assert all(r.path.isprintable() and "\\" not in r.path for r in reports)
    assert report.render_text(reports, timestamp) == _reference_render_text(reports, timestamp)


# Paths thick with backslashes, the letters of escapes, and the characters
# written as escapes.
_escapable_paths = st.text(
    st.characters() | st.sampled_from("\\nrtxu01b\n\r\t\x1b\u2028"),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_escapable_paths, unique=True, max_size=6))
@example(["a\\nb", "a\nb"])
def test_distinct_paths_give_distinct_text_cells(paths):
    cells = [report._text_path(path) for path in paths]
    assert len(set(cells)) == len(cells)
    assert all(cell.isprintable() for cell in cells)


_FORGED_ROW = "∕evidence∕fake.jpg  image  Identified         WhatsApp (iOS, HQ)"


@pytest.mark.parametrize("char,escape", [
    ("\n", "\\n"), ("\r", "\\r"), ("\t", "\\t"), ("\x1b", "\\x1b"), ("\u2028", "\\u2028"),
])
def test_unprintable_path_renders_as_one_escaped_row(char, escape):
    path = f"a\\b.mov{char}{_FORGED_ROW}"
    error = FileReport(path, MediaKind.VIDEO, None, None, "MalformedBox: x")
    text = report.render_text([error, FileReport("short", MediaKind.IMAGE, None, None, "NoFrameHeader: y")])
    lines = text.split("\n")
    assert text.splitlines() == lines[:-1] and len(lines) == 4 and lines[-1] == ""
    cell = f"a\\\\b.mov{escape}{_FORGED_ROW}"
    assert lines[1] == f"{cell}  video  {'error':17}  MalformedBox: x"
    assert lines[2].startswith("short".ljust(len(cell)) + "  image")
    assert lines[0].startswith("PATH".ljust(len(cell)) + "  KIND")
