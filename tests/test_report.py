import dataclasses
import errno
import json
import os
import struct
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mediafp import container, report
from mediafp.attributes import (
    EXTENSIONS, OS, FormatProfile, ImageAttributes, Marker, MediaKind, VideoAttributes,
)
from mediafp.container import ParseError, extract_video_attributes
from mediafp.engine import (
    Candidate, ChainHypothesis, Outcome, Verdict, image_verdict_key, match_video, video_verdict_key,
)
from mediafp.jpeg import NoFrameHeader, extract_image_attributes
from mediafp.oracle import expected_attributes, generate_corpus, synthesize_container
from mediafp.report import HEAD_READ, FileReport, render_json, scan_file

from conftest import make_jpeg, write_repeated_vectors, write_sparse_video
from test_container import _hostile_buffers
from test_jpeg import _count_preads

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


class _Reads:
    """The positioned reads scan_file makes, counted: `calls` of them, which
    returned `read_total` bytes.  With `short` set, a read returns at most
    half of what it asks for and never more than 1000 bytes, so every reader
    must read on."""

    def __init__(self, short):
        self.short, self.calls, self.read_total = short, 0, 0


@pytest.fixture(params=[False, True], ids=["whole-reads", "short-reads"])
def short_reads(request, monkeypatch):
    """Whole or short positioned reads, counted; a test that makes none fails,
    so a read path that bypasses them cannot pass unseen."""
    reads, real = _Reads(request.param), os.pread

    def pread(fd, count, offset):
        if reads.short:
            count = min(max(1, count // 2), 1000)
        data = real(fd, count, offset)
        reads.calls += 1
        reads.read_total += len(data)
        return data

    monkeypatch.setattr(report.os, "pread", pread)
    yield reads
    assert reads.calls > 0


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
    assert 0 < short_reads.read_total <= size


def test_moov_after_a_large_mdat(tmp_path, kb, short_reads):
    data = _discord(kb, 0)
    ftyp_end = struct.unpack_from(">I", data)[0]
    mdat = struct.pack(">I", 8 + 5 * HEAD_READ) + b"mdat" + b"\x5a" * (5 * HEAD_READ)
    moved = data[:ftyp_end] + mdat + data[ftyp_end:]
    result = _scan_video(tmp_path, kb, moved)
    assert (result.attributes.width, result.attributes.length) == (960, 540)
    assert 0 < short_reads.read_total < 2 * HEAD_READ


def test_moov_past_the_head_is_read_a_page_at_a_time(tmp_path, kb, monkeypatch):
    # ftyp, a sparse mdat larger than the head, then the moov: two reads for
    # the head, and the moov's box headers and leaf payloads from one page.
    path = tmp_path / "clip.mov"
    write_sparse_video(path, _discord(kb, 0), 2 * HEAD_READ, moov_last=True)
    reads = _count_preads(monkeypatch)
    result = scan_file(path, kb)
    assert result.attributes == extract_video_attributes(path.read_bytes(), name_hint=path.name)
    assert len(reads) <= 4


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
    assert short_reads.read_total == len(data)


def test_jpeg_frame_header_beyond_the_head_across_reads(tmp_path, kb, short_reads):
    data = make_jpeg(720, 960, total_size=3 * HEAD_READ)
    result = _scan(tmp_path, kb, data)
    assert result.attributes == extract_image_attributes(data)
    assert 0 < short_reads.read_total < len(data)


def _grow_fstat_size(monkeypatch, extra):
    real_fstat = report.os.fstat

    def fstat(fd):
        st = real_fstat(fd)
        return os.stat_result((*st[:6], st.st_size + extra, *st[7:]))

    monkeypatch.setattr(report.os, "fstat", fstat)


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


def test_jpeg_ending_before_its_fstat_size_is_truncated(tmp_path, kb, monkeypatch):
    # Past the first read, a JPEG that ends short of its fstat size fails
    # where the walk reads past its end, as a video does.
    data = make_jpeg(720, 960, total_size=3 * HEAD_READ)
    _grow_fstat_size(monkeypatch, 100)
    assert _scan(tmp_path, kb, data).error == (
        f"TruncatedFile: file ends before offset {len(data) + 100}, short of its size {len(data) + 100}")


def test_unopenable_paths_keep_their_error_rows(tmp_path, kb):
    # The rows name the path, as open() does; a read on a descriptor of a
    # directory would raise without it.
    missing = tmp_path / "missing.jpg"
    for path, error, code in ((missing, "FileNotFoundError", errno.ENOENT),
                              (tmp_path, "IsADirectoryError", errno.EISDIR)):
        result = scan_file(path, kb)
        assert (result.media_kind, result.attributes) == (None, None)
        assert result.error == f"{error}: [Errno {code}] {os.strerror(code)}: {str(path)!r}"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_anything_but_a_regular_file_is_an_error_row(tmp_path, kb):
    fifo = tmp_path / "clip.mp4"
    os.mkfifo(fifo)
    for path in [fifo] + [Path(os.devnull)] * os.path.exists(os.devnull):
        # In a thread, so that a scan blocked opening the FIFO fails the
        # test; opening the write end then lets the thread finish.
        results = []
        worker = threading.Thread(target=lambda: results.append(scan_file(path, kb)), daemon=True)
        worker.start()
        worker.join(10)
        if worker.is_alive():
            os.close(os.open(fifo, os.O_WRONLY))
            worker.join()
            pytest.fail(f"scan_file blocked opening {path}")
        [result] = results
        assert (result.media_kind, result.attributes, result.verdict) == (None, None, None)
        assert result.error == f"OSError: not a regular file: {str(path)!r}"


def _failing_file(tmp_path, monkeypatch, case, kb):
    path = tmp_path / "file"
    if case == "missing":
        return path
    if case == "directory":
        path.mkdir()
        return path
    data = {
        "malformed-video": b"abc",
        "no-frame-header": b"\xff\xd8" + bytes(2 * HEAD_READ),
        "truncated-jpeg": make_jpeg(720, 960, total_size=3 * HEAD_READ),
        "truncated-video": _discord(kb, 2 * HEAD_READ),
    }[case]
    path.write_bytes(data)
    if case.startswith("truncated"):
        _grow_fstat_size(monkeypatch, 100)
    return path


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("case,error", [
    ("missing", "FileNotFoundError"), ("directory", "IsADirectoryError"),
    ("malformed-video", "MalformedBox"), ("no-frame-header", "NoFrameHeader"),
    ("truncated-jpeg", "TruncatedFile"), ("truncated-video", "TruncatedFile"),
])
def test_a_failed_scan_leaves_no_descriptor_open(tmp_path, kb, monkeypatch, case, error):
    path = _failing_file(tmp_path, monkeypatch, case, kb)
    before = len(os.listdir("/proc/self/fd"))
    result = scan_file(path, kb)
    assert len(os.listdir("/proc/self/fd")) == before
    assert result.error.startswith(f"{error}: ")


@pytest.mark.parametrize("moov_last", [False, True], ids=["moov-first", "moov-last"])
@pytest.mark.parametrize("mib", [1, 4, 15, 32])
def test_sparse_mdat_is_never_read(tmp_path, kb, short_reads, mib, moov_last):
    # Read cost follows the boxes: the head, then only the headers and leaf
    # payloads the walk asks for past it, whatever the size of the mdat.
    path = tmp_path / "clip.mov"
    write_sparse_video(path, _discord(kb, 0), mib << 20, moov_last)
    result = scan_file(path, kb)
    assert 0 < short_reads.read_total < 2 * HEAD_READ
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
    assert 0 < short_reads.read_total < 2 * HEAD_READ


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
    assert short_reads.read_total > 0


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


class TestVerdictMemo:
    """``scan_file(..., verdicts=memo)`` matches each video vector but its
    byte size, and each image resolution and size-band interval, once per
    memo and shares that frozen verdict."""

    def test_the_key_is_every_field_but_byte_size(self):
        attrs = VideoAttributes("mp4", FormatProfile.BASE_MEDIA, "isom (isom/mp42)", "High@L4", 1280, 720,
                                encoder="Lavf58.20.100", markers=frozenset({Marker.COPYRIGHT}), byte_size=4096)
        names = [f.name for f in dataclasses.fields(VideoAttributes)]
        assert video_verdict_key(attrs) == tuple(getattr(attrs, n) for n in names if n != "byte_size")
        assert video_verdict_key(dataclasses.replace(attrs, byte_size=1)) == video_verdict_key(attrs)
        changed = {"extension": "MOV", "format_profile": FormatProfile.QUICKTIME, "codec_id": "qt",
                   "video_format_profile": "", "width": 1920, "length": 1080, "encoder": None,
                   "markers": frozenset()}
        assert set(changed) == set(names) - {"byte_size"}
        for name, value in changed.items():
            assert video_verdict_key(dataclasses.replace(attrs, **{name: value})) != video_verdict_key(attrs)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(0, 2**40), st.booleans())
    def test_a_video_verdict_does_not_depend_on_byte_size(self, kb, data, byte_size, chains):
        vectors = [e.attributes for e in generate_corpus(kb) if e.media_kind is MediaKind.VIDEO]
        attrs = data.draw(st.sampled_from(vectors))
        resized = dataclasses.replace(attrs, byte_size=byte_size)
        assert match_video(resized, kb, chains=chains) == match_video(attrs, kb, chains=chains)

    def test_equal_vectors_share_one_verdict(self, tmp_path, kb):
        memo = {}
        reports = [scan_file(path, kb, verdicts=memo) for path in write_repeated_vectors(tmp_path, kb)]
        by_key = {}
        for r in reports:
            assert r.verdict == scan_file(r.path, kb).verdict
            if r.media_kind is MediaKind.VIDEO:
                key = (True, video_verdict_key(r.attributes))
            else:
                key = image_verdict_key(r.attributes, kb)
            by_key.setdefault(key, []).append(r)
        assert sum(r.media_kind is MediaKind.IMAGE for r in reports) == 4
        assert len(memo) == len(by_key) < len(reports)
        for key, group in by_key.items():
            assert len({r.attributes.byte_size for r in group}) > 1
            assert all(r.verdict is memo[key] for r in group)

    def test_images_share_a_verdict_within_a_size_band_interval(self, tmp_path, kb):
        # 720x960 is shared by records told apart by their size bands:
        # 100000 +- 10000 (KakaoTalk) and 50000 +- 10000 (Facebook).
        sizes = {"kakao-a.jpg": 98_000, "kakao-b.jpg": 91_000, "facebook.jpg": 52_000}
        memo = {}
        scanned = {}
        for name, size in sizes.items():
            (tmp_path / name).write_bytes(make_jpeg(720, 960, total_size=size))
            scanned[name] = scan_file(tmp_path / name, kb, verdicts=memo)
            assert scanned[name].attributes.byte_size == size
            assert scanned[name].verdict == scan_file(tmp_path / name, kb).verdict
        assert scanned["kakao-a.jpg"].verdict is scanned["kakao-b.jpg"].verdict
        assert {c.app for c in scanned["kakao-a.jpg"].verdict.candidates} == {"KakaoTalk"}
        assert {c.app for c in scanned["facebook.jpg"].verdict.candidates} == {"Facebook"}
        assert len(memo) == 2

    def test_other_extension_or_encoder_gets_its_own_verdict(self, tmp_path, kb):
        attrs = expected_attributes(kb.record("t7-instagram-default"))
        files = {}
        for suffix in ("mp4", "mov", "3gp"):
            files[f"clip.{suffix}"] = synthesize_container(attrs)
        for encoder in (None, "Lavf58.76.100"):
            files[f"{encoder}.mp4"] = synthesize_container(dataclasses.replace(attrs, encoder=encoder))
        memo = {}
        verdicts = []
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
            scanned = scan_file(tmp_path / name, kb, verdicts=memo)
            assert scanned.verdict == scan_file(tmp_path / name, kb).verdict
            verdicts.append(scanned.verdict)
        assert len(memo) == len({id(v) for v in verdicts}) == len(files)
        assert len(set(verdicts)) > 1

    def test_one_memo_keeps_chains_and_no_chains_verdicts_apart(self, tmp_path, kb):
        chain = next(r for r in kb.records if r.nth_app is not None and r.media_kind is MediaKind.VIDEO)
        path = tmp_path / "relayed.mp4"
        path.write_bytes(synthesize_container(expected_attributes(chain)))
        memo = {}
        for chains in (True, False, True, False):
            scanned = scan_file(path, kb, chains, verdicts=memo)
            assert scanned.verdict == scan_file(path, kb, chains).verdict
            assert bool(scanned.verdict.chain_hypotheses) is chains
        assert len(memo) == 2


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
                "used_size_band": "byte_size" in c.matched_fields,
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
    matched_fields=st.lists(_texts | st.just("byte_size"), max_size=3).map(tuple),
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


def _reference_top_candidate(verdict):
    if not verdict.candidates:
        return "-"
    c = verdict.candidates[0]
    label = f"{c.app} ({c.os.value}, {c.quality})"
    if len(verdict.candidates) > 1:
        label += f" +{len(verdict.candidates) - 1}"
    return label


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
                     f"{_reference_top_candidate(r.verdict)}")
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


def _assert_both_formats_match_the_references(reports, timestamp=None):
    assert render_json(reports, timestamp) == json.dumps(reference_doc(reports, timestamp), indent=2) + "\n"
    assert report.render_text(reports, timestamp) == _reference_render_text(reports, timestamp)


def _evidence_reports(paths, verdicts):
    return [FileReport(path, MediaKind.VIDEO, None, verdict, None) for path, verdict in zip(paths, verdicts)]


def test_kb_owned_evidence_shared_by_many_reports(kb):
    # Every evidence object the shipped KB owns, each in several reports and
    # at several positions, with chain hypotheses on most rows.
    evidence = [e for rec in kb.records for e in rec.evidence.values()]
    candidates = [e for e in evidence if isinstance(e, Candidate)]
    chains = [e for e in evidence if isinstance(e, ChainHypothesis)]
    assert candidates and chains
    verdicts = [
        Verdict(
            tuple(candidates[(i + k) % len(candidates)] for k in range(i % 4)),
            list(Outcome)[i % len(Outcome)],
            tuple(chains[(5 * i + k) % len(chains)] for k in range(i % 3)),
        )
        for i in range(4 * len(candidates))
    ]
    reports = _evidence_reports([f"clip-{i:04}.mov" for i in range(len(verdicts))], verdicts)
    shown = [c for v in verdicts for c in v.candidates + v.chain_hypotheses]
    assert len({id(e) for e in shown}) < len(shown) / 2
    _assert_both_formats_match_the_references(reports)
    _assert_both_formats_match_the_references(reports[::-1], "2026-01-01T00:00:00+00:00")


def _verdict_rows(kb, distinct):
    """Reports whose verdicts include lookalikes: no candidates as Unknown
    and as OriginalLike, and the same candidates with and without chain
    hypotheses.  Each verdict is held by several rows, of every kind and
    among error rows; with ``distinct`` each row holds its own equal copy."""
    evidence = [e for rec in kb.records for e in rec.evidence.values()]
    candidates = tuple(e for e in evidence if isinstance(e, Candidate))[:3]
    chains = tuple(e for e in evidence if isinstance(e, ChainHypothesis))[:2]
    verdicts = [
        Verdict((), Outcome.UNKNOWN), Verdict((), Outcome.ORIGINAL_LIKE),
        Verdict(candidates[:1], Outcome.IDENTIFIED), Verdict(candidates[:1], Outcome.IDENTIFIED, chains),
        Verdict(candidates, Outcome.NARROWED), Verdict(candidates, Outcome.NARROWED, chains[:1]),
        Verdict(candidates[:1], Outcome.ORIGINAL_LIKE),
    ]
    kinds = [MediaKind.VIDEO, MediaKind.IMAGE, None]
    attributes = [None, ImageAttributes(720, 960, 100_000), expected_attributes(kb.record("t7-discord-default"))]
    reports = []
    for i in range(4 * len(verdicts)):
        if i % 5 == 4:
            reports.append(FileReport(f"bad-{i}.mov", kinds[i % 3], None, None, "MalformedBox: x"))
            continue
        verdict = verdicts[i % len(verdicts)]
        reports.append(FileReport(f"file-{i:02}", kinds[i % 3], attributes[i % 3],
                                  dataclasses.replace(verdict) if distinct else verdict, None))
    return reports


@pytest.mark.parametrize("timestamp", [None, "2026-01-01T00:00:00+00:00"], ids=["plain", "timestamp"])
@pytest.mark.parametrize("distinct", [False, True], ids=["shared-verdicts", "equal-distinct-verdicts"])
def test_verdict_lookalikes_render_as_the_references(kb, distinct, timestamp):
    # Each render call renders a verdict's cells once and reuses them on
    # every row holding that object; lookalike verdicts must each keep their own.
    reports = _verdict_rows(kb, distinct)
    held = [id(r.verdict) for r in reports if r.verdict is not None]
    assert (len(set(held)) == len(held)) is distinct
    _assert_both_formats_match_the_references(reports, timestamp)


def _toggle_size_band(fields):
    if "byte_size" in fields:
        return tuple(f for f in fields if f != "byte_size")
    return fields + ("byte_size",)


def _lookalikes(evidence):
    """``evidence``, an equal copy, and copies that differ from it in one
    field a cache keyed on the rest would miss."""
    if isinstance(evidence, Candidate):
        return [evidence, dataclasses.replace(evidence),
                dataclasses.replace(evidence, matched_fields=evidence.matched_fields + ("markers",)),
                dataclasses.replace(evidence, matched_fields=evidence.matched_fields[:-1]),
                dataclasses.replace(evidence, matched_fields=_toggle_size_band(evidence.matched_fields))]
    return [evidence, dataclasses.replace(evidence),
            dataclasses.replace(evidence, nplus1_app=evidence.nplus1_app + "+"),
            dataclasses.replace(evidence, os=OS.ANDROID_ANY if evidence.os is not OS.ANDROID_ANY else OS.IOS)]


@st.composite
def _shared_evidence_reports(draw):
    candidates = [c for seed in draw(st.lists(_candidates, min_size=1, max_size=2)) for c in _lookalikes(seed)]
    chains = [h for seed in draw(st.lists(_chains, min_size=1, max_size=2)) for h in _lookalikes(seed)]
    verdicts = draw(st.lists(st.builds(
        Verdict,
        candidates=st.lists(st.sampled_from(candidates), max_size=3).map(tuple),
        outcome=st.sampled_from(Outcome),
        chain_hypotheses=st.lists(st.sampled_from(chains), max_size=3).map(tuple),
    ), max_size=8))
    paths = draw(st.lists(_printable_paths, min_size=len(verdicts), max_size=len(verdicts)))
    return _evidence_reports(paths, verdicts)


@settings(max_examples=200, deadline=None)
@given(_shared_evidence_reports(), st.none() | _texts)
def test_shared_and_lookalike_evidence_renders_as_the_references(reports, timestamp):
    # One object in many reports, equal but distinct objects, and objects
    # that differ only in matched fields (the size band among them), app or OS.
    _assert_both_formats_match_the_references(reports, timestamp)


def test_render_memo_holds_its_objects_when_their_reports_are_dropped():
    # A writer that renders each report and drops it, through one memo: each
    # fresh candidate may be allocated where the last, freed one was, so a
    # memo that only keys by id() would hand it the last one's text.
    memo = {}
    for i in range(2000):
        candidate = Candidate(f"r{i}", f"App{i}", OS.IOS, "Default", ("resolution",))
        row = report._report_json(
            FileReport(f"{i}.jpg", MediaKind.IMAGE, None, Verdict((candidate,), Outcome.IDENTIFIED), None), memo)
        assert f'"app": "App{i}"' in row
        del candidate, row


@pytest.mark.parametrize("fmt", ["JSON", "Text", "", "xml"])
def test_an_unknown_report_format_is_refused(fmt):
    with pytest.raises(ValueError, match=f"^unknown report format {fmt!r}; expected 'text' or 'json'$"):
        report.render_report([], fmt)


@pytest.mark.parametrize("verdict,error", [
    (Verdict((), Outcome.UNKNOWN), "MalformedBox: x"), (None, None),
], ids=["both", "neither"])
def test_a_report_has_exactly_one_of_verdict_and_error(verdict, error):
    with pytest.raises(ValueError, match="^exactly one of verdict/error must be set$"):
        FileReport("a.mov", MediaKind.VIDEO, None, verdict, error)


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
