"""Acceptance gate: every criterion asserted at its stated tolerance.

Each test prints one PASS line (visible with pytest -s); a failure anywhere
fails the suite.
"""

import random
import struct
import time
import tracemalloc

import pytest
from click.testing import CliRunner

from mediafp import container, jpeg
from mediafp.attributes import FormatProfile, ImageAttributes, Marker, MediaKind, OS, VideoAttributes
from mediafp.cli import main
from mediafp.engine import RESOLUTION_TOLERANCE, Outcome, match_image, match_video
from mediafp.kb import ImageConstraints, VideoConstraints, default_kb_path, load_kb_path, validate_kb
from mediafp.oracle import (
    InconsistentAttrs,
    generate_corpus,
    expected_attributes,
    parse_corpus,
    render_corpus,
    replay_corpus,
    synthesize_container,
)
from mediafp.report import scan_file

from conftest import make_jpeg

# Hand-audited record counts per source table, fixed during transcription.
EXPECTED_MANIFEST = (
    ("table6", 49),
    ("table7", 20),
    ("table8", 19),
    ("table9", 11),
    ("table10", 10),
    ("table11", 6),
    ("table12", 8),
    ("originals", 5),
)


def test_criterion_1_kb_completeness():
    start = time.perf_counter()
    kb = load_kb_path()
    findings = validate_kb(kb)
    elapsed = time.perf_counter() - start
    assert kb.manifest == EXPECTED_MANIFEST
    assert [f for f in findings if f.kind == "orphan-chain"] == []
    for rec in kb.records:
        if not rec.distinguishable:
            continue
        if rec.media_kind is MediaKind.IMAGE:
            assert isinstance(rec.constraints, ImageConstraints) and rec.constraints.resolutions, rec.record_id
        else:
            # Each names at least one value of every container field.
            c = rec.constraints
            assert isinstance(c, VideoConstraints), rec.record_id
            assert all((c.extensions, c.format_profiles, c.codec_ids, c.video_format_profiles)), rec.record_id
    assert elapsed < 1.0, f"KB load took {elapsed:.3f}s"
    print(f"PASS criterion 1: KB loads clean, manifest matches audit ({elapsed * 1000:.0f} ms)")


def test_criterion_2_selftest_exhaustive(kb):
    start = time.perf_counter()
    generated = generate_corpus(kb)
    frozen = parse_corpus((default_kb_path() / "corpus.tsv").read_text(encoding="utf-8"))
    assert render_corpus(generated) == render_corpus(frozen)
    misses = [entry.record_id for entry, _ in replay_corpus(kb, generated)]
    elapsed = time.perf_counter() - start
    assert misses == [], f"ground truth missing for {misses}"
    assert len(generated) == 100
    assert elapsed < 5.0, f"selftest took {elapsed:.3f}s"
    print(f"PASS criterion 2: 100% of {len(generated)} corpus labels contained ({elapsed:.2f} s)")


def test_criterion_3_named_fixtures(kb):
    discord = match_video(VideoAttributes(
        extension="MOV", format_profile=FormatProfile.QUICKTIME, codec_id="qt",
        video_format_profile="Main@L3.1", width=960, length=540), kb)
    assert discord.outcome is Outcome.IDENTIFIED
    assert [(c.app, c.os, c.quality) for c in discord.candidates] == [("Discord", OS.IOS, "Default")]

    telegram = match_video(VideoAttributes(
        extension="MOV", format_profile=FormatProfile.BASE_MEDIA_V2,
        codec_id="mp42 (isom/mp41/mp42)", video_format_profile="High@L3.1",
        width=848, length=464), kb)
    assert telegram.outcome is Outcome.IDENTIFIED
    assert [(c.app, c.quality) for c in telegram.candidates] == [("Telegram", "480p")]

    relay = match_video(VideoAttributes(
        extension="mp4", format_profile=FormatProfile.BASE_MEDIA_V2,
        codec_id="mp42 (isom/mp41/mp42)", video_format_profile="High@L3",
        width=720, length=404, markers=frozenset({Marker.MOVIE_MORE})), kb)
    assert len(relay.chain_hypotheses) == 1
    hypothesis = relay.chain_hypotheses[0]
    assert (hypothesis.nth_app, hypothesis.nplus1_app, hypothesis.os) == ("KakaoTalk", "WeChat", OS.IOS)

    fanout = match_video(VideoAttributes(
        extension="mp4", format_profile=FormatProfile.BASE_MEDIA,
        codec_id="isom (isom/iso2/avc1/mp41)", video_format_profile="Main@L4",
        width=1920, length=1080, encoder="Lavf58.20.100"), kb)
    assert fanout.outcome is Outcome.NARROWED
    assert len(fanout.chain_hypotheses) == 8
    assert {h.nth_app for h in fanout.chain_hypotheses} == {"Facebook Messenger"}
    print("PASS criterion 3: four named fixtures exact-match")


def test_criterion_4_size_disambiguation(kb):
    for size in (91_000, 100_000, 109_000):
        verdict = match_image(ImageAttributes(720, 960, size), kb)
        assert {(c.app, c.quality) for c in verdict.candidates} == {("KakaoTalk", "General")}, size
    for size in (41_000, 50_000, 59_000):
        verdict = match_image(ImageAttributes(720, 960, size), kb)
        assert {(c.app, c.quality) for c in verdict.candidates} == {("Facebook", "Default")}, size
    wechat = match_image(ImageAttributes(1080, 1440, 200_000), kb)
    assert {(c.app, c.quality) for c in wechat.candidates} == {("WeChat", "General")}
    kakao = match_image(ImageAttributes(1080, 1440, 500_000), kb)
    assert {(c.app, c.quality) for c in kakao.candidates} == {("KakaoTalk", "High")}
    print("PASS criterion 4: size bands separate the colliding resolutions")


def _within_any_record(query, records):
    tol = RESOLUTION_TOLERANCE
    for rec in records:
        for pair in rec.constraints.resolutions:
            if abs(query[0] - pair[0]) <= tol and abs(query[1] - pair[1]) <= tol:
                return True
    return False


def test_criterion_5_image_tolerance_property(kb):
    image_records = [
        r for r in kb.records
        if r.media_kind is MediaKind.IMAGE and r.distinguishable
        and isinstance(r.constraints, ImageConstraints)
    ]
    positives = negatives = 0
    for rec in image_records:
        size = rec.constraints.size_band[0] if rec.constraints.size_band else 150_000
        for width, length in rec.constraints.resolutions:
            for dw, dl in ((10, 10), (-10, -10), (10, -10), (-10, 10)):
                attrs = ImageAttributes(width + dw, length + dl, size)
                verdict = match_image(attrs, kb)
                assert any(
                    c.app == rec.app and c.os is rec.os and c.quality == rec.quality
                    for c in verdict.candidates
                ), (rec.record_id, attrs.width, attrs.length)
                positives += 1
            for dw in (11, -11):
                query = (width + dw, length)
                if _within_any_record(query, image_records):
                    continue  # another fingerprint legitimately covers it
                verdict = match_image(ImageAttributes(query[0], query[1], size), kb)
                assert verdict.candidates == (), (rec.record_id, query)
                negatives += 1
    assert positives > 0 and negatives > 0
    print(f"PASS criterion 5: tolerance boundary holds ({positives} in-range, {negatives} out-of-range probes)")


def test_criterion_6_parser_round_trip(kb):
    entries = [e for e in generate_corpus(kb) if e.media_kind is MediaKind.VIDEO]
    hint_for = {"mp4": "fixture.mp4", "MOV": "fixture.mov"}
    unsynthesizable = []
    checked = 0
    for entry in entries:
        try:
            data = synthesize_container(entry.attributes)
        except InconsistentAttrs:
            unsynthesizable.append(entry.record_id)
            continue
        extracted = container.extract_video_attributes(
            data, name_hint=hint_for.get(entry.attributes.extension, "fixture.bin")
        )
        assert extracted == entry.attributes, entry.record_id
        checked += 1
    # The only unsynthesizable vector is the relay row whose recorded format
    # profile contradicts its brand line.
    assert unsynthesizable == ["t11-nateon"]
    assert checked == len(entries) - 1
    print(f"PASS criterion 6: {checked}/{checked} synthesizable vectors round-trip bit-for-bit")


def test_criterion_7_parser_robustness(kb):
    rng = random.Random(0xF00D)
    discord = synthesize_container(expected_attributes(kb.record("t7-discord-default")))
    wechat = synthesize_container(expected_attributes(kb.record("t8-wechat-default")))
    photo = make_jpeg(1280, 960, leading_segments=2)

    buffers = []
    for _ in range(4000):
        buffers.append(rng.randbytes(rng.randrange(0, 600)))
    for base in (discord, wechat, photo):
        for _ in range(2000):
            data = bytearray(base)
            for _ in range(rng.randrange(1, 8)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            buffers.append(bytes(data))
    assert len(buffers) == 10_000

    start = time.perf_counter()
    for data in buffers:
        try:
            container.extract_video_attributes(data, name_hint="x.mp4")
        except container.ParseError:
            pass
        try:
            jpeg.extract_image_attributes(data)
        except jpeg.JpegError:
            pass
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"robustness sweep took {elapsed:.1f}s"
    print(f"PASS criterion 7: 10000 hostile buffers, declared errors only ({elapsed:.1f} s)")


def test_criterion_8_scan_determinism(tmp_path, kb):
    fixtures = tmp_path / "corpus"
    fixtures.mkdir()
    for record_id in ("t7-discord-default", "t7-telegram-480p", "t8-wechat-default",
                      "t9-wechat", "t12-kakaotalk"):
        attrs = expected_attributes(kb.record(record_id))
        suffix = ".mov" if attrs.extension == "MOV" else ".mp4"
        (fixtures / f"{record_id}{suffix}").write_bytes(synthesize_container(attrs))
    (fixtures / "photo-a.jpg").write_bytes(make_jpeg(1600, 1200, total_size=380_000))
    (fixtures / "photo-b.jpg").write_bytes(make_jpeg(720, 960, total_size=100_000))

    runner = CliRunner()
    args = ["scan", str(fixtures), "--format", "json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output
    assert first.output.encode("utf-8") == second.output.encode("utf-8")
    print("PASS criterion 8: scan --format json is byte-deterministic")


def test_criterion_9_hostile_jpeg_parse_time(tmp_path, kb):
    rng = random.Random(0x5CA9)
    sos = b"\xff\xda" + struct.pack(">HB", 8, 1) + bytes([1, 0x00, 0, 63, 0])
    entropy = rng.randbytes(jpeg.HEAD_WINDOW).replace(b"\xff", b"\xff\x00")
    hostile = {
        "scan-before-frame": (b"\xff\xd8" + sos + entropy)[:jpeg.HEAD_WINDOW],
        "fill-run": b"\xff\xd8" + b"\xff" * jpeg.HEAD_WINDOW,
        "fill-run-after-scan": b"\xff\xd8" + sos + b"\xff" * jpeg.HEAD_WINDOW,
    }
    timings = []
    for name, data in hostile.items():
        start = time.perf_counter()
        with pytest.raises(jpeg.NoFrameHeader):
            jpeg.extract_image_attributes(data)
        parse_s = time.perf_counter() - start

        path = tmp_path / f"{name}.jpg"
        path.write_bytes(data)
        start = time.perf_counter()
        report = scan_file(path, kb)
        scan_s = time.perf_counter() - start
        assert report.error is not None and report.error.startswith("NoFrameHeader:"), name
        assert parse_s < 0.25, f"{name}: parse took {parse_s:.3f}s"
        assert scan_s < 0.25, f"{name}: scan_file took {scan_s:.3f}s"
        timings.append(f"{name} {parse_s * 1000:.0f}/{scan_s * 1000:.0f} ms")
    # Read from a file, each is walked a window at a time, not held whole.
    peaks = []
    for name in hostile:
        tracemalloc.start()
        try:
            report = scan_file(tmp_path / f"{name}.jpg", kb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.error is not None and report.error.startswith("NoFrameHeader:"), name
        assert peak < 1 << 20, f"{name}: scan_file peaked at {peak / (1 << 20):.2f} MiB traced"
        peaks.append(f"{name} {peak / (1 << 20):.2f} MiB")
    print(f"PASS criterion 9: 16 MiB hostile JPEGs rejected fast, parse/scan_file: {', '.join(timings)}; "
          f"scan_file traced peak: {', '.join(peaks)}")
