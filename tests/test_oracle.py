import pytest

from mediafp.attributes import FormatProfile, Marker, MediaKind, OS, VideoAttributes
from mediafp.container import extract_video_attributes
from mediafp.kb import load_kb
from mediafp.oracle import (
    ChainLabel,
    InconsistentAttrs,
    SYNTH_CONTAINER_SIZE,
    SingleLabel,
    expected_attributes,
    generate_corpus,
    parse_corpus,
    render_corpus,
    synthesize_container,
)


def test_output_satisfies_own_record(kb):
    from mediafp.engine import satisfies_image, satisfies_video
    for rec in kb.records:
        if not rec.distinguishable:
            continue
        attrs = expected_attributes(rec)
        if rec.media_kind is MediaKind.VIDEO:
            assert satisfies_video(rec.constraints, attrs) is not None, rec.record_id
        else:
            assert satisfies_image(rec.constraints, attrs) is not None, rec.record_id


class TestCorpus:
    def test_telegram_contributes_five_ios_entries(self, kb):
        entries = [e for e in generate_corpus(kb)
                   if e.record_id.startswith("t7-telegram")]
        assert len(entries) == 5

    def test_empty_kb_empty_corpus(self):
        assert generate_corpus(load_kb("# nothing here\n")) == ()

    def test_full_corpus_counts_per_group(self, kb):
        entries = generate_corpus(kb)
        by_group = {}
        for e in entries:
            key = e.record_id.split("-", 1)[0]
            by_group[key] = by_group.get(key, 0) + 1
        # Distinguishable-record counts fixed during transcription; t11 drops
        # one overwritten relay row.
        assert by_group == {"t6": 31, "t7": 20, "t8": 15, "t9": 11, "t10": 10, "t11": 5, "t12": 8}
        assert len(entries) == 100

    def test_overwritten_relay_not_in_corpus(self, kb):
        assert all(e.record_id != "t11-facebook" for e in generate_corpus(kb))

    def test_deterministic_order(self, kb):
        assert generate_corpus(kb) == generate_corpus(kb)

    def test_text_round_trip(self, kb):
        entries = generate_corpus(kb)
        assert parse_corpus(render_corpus(entries)) == entries

    def test_labels_shape(self, kb):
        entries = generate_corpus(kb)
        single = next(e for e in entries if e.record_id == "t7-discord-default")
        assert single.label == SingleLabel("Discord", OS.IOS, "Default")
        chain = next(e for e in entries if e.record_id == "t9-wechat")
        assert chain.label == ChainLabel("KakaoTalk", "WeChat", OS.IOS)

    def test_frozen_corpus_file_matches_generation(self, kb):
        from mediafp.kb import default_kb_path
        frozen = (default_kb_path() / "corpus.tsv").read_text(encoding="utf-8")
        assert render_corpus(generate_corpus(kb)) == frozen


class TestSynthesize:
    def test_discord_round_trip(self, kb):
        attrs = expected_attributes(kb.record("t7-discord-default"))
        got = extract_video_attributes(synthesize_container(attrs), name_hint="f.mov")
        assert got == attrs

    def test_inconsistent_profile_vs_codec(self):
        attrs = VideoAttributes(
            extension="MOV",
            format_profile=FormatProfile.QUICKTIME,
            codec_id="mp42 (isom/mp42)",
            video_format_profile="High@L4",
            width=1920,
            length=1080,
        )
        with pytest.raises(InconsistentAttrs):
            synthesize_container(attrs)

    def test_wechat_android_copyright_marker_survives(self, kb):
        attrs = expected_attributes(kb.record("t8-wechat-default"))
        assert attrs.markers == frozenset({Marker.COPYRIGHT})
        got = extract_video_attributes(synthesize_container(attrs), name_hint="f.mp4")
        assert got.markers == frozenset({Marker.COPYRIGHT})

    def test_pads_to_requested_size(self, kb):
        attrs = expected_attributes(kb.record("t7-discord-default"))
        assert len(synthesize_container(attrs)) == SYNTH_CONTAINER_SIZE == attrs.byte_size

    def test_unreachable_size_falls_back_to_natural(self):
        attrs = VideoAttributes(
            extension="MOV",
            format_profile=FormatProfile.QUICKTIME,
            codec_id="qt",
            video_format_profile="Main@L3.1",
            width=960,
            length=540,
            byte_size=10,
        )
        data = synthesize_container(attrs)
        assert len(data) > 10
        got = extract_video_attributes(data, name_hint="f.mov")
        assert got.byte_size == len(data)

    def test_unparseable_profile_string_rejected(self):
        attrs = VideoAttributes(
            extension="mp4",
            format_profile=FormatProfile.BASE_MEDIA,
            codec_id="isom (isom/iso2/avc1/mp41)",
            video_format_profile="Ultra@L9",
            width=100,
            length=100,
        )
        with pytest.raises(InconsistentAttrs):
            synthesize_container(attrs)

    def test_all_markers_round_trip(self):
        attrs = VideoAttributes(
            extension="mp4",
            format_profile=FormatProfile.BASE_MEDIA_V2,
            codec_id="mp42 (isom/mp42)",
            video_format_profile="Baseline@L3.1",
            width=640,
            length=360,
            markers=frozenset(Marker),
            byte_size=4096,
        )
        got = extract_video_attributes(synthesize_container(attrs), name_hint="f.mp4")
        assert got.markers == frozenset(Marker)

    def test_determinism(self, kb):
        attrs = expected_attributes(kb.record("t7-wechat-default"))
        assert synthesize_container(attrs) == synthesize_container(attrs)
