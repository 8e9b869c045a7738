import dataclasses

import pytest

from mediafp.attributes import FormatProfile, ImageAttributes, Marker, MediaKind, OS
from mediafp.kb import (
    RESOLUTION_TOLERANCE,
    FingerprintRecord,
    Hop,
    ImageConstraints,
    KbError,
    KnowledgeBase,
    ManifestMismatch,
    SchemaError,
    VideoConstraints,
    group_key,
    list_records,
    load_kb,
    load_kb_path,
    validate_kb,
)

WHATSAPP_IMAGE_BLOCK = """
[record t6-whatsapp-default-ios]
media = image
app = WhatsApp
os = iOS
quality = Default
resolution = 1600x1200, 1200x1600
"""


IMAGE_RECORD = """
[record t6-y]
media = image
app = Y
os = iOS
quality = Default
resolution = 100x100
"""

IMAGE_ORIGINAL = """
[original o-img]
media = image
os = iOS
resolution = 100x100
"""


def test_image_record_block():
    kb = load_kb(WHATSAPP_IMAGE_BLOCK)
    assert len(kb.records) == 1
    rec = kb.records[0]
    assert rec.app == "WhatsApp"
    assert rec.media_kind is MediaKind.IMAGE
    assert rec.constraints == ImageConstraints(((1600, 1200), (1200, 1600)))


def test_indistinguishable_record_has_no_constraints():
    kb = load_kb("""
[record t6-discord-default-ios]
media = image
app = Discord
os = iOS
quality = Default
indistinguishable = true
""")
    rec = kb.records[0]
    assert rec.distinguishable is False
    assert rec.constraints is None


def test_manifest_mismatch_on_dropped_row():
    text = "\n".join(
        f"""
[record t7-telegram-{q}]
media = video
app = Telegram
os = iOS
quality = {q}
extension = MOV
format_profile = Base Media Version 2
codec_id = "mp42 (isom/mp41/mp42)"
video_format_profile = "High@L4"
resolution = 1920x1072
"""
        for q in ("1080p", "720p", "480p", "360p")
    ) + "\n[manifest]\ntable7 = 5\n"
    with pytest.raises(ManifestMismatch):
        load_kb(text)


def test_manifest_accepts_exact_counts():
    kb = load_kb(WHATSAPP_IMAGE_BLOCK + "\n[manifest]\ntable6 = 1\n")
    assert kb.manifest == (("table6", 1),)


@pytest.mark.parametrize("os_line,resolution_line,extra,needle", [
    ("os = iOS", "resolution = 100x100", "unknown_key = 1", "unknown keys"),
    ("os = windows", "resolution = 100x100", "", "unknown OS"),
    ("os = iOS", "resolution = 12x", "", "bad resolution"),
    ("os = iOS", "resolution = 100x100", "markers = MovieSomething", "unknown marker"),
    ("os = iOS", "resolution = 100x100", "hop = triple", "hop"),
    ("os = iOS", "resolution = 100x100", "markers_required = Copyright", "unknown keys"),
    pytest.param("os = iOS", "resolution = 100x100", "[options]\nencoder_prefix_match = true",
                 r"unknown block '\[options\]'", id="options-block"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_RECORD + "resolution_tolerance = 4",
                 r"unknown keys \['resolution_tolerance'\]", id="resolution-tolerance"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_ORIGINAL + "nominal_size = big",
                 "nominal_size must be a byte count", id="nominal-size-not-integer"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_ORIGINAL + "nominal_size = -5",
                 "nominal_size must be a byte count", id="nominal-size-negative"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_ORIGINAL + "nominal_size = 3",
                 "byte_size must be >= 4", id="nominal-size-below-image-minimum"),
    pytest.param("os = iOS", "resolution = 100x100", 'encoder = "Lavf\udcff"',
                 "not UTF-8 text", id="not-utf8"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_RECORD.replace("resolution = 100x100", ""),
                 "missing key 'resolution'", id="image-without-resolution"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_RECORD.replace("100x100", ""),
                 "at least one resolution", id="image-with-empty-resolution"),
    pytest.param("os = iOS", "", "[record t7-z]\nmedia = video\napp = Z\nos = iOS\nquality = Default",
                 "carries no constraints", id="video-without-constraints"),
])
def test_schema_errors(tmp_path, os_line, resolution_line, extra, needle):
    # Through a file, so text that is not UTF-8 (written here from a lone
    # surrogate) reaches the decoder.
    text = f"""
[record t7-x]
media = video
app = X
{os_line}
quality = Default
extension = mp4
format_profile = Base Media
codec_id = "isom (isom/iso2/avc1/mp41)"
video_format_profile = "Main@L3"
{resolution_line}
{extra}
"""
    path = tmp_path / "bad.kb"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(SchemaError, match=needle):
        load_kb_path(path)


def test_unreadable_kb_raises_kb_error(tmp_path):
    with pytest.raises(KbError, match="missing.kb"):
        load_kb_path(tmp_path / "missing.kb")
    (tmp_path / "table06.kb").write_text(WHATSAPP_IMAGE_BLOCK, encoding="utf-8")
    (tmp_path / "sub.kb").mkdir()
    with pytest.raises(KbError, match="sub.kb"):
        load_kb_path(tmp_path)


def test_chain_without_nth_app_rejected():
    with pytest.raises(SchemaError, match="nth_app"):
        load_kb("""
[record t9-x]
media = video
hop = chain
app = X
os = iOS
quality = Default
resolution = 100x100
""")


def test_duplicate_record_id_rejected():
    with pytest.raises(SchemaError, match="duplicate record id"):
        load_kb(WHATSAPP_IMAGE_BLOCK + WHATSAPP_IMAGE_BLOCK)


def test_group_key():
    assert group_key("t6-whatsapp-default-ios") == "table6"
    assert group_key("t12-wickrme") == "table12"
    assert group_key("custom-record") == "custom"


def findings(kb, kind):
    return [f for f in validate_kb(kb) if f.kind == kind]


class TestValidate:
    def test_signal_wickrme_ios_not_a_collision(self, kb):
        colliding = {rid for f in findings(kb, "collision") for rid in f.record_ids}
        assert "t7-signal-default" not in colliding
        assert "t7-wickrme-default" not in colliding

    def test_constructed_duplicate_collides(self):
        block = """
[record t7-a]
media = video
app = A
os = iOS
quality = Default
extension = mp4
format_profile = Base Media
codec_id = "isom (isom/iso2/avc1/mp41)"
video_format_profile = "Main@L3"
resolution = 100x100
"""
        kb = load_kb(block + block.replace("t7-a", "t7-b").replace("app = A", "app = B"))
        groups = findings(kb, "collision")
        assert len(groups) == 1
        assert groups[0].record_ids == ("t7-a", "t7-b")

    def test_orphan_chain_flagged(self):
        kb = load_kb("""
[record t9-orphan]
media = video
hop = chain
nth_app = KakaoTalk
app = WeChat
os = iOS
quality = General
resolution = 720x404
""")
        orphans = findings(kb, "orphan-chain")
        assert [f.record_ids for f in orphans] == [("t9-orphan",)]

    def test_shipped_kb_has_no_orphans(self, kb):
        assert findings(kb, "orphan-chain") == []

    def test_shipped_collision_groups_are_the_expected_ambiguities(self, kb):
        groups = {f.record_ids for f in findings(kb, "collision")}
        assert ("t8-skype-default", "t8-signal-default") in groups
        assert ("t9-fbmessenger-v2", "t9-skype", "t9-discord", "t9-nateon") in groups
        assert any(len(g) == 8 and all(r.startswith("t12-") for r in g) for g in groups)


class TestListRecords:
    def test_telegram_ios_video_has_five_qualities(self, kb):
        records = list_records(kb, app="Telegram", os="ios", media_kind="video")
        assert [r.quality for r in records] == ["1080p", "720p", "480p", "360p", "240p"]

    def test_empty_filter_returns_all(self, kb):
        assert len(list_records(kb)) == len(kb.records)

    def test_unmatched_app_returns_empty(self, kb):
        assert list_records(kb, app="Nonexistent") == []

    def test_filters_are_conjunctive(self, kb):
        records = list_records(kb, app="WeChat", media_kind=MediaKind.VIDEO, os=OS.ANDROID_ANY)
        assert {r.record_id for r in records} >= {"t8-wechat-default"}
        assert all(r.os is OS.ANDROID_ANY for r in records)


class TestRoundTrip:
    def test_edge_kb_round_trips(self):
        kb = load_kb("""
[record t8-wild]
media = video
app = X
os = AndroidAny
quality = Between medium and low
extension = mp4, MOV
format_profile = Base Media, Base Media Version 2
codec_id = "isom (isom/iso2/avc1/mp41)"
video_format_profile = "Main@L3", "Main@L4"
resolution = irregular
encoder = "Lavf58.20.100"
markers = any

[record t8-marked]
media = video
app = Y
os = AndroidAny
quality = Default
extension = mp4
format_profile = Base Media Version 2
codec_id = "mp42 (isom/mp42)"
video_format_profile = "High@L3.1"
resolution = 960x544, 544x960
markers = Copyright, MovieMore

[record t6-banded]
media = image
app = Z
os = Android169
quality = High
resolution = 1440x810
size_band = 500000 +- 100000

[original o-img]
media = image
os = iOS
resolution = 4032x3024
nominal_size = 2000000

[manifest]
table8 = 2
table6 = 1
originals = 1
""")
        wild, marked, banded = (rec.constraints for rec in kb.records)
        assert wild.resolution_wildcard is True and wild.markers_any is True
        assert wild.codec_ids == ("isom (isom/iso2/avc1/mp41)",) and wild.encoders == ("Lavf58.20.100",)
        assert marked.resolutions == ((960, 544), (544, 960))
        assert marked.markers == (Marker.COPYRIGHT, Marker.MOVIE_MORE)
        assert banded.size_band == (500000, 100000)
        assert kb.originals[0].attributes == ImageAttributes(4032, 3024, 2000000)
        assert kb.manifest == (("table8", 2), ("table6", 1), ("originals", 1))


class TestShippedInvariants:
    def test_record_and_original_counts(self, kb):
        assert len(kb.records) == 123
        assert len(kb.originals) == 5

    def test_every_untrackable_cell_is_a_placeholder(self, kb):
        # Single-hop placeholder counts fixed at transcription time.
        indist = [r for r in kb.records if not r.distinguishable and r.hop is Hop.SINGLE]
        by_group = {}
        for rec in indist:
            by_group[rec.group] = by_group.get(rec.group, 0) + 1
        assert by_group == {"table6": 18, "table8": 4}

    def test_chain_records_are_all_trackable(self, kb):
        # Relay sets record only the rows whose first hop survives; erased
        # relays are comments, not records.
        assert all(r.distinguishable for r in kb.records if r.hop is Hop.CHAIN)

    def test_video_singles_keep_a_strong_discriminator(self, kb):
        for rec in kb.records:
            if rec.media_kind is not MediaKind.VIDEO or not rec.distinguishable:
                continue
            if rec.hop is not Hop.SINGLE:
                continue
            c = rec.constraints
            assert isinstance(c, VideoConstraints)
            assert c.codec_ids or c.video_format_profiles or c.resolutions or c.encoders, rec.record_id

    def test_image_resolutions_stored_per_orientation(self, kb):
        rec = kb.record("t6-kakaotalk-general-ios")
        assert isinstance(rec.constraints, ImageConstraints)
        assert rec.constraints.resolutions == ((960, 720), (720, 960))

    def test_size_bands_attached_where_specified(self, kb):
        assert kb.record("t6-kakaotalk-general-ios").constraints.size_band == (100_000, 10_000)
        assert kb.record("t6-facebook-default-ios").constraints.size_band == (50_000, 10_000)
        assert kb.record("t6-kakaotalk-high-ios").constraints.size_band == (500_000, 100_000)
        assert kb.record("t6-wechat-general-ios").constraints.size_band == (200_000, 100_000)
        assert kb.record("t6-whatsapp-default-ios").constraints.size_band is None

    def test_two_variant_rows_share_app_os_quality(self, kb):
        v1 = kb.record("t7-kakaotalk-general-v1")
        v2 = kb.record("t7-kakaotalk-general-v2")
        assert (v1.app, v1.os, v1.quality) == (v2.app, v2.os, v2.quality)
        assert v1.constraints != v2.constraints


def _brute_force_indexes(kb):
    """The per-record filters queries ran before the KB compiled them."""
    overwritten = frozenset(
        rec.record_id for rec in kb.records
        if rec.hop is Hop.CHAIN and rec.distinguishable and any(
            other.hop is Hop.SINGLE
            and other.app == rec.app
            and other.os is rec.os
            and other.media_kind is rec.media_kind
            and other.distinguishable
            and other.constraints == rec.constraints
            for other in kb.records
        )
    )
    usable = [rec for rec in kb.records if rec.distinguishable]
    images = tuple(r for r in usable if r.media_kind is MediaKind.IMAGE)
    return {
        "overwritten_chain_ids": overwritten,
        "image_records": images,
        "_image_cells": _brute_force_image_cells(images),
        "video_singles": tuple(
            r for r in usable if r.media_kind is MediaKind.VIDEO and r.hop is Hop.SINGLE
        ),
        "video_chains": tuple(
            r for r in usable
            if r.media_kind is MediaKind.VIDEO and r.hop is Hop.CHAIN and r.record_id not in overwritten
        ),
    }


def _brute_force_image_cells(images):
    """Each grid cell that some record's +-tolerance square overlaps, mapped
    to every such record in file order; cells a square only borders stay out."""
    tol, side = RESOLUTION_TOLERANCE, 2 * RESOLUTION_TOLERANCE + 1

    def overlaps(rec, x, y):
        return any(x * side - tol <= w <= x * side + side - 1 + tol
                   and y * side - tol <= h <= y * side + side - 1 + tol
                   for w, h in rec.constraints.resolutions)

    near = {(x, y)
            for rec in images for w, h in rec.constraints.resolutions
            for x in range((w - tol) // side - 1, (w + tol) // side + 2)
            for y in range((h - tol) // side - 1, (h + tol) // side + 2)}
    cells = {cell: tuple(rec for rec in images if overlaps(rec, *cell)) for cell in near}
    return {cell: members for cell, members in cells.items() if members}


def _compiled_indexes(kb):
    return {name: getattr(kb, name) for name in _brute_force_indexes(kb)}


def _assert_candidates_match_brute_force(kb):
    """``video_candidates`` equals filtering the video tuples by the two fields."""
    named = [(c.codec_ids, c.video_format_profiles)
             for c in (r.constraints for r in kb.video_singles + kb.video_chains)]
    codecs = {v for codec_ids, _ in named for v in codec_ids} | {"no such codec"}
    profiles = {v for _, vfps in named for v in vfps} | {"no such profile"}

    def admits(rec, codec, profile):
        c = rec.constraints
        return (not c.codec_ids or codec in c.codec_ids) and (
            not c.video_format_profiles or profile in c.video_format_profiles)

    for codec in codecs:
        for profile in profiles:
            assert kb.video_candidates(codec, profile) == (
                tuple(r for r in kb.video_singles if admits(r, codec, profile)),
                tuple(r for r in kb.video_chains if admits(r, codec, profile)),
            ), (codec, profile)


def _hand_built_kb():
    c1 = VideoConstraints(
        extensions=("mp4",), format_profiles=(FormatProfile.BASE_MEDIA,),
        codec_ids=("isom (isom/iso2/avc1/mp41)",), resolutions=((1280, 720),),
    )
    c2 = dataclasses.replace(c1, resolutions=((640, 360),))

    def video(rid, app, os, constraints, nth_app=None, distinguishable=True):
        return FingerprintRecord(
            rid, MediaKind.VIDEO, app, os, "Default",
            hop=Hop.CHAIN if nth_app else Hop.SINGLE, nth_app=nth_app,
            distinguishable=distinguishable, constraints=constraints,
        )

    records = (
        video("t8-b", "B", OS.IOS, c1),
        FingerprintRecord("t6-img", MediaKind.IMAGE, "B", OS.IOS, "Default",
                          constraints=ImageConstraints(((100, 100),))),
        # A placeholder that still carries constraints can only be built directly.
        video("t8-d", "D", OS.IOS, c2, distinguishable=False),
        video("t9-equal", "B", OS.IOS, c1, nth_app="A"),
        video("t9-other-os", "B", OS.ANDROID_ANY, c1, nth_app="A"),
        video("t9-placeholder-single", "D", OS.IOS, c2, nth_app="A"),
        # Relay matching covers videos only; image queries still see it.
        FingerprintRecord("t10-img", MediaKind.IMAGE, "B", OS.IOS, "Default", hop=Hop.CHAIN,
                          nth_app="A", constraints=ImageConstraints(((200, 200),))),
    )
    return KnowledgeBase(tuple(dataclasses.replace(r, index=i) for i, r in enumerate(records)))


class TestCompiledIndexes:
    def test_shipped_kb_matches_brute_force(self, kb):
        assert _compiled_indexes(kb) == _brute_force_indexes(kb)
        assert kb.overwritten_chain_ids  # the shipped KB has overwritten chains to skip
        _assert_candidates_match_brute_force(kb)

    def test_hand_built_kb_matches_brute_force(self):
        kb = _hand_built_kb()
        assert kb.overwritten_chain_ids == {"t9-equal"}
        assert [r.record_id for r in kb.video_chains] == ["t9-other-os", "t9-placeholder-single"]
        assert [r.record_id for r in kb.video_singles] == ["t8-b"]
        assert [r.record_id for r in kb.image_records] == ["t6-img", "t10-img"]
        assert _compiled_indexes(kb) == _brute_force_indexes(kb)
        _assert_candidates_match_brute_force(kb)

    def test_record_lookup(self, kb):
        assert kb.record("t7-discord-default").record_id == "t7-discord-default"
        with pytest.raises(KeyError):
            kb.record("nope")

    def test_replace_rebuilds_indexes(self):
        kb = _hand_built_kb()
        without_single = dataclasses.replace(kb, records=kb.records[1:])
        assert without_single.overwritten_chain_ids == frozenset()
        assert [r.record_id for r in without_single.video_chains] == [
            "t9-equal", "t9-other-os", "t9-placeholder-single",
        ]
        assert _compiled_indexes(without_single) == _brute_force_indexes(without_single)
        with pytest.raises(KeyError):
            without_single.record("t8-b")

    def test_replace_rebuilds_image_cells(self):
        kb = _hand_built_kb()
        img = kb.record("t6-img")
        assert kb.image_candidates(100, 100) == (img,)
        near = FingerprintRecord("t6-near", MediaKind.IMAGE, "C", OS.IOS, "Default", index=len(kb.records),
                                 constraints=ImageConstraints(((110, 90), (90, 110))))
        widened = dataclasses.replace(kb, records=kb.records + (near,))
        assert widened.image_candidates(100, 100) == (img, near)
        assert _compiled_indexes(widened) == _brute_force_indexes(widened)
        narrowed = dataclasses.replace(widened, records=widened.records[2:])
        assert narrowed.image_candidates(100, 100) == (near,)
        assert narrowed.image_candidates(200, 200) == (kb.record("t10-img"),)
        assert _compiled_indexes(narrowed) == _brute_force_indexes(narrowed)

    def test_replace_rebuilds_candidate_index(self):
        kb = _hand_built_kb()
        codec = kb.record("t8-b").constraints.codec_ids[0]
        assert kb.video_candidates(codec, "") == (
            (kb.record("t8-b"),), (kb.record("t9-other-os"), kb.record("t9-placeholder-single")),
        )
        # A wildcard record appended later joins every bucket and the default.
        wildcard = FingerprintRecord(
            "t8-any", MediaKind.VIDEO, "E", OS.IOS, "Default",
            constraints=VideoConstraints(resolutions=((640, 360),)),
        )
        widened = dataclasses.replace(kb, records=kb.records + (wildcard,))
        assert widened.video_candidates(codec, "")[0] == (kb.record("t8-b"), wildcard)
        assert widened.video_candidates("no such codec", "") == ((wildcard,), ())
        assert kb.video_candidates("no such codec", "") == ((), ())
        _assert_candidates_match_brute_force(widened)
        narrowed = dataclasses.replace(kb, records=kb.records[1:])
        assert narrowed.video_candidates(codec, "")[0] == ()
        _assert_candidates_match_brute_force(narrowed)
