import dataclasses
import re
import shutil

import pytest
from hypothesis import example, given, settings, strategies as st

from mediafp import kb as kb_mod
from mediafp.attributes import (
    EXTENSIONS, FormatProfile, ImageAttributes, Marker, MediaKind, OS, VideoAttributes, parse_os,
)
from mediafp.kb import (
    RESOLUTION_TOLERANCE,
    VIDEO_FIELDS,
    Candidate,
    ChainHypothesis,
    FingerprintRecord,
    ImageConstraints,
    KbError,
    KnowledgeBase,
    ManifestMismatch,
    OriginalProfile,
    SchemaError,
    VideoConstraints,
    default_kb_path,
    group_key,
    list_records,
    load_kb,
    load_kb_path,
    validate_kb,
)

from conftest import brute_force_records

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

VIDEO_ORIGINAL = """
[original o-vid]
media = video
os = iOS
resolution = 1920x1080
nominal_size = 5000000
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
    # A group with nothing loaded may be declared as 0.
    kb = load_kb(WHATSAPP_IMAGE_BLOCK + "\n[manifest]\ntable6 = 1\noriginals = 0\ntable7 = 0\n")
    assert kb.manifest == (("table6", 1), ("originals", 0), ("table7", 0))


def test_manifest_mismatch_names_only_the_groups_that_drifted():
    text = (WHATSAPP_IMAGE_BLOCK + IMAGE_RECORD + IMAGE_ORIGINAL + "nominal_size = 2000000\n"
            + "\n[manifest]\ntable6 = 1\noriginals = 0\ntable7 = 0\ntable8 = 3\n")
    with pytest.raises(ManifestMismatch) as caught:
        load_kb(text)
    message = str(caught.value)
    assert message == (
        "originals: declared 0, loaded 1; table6: declared 1, loaded 2; table8: declared 3, loaded 0"
    )
    assert re.search(r"declared (\d+), loaded \1\b", message) is None


@pytest.mark.parametrize("os_line,resolution_line,extra,needle", [
    ("os = iOS", "resolution = 100x100", "unknown_key = 1", "unknown keys"),
    ("os = windows", "resolution = 100x100", "", "unknown OS"),
    ("os = iOS", "resolution = 12x", "", "bad resolution"),
    ("os = iOS", "resolution = 100x100", "markers = MovieSomething", "unknown marker"),
    ("os = iOS", "resolution = 100x100", "hop = triple", "hop"),
    pytest.param("os = iOS", "resolution = 100x100", "nth_app = A\nhop = chain",
                 r"^\[record t7-x\] \(line 2\): unknown keys \['hop'\]$", id="hop-key"),
    pytest.param("os = iOS", "resolution = irregular", "",
                 r"^\[record t7-x\] \(line 2\): bad resolution 'irregular'$", id="irregular-resolution"),
    pytest.param("os = iOS", "resolution = 100x100", "[record t7-y]\nmedia = video\nos = iOS\nextension = mov, mp4",
                 r"^\[record t7-y\] \(line 12\): unknown extension 'mov'$", id="extension-lower-case-mov"),
    pytest.param("os = iOS", "resolution = 100x100", '[record t7-y]\nmedia = video\nos = iOS\nextension = mp4, ""',
                 r"^\[record t7-y\] \(line 12\): unknown extension ''$", id="extension-quoted-empty"),
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
    pytest.param("os = iOS", "resolution = 100x100", VIDEO_ORIGINAL + 'codec_id = "qt", "mp42"',
                 "originals carry exactly one codec id", id="original-codec-id-list"),
    pytest.param("os = iOS", "resolution = 100x100", VIDEO_ORIGINAL + 'video_format_profile = "High@L4", "Main@L3"',
                 "originals carry exactly one video format profile", id="original-video-format-profile-list"),
    pytest.param("os = iOS", "resolution = 100x100", VIDEO_ORIGINAL + "format_profile = QuickTime, Base Media",
                 "originals carry exactly one format profile", id="original-format-profile-list"),
    pytest.param("os = iOS", "resolution = 100x100", VIDEO_ORIGINAL.replace("1920x1080", "1920x1080, 1080x1920"),
                 "originals carry exactly one resolution", id="original-resolution-list"),
    pytest.param("os = iOS", "resolution = 100x100",
                 IMAGE_ORIGINAL + 'nominal_size = 2000000\nextension = MOV\ncodec_id = "qt"',
                 r"keys \['codec_id', 'extension'\] not valid for image originals", id="image-original-video-keys"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_RECORD.replace("resolution = 100x100", ""),
                 "missing key 'resolution'", id="image-without-resolution"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_RECORD.replace("100x100", ""),
                 "at least one resolution", id="image-with-empty-resolution"),
    pytest.param("os = iOS", "", "[record t7-z]\nmedia = video\napp = Z\nos = iOS\nquality = Default",
                 "carries no constraints", id="video-without-constraints"),
    pytest.param("os = iOS", "resolution = 100x100", 'encoder = "Lavf, custom, "x"',
                 r"^\[record t7-x\] \(line 2\): unbalanced quote", id="unbalanced-quote"),
    pytest.param("os = iOS", "resolution = 100x100",
                 IMAGE_ORIGINAL.replace("media = image", "media = audio") + "nominal_size = 2000000",
                 r"^\[original o-img\] \(line 13\): unknown media kind 'audio'$", id="original-unknown-media"),
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


def test_quoted_list_items_keep_their_commas():
    kb = load_kb("""
[record t7-x]
media = video
app = X
os = iOS
quality = Default
codec_id = "isom (isom/iso2/avc1/mp41)"
encoder = "Lavf, custom", "x" , plain,, "a,b,c"
""")
    assert kb.records[0].constraints.encoders == ("Lavf, custom", "x", "plain", "a,b,c")


def test_video_rows_follow_the_field_table():
    assert [key for key, *_ in VIDEO_FIELDS] == [
        "extension", "format_profile", "codec_id", "video_format_profile", "resolution", "encoder",
    ]
    # A field table attribute per field, and markers: no flag restates a row.
    assert ({f.name for f in dataclasses.fields(VideoConstraints) if f.init}
            == {attr for _, attr, *_ in VIDEO_FIELDS} | {"markers"})
    constraints = VideoConstraints(
        extensions=("mp4",), resolutions=((640, 360),), encoders=("Lavf58.20.100",), markers=(Marker.COPYRIGHT,),
    )
    assert [name for name, _, _ in constraints.rows] == ["extension", "resolution", "encoder", "markers"]
    # The field rows hold the record's own tuples, and every row reads the
    # file's value.
    assert all(values is getattr(constraints, attr) for (_, values, _), attr in
               zip(constraints.rows, ("extensions", "resolutions", "encoders")))
    attrs = VideoAttributes("mp4", FormatProfile.BASE_MEDIA, "qt", "", 640, 360, encoder="Lavf58.20.100",
                            markers=frozenset({Marker.COPYRIGHT}))
    assert [get(attrs) for _, _, get in constraints.rows] == [
        "mp4", (640, 360), "Lavf58.20.100", {Marker.COPYRIGHT},
    ]
    assert constraints.matched == ("extension", "resolution", "encoder")
    assert constraints.matched_with_markers == ("extension", "resolution", "encoder", "markers")
    # A field left empty has no row: it constrains nothing.
    unpinned = dataclasses.replace(constraints, resolutions=())
    assert [name for name, _, _ in unpinned.rows] == ["extension", "encoder", "markers"]
    assert unpinned.matched == ("extension", "encoder") and not unpinned.is_empty()
    # The marker row alone is no evidence, whether it passes some markers or any.
    assert VideoConstraints(markers=(Marker.COPYRIGHT,)).is_empty()
    assert VideoConstraints(markers=None).is_empty() and VideoConstraints(markers=None).rows == ()


def _subsets(markers):
    return {frozenset(m for i, m in enumerate(markers) if bits >> i & 1) for bits in range(1 << len(markers))}


def test_marker_sets_are_built_with_the_constraints():
    # The marker rule is the last compiled row, not a field of its own.
    compiled = {f.name for f in dataclasses.fields(VideoConstraints) if not f.init}
    assert compiled == {"rows", "matched", "matched_with_markers"}
    marker_lists = [(), (Marker.COPYRIGHT,), (Marker.COPYRIGHT, Marker.MOVIE_NAME), tuple(Marker)]
    for markers in marker_lists:
        constraints = VideoConstraints(codec_ids=("qt",), markers=markers)
        assert [name for name, _, _ in constraints.rows] == ["codec_id", "markers"]
        name, values, get = constraints.rows[-1]
        # It passes exactly the subsets of the record's markers.
        assert values == _subsets(markers)
        assert get(VideoAttributes("mp4", FormatProfile.BASE_MEDIA, "qt", "", 1, 1,
                                   markers=frozenset(markers))) == frozenset(markers)
        assert constraints.matched == ("codec_id",)
        assert constraints.matched_with_markers == (("codec_id", "markers") if markers else ("codec_id",))
        lifted = dataclasses.replace(constraints, markers=None)
        assert [name for name, _, _ in lifted.rows] == ["codec_id"]
        assert lifted.matched == lifted.matched_with_markers == ("codec_id",)
    # Records with equal marker sets, in any order, share one subsets object.
    first = VideoConstraints(codec_ids=("qt",), markers=(Marker.COPYRIGHT, Marker.MOVIE_NAME))
    second = VideoConstraints(encoders=("x",), markers=(Marker.MOVIE_NAME, Marker.COPYRIGHT, Marker.MOVIE_NAME))
    assert first.rows[-1][1] is second.rows[-1][1]


def test_shipped_records_never_name_markers_as_a_field(kb):
    for rec in kb.records:
        c = rec.constraints
        if not isinstance(c, VideoConstraints):
            continue
        assert "markers" not in c.matched, rec.record_id
        names = [name for name, _, _ in c.rows]
        assert names == list(c.matched) + ([] if c.markers is None else ["markers"]), rec.record_id


def test_quoted_enum_items_are_literal():
    block = """
[record t7-x]
media = video
app = X
os = iOS
quality = Default
codec_id = "qt"
"""
    kb = load_kb(block + 'markers = "Copyright", MovieName\nformat_profile = "Base Media"\n')
    assert kb.records[0].constraints.markers == (Marker.COPYRIGHT, Marker.MOVIE_NAME)
    assert kb.records[0].constraints.format_profiles == (FormatProfile.BASE_MEDIA,)
    # Inside quotes, spaces belong to the value, so no marker or profile has it.
    with pytest.raises(SchemaError, match=r"^\[record t7-x\] \(line 2\): unknown marker ' Copyright'$"):
        load_kb(block + 'markers = " Copyright"\n')
    with pytest.raises(SchemaError, match=r"^\[record t7-x\] \(line 2\): unknown format profile 'Base Media '$"):
        load_kb(block + 'format_profile = "Base Media "\n')


def _reachable_evidence_keys(rec):
    """The matched-field tuples a match of ``rec`` can return: for a video,
    its populated fields, and those plus markers when it lists markers; for
    an image, the resolution, and resolution plus byte size when it has a
    size band; nothing for a placeholder."""
    c = rec.constraints
    if c is None:
        return set()
    if isinstance(c, ImageConstraints):
        return {("resolution",)} | ({("resolution", "byte_size")} if c.size_band else set())
    populated = tuple(name for name, attr, _, _ in VIDEO_FIELDS if getattr(c, attr))
    return {populated} | ({populated + ("markers",)} if c.markers else set())


def test_each_record_builds_exactly_its_reachable_evidence(kb):
    marked = VideoConstraints(codec_ids=("qt",), markers=(Marker.COPYRIGHT,))
    hand_built = [
        FingerprintRecord("t7-marked", MediaKind.VIDEO, "A", OS.IOS, "Default", constraints=marked),
        FingerprintRecord("t7-any", MediaKind.VIDEO, "A", OS.IOS, "Default",
                          constraints=dataclasses.replace(marked, markers=None)),
        FingerprintRecord("t8-unpinned", MediaKind.VIDEO, "A", OS.IOS, "Default",
                          constraints=VideoConstraints(markers=None)),
        FingerprintRecord("t9-relay", MediaKind.VIDEO, "B", OS.IOS, "Low", nth_app="A", constraints=marked),
        FingerprintRecord("t6-banded", MediaKind.IMAGE, "A", OS.IOS, "Default",
                          constraints=ImageConstraints(((100, 100),), (50_000, 5_000))),
        FingerprintRecord("t10-img", MediaKind.IMAGE, "B", OS.IOS, "Default", nth_app="A",
                          constraints=ImageConstraints(((100, 100),))),
        FingerprintRecord("t6-none", MediaKind.IMAGE, "A", OS.IOS, "Default"),
    ]
    assert [sorted(rec.evidence) for rec in hand_built] == [
        [("codec_id",), ("codec_id", "markers")], [("codec_id",)], [()],
        [("codec_id",), ("codec_id", "markers")],
        [("resolution",), ("resolution", "byte_size")], [("resolution",)], [],
    ]
    for rec in kb.records + tuple(hand_built):
        assert set(rec.evidence) == _reachable_evidence_keys(rec), rec.record_id
        for key, value in rec.evidence.items():
            if rec.nth_app and rec.media_kind is MediaKind.VIDEO:
                assert value == ChainHypothesis(rec.nth_app, rec.app, rec.os, rec.quality, key)
            else:
                assert value == Candidate(rec.record_id, rec.app, rec.os, rec.quality, key)
                assert value.used_size_band is ("byte_size" in key)


def test_hop_and_distinguishable_follow_nth_app_and_constraints():
    # A record is a relay exactly when it names nth_app; no second field or
    # property restates it.
    fields = {f.name for f in dataclasses.fields(FingerprintRecord)}
    assert not {"hop", "distinguishable"} & fields
    assert not hasattr(FingerprintRecord, "hop") and not hasattr(kb_mod, "Hop")
    single = FingerprintRecord("t7-a", MediaKind.VIDEO, "A", OS.IOS, "Default")
    relay = dataclasses.replace(single, nth_app="B", constraints=VideoConstraints(codec_ids=("qt",)))
    assert (single.distinguishable, relay.distinguishable) == (False, True)
    assert KnowledgeBase((single, relay)).video_candidates("qt", "") == ((), (relay,))
    assert isinstance(relay.evidence[("codec_id",)], ChainHypothesis)


def test_unreadable_kb_raises_kb_error(tmp_path):
    with pytest.raises(KbError, match="missing.kb"):
        load_kb_path(tmp_path / "missing.kb")
    with pytest.raises(KbError, match=f"^no .kb files under {re.escape(str(tmp_path))}$"):
        load_kb_path(tmp_path)
    (tmp_path / ".table06.kb").write_text(WHATSAPP_IMAGE_BLOCK, encoding="utf-8")
    with pytest.raises(KbError, match=f"^no .kb files under {re.escape(str(tmp_path))}$"):
        load_kb_path(tmp_path)
    (tmp_path / "table06.kb").write_text(WHATSAPP_IMAGE_BLOCK, encoding="utf-8")
    (tmp_path / "sub.kb").mkdir()
    with pytest.raises(KbError, match="sub.kb"):
        load_kb_path(tmp_path)


def test_chain_without_nth_app_rejected():
    # A record is a relay exactly when it names nth_app; `hop` is no key, so
    # a KB that still spells the hop out fails to load.
    with pytest.raises(SchemaError, match=r"^\[record t9-x\] \(line 2\): unknown keys \['hop'\]$"):
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
        assert wild.resolutions == () and wild.markers is None
        assert [name for name, _, _ in wild.rows] == [
            "extension", "format_profile", "codec_id", "video_format_profile", "encoder",
        ]
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
        indist = [r for r in kb.records if not r.distinguishable and not r.nth_app]
        by_group = {}
        for rec in indist:
            by_group[rec.group] = by_group.get(rec.group, 0) + 1
        assert by_group == {"table6": 18, "table8": 4}

    def test_chain_records_are_all_trackable(self, kb):
        # Relay sets record only the rows whose first hop survives; erased
        # relays are comments, not records.
        assert all(r.distinguishable for r in kb.records if r.nth_app)

    def test_video_singles_keep_a_strong_discriminator(self, kb):
        for rec in kb.records:
            if rec.media_kind is not MediaKind.VIDEO or not rec.distinguishable:
                continue
            if rec.nth_app:
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
    """The indexes the KB compiles, found by per-record filters instead."""
    records = brute_force_records(kb)
    return {
        "overwritten_chain_ids": records["overwritten_chain_ids"],
        "_image_cells": _brute_force_image_cells(records["image_records"]),
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
    """``video_candidates`` equals filtering the video records by the two fields."""
    records = brute_force_records(kb)
    singles, chains = records["video_singles"], records["video_chains"]
    named = [(c.codec_ids, c.video_format_profiles) for c in (r.constraints for r in singles + chains)]
    codecs = {v for codec_ids, _ in named for v in codec_ids} | {"no such codec"}
    profiles = {v for _, vfps in named for v in vfps} | {"no such profile"}

    def admits(rec, codec, profile):
        c = rec.constraints
        return (not c.codec_ids or codec in c.codec_ids) and (
            not c.video_format_profiles or profile in c.video_format_profiles)

    for codec in codecs:
        for profile in profiles:
            assert kb.video_candidates(codec, profile) == (
                tuple(r for r in singles if admits(r, codec, profile)),
                tuple(r for r in chains if admits(r, codec, profile)),
            ), (codec, profile)


def _hand_built_kb():
    c1 = VideoConstraints(
        extensions=("mp4",), format_profiles=(FormatProfile.BASE_MEDIA,),
        codec_ids=("isom (isom/iso2/avc1/mp41)",), resolutions=((1280, 720),),
    )
    c2 = dataclasses.replace(c1, resolutions=((640, 360),))

    def video(rid, app, os, constraints, nth_app=None):
        return FingerprintRecord(rid, MediaKind.VIDEO, app, os, "Default", nth_app=nth_app, constraints=constraints)

    records = (
        video("t8-b", "B", OS.IOS, c1),
        FingerprintRecord("t6-img", MediaKind.IMAGE, "B", OS.IOS, "Default",
                          constraints=ImageConstraints(((100, 100),))),
        video("t8-d", "D", OS.IOS, None),  # a placeholder overwrites no relay of its app
        video("t9-equal", "B", OS.IOS, c1, nth_app="A"),
        video("t9-other-os", "B", OS.ANDROID_ANY, c1, nth_app="A"),
        video("t9-placeholder-single", "D", OS.IOS, c2, nth_app="A"),
        # Relay matching covers videos only; image queries still see it.
        FingerprintRecord("t10-img", MediaKind.IMAGE, "B", OS.IOS, "Default",
                          nth_app="A", constraints=ImageConstraints(((200, 200),))),
    )
    return KnowledgeBase(records)


def _ids(records):
    return [r.record_id for r in records]


class TestCompiledIndexes:
    def test_shipped_kb_matches_brute_force(self, kb):
        assert _compiled_indexes(kb) == _brute_force_indexes(kb)
        assert kb.overwritten_chain_ids  # the shipped KB has overwritten chains to skip
        _assert_candidates_match_brute_force(kb)

    def test_hand_built_kb_matches_brute_force(self):
        kb = _hand_built_kb()
        assert kb.overwritten_chain_ids == {"t9-equal"}
        singles, chains = kb.video_candidates(kb.record("t8-b").constraints.codec_ids[0], "")
        assert _ids(chains) == ["t9-other-os", "t9-placeholder-single"]
        assert _ids(singles) == ["t8-b"]
        assert _ids(kb.image_candidates(100, 100) + kb.image_candidates(200, 200)) == ["t6-img", "t10-img"]
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
        codec = kb.record("t8-b").constraints.codec_ids[0]
        assert _ids(without_single.video_candidates(codec, "")[1]) == [
            "t9-equal", "t9-other-os", "t9-placeholder-single",
        ]
        assert _compiled_indexes(without_single) == _brute_force_indexes(without_single)
        _assert_candidates_match_brute_force(without_single)
        with pytest.raises(KeyError):
            without_single.record("t8-b")

    def test_replace_rebuilds_image_cells(self):
        kb = _hand_built_kb()
        img = kb.record("t6-img")
        assert kb.image_candidates(100, 100) == (img,)
        near = FingerprintRecord("t6-near", MediaKind.IMAGE, "C", OS.IOS, "Default",
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


# ---------------------------------------------------------------------------
# Directory loads: each file is split on its own.

def _write_kb_dir(tmp_path, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


def test_directory_kb_is_the_joined_files(kb):
    # The shipped files start with comments or a header, so reading them one
    # by one gives what the joined text gives, here and in the frozen loader.
    texts = [path.read_text(encoding="utf-8") for path in sorted(default_kb_path().glob("*.kb"))]
    assert len(texts) > 1
    assert load_kb("\n".join(texts)) == kb == _parent_load_kb("\n".join(texts))


def test_directory_load_skips_hidden_names(tmp_path, kb):
    # An editor's dangling lock link and a hidden copy of a table sit beside
    # the tables; neither is part of the KB.
    data = tmp_path / "data"
    shutil.copytree(default_kb_path(), data)
    (data / ".#table07.kb").symlink_to("user@host.1234:1700000000")
    shutil.copy(data / "table07.kb", data / ".table07.kb")
    assert load_kb_path(data) == kb
    # Under a visible name, the copy's records would be loaded twice.
    (data / ".table07.kb").rename(data / "table07-copy.kb")
    with pytest.raises(SchemaError, match="duplicate record id 't7-"):
        load_kb_path(data)
    (data / "table07-copy.kb").unlink()
    (data / ".#table07.kb").rename(data / "#table07.kb")
    with pytest.raises(KbError, match="#table07.kb"):
        load_kb_path(data)


def test_block_does_not_continue_into_the_next_file(tmp_path):
    # Joined, the first line of table08.kb would extend the last block of
    # table07.kb; read file by file it is a field outside any block.
    stray = 'encoder = "Lavf57.0.0"\n'
    files = {"table07.kb": IMAGE_RECORD.replace("t6-y", "t7-y"), "table08.kb": stray + WHATSAPP_IMAGE_BLOCK}
    with pytest.raises(SchemaError, match=r"^table08\.kb line 1: field outside any block$"):
        load_kb_path(_write_kb_dir(tmp_path, files))
    with pytest.raises(SchemaError, match=r"^line 1: field outside any block$"):
        load_kb(files["table08.kb"])


@pytest.mark.parametrize("bad_line,error", [
    ("resolution 200x200", r"^table08\.kb line 8: expected 'key = value', got 'resolution 200x200'$"),
    ("resolution = 12x", r"^\[record t8-x\] \(table08\.kb line 2\): bad resolution '12x'$"),
    ("[bogus]", r"^table08\.kb line 8: unknown block '\[bogus\]'$"),
])
def test_directory_errors_name_the_file_and_its_line(tmp_path, bad_line, error):
    # Line numbers count within the file, not across the files before it.
    table08 = IMAGE_RECORD.replace("t6-y", "t8-x").replace("resolution = 100x100", "") + bad_line + "\n"
    files = {"table07.kb": "# first file\n" * 40 + IMAGE_RECORD.replace("t6-y", "t7-y"), "table08.kb": table08}
    with pytest.raises(SchemaError, match=error):
        load_kb_path(_write_kb_dir(tmp_path, files))
    # Loaded alone, as text or as one file, the same text names no file.
    unnamed = error.replace(r"table08\.kb ", "")
    with pytest.raises(SchemaError, match=unnamed):
        load_kb(table08)
    with pytest.raises(SchemaError, match=unnamed):
        load_kb_path(tmp_path / "table08.kb")


def test_bad_value_shared_by_two_blocks_fails_at_the_first(tmp_path):
    # Parsing through the load's memo must not move the error: the first
    # block that holds the bad value names it, in one text or across files.
    bad = IMAGE_RECORD.replace("100x100", "100x100, 5x")
    text = bad.replace("t6-y", "t6-a") + bad.replace("t6-y", "t6-b")
    with pytest.raises(SchemaError, match=r"^\[record t6-a\] \(line 2\): bad resolution '5x'$"):
        load_kb(text)
    files = {"table06.kb": bad.replace("t6-y", "t6-a"), "table07.kb": bad.replace("t6-y", "t7-b")}
    with pytest.raises(SchemaError, match=r"^\[record t6-a\] \(table06\.kb line 2\): bad resolution '5x'$"):
        load_kb_path(_write_kb_dir(tmp_path, files))


def test_records_share_the_parsed_value_of_one_load():
    text = IMAGE_RECORD.replace("t6-y", "t6-a") + IMAGE_RECORD.replace("t6-y", "t6-b")
    first, second = (rec.constraints.resolutions for rec in load_kb(text).records)
    assert first == ((100, 100),) and first is second
    # A second load parses again: nothing is kept between loads.
    assert load_kb(text).records[0].constraints.resolutions is not first


# ---------------------------------------------------------------------------
# Parser parity: the loader as it was before values were parsed once per
# load, frozen here with the value parsers and key sets it used, so a change
# to the live ones is compared against these.  For any text, the loader must
# give an equal KB or fail with the same error class and message.  One
# deliberate change since: an original with an unknown media kind fails with
# the message a record gives, not with the enum's own text.  The live loader
# also reads a quoted marker literally (``" Copyright"`` is unknown), where
# this one strips it; no generated text quotes a marker.

_PARENT_SECTION_RE = re.compile(r"^\[(\w+)(?:\s+(\S+))?\]$")
_PARENT_RESOLUTION_RE = re.compile(r"^(\d+)x(\d+)$")
_PARENT_LIST_ITEM_RE = re.compile(r'(?:[^,"]+|"[^"]*")+')


def _parent_unquote(item):
    item = item.strip()
    if len(item) >= 2 and item[0] == '"' and item[-1] == '"':
        return item[1:-1]
    return item


def _parent_parse_list(value, where):
    if value.count('"') % 2:
        raise SchemaError(f"{where}: unbalanced quote in {value!r}")
    return tuple([_parent_unquote(part) for part in _PARENT_LIST_ITEM_RE.findall(value) if part.strip()])


def _parent_parse_resolutions(value, where):
    pairs = []
    for part in _parent_parse_list(value, where):
        m = _PARENT_RESOLUTION_RE.match(part)
        if m is None:
            raise SchemaError(f"{where}: bad resolution {part!r}")
        width, height = int(m.group(1)), int(m.group(2))
        if width < 1 or height < 1:
            raise SchemaError(f"{where}: resolution sides must be positive")
        pairs.append((width, height))
    return tuple(pairs)


def _parent_parse_bool(value, where):
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    raise SchemaError(f"{where}: expected a boolean, got {value!r}")


def _parent_parse_format_profiles(value, where):
    profiles = []
    for item in _parent_parse_list(value, where):
        try:
            profiles.append(FormatProfile(item))
        except ValueError:
            raise SchemaError(f"{where}: unknown format profile {item!r}") from None
    return tuple(profiles)


def _parent_parse_markers(value, where):
    markers = []
    for item in _parent_parse_list(value, where):
        try:
            markers.append(Marker(item.strip()))
        except ValueError:
            raise SchemaError(f"{where}: unknown marker {item!r}") from None
    return tuple(markers)


# (KB key, VideoConstraints attribute, parser), in check order.
_PARENT_VIDEO_FIELDS = (
    ("extension", "extensions", _parent_parse_list),
    ("format_profile", "format_profiles", _parent_parse_format_profiles),
    ("codec_id", "codec_ids", _parent_parse_list),
    ("video_format_profile", "video_format_profiles", _parent_parse_list),
    ("resolution", "resolutions", _parent_parse_resolutions),
    ("encoder", "encoders", _parent_parse_list),
)
_PARENT_VIDEO_ONLY_KEYS = frozenset({
    "extension", "format_profile", "codec_id", "video_format_profile", "encoder", "markers",
})
_PARENT_IMAGE_ONLY_KEYS = frozenset({"size_band"})
_PARENT_RECORD_KEYS = frozenset({  # changed on purpose: no "hop" key
    "media", "app", "os", "quality", "nth_app", "indistinguishable", "resolution",
}) | _PARENT_VIDEO_ONLY_KEYS | _PARENT_IMAGE_ONLY_KEYS
_PARENT_ORIGINAL_KEYS = frozenset({
    "media", "os", "extension", "format_profile", "codec_id",
    "video_format_profile", "resolution", "nominal_size",
})

class _ParentBlock:
    def __init__(self, kind, name, line_no):
        self.kind = kind
        self.name = name
        self.line_no = line_no
        self.fields = {}

    def where(self):
        label = self.name or self.kind
        return f"[{self.kind} {label}] (line {self.line_no})"


def _parent_split_blocks(text):
    blocks = []
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _PARENT_SECTION_RE.match(line)
        if m:
            kind, name = m.group(1), m.group(2)
            if kind not in ("record", "original", "manifest"):
                raise SchemaError(f"line {line_no}: unknown block {line!r}")
            if kind in ("record", "original") and not name:
                raise SchemaError(f"line {line_no}: [{kind}] block needs an id")
            current = _ParentBlock(kind, name, line_no)
            blocks.append(current)
            continue
        if "=" not in line:
            raise SchemaError(f"line {line_no}: expected 'key = value', got {raw!r}")
        if current is None:
            raise SchemaError(f"line {line_no}: field outside any block")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in current.fields:
            raise SchemaError(f"{current.where()}: duplicate key {key!r}")
        current.fields[key] = value.strip()
    return blocks


def _parent_build_record(block):
    where = block.where()
    unknown = set(block.fields) - _PARENT_RECORD_KEYS
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    f = block.fields

    def require(key):
        if key not in f:
            raise SchemaError(f"{where}: missing key {key!r}")
        return f[key]

    try:
        media = MediaKind(require("media"))
    except ValueError:
        raise SchemaError(f"{where}: unknown media kind {f['media']!r}") from None
    try:
        rec_os = parse_os(require("os"))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    nth_app = f.get("nth_app") or None  # changed on purpose: no hop agreement checks
    indistinguishable = _parent_parse_bool(f["indistinguishable"], where) if "indistinguishable" in f else False

    wrong_kind = _PARENT_VIDEO_ONLY_KEYS if media is MediaKind.IMAGE else _PARENT_IMAGE_ONLY_KEYS
    used_wrong = wrong_kind & set(f)
    if used_wrong:
        raise SchemaError(f"{where}: keys {sorted(used_wrong)} not valid for {media.value} records")

    constraint_keys = set(f) & (_PARENT_VIDEO_ONLY_KEYS | _PARENT_IMAGE_ONLY_KEYS | {"resolution"})
    if indistinguishable:
        if constraint_keys:
            raise SchemaError(f"{where}: indistinguishable records carry no constraints")
        constraints = None
    elif media is MediaKind.IMAGE:
        resolutions = _parent_parse_resolutions(require("resolution"), where)
        if not resolutions:
            raise SchemaError(f"{where}: image records need at least one resolution")
        size_band = None
        if "size_band" in f:
            m = re.match(r"^(\d+)\s*\+-\s*(\d+)$", f["size_band"])
            if m is None:
                raise SchemaError(f"{where}: size_band must look like '100000 +- 10000'")
            size_band = (int(m.group(1)), int(m.group(2)))
        constraints = ImageConstraints(resolutions, size_band)
    else:
        # Changed on purpose: `resolution = irregular` is no wildcard, so it
        # fails as any other bad resolution does.
        values = {
            attr: parse(f[key], where)
            for key, attr, parse in _PARENT_VIDEO_FIELDS
            if key in f
        }
        markers_value = f.get("markers", "").strip()
        markers_any = markers_value.lower() == "any"
        # Changed on purpose: the constraints' shape, with None for any markers.
        markers = None if markers_any else _parent_parse_markers(markers_value, where) if markers_value else ()
        # Changed on purpose: an extension no attribute vector can hold is an error.
        for ext in values.get("extensions", ()):
            if ext not in EXTENSIONS:
                raise SchemaError(f"{where}: unknown extension {ext!r}")
        constraints = VideoConstraints(**values, markers=markers)
        if constraints.is_empty():
            raise SchemaError(f"{where}: distinguishable video record carries no constraints")

    return FingerprintRecord(
        record_id=block.name or "",
        media_kind=media,
        app=require("app"),
        os=rec_os,
        quality=require("quality"),
        nth_app=nth_app,
        constraints=constraints,
    )


def _parent_build_original(block):
    where = block.where()
    unknown = set(block.fields) - _PARENT_ORIGINAL_KEYS
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    f = block.fields
    for key in ("media", "os", "resolution", "nominal_size"):
        if key not in f:
            raise SchemaError(f"{where}: missing key {key!r}")
    used_wrong = _PARENT_VIDEO_ONLY_KEYS & set(f) if f["media"] == MediaKind.IMAGE.value else None
    if used_wrong:
        raise SchemaError(f"{where}: keys {sorted(used_wrong)} not valid for image originals")
    values = {}
    for key, _, parse in _PARENT_VIDEO_FIELDS:
        if key in f:
            parsed = parse(f[key], where)
            if len(parsed) != 1:
                raise SchemaError(f"{where}: originals carry exactly one {key.replace('_', ' ')}")
            values[key] = parsed[0]
    if not f["nominal_size"].isdecimal():
        raise SchemaError(f"{where}: nominal_size must be a byte count, got {f['nominal_size']!r}")
    if f["media"] not in ("image", "video"):  # changed on purpose: the message a record gives
        raise SchemaError(f"{where}: unknown media kind {f['media']!r}")
    try:
        os_source = parse_os(f["os"])
        # Changed on purpose: an original is its attribute vector, built here
        # with the defaults the parent's property filled in on every read.
        width, length = values["resolution"]
        size = int(f["nominal_size"])
        if f["media"] == "image":
            attributes = ImageAttributes(width=width, length=length, byte_size=size)
        else:
            attributes = VideoAttributes(
                extension=values.get("extension") or "mp4",
                format_profile=values.get("format_profile") or FormatProfile.BASE_MEDIA,
                codec_id=values.get("codec_id") or "",
                video_format_profile=values.get("video_format_profile") or "",
                width=width,
                length=length,
                byte_size=size,
            )
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    return OriginalProfile(block.name or "", os_source, attributes)


def _parent_load_kb(text):
    records = []
    originals = []
    manifest = None

    for block in _parent_split_blocks(text):
        if block.kind == "record":
            records.append(_parent_build_record(block))
        elif block.kind == "original":
            originals.append(_parent_build_original(block))
        else:
            if manifest is not None:
                raise SchemaError(f"{block.where()}: duplicate manifest block")
            manifest = []
            for key, value in block.fields.items():
                try:
                    manifest.append((key, int(value)))
                except ValueError:
                    raise SchemaError(f"{block.where()}: count for {key!r} is not an integer") from None

    seen = set()
    for rec in records:
        if rec.record_id in seen:
            raise SchemaError(f"duplicate record id {rec.record_id!r}")
        seen.add(rec.record_id)

    kb = KnowledgeBase(
        records=tuple(records),
        originals=tuple(originals),
        manifest=tuple(manifest) if manifest is not None else None,
    )
    if manifest is not None:
        kb_mod._verify_manifest(kb)
    return kb


def _outcome(load, text):
    try:
        return load(text)
    except Exception as exc:  # noqa: BLE001 - any failure must match in class and message
        return type(exc), str(exc)


# Every separator str.splitlines breaks on, and whitespace strip() removes
# that is not one of them.
_LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_PAD = st.text(st.sampled_from(" \t\xa0\u3000"), max_size=2)
# A few values per key, good and bad, so records share them.
_FIELD_VALUES = {
    "media": ["video", "image", "audio"],
    "app": ["A", "B", "WhatsApp"],
    "os": ["iOS", "android", "windows"],
    "quality": ["Default", "High"],
    "hop": ["single", "chain", "triple"],
    "nth_app": ["A", ""],
    "indistinguishable": ["true", "no", "maybe"],
    "extension": ["mp4", "MOV, mp4", "mp4,, MOV", "100x100", 'mov, ""'],  # 100x100: another parser reads it too
    "format_profile": ["Base Media", "QuickTime, Base Media Version 2", "Nope"],
    "codec_id": ['"qt"', '"isom (isom/iso2/avc1/mp41)"', '"qt", "mp42', '"a = b"'],
    "video_format_profile": ['"Main@L3"', '"High@L4", "Main@L3.1"'],
    "resolution": ["100x100", "100x100, 200x150", "irregular", "IRREGULAR", "12x", "0x5", ""],
    "encoder": ['"Lavf58.20.100"', '"Lavf, custom", x'],
    "markers": ["any", "Copyright", "MovieMore, Copyright", "Bogus", ""],
    "size_band": ["100000 +- 10000", "5 +-1", "big"],
    "nominal_size": ["2000000", "-5", "3"],
    "table6": ["1", "2", "x"],
    "originals": ["0", "1"],
    "unknown_key": ["1"],
}
def _field_line(draw, key):
    value = draw(st.sampled_from(_FIELD_VALUES[key]))
    return f"{draw(_PAD)}{key}{draw(_PAD)}={draw(_PAD)}{value}{draw(_PAD)}"


@st.composite
def _any_field_line(draw):
    return _field_line(draw, draw(st.sampled_from(sorted(_FIELD_VALUES))))


@st.composite
def _odd_line(draw):
    """A line that is neither a header nor a field of the block's own kind."""
    line = draw(_any_field_line() | st.sampled_from([
        "", "# comment = with an equals sign", "#[record t6-z]", "[x = y", "[record t6-a] = 1", "= v",
        "=", "no equals sign", "[record t6-a", "t6-a]", "[record]", "[bogus]", "[manifest] x",
    ]))
    return f"{draw(_PAD)}{line}{draw(_PAD)}"
_BLOCK_KEYS = {
    # (header, keys every block of the kind should have, keys it may have)
    "record": (["t6-a", "t6-b", "t7-c", "t8-d"], ["media", "app", "os", "quality"],
               ["hop", "nth_app", "indistinguishable", "extension", "format_profile", "codec_id",
                "video_format_profile", "resolution", "encoder", "markers", "size_band"]),
    "original": (["o-a", "o-b"], ["media", "os", "resolution", "nominal_size"],
                 ["extension", "format_profile", "codec_id", "video_format_profile"]),
    "manifest": ([""], [], ["table6", "originals"]),
}


def _rarely(strategy):
    """One draw of ``strategy`` as a one-item list, a quarter of the time; else []."""
    return st.one_of(st.just([]), st.just([]), st.just([]), strategy.map(lambda x: [x]))


@st.composite
def _kb_texts(draw):
    """Blocks of every kind with a few values per key, good and bad, so
    records share them; now and then a required key is missing or an odd
    line, a duplicate or an unknown key is added; fields may come before
    the first block, and lines end with any line break."""
    lines = draw(_rarely(_odd_line()))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(sorted(_BLOCK_KEYS)))
        names, required, optional = _BLOCK_KEYS[kind]
        name = draw(st.sampled_from(names))
        lines.append(f"{draw(_PAD)}[{kind}{' ' + name if name else ''}]{draw(_PAD)}")
        keys = draw(st.lists(st.sampled_from(required), unique=True, min_size=len(required) - 1)) if required else []
        keys += draw(st.lists(st.sampled_from(optional), unique=True, max_size=6))
        lines += [_field_line(draw, key) for key in draw(st.permutations(keys))]
        lines += draw(_rarely(_odd_line()))
    breaks = draw(st.lists(st.sampled_from(_LINE_BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + brk for line, brk in zip(lines, breaks))


_VALID_VIDEO = """[record t7-v{i}]
media = video
app = {app}
os = iOS
quality = Default
codec_id = "qt"
resolution = {resolution}
markers = {markers}
"""


@st.composite
def _loadable_kb_texts(draw):
    """Texts that mostly load: valid video records drawing from few values,
    so the memo serves most of them, separated by any line break."""
    blocks = [
        _VALID_VIDEO.format(
            i=i, app=draw(st.sampled_from("AB")),
            resolution=draw(st.sampled_from(["100x100", "100x100, 200x150", "", "irregular", "5x"])),
            markers=draw(st.sampled_from(["any", "Copyright", "MovieMore, Copyright", "Bogus"])),
        )
        for i in range(draw(st.integers(1, 6)))
    ]
    brk = draw(st.sampled_from(_LINE_BREAKS))
    return "".join(blocks).replace("\n", brk)


@settings(max_examples=600, deadline=None)
@given(_kb_texts() | _loadable_kb_texts())
@example("[record t6-a]\r\nmedia = image\x85app = A\u2028os = iOS\u2029quality = X\vresolution = 1x1\x1c")
@example("encoder = x\n[record t6-a]")
@example("[x = y\n")
@example("\xa0no equals sign\t\n")
@example("[original o-a]\nmedia = audio\nos = iOS\nresolution = 1x1\nnominal_size = 5\n")
@example("\u3000[record t6-a]\xa0\n\xa0media\u3000=\u3000image\xa0\n")
@example('[record t7-a]\nmedia = video\napp = A\nos = iOS\nquality = D\nextension = mp4, ""\n')
def test_loader_matches_the_frozen_parent(text):
    assert _outcome(load_kb, text) == _outcome(_parent_load_kb, text)
