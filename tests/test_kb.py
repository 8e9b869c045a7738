import dataclasses
import hashlib
import os
import re
import shutil
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from mediafp import kb as kb_mod
from mediafp.attributes import FormatProfile, ImageAttributes, Marker, MediaKind, OS, VideoAttributes
from mediafp.kb import (
    CONTAINER_FIELDS,
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


def test_manifest_check_finds_each_record_group_once(monkeypatch):
    calls = []
    real = kb_mod.group_key
    monkeypatch.setattr(kb_mod, "group_key", lambda record_id: calls.append(record_id) or real(record_id))
    kb = kb_mod.load_kb_path()
    assert kb.manifest is not None
    assert sorted(calls) == sorted(rec.record_id for rec in kb.records)


_VIDEO_RECORD = """
[record t7-y]
media = video
app = Y
os = iOS
quality = Default
"""

# The four container fields every video record and video original names.
_CONTAINER_LINES = {
    "extension": "extension = mp4",
    "format_profile": "format_profile = Base Media",
    "codec_id": 'codec_id = "isom (isom/iso2/avc1/mp41)"',
    "video_format_profile": 'video_format_profile = "Main@L3"',
}
_CONTAINER = "".join(line + "\n" for line in _CONTAINER_LINES.values())
_FULL_VIDEO_ORIGINAL = VIDEO_ORIGINAL + _CONTAINER


def _without(text, key, empty):
    """``text`` with its ``key`` line left out, or with an empty value."""
    line = _CONTAINER_LINES[key]
    return text.replace(line, f"{key} =" if empty else "")


# A case with an anchored message for each SchemaError the loader raises; the
# ManifestMismatch and the KbErrors of unreadable paths have theirs in the
# manifest tests and test_unreadable_kb_raises_kb_error.  The record under
# test starts at line 2, and `extra` at line 12; a case whose os_line is None
# is the whole text.
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
    pytest.param("os = iOS", "resolution = 100x100, 0x5", "",
                 r"^\[record t7-x\] \(line 2\): resolution sides must be positive$", id="resolution-side-zero"),
    pytest.param("os = plan9", "resolution = 100x100", "",
                 r"^\[record t7-x\] \(line 2\): unknown OS 'plan9'$", id="unknown-os"),
    pytest.param("os = iOS", "resolution = 100x100", _VIDEO_RECORD + "format_profile = Nope",
                 r"^\[record t7-y\] \(line 13\): unknown format profile 'Nope'$", id="unknown-format-profile"),
    pytest.param("os = iOS", "resolution = 100x100", "[record t7-y]\nmedia = video\nos = iOS\nextension = mov, mp4",
                 r"^\[record t7-y\] \(line 12\): unknown extension 'mov'$", id="extension-lower-case-mov"),
    pytest.param("os = iOS", "resolution = 100x100", '[record t7-y]\nmedia = video\nos = iOS\nextension = mp4, ""',
                 r"^\[record t7-y\] \(line 12\): unknown extension ''$", id="extension-quoted-empty"),
    ("os = iOS", "resolution = 100x100", "markers_required = Copyright", "unknown keys"),
    pytest.param("os = iOS", "resolution = 100x100", "[options]\nencoder_prefix_match = true",
                 r"^line 12: unknown block '\[options\]'$", id="options-block"),
    pytest.param("os = iOS", "resolution = 100x100", "[record]",
                 r"^line 12: \[record\] block needs an id$", id="block-without-id"),
    pytest.param("os = iOS", "resolution = 100x100", "resolution 200x200",
                 r"^line 12: expected 'key = value', got 'resolution 200x200'$", id="no-equals-sign"),
    pytest.param(None, None, 'encoder = "x"\n' + IMAGE_RECORD,
                 r"^line 1: field outside any block$", id="field-outside-any-block"),
    pytest.param("os = iOS", "resolution = 100x100", "app = Y",
                 r"^\[record t7-x\] \(line 2\): duplicate key 'app'$", id="duplicate-key"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_RECORD + "resolution_tolerance = 4",
                 r"^\[record t6-y\] \(line 13\): unknown keys \['resolution_tolerance'\]$", id="resolution-tolerance"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_ORIGINAL + "nominal_size = big",
                 r"^\[original o-img\] \(line 13\): nominal_size must be a byte count, got 'big'$",
                 id="nominal-size-not-integer"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_ORIGINAL + "nominal_size = -5",
                 r"^\[original o-img\] \(line 13\): nominal_size must be a byte count, got '-5'$",
                 id="nominal-size-negative"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_ORIGINAL + "nominal_size = 3",
                 r"^\[original o-img\] \(line 13\): byte_size must be >= 4$",
                 id="nominal-size-below-image-minimum"),
    pytest.param("os = iOS", "resolution = 100x100", 'encoder = "Lavf\udcff"',
                 r"^\S+bad\.kb: not UTF-8 text \(byte 217: invalid start byte\)$", id="not-utf8"),
    pytest.param("os = iOS", "resolution = 100x100", VIDEO_ORIGINAL + 'codec_id = "qt", "mp42"',
                 r"^\[original o-vid\] \(line 13\): originals carry exactly one codec id$",
                 id="original-codec-id-list"),
    pytest.param("os = iOS", "resolution = 100x100", VIDEO_ORIGINAL + 'video_format_profile = "High@L4", "Main@L3"',
                 r"^\[original o-vid\] \(line 13\): originals carry exactly one video format profile$",
                 id="original-video-format-profile-list"),
    pytest.param("os = iOS", "resolution = 100x100", VIDEO_ORIGINAL + "format_profile = QuickTime, Base Media",
                 r"^\[original o-vid\] \(line 13\): originals carry exactly one format profile$",
                 id="original-format-profile-list"),
    pytest.param("os = iOS", "resolution = 100x100", VIDEO_ORIGINAL.replace("1920x1080", "1920x1080, 1080x1920"),
                 r"^\[original o-vid\] \(line 13\): originals carry exactly one resolution$",
                 id="original-resolution-list"),
    pytest.param("os = iOS", "resolution = 100x100",
                 IMAGE_ORIGINAL + 'nominal_size = 2000000\nextension = MOV\ncodec_id = "qt"',
                 r"^\[original o-img\] \(line 13\): keys \['codec_id', 'extension'\] not valid for image originals$",
                 id="image-original-video-keys"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_RECORD.replace("resolution = 100x100", ""),
                 r"^\[record t6-y\] \(line 13\): missing key 'resolution'$", id="image-without-resolution"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_RECORD.replace("100x100", ""),
                 r"^\[record t6-y\] \(line 13\): image records need at least one resolution$",
                 id="image-with-empty-resolution"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_RECORD + "size_band = 5 +- big",
                 r"^\[record t6-y\] \(line 13\): size_band must look like '100000 \+- 10000'$", id="bad-size-band"),
    pytest.param("os = iOS", "", "[record t7-z]\nmedia = video\napp = Z\nos = iOS\nquality = Default",
                 r"^\[record t7-z\] \(line 12\): video records need at least one extension$",
                 id="video-without-constraints"),
    # Every video record and video original names each container field.
    *[pytest.param(None, None, _without(_VIDEO_RECORD + _CONTAINER, key, empty),
                   rf"^\[record t7-y\] \(line 2\): video records need at least one {key.replace('_', ' ')}$",
                   id=f"video-record-{'empty' if empty else 'without'}-{key}")
      for key in _CONTAINER_LINES for empty in (False, True)],
    *[pytest.param(None, None, _without(_FULL_VIDEO_ORIGINAL, key, empty),
                   rf"^\[original o-vid\] \(line 2\): originals carry exactly one {key.replace('_', ' ')}$"
                   if empty else rf"^\[original o-vid\] \(line 2\): missing key '{key}'$",
                   id=f"video-original-{'empty' if empty else 'without'}-{key}")
      for key in _CONTAINER_LINES for empty in (False, True)],
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_RECORD + "nth_app = A",
                 r"^\[record t6-y\] \(line 13\): only video records may name nth_app$", id="image-with-nth-app"),
    pytest.param("os = iOS", "resolution = 100x100",
                 IMAGE_RECORD.replace("resolution = 100x100", "indistinguishable = true") + "nth_app = A",
                 r"^\[record t6-y\] \(line 13\): only video records may name nth_app$",
                 id="image-placeholder-with-nth-app"),
    # An OS is spelled as reports print it, and "any" markers are lower case.
    *[pytest.param(f"os = {spelling}", "resolution = 100x100", "",
                   rf"^\[record t7-x\] \(line 2\): unknown OS '{spelling}'$", id=f"os-{spelling}")
      for spelling in ("ios", "IOS", "android", "androidany")],
    pytest.param("os = iOS", "resolution = 100x100", "markers = ANY",
                 r"^\[record t7-x\] \(line 2\): unknown marker 'ANY'$", id="markers-upper-case-any"),
    pytest.param("os = iOS", "resolution = 100x100", 'encoder = "Lavf, custom, "x"',
                 r"""^\[record t7-x\] \(line 2\): unbalanced quote in '"Lavf, custom, "x"'$""", id="unbalanced-quote"),
    pytest.param("os = iOS", "resolution = 100x100",
                 IMAGE_ORIGINAL.replace("media = image", "media = audio") + "nominal_size = 2000000",
                 r"^\[original o-img\] \(line 13\): unknown media kind 'audio'$", id="original-unknown-media"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_ORIGINAL.replace("media = image", "media = audio"),
                 r"^\[original o-img\] \(line 13\): unknown media kind 'audio'$",
                 id="original-unknown-media-before-missing-size"),
    *[pytest.param("os = iOS", "resolution = 100x100", f"indistinguishable = {value}",
                   rf"^\[record t7-x\] \(line 2\): indistinguishable must be 'true', got '{value}'$",
                   id=f"indistinguishable-{value}") for value in ("no", "yes", "false")],
    pytest.param("os = iOS", "resolution = 100x100", "indistinguishable = true",
                 r"^\[record t7-x\] \(line 2\): indistinguishable records carry no constraints$",
                 id="indistinguishable-with-constraints"),
    pytest.param("os = iOS", "resolution = 100x100", "size_band = 5 +- 1\nindistinguishable = maybe",
                 r"^\[record t7-x\] \(line 2\): keys \['size_band'\] not valid for video records$",
                 id="wrong-kind-key-before-indistinguishable"),
    *[pytest.param("os = iOS", "resolution = 100x100", record, rf"^\[record t6-y\] \(line 13\): empty {key}$",
                   id=f"empty-{key}")
      for key, record in [("app", IMAGE_RECORD.replace("app = Y", "app =")),
                          ("quality", IMAGE_RECORD.replace("quality = Default", "quality =")),
                          ("nth_app", IMAGE_RECORD + "nth_app =")]],
    pytest.param("os = iOS", "resolution = 100x100", "[manifest]\ntable7 = 1\n[manifest]",
                 r"^\[manifest\] \(line 14\): duplicate manifest block$", id="duplicate-manifest"),
    pytest.param("os = iOS", "resolution = 100x100", "[manifest]\ntable7 = one",
                 r"^\[manifest\] \(line 12\): count for 'table7' is not an integer$",
                 id="manifest-count-not-integer"),
    pytest.param("os = iOS", "resolution = 100x100", _VIDEO_RECORD.replace("t7-y", "t7-x") + _CONTAINER,
                 r"^duplicate record id 't7-x'$", id="duplicate-record-id"),
    # Every KB number is ASCII decimal digits: int() and \d would also read
    # these, the first two as 100x100 and (5, 1).
    pytest.param("os = iOS", "resolution = \u0661\u0660\u0660x\u0661\u0660\u0660", "",
                 r"^\[record t7-x\] \(line 2\): bad resolution '\u0661\u0660\u0660x\u0661\u0660\u0660'$",
                 id="resolution-arabic-indic-digits"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_RECORD + "size_band = \u0665 +- 1",
                 r"^\[record t6-y\] \(line 13\): size_band must look like '100000 \+- 10000'$",
                 id="size-band-arabic-indic-digits"),
    pytest.param("os = iOS", "resolution = 100x100", IMAGE_ORIGINAL + "nominal_size = \u0662\u0660\u0660\u0660",
                 r"^\[original o-img\] \(line 13\): nominal_size must be a byte count, got '\u0662\u0660\u0660\u0660'$",
                 id="nominal-size-arabic-indic-digits"),
    *[pytest.param("os = iOS", "resolution = 100x100", f"[manifest]\ntable7 = {count}",
                   rf"^\[manifest\] \(line 12\): count for 'table7' is not an integer$",
                   id=f"manifest-count-{name}")
      for name, count in [("plus-sign", "+1"), ("underscore", "1_0"), ("minus-sign", "-1"),
                          ("fullwidth-digit", "\uff11")]],
])
def test_schema_errors(tmp_path, os_line, resolution_line, extra, needle):
    # Through a file, so text that is not UTF-8 (written here from a lone
    # surrogate) reaches the decoder.
    text = extra if os_line is None else f"""
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


_MANY_DIGITS = "1" * 5000


# int() refuses a number this long with ValueError; the loader names the block.
@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() reads any number of digits")
@pytest.mark.parametrize("text,where", [
    (IMAGE_RECORD.replace("100x100", f"{_MANY_DIGITS}x1"), r"\[record t6-y\] \(line 2\)"),
    (IMAGE_ORIGINAL + f"nominal_size = {_MANY_DIGITS}", r"\[original o-img\] \(line 2\)"),
    (f"[manifest]\ntable6 = {_MANY_DIGITS}", r"\[manifest\] \(line 1\)"),
], ids=["resolution", "nominal-size", "manifest-count"])
def test_a_number_past_the_int_digit_limit_is_a_schema_error(text, where):
    with pytest.raises(SchemaError, match=f"^{where}: Exceeds the limit"):
        load_kb(text)


# The container fields of _CONTAINER, as VideoConstraints holds them.
_CONTAINER_FIELDS = dict(extensions=("mp4",), format_profiles=(FormatProfile.BASE_MEDIA,),
                         codec_ids=("isom (isom/iso2/avc1/mp41)",), video_format_profiles=("Main@L3",))


def _video(record_id, app, os, quality, nth_app=None, **constraints):
    return FingerprintRecord(record_id, MediaKind.VIDEO, app, os, quality, nth_app=nth_app,
                             constraints=VideoConstraints(**{**_CONTAINER_FIELDS, **constraints}))


# Texts that load, each with the KB it gives: every kind of block, every value
# parser, the markers rule, originals, and the line breaks and padding a line
# may carry.
@pytest.mark.parametrize("text,expected", [
    pytest.param("[record t6-a]\r\nmedia = image\x85app = A\u2028os = iOS\u2029quality = X\vresolution = 1x1\x1c",
                 KnowledgeBase((FingerprintRecord("t6-a", MediaKind.IMAGE, "A", OS.IOS, "X",
                                                  constraints=ImageConstraints(((1, 1),))),)),
                 id="any-line-break"),
    pytest.param("# a comment = not a field\n\n\u3000[record t6-b]\xa0\n\xa0media\u3000=\u3000image\xa0\napp = B\n"
                 "os = Android43\nquality = High\nresolution = 1x2,, 30x40\nsize_band = 5 +-1\n",
                 KnowledgeBase((FingerprintRecord("t6-b", MediaKind.IMAGE, "B", OS.ANDROID43, "High",
                                                  constraints=ImageConstraints(((1, 2), (30, 40)), (5, 1))),)),
                 id="padding-comments-and-size-band"),
    pytest.param('[record t7-a]\nmedia = video\napp = A\nos = AndroidAny\nquality = D\nextension = MOV, mp4\n'
                 'format_profile = QuickTime, "Base Media Version 2"\ncodec_id = "qt", "mp42 (isom/mp42)"\n'
                 'video_format_profile = "Main@L3.1"\nresolution =\nencoder = "Lavf, custom", x\nmarkers = any\n',
                 KnowledgeBase((_video("t7-a", "A", OS.ANDROID_ANY, "D", extensions=("MOV", "mp4"),
                                       format_profiles=(FormatProfile.QUICKTIME, FormatProfile.BASE_MEDIA_V2),
                                       codec_ids=("qt", "mp42 (isom/mp42)"), video_format_profiles=("Main@L3.1",),
                                       encoders=("Lavf, custom", "x"), markers=None),)),
                 id="video-fields-and-any-markers"),
    pytest.param('[record t7-b]\nmedia = video\napp = B\nos = iOS\nquality = D\nresolution = 640x360\n' + _CONTAINER
                 + '[record t9-c]\nmedia = video\napp = C\nos = iOS\nquality = Low\nnth_app = B\n' + _CONTAINER
                 + 'markers = MovieName, Copyright\n[record t7-d]\nmedia = image\napp = D\nos = Any\nquality = D\n'
                 'indistinguishable = true\n',
                 KnowledgeBase((
                     _video("t7-b", "B", OS.IOS, "D", resolutions=((640, 360),)),
                     _video("t9-c", "C", OS.IOS, "Low", nth_app="B", markers=(Marker.MOVIE_NAME, Marker.COPYRIGHT)),
                     FingerprintRecord("t7-d", MediaKind.IMAGE, "D", OS.ANY, "D"),
                 )),
                 id="no-markers-relay-and-placeholder"),
    # A quoted empty item is the empty string, as a video without an avcC
    # box reports its video format profile.
    pytest.param('[original o-v]\nmedia = video\nos = iOS\nresolution = 1920x1080\nnominal_size = 5000000\n'
                 'extension = mp4\nformat_profile = "Base Media"\ncodec_id = "qt"\nvideo_format_profile = ""\n'
                 '[original o-i]\nmedia = image\nos = Android169\n'
                 'resolution = 100x200\nnominal_size = 2000\n[manifest]\noriginals = 2\ntable7 = 0\n',
                 KnowledgeBase((), (
                     OriginalProfile("o-v", OS.IOS, VideoAttributes("mp4", FormatProfile.BASE_MEDIA, "qt", "",
                                                                    1920, 1080, byte_size=5_000_000)),
                     OriginalProfile("o-i", OS.ANDROID169, ImageAttributes(100, 200, 2000)),
                 ), (("originals", 2), ("table7", 0))),
                 id="originals-and-manifest"),
])
def test_loadable_texts(text, expected):
    assert load_kb(text) == expected


def test_quoted_list_items_keep_their_commas():
    kb = load_kb(_VIDEO_RECORD + _CONTAINER + """encoder = "Lavf, custom", "x" , plain,, "a,b,c"
""")
    assert kb.records[0].constraints.encoders == ("Lavf, custom", "x", "plain", "a,b,c")
    assert kb.records[0].constraints.codec_ids == ("isom (isom/iso2/avc1/mp41)",)


def test_video_rows_follow_the_field_table():
    assert [key for key, *_ in VIDEO_FIELDS] == [
        "extension", "format_profile", "codec_id", "video_format_profile", "resolution", "encoder",
    ]
    # A field table attribute per field, in the table's order, and markers:
    # no flag restates a row, and the loader passes the values positionally.
    assert ([f.name for f in dataclasses.fields(VideoConstraints) if f.init]
            == [attr for _, attr, *_ in VIDEO_FIELDS] + ["markers"])
    assert CONTAINER_FIELDS == tuple(key for key, *_ in VIDEO_FIELDS[:4])
    constraints = VideoConstraints(
        **_CONTAINER_FIELDS, resolutions=((640, 360),), encoders=("Lavf58.20.100",), markers=(Marker.COPYRIGHT,),
    )
    fields = [key for key, *_ in VIDEO_FIELDS]
    assert [name for name, _, _ in constraints.rows] == fields + ["markers"]
    # The field rows hold the record's own tuples, and every row reads the
    # file's value.
    assert all(values is getattr(constraints, attr) for (_, values, _), (_, attr, *_) in
               zip(constraints.rows, VIDEO_FIELDS))
    attrs = VideoAttributes("mp4", FormatProfile.BASE_MEDIA, "qt", "", 640, 360, encoder="Lavf58.20.100",
                            markers=frozenset({Marker.COPYRIGHT}))
    assert [get(attrs) for _, _, get in constraints.rows] == [
        "mp4", FormatProfile.BASE_MEDIA, "qt", "", (640, 360), "Lavf58.20.100", {Marker.COPYRIGHT},
    ]
    assert constraints.matched == tuple(fields)
    assert constraints.matched_with_markers == (*fields, "markers")
    # A resolution or encoder left empty has no row: it constrains nothing.
    unpinned = dataclasses.replace(constraints, resolutions=(), encoders=())
    assert [name for name, _, _ in unpinned.rows] == [*CONTAINER_FIELDS, "markers"]
    assert unpinned.matched == CONTAINER_FIELDS
    assert dataclasses.replace(unpinned, markers=None).rows == unpinned.rows[:-1]


@pytest.mark.parametrize("attr", ["extensions", "format_profiles", "codec_ids", "video_format_profiles"])
def test_video_constraints_refuse_an_empty_container_field(attr):
    # Built by hand, as the loader builds them: no container field is a wildcard.
    name = attr.removesuffix("s").replace("_", " ")
    for markers in ((), None):
        with pytest.raises(ValueError, match=f"^video records need at least one {name}$"):
            VideoConstraints(**{**_CONTAINER_FIELDS, attr: ()}, resolutions=((640, 360),), markers=markers)
    with pytest.raises(ValueError, match=f"^video records need at least one {name}$"):
        dataclasses.replace(VideoConstraints(**_CONTAINER_FIELDS), **{attr: ()})
    with pytest.raises(TypeError):
        VideoConstraints(**{key: value for key, value in _CONTAINER_FIELDS.items() if key != attr})


def test_only_video_records_are_relays():
    banded = ImageConstraints(((100, 100),), (50_000, 5_000))
    for constraints in (banded, None):
        with pytest.raises(ValueError, match="^only video records may name nth_app$"):
            FingerprintRecord("t10-img", MediaKind.IMAGE, "B", OS.IOS, "Default", nth_app="A",
                              constraints=constraints)
    single = FingerprintRecord("t6-img", MediaKind.IMAGE, "B", OS.IOS, "Default", constraints=banded)
    with pytest.raises(ValueError, match="^only video records may name nth_app$"):
        dataclasses.replace(single, nth_app="A")


def _subsets(markers):
    return {frozenset(m for i, m in enumerate(markers) if bits >> i & 1) for bits in range(1 << len(markers))}


def test_marker_sets_are_built_with_the_constraints():
    # The marker rule is the last compiled row, not a field of its own.
    compiled = {f.name for f in dataclasses.fields(VideoConstraints) if not f.init}
    assert compiled == {"rows", "matched", "matched_with_markers"}
    marker_lists = [(), (Marker.COPYRIGHT,), (Marker.COPYRIGHT, Marker.MOVIE_NAME), tuple(Marker)]
    for markers in marker_lists:
        constraints = VideoConstraints(**_CONTAINER_FIELDS, markers=markers)
        assert [name for name, _, _ in constraints.rows] == [*CONTAINER_FIELDS, "markers"]
        name, values, get = constraints.rows[-1]
        # It passes exactly the subsets of the record's markers.
        assert values == _subsets(markers)
        assert get(VideoAttributes("mp4", FormatProfile.BASE_MEDIA, "qt", "", 1, 1,
                                   markers=frozenset(markers))) == frozenset(markers)
        assert constraints.matched == CONTAINER_FIELDS
        assert constraints.matched_with_markers == ((*CONTAINER_FIELDS, "markers") if markers else CONTAINER_FIELDS)
        lifted = dataclasses.replace(constraints, markers=None)
        assert [name for name, _, _ in lifted.rows] == list(CONTAINER_FIELDS)
        assert lifted.matched == lifted.matched_with_markers == CONTAINER_FIELDS
    # Records with equal marker sets, in any order, share one subsets object.
    first = VideoConstraints(**_CONTAINER_FIELDS, markers=(Marker.COPYRIGHT, Marker.MOVIE_NAME))
    second = VideoConstraints(**{**_CONTAINER_FIELDS, "codec_ids": ("qt",)}, encoders=("x",),
                              markers=(Marker.MOVIE_NAME, Marker.COPYRIGHT, Marker.MOVIE_NAME))
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
extension = MOV
codec_id = "qt"
video_format_profile = "Main@L3.1"
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
    marked = VideoConstraints(**_CONTAINER_FIELDS, markers=(Marker.COPYRIGHT,))
    hand_built = [
        FingerprintRecord("t7-marked", MediaKind.VIDEO, "A", OS.IOS, "Default", constraints=marked),
        FingerprintRecord("t7-any", MediaKind.VIDEO, "A", OS.IOS, "Default",
                          constraints=dataclasses.replace(marked, markers=None)),
        FingerprintRecord("t9-relay", MediaKind.VIDEO, "B", OS.IOS, "Low", nth_app="A", constraints=marked),
        FingerprintRecord("t6-banded", MediaKind.IMAGE, "A", OS.IOS, "Default",
                          constraints=ImageConstraints(((100, 100),), (50_000, 5_000))),
        FingerprintRecord("t6-plain", MediaKind.IMAGE, "B", OS.IOS, "Default",
                          constraints=ImageConstraints(((100, 100),))),
        FingerprintRecord("t6-none", MediaKind.IMAGE, "A", OS.IOS, "Default"),
    ]
    assert [sorted(rec.evidence) for rec in hand_built] == [
        [CONTAINER_FIELDS, (*CONTAINER_FIELDS, "markers")], [CONTAINER_FIELDS],
        [CONTAINER_FIELDS, (*CONTAINER_FIELDS, "markers")],
        [("resolution",), ("resolution", "byte_size")], [("resolution",)], [],
    ]
    for rec in kb.records + tuple(hand_built):
        assert set(rec.evidence) == _reachable_evidence_keys(rec), rec.record_id
        for key, value in rec.evidence.items():
            if rec.nth_app:
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
    relay = dataclasses.replace(single, nth_app="B", constraints=VideoConstraints(**_CONTAINER_FIELDS))
    assert (single.distinguishable, relay.distinguishable) == (False, True)
    codec, profile = _CONTAINER_FIELDS["codec_ids"][0], _CONTAINER_FIELDS["video_format_profiles"][0]
    assert KnowledgeBase((single, relay)).video_candidates(codec, profile) == ((), (relay,))
    assert isinstance(relay.evidence[CONTAINER_FIELDS], ChainHypothesis)


def test_unreadable_kb_raises_kb_error(tmp_path):
    with pytest.raises(KbError, match=f"^{re.escape(str(tmp_path / 'missing.kb'))}: No such file or directory$"):
        load_kb_path(tmp_path / "missing.kb")
    with pytest.raises(KbError, match=f"^no .kb files under {re.escape(str(tmp_path))}$"):
        load_kb_path(tmp_path)
    (tmp_path / ".table06.kb").write_text(WHATSAPP_IMAGE_BLOCK, encoding="utf-8")
    with pytest.raises(KbError, match=f"^no .kb files under {re.escape(str(tmp_path))}$"):
        load_kb_path(tmp_path)
    (tmp_path / "table06.kb").write_text(WHATSAPP_IMAGE_BLOCK, encoding="utf-8")
    (tmp_path / "sub.kb").mkdir()
    with pytest.raises(KbError, match=f"^{re.escape(str(tmp_path / 'sub.kb'))}: Is a directory$"):
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
    # The error names the first record, in file order, whose id came before.
    a, b = IMAGE_RECORD.replace("t6-y", "t6-a"), IMAGE_RECORD.replace("t6-y", "t6-b")
    with pytest.raises(SchemaError, match="^duplicate record id 't6-b'$"):
        load_kb(a + b + b + a)


def test_group_key():
    assert group_key("t6-whatsapp-default-ios") == "table6"
    assert group_key("t12-wickrme") == "table12"
    assert group_key("custom-record") == "custom"
    # A group number is ASCII digits, as every KB number is: \d would also
    # take this Arabic-Indic seven and count the record toward table\u0667.
    assert group_key("t\u0667-x") == "t\u0667"
    text = IMAGE_RECORD.replace("t6-y", "t\u0667-x") + "[manifest]\ntable\u0667 = 1\n"
    with pytest.raises(ManifestMismatch, match="^table\u0667: declared 1, loaded 0; t\u0667: declared 0, loaded 1$"):
        load_kb(text)


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
""" + _CONTAINER)
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
            # The loader already requires the four container fields; a
            # single hop must also pin a resolution or an encoder.
            assert c.resolutions or c.encoders, rec.record_id

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
        return codec in rec.constraints.codec_ids and profile in rec.constraints.video_format_profiles

    for codec in codecs:
        for profile in profiles:
            assert kb.video_candidates(codec, profile) == (
                tuple(r for r in singles if admits(r, codec, profile)),
                tuple(r for r in chains if admits(r, codec, profile)),
            ), (codec, profile)


def _hand_built_kb():
    c1 = VideoConstraints(**_CONTAINER_FIELDS, resolutions=((1280, 720),))
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
        FingerprintRecord("t6-far", MediaKind.IMAGE, "B", OS.IOS, "Default",
                          constraints=ImageConstraints(((200, 200),))),
    )
    return KnowledgeBase(records)


def _ids(records):
    return [r.record_id for r in records]


# The (codec id, video format profile) pair every video record of _hand_built_kb names.
_PAIR = (_CONTAINER_FIELDS["codec_ids"][0], _CONTAINER_FIELDS["video_format_profiles"][0])


class TestCompiledIndexes:
    def test_shipped_kb_matches_brute_force(self, kb):
        assert _compiled_indexes(kb) == _brute_force_indexes(kb)
        assert kb.overwritten_chain_ids  # the shipped KB has overwritten chains to skip
        _assert_candidates_match_brute_force(kb)

    def test_hand_built_kb_matches_brute_force(self):
        kb = _hand_built_kb()
        assert kb.overwritten_chain_ids == {"t9-equal"}
        singles, chains = kb.video_candidates(*_PAIR)
        assert _ids(chains) == ["t9-other-os", "t9-placeholder-single"]
        assert _ids(singles) == ["t8-b"]
        assert _ids(kb.image_candidates(100, 100) + kb.image_candidates(200, 200)) == ["t6-img", "t6-far"]
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
        assert _ids(without_single.video_candidates(*_PAIR)[1]) == [
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
        assert narrowed.image_candidates(200, 200) == (kb.record("t6-far"),)
        assert _compiled_indexes(narrowed) == _brute_force_indexes(narrowed)

    def test_replace_rebuilds_candidate_index(self):
        kb = _hand_built_kb()
        assert kb.video_candidates(*_PAIR) == (
            (kb.record("t8-b"),), (kb.record("t9-other-os"), kb.record("t9-placeholder-single")),
        )
        # A record appended later joins the bucket of each pair it names,
        # once for a value it lists twice; a pair no record names has none.
        codec, profile = _PAIR
        later = FingerprintRecord(
            "t8-later", MediaKind.VIDEO, "E", OS.IOS, "Default",
            constraints=VideoConstraints(**{**_CONTAINER_FIELDS, "codec_ids": (codec, "qt", codec)},
                                         resolutions=((640, 360),)),
        )
        widened = dataclasses.replace(kb, records=kb.records + (later,))
        assert widened.video_candidates(*_PAIR)[0] == (kb.record("t8-b"), later)
        assert widened.video_candidates("qt", profile) == ((later,), ())
        assert kb.video_candidates("qt", profile) == ((), ())
        assert widened.video_candidates(codec, "") == widened.video_candidates("", profile) == ((), ())
        _assert_candidates_match_brute_force(widened)
        narrowed = dataclasses.replace(kb, records=kb.records[1:])
        assert narrowed.video_candidates(*_PAIR)[0] == ()
        _assert_candidates_match_brute_force(narrowed)


def _index_summary(kb):
    """Every compiled index as record and profile ids, and every record's
    evidence, in an order that depends neither on how an index was built nor
    on the hash seed."""
    def ids(records):
        return [rec.record_id for rec in records]

    return repr((
        sorted(kb.overwritten_chain_ids),
        sorted(((codec, profile, ids(single), ids(chain))
                for (codec, profile), (single, chain) in kb._video_index.items()), key=repr),
        sorted(((cell, ids(records)) for cell, records in kb._image_cells.items()), key=repr),
        kb.image_band_edges,
        sorted(((key, orig.profile_id) for key, orig in kb._image_originals.items()), key=repr),
        sorted(((key, orig.profile_id) for key, orig in kb._video_originals.items()), key=repr),
        list(kb._by_id),
        [sorted(rec.evidence.items(), key=repr) for rec in kb.records],
    ))


def test_shipped_kb_loads_the_pinned_records_and_indexes(kb):
    # sha256 of the records, originals and manifest in file order, and of
    # every index a query reads; neither depends on the hash seed.
    loaded = repr((kb.records, kb.originals, kb.manifest)).encode()
    assert hashlib.sha256(loaded).hexdigest() == "3476d8b1cf1b601633a3ba05a093e461d7b6aa5eb8cf1c6dfd9832de68cade1c"
    indexes = _index_summary(kb).encode()
    assert hashlib.sha256(indexes).hexdigest() == "6358f18f91060179ac20c34ddf3380962e33cf412fb3fb52d982688360281ee1"


# ---------------------------------------------------------------------------
# Directory loads: each file is split on its own.

def _write_kb_dir(tmp_path, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


def test_directory_kb_is_the_joined_files(kb):
    # The shipped files start with comments or a header, so reading them one
    # by one gives what the joined text gives.
    texts = [path.read_text(encoding="utf-8") for path in sorted(default_kb_path().glob("*.kb"))]
    assert len(texts) > 1
    assert load_kb("\n".join(texts)) == kb


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


@pytest.mark.parametrize("error,reason", [
    (PermissionError(13, "Permission denied"), "Permission denied"),
    (FileNotFoundError(2, "No such file or directory"), "No such file or directory"),
], ids=["permission", "missing"])
def test_directory_that_cannot_be_listed_is_a_kb_error(tmp_path, monkeypatch, error, reason):
    # os.listdir is patched, since a mode that refuses listing does not stop
    # root.  The error names the directory as a file read error names the file.
    data = _write_kb_dir(tmp_path, {"table06.kb": IMAGE_RECORD})
    real_listdir = os.listdir

    def listdir(path):
        if path == data:
            raise error
        return real_listdir(path)

    monkeypatch.setattr(os, "listdir", listdir)
    with pytest.raises(KbError, match=f"^{re.escape(str(data))}: {reason}$") as caught:
        load_kb_path(data)
    assert caught.type is KbError


def test_byte_order_mark_is_dropped(tmp_path, kb):
    # A file may start with the UTF-8 byte-order mark; it is read as if the
    # mark were not there, in a single-file load and in a directory load.
    bom = "\ufeff".encode("utf-8")
    (tmp_path / "one.kb").write_bytes(bom + ("# c\n" + WHATSAPP_IMAGE_BLOCK).encode("utf-8"))
    assert load_kb_path(tmp_path / "one.kb") == load_kb(WHATSAPP_IMAGE_BLOCK)
    data = tmp_path / "data"
    shutil.copytree(default_kb_path(), data)
    for path in data.glob("*.kb"):
        path.write_bytes(bom + path.read_bytes())
    assert load_kb_path(data) == kb
    # Only the first mark is dropped, and a byte offset counts it.
    (tmp_path / "two.kb").write_bytes(bom + bom + b"# c\n")
    with pytest.raises(SchemaError, match=r"^line 1: expected 'key = value', got '\\ufeff# c'$"):
        load_kb_path(tmp_path / "two.kb")
    (tmp_path / "bad.kb").write_bytes(bom + b"# \xff\n")
    with pytest.raises(SchemaError, match=r"bad\.kb: not UTF-8 text \(byte 5: invalid start byte\)$"):
        load_kb_path(tmp_path / "bad.kb")


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
extension = MOV
format_profile = QuickTime
codec_id = "qt"
video_format_profile = "Main@L3.1"
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
@example("[record t6-a]\nmedia = image\napp = A\nos = iOS\nquality = X\nindistinguishable = maybe\nencoder = x\n")
@example("[record t6-a]\nmedia = image\napp = A\nos = iOS\nquality = X\nindistinguishable = no\n")
@example("[original o-a]\nmedia = audio\nos = iOS\n")
@example("[record t6-a]\nmedia = image\napp = A\nos = iOS\nquality = X\nnth_app =\nresolution = 1x1\n")
def test_loader_raises_only_kb_error(text):
    # Any text loads or fails with a KbError; a text that loads holds one
    # record per [record] header line, in file order.
    try:
        kb = load_kb(text)
    except KbError:
        return
    headers = (re.fullmatch(r"\[record\s+(\S+)\]", line.strip()) for line in text.splitlines())
    assert [rec.record_id for rec in kb.records] == [m.group(1) for m in headers if m]
