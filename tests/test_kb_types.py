"""The contract of the value types a KB load builds.

``ImageConstraints``, ``VideoConstraints``, ``Candidate``, ``ChainHypothesis``,
``FingerprintRecord`` and ``OriginalProfile`` are slotted frozen dataclasses;
four of them have a written-out ``__init__`` that computes the compiled
fields (``rows``, ``matched``, ``matched_with_markers``, ``evidence``) from
its arguments.  Each must construct, check, compare, hash, print, copy and
pickle exactly as a plain frozen dataclass of the same fields does, and
``dataclasses.replace`` must compile those fields again.
"""

import copy
import dataclasses
import pickle
from operator import attrgetter
from typing import NamedTuple

import pytest

from mediafp.attributes import FormatProfile, ImageAttributes, Marker, MediaKind, OS
from mediafp.kb import (
    Candidate,
    ChainHypothesis,
    FingerprintRecord,
    ImageConstraints,
    OriginalProfile,
    VideoConstraints,
)


class Contract(NamedTuple):
    cls: type
    names: tuple[str, ...]  # the constructor's fields, in order
    compiled: tuple[str, ...]  # the fields built from them
    values: tuple  # one value per constructor field
    defaults: dict  # the fields a call may leave out, and what they then hold
    other: dict  # a second valid value for each field that can change alone
    errors: list  # (fields to change, the ValueError's exact message)
    text: str  # repr(cls(*values))


_VIDEO = VideoConstraints(("mp4",), (FormatProfile.BASE_MEDIA,), ("isom (isom/mp42)",), ("Main@L3.1",),
                          ((640, 360),), ("Lavf58.20.100",), (Marker.COPYRIGHT,))
_VIDEO_TEXT = (
    "VideoConstraints(extensions=('mp4',), format_profiles=(<FormatProfile.BASE_MEDIA: 'Base Media'>,), "
    "codec_ids=('isom (isom/mp42)',), video_format_profiles=('Main@L3.1',), resolutions=((640, 360),), "
    "encoders=('Lavf58.20.100',), markers=(<Marker.COPYRIGHT: 'Copyright'>,))"
)
_NEED = "video records need at least one "

CONTRACTS = [
    Contract(
        VideoConstraints,
        ("extensions", "format_profiles", "codec_ids", "video_format_profiles", "resolutions", "encoders", "markers"),
        ("rows", "matched", "matched_with_markers"),
        tuple(getattr(_VIDEO, name) for name in ("extensions", "format_profiles", "codec_ids",
                                                 "video_format_profiles", "resolutions", "encoders", "markers")),
        {"resolutions": (), "encoders": (), "markers": ()},
        {"extensions": ("MOV", "mp4"), "format_profiles": (FormatProfile.QUICKTIME,), "codec_ids": ("qt",),
         "video_format_profiles": ("High@L4",), "resolutions": (), "encoders": (), "markers": None},
        [({"extensions": ()}, _NEED + "extension"),
         ({"format_profiles": ()}, _NEED + "format profile"),
         ({"codec_ids": ()}, _NEED + "codec id"),
         ({"video_format_profiles": ()}, _NEED + "video format profile"),
         ({"codec_ids": (), "extensions": (), "markers": None}, _NEED + "extension")],
        _VIDEO_TEXT,
    ),
    Contract(
        ImageConstraints,
        ("resolutions", "size_band"),
        (),
        (((1600, 1200), (1200, 1600)), (98_000, 2_000)),
        {"size_band": None},
        {"resolutions": ((100, 100),), "size_band": None},
        [],
        "ImageConstraints(resolutions=((1600, 1200), (1200, 1600)), size_band=(98000, 2000))",
    ),
    Contract(
        Candidate,
        ("record_id", "app", "os", "quality", "matched_fields"),
        (),
        ("t7-a", "A", OS.IOS, "Default", ("resolution",)),
        {},
        {"record_id": "t7-b", "app": "B", "os": OS.ANY, "quality": "High",
         "matched_fields": ("resolution", "byte_size")},
        [],
        "Candidate(record_id='t7-a', app='A', os=<OS.IOS: 'iOS'>, quality='Default', matched_fields=('resolution',))",
    ),
    Contract(
        ChainHypothesis,
        ("nth_app", "nplus1_app", "os", "quality", "evidence_fields"),
        (),
        ("A", "B", OS.ANDROID_ANY, "Low", ("extension",)),
        {},
        {"nth_app": "C", "nplus1_app": "D", "os": OS.IOS, "quality": "High", "evidence_fields": ("codec_id",)},
        [],
        "ChainHypothesis(nth_app='A', nplus1_app='B', os=<OS.ANDROID_ANY: 'AndroidAny'>, quality='Low', "
        "evidence_fields=('extension',))",
    ),
    Contract(
        FingerprintRecord,
        ("record_id", "media_kind", "app", "os", "quality", "nth_app", "constraints"),
        ("evidence",),
        ("t9-b-a", MediaKind.VIDEO, "B", OS.IOS, "Low", "A", _VIDEO),
        {"nth_app": None, "constraints": None},
        {"record_id": "t9-c-a", "app": "C", "os": OS.ANDROID_ANY, "quality": "High", "nth_app": None,
         "constraints": dataclasses.replace(_VIDEO, markers=None)},
        [({"media_kind": MediaKind.IMAGE}, "only video records may name nth_app"),
         ({"media_kind": MediaKind.IMAGE, "constraints": None}, "only video records may name nth_app")],
        "FingerprintRecord(record_id='t9-b-a', media_kind=<MediaKind.VIDEO: 'video'>, app='B', "
        f"os=<OS.IOS: 'iOS'>, quality='Low', nth_app='A', constraints={_VIDEO_TEXT})",
    ),
    Contract(
        OriginalProfile,
        ("profile_id", "os_source", "attributes"),
        (),
        ("o-img", OS.IOS, ImageAttributes(4032, 3024, 2_000_000)),
        {},
        {"profile_id": "o-other", "os_source": OS.ANDROID43, "attributes": ImageAttributes(720, 960, 98_000)},
        [],
        "OriginalProfile(profile_id='o-img', os_source=<OS.IOS: 'iOS'>, "
        "attributes=ImageAttributes(width=4032, length=3024, byte_size=2000000, extension='JPG'))",
    ),
]

pytestmark = pytest.mark.parametrize("contract", CONTRACTS, ids=lambda c: c.cls.__name__)


def _build(contract: Contract, **changes):
    return contract.cls(**{**dict(zip(contract.names, contract.values)), **changes})


def _init_fields(contract: Contract, obj) -> tuple:
    return tuple(getattr(obj, name) for name in contract.names)


def _compiled(contract: Contract, obj) -> tuple:
    """The compiled fields, each getter by its repr: a getter compares by
    identity, and a pickled or copied one is a new object."""
    def plain(value):
        if isinstance(value, attrgetter):
            return repr(value)
        if isinstance(value, tuple):
            return tuple(plain(item) for item in value)
        return value

    return tuple(plain(getattr(obj, name)) for name in contract.compiled)


def test_fields_are_named_in_order(contract):
    fields = dataclasses.fields(contract.cls)
    assert tuple(f.name for f in fields if f.init) == contract.names
    assert tuple(f.name for f in fields if not f.init) == contract.compiled
    assert contract.cls.__match_args__ == contract.names


def test_positional_keyword_and_default_construction_agree(contract):
    by_position = contract.cls(*contract.values)
    by_keyword = _build(contract)
    assert _init_fields(contract, by_position) == _init_fields(contract, by_keyword) == contract.values
    assert by_position == by_keyword
    assert _compiled(contract, by_position) == _compiled(contract, by_keyword)
    required = {name: value for name, value in zip(contract.names, contract.values) if name not in contract.defaults}
    obj = contract.cls(**required)
    assert {name: getattr(obj, name) for name in contract.defaults} == contract.defaults
    assert obj == contract.cls(*required.values())
    with pytest.raises(TypeError):
        contract.cls(*contract.values[:len(required) - 1])


def test_constructor_errors_keep_their_messages(contract):
    for changes, message in contract.errors:
        with pytest.raises(ValueError) as raised:
            _build(contract, **changes)
        assert str(raised.value) == message
        # replace() builds through the same checks.
        with pytest.raises(ValueError) as raised:
            dataclasses.replace(_build(contract), **changes)
        assert str(raised.value) == message


def test_equality_hash_and_repr_are_the_dataclass_ones(contract):
    # Only the constructor's fields take part; the compiled ones do not.
    obj = _build(contract)
    assert obj == _build(contract)
    assert hash(obj) == hash(_build(contract)) == hash(contract.values)
    assert obj != contract.values
    assert repr(obj) == contract.text
    assert all(f"{name}=" not in contract.text for name in contract.compiled)
    for name, value in contract.other.items():
        changed = dataclasses.replace(obj, **{name: value})
        assert getattr(changed, name) == value
        assert changed != obj
        assert hash(changed) == hash(_init_fields(contract, changed))


def test_replace_compiles_the_compiled_fields_again(contract):
    obj = _build(contract)
    same = dataclasses.replace(obj)
    assert same == obj and _compiled(contract, same) == _compiled(contract, obj)
    recompiled = []
    for name, value in contract.other.items():
        replaced = dataclasses.replace(obj, **{name: value})
        assert _compiled(contract, replaced) == _compiled(contract, _build(contract, **{name: value}))
        if _compiled(contract, replaced) != _compiled(contract, obj):
            recompiled.append(name)
    # Some change moves the compiled fields, so keeping the old ones would fail.
    assert bool(recompiled) == bool(contract.compiled)
    for name in contract.compiled:
        with pytest.raises(ValueError):
            dataclasses.replace(obj, **{name: getattr(obj, name)})


def test_pickle_and_copy_round_trip(contract):
    obj = _build(contract)
    backs = [pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in backs + [copy.copy(obj), copy.deepcopy(obj)]:
        assert type(back) is contract.cls and back == obj and repr(back) == contract.text
        assert _init_fields(contract, back) == contract.values
        assert _compiled(contract, back) == _compiled(contract, obj)


def test_fields_cannot_be_set_or_deleted(contract):
    obj = _build(contract)
    before = _compiled(contract, obj)
    for name in contract.names + contract.compiled:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, contract.other.get(name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert _init_fields(contract, obj) == contract.values
    assert _compiled(contract, obj) == before


def test_instances_have_no_dict(contract):
    assert not hasattr(_build(contract), "__dict__")
    assert contract.cls.__slots__ == contract.names + contract.compiled

