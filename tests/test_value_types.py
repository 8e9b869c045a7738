"""The contract of the value types every scanned file builds.

``FileReport``, ``VideoAttributes`` and ``ImageAttributes`` are slotted
frozen dataclasses with a written-out ``__init__``.  Each must construct,
check, compare, hash, print, copy and pickle exactly as a plain frozen
dataclass of the same fields does, and keep no instance ``__dict__``.
"""

import copy
import dataclasses
import pickle
from typing import NamedTuple

import pytest

from mediafp.attributes import FormatProfile, ImageAttributes, Marker, MediaKind, VideoAttributes
from mediafp.engine import Outcome, Verdict
from mediafp.report import FileReport


class Contract(NamedTuple):
    cls: type
    names: tuple[str, ...]
    values: tuple  # one value per field, in field order
    defaults: dict  # the fields a call may leave out, and what they then hold
    other: dict  # a second valid value for each field that can change alone
    errors: list  # (fields to change, the ValueError's exact message)
    text: str  # repr(cls(*values))


_IMAGE = ImageAttributes(720, 960, 200_000)
_VERDICT = Verdict((), Outcome.UNKNOWN)

CONTRACTS = [
    Contract(
        VideoAttributes,
        ("extension", "format_profile", "codec_id", "video_format_profile", "width", "length",
         "encoder", "markers", "byte_size"),
        ("mp4", FormatProfile.QUICKTIME, "qt   (qt)", "Main@L4@Main", 640, 360,
         "Lavf58.20.100", frozenset({Marker.COPYRIGHT}), 4096),
        {"encoder": None, "markers": frozenset(), "byte_size": 0},
        {"extension": "MOV", "format_profile": FormatProfile.BASE_MEDIA, "codec_id": "isom (isom/mp42)",
         "video_format_profile": "", "width": 1, "length": 1, "encoder": None,
         "markers": frozenset(Marker), "byte_size": 0},
        [({"width": 0}, "video dimensions must be >= 1"),
         ({"length": -1}, "video dimensions must be >= 1"),
         ({"extension": "mkv"}, "extension must be one of ('mp4', 'MOV', 'other')"),
         ({"extension": "MP4"}, "extension must be one of ('mp4', 'MOV', 'other')"),
         ({"width": 0, "extension": "mkv"}, "video dimensions must be >= 1")],
        "VideoAttributes(extension='mp4', format_profile=<FormatProfile.QUICKTIME: 'QuickTime'>, "
        "codec_id='qt   (qt)', video_format_profile='Main@L4@Main', width=640, length=360, "
        "encoder='Lavf58.20.100', markers=frozenset({<Marker.COPYRIGHT: 'Copyright'>}), byte_size=4096)",
    ),
    Contract(
        ImageAttributes,
        ("width", "length", "byte_size", "extension"),
        (720, 960, 200_000, "JPG"),
        {"extension": "JPG"},
        {"width": 1, "length": 1, "byte_size": 4, "extension": "jpeg"},
        [({"width": 0}, "image dimensions must be >= 1"),
         ({"length": 0}, "image dimensions must be >= 1"),
         ({"byte_size": 3}, "byte_size must be >= 4"),
         ({"width": 0, "byte_size": 3}, "image dimensions must be >= 1")],
        "ImageAttributes(width=720, length=960, byte_size=200000, extension='JPG')",
    ),
    Contract(
        FileReport,
        ("path", "media_kind", "attributes", "verdict", "error"),
        ("a/b.jpg", MediaKind.IMAGE, _IMAGE, _VERDICT, None),
        {},
        {"path": "c.mov", "media_kind": None, "attributes": None, "verdict": Verdict((), Outcome.ORIGINAL_LIKE)},
        [({"verdict": None}, "exactly one of verdict/error must be set"),
         ({"error": "OSError: x"}, "exactly one of verdict/error must be set")],
        "FileReport(path='a/b.jpg', media_kind=<MediaKind.IMAGE: 'image'>, "
        "attributes=ImageAttributes(width=720, length=960, byte_size=200000, extension='JPG'), "
        "verdict=Verdict(candidates=(), outcome=<Outcome.UNKNOWN: 'Unknown'>, chain_hypotheses=()), error=None)",
    ),
]

pytestmark = pytest.mark.parametrize("contract", CONTRACTS, ids=lambda c: c.cls.__name__)


def _build(contract: Contract):
    return contract.cls(*contract.values)


def _fields_of(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def test_fields_are_named_in_order(contract):
    assert tuple(f.name for f in dataclasses.fields(contract.cls)) == contract.names
    assert contract.cls.__match_args__ == contract.names


def test_positional_and_keyword_construction_agree(contract):
    by_position = _build(contract)
    by_keyword = contract.cls(**dict(zip(contract.names, contract.values)))
    assert _fields_of(by_position) == _fields_of(by_keyword) == contract.values
    assert by_position == by_keyword


def test_defaults(contract):
    required = {name: value for name, value in zip(contract.names, contract.values)
                if name not in contract.defaults}
    obj = contract.cls(**required)
    assert {name: getattr(obj, name) for name in contract.defaults} == contract.defaults
    assert obj == contract.cls(*required.values())
    with pytest.raises(TypeError):
        contract.cls(*contract.values[:len(required) - 1])


def test_constructor_errors_keep_their_messages(contract):
    for changes, message in contract.errors:
        with pytest.raises(ValueError) as raised:
            contract.cls(**{**dict(zip(contract.names, contract.values)), **changes})
        assert str(raised.value) == message
        # replace() builds through the same checks.
        with pytest.raises(ValueError) as raised:
            dataclasses.replace(_build(contract), **changes)
        assert str(raised.value) == message


def test_equality_and_hash_follow_every_field(contract):
    obj = _build(contract)
    assert obj == _build(contract)
    assert hash(obj) == hash(_build(contract)) == hash(contract.values)
    assert obj != contract.values
    for name in contract.other:
        changed = dataclasses.replace(obj, **{name: contract.other[name]})
        assert getattr(changed, name) == contract.other[name]
        assert changed != obj
        assert hash(changed) == hash(_fields_of(changed))


def test_repr(contract):
    assert repr(_build(contract)) == contract.text


def test_replace_asdict_pickle_and_copy_round_trip(contract):
    obj = _build(contract)
    assert dataclasses.replace(obj) == obj
    nested = [dataclasses.is_dataclass(value) for value in contract.values]
    assert dataclasses.asdict(obj) == {name: dataclasses.asdict(value) if is_dataclass else value
                                       for name, value, is_dataclass in zip(contract.names, contract.values, nested)}
    assert list(dataclasses.asdict(obj)) == list(contract.names)
    assert dataclasses.astuple(obj) == tuple(dataclasses.astuple(value) if is_dataclass else value
                                              for value, is_dataclass in zip(contract.values, nested))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert type(back) is contract.cls and back == obj and repr(back) == contract.text
    for back in (copy.copy(obj), copy.deepcopy(obj)):
        assert type(back) is contract.cls and back == obj and _fields_of(back) == contract.values


def test_fields_cannot_be_set_or_deleted(contract):
    obj = _build(contract)
    for name in contract.names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, contract.other.get(name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    # A name that is not a field is refused too, though not always as
    # FrozenInstanceError: on Python 3.11 the frozen __setattr__ of a slotted
    # dataclass tests against the class the decorator replaced, and the
    # super() call it then makes raises TypeError.
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
        obj.note = "x"
    assert _fields_of(obj) == contract.values


def test_instances_have_no_dict(contract):
    obj = _build(contract)
    assert not hasattr(obj, "__dict__")
    assert contract.cls.__slots__ == contract.names
