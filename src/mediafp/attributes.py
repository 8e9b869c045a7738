"""Attribute vectors shared by the parsers, the knowledge base and the matcher.

A media file is reduced to a small, analyzer-style attribute vector: the
fields a messenger's transcoder stamps onto everything it transmits.  For
video that is extension, container format profile, codec ID (the ftyp brand
line), AVC profile/level, frame dimensions, the writing application, and any
surviving user-data markers.  For images it is just dimensions and byte size.

Every scanned file builds one vector, so the two vector types are slotted
frozen dataclasses with a written-out ``__init__``.  The generated frozen
``__init__`` stores each field through ``object.__setattr__``, which looks
the name up on the class on every store; these run their checks first and
then store each field through its slot's own setter (``slot_setters``).
Equality, hashing, ``repr``, ``dataclasses.fields``/``replace``/``asdict``,
pickling and ``FrozenInstanceError`` are the dataclass's own.  An instance
has no ``__dict__``: read it with ``dataclasses.fields`` or ``asdict``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, fields
from typing import ClassVar


class MediaKind(str, enum.Enum):
    IMAGE = "image"
    VIDEO = "video"


class OS(str, enum.Enum):
    """Source/transit operating system, at the granularity the evidence supports.

    Image fingerprints separate the two Android camera defaults (4:3 12MP vs
    16:9 16MP sources); video fingerprints cannot, hence ANDROID_ANY.
    """

    IOS = "iOS"
    ANDROID43 = "Android43"
    ANDROID169 = "Android169"
    ANDROID_ANY = "AndroidAny"
    ANY = "Any"


_OS_ALIASES = {
    "ios": OS.IOS,
    "android43": OS.ANDROID43,
    "android169": OS.ANDROID169,
    "androidany": OS.ANDROID_ANY,
    "android": OS.ANDROID_ANY,
    "any": OS.ANY,
}


def parse_os(token: str) -> OS:
    """Case-insensitive OS lookup ("ios" → OS.IOS); raises ValueError."""
    try:
        return _OS_ALIASES[token.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown OS {token!r}") from None


# Each OS by the exact value reports print: the one spelling KB text and
# corpus labels take.  parse_os is for command-line input.
OS_BY_VALUE = {member.value: member for member in OS}


class FormatProfile(str, enum.Enum):
    """Container lineage as media analyzers report it, decided by the major brand."""

    BASE_MEDIA = "Base Media"
    BASE_MEDIA_V2 = "Base Media Version 2"
    QUICKTIME = "QuickTime"


class Marker(str, enum.Enum):
    """User-data atoms that survive a messenger's transcode.

    MOVIE_NAME / COPYRIGHT / RECORDED_DATE map to the classic user-data name,
    copyright and creation-date atoms; MOVIE_MORE stands for any other vendor
    user-data atom (version tags and the like).
    """

    MOVIE_NAME = "MovieName"
    MOVIE_MORE = "MovieMore"
    COPYRIGHT = "Copyright"
    RECORDED_DATE = "RecordedDate"


# Extension values are plain strings so the "other" bucket stays cheap.
EXT_MP4 = "mp4"
EXT_MOV = "MOV"
EXT_OTHER = "other"
EXTENSIONS = (EXT_MP4, EXT_MOV, EXT_OTHER)


def slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each field's slot on the slotted dataclass ``cls``, in field order.

    A frozen dataclass refuses ``setattr``; a slot's setter stores into the
    instance directly.  Bind them once per class and call one per field: a
    loop over them gives back much of what they save.
    """
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


AVC_PROFILES = {66: "Baseline", 77: "Main", 100: "High"}
_VFP_RE = re.compile(r"^(?P<profile>[A-Za-z0-9]+)@L(?P<level>\d+(?:\.\d)?)(?P<suffix>@.+)?$")


@dataclass(frozen=True)
class AvcSignal:
    """AVC coding profile and level as rendered in fingerprint strings.

    ``constraint_suffix`` carries the opaque trailing "@Main" some encodes
    show when the constraint-set-1 flag is raised; it is reproduced verbatim.
    """

    profile_name: str
    level: float
    constraint_suffix: str | None = None

    def render(self) -> str:
        return f"{self.profile_name}@L{render_level(self.level)}{self.constraint_suffix or ''}"


def render_level(level: float) -> str:
    """Levels print without a trailing zero: 4.0 → "4", 3.1 → "3.1"."""
    tenths = int(round(level * 10))
    return str(tenths // 10) if tenths % 10 == 0 else f"{tenths // 10}.{tenths % 10}"


def parse_video_format_profile(text: str) -> AvcSignal:
    """Parse "Main@L4@Main"-style strings back into an AvcSignal.

    Raises ValueError when the string is not a renderable profile/level pair.
    """
    m = _VFP_RE.match(text)
    if m is None or m.group("profile") not in AVC_PROFILES.values():
        raise ValueError(f"unparseable video format profile {text!r}")
    return AvcSignal(
        profile_name=m.group("profile"),
        level=float(m.group("level")),
        constraint_suffix=m.group("suffix"),
    )


@dataclass(frozen=True, slots=True, init=False)
class VideoAttributes:
    """The full video attribute vector one file reduces to."""

    media_kind: ClassVar[MediaKind] = MediaKind.VIDEO
    extension: str  # one of EXTENSIONS
    format_profile: FormatProfile
    codec_id: str  # rendered brand line, e.g. "mp42 (isom/mp42)"
    video_format_profile: str  # rendered, e.g. "Baseline@L3.1"; "" when absent
    width: int
    length: int
    encoder: str | None = None
    markers: frozenset[Marker] = field(default_factory=frozenset)
    byte_size: int = 0

    def __init__(self, extension: str, format_profile: FormatProfile, codec_id: str, video_format_profile: str,
                 width: int, length: int, encoder: str | None = None, markers: frozenset[Marker] = frozenset(),
                 byte_size: int = 0) -> None:
        if width < 1 or length < 1:
            raise ValueError("video dimensions must be >= 1")
        if extension not in EXTENSIONS:
            raise ValueError(f"extension must be one of {EXTENSIONS}")
        (set_extension, set_format_profile, set_codec_id, set_video_format_profile, set_width, set_length,
         set_encoder, set_markers, set_byte_size) = _VIDEO_SETTERS
        set_extension(self, extension)
        set_format_profile(self, format_profile)
        set_codec_id(self, codec_id)
        set_video_format_profile(self, video_format_profile)
        set_width(self, width)
        set_length(self, length)
        set_encoder(self, encoder)
        set_markers(self, markers)
        set_byte_size(self, byte_size)


_VIDEO_SETTERS = slot_setters(VideoAttributes)


@dataclass(frozen=True, slots=True, init=False)
class ImageAttributes:
    """Width, length and byte size of one image."""

    media_kind: ClassVar[MediaKind] = MediaKind.IMAGE
    width: int
    length: int
    byte_size: int
    extension: str = "JPG"

    def __init__(self, width: int, length: int, byte_size: int, extension: str = "JPG") -> None:
        if width < 1 or length < 1:
            raise ValueError("image dimensions must be >= 1")
        if byte_size < 4:
            raise ValueError("byte_size must be >= 4")
        set_width, set_length, set_byte_size, set_extension = _IMAGE_SETTERS
        set_width(self, width)
        set_length(self, length)
        set_byte_size(self, byte_size)
        set_extension(self, extension)


_IMAGE_SETTERS = slot_setters(ImageAttributes)
