"""Fingerprint knowledge base: file format, loading, validation, queries.

The KB is plain text, line oriented.  A block starts with ``[record <id>]``
(one messenger fingerprint), ``[original <id>]`` (an untouched-camera
profile) or ``[manifest]``, followed by ``key = value`` lines.
List values are comma separated, resolution pairs are ``WxH``, strings that
must match exactly (codec ids, format-profile strings, encoders) are quoted,
and a comma inside quotes belongs to its item.  Whole lines starting with
``#`` are comments.  Encoding UTF-8, LF endings.

Record ids carry a group prefix (``t7-...``); the ``[manifest]`` block pins
the expected record count per group (``table7 = 20``) so any row lost or
gained while editing the data files fails the load instead of silently
shifting verdicts.

``VIDEO_FIELDS`` is the one list of video membership fields and of how each
is parsed; each ``VideoConstraints`` compiles one row per field it
populates, plus a last row for the marker rule unless the record allows any
markers, and ``engine`` matches by looping over those rows.  A field without
a row is unconstrained; no flag says so a second time.  A record is a relay
(two-hop) record exactly when it names ``nth_app``.

Each distinct field value is parsed once per load: records that list the
same value share one parsed tuple.  A directory is read one ``*.kb`` file at
a time, in sorted name order, so a block never continues into the next file;
names starting with ``.`` (editor locks and hidden copies) are skipped.

Each ``FingerprintRecord`` builds, when it is built, the frozen ``Candidate``
or ``ChainHypothesis`` every match of it yields, and a ``KnowledgeBase``
compiles the indexes queries use.  Nothing a query runs writes to either.
Image resolutions match within ``RESOLUTION_TOLERANCE`` pixels; the constant
lives here because the image candidate cells are sized from it, and
``engine``'s matcher reads the same name.
"""

from __future__ import annotations

import os as _os
import re
from dataclasses import dataclass, field
from itertools import combinations
from operator import attrgetter
from pathlib import Path
from typing import ClassVar

from .attributes import (
    EXTENSIONS,
    FormatProfile,
    ImageAttributes,
    Marker,
    MediaKind,
    OS,
    VideoAttributes,
    parse_os,
)

KB_ENV_VAR = "MEDIAFP_KB"

RESOLUTION_TOLERANCE = 10  # pixels an image may differ by, in width and in length
# Side of the square cells that index image records by resolution.  The
# +-RESOLUTION_TOLERANCE square around a resolution spans exactly one side on
# each axis, so it overlaps at most 2x2 cells.
_CELL_SIDE = 2 * RESOLUTION_TOLERANCE + 1


class KbError(Exception):
    """Base class for knowledge-base failures."""


class SchemaError(KbError):
    """Unknown field, bad enum value, or structurally invalid block."""


class ManifestMismatch(KbError):
    """Loaded record counts differ from the manifest declaration."""


@dataclass(frozen=True)
class ImageConstraints:
    """Evidence an image fingerprint matches on.

    ``matched`` is a resolution match's evidence, and ``matched_with_size_band``
    that of a file the size band holds (``matched`` when there is no band).
    """

    resolutions: tuple[tuple[int, int], ...]
    size_band: tuple[int, int] | None = None  # (center, tolerance) in bytes

    matched: ClassVar[tuple[str, ...]] = ("resolution",)
    # Not part of equality, repr or the constructor.
    matched_with_size_band: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matched_with_size_band",
                           self.matched + ("byte_size",) if self.size_band else self.matched)


@dataclass(frozen=True)
class VideoConstraints:
    """Evidence a video fingerprint matches on.

    A field left empty constrains nothing.  ``markers`` is the
    characteristic marker set of the transformed file: a file matches only
    when its markers are a subset of it; ``None`` allows any markers.
    """

    extensions: tuple[str, ...] = ()
    format_profiles: tuple[FormatProfile, ...] = ()
    codec_ids: tuple[str, ...] = ()
    video_format_profiles: tuple[str, ...] = ()
    resolutions: tuple[tuple[int, int], ...] = ()
    encoders: tuple[str, ...] = ()
    markers: tuple[Marker, ...] | None = ()

    # Compiled from the fields; not part of equality, repr or the constructor.
    # ``rows`` holds (field name, the values that pass, getter) in check
    # order: one row per populated ``VIDEO_FIELDS`` field, whose values are
    # the record's own tuple, then, unless ``markers`` is ``None``, the
    # marker row, whose values are the subsets of ``markers``.
    rows: tuple[tuple[str, tuple | frozenset, attrgetter], ...] = field(init=False, repr=False, compare=False)
    matched: tuple[str, ...] = field(init=False, repr=False, compare=False)  # the field rows' names
    # ``matched`` plus "markers" when the record lists markers: the evidence
    # of a file that carries some.
    matched_with_markers: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Built now, not on first use: a lazy build would land in the latency
        # of whichever scanned file first reaches the record.
        rows = [(name, getattr(self, attr), get) for name, attr, get, _ in VIDEO_FIELDS if getattr(self, attr)]
        matched = tuple(name for name, _, _ in rows)
        if self.markers is not None:
            rows.append(("markers", _MARKER_SUBSETS[frozenset(self.markers)], attrgetter("markers")))
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "matched", matched)
        object.__setattr__(self, "matched_with_markers", matched + ("markers",) if self.markers else matched)

    def is_empty(self) -> bool:
        return not self.matched


Constraints = ImageConstraints | VideoConstraints


@dataclass(frozen=True)
class Candidate:
    record_id: str
    app: str
    os: OS
    quality: str
    matched_fields: tuple[str, ...]

    @property
    def used_size_band(self) -> bool:
        return "byte_size" in self.matched_fields


@dataclass(frozen=True)
class ChainHypothesis:
    nth_app: str
    nplus1_app: str
    os: OS
    quality: str  # quality of the N-th hop
    evidence_fields: tuple[str, ...]


@dataclass(frozen=True)
class FingerprintRecord:
    """One knowledge-base entry: (app, OS, quality) → attribute constraints.

    A record with ``nth_app`` is a relay (two-hop) record; one without
    ``constraints`` is a placeholder for a combination that leaves no
    footprint.  ``evidence`` maps each matched-field tuple a match of the
    record can return, its constraints' plain and full ``matched`` tuples,
    to the frozen ``Candidate`` it yields, or for a relay video record the
    ``ChainHypothesis``.
    """

    record_id: str
    media_kind: MediaKind
    app: str
    os: OS
    quality: str
    nth_app: str | None = None
    constraints: Constraints | None = None
    evidence: dict[tuple[str, ...], Candidate | ChainHypothesis] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        c = self.constraints
        if c is None:
            keys = {}
        else:
            full = c.matched_with_size_band if isinstance(c, ImageConstraints) else c.matched_with_markers
            keys = dict.fromkeys((c.matched, full))
        if self.nth_app and self.media_kind is MediaKind.VIDEO:
            evidence = {k: ChainHypothesis(self.nth_app, self.app, self.os, self.quality, k) for k in keys}
        else:
            evidence = {k: Candidate(self.record_id, self.app, self.os, self.quality, k) for k in keys}
        object.__setattr__(self, "evidence", evidence)

    @property
    def distinguishable(self) -> bool:
        return self.constraints is not None

    @property
    def group(self) -> str:
        return group_key(self.record_id)


@dataclass(frozen=True)
class OriginalProfile:
    """A Table-of-originals row: the attribute vector of untouched camera
    output, with ``VIDEO_DEFAULTS`` for the video fields left out."""

    profile_id: str
    os_source: OS
    attributes: VideoAttributes | ImageAttributes

    @property
    def media_kind(self) -> MediaKind:
        return self.attributes.media_kind


@dataclass(frozen=True)
class KnowledgeBase:
    """The loaded records plus query indexes compiled from them.

    The indexes depend only on ``records`` and ``originals``, so they are
    built once, in ``__post_init__``: every construction path (``load_kb``, a
    direct call, ``dataclasses.replace``) compiles them, and queries never
    rescan the records.  The candidate tuples keep KB file order, which rank
    tie-breaking relies on.  ``video_candidates`` narrows the video records
    to those whose codec id and video format profile can match, and
    ``image_candidates`` narrows the image records to those listed in the
    resolution's cell of a square grid.  ``image_original`` and
    ``video_original`` look up the camera original whose own attribute
    vector has the file's key fields, each with one dict lookup.  Neither the
    records nor the indexes change after construction, so a KB is safe to
    share between threads.
    """

    records: tuple[FingerprintRecord, ...]
    originals: tuple[OriginalProfile, ...] = ()
    manifest: tuple[tuple[str, int], ...] | None = None

    # Compiled indexes; not part of equality, repr or the constructor.
    overwritten_chain_ids: frozenset[str] = field(init=False, repr=False, compare=False)
    _image_originals: dict[tuple[int, int], OriginalProfile] = field(init=False, repr=False, compare=False)
    _video_originals: dict[tuple, OriginalProfile] = field(init=False, repr=False, compare=False)
    _by_id: dict[str, FingerprintRecord] = field(init=False, repr=False, compare=False)
    _video_index: dict[str | None, dict[str | None, tuple[tuple[FingerprintRecord, ...], ...]]] = field(
        init=False, repr=False, compare=False)
    _image_cells: dict[tuple[int, int], tuple[FingerprintRecord, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id: dict[str, FingerprintRecord] = {}
        images: list[FingerprintRecord] = []
        singles: list[FingerprintRecord] = []
        relays: list[FingerprintRecord] = []
        # Single-hop constraints by (media kind, app, OS).  A relay's
        # constraints are compared by equality within its own bucket, so no
        # constraints dataclass is hashed: its generated hash runs in Python.
        single_constraints: dict[tuple, list[Constraints | None]] = {}
        for rec in self.records:
            by_id.setdefault(rec.record_id, rec)
            if not rec.distinguishable:
                continue
            if rec.media_kind is MediaKind.IMAGE:
                images.append(rec)
            if rec.nth_app:
                relays.append(rec)
            else:
                single_constraints.setdefault((rec.media_kind, rec.app, rec.os), []).append(rec.constraints)
                if rec.media_kind is MediaKind.VIDEO:
                    singles.append(rec)
        # A chain record is overwritten when the N+1st messenger's re-encode
        # erased every trace of the N-th hop: its constraints equal a
        # single-hop record of the same (N+1) app and OS, so the single-hop
        # verdict stands on its own.
        overwritten: set[str] = set()
        chains: list[FingerprintRecord] = []
        for rec in relays:
            if rec.constraints in single_constraints.get((rec.media_kind, rec.app, rec.os), ()):
                overwritten.add(rec.record_id)
            elif rec.media_kind is MediaKind.VIDEO:
                chains.append(rec)
        image_originals: dict[tuple[int, int], OriginalProfile] = {}
        video_originals: dict[tuple, OriginalProfile] = {}
        for orig in self.originals:
            attrs = orig.attributes
            if orig.media_kind is MediaKind.IMAGE:
                image_originals.setdefault((attrs.width, attrs.length), orig)
            else:
                video_originals.setdefault(_original_key(attrs), orig)
        compiled = {
            "_by_id": by_id,
            "overwritten_chain_ids": frozenset(overwritten),
            "_image_originals": image_originals,
            "_video_originals": video_originals,
            "_video_index": _compile_video_index(singles, chains),
            "_image_cells": _compile_image_cells(images),
        }
        for name, value in compiled.items():
            object.__setattr__(self, name, value)

    def record(self, record_id: str) -> FingerprintRecord:
        return self._by_id[record_id]

    def image_original(self, attrs: ImageAttributes) -> OriginalProfile | None:
        """The first image original, in file order, with this resolution."""
        return self._image_originals.get((attrs.width, attrs.length))

    def video_original(self, attrs: VideoAttributes) -> OriginalProfile | None:
        """The first video original, in file order, whose attributes share these key fields."""
        return self._video_originals.get(_original_key(attrs))

    def video_candidates(
        self, codec_id: str, video_format_profile: str
    ) -> tuple[tuple[FingerprintRecord, ...], tuple[FingerprintRecord, ...]]:
        """(single-hop, chain) records a video with these two fields can match.

        Every other video record constrains codec id or video format profile
        to values that exclude these, so it cannot match.  Both tuples keep
        KB file order.  A value no record names falls to its level's ``None``
        bucket.
        """
        by_profile = self._video_index.get(codec_id) or self._video_index[None]
        return by_profile.get(video_format_profile) or by_profile[None]

    def image_candidates(self, width: int, length: int) -> tuple[FingerprintRecord, ...]:
        """Image records that may hold a resolution within tolerance of this one.

        Every record with a resolution within RESOLUTION_TOLERANCE on both
        axes is listed in the cell this resolution falls in; the tuple keeps
        KB file order.
        """
        return self._image_cells.get((width // _CELL_SIDE, length // _CELL_SIDE), ())


# The fields a video must share with an original's attribute vector to look
# like it: every field but encoder, markers and byte size.
_original_key = attrgetter("extension", "format_profile", "codec_id", "video_format_profile", "width", "length")


def _compile_video_index(singles: list[FingerprintRecord], chains: list[FingerprintRecord]) -> dict:
    """(single-hop, chain) candidates by codec id, then by video format profile.

    At each level, the bucket for a value some record names holds every
    record that names it or leaves the field empty; the ``None`` bucket holds
    only the records that leave the field empty and serves every value no
    record names.  Buckets keep KB file order.
    """
    index = {}
    for codec, pair in _split_by((singles, chains), "codec_ids").items():
        by_profile = _split_by(pair, "video_format_profiles")
        index[codec] = {profile: (tuple(single), tuple(chain)) for profile, (single, chain) in by_profile.items()}
    return index


def _split_by(pair: tuple[list, list], name: str) -> dict[str | None, tuple[list, list]]:
    """Split (singles, chains) into one such pair per value of constraint field ``name``.

    A record joins the bucket of each value it names, or every bucket when it
    names none; ``set`` keeps a value listed twice from adding it twice.
    """
    named = (value for records in pair for rec in records for value in getattr(rec.constraints, name))
    buckets = {value: ([], []) for value in named}
    buckets[None] = ([], [])
    for side, records in enumerate(pair):
        for rec in records:
            for value in set(getattr(rec.constraints, name)) or buckets:
                buckets[value][side].append(rec)
    return buckets


def _compile_image_cells(records: list[FingerprintRecord]) -> dict[tuple[int, int], tuple[FingerprintRecord, ...]]:
    """Register each record once in every cell its tolerance squares overlap.

    Records are visited in KB file order, so every cell lists them in that
    order.
    """
    tol, side = RESOLUTION_TOLERANCE, _CELL_SIDE
    cells: dict[tuple[int, int], list[FingerprintRecord]] = {}
    for rec in records:
        keys = set()
        for width, length in rec.constraints.resolutions:
            x0, x1 = (width - tol) // side, (width + tol) // side
            y0, y1 = (length - tol) // side, (length + tol) // side
            keys.update(((x0, y0), (x0, y1), (x1, y0), (x1, y1)))
        for key in keys:
            cells.setdefault(key, []).append(rec)
    return {key: tuple(cell) for key, cell in cells.items()}


_GROUP_RE = re.compile(r"^t(\d+)$")


def group_key(record_id: str) -> str:
    """Manifest group of a record id: ``t7-discord-default`` → ``table7``."""
    prefix = record_id.split("-", 1)[0]
    m = _GROUP_RE.match(prefix)
    return f"table{m.group(1)}" if m else prefix


# ---------------------------------------------------------------------------
# parsing

_SECTION_RE = re.compile(r"^\[(\w+)(?:\s+(\S+))?\]$")
_RESOLUTION_RE = re.compile(r"^(\d+)x(\d+)$")
_SIZE_BAND_RE = re.compile(r"^(\d+)\s*\+-\s*(\d+)$")
# A run of characters that are neither comma nor quote, or quoted strings.
_LIST_ITEM_RE = re.compile(r'(?:[^,"]+|"[^"]*")+')


def _unquote(item: str) -> str:
    item = item.strip()
    if len(item) >= 2 and item[0] == '"' and item[-1] == '"':
        return item[1:-1]
    return item


def _parse_list(value: str, where: str) -> tuple[str, ...]:
    """Comma-separated items; a comma between double quotes belongs to its item."""
    if value.count('"') % 2:
        raise SchemaError(f"{where}: unbalanced quote in {value!r}")
    return tuple([_unquote(part) for part in _LIST_ITEM_RE.findall(value) if part.strip()])


def _parse_resolutions(value: str, where: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for part in _parse_list(value, where):
        m = _RESOLUTION_RE.match(part)
        if m is None:
            raise SchemaError(f"{where}: bad resolution {part!r}")
        width, height = int(m.group(1)), int(m.group(2))
        if width < 1 or height < 1:
            raise SchemaError(f"{where}: resolution sides must be positive")
        pairs.append((width, height))
    return tuple(pairs)


def _parse_bool(value: str, where: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    raise SchemaError(f"{where}: expected a boolean, got {value!r}")


def _member_parser(kind: type, what: str):
    """A parser of lists of ``kind`` values; each item is one value, as written."""

    def parse(value: str, where: str) -> tuple:
        members = []
        for item in _parse_list(value, where):
            try:
                members.append(kind(item))
            except ValueError:
                raise SchemaError(f"{where}: unknown {what} {item!r}") from None
        return tuple(members)

    return parse


_parse_format_profiles = _member_parser(FormatProfile, "format profile")
_parse_markers = _member_parser(Marker, "marker")


def _subsets(items) -> list[frozenset]:
    return [frozenset(c) for n in range(len(items) + 1) for c in combinations(items, n)]


# Each marker set a record or file can hold, mapped to the set of its
# subsets: the values a record's marker row passes.  Built once, so records
# with equal marker sets share one object.
_MARKER_SUBSETS = {marker_set: frozenset(_subsets(marker_set)) for marker_set in _subsets(tuple(Marker))}


# The video membership fields in check order: (KB key, also the field's name
# in ``matched_fields``; VideoConstraints attribute; getter on
# VideoAttributes; parser of the KB value).  A record that populates one
# matches only the values it lists.
VIDEO_FIELDS = (
    ("extension", "extensions", attrgetter("extension"), _parse_list),
    ("format_profile", "format_profiles", attrgetter("format_profile"), _parse_format_profiles),
    ("codec_id", "codec_ids", attrgetter("codec_id"), _parse_list),
    ("video_format_profile", "video_format_profiles", attrgetter("video_format_profile"), _parse_list),
    ("resolution", "resolutions", attrgetter("width", "length"), _parse_resolutions),
    ("encoder", "encoders", attrgetter("encoder"), _parse_list),
)

# Resolution is the one constraint key both media kinds take.
_VIDEO_ONLY_KEYS = frozenset(key for key, *_ in VIDEO_FIELDS if key != "resolution") | {"markers"}
_IMAGE_ONLY_KEYS = frozenset({"size_band"})
_RECORD_KEYS = frozenset({
    "media", "app", "os", "quality", "nth_app", "indistinguishable", "resolution",
}) | _VIDEO_ONLY_KEYS | _IMAGE_ONLY_KEYS
_CONSTRAINT_KEYS = _VIDEO_ONLY_KEYS | _IMAGE_ONLY_KEYS | {"resolution"}
# The video fields an original may leave out, and the value its vector takes
# then; ``oracle`` fills a record's vector from the same table.
VIDEO_DEFAULTS = {"extension": "mp4", "format_profile": FormatProfile.BASE_MEDIA,
                  "codec_id": "", "video_format_profile": ""}
_ORIGINAL_REQUIRED = ("media", "os", "resolution", "nominal_size")
_ORIGINAL_KEYS = frozenset(_ORIGINAL_REQUIRED) | VIDEO_DEFAULTS.keys()
_MEDIA_KINDS = {kind.value: kind for kind in MediaKind}


class _Block:
    def __init__(self, kind: str, name: str | None, at: str):
        self.kind = kind
        self.name = name
        self.at = at  # "line 7", or "table07.kb line 7" in a directory load
        self.fields: dict[str, str] = {}  # in file order

    def where(self) -> str:
        label = self.name or self.kind
        return f"[{self.kind} {label}] ({self.at})"


def _split_blocks(text: str, source: str = "") -> list[_Block]:
    """The blocks of one KB text; ``source`` names its file in error locations."""
    at = f"{source} line " if source else "line "
    blocks: list[_Block] = []
    current: _Block | None = None
    for line_no, line in enumerate(map(str.strip, text.splitlines()), start=1):
        if not line or line[0] == "#":
            continue
        if line[0] == "[":
            m = _SECTION_RE.match(line)
            if m:
                kind, name = m.groups()
                if kind not in ("record", "original", "manifest"):
                    raise SchemaError(f"{at}{line_no}: unknown block {line!r}")
                if kind in ("record", "original") and not name:
                    raise SchemaError(f"{at}{line_no}: [{kind}] block needs an id")
                current = _Block(kind, name, f"{at}{line_no}")
                blocks.append(current)
                continue
        # The line is stripped, so the key can only end, and the value only
        # start, with whitespace.
        key, eq, value = line.partition("=")
        if not eq:
            raw = text.splitlines()[line_no - 1]
            raise SchemaError(f"{at}{line_no}: expected 'key = value', got {raw!r}")
        if current is None:
            raise SchemaError(f"{at}{line_no}: field outside any block")
        key = key.rstrip()
        if key in current.fields:
            raise SchemaError(f"{current.where()}: duplicate key {key!r}")
        current.fields[key] = value.lstrip()
    return blocks


def _parse(parsed: dict, parser, value: str, where: str):
    """``parser(value, where)``, looked up in or added to the load's ``parsed``.

    Only results are kept, so a bad value fails again, with its own block's
    ``where``, at every block that holds it; the first one ends the load.
    """
    result = parsed.get((parser, value))
    if result is None:
        result = parsed[parser, value] = parser(value, where)
    return result


def _build_record(block: _Block, parsed: dict) -> FingerprintRecord:
    where = block.where()
    f = block.fields
    unknown = f.keys() - _RECORD_KEYS
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")

    def require(key: str) -> str:
        if key not in f:
            raise SchemaError(f"{where}: missing key {key!r}")
        return f[key]

    media = _MEDIA_KINDS.get(require("media"))
    if media is None:
        raise SchemaError(f"{where}: unknown media kind {f['media']!r}")
    try:
        rec_os = parse_os(require("os"))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    nth_app = f.get("nth_app") or None
    indistinguishable = _parse_bool(f["indistinguishable"], where) if "indistinguishable" in f else False

    wrong_kind = _VIDEO_ONLY_KEYS if media is MediaKind.IMAGE else _IMAGE_ONLY_KEYS
    used_wrong = wrong_kind.intersection(f)
    if used_wrong:
        raise SchemaError(f"{where}: keys {sorted(used_wrong)} not valid for {media.value} records")

    if indistinguishable:
        if _CONSTRAINT_KEYS.intersection(f):
            raise SchemaError(f"{where}: indistinguishable records carry no constraints")
        constraints: Constraints | None = None
    elif media is MediaKind.IMAGE:
        resolutions = _parse(parsed, _parse_resolutions, require("resolution"), where)
        if not resolutions:
            raise SchemaError(f"{where}: image records need at least one resolution")
        size_band = None
        if "size_band" in f:
            m = _SIZE_BAND_RE.match(f["size_band"])
            if m is None:
                raise SchemaError(f"{where}: size_band must look like '100000 +- 10000'")
            size_band = (int(m.group(1)), int(m.group(2)))
        constraints = ImageConstraints(resolutions, size_band)
    else:
        values = {
            attr: _parse(parsed, parse, f[key], where)
            for key, attr, _, parse in VIDEO_FIELDS
            if key in f
        }
        # An omitted line means no markers; values come stripped from _split_blocks.
        markers_value = f.get("markers", "")
        markers = None if markers_value.lower() == "any" else _parse(parsed, _parse_markers, markers_value, where)
        # Checked here, not by the parser originals share: there a quoted
        # empty extension means the field is left out.
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


def _build_original(block: _Block, parsed: dict) -> OriginalProfile:
    where = block.where()
    f = block.fields
    unknown = f.keys() - _ORIGINAL_KEYS
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    for key in _ORIGINAL_REQUIRED:
        if key not in f:
            raise SchemaError(f"{where}: missing key {key!r}")
    used_wrong = _VIDEO_ONLY_KEYS.intersection(f) if f["media"] == MediaKind.IMAGE.value else None
    if used_wrong:
        raise SchemaError(f"{where}: keys {sorted(used_wrong)} not valid for image originals")
    # Each video field an original names is parsed as a record's would be.
    values = {}
    for key, _, _, parse in VIDEO_FIELDS:
        if key in f:
            items = _parse(parsed, parse, f[key], where)
            if len(items) != 1:
                raise SchemaError(f"{where}: originals carry exactly one {key.replace('_', ' ')}")
            values[key] = items[0]
    if not f["nominal_size"].isdecimal():
        raise SchemaError(f"{where}: nominal_size must be a byte count, got {f['nominal_size']!r}")
    media = _MEDIA_KINDS.get(f["media"])
    if media is None:
        raise SchemaError(f"{where}: unknown media kind {f['media']!r}")
    try:
        os_source = parse_os(f["os"])
        width, length = values["resolution"]
        size = int(f["nominal_size"])
        if media is MediaKind.IMAGE:
            attributes: VideoAttributes | ImageAttributes = ImageAttributes(width, length, size)
        else:
            # A quoted empty item (`extension = ""`) counts as left out.
            filled = {key: values.get(key) or default for key, default in VIDEO_DEFAULTS.items()}
            attributes = VideoAttributes(**filled, width=width, length=length, byte_size=size)
    except ValueError as exc:  # an OS, extension or size the vector rejects
        raise SchemaError(f"{where}: {exc}") from None
    return OriginalProfile(block.name or "", os_source, attributes)


def load_kb(text: str) -> KnowledgeBase:
    """Parse KB text; verifies the manifest when one is declared.

    Raises SchemaError on malformed blocks and ManifestMismatch when the
    per-group record counts drift from the manifest.
    """
    return _load_blocks(_split_blocks(text))


def _load_blocks(blocks: list[_Block]) -> KnowledgeBase:
    records: list[FingerprintRecord] = []
    originals: list[OriginalProfile] = []
    manifest: list[tuple[str, int]] | None = None
    # (parser, raw value) -> parsed value, for this load only: a new load
    # parses everything again, as a new process would.
    parsed: dict[tuple, object] = {}

    for block in blocks:
        if block.kind == "record":
            records.append(_build_record(block, parsed))
        elif block.kind == "original":
            originals.append(_build_original(block, parsed))
        else:  # manifest
            if manifest is not None:
                raise SchemaError(f"{block.where()}: duplicate manifest block")
            manifest = []
            for key, value in block.fields.items():
                try:
                    manifest.append((key, int(value)))
                except ValueError:
                    raise SchemaError(f"{block.where()}: count for {key!r} is not an integer") from None

    seen: set[str] = set()
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
        _verify_manifest(kb)
    return kb


def _verify_manifest(kb: KnowledgeBase) -> None:
    # A group missing from either side counts as 0 there.
    counts: dict[str, int] = {"originals": len(kb.originals)}
    for rec in kb.records:
        counts[rec.group] = counts.get(rec.group, 0) + 1
    declared = dict(kb.manifest or ())
    drift = [
        f"{key}: declared {declared.get(key, 0)}, loaded {counts.get(key, 0)}"
        for key in sorted(set(declared) | set(counts))
        if declared.get(key, 0) != counts.get(key, 0)
    ]
    if drift:
        raise ManifestMismatch("; ".join(drift))


def default_kb_path() -> Path:
    env = _os.environ.get(KB_ENV_VAR)
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


def load_kb_path(path: str | Path | None = None) -> KnowledgeBase:
    """Load a KB from a file, or from every ``*.kb`` file in a directory.

    A directory's names that start with ``.`` are skipped: an editor's lock
    link or hidden copy is not part of the KB.  Directory files are read in
    sorted name order, which fixes the record order (and therefore rank
    tie-breaking) independently of the filesystem.
    Each file is split into blocks on its own, so a block ends with its file,
    and an error names the file and the line within it.  Raises only
    KbError, also for a file that cannot be read or is not UTF-8.
    """
    target = Path(path) if path is not None else default_kb_path()
    if target.is_dir():
        paths = [p for p in sorted(target.glob("*.kb")) if not p.name.startswith(".")]
        texts = [(p.name, _read_text(p)) for p in paths]
        if not texts:
            raise KbError(f"no .kb files under {target}")
        return _load_blocks([block for name, text in texts for block in _split_blocks(text, name)])
    return load_kb(_read_text(target))


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    except OSError as exc:
        raise KbError(f"{path}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# validation and queries

@dataclass(frozen=True)
class Finding:
    kind: str  # collision | orphan-chain
    message: str
    record_ids: tuple[str, ...]


def validate_kb(kb: KnowledgeBase) -> tuple[Finding, ...]:
    """Collision groups and orphan chains, in that order.

    Collision groups (several records matching byte-identical evidence) are
    expected for deliberately ambiguous rows and are informational.  Records
    that match nothing are not reported: the loader already rejects an image
    record without a resolution and a distinguishable video record without
    constraints.
    """
    findings: list[Finding] = []

    groups: dict[tuple, list[FingerprintRecord]] = {}
    for rec in kb.records:
        if not rec.distinguishable:
            continue
        groups.setdefault((rec.media_kind, bool(rec.nth_app), rec.constraints), []).append(rec)
    for (media, relay, _), members in groups.items():
        if len(members) > 1:
            ids = tuple(r.record_id for r in members)
            findings.append(Finding(
                "collision",
                f"{len(members)} {media.value} {'chain' if relay else 'single'} records match identical evidence",
                ids,
            ))

    single_apps = {r.app for r in kb.records if not r.nth_app and r.media_kind is MediaKind.VIDEO}
    for rec in kb.records:
        if rec.nth_app and rec.nth_app not in single_apps:
            findings.append(Finding(
                "orphan-chain",
                f"nth_app {rec.nth_app!r} has no single-hop record",
                (rec.record_id,),
            ))

    return tuple(findings)


def list_records(
    kb: KnowledgeBase,
    app: str | None = None,
    os: OS | str | None = None,
    media_kind: MediaKind | str | None = None,
) -> list[FingerprintRecord]:
    """Filter records conjunctively; stable file order; app match is case-insensitive."""
    wanted_os = parse_os(os) if isinstance(os, str) else os
    wanted_kind = MediaKind(media_kind) if isinstance(media_kind, str) else media_kind
    out = []
    for rec in kb.records:
        if app is not None and rec.app.lower() != app.lower():
            continue
        if wanted_os is not None and rec.os is not wanted_os:
            continue
        if wanted_kind is not None and rec.media_kind is not wanted_kind:
            continue
        out.append(rec)
    return out


__all__ = [
    "KB_ENV_VAR", "RESOLUTION_TOLERANCE", "VIDEO_FIELDS", "VIDEO_DEFAULTS",
    "KbError", "SchemaError", "ManifestMismatch",
    "ImageConstraints", "VideoConstraints", "Candidate", "ChainHypothesis", "FingerprintRecord",
    "OriginalProfile", "KnowledgeBase", "Finding",
    "group_key", "load_kb", "load_kb_path", "default_kb_path",
    "validate_kb", "list_records",
]
