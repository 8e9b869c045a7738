"""Fingerprint knowledge base: file format, loading, validation, queries.

The KB is plain text, line oriented.  A block starts with ``[record <id>]``
(one messenger fingerprint), ``[original <id>]`` (an untouched-camera
profile) or ``[manifest]``, followed by ``key = value`` lines.
List values are comma separated, resolution pairs are ``WxH``, strings that
must match exactly (codec ids, format-profile strings, encoders) are quoted,
and a comma inside quotes belongs to its item.  Whole lines starting with
``#`` are comments.  Encoding UTF-8 (a leading byte-order mark is dropped),
LF endings.

Record ids carry a group prefix (``t7-...``); the ``[manifest]`` block pins
the expected record count per group (``table7 = 20``) so any row lost or
gained while editing the data files fails the load instead of silently
shifting verdicts.

``VIDEO_FIELDS`` is the one list of video membership fields and of how each
is parsed; each ``VideoConstraints`` compiles one row per field it
populates, plus a last row for the marker rule unless the record allows any
markers, and ``engine`` matches by looping over those rows.  Every video
record and video original names the four container fields
(``CONTAINER_FIELDS``); a record may leave out resolution and encoder, which
then have no row and constrain nothing.  A record is a relay (two-hop)
record exactly when it names ``nth_app``, and only a video record may.

A load makes one pass over each file's lines, one over the blocks and one
over the records.  The line pass splits each distinct ``key = value`` line
once per load (most lines repeat) and gathers the fields into blocks.  The
block pass puts each ``[record]`` and ``[original]`` block through one
checker for its key set, media kind, OS and the keys of the other media
kind, then builds it, parsing each distinct field value once; a value the
types refuse with ``ValueError`` fails the load as a ``SchemaError`` that
names the block.  The record pass is ``KnowledgeBase.__post_init__``, whose
id index also finds a duplicate id and counts the records of each manifest
group.  A directory is read one ``*.kb`` file at a time, in sorted name
order, so a block never continues into the next file; names starting with
``.`` (editor locks and hidden copies) are skipped.

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
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product
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
    OS_BY_VALUE,
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
    that of a file the size band holds.
    """

    resolutions: tuple[tuple[int, int], ...]
    size_band: tuple[int, int] | None = None  # (center, tolerance) in bytes

    matched: ClassVar[tuple[str, ...]] = ("resolution",)
    matched_with_size_band: ClassVar[tuple[str, ...]] = ("resolution", "byte_size")


@dataclass(frozen=True)
class VideoConstraints:
    """Evidence a video fingerprint matches on.

    Each container field names at least one value, or construction raises
    ValueError; resolutions or encoders left empty constrain nothing.
    ``markers`` is the characteristic marker set of the transformed file: a
    file matches only when its markers are a subset of it; ``None`` allows
    any markers.
    """

    extensions: tuple[str, ...]
    format_profiles: tuple[FormatProfile, ...]
    codec_ids: tuple[str, ...]
    video_format_profiles: tuple[str, ...]
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
        rows = []
        names = []
        for name, attr, get, _ in VIDEO_FIELDS:
            values = getattr(self, attr)
            if values:
                rows.append((name, values, get))
                names.append(name)
            elif name in CONTAINER_FIELDS:
                raise ValueError(f"video records need at least one {name.replace('_', ' ')}")
        matched = tuple(names)
        if self.markers is not None:
            rows.append(("markers", _MARKER_SUBSETS[frozenset(self.markers)], _MARKERS))
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "matched", matched)
        object.__setattr__(self, "matched_with_markers", matched + ("markers",) if self.markers else matched)


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

    A record with ``nth_app`` is a relay (two-hop) record, and only a video
    record may be one (ValueError otherwise); one without ``constraints`` is
    a placeholder for a combination that leaves no footprint.  ``evidence``
    maps each matched-field tuple a match of the record can return, its
    constraints' ``matched`` tuple and, with markers or a size band, the
    full one, to the frozen ``Candidate`` it yields, or for a relay the
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
        if self.nth_app and self.media_kind is MediaKind.IMAGE:
            raise ValueError("only video records may name nth_app")
        evidence = {}
        c = self.constraints
        if c is not None:
            if isinstance(c, ImageConstraints):
                keys = (c.matched, c.matched_with_size_band) if c.size_band else (c.matched,)
            else:
                keys = (c.matched, c.matched_with_markers) if c.markers else (c.matched,)
            for key in keys:
                if self.nth_app:
                    evidence[key] = ChainHypothesis(self.nth_app, self.app, self.os, self.quality, key)
                else:
                    evidence[key] = Candidate(self.record_id, self.app, self.os, self.quality, key)
        object.__setattr__(self, "evidence", evidence)

    @property
    def distinguishable(self) -> bool:
        return self.constraints is not None

    @property
    def group(self) -> str:
        return group_key(self.record_id)


@dataclass(frozen=True)
class OriginalProfile:
    """A Table-of-originals row: the attribute vector of untouched camera output."""

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
    vector has the file's key fields, each with one dict lookup.
    ``image_band_edges`` holds, sorted, the edges of the size bands of the
    image records that can match.  Neither the records nor the indexes
    change after construction, so a KB is safe to share between threads.
    """

    records: tuple[FingerprintRecord, ...]
    originals: tuple[OriginalProfile, ...] = ()
    manifest: tuple[tuple[str, int], ...] | None = None

    # Compiled indexes; not part of equality, repr or the constructor.
    overwritten_chain_ids: frozenset[str] = field(init=False, repr=False, compare=False)
    _image_originals: dict[tuple[int, int], OriginalProfile] = field(init=False, repr=False, compare=False)
    _video_originals: dict[tuple, OriginalProfile] = field(init=False, repr=False, compare=False)
    _by_id: dict[str, FingerprintRecord] = field(init=False, repr=False, compare=False)
    _video_index: dict[tuple[str, str], tuple[tuple[FingerprintRecord, ...], ...]] = field(
        init=False, repr=False, compare=False)
    _image_cells: dict[tuple[int, int], tuple[FingerprintRecord, ...]] = field(
        init=False, repr=False, compare=False)
    image_band_edges: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id: dict[str, FingerprintRecord] = {}
        images: list[FingerprintRecord] = []
        singles: list[FingerprintRecord] = []
        relays: list[FingerprintRecord] = []
        # Single-hop video constraints by (app, OS).  A relay's constraints
        # are compared by equality within its own bucket, so no constraints
        # dataclass is hashed: its generated hash runs in Python.
        single_constraints: dict[tuple, list[VideoConstraints]] = {}
        for rec in self.records:
            by_id.setdefault(rec.record_id, rec)
            constraints = rec.constraints
            if constraints is None:
                continue
            if rec.media_kind is MediaKind.IMAGE:
                images.append(rec)
            elif rec.nth_app:
                relays.append(rec)
            else:
                singles.append(rec)
                single_constraints.setdefault((rec.app, rec.os), []).append(constraints)
        # A chain record is overwritten when the N+1st messenger's re-encode
        # erased every trace of the N-th hop: its constraints equal a
        # single-hop record of the same (N+1) app and OS, so the single-hop
        # verdict stands on its own.
        overwritten: set[str] = set()
        chains: list[FingerprintRecord] = []
        for rec in relays:
            if rec.constraints in single_constraints.get((rec.app, rec.os), ()):
                overwritten.add(rec.record_id)
            else:
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
            "image_band_edges": _compile_band_edges(images),
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

        Every other video record names other values of codec id or video
        format profile, so it cannot match.  Both tuples keep KB file order.
        """
        return self._video_index.get((codec_id, video_format_profile), _NO_CANDIDATES)

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
_NO_CANDIDATES: tuple[tuple[FingerprintRecord, ...], tuple[FingerprintRecord, ...]] = ((), ())


def _compile_video_index(singles: list[FingerprintRecord], chains: list[FingerprintRecord]) -> dict:
    """(single-hop, chain) candidates by (codec id, video format profile).

    A record joins the bucket of each pair of values it names, once however
    often it lists a value.  Buckets keep KB file order.
    """
    index: dict[tuple[str, str], tuple[list, list]] = {}
    for side, records in enumerate((singles, chains)):
        for rec in records:
            c = rec.constraints
            for pair in dict.fromkeys(product(c.codec_ids, c.video_format_profiles)):
                index.setdefault(pair, ([], []))[side].append(rec)
    return {pair: (tuple(single), tuple(chain)) for pair, (single, chain) in index.items()}


def _compile_image_cells(records: list[FingerprintRecord]) -> dict[tuple[int, int], tuple[FingerprintRecord, ...]]:
    """Register each record once in every cell its tolerance squares overlap.

    Records are visited in KB file order, so every cell lists them in that
    order.
    """
    tol, side = RESOLUTION_TOLERANCE, _CELL_SIDE
    cells: dict[tuple[int, int], tuple[FingerprintRecord, ...]] = {}
    for rec in records:
        keys = set()
        for width, length in rec.constraints.resolutions:
            x0, x1 = (width - tol) // side, (width + tol) // side
            y0, y1 = (length - tol) // side, (length + tol) // side
            keys.update(((x0, y0), (x0, y1), (x1, y0), (x1, y1)))
        for key in keys:
            cells[key] = cells.get(key, ()) + (rec,)
    return cells


def _compile_band_edges(records: list[FingerprintRecord]) -> tuple[int, ...]:
    """The sorted edges of every size band: a band (c, t) holds the sizes in
    [c - t, c + t + 1), so membership in every band is constant between
    consecutive edges."""
    bands = [rec.constraints.size_band for rec in records if rec.constraints.size_band]
    return tuple(sorted({edge for c, t in bands for edge in (c - t, c + t + 1)}))


_GROUP_RE = re.compile(r"^t([0-9]+)$")


def group_key(record_id: str) -> str:
    """Manifest group of a record id: ``t7-discord-default`` → ``table7``."""
    prefix = record_id.partition("-")[0]
    m = _GROUP_RE.match(prefix)
    return f"table{m[1]}" if m else prefix


# ---------------------------------------------------------------------------
# parsing

_SECTION_RE = re.compile(r"^\[(\w+)(?:\s+(\S+))?\]$")
# Every number in a KB is written in ASCII decimal digits (see _is_count):
# ``\d`` would also take the digits of other scripts, which int() reads.
_SIZE_BAND_RE = re.compile(r"^([0-9]+)\s*\+-\s*([0-9]+)$")
# A run of characters that are neither comma nor quote, or quoted strings.
_LIST_ITEM_RE = re.compile(r'(?:[^,"]+|"[^"]*")+')


def _is_count(text: str) -> bool:
    """Whether ``text`` is a count written in ASCII decimal digits.  int() also
    reads a sign, underscores and other scripts' digits; a KB number holds none."""
    return text.isascii() and text.isdigit()


def _unquote(item: str) -> str:
    item = item.strip()
    if len(item) >= 2 and item[0] == '"' and item[-1] == '"':
        return item[1:-1]
    return item


def _parse_list(value: str, where: str) -> tuple[str, ...]:
    """Comma-separated items; a comma between double quotes belongs to its item."""
    if '"' not in value:  # every comma separates
        return tuple([item for part in value.split(",") if (item := part.strip())])
    if value[0] == '"' and value.find('"', 1) == len(value) - 1:  # one quoted item
        return (value[1:-1],)
    if value.count('"') % 2:
        raise SchemaError(f"{where}: unbalanced quote in {value!r}")
    return tuple([_unquote(part) for part in _LIST_ITEM_RE.findall(value) if part.strip()])


def _parse_resolutions(value: str, where: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for part in _parse_list(value, where):
        w, x, h = part.partition("x")
        if not (x and _is_count(w) and _is_count(h)):
            raise SchemaError(f"{where}: bad resolution {part!r}")
        width, height = int(w), int(h)
        if width < 1 or height < 1:
            raise SchemaError(f"{where}: resolution sides must be positive")
        pairs.append((width, height))
    return tuple(pairs)


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


def _extension(item: str) -> str:
    if item not in EXTENSIONS:
        raise ValueError(item)
    return item


_parse_extensions = _member_parser(_extension, "extension")
_parse_format_profiles = _member_parser(FormatProfile, "format profile")
_parse_markers = _member_parser(Marker, "marker")


def _subsets(items) -> list[frozenset]:
    return [frozenset(c) for n in range(len(items) + 1) for c in combinations(items, n)]


# Each marker set a record or file can hold, mapped to the set of its
# subsets: the values a record's marker row passes.  Built once, so records
# with equal marker sets share one object.
_MARKER_SUBSETS = {marker_set: frozenset(_subsets(marker_set)) for marker_set in _subsets(tuple(Marker))}
_MARKERS = attrgetter("markers")  # the getter of every marker row


# The video membership fields in check order, also VideoConstraints' field
# order: (KB key, also the field's name in ``matched_fields``; VideoConstraints
# attribute; getter on VideoAttributes; parser of the KB value).  A record
# that populates one matches only the values it lists.
VIDEO_FIELDS = (
    ("extension", "extensions", attrgetter("extension"), _parse_extensions),
    ("format_profile", "format_profiles", attrgetter("format_profile"), _parse_format_profiles),
    ("codec_id", "codec_ids", attrgetter("codec_id"), _parse_list),
    ("video_format_profile", "video_format_profiles", attrgetter("video_format_profile"), _parse_list),
    ("resolution", "resolutions", attrgetter("width", "length"), _parse_resolutions),
    ("encoder", "encoders", attrgetter("encoder"), _parse_list),
)
# The container fields the messenger's transcoder stamps: every video record
# and video original names each of them.
CONTAINER_FIELDS = ("extension", "format_profile", "codec_id", "video_format_profile")

# Resolution is the one constraint key both media kinds take.
_VIDEO_ONLY_KEYS = frozenset(key for key, *_ in VIDEO_FIELDS if key != "resolution") | {"markers"}
_IMAGE_ONLY_KEYS = frozenset({"size_band"})
_RECORD_KEYS = frozenset({
    "media", "app", "os", "quality", "nth_app", "indistinguishable", "resolution",
}) | _VIDEO_ONLY_KEYS | _IMAGE_ONLY_KEYS
_CONSTRAINT_KEYS = _VIDEO_ONLY_KEYS | _IMAGE_ONLY_KEYS | {"resolution"}
_ORIGINAL_KEYS = frozenset({"media", "os", "resolution", "nominal_size", *CONTAINER_FIELDS})
_MEDIA_KINDS = {kind.value: kind for kind in MediaKind}


def _split_blocks(text: str, seen: dict[str, tuple[str, str]], source: str = "") -> list[tuple]:
    """The blocks of one KB text, each (kind, id or None, where, fields in file
    order).  ``where`` names the block in errors, and ``source`` its file; ``seen``
    maps each field line this load has split, as written, to its (key, value)."""
    at = f"{source} line " if source else "line "
    blocks: list[tuple] = []
    fields: dict[str, str] | None = None  # the current block's
    where = ""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        pair = seen.get(raw)
        if pair is None:
            line = raw.strip()
            # Only a blank line ("" is in every string), a comment or a
            # header starts with one of these.
            if line[:1] in "#[":
                if not line or line[0] == "#":
                    continue
                m = _SECTION_RE.match(line)
                if m:  # else a field whose key starts with "["
                    kind, name = m.groups()
                    if kind not in ("record", "original", "manifest"):
                        raise SchemaError(f"{at}{line_no}: unknown block {line!r}")
                    if kind != "manifest" and not name:
                        raise SchemaError(f"{at}{line_no}: [{kind}] block needs an id")
                    where = f"[{kind} {name or kind}] ({at}{line_no})"
                    fields = {}
                    blocks.append((kind, name, where, fields))
                    continue
            # The line is stripped, so the key can only end, and the value
            # only start, with whitespace.
            key, eq, value = line.partition("=")
            if not eq:
                raise SchemaError(f"{at}{line_no}: expected 'key = value', got {raw!r}")
            pair = seen[raw] = (key.rstrip(), value.lstrip())
        if fields is None:
            raise SchemaError(f"{at}{line_no}: field outside any block")
        key, value = pair
        if key in fields:
            raise SchemaError(f"{where}: duplicate key {key!r}")
        fields[key] = value
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


def _required(f: dict[str, str], key: str, where: str) -> str:
    if key not in f:
        raise SchemaError(f"{where}: missing key {key!r}")
    return f[key]


def _check_block(kind: str, where: str, f: dict[str, str], keys: frozenset[str]) -> tuple[MediaKind, OS]:
    """The checks a ``[record]`` and an ``[original]`` block share, in order:
    no key outside ``keys``, a known media kind, a valid OS, and no key of
    the other media kind.  Returns the block's media kind and OS."""
    if not keys.issuperset(f):
        raise SchemaError(f"{where}: unknown keys {sorted(f.keys() - keys)}")
    media = _MEDIA_KINDS.get(f.get("media"))
    if media is None:
        raise SchemaError(f"{where}: unknown media kind {_required(f, 'media', where)!r}")
    block_os = OS_BY_VALUE.get(f.get("os"))
    if block_os is None:
        raise SchemaError(f"{where}: unknown OS {_required(f, 'os', where)!r}")
    wrong = _VIDEO_ONLY_KEYS if media is MediaKind.IMAGE else _IMAGE_ONLY_KEYS
    if not wrong.isdisjoint(f):
        raise SchemaError(f"{where}: keys {sorted(wrong.intersection(f))} not valid for {media.value} {kind}s")
    return media, block_os


def _build_record(name: str, where: str, f: dict[str, str], parsed: dict) -> FingerprintRecord:
    media, rec_os = _check_block("record", where, f, _RECORD_KEYS)
    if "indistinguishable" in f:
        if f["indistinguishable"] != "true":
            raise SchemaError(f"{where}: indistinguishable must be 'true', got {f['indistinguishable']!r}")
        if _CONSTRAINT_KEYS.intersection(f):
            raise SchemaError(f"{where}: indistinguishable records carry no constraints")
        constraints: Constraints | None = None
    elif media is MediaKind.IMAGE:
        resolutions = _parse(parsed, _parse_resolutions, _required(f, "resolution", where), where)
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
        # One value per VideoConstraints field, in its order; () for a line left out.
        values = [_parse(parsed, parse, f[key], where) if key in f else () for key, _, _, parse in VIDEO_FIELDS]
        # An omitted line means no markers; values come stripped from _split_blocks.
        markers_value = f.get("markers", "")
        markers = None if markers_value == "any" else _parse(parsed, _parse_markers, markers_value, where)
        constraints = VideoConstraints(*values, markers)

    names = (_required(f, "app", where), _required(f, "quality", where), f.get("nth_app"))
    if "" in names:
        raise SchemaError(f"{where}: empty {('app', 'quality', 'nth_app')[names.index('')]}")
    app, quality, nth_app = names
    return FingerprintRecord(name, media, app, rec_os, quality, nth_app, constraints)


def _build_original(name: str, where: str, f: dict[str, str], parsed: dict) -> OriginalProfile:
    media, os_source = _check_block("original", where, f, _ORIGINAL_KEYS)
    _required(f, "resolution", where)
    nominal_size = _required(f, "nominal_size", where)
    # Each video field an original names is parsed as a record's would be.
    values = {}
    for key, _, _, parse in VIDEO_FIELDS:
        if key in f:
            items = _parse(parsed, parse, f[key], where)
            if len(items) != 1:
                raise SchemaError(f"{where}: originals carry exactly one {key.replace('_', ' ')}")
            values[key] = items[0]
    if media is MediaKind.VIDEO:
        for key in CONTAINER_FIELDS:
            _required(f, key, where)
    if not _is_count(nominal_size):
        raise SchemaError(f"{where}: nominal_size must be a byte count, got {nominal_size!r}")
    width, length = values.pop("resolution")
    size = int(nominal_size)
    if media is MediaKind.IMAGE:
        attributes: VideoAttributes | ImageAttributes = ImageAttributes(width, length, size)
    else:
        attributes = VideoAttributes(**values, width=width, length=length, byte_size=size)
    return OriginalProfile(name, os_source, attributes)


def load_kb(text: str) -> KnowledgeBase:
    """Parse KB text; verifies the manifest when one is declared.

    Raises SchemaError on malformed blocks and ManifestMismatch when the
    per-group record counts drift from the manifest.
    """
    return _load_blocks(_split_blocks(text, {}))


def _load_blocks(blocks: list[tuple]) -> KnowledgeBase:
    records: list[FingerprintRecord] = []
    originals: list[OriginalProfile] = []
    manifest: list[tuple[str, int]] | None = None
    # (parser, raw value) -> parsed value, for this load only: a new load
    # parses everything again, as a new process would.
    parsed: dict[tuple, object] = {}

    # The types refuse, with ValueError, a value they cannot hold (a container
    # field left empty, nth_app on an image, a byte size below an image's
    # least), as int() refuses a number past its digit limit; the error
    # names the block that holds it.
    try:
        for kind, name, where, f in blocks:
            if kind == "record":
                records.append(_build_record(name, where, f, parsed))
            elif kind == "original":
                originals.append(_build_original(name, where, f, parsed))
            else:  # manifest
                if manifest is not None:
                    raise SchemaError(f"{where}: duplicate manifest block")
                manifest = []
                for key, value in f.items():
                    if not _is_count(value):
                        raise SchemaError(f"{where}: count for {key!r} is not an integer")
                    manifest.append((key, int(value)))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None

    kb = KnowledgeBase(
        records=tuple(records),
        originals=tuple(originals),
        manifest=tuple(manifest) if manifest is not None else None,
    )
    if len(kb._by_id) < len(records):  # the id index keeps each id's first record
        dup = next(rec for rec in records if kb._by_id[rec.record_id] is not rec)
        raise SchemaError(f"duplicate record id {dup.record_id!r}")
    if manifest is not None:
        counts = Counter(map(group_key, kb._by_id))
        counts["originals"] += len(originals)
        declared = dict(manifest)
        # A group missing from either side counts as 0 there.
        drift = [f"{key}: declared {declared.get(key, 0)}, loaded {counts[key]}"
                 for key in sorted(declared.keys() | counts.keys()) if declared.get(key, 0) != counts[key]]
        if drift:
            raise ManifestMismatch("; ".join(drift))
    return kb


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
        try:
            names = sorted(name for name in _os.listdir(target) if name.endswith(".kb") and name[0] != ".")
        except PermissionError:  # as a glob finds nothing in a directory it cannot list
            names = []
        if not names:
            raise KbError(f"no .kb files under {target}")
        texts = [(name, _read_text(target / name)) for name in names]
        seen: dict[str, tuple[str, str]] = {}
        return _load_blocks([block for name, text in texts for block in _split_blocks(text, seen, name)])
    return load_kb(_read_text(target))


def _read_text(path: Path) -> str:
    """The file's text, without the UTF-8 byte-order mark it may start with."""
    try:
        with open(path, "rb", buffering=0) as file:
            return file.read().decode("utf-8").removeprefix("\ufeff")
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
    record without a resolution and a video record that leaves a container
    field empty.
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
    "KB_ENV_VAR", "RESOLUTION_TOLERANCE", "VIDEO_FIELDS", "CONTAINER_FIELDS",
    "KbError", "SchemaError", "ManifestMismatch",
    "ImageConstraints", "VideoConstraints", "Candidate", "ChainHypothesis", "FingerprintRecord",
    "OriginalProfile", "KnowledgeBase", "Finding",
    "group_key", "load_kb", "load_kb_path", "default_kb_path",
    "validate_kb", "list_records",
]
