"""Fingerprint knowledge base: file format, loading, validation, queries.

The KB is plain text, line oriented.  A block starts with ``[record <id>]``
(one messenger fingerprint), ``[original <id>]`` (an untouched-camera
profile) or ``[manifest]``, followed by ``key = value`` lines.
List values are comma separated, resolution pairs are ``WxH``, strings that
must match exactly (codec ids, format-profile strings, encoders) are quoted.
Whole lines starting with ``#`` are comments.  Encoding UTF-8, LF endings.

Record ids carry a group prefix (``t7-...``); the ``[manifest]`` block pins
the expected record count per group (``table7 = 20``) so any row lost or
gained while editing the data files fails the load instead of silently
shifting verdicts.

A loaded ``KnowledgeBase`` compiles the indexes queries use.  Image
resolutions match within ``RESOLUTION_TOLERANCE`` pixels; the constant lives
here because the image candidate cells are sized from it, and ``engine``'s
matcher reads the same name.
"""

from __future__ import annotations

import enum
import os as _os
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .attributes import (
    FormatProfile,
    ImageAttributes,
    Marker,
    MediaKind,
    OS,
    VideoAttributes,
    parse_marker,
    parse_os,
)

KB_ENV_VAR = "MEDIAFP_KB"

ALL_MARKERS = frozenset(Marker)

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


class Hop(str, enum.Enum):
    SINGLE = "single"
    CHAIN = "chain"


@dataclass(frozen=True)
class ImageConstraints:
    """Evidence an image fingerprint matches on."""

    resolutions: tuple[tuple[int, int], ...]
    size_band: tuple[int, int] | None = None  # (center, tolerance) in bytes


@dataclass(frozen=True)
class VideoConstraints:
    """Evidence a video fingerprint matches on.

    ``markers`` is the characteristic marker set of the transformed file:
    matching allows exactly those markers and forbids the rest, unless
    ``markers_any`` lifts the constraint entirely.
    """

    extensions: tuple[str, ...] = ()
    format_profiles: tuple[FormatProfile, ...] = ()
    codec_ids: tuple[str, ...] = ()
    video_format_profiles: tuple[str, ...] = ()
    resolutions: tuple[tuple[int, int], ...] = ()
    resolution_wildcard: bool = False
    encoders: tuple[str, ...] = ()
    markers: tuple[Marker, ...] = ()
    markers_any: bool = False

    # The marker sets are computed on first use and kept, so matching does
    # not rebuild them per call and loading a KB does not pay for them.
    @cached_property
    def marker_set(self) -> frozenset[Marker]:
        return frozenset(self.markers)

    @cached_property
    def forbidden_markers(self) -> frozenset[Marker]:
        if self.markers_any:
            return frozenset()
        return ALL_MARKERS - self.marker_set

    def is_empty(self) -> bool:
        return not (
            self.extensions
            or self.format_profiles
            or self.codec_ids
            or self.video_format_profiles
            or self.resolutions
            or self.resolution_wildcard
            or self.encoders
        )


Constraints = ImageConstraints | VideoConstraints


@dataclass(frozen=True)
class FingerprintRecord:
    """One knowledge-base entry: (app, OS, quality) → attribute constraints."""

    record_id: str
    media_kind: MediaKind
    app: str
    os: OS
    quality: str
    hop: Hop = Hop.SINGLE
    nth_app: str | None = None
    distinguishable: bool = True
    constraints: Constraints | None = None
    index: int = field(default=0, compare=False)

    @property
    def group(self) -> str:
        return group_key(self.record_id)


@dataclass(frozen=True)
class OriginalProfile:
    """A Table-of-originals row: what untouched camera output looks like."""

    profile_id: str
    media_kind: MediaKind
    os_source: OS
    resolution: tuple[int, int]
    nominal_size: int
    extension: str | None = None
    format_profile: FormatProfile | None = None
    codec_id: str | None = None
    video_format_profile: str | None = None

    @property
    def attributes(self) -> VideoAttributes | ImageAttributes:
        if self.media_kind is MediaKind.IMAGE:
            return ImageAttributes(
                width=self.resolution[0],
                length=self.resolution[1],
                byte_size=self.nominal_size,
            )
        return VideoAttributes(
            extension=self.extension or "mp4",
            format_profile=self.format_profile or FormatProfile.BASE_MEDIA,
            codec_id=self.codec_id or "",
            video_format_profile=self.video_format_profile or "",
            width=self.resolution[0],
            length=self.resolution[1],
            byte_size=self.nominal_size,
        )


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
    ``video_original`` look up the camera original a file's fields equal,
    each with one dict lookup.
    """

    records: tuple[FingerprintRecord, ...]
    originals: tuple[OriginalProfile, ...] = ()
    manifest: tuple[tuple[str, int], ...] | None = None

    # Compiled indexes; not part of equality, repr or the constructor.
    image_records: tuple[FingerprintRecord, ...] = field(init=False, repr=False, compare=False)
    video_singles: tuple[FingerprintRecord, ...] = field(init=False, repr=False, compare=False)
    video_chains: tuple[FingerprintRecord, ...] = field(init=False, repr=False, compare=False)
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
            if rec.hop is Hop.SINGLE:
                single_constraints.setdefault((rec.media_kind, rec.app, rec.os), []).append(rec.constraints)
                if rec.media_kind is MediaKind.VIDEO:
                    singles.append(rec)
            else:
                relays.append(rec)
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
            if orig.media_kind is MediaKind.IMAGE:
                image_originals.setdefault(orig.resolution, orig)
            else:
                key = (orig.extension, orig.format_profile, orig.codec_id,
                       orig.video_format_profile, orig.resolution)
                video_originals.setdefault(key, orig)
        compiled = {
            "_by_id": by_id,
            "overwritten_chain_ids": frozenset(overwritten),
            "image_records": tuple(images),
            "video_singles": tuple(singles),
            "video_chains": tuple(chains),
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
        """The first video original, in file order, whose key fields all equal these.

        The key is (extension, format profile, codec id, video format
        profile, resolution), built in the same order in ``__post_init__``.
        """
        return self._video_originals.get((
            attrs.extension, attrs.format_profile, attrs.codec_id,
            attrs.video_format_profile, (attrs.width, attrs.length),
        ))

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

_RECORD_KEYS = frozenset({
    "media", "app", "os", "quality", "hop", "nth_app", "indistinguishable",
    "extension", "format_profile", "codec_id", "video_format_profile",
    "resolution", "size_band", "encoder",
    "markers",
})
_VIDEO_ONLY_KEYS = frozenset({
    "extension", "format_profile", "codec_id", "video_format_profile",
    "encoder", "markers",
})
_IMAGE_ONLY_KEYS = frozenset({"size_band"})
_ORIGINAL_KEYS = frozenset({
    "media", "os", "extension", "format_profile", "codec_id",
    "video_format_profile", "resolution", "nominal_size",
})


def _unquote(item: str) -> str:
    item = item.strip()
    if len(item) >= 2 and item[0] == '"' and item[-1] == '"':
        return item[1:-1]
    return item


def _parse_list(value: str) -> list[str]:
    return [_unquote(part) for part in value.split(",") if part.strip()]


def _parse_resolutions(value: str, where: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for part in _parse_list(value):
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


def _parse_format_profiles(value: str, where: str) -> tuple[FormatProfile, ...]:
    profiles = []
    for item in _parse_list(value):
        try:
            profiles.append(FormatProfile(item))
        except ValueError:
            raise SchemaError(f"{where}: unknown format profile {item!r}") from None
    return tuple(profiles)


def _parse_markers(value: str, where: str) -> tuple[Marker, ...]:
    markers = []
    for item in _parse_list(value):
        try:
            markers.append(parse_marker(item))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None
    return tuple(markers)


class _Block:
    def __init__(self, kind: str, name: str | None, line_no: int):
        self.kind = kind
        self.name = name
        self.line_no = line_no
        self.fields: dict[str, str] = {}  # in file order

    def where(self) -> str:
        label = self.name or self.kind
        return f"[{self.kind} {label}] (line {self.line_no})"


def _split_blocks(text: str) -> list[_Block]:
    blocks: list[_Block] = []
    current: _Block | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            kind, name = m.group(1), m.group(2)
            if kind not in ("record", "original", "manifest"):
                raise SchemaError(f"line {line_no}: unknown block {line!r}")
            if kind in ("record", "original") and not name:
                raise SchemaError(f"line {line_no}: [{kind}] block needs an id")
            current = _Block(kind, name, line_no)
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


def _build_record(block: _Block, index: int) -> FingerprintRecord:
    where = block.where()
    unknown = set(block.fields) - _RECORD_KEYS
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    f = block.fields

    def require(key: str) -> str:
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
    hop = Hop(f.get("hop", "single")) if f.get("hop", "single") in ("single", "chain") else None
    if hop is None:
        raise SchemaError(f"{where}: hop must be 'single' or 'chain'")
    nth_app = f.get("nth_app")
    if hop is Hop.CHAIN and not nth_app:
        raise SchemaError(f"{where}: chain records need nth_app")
    if hop is Hop.SINGLE and nth_app:
        raise SchemaError(f"{where}: single records must not set nth_app")
    indistinguishable = _parse_bool(f["indistinguishable"], where) if "indistinguishable" in f else False

    wrong_kind = _VIDEO_ONLY_KEYS if media is MediaKind.IMAGE else _IMAGE_ONLY_KEYS
    used_wrong = wrong_kind & set(f)
    if used_wrong:
        raise SchemaError(f"{where}: keys {sorted(used_wrong)} not valid for {media.value} records")

    constraint_keys = set(f) & (_VIDEO_ONLY_KEYS | _IMAGE_ONLY_KEYS | {"resolution"})
    if indistinguishable:
        if constraint_keys:
            raise SchemaError(f"{where}: indistinguishable records carry no constraints")
        constraints: Constraints | None = None
    elif media is MediaKind.IMAGE:
        resolutions = _parse_resolutions(require("resolution"), where)
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
        wildcard = False
        resolutions: tuple[tuple[int, int], ...] = ()
        if "resolution" in f:
            if f["resolution"].strip().lower() == "irregular":
                wildcard = True
            else:
                resolutions = _parse_resolutions(f["resolution"], where)
        markers_value = f.get("markers", "").strip()
        markers_any = markers_value.lower() == "any"
        constraints = VideoConstraints(
            extensions=tuple(_parse_list(f["extension"])) if "extension" in f else (),
            format_profiles=_parse_format_profiles(f["format_profile"], where) if "format_profile" in f else (),
            codec_ids=tuple(_parse_list(f["codec_id"])) if "codec_id" in f else (),
            video_format_profiles=tuple(_parse_list(f["video_format_profile"])) if "video_format_profile" in f else (),
            resolutions=resolutions,
            resolution_wildcard=wildcard,
            encoders=tuple(_parse_list(f["encoder"])) if "encoder" in f else (),
            markers=() if markers_any else _parse_markers(markers_value, where) if markers_value else (),
            markers_any=markers_any,
        )
        if constraints.is_empty():
            raise SchemaError(f"{where}: distinguishable video record carries no constraints")

    return FingerprintRecord(
        record_id=block.name or "",
        media_kind=media,
        app=require("app"),
        os=rec_os,
        quality=require("quality"),
        hop=hop,
        nth_app=nth_app,
        distinguishable=not indistinguishable,
        constraints=constraints,
        index=index,
    )


def _build_original(block: _Block) -> OriginalProfile:
    where = block.where()
    unknown = set(block.fields) - _ORIGINAL_KEYS
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    f = block.fields
    for key in ("media", "os", "resolution", "nominal_size"):
        if key not in f:
            raise SchemaError(f"{where}: missing key {key!r}")
    pairs = _parse_resolutions(f["resolution"], where)
    if len(pairs) != 1:
        raise SchemaError(f"{where}: originals carry exactly one resolution")
    fp = None
    if "format_profile" in f:
        fp = _parse_format_profiles(f["format_profile"], where)
        if len(fp) != 1:
            raise SchemaError(f"{where}: originals carry exactly one format profile")
        fp = fp[0]
    if not f["nominal_size"].isdecimal():
        raise SchemaError(f"{where}: nominal_size must be a byte count, got {f['nominal_size']!r}")
    try:
        profile = OriginalProfile(
            profile_id=block.name or "",
            media_kind=MediaKind(f["media"]),
            os_source=parse_os(f["os"]),
            resolution=pairs[0],
            nominal_size=int(f["nominal_size"]),
            extension=_unquote(f["extension"]) if "extension" in f else None,
            format_profile=fp,
            codec_id=_unquote(f["codec_id"]) if "codec_id" in f else None,
            video_format_profile=_unquote(f["video_format_profile"]) if "video_format_profile" in f else None,
        )
        profile.attributes  # an extension or size the attribute vector rejects fails the load here
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    return profile


def load_kb(text: str) -> KnowledgeBase:
    """Parse KB text; verifies the manifest when one is declared.

    Raises SchemaError on malformed blocks and ManifestMismatch when the
    per-group record counts drift from the manifest.
    """
    records: list[FingerprintRecord] = []
    originals: list[OriginalProfile] = []
    manifest: list[tuple[str, int]] | None = None

    for block in _split_blocks(text):
        if block.kind == "record":
            records.append(_build_record(block, index=len(records)))
        elif block.kind == "original":
            originals.append(_build_original(block))
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
    counts: dict[str, int] = {}
    for rec in kb.records:
        counts[rec.group] = counts.get(rec.group, 0) + 1
    if kb.originals:
        counts["originals"] = len(kb.originals)
    declared = dict(kb.manifest or ())
    if declared != counts:
        drift = []
        for key in sorted(set(declared) | set(counts)):
            if declared.get(key) != counts.get(key):
                drift.append(f"{key}: declared {declared.get(key, 0)}, loaded {counts.get(key, 0)}")
        raise ManifestMismatch("; ".join(drift))


def default_kb_path() -> Path:
    env = _os.environ.get(KB_ENV_VAR)
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


def load_kb_path(path: str | Path | None = None) -> KnowledgeBase:
    """Load a KB from a file, or from every ``*.kb`` file in a directory.

    Directory files concatenate in sorted name order, which fixes the record
    order (and therefore rank tie-breaking) independently of the filesystem.
    Raises only KbError, also for a file that cannot be read or is not UTF-8.
    """
    target = Path(path) if path is not None else default_kb_path()
    if target.is_dir():
        parts = [_read_text(p) for p in sorted(target.glob("*.kb"))]
        if not parts:
            raise KbError(f"no .kb files under {target}")
        return load_kb("\n".join(parts))
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
        groups.setdefault((rec.media_kind, rec.hop, rec.constraints), []).append(rec)
    for (media, hop, _), members in groups.items():
        if len(members) > 1:
            ids = tuple(r.record_id for r in members)
            findings.append(Finding(
                "collision",
                f"{len(members)} {media.value} {hop.value} records match identical evidence",
                ids,
            ))

    single_apps = {r.app for r in kb.records if r.hop is Hop.SINGLE and r.media_kind is MediaKind.VIDEO}
    for rec in kb.records:
        if rec.hop is Hop.CHAIN and rec.nth_app not in single_apps:
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
    "KB_ENV_VAR", "ALL_MARKERS", "RESOLUTION_TOLERANCE",
    "KbError", "SchemaError", "ManifestMismatch",
    "Hop", "ImageConstraints", "VideoConstraints", "FingerprintRecord",
    "OriginalProfile", "KnowledgeBase", "Finding",
    "group_key", "load_kb", "load_kb_path", "default_kb_path",
    "validate_kb", "list_records",
]
