"""Forward simulator over the knowledge base.

Three jobs: emit a labeled test corpus holding the representative attribute
vector of every trackable fingerprint, replay such a corpus through the
matcher, and synthesize minimal valid container bytes whose extraction
reproduces a requested attribute vector exactly.  Synthesized files carry
empty sample tables and no media data: fingerprints never depend on frame
payloads, so fixtures stay tiny and deterministic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import attrgetter

from .attributes import (
    AVC_PROFILES,
    FormatProfile,
    ImageAttributes,
    Marker,
    MediaKind,
    OS,
    OS_BY_VALUE,
    VideoAttributes,
    parse_video_format_profile,
)
from .container import codec_id_brands, classify_format_profile, UnknownBrand
from .engine import Verdict, match_image, match_video
from .kb import VIDEO_FIELDS, FingerprintRecord, ImageConstraints, KnowledgeBase, VideoConstraints

# Fixed synthesis target: every oracle-emitted video vector carries this
# byte_size and synthesize_container pads to it, so extraction round-trips
# byte-for-byte including the size field.
SYNTH_CONTAINER_SIZE = 4096
# Nominal size for image vectors without a size band; collides with no band.
DEFAULT_IMAGE_BYTES = 150_000
# Stand-in resolution for video records that constrain none; matches no
# concrete resolution set in the knowledge base.
WILDCARD_RESOLUTION = (1234, 694)

_MARKER_ORDER = tuple(Marker)


class OracleError(Exception):
    pass


class InconsistentAttrs(OracleError):
    """Attribute vector contradicts itself; nothing could extract to it."""


def expected_attributes(rec: FingerprintRecord) -> VideoAttributes | ImageAttributes:
    """The representative attribute vector a record's transform produces.

    Multi-valued constraints contribute their first value in KB order; a
    video record that lists no resolution takes the synthetic stand-in, and
    one that lists no encoder gets none.
    """
    if not rec.distinguishable:
        raise ValueError(f"{rec.record_id} is a placeholder record")
    if rec.media_kind is MediaKind.IMAGE:
        c = rec.constraints
        assert isinstance(c, ImageConstraints)
        width, length = c.resolutions[0]
        size = c.size_band[0] if c.size_band else DEFAULT_IMAGE_BYTES
        return ImageAttributes(width=width, length=length, byte_size=size)
    c = rec.constraints
    assert isinstance(c, VideoConstraints)
    # Keyed by VideoAttributes field name; every record names the container fields.
    firsts = {key: getattr(c, attr)[0] for key, attr, _, _ in VIDEO_FIELDS if getattr(c, attr)}
    width, length = firsts.pop("resolution", WILDCARD_RESOLUTION)
    return VideoAttributes(
        **firsts,
        width=width,
        length=length,
        markers=frozenset(c.markers or ()),
        byte_size=SYNTH_CONTAINER_SIZE,
    )


# ---------------------------------------------------------------------------
# labeled corpus

@dataclass(frozen=True)
class SingleLabel:
    app: str
    os: OS
    quality: str

    def render(self) -> str:
        return f"single:{self.app}|{self.os.value}|{self.quality}"


@dataclass(frozen=True)
class ChainLabel:
    nth_app: str
    nplus1_app: str
    os: OS

    def render(self) -> str:
        return f"chain:{self.nth_app}>{self.nplus1_app}|{self.os.value}"


@dataclass(frozen=True)
class CorpusEntry:
    record_id: str
    attributes: VideoAttributes | ImageAttributes
    label: SingleLabel | ChainLabel

    @property
    def media_kind(self) -> MediaKind:
        return self.attributes.media_kind


def generate_corpus(kb: KnowledgeBase) -> tuple[CorpusEntry, ...]:
    """One labeled entry per trackable record, in KB order.

    Placeholder records have nothing to emit; chain records whose trace was
    overwritten by the N+1st hop are skipped because no verdict can (or
    should) name them.
    """
    entries: list[CorpusEntry] = []
    for rec in kb.records:
        if not rec.distinguishable:
            continue
        if rec.record_id in kb.overwritten_chain_ids:
            continue
        if rec.nth_app:
            label: SingleLabel | ChainLabel = ChainLabel(rec.nth_app, rec.app, rec.os)
        else:
            label = SingleLabel(rec.app, rec.os, rec.quality)
        entries.append(CorpusEntry(rec.record_id, expected_attributes(rec), label))
    return tuple(entries)


def _render_markers(markers: frozenset[Marker]) -> str:
    return "+".join(m.value for m in _MARKER_ORDER if m in markers) or "-"


def _parse_markers(text: str) -> frozenset[Marker]:
    return frozenset(Marker(tok) for tok in text.split("+") if tok != "-")


def _dash(text: str | None) -> str:
    return text or "-"


# Corpus wire format: one entry per line, tab-separated: record id, media
# kind, one column per row of the kind's table, label.  The table names the
# kind's vector type; each row is (attribute, render, parse), and
# parse(render(value)) == value.
_CORPUS_COLUMNS = {
    MediaKind.VIDEO.value: (VideoAttributes, (
        ("extension", str, str),
        ("format_profile", attrgetter("value"), FormatProfile),
        ("codec_id", str, str),
        ("video_format_profile", _dash, lambda text: "" if text == "-" else text),
        ("width", str, int),
        ("length", str, int),
        ("encoder", _dash, lambda text: None if text == "-" else text),
        ("markers", _render_markers, _parse_markers),
        ("byte_size", str, int),
    )),
    MediaKind.IMAGE.value: (ImageAttributes, (
        ("width", str, int),
        ("length", str, int),
        ("byte_size", str, int),
    )),
}


def render_corpus(entries: tuple[CorpusEntry, ...] | list[CorpusEntry]) -> str:
    """Corpus wire format (``_CORPUS_COLUMNS``): one entry per line, label last."""
    lines = []
    for e in entries:
        _, columns = _CORPUS_COLUMNS[e.media_kind.value]
        fields = [render(getattr(e.attributes, name)) for name, render, _ in columns]
        lines.append("\t".join([e.record_id, e.media_kind.value, *fields, e.label.render()]))
    return "\n".join(lines) + "\n"


class CorpusFormatError(OracleError):
    pass


def _is_name(text: str) -> bool:
    """Whether ``text`` can be a label's app or quality: not blank, no space at either end."""
    return text != "" and text == text.strip()


def _parse_label(text: str) -> SingleLabel | ChainLabel:
    kind, _, body = text.partition(":")
    parts = body.split("|")
    if kind == "single" and len(parts) == 3 and _is_name(parts[0]) and _is_name(parts[2]) \
            and parts[1] in OS_BY_VALUE:
        app, os_value, quality = parts
        return SingleLabel(app, OS_BY_VALUE[os_value], quality)
    if kind == "chain" and len(parts) == 2 and parts[1] in OS_BY_VALUE:
        apps = parts[0].split(">")
        if len(apps) == 2 and all(map(_is_name, apps)):
            return ChainLabel(apps[0], apps[1], OS_BY_VALUE[parts[1]])
    raise ValueError(f"bad label {text!r}")


def parse_corpus(text: str) -> tuple[CorpusEntry, ...]:
    entries: list[CorpusEntry] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        try:
            vector, columns = _CORPUS_COLUMNS.get(fields[1] if len(fields) > 1 else "", (None, ()))
            if vector is None or len(fields) != len(columns) + 3:
                raise ValueError("unknown media kind or field count")
            attrs = vector(**{name: parse(value) for (name, _, parse), value in zip(columns, fields[2:-1])})
            entries.append(CorpusEntry(fields[0], attrs, _parse_label(fields[-1])))
        except ValueError as exc:
            raise CorpusFormatError(f"line {line_no}: {exc}") from None
    return tuple(entries)


def _label_satisfied(label: SingleLabel | ChainLabel, verdict: Verdict) -> bool:
    if isinstance(label, SingleLabel):
        return any(
            c.app == label.app and c.os is label.os and c.quality == label.quality
            for c in verdict.candidates
        )
    return any(
        h.nth_app == label.nth_app and h.nplus1_app == label.nplus1_app and h.os is label.os
        for h in verdict.chain_hypotheses
    )


def replay_corpus(
    kb: KnowledgeBase, entries: tuple[CorpusEntry, ...] | list[CorpusEntry]
) -> list[tuple[CorpusEntry, Verdict]]:
    """Match every entry; return the (entry, verdict) pairs missing their label, in order."""
    misses = []
    for entry in entries:
        if entry.media_kind is MediaKind.IMAGE:
            verdict = match_image(entry.attributes, kb)
        else:
            verdict = match_video(entry.attributes, kb)
        if not _label_satisfied(entry.label, verdict):
            misses.append((entry, verdict))
    return misses


# ---------------------------------------------------------------------------
# container synthesis

_PROFILE_IDC = {name: idc for idc, name in AVC_PROFILES.items()}

_IDENTITY_MATRIX = struct.pack(">9i", 0x10000, 0, 0, 0, 0x10000, 0, 0, 0, 0x40000000)

_MARKER_ATOM_PAYLOADS: dict[Marker, tuple[bytes, bytes]] = {
    # (atom type, text payload); classic QT text atoms carry 16-bit size and
    # language before the text itself.
    Marker.MOVIE_NAME: (b"\xa9nam", b"fixture movie"),
    Marker.MOVIE_MORE: (b"vndr", b"fixture vendor tag"),
    Marker.COPYRIGHT: (b"\xa9cpy", b"fixture copyright"),
    Marker.RECORDED_DATE: (b"\xa9day", b"2020-11-01T00:00:00+0000"),
}


def _box(box_type: bytes, payload: bytes) -> bytes:
    return struct.pack(">I", 8 + len(payload)) + box_type + payload


def _fullbox(box_type: bytes, payload: bytes, flags: int = 0) -> bytes:
    return _box(box_type, flags.to_bytes(4, "big") + payload)  # version 0, then 24 bits of flags


def _qt_text_atom(atom_type: bytes, text: bytes) -> bytes:
    return _box(atom_type, struct.pack(">HH", len(text), 0) + text)


def _avc_sample_entry(width: int, height: int, avcc: bytes | None) -> bytes:
    body = b"\x00" * 6 + struct.pack(">H", 1)        # reserved + data ref index
    body += b"\x00" * 16                              # pre_defined / reserved
    body += struct.pack(">HH", width, height)
    body += struct.pack(">II", 0x00480000, 0x00480000)  # 72 dpi
    body += b"\x00" * 4
    body += struct.pack(">H", 1)                      # frame count
    body += b"\x00" * 32                              # compressor name
    body += struct.pack(">Hh", 24, -1)                # depth, pre_defined
    if avcc is not None:
        body += _box(b"avcC", avcc)
    return _box(b"avc1", body)


def _avcc_payload(vfp: str) -> bytes | None:
    if not vfp:
        return None
    try:
        signal = parse_video_format_profile(vfp)
    except ValueError:
        raise InconsistentAttrs(f"video format profile {vfp!r} is not synthesizable") from None
    if signal.constraint_suffix not in (None, "@Main"):
        raise InconsistentAttrs(f"unsupported constraint suffix {signal.constraint_suffix!r}")
    profile_idc = _PROFILE_IDC[signal.profile_name]
    compat = 0x40 if signal.constraint_suffix == "@Main" else 0x00
    level_idc = int(round(signal.level * 10))
    # version, profile, compatibility, level, nal length, zero SPS/PPS counts
    return bytes([1, profile_idc, compat, level_idc, 0xFF, 0xE0, 0x00])


def _encoder_meta(encoder: str) -> bytes:
    hdlr = _fullbox(b"hdlr", b"\x00" * 4 + b"mdir" + b"appl" + b"\x00" * 9)
    data = _box(b"data", struct.pack(">II", 1, 0) + encoder.encode("utf-8"))
    ilst = _box(b"ilst", _box(b"\xa9too", data))
    return _fullbox(b"meta", hdlr + ilst)


def synthesize_container(attrs: VideoAttributes) -> bytes:
    """Emit minimal container bytes that extract back to ``attrs`` exactly.

    The file is ftyp + moov (one empty-sample-table video track, user-data
    atoms for the requested markers, an encoder entry when requested) padded
    with a free box to attrs.byte_size when that target is reachable.
    Raises InconsistentAttrs when the vector contradicts itself (format
    profile disagreeing with the codec-id brand, unrenderable profile string).
    """
    major, brands = codec_id_brands(attrs.codec_id)
    try:
        derived_profile = classify_format_profile(major)
    except UnknownBrand:
        raise InconsistentAttrs(f"codec id {attrs.codec_id!r} has no known lineage") from None
    if derived_profile is not attrs.format_profile:
        raise InconsistentAttrs(
            f"format profile {attrs.format_profile.value!r} contradicts codec id {attrs.codec_id!r}"
        )

    ftyp = _box(b"ftyp", major.encode("latin-1") + struct.pack(">I", 0)
                + b"".join(b.encode("latin-1") for b in brands))

    mvhd = _fullbox(b"mvhd", struct.pack(">IIII", 0, 0, 1000, 0)
                    + struct.pack(">IH", 0x00010000, 0x0100)
                    + b"\x00" * 10 + _IDENTITY_MATRIX + b"\x00" * 24
                    + struct.pack(">I", 2))
    tkhd = _fullbox(b"tkhd", struct.pack(">IIII", 0, 0, 1, 0)
                    + struct.pack(">I", 0) + b"\x00" * 8
                    + struct.pack(">HHHH", 0, 0, 0, 0) + _IDENTITY_MATRIX
                    + struct.pack(">II", attrs.width << 16, attrs.length << 16),
                    flags=7)
    mdhd = _fullbox(b"mdhd", struct.pack(">IIIIHH", 0, 0, 1000, 0, 0x55C4, 0))
    hdlr = _fullbox(b"hdlr", b"\x00" * 4 + b"vide" + b"\x00" * 12 + b"VideoHandler\x00")
    vmhd = _fullbox(b"vmhd", struct.pack(">HHHH", 0, 0, 0, 0), flags=1)
    dref = _fullbox(b"dref", struct.pack(">I", 1) + _fullbox(b"url ", b"", flags=1))
    dinf = _box(b"dinf", dref)
    stsd = _fullbox(b"stsd", struct.pack(">I", 1)
                    + _avc_sample_entry(attrs.width, attrs.length, _avcc_payload(attrs.video_format_profile)))
    stbl = _box(b"stbl", stsd
                + _fullbox(b"stts", struct.pack(">I", 0))
                + _fullbox(b"stsc", struct.pack(">I", 0))
                + _fullbox(b"stsz", struct.pack(">II", 0, 0))
                + _fullbox(b"stco", struct.pack(">I", 0)))
    minf = _box(b"minf", vmhd + dinf + stbl)
    mdia = _box(b"mdia", mdhd + hdlr + minf)
    trak = _box(b"trak", tkhd + mdia)

    udta_children = b""
    for marker in _MARKER_ORDER:
        if marker in attrs.markers:
            atom_type, text = _MARKER_ATOM_PAYLOADS[marker]
            udta_children += _qt_text_atom(atom_type, text)
    if attrs.encoder:
        udta_children += _encoder_meta(attrs.encoder)
    moov_payload = mvhd + trak
    if udta_children:
        moov_payload += _box(b"udta", udta_children)
    data = ftyp + _box(b"moov", moov_payload)

    if attrs.byte_size >= len(data) + 8:
        data += _box(b"free", b"\x00" * (attrs.byte_size - len(data) - 8))
    return data


__all__ = [
    "SYNTH_CONTAINER_SIZE", "DEFAULT_IMAGE_BYTES", "WILDCARD_RESOLUTION",
    "OracleError", "InconsistentAttrs", "expected_attributes",
    "SingleLabel", "ChainLabel", "CorpusEntry", "CorpusFormatError",
    "generate_corpus", "render_corpus", "parse_corpus", "replay_corpus",
    "synthesize_container",
]
