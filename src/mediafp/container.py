"""ISO Base Media / QuickTime container parsing.

Walks the box (atom) structure of MP4/MOV files and extracts the attribute
vector messenger fingerprints key on.  Only container metadata is read; no
codec payload is ever decoded.  Layout references:

* ISO/IEC 14496-12 (box structure, ftyp, moov/trak/mdia/minf/stbl)
* ISO/IEC 14496-15 (AVCDecoderConfigurationRecord inside avcC)
* Apple QuickTime File Format (classic udta text atoms, ilst metadata)

One walker, ``_walk``, reads every box header in the buffer, depth first and
in file order, and checks each one: a box that is cut short, too small for
its header or nested too deep fails the whole file, wherever it sits, before
any field is read.  It records each box as one flat ``(parent index, raw
type, payload offset, payload end)`` tuple, and indexes the first child of
each type under each parent by ``(parent index, raw type)``.  Extraction
then reads only what the fingerprint needs: by lookups in that index, the
root ftyp and moov, each trak's mdia/hdlr handler (or mdia/minf/vmhd), the
video trak's mdia/minf/stbl/stsd and tkhd, and the ilst under udta/meta,
then under moov/meta; and, by a scan of their stretch of the flat list, the
traks of moov in order and the children of moov/udta.  The ftyp payload
goes straight to the format profile and codec id.

All functions are pure, bounds-checked and never read outside the supplied
buffer; hostile input fails with one of the declared exceptions below.  The
box walk reads inside each box's own payload only: a child's header within
its parent, the QuickTime-or-ISO 'meta' sniff within the meta box, a leaf
reader within its own payload, slicing no more of it than its structure
calls for.  The two leaf payloads read whole, the ftyp brand list and the
encoder text, are refused as MalformedBox above 4 KiB, so no declared size
makes a reader slice more than that.  The buffer is only sliced and
measured by len(), so it may be bytes, a bytearray or a view that reads a
large file on demand.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

from .attributes import (
    AVC_PROFILES,
    EXT_MOV,
    EXT_MP4,
    EXT_OTHER,
    AvcSignal,
    FormatProfile,
    Marker,
    VideoAttributes,
)


class ParseError(Exception):
    """Base class for container parse failures."""


class TruncatedFile(ParseError):
    """A box declares more payload than the buffer holds."""


class MalformedBox(ParseError):
    """A box header is structurally impossible (size < 8, bad extended size)."""


class NoVideoTrack(ParseError):
    """The movie has no video track to fingerprint."""


class UnknownBrand(ParseError):
    """Major brand outside the known qt/mp42/iso lineages."""


# Boxes whose payload is a plain sequence of child boxes, by raw fourcc.
_CONTAINERS = frozenset({b"moov", b"trak", b"mdia", b"minf", b"stbl", b"udta", b"meta"})
# First child types of a QuickTime 'meta', which has no full-box header.
_QT_META_CHILDREN = frozenset({b"hdlr", b"keys", b"ilst"})
_MAX_DEPTH = 32
# Longest ftyp payload or encoder text read.  A real brand list holds a few
# brands and a real encoder string a few dozen bytes.
_MAX_TEXT_PAYLOAD = 4096
_BOX_HEADER = struct.Struct(">I4s")
_EXTENDED_SIZE = struct.Struct(">Q")
# Parent index of a root box.
_ROOT = -1


def _decode_fourcc(raw) -> str:
    # latin-1 never fails and round-trips arbitrary bytes, incl. 0xA9 "(c)".
    return str(raw, "latin-1")


def _walk(data) -> tuple[list[tuple[int, bytes, int, int]], dict[tuple[int, bytes], int]]:
    """Every box of the buffer, depth first in file order, and its first-child index.

    Each box is ``(parent index, raw type, payload offset, payload end)``,
    with parent index ``_ROOT`` for a root box; the index maps ``(parent
    index, raw type)`` to the first such child.  Raises TruncatedFile /
    MalformedBox on the first structurally broken box.
    """
    end = len(data)
    if end < 8:
        raise MalformedBox("input shorter than one box header")
    boxes: list[tuple[int, bytes, int, int]] = []
    first: dict[tuple[int, bytes], int] = {}
    # Where to go on in each enclosing container: (pos, end, parent, depth).
    resume: list[tuple[int, int, int, int]] = []
    pos, parent, depth = 0, _ROOT, 0
    while True:
        while pos < end:
            remain = end - pos
            if remain < 8:
                # A short all-zero tail is the classic user-data terminator /
                # padding; anything else is a broken header.
                if data[pos:end].count(0) == remain:
                    break
                raise MalformedBox(f"{remain} trailing bytes at offset {pos}, need 8 for a header")
            size, raw_type = _BOX_HEADER.unpack(data[pos:pos + 8])
            header = 8
            if size < 8:
                if size == 0:
                    size = remain  # box runs to the end of its container
                elif size == 1:
                    if remain < 16:
                        raise TruncatedFile(f"extended size header at offset {pos} exceeds buffer")
                    size = _EXTENDED_SIZE.unpack(data[pos + 8:pos + 16])[0]
                    header = 16
                    if size < 16:
                        raise MalformedBox(f"extended size {size} at offset {pos} is below header size")
                else:
                    raise MalformedBox(f"box size {size} at offset {pos} is below header size")
            if size > remain:
                raise TruncatedFile(
                    f"box {_decode_fourcc(raw_type)!r} at offset {pos} declares {size} bytes, {remain} remain"
                )
            index = len(boxes)
            payload_offset = pos + header
            pos += size
            boxes.append((parent, raw_type, payload_offset, pos))
            first.setdefault((parent, raw_type), index)
            if raw_type in _CONTAINERS:
                if raw_type == b"meta":
                    payload_offset += _fullbox_skip(data, payload_offset, pos)
                if depth >= _MAX_DEPTH:
                    raise MalformedBox(f"box nesting deeper than {_MAX_DEPTH}")
                resume.append((pos, end, parent, depth))
                pos, end, parent, depth = payload_offset, pos, index, depth + 1
        if not resume:
            return boxes, first
        pos, end, parent, depth = resume.pop()


def _fullbox_skip(data, payload_offset: int, payload_end: int) -> int:
    # 'meta' is a full box in ISO files but a bare container in QuickTime
    # ones; sniff by checking where a plausible first child type sits.  Only
    # a payload of 8 bytes or more can hold that type.
    if payload_end - payload_offset >= 8 and \
            bytes(data[payload_offset + 4:payload_offset + 8]) in _QT_META_CHILDREN:
        return 0
    return 4


def _children(boxes: list[tuple[int, bytes, int, int]], parent: int):
    """Indexes of the direct children of box `parent`, in file order.

    A box's subtree follows it in the walk and ends at the first box whose
    parent comes before it.
    """
    for index in range(parent + 1, len(boxes)):
        owner = boxes[index][0]
        if owner < parent:
            return
        if owner == parent:
            yield index


def _lookup(first: dict[tuple[int, bytes], int], index: int | None, *path: bytes) -> int | None:
    """Follow first children along `path` from box `index`.

    No key has a parent of None, so once one box is missing every later
    lookup gives None too.
    """
    for raw_type in path:
        index = first.get((index, raw_type))
    return index


@dataclass(frozen=True)
class FtypInfo:
    """File-type box contents as ``render_codec_id`` takes them; the library never reads one from a file."""

    major_brand: str  # 4 chars, trailing spaces preserved ("qt  ")
    minor_version: int
    compatible_brands: tuple[str, ...]


def _ftyp_fields(data, offset: int, end: int) -> tuple[str, int, list[str]]:
    """Major brand, minor version and compatible brands in file order."""
    if end - offset > _MAX_TEXT_PAYLOAD:
        raise MalformedBox(f"ftyp payload of {end - offset} bytes exceeds {_MAX_TEXT_PAYLOAD}")
    payload = data[offset:end]
    if len(payload) < 8:
        raise MalformedBox("ftyp payload shorter than 8 bytes")
    text = _decode_fourcc(payload)
    brands = [text[i:i + 4] for i in range(8, len(text) - 3, 4)]
    return text[:4], int.from_bytes(payload[4:8], "big"), brands


def _brand_line(major: str, compatible: list[str] | tuple[str, ...]) -> str:
    major = major.strip()
    brands = [b.strip() for b in compatible]
    if not brands or brands == [major]:
        return major
    return f"{major} ({'/'.join(brands)})"


def render_codec_id(info: FtypInfo) -> str:
    """Render the brand line the way media analyzers print it.

    A lone major brand (no compatible brands, or just itself) renders bare
    ("qt"); otherwise "MAJOR (b1/b2/...)" with brands in file order.
    """
    return _brand_line(info.major_brand, info.compatible_brands)


def codec_id_brands(codec_id: str) -> tuple[str, tuple[str, ...]]:
    """Invert render_codec_id: "mp42 (isom/mp42)" → ("mp42", ("isom", "mp42")).

    Bare majors get themselves as the single compatible brand.  Brands are
    space-padded back to 4 characters.
    """

    def pad(brand: str) -> str:
        return brand.ljust(4)[:4]

    text = codec_id.strip()
    if "(" in text:
        major, _, rest = text.partition("(")
        inner = rest.rstrip(")")
        brands = tuple(pad(b) for b in inner.split("/") if b.strip())
        return pad(major.strip()), brands
    return pad(text), (pad(text),)


_ISO_BRANDS = frozenset({"avc1", "mp41", "mp71", "3gp4", "3gp5", "3gp6", "3g2a", "M4V ", "M4A "})


def classify_format_profile(major: str) -> FormatProfile:
    """Major brand alone decides the analyzer-level format profile."""
    if major == "qt  ":
        return FormatProfile.QUICKTIME
    if major == "mp42":
        return FormatProfile.BASE_MEDIA_V2
    if major.startswith("iso") or major in _ISO_BRANDS:
        return FormatProfile.BASE_MEDIA
    raise UnknownBrand(f"unrecognized major brand {major!r}")


def parse_avc_config(payload: bytes) -> AvcSignal:
    """Read profile/level from an AVCDecoderConfigurationRecord.

    Byte layout: version, profile indication, profile compatibility flags,
    level indication.  constraint-set-1 (0x40) raised on a known profile is
    rendered as the opaque "@Main" suffix.
    """
    if len(payload) < 4:
        raise MalformedBox("avcC payload shorter than 4 bytes")
    profile_idc, compat, level_idc = payload[1], payload[2], payload[3]
    name = AVC_PROFILES.get(profile_idc, str(profile_idc))
    suffix = "@Main" if compat & 0x40 else None
    return AvcSignal(profile_name=name, level=level_idc / 10.0, constraint_suffix=suffix)


def _parse_hdlr_type(data, offset: int, end: int) -> bytes | None:
    # FullBox(4) + pre_defined(4) + handler_type(4), as raw bytes.
    if end - offset < 12:
        return None
    return data[offset + 8:offset + 12]


@lru_cache(maxsize=256)
def _render_avc_config(config: bytes) -> str:
    # A few dozen profile/level combinations occur, so each renders once.
    return parse_avc_config(config).render()


def _stsd_video_entry(data, offset: int, stsd_end: int) -> tuple[int, int, str] | None:
    # stsd: FullBox(4) + entry_count(4), then sample entries. A visual sample
    # entry holds width/height at entry offsets 32/34 and its codec config
    # boxes from entry offset 86 on.  Reads stay inside the first entry.  The
    # video format profile is rendered from avcC, or "" when there is none.
    entry = offset + 8
    fields = data[entry:min(entry + 36, stsd_end)]
    if len(fields) < 36:
        return None
    entry_size = struct.unpack_from(">I", fields)[0]
    end = entry + entry_size
    if entry_size < 36 or end > stsd_end:
        return None
    width, height = struct.unpack_from(">HH", fields, 32)
    profile = ""
    pos = entry + 86
    while pos + 8 <= end:
        child_size, child_type = _BOX_HEADER.unpack(data[pos:pos + 8])
        if child_size < 8 or pos + child_size > end:
            break
        if child_type == b"avcC":
            if child_size >= 12:
                profile = _render_avc_config(bytes(data[pos + 8:pos + 12]))
            break
        pos += child_size
    if width < 1 or height < 1:
        return None
    return width, height, profile


def _tkhd_dimensions(data, offset: int, end: int) -> tuple[int, int] | None:
    # Track header stores 16.16 fixed-point width/height as its last fields:
    # offsets 76/80 in version 0, 88/92 in version 1.
    payload = data[offset:offset + min(end - offset, 96)]
    field_offset = 88 if payload[:1] == b"\x01" else 76
    if len(payload) < field_offset + 8:
        return None
    w_fixed, h_fixed = struct.unpack_from(">II", payload, field_offset)
    width, height = round(w_fixed / 65536), round(h_fixed / 65536)
    if width < 1 or height < 1:
        return None
    return width, height


# udta atoms that identify a specific marker; 0xA9 is the classic "(c)" prefix.
_MARKER_ATOMS = {
    b"\xa9nam": Marker.MOVIE_NAME,
    b"\xa9cpy": Marker.COPYRIGHT,
    b"\xa9day": Marker.RECORDED_DATE,
}
# udta machinery that is not evidence of anything.
_NON_MARKER_ATOMS = frozenset({b"meta", b"free", b"skip"})


def _ilst_encoder(data, offset: int, end: int) -> str | None:
    # ilst items: size/type pairs; the (c)too item wraps a 'data' box whose
    # payload is type(4) + locale(4) + utf-8 text.
    pos = offset
    while pos + 8 <= end:
        size, item_type = _BOX_HEADER.unpack(data[pos:pos + 8])
        if size < 8 or pos + size > end:
            return None
        if item_type == b"\xa9too":
            inner, inner_end = pos + 8, pos + size
            while inner + 8 <= inner_end:
                d_size, d_type = _BOX_HEADER.unpack(data[inner:inner + 8])
                if d_size < 8 or inner + d_size > inner_end:
                    return None
                if d_type == b"data" and d_size >= 16:
                    if d_size - 16 > _MAX_TEXT_PAYLOAD:
                        raise MalformedBox(f"encoder text of {d_size - 16} bytes exceeds {_MAX_TEXT_PAYLOAD}")
                    text = data[inner + 16:inner + d_size].decode("utf-8", errors="replace")
                    return text.rstrip("\x00") or None
                inner += d_size
            return None
        pos += size
    return None


def extension_from_hint(name_hint: str | None, profile: FormatProfile) -> str:
    """Map a filename to the extension field; fall back on container lineage."""
    if name_hint:
        lowered = name_hint.lower()
        dot = lowered.rfind(".")
        if dot != -1:
            suffix = lowered[dot + 1:]
            if suffix == "mp4":
                return EXT_MP4
            if suffix == "mov":
                return EXT_MOV
            if suffix:
                return EXT_OTHER
    return EXT_MOV if profile is FormatProfile.QUICKTIME else EXT_MP4


def extract_video_attributes(data, name_hint: str | None = None) -> VideoAttributes:
    """Reduce container bytes to the fingerprintable attribute vector.

    Dimensions come from the video sample description, falling back to the
    track header's fixed-point values.  Files without an ftyp box are treated
    as bare QuickTime.  Raises NoVideoTrack and propagates parser errors.
    """
    boxes, first = _walk(data)
    ftyp = first.get((_ROOT, b"ftyp"))
    if ftyp is None:
        profile, codec_id = FormatProfile.QUICKTIME, "qt"
    else:
        major, _, brands = _ftyp_fields(data, *boxes[ftyp][2:])
        profile, codec_id = classify_format_profile(major), _brand_line(major, brands)

    moov = first.get((_ROOT, b"moov"))
    if moov is None:
        raise NoVideoTrack("no moov box")
    for trak in _children(boxes, moov):
        if boxes[trak][1] != b"trak":
            continue
        # The first mdia's hdlr names the handler; without one, a vmhd
        # (video media header) marks a video track.
        mdia = first.get((trak, b"mdia"))
        hdlr = first.get((mdia, b"hdlr"))
        if hdlr is not None:
            if _parse_hdlr_type(data, *boxes[hdlr][2:]) == b"vide":
                break
        elif _lookup(first, mdia, b"minf", b"vmhd") is not None:
            break
    else:
        raise NoVideoTrack("no video track in moov")

    stsd = _lookup(first, mdia, b"minf", b"stbl", b"stsd")
    entry = _stsd_video_entry(data, *boxes[stsd][2:]) if stsd is not None else None
    if entry is None:
        tkhd = first.get((trak, b"tkhd"))
        fallback = _tkhd_dimensions(data, *boxes[tkhd][2:]) if tkhd is not None else None
        if fallback is None:
            raise NoVideoTrack("video track carries no usable dimensions")
        width, height = fallback
        video_format_profile = ""
    else:
        width, height, video_format_profile = entry

    udta = first.get((moov, b"udta"))
    markers = frozenset() if udta is None else frozenset(
        _MARKER_ATOMS.get(boxes[child][1], Marker.MOVIE_MORE)
        for child in _children(boxes, udta)
        if boxes[child][1] not in _NON_MARKER_ATOMS
    )
    encoder = None
    for parent in (udta, moov):
        ilst = _lookup(first, parent, b"meta", b"ilst")
        if ilst is not None:
            encoder = _ilst_encoder(data, *boxes[ilst][2:])
            if encoder:
                break

    return VideoAttributes(
        extension=extension_from_hint(name_hint, profile),
        format_profile=profile,
        codec_id=codec_id,
        video_format_profile=video_format_profile,
        width=width,
        length=height,
        encoder=encoder,
        markers=markers,
        byte_size=len(data),
    )
