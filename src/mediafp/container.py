"""ISO Base Media / QuickTime container parsing.

Walks the box (atom) structure of MP4/MOV files and extracts the attribute
vector messenger fingerprints key on.  Only container metadata is read; no
codec payload is ever decoded.  Layout references:

* ISO/IEC 14496-12 (box structure, ftyp, moov/trak/mdia/minf/stbl)
* ISO/IEC 14496-15 (AVCDecoderConfigurationRecord inside avcC)
* Apple QuickTime File Format (classic udta text atoms, ilst metadata)

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
from dataclasses import dataclass, field

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


class MissingFtyp(ParseError):
    """No ftyp box anywhere in the tree."""


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


@dataclass(slots=True)
class BoxNode:
    """One box: type, payload window into the original buffer, children."""

    box_type: str
    payload_offset: int
    payload_length: int
    children: list["BoxNode"] = field(default_factory=list)

    @property
    def payload_end(self) -> int:
        return self.payload_offset + self.payload_length


def _decode_fourcc(raw) -> str:
    # latin-1 never fails and round-trips arbitrary bytes, incl. 0xA9 "(c)".
    return str(raw, "latin-1")


def _scan_boxes(data, start: int, end: int, depth: int) -> list[BoxNode]:
    if depth > _MAX_DEPTH:
        raise MalformedBox(f"box nesting deeper than {_MAX_DEPTH}")
    boxes: list[BoxNode] = []
    pos = start
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
        payload_offset = pos + header
        pos += size
        if raw_type in _CONTAINERS:
            child_start = payload_offset
            if raw_type == b"meta":
                child_start += _fullbox_skip(data, payload_offset, pos)
            children = _scan_boxes(data, child_start, pos, depth + 1)
        else:
            children = []
        boxes.append(BoxNode(raw_type.decode("latin-1"), payload_offset, size - header, children))
    return boxes


def _fullbox_skip(data, payload_offset: int, payload_end: int) -> int:
    # 'meta' is a full box in ISO files but a bare container in QuickTime
    # ones; sniff by checking where a plausible first child type sits.  Only
    # a payload of 8 bytes or more can hold that type.
    if payload_end - payload_offset >= 8 and \
            bytes(data[payload_offset + 4:payload_offset + 8]) in _QT_META_CHILDREN:
        return 0
    return 4


def parse_box_tree(data) -> list[BoxNode]:
    """Parse a buffer into its root-level boxes, recursing into containers.

    Unknown box types are kept as leaves with their payload skipped.  Raises
    TruncatedFile / MalformedBox on structurally broken input.
    """
    if len(data) < 8:
        raise MalformedBox("input shorter than one box header")
    return _scan_boxes(data, 0, len(data), 0)


def find_boxes(boxes: list[BoxNode], box_type: str) -> list[BoxNode]:
    return [b for b in boxes if b.box_type == box_type]


def find_box(boxes: list[BoxNode], box_type: str) -> BoxNode | None:
    for b in boxes:
        if b.box_type == box_type:
            return b
    return None


def walk_path(boxes: list[BoxNode], *path: str) -> BoxNode | None:
    node_list = boxes
    node = None
    for box_type in path:
        node = find_box(node_list, box_type)
        if node is None:
            return None
        node_list = node.children
    return node


@dataclass(frozen=True)
class FtypInfo:
    """File-type box contents: lineage declaration of the container."""

    major_brand: str  # 4 chars, trailing spaces preserved ("qt  ")
    minor_version: int
    compatible_brands: tuple[str, ...]


def read_ftyp(tree: list[BoxNode], data) -> FtypInfo:
    """Extract major brand, minor version and compatible brands in file order."""
    node = find_box(tree, "ftyp")
    if node is None:
        raise MissingFtyp("no ftyp box; bare QuickTime lineage")
    if node.payload_length > _MAX_TEXT_PAYLOAD:
        raise MalformedBox(f"ftyp payload of {node.payload_length} bytes exceeds {_MAX_TEXT_PAYLOAD}")
    payload = data[node.payload_offset:node.payload_end]
    if len(payload) < 8:
        raise MalformedBox("ftyp payload shorter than 8 bytes")
    major = _decode_fourcc(payload[0:4])
    minor = struct.unpack_from(">I", payload, 4)[0]
    text = _decode_fourcc(payload[8:8 + (len(payload) - 8) // 4 * 4])
    brands = tuple(text[i:i + 4] for i in range(0, len(text), 4))
    return FtypInfo(major, minor, brands)


def render_codec_id(info: FtypInfo) -> str:
    """Render the brand line the way media analyzers print it.

    A lone major brand (no compatible brands, or just itself) renders bare
    ("qt"); otherwise "MAJOR (b1/b2/...)" with brands in file order.
    """
    major = info.major_brand.strip()
    brands = [b.strip() for b in info.compatible_brands]
    if not brands or brands == [major]:
        return major
    return f"{major} ({'/'.join(brands)})"


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


def classify_format_profile(info: FtypInfo) -> FormatProfile:
    """Major brand alone decides the analyzer-level format profile."""
    major = info.major_brand
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


def _parse_hdlr_type(data, node: BoxNode) -> str | None:
    # FullBox(4) + pre_defined(4) + handler_type(4)
    if node.payload_length < 12:
        return None
    return _decode_fourcc(data[node.payload_offset + 8:node.payload_offset + 12])


def _stsd_video_entry(data, stsd: BoxNode) -> tuple[int, int, AvcSignal | None] | None:
    # stsd: FullBox(4) + entry_count(4), then sample entries. A visual sample
    # entry holds width/height at entry offsets 32/34 and its codec config
    # boxes from entry offset 86 on.  Reads stay inside the first entry.
    entry = stsd.payload_offset + 8
    fields = data[entry:min(entry + 36, stsd.payload_end)]
    if len(fields) < 36:
        return None
    entry_size = struct.unpack_from(">I", fields)[0]
    end = entry + entry_size
    if entry_size < 36 or end > stsd.payload_end:
        return None
    width, height = struct.unpack_from(">HH", fields, 32)
    signal = None
    pos = entry + 86
    while pos + 8 <= end:
        child_size, child_type = _BOX_HEADER.unpack(data[pos:pos + 8])
        if child_size < 8 or pos + child_size > end:
            break
        if child_type == b"avcC":
            try:
                signal = parse_avc_config(data[pos + 8:pos + min(child_size, 12)])
            except MalformedBox:
                signal = None
            break
        pos += child_size
    if width < 1 or height < 1:
        return None
    return width, height, signal


def _tkhd_dimensions(data, tkhd: BoxNode) -> tuple[int, int] | None:
    # Track header stores 16.16 fixed-point width/height as its last fields:
    # offsets 76/80 in version 0, 88/92 in version 1.
    payload = data[tkhd.payload_offset:tkhd.payload_offset + min(tkhd.payload_length, 96)]
    offset = 88 if payload[:1] == b"\x01" else 76
    if len(payload) < offset + 8:
        return None
    w_fixed, h_fixed = struct.unpack_from(">II", payload, offset)
    width, height = round(w_fixed / 65536), round(h_fixed / 65536)
    if width < 1 or height < 1:
        return None
    return width, height


def _is_video_track(data, trak: BoxNode) -> bool:
    hdlr = walk_path(trak.children, "mdia", "hdlr")
    if hdlr is not None:
        return _parse_hdlr_type(data, hdlr) == "vide"
    return walk_path(trak.children, "mdia", "minf", "vmhd") is not None


# udta atoms that identify a specific marker; 0xA9 is the classic "(c)" prefix.
_MARKER_ATOMS = {
    "\xa9nam": Marker.MOVIE_NAME,
    "\xa9cpy": Marker.COPYRIGHT,
    "\xa9day": Marker.RECORDED_DATE,
}
# udta machinery that is not evidence of anything.
_NON_MARKER_ATOMS = frozenset({"meta", "free", "skip"})


def _collect_markers(udta: BoxNode) -> frozenset[Marker]:
    markers: set[Marker] = set()
    for child in udta.children:
        if child.box_type in _NON_MARKER_ATOMS:
            continue
        markers.add(_MARKER_ATOMS.get(child.box_type, Marker.MOVIE_MORE))
    return frozenset(markers)


def _ilst_encoder(data, ilst: BoxNode) -> str | None:
    # ilst items: size/type pairs; the (c)too item wraps a 'data' box whose
    # payload is type(4) + locale(4) + utf-8 text.
    pos, end = ilst.payload_offset, ilst.payload_end
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


def _find_encoder(data, moov: BoxNode) -> str | None:
    for parent in (walk_path(moov.children, "udta"), moov):
        if parent is None:
            continue
        ilst = walk_path(parent.children, "meta", "ilst")
        if ilst is not None:
            encoder = _ilst_encoder(data, ilst)
            if encoder:
                return encoder
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
    tree = parse_box_tree(data)
    try:
        ftyp = read_ftyp(tree, data)
        profile = classify_format_profile(ftyp)
        codec_id = render_codec_id(ftyp)
    except MissingFtyp:
        profile = FormatProfile.QUICKTIME
        codec_id = "qt"

    moov = find_box(tree, "moov")
    if moov is None:
        raise NoVideoTrack("no moov box")
    video_trak = None
    for trak in find_boxes(moov.children, "trak"):
        if _is_video_track(data, trak):
            video_trak = trak
            break
    if video_trak is None:
        raise NoVideoTrack("no video track in moov")

    dims_signal = None
    stsd = walk_path(video_trak.children, "mdia", "minf", "stbl", "stsd")
    if stsd is not None:
        dims_signal = _stsd_video_entry(data, stsd)
    if dims_signal is None:
        tkhd = walk_path(video_trak.children, "tkhd")
        fallback = _tkhd_dimensions(data, tkhd) if tkhd is not None else None
        if fallback is None:
            raise NoVideoTrack("video track carries no usable dimensions")
        width, height = fallback
        signal = None
    else:
        width, height, signal = dims_signal

    udta = walk_path(moov.children, "udta")
    markers = _collect_markers(udta) if udta is not None else frozenset()

    return VideoAttributes(
        extension=extension_from_hint(name_hint, profile),
        format_profile=profile,
        codec_id=codec_id,
        video_format_profile=signal.render() if signal is not None else "",
        width=width,
        length=height,
        encoder=_find_encoder(data, moov),
        markers=markers,
        byte_size=len(data),
    )
