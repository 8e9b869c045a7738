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
any field is read.  It gives each box as ``(raw type, payload offset, payload
end, children)``, where children is the list of a container's own boxes in
file order and None for a leaf.  Extraction then reads only what the
fingerprint needs, each step one ``_first`` scan of one container's few
children: the root ftyp and moov, moov's traks in order, each trak's
mdia/hdlr handler (or mdia/minf/vmhd), the video trak's mdia/minf/stbl/stsd
and tkhd, the children of moov/udta, and the ilst under udta/meta, then
under moov/meta.  The ftyp payload goes straight to the format profile and
codec id, once per distinct brand list.

All functions are pure, bounds-checked and never read outside the supplied
buffer; hostile input fails with one of the declared exceptions below.  The
box walk reads inside each box's own payload only: a child's header within
its parent, the QuickTime-or-ISO 'meta' sniff within the meta box, a leaf
reader within its own payload, slicing no more of it than its structure
calls for.  The boxes inside an stsd sample entry and an ilst are not
walked: ``_find_box`` finds the avcC, (c)too and 'data' boxes the leaf
readers need in a run of them, and a broken header there ends the search,
not the file.  The two leaf payloads read whole, the ftyp brand list and
the encoder text, are refused as MalformedBox above 4 KiB, so no declared
size makes a reader slice more than that.

The buffer may be bytes, a bytearray, a memoryview, or any view that
slices into bytes and measures its length with len(), such as one that
reads a large file on demand; each form gives the same boxes, attributes
and errors.  The walk reads box headers in place from the three bytes-like
forms, and so does the sample-entry reader its size and dimensions; every
other view is sliced.
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
# A visual sample entry's size, then its width and height at offsets 32/34.
_VISUAL_ENTRY = struct.Struct(">I28xHH")
_TKHD_DIMENSIONS = struct.Struct(">II")
_BYTES_LIKE = (bytes, bytearray, memoryview)


def _decode_fourcc(raw) -> str:
    # latin-1 never fails and round-trips arbitrary bytes, incl. 0xA9 "(c)".
    return str(raw, "latin-1")


def _sliced_header(data, pos: int) -> tuple[int, bytes]:
    # A view that reads on demand gives the header as a slice.
    return _BOX_HEADER.unpack(data[pos:pos + 8])


def _walk(data) -> list[tuple[bytes, int, int, list | None]]:
    """The root boxes of the buffer, each holding its own boxes.

    Each box is ``(raw type, payload offset, payload end, children)``:
    children lists a container's own boxes in file order, past the full-box
    header of an ISO 'meta', and is None for a leaf.  The walk is iterative
    and checks each header depth first in file order, so it raises
    TruncatedFile / MalformedBox on the first structurally broken box, or on
    nesting deeper than ``_MAX_DEPTH``, wherever in the file it sits.
    """
    end = len(data)
    if end < 8:
        raise MalformedBox("input shorter than one box header")
    header_at = _BOX_HEADER.unpack_from if isinstance(data, _BYTES_LIKE) else _sliced_header
    roots: list[tuple[bytes, int, int, list | None]] = []
    boxes = roots
    # Where to go on in each enclosing container: (pos, end, siblings).  Its
    # length is the nesting depth.
    resume: list[tuple[int, int, list]] = []
    pos = 0
    while True:
        while pos < end:
            if end - pos < 8:
                # A short all-zero tail is the classic user-data terminator /
                # padding; anything else is a broken header.
                if not any(data[pos:end]):
                    break
                raise MalformedBox(f"{end - pos} trailing bytes at offset {pos}, need 8 for a header")
            size, raw_type = header_at(data, pos)
            payload_offset = pos + 8
            if size < 8:
                if size == 0:
                    size = end - pos  # box runs to the end of its container
                elif size == 1:
                    if end - pos < 16:
                        raise TruncatedFile(f"extended size header at offset {pos} exceeds buffer")
                    size = _EXTENDED_SIZE.unpack(data[payload_offset:pos + 16])[0]
                    payload_offset += 8
                    if size < 16:
                        raise MalformedBox(f"extended size {size} at offset {pos} is below header size")
                else:
                    raise MalformedBox(f"box size {size} at offset {pos} is below header size")
            if size > end - pos:
                raise TruncatedFile(
                    f"box {_decode_fourcc(raw_type)!r} at offset {pos} declares {size} bytes, {end - pos} remain"
                )
            pos += size
            if raw_type in _CONTAINERS:
                children: list = []
                boxes.append((raw_type, payload_offset, pos, children))
                if raw_type == b"meta":
                    payload_offset += _fullbox_skip(data, payload_offset, pos)
                if len(resume) >= _MAX_DEPTH:
                    raise MalformedBox(f"box nesting deeper than {_MAX_DEPTH}")
                resume.append((pos, end, boxes))
                pos, end, boxes = payload_offset, pos, children
            else:
                boxes.append((raw_type, payload_offset, pos, None))
        if not resume:
            return roots
        pos, end, boxes = resume.pop()


def _find_box(data, pos: int, end: int, raw_type: bytes, least: int = 0) -> tuple[int, int] | None:
    """(payload offset, box end) of the first box in ``data[pos:end]`` of
    type ``raw_type`` with ``least`` payload bytes or more, or None.  The
    run ends, silently, at the first header that is cut short or declares
    less than 8 bytes or more than the run holds."""
    while pos + 8 <= end:
        size, box_type = _BOX_HEADER.unpack(data[pos:pos + 8])
        if size < 8 or pos + size > end:
            return None
        if box_type == raw_type and size - 8 >= least:
            return pos + 8, pos + size
        pos += size
    return None


def _fullbox_skip(data, payload_offset: int, payload_end: int) -> int:
    # 'meta' is a full box in ISO files but a bare container in QuickTime
    # ones; sniff by checking where a plausible first child type sits.  Only
    # a payload of 8 bytes or more can hold that type.
    if payload_end - payload_offset >= 8 and \
            bytes(data[payload_offset + 4:payload_offset + 8]) in _QT_META_CHILDREN:
        return 0
    return 4


def _first(boxes: list, raw_type: bytes) -> tuple | None:
    """The first box of type `raw_type` among `boxes`, or None."""
    for box in boxes:
        if box[0] == raw_type:
            return box
    return None


@dataclass(frozen=True)
class FtypInfo:
    """File-type box contents as ``render_codec_id`` takes them; the library never reads one from a file."""

    major_brand: str  # 4 chars, trailing spaces preserved ("qt  ")
    minor_version: int
    compatible_brands: tuple[str, ...]


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


@lru_cache(maxsize=256)
def _ftyp_signal(payload: bytes) -> tuple[FormatProfile, str]:
    """Format profile and codec id of an ftyp payload of at most 4 KiB.

    A dump holds few distinct brand lists, so each is read once.
    """
    if len(payload) < 8:
        raise MalformedBox("ftyp payload shorter than 8 bytes")
    text = _decode_fourcc(payload)
    major = text[:4]
    return classify_format_profile(major), _brand_line(major, [text[i:i + 4] for i in range(8, len(text) - 3, 4)])


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
    if entry + 36 > stsd_end:
        return None
    if isinstance(data, _BYTES_LIKE):
        entry_size, width, height = _VISUAL_ENTRY.unpack_from(data, entry)
    else:
        entry_size, width, height = _VISUAL_ENTRY.unpack(data[entry:entry + 36])
    end = entry + entry_size
    if entry_size < 36 or end > stsd_end:
        return None
    avcc = _find_box(data, entry + 86, end, b"avcC")
    profile = ""
    if avcc is not None and avcc[1] - avcc[0] >= 4:
        profile = _render_avc_config(bytes(data[avcc[0]:avcc[0] + 4]))
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
    w_fixed, h_fixed = _TKHD_DIMENSIONS.unpack_from(payload, field_offset)
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
    # ilst items: the first (c)too item wraps 'data' boxes, and the first of
    # those with 8 bytes of payload or more holds type(4) + locale(4) + utf-8
    # text.
    item = _find_box(data, offset, end, b"\xa9too")
    found = item and _find_box(data, item[0], item[1], b"data", 8)
    if found is None:
        return None
    payload, d_end = found
    if d_end - payload - 8 > _MAX_TEXT_PAYLOAD:
        raise MalformedBox(f"encoder text of {d_end - payload - 8} bytes exceeds {_MAX_TEXT_PAYLOAD}")
    return str(data[payload + 8:d_end], "utf-8", "replace").rstrip("\x00") or None


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
    roots = _walk(data)
    ftyp = _first(roots, b"ftyp")
    if ftyp is None:
        profile, codec_id = FormatProfile.QUICKTIME, "qt"
    else:
        _, offset, end, _ = ftyp
        if end - offset > _MAX_TEXT_PAYLOAD:
            raise MalformedBox(f"ftyp payload of {end - offset} bytes exceeds {_MAX_TEXT_PAYLOAD}")
        profile, codec_id = _ftyp_signal(bytes(data[offset:end]))

    moov = _first(roots, b"moov")
    if moov is None:
        raise NoVideoTrack("no moov box")
    for trak in moov[3]:
        if trak[0] != b"trak":
            continue
        # The first mdia's hdlr names the handler; without one, a vmhd
        # (video media header) marks a video track.
        mdia = _first(trak[3], b"mdia")
        if mdia is None:
            continue
        hdlr = _first(mdia[3], b"hdlr")
        minf = _first(mdia[3], b"minf")
        if hdlr is not None:
            if _parse_hdlr_type(data, hdlr[1], hdlr[2]) == b"vide":
                break
        elif minf is not None and _first(minf[3], b"vmhd") is not None:
            break
    else:
        raise NoVideoTrack("no video track in moov")

    stbl = minf and _first(minf[3], b"stbl")
    stsd = stbl and _first(stbl[3], b"stsd")
    entry = _stsd_video_entry(data, stsd[1], stsd[2]) if stsd is not None else None
    if entry is None:
        tkhd = _first(trak[3], b"tkhd")
        fallback = _tkhd_dimensions(data, tkhd[1], tkhd[2]) if tkhd is not None else None
        if fallback is None:
            raise NoVideoTrack("video track carries no usable dimensions")
        width, height = fallback
        video_format_profile = ""
    else:
        width, height, video_format_profile = entry

    udta = _first(moov[3], b"udta")
    markers = frozenset() if udta is None else frozenset([
        _MARKER_ATOMS.get(child[0], Marker.MOVIE_MORE) for child in udta[3] if child[0] not in _NON_MARKER_ATOMS
    ])
    encoder = None
    for parent in (udta, moov):
        meta = _first(parent[3], b"meta") if parent is not None else None
        ilst = meta and _first(meta[3], b"ilst")
        if ilst is not None:
            encoder = _ilst_encoder(data, ilst[1], ilst[2])
            if encoder:
                break

    return VideoAttributes(extension_from_hint(name_hint, profile), profile, codec_id, video_format_profile,
                           width, height, encoder, markers, len(data))
