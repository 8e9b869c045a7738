import os
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from mediafp.attributes import (
    AVC_PROFILES,
    EXT_MOV,
    EXT_MP4,
    EXT_OTHER,
    EXTENSIONS,
    AvcSignal,
    FormatProfile,
    Marker,
    VideoAttributes,
)
from mediafp.container import (
    FtypInfo,
    MalformedBox,
    NoVideoTrack,
    ParseError,
    TruncatedFile,
    UnknownBrand,
    classify_format_profile,
    codec_id_brands,
    extension_from_hint,
    extract_video_attributes,
    parse_avc_config,
    render_codec_id,
    _ftyp_signal,
    _ilst_encoder,
    _parse_hdlr_type,
    _stsd_video_entry,
    _tkhd_dimensions,
    _walk,
)
from mediafp.oracle import InconsistentAttrs, synthesize_container
from mediafp.report import HEAD_READ, _FileView


def box(box_type: bytes, payload: bytes) -> bytes:
    return struct.pack(">I", len(payload) + 8) + box_type + payload


def ftyp_bytes(major: bytes, brands: list[bytes]) -> bytes:
    return box(b"ftyp", major + b"\x00" * 4 + b"".join(brands))


class TestBoxTree:
    def test_single_ftyp_leaf(self):
        data = ftyp_bytes(b"qt  ", [b"qt  ", b"qt  "])
        assert len(data) == 24
        assert _walk(data) == [(b"ftyp", 8, 24, None)]

    def test_moov_with_trak_child(self):
        data = box(b"moov", box(b"trak", b""))
        assert _walk(data) == [(b"moov", 8, 16, [(b"trak", 16, 16, [])])]

    def test_declared_size_exceeds_file(self):
        # Start from a valid synthesized container, then inflate the first
        # box's declared size beyond the buffer.
        data = bytearray(synthesize_container(discord_attrs()))
        struct.pack_into(">I", data, 0, 1000 + len(data))
        with pytest.raises(TruncatedFile):
            _walk(bytes(data))

    def test_size_below_header_is_malformed(self):
        data = struct.pack(">I", 4) + b"abcd" + b"\x00" * 8
        with pytest.raises(MalformedBox):
            _walk(data)

    def test_size_zero_runs_to_end(self):
        data = struct.pack(">I", 0) + b"mdat" + b"\x00" * 100
        assert _walk(data) == [(b"mdat", 8, 108, None)]

    def test_64_bit_extended_size(self):
        payload = b"\x00" * 10
        data = struct.pack(">I", 1) + b"mdat" + struct.pack(">Q", 16 + len(payload)) + payload
        assert _walk(data) == [(b"mdat", 16, 16 + len(payload), None)]

    @pytest.mark.parametrize("size", [0, 8, 15])
    def test_extended_size_below_header_is_malformed(self, size):
        data = struct.pack(">I", 1) + b"mdat" + struct.pack(">Q", size) + b"\x00" * 16
        with pytest.raises(MalformedBox, match=f"extended size {size} at offset 0 is below header size"):
            _walk(data)

    def test_classic_udta_zero_terminator_tolerated(self):
        data = box(b"udta", box(b"\xa9nam", b"\x00\x04\x00\x00name") + b"\x00\x00\x00\x00")
        assert _walk(data) == [(b"udta", 8, 28, [(b"\xa9nam", 16, 24, None)])]

    def test_unknown_box_skipped_not_recursed(self):
        data = box(b"wxyz", box(b"trak", b""))
        assert _walk(data) == [(b"wxyz", 8, 16, None)]

    @pytest.mark.parametrize("levels,refused", [(32, False), (33, True)])
    def test_nesting_limit(self, levels, refused):
        data = b""
        for _ in range(levels):
            data = box(b"moov", data)
        if refused:
            with pytest.raises(MalformedBox, match="^box nesting deeper than 32$"):
                _walk(data)
        else:
            assert len(_walk(data)) == 1
        assert _outcome(_walk, data) == _outcome(_reference_boxes, data)

    @pytest.mark.parametrize("tail,expected", [
        (b"\x00" * 3, [(b"free", 8, 8, None)]),
        (b"\x00\x01\x00", (MalformedBox, "3 trailing bytes at offset 8, need 8 for a header")),
    ])
    def test_short_tail_of_a_memoryview(self, tail, expected):
        data = box(b"free", b"") + tail
        assert _outcome(_walk, data) == expected
        assert _outcome(_walk, memoryview(data)) == expected


def _ftyp(data):
    """Format profile and codec id of the root ftyp, read as extraction reads it."""
    [(box_type, offset, end, _)] = _walk(data)
    assert box_type == b"ftyp"
    return _ftyp_signal(data[offset:end])


class TestFtyp:
    def test_qt_major(self):
        assert _ftyp(ftyp_bytes(b"qt  ", [b"qt  "])) == (FormatProfile.QUICKTIME, "qt")

    def test_mp42_brands_in_order(self):
        assert _ftyp(ftyp_bytes(b"mp42", [b"isom", b"mp42"])) == (FormatProfile.BASE_MEDIA_V2, "mp42 (isom/mp42)")

    def test_four_compat_brands_preserved(self):
        data = ftyp_bytes(b"isom", [b"isom", b"iso2", b"avc1", b"mp41"])
        assert _ftyp(data)[1] == "isom (isom/iso2/avc1/mp41)"


class TestFtypMemo:
    # The brand line is worked out once per distinct ftyp payload, and only
    # for a payload that passed the 4 KiB refusal; errors are not kept.
    def _movie_with_ftyp(self, payload):
        movie = synthesize_container(discord_attrs())
        return box(b"ftyp", payload) + movie[struct.unpack_from(">I", movie)[0]:]

    def test_cache_is_bounded(self):
        assert _ftyp_signal.cache_info().maxsize == 256

    def test_repeated_brand_list_is_read_once(self):
        data = self._movie_with_ftyp(b"mp42" + bytes(4) + b"isommp42")
        _ftyp_signal.cache_clear()
        first = extract_video_attributes(data)
        assert extract_video_attributes(bytearray(data)) == first
        assert first.codec_id == "mp42 (isom/mp42)"
        info = _ftyp_signal.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_refused_ftyp_adds_no_entry(self):
        data = self._movie_with_ftyp(b"qt  " + bytes(4093))
        _ftyp_signal.cache_clear()
        with pytest.raises(MalformedBox, match="^ftyp payload of 4097 bytes exceeds 4096$"):
            extract_video_attributes(data)
        info = _ftyp_signal.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    @pytest.mark.parametrize("payload,error,message", [
        (b"XXXX" + bytes(4) + b"XXXX", UnknownBrand, "unrecognized major brand 'XXXX'"),
        (b"qt  " + bytes(3), MalformedBox, "ftyp payload shorter than 8 bytes"),
    ])
    def test_errors_are_raised_on_every_call(self, payload, error, message):
        data = self._movie_with_ftyp(payload)
        _ftyp_signal.cache_clear()
        for _ in range(3):
            with pytest.raises(error, match=f"^{message}$"):
                extract_video_attributes(data)
        assert _ftyp_signal.cache_info().currsize == 0


class TestCodecId:
    def test_bare_qt(self):
        assert render_codec_id(FtypInfo("qt  ", 0, ("qt  ",))) == "qt"

    def test_two_brands(self):
        assert render_codec_id(FtypInfo("mp42", 0, ("mp42", "isom"))) == "mp42 (mp42/isom)"

    def test_three_brands_file_order(self):
        assert render_codec_id(FtypInfo("mp42", 0, ("isom", "mp41", "mp42"))) == "mp42 (isom/mp41/mp42)"

    def test_empty_compat_renders_bare(self):
        assert render_codec_id(FtypInfo("isom", 512, ())) == "isom"

    @given(st.lists(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=4),
                    min_size=1, max_size=6))
    def test_rendering_reparses(self, brands):
        padded = [b.ljust(4) for b in brands]
        rendered = render_codec_id(FtypInfo(padded[0], 0, tuple(padded)))
        major, compat = codec_id_brands(rendered)
        assert major == padded[0]
        if len(padded) == 1:
            assert compat == (padded[0],)
        else:
            assert compat == tuple(padded)


class TestFormatProfile:
    @pytest.mark.parametrize("major,expected", [
        ("qt  ", FormatProfile.QUICKTIME),
        ("mp42", FormatProfile.BASE_MEDIA_V2),
        ("isom", FormatProfile.BASE_MEDIA),
        ("iso2", FormatProfile.BASE_MEDIA),
        ("avc1", FormatProfile.BASE_MEDIA),
    ])
    def test_brand_mapping(self, major, expected):
        assert classify_format_profile(major) is expected

    def test_unknown_brand(self):
        with pytest.raises(UnknownBrand):
            classify_format_profile("zzzz")


def discord_attrs() -> VideoAttributes:
    return VideoAttributes(
        extension="MOV",
        format_profile=FormatProfile.QUICKTIME,
        codec_id="qt",
        video_format_profile="Main@L3.1",
        width=960,
        length=540,
        byte_size=4096,
    )


class TestExtraction:
    def test_quicktime_main_l31(self):
        attrs = extract_video_attributes(synthesize_container(discord_attrs()), name_hint="clip.mov")
        assert attrs.extension == "MOV"
        assert attrs.format_profile is FormatProfile.QUICKTIME
        assert attrs.codec_id == "qt"
        assert attrs.video_format_profile == "Main@L3.1"
        assert (attrs.width, attrs.length) == (960, 540)
        assert attrs.markers == frozenset()

    def test_vendor_atom_reports_movie_more(self):
        base = VideoAttributes(
            extension="mp4",
            format_profile=FormatProfile.BASE_MEDIA_V2,
            codec_id="mp42 (isom/mp41/mp42)",
            video_format_profile="High@L3.1",
            width=960,
            length=544,
            markers=frozenset({Marker.MOVIE_MORE}),
            byte_size=4096,
        )
        attrs = extract_video_attributes(synthesize_container(base), name_hint="v.mp4")
        assert Marker.MOVIE_MORE in attrs.markers

    def test_no_user_data_no_markers(self):
        attrs = extract_video_attributes(synthesize_container(discord_attrs()))
        assert attrs.markers == frozenset()

    def test_memoryview_encoder_reads_like_bytes(self):
        data = synthesize_container(replace(discord_attrs(), encoder="Lavf58.20.100"))
        attrs = extract_video_attributes(memoryview(data), name_hint="clip.mov")
        assert attrs == extract_video_attributes(data, name_hint="clip.mov")
        assert attrs.encoder == "Lavf58.20.100"

    def test_constraint_suffix_round_trip(self):
        base = VideoAttributes(
            extension="mp4",
            format_profile=FormatProfile.BASE_MEDIA,
            codec_id="isom (isom/iso2/mp41)",
            video_format_profile="Main@L4@Main",
            width=1920,
            length=1080,
            encoder="Lavf57.83.100",
            byte_size=4096,
        )
        attrs = extract_video_attributes(synthesize_container(base), name_hint="v.mp4")
        assert attrs.video_format_profile == "Main@L4@Main"
        assert attrs.encoder == "Lavf57.83.100"

    def test_extension_falls_back_on_lineage(self):
        data = synthesize_container(discord_attrs())
        assert extract_video_attributes(data).extension == "MOV"
        assert extract_video_attributes(data, name_hint="weird.dat").extension == "other"

    def test_no_video_track(self):
        data = ftyp_bytes(b"isom", [b"isom"]) + box(b"moov", box(b"mvhd", b"\x00" * 100))
        with pytest.raises(NoVideoTrack):
            extract_video_attributes(data)

    def test_determinism(self):
        data = synthesize_container(discord_attrs())
        assert extract_video_attributes(data, "a.mov") == extract_video_attributes(data, "a.mov")

    def test_no_ftyp_classified_quicktime(self):
        # Bare QuickTime files legitimately omit ftyp; everything after the
        # first box of a synthesized qt file is such a container.
        data = synthesize_container(discord_attrs())
        box_type, _, ftyp_end, _ = _walk(data)[0]
        assert box_type == b"ftyp"
        stripped = data[ftyp_end:]
        attrs = extract_video_attributes(stripped)
        assert attrs.format_profile is FormatProfile.QUICKTIME
        assert attrs.codec_id == "qt"
        assert attrs.extension == "MOV"

    def test_tkhd_fallback_when_stsd_missing(self):
        # Hand-build a track whose stbl has no stsd: dimensions must come
        # from the 16.16 fixed-point track header fields.
        tkhd = box(b"tkhd", b"\x00" * 76 + struct.pack(">II", 640 << 16, 360 << 16))
        hdlr = box(b"hdlr", b"\x00" * 8 + b"vide" + b"\x00" * 12)
        stbl = box(b"stbl", b"")
        minf = box(b"minf", stbl)
        mdia = box(b"mdia", hdlr + minf)
        data = ftyp_bytes(b"isom", [b"isom"]) + box(b"moov", box(b"trak", tkhd + mdia))
        attrs = extract_video_attributes(data, name_hint="x.mp4")
        assert (attrs.width, attrs.length) == (640, 360)
        assert attrs.video_format_profile == ""

    @pytest.mark.parametrize("declared", [8, 16, 35])
    def test_tkhd_fallback_when_stsd_entry_is_too_short(self, declared):
        # The entry is 86 bytes long and holds 1280x720 at body offsets
        # 24/26, but declares fewer bytes than its visual fields need: those
        # bytes lie outside it, so dimensions come from the track header.
        tkhd = box(b"tkhd", b"\x00" * 76 + struct.pack(">II", 640 << 16, 360 << 16))
        hdlr = box(b"hdlr", b"\x00" * 8 + b"vide" + b"\x00" * 12)
        entry = struct.pack(">I", declared) + b"avc1" + bytes(24) + struct.pack(">HH", 1280, 720) + bytes(50)
        stsd = box(b"stsd", struct.pack(">II", 0, 1) + entry)
        mdia = box(b"mdia", hdlr + box(b"minf", box(b"stbl", stsd)))
        data = ftyp_bytes(b"isom", [b"isom"]) + box(b"moov", box(b"trak", tkhd + mdia))
        attrs = extract_video_attributes(data, name_hint="x.mp4")
        assert (attrs.width, attrs.length) == (640, 360)
        assert attrs.video_format_profile == ""


class _RecordingBuffer:
    """Bytes that record the longest slice a reader asks them for."""

    def __init__(self, data):
        self.data, self.longest = data, 0

    def __len__(self):
        return len(self.data)

    def __getitem__(self, index):
        start, stop, _ = index.indices(len(self.data))
        self.longest = max(self.longest, stop - start)
        return self.data[index]


class TestTextPayloadBound:
    # The ftyp brand list and the encoder text are the two payloads read
    # whole; past 4 KiB they are refused before they are sliced.
    @pytest.mark.parametrize("brands,refused", [(1022, False), (1023, True), (1 << 18, True)])
    def test_ftyp_brand_list(self, brands, refused):
        movie = synthesize_container(discord_attrs())
        ftyp_end = struct.unpack_from(">I", movie)[0]
        data = _RecordingBuffer(ftyp_bytes(b"qt  ", [b"qt  "] * brands) + movie[ftyp_end:])
        if refused:
            with pytest.raises(MalformedBox, match=f"ftyp payload of {8 + 4 * brands} bytes exceeds 4096"):
                extract_video_attributes(data)
        else:
            assert extract_video_attributes(data).codec_id == f"qt ({'/'.join(['qt'] * brands)})"
        assert data.longest <= 4096

    @pytest.mark.parametrize("length,refused", [(4096, False), (4097, True), (1 << 20, True)])
    def test_encoder_text(self, length, refused):
        data = _RecordingBuffer(synthesize_container(replace(discord_attrs(), encoder="e" * length)))
        if refused:
            with pytest.raises(MalformedBox, match=f"encoder text of {length} bytes exceeds 4096"):
                extract_video_attributes(data)
        else:
            assert extract_video_attributes(data).encoder == "e" * length
        assert data.longest <= 4096


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=0, max_size=512))
def test_fuzz_only_declared_errors(data):
    try:
        _walk(data)
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=4095), st.integers(min_value=0, max_value=255))
def test_fuzz_mutated_container(offset, value):
    data = bytearray(synthesize_container(discord_attrs()))
    data[offset % len(data)] = value
    try:
        extract_video_attributes(bytes(data), name_hint="m.mov")
    except ParseError:
        pass


# Generated box trees.  A node is (box type, header, children or payload):
# header "32" is the classic size, "64" the extended size, "0" a size of
# zero, which runs to the end of the enclosing box (valid on a last box).
_PARSED_CONTAINERS = (b"moov", b"trak", b"mdia", b"minf", b"stbl", b"udta")
_LEAF_TYPES = (b"ftyp", b"hdlr", b"tkhd", b"stsd", b"avcC", b"vmhd", b"free",
               b"\xa9nam", b"\xa9cpy", b"\xa9too", b"data", b"keys", b"mdat")


def _encode(node, last=True):
    box_type, header, body = node
    if isinstance(body, bytes):
        payload = body
    else:
        payload = b"".join(_encode(child, i == len(body) - 1) for i, child in enumerate(body))
        if box_type == b"meta-iso":
            payload = b"\x00\x00\x00\x00" + payload  # full box version and flags
    box_type = box_type[:4]
    if header == "0" and last:
        return struct.pack(">I", 0) + box_type + payload
    if header == "64":
        return struct.pack(">I", 1) + box_type + struct.pack(">Q", 16 + len(payload)) + payload
    return struct.pack(">I", 8 + len(payload)) + box_type + payload


def _encode_tree(tree):
    return b"".join(_encode(node, i == len(tree) - 1) for i, node in enumerate(tree))


def _shape(tree):
    """(type, its children's shape or None for a leaf) of each node, as _walk nests them."""
    return [(box_type[:4], None if isinstance(body, bytes) else _shape(body)) for box_type, _, body in tree]


def _walk_shape(boxes):
    return [(box_type, None if children is None else _walk_shape(children)) for box_type, _, _, children in boxes]


_headers = st.sampled_from(["32", "32", "64", "0"])
_leaves = st.tuples(st.sampled_from(_LEAF_TYPES), _headers, st.binary(max_size=96))


def _containers(children):
    plain = st.tuples(st.sampled_from(_PARSED_CONTAINERS), _headers, st.lists(children, max_size=4))
    iso_meta = st.tuples(st.just(b"meta-iso"), _headers, st.lists(children, max_size=3))
    # A QuickTime meta has no version field; a parser tells it apart by the
    # child type (hdlr, keys or ilst) where an ISO meta keeps a child's size.
    first = st.tuples(st.sampled_from([b"hdlr", b"keys", b"ilst"]), _headers, st.binary(max_size=32))
    qt_meta = st.tuples(st.just(b"meta"), _headers,
                        st.builds(lambda f, rest: [f, *rest], first, st.lists(children, max_size=2)))
    return plain | iso_meta | qt_meta


_trees = st.lists(st.recursive(_leaves, _containers, max_leaves=12), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_generated_box_trees_parse_to_their_shape(tree):
    assert _walk_shape(_walk(_encode_tree(tree))) == _shape(tree)


def _movie(hdlr_type, tkhd, entry_body, avcc, udta):
    # moov/trak with a video track skeleton; payloads of the leaves the
    # extractor reads (tkhd, stsd entry, avcC) are arbitrary bytes.
    entry = b"avc1" + entry_body + _encode((b"avcC", "32", avcc))
    stsd = b"\x00" * 4 + struct.pack(">I", 1) + struct.pack(">I", 4 + len(entry)) + entry
    hdlr = b"\x00" * 8 + hdlr_type + b"\x00" * 12
    stbl = (b"stbl", "32", [(b"stsd", "32", stsd)])
    mdia = (b"mdia", "32", [(b"hdlr", "32", hdlr), (b"minf", "32", [stbl])])
    trak = (b"trak", "32", [(b"tkhd", "32", tkhd), mdia])
    return [(b"moov", "32", [trak, (b"udta", "32", udta)])]


_movies = st.builds(
    _movie,
    st.sampled_from([b"vide", b"soun"]),
    st.binary(max_size=100),
    st.binary(max_size=40) | st.binary(min_size=78, max_size=90),  # short, or reaching avcC
    st.binary(max_size=8),
    st.lists(st.one_of(_leaves, _containers(_leaves)), max_size=3),
)
_BRANDS = [b"qt  ", b"mp42", b"isom", b"avc1", b"XXXX"]


def _hostile_buffer(ftyp, tree, size_edits, tail, cut):
    # A well-formed tree, then declared sizes overwritten at random offsets
    # (zero, one, below the header, huge) and the end cut off.
    head = ftyp_bytes(ftyp[0], ftyp[1]) if ftyp else b""
    data = bytearray(head + _encode_tree(tree) + tail)
    for offset, size in size_edits:
        offset %= max(1, len(data) - 3)
        data[offset:offset + 4] = struct.pack(">I", size)
    return bytes(data[:len(data) - cut] if cut < len(data) else data)


_hostile_buffers = st.builds(
    _hostile_buffer,
    st.one_of(st.none(), st.tuples(st.sampled_from(_BRANDS), st.lists(st.sampled_from(_BRANDS), max_size=3))),
    _trees | _movies,
    st.lists(st.tuples(st.integers(min_value=0, max_value=4096),
                       st.sampled_from([0, 1, 7, 8, 15, 16, 0xFF, 0xFFFFFFFF])), max_size=3),
    # A header cut short after the last box: 32-bit, or 64-bit with its size,
    # or a whole 64-bit header whose size is zero, below 16, or past the end.
    st.one_of(
        st.sampled_from([b"", struct.pack(">I", 1) + b"mdat"]),
        st.sampled_from([0, 8, 12, 15, 16, 17, 2**64 - 1]).map(
            lambda size: struct.pack(">I", 1) + b"mdat" + struct.pack(">Q", size)),
    ).flatmap(lambda head: st.binary(max_size=7).map(lambda rest: head + rest)),
    st.integers(min_value=0, max_value=64),
)


@settings(max_examples=300, deadline=None)
@given(_hostile_buffers)
def test_hostile_box_trees_raise_only_declared_errors(data):
    for parse in (_walk, lambda d: extract_video_attributes(d, name_hint="g.mp4")):
        for form in (data, memoryview(data)):
            try:
                parse(form)
            except ParseError:
                pass


# A plain box walk, kept as the reference the walk under test must match:
# the same shapes, offsets and error messages (reports carry them).  Like the
# walk under test, its 'meta' sniff reads only inside the meta payload.
@dataclass
class _ReferenceNode:
    box_type: str
    payload_offset: int
    payload_length: int
    children: list = field(default_factory=list)

    @property
    def payload_end(self) -> int:
        return self.payload_offset + self.payload_length


_REFERENCE_CONTAINERS = frozenset({"moov", "trak", "mdia", "minf", "stbl", "udta", "meta"})


def _reference_scan_boxes(data, start, end, depth):
    if depth > 32:
        raise MalformedBox("box nesting deeper than 32")
    boxes = []
    pos = start
    while pos < end:
        if end - pos < 8:
            if bytes(data[pos:end]).count(0) == end - pos:
                break
            raise MalformedBox(f"{end - pos} trailing bytes at offset {pos}, need 8 for a header")
        size = struct.unpack_from(">I", data, pos)[0]
        box_type = bytes(data[pos + 4:pos + 8]).decode("latin-1")
        header = 8
        if size == 0:
            size = end - pos
        elif size == 1:
            if end - pos < 16:
                raise TruncatedFile(f"extended size header at offset {pos} exceeds buffer")
            size = struct.unpack_from(">Q", data, pos + 8)[0]
            header = 16
            if size < 16:
                raise MalformedBox(f"extended size {size} at offset {pos} is below header size")
        elif size < 8:
            raise MalformedBox(f"box size {size} at offset {pos} is below header size")
        if size > end - pos:
            raise TruncatedFile(
                f"box {box_type!r} at offset {pos} declares {size} bytes, {end - pos} remain"
            )
        node = _ReferenceNode(box_type, pos + header, size - header)
        if box_type in _REFERENCE_CONTAINERS:
            child_start = node.payload_offset + _reference_fullbox_skip(data, node)
            node.children = _reference_scan_boxes(data, child_start, node.payload_end, depth + 1)
        boxes.append(node)
        pos += size
    return boxes


def _reference_fullbox_skip(data, node):
    if node.box_type != "meta":
        return 0
    payload = data[node.payload_offset:min(node.payload_offset + 12, node.payload_end)]
    if len(payload) >= 8 and bytes(payload[4:8]) in (b"hdlr", b"keys", b"ilst"):
        return 0
    return 4


def _reference_parse_box_tree(data):
    if len(data) < 8:
        raise MalformedBox("input shorter than one box header")
    return _reference_scan_boxes(data, 0, len(data), 0)


def _reference_boxes(data):
    """The reference tree in the nested shape _walk gives."""
    def nest(nodes):
        return [(node.box_type.encode("latin-1"), node.payload_offset, node.payload_end,
                 nest(node.children) if node.box_type in _REFERENCE_CONTAINERS else None) for node in nodes]

    return nest(_reference_parse_box_tree(data))


def _outcome(walk, data):
    """A walk as comparable data: its nested boxes, or the error."""
    try:
        return walk(data)
    except ParseError as exc:
        return type(exc), str(exc)


def _with_head(buffers):
    """Each buffer with how many of its first bytes a file view holds in hand."""
    return buffers.flatmap(lambda data: st.tuples(st.just(data), st.integers(min_value=0, max_value=len(data))))


@contextmanager
def _buffer_forms(data, head):
    """The buffer as bytes, a bytearray and a memoryview, whose box headers
    the walk reads in place, and as a file view holding its first `head`
    bytes and reading the rest on demand, which the walk slices."""
    with tempfile.TemporaryFile() as file:
        file.write(data)
        file.flush()
        yield data, bytearray(data), memoryview(data), _FileView(file.fileno(), data[:head], len(data))


@settings(max_examples=500, deadline=None)
@given(_with_head(_hostile_buffers))
def test_box_walk_matches_the_reference_walk(headed):
    # Node for node (type, offsets, children), or the same error class and
    # message, whatever form the buffer takes.
    data, head = headed
    expected = _outcome(_reference_boxes, data)
    with _buffer_forms(data, head) as forms:
        for form in forms:
            assert _outcome(_walk, form) == expected


@settings(max_examples=300, deadline=None)
@given(_hostile_buffers | _trees.map(_encode_tree))
def test_boxes_nest_inside_their_parents(data):
    # Each box lies in its parent's payload, after the end of its previous
    # sibling and a header of at least 8 bytes; only a container type has a
    # child list.
    try:
        roots = _walk(data)
    except ParseError:
        return
    containers = {box_type.encode() for box_type in _REFERENCE_CONTAINERS}
    pending = [(roots, 0, len(data))]
    while pending:
        boxes, previous_end, parent_end = pending.pop()
        for box_type, offset, end, children in boxes:
            assert previous_end + 8 <= offset <= end <= parent_end
            assert (children is not None) == (box_type in containers)
            if children is not None:
                pending.append((children, offset, end))
            previous_end = end


def _short_meta(length, child):
    # A 'meta' with a `length`-byte payload inside a moov, then a sibling
    # whose bytes spell `child` where the sniff for a QuickTime meta looks
    # (payload offset 4..8); where the declared size allows, the sibling is
    # completed into a well-formed box.
    inside = max(0, length - 4)
    payload = b"\x01" * min(length, 4) + child[:inside]
    sibling = bytearray(8)
    sibling[max(0, 4 - length):8 - length] = child[inside:]
    size = int.from_bytes(sibling[:4], "big")
    if 8 <= size <= 1 << 24:
        sibling += bytes(size - 8)
    return payload, bytes(sibling)


@pytest.mark.parametrize("child", [b"hdlr", b"keys", b"ilst"])
@pytest.mark.parametrize("length", range(8))
def test_short_meta_payload_is_read_on_its_own(length, child):
    payload, sibling = _short_meta(length, child)
    alone = _outcome(_walk, box(b"moov", box(b"meta", payload)))
    beside = _outcome(_walk, box(b"moov", box(b"meta", payload) + sibling))
    neutral = _outcome(_walk, box(b"moov", box(b"free", payload) + sibling))
    if isinstance(alone, tuple):
        assert beside == alone  # the meta's own error, whatever follows it
    elif isinstance(neutral, tuple):
        assert beside == neutral  # the sibling's own error
    else:
        # A payload under 8 bytes holds no child box, so the meta has no
        # children and the sibling's boxes are unchanged.
        [(_, _, _, [meta])] = alone
        [(moov, offset, end, [_, *rest])] = neutral
        assert meta[3] == []
        assert beside == [(moov, offset, end, [meta, *rest])]


def test_short_meta_before_a_sibling_spelling_hdlr():
    # moov[meta(01 02), box(size 0x6864, "lrxx")]: the sibling's size and
    # type read "hdlr" at meta payload offset 4.
    sibling = struct.pack(">I", 0x6864) + b"lrxx" + bytes(0x6864 - 8)
    [(_, _, _, boxes)] = _walk(box(b"moov", box(b"meta", b"\x01\x02") + sibling))
    assert [(box_type, end - offset, children) for box_type, offset, end, children in boxes] == [
        (b"meta", 2, []), (b"lrxx", 0x6864 - 8, None),
    ]


# Leaf payloads, and hostile bytes to follow them: box headers with any
# declared size, and look-alikes of the boxes the leaf readers search for,
# well-formed ones among them.
_LOOK_ALIKES = (b"avcC", b"data", b"\xa9too", b"ilst", b"stsd", b"tkhd", b"hdlr", b"vide")
_hostile_boxes = st.builds(
    lambda size, box_type, body: struct.pack(">I", size) + box_type + body,
    st.integers(min_value=0, max_value=96) | st.just(0xFFFFFFFF),
    st.sampled_from(_LOOK_ALIKES),
    st.binary(max_size=40),
) | st.sampled_from([
    box(b"avcC", b"\x01\x4d\x40\x1e"),
    box(b"\xa9too", box(b"data", bytes(8) + b"sibling")),
    box(b"hdlr", bytes(8) + b"vide" + bytes(12)),
])
_hostile_bytes = st.lists(_hostile_boxes | st.binary(max_size=12), max_size=4).map(b"".join)


def _cut(payloads):
    # A payload whole, cut anywhere, or cut close to its end.
    cuts = st.none() | st.integers(min_value=0, max_value=256) | st.integers(min_value=-12, max_value=-1)
    return st.tuples(payloads, cuts).map(lambda p: p[0][:p[1]])


_hdlr_payloads = _cut(st.builds(lambda handler, rest: bytes(8) + handler + rest,
                                st.sampled_from([b"vide", b"soun"]), st.binary(max_size=8)))
_tkhd_payloads = _cut(st.builds(lambda version, dims: bytes([version]) + bytes(87 if version == 1 else 75) + dims,
                                st.sampled_from([0, 1]), st.binary(min_size=8, max_size=12)))
_entry_children = st.lists(_hostile_boxes | st.just(box(b"avcC", b"\x01\x64\x40\x1f")), max_size=3)
_stsd_payloads = _cut(st.builds(
    lambda declared, dims, children: (
        struct.pack(">III", 0, 1, 8 + 78 + len(children) if declared is None else declared)
        + b"avc1" + bytes(24) + dims + bytes(50) + children),
    st.none() | st.integers(min_value=0, max_value=160),
    st.binary(min_size=4, max_size=4),
    _entry_children.map(b"".join),
))
_data_boxes = st.binary(max_size=16).map(lambda text: box(b"data", bytes(8) + text))
_ilst_payloads = _cut(st.lists(
    st.lists(_data_boxes | _hostile_boxes, max_size=2).map(lambda inner: box(b"\xa9too", b"".join(inner)))
    | _hostile_boxes,
    max_size=3,
).map(b"".join))
_LEAF_READERS = {
    b"hdlr": (_parse_hdlr_type, _hdlr_payloads),
    b"tkhd": (_tkhd_dimensions, _tkhd_payloads),
    b"stsd": (_stsd_video_entry, _stsd_payloads),
    b"ilst": (_ilst_encoder, _ilst_payloads),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_LEAF_READERS)).flatmap(
    lambda box_type: st.tuples(st.just(box_type), _LEAF_READERS[box_type][1])), _hostile_bytes)
def test_leaf_readers_read_only_their_own_payload(leaf, sibling):
    # A box, alone and then followed by hostile bytes: the reader sees the
    # same payload either way, so it must give the same result.
    box_type, payload = leaf
    reader = _LEAF_READERS[box_type][0]
    alone = box(box_type, payload)
    end = len(alone)
    assert reader(alone + sibling, 8, end) == reader(alone, 8, end)


# Generated attribute vectors for the synthesize → extract round trip:
# brand lines, AVC profiles and levels, resolutions, encoders, marker sets
# and byte sizes well beyond the KB's own vectors.
_MAJORS = ["qt  ", "mp42", "isom", "iso2", "iso6", "avc1", "mp41", "3gp4", "M4V ", "zzzz"]
_brand = st.one_of(
    st.sampled_from(_MAJORS),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=4).map(lambda b: b.ljust(4)),
)


@st.composite
def _video_attributes(draw):
    major = draw(st.sampled_from(_MAJORS))
    codec_id = _reference_brand_line(major, draw(st.lists(_brand, max_size=5)))
    try:
        derived = classify_format_profile(major)
    except UnknownBrand:
        derived = FormatProfile.QUICKTIME
    profile = draw(st.sampled_from([derived, derived, *FormatProfile]))
    vfp = draw(st.one_of(st.just(""), st.builds(
        lambda name, tenths, suffix: AvcSignal(name, tenths / 10.0, suffix).render(),
        st.sampled_from(sorted(AVC_PROFILES.values())),
        st.integers(min_value=0, max_value=255),
        st.sampled_from([None, "@Main"]),
    )))
    encoder = draw(st.none() | st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=40)
                   .filter(lambda text: not text.endswith("\x00")))
    return VideoAttributes(
        extension=draw(st.sampled_from(EXTENSIONS)),
        format_profile=profile,
        codec_id=codec_id,
        video_format_profile=vfp,
        width=draw(st.integers(min_value=1, max_value=0xFFFF)),
        length=draw(st.integers(min_value=1, max_value=0xFFFF)),
        encoder=encoder,
        markers=frozenset(draw(st.sets(st.sampled_from(Marker)))),
        byte_size=draw(st.integers(min_value=0, max_value=1 << 18)),
    )


_HINT_FOR = {EXT_MP4: "clip.mp4", EXT_MOV: "clip.MOV", EXT_OTHER: "clip.dat"}


@settings(max_examples=300, deadline=None)
@given(_video_attributes())
def test_synthesized_containers_extract_to_their_vector(attrs):
    try:
        data = synthesize_container(attrs)
    except InconsistentAttrs:
        assume(False)
    # A free box pads the file to byte_size when there is room for one.
    natural = len(synthesize_container(replace(attrs, byte_size=0)))
    assert len(data) == (attrs.byte_size if attrs.byte_size >= natural + 8 else natural)
    extracted = extract_video_attributes(data, name_hint=_HINT_FOR[attrs.extension])
    assert extracted == replace(attrs, byte_size=len(data))
    assert extract_video_attributes(bytearray(data), name_hint=_HINT_FOR[attrs.extension]) == extracted


# The extraction under test as the rules it follows, over the reference walk
# above: each step searches the node tree box by box, and the ftyp, stsd and
# encoder readers are hand-written loops that share no box-run reader or
# brand-line renderer with the package.  The hdlr and tkhd readers are the
# package's own; test_leaf_readers_read_only_their_own_payload and the
# extraction tests above cover them.
def _reference_find(boxes, box_type):
    return next((b for b in boxes if b.box_type == box_type), None)


def _reference_path(boxes, *path):
    node = None
    for box_type in path:
        node = _reference_find(boxes, box_type)
        if node is None:
            return None
        boxes = node.children
    return node


def _reference_brand_line(major, brands):
    """The codec id as media analyzers print it: the major brand alone when
    there are no compatible brands or only itself, else "major (b1/b2/...)"
    in file order, each brand without its padding."""
    major, brands = major.strip(), [brand.strip() for brand in brands]
    if brands in ([], [major]):
        return major
    return f"{major} ({'/'.join(brands)})"


def _reference_ftyp(data, node):
    if node.payload_length > 4096:
        raise MalformedBox(f"ftyp payload of {node.payload_length} bytes exceeds 4096")
    payload = data[node.payload_offset:node.payload_end]
    if len(payload) < 8:
        raise MalformedBox("ftyp payload shorter than 8 bytes")
    major = bytes(payload[0:4]).decode("latin-1")
    text = bytes(payload[8:8 + (len(payload) - 8) // 4 * 4]).decode("latin-1")
    brands = [text[i:i + 4] for i in range(0, len(text), 4)]
    return classify_format_profile(major), _reference_brand_line(major, brands)


def _reference_stsd(data, offset, stsd_end):
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
        child_size, child_type = struct.unpack(">I4s", data[pos:pos + 8])
        if child_size < 8 or pos + child_size > end:
            break
        if child_type == b"avcC":
            if child_size >= 12:
                profile = parse_avc_config(bytes(data[pos + 8:pos + 12])).render()
            break
        pos += child_size
    if width < 1 or height < 1:
        return None
    return width, height, profile


def _reference_ilst_encoder(data, offset, end):
    pos = offset
    while pos + 8 <= end:
        size, item_type = struct.unpack(">I4s", data[pos:pos + 8])
        if size < 8 or pos + size > end:
            return None
        if item_type == b"\xa9too":
            inner, inner_end = pos + 8, pos + size
            while inner + 8 <= inner_end:
                d_size, d_type = struct.unpack(">I4s", data[inner:inner + 8])
                if d_size < 8 or inner + d_size > inner_end:
                    return None
                if d_type == b"data" and d_size >= 16:
                    if d_size - 16 > 4096:
                        raise MalformedBox(f"encoder text of {d_size - 16} bytes exceeds 4096")
                    text = data[inner + 16:inner + d_size].decode("utf-8", errors="replace")
                    return text.rstrip("\x00") or None
                inner += d_size
            return None
        pos += size
    return None


_REFERENCE_LEAF_READERS = {b"stsd": _reference_stsd, b"ilst": _reference_ilst_encoder}


# The buffer forms a leaf reader is given: the walk reads bytes-like forms
# in place and slices any other view.
_BUFFER_FORMS = (bytes, bytearray, memoryview, _RecordingBuffer)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_REFERENCE_LEAF_READERS)).flatmap(
    lambda box_type: st.tuples(st.just(box_type), _LEAF_READERS[box_type][1])), _hostile_bytes)
def test_leaf_readers_match_the_reference_readers_on_every_buffer_form(leaf, sibling):
    # Over the leaf payloads, alone and followed by hostile bytes, and over a
    # payload that runs to the end of those bytes, each as bytes, a
    # bytearray, a memoryview and a view that only slices: the same result
    # or error as the reference over the bytes.
    box_type, payload = leaf
    data = box(box_type, payload) + sibling
    for end in (len(data) - len(sibling), len(data)):
        expected = _outcome(lambda d: _REFERENCE_LEAF_READERS[box_type](d, 8, end), data)
        for form in _BUFFER_FORMS:
            assert _outcome(lambda d: _LEAF_READERS[box_type][0](d, 8, end), form(data)) == expected, form


def _visual_entry(declared, width=640, height=360):
    # A visual sample entry's size, format, 24 bytes, then width and height.
    return struct.pack(">I", declared) + b"avc1" + bytes(24) + struct.pack(">HH", width, height)


@pytest.mark.parametrize("form", _BUFFER_FORMS)
@pytest.mark.parametrize("stsd_end,expected", [(8 + 36, (640, 360, "")), (8 + 35, None)])
def test_sample_entry_fields_at_the_stsd_end(form, stsd_end, expected):
    # The entry's 36 fixed bytes end exactly at the stsd end, then one byte
    # past it; the bytes after the stsd end are there but not the stsd's.
    data = struct.pack(">II", 0, 1) + _visual_entry(36) + bytes(8)
    assert _stsd_video_entry(form(data), 0, stsd_end) == expected


@pytest.mark.parametrize("form", _BUFFER_FORMS)
def test_a_short_data_box_before_the_encoder_is_passed_over(form):
    # A data box with 7 payload bytes is too short for type and locale.
    item = box(b"\xa9too", box(b"data", bytes(7)) + box(b"data", bytes(8) + b"Lavf58.20.100"))
    data = box(b"ilst", item)
    assert _ilst_encoder(form(data), 8, len(data)) == "Lavf58.20.100"


def _reference_is_video(data, trak):
    hdlr = _reference_path(trak.children, "mdia", "hdlr")
    if hdlr is not None:
        return _parse_hdlr_type(data, hdlr.payload_offset, hdlr.payload_end) == b"vide"
    return _reference_path(trak.children, "mdia", "minf", "vmhd") is not None


_REFERENCE_MARKERS = {"\xa9nam": Marker.MOVIE_NAME, "\xa9cpy": Marker.COPYRIGHT, "\xa9day": Marker.RECORDED_DATE}


def _reference_extract(data, name_hint=None):
    tree = _reference_parse_box_tree(data)
    ftyp = _reference_find(tree, "ftyp")
    if ftyp is None:
        profile, codec_id = FormatProfile.QUICKTIME, "qt"
    else:
        profile, codec_id = _reference_ftyp(data, ftyp)
    moov = _reference_find(tree, "moov")
    if moov is None:
        raise NoVideoTrack("no moov box")
    video = next((t for t in moov.children if t.box_type == "trak" and _reference_is_video(data, t)), None)
    if video is None:
        raise NoVideoTrack("no video track in moov")
    stsd = _reference_path(video.children, "mdia", "minf", "stbl", "stsd")
    entry = _reference_stsd(data, stsd.payload_offset, stsd.payload_end) if stsd is not None else None
    if entry is None:
        tkhd = _reference_find(video.children, "tkhd")
        fallback = _tkhd_dimensions(data, tkhd.payload_offset, tkhd.payload_end) if tkhd is not None else None
        if fallback is None:
            raise NoVideoTrack("video track carries no usable dimensions")
        (width, height), video_format_profile = fallback, ""
    else:
        width, height, video_format_profile = entry
    udta = _reference_find(moov.children, "udta")
    markers = frozenset(_REFERENCE_MARKERS.get(c.box_type, Marker.MOVIE_MORE) for c in udta.children
                        if c.box_type not in ("meta", "free", "skip")) if udta is not None else frozenset()
    encoder = None
    for parent in (udta, moov):
        ilst = _reference_path(parent.children, "meta", "ilst") if parent is not None else None
        if ilst is not None:
            encoder = _reference_ilst_encoder(data, ilst.payload_offset, ilst.payload_end)
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


def _extracted(extract, data):
    try:
        return extract(data, name_hint="g.mp4")
    except ParseError as exc:
        return type(exc), str(exc)


# Movies of several traks, each a video, sound, text or vmhd-only track, some
# with no handler at all and some holding a second mdia with another handler;
# udta and moov/meta may carry ilst encoder items.
_HANDLERS = [b"vide", b"vide", b"soun", b"text", b"vmhd", b"none"]


def _media(handler, entry_body, avcc):
    entry = b"avc1" + entry_body + box(b"avcC", avcc)
    stsd = struct.pack(">III", 0, 1, 4 + len(entry)) + entry
    minf = [(b"stbl", "32", [(b"stsd", "32", stsd)])]
    if handler == b"vmhd":
        minf.insert(0, (b"vmhd", "32", bytes(12)))
    children = [(b"minf", "32", minf)]
    if handler in (b"vide", b"soun", b"text"):
        children.insert(0, (b"hdlr", "32", bytes(8) + handler + bytes(12)))
    return b"mdia", "32", children


def _track(handlers, tkhd_dims, entry_body, avcc):
    tkhd = (b"tkhd", "32", bytes(76) + struct.pack(">II", tkhd_dims[0] << 16, tkhd_dims[1] << 16))
    return b"trak", "32", [tkhd, *(_media(h, entry_body, avcc) for h in handlers)]


_tracks = st.builds(
    _track,
    st.lists(st.sampled_from(_HANDLERS), max_size=2),
    st.tuples(st.integers(min_value=0, max_value=4000), st.integers(min_value=0, max_value=4000)),
    st.binary(max_size=40) | st.binary(min_size=78, max_size=80),  # short, or reaching avcC
    st.binary(max_size=6),
)
_encoder_boxes = st.text(alphabet="Lavf0123456789.", min_size=1, max_size=8).map(
    lambda text: box(b"data", bytes(8) + text.encode()))
_ilsts = st.lists(_encoder_boxes | _data_boxes | _hostile_boxes, min_size=1, max_size=2).map(
    lambda inner: (b"ilst", "32", box(b"\xa9too", b"".join(inner))))
_qt_metas = _ilsts.map(lambda ilst: (b"meta", "32", [(b"hdlr", "32", bytes(20)), ilst]))
_udtas = st.tuples(st.just(b"udta"), st.just("32"), st.lists(_leaves | _qt_metas, max_size=3))
_iso_metas = _ilsts.map(lambda ilst: (b"meta-iso", "32", [ilst]))
_multi_track_movies = st.builds(
    lambda traks, udta, meta, tail: [(b"moov", "32", traks + udta + meta)] + tail,
    st.lists(_tracks, min_size=1, max_size=3),
    st.lists(_udtas, max_size=2),
    st.lists(_iso_metas, max_size=2),
    st.lists(_leaves, max_size=1),
)


def _synthesized(attrs):
    try:
        return synthesize_container(attrs)
    except InconsistentAttrs:
        return synthesize_container(replace(attrs, format_profile=FormatProfile.QUICKTIME, codec_id="qt"))


# Well-formed movies, with a video trak or without one.
_movie_buffers = st.builds(_hostile_buffer, st.just((b"isom", [b"isom"])), _movies | _multi_track_movies,
                           st.just([]), st.just(b""), st.just(0))


@settings(max_examples=400, deadline=None)
@given(_with_head(st.one_of(_hostile_buffers, _movie_buffers, _video_attributes().map(_synthesized))))
def test_extraction_matches_the_reference_extraction(headed):
    # The same attributes, or the same error class and message, as the
    # tree-based extraction, whatever form the buffer takes.
    data, head = headed
    expected = _extracted(_reference_extract, data)
    with _buffer_forms(data, head) as forms:
        for form in forms:
            assert _extracted(extract_video_attributes, form) == expected


def test_reference_extraction_covers_the_track_shapes():
    # A sound trak before the video trak, a trak found by its vmhd alone,
    # and a trak whose first of two mdia boxes decides its handler.
    def movie(*traks):
        tree = [(b"moov", "32", list(traks))]
        return ftyp_bytes(b"isom", [b"isom"]) + b"".join(_encode(node) for node in tree)

    entry = bytes(24) + struct.pack(">HH", 640, 360) + bytes(50)
    sound_then_video = movie(_track([b"soun"], (1, 1), entry, b"\x01\x4d\x40\x1f"),
                             _track([b"vide"], (1, 1), entry, b"\x01\x64\x00\x28"))
    vmhd_only = movie(_track([b"vmhd"], (1, 1), entry, b"\x01\x42\x00\x1e"))
    sound_first_mdia = movie(_track([b"soun", b"vide"], (1, 1), entry, b"\x01\x64\x00\x28"))
    video_first_mdia = movie(_track([b"vide", b"soun"], (1, 1), entry, b"\x01\x64\x00\x28"))
    assert extract_video_attributes(sound_then_video).video_format_profile == "High@L4"
    assert extract_video_attributes(vmhd_only).video_format_profile == "Baseline@L3"
    with pytest.raises(NoVideoTrack, match="no video track in moov"):
        extract_video_attributes(sound_first_mdia)
    attrs = extract_video_attributes(video_first_mdia)
    assert (attrs.width, attrs.length) == (640, 360)
    for data in (sound_then_video, vmhd_only, sound_first_mdia, video_first_mdia):
        assert _extracted(extract_video_attributes, data) == _extracted(_reference_extract, data)


# A buffer and how many of its bytes fall inside the head read when a free
# box puts it at the end of the head: from past a movie buffer's 20-byte
# ftyp to all but its last byte, so a movie's moov straddles the head's end.
_split_buffers = (_hostile_buffers | _movie_buffers).flatmap(lambda data: st.tuples(
    st.just(data), st.integers(min_value=min(21, max(1, len(data) - 1)), max_value=max(1, len(data) - 1))))


@settings(max_examples=300, deadline=None)
@given(_split_buffers)
def test_file_view_extraction_matches_the_reference_extraction(split):
    # The same attributes, or the same error class and message, as the
    # reference over the buffer and over a file view that reads past the head.
    data, inside = split
    assert _extracted(extract_video_attributes, data) == _extracted(_reference_extract, data)
    padding = HEAD_READ - inside
    padded = struct.pack(">I", padding) + b"free" + bytes(padding - 8) + data
    with tempfile.TemporaryFile() as file:
        file.write(padded)
        file.flush()
        view = _FileView(file.fileno(), os.pread(file.fileno(), HEAD_READ, 0), len(padded))
        assert _extracted(extract_video_attributes, view) == _extracted(_reference_extract, padded)
