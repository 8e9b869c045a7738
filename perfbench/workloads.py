"""Seeded evidence trees for the scan benchmark.

Run as a script, this writes one workload's tree and a manifest that records,
for every file, what its scan must yield:

    python3 perfbench/workloads.py --workload evidence-mixed --seed 1 --out DIR

The tree lands in ``DIR/tree`` and the manifest in ``DIR/manifest.json``.
Generation runs in its own process so that the measuring process's peak
memory holds only what scanning needs.

Ground truth comes from the frozen labeled corpus (``data/corpus.tsv``) and
the knowledge base's camera-original profiles; ``mediafp.oracle`` only turns
attribute vectors into container bytes.  Hostile files are malformed by
construction, so each one fails to parse no matter what the program does.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("evidence-mixed", "photo-dump", "hostile-large")
FORMATS = {"evidence-mixed": "text", "photo-dump": "json", "hostile-large": "text"}

# Files per tree: enough that the 99th percentile over files has ten files
# beyond it.
TREE_FILES = 1100
SUBDIRS = 12

MIB = 1024 * 1024
# report.MMAP_THRESHOLD in the shipped package; the large original sits above it.
LARGE_MP4_MDAT = 16 * MIB + 256 * 1024


def import_mediafp(root: Path):
    """Import the package from ``root/src``, refusing any other copy."""
    src = root / "src"
    if not (src / "mediafp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mediafp package under {src}")
    sys.path.insert(0, str(src))
    import mediafp

    if Path(mediafp.__file__).resolve().parent != (src / "mediafp").resolve():
        raise SystemExit(f"perfbench: imported mediafp from {mediafp.__file__}, not {src}")
    return mediafp


# ---------------------------------------------------------------------------
# byte builders (independent of the parsers under test)

def box(box_type: bytes, payload: bytes) -> bytes:
    return struct.pack(">I", 8 + len(payload)) + box_type + payload


def top_level_boxes(data: bytes) -> list[tuple[bytes, int, int]]:
    """(type, start, end) of each root box of well-formed synthesized bytes."""
    out, pos = [], 0
    while pos + 8 <= len(data):
        size = struct.unpack_from(">I", data, pos)[0]
        out.append((data[pos + 4:pos + 8], pos, pos + size))
        pos += size
    return out


def child_boxes(data: bytes, start: int, end: int) -> list[tuple[bytes, int, int]]:
    return [(t, start + s, start + e) for t, s, e in top_level_boxes(data[start:end])]


_SOI, _EOI = b"\xff\xd8", b"\xff\xd9"
_DQT = b"\xff\xdb" + struct.pack(">H", 67) + b"\x00" + bytes(range(1, 65))
_DHT = b"\xff\xc4" + struct.pack(">H", 31) + b"\x00" + bytes([0, 1, 5, 1, 1, 1, 1, 1, 1] + [0] * 7) + bytes(range(12))
_SOS = b"\xff\xda" + struct.pack(">HB", 12, 3) + bytes([1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0])
_APP0 = b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"


def _sof(width: int, height: int) -> bytes:
    return (b"\xff\xc0" + struct.pack(">HBHHB", 17, 8, height, width, 3)
            + bytes([1, 0x22, 0, 2, 0x11, 1, 3, 0x11, 1]))


def _app1_exif(payload: bytes) -> bytes:
    body = b"Exif\x00\x00MM\x00\x2a\x00\x00\x00\x08" + payload
    return b"\xff\xe1" + struct.pack(">H", len(body) + 2) + body


class Filler:
    """One seeded block of entropy-coded-looking bytes, sliced per file.

    Random bytes with every 0xFF stuffed as 0xFF00, the way a JPEG encoder
    escapes them, so a marker scan sees no marker inside.
    """

    def __init__(self, rng: random.Random, size: int):
        self.rng = rng
        self.block = rng.randbytes(size).replace(b"\xff", b"\xff\x00")[:size]

    def take(self, n: int) -> bytes:
        if n > len(self.block):
            raise ValueError(f"filler block holds {len(self.block)} bytes, {n} wanted")
        start = self.rng.randrange(len(self.block) - n + 1)
        chunk = self.block[start:start + n]
        # A cut stuffing pair would leave a lone 0xFF before the next marker.
        return chunk[:-1] + b"\x00" if chunk.endswith(b"\xff") else chunk


def valid_jpeg(width: int, height: int, total: int, exif_len: int, filler: Filler) -> bytes:
    """Baseline JPEG of exactly ``total`` bytes with an EXIF-sized APP1 first."""
    head = _SOI + _app1_exif(filler.take(exif_len)) + _DQT + _sof(width, height) + _DHT + _SOS
    scan = total - len(head) - len(_EOI)
    if scan < 0:
        raise ValueError(f"{total} bytes cannot hold a {len(head)}-byte header")
    return head + filler.take(scan) + _EOI


def sos_before_sof_jpeg(total: int, filler: Filler) -> bytes:
    """Scan data with no frame header before it: the parser must walk it all."""
    head = _SOI + _APP0 + _DQT + _DHT + _SOS
    return head + filler.take(total - len(head) - len(_EOI)) + _EOI


def deal(rng: random.Random, items, n: int) -> list:
    """``n`` items taken round after round, each round in a fresh shuffled order.

    Every item comes up equally often (give or take one), so the mix of a
    tree is the same for every seed and only the order and bytes vary.
    """
    order, out = list(items), []
    while len(out) < n:
        rng.shuffle(order)
        out.extend(order)
    return out[:n]


def spread_sizes(rng: random.Random, n: int, low: int, high: int) -> list[int]:
    """``n`` sizes, one drawn in each of ``n`` equal slices of [low, high).

    Tail percentiles then sit on the same sizes for every seed, while the
    bytes and the order still vary.
    """
    step = (high - low) / n
    sizes = [int(low + step * i + rng.random() * step) for i in range(n)]
    rng.shuffle(sizes)
    return sizes


# ---------------------------------------------------------------------------
# ground truth

def label_of(entry) -> dict:
    label = entry.label
    if hasattr(label, "nth_app"):
        return {"chain": [label.nth_app, label.nplus1_app, label.os.value]}
    return {"single": [label.app, label.os.value, label.quality]}


SUFFIX = {"mp4": ".mp4", "MOV": ".mov", "other": ".3gp"}


class Tree:
    """Collects files and expectations; writes them in one sweep."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.files: list[tuple[str, bytes | tuple[bytes, int, bytes], dict]] = []

    def add(self, stem: str, suffix: str, data, expect: str, label: dict | None = None) -> None:
        subdir = f"case{self.rng.randrange(SUBDIRS):02d}"
        rel = f"{subdir}/{stem}-{len(self.files):05d}{suffix}"
        self.files.append((rel, data, {"path": rel, "expect": expect, "label": label}))

    def write(self, out: Path) -> tuple[str, list[dict]]:
        """Write every file; return the tree's sha256 and the expectations."""
        tree = out / "tree"
        listing = hashlib.sha256()
        expectations = []
        for rel, data, expect in sorted(self.files, key=lambda f: f[0]):
            path = tree / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            digest = hashlib.sha256()
            with path.open("wb") as handle:
                for part in _chunks(data):
                    digest.update(part)
                    handle.write(part)
            listing.update(f"{rel}\0{digest.hexdigest()}\n".encode())
            expectations.append(expect)
        return listing.hexdigest(), expectations


def _chunks(data):
    # (head, zero_bytes, tail) spells a file too large to build in memory.
    if isinstance(data, bytes):
        yield data
        return
    head, zeros, tail = data
    yield head
    block = bytes(MIB)
    while zeros:
        n = min(zeros, MIB)
        yield block[:n]
        zeros -= n
    yield tail


# ---------------------------------------------------------------------------
# video near-misses

_LEVELS = (2.1, 3.0, 3.1, 3.2, 4.0, 4.1, 4.2, 5.0)
_PROFILES = ("Baseline", "Main", "High")
_BRAND_EXTRAS = ("avc1", "iso2", "mp41", "M4V ")
NEAR_MISS_OPS = ("resolution", "level", "profile", "encoder", "markers", "brands", "extension")


def perturb(attrs, op: str, rng: random.Random, mf):
    """One field of ``attrs`` changed, or None when ``op`` does not apply."""
    AvcSignal = mf.attributes.AvcSignal
    if op == "resolution":
        return dataclasses.replace(attrs, width=attrs.width + rng.choice((-16, -4, -2, 2, 4, 16)))
    if op in ("level", "profile"):
        if not attrs.video_format_profile:
            return None
        sig = mf.attributes.parse_video_format_profile(attrs.video_format_profile)
        if op == "level":
            sig = AvcSignal(sig.profile_name, rng.choice([l for l in _LEVELS if abs(l - sig.level) > 0.01]),
                            sig.constraint_suffix)
        else:
            sig = AvcSignal(rng.choice([p for p in _PROFILES if p != sig.profile_name]), sig.level,
                            sig.constraint_suffix)
        return dataclasses.replace(attrs, video_format_profile=sig.render())
    if op == "encoder":
        wanted = "Lavf58.29.100" if attrs.encoder is None else f"Lavf{rng.randrange(52, 56)}.{rng.randrange(10, 99)}.100"
        return dataclasses.replace(attrs, encoder=wanted)
    if op == "markers":
        missing = [m for m in mf.attributes.Marker if m not in attrs.markers]
        return dataclasses.replace(attrs, markers=attrs.markers | {rng.choice(missing)}) if missing else None
    if op == "brands":
        major, brands = mf.container.codec_id_brands(attrs.codec_id)
        extra = rng.choice([b for b in _BRAND_EXTRAS if b not in brands])
        rendered = mf.container.render_codec_id(mf.container.FtypInfo(major, 0, brands + (extra,)))
        return dataclasses.replace(attrs, codec_id=rendered)
    if op == "extension":
        return dataclasses.replace(attrs, extension="other") if attrs.extension != "other" else None
    raise ValueError(op)


# ---------------------------------------------------------------------------
# workloads

@dataclasses.dataclass
class Sources:
    """What the trees are drawn from: the frozen corpus and the KB's originals."""

    videos: list  # synthesizable labeled video entries
    unsynthesizable: list[str]
    images: list  # labeled image entries
    video_originals: list
    image_originals: list
    bands: dict[str, tuple[int, int] | None]  # record id -> image size band


def load_sources(mf) -> Sources:
    data = ROOT / "src" / "mediafp" / "data"
    entries = mf.oracle.parse_corpus((data / "corpus.tsv").read_text(encoding="utf-8"))
    kb = mf.kb.load_kb_path(data)
    videos, skipped = [], []
    for entry in entries:
        if entry.media_kind.value != "video":
            continue
        try:
            mf.oracle.synthesize_container(entry.attributes)
        except mf.oracle.InconsistentAttrs:
            skipped.append(entry.record_id)
        else:
            videos.append(entry)
    return Sources(
        videos=videos,
        unsynthesizable=skipped,
        images=[e for e in entries if e.media_kind.value == "image"],
        video_originals=[o.attributes for o in kb.originals if o.media_kind.value == "video"],
        image_originals=[o.attributes for o in kb.originals if o.media_kind.value == "image"],
        bands={r.record_id: getattr(r.constraints, "size_band", None) for r in kb.records},
    )


def _image_size(entry, rng: random.Random, band: tuple[int, int] | None, edge: str) -> int:
    """A byte size inside (edge="in") or just outside (edge="out") the record's band."""
    if band is None:
        return entry.attributes.byte_size
    center, tol = band
    step = rng.randrange(0, min(2000, tol))
    offset = tol - step if edge == "in" else tol + 1 + step
    return center + offset if rng.random() < 0.5 else center - offset


def evidence_mixed(mf, src: Sources, rng: random.Random, tree: Tree) -> list[str]:
    synth, originals = src.videos, src.video_originals
    filler = Filler(rng, MIB)

    def video_file(attrs, stem, expect, label=None):
        sized = dataclasses.replace(attrs, byte_size=rng.randrange(4096, 16385))
        tree.add(stem, SUFFIX[attrs.extension], mf.oracle.synthesize_container(sized), expect, label)

    n_labeled, n_near, n_orig = 640, 240, 60
    n_jpeg = TREE_FILES - n_labeled - n_near - n_orig
    for entry in deal(rng, synth, n_labeled):
        video_file(entry.attributes, "clip", "label", label_of(entry))
    made = 0
    tries = zip(deal(rng, synth, 4 * n_near), deal(rng, NEAR_MISS_OPS, 4 * n_near))
    while made < n_near:
        entry, op = next(tries)
        changed = perturb(entry.attributes, op, rng, mf)
        if changed is None or changed == entry.attributes:
            continue
        try:
            video_file(changed, "near", "nearmiss")
        except mf.oracle.InconsistentAttrs:
            continue
        made += 1
    for attrs in deal(rng, originals, n_orig):
        video_file(attrs, "camera", "original")
    for entry in deal(rng, src.images, n_jpeg):
        a = entry.attributes
        tree.add("photo", ".jpg", valid_jpeg(a.width, a.length, a.byte_size, rng.randrange(2048, 16384), filler),
                 "label", label_of(entry))
    return src.unsynthesizable


def photo_dump(mf, src: Sources, rng: random.Random, tree: Tree) -> list[str]:
    images, bands = src.images, src.bands
    filler = Filler(rng, 3 * MIB)

    def jpeg_file(width, height, size, stem, expect, label=None):
        exif = rng.randrange(4096, min(49152, size // 2))
        tree.add(stem, ".jpg", valid_jpeg(width, height, size, exif, filler), expect, label)

    n_orig = 16
    # Each banded record twice on each side of its band edge, then seeded draws.
    for entry in images:
        band = bands.get(entry.record_id)
        if band is not None:
            for edge in ("in", "in", "out", "out"):
                size = _image_size(entry, rng, band, edge)
                jpeg_file(entry.attributes.width, entry.attributes.length, size, "img",
                          "label" if edge == "in" else "nearmiss", label_of(entry) if edge == "in" else None)
    n_draws = TREE_FILES - n_orig - len(tree.files)
    for entry, edge in zip(deal(rng, images, n_draws), deal(rng, ("in", "in", "in", "out", "out"), n_draws)):
        band = bands.get(entry.record_id)
        edge = "in" if band is None else edge
        size = _image_size(entry, rng, band, edge)
        jpeg_file(entry.attributes.width, entry.attributes.length, size, "img",
                  "label" if edge == "in" else "nearmiss", label_of(entry) if edge == "in" else None)
    for size, o in zip(spread_sizes(rng, n_orig, MIB, 5 * MIB // 2), deal(rng, src.image_originals, n_orig)):
        jpeg_file(o.width, o.length, size, "dsc", "original")
    return []  # no video vector is drawn here


HOSTILE_CONTAINER_KINDS = ("truncated", "box-size", "ext-size", "oversize-child", "deep", "brand",
                           "no-moov", "no-trak", "junk", "tiny")
HOSTILE_JPEG_KINDS = ("soi-eoi", "not-marker", "bad-seglen", "cut-segments", "zero-dims")


def _hostile_container(kind: str, base: bytes, rng: random.Random) -> bytes:
    boxes = {t: (s, e) for t, s, e in top_level_boxes(base)}
    ftyp = base[slice(*boxes[b"ftyp"])]
    moov_start, moov_end = boxes[b"moov"]
    moov_children = child_boxes(base, moov_start + 8, moov_end)
    if kind == "truncated":
        return base[:rng.randrange(moov_start + 8, moov_end)]
    if kind == "box-size":
        _, start, _ = rng.choice(moov_children)
        return base[:start] + struct.pack(">I", rng.randrange(2, 8)) + base[start + 4:]
    if kind == "ext-size":
        _, start, _ = rng.choice(moov_children)
        return base[:start] + struct.pack(">I", 1) + base[start + 4:start + 8] \
            + struct.pack(">Q", rng.randrange(0, 16)) + base[start + 16:]
    if kind == "oversize-child":
        _, start, _ = rng.choice(moov_children)
        return base[:start] + struct.pack(">I", moov_end - start + rng.randrange(1, 4096)) + base[start + 4:]
    if kind == "deep":
        inner = b""
        for _ in range(rng.randrange(34, 48)):
            inner = box(b"udta", inner)
        return ftyp + box(b"moov", inner)
    if kind == "brand":
        major = b"x" + bytes(rng.choice(b"abcdefghijklmnopqrstuvwxyz") for _ in range(3))
        return base[:8] + major + base[12:]
    if kind == "no-moov":
        return ftyp + box(b"free", bytes(rng.randrange(0, 512))) + box(b"mdat", rng.randbytes(rng.randrange(64, 8192)))
    if kind == "no-trak":
        mvhd = next(base[s:e] for t, s, e in moov_children if t == b"mvhd")
        return ftyp + box(b"moov", mvhd) + base[moov_end:]
    if kind == "junk":
        return struct.pack(">I", 0xFFFFFFF0 - rng.randrange(1 << 16)) + rng.randbytes(rng.randrange(4, 4096))
    if kind == "tiny":
        return bytes([rng.randrange(0, 0xFF)]) + rng.randbytes(rng.randrange(0, 7))
    raise ValueError(kind)


def _hostile_jpeg(kind: str, rng: random.Random, filler: Filler) -> bytes:
    if kind == "soi-eoi":
        return _SOI + _EOI
    if kind == "not-marker":
        return _SOI + _APP0 + bytes([rng.randrange(0, 0xFF)]) + filler.take(rng.randrange(16, 2048))
    if kind == "bad-seglen":
        seg_len = rng.choice((0, 1, rng.randrange(4096, 65536)))
        return _SOI + _APP0 + b"\xff\xe1" + struct.pack(">H", seg_len) + filler.take(rng.randrange(16, 2048))
    if kind == "cut-segments":
        whole = _SOI + _app1_exif(filler.take(rng.randrange(64, 8192))) + _DQT
        return whole[:rng.randrange(len(whole) - 60, len(whole) - 1)]
    if kind == "zero-dims":
        return _SOI + _APP0 + _DQT + _sof(rng.choice((0, 640)), 0) + _DHT + _SOS + filler.take(1024) + _EOI
    raise ValueError(kind)


def hostile_large(mf, src: Sources, rng: random.Random, tree: Tree) -> list[str]:
    synth, originals = src.videos, src.video_originals
    filler = Filler(rng, 4 * MIB)

    # One camera original above the mmap threshold: ftyp, a large mdat, moov last.
    orig = next(a for a in originals if a.extension == "mp4")
    small = mf.oracle.synthesize_container(dataclasses.replace(orig, byte_size=0))
    parts = {t: small[s:e] for t, s, e in top_level_boxes(small)}
    mdat_size = LARGE_MP4_MDAT + rng.randrange(0, MIB)
    tree.add("camera", ".mp4", (parts[b"ftyp"] + struct.pack(">I", mdat_size) + b"mdat", mdat_size - 8, parts[b"moov"]),
             "original")
    for size in (2 * MIB, 2 * MIB + MIB // 4, 2 * MIB + MIB // 2):
        tree.add("scan-first", ".jpg", sos_before_sof_jpeg(size + rng.randrange(4096), filler), "hostile")
    for size in spread_sizes(rng, 110, 4096, 32768):
        tree.add("scan-first", ".jpg", sos_before_sof_jpeg(size, filler), "hostile")
    # Seven malformed containers to three malformed JPEGs, kinds in even shares.
    kinds = HOSTILE_CONTAINER_KINDS * 7 + HOSTILE_JPEG_KINDS * 6
    for kind in deal(rng, kinds, TREE_FILES - len(tree.files)):
        if kind in HOSTILE_CONTAINER_KINDS:
            attrs = dataclasses.replace(rng.choice(synth).attributes, byte_size=rng.randrange(1024, 16385))
            data = _hostile_container(kind, mf.oracle.synthesize_container(attrs), rng)
            tree.add(kind, rng.choice((".mp4", ".mov")), data, "hostile")
        else:
            tree.add(kind, ".jpg", _hostile_jpeg(kind, rng, filler), "hostile")
    return src.unsynthesizable


BUILDERS = {"evidence-mixed": evidence_mixed, "photo-dump": photo_dump, "hostile-large": hostile_large}


def build(workload: str, seed: int, out: Path) -> dict:
    mf = import_mediafp(ROOT)
    rng = random.Random(f"{workload}:{seed}")
    tree = Tree(rng)
    skipped = BUILDERS[workload](mf, load_sources(mf), rng, tree)
    digest, expectations = tree.write(out)
    manifest = {
        "workload": workload,
        "seed": seed,
        "format": FORMATS[workload],
        "tree_sha256": digest,
        "unsynthesizable": skipped,
        "files": expectations,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    build(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
