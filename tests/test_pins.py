"""Pinned reports of ``mediafp scan`` over the seed-1 benchmark trees, the
calls a traced scan of each tree makes, the reads a scan of each tree
makes, ``mediafp kb`` output that must not depend on the hash seed, and
scans of files with huge declared sizes in a bounded address space.

The three trees are built once per session by ``perfbench/workloads.py``
(about 290 MB, removed at the end of the session), so these pins follow the
benchmark's tree generator as well as the program.  Every untraced scan
runs in a child process, which alone gets the hash seed and descriptor
limit under test; the traced scans run in process, under
``perfbench/tracer.py``.  A change that alters verdicts or report bytes on
purpose updates the pins below.
"""

import hashlib
import os
import re
import resource
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from mediafp.cli import main
from mediafp.oracle import expected_attributes, synthesize_container

from conftest import load_tracer

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("evidence-mixed", "photo-dump", "hostile-large")
# scan exits 1 when any file fails to parse, and every hostile-large file does.
EXIT_STATUS = {"evidence-mixed": 0, "photo-dump": 0, "hostile-large": 1}
# (workload, format, extra options, sha256 of the report of "scan ." run
# inside the tree, where every path is the bare joined name).  No other check
# renders verdicts without chain hypotheses, hence the two --no-chains pins.
PINS = [
    ("evidence-mixed", "json", (), "cfe5e41697796a6a75c47d4a13e1454b33ce848b8acb1fb6a60435daeebff99b"),
    ("photo-dump", "text", (), "6070638f7a5e4fb89470b8b6304b979fb3beb3e4e30d87eede4022246236b265"),
    ("hostile-large", "json", (), "5c27c20005e7fcdf87e83f00c77e998ef29a90038601e51cea20d0217459cb62"),
    ("evidence-mixed", "text", ("--no-chains",), "450dcb6ba68200b25b710d7ae1c8a47416d17f359b2ea8b36400f82ec0976bc8"),
    ("evidence-mixed", "json", ("--no-chains",), "aebfb6cdf71188023c5e5cb80d9cc9ca15ac2b54a4b6ff6d9d3954d61a11895b"),
    # Each workload in the format perfbench/run.py renders it, so these equal
    # its seed-1 outputs.report_sha256.
    ("evidence-mixed", "text", (), "48e757e7649d6609b70ef4d77cbf6caf2a98c2175d23fbf8701b1873cfb5b156"),
    ("photo-dump", "json", (), "6720c64facda953419a0d6b0ca9a0aab98d378a84af7d16b145357e7860b856d"),
    ("hostile-large", "text", (), "5dcd1d4ad4f9c802d27beb7198c7c40f68741aef27295c25bc83273d82bdc16a"),
]
# Descriptors a scan may hold open in the seed-1 run.  Files are read through
# raw descriptors, which no ResourceWarning reports; one left open per file
# soon turns every further row into "Too many open files".
MAX_OPEN_FILES = 24


@pytest.fixture(scope="session")
def trees():
    with tempfile.TemporaryDirectory(prefix="mediafp-pins-") as out:
        for workload in WORKLOADS:
            subprocess.run([sys.executable, str(ROOT / "perfbench" / "workloads.py"), "--workload", workload,
                            "--seed", "1", "--out", str(Path(out) / workload)], check=True)
        yield Path(out)


def _limit_open_files():
    resource.setrlimit(resource.RLIMIT_NOFILE, (MAX_OPEN_FILES, MAX_OPEN_FILES))


def _mediafp(args, hash_seed, cwd=None, preexec_fn=None):
    src = str(ROOT / "src")
    path = os.pathsep.join([src, os.environ["PYTHONPATH"]]) if os.environ.get("PYTHONPATH") else src
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run([sys.executable, "-c", "from mediafp.cli import main; main()", *args],
                          cwd=cwd, env=env, capture_output=True,
                          preexec_fn=preexec_fn)


@pytest.mark.parametrize("command", ["validate", "list"])
def test_kb_output_does_not_depend_on_the_hash_seed(command):
    # validate groups records by a hashed key, and list prints fields the
    # records derive.
    first, second = (_mediafp(["kb", command], hash_seed=seed) for seed in (0, 1))
    for result in (first, second):
        assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert first.stdout and first.stdout == second.stdout


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_do_not_depend_on_the_hash_seed(trees, workload, fmt):
    # Two renderings in one process share one hash seed, so set or dict order
    # that follows PYTHONHASHSEED shows only across processes.
    args = ["scan", str(trees / workload / "tree"), "--format", fmt]
    first = _mediafp(args, hash_seed=0)
    second = _mediafp(args, hash_seed=1, preexec_fn=_limit_open_files)
    for result in (first, second):
        assert result.returncode == EXIT_STATUS[workload], result.stderr.decode(errors="replace")
    assert first.stdout == second.stdout


@pytest.mark.parametrize("workload,fmt,options,sha256", PINS)
def test_scan_inside_the_tree_gives_the_pinned_report(trees, workload, fmt, options, sha256):
    result = _mediafp(["scan", ".", *options, "--format", fmt], hash_seed=0, cwd=trees / workload / "tree")
    assert result.returncode == EXIT_STATUS[workload], result.stderr.decode(errors="replace")
    assert hashlib.sha256(result.stdout).hexdigest() == sha256


# Calls of each span and counter of perfbench/tracer.py in one traced scan,
# which matches each distinct video vector and image class once.
TRACED_CALLS = {
    "evidence-mixed": {
        "engine.infer_chain": 243, "engine.match_video": 243, "container.extract_video_attributes": 940,
        "engine.match_image": 23, "engine.disambiguate_by_size": 11,
        "engine.satisfies_video.calls": 577, "engine.satisfies_video.hits": 134,
    },
    "photo-dump": {
        "engine.match_image": 44, "engine.disambiguate_by_size": 22, "jpeg.extract_image_attributes": 1100,
    },
    "hostile-large": {
        "container.extract_video_attributes": 690, "jpeg.extract_image_attributes": 410,
    },
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_scan_inside_the_tree_makes_the_pinned_calls(trees, workload, monkeypatch):
    # The tracer rebinds names and reports 0 calls for one it cannot reach,
    # so a locally bound or renamed target would zero its layer unseen.
    tracer = load_tracer()
    monkeypatch.chdir(trees / workload / "tree")
    with tracer.Tracer() as trace:
        result = CliRunner().invoke(main, ["scan", "."])
    assert result.exit_code == EXIT_STATUS[workload], result.output
    calls = {name: row["calls"] for name, row in tracer.aggregate(trace.spans).items()}
    calls.update(trace.counts)
    expected = {"report.render_report": 1, "kb.load_kb_path": 1, **TRACED_CALLS[workload]}
    assert {name: calls.get(name, 0) for name in expected} == expected


# os.pread calls, and the bytes they ask for, in one scan of each tree: each
# file's head, then the pages and windows its walk lands on.
READS = {
    "evidence-mixed": (1231, 63_102_976),
    "photo-dump": (2163, 11_132_928),
    "hostile-large": (1210, 78_978_169),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_scan_inside_the_tree_makes_the_pinned_reads(trees, workload, monkeypatch):
    reads = []
    real = os.pread

    def counted(fd, count, offset):
        reads.append(count)
        return real(fd, count, offset)

    monkeypatch.setattr(os, "pread", counted)
    monkeypatch.chdir(trees / workload / "tree")
    result = CliRunner().invoke(main, ["scan", "."])
    assert result.exit_code == EXIT_STATUS[workload], result.output
    assert (len(reads), sum(reads)) == READS[workload]


@pytest.fixture(scope="module")
def large_files(tmp_path_factory, kb):
    """Four files whose declared sizes are holes that cost no disk.

    big.mov: a 4 GiB mdat, seeked over, then the moov.  ftyp.mov: an ftyp
    declaring a 1 GiB brand list.  scan.jpg and frame.jpg: a start-of-scan
    or a frame header, then a 4 GiB hole.
    """
    work = tmp_path_factory.mktemp("large")
    movie = synthesize_container(expected_attributes(kb.record("t7-discord-default")))
    ftyp_end = struct.unpack_from(">I", movie)[0]
    mdat = 4 << 30
    with open(work / "big.mov", "wb") as out:
        out.write(movie[:ftyp_end] + struct.pack(">I", 1) + b"mdat" + struct.pack(">Q", 16 + mdat))
        out.seek(mdat, 1)
        out.write(movie[ftyp_end:])
    brands = 1 << 30
    with open(work / "ftyp.mov", "wb") as out:
        out.write(struct.pack(">I", 8 + brands) + b"ftyp")
        out.seek(brands, 1)
        out.write(movie[ftyp_end:])
    sos = b"\xff\xda" + struct.pack(">HB", 8, 1) + bytes([1, 0x00, 0, 63, 0])
    sof = b"\xff\xc0" + struct.pack(">HBHHB", 11, 8, 1080, 1920, 1) + bytes([1, 0x11, 0])
    for name, segment in (("scan.jpg", sos), ("frame.jpg", sof)):
        with open(work / name, "wb") as out:
            out.write(b"\xff\xd8" + segment)
            out.seek(4 << 30, 1)
            out.truncate()
    return work


def _limit_address_space(mib):
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))
    return limit


# (file, address-space limit in MiB, exit status, a pattern of its report row).
# The mdat and the hole are never read; the 1 GiB brand list is refused
# before it is read, with no MemoryError traceback; the JPEG walk stops at
# its 16 MiB window, where a walk bounded by the file would run out of memory.
@pytest.mark.parametrize("name,limit_mib,status,row", [
    ("big.mov", 1024, 0, r"big\.mov  video  Identified"),
    ("ftyp.mov", 512, 1, r"ftyp\.mov  video  error  +MalformedBox: ftyp payload of 1073741824 bytes exceeds 4096"),
    ("scan.jpg", 1024, 1, r"scan\.jpg  image  error  +NoFrameHeader: no start-of-frame segment before end of stream"),
    ("frame.jpg", 1024, 0, r"frame\.jpg  image  Identified  +WeChat \(Android169, General\)"),
])
def test_large_declared_sizes_scan_in_bounded_address_space(large_files, name, limit_mib, status, row):
    result = _mediafp(["scan", str(large_files / name)], hash_seed=0, preexec_fn=_limit_address_space(limit_mib))
    assert (result.returncode, result.stderr) == (status, b"")
    assert re.search(row, result.stdout.decode()), result.stdout.decode()
