"""Pinned reports of ``mediafp scan`` over the seed-1 benchmark trees, and
``mediafp kb`` output that must not depend on the hash seed.

The three trees are built once per session by ``perfbench/workloads.py``
(about 290 MB, removed at the end of the session), so these pins follow the
benchmark's tree generator as well as the program.  Every scan runs in a
child process, which alone gets the hash seed and descriptor limit under
test.  A change that alters verdicts or report bytes on purpose updates the
pins below.
"""

import hashlib
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

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


def _mediafp(args, hash_seed, cwd=None, limit_open_files=False):
    src = str(ROOT / "src")
    path = os.pathsep.join([src, os.environ["PYTHONPATH"]]) if os.environ.get("PYTHONPATH") else src
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run([sys.executable, "-c", "from mediafp.cli import main; main()", *args],
                          cwd=cwd, env=env, capture_output=True,
                          preexec_fn=_limit_open_files if limit_open_files else None)


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
    second = _mediafp(args, hash_seed=1, limit_open_files=True)
    for result in (first, second):
        assert result.returncode == EXIT_STATUS[workload], result.stderr.decode(errors="replace")
    assert first.stdout == second.stdout


@pytest.mark.parametrize("workload,fmt,options,sha256", PINS)
def test_scan_inside_the_tree_gives_the_pinned_report(trees, workload, fmt, options, sha256):
    result = _mediafp(["scan", ".", *options, "--format", fmt], hash_seed=0, cwd=trees / workload / "tree")
    assert result.returncode == EXIT_STATUS[workload], result.stderr.decode(errors="replace")
    assert hashlib.sha256(result.stdout).hexdigest() == sha256
