import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import mediafp
from mediafp import report
from mediafp.cli import _files_under, main
from mediafp.kb import default_kb_path, load_kb_path
from mediafp.oracle import expected_attributes, synthesize_container

from conftest import make_jpeg, write_repeated_vectors, write_sparse_video


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def fixture_dir(tmp_path, kb):
    media = tmp_path / "media"
    media.mkdir()
    discord = synthesize_container(expected_attributes(kb.record("t7-discord-default")))
    (media / "discord.mov").write_bytes(discord)
    (media / "photo.jpg").write_bytes(make_jpeg(720, 960, total_size=100_000))
    return media


class TestScan:
    def test_identified_fixture(self, runner, fixture_dir):
        result = runner.invoke(main, ["scan", str(fixture_dir / "discord.mov")])
        assert result.exit_code == 0
        assert "Identified" in result.output
        assert "Discord" in result.output

    def test_directory_walk_and_image_match(self, runner, fixture_dir):
        result = runner.invoke(main, ["scan", str(fixture_dir), "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["schema_version"] == 1
        by_name = {r["path"].rsplit("/", 1)[-1]: r for r in doc["reports"]}
        assert by_name["discord.mov"]["outcome"] == "Identified"
        assert by_name["photo.jpg"]["kind"] == "image"
        assert {c["app"] for c in by_name["photo.jpg"]["candidates"]} == {"KakaoTalk"}
        assert all(c["used_size_band"] for c in by_name["photo.jpg"]["candidates"])

    @pytest.mark.parametrize("relative", [False, True])
    def test_directory_walk_keeps_file_links_only(self, runner, tmp_path, monkeypatch, relative):
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "x.jpg").write_bytes(make_jpeg(720, 960))
        tree = tmp_path / "tree"
        (tree / "sub" / "deeper").mkdir(parents=True)
        (tree / "empty").mkdir()
        for name in ("a.jpg", ".hidden.jpg", "sub/b.jpg", "sub/deeper/c.jpg"):
            (tree / name).write_bytes(make_jpeg(720, 960))
        (tree / "file-link.jpg").symlink_to(outside / "x.jpg")
        (tree / "sub" / "dir-link").symlink_to(outside, target_is_directory=True)
        (tree / "broken.jpg").symlink_to(tmp_path / "nope.jpg")
        (tree / "loop.jpg").symlink_to("loop.jpg")
        (tree / "sub" / "through-file.jpg").symlink_to(tree / "a.jpg" / "x.jpg")
        root = tree
        if relative:
            monkeypatch.chdir(tree)
            root = Path(".")
        reference = sorted((str(p) for p in root.rglob("*") if p.is_file()))
        prefix = "" if relative else f"{tree}/"
        assert reference == [prefix + name for name in (
            ".hidden.jpg", "a.jpg", "file-link.jpg", "sub/b.jpg", "sub/deeper/c.jpg",
        )]
        # A link whose target cannot even be looked up (here a name component
        # too long for the file system) is dropped like a broken one.  It is
        # made after the reference, because pathlib raises on it.
        (tree / "sub" / "long-link.jpg").symlink_to("x" * 300)
        result = runner.invoke(main, ["scan", str(root), "--format", "json"])
        assert result.exit_code == 0
        assert [r["path"] for r in json.loads(result.output)["reports"]] == reference

    @pytest.mark.parametrize("root", [".", "sub", "sub/", "absolute"])
    def test_walk_paths_are_pathlib_paths(self, tmp_path, monkeypatch, root):
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "x.jpg").write_bytes(b"x")
        monkeypatch.chdir(tmp_path)
        tree = Path("sub")
        (tree / "deeper").mkdir(parents=True)
        for name in ("a.jpg", "deeper/b.jpg"):
            (tree / name).write_bytes(b"x")
        (tree / "file-link.jpg").symlink_to(outside / "x.jpg")
        (tree / "dir-link").symlink_to(outside, target_is_directory=True)
        (tree / "broken.jpg").symlink_to(tmp_path / "nope.jpg")
        (tree / "deeper" / "loop.jpg").symlink_to("loop.jpg")
        if root == "absolute":
            root = str(tmp_path / "sub")
        expected = {str(p) for p in Path(root).rglob("*") if p.is_file()}
        assert len(expected) == (4 if root == "." else 3)
        assert set(_files_under(root)) == expected

    @pytest.mark.parametrize("root", ["/", "//"])
    def test_walk_joins_under_a_root_ending_in_a_slash(self, tmp_path, monkeypatch, root):
        # The root's listing is that of a one-file directory, so nothing
        # outside it is walked.
        (tmp_path / "a.jpg").write_bytes(b"x")
        real_scandir = os.scandir
        monkeypatch.setattr(os, "scandir", lambda path: real_scandir(tmp_path if path == root else path))
        assert _files_under(root) == [str(Path(root) / "a.jpg")] == [root + "a.jpg"]

    def test_scan_file_takes_str_or_path(self, tmp_path, kb):
        files = {
            "clip.mov": synthesize_container(expected_attributes(kb.record("t7-discord-default"))),
            "photo.jpg": make_jpeg(720, 960, total_size=100_000),
            "junk.bin": b"\x00\x01\x02\x03 garbage",
        }
        for name, data in files.items():
            path = tmp_path / name
            path.write_bytes(data)
            assert report.scan_file(str(path), kb) == report.scan_file(path, kb)
        assert report.scan_file(str(tmp_path / "junk.bin"), kb).error is not None

    def test_file_inside_dot_is_scanned_once(self, runner, tmp_path, monkeypatch):
        (tmp_path / "a.jpg").write_bytes(make_jpeg(720, 960))
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["scan", ".", "./a.jpg", "--format", "json"])
        assert result.exit_code == 0
        assert [r["path"] for r in json.loads(result.output)["reports"]] == ["a.jpg"]

    @pytest.mark.parametrize("error", [FileNotFoundError, NotADirectoryError, OSError])
    def test_directory_failing_to_list_is_skipped(self, runner, tmp_path, monkeypatch, error):
        # A subdirectory removed between being listed and being opened, or
        # failing to open for another reason, is skipped like an unreadable
        # one; the rest of the tree is still reported.
        for name in ("a.jpg", "gone/b.jpg", "gone/deeper/c.jpg", "kept/d.jpg"):
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_bytes(make_jpeg(720, 960))
        real_scandir = os.scandir

        def scandir(path):
            if Path(path).name == "gone":
                raise error(2, "listing failed", str(path))
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        result = runner.invoke(main, ["scan", str(tmp_path), "--format", "json"])
        assert result.exit_code == 0, result.output
        assert [r["path"] for r in json.loads(result.output)["reports"]] == [
            f"{tmp_path}/a.jpg", f"{tmp_path}/kept/d.jpg",
        ]

    def test_report_object_shape(self, runner, fixture_dir):
        result = runner.invoke(main, ["scan", str(fixture_dir / "discord.mov"), "--format", "json"])
        report = json.loads(result.output)["reports"][0]
        assert set(report) == {"path", "kind", "attributes", "outcome", "candidates", "chains", "error"}
        assert set(report["candidates"][0]) == {"app", "os", "quality", "matched_fields", "used_size_band"}

    def test_empty_directory(self, runner, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = runner.invoke(main, ["scan", str(empty), "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["reports"] == []

    def test_unknown_verdict_still_counts_as_processed(self, runner, tmp_path):
        import dataclasses
        from mediafp.kb import load_kb_path
        attrs = dataclasses.replace(
            expected_attributes(load_kb_path().record("t7-discord-default")), width=966
        )
        odd = tmp_path / "odd.mov"
        odd.write_bytes(synthesize_container(attrs))
        result = runner.invoke(main, ["scan", str(odd), "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["reports"][0]["outcome"] == "Unknown"

    def test_garbage_file_reports_error_exit_1(self, runner, tmp_path):
        bad = tmp_path / "junk.bin"
        bad.write_bytes(b"\x00\x01\x02\x03 garbage")
        result = runner.invoke(main, ["scan", str(bad)])
        assert result.exit_code == 1
        assert "error" in result.output

    def test_file_vanishing_mid_scan_is_a_per_file_error(self, tmp_path, kb):
        # I/O failures (races, permissions) must stay per-file, not abort
        # the batch; click already guards the paths named on the command
        # line, so exercise the scanner directly.
        from mediafp.report import scan_file
        report = scan_file(tmp_path / "vanished.mov", kb)
        assert report.error is not None and "FileNotFoundError" in report.error
        assert report.media_kind is None and report.verdict is None

    def test_magic_sniffing_beats_file_name(self, runner, tmp_path, kb):
        disguised = tmp_path / "video.jpg"
        disguised.write_bytes(synthesize_container(expected_attributes(kb.record("t8-wechat-default"))))
        result = runner.invoke(main, ["scan", str(disguised), "--format", "json"])
        report = json.loads(result.output)["reports"][0]
        assert report["kind"] == "video"
        assert report["attributes"]["extension"] == "other"

    def test_timestamps_flag_adds_generation_time(self, runner, fixture_dir):
        result = runner.invoke(main, ["scan", str(fixture_dir / "discord.mov"),
                                      "--format", "json", "--timestamps"])
        assert "generated_at" in json.loads(result.output)

    def test_json_runs_are_byte_identical(self, runner, fixture_dir):
        args = ["scan", str(fixture_dir), "--format", "json"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_no_chains_flag(self, runner, tmp_path, kb):
        relay = tmp_path / "relay.mp4"
        relay.write_bytes(synthesize_container(expected_attributes(kb.record("t9-wechat"))))
        with_chains = runner.invoke(main, ["scan", str(relay), "--format", "json"])
        without = runner.invoke(main, ["scan", str(relay), "--no-chains", "--format", "json"])
        assert json.loads(with_chains.output)["reports"][0]["chains"] != []
        assert json.loads(without.output)["reports"][0]["chains"] == []

    def test_text_lists_every_chain_hypothesis(self, runner, tmp_path, kb):
        relay = tmp_path / "relay.mp4"
        relay.write_bytes(synthesize_container(expected_attributes(kb.record("t12-kakaotalk"))))
        result = runner.invoke(main, ["scan", str(relay)])
        assert result.output.count("chain: Facebook Messenger ->") == 8

    @pytest.mark.parametrize("timestamps", [[], ["--timestamps"]], ids=["plain", "timestamps"])
    def test_json_is_json_dumps_indent_2(self, runner, tmp_path, kb, timestamps):
        media = tmp_path / "media"
        media.mkdir()
        (media / "fotó-日本-😀.jpg").write_bytes(make_jpeg(720, 960, total_size=100_000))
        undecodable = os.fsdecode(b"clip-\xff\xfe.mov")
        (media / undecodable).write_bytes(
            synthesize_container(expected_attributes(kb.record("t7-discord-default"))))
        (media / "hostile.mp4").write_bytes(b"\x00\x00\x00\x10ftypisom" + b"\xff" * 40)
        (media / "relay.mp4").write_bytes(synthesize_container(expected_attributes(kb.record("t9-wechat"))))
        result = runner.invoke(main, ["scan", str(media), "--format", "json", *timestamps])
        assert result.exit_code == 1  # the hostile file
        doc = json.loads(result.output)
        assert result.output == json.dumps(doc, indent=2) + "\n"
        assert ("generated_at" in doc) == bool(timestamps)
        by_name = {r["path"].rsplit("/", 1)[-1]: r for r in doc["reports"]}
        assert set(by_name) == {"fotó-日本-😀.jpg", undecodable, "hostile.mp4", "relay.mp4"}
        assert by_name[undecodable]["outcome"] == "Identified"
        assert by_name["hostile.mp4"]["error"] is not None
        assert by_name["relay.mp4"]["chains"] != []

    def test_nonexistent_path_is_usage_error(self, runner):
        result = runner.invoke(main, ["scan", "/no/such/file"])
        assert result.exit_code == 2

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("through_link", [False, True])
    def test_fifo_argument_is_usage_error(self, tmp_path, through_link):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        target = fifo
        if through_link:
            target = tmp_path / "pipe-link"
            target.symlink_to(fifo)
        result = _scan_in_subprocess(target)
        assert result.returncode == 2
        assert f"'{target}' is neither a directory nor a regular file" in result.stderr

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_argument_is_refused_before_it_is_opened(self, runner, tmp_path):
        # In process: the argument check runs before anything is opened, so
        # the scan cannot block on the pipe.
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        result = runner.invoke(main, ["scan", str(fifo)])
        assert result.exit_code == 2
        assert f"'{fifo}' is neither a directory nor a regular file" in result.output

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_directory_holding_a_fifo_is_scanned(self, tmp_path):
        os.mkfifo(tmp_path / "pipe")
        (tmp_path / "photo.jpg").write_bytes(make_jpeg(720, 960, total_size=100_000))
        result = _scan_in_subprocess(tmp_path)
        assert result.returncode == 0, result.stderr
        assert "photo.jpg" in result.stdout
        assert str(tmp_path / "pipe") not in result.stdout

    def test_oversized_file_is_read_through_the_view(self, runner, tmp_path, kb, monkeypatch):
        # A video far larger than the head is walked through a file view,
        # and byte_size is still the file's size.
        size = 16 * 1024 * 1024 + 4096
        attrs = dataclasses.replace(expected_attributes(kb.record("t7-discord-default")), byte_size=size)
        big = tmp_path / "big.mov"
        big.write_bytes(synthesize_container(attrs))
        views, view_type = [], report._FileView
        monkeypatch.setattr(report, "_FileView", lambda *args: views.append(args) or view_type(*args))
        result = runner.invoke(main, ["scan", str(big), "--format", "json"])
        assert len(views) == 1
        scanned = json.loads(result.output)["reports"][0]
        assert scanned["outcome"] == "Identified"
        assert scanned["attributes"]["byte_size"] == size == big.stat().st_size

    def test_video_truncated_before_the_walk_is_a_per_file_error(self, tmp_path, kb):
        # The file shrinks after its head is read and before the walk reaches
        # its moov, 16 MiB further on.  That is the file's own TruncatedFile;
        # the scan runs in a child, so a crash (a memory-mapped file dies of
        # SIGBUS) fails the test and not the suite.
        big = tmp_path / "big.mp4"
        movie = synthesize_container(expected_attributes(kb.record("t7-discord-default")))
        write_sparse_video(big, movie, 16 * 1024 * 1024, moov_last=True)
        script = (
            "import os, sys\n"
            "from mediafp import cli, container\n"
            "walk = container.extract_video_attributes\n"
            "def shrink_then_walk(data, name_hint=None):\n"
            "    os.truncate(sys.argv[1], 2 * 65536)\n"
            "    return walk(data, name_hint)\n"
            "container.extract_video_attributes = shrink_then_walk\n"
            "cli.main(['scan', sys.argv[1]])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(mediafp.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", script, str(big)],
                                capture_output=True, text=True, timeout=60, env=env)
        assert result.returncode == 1, result.stderr
        assert "TruncatedFile: file ends before offset" in result.stdout

    def test_overlapping_arguments_scan_each_file_once(self, runner, tmp_path, kb):
        sub = tmp_path / "sub"
        sub.mkdir()
        clip = sub / "a.mov"
        clip.write_bytes(synthesize_container(expected_attributes(kb.record("t7-discord-default"))))
        result = runner.invoke(main, ["scan", str(tmp_path), f"{sub}/", str(sub), str(clip), "--format", "json"])
        assert result.exit_code == 0
        assert [r["path"] for r in json.loads(result.output)["reports"]] == [str(clip)]

    def test_scan_calls_the_module_scan_file_once_per_file_with_one_memo(self, runner, tmp_path, kb, monkeypatch):
        # perfbench times and traces each file by rebinding report.scan_file.
        paths = write_repeated_vectors(tmp_path, kb, copies=2)
        calls, real = [], report.scan_file

        def recorded(path, knowledge, chains=True, **kwargs):
            calls.append((path, chains, kwargs))
            return real(path, knowledge, chains, **kwargs)

        monkeypatch.setattr(report, "scan_file", recorded)
        result = runner.invoke(main, ["scan", str(tmp_path), "--no-chains"])
        assert result.exit_code == 0
        assert [path for path, _, _ in calls] == paths
        assert all(chains is False for _, chains, _ in calls)
        memo = calls[0][2]["verdicts"]
        assert isinstance(memo, dict) and all(kwargs["verdicts"] is memo for _, _, kwargs in calls)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("chains", [True, False], ids=["chains", "no-chains"])
    def test_memo_output_equals_per_file_scans(self, runner, tmp_path, kb, fmt, chains):
        paths = write_repeated_vectors(tmp_path, kb)
        flag = "--chains" if chains else "--no-chains"
        result = runner.invoke(main, ["scan", str(tmp_path), "--format", fmt, flag])
        assert result.exit_code == 0
        reports = [report.scan_file(path, kb, chains=chains) for path in paths]
        assert result.output == report.render_report(reports, fmt)


class TestReportBytes:
    """The report reaches stdout as its UTF-8 bytes, wherever stdout goes."""

    def test_terminal_controls_in_kb_names_survive_color_off(self, runner, tmp_path, fixture_dir):
        # click strips ANSI sequences from what it writes when color is off,
        # as it is for a pipe; the report is written as bytes and keeps them.
        kb_dir = tmp_path / "kbdir"
        shutil.copytree(default_kb_path(), kb_dir)
        table7 = kb_dir / "table07.kb"
        text = table7.read_text(encoding="utf-8")
        start = text.index("[record t7-discord-default]")
        block = text[start:].replace("app = Discord", "app = \x1b[1mDiscord", 1)
        table7.write_text(text[:start] + block, encoding="utf-8")
        args = ["scan", str(fixture_dir / "discord.mov"), "--kb", str(kb_dir)]
        plain, colored = (runner.invoke(main, args, color=color) for color in (False, True))
        assert plain.exit_code == colored.exit_code == 0
        assert "\x1b[1mDiscord (" in plain.stdout
        assert plain.stdout_bytes == colored.stdout_bytes

    def test_report_is_utf8_under_any_stdout_encoding(self, tmp_path, kb):
        clip = synthesize_container(expected_attributes(kb.record("t7-discord-default")))
        for directory in ("日本", "é"):
            (tmp_path / directory).mkdir()
            (tmp_path / directory / "clip.mov").write_bytes(clip)
        env = dict(os.environ, PYTHONPATH=str(Path(mediafp.__file__).parents[1]))
        runs = {
            encoding: subprocess.run([sys.executable, "-m", "mediafp.cli", "scan", "."], cwd=tmp_path,
                                     capture_output=True, timeout=60, env=dict(env, PYTHONIOENCODING=encoding))
            for encoding in ("utf-8", "latin-1")
        }
        for run in runs.values():
            assert run.returncode == 0, run.stderr
        assert runs["latin-1"].stdout == runs["utf-8"].stdout
        assert "日本/clip.mov".encode("utf-8") in runs["utf-8"].stdout
        assert "é/clip.mov".encode("utf-8") in runs["utf-8"].stdout

    def test_stdout_without_a_binary_buffer_gets_the_text(self, runner, fixture_dir, monkeypatch):
        args = ["scan", str(fixture_dir), "--format", "json"]
        expected = runner.invoke(main, args).output
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        with pytest.raises(SystemExit) as exited:
            main.main(args, standalone_mode=False)
        assert exited.value.code == 0
        assert sys.stdout.getvalue() == expected


def _scan_in_subprocess(path):
    # In a child with a timeout, so a scan that blocks on a path fails the
    # test instead of hanging the suite.
    env = dict(os.environ, PYTHONPATH=str(Path(mediafp.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "mediafp.cli", "scan", str(path)],
                          capture_output=True, text=True, timeout=60, env=env)


class TestKbCommands:
    def test_validate_shipped_kb(self, runner):
        result = runner.invoke(main, ["kb", "validate"])
        assert result.exit_code == 0
        assert "manifest verified" in result.output

    def test_validate_dropped_row_exits_1(self, runner, tmp_path):
        broken = tmp_path / "kbdir"
        shutil.copytree(default_kb_path(), broken)
        table7 = broken / "table07.kb"
        text = table7.read_text(encoding="utf-8")
        start = text.index("[record t7-telegram-240p]")
        end = text.index("[record t7-skype-default]")
        table7.write_text(text[:start] + text[end:], encoding="utf-8")
        result = runner.invoke(main, ["kb", "validate", "--kb", str(broken)])
        assert result.exit_code == 1
        assert "ManifestMismatch" in result.output

    @pytest.mark.parametrize("bad_line", [b"nominal_size = big", b"nominal_size = 2\xff000"])
    def test_validate_malformed_original_exits_1_without_traceback(self, runner, tmp_path, bad_line):
        broken = tmp_path / "broken.kb"
        broken.write_bytes(b"[original o-img]\nmedia = image\nos = iOS\nresolution = 10x10\n" + bad_line + b"\n")
        result = runner.invoke(main, ["kb", "validate", "--kb", str(broken)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an exception escaping the command
        assert result.output.startswith("SchemaError: ")

    def test_validate_video_record_without_codec_id_exits_1(self, runner, tmp_path):
        # A video record that leaves out a container field fails the load,
        # naming the record, where it would otherwise match every codec id.
        # CI makes the same edit with sed and runs the installed command.
        broken = tmp_path / "kbdir"
        shutil.copytree(default_kb_path(), broken)
        table7 = broken / "table07.kb"
        text = table7.read_text(encoding="utf-8")
        start = text.index("[record t7-discord-default]")
        codec = text.index("\ncodec_id = ", start) + 1
        table7.write_text(text[:codec] + text[text.index("\n", codec) + 1:], encoding="utf-8")
        result = runner.invoke(main, ["kb", "validate", "--kb", str(broken)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an exception escaping the command
        header_line = text.count("\n", 0, start) + 1
        assert result.output == (f"SchemaError: [record t7-discord-default] (table07.kb line {header_line}): "
                                 "video records need at least one codec id\n")

    @pytest.mark.parametrize("command,sha256", [
        ("validate", "1bbabb7eef29ec4ba8fb276950ab841707c3bcd537a1a3a46c3e71c4eb61bf27"),
        ("list", "2bf2cb66bfcc1378a28046151de9d7a4f7ef9d2cbaf2e218bec58de03bc56764"),
    ])
    def test_shipped_kb_output_is_pinned(self, runner, command, sha256):
        # Both commands read each record's hop and distinguishability, and
        # validate groups records by a hashed key; the bytes must not move.
        result = runner.invoke(main, ["kb", command])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode("utf-8")).hexdigest() == sha256

    def test_hidden_names_in_a_kb_directory_are_skipped(self, runner, tmp_path):
        # An editor's dangling lock link and a hidden copy of a table beside
        # the tables change nothing: validate prints what it prints for the
        # shipped KB.
        data = tmp_path / "kb"
        shutil.copytree(default_kb_path(), data)
        (data / ".#table07.kb").symlink_to("user@host.1234:1700000000")
        shutil.copy(data / "table07.kb", data / ".table07.kb")
        shipped, copy = (runner.invoke(main, ["kb", "validate", *args]) for args in ([], ["--kb", str(data)]))
        assert shipped.exit_code == copy.exit_code == 0
        assert copy.output == shipped.output

    def test_list_telegram_ios(self, runner):
        result = runner.invoke(main, ["kb", "list", "--app", "Telegram", "--os", "ios", "--kind", "video"])
        assert result.exit_code == 0
        assert result.output.strip().endswith("5 records")
        for quality in ("1080p", "720p", "480p", "360p", "240p"):
            assert quality in result.output

    def test_list_unknown_os_is_usage_error(self, runner):
        result = runner.invoke(main, ["kb", "list", "--os", "plan9"])
        assert result.exit_code == 2
        assert "unknown OS 'plan9'" in result.output

    @pytest.mark.parametrize("error", [PermissionError, FileNotFoundError])
    def test_validate_unlistable_kb_directory_is_one_error_line(self, runner, tmp_path, monkeypatch, error):
        # os.listdir is patched, since a mode that refuses listing does not
        # stop root.
        data = tmp_path / "kb"
        shutil.copytree(default_kb_path(), data)
        real_listdir = os.listdir

        def listdir(path):
            if Path(path) == data:
                raise error(13, "listing refused", str(path))
            return real_listdir(path)

        monkeypatch.setattr(os, "listdir", listdir)
        result = runner.invoke(main, ["kb", "validate", "--kb", str(data)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an exception escaping the command
        assert result.output == f"KbError: {data}: listing refused\n"

    def test_env_var_overrides_default(self, runner, tmp_path, monkeypatch):
        custom = tmp_path / "tiny.kb"
        custom.write_text("""
[record t6-only]
media = image
app = OnlyApp
os = iOS
quality = Default
resolution = 10x10
""", encoding="utf-8")
        monkeypatch.setenv("MEDIAFP_KB", str(custom))
        result = runner.invoke(main, ["kb", "list"])
        assert "OnlyApp" in result.output
        assert "1 records" in result.output


@pytest.mark.parametrize("command", [
    ["scan", "."], ["kb", "validate"], ["kb", "list"], ["selftest"],
], ids=" ".join)
@pytest.mark.parametrize("via_env", [False, True], ids=["option", "env"])
def test_missing_kb_is_a_kb_error(runner, tmp_path, monkeypatch, command, via_env):
    missing = tmp_path / "missing.kb"
    monkeypatch.chdir(tmp_path)
    if via_env:
        monkeypatch.setenv("MEDIAFP_KB", str(missing))
    else:
        command = [*command, "--kb", str(missing)]
    result = runner.invoke(main, command)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not an exception escaping the command
    assert result.output == f"KbError: {missing}: No such file or directory\n"


class TestSelftest:
    def test_shipped_kb_passes(self, runner):
        result = runner.invoke(main, ["selftest"])
        assert result.exit_code == 0
        assert "100 cases, 0 failures" in result.output

    def test_corrupted_resolution_fails_naming_record(self, runner, tmp_path):
        corrupted = tmp_path / "kbdir"
        shutil.copytree(default_kb_path(), corrupted)
        table7 = corrupted / "table07.kb"
        table7.write_text(
            table7.read_text(encoding="utf-8").replace("resolution = 848x464, 464x848",
                                                       "resolution = 999x464, 464x999"),
            encoding="utf-8",
        )
        result = runner.invoke(main, [
            "selftest", "--kb", str(corrupted),
            "--corpus", str(default_kb_path() / "corpus.tsv"),
        ])
        assert result.exit_code == 1
        assert "FAIL t7-telegram-480p" in result.output

    def test_empty_kb_zero_cases(self, runner, tmp_path):
        empty = tmp_path / "empty.kb"
        empty.write_text("# empty knowledge base\n", encoding="utf-8")
        result = runner.invoke(main, ["selftest", "--kb", str(empty)])
        assert result.exit_code == 0
        assert "0 cases, 0 failures" in result.output

    @pytest.mark.parametrize("content,error", [
        (b"r1\tsound\t1\n", "CorpusFormatError: line 1: unknown media kind or field count"),
        (b"\n" + b"r1\timage\t100\t100\t5000\tsinglex:A|iOS|Default\n",
         "CorpusFormatError: line 2: bad label 'singlex:A|iOS|Default'\n"),
        (b"\xff\xfe\n", "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position 0"),
        (b"r1 image 100 100 5000\n", "CorpusFormatError: line 1: unknown media kind or field count\n"),
        (b"r1\timage\t100\t100\t5000\tsingle:A|iOS\n", "CorpusFormatError: line 1: bad label 'single:A|iOS'\n"),
        (b"r1\timage\t100\t100\t5000\tchain:AB|iOS\n", "CorpusFormatError: line 1: bad label 'chain:AB|iOS'\n"),
        (b"r1\timage\t100\t100\t5000\tchain:>|iOS\n", "CorpusFormatError: line 1: bad label 'chain:>|iOS'\n"),
        (b"r1\timage\t100\t100\t5000\tchain:A>|iOS\n", "CorpusFormatError: line 1: bad label 'chain:A>|iOS'\n"),
        (b"r1\timage\t100\t100\t5000\tsingle:|iOS|D\n", "CorpusFormatError: line 1: bad label 'single:|iOS|D'\n"),
        (b"r1\timage\t100\t100\t5000\tsingle:A|iOS|\n", "CorpusFormatError: line 1: bad label 'single:A|iOS|'\n"),
        (b"r1\timage\t100\t100\t5000\tchain:A>B>C|iOS\n", "CorpusFormatError: line 1: bad label 'chain:A>B>C|iOS'\n"),
        (b"r1\timage\t100\t100\t5000\tsingle: |iOS|D\n", "CorpusFormatError: line 1: bad label 'single: |iOS|D'\n"),
        (b"r1\timage\t100\t100\t5000\tsingle:A| ios |D\n", "CorpusFormatError: line 1: bad label 'single:A| ios |D'\n"),
        (b"r1\timage\t100\t100\t5000\tchain:A>B|android\n",
         "CorpusFormatError: line 1: bad label 'chain:A>B|android'\n"),
    ], ids=["malformed", "bad-label-kind", "not-utf-8", "no-tab", "single-label-two-parts", "chain-label-no-arrow",
            "chain-label-no-apps", "chain-label-no-second-app", "single-label-no-app", "single-label-no-quality",
            "chain-label-three-apps", "single-label-blank-app", "single-label-padded-os", "chain-label-os-alias"])
    def test_bad_corpus_is_one_error_line(self, runner, tmp_path, content, error):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_bytes(content)
        result = runner.invoke(main, ["selftest", "--corpus", str(corpus)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an exception escaping the command
        assert result.output.startswith(error) and result.output.count("\n") == 1

    def test_dump_corpus_into_a_directory_is_one_error_line(self, runner, tmp_path):
        result = runner.invoke(main, ["selftest", "--dump-corpus", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"IsADirectoryError: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_dump_corpus_round_trips(self, runner, tmp_path):
        out = tmp_path / "dump.tsv"
        result = runner.invoke(main, ["selftest", "--dump-corpus", str(out)])
        assert result.exit_code == 0
        assert out.read_text(encoding="utf-8") == (default_kb_path() / "corpus.tsv").read_text(encoding="utf-8")


def test_default_kb_is_the_bundled_directory():
    kb = load_kb_path()
    assert len(kb.records) == 123
