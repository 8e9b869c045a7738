"""Command-line front end.

Commands: ``scan`` walks files and directories and reports a verdict per
file, ``kb validate`` / ``kb list`` inspect a knowledge base, ``selftest``
pushes the labeled corpus through the matcher and fails on any miss.  The
default KB is the data directory bundled with the package, overridable with
--kb or the MEDIAFP_KB environment variable.
"""

from __future__ import annotations

import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import NoReturn

import click

from . import kb as kb_mod
from . import oracle, report


def _fail(exc: Exception) -> NoReturn:
    click.echo(f"{type(exc).__name__}: {exc}", err=True)
    sys.exit(1)


def _load_kb(kb_path: str | None) -> kb_mod.KnowledgeBase:
    try:
        return kb_mod.load_kb_path(kb_path or None)
    except kb_mod.KbError as exc:
        _fail(exc)


def _write_report(text: str) -> None:
    """Write a report to standard output as its UTF-8 bytes.

    The bytes are the same on a terminal, in a pipe and under any locale:
    ``click.echo(str)`` would strip ANSI sequences from what is not a
    terminal and encode with the locale's codec, which fails on a path it
    cannot encode.  A stdout with no binary buffer, such as an in-process
    caller's ``io.StringIO``, gets the text.
    """
    stdout = sys.stdout
    binary = getattr(stdout, "buffer", None)
    if binary is None:
        stdout.write(text)
        stdout.flush()
        return
    stdout.flush()
    binary.write(text.encode("utf-8"))
    binary.flush()


def _files_under(root: str) -> list[str]:
    """Every file below ``root``, as the path string ``str(Path(directory) / name)`` gives.

    The files come in no particular order.  Symlinked files are kept and
    symlinked directories are not entered; a link that is broken, loops,
    passes through a file or cannot be resolved is dropped, as
    ``os.path.isfile`` drops it, and so is a directory that cannot be listed
    (unreadable, removed during the walk, any other ``OSError``).  A
    directory entry already says whether it is a directory or a plain file,
    so only symlinks cost a stat.
    """
    files: list[str] = []
    pending = [root]
    while pending:
        directory = pending.pop()
        try:
            with os.scandir(directory) as it:
                entries = list(it)
        except OSError:
            continue
        prefix = "" if directory == "." else directory if directory.endswith("/") else directory + "/"
        for entry in entries:
            path = prefix + entry.name
            if entry.is_dir(follow_symlinks=False):
                pending.append(path)
            elif os.path.isfile(path) if entry.is_symlink() else entry.is_file(follow_symlinks=False):
                files.append(path)
    return files


def _directories_or_files(ctx: click.Context, param: click.Parameter,
                          paths: tuple[Path, ...]) -> tuple[Path, ...]:
    # A FIFO, socket or device passes click's existence check, but opening
    # one can block forever, so only directories and regular files (after
    # following links) are scanned.
    for path in paths:
        if not (path.is_dir() or path.is_file()):
            raise click.BadParameter(
                f"{click.format_filename(path)!r} is neither a directory nor a regular file.",
                ctx, param)
    return paths


@click.group()
@click.version_option(package_name="mediafp")
def main() -> None:
    """Trace which instant messengers a photo or video passed through."""


@main.command()
@click.argument("paths", nargs=-1, required=True,
                type=click.Path(exists=True, path_type=Path), callback=_directories_or_files)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True, help="Report format.")
@click.option("--kb", "kb_path", type=str, default=None, help="Knowledge base file or directory.")
@click.option("--chains/--no-chains", default=True, show_default=True,
              help="Infer messenger-to-messenger relay hypotheses.")
@click.option("--timestamps", is_flag=True, default=False,
              help="Stamp the report with the generation time.")
def scan(paths: tuple[Path, ...], fmt: str, kb_path: str | None,
         chains: bool, timestamps: bool) -> None:
    """Fingerprint every file under PATHS and report verdicts.

    The report goes to standard output as UTF-8 bytes, the same on a
    terminal or a pipe and under any locale.

    Exit status: 0 when every file parsed (Unknown verdicts included),
    1 when any file failed to parse, 2 on bad invocation.
    """
    knowledge = _load_kb(kb_path)
    # A file named by overlapping arguments (a directory and a file below it)
    # is scanned once.
    files: set[str] = set()
    for path in paths:
        files.update(_files_under(str(path)) if path.is_dir() else (str(path),))
    # One verdict memo per scan: each distinct video attribute vector is matched once.
    verdicts: dict = {}
    reports = [report.scan_file(path, knowledge, chains=chains, verdicts=verdicts) for path in sorted(files)]
    stamp = datetime.now(timezone.utc).isoformat() if timestamps else None
    _write_report(report.render_report(reports, fmt, stamp))
    sys.exit(1 if any(r.error for r in reports) else 0)


@main.group(name="kb")
def kb_group() -> None:
    """Inspect and validate knowledge bases."""


@kb_group.command()
@click.option("--kb", "kb_path", type=str, default=None, help="Knowledge base file or directory.")
def validate(kb_path: str | None) -> None:
    """Load the KB, verify its manifest, and print the validation report."""
    knowledge = _load_kb(kb_path)
    findings = kb_mod.validate_kb(knowledge)
    click.echo(f"{len(knowledge.records)} records, {len(knowledge.originals)} original profiles")
    if knowledge.manifest is not None:
        click.echo("manifest verified: " + ", ".join(f"{k}={v}" for k, v in knowledge.manifest))
    for finding in findings:
        click.echo(f"[{finding.kind}] {finding.message}: {', '.join(finding.record_ids)}")
    click.echo(f"{len(findings)} findings")


@kb_group.command(name="list")
@click.option("--app", default=None, help="Filter by application name.")
@click.option("--os", "os_token", default=None, help="Filter by OS (iOS, Android43, ...).")
@click.option("--kind", type=click.Choice(["image", "video"]), default=None,
              help="Filter by media kind.")
@click.option("--kb", "kb_path", type=str, default=None, help="Knowledge base file or directory.")
def list_cmd(app: str | None, os_token: str | None, kind: str | None, kb_path: str | None) -> None:
    """Print fingerprint records, optionally filtered."""
    knowledge = _load_kb(kb_path)
    try:
        selected = kb_mod.list_records(knowledge, app=app, os=os_token, media_kind=kind)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    for rec in selected:
        hop = f"chain[{rec.nth_app}]" if rec.nth_app else "single"
        tag = "" if rec.distinguishable else "  (indistinguishable)"
        click.echo(f"{rec.record_id}  {rec.media_kind.value}/{hop}  "
                   f"{rec.app} / {rec.os.value} / {rec.quality}{tag}")
    click.echo(f"{len(selected)} records")


@main.command()
@click.option("--kb", "kb_path", type=str, default=None, help="Knowledge base file or directory.")
@click.option("--corpus", "corpus_path", type=click.Path(exists=True, path_type=Path),
              default=None, help="Frozen corpus file to replay instead of regenerating.")
@click.option("--dump-corpus", "dump_path", type=click.Path(path_type=Path), default=None,
              help="Write the generated corpus to this file.")
def selftest(kb_path: str | None, corpus_path: Path | None, dump_path: Path | None) -> None:
    """Replay the labeled corpus through the matcher; exit 0 only on 100% hits.

    A corpus file that cannot be read or parsed, or a dump path that cannot
    be written, is one error line and exit 1.

    With the bundled KB the frozen corpus ships alongside the data files and
    is used by default, so edits that drift from it fail here.
    """
    knowledge = _load_kb(kb_path)
    try:
        if dump_path is not None:
            dump_path.write_text(oracle.render_corpus(oracle.generate_corpus(knowledge)), encoding="utf-8")
            click.echo(f"corpus written to {dump_path}")
        if corpus_path is not None:
            entries = oracle.parse_corpus(corpus_path.read_text(encoding="utf-8"))
        elif kb_path is None and (kb_mod.default_kb_path() / "corpus.tsv").exists():
            entries = oracle.parse_corpus((kb_mod.default_kb_path() / "corpus.tsv").read_text(encoding="utf-8"))
        else:
            entries = oracle.generate_corpus(knowledge)
    except (oracle.CorpusFormatError, UnicodeDecodeError, OSError) as exc:
        _fail(exc)

    misses = oracle.replay_corpus(knowledge, entries)
    for entry, verdict in misses:
        click.echo(f"FAIL {entry.record_id}: expected {entry.label.render()}, "
                   f"got outcome {verdict.outcome.value}")
    click.echo(f"{len(entries)} cases, {len(misses)} failures")
    sys.exit(0 if not misses else 1)


if __name__ == "__main__":
    main()
