"""The README's library example runs, and the package exports what it documents."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import mediafp
from mediafp.oracle import expected_attributes, synthesize_container

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SUBMODULES = ("attributes", "container", "engine", "jpeg", "kb", "oracle", "report")


def test_library_example_runs(tmp_path, kb, monkeypatch, capsys):
    example = re.search(r"^## Library\n.*?^```python\n(.*?)^```", README, re.M | re.S).group(1)
    movie = synthesize_container(expected_attributes(kb.record("t9-wechat")))
    (tmp_path / "clip.mp4").write_bytes(movie)
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[1:] == ["possible relay: KakaoTalk -> WeChat (iOS)"]


def test_every_name_the_readme_gives_resolves():
    dotted = set(re.findall(r"\bmediafp((?:\.\w+)+)", README))
    assert {".generate_corpus", ".oracle.expected_attributes", ".__all__"} <= dotted
    for path in dotted:
        value = mediafp
        for name in path.split(".")[1:]:
            value = getattr(value, name)


def test_readme_kb_format_names_every_key_the_loader_accepts():
    # A key is named when it appears in backticks (`nth_app`, `size_band =
    # ...`) or starts a line of the section's example block.
    section = re.search(r"^## Knowledge base format\n(.*?)^## ", README, re.M | re.S).group(1)
    named = set(re.findall(r"`(\w+)(?: = [^`]*)?`", section)) | set(re.findall(r"^(\w+) = ", section, re.M))
    accepted = mediafp.kb._RECORD_KEYS | mediafp.kb._ORIGINAL_KEYS
    assert {"nth_app", "markers", "size_band", "nominal_size", "app"} <= accepted
    assert sorted(accepted - named) == []
    assert "hop" not in named | accepted


def test_all_lists_exactly_the_exported_names():
    exported = {name for name, value in vars(mediafp).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(mediafp.__all__)) == len(mediafp.__all__)
    assert set(mediafp.__all__) == exported
    assert {"FtypInfo", "classify_format_profile", "render_codec_id", "classify_outcome", "disambiguate_by_size"}.isdisjoint(exported)


def test_import_exposes_every_submodule():
    # In a fresh interpreter, so no other test's imports can supply them.
    code = f"import mediafp; print(all(isinstance(getattr(mediafp, n), type(mediafp)) for n in {SUBMODULES!r}))"
    env = dict(os.environ, PYTHONPATH=str(Path(mediafp.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "True\n"


def _benchmark_reached() -> set[tuple[str, str]]:
    """(module, name) of each library name the benchmark scripts use.  The
    scripts are read, not run."""
    reached = set()
    for script in PERFBENCH.glob("*.py"):
        source = script.read_text(encoding="utf-8")
        reached |= {(f"mediafp.{module}", name) for module, name in re.findall(r"\bmf\.(\w+)\.(\w+)", source)}
    for node in ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SPAN_TARGETS"]:
            reached |= {(module, name) for module, name, _ in ast.literal_eval(node.value)}
    return reached


def test_every_library_name_the_benchmark_reaches_resolves():
    # A name the benchmark uses that the package lost fails only the
    # benchmark; a span target it lost leaves that span's timings at 0 with
    # no error at all.
    reached = _benchmark_reached()
    assert {("mediafp.container", "render_codec_id"), ("mediafp.container", "FtypInfo"),
            ("mediafp.engine", "infer_chain")} <= reached
    missing = [f"{module}.{name}" for module, name in sorted(reached)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def _is_click_command(decorator: ast.expr) -> bool:
    # @main.command(), @kb_group.command(name=...), @click.group()
    return isinstance(decorator, ast.Call) and getattr(decorator.func, "attr", None) in ("command", "group")


def test_every_top_level_name_is_used():
    # Each top-level function, class and constant of the package is loaded
    # by name somewhere in it (a name or an attribute, also inside an
    # f-string or an annotation), exported by an ``__all__``, reached by the
    # benchmark or registered as a click command.  Anything else is code no
    # caller reaches.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "mediafp").glob("*.py"))}
    loaded, exported, defined = set(), set(), []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not any(map(_is_click_command, node.decorator_list)):
                    defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
                if names == ["__all__"]:
                    exported.update(ast.literal_eval(node.value))
                defined += [(module, name) for name in names if not name.startswith("__")]
    assert {("kb", "load_kb_path"), ("kb", "_MEDIA_KINDS"), ("report", "scan_file")} <= set(defined)
    assert "scan" not in {name for _, name in defined}  # a click command
    reached = _benchmark_reached()
    unused = [f"{module}.{name}" for module, name in defined
              if name not in loaded and name not in exported and (f"mediafp.{module}", name) not in reached]
    assert unused == []


def test_package_data_globs_cover_every_data_file():
    # The tests run against the source tree, so a data file the wheel leaves
    # out fails nothing else: without corpus.tsv, selftest would fall back
    # to the generated corpus.  pyproject.toml is read as text, since
    # tomllib is new in Python 3.11.
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[tool\.setuptools\.package-data\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    globs = re.findall(r'"([^"]+)"', re.search(r"^mediafp = \[(.*?)\]", section, re.M | re.S).group(1))
    package = ROOT / "src" / "mediafp"
    shipped = {path for path in (package / "data").rglob("*") if path.is_file() and "__pycache__" not in path.parts}
    assert {"corpus.tsv", "manifest.kb", "originals.kb"} <= {path.name for path in shipped}
    packaged = {path for pattern in globs for path in package.glob(pattern)}
    assert sorted(str(path.relative_to(package)) for path in shipped - packaged) == []
