"""The benchmark's tracer reaches every layer of an in-process scan.

``perfbench/tracer.py`` wraps the package's functions by rebinding the names
their callers resolve at call time, and reports 0 calls for a name it
cannot reach.  A caller that binds one of them locally, say an extractor
imported into ``report`` by name, would zero that layer's metrics without
failing a benchmark run, so these counts must stay above 0.
"""

import dataclasses

from click.testing import CliRunner

from mediafp.cli import main
from mediafp.oracle import expected_attributes, synthesize_container

from conftest import load_tracer, make_jpeg


def test_traced_scan_reaches_every_layer(tmp_path, kb):
    # One relay video, two videos of one vector (matched once between
    # them), and two JPEGs of a resolution several size-banded records
    # share, with sizes in one band interval (matched once between them).
    relay = expected_attributes(kb.record("t12-kakaotalk"))
    discord = expected_attributes(kb.record("t7-discord-default"))
    (tmp_path / "relay.mp4").write_bytes(synthesize_container(relay))
    for copy in range(2):
        attrs = dataclasses.replace(discord, byte_size=8192 + 512 * copy)
        (tmp_path / f"discord-{copy}.mov").write_bytes(synthesize_container(attrs))
    for name, size in (("photo.jpg", 100_000), ("photo-2.jpg", 105_000)):
        (tmp_path / name).write_bytes(make_jpeg(720, 960, total_size=size))

    tracer = load_tracer()
    with tracer.Tracer() as trace:
        result = CliRunner().invoke(main, ["scan", str(tmp_path)])
    assert result.exit_code == 0, result.output
    calls = {name: row["calls"] for name, row in tracer.aggregate(trace.spans).items()}
    # The KB is loaded once and the report rendered once, each through the
    # module attribute the tracer rebinds: a scan that bound either name
    # locally would read 0 for its layer.
    assert calls.get("kb.load_kb_path") == 1
    assert calls.get("report.render_report") == 1
    assert calls.get("report.scan_file") == 5
    assert calls.get("container.extract_video_attributes") == 3
    assert calls.get("jpeg.extract_image_attributes") == 2
    assert calls.get("engine.infer_chain") == 2  # once per distinct video vector
    assert calls.get("engine.match_image") == 1  # once per distinct image class
    assert calls.get("engine.disambiguate_by_size", 0) > 0
    assert trace.counts["engine.satisfies_video.calls"] > 0
