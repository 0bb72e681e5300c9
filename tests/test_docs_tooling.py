"""The documentation toolchain itself must stay green.

Runs the two doc tools exactly as CI does:

* ``tools/gen_metrics_doc.py --check`` — the committed
  ``docs/METRICS.md`` must match the live metrics registry (freshness
  gate), and the checked docs may name only registered instruments;
* ``tools/check_docs.py`` — every markdown link and anchor across the
  default doc set must resolve.

Both tools import the full ``repro`` tree, which needs numpy (the
Count-Min sketch); environments without it skip rather than fail
tier-1.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

ROOT = Path(__file__).resolve().parent.parent


def _run(*argv):
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )


def test_metrics_doc_is_fresh():
    result = _run("tools/gen_metrics_doc.py", "--check")
    assert result.returncode == 0, (
        f"docs/METRICS.md is stale — regenerate with "
        f"`python tools/gen_metrics_doc.py`.\n"
        f"stdout: {result.stdout}\nstderr: {result.stderr}"
    )
    assert "up to date" in result.stdout


def test_metrics_doc_covers_restore_instruments(tmp_path):
    out = tmp_path / "METRICS.md"
    result = _run("tools/gen_metrics_doc.py", "--out", str(out))
    assert result.returncode == 0, result.stderr
    text = out.read_text()
    # Spot checks: one instrument per subsystem this PR touches.
    for name in (
        "ted_restore_fragmentation_factor",
        "ted_restore_container_events_total",
        "ted_pipeline_chunks_total",
    ):
        assert f"`{name}`" in text, f"{name} missing from generated doc"


def test_metrics_check_catches_dangling_instrument(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "gen_metrics_doc", ROOT / "tools" / "gen_metrics_doc.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    doc = tmp_path / "DOC.md"
    doc.write_text(
        "Live: `ted_wal_fsyncs_total`, "
        "`ted_stage_seconds{stage=...}`, `ted_kernel_*`, "
        "`ted_sketch_{updates,estimates}_total`, "
        "`ted_shard_health{side,shard}`.\n"
        "Gone: `ted_keymanager_t`, `ted_sketch_{updates,removed}_total`, "
        "`ted_nosuch_*`.\n"
    )
    assert [token for _doc, token in tool.dangling_names([doc])] == [
        "ted_keymanager_t",
        "ted_sketch_{updates,removed}_total",
        "ted_nosuch_*",
    ]


def test_all_doc_links_resolve():
    result = _run("tools/check_docs.py")
    assert result.returncode == 0, (
        f"broken documentation links:\n{result.stderr}"
    )
    assert "all links resolve" in result.stdout


def test_link_checker_catches_breakage(tmp_path):
    bad = tmp_path / "BAD.md"
    bad.write_text(
        "# Title\n\nSee [missing](no-such-file.md) and "
        "[bad anchor](#nowhere).\n"
    )
    result = _run("tools/check_docs.py", str(bad))
    assert result.returncode == 1
    assert "no-such-file.md" in result.stderr
    assert "nowhere" in result.stderr
