"""The documentation toolchain itself must stay green.

Runs the two doc tools exactly as CI does:

* ``tools/gen_metrics_doc.py --check`` — the committed
  ``docs/METRICS.md`` must match the live metrics registry (freshness
  gate), the checked docs and ``src/repro`` docstrings may name only
  registered instruments, and every registered instrument must have a
  reader;
* ``tools/check_docs.py`` — every markdown link and anchor across the
  default doc set must resolve, and the runbook's flag tables must match
  the ``repro`` CLI parsers.

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
        "ted_container_events_total",
        "ted_pipeline_chunks_total",
    ):
        assert f"`{name}`" in text, f"{name} missing from generated doc"


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_metrics_check_catches_dangling_instrument(tmp_path):
    tool = _tool("gen_metrics_doc")
    doc = tmp_path / "DOC.md"
    doc.write_text(
        "Live: `ted_wal_fsyncs_total`, "
        "`ted_stage_seconds{stage=...}`, `ted_scrub_*`, "
        "`ted_recovery_{containers,sstables}_quarantined_total`, "
        "`ted_shard_health{side,shard}`.\n"
        "Gone: `ted_keymanager_t`, `ted_sketch_{updates,removed}_total`, "
        "`ted_nosuch_*`, `ted_kernel_*`.\n"
    )
    assert [token for _doc, token in tool.dangling_names([doc])] == [
        "ted_keymanager_t",
        "ted_sketch_{updates,removed}_total",
        "ted_nosuch_*",
        "ted_kernel_*",
    ]


def test_every_instrument_has_a_reader():
    assert _tool("gen_metrics_doc").unread_instruments() == []


def test_metrics_check_reports_a_planted_instrument(tmp_path):
    import shutil

    for directory in ("src", "tools", "docs", "perfbook", "benchmarks",
                      "tests"):
        shutil.copytree(
            ROOT / directory,
            tmp_path / directory,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    module = tmp_path / "src" / "repro" / "obs" / "tracing.py"
    module.write_text(
        module.read_text()
        + '\n_PLANTED = obs_metrics.get_registry().counter(\n'
        '    "ted_planted_unread_total", "Read by nobody"\n)\n'
        '\n\ndef planted():\n'
        '    """Bumps ``ted_planted_gone_total``."""\n'
    )
    assert _run(str(tmp_path / "tools" / "gen_metrics_doc.py")).returncode == 0
    result = _run(str(tmp_path / "tools" / "gen_metrics_doc.py"), "--check")
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        "src/repro/obs/tracing.py: `ted_planted_gone_total` names no "
        "registered instrument",
        "`ted_planted_unread_total` has no reader: name it in "
        "docs/RUNBOOK.md, a gate, a view or a test, or delete it",
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


def test_flag_table_gate_catches_stale_and_missing_flags(tmp_path):
    tool = _tool("check_docs")
    doc = tmp_path / "RUNBOOK.md"
    doc.write_text(
        "### `fsck` — verify\n\n"
        "| Flag | Meaning |\n|---|---|\n"
        "| `--storage DIR` | root |\n"
        "| `--json` / `--repair` / `--shallow` | modes |\n"
        "| `--lookahead-window` | gone |\n\n"
        "### `serve-keymanager` — run a TED key manager\n\n"
        "| Flag | Default | Meaning |\n|---|---|---|\n"
        "| `--host` / `--port` | | |\n\n"
        "### `loadgen` / `top` — load\n\n"
        "| `top` flag | Default | Meaning |\n|---|---|---|\n"
        "| `--replay` | | |\n\n"
        "## Performance knobs\n\n"
        "| Flag | Default | Meaning |\n|---|---|---|\n"
        "| `--no-such-flag` | | not under a subcommand heading |\n"
    )
    problems = tool.flag_table_problems(doc, tool._cli_parsers())
    text = "\n".join(problems)
    assert "the table of fsck names --lookahead-window" in text
    assert "serve-keymanager --heartbeat-interval is missing" in text
    assert "serve-keymanager --secret is missing" in text
    assert "top --follow is missing" in text
    assert "--no-such-flag" not in text
    assert "fsck --" not in text  # every fsck flag has its row
    assert "loadgen" not in text  # the table names `top` only


def test_runbook_flag_tables_match_the_cli():
    tool = _tool("check_docs")
    assert tool.flag_table_problems(tool.RUNBOOK, tool._cli_parsers()) == []


def test_every_module_has_a_caller():
    result = _run("tools/check_callers.py")
    assert result.returncode == 0, (
        f"modules without a caller:\n{result.stderr}"
    )


def test_caller_gate_reports_a_planted_module(tmp_path):
    import shutil

    for directory in ("src", "tools", "perfbook", "benchmarks", "examples"):
        shutil.copytree(
            ROOT / directory,
            tmp_path / directory,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    package = tmp_path / "src" / "repro" / "utils"
    (package / "orphan.py").write_text("def unused():\n    return 1\n")
    init = package / "__init__.py"
    init.write_text(
        init.read_text() + "\nfrom repro.utils.orphan import unused\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_orphan.py").write_text(
        "from repro.utils.orphan import unused\n"
    )
    result = _run("tools/check_callers.py", "--root", str(tmp_path))
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        "repro.utils.orphan: imported only by tests or a package __init__"
    ]
