"""What ``import repro`` costs every process.

The runtime depends on numpy alone; SciPy is a dev-only oracle
(``tests/core/test_tuning.py``, ``tests/core/test_kld.py``). Each server
and client process pays for whatever the package imports, so a stray
heavyweight import is a regression even when every test still passes.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_runtime_imports_leave_scipy_out():
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import repro.cli, repro.tedstore.client, repro.tedstore.network\n"
            "sys.exit('scipy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr or "scipy was imported"
