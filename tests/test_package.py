"""The package root: its exported names and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import sidkit

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves():
    assert sidkit.__all__
    for name in sidkit.__all__:
        assert getattr(sidkit, name) is not None, name


def _run_fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports from src/."""
    return subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout


def test_commands_import_does_not_load_scipy_signal():
    """scipy.signal is imported only when a corpus is synthesized."""
    code = (
        "import sys; import sidkit, sidkit.commands; "
        "print('scipy.signal' in sys.modules)"
    )
    assert _run_fresh(code).strip() == "False"


def test_package_import_loads_no_scipy():
    """Training, scoring and the CLI run on numpy alone; scipy is for synthesis."""
    code = (
        "import sys; import sidkit, sidkit.commands, sidkit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _run_fresh(code).strip() == "[]"
