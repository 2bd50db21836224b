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


def test_commands_import_does_not_load_scipy_signal():
    """scipy.signal is imported only when a corpus is synthesized."""
    code = (
        "import sys; import sidkit, sidkit.commands; "
        "print('scipy.signal' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout
    assert out.strip() == "False"
