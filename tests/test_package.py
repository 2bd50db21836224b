"""The package root: its exported names and what importing it loads."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sidkit

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves():
    assert sidkit.__all__
    for name in sidkit.__all__:
        assert getattr(sidkit, name) is not None, name


@pytest.mark.parametrize(
    "module", ["frontend", "lpc", "residual_moments", "spectral", "gmm", "identify", "commands"]
)
def test_pipeline_functions_hold_no_operating_point(module):
    """The config dataclasses are the one copy of the operating point: a
    pipeline stage takes its config section, and a public function's
    parameter defaults, if any, are None."""
    mod = importlib.import_module(f"sidkit.{module}")
    functions = {
        name: inspect.unwrap(obj) for name, obj in vars(mod).items()
        if not name.startswith("_") and inspect.isfunction(inspect.unwrap(obj))
        and obj.__module__ == mod.__name__
    }
    assert functions
    defaults = [
        f"{name}({p.name}={p.default!r})"
        for name, fn in functions.items()
        for p in inspect.signature(fn).parameters.values()
        if p.default is not p.empty and p.default is not None
    ]
    assert defaults == []


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


def test_train_evaluate_identify_run_without_scipy(tmp_path):
    """Every spectral kind trains, evaluates and identifies with scipy blocked
    in a fresh interpreter, on a corpus synthesized beforehand."""
    from sidkit.corpus import default_speaker_specs, generate_synthetic_corpus

    corpus = generate_synthetic_corpus(
        default_speaker_specs(2, seed=1), train_utts=2, test_utts=1,
        utt_seconds=1.0, seed=1, out_dir=tmp_path / "corpus",
    )
    code = f"""
import sys
sys.modules["scipy"] = None
from sidkit import ToolkitConfig, evaluate_command, identify_command, read_manifest, train_command
from sidkit.config import SpectralConfig
manifest = read_manifest({str(tmp_path / "corpus" / "manifest.tsv")!r})
for kind in ("mfcc", "lfcc", "lpcc"):
    cfg = ToolkitConfig(spectral=SpectralConfig(kind=kind))
    store = train_command(manifest, cfg, {str(tmp_path)!r} + "/models-" + kind)
    run = evaluate_command(manifest, store)
    result = identify_command({str(corpus.test_entries[0].path)!r}, store)
    print(kind, run.fused.num_trials, result.decided_id)
"""
    lines = [line.split() for line in _run_fresh(code).splitlines()]
    assert [(kind, trials) for kind, trials, _ in lines] == [
        ("mfcc", "2"), ("lfcc", "2"), ("lpcc", "2")
    ]
    assert all(decided in corpus.speakers() for _, _, decided in lines)
