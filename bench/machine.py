"""Process set-up shared by the runner and the smoke check.

Nothing here imports numpy at module import time: the thread caps must be
in the environment before numpy (and its BLAS) is first loaded.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads() -> int:
    """Cap every BLAS/OpenMP pool at nproc (a lower preset cap is kept)."""
    cap = nproc()
    for var in THREAD_VARS:
        try:
            preset = int(os.environ.get(var, ""))
        except ValueError:
            preset = cap
        os.environ[var] = str(max(1, min(preset, cap)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


class MissingSource(RuntimeError):
    """The checkout has no sidkit sources to benchmark."""


def import_sidkit() -> tuple[object, float]:
    """Import sidkit from this checkout's ``src`` (never an installed copy).

    Returns the package and the wall seconds the imports took.
    """
    if not (SRC / "sidkit" / "__init__.py").is_file():
        raise MissingSource(f"no sidkit package under {SRC}")
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import sidkit
    import sidkit.commands  # noqa: F401  (binds every layer module)

    elapsed = time.perf_counter() - start
    if not Path(sidkit.__file__).resolve().is_relative_to(SRC):
        raise MissingSource(f"sidkit was imported from {sidkit.__file__}, not {SRC}")
    return sidkit, elapsed


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_facts(thread_cap: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        # OpenBLAS sizes its pool from OPENBLAS_NUM_THREADS when it loads.
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "thread_cap": thread_cap,
        "git_commit": _git_commit(),
    }
