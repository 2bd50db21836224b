"""Closed-set speaker identification from fused spectral and residual streams.

The pipeline frames 8 kHz speech, extracts a cepstral stream (MFCC, LFCC,
or LPCC) and a residual-moment stream (central moments of the peak-normalized
linear-prediction residual), models each stream per speaker with a diagonal
Gaussian mixture, and fuses the two log-likelihood totals with a convex
weight before the argmax decision.

The package root exports the command-level entry points; the building
blocks (``sidkit.lpc``, ``sidkit.gmm``, ``sidkit.identify``, ...) are
imported from their modules.
"""

from .commands import evaluate_command, identify_command, train_command
from .config import ToolkitConfig, load_config
from .corpus import read_manifest
from .errors import SidkitError
from .store import ModelStore

__version__ = "0.1.0"

__all__ = [
    "ModelStore",
    "SidkitError",
    "ToolkitConfig",
    "evaluate_command",
    "identify_command",
    "load_config",
    "read_manifest",
    "train_command",
]
