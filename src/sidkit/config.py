"""Toolkit configuration: defaults, INI-style config files, CLI overrides.

Every tunable constant of the pipeline lives here so that a single text
file fully determines a run.  Defaults target 8 kHz speech: 20 ms frames
with 50% overlap, 0.97 pre-emphasis, order-17 prediction for the residual
stream, 6 residual moments, 19 cepstra from a 20-filter bank, 10 EM
iterations, and equal-weight score fusion.
"""

from __future__ import annotations

import configparser
import io
import math
import numbers
from dataclasses import dataclass, fields

# What each field annotation admits, and how its error describes it.
_FIELD_TYPES = {
    "int": (numbers.Integral, int, "an int"),
    "float": (numbers.Real, float, "a finite float"),
    "str": (str, str, "a str"),
}


def _check_field_types(cfg) -> None:
    """Refuse a config field that ``parse_config`` could not have read for
    its annotation: an ``int`` field takes an integer, a ``float`` field a
    finite real number, neither takes a ``bool``, and a ``str`` field takes
    a string (a ``ToolkitConfig`` field, its section's class).  Each value
    is stored as its annotation's type, so it renders as it parses.

    Raises:
        ValueError: naming ``[section] key`` and the value.
    """
    section = type(cfg).__name__.removesuffix("Config").lower()
    for field in fields(cfg):
        # A ToolkitConfig field's default is an instance of its section's class.
        kind, convert, description = _FIELD_TYPES.get(
            field.type, (type(field.default), lambda value: value, f"a {field.type}")
        )
        value = getattr(cfg, field.name)
        if (not isinstance(value, kind) or isinstance(value, bool)
                or (convert is float and not math.isfinite(value))):
            raise ValueError(f"[{section}] {field.name} = {value!r} is not {description}")
        object.__setattr__(cfg, field.name, convert(value))


@dataclass(frozen=True)
class PreprocessConfig:
    """Silence removal, pre-emphasis, and framing parameters."""

    pre_emphasis: float = 0.97
    frame_len: int = 160
    frame_shift: int = 80
    silence_energy_ratio: float = 0.06

    def __post_init__(self):
        _check_field_types(self)
        if not 0.0 <= self.pre_emphasis < 1.0:
            raise ValueError(f"pre_emphasis must be in [0, 1), got {self.pre_emphasis}")
        if not 0 < self.frame_shift <= self.frame_len:
            raise ValueError(
                f"need 0 < frame_shift <= frame_len, got {self.frame_shift}/{self.frame_len}"
            )
        if self.silence_energy_ratio < 0.0:
            raise ValueError(f"silence_energy_ratio must be >= 0, got {self.silence_energy_ratio}")


@dataclass(frozen=True)
class ResidualConfig:
    """Residual-moment stream parameters."""

    lp_order: int = 17
    num_moments: int = 6

    def __post_init__(self):
        _check_field_types(self)
        if self.lp_order < 1:
            raise ValueError("lp_order must be >= 1")
        if self.num_moments < 1:
            raise ValueError("num_moments must be >= 1")


@dataclass(frozen=True)
class SpectralConfig:
    """Spectral stream parameters (mfcc, lfcc, or lpcc)."""

    kind: str = "mfcc"
    num_filters: int = 20
    num_cepstra: int = 19
    fft_size: int = 256
    lpcc_lp_order: int = 19

    def __post_init__(self):
        _check_field_types(self)
        if self.kind not in ("mfcc", "lfcc", "lpcc"):
            raise ValueError(f"spectral kind must be mfcc, lfcc, or lpcc, got {self.kind!r}")
        if self.num_cepstra < 1:
            raise ValueError(f"num_cepstra must be >= 1, got {self.num_cepstra}")
        if self.kind == "lpcc" and self.lpcc_lp_order < 1:
            raise ValueError(f"lpcc_lp_order must be >= 1, got {self.lpcc_lp_order}")
        if self.kind != "lpcc" and self.num_cepstra >= self.num_filters:
            raise ValueError("num_cepstra must be < num_filters (dc term is discarded)")


@dataclass(frozen=True)
class ModelConfig:
    """Mixture-model sizes and training schedule."""

    m_spectral: int = 8
    m_residual: int = 8
    em_iterations: int = 10
    variance_floor_factor: float = 0.01
    lbg_split_epsilon: float = 0.02

    def __post_init__(self):
        _check_field_types(self)
        # Binary-splitting initialization doubles the component count.
        for key in ("m_spectral", "m_residual"):
            m = getattr(self, key)
            if m < 1 or m & (m - 1):
                raise ValueError(f"{key} must be a power of two, got {m}")
        if self.em_iterations < 1:
            raise ValueError("em_iterations must be >= 1")
        if self.variance_floor_factor < 0.0:
            raise ValueError(
                f"variance_floor_factor must be >= 0, got {self.variance_floor_factor}"
            )
        if self.lbg_split_epsilon <= 0.0:
            raise ValueError(f"lbg_split_epsilon must be > 0, got {self.lbg_split_epsilon}")


@dataclass(frozen=True)
class FusionConfig:
    """Score-level fusion parameters."""

    eta: float = 0.5

    def __post_init__(self):
        _check_field_types(self)
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")


@dataclass(frozen=True)
class ToolkitConfig:
    """Complete configuration for train / evaluate / identify runs."""

    preprocess: PreprocessConfig = PreprocessConfig()
    residual: ResidualConfig = ResidualConfig()
    spectral: SpectralConfig = SpectralConfig()
    model: ModelConfig = ModelConfig()
    fusion: FusionConfig = FusionConfig()

    def __post_init__(self):
        _check_field_types(self)
        # Each frame must be longer than every predictor order it feeds, and
        # a filterbank's frame must fit its FFT.
        frame_len = self.preprocess.frame_len
        if frame_len <= self.residual.lp_order:
            raise ValueError(
                f"[preprocess] frame_len = {frame_len} must exceed "
                f"[residual] lp_order = {self.residual.lp_order}"
            )
        if self.spectral.kind == "lpcc":
            if frame_len <= self.spectral.lpcc_lp_order:
                raise ValueError(
                    f"[preprocess] frame_len = {frame_len} must exceed "
                    f"[spectral] lpcc_lp_order = {self.spectral.lpcc_lp_order}"
                )
        elif frame_len > self.spectral.fft_size:
            raise ValueError(
                f"[preprocess] frame_len = {frame_len} must not exceed "
                f"[spectral] fft_size = {self.spectral.fft_size}"
            )


# Each section's name and class, in file order.
_SECTIONS = {f.name: type(f.default) for f in fields(ToolkitConfig)}

# What each configparser syntax error means for the line it names.
_SYNTAX_ERRORS = {
    configparser.MissingSectionHeaderError: "comes before any [section] header",
    configparser.DuplicateSectionError: "repeats a section",
    configparser.DuplicateOptionError: "repeats a key of its section",
}


def parse_config(text: str) -> ToolkitConfig:
    """Parse INI-style configuration text, falling back to defaults per key."""
    # No interpolation: a "%" in a value is the value, not a substitution.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        # ParsingError lists the lines it could not read; the others carry one.
        lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
        line = text.split("\n")[lineno - 1].strip()
        reason = _SYNTAX_ERRORS.get(type(exc), "is not 'key = value'")
        raise ValueError(f"malformed config: line {lineno}: {line!r} {reason}") from exc

    getters = {
        "int": parser.getint, "float": parser.getfloat, "str": parser.get,
        "boolean": parser.getboolean,
    }

    def typed(section: str, key: str, kind: str):
        try:
            return getters[kind](section, key)
        except ValueError:
            article = "an" if kind == "int" else "a"
            raise ValueError(
                f"[{section}] {key} = {parser.get(section, key)!r} is not {article} {kind}"
            ) from None

    kwargs = {}
    for section, cls in _SECTIONS.items():
        known = {f.name: f.type for f in fields(cls)}
        values = {}
        if parser.has_section(section):
            for key in parser.options(section):
                # Older stores and default files hold this removed key, false.
                if (section, key) == ("fusion", "per_frame_average"):
                    if typed(section, key, "boolean"):
                        raise ValueError(
                            "[fusion] per_frame_average = true is no longer supported: "
                            "stream scores are always sums over frames"
                        )
                    continue
                if key not in known:
                    raise ValueError(f"unknown config key [{section}] {key}")
                values[key] = typed(section, key, known[key])
        kwargs[section] = cls(**values)
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}]")
    return ToolkitConfig(**kwargs)


def render_config(cfg: ToolkitConfig) -> str:
    """Every key of ``cfg`` as INI text that ``parse_config`` reads back exactly."""
    lines = []
    for section in _SECTIONS:
        values = getattr(cfg, section)
        lines.append(f"[{section}]")
        lines += [f"{f.name} = {getattr(values, f.name)}" for f in fields(values)]
        lines.append("")
    return "\n".join(lines)


def load_config(path) -> ToolkitConfig:
    """Load a configuration file from disk; a leading UTF-8 BOM is skipped.

    Raises:
        ValueError: the file cannot be read or is not a valid config; the
            message starts with the path.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ValueError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except ValueError as exc:  # also a file that is not UTF-8
        raise ValueError(f"{path}: {exc}") from exc


# The comment lines the default file puts above each key.
_NOTES = {
    "pre_emphasis": "First-order pre-emphasis factor applied after silence removal.",
    "frame_len": "Frame length and shift in samples: 20 ms frames, 50% overlap at 8 kHz.",
    "silence_energy_ratio": "A block is kept when its mean-square energy exceeds this "
    "fraction of the\nutterance-average block energy.",
    "lp_order": "Predictor order for the residual stream.",
    "num_moments": "Central moments per frame, orders 2 .. num_moments+1.",
    "kind": "Spectral stream: mfcc, lfcc, or lpcc.",
    "num_cepstra": "Cepstra retained after discarding the dc coefficient.",
    "lpcc_lp_order": "Predictor order when the spectral stream is lpcc.",
    "m_spectral": "Mixture components per stream.",
    "variance_floor_factor": "Variance floor as a fraction of the global per-dimension variance.",
    "lbg_split_epsilon": "Relative centroid perturbation used by binary-splitting initialization.",
    "eta": "Weight on the spectral stream; the residual stream gets 1 - eta.",
}


def _default_config_text() -> str:
    """``render_config`` of the defaults, with each key's notes above it."""
    lines = ["# sidkit configuration. Omitted keys keep their defaults.", ""]
    for line in render_config(ToolkitConfig()).splitlines():
        note = _NOTES.get(line.split(" = ")[0])
        if note:
            lines += [f"# {text}" for text in note.splitlines()]
        lines.append(line)
    return "\n".join(lines) + "\n"


DEFAULT_CONFIG_TEXT = _default_config_text()
