"""Corpus manifests and deterministic synthetic-corpus generation.

A manifest is a tab-separated text file, one utterance per line
(``speaker_id<TAB>utterance_id<TAB>path<TAB>split``), with ``#`` comments
and an optional ``# sample_rate: <hz>`` directive.

The synthetic corpus drives a jittered pulse train plus a noise floor
through a per-speaker stable all-pole filter, giving each speaker a
distinct spectral envelope and a distinct excitation pitch.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import save_audio
from .errors import ManifestError, SidkitError, UnstableFilter, named
from .frontend import AudioSignal, check_sample_rate

DEFAULT_SAMPLE_RATE = 8000

_SPLITS = ("train", "test")


@dataclass(frozen=True)
class ManifestEntry:
    speaker_id: str
    utterance_id: str
    path: Path
    split: str

    def __post_init__(self):
        if self.split not in _SPLITS:
            raise ManifestError(f"unknown split {self.split!r} (expected train or test)")
        if "\0" in str(self.path):
            raise ManifestError(f"path {str(self.path)!r} holds a NUL byte")


@dataclass(frozen=True)
class CorpusManifest:
    """Validated list of corpus entries plus the expected sample rate."""

    entries: tuple[ManifestEntry, ...]
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        check_sample_rate(self.sample_rate, ManifestError)
        seen: set[str] = set()
        for entry in self.entries:
            if entry.utterance_id in seen:
                raise ManifestError(f"duplicate utterance id {entry.utterance_id!r}")
            seen.add(entry.utterance_id)
        # Testing on training audio would score each speaker on its own data.
        # realpath costs ~20 us a path, so a manifest without tests skips it.
        tests = self.test_entries
        train_paths = {os.path.realpath(e.path): e.utterance_id
                       for e in self.train_entries} if tests else {}
        for entry in tests:
            train_id = train_paths.get(os.path.realpath(entry.path))
            if train_id is not None:
                raise ManifestError(
                    f"test utterance {entry.utterance_id!r} reads the file of train "
                    f"utterance {train_id!r}: {entry.path}"
                )
        train = {e.speaker_id for e in self.entries if e.split == "train"}
        test = {e.speaker_id for e in self.entries if e.split == "test"}
        if not test <= train:
            missing = sorted(test - train)
            raise ManifestError(
                f"test speakers missing from the train split: {missing}"
            )

    @property
    def train_entries(self) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == "train"]

    @property
    def test_entries(self) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == "test"]

    def speakers(self) -> list[str]:
        return sorted({e.speaker_id for e in self.entries})


def read_manifest(path) -> CorpusManifest:
    """Parse a manifest file; relative audio paths resolve against its directory.

    A leading UTF-8 byte-order mark is skipped.

    Raises:
        ManifestError: the file cannot be read as UTF-8 text, a line is
            malformed (named with its line number), or the entries break a
            manifest rule (named with the file).
    """
    path = Path(path)
    root = path.parent
    sample_rate = DEFAULT_SAMPLE_RATE
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ManifestError(f"cannot read manifest {path}: {reason}") from exc
    entries = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# sample_rate:"):
                try:
                    sample_rate = int(line.split(":", 1)[1])
                except ValueError as exc:
                    raise ManifestError(f"{path}:{lineno}: bad sample_rate directive") from exc
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ManifestError(
                f"{path}:{lineno}: expected 4 tab-separated fields, got {len(fields)}"
            )
        speaker_id, utterance_id, audio_path, split = fields
        audio = Path(audio_path)
        if not audio.is_absolute():
            audio = root / audio
        with named(f"{path}:{lineno}"):
            entries.append(ManifestEntry(speaker_id, utterance_id, audio, split))
    with named(path):
        return CorpusManifest(entries=tuple(entries), sample_rate=sample_rate)


def write_manifest(manifest: CorpusManifest, path) -> None:
    """Write a manifest; audio paths are stored relative to its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["# speaker_id\tutterance_id\tpath\tsplit", f"# sample_rate: {manifest.sample_rate}"]
    for entry in manifest.entries:
        try:
            rel = os.path.relpath(entry.path, path.parent)
        except ValueError:
            rel = str(entry.path)
        lines.append(f"{entry.speaker_id}\t{entry.utterance_id}\t{rel}\t{entry.split}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class SyntheticSpeakerSpec:
    """One synthetic voice: a stable all-pole envelope plus pitch parameters."""

    speaker_id: str
    filter_coeffs: np.ndarray
    pitch_period: int
    jitter: float = 0.02
    noise_floor: float = 0.01

    def __post_init__(self):
        coeffs = np.asarray(self.filter_coeffs, dtype=np.float64)
        object.__setattr__(self, "filter_coeffs", coeffs)
        roots = np.roots(np.concatenate(([1.0], coeffs)))
        if roots.size and np.max(np.abs(roots)) >= 1.0:
            raise UnstableFilter(
                f"speaker {self.speaker_id!r}: filter poles reach the unit circle"
            )
        if self.pitch_period < 20:
            raise ValueError(f"pitch period must be >= 20 samples, got {self.pitch_period}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must lie in [0, 1), got {self.jitter}")
        if self.noise_floor < 0.0:
            raise ValueError(f"noise floor must be >= 0, got {self.noise_floor}")


# Order of the all-pole vocal-tract filter of each default speaker.
SPEAKER_FILTER_ORDER = 17


def _coeffs_from_reflection(reflection: np.ndarray) -> np.ndarray:
    """Step-up recursion: reflection coefficients with |k| < 1 give a stable filter."""
    a = np.zeros(0)
    for k in reflection:
        a = np.concatenate((a + k * a[::-1], [k]))
    return a


def default_speaker_specs(num_speakers: int, seed: int = 0) -> list[SyntheticSpeakerSpec]:
    """Build well-separated synthetic speakers: random stable filters, spread pitch."""
    if num_speakers < 1:
        raise ValueError("need at least one speaker")
    periods = np.rint(np.linspace(40, 100, num_speakers)).astype(int)
    specs = []
    for i in range(num_speakers):
        rng = np.random.default_rng([seed, i])
        reflection = rng.uniform(-0.75, 0.75, size=SPEAKER_FILTER_ORDER)
        coeffs = _coeffs_from_reflection(reflection)
        specs.append(
            SyntheticSpeakerSpec(
                speaker_id=f"spk{i:02d}",
                filter_coeffs=coeffs,
                pitch_period=int(periods[i]),
            )
        )
    return specs


def synthesize_utterance(
    spec: SyntheticSpeakerSpec, num_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """One utterance: jittered pulse train + noise through the all-pole filter.

    The output is peak-normalized to 0.7 so PCM16 encoding never clips.
    """
    # Imported here: scipy.signal costs ~1 s to import and only synthesis uses it.
    try:
        from scipy.signal import lfilter
    except ImportError as exc:
        raise SidkitError(f"synthesis needs scipy: pip install sidkit[synth] ({exc})") from exc

    excitation = rng.standard_normal(num_samples) * spec.noise_floor
    first = int(rng.integers(0, spec.pitch_period))
    # Pulses are at least 2 samples apart, so (num_samples + 1) // 2 spacings
    # carry the train past the end; pulse k draws the k-th jitter uniform.
    jitter = rng.uniform(-1.0, 1.0, size=(num_samples + 1) // 2)
    spacings = np.maximum(np.rint(spec.pitch_period * (1.0 + spec.jitter * jitter)), 2)
    positions = np.cumsum(np.concatenate(([first], spacings.astype(np.int64))))
    excitation[positions[positions < num_samples]] += 1.0
    denom = np.concatenate(([1.0], spec.filter_coeffs))
    samples = lfilter([1.0], denom, excitation)
    peak = np.max(np.abs(samples))
    if peak > 0.0:
        samples = samples * (0.7 / peak)
    return samples


def generate_synthetic_corpus(
    specs: list[SyntheticSpeakerSpec],
    train_utts: int,
    test_utts: int,
    utt_seconds: float,
    seed: int,
    out_dir,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
) -> CorpusManifest:
    """Write per-speaker WAV files and a manifest; bit-identical for a given seed."""
    if train_utts < 1:
        raise ValueError("need at least one train utterance per speaker")
    if test_utts < 0:
        raise ValueError(f"test_utts must be >= 0, got {test_utts}")
    check_sample_rate(sample_rate, ValueError)
    num_samples = int(round(utt_seconds * sample_rate)) if np.isfinite(utt_seconds) else 0
    if num_samples < 1:
        raise ValueError(
            f"utt_seconds must be finite and give at least one sample at "
            f"{sample_rate} Hz, got {utt_seconds}"
        )
    out_dir = Path(out_dir)
    entries = []
    for spk_idx, spec in enumerate(specs):
        for utt_idx in range(train_utts + test_utts):
            rng = np.random.default_rng([seed, spk_idx, utt_idx])
            samples = synthesize_utterance(spec, num_samples, rng)
            utt_id = f"{spec.speaker_id}_{utt_idx:03d}"
            wav_path = out_dir / spec.speaker_id / f"{utt_id}.wav"
            save_audio(wav_path, AudioSignal(samples=samples, sample_rate=sample_rate))
            split = "train" if utt_idx < train_utts else "test"
            entries.append(
                ManifestEntry(
                    speaker_id=spec.speaker_id,
                    utterance_id=utt_id,
                    path=wav_path,
                    split=split,
                )
            )
    manifest = CorpusManifest(entries=tuple(entries), sample_rate=sample_rate)
    write_manifest(manifest, out_dir / "manifest.tsv")
    return manifest
