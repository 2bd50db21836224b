"""Reading and writing mono 16-bit PCM WAV files."""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

from .errors import SampleRateMismatch, UnsupportedFormat
from .frontend import AudioSignal

_PCM16_SCALE = 32768.0


def load_audio(path, expected_rate: int | None = None) -> AudioSignal:
    """Read a mono 16-bit PCM WAV file into a float signal in [-1, 1).

    Raises:
        UnsupportedFormat: the file cannot be read, is not a WAV file, is
            not mono 16-bit PCM, or its data ends mid-sample or holds fewer
            samples than its header announces.
        SampleRateMismatch: the file's rate differs from ``expected_rate``.
    """
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getcomptype() != "NONE":
                raise UnsupportedFormat(f"{path}: compressed WAV is not supported")
            if wf.getnchannels() != 1:
                raise UnsupportedFormat(
                    f"{path}: expected mono audio, got {wf.getnchannels()} channels"
                )
            if wf.getsampwidth() != 2:
                raise UnsupportedFormat(
                    f"{path}: expected 16-bit samples, got {8 * wf.getsampwidth()}-bit"
                )
            rate = wf.getframerate()
            num_frames = wf.getnframes()
            raw = wf.readframes(num_frames)
    except wave.Error as exc:
        raise UnsupportedFormat(f"{path}: {exc}") from exc
    except EOFError as exc:
        raise UnsupportedFormat(f"{path}: truncated WAV header") from exc
    except OSError as exc:
        raise UnsupportedFormat(f"{path}: cannot read: {exc.strerror or exc}") from exc
    if expected_rate is not None and rate != expected_rate:
        raise SampleRateMismatch(f"{path}: sample rate {rate}, expected {expected_rate}")
    if len(raw) % 2:
        raise UnsupportedFormat(f"{path}: data chunk ends mid-sample ({len(raw)} bytes)")
    if len(raw) < 2 * num_frames:
        raise UnsupportedFormat(
            f"{path}: truncated data chunk: header announces {num_frames} samples, "
            f"file holds {len(raw) // 2}"
        )
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / _PCM16_SCALE
    return AudioSignal(samples=samples, sample_rate=rate)


def save_audio(path, signal: AudioSignal) -> None:
    """Write a float signal to a mono 16-bit PCM WAV file.

    Values are scaled by 32768, rounded to nearest, and clipped to the
    16-bit range, so samples read back by :func:`load_audio` round-trip
    exactly.
    """
    ints = np.clip(
        np.rint(signal.samples * _PCM16_SCALE), -32768, 32767
    ).astype("<i2")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(signal.sample_rate)
        wf.writeframes(ints.tobytes())
