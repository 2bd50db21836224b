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
            not mono 16-bit PCM, declares a zero sample rate, or its data
            ends mid-sample or holds fewer samples than its header announces.
        SampleRateMismatch: the file's rate differs from ``expected_rate``.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh, wave.open(fh) as wf:
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
            # ``wave`` rounds the data size down to whole frames and reads no
            # further than the RIFF size, so a stray odd byte can vanish.  It
            # stops just past the data chunk's header: read the declared size
            # back from there.
            fh.seek(-4, 1)
            declared = int.from_bytes(fh.read(4), "little")
            raw = wf.readframes(num_frames)
    except wave.Error as exc:
        raise UnsupportedFormat(f"{path}: {exc}") from exc
    except EOFError as exc:
        raise UnsupportedFormat(f"{path}: truncated WAV header") from exc
    except OSError as exc:
        raise UnsupportedFormat(f"{path}: cannot read: {exc.strerror or exc}") from exc
    if rate == 0:
        raise UnsupportedFormat(f"{path}: header declares a sample rate of 0 Hz")
    if expected_rate is not None and rate != expected_rate:
        raise SampleRateMismatch(f"{path}: sample rate {rate}, expected {expected_rate}")
    if declared % 2 or len(raw) % 2:
        size = declared if declared % 2 else len(raw)
        raise UnsupportedFormat(f"{path}: data chunk ends mid-sample ({size} bytes)")
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
