"""Reading and writing mono 16-bit PCM WAV files."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import SampleRateMismatch, UnsupportedFormat
from .frontend import AudioSignal

_PCM16_SCALE = 32768.0


def load_audio(path, expected_rate: int | None = None) -> AudioSignal:
    """Read a mono 16-bit PCM WAV file into a float signal in [-1, 1).

    Raises:
        UnsupportedFormat: the file cannot be read, is not a RIFF/WAVE file,
            has a chunk that runs past the file or its RIFF size, lacks a
            ``fmt `` chunk before its ``data`` chunk, is not mono 16-bit PCM,
            declares a zero sample rate, or its data ends mid-sample or holds
            fewer samples than its header announces.
        SampleRateMismatch: the file's rate differs from ``expected_rate``.
    """
    path = Path(path)
    try:
        buf = path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", None) or exc
        raise UnsupportedFormat(f"{path}: cannot read: {reason}") from exc
    if len(buf) < 12:
        raise UnsupportedFormat(f"{path}: truncated WAV header")
    riff, riff_size, form = struct.unpack_from("<4sI4s", buf)
    if riff != b"RIFF" or form != b"WAVE":
        raise UnsupportedFormat(f"{path}: not a RIFF/WAVE file")
    # Walk the chunks up to ``data``; each must end by the file's end and the RIFF size.
    end, pos, fmt = min(len(buf), 8 + riff_size), 12, b""
    while True:
        if pos + 8 > end:
            raise UnsupportedFormat(f"{path}: no data chunk")
        name, size = struct.unpack_from("<4sI", buf, pos)
        pos += 8
        if name == b"data":
            break
        if pos + size > end:
            raise UnsupportedFormat(f"{path}: {name!r} chunk of {size} bytes runs past "
                                    "the file or its RIFF size")
        if name == b"fmt ":
            fmt = buf[pos : pos + size]
        pos += size + size % 2  # a chunk of odd size is followed by a pad byte
    if len(fmt) < 16:
        raise UnsupportedFormat(f"{path}: no complete fmt chunk before the data chunk")
    tag, channels, rate, bits = struct.unpack_from("<HHI6xH", fmt)
    if tag != 1:
        raise UnsupportedFormat(f"{path}: expected PCM audio, got format tag {tag}")
    if channels != 1:
        raise UnsupportedFormat(f"{path}: expected mono audio, got {channels} channels")
    if bits != 16:
        raise UnsupportedFormat(f"{path}: expected 16-bit samples, got {bits}-bit")
    if rate == 0:
        raise UnsupportedFormat(f"{path}: header declares a sample rate of 0 Hz")
    if expected_rate is not None and rate != expected_rate:
        raise SampleRateMismatch(f"{path}: sample rate {rate}, expected {expected_rate}")
    raw = buf[pos : min(pos + size, end)]
    if size % 2 or len(raw) % 2:
        odd = size if size % 2 else len(raw)
        raise UnsupportedFormat(f"{path}: data chunk ends mid-sample ({odd} bytes)")
    if len(raw) < size:
        raise UnsupportedFormat(
            f"{path}: truncated data chunk: header announces {size // 2} samples, "
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
    data = np.clip(np.rint(signal.samples * _PCM16_SCALE), -32768, 32767).astype("<i2").tobytes()
    # The 44-byte header ``wave`` writes: fmt is PCM, mono, rate, byte rate, block align, bits.
    header = struct.pack("<4sI8sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVEfmt ", 16, 1, 1,
                         signal.sample_rate, 2 * signal.sample_rate, 2, 16, b"data", len(data))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_bytes(header + data)
