"""Model persistence: one model file for every enrolled speaker, plus the training config.

A store directory is ``config.ini`` and ``models.bin``; other files are
ignored.  ``models.bin`` holds both streams of every enrolled speaker as
stacked arrays, one row per speaker in sorted order.  ``save`` merges the
(spectral, residual) ``GmmStack`` pair of one train into the stored rows
(a re-enrolled id replaces its row) and commits with one ``os.replace``,
so a failed save leaves the previous store and no temp file.  A store
takes one writer at a time: of two concurrent trains, the last commit
wins.  ``load(stream)`` reads the file and checks that stream against
``config.ini``; ``banks()`` is the pair of loads, kept until the next ``save``.

``config.ini`` starts with ``# sample_rate: <Hz>`` and then holds the
``ToolkitConfig`` (as ``render_config`` writes it) that every model was
trained with, the source of scoring's front end, widths, fusion settings
and each stream's kind.  A directory of the ``<speaker>__<stream>.gmm``
records that older versions wrote has to be retrained.

Model file layout (little-endian): magic ``SIDS``, u16 format version and
each stream's u32 S, M and D; each stream's kind, then the S speaker ids in
increasing order, each text as a u32 byte count and UTF-8; each stream's
``(S, M)`` weights and ``(S, M, D)`` means and variances as float64; and a
CRC32 of every byte before it.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .config import ToolkitConfig, parse_config, render_config
from .errors import ConfigMismatch, MissingModel, SampleRateMismatch, StoreIntegrityError, named
from .gmm import GmmStack, ModelBank

MAGIC = b"SIDS"
FORMAT_VERSION = 2

CONFIG_NAME = "config.ini"
MODELS_NAME = "models.bin"
RATE_PREFIX = "# sample_rate:"
STREAMS = ("spectral", "residual")
RESIDUAL_KIND = "residual_moments"
# The key of each stream's section that gives its feature width.
WIDTH_KEYS = {"spectral": "num_cepstra", "residual": "num_moments"}


def _stream_index(stream: str) -> int:
    """``stream``'s place in ``STREAMS``; ``ValueError`` for any other name."""
    if stream not in STREAMS:
        raise ValueError(f"unknown stream {stream!r}, expected one of {STREAMS}")
    return STREAMS.index(stream)


def _pack(speakers: list[str], streams: list[tuple]) -> bytes:
    """The model file of the sorted ``speakers`` and each stream's (kind,
    weights, means, variances), one row per speaker."""
    shapes = [n for _, _, means, _ in streams for n in means.shape]
    parts = [MAGIC, struct.pack("<H6I", FORMAT_VERSION, *shapes)]
    for text in [kind for kind, *_ in streams] + speakers:
        parts += [struct.pack("<I", len(text.encode("utf-8"))), text.encode("utf-8")]
    for _, *arrays in streams:
        parts += [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays]
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def _unpack(data: bytes) -> tuple[list[str], list[tuple]]:
    """Parse and checksum-validate a model file: the speakers and each
    stream's (kind, weights, means, variances), arrays read-only.
    ``StoreIntegrityError`` for bad magic, truncation, a checksum mismatch
    or a header that does not fit the file."""
    end, offset = len(data) - 4, len(MAGIC) + struct.calcsize("<H6I")
    if end < offset or data[:4] != MAGIC:
        raise StoreIntegrityError("not a model file (bad magic or truncated)")
    if zlib.crc32(data[:end]) != struct.unpack_from("<I", data, end)[0]:
        raise StoreIntegrityError("checksum mismatch (corrupt or truncated file)")
    version, *dims = struct.unpack_from("<H6I", data, 4)
    if version != FORMAT_VERSION:
        raise StoreIntegrityError(f"unsupported format version {version}")
    texts = []
    while len(texts) < len(STREAMS) + dims[0]:
        if offset + 4 > end:
            raise StoreIntegrityError("header runs past the file")
        (size,) = struct.unpack_from("<I", data, offset)
        texts.append(data[offset + 4 : offset + 4 + size])
        offset += 4 + size
    try:
        texts = [text.decode("utf-8") for text in texts]
    except UnicodeDecodeError:
        raise StoreIntegrityError("header text is not UTF-8") from None
    kinds, speakers = texts[:2], texts[2:]
    shapes = [dims[:3], dims[3:]]
    if not speakers or speakers != sorted(set(speakers)) or shapes[1][0] != len(speakers):
        raise StoreIntegrityError("speaker ids are not one per row, strictly increasing")
    if offset + sum(8 * s * m * (1 + 2 * d) for s, m, d in shapes) != end:
        raise StoreIntegrityError("file length does not match header")
    streams = []
    for kind, (s, m, d) in zip(kinds, shapes):
        arrays = []
        for shape in ((s, m), (s, m, d), (s, m, d)):
            arrays.append(np.frombuffer(data, "<f8", math.prod(shape), offset).reshape(shape))
            offset += 8 * math.prod(shape)
        streams.append((kind, *arrays))
    return speakers, streams


def _write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` in one step, so a failed write leaves the old file
    and no temp file."""
    temp = path.with_name(path.name + ".tmp")
    try:
        temp.write_bytes(data)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


class ModelStore:
    """Directory of one model file and the training config."""

    def __init__(self, path):
        self.path = Path(path)
        self.sample_rate: int | None = None
        self._config: ToolkitConfig | None = None
        self._banks: tuple[ModelBank, ModelBank] | None = None
        data = self._read(CONFIG_NAME)
        if data is not None:
            try:
                text = data.decode("utf-8")
                head = text.partition("\n")[0]
                if not head.startswith(RATE_PREFIX):
                    raise ValueError(f"first line is not '{RATE_PREFIX} <Hz>'; retrain this store")
                self.sample_rate = int(head[len(RATE_PREFIX) :])
                self._config = parse_config(text)
            except ValueError as exc:
                raise StoreIntegrityError(f"{self.path / CONFIG_NAME}: {exc}") from exc

    def _read(self, name: str) -> bytes | None:
        """The bytes of the store's file ``name``, None if there is none: the
        one place the store reads its path.  ``StoreIntegrityError`` if the
        path is not a directory or cannot be a path (it holds a NUL byte)."""
        try:
            return (self.path / name).read_bytes()
        except FileNotFoundError:
            return None
        except NotADirectoryError:
            raise StoreIntegrityError(f"model store at {self.path} is not a directory") from None
        except ValueError as exc:
            raise StoreIntegrityError(f"model store at {str(self.path)!r}: {exc}") from None

    @property
    def config(self) -> ToolkitConfig:
        """The config the store's models were trained with."""
        if self._config is None:
            raise StoreIntegrityError(f"store at {self.path} records no training config "
                                      f"({CONFIG_NAME})")
        return self._config

    def bind(self, cfg: ToolkitConfig, sample_rate: int) -> None:
        """Make ``cfg`` and ``sample_rate`` the parameters of models saved next.

        Raises (before any write):
            StoreIntegrityError: the store path is not a directory, its model
                file is damaged or older records need retraining, or it
                holds models but records no config.
            ConfigMismatch, SampleRateMismatch: its models were trained
                under another config or at another rate.
        """
        if self.speakers():
            if self.config != cfg:
                pairs = zip(*(render_config(c).splitlines() for c in (self.config, cfg)))
                changed = "; ".join(f"{a} (not {b.split(' = ')[1]})" for a, b in pairs if a != b)
                raise ConfigMismatch(f"store {self.path} was trained with {changed}")
            if self.sample_rate != sample_rate:
                raise SampleRateMismatch(f"store {self.path} was trained at "
                                         f"{self.sample_rate} Hz, not {sample_rate}")
        self._config, self.sample_rate = cfg, sample_rate

    def kind(self, stream: str) -> str:
        """The feature kind the store's config puts in ``stream``."""
        return RESIDUAL_KIND if _stream_index(stream) else self.config.spectral.kind

    def _models(self) -> tuple[list[str], list[tuple]] | None:
        """``_unpack`` of the model file; None if there is none."""
        data = self._read(MODELS_NAME)
        if data is None:
            if any(self.path.glob("*.gmm")):
                raise StoreIntegrityError(f"model store at {self.path} holds *.gmm records of "
                                          f"an older sidkit and no {MODELS_NAME}; retrain it")
            return None
        with named(self.path / MODELS_NAME):
            return _unpack(data)

    def _check(self, stream: str, speakers: list[str], stored: tuple) -> None:
        """Refuse ``stream``'s stored models unless they have the kind, M and
        D that ``config.ini`` gives it and every row is a valid mixture."""
        path, expected = self.path / MODELS_NAME, self.kind(stream)
        kind, weights, means, variances = stored
        if kind != expected:
            raise ConfigMismatch(f"{path}: the {stream} models hold {kind} features, "
                                 f"but {CONFIG_NAME} says {expected}")
        for section, key, value, noun in (
            ("model", f"m_{stream}", means.shape[1], "components"),
            (stream, WIDTH_KEYS[stream], means.shape[2], "dimensions"),
        ):
            expected = getattr(getattr(self.config, section), key)
            if value != expected:
                raise ConfigMismatch(f"{path}: the {stream} models have {value} {noun}, "
                                     f"but {CONFIG_NAME} says {key} = {expected}")
        # NaN fails every comparison, and an infinite weight breaks the sum.
        valid = ((weights >= 0).all(1) & (np.abs(weights.sum(1) - 1.0) <= 1e-9)
                 & np.isfinite(means).all((1, 2)) & (variances > 0).all((1, 2))
                 & (variances < np.inf).all((1, 2)))
        if not valid.all():
            raise StoreIntegrityError(
                f"{path}: the {stream} model of speaker {speakers[valid.argmin()]!r} is not a "
                "mixture: it needs finite parameters, weights >= 0 summing to 1, variances > 0"
            )

    def speakers(self) -> list[str]:
        """The enrolled speaker ids, sorted, read from the model file."""
        models = self._models()
        return models[0] if models else []

    def save(self, speakers, spectral: GmmStack, residual: GmmStack) -> None:
        """Enrol ``speakers``, one row of each stack apiece, and commit the
        merged model file with one ``os.replace``.  A store without a model
        file first (re)writes ``config.ini``, so a config left by a train
        that failed before its commit is never taken for the models' own.

        Raises:
            ValueError: the ids repeat, or a stack has another row count.
        """
        ids, stacks = list(speakers), (spectral, residual)
        if len(set(ids)) != len(ids) or any(len(s.weights) != len(ids) for s in stacks):
            raise ValueError(f"need one row of each stack per distinct speaker, got {ids}")
        streams = [(self.kind(stream), s.weights, s.means, s.variances)
                   for stream, s in zip(STREAMS, stacks)]
        old = self._models()
        if old is None:
            self.path.mkdir(parents=True, exist_ok=True)
            text = f"{RATE_PREFIX} {self.sample_rate}\n" + render_config(self.config)
            _write_atomic(self.path / CONFIG_NAME, text.encode("utf-8"))
        else:
            for stream, stored in zip(STREAMS, old[1]):
                self._check(stream, old[0], stored)
            ids = old[0] + ids
            streams = [(kind, *map(np.concatenate, zip(was, new)))
                       for (kind, *new), (_, *was) in zip(streams, old[1])]
        rows = {speaker: i for i, speaker in enumerate(ids)}  # a re-enrolled id's new row wins
        order = [rows[speaker] for speaker in sorted(rows)]
        streams = [(kind, *(a[order] for a in arrays)) for kind, *arrays in streams]
        _write_atomic(self.path / MODELS_NAME, _pack(sorted(rows), streams))
        self._banks = None

    def load(self, stream: str) -> ModelBank:
        """Read the model file and return ``stream``'s bank of every enrolled
        speaker, once ``_check`` accepts it.  ``ValueError`` for an unknown
        stream, before any read; ``MissingModel`` if the store's directory
        does not exist or holds no model file."""
        index = _stream_index(stream)
        models = self._models()
        if models is None:
            state = "is empty" if self.path.is_dir() else "does not exist"
            raise MissingModel(f"model store at {self.path} {state}")
        speakers, streams = models
        stored = streams[index]
        self._check(stream, speakers, stored)
        return ModelBank(speakers, *stored[1:])

    def banks(self) -> tuple[ModelBank, ModelBank]:
        """The (spectral, residual) banks of every enrolled speaker, one
        ``load`` per stream, kept until the next ``save``."""
        if self._banks is None:
            self._banks = tuple(self.load(stream) for stream in STREAMS)
        return self._banks
