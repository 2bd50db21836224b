"""Model persistence: one binary record per model, a text index and the
training config.

The store owns the enrolled speakers: ``models()`` reads every speaker's
(spectral, residual) pair once per store, until the next ``save``.

``config.ini`` holds the ``ToolkitConfig`` (as ``render_config`` writes it)
that every model was trained with; scoring takes its front end, widths and
fusion settings from there, and each stream's feature kind comes from it
(``[spectral] kind``, or ``residual_moments``).  ``save`` writes that kind
into the record and the index; ``load`` rejects a record of another kind.

The index lists each model's speaker, stream, record file, feature kind,
dimension and component count.  Those columns are taken from the models
as they are saved (or from the index itself when a store is reopened), so
writing the index never re-reads a record.  Index and config are replaced
whole through a temp file and ``os.replace``; a torn record fails its
CRC32 instead.

Record layout (little-endian): magic ``SIDM``, u16 format version, u16
feature-kind length and UTF-8 bytes, u32 dimension, u32 component count,
then weights, means, and variances as float64, and a trailing CRC32 of
everything between the magic and the checksum.
"""

from __future__ import annotations

import os
import string
import struct
import zlib
from pathlib import Path

import numpy as np

from .config import ToolkitConfig, parse_config, render_config
from .errors import ConfigMismatch, MissingModel, SampleRateMismatch, StoreIntegrityError
from .gmm import GmmModel

MAGIC = b"SIDM"
FORMAT_VERSION = 1

INDEX_NAME = "index.tsv"
CONFIG_NAME = "config.ini"
STREAMS = ("spectral", "residual")
RESIDUAL_KIND = "residual_moments"
# Speaker-id bytes kept verbatim in record filenames.
_FILENAME_BYTES = frozenset((string.ascii_letters + string.digits + ".-").encode())


def model_to_bytes(model: GmmModel, kind: str) -> bytes:
    """Serialize one model of feature ``kind`` to the versioned binary record."""
    encoded = kind.encode("utf-8")
    payload = struct.pack("<HH", FORMAT_VERSION, len(encoded))
    payload += encoded
    payload += struct.pack("<II", model.dim, model.num_components)
    payload += model.weights.astype("<f8").tobytes()
    payload += model.means.astype("<f8").tobytes()
    payload += model.variances.astype("<f8").tobytes()
    checksum = zlib.crc32(payload) & 0xFFFFFFFF
    return MAGIC + payload + struct.pack("<I", checksum)


def model_from_bytes(data: bytes) -> tuple[str, GmmModel]:
    """Parse and checksum-validate one binary model record: (kind, model).

    Raises:
        StoreIntegrityError: bad magic, truncation, or checksum mismatch.
    """
    if len(data) < len(MAGIC) + 4 + 8 or data[:4] != MAGIC:
        raise StoreIntegrityError("not a model record (bad magic or truncated)")
    payload, (stored,) = data[4:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != stored:
        raise StoreIntegrityError("checksum mismatch (corrupt or truncated record)")
    version, kind_len = struct.unpack_from("<HH", payload, 0)
    if version != FORMAT_VERSION:
        raise StoreIntegrityError(f"unsupported format version {version}")
    offset = 4
    kind = payload[offset : offset + kind_len].decode("utf-8")
    offset += kind_len
    dim, num_components = struct.unpack_from("<II", payload, offset)
    offset += 8
    expected = offset + 8 * (num_components + 2 * num_components * dim)
    if len(payload) != expected:
        raise StoreIntegrityError("record length does not match header")
    weights = np.frombuffer(payload, dtype="<f8", count=num_components, offset=offset)
    offset += 8 * num_components
    means = np.frombuffer(
        payload, dtype="<f8", count=num_components * dim, offset=offset
    ).reshape(num_components, dim)
    offset += 8 * num_components * dim
    variances = np.frombuffer(
        payload, dtype="<f8", count=num_components * dim, offset=offset
    ).reshape(num_components, dim)
    try:
        return kind, GmmModel(weights=weights, means=means, variances=variances)
    except ValueError as exc:
        raise StoreIntegrityError(f"invalid model parameters: {exc}") from exc


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` in one step, so a failed write leaves the old file."""
    temp = path.with_name(path.name + ".tmp")
    temp.write_text(text, encoding="utf-8")
    os.replace(temp, path)


class ModelStore:
    """Directory of model records, a tab-separated index and the training config."""

    def __init__(self, path):
        self.path = Path(path)
        self.sample_rate: int | None = None
        self._config: ToolkitConfig | None = None
        # (speaker, stream) -> (record filename, feature kind, d, M)
        self._entries: dict[tuple[str, str], tuple[str, str, int, int]] = {}
        self._models: dict[str, tuple[GmmModel, GmmModel]] | None = None
        index = self.path / INDEX_NAME
        if index.exists():
            self._read_index(index)
        config = self.path / CONFIG_NAME
        if config.exists():
            try:
                self._config = parse_config(config.read_text(encoding="utf-8"))
            except ValueError as exc:
                raise StoreIntegrityError(f"{config}: {exc}") from exc

    @property
    def config(self) -> ToolkitConfig:
        """The config the store's models were trained with."""
        if self._config is None:
            raise StoreIntegrityError(
                f"store at {self.path} records no training config ({CONFIG_NAME})"
            )
        return self._config

    def bind(self, cfg: ToolkitConfig, sample_rate: int) -> None:
        """Make ``cfg`` and ``sample_rate`` the parameters of models saved next.

        Raises (when the store already holds models, before any write):
            StoreIntegrityError: it records no config.
            ConfigMismatch, SampleRateMismatch: its models were trained
                under another config or at another rate.
        """
        if self._entries:
            if self.config != cfg:
                pairs = zip(*(render_config(c).splitlines() for c in (self.config, cfg)))
                changed = "; ".join(f"{a} (not {b.split(' = ')[1]})" for a, b in pairs if a != b)
                raise ConfigMismatch(f"store {self.path} was trained with {changed}")
            if self.sample_rate != sample_rate:
                raise SampleRateMismatch(
                    f"store {self.path} was trained at {self.sample_rate} Hz, not {sample_rate}"
                )
        self._config, self.sample_rate = cfg, sample_rate

    def kind(self, stream: str) -> str:
        """The feature kind the store's config puts in ``stream``."""
        if stream not in STREAMS:
            raise ValueError(f"unknown stream {stream!r}, expected one of {STREAMS}")
        return self.config.spectral.kind if stream == "spectral" else RESIDUAL_KIND

    def _read_index(self, index: Path) -> None:
        for line in index.read_text(encoding="utf-8").splitlines():
            try:
                if line.startswith("# sample_rate:"):
                    self.sample_rate = int(line.split(":", 1)[1])
                elif line.strip() and not line.startswith("#"):
                    speaker, stream, filename, kind, dim, m = line.split("\t")
                    self._entries[(speaker, stream)] = (filename, kind, int(dim), int(m))
            except ValueError as exc:
                raise StoreIntegrityError(f"malformed index line {line!r}") from exc

    def _write_index(self) -> None:
        lines = ["# speaker\tstream\tfile\tfeature_kind\td\tM"]
        if self.sample_rate is not None:
            lines.append(f"# sample_rate: {self.sample_rate}")
        for (speaker, stream), (filename, kind, dim, m) in sorted(self._entries.items()):
            lines.append(f"{speaker}\t{stream}\t{filename}\t{kind}\t{dim}\t{m}")
        _write_atomic(self.path / INDEX_NAME, "\n".join(lines) + "\n")

    @staticmethod
    def _filename(speaker: str, stream: str) -> str:
        """Injective: ``[A-Za-z0-9.-]`` is kept and every other UTF-8 byte,
        ``_`` included, becomes ``_xx`` hex, so ``__`` only ever separates."""
        safe = "".join(
            chr(b) if b in _FILENAME_BYTES else f"_{b:02x}" for b in speaker.encode("utf-8")
        )
        return f"{safe}__{stream}.gmm"

    def save(self, speaker: str, stream: str, model: GmmModel) -> None:
        """Write one model under the kind the bound config gives ``stream``."""
        kind = self.kind(stream)
        self.path.mkdir(parents=True, exist_ok=True)
        if not self._entries:
            _write_atomic(self.path / CONFIG_NAME, render_config(self.config))
        filename = self._filename(speaker, stream)
        (self.path / filename).write_bytes(model_to_bytes(model, kind))
        self._entries[(speaker, stream)] = (filename, kind, model.dim, model.num_components)
        self._models = None
        self._write_index()

    def load(self, speaker: str, stream: str) -> GmmModel:
        """Read one model back; ``ConfigMismatch`` if its record holds another
        feature kind than the config gives ``stream``."""
        key = (speaker, stream)
        if key not in self._entries:
            raise MissingModel(f"no {stream} model for speaker {speaker!r}")
        record = self.path / self._entries[key][0]
        if not record.exists():
            raise MissingModel(f"model file missing: {record}")
        kind, model = model_from_bytes(record.read_bytes())
        expected = self.kind(stream)
        if kind != expected:
            raise ConfigMismatch(
                f"{record}: the {stream} model of speaker {speaker!r} holds {kind} "
                f"features, but {CONFIG_NAME} says {expected}"
            )
        return model

    def speakers(self) -> list[str]:
        return sorted({speaker for speaker, _ in self._entries})

    def models(self) -> dict[str, tuple[GmmModel, GmmModel]]:
        """Every enrolled speaker's (spectral, residual) models, in speaker
        order, read through ``load`` once until the next ``save``."""
        if self._models is None:
            self._models = {
                speaker: tuple(self.load(speaker, stream) for stream in STREAMS)
                for speaker in self.speakers()
            }
        return self._models
