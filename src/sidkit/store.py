"""Model persistence: one binary record per model plus the training config.

A store directory is ``config.ini`` and one ``<speaker>__<stream>.gmm``
record per model; other files are ignored.  The enrolled speakers are the
ids the record names decode to.  ``banks()`` is the one way to read all
their models: it loads every record once, through ``load``, and stacks one
scoring bank per stream from the records' arrays, kept until the next
``save``.

``config.ini`` starts with ``# sample_rate: <Hz>`` and then holds the
``ToolkitConfig`` (as ``render_config`` writes it) that every model was
trained with; ``parse_config`` reads the rate line as a comment.  Scoring
takes its front end, widths and fusion settings from there, and each
stream's feature kind comes from it (``[spectral] kind``, or
``residual_moments``).  ``save`` writes that kind into the record; ``load``
rejects, as a ``ConfigMismatch`` naming the record, a record of another
kind, or with another component count (``m_spectral``, ``m_residual``) or
width (``[spectral] num_cepstra``, ``[residual] num_moments``) than the
config gives its stream.  So every record that ``load`` returns has its
stream's shape, and a store that disagrees with its config fails when it
is read, before any audio is scored.  Records and config are replaced
whole through a temp file and ``os.replace``, so a failed save leaves the
previous store.

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
from .errors import ConfigMismatch, MissingModel, SampleRateMismatch, StoreIntegrityError, named
from .gmm import GmmModel, ModelBank

MAGIC = b"SIDM"
FORMAT_VERSION = 1

CONFIG_NAME = "config.ini"
RATE_PREFIX = "# sample_rate:"
STREAMS = ("spectral", "residual")
RESIDUAL_KIND = "residual_moments"
# The key of each stream's section that gives its feature width.
WIDTH_KEYS = {"spectral": "num_cepstra", "residual": "num_moments"}
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
        StoreIntegrityError: bad magic, truncation, checksum mismatch, or a
            header that does not fit the record.
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
    if offset + kind_len + 8 > len(payload):
        raise StoreIntegrityError(f"feature-kind length {kind_len} runs past the record")
    try:
        kind = payload[offset : offset + kind_len].decode("utf-8")
    except UnicodeDecodeError:
        raise StoreIntegrityError("feature kind is not UTF-8") from None
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
    """Directory of model records and the training config."""

    def __init__(self, path):
        self.path = Path(path)
        self.sample_rate: int | None = None
        self._config: ToolkitConfig | None = None
        self._banks: tuple[ModelBank, ModelBank] | None = None
        # Whether the store holds no record yet, so that the next save must
        # (re)write config.ini first; None until bind or the first save asks.
        self._empty: bool | None = None
        config = self.path / CONFIG_NAME
        if config.exists():
            try:
                text = config.read_text(encoding="utf-8")
                head = text.partition("\n")[0]
                if not head.startswith(RATE_PREFIX):
                    raise ValueError(f"first line is not '{RATE_PREFIX} <Hz>'; retrain this store")
                self.sample_rate = int(head[len(RATE_PREFIX) :])
                self._config = parse_config(text)
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

        Raises (before any write):
            StoreIntegrityError: the store path is not a directory, or the
                store holds models but records no config.
            ConfigMismatch, SampleRateMismatch: its models were trained
                under another config or at another rate.
        """
        self._empty = not self._record_names()
        if not self._empty:
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

    @staticmethod
    def _filename(speaker: str, stream: str) -> str:
        """Injective: ``[A-Za-z0-9.-]`` is kept and every other UTF-8 byte,
        ``_`` included, becomes ``_xx`` hex, so ``__`` only ever separates."""
        safe = "".join(
            chr(b) if b in _FILENAME_BYTES else f"_{b:02x}" for b in speaker.encode("utf-8")
        )
        return f"{safe}__{stream}.gmm"

    def _speaker_of(self, name: str) -> str:
        """Inverse of ``_filename``: the speaker whose record ``name`` is."""
        safe, _, stream = name.removesuffix(".gmm").partition("__")
        head, *escaped = safe.split("_")
        try:
            raw = head.encode() + b"".join(bytes.fromhex(e[:2]) + e[2:].encode() for e in escaped)
            speaker = raw.decode("utf-8")
            if stream in STREAMS and self._filename(speaker, stream) == name:
                return speaker
        except ValueError:
            pass
        raise StoreIntegrityError(f"{self.path / name}: not a <speaker>__<stream>.gmm record name")

    def _record_names(self) -> list[str]:
        """The record filenames; none when the directory does not exist.

        Raises:
            StoreIntegrityError: the store path is not a directory.
        """
        try:
            names = os.listdir(self.path)
        except FileNotFoundError:
            return []
        except NotADirectoryError:
            raise StoreIntegrityError(f"model store at {self.path} is not a directory") from None
        return [name for name in names if name.endswith(".gmm")]

    def speakers(self) -> list[str]:
        """The enrolled speaker ids, read back from the record filenames."""
        return sorted({self._speaker_of(name) for name in self._record_names()})

    def save(self, speaker: str, stream: str, model: GmmModel) -> None:
        """Write one model under the kind the bound config gives ``stream``.

        The first record of a store (re)writes ``config.ini`` before it, so
        the config left by a train that failed before writing any record is
        never taken for the records' own."""
        kind = self.kind(stream)
        if self._empty is None:
            self._empty = not self._record_names()
        if self._empty:
            self.path.mkdir(parents=True, exist_ok=True)
            text = f"{RATE_PREFIX} {self.sample_rate}\n" + render_config(self.config)
            _write_atomic(self.path / CONFIG_NAME, text.encode("utf-8"))
        _write_atomic(self.path / self._filename(speaker, stream), model_to_bytes(model, kind))
        self._empty = False
        self._banks = None

    def load(self, speaker: str, stream: str) -> GmmModel:
        """Read one model back; ``ConfigMismatch`` if its record holds another
        feature kind, component count or width than the config gives ``stream``."""
        record = self.path / self._filename(speaker, stream)
        try:
            data = record.read_bytes()
        except FileNotFoundError:
            raise MissingModel(f"no {stream} model for speaker {speaker!r}") from None
        with named(record):
            kind, model = model_from_bytes(data)
        expected = self.kind(stream)
        if kind != expected:
            raise ConfigMismatch(
                f"{record}: the {stream} model of speaker {speaker!r} holds {kind} "
                f"features, but {CONFIG_NAME} says {expected}"
            )
        for section, key, value, noun in (
            ("model", f"m_{stream}", model.num_components, "components"),
            (stream, WIDTH_KEYS[stream], model.dim, "dimensions"),
        ):
            expected = getattr(getattr(self.config, section), key)
            if value != expected:
                raise ConfigMismatch(
                    f"{record}: the {stream} model of speaker {speaker!r} has "
                    f"{value} {noun}, but {CONFIG_NAME} says {key} = {expected}"
                )
        return model

    def banks(self) -> tuple[ModelBank, ModelBank]:
        """The (spectral, residual) banks of every enrolled speaker, each
        record read through ``load`` once, speaker by speaker, and kept until
        the next ``save``.  ``MissingModel`` if the store's directory does not
        exist or holds no record, ``StoreIntegrityError`` if its path is not
        a directory, and ``load``'s errors for the first bad record."""
        if self._banks is None:
            speakers = self.speakers()
            if not speakers:
                state = "is empty" if self.path.is_dir() else "does not exist"
                raise MissingModel(f"model store at {self.path} {state}")
            pairs = [[self.load(speaker, stream) for stream in STREAMS] for speaker in speakers]
            self._banks = tuple(
                ModelBank(speakers, *(np.stack([getattr(m, name) for m in models])
                                      for name in ("weights", "means", "variances")))
                for models in zip(*pairs)
            )
        return self._banks
