"""A seeded mutation sweep over every input parser: each mutated input is
either parsed or refused with that parser's typed error."""

import struct
import zlib

import numpy as np
import pytest

from sidkit.audio_io import load_audio, save_audio
from sidkit.config import (
    DEFAULT_CONFIG_TEXT,
    ModelConfig,
    SpectralConfig,
    ToolkitConfig,
    parse_config,
)
from sidkit.corpus import CorpusManifest, ManifestEntry, read_manifest, write_manifest
from sidkit.errors import ManifestError, SidkitError
from sidkit.frontend import AudioSignal
from sidkit.gmm import GmmStack
from sidkit.store import MAGIC, MODELS_NAME, ModelStore

# Fixed before the sweep first ran; not to be re-picked by its result.
SEED = 7
MUTATIONS = 2000


def mutations(data: bytes, span: int):
    """``MUTATIONS`` copies of ``data``, each with 1-3 edits at offsets below
    ``span``: a byte replaced, everything from there cut, or a byte inserted."""
    rng = np.random.default_rng(SEED)
    for _ in range(MUTATIONS):
        out = bytearray(data)
        for _ in range(rng.integers(1, 4)):
            op, at = rng.integers(3), int(rng.integers(min(span, len(out)) + 1))
            if op == 0 and at < len(out):
                out[at] = int(rng.integers(256))
            elif op == 1:
                del out[at:]
            else:
                out.insert(at, int(rng.integers(256)))
        yield bytes(out)


def sweep(parse, inputs, error, check=lambda message: None):
    """Run ``parse`` on every input: it returns, or raises ``error`` whose
    message passes ``check``; both outcomes must occur."""
    returned = raised = 0
    for data in inputs:
        try:
            parse(data)
            returned += 1
        except error as exc:
            check(str(exc))
            raised += 1
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc} from input {data[:80]!r}...")
    assert returned and raised, (returned, raised)


def test_wav_header(tmp_path):
    """Edits in the first 60 bytes of an 800-sample WAV: the header, its
    chunk sizes and the first samples."""
    valid, path = tmp_path / "valid.wav", tmp_path / "mutated.wav"
    samples = np.random.default_rng(0).uniform(-0.5, 0.5, 800)
    save_audio(valid, AudioSignal(samples=samples, sample_rate=8000))

    def parse(data):
        path.write_bytes(data)
        load_audio(path, expected_rate=8000)

    def check(message):
        assert message.startswith(f"{path}: ") and message.count(str(path)) == 1, message

    sweep(parse, mutations(valid.read_bytes(), 60), SidkitError, check)


def test_sealed_model_record(tmp_path):
    """Edits in a model file's header, resealed with a valid checksum so
    that they reach the header and parameter checks: the store refuses each
    with a typed error, or reads banks whose arrays equal the valid file's
    (such an edit may still rename a speaker)."""
    rng = np.random.default_rng(0)
    cfg = ToolkitConfig(spectral=SpectralConfig(num_cepstra=6),
                        model=ModelConfig(m_spectral=4, m_residual=4))
    store = ModelStore(tmp_path)
    store.bind(cfg, 8000)
    stacks = []
    for _ in range(2):
        weights = rng.uniform(0.5, 1.5, (2, 4))
        weights /= weights.sum(axis=1, keepdims=True)
        means, variances = rng.uniform(-2, 2, (2, 4, 6)), rng.uniform(0.1, 2.0, (2, 4, 6))
        stacks.append(GmmStack(weights, means, variances, sizes=()))
    store.save(["alice", "bob"], *stacks)
    valid = (tmp_path / MODELS_NAME).read_bytes()
    banks = ModelStore(tmp_path).banks()
    # Edits land at offsets up to and including the span: the header's last byte.
    last = valid.index(b"bob") + 2 - len(MAGIC)

    def parse(data):
        body = MAGIC + data
        (tmp_path / MODELS_NAME).write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        for bank, read in zip(banks, ModelStore(tmp_path).banks()):
            assert np.array_equal(read._form, bank._form)
            assert np.array_equal(read._shift, bank._shift)

    sweep(parse, mutations(valid[len(MAGIC) : -4], last), SidkitError)


def test_default_config_text():
    text = DEFAULT_CONFIG_TEXT.encode("utf-8")
    sweep(lambda data: parse_config(data.decode("latin-1")), mutations(text, len(text)),
          ValueError)


def test_manifest(tmp_path):
    entries = [
        ManifestEntry(f"spk{s}", f"spk{s}_{u}", tmp_path / f"spk{s}_{u}.wav",
                      "train" if u < 2 else "test")
        for s in range(3) for u in range(3)
    ]
    valid, path = tmp_path / "valid.tsv", tmp_path / "mutated.tsv"
    write_manifest(CorpusManifest(tuple(entries), 8000), valid)

    def parse(data):
        path.write_bytes(data)
        read_manifest(path)

    def check(message):
        assert str(path) in message, message

    text = valid.read_bytes()
    sweep(parse, mutations(text, len(text)), ManifestError, check)
