"""Binary model records and the directory-backed model store."""

import os
import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from sidkit.config import (
    FusionConfig,
    ModelConfig,
    SpectralConfig,
    ToolkitConfig,
    render_config,
)
from sidkit.errors import ConfigMismatch, MissingModel, StoreIntegrityError
from sidkit.gmm import GmmModel, gmm_log_likelihoods
from sidkit.store import (
    CONFIG_NAME,
    FORMAT_VERSION,
    MAGIC,
    STREAMS,
    WIDTH_KEYS,
    ModelStore,
    model_from_bytes,
    model_to_bytes,
)

from oracles import bank_of


def random_model(rng, m=4, d=6):
    weights = rng.uniform(0.5, 1.5, m)
    weights /= weights.sum()
    return GmmModel(
        weights=weights,
        means=rng.uniform(-2, 2, (m, d)),
        variances=rng.uniform(0.1, 2.0, (m, d)),
    )


# The component counts and width of random_model, which load checks records against.
FOUR_COMPONENTS = ToolkitConfig(
    spectral=SpectralConfig(num_cepstra=6), model=ModelConfig(m_spectral=4, m_residual=4)
)


def bound_store(path, cfg=FOUR_COMPONENTS):
    store = ModelStore(path)
    store.bind(cfg, 8000)
    return store


class TestRecordFormat:
    def test_roundtrip_bit_identical(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            model = random_model(rng)
            kind, back = model_from_bytes(model_to_bytes(model, "mfcc"))
            np.testing.assert_array_equal(back.weights, model.weights)
            np.testing.assert_array_equal(back.means, model.means)
            np.testing.assert_array_equal(back.variances, model.variances)
            assert kind == "mfcc"

    def test_reserialization_stable(self):
        rng = np.random.default_rng(61)
        model = random_model(rng)
        data = model_to_bytes(model, "mfcc")
        kind, back = model_from_bytes(data)
        assert model_to_bytes(back, kind) == data

    def test_magic_present(self):
        rng = np.random.default_rng(62)
        assert model_to_bytes(random_model(rng), "mfcc")[:4] == b"SIDM"

    def test_bad_magic_rejected(self):
        rng = np.random.default_rng(63)
        data = bytearray(model_to_bytes(random_model(rng), "mfcc"))
        data[0] ^= 0xFF
        with pytest.raises(StoreIntegrityError):
            model_from_bytes(bytes(data))

    def test_every_bit_flip_detected(self):
        """Flipping any single byte anywhere in the record is caught."""
        rng = np.random.default_rng(64)
        data = model_to_bytes(random_model(rng, m=2, d=2), "mfcc")
        for pos in range(len(data)):
            corrupt = bytearray(data)
            corrupt[pos] ^= 0x01
            with pytest.raises(StoreIntegrityError):
                model_from_bytes(bytes(corrupt))

    def test_truncation_rejected(self):
        rng = np.random.default_rng(65)
        data = model_to_bytes(random_model(rng), "mfcc")
        for cut in (0, 3, 10, len(data) - 1):
            with pytest.raises(StoreIntegrityError):
                model_from_bytes(data[:cut])

    def test_trailing_garbage_rejected(self):
        rng = np.random.default_rng(66)
        data = model_to_bytes(random_model(rng), "mfcc")
        with pytest.raises(StoreIntegrityError):
            model_from_bytes(data + b"\x00")

    @staticmethod
    def _sealed(payload):
        """A record around ``payload`` whose checksum is valid."""
        return MAGIC + payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)

    def test_kind_running_past_the_record_rejected(self):
        """A checksummed header whose feature-kind length overruns the record."""
        data = self._sealed(struct.pack("<HH", FORMAT_VERSION, 200) + b"mfcc")
        with pytest.raises(StoreIntegrityError, match="feature-kind length 200 runs past"):
            model_from_bytes(data)

    def test_kind_that_is_not_utf8_rejected(self):
        rng = np.random.default_rng(67)
        payload = model_to_bytes(random_model(rng), "mfcc")[4:-4]
        data = self._sealed(payload[:4] + b"\xff\xfe\xfd\xfc" + payload[8:])
        with pytest.raises(StoreIntegrityError, match="feature kind is not UTF-8"):
            model_from_bytes(data)


class TestModelStore:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(67)
        store = bound_store(tmp_path / "store")
        model = random_model(rng)
        store.save("alice", "spectral", model)
        back = store.load("alice", "spectral")
        np.testing.assert_array_equal(back.means, model.means)

    def test_missing_model(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        with pytest.raises(MissingModel):
            store.load("nobody", "spectral")

    def test_index_lists_speakers_and_streams(self, tmp_path):
        rng = np.random.default_rng(68)
        store = bound_store(tmp_path / "store")
        for speaker in ("carol", "alice", "bob"):
            store.save(speaker, "spectral", random_model(rng))
            store.save(speaker, "residual", random_model(rng, d=6))
        assert store.speakers() == ["alice", "bob", "carol"]
        assert [bank.speakers for bank in store.banks()] == [("alice", "bob", "carol")] * 2

    def test_reopen_reads_index(self, tmp_path):
        rng = np.random.default_rng(69)
        path = tmp_path / "store"
        store = bound_store(path)
        model = random_model(rng)
        store.save("alice", "spectral", model)

        reopened = ModelStore(path)
        assert reopened.sample_rate == 8000
        assert reopened.speakers() == ["alice"]
        back = reopened.load("alice", "spectral")
        np.testing.assert_array_equal(back.weights, model.weights)

    def test_save_after_models_is_visible(self, tmp_path):
        rng = np.random.default_rng(76)
        store = bound_store(tmp_path / "store")
        for speaker in ("alice", "bob"):
            store.save(speaker, "spectral", random_model(rng))
            store.save(speaker, "residual", random_model(rng))
            enrolled = tuple(sorted({"alice", speaker}))
            assert [bank.speakers for bank in store.banks()] == [enrolled] * 2
        loaded = bank_of({spk: store.load(spk, "residual") for spk in ("alice", "bob")})
        xs = rng.uniform(-2, 2, (10, 6))
        np.testing.assert_array_equal(
            gmm_log_likelihoods(xs, store.banks()[1]), gmm_log_likelihoods(xs, loaded)
        )

    def test_banks_are_stacked_once_until_save(self, tmp_path):
        rng = np.random.default_rng(82)
        store = bound_store(tmp_path / "store")
        for speaker in ("bob", "alice"):
            for stream in STREAMS:
                store.save(speaker, stream, random_model(rng))
        banks = store.banks()
        assert store.banks() is banks
        assert [bank.speakers for bank in banks] == [("alice", "bob")] * 2
        store.save("alice", "spectral", random_model(rng))
        store.save("carol", "spectral", random_model(rng))
        store.save("carol", "residual", random_model(rng))
        rebuilt = store.banks()
        assert [bank.speakers for bank in rebuilt] == [("alice", "bob", "carol")] * 2
        xs = rng.uniform(-2, 2, (10, 6))
        for bank, fresh in zip(rebuilt, ModelStore(store.path).banks()):
            np.testing.assert_array_equal(
                gmm_log_likelihoods(xs, bank), gmm_log_likelihoods(xs, fresh)
            )

    @pytest.mark.parametrize("stream", STREAMS)
    def test_record_of_another_component_count_is_config_mismatch(self, tmp_path, stream):
        rng = np.random.default_rng(83)
        path = tmp_path / "store"
        store = bound_store(path)
        store.save("alice", "spectral", random_model(rng))
        store.save("alice", "residual", random_model(rng))
        store.save("bob", "spectral", random_model(rng))
        store.save("bob", "residual", random_model(rng))
        store.save("bob", stream, random_model(rng, m=2))
        pattern = (
            re.escape(str(path / f"bob__{stream}.gmm"))
            + f": the {stream} model of speaker 'bob' has 2 components, "
            + f"but config.ini says m_{stream} = 4"
        )
        with pytest.raises(ConfigMismatch, match=pattern):
            ModelStore(path).load("bob", stream)
        with pytest.raises(ConfigMismatch, match=pattern):
            ModelStore(path).banks()

    def test_speaker_missing_a_stream_is_missing_model(self, tmp_path):
        rng = np.random.default_rng(77)
        path = tmp_path / "store"
        store = bound_store(path)
        store.save("alice", "spectral", random_model(rng))
        store.save("alice", "residual", random_model(rng))
        store.save("bob", "spectral", random_model(rng))
        with pytest.raises(MissingModel, match="no residual model for speaker 'bob'"):
            ModelStore(path).banks()

    @pytest.mark.parametrize("stream", STREAMS)
    def test_unequal_shapes_name_the_stream(self, tmp_path, stream):
        """A record narrower than the width the config gives its stream,
        beside records that have it, is a ConfigMismatch naming the record,
        the stream, the key and both widths, from load and from banks()."""
        rng = np.random.default_rng(89)
        path = tmp_path / "store"
        store = bound_store(path)
        for speaker in ("alice", "bob"):
            for s in STREAMS:
                dim = 5 if (speaker, s) == ("bob", stream) else 6
                store.save(speaker, s, random_model(rng, d=dim))
        pattern = (
            "^" + re.escape(str(path / f"bob__{stream}.gmm"))
            + f": the {stream} model of speaker 'bob' has 5 dimensions, "
            + f"but config.ini says {WIDTH_KEYS[stream]} = 6$"
        )
        with pytest.raises(ConfigMismatch, match=pattern):
            ModelStore(path).load("bob", stream)
        with pytest.raises(ConfigMismatch, match=pattern):
            ModelStore(path).banks()

    @pytest.mark.parametrize("stream", STREAMS)
    def test_records_that_agree_but_not_with_the_config(self, tmp_path, stream):
        """Records that all share one width, other than the config's, fail
        when the store is read, at the first speaker's record."""
        rng = np.random.default_rng(91)
        path = tmp_path / "store"
        store = bound_store(path)
        for speaker in ("alice", "bob"):
            for s in STREAMS:
                store.save(speaker, s, random_model(rng, d=7 if s == stream else 6))
        pattern = (
            "^" + re.escape(str(path / f"alice__{stream}.gmm"))
            + f": the {stream} model of speaker 'alice' has 7 dimensions, "
            + f"but config.ini says {WIDTH_KEYS[stream]} = 6$"
        )
        with pytest.raises(ConfigMismatch, match=pattern):
            ModelStore(path).banks()

    def test_store_without_records_is_missing_model(self, tmp_path):
        """A store with no record, missing or holding only config.ini, has no
        banks to score against; the error names the store and says which."""
        path = tmp_path / "store"
        missing = f"^model store at {re.escape(str(path))} does not exist$"
        with pytest.raises(MissingModel, match=missing):
            ModelStore(path).banks()
        empty = f"^model store at {re.escape(str(path))} is empty$"
        bound_store(path).save("alice", "spectral", random_model(np.random.default_rng(90)))
        (path / "alice__spectral.gmm").unlink()
        with pytest.raises(MissingModel, match=empty):
            ModelStore(path).banks()

    def test_corrupt_file_detected_on_load(self, tmp_path):
        rng = np.random.default_rng(70)
        path = tmp_path / "store"
        store = bound_store(path)
        store.save("alice", "spectral", random_model(rng))
        record = next(path.glob("*.gmm"))
        raw = bytearray(record.read_bytes())
        raw[20] ^= 0x10
        record.write_bytes(bytes(raw))
        with pytest.raises(StoreIntegrityError):
            ModelStore(path).load("alice", "spectral")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("array", ["weights", "means", "variances"])
    def test_non_finite_record_is_integrity_error(self, tmp_path, array, value):
        """A record whose checksum holds but whose weights, means or
        variances hold a NaN or inf is refused on load, naming the record."""
        path = tmp_path / "store"
        bound_store(path).save("alice", "spectral", random_model(np.random.default_rng(71)))
        record = path / "alice__spectral.gmm"
        payload = bytearray(record.read_bytes()[4:-4])
        m, d = 4, 6  # random_model's shape
        first = {"weights": 0, "means": m, "variances": m + m * d}[array]
        # The arrays follow version, kind length, the kind "mfcc", dim and M.
        struct.pack_into("<d", payload, 4 + len("mfcc") + 8 + 8 * first, value)
        record.write_bytes(TestRecordFormat._sealed(bytes(payload)))
        with pytest.raises(StoreIntegrityError,
                           match=f"^{re.escape(str(record))}: .*must be finite$"):
            ModelStore(path).load("alice", "spectral")

    def test_similar_ids_do_not_collide(self, tmp_path):
        """Ids that differ only in characters a filename cannot hold verbatim
        each keep their own record."""
        rng = np.random.default_rng(72)
        path = tmp_path / "store"
        speakers = ("a b", "a_b", "a__b", "a_20b", "a/b", "\u00e9", " a", "a ")
        models = {s: random_model(rng) for s in speakers}
        store = bound_store(path)
        for speaker, model in models.items():
            store.save(speaker, "spectral", model)
        assert len(list(path.glob("*.gmm"))) == len(speakers)
        reopened = ModelStore(path)
        assert reopened.speakers() == sorted(speakers)
        for speaker, model in models.items():
            np.testing.assert_array_equal(
                reopened.load(speaker, "spectral").means, model.means
            )

    def test_plain_ids_keep_their_filenames(self, tmp_path):
        rng = np.random.default_rng(73)
        path = tmp_path / "store"
        bound_store(path).save("spk00", "spectral", random_model(rng))
        assert [p.name for p in path.glob("*.gmm")] == ["spk00__spectral.gmm"]

    @pytest.mark.parametrize(
        "head", ["", "# sample_rate: 8k\n", "# sample_rate:\n"], ids=["missing", "8k", "empty"]
    )
    def test_bad_rate_line_is_integrity_error(self, tmp_path, head):
        """config.ini must open with the store's rate; a store written before
        the rate moved there (it kept an index.tsv) has to be retrained."""
        path = tmp_path / "store"
        path.mkdir()
        (path / CONFIG_NAME).write_text(head + render_config(ToolkitConfig()), encoding="utf-8")
        with pytest.raises(StoreIntegrityError, match=CONFIG_NAME) as info:
            ModelStore(path)
        if not head:
            assert "retrain" in str(info.value)

    @pytest.mark.parametrize(
        "name",
        ["a b__spectral.gmm", "_41__spectral.gmm", "_C3_A9__spectral.gmm", "a_zz__spectral.gmm",
         "a_5__spectral.gmm", "alice__cepstral.gmm", "alice.gmm", "a___spectral.gmm"],
    )
    def test_unknown_record_name_is_integrity_error(self, tmp_path, name):
        """A .gmm name that ``_filename`` cannot have written names the file."""
        rng = np.random.default_rng(78)
        path = tmp_path / "store"
        bound_store(path).save("alice", "spectral", random_model(rng))
        (path / name).write_bytes(b"")
        with pytest.raises(StoreIntegrityError, match=re.escape(str(path / name))):
            ModelStore(path).speakers()

    def test_stray_files_are_ignored(self, tmp_path):
        rng = np.random.default_rng(79)
        path = tmp_path / "store"
        store = bound_store(path)
        for stream in ("spectral", "residual"):
            store.save("alice", stream, random_model(rng))
        for stray in ("notes.txt", "x__spectral.gmm.tmp", "index.tsv"):
            (path / stray).write_text("alice\tspectral\n", encoding="utf-8")
        reopened = ModelStore(path)
        assert reopened.speakers() == ["alice"]
        assert [bank.speakers for bank in reopened.banks()] == [("alice",)] * 2

    def test_stale_config_without_records_is_replaced(self, tmp_path):
        """A store holding only the config.ini of a train that failed before
        its first record takes a train under another config and rate."""
        rng = np.random.default_rng(80)
        path = tmp_path / "store"
        stale = ModelStore(path)
        stale.bind(ToolkitConfig(), 8000)
        stale.save("alice", "spectral", random_model(rng))
        (path / "alice__spectral.gmm").unlink()

        cfg = ToolkitConfig(spectral=SpectralConfig(kind="lfcc"))
        store = ModelStore(path)
        store.bind(cfg, 16000)
        store.save("bob", "spectral", random_model(rng))
        reopened = ModelStore(path)
        assert (reopened.config, reopened.sample_rate) == (cfg, 16000)
        assert reopened.speakers() == ["bob"]

    @pytest.mark.parametrize(
        "text",
        ["[fusion]\ntypo = 1\n", "[preprocess]\nframe_len = twenty\n", "frame_len = 160\n"],
        ids=["unknown-key", "bad-value", "no-section"],
    )
    def test_bad_config_is_integrity_error(self, tmp_path, text):
        path = tmp_path / "store"
        path.mkdir()
        (path / CONFIG_NAME).write_text("# sample_rate: 8000\n" + text, encoding="utf-8")
        with pytest.raises(StoreIntegrityError, match=CONFIG_NAME):
            ModelStore(path)

    def test_save_records_config_and_leaves_no_temp_file(self, tmp_path):
        rng = np.random.default_rng(74)
        path = tmp_path / "store"
        cfg = ToolkitConfig(spectral=SpectralConfig(kind="lfcc"), fusion=FusionConfig(eta=0.3))
        store = ModelStore(path)
        store.bind(cfg, 8000)
        store.save("alice", "spectral", random_model(rng))
        store.save("alice", "residual", random_model(rng))
        assert sorted(p.name for p in path.iterdir()) == sorted(
            [CONFIG_NAME, "alice__residual.gmm", "alice__spectral.gmm"]
        )
        assert (path / CONFIG_NAME).read_text(encoding="utf-8").startswith("# sample_rate: 8000\n")
        reopened = ModelStore(path)
        assert (reopened.config, reopened.sample_rate) == (cfg, 8000)
        # A reopened store saves under its recorded config without a bind.
        reopened.save("bob", "spectral", random_model(rng, m=2, d=3))
        kinds = {p.name: model_from_bytes(p.read_bytes())[0] for p in path.glob("*.gmm")}
        assert kinds == {
            "alice__spectral.gmm": "lfcc", "alice__residual.gmm": "residual_moments",
            "bob__spectral.gmm": "lfcc",
        }

    def test_saves_do_not_list_the_store(self, tmp_path, monkeypatch):
        """Whether config.ini must be written is decided once, by bind or by
        a reopened store's first save, not by listing the store per record."""
        rng = np.random.default_rng(76)
        listed = []
        real_listdir = os.listdir
        monkeypatch.setattr(os, "listdir", lambda path: listed.append(path) or real_listdir(path))
        path = tmp_path / "store"
        path.mkdir()
        store = bound_store(path)
        for i in range(10):
            store.save(f"spk{i}", "spectral", random_model(rng))
        assert len(listed) == 1
        reopened = ModelStore(path)
        for i in range(10):
            reopened.save(f"spk{i}", "residual", random_model(rng))
        assert len(listed) == 2
        assert reopened.speakers() == [f"spk{i}" for i in range(10)]

    def test_torn_record_write_keeps_previous_store(self, tmp_path, monkeypatch):
        """A save whose record write fails halfway, of a new speaker or over an
        enrolled one, leaves the previous speakers, models and files, and no
        temp file."""
        rng = np.random.default_rng(75)
        path = tmp_path / "store"
        store = bound_store(path)
        for speaker in ("alice", "bob"):
            for stream in ("spectral", "residual"):
                store.save(speaker, stream, random_model(rng))
        files = {p.name: p.read_bytes() for p in path.iterdir()}
        models = {spk: [store.load(spk, s) for s in STREAMS] for spk in store.speakers()}

        def torn_write(self, data):
            with open(self, "wb") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_bytes", torn_write)
        for speaker in ("carol", "alice"):
            with pytest.raises(OSError):
                store.save(speaker, "spectral", random_model(rng))
        monkeypatch.undo()

        reopened = ModelStore(path)
        assert reopened.speakers() == ["alice", "bob"]
        for speaker, pair in models.items():
            for stream, before in zip(STREAMS, pair):
                np.testing.assert_array_equal(reopened.load(speaker, stream).means, before.means)
        for name, data in files.items():
            assert (path / name).read_bytes() == data
        assert not list(path.glob("*.tmp"))
