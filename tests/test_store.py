"""The model file format and the directory-backed model store."""

import dataclasses
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
from sidkit.gmm import GmmStack, gmm_log_likelihoods
from sidkit.store import (
    CONFIG_NAME,
    FORMAT_VERSION,
    MAGIC,
    MODELS_NAME,
    STREAMS,
    WIDTH_KEYS,
    ModelStore,
    _pack,
    _unpack,
)

from oracles import bank_of, row_of


def random_stack(rng, s=1, m=4, d=6):
    """``s`` random mixtures of ``m`` components in ``d`` dimensions."""
    weights = rng.uniform(0.5, 1.5, (s, m))
    weights /= weights.sum(axis=1, keepdims=True)
    return GmmStack(weights, rng.uniform(-2, 2, (s, m, d)), rng.uniform(0.1, 2.0, (s, m, d)),
                    sizes=(100,) * s)


def random_streams(rng, s=2, m=4, d=6):
    """``_pack``'s streams argument: an MFCC and a residual stack of ``s`` rows."""
    return [(kind, *(getattr(stack, name) for name in ("weights", "means", "variances")))
            for kind, stack in zip(("mfcc", "residual_moments"),
                                   (random_stack(rng, s, m, d), random_stack(rng, s, m, d)))]


# The component counts and width of random_stack, which load checks the models against.
FOUR_COMPONENTS = ToolkitConfig(
    spectral=SpectralConfig(num_cepstra=6), model=ModelConfig(m_spectral=4, m_residual=4)
)

FOUR_LFCC_COMPONENTS = dataclasses.replace(
    FOUR_COMPONENTS, spectral=SpectralConfig(kind="lfcc", num_cepstra=6)
)


def bound_store(path, cfg=FOUR_COMPONENTS):
    store = ModelStore(path)
    store.bind(cfg, 8000)
    return store


def enrol(store, rng, *speakers, **shape):
    """Save random models for ``speakers`` in one call; returns both stacks."""
    stacks = [random_stack(rng, len(speakers), **shape) for _ in STREAMS]
    store.save(list(speakers), *stacks)
    return stacks


def assert_same_banks(banks, expected):
    for bank, other in zip(banks, expected):
        assert bank.speakers == other.speakers
        np.testing.assert_array_equal(bank._form, other._form)
        np.testing.assert_array_equal(bank._shift, other._shift)


def sealed(body):
    """``body`` followed by its valid checksum."""
    return body + struct.pack("<I", zlib.crc32(body))


class TestRecordFormat:
    """The model file's bytes, through ``_pack`` and ``_unpack``."""

    def test_roundtrip_bit_identical(self):
        rng = np.random.default_rng(60)
        for s in range(1, 11):
            speakers = [f"spk{i:02d}" for i in range(s)]
            streams = random_streams(rng, s)
            back_speakers, back = _unpack(_pack(speakers, streams))
            assert back_speakers == speakers
            for (kind, *arrays), (back_kind, *back_arrays) in zip(streams, back):
                assert back_kind == kind
                for a, b in zip(arrays, back_arrays):
                    np.testing.assert_array_equal(b, a)
                    assert b.shape == a.shape and not b.flags.writeable

    def test_reserialization_stable(self):
        data = _pack(["alice", "bob"], random_streams(np.random.default_rng(61)))
        assert _pack(*_unpack(data)) == data

    def test_magic_present(self):
        data = _pack(["alice"], random_streams(np.random.default_rng(62), s=1))
        assert data[:4] == b"SIDS"
        assert struct.unpack_from("<H", data, 4)[0] == FORMAT_VERSION

    def test_bad_magic_rejected(self):
        data = bytearray(_pack(["alice"], random_streams(np.random.default_rng(63), s=1)))
        data[0] ^= 0xFF
        with pytest.raises(StoreIntegrityError, match="bad magic"):
            _unpack(bytes(data))

    def test_every_bit_flip_detected(self):
        """Changing any single byte anywhere in the file is caught."""
        data = _pack(["a", "b"], random_streams(np.random.default_rng(64), s=2, m=2, d=2))
        for pos in range(len(data)):
            corrupt = bytearray(data)
            corrupt[pos] ^= 0x01
            with pytest.raises(StoreIntegrityError):
                _unpack(bytes(corrupt))

    def test_truncation_rejected(self):
        data = _pack(["alice"], random_streams(np.random.default_rng(65), s=1))
        for cut in (0, 3, 10, 33, len(data) - 1):
            with pytest.raises(StoreIntegrityError):
                _unpack(data[:cut])

    def test_trailing_garbage_rejected(self):
        data = _pack(["alice"], random_streams(np.random.default_rng(66), s=1))
        with pytest.raises(StoreIntegrityError):
            _unpack(data + b"\x00")

    def test_kind_running_past_the_record_rejected(self):
        """A checksummed header whose feature-kind length overruns the file."""
        body = MAGIC + struct.pack("<H6I", FORMAT_VERSION, 1, 1, 1, 1, 1, 1)
        with pytest.raises(StoreIntegrityError, match="header runs past the file"):
            _unpack(sealed(body + struct.pack("<I", 200) + b"mfcc"))

    def test_kind_that_is_not_utf8_rejected(self):
        data = _pack(["alice"], random_streams(np.random.default_rng(67), s=1))
        kind = data.index(b"mfcc")
        with pytest.raises(StoreIntegrityError, match="header text is not UTF-8"):
            _unpack(sealed(data[:kind] + b"\xff\xfe\xfd\xfc" + data[kind + 4 : -4]))

    @pytest.mark.parametrize(
        "speakers, match",
        [(["bob", "alice"], "strictly increasing"), (["a", "a"], "strictly increasing"),
         (["a", "b", "c"], "one per row")],
        ids=["unsorted", "repeated", "too-many"],
    )
    def test_speaker_ids_must_fit_the_rows(self, speakers, match):
        """Ids out of order, repeated, or more than the rows, under a valid checksum."""
        rng = np.random.default_rng(68)
        data = _pack(["a", "b"], random_streams(rng))
        header = len(MAGIC) + 2 + 24 + 8 + len("mfcc") + len("residual_moments")
        ids = b"".join(struct.pack("<I", len(s)) + s.encode() for s in ["a", "b"])
        assert data[header : header + len(ids)] == ids
        wrong = b"".join(struct.pack("<I", len(s)) + s.encode() for s in speakers)
        dims = struct.pack("<6I", len(speakers), 4, 6, 2, 4, 6)
        body = data[:6] + dims + data[30:header] + wrong + data[header + len(ids) : -4]
        with pytest.raises(StoreIntegrityError, match=match):
            _unpack(sealed(body))


class TestModelStore:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(67)
        store = bound_store(tmp_path / "store")
        spectral, residual = enrol(store, rng, "alice")
        for stream, stack in zip(STREAMS, (spectral, residual)):
            expected = bank_of({"alice": stack})
            assert_same_banks([store.load(stream)], [expected])

    def test_unknown_stream_is_refused_before_any_read(self, tmp_path, monkeypatch):
        store = bound_store(tmp_path / "store")
        enrol(store, np.random.default_rng(66), "alice")
        reopened = ModelStore(store.path)
        reads = []
        monkeypatch.setattr(ModelStore, "_read", lambda self, name: reads.append(name))
        with pytest.raises(ValueError, match="^" + re.escape(
            "unknown stream 'bogus', expected one of ('spectral', 'residual')"
        ) + "$"):
            reopened.load("bogus")
        assert reads == []

    def test_missing_model(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        with pytest.raises(MissingModel, match="does not exist"):
            store.load("spectral")

    def test_index_lists_speakers_and_streams(self, tmp_path):
        """Speakers saved in three calls are read back sorted, in both banks."""
        rng = np.random.default_rng(68)
        store = bound_store(tmp_path / "store")
        for speaker in ("carol", "alice", "bob"):
            enrol(store, rng, speaker)
        assert store.speakers() == ["alice", "bob", "carol"]
        assert [bank.speakers for bank in store.banks()] == [("alice", "bob", "carol")] * 2

    def test_reopen_reads_index(self, tmp_path):
        """A reopened store reads its rate, speakers and models back."""
        rng = np.random.default_rng(69)
        path = tmp_path / "store"
        store = bound_store(path)
        enrol(store, rng, "bob", "alice")
        reopened = ModelStore(path)
        assert reopened.sample_rate == 8000
        assert reopened.speakers() == ["alice", "bob"]
        assert_same_banks(reopened.banks(), store.banks())

    def test_save_after_models_is_visible(self, tmp_path):
        rng = np.random.default_rng(76)
        store = bound_store(tmp_path / "store")
        models = {}
        for speaker in ("bob", "alice"):
            stacks = enrol(store, rng, speaker)
            models[speaker] = stacks
            assert [bank.speakers for bank in store.banks()] == [tuple(sorted(models))] * 2
        xs = rng.uniform(-2, 2, (10, 6))
        for i, bank in enumerate(store.banks()):
            expected = bank_of({speaker: pair[i] for speaker, pair in models.items()})
            np.testing.assert_array_equal(
                gmm_log_likelihoods(xs, bank), gmm_log_likelihoods(xs, expected)
            )

    def test_banks_are_stacked_once_until_save(self, tmp_path):
        """banks() is kept until a save; a re-enrolled id's new models
        replace its row, beside the rows of a speaker saved with it."""
        rng = np.random.default_rng(82)
        store = bound_store(tmp_path / "store")
        first = enrol(store, rng, "bob", "alice")
        banks = store.banks()
        assert store.banks() is banks
        assert [bank.speakers for bank in banks] == [("alice", "bob")] * 2
        second = enrol(store, rng, "carol", "alice")
        rebuilt = store.banks()
        assert rebuilt is not banks
        expected = [
            bank_of({"alice": row_of(new, 1), "bob": row_of(old, 0), "carol": row_of(new, 0)})
            for old, new in zip(first, second)
        ]
        assert_same_banks(rebuilt, expected)
        assert_same_banks(ModelStore(store.path).banks(), expected)

    def test_one_save_equals_several(self, tmp_path):
        """Speakers saved in one call or in several, in any order, give the
        same model file."""
        rng = np.random.default_rng(84)
        spectral, residual = (random_stack(rng, 5) for _ in STREAMS)
        speakers = ["e", "c", "a", "d", "b"]
        whole = bound_store(tmp_path / "whole")
        whole.save(speakers, spectral, residual)
        split = bound_store(tmp_path / "split")
        for rows in ([1, 3], [0], [4, 2]):
            parts = [GmmStack(s.weights[rows], s.means[rows], s.variances[rows], sizes=())
                     for s in (spectral, residual)]
            split.save([speakers[i] for i in rows], *parts)
        assert (split.path / MODELS_NAME).read_bytes() == (whole.path / MODELS_NAME).read_bytes()

    @pytest.mark.parametrize(
        "speakers, rows", [(["a", "a"], 2), (["a", "b"], 1), (["a"], 2)],
        ids=["repeated-id", "too-few-rows", "too-many-rows"],
    )
    def test_save_needs_one_row_per_distinct_speaker(self, tmp_path, speakers, rows):
        rng = np.random.default_rng(85)
        store = bound_store(tmp_path / "store")
        with pytest.raises(ValueError, match="one row of each stack per distinct speaker"):
            store.save(speakers, random_stack(rng, rows), random_stack(rng, rows))
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("stream", STREAMS)
    def test_record_of_another_component_count_is_config_mismatch(self, tmp_path, stream):
        rng = np.random.default_rng(83)
        path = tmp_path / "store"
        stacks = [random_stack(rng, 2, m=2 if s == stream else 4) for s in STREAMS]
        bound_store(path).save(["alice", "bob"], *stacks)
        pattern = (
            "^" + re.escape(str(path / MODELS_NAME))
            + f": the {stream} models have 2 components, but config.ini says m_{stream} = 4$"
        )
        with pytest.raises(ConfigMismatch, match=pattern):
            ModelStore(path).load(stream)
        with pytest.raises(ConfigMismatch, match=pattern):
            ModelStore(path).banks()

    @pytest.mark.parametrize("stream", STREAMS)
    def test_unequal_shapes_name_the_stream(self, tmp_path, stream):
        """Models narrower than the width the config gives their stream are
        a ConfigMismatch naming the file, the stream, the key and both
        widths, from load and from banks()."""
        rng = np.random.default_rng(89)
        path = tmp_path / "store"
        stacks = [random_stack(rng, 2, d=5 if s == stream else 6) for s in STREAMS]
        bound_store(path).save(["alice", "bob"], *stacks)
        pattern = (
            "^" + re.escape(str(path / MODELS_NAME))
            + f": the {stream} models have 5 dimensions, "
            + f"but config.ini says {WIDTH_KEYS[stream]} = 6$"
        )
        with pytest.raises(ConfigMismatch, match=pattern):
            ModelStore(path).load(stream)
        with pytest.raises(ConfigMismatch, match=pattern):
            ModelStore(path).banks()

    @pytest.mark.parametrize("stream", STREAMS)
    def test_records_that_agree_but_not_with_the_config(self, tmp_path, stream):
        """A config.ini edited to another width than the stored models' fails
        when the store is read, and so does a save into it."""
        rng = np.random.default_rng(91)
        path = tmp_path / "store"
        enrol(bound_store(path), rng, "alice", "bob")
        config = path / CONFIG_NAME
        key = WIDTH_KEYS[stream]
        config.write_text(config.read_text(encoding="utf-8").replace(f"{key} = 6", f"{key} = 7"),
                          encoding="utf-8")
        pattern = (
            "^" + re.escape(str(path / MODELS_NAME))
            + f": the {stream} models have 6 dimensions, but config.ini says {key} = 7$"
        )
        with pytest.raises(ConfigMismatch, match=pattern):
            ModelStore(path).banks()
        with pytest.raises(ConfigMismatch, match=pattern):
            enrol(ModelStore(path), rng, "carol", d=7)

    def test_store_without_records_is_missing_model(self, tmp_path):
        """A store with no model file, missing or holding only config.ini,
        has no banks to score against; the error names the store and says which."""
        path = tmp_path / "store"
        missing = f"^model store at {re.escape(str(path))} does not exist$"
        with pytest.raises(MissingModel, match=missing):
            ModelStore(path).banks()
        empty = f"^model store at {re.escape(str(path))} is empty$"
        enrol(bound_store(path), np.random.default_rng(90), "alice")
        (path / MODELS_NAME).unlink()
        assert ModelStore(path).speakers() == []
        with pytest.raises(MissingModel, match=empty):
            ModelStore(path).banks()

    def test_corrupt_file_detected_on_load(self, tmp_path):
        rng = np.random.default_rng(70)
        path = tmp_path / "store"
        enrol(bound_store(path), rng, "alice")
        models = path / MODELS_NAME
        raw = bytearray(models.read_bytes())
        raw[80] ^= 0x10
        models.write_bytes(bytes(raw))
        with pytest.raises(StoreIntegrityError, match=f"^{re.escape(str(models))}: checksum"):
            ModelStore(path).load("spectral")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("array", ["weights", "means", "variances"])
    def test_non_finite_record_is_integrity_error(self, tmp_path, array, value):
        """A model file whose checksum holds but whose weights, means or
        variances hold a NaN or inf in one row is refused on load, naming
        the file, the stream and the speaker."""
        self.check_bad_row(tmp_path, array, value)

    @pytest.mark.parametrize(
        "array, value", [("weights", 0.5), ("weights", -0.25), ("variances", 0.0),
                         ("variances", -1.0)],
        ids=["weights-sum", "negative-weight", "zero-variance", "negative-variance"],
    )
    def test_invalid_row_is_integrity_error(self, tmp_path, array, value):
        self.check_bad_row(tmp_path, array, value)

    @staticmethod
    def check_bad_row(tmp_path, array, value):
        path = tmp_path / "store"
        rng = np.random.default_rng(71)
        enrol(bound_store(path), rng, "alice", "bob", "carol")
        speakers, streams = _unpack((path / MODELS_NAME).read_bytes())
        kind, *arrays = streams[1]
        arrays = [a.copy() for a in arrays]
        row = arrays[("weights", "means", "variances").index(array)][1]
        row.flat[0] = value
        if array == "weights" and value < 0:
            row.flat[1] += 1.0 - row.sum()  # still sums to 1
        (path / MODELS_NAME).write_bytes(_pack(speakers, [streams[0], (kind, *arrays)]))
        store = ModelStore(path)
        store.load("spectral")
        pattern = (f"^{re.escape(str(path / MODELS_NAME))}: the residual model of speaker "
                   "'bob' is not a mixture")
        with pytest.raises(StoreIntegrityError, match=pattern):
            store.load("residual")

    def test_similar_ids_do_not_collide(self, tmp_path):
        """Ids that differ only in characters a filename could not hold
        verbatim each keep their own row."""
        rng = np.random.default_rng(72)
        path = tmp_path / "store"
        speakers = ["a b", "a_b", "a__b", "a_20b", "a/b", "é", " a", "a ", "a\nb"]
        stacks = [random_stack(rng, len(speakers)) for _ in STREAMS]
        bound_store(path).save(speakers, *stacks)
        reopened = ModelStore(path)
        assert reopened.speakers() == sorted(speakers)
        _, streams = _unpack((path / MODELS_NAME).read_bytes())
        for i, speaker in enumerate(speakers):
            row = sorted(speakers).index(speaker)
            np.testing.assert_array_equal(streams[0][2][row], stacks[0].means[i])

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
        """A store of the per-model records older versions wrote, whatever
        their names, and no model file is refused with a retrain message,
        by a train before anything is written and when it is read."""
        path = tmp_path / "store"
        path.mkdir()
        (path / CONFIG_NAME).write_text(
            "# sample_rate: 8000\n" + render_config(FOUR_COMPONENTS), encoding="utf-8"
        )
        (path / name).write_bytes(b"SIDM")
        message = (f"^model store at {re.escape(str(path))} holds \\*.gmm records of an older "
                   f"sidkit and no {MODELS_NAME}; retrain it$")
        with pytest.raises(StoreIntegrityError, match=message):
            bound_store(path)
        with pytest.raises(StoreIntegrityError, match=message):
            ModelStore(path).banks()
        assert sorted(p.name for p in path.iterdir()) == sorted([CONFIG_NAME, name])

    def test_stray_files_are_ignored(self, tmp_path):
        rng = np.random.default_rng(79)
        path = tmp_path / "store"
        store = bound_store(path)
        enrol(store, rng, "alice")
        for stray in ("notes.txt", "x__spectral.gmm.tmp", "index.tsv", "bob__spectral.gmm",
                      MODELS_NAME + ".tmp"):
            (path / stray).write_text("bob\tspectral\n", encoding="utf-8")
        reopened = ModelStore(path)
        assert reopened.speakers() == ["alice"]
        assert_same_banks(reopened.banks(), store.banks())

    def test_stale_config_without_records_is_replaced(self, tmp_path):
        """A store holding only the config.ini of a train that failed before
        its commit takes a train under another config and rate."""
        rng = np.random.default_rng(80)
        path = tmp_path / "store"
        enrol(bound_store(path), rng, "alice")
        (path / MODELS_NAME).unlink()

        cfg = FOUR_LFCC_COMPONENTS
        store = ModelStore(path)
        store.bind(cfg, 16000)
        enrol(store, rng, "bob")
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

    def test_path_with_a_nul_byte_is_integrity_error(self):
        with pytest.raises(StoreIntegrityError, match=r"^model store at 'x\\x00': "):
            ModelStore("x\0").banks()

    def test_save_records_config_and_leaves_no_temp_file(self, tmp_path):
        rng = np.random.default_rng(74)
        path = tmp_path / "store"
        cfg = dataclasses.replace(FOUR_LFCC_COMPONENTS, fusion=FusionConfig(eta=0.3))
        store = ModelStore(path)
        store.bind(cfg, 8000)
        enrol(store, rng, "alice")
        assert sorted(p.name for p in path.iterdir()) == [CONFIG_NAME, MODELS_NAME]
        assert (path / CONFIG_NAME).read_text(encoding="utf-8").startswith("# sample_rate: 8000\n")
        reopened = ModelStore(path)
        assert (reopened.config, reopened.sample_rate) == (cfg, 8000)
        # A reopened store saves under its recorded config without a bind.
        enrol(reopened, rng, "bob")
        speakers, streams = _unpack((path / MODELS_NAME).read_bytes())
        assert speakers == ["alice", "bob"]
        assert [kind for kind, *_ in streams] == ["lfcc", "residual_moments"]
        assert sorted(p.name for p in path.iterdir()) == [CONFIG_NAME, MODELS_NAME]

    def test_torn_record_write_keeps_previous_store(self, tmp_path, monkeypatch):
        """A save whose model-file write fails halfway, of a new speaker or
        over an enrolled one, leaves the previous speakers, models and
        files, and no temp file."""

        def torn_write(self, data):
            with open(self, "wb") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError("no space left on device")

        self.check_failed_save(tmp_path, monkeypatch, (Path, "write_bytes", torn_write))

    def test_failed_commit_keeps_previous_store(self, tmp_path, monkeypatch):
        """The same, when the ``os.replace`` that commits the file fails."""

        def failed_replace(src, dst):
            raise OSError("no space left on device")

        self.check_failed_save(tmp_path, monkeypatch, (os, "replace", failed_replace))

    @staticmethod
    def check_failed_save(tmp_path, monkeypatch, fault):
        rng = np.random.default_rng(75)
        path = tmp_path / "store"
        store = bound_store(path)
        enrol(store, rng, "alice", "bob")
        files = {p.name: p.read_bytes() for p in path.iterdir()}
        banks = store.banks()
        monkeypatch.setattr(*fault)
        for speaker in ("carol", "alice"):
            with pytest.raises(OSError, match="no space left"):
                enrol(store, rng, speaker)
        monkeypatch.undo()
        reopened = ModelStore(path)
        assert reopened.speakers() == ["alice", "bob"]
        assert_same_banks(reopened.banks(), banks)
        assert {p.name: p.read_bytes() for p in path.iterdir()} == files
