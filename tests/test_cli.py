"""End-to-end tests for the command-line interface."""

import dataclasses
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import wave
import zlib
from pathlib import Path

import numpy as np
import pytest

from sidkit import commands
from sidkit.cli import main
from sidkit.commands import evaluate_command, identify_command, train_command
from sidkit.config import ToolkitConfig
from sidkit.corpus import CorpusManifest, ManifestEntry, read_manifest, write_manifest
from sidkit.errors import (
    ConfigMismatch,
    ManifestError,
    SidkitError,
    UnsupportedFormat,
)
from sidkit.store import CONFIG_NAME, MODELS_NAME, ModelStore, _pack, _unpack


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """A small corpus and trained store built entirely through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = root / "corpus"
    store_dir = root / "store"
    rc = main(
        [
            "synth",
            "--speakers",
            "4",
            "--out",
            str(corpus_dir),
            "--train-utts",
            "3",
            "--test-utts",
            "2",
            "--seconds",
            "1.0",
        ]
    )
    assert rc == 0
    rc = main(
        ["train", "--manifest", str(corpus_dir / "manifest.tsv"), "--out", str(store_dir)]
    )
    assert rc == 0
    return corpus_dir, store_dir


def no_audio(*args, **kwargs):
    raise AssertionError("audio read before the config was checked")


def speaker_manifest(corpus_dir, path, speaker_id):
    """Write a manifest at ``path`` of spk00's train utterances, enrolled as
    ``speaker_id``."""
    manifest = read_manifest(corpus_dir / "manifest.tsv")
    entries = [
        ManifestEntry(speaker_id, f"{speaker_id}_{e.utterance_id}", e.path, "train")
        for e in manifest.train_entries if e.speaker_id == "spk00"
    ]
    write_manifest(CorpusManifest(entries, manifest.sample_rate), path)
    return str(path)


class TestSynth:
    def test_writes_manifest_and_audio(self, cli_workspace):
        """synth produces a readable manifest whose WAV files all exist."""
        corpus_dir, _ = cli_workspace
        manifest = read_manifest(corpus_dir / "manifest.tsv")
        assert len(manifest.entries) == 4 * 5
        assert len(manifest.train_entries) == 4 * 3
        assert len(manifest.test_entries) == 4 * 2
        for entry in manifest.entries:
            assert entry.path.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--seconds", "0"], "utt_seconds must be finite and give at least one sample"),
            (["--seconds", "-1"], "utt_seconds must be finite and give at least one sample"),
            (["--seconds", "inf"], "utt_seconds must be finite and give at least one sample"),
            (["--sample-rate", "0"], "sample_rate must be positive, got 0"),
            (["--train-utts", "0"], "need at least one train utterance per speaker\n"),
            (["--test-utts", "-1"], "test_utts must be >= 0, got -1\n"),
        ],
        ids=["zero-seconds", "negative-seconds", "infinite-seconds", "zero-rate",
             "zero-train-utts", "negative-test-utts"],
    )
    def test_bad_length_or_rate_fails_cleanly(self, tmp_path, capsys, argv, message):
        """An utterance length or rate that gives no samples, or an utterance
        count below its floor, is an error naming the argument, and no corpus
        directory is made."""
        rc = main(["synth", "--speakers", "2", "--out", str(tmp_path / "c"), *argv])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "c").exists()


    def test_without_scipy_names_the_extra(self, tmp_path, monkeypatch, capsys):
        """Synthesis is the one command that needs scipy, an optional extra."""
        monkeypatch.setitem(sys.modules, "scipy.signal", None)
        rc = main(["synth", "--speakers", "2", "--seconds", "0.5", "--out", str(tmp_path / "c")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "pip install sidkit[synth]" in err
        assert not (tmp_path / "c").exists()


class TestTrain:
    def test_store_holds_both_streams_per_speaker(self, cli_workspace):
        """train leaves one spectral and one residual model per speaker."""
        _, store_dir = cli_workspace
        store = ModelStore(store_dir)
        assert len(store.speakers()) == 4
        assert [bank.speakers for bank in store.banks()] == [tuple(store.speakers())] * 2
        assert sorted(p.name for p in store_dir.iterdir()) == [CONFIG_NAME, MODELS_NAME]
        text = (store_dir / CONFIG_NAME).read_text(encoding="utf-8")
        assert text.splitlines()[0] == "# sample_rate: 8000"

    def test_reports_the_models_it_trained(self, cli_workspace, tmp_path, capsys):
        """Training one speaker into an existing store reports its 2 models,
        not the store's total."""
        corpus_dir, store_dir = cli_workspace
        store = tmp_path / "store"
        shutil.copytree(store_dir, store)
        manifest = speaker_manifest(corpus_dir, tmp_path / "zz.tsv", "zz")
        assert main(["train", "--manifest", manifest, "--out", str(store)]) == 0
        assert capsys.readouterr().out == f"trained 2 models into {store}\n"
        assert ModelStore(store).speakers() == [*ModelStore(store_dir).speakers(), "zz"]

    def test_each_scarce_model_warns_in_one_line(self, tmp_path, capsys):
        """Each scarce-model warning is one "warning:" line on stderr, not
        Python's two-line format naming the source line."""
        corpus = tmp_path / "corpus"
        assert main(["synth", "--speakers", "2", "--seconds", "0.5", "--train-utts", "1",
                     "--out", str(corpus)]) == 0
        assert main(["train", "--manifest", str(corpus / "manifest.tsv"),
                     "--out", str(tmp_path / "store")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: speaker spk{i:02d} {stream} stream: only 49 vectors for 8 components; "
            "estimates may be unreliable"
            for stream in ("spectral", "residual")
            for i in range(2)
        ]

    @pytest.mark.parametrize(
        "bom, extra", [("", ""), ("", "per_frame_average = false\n"), ("\ufeff", "")],
        ids=["default-config", "per-frame-average-false", "bom"],
    )
    def test_default_config_file_trains_like_no_config(
        self, cli_workspace, tmp_path, bom, extra
    ):
        """A config written by default-config, also with the removed [fusion]
        key appended false or saved with a UTF-8 byte-order mark, trains the
        bytes that no config trains."""
        corpus_dir, _ = cli_workspace
        config = tmp_path / "sidkit.ini"
        assert main(["default-config", "--out", str(config)]) == 0
        config.write_text(bom + config.read_text(encoding="utf-8") + extra, encoding="utf-8")
        manifest = speaker_manifest(corpus_dir, tmp_path / "spk00.tsv", "spk00")
        store, plain = tmp_path / "store", tmp_path / "plain"
        assert main(["train", "--manifest", manifest, "--out", str(store),
                     "--config", str(config)]) == 0
        assert main(["train", "--manifest", manifest, "--out", str(plain)]) == 0
        names = sorted(p.name for p in store.iterdir())
        assert names == [CONFIG_NAME, MODELS_NAME]
        for name in names:
            assert (store / name).read_bytes() == (plain / name).read_bytes(), name

    def test_header_only_manifest_fails_cleanly(self, tmp_path, capsys):
        """A manifest without train utterances is an error, and no store is made."""
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("# speaker_id\tutterance_id\tpath\tsplit\n", encoding="utf-8")
        rc = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "models")])
        assert rc == 1
        assert "no train utterances" in capsys.readouterr().err
        assert not (tmp_path / "models").exists()

    def test_non_power_of_two_component_count_fails_cleanly(
        self, cli_workspace, tmp_path, capsys
    ):
        """A config asking for 6 components exits 1 naming the key, and no
        store is made."""
        corpus_dir, _ = cli_workspace
        config = tmp_path / "m6.ini"
        config.write_text("[model]\nm_spectral = 6\n", encoding="utf-8")
        rc = main(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
                   "--out", str(tmp_path / "models"), "--config", str(config)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: m_spectral must be a power of two, got 6")
        assert not (tmp_path / "models").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[preprocess]\nframe_len = 300\n",
             "[preprocess] frame_len = 300 must not exceed [spectral] fft_size = 256"),
            ("[preprocess]\nframe_len = 16\nframe_shift = 8\n",
             "[preprocess] frame_len = 16 must exceed [residual] lp_order = 17"),
            ("[fusion]\nper_frame_average = true\n",
             "[fusion] per_frame_average = true is no longer supported: "
             "stream scores are always sums over frames"),
            ("[preprocess]\nframe_len = twenty\n",
             "[preprocess] frame_len = 'twenty' is not an int"),
            ("[preprocess]\nframe_len = 1%\n", "[preprocess] frame_len = '1%' is not an int"),
            ("[spectral]\nnum_cepstra = 0\n", "num_cepstra must be >= 1, got 0"),
            ("[model]\nvariance_floor_factor = inf\n",
             "[model] variance_floor_factor = inf is not a finite float"),
            ("[spectral]\nkind = lpcc\nlpcc_lp_order = 0\n", "lpcc_lp_order must be >= 1, got 0"),
            ("frame_len = 200\n",
             "malformed config: line 1: 'frame_len = 200' comes before any [section] header"),
            ("[preprocess]\nframe_len = 160\nframe_len = 240\n",
             "malformed config: line 3: 'frame_len = 240' repeats a key of its section"),
        ],
        ids=["frame-over-fft", "frame-under-order", "per-frame-average", "frame-len-text",
             "frame-len-percent", "no-cepstra", "infinite-variance-floor", "lpcc-order-0",
             "no-section", "duplicate-key"],
    )
    def test_unusable_config_fails_before_any_audio_is_read(
        self, cli_workspace, tmp_path, capsys, monkeypatch, text, message
    ):
        """A config that no utterance could be trained under exits 1 with one
        error line naming the file and its keys or line, before any WAV is
        read, and no store is made."""
        corpus_dir, _ = cli_workspace
        config = tmp_path / "bad.ini"
        config.write_text(text, encoding="utf-8")
        monkeypatch.setattr(commands, "load_audio", no_audio)
        rc = main(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
                   "--out", str(tmp_path / "models"), "--config", str(config)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not (tmp_path / "models").exists()


class TestEvaluate:
    def test_writes_report_and_records(self, cli_workspace, tmp_path, capsys):
        """evaluate prints accuracies and writes the report and record files,
        the same bytes on every run."""
        corpus_dir, store_dir = cli_workspace
        report = tmp_path / "report.txt"
        records = tmp_path / "records.jsonl"
        rc = main(
            [
                "evaluate",
                "--manifest",
                str(corpus_dir / "manifest.tsv"),
                "--store",
                str(store_dir),
                "--report",
                str(report),
                "--records",
                str(records),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "PIA fused (eta=0.5000):" in out
        assert "test utterances: 8" in out

        text = report.read_text()
        assert "# PIA fused:" in text
        # one body row per test utterance; headers are comment lines
        body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        assert len(body) == 8

        lines = records.read_text().splitlines()
        assert len(lines) == 8
        rec = json.loads(lines[0])
        assert set(rec) >= {"utterance_id", "true_id", "decided_id", "decided_scores"}
        assert set(rec["decided_scores"]) == {"spectral", "residual", "combined"}

        again = tmp_path / "records-again.jsonl"
        assert main(["evaluate", "--manifest", str(corpus_dir / "manifest.tsv"),
                     "--store", str(store_dir), "--records", str(again)]) == 0
        assert again.read_bytes() == records.read_bytes()

    def test_store_asking_for_per_frame_average_fails_cleanly(
        self, cli_workspace, tmp_path, capsys, monkeypatch
    ):
        """A store whose config.ini sets the removed key true exits 1 from
        evaluate and identify naming the key, before any WAV is read."""
        corpus_dir, store_dir = cli_workspace
        store = tmp_path / "store"
        shutil.copytree(store_dir, store)
        config = store / CONFIG_NAME
        config.write_text(config.read_text(encoding="utf-8") + "per_frame_average = True\n",
                          encoding="utf-8")
        monkeypatch.setattr(commands, "load_audio", no_audio)
        audio = read_manifest(corpus_dir / "manifest.tsv").test_entries[0].path
        for argv in (["evaluate", "--manifest", str(corpus_dir / "manifest.tsv")],
                     ["identify", "--audio", str(audio)]):
            assert main([*argv, "--store", str(store)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {config}: [fusion] per_frame_average = true")

    def test_eta_out_of_range_fails_cleanly(self, cli_workspace, capsys):
        """A bad fusion weight exits with status 1 and an error message."""
        corpus_dir, store_dir = cli_workspace
        rc = main(
            [
                "evaluate",
                "--manifest",
                str(corpus_dir / "manifest.tsv"),
                "--store",
                str(store_dir),
                "--eta",
                "1.5",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_eta_out_of_range_writes_no_output(self, cli_workspace, tmp_path, capsys):
        corpus_dir, store_dir = cli_workspace
        report, records = tmp_path / "r.txt", tmp_path / "rec.jsonl"
        rc = main(["evaluate", "--manifest", str(corpus_dir / "manifest.tsv"),
                   "--store", str(store_dir), "--eta", "1.5",
                   "--report", str(report), "--records", str(records)])
        assert rc == 1
        assert "eta must be in [0, 1]" in capsys.readouterr().err
        assert not report.exists() and not records.exists()


class TestIdentify:
    def test_identifies_known_speaker(self, cli_workspace, capsys):
        """identify on a held-out utterance prints a decision and a ranking."""
        corpus_dir, store_dir = cli_workspace
        manifest = read_manifest(corpus_dir / "manifest.tsv")
        entry = manifest.test_entries[0]
        rc = main(
            ["identify", "--audio", str(entry.path), "--store", str(store_dir)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith(f"decided: {entry.speaker_id}\n")
        # ranking lists every enrolled speaker once
        ranked = [ln.split()[1] for ln in out.splitlines()[1:]]
        assert sorted(ranked) == sorted(ModelStore(store_dir).speakers())

    def test_each_line_carries_its_speakers_scores(self, cli_workspace, capsys):
        """Every ranked line prints that speaker's own combined, spectral and
        residual scores from ``identify_command``, best combined score first."""
        corpus_dir, store_dir = cli_workspace
        manifest = read_manifest(corpus_dir / "manifest.tsv")
        for entry in manifest.test_entries:
            assert main(["identify", "--audio", str(entry.path), "--store", str(store_dir),
                         "--eta", "0.3"]) == 0
            lines = capsys.readouterr().out.splitlines()[1:]
            result = identify_command(entry.path, ModelStore(store_dir), eta=0.3)
            rows = dict(zip(result.scores.speakers, result.scores.scores.tolist()))
            assert [ln.split()[1] for ln in lines] == list(result.ranking)
            for line, speaker in zip(lines, result.ranking):
                spectral, residual, combined = rows[speaker]
                assert line.split()[2:] == [
                    f"combined={combined:.6f}", f"spectral={spectral:.6f}",
                    f"residual={residual:.6f}",
                ]
            combined = [float(ln.split()[2].removeprefix("combined=")) for ln in lines]
            assert combined == sorted(combined, reverse=True)

    def test_missing_store_fails_cleanly(self, cli_workspace, tmp_path, capsys):
        """Pointing identify at a store directory that does not exist exits
        with status 1 and says so, not that the store is empty."""
        corpus_dir, _ = cli_workspace
        manifest = read_manifest(corpus_dir / "manifest.tsv")
        rc = main(
            [
                "identify",
                "--audio",
                str(manifest.test_entries[0].path),
                "--store",
                str(tmp_path / "nothing"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: model store at {tmp_path / 'nothing'} does not exist\n"
        )


# config.ini edits that make the recorded widths differ from the ones the
# default store's models were trained with (19 cepstra, 6 residual moments).
NARROW_EDITS = {
    "spectral": ("num_cepstra = 19", "num_cepstra = 12"),
    "residual": ("num_moments = 6", "num_moments = 4"),
}
# The same width, another spectral kind than the records hold.
KIND_EDIT = ("kind = mfcc", "kind = lfcc")


def narrow_store(store_dir, out_dir, edit):
    """A copy of ``store_dir`` whose config.ini disagrees with its records."""
    shutil.copytree(store_dir, out_dir)
    config = out_dir / CONFIG_NAME
    old, new = edit
    config.write_text(config.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    return ModelStore(out_dir)



class TestWidthMismatch:
    """A config.ini whose width disagrees with the stored models is a
    ConfigMismatch naming the model file, the stream, the key and both
    widths, raised when the store is read, before any audio."""

    @staticmethod
    def message(store_path, stream):
        key, stored = NARROW_EDITS[stream][0].split(" = ")
        narrow = NARROW_EDITS[stream][1].split(" = ")[1]
        return (f"{store_path / MODELS_NAME}: the {stream} models have {stored} dimensions, "
                f"but config.ini says {key} = {narrow}")

    @pytest.mark.parametrize("stream", sorted(NARROW_EDITS))
    def test_evaluate_names_record_key_and_widths(self, cli_workspace, tmp_path, monkeypatch,
                                                  stream):
        corpus_dir, store_dir = cli_workspace
        manifest = read_manifest(corpus_dir / "manifest.tsv")
        store = narrow_store(store_dir, tmp_path / "store", NARROW_EDITS[stream])
        monkeypatch.setattr(commands, "load_audio", no_audio)
        with pytest.raises(ConfigMismatch, match=f"^{re.escape(self.message(store.path, stream))}$"):
            evaluate_command(manifest, store)

    @pytest.mark.parametrize("stream", sorted(NARROW_EDITS))
    def test_identify_names_record_key_and_widths(self, cli_workspace, tmp_path, monkeypatch,
                                                  stream):
        corpus_dir, store_dir = cli_workspace
        path = read_manifest(corpus_dir / "manifest.tsv").test_entries[0].path
        store = narrow_store(store_dir, tmp_path / "store", NARROW_EDITS[stream])
        monkeypatch.setattr(commands, "load_audio", no_audio)
        with pytest.raises(ConfigMismatch, match=f"^{re.escape(self.message(store.path, stream))}$"):
            identify_command(path, store)

    def test_cli_evaluate_fails_cleanly(self, cli_workspace, tmp_path, capsys):
        corpus_dir, store_dir = cli_workspace
        store = narrow_store(store_dir, tmp_path / "store", NARROW_EDITS["spectral"])
        rc = main(
            [
                "evaluate",
                "--manifest",
                str(corpus_dir / "manifest.tsv"),
                "--store",
                str(tmp_path / "store"),
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {self.message(store.path, 'spectral')}\n"


class TestKindMismatch:
    """Records of another feature kind than config.ini names are rejected."""

    def test_evaluate_and_identify_name_stream_and_kinds(self, cli_workspace, tmp_path):
        corpus_dir, store_dir = cli_workspace
        manifest = read_manifest(corpus_dir / "manifest.tsv")
        store = narrow_store(store_dir, tmp_path / "store", KIND_EDIT)
        pattern = (f"^{re.escape(str(store.path / MODELS_NAME))}: the spectral models hold "
                   "mfcc features, but config.ini says lfcc$")
        with pytest.raises(ConfigMismatch, match=pattern):
            evaluate_command(manifest, store)
        with pytest.raises(ConfigMismatch, match=pattern):
            identify_command(manifest.test_entries[0].path, store)

    def test_cli_evaluate_fails_cleanly(self, cli_workspace, tmp_path, capsys):
        corpus_dir, store_dir = cli_workspace
        narrow_store(store_dir, tmp_path / "store", KIND_EDIT)
        manifest = str(corpus_dir / "manifest.tsv")
        assert main(["evaluate", "--manifest", manifest, "--store", str(tmp_path / "store")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "mfcc" in err and "lfcc" in err


class TestComponentMismatch:
    """A model file re-written with another component count than config.ini
    names is rejected when the store is read, before any scoring."""

    @staticmethod
    def resaved_store(store_dir, out_dir):
        """A copy of ``store_dir`` whose spectral models have 4 components."""
        shutil.copytree(store_dir, out_dir)
        speakers, (spectral, residual) = _unpack((out_dir / MODELS_NAME).read_bytes())
        kind, _, means, variances = spectral
        fewer = (kind, np.full((len(speakers), 4), 0.25), means[:, :4], variances[:, :4])
        (out_dir / MODELS_NAME).write_bytes(_pack(speakers, [fewer, residual]))
        return ModelStore(out_dir)

    def test_evaluate_and_identify_name_record_and_counts(self, cli_workspace, tmp_path):
        corpus_dir, store_dir = cli_workspace
        manifest = read_manifest(corpus_dir / "manifest.tsv")
        store = self.resaved_store(store_dir, tmp_path / "store")
        pattern = (
            f"^{re.escape(str(store.path / MODELS_NAME))}: the spectral models have 4 "
            "components, but config.ini says m_spectral = 8$"
        )
        with pytest.raises(ConfigMismatch, match=pattern):
            evaluate_command(manifest, store)
        with pytest.raises(ConfigMismatch, match=pattern):
            identify_command(manifest.test_entries[0].path, ModelStore(store.path))

    def test_cli_identify_fails_cleanly(self, cli_workspace, tmp_path, capsys):
        corpus_dir, store_dir = cli_workspace
        self.resaved_store(store_dir, tmp_path / "store")
        audio = str(read_manifest(corpus_dir / "manifest.tsv").test_entries[0].path)
        assert main(["identify", "--audio", audio, "--store", str(tmp_path / "store")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "m_spectral = 8" in err and "Traceback" not in err

    def test_cli_evaluate_fails_cleanly(self, cli_workspace, tmp_path, capsys):
        corpus_dir, store_dir = cli_workspace
        self.resaved_store(store_dir, tmp_path / "store")
        manifest = str(corpus_dir / "manifest.tsv")
        assert main(["evaluate", "--manifest", manifest, "--store", str(tmp_path / "store")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "m_spectral = 8" in err and "Traceback" not in err


class TestMalformedRecord:
    def test_cli_identify_fails_cleanly(self, cli_workspace, tmp_path, capsys):
        """A model file whose checksum holds but whose feature-kind length
        runs past its end exits 1 naming the file, not with a traceback."""
        corpus_dir, store_dir = cli_workspace
        shutil.copytree(store_dir, tmp_path / "store")
        body = b"SIDS" + struct.pack("<H7I", 2, 4, 8, 19, 4, 8, 6, 200) + b"mfcc"
        record = tmp_path / "store" / MODELS_NAME
        record.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        audio = str(read_manifest(corpus_dir / "manifest.tsv").test_entries[0].path)
        assert main(["identify", "--audio", audio, "--store", str(tmp_path / "store")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(record) in err and "runs past" in err


class TestUnreadableAudio:
    """A missing WAV is a typed error naming the file and the utterance."""

    def test_identify_names_the_file(self, cli_workspace, tmp_path):
        _, store_dir = cli_workspace
        missing = tmp_path / "missing.wav"
        with pytest.raises(UnsupportedFormat, match=re.escape(f"{missing}: ") + ".*cannot read") as exc:
            identify_command(missing, ModelStore(store_dir))
        assert str(exc.value).count(str(missing)) == 1

    def test_evaluate_names_the_utterance(self, cli_workspace, tmp_path):
        corpus_dir, store_dir = cli_workspace
        manifest = read_manifest(corpus_dir / "manifest.tsv")
        gone = manifest.test_entries[0]
        entries = [
            dataclasses.replace(e, path=tmp_path / "missing.wav") if e is gone else e
            for e in manifest.entries
        ]
        with pytest.raises(UnsupportedFormat, match=f"utterance {gone.utterance_id}: .*cannot read"):
            evaluate_command(CorpusManifest(entries, manifest.sample_rate), ModelStore(store_dir))

    def test_cli_identify_fails_cleanly(self, cli_workspace, tmp_path, capsys):
        _, store_dir = cli_workspace
        missing = tmp_path / "missing.wav"
        rc = main(["identify", "--audio", str(missing), "--store", str(store_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err

    def test_console_entry_exits_1_with_one_error_line(self, cli_workspace, tmp_path):
        """``python -m sidkit.cli`` turns a user error into exit status 1 and
        one stderr line, with no traceback."""
        _, store_dir = cli_workspace
        proc = subprocess.run(
            [sys.executable, "-m", "sidkit.cli", "identify", "--audio", "missing.wav",
             "--store", str(store_dir)],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: missing.wav: cannot read")
        assert "Traceback" not in proc.stderr


def write_wav(path, channels=1, width=2, frames=b""):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(width)
        wf.setframerate(8000)
        wf.writeframes(frames)


def odd_length(path, valid):
    data = valid.read_bytes()
    assert len(data) % 2 == 0
    path.write_bytes(data[:-1])


def truncated(path, valid):
    data = valid.read_bytes()
    path.write_bytes(data[: len(data) // 2 & ~1])


def odd_chunk(path, valid):
    """The header declares a data chunk one byte short of its last sample;
    that sample's second byte is left as the chunk's pad byte."""
    data = bytearray(valid.read_bytes())
    assert data[36:40] == b"data"
    size = struct.unpack_from("<I", data, 40)[0]
    struct.pack_into("<I", data, 40, size - 1)
    path.write_bytes(data)


def riff_undercount(path, valid):
    """The data chunk declares and holds one byte past its last sample, but
    the RIFF size still counts the chunk without it."""
    data = bytearray(valid.read_bytes())
    assert data[36:40] == b"data"
    size = struct.unpack_from("<I", data, 40)[0]
    struct.pack_into("<I", data, 40, size + 1)
    path.write_bytes(data + b"\0")


def list_overrun(path, valid):
    """A LIST chunk before a 200-sample data chunk declares 4096 bytes but
    holds 4; the RIFF size counts the bytes the file holds."""
    write_wav(path, frames=bytes(400))
    data = path.read_bytes()
    assert data[36:40] == b"data"
    riff = b"RIFF" + struct.pack("<I", len(data) + 12 - 8)
    path.write_bytes(riff + data[8:36] + b"LIST" + struct.pack("<I", 4096) + b"INFO" + data[36:])


def rate_zero(path, valid):
    data = bytearray(valid.read_bytes())
    struct.pack_into("<I", data, 24, 0)  # the fmt chunk's sample rate
    path.write_bytes(data)


# Each writes a malformed WAV at ``path``, some from the ``valid`` one.
MALFORMED_WAVS = {
    "odd-length": odd_length,
    "truncated": truncated,
    "odd-chunk": odd_chunk,
    "riff-undercount": riff_undercount,
    "rate-0": rate_zero,
    "list-overrun": list_overrun,
    "header-only": lambda path, valid: write_wav(path),
    "all-zero-samples": lambda path, valid: write_wav(path, frames=bytes(16000)),
    "stereo": lambda path, valid: write_wav(path, channels=2, frames=bytes(400)),
    "8-bit": lambda path, valid: write_wav(path, width=1, frames=bytes(200)),
    "not-riff": lambda path, valid: path.write_bytes(b"this is not audio"),
    "missing": lambda path, valid: None,
}


class TestMalformedAudio:
    """A malformed WAV is a typed error in every command: identify names the
    file once, train and evaluate name the speaker and utterance once."""

    @pytest.mark.parametrize("make", MALFORMED_WAVS.values(), ids=MALFORMED_WAVS.keys())
    def test_every_command_names_its_source_once(self, cli_workspace, tmp_path, make):
        corpus_dir, store_dir = cli_workspace
        manifest = read_manifest(corpus_dir / "manifest.tsv")
        bad = tmp_path / "bad.wav"
        make(bad, manifest.test_entries[0].path)

        with pytest.raises(SidkitError) as exc:
            identify_command(bad, ModelStore(store_dir))
        message = str(exc.value)
        assert message.startswith(f"{bad}: ") and message.count(str(bad)) == 1, message

        for entries, run in (
            (manifest.train_entries,
             lambda m: train_command(m, ToolkitConfig(), tmp_path / "store")),
            (manifest.test_entries, lambda m: evaluate_command(m, ModelStore(store_dir))),
        ):
            gone = min(entries, key=lambda e: (e.speaker_id, e.utterance_id))
            broken = [dataclasses.replace(e, path=bad) if e is gone else e for e in manifest.entries]
            with pytest.raises(SidkitError) as exc:
                run(CorpusManifest(broken, manifest.sample_rate))
            message = str(exc.value)
            context = f"speaker {gone.speaker_id} utterance {gone.utterance_id}"
            assert message.startswith(f"{context}: ") and message.count(context) == 1, message
            assert message.count(str(bad)) <= 1, message


    @pytest.mark.parametrize("command", ["train", "evaluate", "identify"])
    def test_chunk_overrun_is_one_error_line(self, cli_workspace, tmp_path, capsys, command):
        """A chunk that runs past the file exits 1 with one "error:" line
        naming the chunk, from each command."""
        corpus_dir, store_dir = cli_workspace
        bad, broken = tmp_path / "bad.wav", tmp_path / "broken.tsv"
        list_overrun(bad, None)
        manifest = read_manifest(corpus_dir / "manifest.tsv")
        # Only the split the command reads: a test entry may not read a train file.
        split = "test" if command == "evaluate" else "train"
        entries = [dataclasses.replace(e, path=bad) if e.split == split else e
                   for e in manifest.entries]
        write_manifest(CorpusManifest(entries, manifest.sample_rate), broken)
        argv = {
            "train": ["--manifest", str(broken), "--out", str(tmp_path / "store")],
            "evaluate": ["--manifest", str(broken), "--store", str(store_dir)],
            "identify": ["--audio", str(bad), "--store", str(store_dir)],
        }[command]
        assert main([command, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        assert line.endswith(
            f"{bad}: b'LIST' chunk of 4096 bytes runs past the file or its RIFF size")


class TestMissingInputFiles:
    """A missing manifest or config file is an error line naming the path."""

    def test_read_manifest_names_the_path(self, tmp_path):
        missing = tmp_path / "nothere.tsv"
        with pytest.raises(ManifestError, match=re.escape(f"manifest {missing}: ")):
            read_manifest(missing)
        not_text = tmp_path / "latin1.tsv"
        not_text.write_bytes(b"\xff\xfe")
        with pytest.raises(ManifestError, match=re.escape(f"manifest {not_text}: ")):
            read_manifest(not_text)

    @pytest.mark.parametrize(
        "argv, missing_name",
        [
            (["evaluate", "--manifest", "{tmp}/nothere.tsv", "--store", "{store}"], "nothere.tsv"),
            (["train", "--manifest", "{tmp}/nothere.tsv", "--out", "{tmp}/out"], "nothere.tsv"),
            (["train", "--manifest", "{corpus}/manifest.tsv", "--out", "{tmp}/out",
              "--config", "{tmp}/nothere.ini"], "nothere.ini"),
        ],
        ids=["evaluate-manifest", "train-manifest", "train-config"],
    )
    def test_cli_fails_cleanly(self, cli_workspace, tmp_path, capsys, argv, missing_name):
        corpus_dir, store_dir = cli_workspace
        rc = main([a.format(tmp=tmp_path, store=store_dir, corpus=corpus_dir) for a in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path / missing_name) in err
        assert not (tmp_path / "out").exists()


class TestUnwritableOutput:
    """An output path that cannot be written is an error line naming it."""

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["evaluate", "--manifest", "{corpus}/manifest.tsv", "--store", "{store}",
              "--report", "{tmp}/nodir/report.txt"], "nodir/report.txt"),
            (["evaluate", "--manifest", "{corpus}/manifest.tsv", "--store", "{store}",
              "--records", "{tmp}/nodir/records.jsonl"], "nodir/records.jsonl"),
            (["synth", "--speakers", "2", "--seconds", "0.5", "--out", "{tmp}/afile/corpus"],
             "afile/corpus"),
        ],
        ids=["evaluate-report", "evaluate-records", "synth"],
    )
    def test_cli_fails_cleanly(self, cli_workspace, tmp_path, capsys, argv, bad):
        corpus_dir, store_dir = cli_workspace
        (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
        rc = main([a.format(tmp=tmp_path, store=store_dir, corpus=corpus_dir) for a in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path / bad) in err


class TestDefaultConfig:
    def test_written_file_round_trips(self, tmp_path, capsys):
        """default-config --out writes the text it prints, which parses back
        to the defaults."""
        from sidkit.config import ToolkitConfig, load_config

        path = tmp_path / "sidkit.ini"
        rc = main(["default-config", "--out", str(path)])
        assert rc == 0
        assert load_config(path) == ToolkitConfig()
        assert capsys.readouterr().out == f"wrote default configuration to {path}\n"
        assert main(["default-config"]) == 0
        assert capsys.readouterr().out == path.read_text(encoding="utf-8")

    def test_prints_to_stdout(self, capsys):
        """Without --out the default configuration goes to stdout."""
        rc = main(["default-config"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[spectral]" in out and "eta = 0.5" in out
