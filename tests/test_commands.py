"""A trained store supplies its own config and its models to evaluate, identify
and later training."""

import dataclasses
import errno
import json
import logging
import os
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from sidkit import commands
from sidkit.audio_io import load_audio, save_audio
from sidkit.commands import (
    evaluate_command,
    extract_streams,
    identify_command,
    render_records,
    render_report,
    train_command,
)
from sidkit.config import FusionConfig, PreprocessConfig, SpectralConfig, ToolkitConfig
from sidkit.corpus import (
    CorpusManifest,
    ManifestEntry,
    default_speaker_specs,
    generate_synthetic_corpus,
)
from sidkit.errors import (
    ConfigMismatch,
    EmptyAfterVad,
    InsufficientData,
    ManifestError,
    MissingModel,
    SampleRateMismatch,
    StoreIntegrityError,
    UnsupportedFormat,
)
from sidkit.frontend import AudioSignal
from sidkit.gmm import _logsumexp
from sidkit.identify import (
    COLUMNS,
    COMBINED,
    RESIDUAL,
    SPECTRAL,
    identify,
    score_utterance,
    with_eta,
)
from sidkit.spectral import make_filterbank
from sidkit.store import CONFIG_NAME, MODELS_NAME, STREAMS, ModelStore, _unpack

from oracles import em_train_one, lbg_init_one

TRAINING_CONFIGS = {
    "frame_len": ToolkitConfig(preprocess=PreprocessConfig(frame_len=240, frame_shift=120)),
    "lfcc": ToolkitConfig(spectral=SpectralConfig(kind="lfcc", num_cepstra=12)),
    "lpcc": ToolkitConfig(spectral=SpectralConfig(kind="lpcc")),
}


def make_corpus(root, speakers, sample_rate=8000):
    return generate_synthetic_corpus(
        default_speaker_specs(speakers, seed=3),
        train_utts=3,
        test_utts=2,
        utt_seconds=1.0,
        seed=3,
        out_dir=root,
        sample_rate=sample_rate,
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return make_corpus(tmp_path_factory.mktemp("corpus"), 4)


def decisions_under(cfg, manifest, store):
    """(fused, spectral-only, residual-only) decisions per test utterance,
    scored directly with ``cfg``."""
    banks = store.banks()
    decisions = []
    for entry in sorted(manifest.test_entries, key=lambda e: e.utterance_id):
        signal = load_audio(entry.path, expected_rate=manifest.sample_rate)
        spectral, residual = extract_streams(signal, cfg)
        scores = score_utterance(spectral, residual, banks, cfg.fusion.eta)
        etas = (cfg.fusion.eta, 1.0, 0.0)
        decisions.append(tuple(identify(with_eta(scores, eta)) for eta in etas))
    return decisions


def snapshot(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


# The config.ini of a default store trained while ``[fusion] per_frame_average``
# was still a key.
OLD_CONFIG_INI = """\
# sample_rate: 8000
[preprocess]
pre_emphasis = 0.97
frame_len = 160
frame_shift = 80
silence_energy_ratio = 0.06

[residual]
lp_order = 17
num_moments = 6

[spectral]
kind = mfcc
num_filters = 20
num_cepstra = 19
fft_size = 256
lpcc_lp_order = 19

[model]
m_spectral = 8
m_residual = 8
em_iterations = 10
variance_floor_factor = 0.01
lbg_split_epsilon = 0.02

[fusion]
eta = 0.5
per_frame_average = False
"""


def test_store_written_with_per_frame_average_still_loads(corpus, tmp_path):
    """A store whose config.ini still sets the removed key false evaluates
    to the same bytes as a fresh store and takes more speakers under the
    default config."""
    fresh = train_command(corpus, ToolkitConfig(), tmp_path / "fresh")
    fresh_text = (tmp_path / "fresh" / CONFIG_NAME).read_text(encoding="utf-8")
    assert fresh_text == OLD_CONFIG_INI.replace("per_frame_average = False\n", "")
    shutil.copytree(tmp_path / "fresh", tmp_path / "old")
    (tmp_path / "old" / CONFIG_NAME).write_text(OLD_CONFIG_INI, encoding="utf-8")

    old = ModelStore(tmp_path / "old")
    assert old.config == ToolkitConfig()
    old_run, fresh_run = evaluate_command(corpus, old), evaluate_command(corpus, fresh)
    assert render_report(old_run) == render_report(fresh_run)
    assert render_records(old_run) == render_records(fresh_run)

    source = corpus.speakers()[0]
    extra = [
        ManifestEntry("zz", f"zz_{e.utterance_id}", e.path, "train")
        for e in corpus.train_entries if e.speaker_id == source
    ]
    train_command(CorpusManifest(extra, corpus.sample_rate), ToolkitConfig(), tmp_path / "old")
    assert ModelStore(tmp_path / "old").speakers() == corpus.speakers() + ["zz"]


def test_store_with_per_frame_average_true_is_rejected(corpus, tmp_path, monkeypatch):
    """Frame-averaged scoring is gone, so a store that asks for it fails when
    opened, before any audio is read, naming the key."""
    train_command(corpus, ToolkitConfig(), tmp_path / "store")
    config = tmp_path / "store" / CONFIG_NAME
    config.write_text(OLD_CONFIG_INI.replace("= False", "= True"), encoding="utf-8")
    monkeypatch.setattr(commands, "load_audio", no_audio)
    message = r"\[fusion\] per_frame_average = true is no longer supported"
    with pytest.raises(StoreIntegrityError, match=message):
        ModelStore(tmp_path / "store")
    with pytest.raises(StoreIntegrityError, match=message):
        train_command(corpus, ToolkitConfig(), tmp_path / "store")


@pytest.mark.parametrize("name", sorted(TRAINING_CONFIGS))
def test_scoring_uses_the_training_config(corpus, tmp_path, name):
    cfg = TRAINING_CONFIGS[name]
    train_command(corpus, cfg, tmp_path / "store")
    store = ModelStore(tmp_path / "store")
    assert store.config == cfg

    run = evaluate_command(corpus, store)
    got = [
        (fused[2], spectral[2], residual[2])
        for fused, spectral, residual in zip(
            run.fused.decisions, run.spectral_only.decisions, run.residual_only.decisions
        )
    ]
    expected = decisions_under(cfg, corpus, store)
    assert got == expected
    entries = sorted(corpus.test_entries, key=lambda e: e.utterance_id)
    for entry, (fused, _, _) in zip(entries, expected):
        assert identify_command(entry.path, store).decided_id == fused


def test_training_into_a_store_keeps_its_config_and_rate(corpus, tmp_path):
    store_dir = tmp_path / "store"
    speakers = corpus.speakers()
    for group in (speakers[:2], speakers[2:]):
        entries = [e for e in corpus.train_entries if e.speaker_id in group]
        train_command(CorpusManifest(entries, corpus.sample_rate), ToolkitConfig(), store_dir)
    assert ModelStore(store_dir).speakers() == speakers
    before = snapshot(store_dir)

    mismatch = r"frame_len = 160 \(not 240\); frame_shift = 80 \(not 120\)"
    with pytest.raises(ConfigMismatch, match=mismatch):
        train_command(corpus, TRAINING_CONFIGS["frame_len"], store_dir)
    assert snapshot(store_dir) == before

    wideband = make_corpus(tmp_path / "wideband", 2, sample_rate=16000)
    with pytest.raises(SampleRateMismatch, match="8000 Hz, not 16000"):
        train_command(wideband, ToolkitConfig(), store_dir)
    assert snapshot(store_dir) == before


def test_store_without_config_is_rejected(corpus, tmp_path):
    store_dir = tmp_path / "store"
    train_command(corpus, ToolkitConfig(), store_dir)
    (store_dir / CONFIG_NAME).unlink()
    with pytest.raises(StoreIntegrityError, match="no training config"):
        train_command(corpus, ToolkitConfig(), store_dir)
    with pytest.raises(StoreIntegrityError, match="no training config"):
        evaluate_command(corpus, ModelStore(store_dir))


def test_stored_eta_is_the_default(corpus, tmp_path):
    store = train_command(corpus, ToolkitConfig(fusion=FusionConfig(eta=0.25)), tmp_path / "store")
    assert evaluate_command(corpus, store).eta == 0.25
    assert identify_command(corpus.test_entries[0].path, store).scores.eta == 0.25
    assert evaluate_command(corpus, store, eta=0.75).eta == 0.75


def test_identify_reads_each_record_once_per_store(corpus, tmp_path, monkeypatch):
    """Two identify calls on one store load each stream once."""
    train_command(corpus, ToolkitConfig(), tmp_path / "store")
    store = ModelStore(tmp_path / "store")
    reads = []
    load = ModelStore.load

    def counted(self, stream):
        reads.append(stream)
        return load(self, stream)

    monkeypatch.setattr(ModelStore, "load", counted)
    first = identify_command(corpus.test_entries[0].path, store)
    second = identify_command(corpus.test_entries[0].path, store)
    assert reads == ["spectral", "residual"]
    assert second.scores.speakers == first.scores.speakers
    assert np.array_equal(second.scores.scores, first.scores.scores)
    assert (second.scores.eta, second.scores.num_spectral_frames,
            second.scores.num_residual_frames) == (
        first.scores.eta, first.scores.num_spectral_frames, first.scores.num_residual_frames)


def test_manifest_speaker_missing_from_the_store_is_missing_model(corpus, tmp_path):
    speakers = corpus.speakers()
    enrolled = [e for e in corpus.train_entries if e.speaker_id != speakers[-1]]
    store = train_command(CorpusManifest(enrolled, corpus.sample_rate), ToolkitConfig(),
                          tmp_path / "store")
    with pytest.raises(MissingModel, match=f"no models for speaker {speakers[-1]!r}"):
        evaluate_command(corpus, store)


def test_evaluate_decides_over_every_enrolled_speaker(corpus, tmp_path):
    """A store enrolling a speaker the manifest does not name: ``zz``, trained
    on the first speaker's test audio.  ``evaluate_command`` scores it like
    ``identify_command`` does, so every fused decision is identify's."""
    store_dir = tmp_path / "store"
    train_command(corpus, ToolkitConfig(), store_dir)
    source = corpus.speakers()[0]
    extra = [
        ManifestEntry("zz", f"zz_{e.utterance_id}", e.path, "train")
        for e in corpus.test_entries if e.speaker_id == source
    ]
    train_command(CorpusManifest(extra, corpus.sample_rate), ToolkitConfig(), store_dir)
    store = ModelStore(store_dir)
    assert store.speakers() == corpus.speakers() + ["zz"]

    run = evaluate_command(corpus, store)
    decided = {utterance_id: d for utterance_id, _, d in run.fused.decisions}
    assert decided == {
        e.utterance_id: identify_command(e.path, store).decided_id for e in corpus.test_entries
    }
    assert "zz" in decided.values()


def test_report_counts_every_enrolled_speaker(corpus, tmp_path):
    """``# speakers:`` is the S every utterance was scored against, also
    when the store enrols speakers the manifest does not name."""
    store = train_command(corpus, ToolkitConfig(), tmp_path / "store")
    named = corpus.speakers()[:2]
    subset = CorpusManifest(
        [e for e in corpus.entries if e.speaker_id in named], corpus.sample_rate
    )
    run = evaluate_command(subset, store)
    assert run.speakers == tuple(corpus.speakers())
    assert "\n# speakers: 4\n" in render_report(run)


def test_empty_store_is_missing_model(corpus, tmp_path):
    """Evaluate and identify both refuse a store with no record, naming it
    and saying whether its directory is missing or empty."""
    path = tmp_path / "store"
    for reason in ("does not exist", "is empty"):
        message = f"^model store at {re.escape(str(path))} {reason}$"
        with pytest.raises(MissingModel, match=message):
            evaluate_command(corpus, ModelStore(path))
        with pytest.raises(MissingModel, match=message):
            identify_command(corpus.test_entries[0].path, ModelStore(path))
        path.mkdir(exist_ok=True)


def test_manifest_without_test_split_is_manifest_error(corpus, tmp_path):
    train_only = CorpusManifest(corpus.train_entries, corpus.sample_rate)
    with pytest.raises(ManifestError, match="no test utterances"):
        evaluate_command(train_only, ModelStore(tmp_path / "store"))


def test_unreadable_training_audio_names_the_utterance(corpus, tmp_path):
    gone = min(corpus.train_entries, key=lambda e: (e.speaker_id, e.utterance_id))
    entries = [
        dataclasses.replace(e, path=tmp_path / "missing.wav") if e is gone else e
        for e in corpus.entries
    ]
    with pytest.raises(UnsupportedFormat, match=f"utterance {gone.utterance_id}: .*cannot read"):
        train_command(CorpusManifest(entries, corpus.sample_rate), ToolkitConfig(),
                      tmp_path / "store")


@pytest.mark.parametrize("unwritable", ["report_path", "records_path"])
def test_unwritable_output_fails_before_any_audio_is_read(
    corpus, tmp_path, monkeypatch, unwritable
):
    store = train_command(corpus, ToolkitConfig(), tmp_path / "store")
    report = tmp_path / "report.txt"
    report.write_text("previous report\n", encoding="utf-8")

    def no_audio(*args, **kwargs):
        raise AssertionError("audio read before the outputs were checked")

    monkeypatch.setattr(commands, "load_audio", no_audio)
    paths = {"report_path": report, "records_path": None,
             unwritable: tmp_path / "nodir" / "out.txt"}
    with pytest.raises(OSError):
        evaluate_command(corpus, store, **paths)
    assert report.read_text(encoding="utf-8") == "previous report\n"


def no_audio(*args, **kwargs):
    raise AssertionError("audio read before eta was checked")


def test_bad_eta_fails_before_any_output_or_audio(corpus, tmp_path, monkeypatch):
    store = train_command(corpus, ToolkitConfig(), tmp_path / "store")
    monkeypatch.setattr(commands, "load_audio", no_audio)
    report, records = tmp_path / "report.txt", tmp_path / "records.jsonl"
    with pytest.raises(ValueError, match="eta must be in"):
        evaluate_command(corpus, store, eta=1.5, report_path=report, records_path=records)
    assert not report.exists() and not records.exists()


def test_identify_checks_eta_before_reading_audio(corpus, tmp_path, monkeypatch):
    store = train_command(corpus, ToolkitConfig(), tmp_path / "store")
    monkeypatch.setattr(commands, "load_audio", no_audio)
    with pytest.raises(ValueError, match="eta must be in"):
        identify_command(corpus.test_entries[0].path, store, eta=-0.1)


def test_silent_last_speaker_fails_before_any_model_is_saved(corpus, tmp_path):
    """Every speaker is trained before any is saved: a last speaker whose
    audio is all silence raises the tagged error and leaves no store."""
    last = corpus.speakers()[-1]
    silence = tmp_path / "silence.wav"
    save_audio(silence, AudioSignal(np.zeros(corpus.sample_rate), corpus.sample_rate))
    entries = [
        dataclasses.replace(e, path=silence) if e.speaker_id == last else e
        for e in corpus.train_entries
    ]
    first = min(e.utterance_id for e in entries if e.speaker_id == last)
    with pytest.raises(EmptyAfterVad, match=f"^speaker {last} utterance {first}: "):
        train_command(CorpusManifest(entries, corpus.sample_rate), ToolkitConfig(),
                      tmp_path / "store")
    assert not (tmp_path / "store").exists()


def test_models_and_info_lines_equal_training_each_speaker_alone(corpus, tmp_path, caplog):
    """Each stored model, and its INFO line's EM trace, has the bits of its
    speaker trained alone by the per-speaker reference; the lines come in
    speaker, then stream, order."""
    cfg = ToolkitConfig()
    with caplog.at_level(logging.INFO, logger="sidkit.commands"):
        store = train_command(corpus, cfg, tmp_path / "store")
    speakers, streams = _unpack((store.path / MODELS_NAME).read_bytes())
    assert speakers == corpus.speakers()
    expected = []
    for row, speaker in enumerate(speakers):
        entries = sorted((e for e in corpus.train_entries if e.speaker_id == speaker),
                         key=lambda e: e.utterance_id)
        utterances = [extract_streams(load_audio(e.path), cfg) for e in entries]
        kinds = ("mfcc", "residual_moments")
        for stream, kind, x, (stored_kind, *stored) in zip(
            STREAMS, kinds, map(np.concatenate, zip(*utterances)), streams
        ):
            model = em_train_one(x, lbg_init_one(x, 8, cfg.model), cfg.model)
            assert stored_kind == kind
            for name, array in zip(("weights", "means", "variances"), stored):
                assert array[row].tobytes() == getattr(model, name).tobytes()
            values = " ".join(f"{v:.6f}" for v in model.em_log_likelihoods[1:])
            expected.append(
                f"speaker {speaker} {stream} stream ({kind}, M=8): EM log-likelihoods {values}"
            )
    assert [r.getMessage() for r in caplog.records if "EM log" in r.getMessage()] == expected


def test_stacks_of_fewer_speakers_train_the_same_store(corpus, tmp_path, monkeypatch):
    """A manifest trained a few speakers per stack writes the store byte for
    byte as one stack does, with one lbg_init call per stack and stream."""
    whole = train_command(corpus, ToolkitConfig(), tmp_path / "whole")
    calls = []

    def counting(features, sizes, *args, **kwargs):
        calls.append(len(sizes))
        return lbg(features, sizes, *args, **kwargs)

    lbg = commands.lbg_init
    monkeypatch.setattr(commands, "lbg_init", counting)
    monkeypatch.setattr(commands, "_STACK_SPEAKERS", 3)
    split = train_command(corpus, ToolkitConfig(), tmp_path / "split")
    assert calls == [3, 3, 1, 1]
    assert snapshot(split.path) == snapshot(whole.path)


@pytest.fixture(scope="module")
def corpus8(tmp_path_factory):
    return make_corpus(tmp_path_factory.mktemp("corpus8"), 8)


def subset(manifest, speakers):
    """The entries of ``manifest`` whose speaker is one of ``speakers``."""
    return CorpusManifest([e for e in manifest.entries if e.speaker_id in speakers],
                          manifest.sample_rate)


def test_trains_split_across_calls_write_the_same_store(corpus8, tmp_path):
    """8 speakers trained in one call, or in three calls of interleaved ids
    (3 + 1 + 4), give the same config.ini and model file bytes, and the
    same evaluate report and records."""
    whole = train_command(corpus8, ToolkitConfig(), tmp_path / "whole")
    speakers = corpus8.speakers()
    for part in ([1, 4, 6], [3], [0, 2, 5, 7]):
        split = train_command(subset(corpus8, [speakers[i] for i in part]), ToolkitConfig(),
                              tmp_path / "split")
    assert sorted(p.name for p in split.path.iterdir()) == [CONFIG_NAME, MODELS_NAME]
    assert snapshot(split.path) == snapshot(whole.path)
    outputs = []
    for store in (whole, split):
        out = tmp_path / f"{store.path.name}-outputs"
        out.mkdir()
        evaluate_command(corpus8, store, report_path=out / "report.txt",
                         records_path=out / "records.jsonl")
        outputs.append(snapshot(out))
    assert outputs[0] == outputs[1]


def test_re_enrolled_speaker_replaces_its_row(corpus, tmp_path):
    """A speaker first enrolled from another speaker's audio and trained
    again from its own ends with the store that trains it once."""
    whole = train_command(corpus, ToolkitConfig(), tmp_path / "whole")
    first, second = corpus.speakers()[:2]
    wrong = [dataclasses.replace(e, speaker_id=first, utterance_id=f"x{e.utterance_id}")
             for e in corpus.train_entries if e.speaker_id == second]
    path = tmp_path / "again"
    train_command(CorpusManifest(wrong, corpus.sample_rate), ToolkitConfig(), path)
    assert snapshot(path) != snapshot(whole.path)
    train_command(corpus, ToolkitConfig(), path)
    assert snapshot(path) == snapshot(whole.path)


def fail_on_models(fault):
    """``Path.write_bytes`` that writes half of the model file and fails,
    or ``os.replace`` that fails to commit it; other files pass through."""
    write, replace = Path.write_bytes, os.replace
    full = OSError(errno.ENOSPC, "No space left on device")

    def torn_write(path, data):
        if path.name != MODELS_NAME + ".tmp":
            return write(path, data)
        write(path, data[: len(data) // 2])
        raise full

    def failed_replace(src, dst):
        if Path(dst).name != MODELS_NAME:
            return replace(src, dst)
        raise full

    return (Path, "write_bytes", torn_write) if fault == "torn-write" else (
        os, "replace", failed_replace)


@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
@pytest.mark.parametrize("fault", ["torn-write", "replace"])
def test_failed_model_file_commit_leaves_the_store_as_it_was(
    corpus, tmp_path, monkeypatch, fault, existing
):
    """A train whose model-file write fails halfway, or whose commit fails,
    leaves no temp file and no model of the failed call: a fresh store
    holds no models, and a store that held some (one of which the failed
    call re-enrols) answers every identify call as before."""
    path = tmp_path / "store"
    speakers = corpus.speakers()
    queries = [entry.path for entry in corpus.test_entries]
    if existing:
        store = train_command(subset(corpus, speakers[:2]), ToolkitConfig(), path)
        before = [identify_command(query, store) for query in queries]
        files = snapshot(path)
    monkeypatch.setattr(*fail_on_models(fault))
    with pytest.raises(OSError, match="No space left on device"):
        train_command(subset(corpus, speakers[1:]), ToolkitConfig(), path)
    monkeypatch.undo()
    assert not list(path.glob("*.tmp"))
    store = ModelStore(path)
    if not existing:
        assert sorted(p.name for p in path.iterdir()) == [CONFIG_NAME]
        with pytest.raises(MissingModel, match="is empty"):
            identify_command(queries[-1], store)
        return
    assert snapshot(path) == files
    for query, old in zip(queries, before):
        new = identify_command(query, store)
        assert (new.decided_id, new.ranking, new.scores.speakers) == (
            old.decided_id, old.ranking, old.scores.speakers)
        np.testing.assert_array_equal(new.scores.scores, old.scores.scores)


def scarce_corpus(root, seconds):
    """What ``sidkit synth --speakers 3 --train-utts 1 --test-utts 0
    --seconds <seconds>`` writes, listed in reverse speaker order."""
    manifest = generate_synthetic_corpus(
        default_speaker_specs(3, seed=0), train_utts=1, test_utts=0,
        utt_seconds=seconds, seed=0, out_dir=root,
    )
    return CorpusManifest(manifest.entries[::-1], manifest.sample_rate)


def test_each_scarce_model_warns_naming_its_speaker_and_stream(tmp_path):
    """0.5 s gives every model 49 vectors for 8 components, fewer than 10
    per component: one warning per model, each naming its speaker and stream."""
    corpus = scarce_corpus(tmp_path / "corpus", 0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        train_command(corpus, ToolkitConfig(), tmp_path / "store")
    assert all(w.category is UserWarning for w in caught)
    assert sorted(str(w.message) for w in caught) == sorted(
        f"speaker spk{i:02d} {stream} stream: only 49 vectors for 8 components; "
        "estimates may be unreliable"
        for i in range(3)
        for stream in ("spectral", "residual")
    )


def test_too_few_vectors_name_the_first_speaker_and_its_stream(tmp_path):
    """0.06 s gives every speaker 5 vectors for 8 components: the error names
    the first speaker in sorted order and its stream, and no store is made."""
    corpus = scarce_corpus(tmp_path / "corpus", 0.06)
    with pytest.raises(InsufficientData,
                       match="^speaker spk00 spectral stream: 5 vectors for 8 components$"):
        train_command(corpus, ToolkitConfig(), tmp_path / "store")
    assert not (tmp_path / "store").exists()


def no_audio_at_all(*args, **kwargs):
    raise AssertionError("audio read before the store path was checked")


def test_train_into_a_file_fails_before_any_audio(corpus, tmp_path, monkeypatch):
    path = tmp_path / "afile"
    path.write_text("not a store\n", encoding="utf-8")
    monkeypatch.setattr(commands, "load_audio", no_audio_at_all)
    with pytest.raises(StoreIntegrityError,
                       match=f"^model store at {re.escape(str(path))} is not a directory$"):
        train_command(corpus, ToolkitConfig(), path)
    assert path.read_text(encoding="utf-8") == "not a store\n"


def test_scoring_against_a_file_fails_before_any_audio(corpus, tmp_path, monkeypatch):
    path = tmp_path / "afile"
    path.write_text("not a store\n", encoding="utf-8")
    monkeypatch.setattr(commands, "load_audio", no_audio_at_all)
    message = f"^model store at {re.escape(str(path))} is not a directory$"
    with pytest.raises(StoreIntegrityError, match=message):
        evaluate_command(corpus, ModelStore(path))
    with pytest.raises(StoreIntegrityError, match=message):
        identify_command(corpus.test_entries[0].path, ModelStore(path))


def test_tied_speakers_decide_for_the_lowest_id(corpus, tmp_path):
    """Speakers ``a`` and ``b`` enrolled from the same audio tie on every
    score, so every decision and ranking puts ``a`` first."""
    source = corpus.speakers()[0]
    entries = [
        ManifestEntry(spk, f"{spk}_{e.utterance_id}", e.path, "train")
        for e in corpus.train_entries if e.speaker_id == source
        for spk in ("a", "b")
    ]
    entries += [
        ManifestEntry("ab"[i % 2], f"test_{e.utterance_id}", e.path, "test")
        for i, e in enumerate(corpus.test_entries)
    ]
    manifest = CorpusManifest(entries, corpus.sample_rate)
    store = train_command(manifest, ToolkitConfig(), tmp_path / "store")

    run = evaluate_command(manifest, store)
    for report in (run.fused, run.spectral_only, run.residual_only):
        assert [decided for _, _, decided in report.decisions] == ["a"] * len(
            corpus.test_entries
        )
    for entry in corpus.test_entries:
        result = identify_command(entry.path, store)
        assert result.scores.speakers == ("a", "b")
        assert np.array_equal(result.scores.scores[0], result.scores.scores[1])
        assert result.ranking == ("a", "b")
        for eta in (0.0, 0.5, 1.0):
            assert identify(with_eta(result.scores, eta)) == "a"


def test_manifest_without_train_split_is_manifest_error(corpus, tmp_path):
    with pytest.raises(ManifestError, match="no train utterances"):
        train_command(CorpusManifest((), corpus.sample_rate), ToolkitConfig(),
                      tmp_path / "store")
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("kind", ["mfcc", "lfcc"])
def test_extract_streams_builds_the_filterbank_once(corpus, kind):
    cfg = ToolkitConfig(spectral=SpectralConfig(kind=kind))
    make_filterbank.cache_clear()
    for entry in corpus.test_entries:
        extract_streams(load_audio(entry.path), cfg)
    info = make_filterbank.cache_info()
    assert (info.misses, info.hits) == (1, len(corpus.test_entries) - 1)


def test_identify_decision_is_the_head_of_the_ranking(corpus, tmp_path):
    store = train_command(corpus, ToolkitConfig(), tmp_path / "store")
    for entry in corpus.test_entries:
        result = identify_command(entry.path, store)
        assert result.decided_id == result.ranking[0] == identify(result.scores)
        rows = [result.scores.speakers.index(s) for s in result.ranking]
        combined = result.scores.scores[rows, COMBINED]
        assert np.all(np.diff(combined) <= 0)


def test_identify_and_evaluate_give_the_same_scores(synthetic_corpus, trained_store, evaluation):
    """Every test utterance of the session corpus gets, bit for bit, the same
    spectral, residual and combined scores against every enrolled speaker
    from ``identify_command`` as its row block of ``run.scores``, which is
    in sorted utterance order."""
    run, _, _ = evaluation
    entries = sorted(synthetic_corpus.test_entries, key=lambda e: e.utterance_id)
    assert [u for u, _, _ in run.fused.decisions] == [e.utterance_id for e in entries]
    assert run.scores.shape == (len(entries), len(run.speakers), 3)
    assert run.scores.dtype == np.float64 and not run.scores.flags.writeable
    for entry, block in zip(entries, run.scores):
        scores = identify_command(entry.path, trained_store, eta=run.eta).scores
        assert scores.speakers == run.speakers
        assert block.tobytes() == scores.scores.tobytes()


def _term_by_term_totals(features, bank):
    """Each speaker's log-likelihood total from ``bank``'s quadratic form,
    every log joint summed term by term (``einsum``), not by BLAS blocks."""
    y = features - bank._shift
    joint = np.einsum("nk,km->nm", np.hstack([y * y, y, np.ones((len(y), 1))]), bank._form)
    return _logsumexp(joint.reshape(len(y), -1, len(bank.speakers)), axis=1).sum(axis=0)


def test_record_scores_match_a_term_by_term_sum(synthetic_corpus, trained_store, evaluation):
    """Every speaker's row of every utterance's ``run.scores`` block agrees
    within 1e-12 relative with the same quadratic form summed term by term:
    the BLAS product moves only the last bits of a score."""
    run, _, _ = evaluation
    banks = trained_store.banks()
    assert banks[0].speakers == run.speakers
    entries = sorted(synthetic_corpus.test_entries, key=lambda e: e.utterance_id)
    for entry, block in zip(entries, run.scores, strict=True):
        features = extract_streams(load_audio(entry.path), trained_store.config)
        spectral, residual = (_term_by_term_totals(f, b) for f, b in zip(features, banks))
        combined = run.eta * spectral + (1.0 - run.eta) * residual
        want = np.column_stack([spectral, residual, combined])
        np.testing.assert_allclose(block, want, rtol=1e-12, atol=0)


def test_reports_and_records_are_views_of_the_score_array(evaluation):
    """Each system decides by the first maximum of its ``run.scores``
    column, and every ``--records`` line parses to one utterance's decision
    with its decided and true speakers' rows of ``run.scores``."""
    run, _, records_path = evaluation
    for report, column in ((run.spectral_only, SPECTRAL), (run.residual_only, RESIDUAL),
                           (run.fused, COMBINED)):
        picks = run.scores[:, :, column].argmax(axis=1)
        assert [d for _, _, d in report.decisions] == [run.speakers[i] for i in picks]
    lines = render_records(run).splitlines()
    assert records_path.read_text(encoding="utf-8").splitlines() == lines
    assert len(lines) == len(run.scores) == run.fused.num_trials
    for line, block, decision in zip(lines, run.scores, run.fused.decisions):
        record = json.loads(line)
        assert (record["utterance_id"], record["true_id"], record["decided_id"]) == decision
        for key in ("decided", "true"):
            row = block[run.speakers.index(record[f"{key}_id"])]
            assert record[f"{key}_scores"] == dict(zip(COLUMNS, row.tolist()))
