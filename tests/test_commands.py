"""A trained store supplies its own config and its models to evaluate, identify
and later training."""

import dataclasses

import numpy as np
import pytest

from sidkit import commands
from sidkit.audio_io import load_audio
from sidkit.commands import (
    evaluate_command,
    extract_streams,
    identify_command,
    train_command,
)
from sidkit.config import FusionConfig, PreprocessConfig, SpectralConfig, ToolkitConfig
from sidkit.corpus import CorpusManifest, default_speaker_specs, generate_synthetic_corpus
from sidkit.errors import (
    ConfigMismatch,
    ManifestError,
    MissingModel,
    SampleRateMismatch,
    StoreIntegrityError,
    UnsupportedFormat,
)
from sidkit.identify import identify, score_utterance, with_eta
from sidkit.spectral import make_filterbank
from sidkit.store import CONFIG_NAME, ModelStore

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
        scores = score_utterance(
            spectral, residual, banks, cfg.fusion.eta, cfg.fusion.per_frame_average
        )
        etas = (cfg.fusion.eta, 1.0, 0.0)
        decisions.append(tuple(identify(with_eta(scores, eta)) for eta in etas))
    return decisions


def snapshot(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


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
    train_command(corpus, ToolkitConfig(), tmp_path / "store")
    store = ModelStore(tmp_path / "store")
    reads = []
    load = ModelStore.load

    def counted(self, speaker, stream):
        reads.append((speaker, stream))
        return load(self, speaker, stream)

    monkeypatch.setattr(ModelStore, "load", counted)
    first = identify_command(corpus.test_entries[0].path, store)
    second = identify_command(corpus.test_entries[0].path, store)
    assert sorted(reads) == sorted((s, stream) for s in corpus.speakers()
                                   for stream in ("spectral", "residual"))
    assert second.scores == first.scores


def test_manifest_speaker_missing_from_the_store_is_missing_model(corpus, tmp_path):
    speakers = corpus.speakers()
    enrolled = [e for e in corpus.train_entries if e.speaker_id != speakers[-1]]
    store = train_command(CorpusManifest(enrolled, corpus.sample_rate), ToolkitConfig(),
                          tmp_path / "store")
    with pytest.raises(MissingModel, match=f"no models for speaker {speakers[-1]!r}"):
        evaluate_command(corpus, store)


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
        combined = [result.scores.scores[s].combined for s in result.ranking]
        assert np.all(np.diff(combined) <= 0)


def test_identify_and_evaluate_give_the_same_scores(synthetic_corpus, trained_store, evaluation):
    """Every test utterance of the session corpus gets, bit for bit, the same
    spectral, residual and combined scores for its decided and its true
    speaker from ``identify_command`` as from ``evaluate_command``."""
    run, _, _ = evaluation
    by_utt = {r["utterance_id"]: r for r in run.records}
    assert len(by_utt) == len(synthetic_corpus.test_entries)
    for entry in synthetic_corpus.test_entries:
        scores = identify_command(entry.path, trained_store, eta=run.eta).scores.scores
        record = by_utt[entry.utterance_id]
        for key in ("decided", "true"):
            s = scores[record[f"{key}_id"]]
            assert record[f"{key}_scores"] == {
                "spectral": s.spectral, "residual": s.residual, "combined": s.combined
            }
