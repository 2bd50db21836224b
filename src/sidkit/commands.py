"""Batch commands: train speaker models, evaluate a corpus, identify one file.

Each command calls the pipeline directly: ``load_audio``, then
``extract_streams``, then ``lbg_init``/``em_train`` or ``score_utterance``,
each stage given its own ``ToolkitConfig`` section.  A ``SidkitError`` on
the way is re-raised through ``errors.named`` with where it came from,
once: ``speaker S utterance U: `` for an utterance in train and evaluate,
and the audio path in identify, whose ``load_audio`` errors already start
with it.  Training names a speaker's model as ``speaker S <stream> stream``.

Speakers are trained in sorted order, each stream of up to
``_STACK_SPEAKERS`` of them as one stack, and test utterances are scored
one after another in sorted order, so reruns are deterministic.  Each utterance's features are
computed on its whole frame matrix at once (see ``residual_moments`` and
``spectral``).  Evaluate and identify both score against every enrolled
speaker, through ``ModelStore.banks()``.  ``evaluate_command`` keeps one
array, ``EvaluationRun.scores``: the utterances' ``(S, 3)`` score arrays
stacked in sorted utterance order.  All three systems' decisions come
from one argmax over its speakers, and the report and records are
rendered from its rows.
"""

from __future__ import annotations

import json
import logging
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .audio_io import load_audio
from .config import ToolkitConfig
from .corpus import CorpusManifest, ManifestEntry
from .errors import ManifestError, MissingModel, SampleRateMismatch, named
from .frontend import AudioSignal, preprocess
from .gmm import GmmModel, em_train, lbg_init
from .identify import (
    COLUMNS,
    COMBINED,
    EvaluationReport,
    UtteranceScores,
    evaluate,
    score_utterance,
)
from .residual_moments import extract_residual_moments
from .spectral import extract_filterbank_cepstra, extract_lpcc
from .store import STREAMS, ModelStore

logger = logging.getLogger(__name__)


def extract_streams(signal: AudioSignal, cfg: ToolkitConfig) -> tuple[np.ndarray, np.ndarray]:
    """Preprocess one utterance into its frame matrix and extract the
    (spectral, residual) feature matrices from it, each under its config section."""
    frames = preprocess(signal, cfg.preprocess)
    if cfg.spectral.kind == "lpcc":
        spectral = extract_lpcc(frames, cfg.spectral)
    else:
        spectral = extract_filterbank_cepstra(frames, cfg.spectral, signal.sample_rate)
    return spectral, extract_residual_moments(frames, cfg.residual).vectors


# Speakers per training stack.  Stacks of 8 to 64 speakers of ~200 vectors
# each trained equally fast, while a stack's working memory grows with it
# (about five times its stacked features), so a large manifest is trained a
# bounded stack at a time.
_STACK_SPEAKERS = 16


def _train_stack(
    speakers: list[str], by_speaker: dict[str, list[ManifestEntry]], sample_rate: int,
    cfg: ToolkitConfig,
) -> list[tuple[GmmModel, GmmModel]]:
    """The (spectral, residual) models of ``speakers``, in their order: one
    ``lbg_init`` and one ``em_train`` call per stream over their stacked
    vectors.  A model with fewer than 10 vectors per component gets a
    ``UserWarning`` naming its speaker and stream."""
    features = []
    for speaker in speakers:
        streams = []
        for entry in sorted(by_speaker[speaker], key=lambda e: e.utterance_id):
            with named(f"speaker {speaker} utterance {entry.utterance_id}"):
                signal = load_audio(entry.path, expected_rate=sample_rate)
                streams.append(extract_streams(signal, cfg))
        features.append(tuple(map(np.concatenate, zip(*streams))))
    trained = []
    for stream, per_speaker, components in zip(
        STREAMS, zip(*features), (cfg.model.m_spectral, cfg.model.m_residual)
    ):
        names = [f"speaker {speaker} {stream} stream" for speaker in speakers]
        sizes = [len(f) for f in per_speaker]
        stacked = np.concatenate(per_speaker)
        init = lbg_init(stacked, sizes, components, cfg.model, names=names)
        for name, size in zip(names, sizes):
            if size < 10 * components:
                warnings.warn(
                    f"{name}: only {size} vectors for {components} components; "
                    "estimates may be unreliable",
                    stacklevel=3,
                )
        trained.append(em_train(stacked, init, cfg.model).models())
    return list(zip(*trained))


def train_command(
    manifest: CorpusManifest, cfg: ToolkitConfig, store_dir
) -> ModelStore:
    """Train one spectral and one residual model per speaker and persist both,
    into a store that ``ModelStore.bind`` accepts before anything is trained.

    Speakers are trained in sorted order, ``_STACK_SPEAKERS`` at a time, each
    stream of them as one stack (``_train_stack``); every model has the bits
    of training its speaker alone."""
    by_speaker: dict[str, list[ManifestEntry]] = {}
    for entry in manifest.train_entries:
        by_speaker.setdefault(entry.speaker_id, []).append(entry)
    if not by_speaker:
        raise ManifestError("manifest has no train utterances")
    store = ModelStore(store_dir)
    store.bind(cfg, manifest.sample_rate)
    speakers = sorted(by_speaker)
    # Every speaker is trained before any is saved, so a failure leaves the
    # store as it was.
    trained = []
    for start in range(0, len(speakers), _STACK_SPEAKERS):
        chunk = speakers[start : start + _STACK_SPEAKERS]
        trained += _train_stack(chunk, by_speaker, manifest.sample_rate, cfg)
    for speaker, models in zip(speakers, trained):
        for stream, model in zip(STREAMS, models):
            store.save(speaker, stream, model)
            if logger.isEnabledFor(logging.INFO):
                values = " ".join(f"{v:.6f}" for v in model.em_log_likelihoods[1:])
                logger.info(
                    "speaker %s %s stream (%s, M=%d): EM log-likelihoods %s",
                    speaker, stream, store.kind(stream), model.num_components, values,
                )
    return store


@dataclass(frozen=True, eq=False)
class EvaluationRun:
    """Evaluation of one test split against the sorted enrolled ``speakers``.

    ``scores`` is the read-only ``(U, S, 3)`` stack of every test
    utterance's ``UtteranceScores.scores``, rows in sorted utterance order:
    the order of each report's ``decisions``.  The three reports, the text
    report and the records are all read from it.
    """

    eta: float
    speakers: tuple[str, ...]
    scores: np.ndarray
    fused: EvaluationReport
    spectral_only: EvaluationReport
    residual_only: EvaluationReport


def _fusion_eta(store: ModelStore, eta: float | None) -> float:
    """``eta``, checked by ``FusionConfig``, or the store's own when None."""
    fusion = store.config.fusion
    return fusion.eta if eta is None else replace(fusion, eta=eta).eta


def evaluate_command(
    manifest: CorpusManifest,
    store: ModelStore,
    eta: float | None = None,
    report_path=None,
    records_path=None,
) -> EvaluationRun:
    """Score every test utterance against every enrolled speaker and summarize.

    Reports identification accuracy three ways: spectral stream alone,
    residual stream alone, and the eta-weighted fusion.  ``eta`` defaults
    to the store's training config.  Optionally writes a text report table
    and a JSON-lines record stream.
    """
    if store.sample_rate is not None and store.sample_rate != manifest.sample_rate:
        raise SampleRateMismatch(
            f"store was trained at {store.sample_rate} Hz, "
            f"manifest expects {manifest.sample_rate} Hz"
        )
    entries = sorted(manifest.test_entries, key=lambda e: e.utterance_id)
    if not entries:
        raise ManifestError("manifest has no test utterances")
    banks = store.banks()
    for speaker in manifest.speakers():
        if speaker not in banks[0].speakers:
            raise MissingModel(f"no models for speaker {speaker!r} in store {store.path}")
    eta = _fusion_eta(store, eta)
    # Open the outputs before scoring, so an unwritable path fails first;
    # append mode keeps an existing file whole if scoring then fails.
    for path in (report_path, records_path):
        if path is not None:
            open(path, "a", encoding="utf-8").close()
    rows = []
    for entry in entries:
        with named(f"speaker {entry.speaker_id} utterance {entry.utterance_id}"):
            signal = load_audio(entry.path, expected_rate=manifest.sample_rate)
            rows.append(score_utterance(*extract_streams(signal, store.config), banks, eta).scores)
    scores = np.stack(rows)
    scores.flags.writeable = False

    # Each system picks, per utterance, the first maximum of its column, so
    # the lowest id on ties.  eta = 1 (0) recombines exactly to the spectral
    # (residual) column, so those systems decide on it directly.
    speakers = banks[0].speakers
    spectral_only, residual_only, fused = (
        evaluate((e.utterance_id, e.speaker_id, speakers[i]) for e, i in zip(entries, column))
        for column in scores.argmax(axis=1).T.tolist()
    )
    run = EvaluationRun(eta, speakers, scores, fused, spectral_only, residual_only)
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(render_report(run))
    if records_path is not None:
        with open(records_path, "w", encoding="utf-8") as fh:
            fh.write(render_records(run))
    return run


def render_report(run: EvaluationRun) -> str:
    """Line-oriented text table for an evaluation run; stable across reruns."""
    lines = [
        "# speaker identification evaluation",
        f"# test utterances: {run.fused.num_trials}",
        f"# speakers: {len(run.speakers)}",
        f"# eta: {run.eta:.4f}",
        f"# PIA spectral-only: {run.spectral_only.pia:.4f}",
        f"# PIA residual-only: {run.residual_only.pia:.4f}",
        f"# PIA fused: {run.fused.pia:.4f}",
        "# utterance_id\ttrue_id\tdecided_id\tspectral\tresidual\tcombined",
    ]
    for (utterance_id, true_id, decided), table in zip(run.fused.decisions, run.scores):
        spectral, residual, combined = table[run.speakers.index(decided)].tolist()
        lines.append(
            f"{utterance_id}\t{true_id}\t{decided}"
            f"\t{spectral:.6f}\t{residual:.6f}\t{combined:.6f}"
        )
    return "\n".join(lines) + "\n"


def render_records(run: EvaluationRun) -> str:
    """One JSON record per test utterance, keys sorted: its decided and true
    speakers' rows of ``run.scores``."""
    lines = []
    for (utterance_id, true_id, decided), table in zip(run.fused.decisions, run.scores):
        record = {"utterance_id": utterance_id, "true_id": true_id, "decided_id": decided}
        for key, speaker in (("decided_scores", decided), ("true_scores", true_id)):
            record[key] = dict(zip(COLUMNS, table[run.speakers.index(speaker)].tolist()))
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines)


@dataclass(frozen=True)
class IdentificationResult:
    """Decision for one query utterance plus its full per-speaker ranking."""

    decided_id: str
    ranking: tuple[str, ...]
    scores: UtteranceScores


def identify_command(
    audio_path, store: ModelStore, eta: float | None = None
) -> IdentificationResult:
    """Identify the speaker of one audio file against all models in a store.

    ``eta`` defaults to the store's training config.
    """
    banks = store.banks()
    eta = _fusion_eta(store, eta)
    # load_audio's own errors already name the file.
    signal = load_audio(audio_path, expected_rate=store.sample_rate)
    with named(audio_path):
        scores = score_utterance(*extract_streams(signal, store.config), banks, eta)
    # A stable sort keeps tied speakers in id order: the head is ``identify``'s pick.
    order = np.argsort(-scores.scores[:, COMBINED], kind="stable").tolist()
    ranking = tuple(scores.speakers[i] for i in order)
    return IdentificationResult(decided_id=ranking[0], ranking=ranking, scores=scores)
