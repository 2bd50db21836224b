"""Score-level fusion of the two feature streams and closed-set decisions.

An utterance is scored against the enrolled speakers through two
``ModelBank``s, one per stream, so each stream costs one kernel call
whatever the number of speakers; ``ModelStore.banks()`` gives the pair
for every speaker a store holds.  The result is one ``(S, 3)`` array
with a row per speaker, in sorted id order.  Every decision takes the
highest score and, on a tie, the lowest id: the first maximum of a
column, or the head of a stable descending sort of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyFeatureStream, FeatureDimensionMismatch
from .gmm import ModelBank, gmm_log_likelihoods

# The columns of ``UtteranceScores.scores``.
COLUMNS = ("spectral", "residual", "combined")
SPECTRAL, RESIDUAL, COMBINED = range(3)


@dataclass(frozen=True, eq=False)
class UtteranceScores:
    """Scores of one utterance against every enrolled speaker.

    ``scores`` is a read-only ``(S, 3)`` array: row ``i`` holds the
    spectral, residual and combined totals of ``speakers[i]``, and
    ``speakers`` is sorted.
    """

    speakers: tuple[str, ...]
    scores: np.ndarray
    eta: float
    num_spectral_frames: int
    num_residual_frames: int


def combine_scores(spectral: float, residual: float, eta: float) -> float:
    """Weighted sum of the two stream scores (floats, or arrays of them);
    eta weights the spectral stream."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    return eta * spectral + (1.0 - eta) * residual


def _score_table(spectral: np.ndarray, residual: np.ndarray, eta: float) -> np.ndarray:
    """The read-only ``(S, 3)`` array of per-speaker stream totals and their fusion."""
    table = np.column_stack((spectral, residual, combine_scores(spectral, residual, eta)))
    table.flags.writeable = False
    return table


def score_utterance(
    spectral_features: np.ndarray,
    residual_features: np.ndarray,
    banks: tuple[ModelBank, ModelBank],
    eta: float,
) -> UtteranceScores:
    """Score one utterance's feature streams against every speaker of the
    (spectral, residual) ``banks``.

    Each stream's score is the total log-likelihood of its frames under the
    speaker's model for that stream: a column sum of one
    ``gmm_log_likelihoods`` call on the stream's bank.  The combined score is
    their eta-weighted sum.
    """
    spectral_features = np.asarray(spectral_features, dtype=np.float64)
    residual_features = np.asarray(residual_features, dtype=np.float64)
    if spectral_features.ndim != 2 or residual_features.ndim != 2:
        raise ValueError("feature streams must be 2-D (frames x dims)")
    if spectral_features.shape[0] == 0:
        raise EmptyFeatureStream("no spectral feature vectors to score")
    if residual_features.shape[0] == 0:
        raise EmptyFeatureStream("no residual feature vectors to score")
    spectral_bank, residual_bank = banks
    if spectral_bank.speakers != residual_bank.speakers:
        raise ValueError("the spectral and residual banks hold different speakers")
    totals = []
    for stream, features, bank in (
        ("spectral", spectral_features, spectral_bank),
        ("residual", residual_features, residual_bank),
    ):
        if bank.dim != features.shape[1]:
            raise FeatureDimensionMismatch(
                f"{stream} features have {features.shape[1]} dimensions, "
                f"but the {stream} models have {bank.dim}"
            )
        totals.append(gmm_log_likelihoods(features, bank).sum(axis=0))
    return UtteranceScores(
        speakers=spectral_bank.speakers,
        scores=_score_table(*totals, eta),
        eta=eta,
        num_spectral_frames=spectral_features.shape[0],
        num_residual_frames=residual_features.shape[0],
    )


def with_eta(scores: UtteranceScores, eta: float) -> UtteranceScores:
    """Recombine the same per-stream totals under a different fusion weight."""
    table = _score_table(scores.scores[:, SPECTRAL], scores.scores[:, RESIDUAL], eta)
    return replace(scores, scores=table, eta=eta)


def identify(scores: UtteranceScores) -> str:
    """Pick the speaker with the highest combined score, lowest id on ties."""
    return scores.speakers[int(np.argmax(scores.scores[:, COMBINED]))]


@dataclass(frozen=True)
class EvaluationReport:
    """Identification decisions with their accuracy."""

    decisions: tuple[tuple[str, str, str], ...]
    pia: float

    @property
    def num_trials(self) -> int:
        return len(self.decisions)


def evaluate(decisions) -> EvaluationReport:
    """Summarize (utterance_id, true_id, decided_id) triples.

    Accuracy is the percentage of trials whose decided speaker matches the
    true one.
    """
    decisions = tuple((str(u), str(t), str(d)) for u, t, d in decisions)
    if not decisions:
        raise ValueError("no decisions to evaluate")
    correct = sum(1 for _, true_id, decided in decisions if decided == true_id)
    return EvaluationReport(decisions=decisions, pia=100.0 * correct / len(decisions))
