"""Score fusion, argmax decisions, and accuracy reporting."""

import numpy as np
import pytest

from sidkit.errors import EmptyFeatureStream, FeatureDimensionMismatch
from sidkit.gmm import GmmModel, ModelBank, gmm_log_likelihoods
from sidkit.identify import (
    COMBINED,
    RESIDUAL,
    SPECTRAL,
    UtteranceScores,
    combine_scores,
    evaluate,
    identify,
    score_utterance,
    with_eta,
)

from oracles import bank_of, model_log_likelihoods


def make_model(rng, d):
    return GmmModel(
        weights=np.array([1.0]),
        means=rng.uniform(-1, 1, (1, d)),
        variances=rng.uniform(0.5, 1.5, (1, d)),
    )


def make_model_set(rng, speakers, d_spectral=4, d_residual=3):
    """speaker -> (spectral model, residual model)."""
    spectral = [make_model(rng, d_spectral) for _ in speakers]
    residual = [make_model(rng, d_residual) for _ in speakers]
    return dict(zip(speakers, zip(spectral, residual)))


def banks_of(model_set):
    """The (spectral, residual) banks of speaker -> (spectral, residual) models."""
    return tuple(bank_of({spk: pair[i] for spk, pair in model_set.items()}) for i in range(2))


def fake_scores(table, eta=0.5):
    """Scores of speaker -> (spectral, residual) ``table``, rows in id order."""
    speakers = tuple(sorted(table))
    spectral = np.array([table[spk][0] for spk in speakers])
    residual = np.array([table[spk][1] for spk in speakers])
    return UtteranceScores(
        speakers=speakers,
        scores=np.column_stack((spectral, residual, combine_scores(spectral, residual, eta))),
        eta=eta,
        num_spectral_frames=10,
        num_residual_frames=10,
    )


class TestCombineScores:
    def test_midpoint(self):
        assert combine_scores(-1000.0, -2000.0, 0.5) == -1500.0

    def test_boundaries_exact(self):
        assert combine_scores(-123.456, -789.0, 1.0) == -123.456
        assert combine_scores(-123.456, -789.0, 0.0) == -789.0

    def test_eta_range_enforced(self):
        with pytest.raises(ValueError):
            combine_scores(0.0, 0.0, 1.2)


class TestScoreUtterance:
    def test_totals_are_frame_sums(self):
        """Each stream score is exactly the column sum of the bank's per-frame
        log-likelihoods, and the per-model sum within 1e-12: the bank's one
        shift per stream may move the last bits."""
        rng = np.random.default_rng(83)
        model_set = make_model_set(rng, ["a", "b"])
        banks = banks_of(model_set)
        spectral = rng.uniform(-1, 1, (20, 4))
        residual = rng.uniform(-1, 1, (20, 3))
        scores = score_utterance(spectral, residual, banks, eta=0.5)
        s_columns = gmm_log_likelihoods(spectral, banks[0]).sum(axis=0)
        r_columns = gmm_log_likelihoods(residual, banks[1]).sum(axis=0)
        assert scores.speakers == ("a", "b")
        for i, spk in enumerate(("a", "b")):
            s_expect, r_expect = float(s_columns[i]), float(r_columns[i])
            assert scores.scores[i, SPECTRAL] == s_expect
            assert scores.scores[i, RESIDUAL] == r_expect
            assert scores.scores[i, COMBINED] == 0.5 * s_expect + 0.5 * r_expect
            s_model = float(np.sum(model_log_likelihoods(spectral, model_set[spk][0])))
            r_model = float(np.sum(model_log_likelihoods(residual, model_set[spk][1])))
            assert s_expect == pytest.approx(s_model, rel=1e-12)
            assert r_expect == pytest.approx(r_model, rel=1e-12)

    def test_additivity_over_concatenation(self):
        """Scoring concatenated streams equals summing separate scores."""
        rng = np.random.default_rng(84)
        model_set = make_model_set(rng, ["a"])
        s1, s2 = rng.uniform(-1, 1, (10, 4)), rng.uniform(-1, 1, (15, 4))
        r1, r2 = rng.uniform(-1, 1, (10, 3)), rng.uniform(-1, 1, (15, 3))
        banks = banks_of(model_set)
        whole = score_utterance(np.vstack([s1, s2]), np.vstack([r1, r2]), banks, 0.5)
        part1 = score_utterance(s1, r1, banks, 0.5)
        part2 = score_utterance(s2, r2, banks, 0.5)
        got = whole.scores[0, SPECTRAL]
        want = part1.scores[0, SPECTRAL] + part2.scores[0, SPECTRAL]
        assert got == pytest.approx(want, abs=1e-9)

    def test_empty_stream_rejected(self):
        rng = np.random.default_rng(85)
        banks = banks_of(make_model_set(rng, ["a"]))
        with pytest.raises(EmptyFeatureStream):
            score_utterance(np.empty((0, 4)), rng.uniform(-1, 1, (5, 3)), banks, 0.5)
        with pytest.raises(EmptyFeatureStream):
            score_utterance(rng.uniform(-1, 1, (5, 4)), np.empty((0, 3)), banks, 0.5)

    def test_width_mismatch_names_stream_and_widths(self):
        rng = np.random.default_rng(87)
        banks = banks_of(make_model_set(rng, ["a", "b"]))
        with pytest.raises(FeatureDimensionMismatch, match="spectral .* 5 .* 4"):
            score_utterance(rng.uniform(-1, 1, (5, 5)), rng.uniform(-1, 1, (5, 3)), banks, 0.5)
        with pytest.raises(FeatureDimensionMismatch, match="residual .* 2 .* 3"):
            score_utterance(rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (5, 2)), banks, 0.5)

    def test_no_speakers_rejected(self):
        with pytest.raises(ValueError, match="no speakers to score against"):
            ModelBank((), np.ones((0, 1)), np.zeros((0, 1, 3)), np.ones((0, 1, 3)))

    def test_banks_of_other_speakers_rejected(self):
        rng = np.random.default_rng(88)
        spectral, _ = banks_of(make_model_set(rng, ["a", "b"]))
        _, residual = banks_of(make_model_set(rng, ["a", "c"]))
        with pytest.raises(ValueError, match="different speakers"):
            score_utterance(rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (5, 3)),
                            (spectral, residual), 0.5)


class TestIdentify:
    def test_single_speaker(self):
        assert identify(fake_scores({"only": (-10.0, -20.0)})) == "only"

    def test_max_of_three(self):
        scores = fake_scores({"A": (-100.0, -100.0), "B": (-50.0, -50.0),
                              "C": (-75.0, -75.0)})
        assert identify(scores) == "B"

    def test_tie_breaks_to_lowest_id(self):
        scores = fake_scores({"B": (-10.0, -10.0), "A": (-10.0, -10.0)})
        assert identify(scores) == "A"

    def test_eta_boundaries_equal_single_stream_decisions(self):
        """Decisions at the fusion boundaries match the single-stream
        argmax, utterance by utterance."""
        rng = np.random.default_rng(87)
        for _ in range(200):
            table = {
                f"s{i}": (float(rng.uniform(-500, -400)), float(rng.uniform(-500, -400)))
                for i in range(6)
            }
            scores = fake_scores(table, eta=0.5)
            spectral_best = min(table, key=lambda k: (-table[k][0], k))
            residual_best = min(table, key=lambda k: (-table[k][1], k))
            assert identify(with_eta(scores, 1.0)) == spectral_best
            assert identify(with_eta(scores, 0.0)) == residual_best

    def test_shift_invariance(self):
        """Adding a constant to every spectral score never changes the
        decision, for any eta."""
        rng = np.random.default_rng(88)
        table = {f"s{i}": (float(rng.uniform(-500, -400)),
                           float(rng.uniform(-500, -400))) for i in range(5)}
        for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
            base = identify(fake_scores(table, eta))
            shifted_table = {k: (s + 777.0, r) for k, (s, r) in table.items()}
            assert identify(fake_scores(shifted_table, eta)) == base


class TestEvaluate:
    def test_all_correct(self):
        decisions = [(f"u{i}", "a", "a") for i in range(4)]
        assert evaluate(decisions).pia == 100.0

    def test_none_correct(self):
        decisions = [(f"u{i}", "a", "b") for i in range(4)]
        assert evaluate(decisions).pia == 0.0

    def test_three_of_four(self):
        decisions = [("u0", "a", "a"), ("u1", "a", "a"), ("u2", "b", "b"),
                     ("u3", "b", "a")]
        report = evaluate(decisions)
        assert report.pia == 75.0
        assert report.num_trials == 4

    def test_recomputation_consistent(self):
        """The reported accuracy always agrees with recounting decisions."""
        rng = np.random.default_rng(89)
        speakers = ["a", "b", "c"]
        decisions = [
            (f"u{i}", rng.choice(speakers), rng.choice(speakers)) for i in range(50)
        ]
        report = evaluate(decisions)
        recount = 100.0 * sum(t == d for _, t, d in report.decisions) / len(report.decisions)
        assert report.pia == recount

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate([])
