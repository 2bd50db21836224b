"""Release-gate checks for the whole toolkit.

Each test covers one numbered criterion and emits a single [PASS]/[FAIL]
line (collected in the terminal summary).  Tolerances are pinned here and
must not be loosened: a red criterion means the implementation is wrong,
not that the bound is too tight.
"""

import math
import time

import numpy as np
from scipy.linalg import toeplitz
from scipy.signal import lfilter

from sidkit.commands import (
    evaluate_command,
    extract_streams,
    train_command,
)
from sidkit.config import (
    DEFAULT_CONFIG_TEXT,
    ModelConfig,
    ResidualConfig,
    ToolkitConfig,
    parse_config,
)
from sidkit.corpus import (
    DEFAULT_SAMPLE_RATE,
    CorpusManifest,
    default_speaker_specs,
    generate_synthetic_corpus,
)
from sidkit.audio_io import load_audio
from sidkit.frontend import AudioSignal, hamming_window, preprocess
from sidkit.gmm import em_train, lbg_init
from sidkit.identify import COMBINED, RESIDUAL, SPECTRAL, identify, score_utterance, with_eta
from sidkit.lpc import AUTOCORR_RIDGE, compute_lp, inverse_filter
from sidkit.residual_moments import central_moments
from sidkit.store import MODELS_NAME

from oracles import mixture, model_log_likelihoods, normalize_residual, predict


def _dense_lp_coefficients(frame, order):
    """Reference route: solve the Toeplitz normal equations directly."""
    n = frame.size
    r = np.array([float(np.dot(frame[k:], frame[: n - k])) for k in range(order + 1)])
    r[0] *= 1.0 + AUTOCORR_RIDGE
    alpha = np.linalg.solve(toeplitz(r[:order]), r[1 : order + 1])
    return -alpha


def test_01_lp_solver_matches_dense_oracle(criterion):
    """Levinson-Durbin equals a dense normal-equation solve on 1,000 frames."""
    with criterion(1, "order-recursive LP solver matches dense solve within 1e-8"):
        rng = np.random.default_rng(1001)
        noise = rng.standard_normal(400_000)
        colored = lfilter([1.0], [1.0, -1.2, 0.8, -0.3, 0.1], noise)

        start = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            s = int(rng.integers(1000, colored.size - 160))
            frame = colored[s : s + 160] * rng.uniform(0.05, 2.0)
            fast = compute_lp(frame, 17).a
            dense = _dense_lp_coefficients(frame, 17)
            worst = max(worst, float(np.max(np.abs(fast - dense))))
        elapsed = time.perf_counter() - start

        print(f"    worst coefficient difference: {worst:.3e}  ({elapsed:.2f} s)")
        assert worst <= 1e-8
        assert elapsed < 10.0


def test_02_residual_reconstruction_identity(criterion, synthetic_corpus, toolkit_config):
    """Prediction plus residual rebuilds every corpus frame exactly."""
    with criterion(2, "prediction + residual reproduces every frame within 1e-12"):
        cfg = toolkit_config
        worst = 0.0
        total = 0
        for entry in synthetic_corpus.entries:
            signal = load_audio(entry.path, expected_rate=synthetic_corpus.sample_rate)
            frames = preprocess(signal, cfg.preprocess)
            for frame in frames:
                lp = compute_lp(frame, cfg.residual.lp_order)
                rebuilt = predict(frame, lp) + inverse_filter(frame, lp)
                worst = max(worst, float(np.max(np.abs(frame - rebuilt))))
            total += frames.shape[0]
        print(f"    {total} frames, worst reconstruction error {worst:.3e}")
        assert total > 20_000
        assert worst <= 1e-12


def _brute_force_moments(residual, num_moments):
    """Plain-Python summation, independent of any numpy reductions."""
    values = [float(v) for v in residual]
    mean = math.fsum(values) / len(values)
    deviations = [v - mean for v in values]
    return [
        math.fsum(d**k for d in deviations) / len(deviations)
        for k in range(2, num_moments + 2)
    ]


def test_03_moment_summation_oracle(criterion):
    """central_moments equals naive summation; alternating frame is exact."""
    with criterion(3, "central moments match brute-force sums within 1e-12"):
        rng = np.random.default_rng(1003)
        worst = 0.0
        for i in range(10_000):
            if i % 2:
                raw = rng.uniform(-1.0, 1.0, 160)
            else:
                raw = rng.standard_normal(160) * rng.uniform(0.1, 3.0)
            # moments are always taken of peak-normalized residuals
            frame = normalize_residual(raw)
            got = central_moments(frame, 6)
            want = _brute_force_moments(frame, 6)
            worst = max(worst, float(np.max(np.abs(got - np.array(want)))))
        print(f"    worst moment difference over 10,000 frames: {worst:.3e}")
        assert worst <= 1e-12

        alternating = normalize_residual(np.tile([1.0, -1.0], 80))
        got = central_moments(alternating, 6)
        assert np.array_equal(got, np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0]))


def test_04_em_monotone_likelihood(criterion):
    """Training likelihood never decreases; one component recovers sample stats."""
    with criterion(4, "EM log-likelihood non-decreasing (slack 1e-8) for M in {2,4,8,16}"):
        rng = np.random.default_rng(1004)
        worst_drop = 0.0
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            clusters = int(rng.integers(2, 5))
            parts = []
            for _ in range(clusters):
                center = rng.uniform(-4.0, 4.0, dim)
                spread = rng.uniform(0.3, 1.5)
                parts.append(center + spread * rng.standard_normal((80, dim)))
            data = np.concatenate(parts)
            for m in (2, 4, 8, 16):
                cfg = ModelConfig()
                model = em_train(data, lbg_init(data, [len(data)], m, cfg), cfg)
                assert len(model.em_log_likelihoods) == cfg.em_iterations + 1
                drop = float(np.min(np.diff(model.em_log_likelihoods)))
                worst_drop = min(worst_drop, drop)
                assert drop >= -1e-8
        print(f"    worst likelihood step over 400 trainings: {worst_drop:.3e}")

        data = np.random.default_rng(1044).standard_normal((500, 4)) * 1.7 + 0.3
        cfg = ModelConfig()
        model = em_train(data, lbg_init(data, [len(data)], 1, cfg), cfg)
        np.testing.assert_allclose(model.means[0, 0], data.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(model.variances[0, 0], data.var(axis=0), atol=1e-9)


def test_05_mixture_density_oracle(criterion):
    """Log-domain scoring equals direct linear-domain evaluation."""
    with criterion(5, "log-domain mixture density matches linear domain within 1e-9"):
        rng = np.random.default_rng(1005)
        checked = 0
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(1, 6))
            m = int(2 ** rng.integers(0, 4))
            weights = rng.uniform(0.2, 1.0, m)
            weights /= weights.sum()
            means = rng.uniform(-3.0, 3.0, (m, dim))
            variances = rng.uniform(0.2, 2.0, (m, dim))
            points = rng.uniform(-4.0, 4.0, (100, dim))

            diff = points[:, None, :] - means[None, :, :]
            exponent = -0.5 * np.sum(diff**2 / variances[None, :, :], axis=2)
            norms = np.prod(2.0 * np.pi * variances, axis=1) ** -0.5
            linear = (np.exp(exponent) * norms[None, :]) @ weights

            usable = linear > 1e-290
            direct = np.log(linear[usable])
            stable = model_log_likelihoods(points, mixture(weights, means, variances))[usable]
            if usable.any():
                worst = max(worst, float(np.max(np.abs(direct - stable))))
            checked += int(usable.sum())
        print(f"    {checked} non-underflowing points, worst difference {worst:.3e}")
        assert checked > 5000
        assert worst <= 1e-9


def test_06_fusion_boundary_decisions(criterion, synthetic_corpus, trained_store, toolkit_config):
    """Weight 1 (or 0) reduces exactly to the single-stream system."""
    with criterion(6, "eta=1 / eta=0 decisions equal single-stream decisions, arithmetic exact"):
        cfg = toolkit_config
        banks = trained_store.banks()
        entries = sorted(synthetic_corpus.test_entries, key=lambda e: e.utterance_id)
        assert entries
        for entry in entries:
            signal = load_audio(entry.path, expected_rate=synthetic_corpus.sample_rate)
            spectral, residual = extract_streams(signal, cfg)
            scores = score_utterance(spectral, residual, banks, eta=0.5)

            rows = dict(zip(scores.speakers, scores.scores.tolist()))
            by_spectral = min(rows, key=lambda s: (-rows[s][SPECTRAL], s))
            by_residual = min(rows, key=lambda s: (-rows[s][RESIDUAL], s))
            assert identify(with_eta(scores, 1.0)) == by_spectral
            assert identify(with_eta(scores, 0.0)) == by_residual

            for i, speaker in enumerate(scores.speakers):
                spectral, residual, _ = rows[speaker]
                assert with_eta(scores, 1.0).scores[i, COMBINED] == spectral
                assert with_eta(scores, 0.0).scores[i, COMBINED] == residual
                for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
                    combined = with_eta(scores, eta).scores[i, COMBINED]
                    assert combined == eta * spectral + (1.0 - eta) * residual


def test_07_synthetic_end_to_end_accuracy(criterion, evaluation, pipeline_timings):
    """10 speakers, 8+4 utterances each: accuracy clears the stated floors."""
    with criterion(7, "synthetic run: spectral >= 95%, residual > 10%, fusion within 2.5 pp"):
        run, report_path, _ = evaluation
        print(
            f"    PIA spectral-only {run.spectral_only.pia:.2f}, "
            f"residual-only {run.residual_only.pia:.2f}, fused {run.fused.pia:.2f}"
        )
        assert run.fused.num_trials == 40
        assert run.spectral_only.pia >= 95.0
        assert run.residual_only.pia > 10.0
        assert run.fused.pia >= run.spectral_only.pia - 2.5

        total = sum(pipeline_timings[k] for k in ("synth", "train", "evaluate"))
        print(f"    pipeline wall time {total:.1f} s (synth+train+evaluate)")
        assert total < 300.0
        assert report_path.exists()


def test_08_rerun_is_byte_identical(criterion, evaluation, toolkit_config, trained_store, tmp_path):
    """A second run from the same seed reproduces the report byte for byte."""
    with criterion(8, "full rerun with the same seed yields a byte-identical report"):
        run1, report1, records1 = evaluation

        start = time.perf_counter()
        specs = default_speaker_specs(10, seed=0)
        corpus = generate_synthetic_corpus(
            specs,
            train_utts=8,
            test_utts=4,
            utt_seconds=2.0,
            seed=0,
            out_dir=tmp_path / "corpus",
        )
        store = train_command(corpus, toolkit_config, tmp_path / "store")
        report2 = tmp_path / "report.txt"
        records2 = tmp_path / "records.jsonl"
        run2 = evaluate_command(
            corpus,
            store,
            eta=0.5,
            report_path=report2,
            records_path=records2,
        )
        elapsed = time.perf_counter() - start
        print(f"    fresh synth+train+evaluate in {elapsed:.1f} s")

        assert report2.read_bytes() == report1.read_bytes()
        assert records2.read_bytes() == records1.read_bytes()
        assert run2.fused.pia == run1.fused.pia
        assert elapsed < 300.0

        # the stored models themselves are reproduced bit for bit as well
        first = trained_store.path / MODELS_NAME
        second = store.path / MODELS_NAME
        assert first.is_file() and second.is_file()
        assert second.read_bytes() == first.read_bytes()


def test_09_default_configuration_snapshot(criterion):
    """The shipped defaults are exactly the published operating point."""
    with criterion(9, "default config: 0.97, 20 ms/50%, Hamming, p=17, 6 moments, 19 cepstra"):
        cfg = ToolkitConfig()
        assert cfg.preprocess.pre_emphasis == 0.97
        assert cfg.preprocess.frame_len == 160
        assert cfg.preprocess.frame_shift == 80
        assert cfg.preprocess.frame_len / DEFAULT_SAMPLE_RATE == 0.020
        assert 2 * cfg.preprocess.frame_shift == cfg.preprocess.frame_len

        n = np.arange(160)
        np.testing.assert_allclose(
            hamming_window(160),
            0.54 - 0.46 * np.cos(2.0 * np.pi * n / 159.0),
            rtol=0.0,
            atol=1e-15,
        )

        assert cfg.residual.lp_order == 17
        assert cfg.residual.num_moments == 6
        assert cfg.spectral.num_cepstra == 19
        assert cfg.spectral.num_filters == 20
        assert cfg.model.em_iterations == 10
        assert cfg.model.m_spectral == 8
        assert cfg.model.m_residual == 8
        assert cfg.fusion.eta == 0.5

        assert parse_config(DEFAULT_CONFIG_TEXT) == ToolkitConfig()

        # the advertised dimensions hold for real extracted features
        rng = np.random.default_rng(1009)
        wave = lfilter([1.0], [1.0, -0.9], rng.standard_normal(8000)) * 0.05
        signal = AudioSignal(np.clip(wave, -1.0, 1.0), DEFAULT_SAMPLE_RATE)
        spectral, residual = extract_streams(signal, cfg)
        assert spectral.shape[1] == 19
        assert residual.shape[1] == 6


def test_11_higher_moments_carry_the_speaker(criterion, tmp_path):
    """The moments above the variance carry the speaker: on a fixed corpus,
    residual-only decisions at the default 6 moments beat those at 1 moment
    (the variance alone) by a continuity-corrected McNemar test on the
    paired trials.  The synthetic source is a jittered pulse train plus
    noise, so this shows what that source puts into the residual."""
    with criterion(11, "residual stream: 6 moments beat 1, McNemar chi2 > 3.84"):
        start = time.perf_counter()
        specs = default_speaker_specs(32, seed=0)
        train = generate_synthetic_corpus(specs, 1, 0, 2.0, 0, tmp_path / "train")
        tests = generate_synthetic_corpus(specs, 1, 4, 0.5, 1, tmp_path / "test")
        manifest = CorpusManifest(train.entries + tuple(tests.test_entries), train.sample_rate)
        correct = {}
        for moments in (1, 6):
            cfg = ToolkitConfig(residual=ResidualConfig(num_moments=moments))
            run = evaluate_command(manifest, train_command(manifest, cfg, tmp_path / f"m{moments}"))
            correct[moments] = np.array([true == decided
                                         for _, true, decided in run.residual_only.decisions])
        only_six = int(np.sum(correct[6] & ~correct[1]))
        only_one = int(np.sum(correct[1] & ~correct[6]))
        print(
            f"    residual PIA {100 * correct[6].mean():.2f} % at 6 moments, "
            f"{100 * correct[1].mean():.2f} % at 1, over {correct[6].size} trials; "
            f"right only at 6: {only_six}, only at 1: {only_one}  "
            f"({time.perf_counter() - start:.1f} s)"
        )
        assert correct[6].size == 128
        assert only_six > only_one
        chi2 = (abs(only_six - only_one) - 1) ** 2 / (only_six + only_one)
        print(f"    McNemar chi2 {chi2:.1f}")
        assert chi2 > 3.84
