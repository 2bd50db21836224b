"""Residual normalization and central-moment feature extraction."""

import warnings

import numpy as np
import pytest

from sidkit.config import PreprocessConfig, ResidualConfig
from sidkit.errors import NoUsableFrames
from sidkit.frontend import AudioSignal, preprocess
from sidkit.lpc import compute_lp, inverse_filter
from sidkit.residual_moments import central_moments, extract_residual_moments

from oracles import normalize_residual

# The paper's operating point, stated here rather than read from the defaults.
RESIDUAL = ResidualConfig(lp_order=17, num_moments=6)


def brute_force_moments(x, num_moments):
    """Naive per-order summation, independent of the vectorized route."""
    mu = sum(x) / len(x)
    out = []
    for k in range(2, num_moments + 2):
        out.append(sum((v - mu) ** k for v in x) / len(x))
    return np.array(out)


class TestNormalizeResidual:
    def test_basic(self):
        out = normalize_residual(np.array([0.5, -0.25, 0.1]))
        np.testing.assert_allclose(out, [1.0, -0.5, 0.2])

    def test_already_peaked_unchanged(self):
        x = np.array([0.3, -1.0, 0.7])
        np.testing.assert_array_equal(normalize_residual(x), x)

    def test_zero_frame_rejected(self):
        with pytest.raises(ValueError, match="all-zero residual"):
            normalize_residual(np.zeros(10))

    def test_peak_is_exactly_one(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            out = normalize_residual(rng.uniform(-0.01, 0.01, 160))
            assert np.max(np.abs(out)) == 1.0


class TestCentralMoments:
    def test_constant_frame_all_zero(self):
        np.testing.assert_array_equal(central_moments(np.full(10, 0.7), 6), np.zeros(6))

    def test_alternating_sequence(self):
        """[+1, -1, +1, -1, ...]: mean 0, even moments 1, odd moments 0."""
        x = np.tile([1.0, -1.0], 50)
        np.testing.assert_array_equal(central_moments(x, 6), [1, 0, 1, 0, 1, 0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            x = rng.uniform(-1, 1, 160)
            got = central_moments(x, 6)
            np.testing.assert_allclose(got, brute_force_moments(x, 6), atol=1e-12)

    def test_centered_mean_vanishes(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            x = rng.uniform(-1, 1, 160)
            assert abs(np.mean(x - np.mean(x))) < 1e-15

    def test_even_moments_non_negative(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = central_moments(rng.uniform(-1, 1, 160), 6)
            assert m[0] >= 0 and m[2] >= 0 and m[4] >= 0

    def test_bounded_for_normalized_input(self):
        """With samples and mean in [-1, 1], |m_k| <= 2^k."""
        rng = np.random.default_rng(24)
        orders = np.arange(2, 8)
        for _ in range(50):
            x = normalize_residual(rng.uniform(-1, 1, 160))
            m = central_moments(x, 6)
            assert np.all(np.abs(m) <= 2.0**orders)

    def test_requested_count_returned(self):
        x = np.random.default_rng(25).uniform(-1, 1, 64)
        for k in (1, 3, 6, 9):
            assert central_moments(x, k).shape == (k,)


class TestMomentInvariances:
    def test_scale_invariance(self):
        """Scaling the raw residual by any c > 0 cancels in normalization."""
        rng = np.random.default_rng(26)
        for c in (1e-6, 0.5, 3.0, 1e4):
            x = rng.uniform(-1, 1, 160)
            a = central_moments(normalize_residual(x), 6)
            b = central_moments(normalize_residual(c * x), 6)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_sign_symmetry(self):
        """Negating the frame negates odd moments, preserves even ones."""
        rng = np.random.default_rng(27)
        x = rng.uniform(-1, 1, 160)
        m_pos = central_moments(x, 6)
        m_neg = central_moments(-x, 6)
        np.testing.assert_array_equal(m_neg[0::2], m_pos[0::2])
        np.testing.assert_array_equal(m_neg[1::2], -m_pos[1::2])


class TestExtractResidualMoments:
    @staticmethod
    def _frames(num=100, seed=28):
        rng = np.random.default_rng(seed)
        sig = AudioSignal(samples=rng.uniform(-0.8, 0.8, 80 * num + 80), sample_rate=8000)
        return preprocess(sig, PreprocessConfig())

    def test_shape(self):
        frames = self._frames()
        feats = extract_residual_moments(frames, RESIDUAL)
        assert feats.vectors.shape == (len(frames), 6)
        assert feats.skipped_frames == 0

    def test_deterministic(self):
        frames = self._frames()
        a = extract_residual_moments(frames, RESIDUAL)
        b = extract_residual_moments(frames, RESIDUAL)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_matches_staged_pipeline(self):
        """Batch extraction equals the per-frame stage composition."""
        frames = self._frames(num=20)
        feats = extract_residual_moments(frames, RESIDUAL)
        for t, frame in enumerate(frames):
            lp = compute_lp(frame, 17)
            expected = central_moments(normalize_residual(inverse_filter(frame, lp)), 6)
            np.testing.assert_array_equal(feats.vectors[t], expected)

    def test_degenerate_frames_skipped_and_counted(self):
        frames = np.vstack([np.zeros(160), np.random.default_rng(29).uniform(-1, 1, 160)])
        feats = extract_residual_moments(frames, RESIDUAL)
        assert feats.vectors.shape == (1, 6)
        assert feats.skipped_frames == 1

    @pytest.mark.parametrize("shape", [(160,), (2, 4, 160)])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            extract_residual_moments(np.ones(shape), RESIDUAL)

    def test_all_degenerate_rejected(self):
        frames = np.zeros((5, 160))
        with pytest.raises(NoUsableFrames):
            extract_residual_moments(frames, RESIDUAL)

    def test_interleaved_degenerate_rows(self):
        """Zero rows, and a row whose energy overflows so the recursion collapses,
        are skipped and counted exactly amid voiced rows; the other rows equal
        the per-frame pipeline bit for bit; no floating-point warning escapes."""
        rng = np.random.default_rng(30)
        frames = rng.uniform(-1, 1, (12, 160)) * np.hamming(160)
        zero_rows = [0, 3, 4, 11]
        frames[zero_rows] = 0.0
        frames[8] *= 1e160
        degenerate = zero_rows + [8]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            feats = extract_residual_moments(frames, RESIDUAL)
            assert not compute_lp(frames[8], 17).usable
            expected = [
                central_moments(
                    normalize_residual(inverse_filter(f, compute_lp(f, 17))), 6
                )
                for t, f in enumerate(frames)
                if t not in degenerate
            ]
        assert feats.skipped_frames == len(degenerate)
        np.testing.assert_array_equal(feats.vectors, np.array(expected))


class TestBatchedKernels:
    def test_rows_normalized_and_moments_per_row(self):
        """Matrix input to the per-frame helpers equals stacking their row results."""
        rng = np.random.default_rng(31)
        residuals = rng.uniform(-0.3, 0.3, (7, 160))
        normalized = normalize_residual(residuals)
        np.testing.assert_array_equal(
            normalized, np.array([normalize_residual(r) for r in residuals])
        )
        np.testing.assert_array_equal(
            central_moments(normalized, 6),
            np.array([central_moments(r, 6) for r in normalized]),
        )

    def test_zero_row_in_matrix_rejected(self):
        residuals = np.random.default_rng(32).uniform(-1, 1, (3, 160))
        residuals[1] = 0.0
        with pytest.raises(ValueError, match="all-zero residual"):
            normalize_residual(residuals)
