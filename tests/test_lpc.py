"""Linear prediction: normal equations, inverse filtering, reconstruction."""

import warnings

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.signal import lfilter

from sidkit.lpc import (
    AUTOCORR_RIDGE,
    LpFrames,
    _levinson_durbin,
    autocorrelation,
    compute_lp,
    inverse_filter,
)

from oracles import levinson_durbin, predict


def speech_like_frame(rng, n=160):
    """Colored noise with a few resonances, roughly speech-shaped."""
    noise = rng.standard_normal(n + 200)
    denom = [1.0, -1.2, 0.8, -0.3, 0.1]
    return lfilter([1.0], denom, noise)[200:]


def dense_solve_lp(frame, order):
    """Independent route: solve the Toeplitz normal equations directly.

    Builds the full autocorrelation matrix (with the same zero-lag
    regularization) and calls a dense linear solver instead of the
    order-recursive elimination.
    """
    r = autocorrelation(frame, order)
    r = r.copy()
    r[0] *= 1.0 + AUTOCORR_RIDGE
    alpha = np.linalg.solve(toeplitz(r[:order]), r[1 : order + 1])
    return -alpha


class TestComputeLp:
    def test_ar1_frame_recovers_coefficient(self):
        """A first-order autoregression is identified at order 1.

        The closed-form solution of the order-1 normal equation is
        -r(1)/r(0) from the sample autocorrelations.
        """
        rng = np.random.default_rng(10)
        x = np.empty(2000)
        x[0] = rng.standard_normal()
        for n in range(1, len(x)):
            x[n] = 0.9 * x[n - 1] + 0.01 * rng.standard_normal()
        lp = compute_lp(x, 1)
        assert lp.a[0] == pytest.approx(-0.9, abs=0.02)
        r = autocorrelation(x, 1)
        closed_form = -(r[1] / (r[0] * (1.0 + AUTOCORR_RIDGE)))
        assert lp.a[0] == pytest.approx(closed_form, abs=1e-12)

    def test_white_noise_coefficients_small(self):
        """Long white noise has vanishing off-lag correlation."""
        rng = np.random.default_rng(11)
        lp = compute_lp(rng.standard_normal(8000), 17)
        assert np.all(np.abs(lp.a) < 0.1)

    def test_matches_dense_solver(self):
        """Order-recursive solve equals a dense solve of the same system."""
        rng = np.random.default_rng(12)
        for _ in range(50):
            frame = speech_like_frame(rng)
            lp = compute_lp(frame, 17)
            np.testing.assert_allclose(lp.a, dense_solve_lp(frame, 17), atol=1e-8)

    def test_zero_frame_marked_unusable(self):
        """A silent frame is marked, holds zero coefficients and warns nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lp = compute_lp(np.zeros(160), 17)
        assert lp.usable.shape == () and not lp.usable
        np.testing.assert_array_equal(lp.a, np.zeros(17))

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            compute_lp(np.ones(10), 0)
        with pytest.raises(ValueError):
            compute_lp(np.ones(10), 10)

    def test_minimum_phase(self):
        """All zeros of the prediction-error filter lie inside the unit circle."""
        rng = np.random.default_rng(14)
        for _ in range(20):
            lp = compute_lp(speech_like_frame(rng), 17)
            roots = np.roots(np.concatenate(([1.0], lp.a)))
            assert np.all(np.abs(roots) < 1.0 + 1e-9)

    def test_mse_optimality(self):
        """Perturbing any coefficient by +/-1e-3 never lowers the error.

        The minimized quantity is the energy of the full inverse-filter
        output including the tail past the frame end, so that is what we
        perturb (the frame-truncated energy has a slightly different
        optimum).
        """
        rng = np.random.default_rng(15)
        frame = speech_like_frame(rng)
        lp = compute_lp(frame, 12)

        def full_error_energy(a):
            return np.sum(np.convolve(frame, np.concatenate(([1.0], a))) ** 2)

        base = full_error_energy(lp.a)
        for k in range(12):
            for delta in (1e-3, -1e-3):
                a = lp.a.copy()
                a[k] += delta
                assert full_error_energy(a) >= base - 1e-9


class TestInverseFilter:
    def test_zero_frame_zero_residual(self):
        lp = LpFrames(a=np.array([-0.5, 0.2]), usable=np.array(True))
        np.testing.assert_array_equal(inverse_filter(np.zeros(50), lp), np.zeros(50))

    def test_reconstruction_identity(self):
        """Adding the predictor output back to the residual restores the frame."""
        rng = np.random.default_rng(16)
        for _ in range(30):
            frame = speech_like_frame(rng)
            lp = compute_lp(frame, 17)
            e = inverse_filter(frame, lp)
            s_hat = predict(frame, lp)
            np.testing.assert_allclose(s_hat + e, frame, atol=1e-12)

    def test_known_excitation_recovered(self):
        """Driving 1/A(z) with a sparse pulse train and inverse filtering
        with the estimated predictor recovers the pulse positions and
        amplitudes (within 5%)."""
        rng = np.random.default_rng(17)
        denom = np.concatenate(([1.0], compute_lp(speech_like_frame(rng), 8).a))
        excitation = np.zeros(800)
        positions = np.arange(40, 800, 70)
        amplitudes = rng.uniform(0.8, 1.2, positions.size)
        excitation[positions] = amplitudes
        frame = lfilter([1.0], denom, excitation)

        lp = compute_lp(frame, 8)
        e = inverse_filter(frame, lp)
        peaks = np.flatnonzero(np.abs(e) > 0.5 * np.max(np.abs(e)))
        # every true pulse has a residual peak on it
        assert set(positions) <= set(peaks.tolist())
        np.testing.assert_allclose(e[positions], amplitudes, rtol=0.05)


class TestAutocorrelation:
    def test_matches_direct_sums(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(200)
        r = autocorrelation(x, 5)
        for lag in range(6):
            direct = np.dot(x[: len(x) - lag], x[lag:])
            assert r[lag] == pytest.approx(direct, rel=1e-12)

    def test_zero_lag_dominates(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal(500)
        r = autocorrelation(x, 10)
        assert np.all(np.abs(r[1:]) <= r[0])


class TestBatchedLp:
    @staticmethod
    def _matrix_with_zero_rows(seed=20):
        rng = np.random.default_rng(seed)
        frames = np.vstack([speech_like_frame(rng) for _ in range(10)])
        frames[[0, 4, 5, 9]] = 0.0
        return frames

    def test_rows_equal_single_frame_solves(self):
        """Every usable row of a matrix solve equals the one-frame solve bit for bit."""
        frames = self._matrix_with_zero_rows()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = compute_lp(frames, 17)
        assert isinstance(batch, LpFrames)
        assert batch.a.shape == (10, 17) and batch.order == 17
        np.testing.assert_array_equal(batch.usable, np.any(frames != 0.0, axis=1))
        for frame, a, usable in zip(frames, batch.a, batch.usable):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                single = compute_lp(frame, 17)
            assert single.usable == usable
            if not usable:
                np.testing.assert_array_equal(a, np.zeros(17))
            np.testing.assert_array_equal(single.a, a)

    def test_matrix_inverse_filter_equals_rows(self):
        frames = self._matrix_with_zero_rows(21)
        batch = compute_lp(frames, 17)
        residuals = inverse_filter(frames, batch)
        for t in np.flatnonzero(batch.usable):
            single = inverse_filter(frames[t], compute_lp(frames[t], 17))
            np.testing.assert_array_equal(residuals[t], single)
        np.testing.assert_array_equal(residuals[~batch.usable], 0.0)

    def test_all_zero_matrix_marks_every_row(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = compute_lp(np.zeros((3, 160)), 17)
        assert not np.any(batch.usable)

    def test_autocorrelation_rows(self):
        frames = self._matrix_with_zero_rows(22)
        np.testing.assert_array_equal(
            autocorrelation(frames, 17), np.array([autocorrelation(f, 17) for f in frames])
        )

    def test_matrix_order_bounds(self):
        with pytest.raises(ValueError):
            compute_lp(np.ones((3, 10)), 10)
        with pytest.raises(ValueError):
            compute_lp(np.ones((2, 3, 40)), 4)

    @pytest.mark.parametrize("order", [1, 17, 19])
    @pytest.mark.parametrize("case", ["random", "zero-rows", "single-row"])
    def test_levinson_durbin_equals_the_frames_first_loop(self, order, case):
        """Bit for bit, coefficients and mask, on usable and degenerate rows."""
        frames = self._matrix_with_zero_rows(23)
        if case == "random":
            frames = np.random.default_rng(24).standard_normal((37, 160))
        elif case == "single-row":
            frames = frames[1:2]
        r = autocorrelation(frames, order)
        r[:, 0] *= 1.0 + AUTOCORR_RIDGE
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            alpha, ok = _levinson_durbin(r, order)
            want_alpha, want_ok = levinson_durbin(r, order)
        np.testing.assert_array_equal(ok, want_ok)
        assert alpha[ok].tobytes() == want_alpha[want_ok].tobytes()
        assert alpha.flags.c_contiguous

    def test_coefficients_are_c_contiguous(self):
        frames = self._matrix_with_zero_rows(25)
        assert compute_lp(frames, 17).a.flags.c_contiguous
        assert compute_lp(frames[1], 17).a.flags.c_contiguous
