"""Silence removal, pre-emphasis, framing, and the Hamming window."""

import numpy as np
import pytest

from sidkit.config import PreprocessConfig
from sidkit.errors import EmptyAfterVad, SignalTooShort
from sidkit.frontend import (
    AudioSignal,
    frame_and_window,
    hamming_window,
    pre_emphasize,
    preprocess,
    remove_silence,
)

CFG = PreprocessConfig()


def tone(freq, seconds, rate=8000, amplitude=1.0):
    t = np.arange(int(seconds * rate)) / rate
    return amplitude * np.sin(2 * np.pi * freq * t)


class TestAudioSignal:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AudioSignal(samples=np.array([0.0, np.nan]), sample_rate=8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioSignal(samples=np.zeros(10), sample_rate=0)

    @pytest.mark.parametrize("rate", [8000.0, True, None], ids=["float", "bool", "none"])
    def test_rate_must_be_an_int(self, rate):
        """A bool is not a 1 Hz rate, and a float rate cannot be written to a WAV header."""
        with pytest.raises(ValueError, match=f"^sample_rate must be an int, got {rate!r}$"):
            AudioSignal(samples=np.zeros(10), sample_rate=rate)

    def test_duration(self):
        sig = AudioSignal(samples=np.zeros(8000), sample_rate=8000)
        assert sig.samples.size == 8000
        assert sig.samples.size / sig.sample_rate == pytest.approx(1.0)


class TestRemoveSilence:
    def test_all_zero_signal_rejected(self):
        sig = np.zeros(8000)
        with pytest.raises(EmptyAfterVad):
            remove_silence(sig, CFG)

    def test_constant_tone_unchanged(self):
        """Every block sits at the mean energy, far above the 0.06 ratio."""
        sig = tone(440, 1.0)
        out = remove_silence(sig, CFG)
        np.testing.assert_array_equal(out, sig)

    def test_leading_silence_removed(self):
        """Half silence, half tone: only the tone region survives.

        The expected kept region is recomputed here directly from the
        block energies and the threshold rule.
        """
        samples = np.concatenate([np.zeros(8000), tone(440, 1.0, amplitude=0.5)])
        out = remove_silence(samples, CFG)

        blocks = samples[: len(samples) // CFG.frame_len * CFG.frame_len]
        blocks = blocks.reshape(-1, CFG.frame_len)
        energies = np.mean(blocks**2, axis=1)
        keep = energies > CFG.silence_energy_ratio * energies.mean()
        expected = blocks[keep].ravel()
        np.testing.assert_array_equal(out, expected)
        # the kept region is within one block of the true tone boundary
        assert abs(len(out) - 8000) <= CFG.frame_len

    def test_trailing_partial_block_dropped(self):
        out = remove_silence(tone(440, 1.0)[: 8000 - 37], CFG)
        assert len(out) % CFG.frame_len == 0


class TestPreEmphasize:
    def test_impulse(self):
        out = pre_emphasize(np.array([1.0, 0.0, 0.0]), 0.97)
        np.testing.assert_allclose(out, [1.0, -0.97, 0.0])

    def test_constant(self):
        c = 0.5
        out = pre_emphasize(np.full(3, c), 0.97)
        np.testing.assert_allclose(out, [c, 0.03 * c, 0.03 * c])

    def test_zero_coefficient_is_identity(self):
        rng = np.random.default_rng(0)
        sig = rng.uniform(-1, 1, 100)
        out = pre_emphasize(sig, 0.0)
        np.testing.assert_array_equal(out, sig)

    def test_invertible(self):
        """The original signal is recoverable by the running recurrence."""
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 500)
        y = pre_emphasize(x, 0.97)
        rec = np.empty_like(y)
        rec[0] = y[0]
        for n in range(1, len(y)):
            rec[n] = y[n] + 0.97 * rec[n - 1]
        np.testing.assert_allclose(rec, x, atol=1e-12)


class TestFrameAndWindow:
    def test_basic_frame_count_and_starts(self):
        """320 samples at len 160 / shift 80 give 3 frames at 0, 80, 160."""
        x = np.arange(320, dtype=np.float64) / 320.0
        frames = frame_and_window(x, CFG)
        assert len(frames) == 3
        w = hamming_window(160)
        for i, start in enumerate((0, 80, 160)):
            np.testing.assert_array_equal(frames[i], x[start : start + 160] * w)

    def test_frame_count_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(160, 4000))
            frames = frame_and_window(rng.uniform(-1, 1, n), CFG)
            assert len(frames) == (n - CFG.frame_len) // CFG.frame_shift + 1

    def test_too_short_rejected(self):
        with pytest.raises(SignalTooShort):
            frame_and_window(np.ones(100), CFG)

    def test_windowing_reduces_energy(self):
        """All window values except a possible midpoint are below 1."""
        rng = np.random.default_rng(3)
        sig = rng.uniform(-1, 1, 800)
        frames = frame_and_window(sig, CFG)
        raw = np.lib.stride_tricks.sliding_window_view(sig, 160)[::80]
        assert np.all(np.sum(frames**2, axis=1) < np.sum(raw**2, axis=1))


class TestHammingWindow:
    def test_endpoints_and_midpoint(self):
        w = hamming_window(161)
        assert w[0] == pytest.approx(0.08)
        assert w[-1] == pytest.approx(0.08)
        assert w[80] == pytest.approx(1.0)

    def test_matches_cosine_formula(self):
        n = np.arange(160)
        expected = 0.54 - 0.46 * np.cos(2 * np.pi * n / 159)
        np.testing.assert_allclose(hamming_window(160), expected, atol=1e-12)

    def test_symmetry(self):
        w = hamming_window(160)
        np.testing.assert_allclose(w, w[::-1], atol=1e-15)


class TestPreprocess:
    def test_deterministic(self):
        rng = np.random.default_rng(4)
        sig = AudioSignal(samples=rng.uniform(-1, 1, 8000), sample_rate=8000)
        a = preprocess(sig, CFG)
        b = preprocess(sig, CFG)
        np.testing.assert_array_equal(a, b)

    def test_stage_composition(self):
        """The one-call pipeline equals the three stages called in order."""
        rng = np.random.default_rng(5)
        sig = AudioSignal(samples=rng.uniform(-1, 1, 8000), sample_rate=8000)
        combined = preprocess(sig, CFG)
        staged = frame_and_window(
            pre_emphasize(remove_silence(sig.samples, CFG), CFG.pre_emphasis), CFG
        )
        np.testing.assert_array_equal(combined, staged)

    def test_frame_length_uniform(self):
        rng = np.random.default_rng(6)
        sig = AudioSignal(samples=rng.uniform(-1, 1, 5000), sample_rate=8000)
        frames = preprocess(sig, CFG)
        assert frames.shape[1] == CFG.frame_len
