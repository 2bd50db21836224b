"""Power spectrum, filterbanks, cepstra, and the LP-to-cepstrum recursion."""

import dataclasses

import numpy as np
import pytest
from scipy.signal import lfilter

from sidkit.config import SpectralConfig
from sidkit.errors import NoUsableFrames
from sidkit.frontend import hamming_window
from sidkit.lpc import compute_lp
from sidkit.spectral import (
    LOG_ENERGY_FLOOR,
    cepstra_from_energies,
    extract_filterbank_cepstra,
    extract_lpcc,
    filterbank_energies,
    hz_from_mel,
    lpcc_from_lp,
    make_filterbank,
    mel_from_hz,
    power_spectrum,
)


# The paper's operating point, stated here rather than read from the defaults.
PAPER = SpectralConfig(kind="mfcc", num_filters=20, num_cepstra=19, fft_size=256, lpcc_lp_order=19)
KIND_OF_SCALE = {"mel": "mfcc", "linear": "lfcc"}


def spectral_config(kind, **changes):
    return dataclasses.replace(PAPER, kind=kind, **changes)


def naive_dct2_orthonormal(x):
    """Direct O(n^2) summation of the orthonormal type-II cosine transform."""
    n = len(x)
    out = np.empty(n)
    for k in range(n):
        acc = 0.0
        for i in range(n):
            acc += x[i] * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * acc
    return out


class TestPowerSpectrum:
    def test_zero_frame(self):
        np.testing.assert_array_equal(power_spectrum(np.zeros(160), 256), np.zeros(129))

    def test_bin_aligned_cosine_concentrates(self):
        """A cosine at an exact bin frequency puts all energy in that bin."""
        n = 256
        k = 16
        x = np.cos(2 * np.pi * k * np.arange(n) / n)
        spec = power_spectrum(x, n)
        assert np.argmax(spec) == k
        others = np.delete(spec, k)
        assert np.max(others) < 1e-18 * spec[k]

    def test_parseval(self):
        """Spectral energy equals time-domain energy (full-spectrum count).

        The half spectrum is unfolded to the full DFT energy: interior
        bins count twice, dc and Nyquist once.
        """
        rng = np.random.default_rng(30)
        for _ in range(20):
            x = rng.uniform(-1, 1, 160)
            spec = power_spectrum(x, 256)
            full = spec[0] + spec[-1] + 2.0 * np.sum(spec[1:-1])
            time_energy = np.sum(x**2)
            assert full / 256.0 == pytest.approx(time_energy, rel=1e-9)

    def test_frame_longer_than_fft_rejected(self):
        with pytest.raises(ValueError):
            power_spectrum(np.ones(300), 256)


class TestMelScale:
    def test_known_anchor(self):
        assert mel_from_hz(700.0) == pytest.approx(2595.0 * np.log10(2.0))

    def test_roundtrip(self):
        f = np.linspace(0, 4000, 100)
        np.testing.assert_allclose(hz_from_mel(mel_from_hz(f)), f, atol=1e-9)

    def test_monotonic(self):
        f = np.linspace(0, 4000, 1000)
        assert np.all(np.diff(mel_from_hz(f)) > 0)


class TestFilterBank:
    def test_shapes_and_nonnegativity(self):
        for scale in ("mel", "linear"):
            bank = make_filterbank(20, 256, 8000, scale=scale)
            assert bank.shape == (20, 129)
            assert np.all(bank >= 0)
            assert np.all(bank <= 1.0)

    def test_filters_ordered_by_center(self):
        for scale in ("mel", "linear"):
            bank = make_filterbank(20, 256, 8000, scale=scale)
            centers = [np.argmax(bank[j]) for j in range(20)]
            assert centers == sorted(centers)
            assert len(set(centers)) == 20

    def test_neighbors_overlap(self):
        for scale in ("mel", "linear"):
            bank = make_filterbank(20, 256, 8000, scale=scale)
            for j in range(19):
                both = (bank[j] > 0) & (bank[j + 1] > 0)
                assert np.any(both)

    def test_linear_filter_areas_near_equal(self):
        """Flat input: linear-scale filter areas agree within 5%."""
        bank = make_filterbank(20, 256, 8000, scale="linear")
        areas = bank.sum(axis=1)
        assert np.max(areas) / np.min(areas) < 1.05

    def test_mel_filter_areas_grow(self):
        """Mel triangles widen with center frequency, so areas increase."""
        bank = make_filterbank(20, 256, 8000, scale="mel")
        areas = bank.sum(axis=1)
        assert np.all(np.diff(areas) > 0)

    def test_mel_base_widths_match_edge_construction(self):
        """Triangle supports match the mel-spaced edge frequencies they
        were constructed from (independent edge-recomputation oracle)."""
        num_filters, fft_size, rate = 20, 256, 8000
        bank = make_filterbank(num_filters, fft_size, rate, scale="mel")
        edges = hz_from_mel(np.linspace(0.0, mel_from_hz(rate / 2), num_filters + 2))
        bin_freqs = np.arange(fft_size // 2 + 1) * rate / fft_size
        for j in range(num_filters):
            support = np.flatnonzero(bank[j] > 0)
            inside = (bin_freqs > edges[j]) & (bin_freqs < edges[j + 2])
            np.testing.assert_array_equal(support, np.flatnonzero(inside))

    @pytest.mark.parametrize("scale", ["mel", "linear"])
    @pytest.mark.parametrize(
        "num_filters, fft_size, rate", [(20, 256, 8000), (26, 512, 16000), (40, 1024, 8000)]
    )
    def test_weights_equal_per_filter_loop(self, num_filters, fft_size, rate, scale):
        """The broadcast build equals building each triangle on its own, bit for bit."""
        bank = make_filterbank(num_filters, fft_size, rate, scale=scale)
        if scale == "mel":
            edges = hz_from_mel(np.linspace(0.0, mel_from_hz(rate / 2), num_filters + 2))
        else:
            edges = np.linspace(0.0, rate / 2, num_filters + 2)
        bin_freqs = np.arange(fft_size // 2 + 1) * (rate / fft_size)
        for j in range(num_filters):
            lo, center, hi = edges[j], edges[j + 1], edges[j + 2]
            rising = (bin_freqs - lo) / (center - lo)
            falling = (hi - bin_freqs) / (hi - center)
            np.testing.assert_array_equal(
                bank[j], np.clip(np.minimum(rising, falling), 0.0, 1.0)
            )


    def test_cached_and_read_only(self):
        bank = make_filterbank(20, 256, 8000, scale="mel")
        assert make_filterbank(20, 256, 8000, scale="mel") is bank
        assert not bank.flags.writeable
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0

    def test_odd_fft_size(self):
        """An odd FFT size has as many bins as the even size below it; the
        cepstra use the config's size and a filterbank built for it."""
        frames = windowed_frames(np.random.default_rng(40), 4)
        bank = make_filterbank(20, 257, 8000, "mel")
        assert bank.shape == (20, 129)
        got = extract_filterbank_cepstra(frames, spectral_config("mfcc", fft_size=257), 8000)
        expected = cepstra_from_energies(
            filterbank_energies(power_spectrum(frames, 257), bank), 19
        )
        np.testing.assert_array_equal(got, expected)
        even = extract_filterbank_cepstra(frames, spectral_config("mfcc", fft_size=256), 8000)
        assert not np.allclose(even, got)


class TestFilterbankEnergies:
    def test_zero_spectrum_hits_floor(self):
        bank = make_filterbank(20, 256, 8000, "mel")
        energies = filterbank_energies(np.zeros(129), bank)
        np.testing.assert_allclose(energies, np.log(LOG_ENERGY_FLOOR))

    def test_flat_spectrum_gives_log_areas(self):
        """Unit spectrum: each output is the log of that filter's area,
        verified by direct summation of the constructed weights."""
        for scale in ("mel", "linear"):
            bank = make_filterbank(20, 256, 8000, scale=scale)
            energies = filterbank_energies(np.ones(129), bank)
            expected = np.log(np.array([np.sum(bank[j]) for j in range(20)]))
            np.testing.assert_allclose(energies, expected, atol=1e-12)

    def test_log_linearity(self):
        """Scaling the spectrum by alpha adds log(alpha) to every output."""
        rng = np.random.default_rng(31)
        bank = make_filterbank(20, 256, 8000, "mel")
        spec = rng.uniform(0.1, 1.0, 129)
        base = filterbank_energies(spec, bank)
        for alpha in (0.5, 2.0, 100.0):
            shifted = filterbank_energies(alpha * spec, bank)
            np.testing.assert_allclose(shifted, base + np.log(alpha), atol=1e-9)


class TestCepstraFromEnergies:
    def test_constant_energies_zero_cepstra(self):
        """A constant lives entirely in the discarded dc coefficient."""
        np.testing.assert_allclose(cepstra_from_energies(np.full(20, 3.7), 19), np.zeros(19),
                                   atol=1e-12)

    def test_one_hot_matches_naive_dct(self):
        one_hot = np.zeros(20)
        one_hot[0] = 1.0
        got = cepstra_from_energies(one_hot, 19)
        np.testing.assert_allclose(got, naive_dct2_orthonormal(one_hot)[1:], atol=1e-12)

    def test_random_matches_naive_dct(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            e = rng.uniform(-5, 5, 20)
            np.testing.assert_allclose(
                cepstra_from_energies(e, 19), naive_dct2_orthonormal(e)[1:], atol=1e-10
            )

    def test_length_always_19(self):
        rng = np.random.default_rng(33)
        assert cepstra_from_energies(rng.uniform(-1, 1, 20), 19).shape == (19,)

    def test_dc_invariance(self):
        """Adding a constant to all energies leaves the 19 outputs unchanged."""
        rng = np.random.default_rng(34)
        e = rng.uniform(-5, 5, 20)
        base = cepstra_from_energies(e, 19)
        shifted = cepstra_from_energies(e + 123.456, 19)
        np.testing.assert_allclose(shifted, base, atol=1e-12)


class TestLpccFromLp:
    def test_zero_coefficients_zero_cepstra(self):
        np.testing.assert_array_equal(lpcc_from_lp(np.zeros(19), 19), np.zeros(19))

    def test_order_one_log_series(self):
        """For A(z) = 1 + alpha z^-1, the model cepstrum is the series
        of log(1/A): c_n = -(-alpha)^n / n with alternating sign."""
        alpha = 0.6
        c = lpcc_from_lp(np.array([alpha]), num_cepstra=6)
        expected = [-((-1.0) ** (n + 1)) * alpha**n / n for n in range(1, 7)]
        np.testing.assert_allclose(c, expected, atol=1e-12)

    def test_matches_spectral_route(self):
        """Recursion agrees with log-magnitude analysis of 1/A(z).

        Independent route: sample log|1/A| on a dense frequency grid,
        inverse-transform to quefrency, and read cepstra n >= 1 (times 2
        for the one-sided convention).
        """
        rng = np.random.default_rng(35)
        for _ in range(10):
            # build a stable A(z) from reflection values inside (-1, 1)
            a = np.zeros(0)
            for k in rng.uniform(-0.6, 0.6, 8):
                a = np.concatenate((a + k * a[::-1], [k]))
            got = lpcc_from_lp(a, num_cepstra=19)

            n_fft = 4096
            spectrum = np.fft.rfft(np.concatenate(([1.0], a)), n_fft)
            log_mag = -np.log(np.abs(spectrum))
            cepstrum = np.fft.irfft(log_mag, n_fft)
            expected = 2.0 * cepstrum[1:20]
            np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_default_length(self):
        """The paper's 19 cepstra, from an order-1 model."""
        assert lpcc_from_lp(np.array([-0.5]), 19).shape == (19,)


def windowed_frames(rng, num_frames, frame_len=160):
    """Hamming-windowed frames of coloured noise, one row per frame."""
    noise = rng.standard_normal((num_frames, frame_len + 200))
    colored = lfilter([1.0], [1.0, -1.2, 0.8, -0.3, 0.1], noise, axis=1)[:, 200:]
    return colored * hamming_window(frame_len)


class TestExtractFilterbankCepstra:
    @pytest.mark.parametrize("scale", ["mel", "linear"])
    def test_matches_per_frame_composition(self, scale):
        """The frame-matrix route equals power spectrum -> filterbank -> DCT per frame."""
        frames = windowed_frames(np.random.default_rng(36), 40)
        bank = make_filterbank(20, 256, 8000, scale=scale)
        got = extract_filterbank_cepstra(frames, spectral_config(KIND_OF_SCALE[scale]), 8000)
        expected = np.array([
            cepstra_from_energies(filterbank_energies(power_spectrum(f, 256), bank), 19)
            for f in frames
        ])
        assert got.shape == (40, 19)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_zero_frames_kept_at_floor(self):
        """Silent frames are not dropped: their log energies sit at the floor."""
        frames = windowed_frames(np.random.default_rng(37), 6)
        frames[2] = 0.0
        got = extract_filterbank_cepstra(frames, spectral_config("mfcc"), 8000)
        assert got.shape == (6, 19)
        floor = cepstra_from_energies(np.full(20, np.log(LOG_ENERGY_FLOOR)), 19)
        np.testing.assert_allclose(got[2], floor, atol=1e-12)


class TestExtractLpcc:
    @pytest.mark.parametrize("lp_order, num_cepstra", [(19, 19), (8, 12)])
    def test_matches_per_frame_composition(self, lp_order, num_cepstra):
        """The batched solve and recursion equal compute_lp -> lpcc_from_lp per frame."""
        frames = windowed_frames(np.random.default_rng(38), 40)
        cfg = spectral_config("lpcc", lpcc_lp_order=lp_order, num_cepstra=num_cepstra)
        got = extract_lpcc(frames, cfg)
        expected = np.array(
            [lpcc_from_lp(compute_lp(f, lp_order).a, num_cepstra) for f in frames]
        )
        assert got.shape == (40, num_cepstra)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_zero_frames_dropped_in_order(self):
        """Zero frames at the start, middle and end are dropped; the rest keep order."""
        voiced = windowed_frames(np.random.default_rng(39), 5)
        zero = np.zeros(160)
        frames = np.vstack([zero, voiced[0], voiced[1], zero, voiced[2],
                            voiced[3], voiced[4], zero])
        got = extract_lpcc(frames, spectral_config("lpcc"))
        expected = np.array([lpcc_from_lp(compute_lp(f, 19).a, 19) for f in voiced])
        assert got.shape == (5, 19)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(NoUsableFrames):
            extract_lpcc(np.zeros((4, 160)), spectral_config("lpcc"))



@pytest.mark.parametrize("shape", [(160,), (2, 4, 160)])
def test_extractors_reject_non_matrix(shape):
    frames = np.ones(shape)
    with pytest.raises(ValueError, match="2-D"):
        extract_filterbank_cepstra(frames, spectral_config("mfcc"), 8000)
    with pytest.raises(ValueError, match="2-D"):
        extract_lpcc(frames, spectral_config("lpcc"))


def test_extractors_reject_the_other_kind():
    """A config of the other extractor's kind is an error naming that kind,
    not cepstra of a kind nobody asked for."""
    frames = windowed_frames(np.random.default_rng(41), 4)
    with pytest.raises(ValueError, match="got 'lpcc'"):
        extract_filterbank_cepstra(frames, spectral_config("lpcc"), 8000)
    for kind in ("mfcc", "lfcc"):
        with pytest.raises(ValueError, match=f"got '{kind}'"):
            extract_lpcc(frames, spectral_config(kind))
