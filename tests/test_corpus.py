"""WAV I/O, manifests, and the synthetic speaker corpus."""

import dataclasses
import re
import warnings
import wave

import numpy as np
import pytest
from scipy.signal import find_peaks

from sidkit.audio_io import load_audio, save_audio
from sidkit.corpus import (
    CorpusManifest,
    ManifestEntry,
    SyntheticSpeakerSpec,
    default_speaker_specs,
    generate_synthetic_corpus,
    read_manifest,
    synthesize_utterance,
    write_manifest,
)
from sidkit.errors import (
    ManifestError,
    SampleRateMismatch,
    UnstableFilter,
    UnsupportedFormat,
)
from sidkit.frontend import AudioSignal
from sidkit.lpc import compute_lp, inverse_filter

import oracles


class TestAudioIo:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(90)
        samples = np.round(rng.uniform(-0.9, 0.9, 8000) * 32768) / 32768
        path = tmp_path / "x.wav"
        save_audio(path, AudioSignal(samples=samples, sample_rate=8000))
        back = load_audio(path)
        assert back.sample_rate == 8000
        np.testing.assert_array_equal(back.samples, samples)

    def test_length_and_duration(self, tmp_path):
        path = tmp_path / "one_second.wav"
        save_audio(path, AudioSignal(samples=np.zeros(8000), sample_rate=8000))
        sig = load_audio(path)
        assert sig.samples.size == 8000
        assert sig.samples.size / sig.sample_rate == pytest.approx(1.0)

    def test_full_scale_sample_value(self, tmp_path):
        """Integer 32767 decodes to 32767/32768."""
        path = tmp_path / "full.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(np.array([32767, -32768], dtype="<i2").tobytes())
        sig = load_audio(path)
        assert sig.samples[0] == pytest.approx(0.999969, abs=1e-5)
        assert sig.samples[1] == -1.0

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(np.zeros(200, dtype="<i2").tobytes())
        with pytest.raises(UnsupportedFormat):
            load_audio(path)

    def test_eight_bit_rejected(self, tmp_path):
        path = tmp_path / "pcm8.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(8000)
            wf.writeframes(bytes(100))
        with pytest.raises(UnsupportedFormat):
            load_audio(path)

    def test_not_a_wav_rejected(self, tmp_path):
        path = tmp_path / "garbage.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(UnsupportedFormat):
            load_audio(path)

    def test_unreadable_file_rejected(self, tmp_path):
        """A missing file, a directory and an empty file name the path."""
        (tmp_path / "empty.wav").write_bytes(b"")
        for path, reason in (
            (tmp_path / "missing.wav", "cannot read"),
            (tmp_path, "cannot read"),
            (tmp_path / "empty.wav", "truncated WAV header"),
        ):
            with pytest.raises(UnsupportedFormat, match=re.escape(f"{path}: {reason}")):
                load_audio(path)

    def test_truncated_data_rejected(self, tmp_path):
        """A file cut short at an even byte count names the file once and
        both sample counts; the odd cut keeps its own message."""
        whole = tmp_path / "whole.wav"
        save_audio(whole, AudioSignal(samples=np.zeros(16000), sample_rate=8000))
        data = whole.read_bytes()
        assert len(data) == 32044
        cut = tmp_path / "cut.wav"
        cut.write_bytes(data[:8044])
        with pytest.raises(UnsupportedFormat) as exc:
            load_audio(cut)
        assert str(exc.value) == (
            f"{cut}: truncated data chunk: header announces 16000 samples, file holds 4000"
        )
        cut.write_bytes(data[:8043])
        odd = re.escape(f"{cut}: data chunk ends mid-sample (7999 bytes)")
        with pytest.raises(UnsupportedFormat, match=odd):
            load_audio(cut)

    def test_rate_mismatch(self, tmp_path):
        path = tmp_path / "x.wav"
        save_audio(path, AudioSignal(samples=np.zeros(100), sample_rate=16000))
        with pytest.raises(SampleRateMismatch):
            load_audio(path, expected_rate=8000)

    def test_out_of_range_samples_clipped(self, tmp_path):
        path = tmp_path / "hot.wav"
        save_audio(path, AudioSignal(samples=np.array([1.5, -1.5]), sample_rate=8000))
        sig = load_audio(path)
        assert sig.samples[0] == pytest.approx(32767 / 32768)
        assert sig.samples[1] == -1.0


class TestManifest:
    def test_roundtrip(self, tmp_path):
        entries = (
            ManifestEntry("a", "a_0", tmp_path / "a" / "a_0.wav", "train"),
            ManifestEntry("a", "a_1", tmp_path / "a" / "a_1.wav", "test"),
        )
        manifest = CorpusManifest(entries=entries, sample_rate=8000)
        path = tmp_path / "manifest.tsv"
        write_manifest(manifest, path)
        back = read_manifest(path)
        assert back.sample_rate == 8000
        assert [e.utterance_id for e in back.entries] == ["a_0", "a_1"]
        assert back.entries[0].path == tmp_path / "a" / "a_0.wav"
        assert back.train_entries[0].split == "train"

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(
            "# a comment\n\n# sample_rate: 16000\na\tu0\tx.wav\ttrain\n",
            encoding="utf-8",
        )
        manifest = read_manifest(path)
        assert manifest.sample_rate == 16000
        assert manifest.entries[0].path == tmp_path / "x.wav"

    def test_default_sample_rate(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\tu0\tx.wav\ttrain\n", encoding="utf-8")
        assert read_manifest(path).sample_rate == 8000

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\tu0\tx.wav\n", encoding="utf-8")
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_duplicate_utterance_ids_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(
            "a\tu0\tx.wav\ttrain\nb\tu0\ty.wav\ttrain\n", encoding="utf-8"
        )
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_open_set_rejected(self, tmp_path):
        """A test-split speaker with no train data violates the
        closed-set requirement."""
        path = tmp_path / "m.tsv"
        path.write_text(
            "a\tu0\tx.wav\ttrain\nb\tu1\ty.wav\ttest\n", encoding="utf-8"
        )
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_unknown_split_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\tu0\tx.wav\tdev\n", encoding="utf-8")
        with pytest.raises(ManifestError):
            read_manifest(path)


class TestSyntheticSpeakers:
    def test_unstable_filter_rejected(self):
        with pytest.raises(UnstableFilter):
            SyntheticSpeakerSpec(
                speaker_id="bad", filter_coeffs=np.array([-2.5]), pitch_period=50
            )

    def test_short_pitch_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpeakerSpec(
                speaker_id="bad", filter_coeffs=np.array([-0.5]), pitch_period=10
            )

    def test_default_specs_distinct_and_stable(self):
        specs = default_speaker_specs(10, seed=0)
        assert len(specs) == 10
        periods = [s.pitch_period for s in specs]
        assert len(set(periods)) == 10
        assert min(np.diff(sorted(periods))) >= 5
        assert min(periods) >= 40 and max(periods) <= 100
        for i in range(10):
            for j in range(i + 1, 10):
                dist = np.linalg.norm(specs[i].filter_coeffs - specs[j].filter_coeffs)
                assert dist > 0.1

    def test_many_default_specs_raise_no_warning(self):
        """The generator's own pitch spacing is not flagged at large S."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            specs = default_speaker_specs(64, seed=0)
        assert len({s.pitch_period for s in specs}) > 1

    def test_specs_deterministic(self):
        a = default_speaker_specs(5, seed=3)
        b = default_speaker_specs(5, seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.filter_coeffs, y.filter_coeffs)
            assert x.pitch_period == y.pitch_period

    def test_utterance_peak_bounded(self):
        spec = default_speaker_specs(3, seed=1)[0]
        samples = synthesize_utterance(spec, 16000, np.random.default_rng(5))
        assert np.max(np.abs(samples)) == pytest.approx(0.7)

    @pytest.mark.parametrize("jitter", [0.0, 0.02, 0.999])
    @pytest.mark.parametrize("period", [20, 21, 40, 57, 100])
    def test_utterance_equals_the_pulse_by_pulse_loop(self, period, jitter):
        """The array-built pulse train gives the same bytes as placing one
        pulse per jitter draw, down to lengths shorter than one period."""
        base = default_speaker_specs(1, seed=7)[0]
        spec = dataclasses.replace(base, pitch_period=period, jitter=jitter)
        for num_samples in (1, period - 1, period + 1, 4001, 16000):
            got = synthesize_utterance(spec, num_samples, np.random.default_rng([period, 1]))
            want = oracles.synthesize_utterance(
                spec, num_samples, np.random.default_rng([period, 1])
            )
            assert got.tobytes() == want.tobytes()

    def test_near_unit_jitter_clamps_spacing_to_two(self):
        """With jitter 0.999 at period 20 some draws round to a spacing under
        2; both forms clamp it, so the pulses (no filter, no noise) match."""
        spec = SyntheticSpeakerSpec("s", np.zeros(0), pitch_period=20, jitter=0.999,
                                    noise_floor=0.0)
        got = synthesize_utterance(spec, 16000, np.random.default_rng(11))
        want = oracles.synthesize_utterance(spec, 16000, np.random.default_rng(11))
        assert got.tobytes() == want.tobytes()
        rng = np.random.default_rng(11)
        rng.standard_normal(16000)
        rng.integers(0, 20)
        assert np.any(np.rint(20 * (1.0 + 0.999 * rng.uniform(-1.0, 1.0, 100))) < 2)
        assert np.diff(np.flatnonzero(got)).min() == 2

    def test_residual_pulse_spacing_matches_pitch(self):
        """Inverse filtering a synthetic utterance at the matching order
        exposes the excitation pulses: consecutive residual peaks sit one
        jittered pitch period apart (generator truth)."""
        for spec in default_speaker_specs(4, seed=2):
            samples = synthesize_utterance(spec, 16000, np.random.default_rng(6))
            lp = compute_lp(samples, len(spec.filter_coeffs))
            residual = inverse_filter(samples, lp)
            peaks, _ = find_peaks(
                np.abs(residual),
                height=0.3 * np.max(np.abs(residual)),
                distance=spec.pitch_period // 2,
            )
            spacings = np.diff(peaks)
            assert spacings.size > 100
            max_dev = spec.jitter * spec.pitch_period + 1.0
            assert np.all(np.abs(spacings - spec.pitch_period) <= max_dev)


class TestGenerateSyntheticCorpus:
    def test_counts(self, tmp_path):
        specs = default_speaker_specs(10, seed=0)
        manifest = generate_synthetic_corpus(
            specs, train_utts=8, test_utts=4, utt_seconds=0.5, seed=0,
            out_dir=tmp_path / "corpus",
        )
        assert len(manifest.entries) == 120
        assert len(manifest.train_entries) == 80
        assert len(manifest.test_entries) == 40
        assert len(list((tmp_path / "corpus").rglob("*.wav"))) == 120

    def test_same_seed_bit_identical(self, tmp_path):
        specs = default_speaker_specs(2, seed=9)
        m1 = generate_synthetic_corpus(specs, 2, 1, 0.5, seed=9,
                                       out_dir=tmp_path / "one")
        m2 = generate_synthetic_corpus(specs, 2, 1, 0.5, seed=9,
                                       out_dir=tmp_path / "two")
        for e1, e2 in zip(m1.entries, m2.entries):
            assert e1.utterance_id == e2.utterance_id
            assert e1.path.read_bytes() == e2.path.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        specs = default_speaker_specs(1, seed=9)
        m1 = generate_synthetic_corpus(specs, 1, 0, 0.5, seed=1,
                                       out_dir=tmp_path / "one")
        m2 = generate_synthetic_corpus(specs, 1, 0, 0.5, seed=2,
                                       out_dir=tmp_path / "two")
        assert m1.entries[0].path.read_bytes() != m2.entries[0].path.read_bytes()

    def test_manifest_written_and_readable(self, tmp_path):
        specs = default_speaker_specs(2, seed=4)
        generate_synthetic_corpus(specs, 2, 1, 0.5, seed=4, out_dir=tmp_path / "c")
        manifest = read_manifest(tmp_path / "c" / "manifest.tsv")
        assert len(manifest.entries) == 6
        for entry in manifest.entries:
            assert entry.path.exists()
