"""WAV I/O, manifests, and the synthetic speaker corpus."""

import dataclasses
import re
import struct
import warnings
import wave
from pathlib import Path

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

    def test_path_with_a_nul_byte_rejected(self):
        """A path the operating system cannot take is an UnsupportedFormat
        naming it, not a bare ValueError."""
        with pytest.raises(UnsupportedFormat) as exc:
            load_audio("x\0.wav")
        assert str(exc.value) == "x\0.wav: cannot read: embedded null byte"

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

    def test_zero_sample_rate_rejected(self, tmp_path):
        """A header declaring 0 Hz is an UnsupportedFormat naming the file,
        whether or not the caller expects a rate."""
        path = tmp_path / "rate0.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(bytes(200))
        data = bytearray(path.read_bytes())
        data[24:28] = bytes(4)  # the fmt chunk's sample rate
        path.write_bytes(data)
        message = f"^{re.escape(str(path))}: header declares a sample rate of 0 Hz$"
        for expected_rate in (None, 8000):
            with pytest.raises(UnsupportedFormat, match=message):
                load_audio(path, expected_rate=expected_rate)

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

    @pytest.mark.parametrize("rate", [8000, 16000, 44100])
    @pytest.mark.parametrize("length", [0, 1, 801])
    def test_header_is_the_one_wave_writes(self, tmp_path, rate, length):
        """save_audio writes byte for byte what the standard-library wave
        writer writes for the same 16-bit samples."""
        samples = np.random.default_rng(length).uniform(-1.0, 1.0, length)
        ours, ref = tmp_path / "ours.wav", tmp_path / "ref.wav"
        save_audio(ours, AudioSignal(samples=samples, sample_rate=rate))
        with wave.open(str(ref), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(rate)
            ints = np.clip(np.rint(samples * 32768), -32768, 32767).astype("<i2")
            wf.writeframes(ints.tobytes())
        assert ours.read_bytes() == ref.read_bytes()


def riff_file(path, *chunks, riff_size=None):
    """Write a RIFF/WAVE file of ``(name, body)`` or ``(name, body, declared
    size)`` chunks, each odd body followed by a pad byte; the RIFF size
    counts every byte written unless given."""
    body = b"WAVE"
    for name, data, *declared in chunks:
        size = declared[0] if declared else len(data)
        body += name + struct.pack("<I", size) + data + b"\0" * (len(data) % 2)
    size = len(body) if riff_size is None else riff_size
    path.write_bytes(b"RIFF" + struct.pack("<I", size) + body)
    return path


PCM_MONO_8K = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
SAMPLES = np.array([1, -2, 3, 32767, -32768], dtype="<i2")


class TestRiffChunks:
    """load_audio walks the chunks up to ``data``: any other chunk is
    skipped with its pad byte, and each must end within the file and its
    RIFF size."""

    def test_other_chunks_and_pad_bytes_are_skipped(self, tmp_path):
        path = riff_file(
            tmp_path / "x.wav", (b"JUNK", b"abc"), (b"fmt ", PCM_MONO_8K + b"\0\0"),
            (b"LIST", b"INFOx"), (b"data", SAMPLES.tobytes()), (b"LIST", b"", 4096),
        )
        signal = load_audio(path, expected_rate=8000)
        np.testing.assert_array_equal(signal.samples * 32768, SAMPLES)

    @pytest.mark.parametrize("declared, riff_size", [(4096, None), (4, 4 + 8 + 16 + 8 + 2)],
                             ids=["past-the-file", "past-the-riff-size"])
    def test_chunk_past_the_file_or_riff_size(self, tmp_path, declared, riff_size):
        """A LIST chunk that declares more than the file holds, or one that
        the RIFF size cuts short, is an error naming it."""
        path = riff_file(
            tmp_path / "x.wav", (b"fmt ", PCM_MONO_8K), (b"LIST", b"INFO", declared),
            (b"data", SAMPLES.tobytes()), riff_size=riff_size,
        )
        message = "b'LIST' chunk of .* bytes runs past the file or its RIFF size$"
        with pytest.raises(UnsupportedFormat, match=f"^{re.escape(str(path))}: {message}"):
            load_audio(path)

    @pytest.mark.parametrize("chunks, reason", [
        (((b"fmt ", PCM_MONO_8K),), "no data chunk"),
        (((b"data", SAMPLES.tobytes()), (b"fmt ", PCM_MONO_8K)),
         "no complete fmt chunk before the data chunk"),
        (((b"fmt ", PCM_MONO_8K[:14]), (b"data", SAMPLES.tobytes())),
         "no complete fmt chunk before the data chunk"),
        (((b"fmt ", struct.pack("<HHIIHH", 3, 1, 8000, 32000, 4, 32)), (b"data", bytes(8))),
         "expected PCM audio, got format tag 3"),
        (((b"fmt ", struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 12)), (b"data", bytes(8))),
         "expected 16-bit samples, got 12-bit"),
    ], ids=["no-data", "data-before-fmt", "short-fmt", "float", "12-bit"])
    def test_missing_or_unsupported_format(self, tmp_path, chunks, reason):
        path = riff_file(tmp_path / "x.wav", *chunks)
        with pytest.raises(UnsupportedFormat, match=f"^{re.escape(f'{path}: {reason}')}$"):
            load_audio(path)

    def test_not_riff_wave(self, tmp_path):
        path = tmp_path / "x.wav"
        for head in (b"RIFX" + bytes(4) + b"WAVE", b"RIFF" + bytes(4) + b"AVI "):
            path.write_bytes(head + bytes(32))
            with pytest.raises(UnsupportedFormat, match="not a RIFF/WAVE file$"):
                load_audio(path)


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
        """A rule broken across lines names the file."""
        path = tmp_path / "m.tsv"
        path.write_text(
            "a\tu0\tx.wav\ttrain\nb\tu0\ty.wav\ttrain\n", encoding="utf-8"
        )
        message = f"{path}: duplicate utterance id 'u0'"
        with pytest.raises(ManifestError, match=f"^{re.escape(message)}$"):
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
        """A bad entry is named with its file and line number."""
        path = tmp_path / "m.tsv"
        path.write_text("a\tu0\tx.wav\ttrain\na\tu1\ty.wav\tdev\n", encoding="utf-8")
        message = f"{path}:2: unknown split 'dev' (expected train or test)"
        with pytest.raises(ManifestError, match=f"^{re.escape(message)}$"):
            read_manifest(path)

    def test_zero_sample_rate_names_the_file(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("# sample_rate: 0\na\tu0\tx.wav\ttrain\n", encoding="utf-8")
        message = f"{path}: sample_rate must be positive, got 0"
        with pytest.raises(ManifestError, match=f"^{re.escape(message)}$"):
            read_manifest(path)

    @pytest.mark.parametrize("rate", [8000.0, True, "8000"], ids=["float", "bool", "text"])
    def test_sample_rate_must_be_an_int(self, rate):
        entries = (ManifestEntry("a", "u0", Path("x.wav"), "train"),)
        message = f"sample_rate must be an int, got {rate!r}"
        with pytest.raises(ManifestError, match=f"^{re.escape(message)}$"):
            CorpusManifest(entries, rate)

    def test_test_entry_reading_a_train_file_rejected(self, tmp_path):
        """A test path that resolves to a train entry's file, through ``..``
        or a symbolic link, names both utterances; the error names the file."""
        (tmp_path / "sub").mkdir()
        (tmp_path / "x.wav").write_bytes(b"")
        (tmp_path / "link.wav").symlink_to(tmp_path / "x.wav")
        for alias in ("sub/../x.wav", "link.wav"):
            path = tmp_path / "m.tsv"
            path.write_text(f"a\tu0\tx.wav\ttrain\na\tu1\t{alias}\ttest\n", encoding="utf-8")
            message = (f"{path}: test utterance 'u1' reads the file of train utterance 'u0': "
                       f"{tmp_path / alias}")
            with pytest.raises(ManifestError, match=f"^{re.escape(message)}$"):
                read_manifest(path)

    def test_nul_byte_in_path_names_the_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\tu0\tx\0.wav\ttrain\n", encoding="utf-8")
        audio = str(tmp_path / "x\0.wav")
        message = f"{path}:1: path {audio!r} holds a NUL byte"
        with pytest.raises(ManifestError, match=f"^{re.escape(message)}$"):
            read_manifest(path)

    def test_shared_files_within_a_split_accepted(self, tmp_path):
        """Two train entries, or two test entries, may read one file."""
        path = tmp_path / "m.tsv"
        path.write_text(
            "a\tu0\tx.wav\ttrain\nb\tu1\tx.wav\ttrain\n"
            "a\tu2\ty.wav\ttest\nb\tu3\ty.wav\ttest\n", encoding="utf-8"
        )
        assert len(read_manifest(path).entries) == 4

    def test_byte_order_mark_skipped(self, tmp_path):
        """A manifest saved with a UTF-8 byte-order mark keeps its first line
        a comment."""
        path = tmp_path / "m.tsv"
        path.write_text(
            "\ufeff# speaker_id\tutterance_id\tpath\tsplit\na\tu0\tx.wav\ttrain\n",
            encoding="utf-8",
        )
        assert [e.utterance_id for e in read_manifest(path).entries] == ["u0"]


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

    @pytest.mark.parametrize("rate", [8000.0, True], ids=["float", "bool"])
    def test_sample_rate_must_be_an_int_before_any_file(self, tmp_path, rate):
        specs = default_speaker_specs(1)
        message = f"sample_rate must be an int, got {rate!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_synthetic_corpus(specs, 1, 0, 0.1, 0, tmp_path / "c", sample_rate=rate)
        assert not (tmp_path / "c").exists()

    def test_manifest_written_and_readable(self, tmp_path):
        specs = default_speaker_specs(2, seed=4)
        generate_synthetic_corpus(specs, 2, 1, 0.5, seed=4, out_dir=tmp_path / "c")
        manifest = read_manifest(tmp_path / "c" / "manifest.tsv")
        assert len(manifest.entries) == 6
        for entry in manifest.entries:
            assert entry.path.exists()
