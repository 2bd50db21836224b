"""Spans and counters around sidkit's layer functions, from outside the package.

Every patch targets the name *where the caller binds it*: ``commands.py``
imports ``load_audio``, ``preprocess``, the extractors, ``lbg_init``,
``em_train`` and ``score_utterance`` at import time, so wrapping the
defining module would record nothing.  Layer modules are resolved through
``importlib`` because ``sidkit.identify`` (the attribute) is the re-exported
*function*, not the module.  Nothing under ``src/`` is modified; the
patches are undone when :meth:`Tracer.installed` exits.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

NO_PARENT = -1


class Tracer:
    """In-memory spans ``[name, parent index, start, end]`` plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.unpatched: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        record = [name, self._stack[-1] if self._stack else NO_PARENT, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        record[2] = time.perf_counter()
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count`` sees (counts, args, result)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every layer boundary in :data:`PATCHES`; restore on exit."""
        saved = []
        try:
            for module_name, attr, span_name, count in PATCHES:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = owner.__dict__.get(attr)
                if original is None:
                    self.unpatched.append(f"{module_name}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(span_name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# Counter hooks read shapes only, so they add little to the caller's self time.

def _count_load_audio(c, args, signal):
    c["audio_io.bytes_read"] += 2 * signal.samples.size  # PCM16 payload


def _count_preprocess(c, args, frames):
    c["frontend.frames_out"] += len(frames)


def _count_vad(c, args, voiced):
    signal, cfg = args[0], args[1]
    c["vad.blocks_in"] += len(signal) // cfg.frame_len
    c["vad.blocks_kept"] += len(voiced) // cfg.frame_len


def _count_residual(c, args, features):
    c["residual_moments.frames_in"] += len(args[0])
    c["residual_moments.vectors_out"] += len(features.vectors)
    c["residual_moments.skipped_frames"] += features.skipped_frames


def _count_spectral(c, args, matrix):
    c["spectral.frames_in"] += len(args[0])
    c["spectral.skipped_frames"] += len(args[0]) - matrix.shape[0]


def _count_lbg(c, args, model):
    c["gmm.train_vectors"] += args[0].shape[0]


def _count_em(c, args, model):
    trace = model.em_log_likelihoods
    c["gmm.em_passes"] += len(trace) - 1
    c["gmm.em_ll_gain"] += trace[-1] - trace[0]
    c["gmm.em_vectors"] += args[0].shape[0]


def _count_scoring(c, args, ll):
    c["gmm.vector_components"] += ll.shape[0] * args[1].num_components


def _count_score_utterance(c, args, scores):
    speakers = len(scores.scores)
    c["identify.speaker_utts"] += speakers
    c["identify.speaker_frames_scored"] += speakers * (
        scores.num_spectral_frames + scores.num_residual_frames
    )


def _model_bytes(model) -> int:
    """float64 parameter payload of one model (weights, means, variances)."""
    return 8 * model.num_components * (1 + 2 * model.dim)


def _count_save(c, args, _):
    c["store.bytes_written"] += _model_bytes(args[3])


def _count_load(c, args, model):
    c["store.bytes_read"] += _model_bytes(model)


# (module, attribute where the caller binds it, span name, counter hook)
PATCHES = (
    ("sidkit.commands", "train_command", "commands.train_command", None),
    ("sidkit.commands", "evaluate_command", "commands.evaluate_command", None),
    ("sidkit.commands", "identify_command", "commands.identify_command", None),
    ("sidkit.commands", "load_audio", "audio_io.load_audio", _count_load_audio),
    ("sidkit.commands", "preprocess", "frontend.preprocess", _count_preprocess),
    ("sidkit.frontend", "remove_silence", "frontend.remove_silence", _count_vad),
    ("sidkit.commands", "extract_filterbank_cepstra", "spectral.extract", _count_spectral),
    ("sidkit.commands", "extract_lpcc", "spectral.extract", _count_spectral),
    ("sidkit.commands", "extract_residual_moments", "residual_moments.extract", _count_residual),
    ("sidkit.residual_moments", "compute_lp", "lpc.compute_lp", None),
    ("sidkit.spectral", "compute_lp", "lpc.compute_lp", None),
    ("sidkit.commands", "lbg_init", "gmm.lbg_init", _count_lbg),
    ("sidkit.commands", "em_train", "gmm.em_train", _count_em),
    ("sidkit.identify", "gmm_log_likelihoods", "gmm.gmm_log_likelihoods", _count_scoring),
    ("sidkit.commands", "score_utterance", "identify.score_utterance", _count_score_utterance),
    ("sidkit.store", "ModelStore.save", "store.save", _count_save),
    ("sidkit.store", "ModelStore.load", "store.load", _count_load),
)

# Spans each workload must enter: the layers whose cost that workload exists to
# expose.  A layer that stops being reached fails the traced run instead of
# reading 0.
# lpc.compute_lp is expected once per frame from the residual-moment and LPCC
# extractors; a batched LP front end that stops calling it must restate this.
EXPECTED_SPANS = {
    "enroll": (
        "corpus.generate", "lpc.compute_lp", "residual_moments.extract",
        "spectral.extract", "gmm.lbg_init", "gmm.em_train",
    ),
    "wide": (
        "corpus.generate", "gmm.lbg_init", "gmm.em_train", "gmm.gmm_log_likelihoods",
        "identify.score_utterance", "store.save", "commands.evaluate_command",
    ),
    "query": (
        "corpus.generate", "lpc.compute_lp", "residual_moments.extract",
        "spectral.extract", "gmm.gmm_log_likelihoods", "identify.score_utterance",
        "store.load",
    ),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_totals(spans) -> tuple[dict, dict, dict]:
    """Per span name: number of calls, busy seconds, self seconds."""
    covered = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent != NO_PARENT:
            covered[parent] += end - start
    calls, busy, own = defaultdict(int), defaultdict(float), defaultdict(float)
    for (name, _, start, end), children in zip(spans, covered):
        calls[name] += 1
        busy[name] += end - start
        own[name] += end - start - children
    return calls, busy, own


def missing_spans(workload: str, calls: dict) -> list[str]:
    return [name for name in EXPECTED_SPANS[workload] if calls.get(name, 0) < 1]


def layer_metrics(tracer: Tracer, traced_rounds: int, setups: int, overhead: float) -> dict:
    """Per-layer metrics over the traced rounds and set-ups, per traced round
    (corpus: per set-up)."""
    calls, busy, own = span_totals(tracer.spans)
    c = tracer.counts
    n = max(traced_rounds, 1)
    return {
        "audio_io.load_audio.calls": calls["audio_io.load_audio"] / n,
        "audio_io.load_audio.busy_s": busy["audio_io.load_audio"] / n,
        "audio_io.bytes_read": c["audio_io.bytes_read"] / n,
        "frontend.preprocess.calls": calls["frontend.preprocess"] / n,
        "frontend.preprocess.busy_s": busy["frontend.preprocess"] / n,
        "frontend.frames_out": c["frontend.frames_out"] / n,
        "frontend.vad_kept_frac": _ratio(c["vad.blocks_kept"], c["vad.blocks_in"]),
        "lpc.compute_lp.calls": calls["lpc.compute_lp"] / n,
        "lpc.compute_lp.busy_s": busy["lpc.compute_lp"] / n,
        "residual_moments.extract.busy_s": busy["residual_moments.extract"] / n,
        "residual_moments.extract.self_s": own["residual_moments.extract"] / n,
        "residual_moments.extract.frames_in": c["residual_moments.frames_in"] / n,
        "residual_moments.extract.us_per_frame": 1e6 * _ratio(
            busy["residual_moments.extract"], c["residual_moments.frames_in"]
        ),
        "residual_moments.extract.skipped_frames": c["residual_moments.skipped_frames"] / n,
        "residual_moments.extract.useful_frac": _ratio(
            c["residual_moments.vectors_out"], c["residual_moments.frames_in"]
        ),
        "spectral.extract.busy_s": busy["spectral.extract"] / n,
        "spectral.extract.frames_in": c["spectral.frames_in"] / n,
        "spectral.extract.us_per_frame": 1e6 * _ratio(
            busy["spectral.extract"], c["spectral.frames_in"]
        ),
        "spectral.extract.skipped_frames": c["spectral.skipped_frames"] / n,
        "gmm.lbg_init.calls": calls["gmm.lbg_init"] / n,
        "gmm.lbg_init.busy_s": busy["gmm.lbg_init"] / n,
        "gmm.em_train.busy_s": busy["gmm.em_train"] / n,
        "gmm.train_vectors": c["gmm.train_vectors"] / n,
        "gmm.em_passes": c["gmm.em_passes"] / n,
        "gmm.em_ll_gain_per_vector": _ratio(c["gmm.em_ll_gain"], c["gmm.em_vectors"]),
        "gmm.gmm_log_likelihoods.calls": calls["gmm.gmm_log_likelihoods"] / n,
        "gmm.gmm_log_likelihoods.busy_s": busy["gmm.gmm_log_likelihoods"] / n,
        "gmm.ns_per_vector_component": 1e9 * _ratio(
            busy["gmm.gmm_log_likelihoods"], c["gmm.vector_components"]
        ),
        "identify.score_utterance.calls": calls["identify.score_utterance"] / n,
        "identify.score_utterance.busy_s": busy["identify.score_utterance"] / n,
        "identify.self_s": own["identify.score_utterance"] / n,
        "identify.speaker_frames_scored": c["identify.speaker_frames_scored"] / n,
        "identify.us_per_speaker_utt": 1e6 * _ratio(
            busy["identify.score_utterance"], c["identify.speaker_utts"]
        ),
        "store.save.calls": calls["store.save"] / n,
        "store.save.busy_s": busy["store.save"] / n,
        "store.save.ms_per_call": 1e3 * _ratio(busy["store.save"], calls["store.save"]),
        "store.bytes_written": c["store.bytes_written"] / n,
        "store.load.calls": calls["store.load"] / n,
        "store.load.busy_s": busy["store.load"] / n,
        "store.bytes_read": c["store.bytes_read"] / n,
        "commands.train_command.self_s": own["commands.train_command"] / n,
        "commands.evaluate_command.self_s": own["commands.evaluate_command"] / n,
        "commands.identify_command.self_s": own["commands.identify_command"] / n,
        "corpus.generate.busy_s": busy["corpus.generate"] / max(setups, 1),
        "trace.overhead_frac": overhead,
    }
