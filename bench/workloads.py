"""The three workloads, their measured rounds and the checks on their outputs.

All workloads are closed loops with one caller.  Entry points are called
with library defaults (no ``jobs=``) through ``sidkit.commands`` so the
tracer's patches apply to them.

A round runs the workload once as a user would: ``train_command`` per
group of speakers into a store that is fresh at the start of the round,
then ``sweeps`` passes of ``identify_command`` over the queries, split
around one ``evaluate_command`` over the whole test split (an odd pass
goes before it).  On ``query`` the speakers are enrolled during set-up and
a round is one sweep.  Set-ups and rounds alternate.

Rates are total work over the total time of every repeat, and identify
p50 and p90 are over every call.  On a shared 2-vCPU host the same call was
measured to run about 1.6x slower for stretches of seconds to minutes;
repeats spread over the run average such stretches, though no statistic of
one run can undo a stretch that covers all of it.  (Keeping each unit's
best repeat instead was tried: it spread more in two of three ten-seed
checks.)
"""

from __future__ import annotations

import hashlib
import importlib
import resource
import shutil
import statistics
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sidkit.config import ToolkitConfig
from sidkit.corpus import CorpusManifest, ManifestEntry, default_speaker_specs
from sidkit.errors import SidkitError
from sidkit.frontend import AudioSignal

from tracing import Tracer, layer_metrics, missing_spans, span_totals

commands = importlib.import_module("sidkit.commands")
corpus_mod = importlib.import_module("sidkit.corpus")
audio_io = importlib.import_module("sidkit.audio_io")
identify_mod = importlib.import_module("sidkit.identify")

SAMPLE_RATE = 8000
SETUPS = 3  # set-up is repeated and its median reported
# The synthetic voices are fixed; --seed draws their recordings, so PIA moves
# by test-set sampling only and not by which voices happen to be drawn.
PANEL_SEED = 0


@dataclass(frozen=True)
class Scale:
    speakers: int
    train_utts: int
    train_seconds: float
    test_utts: int  # per speaker
    test_seconds: float


@dataclass(frozen=True)
class Workload:
    name: str
    scale: Scale
    train_group: int  # speakers per train_command call
    query_step: int  # every query_step-th test utterance is an identify query
    sweeps: int  # identify_command calls per query in one round
    rounds: int  # rounds an untraced run measures, unless they would take 1.75x --seconds
    enrol_in_setup: bool  # query: models are trained once per set-up, not per round


WORKLOADS = {
    # Front end and GMM training dominate; scoring and the store barely show.
    "enroll": Workload("enroll", Scale(8, 8, 2.0, 2, 2.0), 1, 1, 4, 2, False),
    # Many speakers, short tests: scoring is S-heavy and the store takes
    # 2 S writes; residual PIA is not saturated, so fusion regressions show.
    # Every 4th test is a query: 32 queries x 4 repeats give 128 calls.
    "wide": Workload("wide", Scale(64, 1, 2.0, 2, 0.5), 4, 4, 2, 2, False),
    # Interactive: each identify_command reloads every model, runs the front
    # end and scores all speakers; per-call fixed costs show only here.
    "query": Workload("query", Scale(32, 1, 2.0, 4, 1.0), 4, 1, 1, 3, True),
}

SMOKE_WORKLOADS = {
    "enroll": Workload("enroll", Scale(3, 2, 1.0, 1, 0.5), 1, 1, 2, 1, False),
    "wide": Workload("wide", Scale(6, 1, 1.0, 1, 0.25), 2, 2, 2, 1, False),
    "query": Workload("query", Scale(4, 1, 1.0, 2, 0.25), 2, 1, 1, 1, True),
}


@dataclass
class Corpus:
    manifest: CorpusManifest
    tests: list[ManifestEntry]
    train_audio_s: float
    enrolled: frozenset[str]


def build_corpus(scale: Scale, seed: int, out_dir: Path) -> Corpus:
    """Train audio from seed 2s, test audio from seed 2s+1: never the same stream."""
    with warnings.catch_warnings():
        # Closely spaced pitch periods at large S are intended here.
        warnings.simplefilter("ignore", UserWarning)
        specs = default_speaker_specs(scale.speakers, seed=PANEL_SEED)
    train = corpus_mod.generate_synthetic_corpus(
        specs, scale.train_utts, 0, scale.train_seconds, 2 * seed, out_dir / "train",
        sample_rate=SAMPLE_RATE,
    )
    num_samples = int(round(scale.test_seconds * SAMPLE_RATE))
    tests = []
    for spk_idx, spec in enumerate(specs):
        for utt_idx in range(scale.test_utts):
            rng = np.random.default_rng([2 * seed + 1, spk_idx, utt_idx])
            samples = corpus_mod.synthesize_utterance(spec, num_samples, rng)
            utt_id = f"{spec.speaker_id}_t{utt_idx:03d}"
            path = out_dir / "test" / spec.speaker_id / f"{utt_id}.wav"
            audio_io.save_audio(path, AudioSignal(samples, SAMPLE_RATE))
            tests.append(ManifestEntry(spec.speaker_id, utt_id, path, "test"))
    manifest = CorpusManifest(train.entries + tuple(tests), sample_rate=SAMPLE_RATE)
    return Corpus(
        manifest=manifest,
        tests=tests,
        train_audio_s=len(train.entries) * scale.train_seconds,
        enrolled=frozenset(s.speaker_id for s in specs),
    )


def wav_digests(manifest: CorpusManifest) -> dict[str, str]:
    """utterance id -> SHA-256 of its WAV bytes."""
    return {e.utterance_id: hashlib.sha256(Path(e.path).read_bytes()).hexdigest()
            for e in manifest.entries}


def shared_wavs(manifest: CorpusManifest, digests: dict[str, str]) -> list[str]:
    """Test utterances whose WAV bytes equal some train utterance's."""
    train = {digests[e.utterance_id] for e in manifest.train_entries}
    return [e.utterance_id for e in manifest.test_entries if digests[e.utterance_id] in train]


def train_groups(workload: Workload, corpus: Corpus) -> list[CorpusManifest]:
    """The train split cut into train_command calls of ``train_group`` speakers."""
    speakers = sorted(corpus.enrolled)
    train = corpus.manifest.train_entries
    groups = []
    for i in range(0, len(speakers), workload.train_group):
        members = set(speakers[i : i + workload.train_group])
        groups.append(CorpusManifest(
            tuple(e for e in train if e.speaker_id in members), SAMPLE_RATE
        ))
    return groups


def report_digest(evaluation) -> str:
    """SHA-256 of an evaluation's rendered report and records."""
    text = commands.render_report(evaluation) + commands.render_records(evaluation)
    return hashlib.sha256(text.encode()).hexdigest()


def warm_up(seed: int, work_dir: Path) -> str:
    """One tiny train/evaluate/identify so lazy imports and caches are filled.

    Returns the digest of its report, which must be the same in every set-up.
    """
    tiny = build_corpus(Scale(2, 1, 1.0, 1, 0.5), seed, work_dir / "corpus")
    store = commands.train_command(tiny.manifest, ToolkitConfig(), work_dir / "store")
    evaluation = commands.evaluate_command(tiny.manifest, store)
    commands.identify_command(tiny.tests[0].path, store)
    return report_digest(evaluation)


def enrol(groups: list[CorpusManifest], store_dir: Path) -> tuple[object, list[float]]:
    """train_command per group into one store; returns the store and each call's time."""
    cfg = ToolkitConfig()
    store, times = None, []
    for group in groups:
        start = time.perf_counter()
        store = commands.train_command(group, cfg, store_dir)
        times.append(time.perf_counter() - start)
    return store, times


@dataclass
class SetUp:
    corpus: Corpus
    groups: list[CorpusManifest]
    store: object | None
    wall_s: float
    train_s: list[float]  # per train group, when enrolment is part of set-up
    warm_digest: str


def set_up(workload: Workload, seed: int, work_dir: Path, tracer: Tracer | None) -> SetUp:
    shutil.rmtree(work_dir, ignore_errors=True)
    start = time.perf_counter()
    with tracer.span("corpus.generate") if tracer else nullcontext():
        corpus = build_corpus(workload.scale, seed, work_dir / "corpus")
    groups = train_groups(workload, corpus)
    warm_digest = warm_up(seed, work_dir / "warm")
    store, train_s = None, []
    if workload.enrol_in_setup:
        store, train_s = enrol(groups, work_dir / "store")
    return SetUp(corpus, groups, store, time.perf_counter() - start, train_s, warm_digest)


def pia(decisions) -> float:
    """Percentage of (utterance, true, decided) triples decided correctly."""
    return 100.0 * sum(t == d for _, t, d in decisions) / len(decisions)


STREAMS = (("pia_fused", "fused"), ("pia_spectral", "spectral_only"),
           ("pia_residual", "residual_only"))


def check_decisions(decisions: dict[str, list], corpus: Corpus) -> list[str]:
    """Every test utterance decided once per system, with its true id, by an enrolled id."""
    expected = {e.utterance_id: e.speaker_id for e in corpus.tests}
    problems = []
    for label, triples in decisions.items():
        if sorted(u for u, _, _ in triples) != sorted(expected):
            problems.append(f"{label}: decisions do not cover the test split once each")
        for utt, true_id, decided in triples:
            if expected.get(utt) != true_id:
                problems.append(f"{label} {utt}: true id {true_id!r} is not the manifest's")
            if decided not in corpus.enrolled:
                problems.append(f"{label} {utt}: decided {decided!r} is not enrolled")
    return problems


def identify_sweeps(queries: list, corpus: Corpus, store, sweeps: int
                    ) -> tuple[list[float], dict, list[str]]:
    """``sweeps`` passes of identify_command over ``queries``.

    Returns every call's latency in ms, the first sweep's decision triples
    per system, and the problems found (bad rankings, sweeps disagreeing).
    """
    latencies, calls, problems = [], [], []
    for _ in range(sweeps):
        for entry in queries:
            start = time.perf_counter()
            result = commands.identify_command(entry.path, store)
            latencies.append(1e3 * (time.perf_counter() - start))
            spectral = identify_mod.identify(identify_mod.with_eta(result.scores, 1.0))
            residual = identify_mod.identify(identify_mod.with_eta(result.scores, 0.0))
            if sorted(result.ranking) != sorted(corpus.enrolled) or \
                    result.ranking[0] != result.decided_id:
                problems.append(f"query {entry.utterance_id}: ranking is not a permutation "
                                "of the enrolled speakers led by the decision")
            calls.append((entry.utterance_id, entry.speaker_id, result.decided_id,
                          spectral, residual))
    first = calls[: len(queries)]
    if any(call != first[i % len(first)] for i, call in enumerate(calls)):
        problems.append("repeated identify_command calls on one utterance gave different decisions")
    decisions = {name: [(u, t, d[i]) for u, t, *d in first]
                 for i, (name, _) in enumerate(STREAMS)}
    return latencies, decisions, problems


@dataclass
class Round:
    wall_s: float
    attempted: int
    train_s: list[float]  # per train group
    eval_s: list[float]  # the evaluate_command call
    identify_ms: list[float]  # every identify_command call, sweep after sweep
    pia: dict[str, float]
    fingerprint: tuple
    problems: list[str]


def batch_round(workload: Workload, corpus: Corpus, groups: list, queries: list,
                store_dir: Path) -> Round:
    """Enrol every group into a fresh store, then identify sweeps around one evaluation.

    Splitting the sweeps puts a query's repeats an evaluation apart in time.
    """
    shutil.rmtree(store_dir, ignore_errors=True)
    start = time.perf_counter()
    store, train_s = enrol(groups, store_dir)
    after = workload.sweeps // 2
    latencies, identified, problems = identify_sweeps(queries, corpus, store,
                                                      workload.sweeps - after)
    t = time.perf_counter()
    evaluation = commands.evaluate_command(corpus.manifest, store)
    eval_s = time.perf_counter() - t
    if after:
        more, again, bad = identify_sweeps(queries, corpus, store, after)
        latencies += more
        problems += bad
        if again != identified:
            problems.append("identify_command decided differently after evaluate_command")
    wall = time.perf_counter() - start

    decisions = {name: list(getattr(evaluation, attr).decisions) for name, attr in STREAMS}
    problems += check_decisions(decisions, corpus)
    for name, attr in STREAMS:
        report = getattr(evaluation, attr)
        if pia(report.decisions) != report.pia:
            problems.append(f"{name}: evaluate_command PIA {report.pia} != recomputed")
        asked = {u for u, _, _ in identified[name]}
        if sorted(identified[name]) != sorted(d for d in report.decisions if d[0] in asked):
            problems.append(f"{name}: identify_command and evaluate_command decide differently")
    return Round(
        wall_s=wall,
        attempted=len(corpus.enrolled) + len(corpus.tests) + len(latencies),
        train_s=train_s,
        eval_s=[eval_s],
        identify_ms=latencies,
        pia={name: pia(triples) for name, triples in decisions.items()},
        fingerprint=(tuple(tuple(d) for d in decisions.values()), report_digest(evaluation)),
        problems=problems,
    )


def query_round(workload: Workload, corpus: Corpus, store) -> Round:
    """identify_command sweeps over every test utterance against the set-up's store."""
    start = time.perf_counter()
    latencies, decisions, problems = identify_sweeps(corpus.tests, corpus, store,
                                                     workload.sweeps)
    problems += check_decisions(decisions, corpus)
    return Round(
        wall_s=time.perf_counter() - start,
        attempted=len(latencies),
        train_s=[],
        eval_s=[],
        identify_ms=latencies,
        pia={name: identify_mod.evaluate(triples).pia for name, triples in decisions.items()},
        fingerprint=tuple(tuple(d) for d in decisions.values()),
        problems=problems,
    )


def total(rounds: list, attr: str) -> float:
    """Seconds summed over every unit of every round (or set-up)."""
    return sum(sum(getattr(r, attr)) for r in rounds)


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    rounds: list[dict] = field(default_factory=list)
    setups: list[dict] = field(default_factory=list)
    samples: dict[str, int] = field(default_factory=dict)
    spans: list = field(default_factory=list)


def run(workload: Workload, seed: int, seconds: float, trace: bool, import_s: float,
        work_root: Path) -> Outcome:
    """Alternate ``SETUPS`` set-ups with the rounds, which stop short of 1.75x ``seconds``.

    Spreading the set-ups over the run keeps one slow stretch of the host
    from reaching all of them.  Rounds use the latest set-up's corpus.
    """
    tracer = Tracer() if trace else None
    attempted, failed, problems = 0, 0, []
    setups, plain, traced = [], [], []
    measured, last = 0.0, 0.0

    def rounds_done() -> bool:
        # One round (plus one traced, when tracing) always runs; a traced run
        # stops there.  An untraced run goes on to ``rounds`` rounds, but
        # starts none that would end past 1.75x ``seconds``: a slow host then
        # gets fewer repeats instead of a longer run.
        if not plain or (trace and len(traced) < len(plain)):
            return False
        if len(plain) >= (1 if trace else workload.rounds):
            return True
        return measured + last > 1.75 * seconds

    while len(setups) < SETUPS or not rounds_done():
        if len(setups) < SETUPS:
            i = len(setups)
            # A traced run traces its set-ups too, so that layers only the
            # set-up reaches (enrolment on query) read their real cost, not 0.
            with tracer.installed() if trace else nullcontext():
                setups.append(set_up(workload, seed, work_root / f"setup{i}", tracer))
            if i:
                shutil.rmtree(work_root / f"setup{i - 1}", ignore_errors=True)
            if workload.enrol_in_setup:
                attempted += len(setups[-1].corpus.enrolled)
            digests = wav_digests(setups[-1].corpus.manifest)
            if i == 0:
                first_digests = digests
                overlap = shared_wavs(setups[0].corpus.manifest, digests)
                if overlap:
                    problems.append(f"test WAVs byte-equal to a train WAV: {overlap}")
                    failed += len(overlap)
            elif digests != first_digests:
                problems.append(f"set-up {i} synthesized other WAV bytes from the same seed")
                failed += 1
        if rounds_done():
            continue

        ready = setups[-1]
        with_trace = trace and len(traced) < len(plain)
        done = len(plain) + len(traced)
        began = time.perf_counter()
        try:
            with tracer.installed() if with_trace else nullcontext(), \
                    tracer.span("bench.round") if with_trace else nullcontext():
                if workload.enrol_in_setup:
                    result = query_round(workload, ready.corpus, ready.store)
                else:
                    result = batch_round(workload, ready.corpus, ready.groups,
                                         ready.corpus.tests[::workload.query_step],
                                         work_root / "store")
        except SidkitError as exc:
            problems.append(f"round {done}: {type(exc).__name__}: {exc}")
            attempted += 1
            failed += 1
            break
        last = time.perf_counter() - began
        measured += last
        (traced if with_trace else plain).append(result)
        attempted += result.attempted
        if result.problems:
            problems += result.problems
            failed += min(len(result.problems), result.attempted)
        if result.fingerprint != (plain + traced)[0].fingerprint:
            problems.append(f"round {done}: decisions or report bytes differ from round 0")
            failed += 1
    if len({s.warm_digest for s in setups}) > 1:
        problems.append("the warm-up's train + evaluate report differs between set-ups")
        failed += 1
    corpus = setups[0].corpus

    outcome = Outcome(metrics={}, attempted=attempted, failed=failed, problems=problems)
    outcome.setups = [{"wall_s": s.wall_s, "train_s": s.train_s} for s in setups]
    outcome.rounds = [
        {"traced": is_traced, "wall_s": r.wall_s, "train_s": r.train_s,
         "eval_s": r.eval_s, "identify_ms": r.identify_ms}
        for is_traced, group in ((False, plain), (True, traced)) for r in group
    ]
    if not plain:
        return outcome

    if trace:
        if traced:
            overhead = (statistics.median(r.wall_s for r in traced)
                        / statistics.median(r.wall_s for r in plain))
            outcome.metrics = layer_metrics(tracer, len(traced), len(setups), overhead)
        outcome.spans = tracer.spans
        missing = missing_spans(workload.name, span_totals(tracer.spans)[0])
        if missing:
            problems.append(
                f"traced run entered no {', '.join(missing)} span on {workload.name}; "
                "these layers are expected to be reached on this workload"
            )
            outcome.failed += len(missing)
        if tracer.unpatched:
            problems.append(f"layer functions not found to trace: {tracer.unpatched}")
        return outcome

    calls = [ms for r in plain for ms in r.identify_ms]
    if workload.enrol_in_setup:
        train_rate = len(setups) * corpus.train_audio_s / total(setups, "train_s")
        eval_rate = 1e3 * len(calls) / sum(calls)
    else:
        train_rate = len(plain) * corpus.train_audio_s / total(plain, "train_s")
        eval_rate = len(plain) * len(corpus.tests) / total(plain, "eval_s")
    outcome.metrics = {
        "setup_s": import_s + statistics.median(s.wall_s for s in setups),
        "train_audio_s_per_s": train_rate,
        "eval_utts_per_s": eval_rate,
        "identify_p50_ms": statistics.median(calls),
        "identify_p90_ms": statistics.quantiles(calls, n=10)[-1],
        **plain[0].pia,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    outcome.samples = {"queries": len(corpus.tests[::workload.query_step]),
                       "identify_calls": len(calls), "rounds": len(plain),
                       "setups": len(setups)}
    return outcome
