"""Shared fixtures: one synthetic corpus and trained store per session."""

import time
from contextlib import contextmanager

import pytest

from sidkit.commands import evaluate_command, train_command
from sidkit.config import ToolkitConfig
from sidkit.corpus import default_speaker_specs, generate_synthetic_corpus

CORPUS_SEED = 0
NUM_SPEAKERS = 10
TRAIN_UTTS = 8
TEST_UTTS = 4
UTT_SECONDS = 2.0


_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def criterion():
    """Context manager that records one [PASS]/[FAIL] line per numbered check."""

    @contextmanager
    def check(number: int, summary: str):
        try:
            yield
        except BaseException:
            line = f"[FAIL] criterion {number}: {summary}"
            _ACCEPTANCE_LINES.append(line)
            print(line)
            raise
        line = f"[PASS] criterion {number}: {summary}"
        _ACCEPTANCE_LINES.append(line)
        print(line)

    return check


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def toolkit_config():
    return ToolkitConfig()


@pytest.fixture(scope="session")
def pipeline_timings():
    """Wall-clock seconds of each shared pipeline phase, filled in lazily."""
    return {}


@pytest.fixture(scope="session")
def synthetic_corpus(tmp_path_factory, pipeline_timings):
    """10 synthetic speakers, 8 train + 4 test utterances of 2 s each."""
    root = tmp_path_factory.mktemp("corpus")
    start = time.perf_counter()
    specs = default_speaker_specs(NUM_SPEAKERS, seed=CORPUS_SEED)
    manifest = generate_synthetic_corpus(
        specs,
        train_utts=TRAIN_UTTS,
        test_utts=TEST_UTTS,
        utt_seconds=UTT_SECONDS,
        seed=CORPUS_SEED,
        out_dir=root,
    )
    pipeline_timings["synth"] = time.perf_counter() - start
    return manifest


@pytest.fixture(scope="session")
def trained_store(synthetic_corpus, toolkit_config, tmp_path_factory, pipeline_timings):
    """Spectral + residual models for every corpus speaker."""
    store_dir = tmp_path_factory.mktemp("store")
    start = time.perf_counter()
    store = train_command(synthetic_corpus, toolkit_config, store_dir)
    pipeline_timings["train"] = time.perf_counter() - start
    return store


@pytest.fixture(scope="session")
def evaluation(
    synthetic_corpus, trained_store, toolkit_config, tmp_path_factory, pipeline_timings
):
    """One full evaluation at the default fusion weight, with written outputs."""
    out = tmp_path_factory.mktemp("reports")
    report_path = out / "report.txt"
    records_path = out / "records.jsonl"
    start = time.perf_counter()
    run = evaluate_command(
        synthetic_corpus,
        trained_store,
        eta=0.5,
        report_path=report_path,
        records_path=records_path,
    )
    pipeline_timings["evaluate"] = time.perf_counter() - start
    return run, report_path, records_path
