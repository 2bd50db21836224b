"""Tiny-scale smoke check of the benchmark itself; takes a few seconds.

    python3 bench/smoke.py

Runs every workload at a toy corpus scale, untraced and traced, in this
process, and checks that:

- every run passes its own output checks;
- every metric of ``BENCHMARK.json`` appears with its unit and direction,
  and ``BENCHMARK.json`` names the workloads of ``workloads.py``;
- the reported PIA equals what ``train_command`` + ``evaluate_command``
  give when called directly on the same corpus;
- the tracer puts every patched name back, and a layer that is never
  reached is reported as missing.
"""

from __future__ import annotations

import json
import shutil
import sys

import machine
import run
from metrics import END_TO_END, FAILED_OPS, PER_LAYER, WORKLOAD_NAMES

PIA = ("pia_fused", "pia_spectral", "pia_residual")


def check_catalogue(errors: list[str]) -> None:
    import workloads

    if WORKLOAD_NAMES != list(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def direct_pia(name: str, seed: int) -> dict[str, float]:
    """PIA from the library entry points, called directly on the same corpus."""
    import sidkit
    import workloads

    work = run.WORK_DIR / f"direct-{name}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        scale = workloads.SMOKE_WORKLOADS[name].scale
        corpus = workloads.build_corpus(scale, seed, work / "corpus")
        store = sidkit.train_command(corpus.manifest, sidkit.ToolkitConfig(), work / "store")
        evaluation = sidkit.evaluate_command(corpus.manifest, store)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "pia_fused": evaluation.fused.pia,
        "pia_spectral": evaluation.spectral_only.pia,
        "pia_residual": evaluation.residual_only.pia,
    }


def check_workload(name: str, errors: list[str], seed: int = 3) -> None:
    for trace, catalogue in ((False, END_TO_END), (True, PER_LAYER)):
        record = run.measure(name, seed, 0.0, trace, smoke=True)
        label = f"{name} trace={int(trace)}"
        if not record["correct"]:
            errors.append(f"{label}: run failed its checks: {record['problems']}")
        expected = dict(catalogue)
        if not trace:
            expected[FAILED_OPS[0]] = FAILED_OPS[1:]
        for metric, (unit, better) in expected.items():
            got = record["metrics"].get(metric)
            if got is None:
                errors.append(f"{label}: metric {metric} missing")
            elif (got["unit"], got["better"]) != (unit, better):
                errors.append(f"{label}: {metric} reported as {got['unit']}/{got['better']}")
        line = json.loads(run.result_line(record))
        if set(line) != {"correct", "attempted", "failed", "metrics"} or \
                set(line["metrics"]) != set(catalogue):
            errors.append(f"{label}: result line keys are not the contract's")
        if not trace:
            reported = {m: record["metrics"][m]["value"] for m in PIA}
            direct = direct_pia(name, seed)
            if reported != direct:
                errors.append(f"{label}: PIA {reported} != evaluate_command's {direct}")


def check_tracer(errors: list[str]) -> None:
    import importlib

    import tracing

    commands = importlib.import_module("sidkit.commands")
    audio_io = importlib.import_module("sidkit.audio_io")
    if commands.load_audio is not audio_io.load_audio:
        errors.append("tracer left sidkit.commands.load_audio patched")
    if tracing.missing_spans("query", {}) != list(tracing.EXPECTED_SPANS["query"]):
        errors.append("an unreached layer is not reported as missing")


def main() -> int:
    machine.cap_threads()
    try:
        machine.import_sidkit()
    except machine.MissingSource as exc:
        print(f"smoke: {exc}", file=sys.stderr)
        return 2
    errors: list[str] = []
    check_catalogue(errors)
    for name in ("enroll", "wide", "query"):
        check_workload(name, errors)
    check_tracer(errors)
    shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    for error in errors:
        print(f"smoke: {error}", file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
