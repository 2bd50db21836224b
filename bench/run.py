"""sidkit benchmark runner.

    python3 bench/run.py --workload {enroll,wide,query} --seed N --seconds S --trace {0,1}

Builds a synthetic corpus from ``--seed``, sets up three times (the import
time plus the median set-up time is reported) and measures a fixed number
of rounds per workload between and after the set-ups, starting none that
would end past 1.75x ``--seconds``.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced round and prints
the per-layer metrics.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
A full record (machine facts, per-round timings, spans) is written to
``.bench_results/<workload>-trace<0|1>.json`` in the checkout.

Exit status is 0 only when every output check passed.  Without sidkit's
sources next to this directory the runner exits with status 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import machine
from metrics import END_TO_END, FAILED_OPS, PER_LAYER

RESULTS_DIR = machine.ROOT / ".bench_results"
WORK_DIR = machine.ROOT / ".bench_work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("enroll", "wide", "query"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload in this process and return the full result record.

    ``smoke`` swaps in the toy corpus scales of ``workloads.SMOKE_WORKLOADS``.
    """
    thread_cap = machine.cap_threads()
    _, import_s = machine.import_sidkit()
    import workloads

    spec = (workloads.SMOKE_WORKLOADS if smoke else workloads.WORKLOADS)[workload]
    work_dir = WORK_DIR / workload
    try:
        outcome = workloads.run(spec, seed, seconds, trace, import_s, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    catalogue = PER_LAYER if trace else END_TO_END
    metrics = {
        name: {"value": outcome.metrics[name], "unit": unit, "better": better}
        for name, (unit, better) in catalogue.items()
        if name in outcome.metrics
    }
    if not trace:
        name, unit, better = FAILED_OPS
        metrics[name] = {
            "value": outcome.failed / max(outcome.attempted, 1), "unit": unit, "better": better
        }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": bool(trace),
        "workload_spec": {**spec.__dict__, "scale": spec.scale.__dict__},
        "machine": machine.machine_facts(thread_cap),
        "correct": outcome.failed == 0 and not outcome.problems and bool(outcome.metrics),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": metrics,
        "samples": outcome.samples,
        "setups": outcome.setups,
        "rounds": outcome.rounds,
        "spans": outcome.spans,
    }


def result_line(record: dict) -> str:
    """The contract line: only the metrics BENCHMARK.json names, value and unit."""
    catalogue = PER_LAYER if record["traced"] else END_TO_END
    return json.dumps({
        "correct": record["correct"],
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in record["metrics"].items() if name in catalogue
        },
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except machine.MissingSource as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    record["run_wall_s"] = time.perf_counter() - started
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in record["problems"]:
        print(f"bench: FAILED CHECK: {problem}", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"{name:<42} {m['value']:>14.6g} {m['unit']:<6} ({m['better']} is better)")
    print(f"# {record['attempted']} operations attempted, {record['failed']} failed; "
          f"details in {out.relative_to(machine.ROOT)}")
    print(result_line(record), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
