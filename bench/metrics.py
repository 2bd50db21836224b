"""Every metric the benchmark reports: name -> (unit, which direction is better).

The catalogue is read from ``BENCHMARK.json`` at the repository root, so the
names, units and directions are kept in one place.
"""

import json

from machine import ROOT

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

END_TO_END = {m["name"]: (m["unit"], m["better"]) for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in _SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in _SPEC["workloads"]]

# Reported next to the end-to-end metrics but not printed in the result line:
# it is 0 on a healthy run, and the result line already carries
# ``attempted`` and ``failed``.
FAILED_OPS = ("failed_ops_frac", "ratio", "lower")
