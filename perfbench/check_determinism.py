"""The benchmark's own test: traced counts repeat, and match the layer map.

    python3 perfbench/check_determinism.py

Run from the root of a checkout.  For each workload it traces the first
unit of seed 1 twice and the first unit of seed 2 once, and fails (exit
1) unless:

- the two seed-1 units give identical deterministic counts (``*.calls``,
  ``*.per_eval``, ``*.per_step``, ``*.per_arc_node``, step, call and
  sample counts);
- the seed-2 unit gives the same counts too, since a unit's cost does not
  depend on the seed;
- the counts follow the layer map: ``kinematic`` counts are zero outside
  plan-3r, ``series`` counts zero outside series-body and
  ``oscillatory.span_check.calls`` zero outside averaging-pvtol;
- every unit passes its gate, and the metric names printed by run.py are
  the ones BENCHMARK.json declares.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from run import END_TO_END, PER_LAYER, layer_metrics, run_unit
from tracing import Tracer
from workloads import WORKLOADS, work_dir

SEEDS = (1, 2)

DETERMINISTIC = [
    name
    for name, unit in PER_LAYER
    if unit == "count" or name.endswith((".per_eval", ".per_step", ".per_arc_node"))
]

# layer prefix -> the only workload whose units may touch it
LAYER_MAP = {
    "kinematic.": "plan-3r",
    "series.": "series-body",
    "oscillatory.span_check.calls": "averaging-pvtol",
}


def traced_counts(wl, seed):
    tracer = Tracer()
    unit = wl.draw(np.random.default_rng(seed), 0)
    _, _, failure, _ = run_unit(wl, unit, tracer)
    if "out" in unit:
        shutil.rmtree(unit["out"], ignore_errors=True)
    metrics = layer_metrics(tracer)
    return failure, {name: metrics[name] for name in DETERMINISTIC}


def check_workload(name, work):
    wl = WORKLOADS[name](work)
    runs = [traced_counts(wl, seed) for seed in (SEEDS[0], SEEDS[0], SEEDS[1])]
    problems = [f"{name}: unit failed: {failure}" for failure, _ in runs if failure]
    first = runs[0][1]
    for label, (_, counts) in zip((f"seed {SEEDS[0]} rerun", f"seed {SEEDS[1]}"), runs[1:]):
        for key in DETERMINISTIC:
            if counts[key] != first[key]:
                problems.append(f"{name}: {key} is {counts[key]} on {label}, {first[key]} first")
    for prefix, owner in LAYER_MAP.items():
        if owner == name:
            continue
        for key in DETERMINISTIC:
            if key.startswith(prefix) and first[key] != 0:
                problems.append(f"{name}: {key} = {first[key]}, expected 0 outside {owner}")
    print(f"# {name}: " + json.dumps(first))
    return problems


def check_declared(root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(names):
            problems.append(f"BENCHMARK.json {key} differs from what run.py prints")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


def main():
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    with work_dir(root, "check") as work:
        problems = check_declared(root)
        for name in sorted(WORKLOADS):
            problems += check_workload(name, work)
    for line in problems:
        print(line)
    print("determinism check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
