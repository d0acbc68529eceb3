"""geoctrl benchmark: seeded workloads, end-to-end metrics, traced layer split.

    python3 perfbench/run.py --workload plan-3r --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
A run draws units from ``--seed`` and solves them one after another in
this process (a closed loop with one caller) for about ``--seconds``
seconds; it never starts a unit it expects to end past the deadline.
Every unit's output goes through its workload's accuracy gate, and a
failing unit is counted, not fatal.

``--trace 0`` reports the end-to-end metrics, measured untraced:
``solve_s`` and ``cpu_s`` (medians per unit), ``setup_s`` (median over
fresh set-up processes, one after each of the first units) and
``peak_rss_mb``; ``fail_ratio`` is printed beside them.  The three times
are scaled by the run's host speed, read from a fixed reference loop
between units, to a nominal host (README.md, "Host speed"); the
unscaled medians are printed too.  ``--trace 1``
alternates untraced and traced units and reports the per-layer metrics
of the traced ones, plus the tracing overhead and the share of each
unit's wall time that the top-level spans cover.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from tracing import Tracer, instrument
from workloads import WORKLOADS, AveragingPvtol, work_dir

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5

# Host-speed reference: a fixed 3x3 Cholesky factor-and-solve loop, run for
# REFERENCE_S seconds between units.  Times are scaled to a host on which
# one iteration takes NOMINAL_CPU_S of CPU time.
REFERENCE_S = 0.3
NOMINAL_CPU_S = 35e-6
_REF_M = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
_REF_B = np.ones(3)

END_TO_END = (("solve_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Spans reported with their call count and self time, then those reported
# with self time only.
COUNTED_SPANS = (
    "models.inertia",
    "models.dinertia",
    "models.covector",
    "models.dcovector",
    "geometry.input_span_data",
    "geometry.christoffel",
    "geometry.solve_mass",
    "geometry.input_fields_matrix",
    "geometry.input_field.jacobian",
    "simulation.simulate",
    "simulation.reconstruct_inputs",
    "kinematic.find_decoupling_fields",
    "series.predict_from_rest",
    "numutil.cumulative_simpson_uniform",
    "numutil.lagrange4_interp",
    "oscillatory.span_check",
)
TIMED_SPANS = (
    "kinematic.kinematic_plan",
    "kinematic.kinematic_controllability",
    "series.truncation_errors",
    "oscillatory.averaged_simulate",
    "oscillatory.convergence_study",
    "cli.load_config",
    "cli.parse_model",
    "cli.write",
)
DERIVED = (
    ("models.inertia.per_eval", "ratio"),
    ("simulation.rk4.steps", "count"),
    ("simulation.control.calls", "count"),
    ("simulation.control.per_step", "ratio"),
    ("simulation.reconstruct_inputs.samples", "count"),
    ("simulation.reconstruct_inputs.us_per_sample", "us"),
    ("kinematic.resolves.per_arc_node", "ratio"),
    ("oscillatory.span_check.per_step", "ratio"),
    ("oscillatory.members.busy_s", "s"),
    ("oscillatory.members.overlap", "ratio"),
)
RUN_LEVEL = (("trace.overhead_s", "s"), ("trace.coverage", "ratio"))

PER_LAYER = (
    [(f"{n}.calls", "count") for n in COUNTED_SPANS]
    + [(f"{n}.self_s", "s") for n in COUNTED_SPANS + TIMED_SPANS]
    + list(DERIVED)
    + list(RUN_LEVEL)
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: Tracer):
    """Per-layer metrics of one traced unit."""
    out = {f"{n}.calls": t.calls[n] for n in COUNTED_SPANS}
    out.update({f"{n}.self_s": t.self_s[n] for n in COUNTED_SPANS + TIMED_SPANS})
    steps = t.counts["simulation.rk4.steps"]
    sim_steps = t.counts["simulation.simulate.steps"]
    samples = t.counts["simulation.reconstruct_inputs.samples"]
    busy = t.total_s["oscillatory.member"]
    out.update(
        {
            "models.inertia.per_eval": _ratio(
                t.counts["models.inertia.in_ode"], t.counts["ode.evals"]
            ),
            "simulation.rk4.steps": steps,
            "simulation.control.calls": t.counts["simulation.control.calls"],
            "simulation.control.per_step": _ratio(t.counts["simulation.control.calls"], sim_steps),
            "simulation.reconstruct_inputs.samples": samples,
            "simulation.reconstruct_inputs.us_per_sample": 1e6
            * _ratio(t.total_s["simulation.reconstruct_inputs"], samples),
            "kinematic.resolves.per_arc_node": _ratio(
                t.counts["kinematic.plan.resolves"], t.counts["kinematic.plan.arc_nodes"]
            ),
            "oscillatory.span_check.per_step": _ratio(t.calls["oscillatory.span_check"], sim_steps),
            "oscillatory.members.busy_s": busy,
            "oscillatory.members.overlap": _ratio(busy, t.total_s["oscillatory.fanout"]),
        }
    )
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def commit_hash(root):
    """HEAD of the checkout, if it is a git work tree; git looks no higher up."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def setup_probe(src, workload, config):
    """Set-up time of one fresh process (see setup_probe.py)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(src), workload]
    if config is not None:
        cmd.append(str(config))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def reference_cpu_s():
    """CPU seconds per iteration of the reference loop, at the host's speed now.

    It uses numpy and scipy only, never geoctrl, so no change to the
    library moves it.
    """
    from scipy.linalg import cho_factor, cho_solve

    n, t0, c0 = 0, time.perf_counter(), time.process_time()
    while time.perf_counter() - t0 < REFERENCE_S:
        for _ in range(50):
            cho_solve(cho_factor(_REF_M), _REF_B)
        n += 50
    return (time.process_time() - c0) / n


def run_unit(wl, unit, tracer):
    """Solve and check one unit; returns (wall_s, cpu_s, failure or None, output)."""
    with instrument(tracer) if tracer else nullcontext():
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with tracer.span("unit") if tracer else nullcontext():
                output = wl.solve(unit, tracer)
            failure = None
        except Exception as exc:  # a failing unit is recorded and the run goes on
            output, failure = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if failure is None:
        failure = wl.check(unit, output)
    return wall, cpu, failure, output


def measure(wl, rng, seconds, traced, probe):
    """Units until the deadline; with ``traced`` every second unit is traced.

    ``probe()``, if given, runs after each of the first SETUP_PROBES units, so the
    set-up samples spread over the run like the units do; its time does
    not count against ``seconds``.  The reference loop runs before the
    first unit and after each unit and probe.  Returns (units, set-up
    samples, reference readings).
    """
    units, setups, refs = [], [], [reference_cpu_s()]

    def probe_once():
        setups.append(probe())
        refs.append(reference_cpu_s())

    start = time.perf_counter()
    while True:
        index = len(units)
        unit = wl.draw(rng, index)
        tracer = Tracer() if traced and index % 2 == 1 else None
        wall, cpu, failure, output = run_unit(wl, unit, tracer)
        if "out" in unit:
            shutil.rmtree(unit["out"], ignore_errors=True)
        refs.append(reference_cpu_s())
        units.append(
            {"wall": wall, "cpu": cpu, "failure": failure, "tracer": tracer, "output": output}
        )
        if probe and len(setups) < SETUP_PROBES:
            t0 = time.perf_counter()
            probe_once()
            start += time.perf_counter() - t0
        walls = [u["wall"] for u in units]
        elapsed = time.perf_counter() - start
        if (not traced or len(units) >= 2) and elapsed + statistics.median(walls) > seconds:
            while probe and len(setups) < SETUP_PROBES:
                probe_once()
            return units, setups, refs


def diagnostics(units):
    """Values recorded for the reader and never compared: slopes, plan residuals."""
    out = {}
    slopes = [u["output"]["slope"] for u in units if isinstance(u["output"], dict)]
    if slopes:
        out["slopes"] = slopes
    residuals = [
        u["tracer"].maxima["kinematic.plan.max_residual"]
        for u in units
        if u["tracer"] and "kinematic.plan.max_residual" in u["tracer"].maxima
    ]
    if residuals:
        out["kinematic.plan.max_residual"] = max(residuals)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still removes its scratch files and stops its probes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    src = root / "src"
    if not (src / "geoctrl" / "__init__.py").is_file():
        print(f"no geoctrl sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2

    with work_dir(root, args.workload) as work:
        return _run(args, root, src, work)


def _run(args, root, src, work):
    sys.path.insert(0, str(src))
    wl = WORKLOADS[args.workload](work)
    config = wl.setup_config(np.random.default_rng(args.seed))

    import scipy

    import geoctrl
    from geoctrl import oscillatory

    units, setups, refs = measure(
        wl,
        np.random.default_rng(args.seed),
        args.seconds,
        traced=bool(args.trace),
        probe=None if args.trace else lambda: setup_probe(src, args.workload, config),
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    worker_count = getattr(oscillatory, "worker_count", None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": len(units),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "geoctrl": geoctrl.__version__,
        "convergence_workers": (
            min(worker_count(), len(AveragingPvtol.EPSILONS)) if worker_count else None
        ),
        "commit": commit_hash(root),
    }
    print("# run " + json.dumps(record))
    failed = [u for u in units if u["failure"]]
    for i, u in enumerate(units):
        if u["failure"]:
            print(f"# unit {i} failed: {u['failure']}")
    print("# diagnostics " + json.dumps(diagnostics(units)))
    print("# unit walls " + " ".join(f"{u['wall']:.3f}{'t' if u['tracer'] else ''}" for u in units))

    untraced = [u for u in units if u["tracer"] is None]
    walls = [u["wall"] for u in untraced]
    cpus = [u["cpu"] for u in untraced]
    if args.trace:
        traced = [u for u in units if u["tracer"] is not None]
        per_unit = [layer_metrics(u["tracer"]) for u in traced]
        values = {name: statistics.median(m[name] for m in per_unit) for name in per_unit[0]}
        values["trace.overhead_s"] = statistics.median(u["wall"] for u in traced) - statistics.median(walls)
        coverage = [_ratio(u["tracer"].child_s["unit"], u["tracer"].total_s["unit"]) for u in traced]
        values["trace.coverage"] = statistics.median(coverage)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        print(
            f"# tracing: {len(traced)} traced and {len(untraced)} untraced units; "
            f"traced minus untraced solve_s {values['trace.overhead_s']:+.4f} s; "
            "top-level spans cover " + ", ".join(f"{100 * c:.2f}%" for c in coverage)
            + " of the traced units' wall time"
        )
        for name, unit in PER_LAYER:
            print(f"{name:48s} {values[name]:>16.6g} {unit}")
    else:
        scale = NOMINAL_CPU_S / statistics.median(refs)
        q1, med, q3 = (scale * v for v in quartiles(walls))
        c1, cmed, c3 = (scale * v for v in quartiles(cpus))
        setup_s = scale * statistics.median(setups)
        print(
            f"# host scale {scale:.4f} (reference readings {min(refs) * 1e6:.1f}"
            f"-{max(refs) * 1e6:.1f} us); unscaled solve_s {statistics.median(walls):.4f} s, "
            f"cpu_s {statistics.median(cpus):.4f} s, setup_s {statistics.median(setups):.4f} s"
        )
        values = {"solve_s": med, "cpu_s": cmed, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"solve_s      {med:.4f} s   (q1 {q1:.4f}, q3 {q3:.4f}, n={len(walls)})")
        print(f"cpu_s        {cmed:.4f} s   (q1 {c1:.4f}, q3 {c3:.4f}, n={len(cpus)})")
        print(f"setup_s      {setup_s:.4f} s   (median of {SETUP_PROBES} fresh processes)")
        print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"fail_ratio   {len(failed) / len(units):.4f} ratio   ({len(failed)}/{len(units)} units failed)")
    result = {
        "correct": not failed,
        "attempted": len(units),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
