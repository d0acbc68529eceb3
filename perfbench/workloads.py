"""The benchmark's workloads: seeded inputs, one unit each, and its gate.

A unit is one problem solved and its output checked.  ``draw`` picks the
unit's inputs with the run's random generator, ``solve`` hands only those
inputs to the library, and ``check`` returns ``None`` when the output
passes the workload's accuracy gate, or the reason it does not.  Why each
workload exists is in README.md beside this file.
"""

import contextlib
import functools
import io
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

POOL = Path(__file__).with_name("plan3r_pool.json")


@contextlib.contextmanager
def work_dir(root, tag):
    """A private scratch directory under the checkout's .perfbench-work/, removed after."""
    work = root / ".perfbench-work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


class UnitFailed(Exception):
    """A unit whose call failed (CLI exit code) or whose output missed its gate."""


class Plan3R:
    """Library pipeline of the README quick start on the 3R arm."""

    name = "plan-3r"

    def __init__(self, work_dir):
        self.arm = self.set_up(None)

    @staticmethod
    def set_up(config):
        """What a fresh process pays before its first unit: import, build the model."""
        from geoctrl import make

        return make("three-link", actuators=(1, 2))

    def setup_config(self, rng):
        return None  # a library workload has no config

    @functools.cached_property
    def pool(self):
        """The screened (q0, branch, sign) units (screen_plan3r.py)."""
        return json.loads(POOL.read_text())["units"]

    @staticmethod
    def unit(entry):
        return {"q0": np.array(entry["q0"]), "branch": entry["branch"], "sign": entry["sign"]}

    def draw(self, rng, index):
        """A unit of the pool, picked by the run's generator."""
        return self.unit(self.pool[int(rng.integers(len(self.pool)))])

    def solve(self, unit, tracer=None):
        from geoctrl import kinematic
        from geoctrl.simulation import IntegratorConfig

        from tracing import instrument_system

        arm = self.arm if tracer is None else instrument_system(tracer, self.arm)
        q0 = unit["q0"]
        report, _ = kinematic.kinematic_controllability(arm, q0)
        directions = kinematic.find_decoupling_fields(arm, q0).directions
        if len(directions) < 2:
            raise UnitFailed(f"{len(directions)} decoupling directions at q0")
        seg = kinematic.PlanSegment(
            candidate=kinematic.candidate_from_direction(arm, q0, directions[unit["branch"]]),
            sign=unit["sign"],
            scaling=kinematic.TimeScaling.cubic(2.0),
        )
        traj = kinematic.kinematic_plan(arm, [seg], q0, IntegratorConfig(dt=2e-4), validate=True)
        return report, traj

    def check(self, unit, output):
        report, traj = output
        if not (report.rank == 3 and report.depth == 2):
            return f"LARC rank {report.rank} at depth {report.depth}, want 3 at 2"
        worst = max(report.residuals)
        if not worst < 1e-8:
            return f"decoupling residual {worst:.3e} at q0"
        if np.any(traj.qds[-1] != 0.0):
            return f"end velocity {traj.qds[-1].tolist()}"
        return None


class _CliWorkload:
    """An experiment config run in-process through ``geoctrl.cli.main``."""

    def __init__(self, work_dir):
        self.work_dir = work_dir

    @staticmethod
    def set_up(config):
        """What a fresh process pays before its first unit: import, parse, build."""
        from geoctrl import cli

        return cli.parse_model(cli.load_config(config))

    def setup_config(self, rng):
        """The config the set-up probes parse: the run's first, drawn afresh."""
        path = self.work_dir / "setup.yaml"
        path.write_text(self.config(rng))
        return path

    def draw(self, rng, index):
        path = self.work_dir / f"unit{index}.yaml"
        path.write_text(self.config(rng))
        return {"config": path, "out": self.work_dir / f"unit{index}-out"}

    def solve(self, unit, tracer=None):
        from geoctrl import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["run", str(unit["config"]), "--out", str(unit["out"])])
        if rc != 0:
            lines = err.getvalue().strip().splitlines()
            raise UnitFailed(f"exit {rc}: {lines[-1] if lines else ''}")
        with open(unit["out"] / "run_manifest.json") as fh:
            return json.load(fh)["results"]


class AveragingPvtol(_CliWorkload):
    """The CLI ``convergence`` experiment on the planar VTOL."""

    name = "averaging-pvtol"
    EPSILONS = (0.1, 0.05, 0.025)

    def __init__(self, work_dir):
        super().__init__(work_dir)
        # One convergence_study worker: two threads on two cores ran slower
        # and spread too widely between runs to bound (README.md).
        os.environ["GEOCTRL_THREADS"] = "1"

    def config(self, rng):
        z = [float(v) for v in rng.uniform(-0.4, 0.4, size=2)]
        pair = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.7))
        return (
            "experiment: convergence\n"
            "model: {name: pvtol, parameters: {gravity: 0.0}}\n"
            "convergence:\n"
            "  t1: 1.0\n"
            f"  epsilons: {list(self.EPSILONS)}\n"
            "  gains:\n"
            f"    z: [{{type: const, value: {z[0]!r}}}, {{type: const, value: {z[1]!r}}}]\n"
            f"    pairs: [{{pair: [1, 2], type: const, value: {pair!r}}}]\n"
        )

    def check(self, unit, results):
        slope, errors = results["slope"], results["errors"]
        if len(errors) != len(self.EPSILONS):
            return f"{len(errors)} errors for {len(self.EPSILONS)} epsilons"
        if not 0.7 <= slope <= 1.3:
            return f"slope {slope:.4f} outside [0.7, 1.3]"
        if not all(b < a for a, b in zip(errors, errors[1:])):
            return f"errors not strictly decreasing: {errors}"
        return None


class SeriesBody(_CliWorkload):
    """The CLI ``series-check`` experiment on the planar body's offset thruster."""

    name = "series-body"
    ORDER = 2

    def config(self, rng):
        omega = float(rng.uniform(0.5, 1.5))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        return (
            "experiment: series-check\n"
            "model: {name: planar-body, actuators: [4]}\n"
            "integrator: {dt: 0.001}\n"
            "series_check:\n"
            f"  order: {self.ORDER}\n"
            "  horizon: 1.5\n"
            "  epsilons: [0.02, 0.005]\n"
            "  input: 1\n"
            f"  signal: {{type: sinusoid, amplitude: 1.0, omega: {omega!r}, phase: {phase!r}}}\n"
            "  predict_dt_ratio: 5\n"
        )

    def check(self, unit, results):
        slope = results["slope"]
        if slope is None or not abs(slope - (self.ORDER + 1)) <= 0.3:
            return f"slope {slope} outside {self.ORDER + 1} +- 0.3"
        return None


WORKLOADS = {w.name: w for w in (Plan3R, AveragingPvtol, SeriesBody)}
