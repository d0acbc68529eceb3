"""The README's examples run as written."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from geoctrl.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def run_block(code):
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    return namespace


@pytest.fixture(scope="module")
def python_blocks():
    found = blocks("python")
    assert len(found) == 2  # the library quick start and the pvtol study
    return found


def test_quick_start_plan_is_realizable(python_blocks, capsys):
    ns = run_block(python_blocks[0])
    assert ns["rec"].max_residual < 1e-6
    assert capsys.readouterr().out  # it prints the end point and the residual


def test_pvtol_tracking_error_is_first_order(python_blocks, capsys):
    ns = run_block(python_blocks[1])
    assert 0.9 <= ns["study"].slope <= 1.1
    assert capsys.readouterr().out


def test_cli_example_config_validates(tmp_path, capsys):
    (config,) = blocks("yaml")
    path = tmp_path / "motion.yaml"
    path.write_text(config)
    assert main(["validate", str(path)]) == 0
    assert '"ok": true' in capsys.readouterr().out


RUNS = {
    "series-check": "model: {name: planar-body, actuators: [4]}\n"
    "series-check: {order: 2, epsilons: [0.02, 0.01], horizon: 0.5}\n",
    "oscillatory-track": "model: {name: blimp}\noscillatory-track:\n  epsilon: 0.2\n  t1: 0.5\n"
    "  gains: {pairs: [{pair: [1, 2], type: const, value: 0.5}]}\n",
    "convergence": "model: {name: pvtol, parameters: {gravity: 0.0}}\nconvergence:\n"
    "  epsilons: [0.2, 0.1]\n  t1: 0.5\n  gains: {z: [{type: const, value: 0.1}]}\n",
}


def test_cli_and_quick_start_plan_load_no_scipy_solvers(python_blocks, tmp_path):
    """A fresh process that imports the CLI, then plans and validates the
    quick start, tests decoupling with one input and with every input, solves
    an m = 3 decoupling system, and runs a series-check, an oscillatory-track
    and a convergence config through cli.main, never loads scipy.linalg nor
    scipy's interpolation, optimization or integration packages: geoctrl
    loads scipy's compiled LAPACK module alone, and uses its own quadrature."""
    for experiment, body in RUNS.items():
        (tmp_path / f"{experiment}.yaml").write_text(f"experiment: {experiment}\n{body}")
    script = """
import json, sys
from pathlib import Path
import numpy as np
heavy = ("scipy.linalg", "scipy.interpolate", "scipy.optimize", "scipy.integrate")
import geoctrl.cli
after_import = [m for m in heavy if m in sys.modules]
exec(compile(sys.stdin.read(), "README.md", "exec"), {})
from geoctrl import MechanicalSystem, find_decoupling_fields, kinematic_controllability, make
for name, actuators in (("planar-body", (4,)), ("three-link", (1, 2, 3))):
    kinematic_controllability(make(name, actuators), [0.3, -0.2, 0.5])
# m = 3, n = 5: Y_a = e_a + (B1[a] . q[:3] / 2) e_4 + (B2[a] . q[:3] / 2) e_5 gives the
# forms B1 = diag(1, 0, -1) and B2 = diag(1, 1, -2) at q = 0, with four common roots
forms = (np.diag([1.0, 0.0, -1.0]), np.diag([1.0, 1.0, -2.0]))
covectors = [lambda q, a=a: np.concatenate([np.eye(3)[a], [0.5 * B[a] @ q[:3] for B in forms]])
             for a in range(3)]
system = MechanicalSystem(n=5, inertia=lambda q: np.eye(5), input_covectors=covectors,
                          dinertia=lambda q: np.zeros((5, 5, 5)))
assert len(find_decoupling_fields(system, np.zeros(5)).directions) == 4
after_plan = [m for m in heavy if m in sys.modules]
for cfg in sorted(Path(sys.argv[1]).glob("*.yaml")):
    assert geoctrl.cli.main(["run", str(cfg), "--out", str(cfg.with_suffix(""))]) == 0, cfg
print(json.dumps([after_import, after_plan, [m for m in heavy if m in sys.modules]]))
"""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        input=python_blocks[0],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        check=True,
    )
    after_import, after_plan, after_runs = json.loads(run.stdout.splitlines()[-1])
    assert after_import == []
    assert after_plan == []
    assert after_runs == []
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == sorted(RUNS)
