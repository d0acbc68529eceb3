"""End-to-end CLI behavior: configs, artifacts, exit codes, JSON errors."""

import json
from textwrap import dedent

import numpy as np
import pytest

from geoctrl import cli
from geoctrl.cli import main

FLAT_SIM = dedent(
    """\
    experiment: simulate
    model: {name: flat}
    integrator: {dt: 0.001}
    simulate:
      t1: 1.0
      q0: [0.0, 0.0]
      controls: [{type: sinusoid, amplitude: 0.5, omega: 2.0}]
    """
)


def write(tmp_path, text, name="config.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_json(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    payload = json.loads(out) if out.strip() else None
    error = json.loads(err) if err.strip() else None
    return rc, payload, error


# -- list / validate -------------------------------------------------------------


def test_list_models_mentions_all_builtins(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    for name in ("flat", "planar-body", "blimp", "pvtol", "three-link"):
        assert name in out
    assert "default actuators" in out


def test_validate_good_config(tmp_path, capsys):
    rc, payload, _ = run_json(capsys, ["validate", write(tmp_path, FLAT_SIM)])
    assert rc == 0
    assert payload["ok"] is True
    assert payload["model"] == "flat"
    assert (payload["n"], payload["m"]) == (2, 1)


def test_validate_missing_file(tmp_path, capsys):
    rc, _, error = run_json(capsys, ["validate", str(tmp_path / "nope.yaml")])
    assert rc == 2
    assert error["error"]["kind"] == "config"
    assert "not found" in error["error"]["message"]


def test_validate_rejects_bad_yaml(tmp_path, capsys):
    rc, _, error = run_json(capsys, ["validate", write(tmp_path, "a: [unclosed")])
    assert rc == 2
    assert error["error"]["kind"] == "config"


def test_validate_rejects_unknown_experiment(tmp_path, capsys):
    cfg = "experiment: teleport\nmodel: {name: flat}\n"
    rc, _, error = run_json(capsys, ["validate", write(tmp_path, cfg)])
    assert rc == 2
    assert "unknown experiment" in error["error"]["message"]


def test_validate_rejects_bad_actuator(tmp_path, capsys):
    cfg = "experiment: simulate\nmodel: {name: flat, actuators: [5]}\n"
    rc, _, error = run_json(capsys, ["validate", write(tmp_path, cfg)])
    assert rc == 2


# -- running experiments -----------------------------------------------------------


def test_run_simulate_writes_artifacts_and_manifest(tmp_path, capsys):
    out = tmp_path / "results"
    rc, payload, _ = run_json(
        capsys, ["run", write(tmp_path, FLAT_SIM), "--out", str(out)]
    )
    assert rc == 0
    assert payload["ok"] is True
    assert payload["artifacts"] == ["trajectory.csv"]
    csv = (out / "trajectory.csv").read_text().splitlines()
    assert csv[0] == "t,q1,q2,qd1,qd2,u1"
    assert len(csv) == 1002
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["experiment"] == "simulate"
    assert manifest["model"] == {"name": "flat", "n": 2, "m": 1}
    for key in ("geoctrl", "python", "numpy", "scipy"):
        assert key in manifest["versions"]
    assert manifest["results"]["samples"] == 1001
    assert manifest["wall_time_s"] >= 0.0


def test_identical_runs_are_byte_identical(tmp_path, capsys):
    cfg = write(tmp_path, FLAT_SIM)
    assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b


def test_output_key_in_config_is_used(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, FLAT_SIM + "output: from-config\n")
    rc, payload, _ = run_json(capsys, ["run", cfg])
    assert rc == 0
    assert (tmp_path / "from-config" / "trajectory.csv").exists()


def test_run_rejects_wrong_control_count(tmp_path, capsys):
    cfg = FLAT_SIM.replace(
        "controls: [{type: sinusoid, amplitude: 0.5, omega: 2.0}]",
        "controls: [{type: const}, {type: const}]",
    )
    rc, _, error = run_json(capsys, ["run", write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert error["error"]["kind"] == "config"


def test_run_rejects_unknown_signal_type(tmp_path, capsys):
    cfg = FLAT_SIM.replace("type: sinusoid, amplitude: 0.5, omega: 2.0", "type: square")
    rc, _, error = run_json(capsys, ["run", write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "signal type" in error["error"]["message"]


def test_run_missing_required_key(tmp_path, capsys):
    cfg = FLAT_SIM.replace("  t1: 1.0\n", "")
    rc, _, error = run_json(capsys, ["run", write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "t1" in error["error"]["message"]


def test_ill_conditioned_constant_inertia_names_the_start_and_exits_3(tmp_path, capsys):
    cfg = dedent(
        """\
        experiment: simulate
        model: {name: pvtol, parameters: {mass: 1.0e+13}}
        integrator: {dt: 0.01}
        simulate:
          t1: 0.1
          q0: [0.1, 0.2, 0.3]
          controls: [{type: const, value: 1.0}, {type: const, value: 0.0}]
        """
    )
    rc, _, error = run_json(capsys, ["run", write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert error["error"]["type"] == "SingularInertiaError"
    assert error["error"]["message"] == (
        "inertia matrix at q=[0.1, 0.2, 0.3] has condition number 1.000e+13 (not safely invertible)"
    )


def test_numerical_failure_is_json_exit_3(tmp_path, capsys):
    # the offset thruster violates the span assumption behind the synthesis
    cfg = dedent(
        """\
        experiment: oscillatory-track
        model: {name: planar-body, actuators: [1, 4]}
        oscillatory-track:
          epsilon: 0.1
          t1: 0.5
          gains:
            z: [{type: const, value: 0.1}]
            pairs: [{pair: [1, 2], type: const, value: 0.5}]
        """
    )
    rc = main(["run", write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert rc == 3
    error = json.loads(err)
    assert error["error"]["kind"] == "numerical"
    assert error["error"]["type"] == "SpanAssumptionError"
    assert "Traceback" not in err


def test_decoupling_run_reports_fields(tmp_path, capsys):
    cfg = dedent(
        """\
        experiment: decoupling
        model: {name: three-link}
        decoupling: {q: [0.4, 0.9, -1.3]}
        """
    )
    out = tmp_path / "o"
    rc, payload, _ = run_json(capsys, ["run", write(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "controllability.json").read_text())
    assert set(report) == {"rank", "depth", "verdict", "residuals"}
    assert report["verdict"] is True and report["rank"] == 3
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["results"]["fields_found"] >= 2


def test_decoupling_run_without_fields_reports_rank_zero(tmp_path, capsys):
    # one input leaves the quadratic forms no root: no field, nothing to bracket
    cfg = dedent(
        """\
        experiment: decoupling
        model: {name: planar-body, actuators: [4]}
        decoupling: {q: [0.3, -0.2, 0.5]}
        """
    )
    out = tmp_path / "o"
    rc, payload, _ = run_json(capsys, ["run", write(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "controllability.json").read_text())
    assert report == {"rank": 0, "depth": 1, "verdict": False, "residuals": []}
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["results"] == {"fields_found": 0, "verdict": False}


def test_larc_run_three_link(tmp_path, capsys):
    cfg = dedent(
        """\
        experiment: larc
        model: {name: three-link}
        larc: {q: [0.3, -0.2, 0.9], depth: 2}
        """
    )
    out = tmp_path / "o"
    rc, payload, _ = run_json(capsys, ["run", write(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "controllability.json").read_text())
    assert report["rank"] == 3 and report["depth"] == 2


def test_oscillatory_track_run(tmp_path, capsys):
    cfg = dedent(
        """\
        experiment: oscillatory-track
        model: {name: blimp}
        oscillatory-track:
          epsilon: 0.1
          t1: 0.3
          gains:
            z: [{type: const, value: 0.2}]
            pairs: [{pair: [1, 2], type: const, value: 0.5}]
        """
    )
    out = tmp_path / "o"
    rc, payload, _ = run_json(capsys, ["run", write(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    assert sorted(payload["artifacts"]) == [
        "averaged.csv",
        "synthesis_audit.json",
        "true.csv",
    ]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["results"]["audit_max_difference"] < 1e-6
    assert manifest["results"]["max_tracking_err"] < 0.5
    audit = json.loads((out / "synthesis_audit.json").read_text())
    assert audit["period"] == 2.0 * np.pi
    assert len(audit["times"]) == 20


def test_convergence_run_writes_csv(tmp_path, capsys):
    cfg = dedent(
        """\
        experiment: convergence
        model: {name: flat}
        convergence:
          epsilons: [0.2, 0.1]
          t1: 0.5
          gains: {z: [{type: const, value: 0.0}]}
        """
    )
    out = tmp_path / "o"
    rc, payload, _ = run_json(capsys, ["run", write(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "epsilon,max_err,slope_partial"
    assert len(lines) == 3


def test_run_dt_not_dividing_horizon_is_config_error(tmp_path, capsys):
    cfg = dedent(
        """\
        experiment: simulate
        model: {name: pvtol}
        integrator: {dt: 0.003}
        simulate:
          t1: 1.0
          controls: [{type: const, value: 9.81}, {type: const, value: 0.0}]
        """
    )
    rc, _, error = run_json(capsys, ["run", write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert error["error"]["kind"] == "config"
    assert "does not divide" in error["error"]["message"]


@pytest.mark.parametrize(
    "cfg",
    [
        """\
        experiment: convergence
        model: {name: pvtol, parameters: {gravity: 0.0}}
        convergence:
          epsilons: [0.1]
          t1: 1.0
          gains: {z: [{type: const, value: 0.2}], pairs: [{pair: [1, 2], type: const, value: 0.5}]}
        """,
        """\
        experiment: series-check
        model: {name: planar-body, actuators: [4]}
        series-check: {epsilons: [0.02]}
        """,
    ],
    ids=["convergence", "series-check"],
)
def test_single_epsilon_is_config_error(tmp_path, capsys, cfg):
    out = tmp_path / "o"
    rc = main(["run", write(tmp_path, dedent(cfg)), "--out", str(out)])
    _, err = capsys.readouterr()
    assert rc == 2
    error = json.loads(err)  # one JSON line, no warning text around it
    assert error["error"]["kind"] == "config"
    assert "at least 2" in error["error"]["message"]
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("order", 5, "order must be in 1..4"),
        ("order", 0, "order must be in 1..4"),
        ("horizon", 0.0, "horizon must be positive"),
        ("predict_dt_ratio", 0, "predict_dt_ratio must be a positive integer"),
    ],
)
def test_series_check_bad_setting_is_config_error(tmp_path, capsys, key, value, message):
    cfg = dedent(
        f"""\
        experiment: series-check
        model: {{name: planar-body, actuators: [4]}}
        series-check: {{epsilons: [0.02, 0.01], {key}: {value}}}
        """
    )
    out = tmp_path / "o"
    rc = main(["run", write(tmp_path, cfg), "--out", str(out)])
    _, err = capsys.readouterr()
    assert rc == 2
    error = json.loads(err)
    assert error["error"]["kind"] == "config"
    assert message in error["error"]["message"]
    assert not (out / "run_manifest.json").exists()


NON_NUMERIC = {
    "parameter": ("model: {name: flat}", "model: {name: pvtol, parameters: {mass: heavy}}", "mass"),
    "actuator": ("model: {name: flat}", "model: {name: flat, actuators: [one]}", "actuators"),
    "t1": ("t1: 1.0", "t1: abc", "t1"),
    "q0-entry": ("q0: [0.0, 0.0]", "q0: [0.0, x]", "q0"),
    "signal-value": (
        "controls: [{type: sinusoid, amplitude: 0.5, omega: 2.0}]",
        "controls: [{type: const, value: oops}]",
        "value",
    ),
}


@pytest.mark.parametrize(
    "case, command",
    [(case, "run") for case in NON_NUMERIC] + [("parameter", "validate"), ("actuator", "validate")],
)
def test_non_numeric_config_value_is_config_error(tmp_path, capsys, case, command):
    old, new, key = NON_NUMERIC[case]
    assert old in FLAT_SIM
    out = tmp_path / "o"
    argv = [command, write(tmp_path, FLAT_SIM.replace(old, new))]
    rc = main(argv + (["--out", str(out)] if command == "run" else []))
    _, err = capsys.readouterr()
    assert rc == 2
    error = json.loads(err)  # one JSON line, no traceback
    assert error["error"]["kind"] == "config"
    assert f"'{key}' must be numeric" in error["error"]["message"]
    assert not (out / "run_manifest.json").exists()


OSC_TRACK = dedent(
    """\
    experiment: oscillatory-track
    model: {name: blimp}
    oscillatory-track:
      epsilon: 0.1
      t1: 0.3
      gains:
        z: [{type: const, value: 0.2}]
        pairs: [{pair: [1, 2], type: const, value: 0.5}]
    """
)
CONVERGENCE = dedent(
    """\
    experiment: convergence
    model: {name: flat}
    convergence: {epsilons: [0.2, 0.1], t1: 0.5, gains: {z: [{type: const, value: 0.0}]}}
    """
)
LARC = "experiment: larc\nmodel: {name: three-link}\nlarc: {q: [0.3, -0.2, 0.9]}\n"
SERIES = "experiment: series-check\nmodel: {name: flat}\nseries-check: {epsilons: [0.02, 0.01]}\n"
DECOUPLING = LARC.replace("larc", "decoupling")

# case: (base config, old text, new text, key the error names).  run and validate
# share one parse step, so each case must exit 2 from both
BAD_CONFIG = {
    "too-many-actuators": (
        FLAT_SIM, "model: {name: flat}", "model: {name: blimp, actuators: [1, 2, 3, 4]}",
        "actuators",
    ),
    "name-not-string": (FLAT_SIM, "{name: flat}", "{name: [flat]}", "name"),
    "unknown-model-name": (FLAT_SIM, "{name: flat}", "{name: flot}", "flot"),
    "experiment-not-string": (FLAT_SIM, "experiment: simulate", "experiment: [simulate]", "experiment"),
    "output-not-string": (FLAT_SIM, "experiment:", "output: 5\nexperiment:", "output"),
    "unknown-model-key": (
        FLAT_SIM, "{name: flat}", "{name: flat, gravity: 0.0}", "gravity",
    ),
    "controls-not-list": (
        FLAT_SIM, "controls: [{type: sinusoid, amplitude: 0.5, omega: 2.0}]", "controls: 5",
        "controls",
    ),
    "pair-of-three": (OSC_TRACK, "pair: [1, 2]", "pair: [1, 2, 3]", "pair"),
    "z-not-list": (OSC_TRACK, "z: [{type: const, value: 0.2}]", "z: 0.3", "z"),
    "larc-depth-0": (LARC, "0.9]}", "0.9], depth: 0}", "depth"),
    "decoupling-depth-0": (DECOUPLING, "0.9]}", "0.9], depth: 0}", "depth"),
    # each bracket level costs about 13x the one before: an unbounded depth never finishes
    "larc-depth-5": (LARC, "0.9]}", "0.9], depth: 5}", "depth"),
    "decoupling-depth-huge": (DECOUPLING, "0.9]}", "0.9], depth: 1000000000}", "depth"),
    # a tol outside (0, 1) gives a meaningless rank
    "larc-tol-negative": (LARC, "0.9]}", "0.9], tol: -1}", "tol"),
    "decoupling-tol-0": (DECOUPLING, "0.9]}", "0.9], tol: 0}", "tol"),
    "larc-tol-2": (LARC, "0.9]}", "0.9], tol: 2}", "tol"),
    "track-dt-avg-negative": (OSC_TRACK, "t1: 0.3", "t1: 0.3\n  dt_avg: -0.01", "dt_avg"),
    "convergence-dt-avg-negative": (
        CONVERGENCE, "t1: 0.5", "t1: 0.5, dt_avg: -0.01", "dt_avg",
    ),
    "t1-negative": (FLAT_SIM, "t1: 1.0", "t1: -1.0", "t1"),
    "t1-nan": (FLAT_SIM, "t1: 1.0", "t1: .nan", "t1"),
    "track-t1-zero": (OSC_TRACK, "t1: 0.3", "t1: 0.0", "t1"),
    "convergence-t1-zero": (CONVERGENCE, "t1: 0.5", "t1: 0.0", "t1"),
    "convergence-dt-avg-overflow": (
        CONVERGENCE, "t1: 0.5", "t1: 0.5, dt_avg: 1.0e+308", "dt_avg",
    ),
    "convergence-epsilon-subnormal": (
        CONVERGENCE, "epsilons: [0.2, 0.1]", "epsilons: [1.0e-320, 0.1]", "epsilon",
    ),
    "convergence-epsilon-tiny": (
        CONVERGENCE, "epsilons: [0.2, 0.1]", "epsilons: [1.0e-300, 0.1]", "epsilon",
    ),
    "dt-too-fine": (FLAT_SIM, "{dt: 0.001}", "{dt: 1.0e-300}", "dt"),
    "epsilon-inf": (OSC_TRACK, "epsilon: 0.1", "epsilon: .inf", "epsilon"),
    "unknown-root-key": (
        FLAT_SIM, "experiment:", "extra: .nan\nexperiment:", "extra",
    ),
    "other-experiment-section": (
        FLAT_SIM, "integrator:", "larc: {q: [0.3, -0.2, 0.9]}\nintegrator:", "larc",
    ),
    "section-not-mapping": (
        FLAT_SIM, FLAT_SIM[FLAT_SIM.index("simulate:"):], "simulate: 5\n", "simulate",
    ),
    "integrator-not-mapping": (FLAT_SIM, "{dt: 0.001}", "5", "integrator"),
    "unknown-section-key": (FLAT_SIM, "q0:", "qdot_0: [1.0, 0.0]\n  q0:", "qdot_0"),
    "unknown-integrator-key": (
        FLAT_SIM, "{dt: 0.001}", "{dt: 0.001, metod: euler}", "metod",
    ),
    "integrator-method": (
        FLAT_SIM, "{dt: 0.001}", "{dt: 0.001, method: euler}", "method",
    ),
    "unknown-signal-key": (FLAT_SIM, "amplitude: 0.5", "amplitud: 0.5", "amplitud"),
    "unknown-pair-key": (
        OSC_TRACK, "type: const, value: 0.5", "type: const, valu: 0.5", "valu",
    ),
    "unknown-gains-key": (OSC_TRACK, "    pairs:", "    paris:", "paris"),
    "dt-not-dividing": (FLAT_SIM, "{dt: 0.001}", "{dt: 0.003}", "dt=0.003"),
    "track-dt-avg-not-dividing": (OSC_TRACK, "t1: 0.3", "t1: 0.3\n  dt_avg: 0.07", "dt=0.07"),
    "series-q0-length": (SERIES, "0.01]}", "0.01], q0: [0.0]}", "q0"),
    "both-section-spellings": (
        SERIES, "series-check:", "series_check: {epsilons: [0.02, 0.01]}\nseries-check:",
        "series_check",
    ),
    # a repeated amplitude leaves fewer than 2 distinct points to fit a slope to
    "convergence-epsilons-repeated": (
        CONVERGENCE, "epsilons: [0.2, 0.1]", "epsilons: [0.1, 0.1]", "epsilons",
    ),
    "series-epsilons-repeated": (SERIES, "[0.02, 0.01]", "[0.02, 0.02]", "epsilons"),
    # integer settings take whole numbers only, never a truncated fraction
    "actuators-fraction": (
        FLAT_SIM, "{name: flat}", "{name: planar-body, actuators: [4.7]}", "actuators",
    ),
    "actuators-bool": (FLAT_SIM, "{name: flat}", "{name: flat, actuators: [true]}", "actuators"),
    "pair-fraction": (OSC_TRACK, "pair: [1, 2]", "pair: [1, 2.5]", "pair"),
    "series-order-fraction": (SERIES, "0.01]}", "0.01], order: 2.9}", "order"),
    "series-input-fraction": (SERIES, "0.01]}", "0.01], input: 1.5}", "input"),
    "series-ratio-fraction": (
        SERIES, "0.01]}", "0.01], predict_dt_ratio: 5.5}", "predict_dt_ratio",
    ),
    "larc-depth-string": (LARC, "0.9]}", "0.9], depth: '3'}", "depth"),
    "decoupling-depth-fraction": (DECOUPLING, "0.9]}", "0.9], depth: 2.5}", "depth"),
    "decoupling-seed-bool": (DECOUPLING, "0.9]}", "0.9], seed: true}", "seed"),
    # a number given as a string or a bool is not read as one
    "dt-string": (FLAT_SIM, "{dt: 0.001}", '{dt: "0.001"}', "dt"),
    "dt-exponent-string": (FLAT_SIM, "{dt: 0.001}", '{dt: "1e-3"}', "dt"),
    "dt-exponent-overflow": (FLAT_SIM, "{dt: 0.001}", "{dt: 1e400}", "dt"),
    "t1-string": (FLAT_SIM, "t1: 1.0", 't1: "1.0"', "t1"),
    "q0-strings": (FLAT_SIM, "q0: [0.0, 0.0]", 'q0: ["0.0", "0.0"]', "q0"),
    "control-value-bool": (
        FLAT_SIM, "{type: sinusoid, amplitude: 0.5, omega: 2.0}", "{type: const, value: true}", "value",
    ),
    "model-parameter-bool": (
        FLAT_SIM, "{name: flat}", "{name: pvtol, parameters: {gravity: true}}", "gravity",
    ),
    "epsilons-strings": (CONVERGENCE, "epsilons: [0.2, 0.1]", 'epsilons: ["0.2", 0.1]', "epsilons"),
}


@pytest.mark.parametrize(
    "case, command",
    [(case, command) for case in BAD_CONFIG for command in ("run", "validate")],
)
def test_bad_config_shape_or_range_is_config_error(tmp_path, capsys, monkeypatch, case, command):
    base, old, new, key = BAD_CONFIG[case]
    assert old in base
    monkeypatch.chdir(tmp_path)  # the output-not-string case writes nowhere else
    rc = main([command, write(tmp_path, base.replace(old, new, 1))])
    _, err = capsys.readouterr()
    assert rc == 2
    error = json.loads(err)  # one JSON line, no traceback
    assert error["error"]["kind"] == "config"
    assert key in error["error"]["message"]
    assert not list(tmp_path.rglob("run_manifest.json"))


def test_exponent_literal_without_a_dot_is_a_number(tmp_path, capsys):
    # PyYAML's YAML 1.1 rules read 1e-3 as the string '1e-3'; the config loader reads a float
    runs = {}
    for dt in ("0.001", "1e-3"):
        out = tmp_path / dt
        cfg = write(tmp_path, FLAT_SIM.replace("{dt: 0.001}", f"{{dt: {dt}}}"), f"{dt}.yaml")
        assert main(["run", cfg, "--out", str(out)]) == 0
        runs[dt] = (out / "trajectory.csv").read_bytes()
    capsys.readouterr()
    assert runs["1e-3"] == runs["0.001"]


def test_whole_number_floats_load_as_ints(tmp_path):
    series = SERIES.replace("{name: flat}", "{name: planar-body, actuators: [4.0]}").replace(
        "0.01]}", "0.01], order: 2.0, input: 1.0, predict_dt_ratio: 5.0}"
    )
    _, desc, sysm, _, s = cli.parse_config(write(tmp_path, series))
    assert desc.actuators == (4,) and sysm.m == 1
    assert (s["K"], s["idx"], s["cfg_pred"].dt) == (2, 0, 5 * s["cfg_ref"].dt)
    decoupling = DECOUPLING.replace("0.9]}", "0.9], depth: 2.0}")
    s = cli.parse_config(write(tmp_path, decoupling))[-1]
    assert type(s["depth"]) is int


@pytest.mark.parametrize("case", ["unknown-root-key", "other-experiment-section"])
def test_unknown_root_key_writes_no_artifact(tmp_path, capsys, case):
    base, old, new, _ = BAD_CONFIG[case]
    out = tmp_path / "out"
    assert main(["run", write(tmp_path, base.replace(old, new, 1)), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "base, section",
    [
        ("experiment: series-check\nmodel: {name: flat}\nseries-check: {epsilons: [0.02, 0.01]}\n",
         "series-check"),
        (OSC_TRACK, "oscillatory-track"),
    ],
)
def test_experiment_section_takes_either_spelling(tmp_path, capsys, base, section):
    for spelling in (section, section.replace("-", "_")):
        config = base.replace(f"{section}:", f"{spelling}:", 1)
        assert main(["validate", write(tmp_path, config)]) == 0


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_result_is_json_exit_3(tmp_path, capsys, monkeypatch, value):
    parse = cli.EXPERIMENTS["simulate"][0]
    runner = lambda settings, sys, outdir: ([], {"x": value})  # noqa: E731
    monkeypatch.setitem(cli.EXPERIMENTS, "simulate", (parse, runner))
    out = tmp_path / "out"
    rc = main(["run", write(tmp_path, FLAT_SIM), "--out", str(out)])
    _, err = capsys.readouterr()
    assert rc == 3
    error = json.loads(err)  # one JSON line, no traceback
    assert error["error"]["kind"] == "numerical"
    assert "run_manifest.json" in error["error"]["message"]
    assert not (out / "run_manifest.json").exists()
