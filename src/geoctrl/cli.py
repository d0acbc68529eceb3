"""Command-line front end: run experiments from a YAML config file.

    geoctrl run <config.yaml> [--out DIR]
    geoctrl list-models
    geoctrl validate <config.yaml>

A config names a model, an experiment tag and its parameters; runs write
CSV/JSON artifacts plus a run manifest into the output directory.  All
errors are reported as JSON objects on stderr (exit 2 for configuration
problems, 3 for numerical failures), never as tracebacks.  Identical
configs produce byte-identical CSV payloads.

Example config::

    experiment: simulate
    model: {name: flat, actuators: [1]}
    integrator: {dt: 0.001}
    simulate:
      t1: 1.0
      q0: [0.0, 0.0]
      controls: [{type: const, value: 0.0}]

Gain/control signals are restricted to `const(value)` and
`sinusoid(amplitude, omega, phase)`; sweeps and grids take plain lists.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import ConfigError, GeoctrlError
from .kinematic import kinematic_controllability, larc_rank
from .models import ModelDescriptor, build, list_models
from .oscillatory import (
    AveragedGains,
    averaged_system,
    convergence_study,
    synthesis_audit,
    synthesize_controls,
)
from .series import ForcingField, truncation_errors
from .simulation import ControlLaw, IntegratorConfig, State, simulate
from .numutil import format_sig17, loglog_slope

EXPERIMENTS = (
    "simulate",
    "series-check",
    "decoupling",
    "larc",
    "oscillatory-track",
    "convergence",
)


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _get(cfg, key, default=None, required=False):
    if key in cfg:
        return cfg[key]
    _require(not required, f"missing config key '{key}'")
    return default


def parse_signal(spec):
    """const(value) or sinusoid(amplitude, omega, phase) -> callable t."""
    _require(isinstance(spec, dict), f"signal spec must be a mapping, got {spec!r}")
    kind = spec.get("type")
    if kind == "const":
        c = float(spec.get("value", 0.0))
        return lambda t, _c=c: _c
    if kind == "sinusoid":
        A = float(spec.get("amplitude", 1.0))
        w = float(spec.get("omega", 1.0))
        p = float(spec.get("phase", 0.0))
        return lambda t, _A=A, _w=w, _p=p: _A * math.sin(_w * t + _p)
    raise ConfigError(f"unknown signal type {kind!r} (use 'const' or 'sinusoid')")


def parse_gains(spec, m):
    _require(isinstance(spec, dict), "gains must be a mapping with keys z / pairs")
    zspecs = spec.get("z", [])
    _require(len(zspecs) <= m, f"too many z gains for m={m}")
    z = [parse_signal(s) for s in zspecs]
    z += [lambda t: 0.0] * (m - len(z))
    pairs = {}
    for item in spec.get("pairs", []):
        _require(
            isinstance(item, dict) and "pair" in item, "pair gain needs a 'pair' key"
        )
        a, b = (int(x) for x in item["pair"])
        _require(1 <= a < b <= m, f"bad pair {item['pair']} for m={m}")
        body = {k: v for k, v in item.items() if k != "pair"}
        pairs[(a - 1, b - 1)] = parse_signal(body)
    return AveragedGains(z=z, z_pairs=pairs)


def parse_model(cfg):
    spec = _get(cfg, "model", required=True)
    _require(isinstance(spec, dict) and "name" in spec, "model needs a 'name'")
    acts = spec.get("actuators")
    desc = ModelDescriptor(
        name=spec["name"],
        parameters={k: float(v) for k, v in (spec.get("parameters") or {}).items()},
        actuators=tuple(int(a) for a in acts) if acts is not None else None,
    )
    return desc, build(desc)


def parse_integrator(cfg):
    spec = cfg.get("integrator") or {}
    try:
        return IntegratorConfig(
            method=spec.get("method", "rk4"), dt=float(spec.get("dt", 1e-3))
        )
    except ValueError as e:
        raise ConfigError(str(e))


def parse_epsilons(spec):
    """The positive amplitude sweep of a convergence-type experiment."""
    eps = [float(e) for e in _get(spec, "epsilons", required=True)]
    _require(len(eps) >= 2, f"epsilons needs at least 2 values to fit a slope, got {len(eps)}")
    _require(all(e > 0 for e in eps), "epsilons must be positive")
    return eps


def parse_state(spec, n):
    q0 = np.asarray(spec.get("q0", [0.0] * n), dtype=float)
    qd0 = np.asarray(spec.get("qdot0", [0.0] * n), dtype=float)
    _require(q0.shape == (n,) and qd0.shape == (n,), f"q0/qdot0 must have length {n}")
    return State(q=q0, qdot=qd0)


def load_config(path):
    p = Path(path)
    _require(p.exists(), f"config file not found: {path}")
    try:
        with open(p) as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as e:
        raise ConfigError(f"could not parse {path}: {e}")
    _require(isinstance(cfg, dict), "config root must be a mapping")
    tag = _get(cfg, "experiment", required=True)
    _require(tag in EXPERIMENTS, f"unknown experiment {tag!r} (known: {', '.join(EXPERIMENTS)})")
    return cfg


# -- experiments -----------------------------------------------------------------


def _exp_simulate(cfg, sys, outdir):
    spec = cfg.get("simulate") or {}
    t0 = float(spec.get("t0", 0.0))
    t1 = float(_get(spec, "t1", required=True))
    x0 = parse_state(spec, sys.n)
    specs = _get(spec, "controls", required=True)
    _require(len(specs) == sys.m, f"need {sys.m} control specs, got {len(specs)}")
    signals = [parse_signal(s) for s in specs]
    law = ControlLaw.of_time(lambda t: np.array([s(t) for s in signals]))
    traj = simulate(sys, law, x0, t0, t1, parse_integrator(cfg))
    traj.write_csv(outdir / "trajectory.csv")
    return ["trajectory.csv"], {"samples": traj.n_samples}


def _exp_series_check(cfg, sys, outdir):
    spec = cfg.get("series_check") or cfg.get("series-check") or {}
    K = int(spec.get("order", 2))
    eps = parse_epsilons(spec)
    T = float(spec.get("horizon", 1.0))
    idx = int(spec.get("input", 1)) - 1
    _require(0 <= idx < sys.m, f"input index out of range 1..{sys.m}")
    base = parse_signal(spec.get("signal", {"type": "sinusoid"}))
    q0 = np.asarray(spec.get("q0", [0.0] * sys.n), dtype=float)
    cfg_ref = parse_integrator(cfg)
    ratio = int(spec.get("predict_dt_ratio", 5))
    cfg_pred = IntegratorConfig(dt=cfg_ref.dt * ratio)

    def make_forcing(e):
        inputs = [
            (lambda t, _e=e: _e * base(t)) if a == idx else (lambda t: 0.0)
            for a in range(sys.m)
        ]
        return ForcingField.from_system(sys, inputs)

    def reference(e):
        law = ControlLaw.of_time(
            lambda t: np.array([e * base(t) if a == idx else 0.0 for a in range(sys.m)])
        )
        return simulate(sys, law, State(q=q0, qdot=np.zeros(sys.n)), 0.0, T, cfg_ref)

    errs = truncation_errors(sys, make_forcing, K, q0, T, eps, cfg_pred, reference)
    with open(outdir / "series_convergence.csv", "w") as fh:
        fh.write("epsilon,err\n")
        for e, err in zip(eps, errs):
            fh.write(f"{format_sig17(e)},{format_sig17(err)}\n")
    slope = loglog_slope(eps, errs) if np.all(errs > 0) else None
    return ["series_convergence.csv"], {"order": K, "slope": slope}


def _exp_decoupling(cfg, sys, outdir):
    spec = cfg.get("decoupling") or {}
    q = np.asarray(_get(spec, "q", required=True), dtype=float)
    _require(q.shape == (sys.n,), f"q must have length {sys.n}")
    report, cands = kinematic_controllability(
        sys,
        q,
        max_depth=int(spec.get("depth", 2)),
        tol=float(spec.get("tol", 1e-8)),
        seed=int(spec.get("seed", 0)),
    )
    with open(outdir / "controllability.json", "w") as fh:
        json.dump(report.as_dict(), fh, indent=2)
        fh.write("\n")
    return ["controllability.json"], {
        "fields_found": len(cands),
        "verdict": report.verdict,
    }


def _exp_larc(cfg, sys, outdir):
    spec = cfg.get("larc") or {}
    q = np.asarray(_get(spec, "q", required=True), dtype=float)
    _require(q.shape == (sys.n,), f"q must have length {sys.n}")
    fields = [sys.input_field(a) for a in range(sys.m)]
    report = larc_rank(
        fields,
        q,
        max_depth=int(spec.get("depth", 2)),
        tol=float(spec.get("tol", 1e-8)),
        n=sys.n,
    )
    with open(outdir / "controllability.json", "w") as fh:
        json.dump(report.as_dict(), fh, indent=2)
        fh.write("\n")
    return ["controllability.json"], {"rank": report.rank, "verdict": report.verdict}


def _exp_oscillatory_track(cfg, sys, outdir):
    spec = cfg.get("oscillatory_track") or cfg.get("oscillatory-track") or {}
    eps = float(_get(spec, "epsilon", required=True))
    _require(eps > 0, "epsilon must be positive")
    t1 = float(_get(spec, "t1", required=True))
    gains = parse_gains(_get(spec, "gains", required=True), sys.m)
    x0 = parse_state(spec, sys.n)
    dt_avg = float(spec.get("dt_avg", 1e-2))
    sub = max(1, math.ceil(dt_avg * 100 / (eps * 2 * math.pi)))
    control = synthesize_controls(sys, gains, eps)
    true_traj = simulate(
        sys, control.as_control_law(), x0, 0.0, t1, IntegratorConfig(dt=dt_avg / sub)
    )
    avg_traj = averaged_system(sys, gains).simulate(
        x0, 0.0, t1, IntegratorConfig(dt=dt_avg)
    )
    true_traj.write_csv(outdir / "true.csv")
    avg_traj.write_csv(outdir / "averaged.csv")
    audit = synthesis_audit(gains)
    with open(outdir / "synthesis_audit.json", "w") as fh:
        json.dump(audit, fh, indent=2)
        fh.write("\n")
    err = float(
        np.max(np.linalg.norm(true_traj.qs[::sub] - avg_traj.qs, axis=1))
    )
    return ["true.csv", "averaged.csv", "synthesis_audit.json"], {
        "epsilon": eps,
        "max_tracking_err": err,
        "audit_max_difference": audit["max_difference"],
    }


def _exp_convergence(cfg, sys, outdir):
    spec = cfg.get("convergence") or {}
    eps = parse_epsilons(spec)
    t1 = float(_get(spec, "t1", required=True))
    gains = parse_gains(_get(spec, "gains", required=True), sys.m)
    x0 = parse_state(spec, sys.n)
    study = convergence_study(
        sys, gains, x0, t1, eps, dt_avg=float(spec.get("dt_avg", 1e-2))
    )
    study.write_csv(outdir / "convergence.csv")
    return ["convergence.csv"], {"slope": study.slope, "errors": study.errors.tolist()}


_RUNNERS = {
    "simulate": _exp_simulate,
    "series-check": _exp_series_check,
    "decoupling": _exp_decoupling,
    "larc": _exp_larc,
    "oscillatory-track": _exp_oscillatory_track,
    "convergence": _exp_convergence,
}


# -- driver ----------------------------------------------------------------------


def _emit_error(exc, kind):
    payload = {"error": {"type": type(exc).__name__, "kind": kind, "message": str(exc)}}
    print(json.dumps(payload), file=sys.stderr)


def cmd_run(args):
    try:
        cfg = load_config(args.config)
        desc, sysm = parse_model(cfg)
        outdir = Path(args.out) if args.out else Path(_get(cfg, "output", "geoctrl-out"))
    except (ConfigError, GeoctrlError) as e:
        _emit_error(e, "config")
        return 2
    tag = cfg["experiment"]
    started = time.time()
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        artifacts, results = _RUNNERS[tag](cfg, sysm, outdir)
    except ConfigError as e:
        _emit_error(e, "config")
        return 2
    except GeoctrlError as e:
        _emit_error(e, "numerical")
        return 3
    except Exception as e:  # never a stack dump
        _emit_error(e, "internal")
        return 3
    manifest = {
        "experiment": tag,
        "config": cfg,
        "model": {"name": desc.name, "n": sysm.n, "m": sysm.m},
        "versions": {
            "geoctrl": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
        "wall_time_s": time.time() - started,
        "artifacts": artifacts,
        "results": results,
    }
    with open(outdir / "run_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=float)
        fh.write("\n")
    print(json.dumps({"ok": True, "out": str(outdir), "artifacts": artifacts}))
    return 0


def cmd_validate(args):
    try:
        cfg = load_config(args.config)
        desc, sysm = parse_model(cfg)
    except (ConfigError, GeoctrlError) as e:
        _emit_error(e, "config")
        return 2
    print(
        json.dumps(
            {
                "ok": True,
                "experiment": cfg["experiment"],
                "model": desc.name,
                "n": sysm.n,
                "m": sysm.m,
            }
        )
    )
    return 0


def cmd_list_models(args):
    for entry in list_models():
        print(f"{entry['name']} (n={entry['dof']}): {entry['description']}")
        print(f"  inputs: {', '.join(entry['inputs'])}")
        print(f"  default actuators: {entry['default_actuators']}")
        if entry["parameters"]:
            pars = ", ".join(f"{k}={v:g}" for k, v in sorted(entry["parameters"].items()))
            print(f"  parameters: {pars}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="geoctrl", description="geometric control experiments for mechanical systems"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.set_defaults(func=cmd_run)
    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)
    p_list = sub.add_parser("list-models", help="describe the built-in models")
    p_list.set_defaults(func=cmd_list_models)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
