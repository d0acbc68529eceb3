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
import dataclasses
import functools
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import ConfigError, GeoctrlError
from .kinematic import MAX_DEPTH, kinematic_controllability, larc_rank
from .models import ModelDescriptor, _whole, build, list_models
from .oscillatory import AveragedGains, convergence_study, member_config, synthesis_audit
from .series import MAX_ORDER, truncation_errors
from .simulation import ControlLaw, IntegratorConfig, State, _write_rows, check_grid, simulate
from .numutil import loglog_slope


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _get(cfg, key, default=None, required=False):
    if key in cfg:
        return cfg[key]
    _require(not required, f"missing config key '{key}'")
    return default


def _number(cfg, key, default=None, required=False, cast=float):
    """cfg[key] (or default) through cast; ConfigError naming key unless it is all finite numbers
    (and whole numbers, for the casts _whole and _ints)."""
    value = _get(cfg, key, default, required)
    try:  # float() and numpy read True as 1.0 and "2" as 2.0
        if any(isinstance(v, (bool, str)) for v in (value if isinstance(value, list) else [value])):
            raise TypeError
        number = cast(value)
        finite = np.isfinite(number).all()
    except (TypeError, ValueError, OverflowError):
        whole = " and whole" if cast in (_whole, _ints) else ""
        raise ConfigError(f"'{key}' must be numeric{whole}, got {value!r}") from None
    _require(finite, f"'{key}' must be finite, got {value!r}")
    return number


def _keys(spec, what, known):
    """spec, or ConfigError unless it is a mapping whose keys are all in known."""
    _require(isinstance(spec, dict), f"'{what}' must be a mapping, got {spec!r}")
    for key in spec:
        _require(key in known, f"unknown '{what}' key {key!r} (known: {', '.join(known)})")
    return spec


def _section(cfg, name, known):
    """The section cfg[name] ({} if absent or null), spelled with '-' or '_', checked by _keys;
    ConfigError if both spellings are present."""
    spellings = [s for s in dict.fromkeys((name, name.replace("-", "_"))) if s in cfg]
    _require(len(spellings) < 2, f"config has both '{name}' and '{name.replace('-', '_')}'")
    key = spellings[0] if spellings else name
    return _keys({} if cfg.get(key) is None else cfg[key], key, known)


def _list(cfg, key, default=None, required=False):
    value = _get(cfg, key, default, required)
    _require(isinstance(value, list), f"'{key}' must be a list, got {value!r}")
    return value


_floats = functools.partial(np.asarray, dtype=float)


def _ints(value):
    return tuple(_whole(x) for x in value)


def _write_json(path, payload, **kwargs):
    """payload as indented JSON; a NaN or infinity in it raises before the file is opened."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False, **kwargs)
    except ValueError as e:
        raise GeoctrlError(f"{path.name}: {e}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


_SIGNAL_KEYS = {"const": ("value",), "sinusoid": ("amplitude", "omega", "phase")}


def parse_signal(spec):
    """const(value) or sinusoid(amplitude, omega, phase) -> callable t."""
    _require(isinstance(spec, dict), f"signal spec must be a mapping, got {spec!r}")
    kind = spec.get("type")
    _require(
        isinstance(kind, str) and kind in _SIGNAL_KEYS,
        f"unknown signal type {kind!r} (use 'const' or 'sinusoid')",
    )
    _keys(spec, "signal", ("type",) + _SIGNAL_KEYS[kind])
    if kind == "const":
        c = _number(spec, "value", 0.0)
        return lambda t, _c=c: _c
    A = _number(spec, "amplitude", 1.0)
    w = _number(spec, "omega", 1.0)
    p = _number(spec, "phase", 0.0)
    return lambda t, _A=A, _w=w, _p=p: _A * math.sin(_w * t + _p)


def parse_gains(spec, m):
    _keys(spec, "gains", ("z", "pairs"))
    zspecs = _list(spec, "z", [])
    _require(len(zspecs) <= m, f"too many z gains for m={m}")
    z = [parse_signal(s) for s in zspecs]
    z += [lambda t: 0.0] * (m - len(z))
    pairs = {}
    for item in _list(spec, "pairs", []):
        _require(
            isinstance(item, dict) and "pair" in item, "pair gain needs a 'pair' key"
        )
        pair = _number(item, "pair", cast=_ints)
        _require(len(pair) == 2, f"'pair' must be two input indices, got {item['pair']!r}")
        a, b = pair
        _require(1 <= a < b <= m, f"bad pair {item['pair']} for m={m}")
        body = {k: v for k, v in item.items() if k != "pair"}
        pairs[(a - 1, b - 1)] = parse_signal(body)
    return AveragedGains(z=z, z_pairs=pairs)


def parse_model(cfg):
    spec = _keys(_get(cfg, "model", required=True), "model", ("name", "parameters", "actuators"))
    _require(isinstance(spec.get("name"), str), "model needs a 'name' string")
    params = spec.get("parameters") or {}
    _require(isinstance(params, dict), "model parameters must be a mapping")
    desc = ModelDescriptor(
        name=spec["name"],
        parameters={k: _number(params, k) for k in params},
        actuators=_number(spec, "actuators", cast=_ints) if "actuators" in spec else None,
    )
    return desc, build(desc)


def parse_integrator(cfg):
    spec = _section(cfg, "integrator", ("method", "dt"))
    method = _get(spec, "method", "rk4")
    _require(method == "rk4", f"unknown integrator method {method!r} (only 'rk4')")
    try:
        return IntegratorConfig(dt=_number(spec, "dt", 1e-3))
    except ValueError as e:
        raise ConfigError(str(e))


def parse_epsilons(spec):
    """The positive amplitude sweep of a convergence-type experiment."""
    eps = _number(spec, "epsilons", required=True, cast=lambda v: [float(e) for e in v])
    _require(len(eps) >= 2, f"epsilons needs at least 2 values to fit a slope, got {len(eps)}")
    _require(all(e > 0 for e in eps), "epsilons must be positive")
    _require(len(set(eps)) == len(eps), f"epsilons must be distinct, got {eps}")
    return eps


def parse_state(spec, n):
    q0 = _number(spec, "q0", [0.0] * n, cast=_floats)
    qd0 = _number(spec, "qdot0", [0.0] * n, cast=_floats)
    _require(q0.shape == (n,) and qd0.shape == (n,), f"q0/qdot0 must have length {n}")
    return State(q=q0, qdot=qd0)


class _ConfigLoader(yaml.SafeLoader):
    """yaml.SafeLoader that also reads an exponent literal without a dot, such as 1e-4, as
    a float (YAML 1.2 does; PyYAML follows YAML 1.1, where it is a string)."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def load_config(path):
    p = Path(path)
    _require(p.exists(), f"config file not found: {path}")
    try:
        with open(p) as fh:
            cfg = yaml.load(fh, Loader=_ConfigLoader)
    except yaml.YAMLError as e:
        raise ConfigError(f"could not parse {path}: {e}")
    _require(isinstance(cfg, dict), "config root must be a mapping")
    tag = _get(cfg, "experiment", required=True)
    known = ", ".join(EXPERIMENTS)
    _require(isinstance(tag, str) and tag in EXPERIMENTS, f"unknown experiment {tag!r} (known: {known})")
    # the experiment's own section, spelled with '-' or '_'
    sections = dict.fromkeys((tag, tag.replace("-", "_")))
    return _keys(cfg, "config", ("experiment", "model", "integrator", "output", *sections))


# -- experiments -----------------------------------------------------------------
#
# Each experiment has a parse step, (cfg, sys) -> settings, that checks its
# whole section, and a runner, (settings, sys, outdir) -> (artifacts,
# results), that only executes.  validate and run share the parse steps, so
# validate rejects every config that run rejects.


def _parse_simulate(cfg, sys):
    spec = _section(cfg, "simulate", ("t0", "t1", "q0", "qdot0", "controls"))
    t0 = _number(spec, "t0", 0.0)
    t1 = _number(spec, "t1", required=True)
    x0 = parse_state(spec, sys.n)
    specs = _list(spec, "controls", required=True)
    _require(len(specs) == sys.m, f"need {sys.m} control specs, got {len(specs)}")
    signals = [parse_signal(s) for s in specs]
    integrator = parse_integrator(cfg)
    check_grid(t0, t1, integrator.dt)
    law = ControlLaw.of_time(lambda t: np.array([s(t) for s in signals]))
    return {"law": law, "x0": x0, "t0": t0, "t1": t1, "integrator": integrator}


def _exp_simulate(s, sys, outdir):
    traj = simulate(sys, s["law"], s["x0"], s["t0"], s["t1"], s["integrator"])
    traj.write_csv(outdir / "trajectory.csv")
    return ["trajectory.csv"], {"samples": traj.n_samples}


def _parse_series_check(cfg, sys):
    spec = _section(
        cfg, "series-check",
        ("order", "epsilons", "horizon", "input", "signal", "q0", "predict_dt_ratio"),
    )
    K = _number(spec, "order", 2, cast=_whole)
    _require(1 <= K <= MAX_ORDER, f"series order must be in 1..{MAX_ORDER}, got {K}")
    eps = parse_epsilons(spec)
    T = _number(spec, "horizon", 1.0)
    _require(T > 0, f"horizon must be positive, got {T}")
    idx = _number(spec, "input", 1, cast=_whole) - 1
    _require(0 <= idx < sys.m, f"input index out of range 1..{sys.m}")
    base = parse_signal(spec.get("signal", {"type": "sinusoid"}))
    q0 = _number(spec, "q0", [0.0] * sys.n, cast=_floats)
    _require(q0.shape == (sys.n,), f"q0 must have length {sys.n}")
    cfg_ref = parse_integrator(cfg)
    ratio = _number(spec, "predict_dt_ratio", 5, cast=_whole)
    _require(ratio >= 1, f"predict_dt_ratio must be a positive integer, got {ratio}")
    cfg_pred = IntegratorConfig(dt=cfg_ref.dt * ratio)
    for dt in (cfg_ref.dt, cfg_pred.dt):
        check_grid(0.0, T, dt)
    return {"K": K, "eps": eps, "T": T, "idx": idx, "base": base, "q0": q0,
            "cfg_ref": cfg_ref, "cfg_pred": cfg_pred}


def _exp_series_check(s, sys, outdir):
    idx, base, eps = s["idx"], s["base"], s["eps"]

    def make_inputs(e):
        return [
            (lambda t, _e=e: _e * base(t)) if a == idx else (lambda t: 0.0)
            for a in range(sys.m)
        ]

    (errs,) = truncation_errors(
        sys, make_inputs, [s["K"]], s["q0"], s["T"], eps, s["cfg_pred"], s["cfg_ref"]
    )
    _write_rows(outdir / "series_convergence.csv", ["epsilon", "err"], [eps, errs])
    slope = loglog_slope(eps, errs)
    slope = slope if math.isfinite(slope) else None  # NaN: no slope (a zero error)
    return ["series_convergence.csv"], {"order": s["K"], "slope": slope}


def _parse_point_search(cfg, sys):
    """The q, depth and tol of a decoupling or larc section."""
    spec = _section(cfg, cfg["experiment"], ("q", "depth", "tol"))
    q = _number(spec, "q", required=True, cast=_floats)
    _require(q.shape == (sys.n,), f"q must have length {sys.n}")
    depth = _number(spec, "depth", 2, cast=_whole)
    _require(1 <= depth <= MAX_DEPTH, f"'depth' must be in 1..{MAX_DEPTH}, got {depth}")
    tol = _number(spec, "tol", 1e-8)
    _require(0 < tol < 1, f"'tol' must be in (0, 1), got {tol}")
    return {"q": q, "depth": depth, "tol": tol}


def _exp_decoupling(s, sys, outdir):
    report, cands = kinematic_controllability(
        sys, s["q"], max_depth=s["depth"], tol=s["tol"]
    )
    _write_json(outdir / "controllability.json", dataclasses.asdict(report))
    return ["controllability.json"], {
        "fields_found": len(cands),
        "verdict": report.verdict,
    }


def _exp_larc(s, sys, outdir):
    fields = [sys.input_field(a) for a in range(sys.m)]
    report = larc_rank(fields, s["q"], max_depth=s["depth"], tol=s["tol"])
    _write_json(outdir / "controllability.json", dataclasses.asdict(report))
    return ["controllability.json"], {"rank": report.rank, "verdict": report.verdict}


_AVERAGING_KEYS = ("t1", "gains", "q0", "qdot0", "dt_avg")


def _parse_averaging(spec, sys, eps):
    """The settings an averaging section shares; member_config checks each eps member's grid."""
    t1 = _number(spec, "t1", required=True)
    _require(t1 > 0, f"'t1' must be positive, got {t1}")
    gains = parse_gains(_get(spec, "gains", required=True), sys.m)
    x0 = parse_state(spec, sys.n)
    dt_avg = _number(spec, "dt_avg", 1e-2)
    _require(dt_avg > 0, f"'dt_avg' must be positive, got {dt_avg}")
    for e in eps:
        member_config(dt_avg, e, t1)
    return {"eps": eps, "t1": t1, "gains": gains, "x0": x0, "dt_avg": dt_avg}


def _parse_oscillatory_track(cfg, sys):
    spec = _section(cfg, "oscillatory-track", _AVERAGING_KEYS + ("epsilon",))
    eps = _number(spec, "epsilon", required=True)
    _require(eps > 0, "epsilon must be positive")
    return _parse_averaging(spec, sys, [eps])


def _exp_oscillatory_track(s, sys, outdir):
    study = convergence_study(sys, s["gains"], s["x0"], s["t1"], s["eps"], dt_avg=s["dt_avg"])
    study.members[0].write_csv(outdir / "true.csv")
    study.averaged.write_csv(outdir / "averaged.csv")
    audit = synthesis_audit(s["gains"])
    _write_json(outdir / "synthesis_audit.json", audit)
    return ["true.csv", "averaged.csv", "synthesis_audit.json"], {
        "epsilon": s["eps"][0],
        "max_tracking_err": float(study.errors[0]),
        "audit_max_difference": audit["max_difference"],
    }


def _parse_convergence(cfg, sys):
    spec = _section(cfg, "convergence", _AVERAGING_KEYS + ("epsilons",))
    return _parse_averaging(spec, sys, parse_epsilons(spec))


def _exp_convergence(s, sys, outdir):
    study = convergence_study(sys, s["gains"], s["x0"], s["t1"], s["eps"], dt_avg=s["dt_avg"])
    study.write_csv(outdir / "convergence.csv")
    slope = study.slope
    slope = slope if math.isfinite(slope) else None  # NaN: no slope (a zero error)
    return ["convergence.csv"], {"slope": slope, "errors": study.errors.tolist()}


# tag: (parse step, runner)
EXPERIMENTS = {
    "simulate": (_parse_simulate, _exp_simulate),
    "series-check": (_parse_series_check, _exp_series_check),
    "decoupling": (_parse_point_search, _exp_decoupling),
    "larc": (_parse_point_search, _exp_larc),
    "oscillatory-track": (_parse_oscillatory_track, _exp_oscillatory_track),
    "convergence": (_parse_convergence, _exp_convergence),
}


def parse_config(path):
    """The config at path, checked in full: (cfg, model descriptor, system,
    output directory name, experiment settings); ConfigError on any problem."""
    cfg = load_config(path)
    desc, sysm = parse_model(cfg)
    output = _get(cfg, "output", "geoctrl-out")
    _require(isinstance(output, str), f"'output' must be a directory name, got {output!r}")
    return cfg, desc, sysm, output, EXPERIMENTS[cfg["experiment"]][0](cfg, sysm)


# -- driver ----------------------------------------------------------------------


def _failed(exc):
    """Report exc as one JSON line on stderr, never a stack dump; its exit code:
    2 for a config problem, 3 for a numerical failure or any other exception."""
    if isinstance(exc, ConfigError):
        kind, rc = "config", 2
    else:
        kind, rc = ("numerical" if isinstance(exc, GeoctrlError) else "internal"), 3
    payload = {"error": {"type": type(exc).__name__, "kind": kind, "message": str(exc)}}
    print(json.dumps(payload), file=sys.stderr)
    return rc


def _parsed(path):
    """(parse_config(path), 0), or (None, exit code) after reporting why it failed."""
    try:
        return parse_config(path), 0
    except Exception as e:
        return None, _failed(e)


def cmd_run(args):
    parsed, rc = _parsed(args.config)
    if parsed is None:
        return rc
    cfg, desc, sysm, output, settings = parsed
    outdir = Path(args.out or output)
    tag = cfg["experiment"]
    started = time.time()
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        artifacts, results = EXPERIMENTS[tag][1](settings, sysm, outdir)
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
        _write_json(outdir / "run_manifest.json", manifest, default=float)
    except Exception as e:
        return _failed(e)
    print(json.dumps({"ok": True, "out": str(outdir), "artifacts": artifacts}))
    return 0


def cmd_validate(args):
    parsed, rc = _parsed(args.config)
    if parsed is None:
        return rc
    cfg, desc, sysm, _, _ = parsed
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
