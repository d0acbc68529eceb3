"""Acceptance gate: the numbered end-to-end guarantees this package ships.

Each test prints one `criterion NN PASS/FAIL ...` line (visible with -s,
or in the captured output of a failure) and asserts the same condition,
so `pytest -v tests/test_acceptance.py` reads as a checklist.  The
tolerances here are load-bearing: they pin the accuracy the library
promises, so loosening them is a behavior change, not a cleanup.
"""

import math

import numpy as np

from geoctrl import (
    AveragedGains,
    MechanicalSystem,
    TimeScaling,
    candidate_from_direction,
    convergence_study,
    decoupling_residual,
    find_decoupling_fields,
    geodesic_spray,
    homogeneity_error,
    kinematic_plan,
    larc_rank,
    lift,
    lifted_lie_bracket,
    make,
    reconstruct_inputs,
    symmetric_product,
    synthesis_audit,
    truncation_errors,
)
from geoctrl.cli import main
from geoctrl.kinematic import PlanSegment
from geoctrl.simulation import IntegratorConfig, State


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


# -- 1: the lift identity ties brackets to symmetric products ---------------------


def test_criterion_01_lift_identity_on_random_states():
    # <Ya : Yb>^lift == [Yb^lift, [Z, Ya^lift]] with analytic model derivatives
    worst = 0.0
    for name, count, seed in (("three-link", 50, 1), ("pvtol", 50, 2)):
        sys = make(name, gravity=0.0)
        Z = geodesic_spray(sys)
        rng = np.random.default_rng(seed)
        for _ in range(count):
            q = rng.uniform(-1.0, 1.0, sys.n)
            qd = rng.uniform(-1.0, 1.0, sys.n)
            x = np.concatenate([q, qd])
            for a in range(sys.m):
                for b in range(sys.m):
                    Ya, Yb = sys.input_field(a), sys.input_field(b)
                    got = lifted_lie_bracket(lift(Yb), lifted_lie_bracket(Z, lift(Ya)))(x)
                    want = np.concatenate(
                        [np.zeros(sys.n), symmetric_product(sys, Ya, Yb, q)]
                    )
                    rel = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
                    worst = max(worst, rel)
    _report(1, worst < 1e-6, f"lift identity worst rel err {worst:.2e} at 100 states")


# -- 2: homogeneity classes and their bracket arithmetic --------------------------


def test_criterion_02_homogeneity_classes_add_under_bracket():
    sys = make("three-link", gravity=0.0)
    Z = geodesic_spray(sys)
    Y0 = lift(sys.input_field(0))
    B1 = lifted_lie_bracket(Z, Y0)  # class 1 + (-1) = 0
    B2 = lifted_lie_bracket(Y0, B1)  # class -1 + 0 = -1
    assert (B1.hclass, B2.hclass) == (0, -1)
    rng = np.random.default_rng(3)
    exact = 0.0
    closure = 0.0
    for _ in range(10):
        q = rng.uniform(-1.0, 1.0, 3)
        qd = rng.uniform(-1.0, 1.0, 3)
        for lam in (2.0, 3.0):
            exact = max(exact, homogeneity_error(Z, q, qd, lam))
            closure = max(closure, homogeneity_error(B1, q, qd, lam))
            closure = max(closure, homogeneity_error(B2, q, qd, lam))
    _report(
        2,
        exact < 1e-12 and closure < 1e-8,
        f"spray scaling err {exact:.2e}, bracket-class err {closure:.2e}",
    )


# -- 3: Christoffel symbols against hand values ------------------------------------


def _warped_plane(analytic):
    # M = diag(1, 1 + q1^2): nonzero symbols are G^1_22 = -q1 and
    # G^2_12 = G^2_21 = q1 / (1 + q1^2)
    def dinertia(q):
        dM = np.zeros((2, 2, 2))
        dM[1, 1, 0] = 2.0 * q[0]
        return dM

    return MechanicalSystem(
        n=2,
        inertia=lambda q: np.diag([1.0, 1.0 + q[0] ** 2]),
        input_covectors=[lambda q: np.array([1.0, 0.0])],
        dinertia=dinertia if analytic else None,
        dinput_covectors=[lambda q: np.zeros((2, 2))] if analytic else None,
    )


def test_criterion_03_christoffel_hand_oracle():
    def hand(q):
        G = np.zeros((2, 2, 2))
        G[0, 1, 1] = -q[0]
        G[1, 0, 1] = G[1, 1, 0] = q[0] / (1.0 + q[0] ** 2)
        return G

    worst_an = 0.0
    worst_fd = 0.0
    for q1 in (-1.4, -0.3, 0.5, 1.0, 2.1):
        q = np.array([q1, 0.7])
        worst_an = max(
            worst_an, np.abs(_warped_plane(True).at(q).Gamma - hand(q)).max()
        )
        worst_fd = max(
            worst_fd, np.abs(_warped_plane(False).at(q).Gamma - hand(q)).max()
        )
    _report(
        3,
        worst_an < 1e-10 and worst_fd < 1e-5,
        f"analytic err {worst_an:.2e}, finite-difference err {worst_fd:.2e}",
    )


# -- 4: series truncation order on the planar rigid body --------------------------


def test_criterion_04_series_truncation_order():
    sys = make("planar-body", actuators=(4,))  # offset thruster: curvature matters
    q0 = np.zeros(3)
    T = 3.0
    eps = [0.02, 0.01, 0.005, 0.0025]
    cfg_ref = IntegratorConfig(dt=1e-3)
    cfg_pred = IntegratorConfig(dt=5e-3)

    def make_forcing(e):
        return [lambda t, _e=e: _e * math.sin(t)]

    # one reference simulation per amplitude serves all three orders
    errs = truncation_errors(sys, make_forcing, (1, 2, 3), q0, T, eps, cfg_pred, cfg_ref)
    slopes = {K: float(np.polyfit(np.log(eps), np.log(row), 1)[0]) for K, row in zip((1, 2, 3), errs)}
    ok = all(abs(slopes[K] - (K + 1)) <= 0.3 for K in (1, 2, 3))
    _report(
        4,
        ok,
        "error slopes "
        + ", ".join(f"K={K}: {slopes[K]:.2f} (want {K + 1})" for K in (1, 2, 3)),
    )


# -- 5: kinematic controllability of the 3R arm, every actuator pair ---------------


def test_criterion_05_three_link_all_pairs_kinematically_controllable():
    rng = np.random.default_rng(0)
    worst = 0.0
    for pair in ((1, 2), (1, 3), (2, 3)):
        sys = make("three-link", actuators=pair)
        for q in rng.uniform(-np.pi, np.pi, size=(20, 3)):
            sol = find_decoupling_fields(sys, q)
            if sol.all_directions:
                # identically zero quadratic (cyclic unactuated joint):
                # every direction decouples, take the coordinate pair
                hs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
            else:
                assert len(sol.directions) >= 2, (pair, q)
                hs = sol.directions
            cands = [candidate_from_direction(sys, q, h) for h in hs]
            for c in cands:
                worst = max(worst, decoupling_residual(sys, c.field, q))
            rep = larc_rank([c.field for c in cands], q, max_depth=2, tol=1e-8)
            assert (rep.rank, rep.depth) == (3, 2), (pair, q, rep.rank, rep.depth)
    _report(
        5,
        worst < 1e-8,
        f"3 pairs x 20 configs: >=2 directions, depth-2 rank 3, "
        f"worst residual {worst:.2e}",
    )


# -- 6: planned motions are exactly realizable under any time scaling --------------


def test_criterion_06_plan_reconstruction_residual_across_scalings():
    sys = make("three-link")
    q0 = np.array([0.4, 0.9, -1.3])
    h = find_decoupling_fields(sys, q0).directions[1]
    # dt per case keeps the central-difference validation error at the
    # trapezoid acceleration corners (O(dt) there) under the residual bound
    cases = [
        ("cubic", 1.0, 5e-4),
        ("cubic", 2.0, 1e-3),
        ("cubic", 5.0, 2.5e-3),
        ("trapezoidal", 1.0, 8e-6),
        ("trapezoidal", 2.0, 2.5e-5),
        ("trapezoidal", 5.0, 2.5e-4),
    ]
    worst = 0.0
    details = []
    for profile, T, dt in cases:
        scaling = (
            TimeScaling.cubic(T) if profile == "cubic" else TimeScaling.trapezoidal(T)
        )
        seg = PlanSegment(
            candidate=candidate_from_direction(sys, q0, h), sign=-1.0, scaling=scaling
        )
        traj = kinematic_plan(sys, [seg], q0, IntegratorConfig(dt=dt), validate=False)
        res = reconstruct_inputs(sys, traj).max_residual
        worst = max(worst, res)
        details.append(f"{profile} T={T:g}: {res:.1e}")
    _report(6, worst < 1e-6, "; ".join(details))


# -- 7: averaging error is first order in epsilon ----------------------------------


def test_criterion_07_oscillatory_tracking_first_order_in_epsilon():
    sys = make("pvtol", gravity=0.0)
    gains = AveragedGains.constant([0.3, 0.2], {(0, 1): 0.5})
    x0 = State(q=np.zeros(3), qdot=np.zeros(3))
    eps = [0.1, 0.05, 0.025, 0.0125]
    study = convergence_study(sys, gains, x0, 2.0, eps)
    monotone = bool(np.all(np.diff(study.errors) < 0.0))
    ok = 0.7 <= study.slope <= 1.3 and monotone
    _report(
        7,
        ok,
        f"slope {study.slope:.3f}, errors "
        + " > ".join(f"{e:.3g}" for e in study.errors),
    )


# -- 8: the averaged-coefficient identities behind the synthesis -------------------


def test_criterion_08_synthesis_coefficient_identities():
    audits = {
        2: synthesis_audit(AveragedGains.constant([0.3, -0.2], {(0, 1): 0.7})),
        3: synthesis_audit(
            AveragedGains(
                z=[lambda t: 0.1, lambda t: 0.0, lambda t: -0.2],
                z_pairs={
                    (0, 1): lambda t: 0.5 * math.sin(t),
                    (0, 2): lambda t: -0.4,
                    (1, 2): lambda t: 0.3,
                },
            )
        ),
    }
    diag = max(
        d["difference"] for audit in audits.values() for d in audit["diagonal"]
    )
    pairs = max(p["difference"] for audit in audits.values() for p in audit["pairs"])
    for m, audit in audits.items():
        assert len(audit["times"]) == 20, m
    _report(
        8,
        diag < 1e-6 and pairs < 1e-6,
        f"diagonal cancellation err {diag:.2e}, pair-gain err {pairs:.2e} (m=2,3)",
    )


# -- 9: byte-identical reruns -------------------------------------------------------


def test_criterion_09_identical_runs_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "experiment: simulate\n"
        "model: {name: pvtol}\n"
        "integrator: {dt: 0.002}\n"
        "simulate:\n"
        "  t1: 1.0\n"
        "  q0: [0.0, 0.0, 0.0]\n"
        "  controls:\n"
        "    - {type: sinusoid, amplitude: 0.3, omega: 3.0}\n"
        "    - {type: const, value: 0.1}\n"
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", str(cfg), "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    _report(9, a == b and len(a) > 0, f"{len(a)} CSV bytes, reruns identical")
