"""Fixed-step integration, energy behavior, input reconstruction, CSV I/O."""

import dataclasses
import functools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geoctrl import (
    ControlLaw,
    IntegratorConfig,
    MechanicalSystem,
    State,
    Trajectory,
    make,
    read_trajectory_csv,
    reconstruct_inputs,
    simulate,
    simulate_forced,
)
from geoctrl import geometry
from geoctrl.errors import ConfigError, NonFiniteStateError, SingularInertiaError
from geoctrl.geometry import PointData, constant_inertia
from geoctrl.numutil import loglog_slope
from geoctrl.simulation import _acceleration, _rk4


def rest(n):
    return State(q=np.zeros(n), qdot=np.zeros(n))


def test_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        State(q=np.array([np.nan, 0.0]), qdot=np.zeros(2))
    with pytest.raises(ValueError):
        State(q=np.zeros(2), qdot=np.zeros(3))


def test_kernel_reading_law_gets_the_stage_point():
    sys = make("pvtol")
    cfg = IntegratorConfig(dt=1e-2)
    x0 = State(q=np.array([0.1, -0.2, 0.3]), qdot=np.array([0.0, 0.4, -0.1]))
    seen = []

    def ev(t, q, qd):
        seen.append(q)
        q = q.q if isinstance(q, PointData) else q
        return np.array([9.0 + np.sin(q[2]), 0.1 * t])

    plain = simulate(sys, ControlLaw(eval=ev), x0, 0.0, 0.2, cfg)
    assert not any(isinstance(q, PointData) for q in seen)
    seen.clear()
    traj = simulate(sys, ControlLaw(eval=ev, reads_point=True), x0, 0.0, 0.2, cfg)
    # every RK4 stage, and the final call at the last sample, hands over its point
    assert len(seen) == 4 * 20 + 1 and all(isinstance(q, PointData) and q.sys is sys for q in seen)
    assert np.array_equal(traj.qs, plain.qs) and np.array_equal(traj.us, plain.us)

    def push(t, pt, qd):  # an acceleration-level forcing always gets the stage's point
        seen.append(pt)
        return np.array([0.1, 0.0, 0.2]) * (9.0 + np.sin(pt.q[2]))

    seen.clear()
    simulate_forced(sys, push, x0, 0.0, 0.2, cfg)
    assert len(seen) == 4 * 20 + 1
    assert all(isinstance(pt, PointData) and pt.sys is sys for pt in seen)


def test_law_reusing_one_buffer_records_each_samples_input():
    buf = np.empty(1)

    def ev(t, q, qd):  # returns the same array at every call
        buf[0] = t
        return buf

    cfg = IntegratorConfig(dt=1e-2)
    traj = simulate(make("flat"), ControlLaw(eval=ev), rest(2), 0.0, 0.1, cfg)
    assert np.array_equal(traj.us[:, 0], traj.times)


def test_equilibrium_stays_put():
    sys = make("flat", actuators=(1, 2))
    law = ControlLaw.of_time(lambda t: np.zeros(2))
    traj = simulate(sys, law, rest(2), 0.0, 1.0, IntegratorConfig(dt=1e-2))
    assert np.max(np.abs(traj.qs)) == 0.0
    assert np.max(np.abs(traj.qds)) == 0.0


def test_flat_constant_force_quadratic():
    # q(t) = u t^2 / 2 exactly; RK4 is exact on polynomials of degree <= 4
    sys = make("flat", actuators=(1, 2))
    u = np.array([0.4, -0.9])
    law = ControlLaw.of_time(lambda t: u)
    traj = simulate(sys, law, rest(2), 0.0, 2.0, IntegratorConfig(dt=1e-2))
    want = 0.5 * np.outer(traj.times**2, u)
    assert np.max(np.abs(traj.qs - want)) < 1e-12


def test_flat_sinusoid_closed_form():
    # unit mass, u1 = sin t from rest: q1 = t - sin t, qd1 = 1 - cos t
    sys = make("flat")
    law = ControlLaw.of_time(lambda t: np.array([np.sin(t)]))
    traj = simulate(sys, law, rest(2), 0.0, 3.0, IntegratorConfig(dt=1e-3))
    t = traj.times
    assert np.max(np.abs(traj.qs[:, 0] - (t - np.sin(t)))) < 1e-11
    assert np.max(np.abs(traj.qds[:, 0] - (1.0 - np.cos(t)))) < 1e-11


def test_rk4_fourth_order_self_convergence():
    sys = make("three-link", gravity=0.0)
    law = ControlLaw.of_time(lambda t: np.array([0.5, -0.3]))
    x0 = State(q=np.array([0.2, -0.4, 0.9]), qdot=np.zeros(3))
    ref = simulate(sys, law, x0, 0.0, 1.0, IntegratorConfig(dt=6.25e-4)).qs[-1]
    dts = np.array([2e-2, 1e-2, 5e-3])
    errs = np.array(
        [
            np.linalg.norm(simulate(sys, law, x0, 0.0, 1.0, IntegratorConfig(dt=dt)).qs[-1] - ref)
            for dt in dts
        ]
    )
    slope = loglog_slope(dts, errs)
    assert 3.5 < slope < 4.5


def test_three_link_energy_conservation():
    # unforced swing near the hanging configuration, 5 s at dt = 1e-3
    sys = make("three-link", gravity=9.81)
    x0 = State(q=np.array([-np.pi / 2 + 0.1, 0.05, -0.03]), qdot=np.zeros(3))
    law = ControlLaw.of_time(lambda t: np.zeros(2))
    traj = simulate(sys, law, x0, 0.0, 5.0, IntegratorConfig(dt=1e-3))
    E = np.array([0.5 * qd @ sys.mass(q) @ qd + sys.potential(q) for q, qd in zip(traj.qs, traj.qds)])
    assert np.max(np.abs(E - E[0])) < 1e-8


def test_simulation_is_deterministic(tmp_path):
    sys = make("pvtol")
    law = ControlLaw.of_time(lambda t: np.array([9.81 + 0.1 * np.sin(3 * t), 0.05 * np.cos(t)]))
    x0 = State(q=np.array([0.0, 1.0, 0.0]), qdot=np.zeros(3))
    a = simulate(sys, law, x0, 0.0, 1.0, IntegratorConfig(dt=1e-3))
    b = simulate(sys, law, x0, 0.0, 1.0, IntegratorConfig(dt=1e-3))
    a.write_csv(tmp_path / "a.csv")
    b.write_csv(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert np.array_equal(a.qs, b.qs) and np.array_equal(a.qds, b.qds)


def test_dt_must_divide_horizon():
    sys = make("flat")
    law = ControlLaw.of_time(lambda t: np.zeros(1))
    with pytest.raises(ValueError, match="divide"):
        simulate(sys, law, rest(2), 0.0, 1.0, IntegratorConfig(dt=3e-4))


@pytest.mark.parametrize("t1", [-1.0, np.nan, np.inf])
def test_horizon_must_be_finite_and_not_reversed(t1):
    sys = make("flat")
    law = ControlLaw.of_time(lambda t: np.zeros(1))
    with pytest.raises(ConfigError, match="t1"):
        simulate(sys, law, rest(2), 0.0, t1, IntegratorConfig(dt=1e-2))


def test_nonfinite_state_detected():
    sys = make("flat")
    law = ControlLaw.of_time(lambda t: np.array([np.nan if t > 0.3 else 0.0]))
    with pytest.raises(NonFiniteStateError) as ei:
        simulate(sys, law, rest(2), 0.0, 1.0, IntegratorConfig(dt=1e-2))
    assert ei.value.t <= 0.35


def test_rhs_matches_euler_lagrange_oracle():
    """d/dt (dL/dqd) - dL/dq = F u, all pieces via plain finite differences
    of the kinetic/potential energies -- independent of the dmass layout."""
    sys = make("three-link", gravity=9.81, actuators=(1, 2, 3))
    rng = np.random.default_rng(20)
    h = 1e-6
    for _ in range(10):
        q = rng.uniform(-np.pi, np.pi, 3)
        qd = rng.uniform(-1.0, 1.0, 3)
        u = rng.uniform(-1.0, 1.0, 3)
        pt = sys.at(q)
        acc = _acceleration(pt, qd, pt.F @ u)
        # Mdot = sum_k dM/dq_k qd_k by FD of the inertia
        Mdot = np.zeros((3, 3))
        dLdq = np.zeros(3)
        for k in range(3):
            dq = np.zeros(3)
            dq[k] = h
            Mdot += (sys.mass(q + dq) - sys.mass(q - dq)) / (2 * h) * qd[k]
            Lp = 0.5 * qd @ sys.mass(q + dq) @ qd - sys.potential(q + dq)
            Lm = 0.5 * qd @ sys.mass(q - dq) @ qd - sys.potential(q - dq)
            dLdq[k] = (Lp - Lm) / (2 * h)
        residual = sys.mass(q) @ acc + Mdot @ qd - dLdq - u
        assert np.linalg.norm(residual) < 1e-6 * max(1.0, np.linalg.norm(u))


def test_reconstruct_inputs_roundtrip():
    sys = make("three-link", gravity=9.81)
    law = ControlLaw.of_time(lambda t: np.array([0.3 * np.sin(t), -0.2 * np.cos(2 * t)]))
    x0 = State(q=np.array([-1.2, 0.4, 0.1]), qdot=np.zeros(3))
    traj = simulate(sys, law, x0, 0.0, 1.0, IntegratorConfig(dt=1e-3))
    rec = reconstruct_inputs(sys, traj)
    want = np.array([law(t, None, None) for t in rec.times])
    # central-difference acceleration bias is O(dt^2) with an O(10) constant
    assert np.max(np.abs(rec.inputs - want)) < 5e-4
    assert rec.max_residual < 5e-4


def test_reconstruct_fully_actuated_zero_residual():
    sys = make("three-link", gravity=9.81, actuators=(1, 2, 3))
    law = ControlLaw.of_time(lambda t: np.array([0.2, -0.1, 0.05 * t]))
    x0 = State(q=np.array([0.5, -0.5, 0.5]), qdot=np.zeros(3))
    traj = simulate(sys, law, x0, 0.0, 0.5, IntegratorConfig(dt=1e-3))
    rec = reconstruct_inputs(sys, traj)
    assert rec.max_residual < 1e-12  # square full-rank solve leaves no residual


def test_reconstruct_flags_rank_deficiency():
    # both covectors identical: any motion off their span is unexplainable
    sys = MechanicalSystem(
        n=2,
        m=2,
        inertia=lambda q: np.eye(2),
        input_covectors=[lambda q: np.array([1.0, 0.0])] * 2,
    )
    qs = np.column_stack([np.linspace(0, 1, 11) ** 2, np.zeros(11)])
    qds = np.column_stack([2 * np.linspace(0, 1, 11), np.zeros(11)])
    traj = Trajectory(t0=0.0, t1=1.0, dt=0.1, qs=qs, qds=qds, us=np.zeros((11, 2)))
    rec = reconstruct_inputs(sys, traj)
    assert np.all(np.isinf(rec.residuals))


def test_damping_enters_reconstruction():
    sys = make("blimp", actuators=(1, 2, 3))
    law = ControlLaw.of_time(lambda t: np.array([0.4, 0.1, -0.2]))
    x0 = State(q=np.zeros(3), qdot=np.array([0.5, 0.0, 0.3]))
    traj = simulate(sys, law, x0, 0.0, 1.0, IntegratorConfig(dt=1e-3))
    rec = reconstruct_inputs(sys, traj)
    assert np.max(np.abs(rec.inputs - np.array([0.4, 0.1, -0.2]))) < 1e-5


def per_sample_reconstruction(sys, traj):
    """The unbatched reconstruction loop, kept as the oracle."""
    N = traj.n_samples
    dt = traj.dt
    m = sys.m
    inputs = np.zeros((N - 2, m))
    residuals = np.zeros(N - 2)
    for j, i in enumerate(range(1, N - 1)):
        q, qd = traj.qs[i], traj.qds[i]
        qdd = (traj.qds[i + 1] - traj.qds[i - 1]) / (2.0 * dt)
        dM = sys.dmass(q)
        b = np.einsum("mjk,j,k->m", dM, qd, qd) - 0.5 * np.einsum(
            "jkm,j,k->m", dM, qd, qd
        )
        M = sys.mass(q)
        f = M @ qdd + b + sys.grad_potential(q)
        if sys.damping is not None:
            f = f - M @ (sys.damping_matrix(q) @ qd)
        F = sys.input_matrix(q)
        u, _, rank, _ = np.linalg.lstsq(F, f, rcond=None)
        inputs[j] = u
        if rank < m:
            residuals[j] = np.inf
        else:
            residuals[j] = np.linalg.norm(f - F @ u) / max(1.0, np.linalg.norm(f))
    return inputs, residuals


def smooth_curve(n, N, dt, seed):
    """A smooth, generally unrealizable curve with exact velocities."""
    rng = np.random.default_rng(seed)
    a, w, p = rng.uniform(0.2, 1.0, (3, n))
    t = dt * np.arange(N)[:, None]
    qs = a * np.sin(w * 3.0 * t + 6.0 * p)
    qds = a * 3.0 * w * np.cos(w * 3.0 * t + 6.0 * p)
    return Trajectory(t0=0.0, t1=dt * (N - 1), dt=dt, qs=qs, qds=qds, us=np.zeros((N, 0)))


def user_system():
    """A q-dependent M, a potential and damping, with no derivative given and no
    callable marked to take stacks: the readers run per row and by differences.
    The potential climbs along q3, off the input span, so no sample of a smooth
    curve is realizable."""

    def inertia(q):
        c, s = np.cos(q[1]), 0.1 * np.sin(q[0])
        return np.array([[2.0 + c, 0.3 * c, 0.0], [0.3 * c, 1.5, s], [0.0, s, 1.0 + 0.2 * q[2] ** 2]])

    return MechanicalSystem(
        n=3,
        m=2,
        inertia=inertia,
        input_covectors=[
            lambda q: np.array([1.0, 0.0, 0.1 * np.sin(q[2])]),
            lambda q: np.array([0.0, np.cos(q[0]), 0.1]),
        ],
        potential=lambda q: 0.5 * q[0] ** 2 + np.cos(q[1]) + 5.0 * q[2],
        damping=lambda q: -0.1 * np.eye(3) - 0.05 * np.diag(np.cos(q)),
    )


@pytest.mark.parametrize(
    "sys",
    [make("three-link", gravity=9.81), make("blimp", drag=0.3), user_system()],
    ids=["three-link-gravity", "blimp-damped", "user-finite-differences"],
)
def test_blocked_reconstruction_matches_per_sample_oracle(sys):
    N = 1203  # 1201 interior samples: two full blocks and a partial one
    traj = smooth_curve(sys.n, N, 1e-3, seed=5)
    rec = reconstruct_inputs(sys, traj)
    want_u, want_r = per_sample_reconstruction(sys, traj)
    assert rec.inputs.shape == want_u.shape and rec.residuals.shape == want_r.shape
    assert np.max(np.abs(rec.inputs - want_u)) <= 1e-12 * np.max(np.abs(want_u))
    assert np.all(want_r > 1e-3)  # the curve is not realizable: residuals count
    assert_allclose(rec.residuals, want_r, rtol=1e-12, atol=0)
    assert_allclose(rec.times, traj.times[1:-1], rtol=0, atol=0)


@pytest.mark.parametrize(
    "sys",
    [make(name) for name in ("flat", "planar-body", "blimp", "pvtol")]
    + [make("three-link", gravity=9.81), user_system()],
    ids=["flat", "planar-body", "blimp", "pvtol", "three-link-gravity", "user"],
)
def test_readers_on_a_stack_equal_their_point_calls(sys):
    Q = smooth_curve(sys.n, 37, 1e-2, seed=7).qs
    for reader in (sys.mass, sys.dmass, sys.grad_potential, sys.damping_matrix, sys.input_matrix):
        stacked, rows = reader(Q), np.array([reader(q) for q in Q])
        assert stacked.shape == rows.shape and stacked.tobytes() == rows.tobytes(), reader.__name__


@pytest.mark.parametrize("marked", [False, True], ids=["pointwise", "wrapped"])
def test_stacks_are_a_property_of_the_callable(marked):
    # a per-point inertia swapped in is called once per sample; functools.wraps
    # carries the stack mark, so a wrapper of the stacked one runs once per block
    arm = make("three-link", gravity=9.81)
    shapes = []

    def inertia(q):
        shapes.append(np.shape(q))
        return arm.inertia(q)

    if marked:
        inertia = functools.wraps(arm.inertia)(inertia)
    copy = dataclasses.replace(arm, inertia=inertia)
    traj = smooth_curve(3, 1203, 1e-3, seed=6)
    got, want = reconstruct_inputs(copy, traj), reconstruct_inputs(arm, traj)
    assert shapes == ([(512, 3), (512, 3), (177, 3)] if marked else [(3,)] * 1201)
    assert np.array_equal(got.inputs, want.inputs)
    assert np.array_equal(got.residuals, want.residuals)


def test_reconstruction_names_the_first_asymmetric_sample():
    # M(q) loses its symmetry once q1 > 0.5; mass() and the blocked path share one check
    sys = MechanicalSystem(
        n=2,
        m=1,
        inertia=lambda q: np.array([[1.0, 0.1 * (q[0] > 0.5)], [0.0, 1.0]]),
        input_covectors=[lambda q: np.array([1.0, 0.0])],
    )
    qs = np.column_stack([np.arange(11) / 10, np.zeros(11)])
    traj = Trajectory(t0=0.0, t1=1.0, dt=0.1, qs=qs, qds=np.zeros_like(qs), us=np.zeros((11, 1)))
    message = r"asymmetric at q=\[0\.6, 0\.0\] \(\|M - M\^T\| = 1\.000e-01\)"
    with pytest.raises(ValueError, match=message):
        reconstruct_inputs(sys, traj)
    with pytest.raises(ValueError, match=r"asymmetric at q=\[0\.6, 0\.0\]"):
        sys.mass(qs[6])


def test_csv_roundtrip(tmp_path):
    sys = make("pvtol")
    law = ControlLaw.of_time(lambda t: np.array([9.81, 0.0]))
    x0 = State(q=np.array([0.0, 1.0, 0.0]), qdot=np.zeros(3))
    traj = simulate(sys, law, x0, 0.0, 0.1, IntegratorConfig(dt=1e-2))
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    back = read_trajectory_csv(path)
    assert_allclose(back.qs, traj.qs, rtol=0, atol=0)  # 17 sig digits round-trip
    assert_allclose(back.qds, traj.qds, rtol=0, atol=0)
    assert_allclose(back.us, traj.us, rtol=0, atol=0)
    assert back.dt == traj.dt


def test_csv_with_non_uniform_times_is_rejected(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,q1,qd1\n" + "".join(f"{t},{t},0\n" for t in (0.0, 0.1, 0.25, 0.3)))
    with pytest.raises(ValueError, match=r"time 0\.25 is not t0 \+ k dt, dt = 0\.1"):
        read_trajectory_csv(path)


def test_csv_with_only_a_header_is_rejected(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,q1,qd1\n")
    with pytest.raises(ValueError, match=r"traj\.csv: no samples after the header"):
        read_trajectory_csv(path)


def test_loglog_slope_needs_two_distinct_x():
    assert loglog_slope([0.1, 0.05, 0.1], [2.0, 1.0, 2.0]) == pytest.approx(1.0, rel=1e-12)
    # no slope is NaN: one distinct x, or a value that is not positive
    for x, y in (([0.1], [1.0]), ([0.1, 0.1], [1.0, 2.0]), ([0.1, 0.05], [1.0, 0.0]),
                 ([0.1, -0.05], [1.0, 2.0])):
        assert np.isnan(loglog_slope(x, y))


def test_csv_roundtrip_of_times_off_zero(tmp_path):
    # t0 far from 0 in units of dt: t[1] - t[0] carries the roundoff of t0
    qs = np.zeros((2001, 1))
    traj = Trajectory(t0=-3.7, t1=-3.7 + 2000 * 1e-3, dt=1e-3, qs=qs, qds=qs, us=np.zeros((2001, 0)))
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    assert read_trajectory_csv(path).n_samples == 2001


def test_trajectory_needs_a_positive_step(tmp_path):
    qs = np.zeros((2, 3))
    with pytest.raises(ValueError, match="dt must be positive, got 0.0"):
        Trajectory(t0=0.0, t1=0.0, dt=0.0, qs=qs, qds=qs, us=np.zeros((2, 0)))
    path = tmp_path / "traj.csv"
    path.write_text("t,q1,q2,q3,qd1,qd2,qd3\n" + "0.5,0,0,0,0,0,0\n" * 2)
    with pytest.raises(ValueError, match="dt must be positive"):
        read_trajectory_csv(path)


def test_csv_header_layout(tmp_path):
    sys = make("three-link")
    law = ControlLaw.of_time(lambda t: np.zeros(2))
    traj = simulate(sys, law, rest(3), 0.0, 0.01, IntegratorConfig(dt=1e-2))
    traj.write_csv(tmp_path / "traj.csv")
    text = (tmp_path / "traj.csv").read_text()
    assert text.splitlines()[0] == "t,q1,q2,q3,qd1,qd2,qd3,u1,u2"


def test_csv_numbers_have_17_significant_digits(tmp_path):
    v = np.array([0.0, -0.0, 5e-324, np.nan, np.inf, -np.inf, 1e300, 0.1, -1.0 / 3.0])
    traj = Trajectory(t0=0.0, t1=8.0, dt=1.0, qs=v[:, None], qds=v[:, None], us=v[:, None])
    traj.write_csv(tmp_path / "traj.csv")
    rows = (tmp_path / "traj.csv").read_text().splitlines()[1:]
    assert rows == [",".join(f"{float(x):.17g}" for x in (t, y, y, y)) for t, y in zip(traj.times, v)]


def _trajectory(N, t1=1.0, qds_rows=None, us_rows=None):
    qs = np.zeros((N, 2))
    return Trajectory(t0=0.0, t1=t1, dt=0.5, qs=qs, qds=np.zeros((qds_rows or N, 2)),
                      us=np.zeros((us_rows or N, 1)))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: IntegratorConfig(dt=0.0), ValueError, "dt must be positive"),
        (lambda: IntegratorConfig(dt=-1e-3), ValueError, "dt must be positive"),
        (lambda: _trajectory(3, qds_rows=2), ValueError, "misaligned"),
        (lambda: _trajectory(3, us_rows=4), ValueError, "misaligned"),
        (lambda: _trajectory(4), ValueError, r"sample count 4 != round\(\(t1-t0\)/dt\)\+1 = 3"),
        (lambda: reconstruct_inputs(make("flat"), _trajectory(2, t1=0.5)), ValueError,
         "at least 3 samples"),
        # finite stages whose step overflows: the state check, not a stage check, fires
        (lambda: _rk4(lambda t, x: (np.full(1, 1e308), ()), np.zeros(1), 0.0, 10.0, 2),
         NonFiniteStateError, r"t=10\.0"),
    ],
)
def test_simulation_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_coarse_dt_warns_for_oscillatory_control():
    sys = make("flat")
    law = ControlLaw(eval=lambda t, q, qd: np.array([np.sin(t / 1e-3)]), suggested_max_dt=1e-4)
    with pytest.warns(UserWarning, match="under-resolves"):
        simulate(sys, law, rest(2), 0.0, 0.1, IntegratorConfig(dt=1e-2))


def traced_control(log):
    """A state- and time-dependent law that logs every evaluation."""

    def ev(t, q, qd):
        log.append(t)
        return np.array([np.sin(3.0 * t) + 0.2 * q[2], 0.1 * qd[0] - 0.3 * np.cos(t)])

    return ControlLaw(eval=ev)


def test_simulate_evaluates_control_once_per_stage():
    sys = make("pvtol", gravity=0.0)
    log = []
    steps = 50
    simulate(sys, traced_control(log), rest(3), 0.0, steps * 1e-2, IntegratorConfig(dt=1e-2))
    # four RK4 stages per step, plus the last sample; stage 1 supplies the rest
    assert len(log) == 4 * steps + 1


def test_recorded_controls_match_per_sample_evaluation():
    sys = make("pvtol", gravity=0.0)
    law = traced_control([])
    x0 = State(q=np.array([0.1, -0.2, 0.3]), qdot=np.array([0.2, 0.0, -0.1]))
    traj = simulate(sys, law, x0, 0.3, 1.3, IntegratorConfig(dt=5e-3))
    ts = traj.times
    want = np.array([law(ts[i], traj.qs[i], traj.qds[i]) for i in range(traj.n_samples)])
    assert traj.us.tobytes() == want.tobytes()


# -- constant inertia: checked and factored once per system --------------------

CONSTANT_METRIC = [("flat", (1, 2)), ("planar-body", (4,)), ("blimp", None), ("pvtol", None)]


def unmarked(sys):
    """sys with its marked constant M as a plain callable and a zero dinertia."""
    zero = np.zeros((sys.n,) * 3)
    plain = lambda q: sys.inertia(q)  # a wrapper without functools.wraps drops the mark
    return dataclasses.replace(sys, inertia=plain, dinertia=lambda q: zero.copy())


@pytest.mark.parametrize("name, actuators", CONSTANT_METRIC)
def test_constant_inertia_gives_the_callable_numbers_bit_for_bit(name, actuators):
    sys = make(name, actuators)  # pvtol with its default gravity
    plain = unmarked(sys)
    assert sys.constant_mass is not None and plain.constant_mass is None
    x0 = State(q=np.array([0.1, -0.2, 0.3])[: sys.n], qdot=np.array([0.4, 0.1, -0.5])[: sys.n])
    law = ControlLaw(eval=lambda t, q, qd: np.sin(np.arange(1, sys.m + 1) * t) + 0.1 * q[0])
    got, want = (simulate(s, law, x0, 0.0, 0.5, IntegratorConfig(dt=1e-2)) for s in (sys, plain))
    for field in ("qs", "qds", "us"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    for q in got.qs[::10]:
        a, b = sys.at(q), plain.at(q)
        for field in ("products", "JY", "Gamma", "Y"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
    traj = smooth_curve(sys.n, 601, 1e-3, seed=4)
    got, want = reconstruct_inputs(sys, traj), reconstruct_inputs(plain, traj)
    assert got.inputs.tobytes() == want.inputs.tobytes()
    assert got.residuals.tobytes() == want.residuals.tobytes()


def test_the_constant_inertia_mark_travels_with_functools_wraps():
    sys = make("pvtol")
    wrapper = functools.wraps(sys.inertia)(lambda q: sys.inertia(q))
    wrapped = dataclasses.replace(sys, inertia=wrapper)
    assert np.array_equal(wrapped.constant_mass, sys.constant_mass)
    # no mark: M evaluated at each point, dM by central differences of it
    plain = dataclasses.replace(sys, inertia=lambda q: sys.inertia(q))
    assert plain.constant_mass is None
    q = np.array([0.3, -0.1, 0.7])
    for a, b in ((sys.at(q), wrapped.at(q)), (sys.at(q), plain.at(q))):
        assert a.products.tobytes() == b.products.tobytes()
        assert a.Gamma.tobytes() == b.Gamma.tobytes()
    assert sys.mass(q).tobytes() == plain.mass(q).tobytes()
    assert sys.dmass(q).tobytes() == plain.dmass(q).tobytes()
    assert not sys.mass(q).flags.writeable


def test_a_constant_metric_system_factors_once(monkeypatch):
    calls, dpotrf = [], geometry.dpotrf

    def counted(*args, **kwargs):
        calls.append(1)
        return dpotrf(*args, **kwargs)

    monkeypatch.setattr(geometry, "dpotrf", counted)
    sys = make("pvtol", gravity=0.0)
    assert len(calls) == 1 and sys.dinertia is None  # no dinertia to call: dM is zero
    simulate(sys, traced_control([]), rest(3), 0.0, 0.2, IntegratorConfig(dt=1e-2))
    reconstruct_inputs(sys, smooth_curve(3, 50, 1e-2, seed=1))
    assert len(calls) == 1
    make("three-link").at(np.zeros(3))  # a q-dependent M factors at each point
    assert len(calls) == 2


def test_constant_inertia_refuses_a_dinertia():
    with pytest.raises(ValueError, match="constant_inertia takes no dinertia"):
        MechanicalSystem(
            n=2,
            m=1,
            inertia=constant_inertia(np.eye(2)),
            input_covectors=[lambda q: np.array([1.0, 0.0])],
            dinertia=lambda q: np.zeros((2, 2, 2)),
        )


def test_an_ill_conditioned_constant_inertia_names_each_point():
    sys = make("pvtol", mass=1e13)  # built: the refusal waits for a point
    for q in ([0.1, 0.2, 0.3], [-1.0, 0.5, 2.0]):
        with pytest.raises(SingularInertiaError, match=rf"at q=\[{q[0]}, {q[1]}, {q[2]}\]") as ei:
            sys.at(q)
        assert ei.value.cond == pytest.approx(1e13)


def test_rk4_steps_a_stack_as_its_members_alone():
    # x' = A(t) x, member by member: the stacked run equals the lone runs bit for bit
    def rhs(t, x):
        f = np.stack([np.cos(t) * x[..., 1], -x[..., 0] + 0.1 * t], axis=-1)
        return f, f[..., 0]

    X0 = np.array([[1.0, 0.0], [0.5, -0.2], [-1.0, 0.3]])
    xs, rs = _rk4(rhs, X0, 0.0, 1e-2, 50)
    assert xs.shape == (51, 3, 2) and rs.shape == (51, 3)
    for i, x0 in enumerate(X0):
        lone, r = _rk4(rhs, x0, 0.0, 1e-2, 50)
        assert xs[:, i].tobytes() == lone.tobytes() and rs[:, i].tobytes() == r.tobytes()


@pytest.mark.parametrize("nan_at", [0.0, 0.2])
def test_rk4_names_the_non_finite_member(nan_at):
    def rhs(t, x):
        f = -x.copy()
        if t >= nan_at:
            f[1, 0] = np.nan  # member 1 only
        return f, ()

    with pytest.raises(NonFiniteStateError, match="in member 1") as ei:
        _rk4(rhs, np.ones((3, 2)), 0.0, 0.1, 5)
    assert ei.value.member == 1 and ei.value.t == pytest.approx(nan_at)
    with pytest.raises(NonFiniteStateError) as ei:  # a lone problem names no member
        _rk4(lambda t, x: (np.full(2, np.nan), ()), np.ones(2), 0.0, 0.1, 5)
    assert ei.value.member is None and "member" not in str(ei.value)
