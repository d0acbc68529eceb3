"""From-rest velocity series: hand oracles, scaling, order improvement."""

import dataclasses

import numpy as np
import pytest
import scipy.integrate
from numpy.testing import assert_allclose

from geoctrl import (
    ControlLaw,
    IntegratorConfig,
    State,
    make,
    predict_from_rest,
    series_terms,
    simulate,
    symmetric_product,
    truncation_errors,
)
from geoctrl import series
from geoctrl.geometry import PointData, christoffel
from geoctrl.numutil import central_jacobian, cumulative_simpson_uniform, lagrange4_interp
from geoctrl.series import uniform_grid
from geoctrl.simulation import _rk4


def offset_body(**params):
    # single offset force: <Y : Y> != 0, so every series order contributes
    return make("planar-body", actuators=(4,), **params)


def test_grid_helper():
    g = uniform_grid(1.0)
    assert g[0] == 0.0 and g[-1] == 1.0 and g.size >= 201
    assert np.allclose(np.diff(g), g[1] - g[0])
    with pytest.raises(ValueError):
        uniform_grid(0.0)


def test_first_order_constant_field():
    # flat system, constant input: V1 = eps * t * e1 and V2 = V3 = 0
    sys = make("flat")
    eps = 0.3
    forcing = [lambda t: eps]
    terms = series_terms(sys, forcing, 3, uniform_grid(1.0))
    q = np.array([0.4, -0.2])
    for t in (0.25, 0.5, 1.0):
        assert_allclose(terms[0](q, t), [eps * t, 0.0], atol=1e-13)
        assert np.linalg.norm(terms[1](q, t)) < 1e-13
        assert np.linalg.norm(terms[2](q, t)) < 1e-10


def test_second_order_hand_oracle():
    # constant input eps on a single field: V2(q, t) = -(eps^2 t^3 / 6) <Y:Y>(q)
    sys = offset_body()
    eps = 0.2
    forcing = [lambda t: eps]
    terms = series_terms(sys, forcing, 2, uniform_grid(1.0))
    Y = sys.input_field(0)
    rng = np.random.default_rng(30)
    for _ in range(3):
        q = rng.uniform(-1.0, 1.0, 3)
        SYY = symmetric_product(sys, Y, Y, q)
        for t in (0.3, 0.7, 1.0):
            want = -(eps**2) * t**3 / 6.0 * SYY
            assert_allclose(terms[1](q, t), want, atol=1e-12)


def test_amplitude_scaling_by_order():
    # V_k is homogeneous of degree k: doubling eps scales term k by 2^k
    sys = offset_body()
    grid = uniform_grid(1.0)

    def terms_at(eps):
        f = [lambda t, _e=eps: _e * np.sin(t)]
        return series_terms(sys, f, 4, grid)

    lo, hi = terms_at(0.05), terms_at(0.10)
    q = np.array([0.1, -0.6, 0.8])
    for k in range(4):
        a = lo[k](q, 1.0)
        b = hi[k](q, 1.0)
        assert np.linalg.norm(b - 2.0 ** (k + 1) * a) <= 1e-9 * max(np.linalg.norm(b), 1e-12)


def test_rejects_potential_and_damping():
    grid = uniform_grid(1.0)
    with pytest.raises(ValueError, match="potential or damping"):
        series_terms(make("pvtol"), [lambda t: 0.0] * 2, 2, grid)
    blimp = make("blimp")
    with pytest.raises(ValueError, match="potential or damping"):
        series_terms(blimp, [lambda t: 0.0] * 2, 2, grid)


def test_order_bounds():
    sys = make("flat")
    forcing = [lambda t: 1.0]
    for K in (0, 5):
        with pytest.raises(ValueError, match="order"):
            series_terms(sys, forcing, K, uniform_grid(1.0))


def test_grid_must_be_uniform_from_zero():
    sys = make("flat")
    forcing = [lambda t: 1.0]
    with pytest.raises(ValueError):
        series_terms(sys, forcing, 2, np.array([0.0, 0.1, 0.3, 0.6]))
    with pytest.raises(ValueError):
        series_terms(sys, forcing, 2, np.array([0.1, 0.2, 0.3, 0.4]))


def test_zero_forcing_is_stationary():
    sys = offset_body()
    forcing = [lambda t: 0.0]
    q0 = np.array([0.3, 0.3, -0.5])
    traj = predict_from_rest(sys, forcing, 3, q0, 1.0, IntegratorConfig(dt=1e-2))
    assert np.max(np.abs(traj.qs - q0)) < 1e-14
    assert np.max(np.abs(traj.qds)) < 1e-14


def test_prediction_improves_with_order():
    sys = offset_body()
    eps = 0.1
    q0 = np.zeros(3)
    T = 1.0
    law = ControlLaw.of_time(lambda t: np.array([eps * np.sin(t)]))
    ref = simulate(sys, law, State(q=q0, qdot=np.zeros(3)), 0.0, T, IntegratorConfig(dt=1e-3))
    errs = []
    for K in (1, 2, 3):
        forcing = [lambda t: eps * np.sin(t)]
        pred = predict_from_rest(sys, forcing, K, q0, T, IntegratorConfig(dt=5e-3))
        errs.append(np.max(np.linalg.norm(pred.qs - ref.qs[::5], axis=1)))
    assert errs[0] > errs[1] > errs[2]


def sine_inputs(e):
    return [lambda t, _e=e: _e * np.sin(t)]


def test_truncation_errors_decrease_with_amplitude():
    sys = offset_body()
    (errs,) = truncation_errors(
        sys, sine_inputs, [2], np.zeros(3), 1.0, [0.08, 0.04],
        IntegratorConfig(dt=5e-3), IntegratorConfig(dt=1e-3),
    )
    assert errs[0] > errs[1] > 0.0


@pytest.mark.parametrize(
    "sys, make_inputs, q0",
    [
        (offset_body(), sine_inputs, np.zeros(3)),  # a constant M: one shared factor
        (make("three-link", actuators=(1, 2)),  # a q-dependent M: a factor per member
         lambda e: sine_forcing(None, [e, 0.7 * e]), np.array([0.2, -0.1, 0.4])),
    ],
    ids=["planar-body", "three-link"],
)
def test_truncation_errors_step_the_amplitudes_as_one_stack(monkeypatch, sys, make_inputs, q0):
    # one stacked reference and one stacked prediction per order, whose members
    # equal a lone simulate and a lone predict_from_rest bit for bit
    runs = {"_simulate": [], "_predict": []}

    def recorded(name):
        real = getattr(series, name)

        def wrapper(*args, **kwargs):
            runs[name].append(real(*args, **kwargs))
            return runs[name][-1]

        monkeypatch.setattr(series, name, wrapper)

    recorded("_simulate")
    recorded("_predict")
    orders, epsilons, T = (1, 2, 3), [0.04, 0.02], 0.5
    cfg_pred, cfg_ref = IntegratorConfig(dt=5e-3), IntegratorConfig(dt=1e-3)
    errs = truncation_errors(sys, make_inputs, orders, q0, T, epsilons, cfg_pred, cfg_ref)
    assert len(runs["_simulate"]) == 1 and len(runs["_predict"]) == len(orders)
    assert all(len(members) == len(epsilons) for members in runs["_simulate"] + runs["_predict"])
    rest = State(q=q0, qdot=np.zeros(sys.n))
    for j, eps in enumerate(epsilons):
        inputs = make_inputs(eps)
        law = ControlLaw.of_time(lambda t: np.array([u(t) for u in inputs]))
        ref = simulate(sys, law, rest, 0.0, T, cfg_ref)
        assert runs["_simulate"][0][j].qs.tobytes() == ref.qs.tobytes()
        for i, K in enumerate(orders):
            pred = predict_from_rest(sys, inputs, K, q0, T, cfg_pred)
            assert runs["_predict"][i][j].qs.tobytes() == pred.qs.tobytes()
            assert errs[i, j] == np.max(np.linalg.norm(pred.qs - ref.qs[::5], axis=1))
    assert errs.shape == (3, 2)
    assert np.all(errs[:, 0] > errs[:, 1])  # every order shrinks with the amplitude
    assert np.all(errs[:-1] > errs[1:])  # and with the order


def test_truncation_errors_need_a_reference_step_dividing_the_prediction_step(monkeypatch):
    monkeypatch.setattr(series, "_predict", None)  # nothing may run before the check
    # 1e-14 / 3e-15 is 3.33 steps; an absolute 1e-12 test of it passed
    for T, dt, dt_ref in ((1.0, 5e-3, 3e-3), (1.0, 5e-3, 1e-2), (3e-13, 1e-14, 3e-15)):
        with pytest.raises(ValueError, match="reference dt must divide the prediction dt"):
            truncation_errors(
                offset_body(), sine_inputs, [1], np.zeros(3), T, [0.1],
                IntegratorConfig(dt=dt), IntegratorConfig(dt=dt_ref),
            )


def test_wrong_signal_count():
    sys, cfg = offset_body(), IntegratorConfig(dt=1e-2)  # one input
    for count in (0, 2):
        signals, match = [lambda t: 0.0] * count, f"expected 1 input signals, got {count}"
        with pytest.raises(ValueError, match=match):
            series_terms(sys, signals, 2, uniform_grid(1.0))
        with pytest.raises(ValueError, match=match):
            predict_from_rest(sys, signals, 2, np.zeros(3), 1.0, cfg)
        with pytest.raises(ValueError, match=match):
            truncation_errors(sys, lambda e: signals, [2], np.zeros(3), 1.0, [0.1], cfg, cfg)


def test_words_read_one_kernel_per_point():
    # order 2 has no composite Jacobian: each velocity evaluation is one sys.at(q)
    calls = {"inertia": 0, "dinertia": 0}

    def counted(name, fn):
        def wrapper(q):
            calls[name] += 1
            return fn(q)

        return wrapper

    sys = make("three-link", actuators=(1, 2))  # a q-dependent M, evaluated at each point
    sys = dataclasses.replace(
        sys, inertia=counted("inertia", sys.inertia), dinertia=counted("dinertia", sys.dinertia)
    )
    q0, T, dt = np.array([0.2, -0.1, 0.4]), 0.5, 1e-2
    predict_from_rest(sys, sine_forcing(sys, [0.1, 0.07]), 2, q0, T, IntegratorConfig(dt=dt))
    steps = int(round(T / dt))
    assert calls == {"inertia": 4 * steps + 1, "dinertia": 4 * steps + 1}


def test_first_order_never_evaluates_the_inertia_derivative():
    # order 1 reads only the leaves Y_a: one factorization per stage, no dM
    calls = {"inertia": 0, "dinertia": 0}

    def counted(name, fn):
        def wrapper(q):
            calls[name] += 1
            return fn(q)

        return wrapper

    sys = make("three-link", actuators=(1, 2))
    sys = dataclasses.replace(
        sys, inertia=counted("inertia", sys.inertia), dinertia=counted("dinertia", sys.dinertia)
    )
    q0, T, dt = np.array([0.2, -0.1, 0.4]), 0.5, 1e-2
    predict_from_rest(sys, sine_forcing(sys, [0.1, 0.07]), 1, q0, T, IntegratorConfig(dt=dt))
    assert calls == {"inertia": 201, "dinertia": 0}


def test_second_order_words_are_the_kernel_products(monkeypatch):
    # <Y_a : Y_b> comes from PointData.products: K = 2 never forms JY or Gamma
    reads = {"JY": 0, "Gamma": 0}
    for name in reads:

        def counted(pt, _name=name, _get=getattr(PointData, name).fget):
            reads[_name] += 1
            return _get(pt)

        monkeypatch.setattr(PointData, name, property(counted))
    sys = make("three-link", actuators=(1, 2))
    forcing, q0 = sine_forcing(sys, [0.1, 0.07]), np.array([0.2, -0.1, 0.4])
    cfg = IntegratorConfig(dt=1e-2)
    predict_from_rest(sys, forcing, 2, q0, 0.5, cfg)
    assert reads == {"JY": 0, "Gamma": 0}
    predict_from_rest(sys, forcing, 3, q0, 0.5, cfg)  # order 3 reads both
    assert reads["JY"] > 0 and reads["Gamma"] > 0


def costs_per_evaluation(monkeypatch, K):
    """Kernel builds and central_jacobian calls per velocity evaluation of one prediction."""
    calls = {"kernels": 0, "jacobians": 0}
    sys = make("three-link", actuators=(1, 2))
    inertia = sys.inertia

    def counted_inertia(q):
        calls["kernels"] += 1  # one inertia evaluation per sys.at(q)
        return inertia(q)

    def counted_jacobian(*args):
        calls["jacobians"] += 1
        return central_jacobian(*args)

    monkeypatch.setattr(series, "central_jacobian", counted_jacobian)
    forcing = sine_forcing(sys, [0.1, 0.07])
    sys = dataclasses.replace(sys, inertia=counted_inertia)
    q0, T, dt = np.array([0.2, -0.1, 0.4]), 0.5, 1e-2
    predict_from_rest(sys, forcing, K, q0, T, IntegratorConfig(dt=dt))
    evaluations = 4 * int(round(T / dt)) + 1
    return calls["kernels"] / evaluations, calls["jacobians"] / evaluations


def test_third_order_differences_all_pair_words_at_once(monkeypatch):
    # the point q and its 2n neighbours, and one stacked difference of the pair words
    assert costs_per_evaluation(monkeypatch, 3) == (1 + 2 * 3, 1)


def test_fourth_order_shares_points_through_the_memo(monkeypatch):
    # without the per-call memo a pass builds 1 + 2n (1 + 2n) = 43 kernels
    kernels, _ = costs_per_evaluation(monkeypatch, 4)
    assert kernels <= 28


def test_interpolation_needs_four_nodes():
    with pytest.raises(ValueError, match="at least 4"):
        lagrange4_interp(np.linspace(0.0, 1.0, 3), np.zeros(3), 0.5)
    assert lagrange4_interp(np.linspace(0.0, 1.0, 4), np.arange(4.0), 0.5) == pytest.approx(1.5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cumulative_simpson_uniform(np.ones((3, 2)), 0.1), "at least 3 samples"),
        (lambda: lagrange4_interp(np.linspace(0.0, 1.0, 5), np.zeros(5), 1.01), r"t=1\.01 outside"),
        (lambda: lagrange4_interp(np.linspace(0.0, 1.0, 5), np.zeros(5), -0.5), "outside grid"),
    ],
)
def test_numutil_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)], ids=["1-D", "(m, N)", "(m, m, N)"])
def test_simpson_helpers_equal_scipy_bit_for_bit(shape):
    # scipy.integrate is the independent reference: its equal-spacing
    # cumulative_simpson(initial=0.0) along the last axis, compared by tobytes
    rng = np.random.default_rng(25)
    for N in (3, 4, 5, 6, 9, 10, 31, 2001):
        y = rng.standard_normal(shape + (N,)) * 10.0 ** rng.uniform(-5.0, 4.0, shape + (N,))
        y[rng.random(y.shape) < 0.2] = -0.0
        dx = float(rng.uniform(1e-3, 2.0))
        got = cumulative_simpson_uniform(y, dx)
        want = scipy.integrate.cumulative_simpson(y, dx=dx, initial=0.0)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class GridRecursionOracle:
    """The grid-wide recursion engine, kept as the oracle: every V_k on the
    whole time grid at q, spatial Jacobians by central differences."""

    def __init__(self, sys, inputs, grid, h=1e-6):
        self.sys, self.m, self.grid, self.h = sys, len(inputs), grid, h
        self.dx = grid[1] - grid[0]
        U = np.array([[u(t) for t in grid] for u in inputs])
        self.cumU = scipy.integrate.cumulative_simpson(U, dx=self.dx, axis=1, initial=0.0)

    def values(self, k, q, cache):
        key = (k, q.tobytes())
        if key not in cache:
            if k == 1:
                Ys = np.array([self.sys.input_field(a)(q) for a in range(self.m)])
                cache[key] = np.einsum("ag,an->gn", self.cumU, Ys)
            else:
                S = sum(self.sym_grid(j, k - j, q, cache) for j in range(1, k))
                cache[key] = -0.5 * scipy.integrate.cumulative_simpson(
                    S, dx=self.dx, axis=0, initial=0.0)
        return cache[key]

    def jacobian(self, k, q, cache):
        if k == 1:
            JYs = np.array([self.sys.input_field(a).jacobian_at(q) for a in range(self.m)])
            return np.einsum("ag,air->gir", self.cumU, JYs)
        J = np.empty((self.grid.size, q.size, q.size))
        for r in range(q.size):
            dq = np.zeros(q.size)
            dq[r] = self.h
            vp, vm = self.values(k, q + dq, cache), self.values(k, q - dq, cache)
            J[:, :, r] = (vp - vm) / (2.0 * self.h)
        return J

    def sym_grid(self, j, l, q, cache):
        vj, vl = self.values(j, q, cache), self.values(l, q, cache)
        Jj, Jl = self.jacobian(j, q, cache), self.jacobian(l, q, cache)
        G = christoffel(self.sys, q)
        out = np.einsum("gir,gr->gi", Jl, vj) + np.einsum("gir,gr->gi", Jj, vl)
        out += np.einsum("ijk,gj,gk->gi", G, vj, vl)
        out += np.einsum("ijk,gj,gk->gi", G, vl, vj)
        return out

    def term(self, k, q, t):
        return lagrange4_interp(self.grid, self.values(k, np.asarray(q, float), {}), t)

    def predict_qs(self, K, q0, dt, steps):
        def rhs(t, q):
            cache = {}
            f = sum(lagrange4_interp(self.grid, self.values(k, q, cache), t)
                    for k in range(1, K + 1))
            return f, f

        return _rk4(rhs, np.asarray(q0, float), 0.0, dt, steps)[0]


def sine_forcing(sys, amps):
    return [lambda t, _a=a, _w=w: _a * np.sin(_w * t + 0.3) for w, a in enumerate(amps, 1)]


@pytest.mark.parametrize(
    "model, actuators, K",
    [
        ("planar-body", (4,), 1),
        ("planar-body", (4,), 2),
        ("planar-body", (4,), 3),
        ("planar-body", (1, 4), 3),
        ("three-link", (1, 2), 3),  # the planar body's Christoffel symbols vanish
    ],
    ids=["offset-K1", "offset-K2", "offset-K3", "two-inputs-K3", "three-link-K3"],
)
def test_prediction_matches_grid_recursion_oracle(model, actuators, K):
    sys = make(model, actuators=actuators)
    forcing = sine_forcing(sys, [0.1, 0.07][: len(actuators)])
    q0, T, dt = np.array([0.2, -0.1, 0.4]), 0.5, 1e-2
    pred = predict_from_rest(sys, forcing, K, q0, T, IntegratorConfig(dt=dt))
    oracle = GridRecursionOracle(sys, forcing, uniform_grid(T))
    want = oracle.predict_qs(K, q0, dt, int(round(T / dt)))
    assert np.max(np.abs(pred.qs - want)) <= 1e-14


def test_fourth_order_term_matches_grid_recursion_oracle():
    # order-4 words nest two central differences: agreement is at FD noise
    sys = make("planar-body", actuators=(4,))
    forcing = sine_forcing(sys, [0.1])
    grid = uniform_grid(1.0)
    terms = series_terms(sys, forcing, 4, grid)
    oracle = GridRecursionOracle(sys, forcing, grid)
    q, t = np.array([0.1, -0.6, 0.8]), 0.77
    want = oracle.term(4, q, t)
    assert np.linalg.norm(terms[3](q, t) - want) <= 1e-3 * np.linalg.norm(want)


def test_quadrature_runs_only_while_engine_is_built(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return cumulative_simpson_uniform(*args, **kwargs)

    monkeypatch.setattr(series, "cumulative_simpson_uniform", counted)
    sys = make("planar-body", actuators=(4,))
    forcing = sine_forcing(sys, [0.1])
    counts = []
    for dt in (1e-2, 5e-3):
        calls.clear()
        predict_from_rest(sys, forcing, 3, np.zeros(3), 0.5, IntegratorConfig(dt=dt))
        counts.append(len(calls))
    assert counts == [3, 3]  # one cumulative quadrature per order, none per RK4 stage


def test_recorded_velocities_match_per_sample_evaluation(monkeypatch):
    sys = make("three-link", actuators=(1, 2))
    forcing = sine_forcing(sys, [0.1, 0.07])
    q0, T, dt = np.array([0.2, -0.1, 0.4]), 0.5, 1e-2
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return lagrange4_interp(*args, **kwargs)

    monkeypatch.setattr(series, "lagrange4_interp", counted)
    pred = predict_from_rest(sys, forcing, 2, q0, T, IntegratorConfig(dt=dt))
    steps = int(round(T / dt))
    assert len(calls) == 4 * steps + 1  # RK4 stage 1 supplies the sampled velocity
    engine = series._Engine(sys, [forcing], 2, uniform_grid(T))
    want = np.array([engine.velocity(q, t) for q, t in zip(pred.qs, pred.times)])
    assert pred.qds.tobytes() == want.tobytes()
