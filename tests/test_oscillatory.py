"""Oscillatory controls: iterated-integral averages, synthesis identities,
the averaged system, and epsilon-convergence of the true dynamics."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geoctrl import (
    AveragedGains,
    AveragedSystem,
    IntegratorConfig,
    MechanicalSystem,
    State,
    averaged_iterated_integral,
    convergence_study,
    fast_parts,
    general_averaged_forcing,
    lexicographic_enumeration,
    make,
    psi,
    read_trajectory_csv,
    simulate,
    simulate_forced,
    synthesis_audit,
    synthesize_controls,
)
from geoctrl.errors import ConfigError, SpanAssumptionError
from geoctrl.oscillatory import (
    AUDIT_TIMES,
    STEPS_PER_PERIOD,
    TWO_PI,
    SpanCoefficients,
    _ubar_table,
    member_config,
)


# -- basis oscillations and averaged iterated integrals ------------------------


def test_psi_amplitude_and_zero_mean():
    p = psi(3)
    assert abs(p(0.0) - 3.0 * math.sqrt(2.0)) < 1e-14
    tau = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    assert abs(np.mean(p(tau))) < 1e-12


def test_psi_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        psi(0)
    for N in (1.5, np.array([1, 2.5])):  # psi_1.5 is not 2 pi-periodic
        with pytest.raises(ValueError, match="positive integer"):
            psi(N)


def stacked(*N):
    """The basis oscillations psi_N, one row each, as a stacked fast input w(tau, t)."""
    return lambda tau, t: psi(np.array(N)[:, None])(tau)


def test_first_order_average_of_psi_vanishes():
    for N in (1, 2, 5):
        assert abs(averaged_iterated_integral(stacked(N), (1,))) < 1e-14


def test_second_order_average_of_psi_is_half():
    # antiderivative W = sqrt(2) sin(N tau), so mean of W^2 / 2! is 1/2
    for N in (1, 3):
        val = averaged_iterated_integral(stacked(N), (2,))
        assert abs(val - 0.5) < 1e-14


def test_cross_average_of_distinct_frequencies_vanishes():
    val = averaged_iterated_integral(stacked(1, 2), (1, 1))
    assert abs(val) < 1e-14


def test_averaged_integral_validates_multiplicities():
    with pytest.raises(ValueError):
        averaged_iterated_integral(stacked(1), (1, 1))
    with pytest.raises(ValueError):
        averaged_iterated_integral(stacked(1), (-1,))
    with pytest.raises(ValueError):
        averaged_iterated_integral(stacked(1), (0,))
    for k in ((1.5,), (0.5, 0.5)):  # int(1.5) would be a silent 1
        with pytest.raises(ValueError, match="integers"):
            averaged_iterated_integral(stacked(*range(1, len(k) + 1)), k)


def test_unresolved_fast_inputs_raise_naming_t():
    # a product of |k| antiderivatives aliases into its mean from frequency
    # NODES_PER_PERIOD / |k| on; frequencies from 256 // (2 max(2, |k|)) on raise
    for k, top in (((1,), 64), ((2,), 64), ((3,), 42)):
        averaged_iterated_integral(stacked(top - 1), k)
        with pytest.raises(ValueError, match=f"t=0.5 has a frequency of {top} or more"):
            averaged_iterated_integral(stacked(top), k, t=0.5)
    with pytest.raises(ValueError, match="t=0.5 has a nonzero mean"):
        averaged_iterated_integral(lambda tau, t: np.cos(tau)[None] + 1e-9, (2,), t=0.5)


def test_a_fast_input_zero_to_round_off_has_zero_average():
    # entries of at most 2.2e-16: round-off is judged at unit scale at least, not
    # against the input's own largest coefficient
    def fast(tau, t):
        return (np.sin(tau) ** 2 + np.cos(tau) ** 2 - 1.0)[None]

    for k in (1, 2, 3):  # a product of k antiderivatives of size 1e-16 at most
        assert abs(averaged_iterated_integral(fast, (k,))) < 1e-15**k


# -- gains and the synthesized fast parts --------------------------------------


def test_gains_reject_bad_pair_keys():
    with pytest.raises(ValueError, match="pair"):
        AveragedGains.constant([0.0, 0.0], {(1, 0): 1.0})


def test_lexicographic_enumeration_is_injective():
    enum = lexicographic_enumeration(4)
    assert enum[(0, 1)] == 1 and enum[(2, 3)] == 6
    assert sorted(enum.values()) == list(range(1, 7))


def test_fast_parts_have_zero_mean():
    gains = AveragedGains.constant([0.1, -0.2, 0.3], {(0, 1): 0.5, (1, 2): -0.4})
    tau = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    for w in fast_parts(gains)(tau, 0.0):
        assert abs(np.mean(w)) < 1e-12


def test_pair_cross_average_is_negated_gain():
    # Ubar_{e_a + e_b} = -z_ab for the synthesized fast parts
    gains = AveragedGains.constant([0.0, 0.0, 0.0], {(0, 1): 0.7, (0, 2): -0.3})
    fast = fast_parts(gains)
    for (a, b), target in (((0, 1), 0.7), ((0, 2), -0.3), ((1, 2), 0.0)):
        val = averaged_iterated_integral(fast, np.eye(3, dtype=int)[a] + np.eye(3, dtype=int)[b])
        assert abs(val + target) < 1e-14


def test_diagonal_average_counts_lower_pairs():
    # Ubar_{2 e_a} = (a + sum_{c>a} z_ac^2) / 2: each lower pair feeds an
    # unscaled oscillation into w_a, each higher pair a z_ac-scaled one
    gains = AveragedGains.constant([0.0, 0.0, 0.0], {(0, 1): 0.5})
    fast = fast_parts(gains)
    expected = [0.5 * 0.25, 0.5 * 1.0, 0.5 * 2.0]
    for a in range(3):
        val = averaged_iterated_integral(fast, 2 * np.eye(3, dtype=int)[a])
        assert abs(val - expected[a]) < 1e-14


M4_GAINS = AveragedGains(
    z=[lambda t: 0.1, lambda t: -0.2, lambda t: 0.0, lambda t: 0.3 * t],
    z_pairs={  # (0, 2) and (1, 3) left out: zero gain
        (0, 1): lambda t: 0.5 * math.sin(t),
        (0, 3): lambda t: 0.3 - 0.1 * t,
        (1, 2): lambda t: -0.4 * math.cos(2.0 * t),
        (2, 3): lambda t: 0.2 + 0.05 * t * t,
    },
)


@pytest.mark.parametrize(
    "gains",
    [
        AveragedGains(
            z=[lambda t: 0.0, lambda t: 0.1], z_pairs={(0, 1): lambda t: 0.8 * math.cos(t)}
        ),
        AveragedGains(
            z=[lambda t: 0.0, lambda t: 0.1, lambda t: -0.2],
            z_pairs={(0, 1): lambda t: 0.5 * math.sin(t), (1, 2): lambda t: 0.3 - 0.1 * t},
        ),
        M4_GAINS,
    ],
    ids=["m2", "m3", "m4"],
)
def test_ubar_table_matches_closed_form(gains):
    # w = A psi with orthonormal antiderivatives sqrt(2) sin(N tau): U1 = 0 and
    # U2 = A A^T with the diagonal halved, where column (a, b) of A is z_ab in
    # row a and -1 in row b
    fast, enum = fast_parts(gains), lexicographic_enumeration(gains.m)
    for t in (0.0, 0.4, 1.7, 3.0):
        A = np.zeros((gains.m, len(enum)))
        for p, (a, b) in enumerate(enum):
            A[a, p], A[b, p] = gains.z_pairs.get((a, b), lambda t: 0.0)(t), -1.0
        want = A @ A.T
        want[np.diag_indices(gains.m)] *= 0.5
        U1, U2 = _ubar_table(fast, t)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(U1)) <= 1e-14 * scale and np.max(np.abs(U2 - want)) <= 1e-14 * scale


def every_pair_gains(m):
    """Time-varying gains on all m (m - 1) / 2 pairs, the highest frequency of the synthesis."""
    pairs = itertools.combinations(range(m), 2)
    return AveragedGains(
        z=[lambda t: 0.1] * m,
        z_pairs={(a, b): (lambda t, a=a, b=b: math.sin(t + a) / (1 + b)) for a, b in pairs},
    )


@pytest.mark.parametrize("m", [8, 11])
def test_synthesis_audit_to_round_off_for_many_inputs(m):
    # highest frequency 28 and 55: below NODES_PER_PERIOD // 4 = 64
    audit = synthesis_audit(every_pair_gains(m))
    assert audit["max_difference"] <= 1e-12 and audit["fast_mean_worst"] <= 1e-12


def test_twelve_inputs_are_beyond_the_fast_grid():
    # 66 pair frequencies: the top ones alias, so the audit raises instead of answering
    with pytest.raises(ValueError, match=f"t={AUDIT_TIMES[0]} has a frequency of 64 or more"):
        synthesis_audit(every_pair_gains(12))


def per_pair_fast_input(gains, a, tau, t):
    """w_a = -sum_{c<a} psi_N(c,a) + sum_{c>a} z_ac(t) psi_N(a,c), pair by pair."""
    enum = lexicographic_enumeration(gains.m)
    out = np.zeros(np.shape(tau))
    for c in range(a):
        out = out - psi(enum[(c, a)])(tau)
    for c in range(a + 1, gains.m):
        out = out + gains.z_pairs.get((a, c), lambda t: 0.0)(t) * psi(enum[(a, c)])(tau)
    return out


def test_fast_parts_matrix_form_matches_per_pair_closures_m4():
    fast = fast_parts(M4_GAINS)
    for t in (0.0, 0.7, 2.3):
        for tau in (0.3, 5.1, np.linspace(0.0, TWO_PI, 101)):
            want = np.array([per_pair_fast_input(M4_GAINS, a, tau, t) for a in range(4)])
            got = fast(tau, t)
            assert got.shape == want.shape == (4,) + np.shape(tau)
            # relative: |w| reaches 20 here, where one ulp is 3.6e-15
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_gains_at_and_the_lexicographic_pair_order_m4():
    enum = lexicographic_enumeration(4)
    t = 0.7
    z, Z = M4_GAINS.at(t)
    assert_allclose(z, [0.1, -0.2, 0.0, 0.3 * t], rtol=0, atol=0)
    assert np.array_equal(Z, np.triu(Z, 1))
    pair_gains = [M4_GAINS.z_pairs.get(pair, lambda t: 0.0) for pair in enum]
    assert np.array_equal(Z[tuple(np.array(list(enum)).T)], [g(t) for g in pair_gains])
    sys = MechanicalSystem(
        n=4, inertia=lambda q: np.eye(4), input_covectors=[lambda q, _e=e: _e for e in np.eye(4)]
    )
    avg = AveragedSystem(sys, M4_GAINS)
    assert np.array_equal(avg.gain_vector(t), np.concatenate([z, [g(t) for g in pair_gains]]))
    audit = synthesis_audit(M4_GAINS)
    assert [p["pair"] for p in audit["pairs"]] == [[a + 1, b + 1] for (a, b) in enum]
    for p, g in zip(audit["pairs"], pair_gains):
        assert p["target"] == [g(s) for s in audit["times"]]


# -- span coefficients ----------------------------------------------------------


def test_span_alpha_zero_for_flat_constant_inputs():
    sys = make("flat", actuators=(1, 2))
    coeffs = SpanCoefficients(sys)
    assert_allclose(coeffs.check(np.array([0.3, -1.2])), 0.0, atol=1e-12)
    assert coeffs._solve(np.zeros(2))[2] < 1e-12


def test_span_alpha_pvtol_closed_form():
    sys = make("pvtol", gravity=0.0)
    coeffs = SpanCoefficients(sys)
    rng = np.random.default_rng(7)
    for q in rng.uniform(-1.5, 1.5, size=(10, 3)):
        alpha = coeffs.check(q)
        # <Y_roll : Y_roll> = (2 coupling / J) Y_thrust and <Y_thrust : Y_thrust> = 0
        assert_allclose(alpha[0], 0.0, atol=1e-8)
        assert abs(alpha[1, 0] - 2.0) < 1e-8
        assert abs(alpha[1, 1]) < 1e-8


def test_span_violation_raises():
    # offset thruster: <Y:Y> points along the unactuated sway direction
    sys = make("planar-body", actuators=(1, 4))
    q = np.array([0.2, -0.1, 0.4])
    with pytest.raises(SpanAssumptionError) as ei:
        SpanCoefficients(sys).check(q)
    assert ei.value.residual > 0.1
    assert isinstance(ei.value.q, np.ndarray) and np.array_equal(ei.value.q, q)
    # handed a kernel point, the error still carries q as an array
    with pytest.raises(SpanAssumptionError) as ei:
        SpanCoefficients(sys).check(sys.at(q))
    assert isinstance(ei.value.q, np.ndarray) and np.array_equal(ei.value.q, q)


@pytest.mark.parametrize(
    "sys", [make("pvtol", gravity=0.0), make("blimp"), make("flat", actuators=(1, 2))],
    ids=["pvtol", "blimp", "flat"],
)
def test_span_normal_equations_match_lstsq(sys):
    coeffs = SpanCoefficients(sys)
    for q in np.random.default_rng(11).uniform(-1.5, 1.5, size=(20, sys.n)):
        pt = sys.at(q)
        D = np.diagonal(pt.products, axis1=0, axis2=1)
        want = np.linalg.lstsq(pt.Y, D, rcond=None)[0].T
        _, got, _ = coeffs._solve(pt)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        _, alpha, worst = coeffs._solve(q)
        assert np.array_equal(got, alpha)  # a point and its q give one answer
        res = np.linalg.norm(D - pt.Y @ want.T, axis=0) / np.maximum(1.0, np.linalg.norm(D, axis=0))
        assert abs(worst - res.max()) <= 1e-12


# -- synthesized controls --------------------------------------------------------


def test_synthesize_rejects_bad_arguments():
    sys = make("pvtol", gravity=0.0)
    with pytest.raises(ValueError, match="m="):
        synthesize_controls(sys, AveragedGains.constant([0.1]), 0.1)
    with pytest.raises(ValueError, match="epsilon"):
        synthesize_controls(sys, AveragedGains.constant([0.1, 0.2]), 0.0)


@pytest.mark.parametrize("eps", [-0.1, 0.0, math.inf, math.nan])
def test_a_bad_epsilon_is_refused(eps):
    with pytest.raises(ConfigError, match=f"epsilon must be finite and positive, got {eps}"):
        member_config(1e-2, eps, 1.0)
    with pytest.raises(ValueError, match=f"epsilon must be finite and positive, got {eps}"):
        synthesize_controls(make("pvtol", gravity=0.0), AveragedGains.constant([0.1, 0.2]), eps)


def test_single_input_controls_are_purely_slow():
    sys = make("flat")  # m = 1: no pairs, nothing to oscillate
    control = synthesize_controls(sys, AveragedGains.constant([0.4]), 0.05)
    tau = np.linspace(0.0, TWO_PI, 64)
    assert_allclose(control.fast(tau, 0.0), 0.0, atol=1e-15)
    assert_allclose(control.slow(0.0, np.zeros(2)), [0.4], atol=1e-12)


def test_fast_shapes_scalar_and_array():
    sys = make("pvtol", gravity=0.0)
    gains = AveragedGains.constant([0.0, 0.0], {(0, 1): 0.3})
    control = synthesize_controls(sys, gains, 0.1)
    assert control.fast(0.3, 0.0).shape == (2,)
    assert control.fast(np.linspace(0.0, 1.0, 11), 0.0).shape == (2, 11)


def test_slow_part_cancels_diagonal_drift():
    # pvtol alpha = [[0, 0], [2, 0]]; drift = (z01^2, 1) by the pair count,
    # so v = z + (alpha^T drift) / 2 shifts only the thrust channel
    sys = make("pvtol", gravity=0.0)
    control = synthesize_controls(
        sys, AveragedGains.constant([0.1, -0.2], {(0, 1): 0.5}), 0.1
    )
    q = np.array([0.3, -0.8, 0.4])
    assert_allclose(control.slow(0.0, q), [0.1 + 1.0, -0.2], atol=1e-8)


def test_control_law_combines_slow_and_scaled_fast():
    sys = make("pvtol", gravity=0.0)
    eps = 0.05
    gains = AveragedGains.constant([0.0, 0.0], {(0, 1): 0.3})
    control = synthesize_controls(sys, gains, eps)
    law = control.as_control_law()
    t, q = 0.37, np.array([0.1, -0.2, 0.25])
    expected = control.slow(t, q) + control.fast(t / eps, t) / eps
    assert_allclose(law.eval(t, q, np.zeros(3)), expected, atol=1e-13)
    assert abs(law.suggested_max_dt - eps * TWO_PI / 50.0) < 1e-15


def test_law_evaluation_reads_the_gains_once(monkeypatch):
    # slow and fast share one gains.at(t) per law evaluation; alone, each reads its own
    reads = []
    at = AveragedGains.at
    monkeypatch.setattr(AveragedGains, "at", lambda self, t: reads.append(t) or at(self, t))
    sys = make("pvtol", gravity=0.0)
    gains = AveragedGains(z=[lambda t: 0.1 * t, lambda t: -0.2], z_pairs={(0, 1): math.cos})
    control = synthesize_controls(sys, gains, 0.05)
    law = control.as_control_law()
    evaluations = []
    counted = dataclasses.replace(
        law, eval=lambda t, q, qd: evaluations.append(t) or law.eval(t, q, qd)
    )
    rest = State(q=np.zeros(3), qdot=np.zeros(3))
    simulate(sys, counted, rest, 0.0, 0.05, IntegratorConfig(dt=1e-3))
    assert len(evaluations) == 4 * 50 + 1 and reads == evaluations
    t, q, tau = 0.37, np.array([0.1, -0.2, 0.25]), np.linspace(0.0, 1.0, 5)
    reads.clear()
    want = control.slow(t, q) + control.fast(t / 0.05, t) / 0.05
    assert len(reads) == 2 and law.eval(t, q, np.zeros(3)).tobytes() == want.tobytes()
    assert control.fast(tau, t).shape == (2, 5)  # fast(tau, t) alone, as _ubar_table reads it


def test_span_solve_with_dependent_input_fields():
    # equal input fields make Y^T Y exactly singular; alpha falls back to
    # the minimum-norm least-squares solution
    def F(q):
        return np.array([1.0, 0.0])

    sys = MechanicalSystem(n=2, inertia=lambda q: np.eye(2), input_covectors=[F, F])
    assert_allclose(SpanCoefficients(sys).check(np.zeros(2)), 0.0, atol=1e-15)


def counting_model(sys):
    """sys with inertia and dinertia counting their calls in the returned dict."""
    calls = {"inertia": 0, "dinertia": 0}

    def counted(name, fn):
        def wrapper(q):
            calls[name] += 1
            return fn(q)

        return wrapper

    sys = dataclasses.replace(
        sys, inertia=counted("inertia", sys.inertia), dinertia=counted("dinertia", sys.dinertia)
    )
    return sys, calls


def test_one_model_evaluation_per_rk4_stage():
    # the law, the span solve, the averaged forcing and the acceleration all
    # read the stage's one kernel point; three-link's M is not constant, so each
    # point evaluates it (fully actuated, so the span assumption holds)
    sys, calls = counting_model(make("three-link", actuators=(1, 2, 3)))
    gains = AveragedGains.constant([0.3, -0.2, 0.1], {(0, 1): 0.5})
    x0 = State(q=np.zeros(3), qdot=np.zeros(3))
    dt, steps, eps = 1e-2, 20, [0.2, 0.1]
    # the one constant per run: the driver's final call at the last sample,
    # whose point the law and the acceleration share, builds one more point
    AveragedSystem(sys, gains).simulate(x0, 0.0, steps * dt, IntegratorConfig(dt=dt))
    assert calls == {"inertia": 4 * steps + 1, "dinertia": 4 * steps + 1}
    calls.update(inertia=0, dinertia=0)
    convergence_study(sys, gains, x0, steps * dt, eps, dt_avg=dt)
    stages = 4 * steps * (1 + sum(member_config(dt, e, steps * dt)[0] for e in eps))
    runs = 1 + len(eps)  # the averaged reference and each member
    assert calls == {"inertia": stages + runs, "dinertia": stages + runs}


def test_laws_and_forcings_take_a_point_or_an_array():
    sys = make("pvtol", gravity=0.0)
    gains = AveragedGains.constant([0.2, -0.1], {(0, 1): 0.6})
    control = synthesize_controls(sys, gains, 0.05)
    law, forcing = control.as_control_law(), general_averaged_forcing(sys, control)
    avg = AveragedSystem(sys, gains)
    assert law.reads_point
    for q in np.random.default_rng(4).uniform(-1.0, 1.0, size=(3, 3)):
        pt = sys.at(q)
        assert np.array_equal(law.eval(0.3, pt, np.zeros(3)), law.eval(0.3, q, np.zeros(3)))
        assert np.array_equal(forcing(0.3, pt), forcing(0.3, q))
        assert np.array_equal(avg.forcing(0.3, pt), avg.forcing(0.3, q))


# -- synthesis audit --------------------------------------------------------------


def test_synthesis_audit_identities_m2():
    audit = synthesis_audit(AveragedGains.constant([0.3, -0.1], {(0, 1): 0.8}))
    assert audit["m"] == 2
    assert audit["max_difference"] < 1e-6
    assert audit["fast_mean_worst"] < 1e-9
    assert audit["pairs"][0]["pair"] == [1, 2]
    assert len(audit["times"]) == 20


def test_synthesis_audit_identities_m3_time_varying():
    gains = AveragedGains(
        z=[lambda t: 0.0, lambda t: 0.1, lambda t: -0.2],
        z_pairs={(0, 1): lambda t: 0.5 * math.sin(t), (1, 2): lambda t: 0.3},
    )
    audit = synthesis_audit(gains)
    assert audit["max_difference"] < 1e-6
    assert {tuple(p["pair"]) for p in audit["pairs"]} == {(1, 2), (1, 3), (2, 3)}


# -- the averaged system -----------------------------------------------------------


def test_averaged_system_rejects_gains_of_another_m():
    with pytest.raises(ValueError, match="gains are for m=1, system has m=2"):
        AveragedSystem(make("blimp"), AveragedGains.constant([0.1]))


def test_zero_gains_average_to_unforced_dynamics():
    sys = make("blimp")
    avg = AveragedSystem(sys, AveragedGains.constant([0.0, 0.0]))
    rng = np.random.default_rng(3)
    for q in rng.uniform(-1.0, 1.0, size=(5, 3)):
        assert np.linalg.norm(avg.forcing(0.0, q)) < 1e-14


def test_averaged_blimp_matches_term_by_term_quadrature():
    # cross-check the synthesis shortcut against Ubar quadrature of the
    # general averaged equation along a short run
    sys = make("blimp")
    gains = AveragedGains.constant([0.2, 0.0], {(0, 1): 0.6})
    x0 = State(q=np.zeros(3), qdot=np.zeros(3))
    cfg = IntegratorConfig(dt=5e-3)
    ref = AveragedSystem(sys, gains).simulate(x0, 0.0, 1.0, cfg)
    control = synthesize_controls(sys, gains, epsilon=0.05)
    forcing = general_averaged_forcing(sys, control)
    alt = simulate_forced(sys, lambda t, q, qd: forcing(t, q), x0, 0.0, 1.0, cfg)
    assert np.max(np.abs(alt.qs - ref.qs)) < 1e-6


def test_general_forcing_evaluates_fast_part_once_per_call():
    sys = make("blimp")
    control = synthesize_controls(sys, AveragedGains.constant([0.2, 0.0], {(0, 1): 0.6}), 0.05)
    calls = []

    def counting_fast(tau, t):
        calls.append(t)
        return control.fast(tau, t)

    forcing = general_averaged_forcing(sys, control)
    counted = general_averaged_forcing(sys, dataclasses.replace(control, fast=counting_fast))
    q = np.array([0.1, -0.2, 0.4])
    for k, t in enumerate((0.0, 0.3, 1.1), start=1):
        assert np.array_equal(counted(t, q), forcing(t, q))
        assert calls == [0.0, 0.3, 1.1][:k]


def test_averaged_gain_vector_is_recorded():
    sys = make("blimp")
    gains = AveragedGains.constant([0.2, -0.1], {(0, 1): 0.6})
    traj = AveragedSystem(sys, gains).simulate(
        State(q=np.zeros(3), qdot=np.zeros(3)), 0.0, 0.1, IntegratorConfig(dt=1e-2)
    )
    assert traj.us.shape == (11, 3)
    assert_allclose(traj.us[0], [0.2, -0.1, 0.6], atol=1e-15)


def test_averaged_input_distribution_spans_blimp():
    sys = make("blimp")
    # Y_1, Y_3 and their symmetric product span the configuration space
    pt = sys.at(np.array([0.1, 0.2, -0.4]))
    cols = np.column_stack([pt.Y, pt.products[0, 1]])
    assert np.linalg.matrix_rank(cols) == 3


def test_array_forms_match_per_pair_loops_m3():
    # the averaged forcing, the slow part's drift and the general forcing,
    # each against the per-pair loop it replaced
    sys = make("three-link", actuators=(1, 2, 3))  # fully actuated: alpha is not zero
    gains = AveragedGains(
        z=[lambda t: 0.1, lambda t: 0.2 * math.sin(t), lambda t: -0.2],
        z_pairs={(0, 1): lambda t: 0.5 * math.sin(t), (1, 2): lambda t: 0.3 - 0.1 * t},
    )
    control = synthesize_controls(sys, gains, 0.05)
    avg, general = AveragedSystem(sys, gains), general_averaged_forcing(sys, control)
    pairs = lexicographic_enumeration(3)
    tol = 8 * np.finfo(float).eps

    def close(got, terms):
        return np.max(np.abs(got - sum(terms))) <= tol * sum(np.max(np.abs(x)) for x in terms)

    for t, q in zip((0.0, 0.9, 2.4), np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 3))):
        pt = sys.at(q)
        S = pt.products
        z = np.array([g(t) for g in gains.z])
        zp = {pair: gains.z_pairs.get(pair, lambda t: 0.0)(t) for pair in pairs}
        assert close(avg.forcing(t, q), [pt.Y @ z] + [zp[(a, b)] * S[a, b] for (a, b) in pairs])
        drift = [0.5 * (a + sum(zp[(a, c)] ** 2 for c in range(a + 1, 3))) for a in range(3)]
        alpha = SpanCoefficients(sys).check(q)
        assert close(control.slow(t, q), [z] + [alpha[a] * drift[a] for a in range(3)])
        U1, U2 = _ubar_table(control.fast, t)
        terms = [pt.Y @ control.slow(t, q)]
        terms += [(0.5 * U1[a] ** 2 - U2[a, a]) * S[a, a] for a in range(3)]
        terms += [(U1[a] * U1[b] - U2[a, b]) * S[a, b] for (a, b) in pairs]
        assert close(general(t, q), terms)


# -- convergence studies -------------------------------------------------------------


def test_convergence_zero_control_is_exact():
    sys = make("flat")  # m = 1 with zero gains synthesizes the zero control
    study = convergence_study(
        sys,
        AveragedGains.constant([0.0]),
        State(q=np.zeros(2), qdot=np.zeros(2)),
        0.5,
        [0.1, 0.05],
        dt_avg=1e-2,
    )
    assert_allclose(study.errors, 0.0, atol=1e-14)
    assert math.isnan(study.slope)


def test_convergence_errors_shrink_with_epsilon(tmp_path):
    sys = make("blimp")
    gains = AveragedGains.constant([0.15, 0.0], {(0, 1): 0.4})
    study = convergence_study(
        sys,
        gains,
        State(q=np.zeros(3), qdot=np.zeros(3)),
        1.0,
        [0.2, 0.1, 0.05],
        dt_avg=1e-2,
    )
    assert study.errors[0] > study.errors[-1]
    assert study.slope > 0.4
    study.write_csv(tmp_path / "convergence.csv")
    lines = (tmp_path / "convergence.csv").read_text().strip().split("\n")
    assert lines[0] == "epsilon,max_err,slope_partial"
    assert len(lines) == 4
    assert lines[1].endswith("nan")



def test_convergence_slope_needs_two_distinct_epsilons(tmp_path):
    sys = make("blimp")
    gains = AveragedGains.constant([0.15, 0.0], {(0, 1): 0.4})
    x0 = State(q=np.zeros(3), qdot=np.zeros(3))
    repeated = convergence_study(sys, gains, x0, 0.2, [0.2, 0.2], dt_avg=1e-2)
    assert repeated.errors[0] == repeated.errors[1] > 0
    assert math.isnan(repeated.slope)
    study = convergence_study(sys, gains, x0, 0.2, [0.2, 0.2, 0.1], dt_avg=1e-2)
    assert math.isfinite(study.slope)
    study.write_csv(tmp_path / "convergence.csv")
    partial = [line.split(",")[2] for line in (tmp_path / "convergence.csv").read_text().split()[1:]]
    assert partial[:2] == ["nan", "nan"] and math.isfinite(float(partial[2]))


def track_config(path, eps, dt_avg):
    """An oscillatory-track config on the gravity-free pvtol over [0, 0.1]."""
    path.write_text(
        "experiment: oscillatory-track\n"
        "model: {name: pvtol, parameters: {gravity: 0.0}}\n"
        f"oscillatory_track:\n  epsilon: {eps!r}\n  t1: 0.1\n  dt_avg: {dt_avg!r}\n"
        "  gains: {z: [{type: const, value: 0.2}, {type: const, value: -0.1}],"
        " pairs: [{pair: [1, 2], type: const, value: 0.5}]}\n"
    )
    return path


def test_cli_and_convergence_study_use_one_substep_rule(tmp_path, capsys):
    """An epsilon member of `geoctrl run` (oscillatory-track) is integrated
    at the step member_config gives it."""
    from geoctrl import cli

    members = [(0.1, 0.01), (0.05, 0.01), (0.013, 0.02), (1.0 / TWO_PI, 0.01), (5.0, 0.01)]
    for eps, dt_avg in members:
        out = tmp_path / "o"
        assert cli.main(["run", str(track_config(tmp_path / "track.yaml", eps, dt_avg)),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert read_trajectory_csv(out / "true.csv").dt == member_config(dt_avg, eps, 0.1)[1].dt


def test_member_step_is_within_the_laws_bound():
    # eps with dt_avg STEPS_PER_PERIOD / (eps 2 pi) an exact integer n: there the
    # rounded quotient dt_avg / ceil(...) can land one ulp above the law's
    # suggested_max_dt, and simulate would warn (322 of these 2400 cases); and the
    # ceil of a quotient rounded above n took n + 1 steps where n met the bound
    sys, gains = make("pvtol", gravity=0.0), AveragedGains.constant([0.0, 0.0])
    for dt_avg in (1e-3, 2e-3, 5e-3, 1e-2, 0.02, 0.025, 0.05, 0.1):
        for n in range(1, 301):
            eps = dt_avg * STEPS_PER_PERIOD / (TWO_PI * n)
            max_dt = synthesize_controls(sys, gains, eps).as_control_law().suggested_max_dt
            sub, cfg = member_config(dt_avg, eps, 10 * dt_avg)
            assert sub in (n, n + 1) and cfg.dt <= max_dt
            assert sub == 1 or dt_avg / (sub - 1) > max_dt  # the fewest member steps


def test_member_steps_resolve_the_fast_period():
    # criterion 07's study: twice the member steps moves each error by < 1e-6
    # relative; its errors peak before t = 0.5, so the shorter horizon shows it
    sys = make("pvtol", gravity=0.0)
    gains = AveragedGains.constant([0.3, 0.2], {(0, 1): 0.5})
    x0, T, eps = State(q=np.zeros(3), qdot=np.zeros(3)), 0.5, [0.1, 0.05, 0.025, 0.0125]
    study = convergence_study(sys, gains, x0, T, eps)
    for e, err in zip(eps, study.errors):
        sub, cfg = member_config(1e-2, e, T)
        law = synthesize_controls(sys, gains, e).as_control_law()
        fine = simulate(sys, law, x0, 0.0, T, IntegratorConfig(dt=cfg.dt / 2))
        fine_err = np.max(np.linalg.norm(fine.qs[:: 2 * sub] - study.averaged.qs, axis=1))
        assert abs(fine_err - err) < 1e-6 * err


def test_oscillatory_track_is_a_one_epsilon_convergence_study(tmp_path, capsys):
    from geoctrl import cli

    sys = make("pvtol", gravity=0.0)
    gains = AveragedGains.constant([0.2, -0.1], {(0, 1): 0.5})
    x0 = State(q=np.zeros(3), qdot=np.zeros(3))
    out = tmp_path / "o"
    assert cli.main(["run", str(track_config(tmp_path / "track.yaml", 0.05, 0.01)),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    study = convergence_study(sys, gains, x0, 0.1, [0.05], dt_avg=0.01)
    results = json.loads((out / "run_manifest.json").read_text())["results"]
    assert results["max_tracking_err"] == study.errors[0]
    study.members[0].write_csv(tmp_path / "true.csv")
    study.averaged.write_csv(tmp_path / "averaged.csv")
    for name in ("true.csv", "averaged.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
