"""Oscillatory controls: iterated-integral averages, synthesis identities,
the averaged system, and epsilon-convergence of the true dynamics."""

import dataclasses
import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geoctrl import (
    AveragedGains,
    IntegratorConfig,
    State,
    averaged_iterated_integral,
    averaged_system,
    convergence_study,
    fast_parts,
    general_averaged_forcing,
    lexicographic_enumeration,
    make,
    psi,
    simulate_forced,
    span_coefficients,
    synthesis_audit,
    synthesize_controls,
)
from geoctrl.errors import SpanAssumptionError
from geoctrl.numutil import cumulative_simpson_uniform, simpson_uniform
from geoctrl.oscillatory import TWO_PI, _eval_signal, _stacked, _ubar_table


# -- basis oscillations and averaged iterated integrals ------------------------


def test_psi_amplitude_and_zero_mean():
    p = psi(3)
    assert abs(p(0.0) - 3.0 * math.sqrt(2.0)) < 1e-14
    tau = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    assert abs(np.mean(p(tau))) < 1e-12


def test_psi_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        psi(0)


def test_first_order_average_of_psi_vanishes():
    for N in (1, 2, 5):
        assert abs(averaged_iterated_integral([psi(N)], (1,))) < 1e-10


def test_second_order_average_of_psi_is_half():
    # antiderivative W = sqrt(2) sin(N tau), so mean of W^2 / 2! is 1/2
    for N in (1, 3):
        val = averaged_iterated_integral([psi(N)], (2,))
        assert abs(val - 0.5) < 1e-8


def test_cross_average_of_distinct_frequencies_vanishes():
    val = averaged_iterated_integral([psi(1), psi(2)], (1, 1))
    assert abs(val) < 1e-10


def test_averaged_integral_validates_multiplicities():
    with pytest.raises(ValueError):
        averaged_iterated_integral([psi(1)], (1, 1))
    with pytest.raises(ValueError):
        averaged_iterated_integral([psi(1)], (-1,))
    with pytest.raises(ValueError):
        averaged_iterated_integral([psi(1)], (0,))


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
    for w in fast_parts(gains):
        assert abs(np.mean(w(tau, 0.0))) < 1e-12


def test_pair_cross_average_is_negated_gain():
    # Ubar_{e_a + e_b} = -z_ab for the synthesized fast parts
    gains = AveragedGains.constant([0.0, 0.0, 0.0], {(0, 1): 0.7, (0, 2): -0.3})
    ws = fast_parts(gains)
    for (a, b), target in (((0, 1), 0.7), ((0, 2), -0.3), ((1, 2), 0.0)):
        val = averaged_iterated_integral([ws[a], ws[b]], (1, 1))
        assert abs(val + target) < 1e-8


def test_diagonal_average_counts_lower_pairs():
    # Ubar_{2 e_a} = (a + sum_{c>a} z_ac^2) / 2: each lower pair feeds an
    # unscaled oscillation into w_a, each higher pair a z_ac-scaled one
    gains = AveragedGains.constant([0.0, 0.0, 0.0], {(0, 1): 0.5})
    ws = fast_parts(gains)
    expected = [0.5 * 0.25, 0.5 * 1.0, 0.5 * 2.0]
    for a in range(3):
        val = averaged_iterated_integral([ws[a]], (2,))
        assert abs(val - expected[a]) < 1e-8


def ubar_table_oracle(fast, m, t):
    """The per-input, per-pair Ubar table that preceded the one-pass table;
    kept as an oracle.  ``fast`` is a list of m signals w_a(tau, t)."""
    tau = np.linspace(0.0, TWO_PI, 2001)
    dx = tau[1] - tau[0]
    W = np.array([cumulative_simpson_uniform(_eval_signal(fast[a], tau, t), dx) for a in range(m)])
    U1 = simpson_uniform(W, dx, axis=1) / TWO_PI
    U2 = np.empty((m, m))
    for a in range(m):
        for b in range(a, m):
            val = simpson_uniform(W[a] * W[b], dx) / TWO_PI
            if a == b:
                val *= 0.5
            U2[a, b] = U2[b, a] = val
    return U1, U2


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
    ],
    ids=["m2", "m3"],
)
def test_ubar_table_matches_per_pair_oracle_bitwise(gains):
    ws = fast_parts(gains)
    for t in (0.0, 0.4, 1.7, 3.0):
        U1, U2 = _ubar_table(_stacked(ws), t)
        want1, want2 = ubar_table_oracle(ws, gains.m, t)
        assert np.array_equal(U1, want1) and np.array_equal(U2, want2)


# -- span coefficients ----------------------------------------------------------


def test_span_alpha_zero_for_flat_constant_inputs():
    sys = make("flat", actuators=(1, 2))
    coeffs = span_coefficients(sys, np.zeros(2))
    assert_allclose(coeffs.alpha(np.array([0.3, -1.2])), 0.0, atol=1e-12)
    assert coeffs.residual(np.zeros(2)) < 1e-12


def test_span_alpha_pvtol_closed_form():
    sys = make("pvtol", gravity=0.0)
    coeffs = span_coefficients(sys, np.zeros(3))
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
    with pytest.raises(SpanAssumptionError) as ei:
        span_coefficients(sys, np.array([0.2, -0.1, 0.4]))
    assert ei.value.residual > 0.1


# -- synthesized controls --------------------------------------------------------


def test_synthesize_rejects_bad_arguments():
    sys = make("pvtol", gravity=0.0)
    with pytest.raises(ValueError, match="m="):
        synthesize_controls(sys, AveragedGains.constant([0.1]), 0.1)
    with pytest.raises(ValueError, match="epsilon"):
        synthesize_controls(sys, AveragedGains.constant([0.1, 0.2]), 0.0)


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


def test_zero_gains_average_to_unforced_dynamics():
    sys = make("blimp")
    avg = averaged_system(sys, AveragedGains.constant([0.0, 0.0]))
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
    ref = averaged_system(sys, gains).simulate(x0, 0.0, 1.0, cfg)
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
    traj = averaged_system(sys, gains).simulate(
        State(q=np.zeros(3), qdot=np.zeros(3)), 0.0, 0.1, IntegratorConfig(dt=1e-2)
    )
    assert traj.us.shape == (11, 3)
    assert_allclose(traj.us[0], [0.2, -0.1, 0.6], atol=1e-15)


def test_averaged_input_distribution_spans_blimp():
    sys = make("blimp")
    avg = averaged_system(sys, AveragedGains.constant([0.0, 0.0], {(0, 1): 1.0}))
    assert avg.input_distribution_rank(np.array([0.1, 0.2, -0.4])) == 3


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


def test_convergence_errors_shrink_with_epsilon():
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
    buf = io.StringIO()
    study.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "epsilon,max_err,slope_partial"
    assert len(lines) == 4
    assert lines[1].endswith("nan")



def test_cli_and_convergence_study_use_one_substep_rule(tmp_path, capsys, monkeypatch):
    """An epsilon member is integrated at the same step by `geoctrl run`
    (oscillatory-track) and by convergence_study."""
    from geoctrl import cli, oscillatory

    class Stop(Exception):
        pass

    steps = {}

    def recording(caller):
        def simulate(sys, law, x0, t0, t1, cfg):
            steps[caller] = cfg.dt
            raise Stop

        return simulate

    monkeypatch.setattr(cli, "simulate", recording("cli"))
    monkeypatch.setattr(oscillatory, "simulate", recording("library"))
    sys = make("pvtol", gravity=0.0)
    gains = AveragedGains.constant([0.2, -0.1], {(0, 1): 0.5})
    x0 = State(q=np.zeros(3), qdot=np.zeros(3))
    members = [(0.1, 0.01), (0.05, 0.01), (0.013, 0.02), (1.0 / TWO_PI, 0.01), (5.0, 0.01)]
    for eps, dt_avg in members:
        config = tmp_path / "track.yaml"
        config.write_text(
            "experiment: oscillatory-track\n"
            "model: {name: pvtol, parameters: {gravity: 0.0}}\n"
            f"oscillatory_track:\n  epsilon: {eps!r}\n  t1: 0.1\n  dt_avg: {dt_avg!r}\n"
            "  gains: {z: [{type: const, value: 0.2}, {type: const, value: -0.1}],"
            " pairs: [{pair: [1, 2], type: const, value: 0.5}]}\n"
        )
        cli.main(["run", str(config), "--out", str(tmp_path / "o")])
        capsys.readouterr()
        with pytest.raises(Stop):
            convergence_study(sys, gains, x0, 0.1, [eps, eps / 2], dt_avg=dt_avg)
        assert steps.pop("cli") == steps.pop("library")
