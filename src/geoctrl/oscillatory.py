"""Averaging of oscillatory inputs and the three-step inversion synthesis.

High-frequency, high-amplitude inputs u_a = v_a(t, q) + (1/eps) *
w_a(t/eps, t), with w 2 pi-periodic and zero-mean in its first argument,
drive a mechanical system to track — to O(eps) in configuration — an
averaged system whose extra forcing directions are symmetric products of
the input fields.  The coefficients are averaged multinomial iterated
integrals of the fast inputs:

    Ubar_{k_1..k_m}(t) = (1/2 pi) / (k_1! ... k_m!) *
        int_0^{2 pi} prod_a ( int_0^s w_a(tau, t) dtau )^{k_a} ds,

and the averaged dynamics reads

    grad_rdot rdot = Y_0 + k(rdot)
        + sum_a  (1/2 Ubar_{e_a}^2 - Ubar_{2 e_a}) <Y_a : Y_a>
        + sum_{a<b} (Ubar_{e_a} Ubar_{e_b} - Ubar_{e_a + e_b}) <Y_a : Y_b>
        + sum_a v_a Y_a.

The synthesis picks w_a as signed combinations of the basis oscillations
psi_N(tau) = sqrt(2) N cos(N tau) so that the pair coefficients equal
prescribed gains z_ab(t), and picks v_a to cancel the <Y_a : Y_a> drift
(possible whenever every <Y_a : Y_a> lies in the input span, with
coefficients alpha).  The averaged system is then forced by
sum_a z_a Y_a + sum_{a<b} z_ab <Y_a : Y_b> — more directions than the
original m inputs.

The fast period is 2 pi, the period of every psi_N.  Every tau integral
is composite Simpson on the one grid TAU of NODES_PER_PERIOD (odd) nodes
over [0, 2 pi], and an epsilon member of a simulation takes the RK4
steps per averaged step that member_config gives it, so that its fast
period eps 2 pi gets at least STEPS_PER_PERIOD of them.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .errors import ConfigError, SpanAssumptionError
from .geometry import MechanicalSystem
from .numutil import cumulative_simpson_uniform, loglog_slope, simpson_uniform
from .simulation import ControlLaw, IntegratorConfig, State, Trajectory, _write_rows
from .simulation import MAX_STEPS, check_grid, simulate, simulate_forced

TWO_PI = 2.0 * math.pi
NODES_PER_PERIOD = 2001
TAU = np.linspace(0.0, TWO_PI, NODES_PER_PERIOD)
TAU.flags.writeable = False  # handed to the caller's signals
DTAU = TAU[1] - TAU[0]
STEPS_PER_PERIOD = 100
SPAN_TOL = 1e-6  # worst relative residual of <Y_a : Y_a> off the input span
AUDIT_TIMES = np.sort(np.random.default_rng(0).uniform(0.0, 10.0, size=20))


def psi(N: int):
    """Basis oscillation psi_N(tau) = sqrt(2) N cos(N tau); zero mean,
    antiderivative sqrt(2) sin(N tau) is also zero mean over a period."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    return lambda tau: math.sqrt(2.0) * N * np.cos(N * np.asarray(tau, dtype=float))


def _eval_signal(u, tau, t):
    """Evaluate u on the tau array; accepts u(tau, t) or u(tau), vectorized
    or scalar-only."""
    for call in (lambda: u(tau, t), lambda: u(tau)):
        try:
            val = np.asarray(call(), dtype=float)
        except TypeError:
            continue
        if val.shape == tau.shape:
            return val
    out = np.empty_like(tau)
    for i, x in enumerate(tau):
        try:
            out[i] = float(u(x, t))
        except TypeError:
            out[i] = float(u(x))
    return out


def averaged_iterated_integral(u, k, t=0.0) -> float:
    """Ubar_{k_1..k_m}(t) of the 2 pi-periodic signals u by composite Simpson quadrature."""
    k = tuple(int(x) for x in k)
    if len(k) != len(u):
        raise ValueError("one multiplicity per input signal")
    if any(x < 0 for x in k) or sum(k) < 1:
        raise ValueError("multiplicities must be nonnegative with positive sum")
    integrand = np.ones_like(TAU)
    for a, ka in enumerate(k):
        if ka == 0:
            continue
        W = cumulative_simpson_uniform(_eval_signal(u[a], TAU, t), DTAU)
        integrand = integrand * W**ka
    fact = math.prod(math.factorial(x) for x in k)
    return float(simpson_uniform(integrand, DTAU) / (TWO_PI * fact))


# -- gains and synthesized controls -------------------------------------------


def lexicographic_enumeration(m: int) -> Dict[Tuple[int, int], int]:
    """Distinct frequencies for the pairs a < b (0-based), starting at 1."""
    out = {}
    N = 1
    for a in range(m):
        for b in range(a + 1, m):
            out[(a, b)] = N
            N += 1
    return out


@dataclass(frozen=True)
class AveragedGains:
    """Direct gains z_a(t) and pair gains z_ab(t) for a < b (0-based keys).

    Missing pairs default to zero gain.
    """

    z: Sequence[Callable[[float], float]]
    z_pairs: Dict[Tuple[int, int], Callable[[float], float]] = field(default_factory=dict)

    def __post_init__(self):
        for (a, b) in self.z_pairs:
            if not (0 <= a < b < self.m):
                raise ValueError(f"bad pair key {(a, b)} for m={self.m}")

    @property
    def m(self):
        return len(self.z)

    def pair_gain(self, a, b):
        return self.z_pairs.get((a, b), lambda t: 0.0)

    def pair_keys(self):
        m = self.m
        return [(a, b) for a in range(m) for b in range(a + 1, m)]

    @staticmethod
    def constant(z_values, pair_values=None) -> "AveragedGains":
        z = [lambda t, _c=float(c): _c for c in z_values]
        pairs = {}
        for key, c in (pair_values or {}).items():
            pairs[key] = lambda t, _c=float(c): _c
        return AveragedGains(z=z, z_pairs=pairs)


def fast_parts(gains: AveragedGains):
    """The synthesized w_a(tau, t) for the given gains.

    w_a = -sum_{c<a} psi_N(c,a) + sum_{c>a} z_ac(t) psi_N(a,c): each pair
    (a, b) contributes its frequency N(a, b) from lexicographic_enumeration
    positively (scaled by the gain) to the lower index and negatively
    (unscaled) to the higher one, which makes the pair's averaged cross
    integral exactly -z_ab(t).
    """
    m = gains.m
    enum = lexicographic_enumeration(m)

    def w(a):
        minus = [psi(enum[(c, a)]) for c in range(a)]
        plus = [(gains.pair_gain(a, c), psi(enum[(a, c)])) for c in range(a + 1, m)]

        def wa(tau, t):
            tau = np.asarray(tau, dtype=float)
            out = np.zeros_like(tau)
            for p in minus:
                out = out - p(tau)
            for zg, p in plus:
                out = out + zg(t) * p(tau)
            return out

        return wa

    return [w(a) for a in range(m)]


def _stacked(ws):
    def fast(tau, t):
        # (m,) for scalar tau, (m, len(tau)) for array tau
        return np.stack([np.asarray(w(tau, t), dtype=float) for w in ws])

    return fast


def _drift(gains: AveragedGains, t):
    """The <Y_a : Y_a> drift 1/2 (a + sum_{c>a} z_ac(t)^2) of the fast parts, a 0-based."""
    m = gains.m
    return np.array(
        [0.5 * (a + sum(gains.pair_gain(a, c)(t) ** 2 for c in range(a + 1, m))) for a in range(m)]
    )


@dataclass(frozen=True)
class SpanCoefficients:
    """alpha(q) with <Y_a : Y_a>(q) = sum_b alpha[a, b] Y_b(q), by least squares
    through the m x m normal equations (Y^T Y) alpha^T = Y^T <Y_a : Y_a>.

    q may be an array or a kernel point ``sys.at(q)``.  ``check`` raises when
    the worst relative residual exceeds SPAN_TOL — the standing assumption
    behind the drift cancellation fails there.
    """

    sys: MechanicalSystem

    def _solve(self, q):
        """(q as an array, alpha, worst relative residual)."""
        pt = self.sys.at(q)
        Y, D = pt.Y, np.diagonal(pt.products, axis1=0, axis2=1)  # column a of D is <Y_a : Y_a>
        try:
            coef = np.linalg.solve(Y.T @ Y, Y.T @ D)
        except np.linalg.LinAlgError:  # dependent input fields: the minimum-norm alpha
            coef = np.linalg.lstsq(Y, D, rcond=None)[0]
        res = np.linalg.norm(D - Y @ coef, axis=0) / np.maximum(1.0, np.linalg.norm(D, axis=0))
        return pt.q, coef.T, float(res.max())

    def alpha(self, q):
        return self._solve(q)[1]

    def residual(self, q):
        return self._solve(q)[2]

    def check(self, q):
        q, alpha, res = self._solve(q)
        if res > SPAN_TOL:
            raise SpanAssumptionError(q, res, SPAN_TOL)
        return alpha


def span_coefficients(sys: MechanicalSystem, q) -> SpanCoefficients:
    """Validated span coefficients at q (and lazily anywhere else)."""
    coeffs = SpanCoefficients(sys=sys)
    coeffs.check(q)
    return coeffs


@dataclass(frozen=True)
class OscillatoryControl:
    """u_a(t, q) = slow_a(t, q) + (1/epsilon) fast_a(t/epsilon, t); slow takes q or sys.at(q)."""

    slow: Callable[[float, np.ndarray], np.ndarray]
    fast: Callable[[float, float], np.ndarray]
    epsilon: float

    @property
    def suggested_max_dt(self):
        # resolve the fast period with >= 50 steps
        return self.epsilon * TWO_PI / 50.0

    def as_control_law(self) -> ControlLaw:
        def ev(t, q, qd):
            return self.slow(t, q) + self.fast(t / self.epsilon, t) / self.epsilon

        return ControlLaw(ev, suggested_max_dt=self.suggested_max_dt, reads_point=True)


def synthesize_controls(
    sys: MechanicalSystem, gains: AveragedGains, epsilon: float
) -> OscillatoryControl:
    """Controls whose averaged effect is z_a Y_a + sum_{a<b} z_ab <Y_a:Y_b>.

    The slow part v_a = z_a + 1/2 sum_b alpha_ba(q) (b + sum_{c>b} z_bc^2)
    (b 0-based) cancels the <Y_b : Y_b> drift of the oscillations; the
    span coefficients alpha are evaluated at whatever q the control is
    asked at, and the span assumption is checked there.
    """
    if gains.m != sys.m:
        raise ValueError(f"gains are for m={gains.m}, system has m={sys.m}")
    if not 0.0 < epsilon:
        raise ValueError("epsilon must be positive")
    coeffs = SpanCoefficients(sys=sys)

    def slow(t, q):
        alpha = coeffs.check(q)
        return np.array([z(t) for z in gains.z]) + alpha.T @ _drift(gains, t)

    return OscillatoryControl(slow=slow, fast=_stacked(fast_parts(gains)), epsilon=epsilon)


# -- the averaged system --------------------------------------------------------


@dataclass(frozen=True)
class AveragedSystem:
    """The eps-independent reference dynamics under gains (z_a, z_ab)."""

    sys: MechanicalSystem
    gains: AveragedGains

    def forcing(self, t, q):
        pt = self.sys.at(q)
        z = np.array([g(t) for g in self.gains.z])
        out = pt.Y @ z
        for (a, b) in self.gains.pair_keys():
            zab = self.gains.pair_gain(a, b)(t)
            if zab != 0.0:
                out = out + zab * pt.products[a, b]
        return out

    def gain_vector(self, t):
        z = [g(t) for g in self.gains.z]
        z += [self.gains.pair_gain(a, b)(t) for (a, b) in self.gains.pair_keys()]
        return np.array(z)

    def simulate(self, x0: State, t0, t1, cfg: IntegratorConfig) -> Trajectory:
        return simulate_forced(
            self.sys,
            lambda t, pt, qd: self.forcing(t, pt),
            x0,
            t0,
            t1,
            cfg,
            record=self.gain_vector,
        )

    def input_distribution_rank(self, q) -> int:
        """Rank of span{Y_a, <Y_b:Y_c>}, singular values below 1e-8 of the
        largest dropped — n means fully actuated on average."""
        pt = self.sys.at(q)
        cols = [pt.Y] + [pt.products[a, b][:, None] for (a, b) in self.gains.pair_keys()]
        sv = np.linalg.svd(np.hstack(cols), compute_uv=False)
        return int(np.sum(sv > 1e-8 * sv[0])) if sv[0] > 0 else 0


def averaged_system(sys: MechanicalSystem, gains: AveragedGains) -> AveragedSystem:
    if gains.m != sys.m:
        raise ValueError(f"gains are for m={gains.m}, system has m={sys.m}")
    return AveragedSystem(sys=sys, gains=gains)


def _ubar_table(fast, t):
    """First- and second-order Ubar at time t of the fast parts fast(tau, t),
    an (m, len(tau)) array for array tau.

    Returns (U1, U2): U1[a] = Ubar_{e_a}, U2[a, b] = Ubar_{e_a + e_b}
    (with the 1/2! factor on the diagonal)."""
    W = cumulative_simpson_uniform(fast(TAU, t), DTAU, axis=1)
    U1 = simpson_uniform(W, DTAU, axis=1) / TWO_PI
    U2 = simpson_uniform(W[:, None] * W[None], DTAU, axis=2) / TWO_PI
    U2[np.diag_indices(len(W))] *= 0.5
    return U1, U2


def general_averaged_forcing(sys: MechanicalSystem, control: OscillatoryControl):
    """Acceleration forcing of the general averaged equation, term by term.

    Independent of the synthesis shortcuts: evaluates the Ubar integrals
    of the control's fast part by quadrature at each t and assembles
    sum_a v_a Y_a + sum_a (1/2 U1_a^2 - U2_aa) <Y_a:Y_a>
    + sum_{a<b} (U1_a U1_b - U2_ab) <Y_a:Y_b>.  Use with simulate_forced;
    control.fast must accept an array tau, as synthesize_controls' does.
    """
    m = sys.m

    def forcing(t, q, qd=None):
        U1, U2 = _ubar_table(control.fast, t)
        pt = sys.at(q)
        S = pt.products
        out = pt.Y @ control.slow(t, pt)
        for a in range(m):
            out = out + (0.5 * U1[a] ** 2 - U2[a, a]) * S[a, a]
            for b in range(a + 1, m):
                out = out + (U1[a] * U1[b] - U2[a, b]) * S[a, b]
        return out

    return forcing


# -- audits and convergence studies ---------------------------------------------


def synthesis_audit(gains: AveragedGains) -> dict:
    """Quadrature check of the synthesis identities at the AUDIT_TIMES
    (20 times in [0, 10) drawn with seed 0).

    For the synthesized fast parts: the pair coefficient U1_a U1_b -
    U2_ab must equal -(-z_ab) ... i.e. z_ab(t); the diagonal integral
    U2_aa must equal the drift 1/2 (a + sum_{c>a} z_ac^2) that the slow
    part cancels; and the first-order means U1 must vanish.
    """
    m, times = gains.m, AUDIT_TIMES
    fast = _stacked(fast_parts(gains))
    tables = [_ubar_table(fast, float(t)) for t in times]
    drifts = [_drift(gains, t) for t in times]

    def record(coefficient, target, **key):
        coefficient, target = [float(c) for c in coefficient], [float(x) for x in target]
        diff = float(np.max(np.abs(np.array(coefficient) - np.array(target))))
        return {**key, "coefficient": coefficient, "target": target, "difference": diff}

    pairs = [
        record(
            [U1[a] * U1[b] - U2[a, b] for U1, U2 in tables],
            [gains.pair_gain(a, b)(t) for t in times],
            pair=[a + 1, b + 1],
        )
        for (a, b) in gains.pair_keys()
    ]
    diagonal = [
        record([U2[a, a] for _, U2 in tables], [d[a] for d in drifts], input=a + 1)
        for a in range(m)
    ]
    mean_worst = max([0.0] + [float(np.max(np.abs(U1))) for U1, _ in tables])
    worst = max(
        [p["difference"] for p in pairs] + [d["difference"] for d in diagonal] + [0.0]
    )
    return {
        "m": m,
        "period": TWO_PI,
        "times": [float(t) for t in times],
        "pairs": pairs,
        "diagonal": diagonal,
        "fast_mean_worst": mean_worst,
        "max_difference": float(worst),
    }


@dataclass(frozen=True)
class ConvergenceStudy:
    epsilons: np.ndarray
    errors: np.ndarray
    slope: float
    averaged: Trajectory

    def write_csv(self, path_or_file):
        eps, errs = self.epsilons, self.errors
        parts = [
            loglog_slope(eps[: i + 1], errs[: i + 1])
            if i > 0 and np.all(errs[: i + 1] > 0) else float("nan")
            for i in range(len(eps))
        ]
        _write_rows(path_or_file, ["epsilon", "max_err", "slope_partial"], zip(eps, errs, parts))


def member_config(dt_avg, eps, t1):
    """(sub, cfg) for an eps member over [0, t1]: sub RK4 steps of cfg.dt per
    dt_avg, so that its fast period eps 2 pi gets at least STEPS_PER_PERIOD of
    them and every sub-th sample lands on the dt_avg grid.  ConfigError unless
    dt_avg divides t1, the member takes at most MAX_STEPS steps and cfg.dt
    divides t1."""
    sub = dt_avg * STEPS_PER_PERIOD / (eps * TWO_PI)
    if not sub * check_grid(0.0, t1, dt_avg) <= MAX_STEPS:  # inf * 0 is nan: refused
        raise ConfigError(
            f"dt_avg={dt_avg} and epsilon={eps} give {sub:.3g} member steps per dt_avg,"
            f" more than {MAX_STEPS} over [0, {t1}]"
        )
    sub = max(1, math.ceil(sub))
    cfg = IntegratorConfig(dt=dt_avg / sub)
    check_grid(0.0, t1, cfg.dt)
    return sub, cfg


def convergence_study(
    sys: MechanicalSystem,
    gains: AveragedGains,
    x0: State,
    T_final: float,
    eps_list: Sequence[float],
    dt_avg: float = 1e-2,
) -> ConvergenceStudy:
    """Tracking error of the true oscillatory system vs the averaged one.

    The averaged reference runs once at dt_avg; each epsilon member runs
    at the nested step of member_config(dt_avg, eps, T_final), which
    resolves the fast period and keeps the sample grids aligned.
    Members run one after the other in the given epsilon order.  The
    slope is NaN when fewer than 2 epsilons are given or an error is not
    positive.
    """
    ref = averaged_system(sys, gains).simulate(
        x0, 0.0, T_final, IntegratorConfig(dt=dt_avg)
    )

    def member(eps):
        control = synthesize_controls(sys, gains, eps)
        sub, cfg = member_config(dt_avg, eps, T_final)
        traj = simulate(sys, control.as_control_law(), x0, 0.0, T_final, cfg)
        qeps = traj.qs[::sub]
        return float(np.max(np.linalg.norm(qeps - ref.qs, axis=1)))

    eps_list = list(eps_list)
    eps_arr = np.array(eps_list, dtype=float)
    err_arr = np.array([member(eps) for eps in eps_list], dtype=float)
    fit = eps_arr.size >= 2 and np.all(err_arr > 0)
    slope = loglog_slope(eps_arr, err_arr) if fit else float("nan")
    return ConvergenceStudy(epsilons=eps_arr, errors=err_arr, slope=slope, averaged=ref)
