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

The synthesis picks the fast inputs as one matrix over the basis
oscillations psi_N(tau) = sqrt(2) N cos(N tau), one frequency N per pair
a < b: w(tau, t) = A(t) psi(tau), so that the pair coefficients equal
prescribed gains z_ab(t), and picks v_a to cancel the <Y_a : Y_a> drift
(possible whenever every <Y_a : Y_a> lies in the input span, with
coefficients alpha).  The averaged system is then forced by
sum_a z_a Y_a + sum_{a<b} z_ab <Y_a : Y_b> — more directions than the
original m inputs.  Every consumer reads the gains once per t as arrays,
(z, Z) = AveragedGains.at(t), with z_ab in the strict upper triangle of Z.

The fast period is 2 pi, the period of every psi_N.  Every Ubar is spectral
on the one periodic grid TAU: an FFT antiderivative and means over TAU, exact
up to round-off for the synthesis' trigonometric polynomials.  One constant,
STEPS_PER_PERIOD, sets how many RK4 steps a fast period eps 2 pi gets: the
control law's suggested_max_dt and member_config's member step both read it.
"""

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .errors import ConfigError, SpanAssumptionError
from .geometry import MechanicalSystem
from .numutil import loglog_slope
from .simulation import ControlLaw, IntegratorConfig, State, Trajectory, _write_rows
from .simulation import MAX_STEPS, check_grid, simulate, simulate_forced

TWO_PI = 2.0 * math.pi
NODES_PER_PERIOD = 256
TAU = np.linspace(0.0, TWO_PI, NODES_PER_PERIOD, endpoint=False)
TAU.flags.writeable = False  # handed to the caller's signals
STEPS_PER_PERIOD = 50  # RK4 steps per fast period eps 2 pi; fewer, and simulate warns
SPAN_TOL = 1e-6  # worst relative residual of <Y_a : Y_a> off the input span
AUDIT_TIMES = np.sort(np.random.default_rng(0).uniform(0.0, 10.0, size=20))


def psi(N):
    """Basis oscillation psi_N(tau) = sqrt(2) N cos(N tau); zero mean,
    antiderivative sqrt(2) sin(N tau) is also zero mean over a period.
    N may be an array of frequencies, which broadcasts against tau."""
    if not np.all((np.asarray(N) >= 1) & (np.asarray(N) % 1 == 0)):
        raise ValueError("N must be a positive integer")
    return lambda tau: math.sqrt(2.0) * N * np.cos(N * np.asarray(tau, dtype=float))


def _antiderivative(fast, t, order):
    """W(tau) = int_0^tau w on TAU of the fast inputs w = fast(TAU, t), for a Ubar of
    total multiplicity order: W_k = w_k / (i k), shifted so that W(0) = 0.  Exact to
    round-off for a zero-mean w below frequency NODES_PER_PERIOD // (2 max(2, order)),
    where order W's multiply with no alias in their mean; ValueError, naming t, if not."""
    c = np.fft.rfft(np.asarray(fast(TAU, t), dtype=float))
    tol = 1e-12 * max(1.0, np.max(np.abs(c), initial=0.0))  # round-off, floored at unit scale
    top = NODES_PER_PERIOD // (2 * max(2, order))
    if np.any(np.abs(c[..., 0]) > tol):
        raise ValueError(f"the fast input at t={t} has a nonzero mean")
    if np.any(np.abs(c[..., top:]) > tol):
        raise ValueError(f"the fast input at t={t} has a frequency of {top} or more")
    c[..., 0] = 0.0
    c[..., 1:] /= 1j * np.arange(1, c.shape[-1])
    W = np.fft.irfft(c, NODES_PER_PERIOD)
    return W - W[..., :1]


def averaged_iterated_integral(fast, k, t=0.0) -> float:
    """Ubar_{k_1..k_m}(t) of the stacked 2 pi-periodic inputs fast(tau, t), an
    (m, len(tau)) array for array tau, spectrally on TAU."""
    k = np.asarray(k)
    if np.any(k % 1 != 0) or np.any(k < 0) or k.sum() < 1:
        raise ValueError("multiplicities must be nonnegative integers with positive sum")
    W = _antiderivative(fast, t, k.sum())
    if W.shape != (len(k), TAU.size):
        raise ValueError("one multiplicity per input signal")
    integrand = np.prod(W ** k[:, None], axis=0)
    return float(np.mean(integrand) / math.prod(math.factorial(int(x)) for x in k))


# -- gains and synthesized controls -------------------------------------------


def lexicographic_enumeration(m: int) -> Dict[Tuple[int, int], int]:
    """Distinct frequencies N = 1, 2, ... for the pairs a < b (0-based), in
    lexicographic order: the one pair order of the synthesis, the audit and
    the recorded gain vector."""
    return {pair: N for N, pair in enumerate(itertools.combinations(range(m), 2), start=1)}


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

    def at(self, t):
        """(z, Z) at t: z[a] = z_a(t), shape (m,), and Z[a, b] = z_ab(t) in the
        strict upper triangle of the (m, m) Z, zero elsewhere."""
        Z = np.zeros((self.m, self.m))
        for (a, b), g in self.z_pairs.items():
            Z[a, b] = g(t)
        return np.array([g(t) for g in self.z], dtype=float), Z

    @staticmethod
    def constant(z_values, pair_values=None) -> "AveragedGains":
        z = [lambda t, _c=float(c): _c for c in z_values]
        pairs = {}
        for key, c in (pair_values or {}).items():
            pairs[key] = lambda t, _c=float(c): _c
        return AveragedGains(z=z, z_pairs=pairs)


def fast_parts(gains: AveragedGains):
    """The synthesized fast inputs as one callable w(tau, t) = A(t) psi(tau).

    psi(tau) holds the basis oscillation of every pair frequency of
    lexicographic_enumeration, and column (a, b) of A(t) is z_ab(t) in row a
    and -1 in row b: each pair feeds its frequency positively (scaled by the
    gain) into the lower index and negatively (unscaled) into the higher one,
    which makes the pair's averaged cross integral exactly -z_ab(t).  Returns
    (m,) for a scalar tau and (m, len(tau)) for an array tau.  w(tau, t, Z)
    takes the pair gains Z of gains.at(t) as read by its caller.
    """
    enum = lexicographic_enumeration(gains.m)
    a, b = np.triu_indices(gains.m, 1)  # the pairs a < b in the enumeration's order
    pairs = np.arange(len(enum))
    signs = np.zeros((gains.m, len(enum)))
    signs[b, pairs] = -1.0
    basis = psi(np.array(list(enum.values()), dtype=int))

    def fast(tau, t, Z=None):
        A = signs.copy()
        A[a, pairs] = (gains.at(t)[1] if Z is None else Z)[a, b]
        return A @ basis(np.asarray(tau, dtype=float)[..., None]).T

    return fast


def _drift(Z):
    """The <Y_a : Y_a> drift 1/2 (a + sum_c Z_ac^2) of the fast parts, a 0-based."""
    return 0.5 * (np.arange(len(Z)) + np.sum(Z**2, axis=1))


@dataclass(frozen=True)
class SpanCoefficients:
    """alpha(q) with <Y_a : Y_a>(q) = sum_b alpha[a, b] Y_b(q), by least squares
    through the m x m normal equations (Y^T Y) alpha^T = Y^T <Y_a : Y_a>.

    q may be an array or a kernel point ``sys.at(q)``.  ``check(q)`` returns
    alpha, and raises when the worst relative residual exceeds SPAN_TOL — the
    standing assumption behind the drift cancellation fails there.
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

    def check(self, q):
        q, alpha, res = self._solve(q)
        if res > SPAN_TOL:
            raise SpanAssumptionError(q, res, SPAN_TOL)
        return alpha


@dataclass(frozen=True)
class OscillatoryControl:
    """u_a(t, q) = slow_a(t, q) + (1/epsilon) fast_a(t/epsilon, t); slow takes q or sys.at(q).

    Each part also takes the gains (z, Z) = gains.at(t) as read by its caller (slow all of
    them, fast Z), so a control-law evaluation reads them once for both.
    """

    slow: Callable[..., np.ndarray]
    fast: Callable[..., np.ndarray]
    epsilon: float
    gains: AveragedGains

    def as_control_law(self) -> ControlLaw:
        def ev(t, q, qd):
            zZ = self.gains.at(t)
            return self.slow(t, q, zZ) + self.fast(t / self.epsilon, t, zZ[1]) / self.epsilon

        max_dt = self.epsilon * TWO_PI / STEPS_PER_PERIOD
        return ControlLaw(ev, suggested_max_dt=max_dt, reads_point=True)


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
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    coeffs = SpanCoefficients(sys=sys)

    def slow(t, q, zZ=None):
        alpha = coeffs.check(q)
        z, Z = gains.at(t) if zZ is None else zZ
        return z + alpha.T @ _drift(Z)

    return OscillatoryControl(slow=slow, fast=fast_parts(gains), epsilon=epsilon, gains=gains)


# -- the averaged system --------------------------------------------------------


@dataclass(frozen=True)
class AveragedSystem:
    """The eps-independent reference dynamics under gains (z_a, z_ab)."""

    sys: MechanicalSystem
    gains: AveragedGains

    def __post_init__(self):
        if self.gains.m != self.sys.m:
            raise ValueError(f"gains are for m={self.gains.m}, system has m={self.sys.m}")

    def forcing(self, t, q):
        pt = self.sys.at(q)
        z, Z = self.gains.at(t)
        return pt.Y @ z + np.einsum("ab,abi->i", Z, pt.products)

    def gain_vector(self, t):
        """(z_1 .. z_m, then z_ab in lexicographic_enumeration's order) at t."""
        z, Z = self.gains.at(t)
        return np.concatenate([z, Z[np.triu_indices(self.gains.m, 1)]])

    def simulate(self, x0: State, t0, t1, cfg: IntegratorConfig) -> Trajectory:
        """The averaged trajectory, with the gain vector at each sample as its inputs."""
        traj = simulate_forced(self.sys, lambda t, pt, qd: self.forcing(t, pt), x0, t0, t1, cfg)
        return replace(traj, us=np.array([self.gain_vector(t) for t in traj.times]))


def _ubar_table(fast, t):
    """First- and second-order Ubar at time t of the fast parts fast(tau, t),
    an (m, len(tau)) array for array tau.

    Returns (U1, U2): U1[a] = Ubar_{e_a}, U2[a, b] = Ubar_{e_a + e_b}
    (with the 1/2! factor on the diagonal)."""
    W = _antiderivative(fast, t, 2)
    U1 = np.mean(W, axis=-1)
    U2 = np.mean(W[:, None] * W[None], axis=-1)
    U2[np.diag_indices(len(W))] *= 0.5
    return U1, U2


def general_averaged_forcing(sys: MechanicalSystem, control: OscillatoryControl):
    """Acceleration forcing of the general averaged equation, term by term.

    Independent of the synthesis shortcuts: takes the spectral Ubar of the control's
    fast part at each t and assembles sum_a v_a Y_a + sum_a (1/2 U1_a^2 - U2_aa)
    <Y_a:Y_a> + sum_{a<b} (U1_a U1_b - U2_ab) <Y_a:Y_b>.  Use with simulate_forced;
    control.fast must accept an array tau, as synthesize_controls' does, and stay
    below frequency NODES_PER_PERIOD // 4 (ValueError otherwise)."""

    def forcing(t, q, qd=None):
        U1, U2 = _ubar_table(control.fast, t)
        C = np.triu(np.outer(U1, U1) - U2)  # the coefficients of <Y_a:Y_b>, a <= b
        C[np.diag_indices(len(U1))] -= 0.5 * U1**2
        pt = sys.at(q)
        return pt.Y @ control.slow(t, pt) + np.einsum("ab,abi->i", C, pt.products)

    return forcing


# -- audits and convergence studies ---------------------------------------------


def synthesis_audit(gains: AveragedGains) -> dict:
    """Spectral check of the synthesis identities at the AUDIT_TIMES (20 times in
    [0, 10) drawn with seed 0).  For the synthesized fast parts, the pair coefficient
    U1_a U1_b - U2_ab must equal z_ab(t), the diagonal Ubar U2_aa the drift
    1/2 (a + sum_c Z_ac^2) that the slow part cancels, and the means U1 zero."""
    m, fast = gains.m, fast_parts(gains)
    U1, U2 = (np.array(u) for u in zip(*[_ubar_table(fast, float(t)) for t in AUDIT_TIMES]))
    Z = np.array([gains.at(t)[1] for t in AUDIT_TIMES])  # (times, m, m), like U2
    drift = np.array([_drift(Zt) for Zt in Z])

    def record(coef, target, **key):
        diff = float(np.max(np.abs(coef - target)))
        return {**key, "coefficient": coef.tolist(), "target": target.tolist(), "difference": diff}

    pairs = [
        record(U1[:, a] * U1[:, b] - U2[:, a, b], Z[:, a, b], pair=[a + 1, b + 1])
        for (a, b) in lexicographic_enumeration(m)
    ]
    diagonal = [record(U2[:, a, a], drift[:, a], input=a + 1) for a in range(m)]
    worst = max(r["difference"] for r in pairs + diagonal)  # diagonal has m >= 1 records
    return {
        "m": m,
        "period": TWO_PI,
        "times": [float(t) for t in AUDIT_TIMES],
        "pairs": pairs,
        "diagonal": diagonal,
        "fast_mean_worst": float(np.max(np.abs(U1))),
        "max_difference": float(worst),
    }


@dataclass(frozen=True)
class ConvergenceStudy:
    """Tracking errors per epsilon and their log-log slope, with the averaged
    reference (at dt_avg) and the member trajectories, one per epsilon."""

    epsilons: np.ndarray
    errors: np.ndarray
    averaged: Trajectory
    members: Tuple[Trajectory, ...]

    @property
    def slope(self):
        """loglog_slope(epsilons, errors): NaN when fewer than 2 epsilons are distinct or an
        error is not positive."""
        return loglog_slope(self.epsilons, self.errors)

    def write_csv(self, path):
        eps, errs = self.epsilons, self.errors
        parts = [loglog_slope(eps[: i + 1], errs[: i + 1]) for i in range(len(eps))]
        _write_rows(path, ["epsilon", "max_err", "slope_partial"], [eps, errs, parts])


def member_config(dt_avg, eps, t1):
    """(sub, cfg) for an eps member over [0, t1]: the fewest sub RK4 steps of cfg.dt per
    dt_avg that keep cfg.dt within the law's suggested_max_dt (STEPS_PER_PERIOD per fast
    period); every sub-th sample lands on the dt_avg grid.  ConfigError unless eps is finite
    and positive, dt_avg divides t1, the member takes at most MAX_STEPS steps and cfg.dt
    divides t1."""
    if not 0.0 < eps < math.inf:
        raise ConfigError(f"epsilon must be finite and positive, got {eps}")
    sub = dt_avg * STEPS_PER_PERIOD / (eps * TWO_PI)
    if not sub * check_grid(0.0, t1, dt_avg) <= MAX_STEPS:  # inf * 0 is nan: refused
        raise ConfigError(
            f"dt_avg={dt_avg} and epsilon={eps} give {sub:.3g} member steps per dt_avg,"
            f" more than {MAX_STEPS} over [0, {t1}]"
        )
    sub = max(1, math.ceil(sub) - 1)  # the rounded quotient: the least sub is at most 2 more
    for _ in range(2):  # the least sub whose step passes the law's own check
        sub += dt_avg / sub > eps * TWO_PI / STEPS_PER_PERIOD
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
    Members run one after the other in the given epsilon order.
    """
    ref = AveragedSystem(sys, gains).simulate(x0, 0.0, T_final, IntegratorConfig(dt=dt_avg))

    eps_list, members, errors = list(eps_list), [], []
    for eps in eps_list:
        control = synthesize_controls(sys, gains, eps)
        sub, cfg = member_config(dt_avg, eps, T_final)
        members.append(simulate(sys, control.as_control_law(), x0, 0.0, T_final, cfg))
        errors.append(np.max(np.linalg.norm(members[-1].qs[::sub] - ref.qs, axis=1)))
    eps_arr = np.array(eps_list, dtype=float)
    err_arr = np.array(errors, dtype=float)
    return ConvergenceStudy(eps_arr, err_arr, ref, tuple(members))
