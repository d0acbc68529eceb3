"""Averaging of oscillatory inputs and the three-step inversion synthesis.

High-frequency, high-amplitude inputs u_a = v_a(t, q) + (1/eps) *
w_a(t/eps, t), with w T-periodic and zero-mean in its first argument,
drive a mechanical system to track — to O(eps) in configuration — an
averaged system whose extra forcing directions are symmetric products of
the input fields.  The coefficients are averaged multinomial iterated
integrals of the fast inputs:

    Ubar_{k_1..k_m}(t) = (1/T) / (k_1! ... k_m!) *
        int_0^T prod_a ( int_0^s w_a(tau, t) dtau )^{k_a} ds,

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
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import SpanAssumptionError
from .geometry import MechanicalSystem, input_span_data, pairwise_symmetric_products
from .numutil import cumulative_simpson_uniform, format_sig17, loglog_slope, simpson_uniform
from .simulation import ControlLaw, IntegratorConfig, State, Trajectory, simulate, simulate_forced

TWO_PI = 2.0 * math.pi
NODES_PER_PERIOD = 2001


def worker_count() -> int:
    """Thread budget for parameter sweeps (env GEOCTRL_THREADS caps it)."""
    env = os.environ.get("GEOCTRL_THREADS")
    if env:
        try:
            k = int(env)
            if k >= 1:
                return k
        except ValueError:
            pass
    return os.cpu_count() or 1


def psi(N: int):
    """Basis oscillation psi_N(tau) = sqrt(2) N cos(N tau); zero mean,
    antiderivative sqrt(2) sin(N tau) is also zero mean over a period."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    return lambda tau: math.sqrt(2.0) * N * np.cos(N * np.asarray(tau, dtype=float))


def _tau_grid(T, nodes=NODES_PER_PERIOD):
    if nodes % 2 == 0:
        nodes += 1
    return np.linspace(0.0, T, nodes)


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


def averaged_iterated_integral(u, k, T, t=0.0, nodes=NODES_PER_PERIOD) -> float:
    """Ubar_{k_1..k_m}(t) of the signals u by composite Simpson quadrature."""
    k = tuple(int(x) for x in k)
    if len(k) != len(u):
        raise ValueError("one multiplicity per input signal")
    if any(x < 0 for x in k) or sum(k) < 1:
        raise ValueError("multiplicities must be nonnegative with positive sum")
    tau = _tau_grid(T, nodes)
    dx = tau[1] - tau[0]
    integrand = np.ones_like(tau)
    for a, ka in enumerate(k):
        if ka == 0:
            continue
        W = cumulative_simpson_uniform(_eval_signal(u[a], tau, t), dx)
        integrand = integrand * W**ka
    fact = math.prod(math.factorial(x) for x in k)
    return float(simpson_uniform(integrand, dx) / (T * fact))


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

    Missing pairs default to zero gain.  The enumeration assigns each pair
    its oscillation frequency and must be injective.
    """

    z: Sequence[Callable[[float], float]]
    z_pairs: Dict[Tuple[int, int], Callable[[float], float]] = field(default_factory=dict)
    enumeration: Optional[Dict[Tuple[int, int], int]] = None

    def __post_init__(self):
        m = self.m
        for (a, b) in self.z_pairs:
            if not (0 <= a < b < m):
                raise ValueError(f"bad pair key {(a, b)} for m={m}")
        enum = self.enumeration
        if enum is None:
            enum = lexicographic_enumeration(m)
            object.__setattr__(self, "enumeration", enum)
        pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
        if sorted(enum.keys()) != pairs:
            raise ValueError("enumeration must cover exactly the pairs a < b")
        vals = list(enum.values())
        if len(set(vals)) != len(vals) or any(v < 1 for v in vals):
            raise ValueError("enumeration must be injective with frequencies >= 1")

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
    (a, b) contributes its frequency positively (scaled by the gain) to
    the lower index and negatively (unscaled) to the higher one, which
    makes the pair's averaged cross integral exactly -z_ab(t).
    """
    m = gains.m
    enum = gains.enumeration

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


@dataclass(frozen=True)
class SpanCoefficients:
    """alpha(q) with <Y_a : Y_a>(q) = sum_b alpha[a, b] Y_b(q), by least squares.

    ``check`` raises when the worst relative residual exceeds tol — the
    standing assumption behind the drift cancellation fails there.
    """

    sys: MechanicalSystem
    tol: float = 1e-6

    def _solve(self, q):
        q = np.asarray(q, dtype=float)
        Y, JY, Gam = input_span_data(self.sys, q)
        S = pairwise_symmetric_products(Y, JY, Gam)
        m = self.sys.m
        alpha = np.zeros((m, m))
        worst = 0.0
        for a in range(m):
            coef, _, _, _ = np.linalg.lstsq(Y, S[a, a], rcond=None)
            alpha[a] = coef
            res = np.linalg.norm(S[a, a] - Y @ coef) / max(1.0, np.linalg.norm(S[a, a]))
            worst = max(worst, res)
        return alpha, float(worst)

    def alpha(self, q):
        return self._solve(q)[0]

    def residual(self, q):
        return self._solve(q)[1]

    def check(self, q):
        alpha, res = self._solve(q)
        if res > self.tol:
            raise SpanAssumptionError(np.asarray(q, dtype=float), res, self.tol)
        return alpha


def span_coefficients(sys: MechanicalSystem, q, tol: float = 1e-6) -> SpanCoefficients:
    """Validated span coefficients at q (and lazily anywhere else)."""
    coeffs = SpanCoefficients(sys=sys, tol=tol)
    coeffs.check(q)
    return coeffs


@dataclass(frozen=True)
class OscillatoryControl:
    """u_a(t, q) = slow_a(t, q) + (1/epsilon) fast_a(t/epsilon, t)."""

    slow: Callable[[float, np.ndarray], np.ndarray]
    fast: Callable[[float, float], np.ndarray]
    epsilon: float
    period: float = TWO_PI

    @property
    def suggested_max_dt(self):
        # resolve the fast period with >= 50 steps
        return self.epsilon * self.period / 50.0

    def as_control_law(self) -> ControlLaw:
        def ev(t, q, qd):
            return self.slow(t, q) + self.fast(t / self.epsilon, t) / self.epsilon

        return ControlLaw(eval=ev, suggested_max_dt=self.suggested_max_dt)

    def fast_mean_residual(self, t=0.0, nodes=NODES_PER_PERIOD) -> float:
        """Worst |(1/T) int_0^T fast_a(tau, t) dtau| — should be ~0."""
        tau = _tau_grid(self.period, nodes)
        vals = np.array([self.fast(x, t) for x in tau])  # (nodes, m)
        means = simpson_uniform(vals, tau[1] - tau[0], axis=0) / self.period
        return float(np.max(np.abs(means)))


def synthesize_controls(
    sys: MechanicalSystem,
    gains: AveragedGains,
    epsilon: float,
    T: float = TWO_PI,
    span_tol: float = 1e-6,
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
    m = sys.m
    coeffs = SpanCoefficients(sys=sys, tol=span_tol)
    ws = fast_parts(gains)

    def fast(tau, t):
        # (m,) for scalar tau, (m, len(tau)) for array tau
        return np.stack([np.asarray(ws[a](tau, t), dtype=float) for a in range(m)])

    def slow(t, q):
        alpha = coeffs.check(q)
        drift = np.array(
            [
                b + sum(gains.pair_gain(b, c)(t) ** 2 for c in range(b + 1, m))
                for b in range(m)
            ]
        )
        return np.array([gains.z[a](t) for a in range(m)]) + 0.5 * (alpha.T @ drift)

    return OscillatoryControl(slow=slow, fast=fast, epsilon=epsilon, period=T)


# -- the averaged system --------------------------------------------------------


@dataclass(frozen=True)
class AveragedSystem:
    """The eps-independent reference dynamics under gains (z_a, z_ab)."""

    sys: MechanicalSystem
    gains: AveragedGains

    def forcing(self, t, q):
        Y, JY, Gam = input_span_data(self.sys, q)
        S = pairwise_symmetric_products(Y, JY, Gam)
        z = np.array([g(t) for g in self.gains.z])
        out = Y @ z
        for (a, b) in self.gains.pair_keys():
            zab = self.gains.pair_gain(a, b)(t)
            if zab != 0.0:
                out = out + zab * S[a, b]
        return out

    def gain_vector(self, t):
        z = [g(t) for g in self.gains.z]
        z += [self.gains.pair_gain(a, b)(t) for (a, b) in self.gains.pair_keys()]
        return np.array(z)

    def simulate(self, x0: State, t0, t1, cfg: IntegratorConfig) -> Trajectory:
        return simulate_forced(
            self.sys,
            lambda t, q, qd: self.forcing(t, q),
            x0,
            t0,
            t1,
            cfg,
            record=self.gain_vector,
        )

    def input_distribution_rank(self, q, tol=1e-8) -> int:
        """Rank of span{Y_a, <Y_b:Y_c>} — n means fully actuated on average."""
        Y, JY, Gam = input_span_data(self.sys, q)
        S = pairwise_symmetric_products(Y, JY, Gam)
        cols = [Y] + [S[a, b][:, None] for (a, b) in self.gains.pair_keys()]
        sv = np.linalg.svd(np.hstack(cols), compute_uv=False)
        return int(np.sum(sv > tol * sv[0])) if sv[0] > 0 else 0


def averaged_system(sys: MechanicalSystem, gains: AveragedGains) -> AveragedSystem:
    if gains.m != sys.m:
        raise ValueError(f"gains are for m={gains.m}, system has m={sys.m}")
    return AveragedSystem(sys=sys, gains=gains)


def _ubar_table(fast, m, T, t, nodes=NODES_PER_PERIOD):
    """First- and second-order Ubar of the fast parts at time t.

    Returns (U1, U2): U1[a] = Ubar_{e_a}, U2[a, b] = Ubar_{e_a + e_b}
    (with the 1/2! factor on the diagonal)."""
    tau = _tau_grid(T, nodes)
    dx = tau[1] - tau[0]
    W = np.array([cumulative_simpson_uniform(_eval_signal(fast[a], tau, t), dx) for a in range(m)])
    U1 = simpson_uniform(W, dx, axis=1) / T
    U2 = np.empty((m, m))
    for a in range(m):
        for b in range(a, m):
            val = simpson_uniform(W[a] * W[b], dx) / T
            if a == b:
                val *= 0.5
            U2[a, b] = U2[b, a] = val
    return U1, U2


def general_averaged_forcing(sys: MechanicalSystem, control: OscillatoryControl, nodes=NODES_PER_PERIOD):
    """Acceleration forcing of the general averaged equation, term by term.

    Independent of the synthesis shortcuts: evaluates the Ubar integrals
    of the control's fast part by quadrature at each t and assembles
    sum_a v_a Y_a + sum_a (1/2 U1_a^2 - U2_aa) <Y_a:Y_a>
    + sum_{a<b} (U1_a U1_b - U2_ab) <Y_a:Y_b>.  Use with simulate_forced.
    """
    m = sys.m
    fast = [lambda tau, t, _a=a: control.fast(tau, t)[_a] for a in range(m)]

    def forcing(t, q, qd=None):
        U1, U2 = _ubar_table(fast, m, control.period, t, nodes)
        Y, JY, Gam = input_span_data(sys, q)
        S = pairwise_symmetric_products(Y, JY, Gam)
        out = Y @ control.slow(t, q)
        for a in range(m):
            out = out + (0.5 * U1[a] ** 2 - U2[a, a]) * S[a, a]
            for b in range(a + 1, m):
                out = out + (U1[a] * U1[b] - U2[a, b]) * S[a, b]
        return out

    return forcing


# -- audits and convergence studies ---------------------------------------------


def synthesis_audit(
    gains: AveragedGains,
    T: float = TWO_PI,
    times: Optional[Sequence[float]] = None,
    nodes: int = NODES_PER_PERIOD,
    seed: int = 0,
) -> dict:
    """Quadrature check of the synthesis identities at sampled times.

    For the synthesized fast parts: the pair coefficient U1_a U1_b -
    U2_ab must equal -(-z_ab) ... i.e. z_ab(t); the diagonal integral
    U2_aa must equal the drift 1/2 (a + sum_{c>a} z_ac^2) that the slow
    part cancels; and the first-order means U1 must vanish.
    """
    m = gains.m
    if times is None:
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0.0, 10.0, size=20))
    ws = fast_parts(gains)
    pair_records = {key: {"coefficient": [], "target": []} for key in gains.pair_keys()}
    diag_records = [{"coefficient": [], "target": []} for _ in range(m)]
    mean_worst = 0.0
    for t in times:
        U1, U2 = _ubar_table(ws, m, T, float(t), nodes)
        mean_worst = max(mean_worst, float(np.max(np.abs(U1))))
        for (a, b) in gains.pair_keys():
            pair_records[(a, b)]["coefficient"].append(float(U1[a] * U1[b] - U2[a, b]))
            pair_records[(a, b)]["target"].append(float(gains.pair_gain(a, b)(t)))
        for a in range(m):
            drift = 0.5 * (a + sum(gains.pair_gain(a, c)(t) ** 2 for c in range(a + 1, m)))
            diag_records[a]["coefficient"].append(float(U2[a, a]))
            diag_records[a]["target"].append(float(drift))
    pairs = []
    for (a, b), rec in pair_records.items():
        diff = float(np.max(np.abs(np.array(rec["coefficient"]) - np.array(rec["target"]))))
        pairs.append(
            {
                "pair": [a + 1, b + 1],
                "coefficient": rec["coefficient"],
                "target": rec["target"],
                "difference": diff,
            }
        )
    diagonal = []
    for a, rec in enumerate(diag_records):
        diff = float(np.max(np.abs(np.array(rec["coefficient"]) - np.array(rec["target"]))))
        diagonal.append(
            {
                "input": a + 1,
                "coefficient": rec["coefficient"],
                "target": rec["target"],
                "difference": diff,
            }
        )
    worst = max(
        [p["difference"] for p in pairs] + [d["difference"] for d in diagonal] + [0.0]
    )
    return {
        "m": m,
        "period": T,
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
        close = False
        if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
            fh = open(path_or_file, "w")
            close = True
        else:
            fh = path_or_file
        try:
            fh.write("epsilon,max_err,slope_partial\n")
            for i in range(len(self.epsilons)):
                if i == 0 or not np.all(self.errors[: i + 1] > 0):
                    part = float("nan")
                else:
                    part = loglog_slope(self.epsilons[: i + 1], self.errors[: i + 1])
                fh.write(
                    f"{format_sig17(self.epsilons[i])},{format_sig17(self.errors[i])},"
                    f"{format_sig17(part)}\n"
                )
        finally:
            if close:
                fh.close()


def convergence_study(
    sys: MechanicalSystem,
    gains: AveragedGains,
    x0: State,
    T_final: float,
    eps_list: Sequence[float],
    dt_avg: float = 1e-2,
    steps_per_period: int = 100,
    T: float = TWO_PI,
    span_tol: float = 1e-6,
) -> ConvergenceStudy:
    """Tracking error of the true oscillatory system vs the averaged one.

    The averaged reference runs once at dt_avg; each epsilon member runs
    at a nested step dt_avg / ceil(dt_avg * steps_per_period / (eps T)),
    which resolves the fast period and keeps the sample grids aligned.
    Members fan out across worker threads (GEOCTRL_THREADS caps them) and
    are merged in the given epsilon order.  The slope is NaN when fewer
    than 2 epsilons are given or an error is not positive.
    """
    ref = averaged_system(sys, gains).simulate(
        x0, 0.0, T_final, IntegratorConfig(dt=dt_avg)
    )

    def member(eps):
        control = synthesize_controls(sys, gains, eps, T, span_tol)
        sub = max(1, math.ceil(dt_avg * steps_per_period / (eps * T)))
        cfg = IntegratorConfig(dt=dt_avg / sub)
        traj = simulate(sys, control.as_control_law(), x0, 0.0, T_final, cfg)
        qeps = traj.qs[::sub]
        return float(np.max(np.linalg.norm(qeps - ref.qs, axis=1)))

    eps_list = list(eps_list)
    with ThreadPoolExecutor(max_workers=min(worker_count(), len(eps_list))) as pool:
        errors = list(pool.map(member, eps_list))
    eps_arr = np.array(eps_list, dtype=float)
    err_arr = np.array(errors, dtype=float)
    fit = eps_arr.size >= 2 and np.all(err_arr > 0)
    slope = loglog_slope(eps_arr, err_arr) if fit else float("nan")
    return ConvergenceStudy(epsilons=eps_arr, errors=err_arr, slope=slope, averaged=ref)
