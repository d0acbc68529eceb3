"""Velocity series expansion for motion from rest under small forcing.

For a system with no potential or damping, forced by the time-varying
field Y(q, t) = sum_a Y_a(q) u_a(t) with the m input signals u_a given
as a list of callables t -> u_a(t), the trajectory from rest satisfies
qdot(t) = sum_k V_k(q(t), t) where the terms are built recursively from
time integrals and symmetric products:

    V_1(q, t) = int_0^t Y(q, s) ds,
    V_k(q, t) = -1/2 sum_{j=1}^{k-1} int_0^t <V_j : V_{k-j}>(q, s) ds.

V_k is homogeneous of degree k in the input amplitude, so truncating at
order K leaves an O(eps^{K+1}) velocity error for inputs of size eps.

Implementation notes: time and space separate (Bullo, "Series expansions
for the evolution of mechanical control systems", SIAM J. Control Optim.
39(6), 2001).  With U_a(t) = int_0^t u_a,

    V_2 = -1/2 sum_ab <Y_a : Y_b>(q) int_0^t U_a U_b,
    V_3 = 1/2 sum_abc <Y_c : <Y_a : Y_b>>(q) int_0^t U_c int_0^s U_a U_b,

and generally V_k = sum_w c_w(t) P_w(q) over the words w of order k: a
leaf a (c = U_a, P = Y_a) or an unordered pair (u, v) of words of orders
j + (k - j) = k, with P = <P_u : P_v> and c = -1/2 int_0^t c_u c_v summed
over both orders and every split.  The c_w are integrated once per engine
on one uniform grid (cumulative Simpson; predict_from_rest's is
uniform_grid, >= NODES_PER_UNIT nodes per unit time).  P_w is evaluated
lazily at the caller's q through a private per-call memo, a composite
word's Jacobian by central differences with step WORD_FD_STEP.  The
leaves Y_a, their Jacobians and Gamma all come from one kernel
``sys.at(q)`` per point, so M(q) is factored once.
"""

import math
from typing import Callable, List, Sequence

import numpy as np

from .geometry import MechanicalSystem, _symmetric_product
from .numutil import central_jacobian, cumulative_simpson_uniform, lagrange4_interp
from .simulation import IntegratorConfig, Trajectory, _check_grid, _record_stage_one, _rk4

NODES_PER_UNIT = 201
WORD_FD_STEP = 1e-6
MAX_ORDER = 4  # order-k words nest k - 2 central differences; round-off grows with each


def uniform_grid(T):
    """Uniform time grid on [0, T] with at least NODES_PER_UNIT nodes per unit."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    N = max(4, int(math.ceil((NODES_PER_UNIT - 1) * T)) + 1)
    return np.linspace(0.0, T, N)


class _Engine:
    """Word coefficients c_w on the grid; word values P_w at a given q."""

    def __init__(self, sys: MechanicalSystem, inputs, K, grid):
        if not 1 <= K <= MAX_ORDER:
            raise ValueError(f"series order must be in 1..{MAX_ORDER}, got K={K}")
        if sys.potential is not None or sys.damping is not None:
            raise ValueError(
                "the from-rest series requires a system without potential or damping"
            )
        if len(inputs) != sys.m:
            raise ValueError(f"expected {sys.m} input signals, got {len(inputs)}")
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 4 or grid[0] != 0.0:
            raise ValueError("grid must be a 1-D array of times starting at 0")
        steps = np.diff(grid)
        if np.max(np.abs(steps - steps[0])) > 1e-12 * max(1.0, steps[0]):
            raise ValueError("grid must be uniform")
        self.sys, self.K, self.grid = sys, K, grid
        dx = float(steps[0])
        # words[w] is an input index (leaf) or a pair (u, v) of word ids, u <= v;
        # ids are grouped by order, words of order k being ends[k-1]:ends[k]
        U = np.array([[u(t) for t in grid] for u in inputs])
        self.words = list(range(sys.m))
        coefs = list(cumulative_simpson_uniform(U, dx, axis=1))
        self.ends = [0, sys.m]
        for k in range(2, K + 1):
            integrands = {}
            for j in range(1, k):
                for u in range(self.ends[j - 1], self.ends[j]):
                    for v in range(self.ends[k - j - 1], self.ends[k - j]):
                        pair = (min(u, v), max(u, v))
                        integrands[pair] = integrands.get(pair, 0.0) + coefs[u] * coefs[v]
            self.words += list(integrands)
            S = np.array(list(integrands.values()))
            coefs += list(-0.5 * cumulative_simpson_uniform(S, dx, axis=1))
            self.ends.append(len(self.words))
        self.coefs = np.array(coefs).T  # (G, W)

    def _point(self, q, memo):
        """The kernel sys.at(q), built once per point per call."""
        key = ("point", q.tobytes())
        if key not in memo:
            memo[key] = self.sys.at(q)
        return memo[key]

    def _value(self, w, q, memo):
        """P_w(q): a leaf a is Y_a, a pair (u, v) is <P_u : P_v>."""
        word = self.words[w]
        if isinstance(word, int):
            return self._point(q, memo).Y[:, word]
        key = ("P", w, q.tobytes())
        if key not in memo:
            u, v = word
            memo[key] = _symmetric_product(
                self._value(u, q, memo),
                self._value(v, q, memo),
                self._jacobian(u, q, memo),
                self._jacobian(v, q, memo),
                self._point(q, memo).Gamma,
            )
        return memo[key]

    def _jacobian(self, w, q, memo):
        """d P_w^i / d q^r, shape (n, n)."""
        word = self.words[w]
        if isinstance(word, int):
            return self._point(q, memo).JY[word]
        key = ("J", w, q.tobytes())
        if key not in memo:
            memo[key] = central_jacobian(lambda x: self._value(w, x, memo), q, WORD_FD_STEP)
        return memo[key]

    def _sum(self, q, t, lo, hi):
        """sum_w c_w(t) P_w(q) over the word ids lo:hi."""
        q = np.asarray(q, dtype=float)
        memo = {}
        c = lagrange4_interp(self.grid, self.coefs[:, lo:hi], t)
        return c @ np.array([self._value(w, q, memo) for w in range(lo, hi)])

    def velocity(self, q, t, upto=None):
        """sum_{k<=upto} V_k(q, t), upto defaulting to K."""
        return self._sum(q, t, 0, self.ends[self.K if upto is None else upto])


def series_terms(sys: MechanicalSystem, inputs, K: int, grid) -> List[Callable]:
    """The terms V_1 .. V_K, as callables (q, t) -> V_k(q, t), over the given time grid."""
    e = _Engine(sys, inputs, K, grid)
    return [lambda q, t, _k=k: e._sum(q, t, e.ends[_k - 1], e.ends[_k]) for k in range(1, K + 1)]


def predict_from_rest(
    sys: MechanicalSystem,
    inputs: Sequence[Callable[[float], float]],
    K: int,
    q0,
    T: float,
    cfg: IntegratorConfig,
) -> Trajectory:
    """Integrate qdot = sum_k V_k(q, t) from rest and return the prediction.

    The word coefficients live on uniform_grid(T).  Velocities are filled
    from the series; recorded inputs are the signals at the sample times.
    """
    q0 = np.asarray(q0, dtype=float)
    engine = _Engine(sys, inputs, K, uniform_grid(T))
    steps = _check_grid(0.0, T, cfg.dt)
    qds = np.empty((steps + 1, sys.n))
    rhs = _record_stage_one(lambda t, q: engine.velocity(q, t), qds)
    qs = _rk4(rhs, q0, 0.0, cfg.dt, steps)
    ts = cfg.dt * np.arange(steps + 1)
    qds[steps] = engine.velocity(qs[steps], ts[steps])
    us = np.array([[u(t) for u in inputs] for t in ts])
    return Trajectory(t0=0.0, t1=T, dt=cfg.dt, qs=qs, qds=qds, us=us)


def truncation_errors(
    sys: MechanicalSystem,
    make_inputs: Callable[[float], Sequence[Callable[[float], float]]],
    K: int,
    q0,
    T: float,
    epsilons: Sequence[float],
    cfg_predict: IntegratorConfig,
    simulate_trajectory: Callable[[float], Trajectory],
) -> np.ndarray:
    """Max configuration error of the order-K prediction per amplitude.

    ``make_inputs(eps)`` builds the m input signals at amplitude eps and
    ``simulate_trajectory(eps)`` supplies the reference trajectory (its
    grid must contain the prediction grid).  Returns max_t ||q_pred -
    q_ref|| for each eps, the raw data behind convergence-order fits.
    """
    errs = []
    for eps in epsilons:
        pred = predict_from_rest(sys, make_inputs(eps), K, q0, T, cfg_predict)
        ref = simulate_trajectory(eps)
        stride = int(round(pred.dt / ref.dt))
        if abs(pred.dt - stride * ref.dt) > 1e-12:
            raise ValueError("reference dt must divide the prediction dt")
        qref = ref.qs[::stride]
        if qref.shape[0] != pred.qs.shape[0]:
            raise ValueError("reference horizon does not match the prediction")
        errs.append(float(np.max(np.linalg.norm(pred.qs - qref, axis=1))))
    return np.array(errs)
