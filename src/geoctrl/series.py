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
(cumulative Simpson) on uniform_grid(T), >= NODES_PER_UNIT nodes per unit
time over the horizon T.  The P_w of every word of order <= k are
evaluated in one forward pass over one kernel
``sys.at(q)``: the leaves are its Y, the order-2 words its products, and
from order 3 on <P_u : P_v> reads its JY and Gamma, with the Jacobians of
all composite words of order < k from one central difference (step
WORD_FD_STEP) of their stacked values.  A private per-call memo keyed by
(k, q) evaluates each pass once per point.

One engine serves B members at once: coefficients (G, B, W), word values on
a stacked point sys.at(Q), and a difference that moves coordinate j of every
member together (2n stacked evaluations).  predict_from_rest is the B = 1
case; truncation_errors runs one stacked reference over all amplitudes and
one stacked prediction per order, each member equal to its lone run.
"""

import math
from typing import Callable, List, Sequence

import numpy as np

from .errors import ConfigError
from .geometry import MechanicalSystem, _symmetric_product
from .numutil import central_jacobian, cumulative_simpson_uniform, lagrange4_interp
from .simulation import IntegratorConfig, State, Trajectory, check_grid
from .simulation import _acceleration, _rk4, _simulate

NODES_PER_UNIT = 201
WORD_FD_STEP = 1e-6
MAX_ORDER = 4  # order-k words nest k - 2 central differences; round-off grows with each


def uniform_grid(T):
    """Uniform time grid on [0, T] with at least NODES_PER_UNIT nodes per unit."""
    if not 0.0 < T < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {T}")
    N = max(4, int(math.ceil((NODES_PER_UNIT - 1) * T)) + 1)
    return np.linspace(0.0, T, N)


class _Engine:
    """Word coefficients c_w on uniform_grid(T) and word values P_w at q, for B members at
    once: members[i] is member i's list of m input signals, and q a stack (B, n) of points."""

    def __init__(self, sys: MechanicalSystem, members, K, T):
        if not 1 <= K <= MAX_ORDER:
            raise ValueError(f"series order must be in 1..{MAX_ORDER}, got K={K}")
        if sys.potential is not None or sys.damping is not None:
            raise ValueError(
                "the from-rest series requires a system without potential or damping"
            )
        for inputs in members:
            if len(inputs) != sys.m:
                raise ValueError(f"expected {sys.m} input signals, got {len(inputs)}")
        self.sys, self.K, self.grid = sys, K, uniform_grid(T)
        dx = float(self.grid[1] - self.grid[0])
        # words[w] is an input index (leaf) or a pair (u, v) of word ids, u <= v;
        # ids are grouped by order, words of order k being ends[k-1]:ends[k]
        U = np.array([[[u(t) for t in self.grid] for u in inputs] for inputs in members])
        self.words = list(range(sys.m))
        coefs = list(cumulative_simpson_uniform(U, dx).swapaxes(0, 1))
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
            coefs += list(-0.5 * cumulative_simpson_uniform(S, dx))
            self.ends.append(len(self.words))
        self.coefs = np.array(coefs).T  # (G, B, W)

    def _values(self, q, k, memo):
        """[P_w(q) for the words w of order <= k], each (B, n), in word-id order, from one
        sys.at(q) of the stack q."""
        key = (k, q.tobytes())
        if key not in memo:
            pt, m, ends = self.sys.at(q), self.sys.m, self.ends
            P = list(pt.Y.transpose(2, 0, 1))
            if k >= 2:
                P += [pt.products[:, u, v] for u, v in self.words[m:ends[2]]]
            if k >= 3:
                # d P_w / dq for every composite word of order < k, in one difference
                # that moves coordinate j of every member at once
                J = list(pt.JY.swapaxes(0, 1)) + list(central_jacobian(
                    lambda x: np.array(self._values(x, k - 1, memo)[m:]), q, WORD_FD_STEP
                ))
                for u, v in self.words[ends[2]:ends[k]]:
                    P.append(_symmetric_product(P[u], P[v], J[u], J[v], pt.Gamma))
            memo[key] = P
        return memo[key]

    def _sum(self, q, t, k, lo):
        """sum_w c_w(t) P_w(q) over the word ids lo:ends[k], member by member: q is a stack
        (B, n), or a point (n,) of a one-member engine."""
        hi, q = self.ends[k], np.asarray(q, dtype=float)
        c = lagrange4_interp(self.grid, self.coefs[..., lo:hi], t)  # (B, W)
        P = np.array(self._values(q.reshape(-1, self.sys.n), k, {})[lo:hi])  # (W, B, n)
        return (c[:, None, :] @ P.swapaxes(0, 1))[:, 0].reshape(q.shape)

    def velocity(self, q, t):
        """sum_{k<=K} V_k(q, t)."""
        return self._sum(q, t, self.K, 0)


def series_terms(sys: MechanicalSystem, inputs, K: int, T: float) -> List[Callable]:
    """The terms V_1 .. V_K, as callables (q, t) -> V_k(q, t), for t in [0, T]."""
    e = _Engine(sys, [inputs], K, T)
    return [lambda q, t, _k=k: e._sum(q, t, _k, e.ends[_k - 1]) for k in range(1, K + 1)]


def _predict(sys, members, K, q0s, T, cfg):
    """The Trajectories of qdot = sum_k V_k(q, t) from rest at q0s[i] under members[i]'s
    signals, stepped as one (B, n) problem on one engine."""
    engine = _Engine(sys, members, K, T)
    steps = check_grid(0.0, T, cfg.dt)
    qs, qds = _rk4(lambda t, q: (engine.velocity(q, t),) * 2, q0s, 0.0, cfg.dt, steps)
    times = cfg.dt * np.arange(steps + 1)
    return [
        Trajectory(t0=0.0, dt=cfg.dt, qs=qs[:, i], qds=qds[:, i],
                   us=np.array([[u(t) for u in inputs] for t in times]))
        for i, inputs in enumerate(members)
    ]


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
    return _predict(sys, [inputs], K, np.asarray(q0, dtype=float)[None], T, cfg)[0]


def truncation_errors(
    sys: MechanicalSystem,
    make_inputs: Callable[[float], Sequence[Callable[[float], float]]],
    orders: Sequence[int],
    q0,
    T: float,
    epsilons: Sequence[float],
    cfg_predict: IntegratorConfig,
    cfg_reference: IntegratorConfig,
) -> np.ndarray:
    """max_t ||q_pred - q_ref|| per order and amplitude, shape (len(orders), len(epsilons)).

    The amplitudes step as one stacked problem: each order predicts the signals
    make_inputs(eps) of every eps at cfg_predict.dt, and then one reference simulates
    them all from rest at q0 over [0, T] at cfg_reference.dt, which must divide
    cfg_predict.dt.  ValueError if orders or epsilons is empty.
    """
    for name, sweep in (("orders", orders), ("epsilons", epsilons)):
        if len(sweep) == 0:
            raise ValueError(f"{name} must hold at least one value")
    try:  # the reference steps in one prediction step, a whole number as for a grid
        stride = check_grid(0.0, cfg_predict.dt, cfg_reference.dt)
    except ConfigError:
        raise ValueError("reference dt must divide the prediction dt") from None
    members = [make_inputs(eps) for eps in epsilons]
    rest = State(q=np.tile(np.asarray(q0, dtype=float), (len(members), 1)),
                 qdot=np.zeros((len(members), sys.n)))
    preds = [_predict(sys, members, K, rest.q, T, cfg_predict) for K in orders]

    def accel(t, pt, qd):
        u = np.array([[f(t) for f in inputs] for inputs in members])
        return _acceleration(pt, qd, (pt.F @ u[..., None])[..., 0]), u

    steps = check_grid(0.0, T, cfg_reference.dt)
    refs = _simulate(sys, accel, rest, 0.0, cfg_reference.dt, steps)
    errs = [np.max(np.linalg.norm(p.qs - ref.qs[::stride], axis=1)) for ps in preds
            for p, ref in zip(ps, refs)]
    return np.reshape(errs, (len(orders), len(epsilons)))
