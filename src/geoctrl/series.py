"""Velocity series expansion for motion from rest under small forcing.

For a system with no potential or damping, forced by the time-varying
field Y(q, t) = sum_a Y_a(q) u_a(t), the trajectory from rest satisfies
qdot(t) = sum_k V_k(q(t), t) where the terms are built recursively from
time integrals and symmetric products:

    V_1(q, t) = int_0^t Y(q, s) ds,
    V_k(q, t) = -1/2 sum_{j=1}^{k-1} int_0^t <V_j : V_{k-j}>(q, s) ds.

V_k is homogeneous of degree k in the input amplitude, so truncating at
order K leaves an O(eps^{K+1}) velocity error for inputs of size eps.

Implementation notes: all time integrals share one uniform grid
(composite Simpson, >= 201 nodes per unit time by default) and are
evaluated cumulatively, vectorized over the grid axis.  The q-dependence
is handled pointwise — a term's values on the whole time grid are
computed at whatever q the caller supplies, and spatial Jacobians of the
recursive terms come from central differences of that map.  Each
evaluation uses a private memo for the recursion tree, so concurrent
calls do not share mutable state.
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .geometry import MechanicalSystem, VectorField, christoffel
from .numutil import cumulative_simpson_uniform, lagrange4_interp
from .simulation import IntegratorConfig, Trajectory, _check_grid, _rk4

DEFAULT_NODES_PER_UNIT = 201
MAX_ORDER = 4  # cost and FD round-off both grow quickly with the order


def uniform_grid(T, nodes_per_unit=DEFAULT_NODES_PER_UNIT):
    """Uniform time grid on [0, T] with at least nodes_per_unit per unit."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    N = max(4, int(math.ceil((nodes_per_unit - 1) * T)) + 1)
    return np.linspace(0.0, T, N)


@dataclass(frozen=True)
class ForcingField:
    """Y(q, t) = sum_a fields[a](q) * inputs[a](t)."""

    fields: Sequence[VectorField]
    inputs: Sequence[Callable[[float], float]]

    def __post_init__(self):
        if len(self.fields) != len(self.inputs):
            raise ValueError("one input signal per vector field")
        if not self.fields:
            raise ValueError("forcing needs at least one field")

    @property
    def m(self):
        return len(self.fields)

    def eval(self, q, t):
        return sum(self.fields[a](q) * self.inputs[a](t) for a in range(self.m))

    @staticmethod
    def from_system(sys: MechanicalSystem, inputs) -> "ForcingField":
        """Forcing along the system's input fields Y_a = M^-1 F_a."""
        inputs = list(inputs)
        if len(inputs) != sys.m:
            raise ValueError(f"expected {sys.m} input signals, got {len(inputs)}")
        return ForcingField(
            fields=[sys.input_field(a) for a in range(sys.m)], inputs=inputs
        )


@dataclass(frozen=True)
class SeriesTerm:
    """Series term of a fixed order; eval(q, t) interpolates on the grid."""

    order: int
    eval: Callable[[np.ndarray, float], np.ndarray]

    def __call__(self, q, t):
        return self.eval(q, t)


class _Engine:
    """Shared machinery: term values on the whole grid at a given q."""

    def __init__(self, sys: MechanicalSystem, forcing: ForcingField, K, grid, fd_step=1e-6):
        if not 1 <= K <= MAX_ORDER:
            raise ValueError(f"series order must be in 1..{MAX_ORDER}, got K={K}")
        if sys.potential is not None or sys.damping is not None:
            raise ValueError(
                "the from-rest series requires a system without potential or damping"
            )
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 4 or grid[0] != 0.0:
            raise ValueError("grid must be a 1-D array of times starting at 0")
        steps = np.diff(grid)
        if np.max(np.abs(steps - steps[0])) > 1e-12 * max(1.0, steps[0]):
            raise ValueError("grid must be uniform")
        self.sys = sys
        self.forcing = forcing
        self.K = K
        self.grid = grid
        self.dx = float(steps[0])
        self.h = fd_step
        # (m, G) cumulative integrals of the input signals
        U = np.array([[forcing.inputs[a](t) for t in grid] for a in range(forcing.m)])
        self.cumU = cumulative_simpson_uniform(U, self.dx, axis=1)

    def values(self, k, q, cache):
        """V_k(q, t) for every grid node t, shape (G, n)."""
        key = (k, q.tobytes())
        hit = cache.get(key)
        if hit is not None:
            return hit
        if k == 1:
            Ys = np.array([f(q) for f in self.forcing.fields])  # (m, n)
            out = np.einsum("ag,an->gn", self.cumU, Ys)
        else:
            S = 0.0
            for j in range(1, k):
                S = S + self._sym_grid(j, k - j, q, cache)
            out = -0.5 * cumulative_simpson_uniform(S, self.dx, axis=0)
        cache[key] = out
        return out

    def _jacobian(self, k, q, cache):
        """d V_k^i / d q^r on the grid, shape (G, n, i... ) -> (G, n, n)."""
        if k == 1:
            JYs = np.array([f.jacobian_at(q) for f in self.forcing.fields])  # (m,n,n)
            return np.einsum("ag,air->gir", self.cumU, JYs)
        n = q.size
        G = self.grid.size
        J = np.empty((G, n, n))
        for r in range(n):
            dq = np.zeros(n)
            dq[r] = self.h
            vp = self.values(k, q + dq, cache)
            vm = self.values(k, q - dq, cache)
            J[:, :, r] = (vp - vm) / (2.0 * self.h)
        return J

    def _sym_grid(self, j, l, q, cache):
        """<V_j : V_l>(q, t) on the grid, shape (G, n)."""
        vj = self.values(j, q, cache)
        vl = self.values(l, q, cache)
        Jj = self._jacobian(j, q, cache)
        Jl = self._jacobian(l, q, cache)
        G = christoffel(self.sys, q).values
        out = np.einsum("gir,gr->gi", Jl, vj) + np.einsum("gir,gr->gi", Jj, vl)
        out += np.einsum("ijk,gj,gk->gi", G, vj, vl)
        out += np.einsum("ijk,gj,gk->gi", G, vl, vj)
        return out

    def velocity(self, q, t, upto=None):
        """sum_{k<=K} V_k(q, t) via one shared recursion cache."""
        upto = self.K if upto is None else upto
        cache = {}
        q = np.asarray(q, dtype=float)
        total = 0.0
        for k in range(1, upto + 1):
            total = total + lagrange4_interp(self.grid, self.values(k, q, cache), t)
        return total


def series_terms(
    sys: MechanicalSystem, forcing: ForcingField, K: int, grid
) -> List[SeriesTerm]:
    """The terms V_1 .. V_K as evaluatable fields over the given time grid."""
    engine = _Engine(sys, forcing, K, grid)

    def make_eval(k):
        def ev(q, t):
            q = np.asarray(q, dtype=float)
            return lagrange4_interp(engine.grid, engine.values(k, q, {}), t)

        return ev

    return [SeriesTerm(order=k, eval=make_eval(k)) for k in range(1, K + 1)]


def predict_from_rest(
    sys: MechanicalSystem,
    forcing: ForcingField,
    K: int,
    q0,
    T: float,
    cfg: IntegratorConfig,
    grid: Optional[np.ndarray] = None,
) -> Trajectory:
    """Integrate qdot = sum_k V_k(q, t) from rest and return the prediction.

    Velocities are filled from the series; recorded inputs are the forcing
    signals at the sample times.
    """
    q0 = np.asarray(q0, dtype=float)
    if grid is None:
        grid = uniform_grid(T)
    engine = _Engine(sys, forcing, K, grid)
    steps = _check_grid(0.0, T, cfg.dt)

    def rhs(t, q):
        return engine.velocity(q, t)

    qs = _rk4(rhs, q0, 0.0, cfg.dt, steps)
    ts = cfg.dt * np.arange(steps + 1)
    qds = np.array([engine.velocity(qs[i], ts[i]) for i in range(steps + 1)])
    us = np.array([[forcing.inputs[a](t) for a in range(forcing.m)] for t in ts])
    return Trajectory(t0=0.0, t1=T, dt=cfg.dt, qs=qs, qds=qds, us=us)


def truncation_errors(
    sys: MechanicalSystem,
    make_forcing: Callable[[float], ForcingField],
    K: int,
    q0,
    T: float,
    epsilons: Sequence[float],
    cfg_predict: IntegratorConfig,
    simulate_trajectory: Callable[[float], Trajectory],
) -> np.ndarray:
    """Max configuration error of the order-K prediction per amplitude.

    ``make_forcing(eps)`` builds the forcing at amplitude eps and
    ``simulate_trajectory(eps)`` supplies the reference trajectory (its
    grid must contain the prediction grid).  Returns max_t ||q_pred -
    q_ref|| for each eps, the raw data behind convergence-order fits.
    """
    errs = []
    for eps in epsilons:
        pred = predict_from_rest(sys, make_forcing(eps), K, q0, T, cfg_predict)
        ref = simulate_trajectory(eps)
        stride = int(round(pred.dt / ref.dt))
        if abs(pred.dt - stride * ref.dt) > 1e-12:
            raise ValueError("reference dt must divide the prediction dt")
        qref = ref.qs[::stride]
        if qref.shape[0] != pred.qs.shape[0]:
            raise ValueError("reference horizon does not match the prediction")
        errs.append(float(np.max(np.linalg.norm(pred.qs - qref, axis=1))))
    return np.array(errs)
