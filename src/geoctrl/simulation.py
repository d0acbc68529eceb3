"""Fixed-step RK4 simulation of forced mechanical systems, CSV trajectory
export, and least-squares input reconstruction along sampled curves.

The state is x = (q, qdot) and the dynamics are

    qddot = -Gamma(q)(qdot, qdot) - M(q)^-1 dV/dq + k(q) qdot + sum_a Y_a u_a.

Integration is deliberately fixed-step (no adaptivity): convergence
studies sweep a parameter epsilon and need commensurate, reproducible
time grids.  Controls are evaluated at the RK4 stage times, so
continuous-time oscillatory inputs are sampled exactly where the stages
need them; the input recorded at a sample is the one its RK4 stage 1 used
(at the last sample, the one a final evaluation there used).

The RK4 driver steps a state of any shape: B independent problems on one
time grid step as one (B, d) stack, each member rounding as it would alone,
and a non-finite member is named in the NonFiniteStateError.  A stacked
initial state gives _simulate a stacked kernel point ``sys.at(Q)`` per stage.
"""

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NonFiniteStateError
from .geometry import MechanicalSystem


@dataclass(frozen=True)
class State:
    """Configuration and velocity; entries must be finite."""

    q: np.ndarray
    qdot: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "qdot", np.asarray(self.qdot, dtype=float))
        if self.q.shape != self.qdot.shape:
            raise ValueError("q and qdot must have matching shapes")
        if not (np.isfinite(self.q).all() and np.isfinite(self.qdot).all()):
            raise ValueError("state entries must be finite")


@dataclass(frozen=True)
class ControlLaw:
    """u = eval(t, q, qdot), an m-vector.

    ``suggested_max_dt``, when set (oscillatory controls), lets simulate
    warn if the integration step under-resolves the fast time scale.

    ``reads_point`` declares a kernel-reading law: simulate hands it each RK4
    stage's point ``pt = sys.at(q)`` (q is ``pt.q``) in the q slot, the point
    the acceleration reads too.
    """

    eval: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    suggested_max_dt: Optional[float] = None
    reads_point: bool = False

    def __call__(self, t, q, qdot):
        return np.atleast_1d(np.asarray(self.eval(t, q, qdot), dtype=float))

    @staticmethod
    def of_time(f):
        """Wrap a pure time signal t -> u(t)."""
        return ControlLaw(eval=lambda t, q, qd: f(t))


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical RK4 with step dt."""

    dt: float = 1e-3

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")


def _write_rows(path, header, columns):
    """A CSV file: the header names, then the columns side by side, each number in 17
    significant digits (round-trips doubles)."""
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled states and the inputs recorded at sample times."""

    t0: float
    t1: float
    dt: float
    qs: np.ndarray  # (N, n)
    qds: np.ndarray  # (N, n)
    us: np.ndarray  # (N, m); m may be 0

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        N = self.qs.shape[0]
        if self.qds.shape != self.qs.shape or self.us.shape[0] != N:
            raise ValueError("misaligned trajectory arrays")
        expect = int(round((self.t1 - self.t0) / self.dt)) + 1
        if N != expect:
            raise ValueError(f"sample count {N} != round((t1-t0)/dt)+1 = {expect}")

    @property
    def times(self):
        return self.t0 + self.dt * np.arange(self.qs.shape[0])

    @property
    def n_samples(self):
        return self.qs.shape[0]

    def write_csv(self, path):
        n, m = self.qs.shape[1], self.us.shape[1]
        header = (
            ["t"]
            + [f"q{i+1}" for i in range(n)]
            + [f"qd{i+1}" for i in range(n)]
            + [f"u{i+1}" for i in range(m)]
        )
        _write_rows(path, header, [self.times, self.qs, self.qds, self.us])


def read_trajectory_csv(path) -> Trajectory:
    """The Trajectory in a CSV that Trajectory.write_csv (so the CLI) wrote."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no samples after the header")
    data = np.loadtxt(rows, delimiter=",", ndmin=2)
    n = sum(1 for h in header if h.startswith("q") and not h.startswith("qd"))
    m = sum(1 for h in header if h.startswith("u"))
    t = data[:, 0]
    dt = t[1] - t[0] if len(t) > 1 else 1.0
    # write_csv's 17-digit times are t0 + k dt to roundoff
    off = np.flatnonzero(~np.isclose(t, t[0] + dt * np.arange(len(t)), rtol=1e-9, atol=abs(dt) * 1e-9))
    if off.size:
        raise ValueError(f"{path}: time {float(t[off[0]])!r} is not t0 + k dt, dt = {float(dt)!r}")
    return Trajectory(
        t0=float(t[0]),
        t1=float(t[-1]),
        dt=float(dt),
        qs=data[:, 1 : 1 + n],
        qds=data[:, 1 + n : 1 + 2 * n],
        us=data[:, 1 + 2 * n : 1 + 2 * n + m],
    )


# -- dynamics ----------------------------------------------------------------


def coriolis_covector(dM, qd):
    """b with Gamma(qd, qd) = M^-1 b, over any leading batch axes of dM and qd:
    b_m = dM[m,j,k] qd^j qd^k - (1/2) dM[j,k,m] qd^j qd^k.
    """
    C = dM - 0.5 * dM.swapaxes(-1, -2).swapaxes(-2, -3)  # C[..m,j,k] -= dM[..j,k,m] / 2
    return np.einsum("...mjk,...j,...k->...m", C, qd, qd)


def _acceleration(pt, qd, applied):
    """qddot at the kernel point pt given the generalized applied force (covector) `applied`;
    on a stacked pt, qd and applied are (B, n) too."""
    sys, q = pt.sys, pt.q
    if sys.constant_mass is None:  # a constant M has no Coriolis term
        applied = applied - coriolis_covector(pt.dM, qd)
    if sys.potential is not None:  # without one the gradient is +0.0, and x - 0.0 is x
        applied = applied - sys.grad_potential(q)
    acc = pt.solve(applied)
    if sys.damping is not None:
        acc = acc + (sys.damping_matrix(q) @ qd[..., None])[..., 0]
    return acc


# the most steps a grid may take: its state array alone is then gigabytes,
# and past 2**53 every float step count reads as whole
MAX_STEPS = 10**8


def check_grid(t0, t1, dt):
    """Number of dt steps in [t0, t1]; ConfigError unless it is finite, >= 0,
    whole and at most MAX_STEPS."""
    steps = (t1 - t0) / dt
    if not 0.0 <= steps < np.inf:
        raise ConfigError(f"t1={t1} must be finite and not before t0={t0}")
    if steps > MAX_STEPS:
        raise ConfigError(
            f"dt={dt} gives {steps:.3g} steps over [{t0}, {t1}], more than {MAX_STEPS}"
        )
    if abs(steps - round(steps)) > 1e-12 * max(1.0, abs(steps)):
        raise ConfigError(f"dt={dt} does not divide the horizon {t1 - t0}")
    return int(round(steps))


def _finite(t, v):
    """v, unless it has a non-finite entry: NonFiniteStateError at t, naming the first
    non-finite member of a stack v (B, d)."""
    if not np.isfinite(v).all():
        bad = None if v.ndim == 1 else int(np.argmin(np.isfinite(v).all(axis=-1)))
        raise NonFiniteStateError(t, bad)
    return v


@np.errstate(over="ignore", invalid="ignore")
def _rk4(rhs, x0, t0, dt, steps):
    """Fixed-step RK4 on x' = f(t, x), where rhs(t, x) returns (f, r) and r is a value
    to keep per sample.  The state is a vector (d,), or a stack (B, d) of B problems
    stepped as one on the same grid.  Returns the (steps+1,) + x0.shape solution and the
    r of every sample, copied: step k's stage 1, at (t0 + k dt, x_k), and one more call
    at the last sample.  A non-finite f at any call or state raises NonFiniteStateError,
    with no warning; on a stack it names the first non-finite member.
    """

    def stage(t, x):
        f, r = rhs(t, x)
        # catch non-finite stage derivatives (e.g. a control law returning
        # nan) before they reach the inertia solver
        return _finite(t, np.asarray(f, dtype=float)), r

    xs = np.empty((steps + 1,) + x0.shape)
    xs[0] = x = x0.copy()
    k1, r = stage(t0, x)
    rs = np.empty((steps + 1,) + np.shape(r))
    rs[0] = r
    for i in range(steps):
        t = t0 + i * dt
        k2 = stage(t + 0.5 * dt, x + 0.5 * dt * k1)[0]
        k3 = stage(t + 0.5 * dt, x + 0.5 * dt * k2)[0]
        k4 = stage(t + dt, x + dt * k3)[0]
        xs[i + 1] = x = _finite(t + dt, x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        k1, rs[i + 1] = stage(t0 + (i + 1) * dt, x)
    return xs, rs


def _simulate(sys, accel, x0, t0, t1, dt, steps):
    """The Trajectory of fixed-step RK4 on qddot = accel(t, pt, qdot), where each stage
    builds its one kernel point pt = sys.at(q) and accel returns (qddot, the input to record).
    A stacked x0 (q and qdot (B, n)) steps its B members as one problem on the stacked
    point, and gives the list of their B Trajectories."""
    n = sys.n

    def rhs(t, x):
        acc, u = accel(t, sys.at(x[..., :n]), x[..., n:])
        return np.concatenate([x[..., n:], acc], axis=-1), u

    xs, us = _rk4(rhs, np.concatenate([x0.q, x0.qdot], axis=-1), t0, dt, steps)
    if xs.ndim == 2:
        return Trajectory(t0=t0, t1=t1, dt=dt, qs=xs[:, :n], qds=xs[:, n:], us=us)
    return [Trajectory(t0=t0, t1=t1, dt=dt, qs=x[:, :n], qds=x[:, n:], us=u)
            for x, u in zip(xs.swapaxes(0, 1), us.swapaxes(0, 1))]


def simulate(
    sys: MechanicalSystem,
    control: ControlLaw,
    x0: State,
    t0: float,
    t1: float,
    cfg: IntegratorConfig,
) -> Trajectory:
    """Integrate the forced dynamics; deterministic for identical inputs.
    Each RK4 stage builds one kernel point (see ControlLaw.reads_point)."""
    steps = check_grid(t0, t1, cfg.dt)
    if control.suggested_max_dt is not None and cfg.dt > control.suggested_max_dt:
        warnings.warn(
            f"dt={cfg.dt:g} under-resolves the oscillatory control "
            f"(want dt <= {control.suggested_max_dt:g})",
            stacklevel=2,
        )

    def accel(t, pt, qd):
        u = control(t, pt if control.reads_point else pt.q, qd)
        return _acceleration(pt, qd, pt.F @ u), u

    return _simulate(sys, accel, x0, t0, t1, cfg.dt, steps)


def simulate_forced(
    sys: MechanicalSystem,
    forcing: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
    x0: State,
    t0: float,
    t1: float,
    cfg: IntegratorConfig,
) -> Trajectory:
    """Like simulate, but with a direct acceleration-level forcing term and no
    inputs: the trajectory's input columns are empty.

    ``forcing(t, pt, qdot)`` is an n-vector added to the acceleration (the
    potential, Coriolis and damping terms of sys still apply); ``pt`` is the
    stage's kernel point ``sys.at(q)``, q is ``pt.q``.
    """
    steps = check_grid(t0, t1, cfg.dt)
    zero, no_inputs = np.zeros(sys.n), np.empty(0)

    def accel(t, pt, qd):
        return _acceleration(pt, qd, zero) + forcing(t, pt, qd), no_inputs

    return _simulate(sys, accel, x0, t0, t1, cfg.dt, steps)


# -- input reconstruction -----------------------------------------------------


@dataclass(frozen=True)
class ReconstructionResult:
    """Inputs and span residuals at the interior samples of a trajectory."""

    times: np.ndarray
    inputs: np.ndarray  # (N-2, m)
    residuals: np.ndarray  # (N-2,)

    @property
    def max_residual(self):
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


def reconstruct_inputs(sys: MechanicalSystem, traj: Trajectory) -> ReconstructionResult:
    """Least-squares inputs realizing a sampled curve.

    At each interior sample the required generalized force is
    f = M(q)(qddot + Gamma(qdot, qdot)) + dV/dq - M(q) k(q) qdot with
    qddot by central differences; u solves f ~ sum_a u_a F_a(q) and the
    residual is ||f - F u|| / max(1, ||f||).  Samples where {F_a(q)} is
    rank deficient (numpy lstsq's rank rule) get residual +inf and the
    minimum-norm u.  Endpoints are dropped.

    Samples are processed in blocks of _RECONSTRUCT_BLOCK, each read
    through the system's readers at once (a model callable marked
    ``takes_stacks`` runs once per block, any other once per sample); the
    symmetry checks, the Coriolis term and the least-squares solves (QR of
    F, rank from the singular values of R) run on whole blocks, which
    bounds the memory they take.
    """
    N = traj.n_samples
    if N < 3:
        raise ValueError("need at least 3 samples to reconstruct inputs")
    qdds = (traj.qds[2:] - traj.qds[:-2]) / (2.0 * traj.dt)
    inputs = np.zeros((N - 2, sys.m))
    residuals = np.zeros(N - 2)
    for lo in range(0, N - 2, _RECONSTRUCT_BLOCK):
        hi = min(lo + _RECONSTRUCT_BLOCK, N - 2)
        inputs[lo:hi], residuals[lo:hi] = _reconstruct_block(
            sys, traj.qs[1 + lo : 1 + hi], traj.qds[1 + lo : 1 + hi], qdds[lo:hi]
        )
    return ReconstructionResult(times=traj.times[1 : N - 1], inputs=inputs, residuals=residuals)


# samples per reconstruct_inputs block: large enough to amortize the
# batched calls, small enough that the stacked (B, n, n, n) arrays stay
# a few hundred kB
_RECONSTRUCT_BLOCK = 512


def _reconstruct_block(sys, qs, qds, qdds):
    """Inputs and residuals of reconstruct_inputs for one block of samples."""
    n, m = sys.n, sys.m
    Ms = sys.mass(qs)
    Fs = sys.input_matrix(qs)
    f = coriolis_covector(sys.dmass(qs), qds)
    f += np.einsum("bij,bj->bi", Ms, qdds)
    if sys.potential is not None:
        f += sys.grad_potential(qs)
    if sys.damping is not None:
        kqd = np.einsum("bij,bj->bi", sys.damping_matrix(qs), qds)
        f -= np.einsum("bij,bj->bi", Ms, kqd)
    Q, R = np.linalg.qr(Fs)
    sv = np.linalg.svd(R, compute_uv=False)
    # numpy lstsq(rcond=None): singular values above eps * max(n, m) * sigma_max
    deficient = np.sum(sv > np.finfo(float).eps * max(n, m) * sv[:, :1], axis=1) < m
    R[deficient] = np.eye(m)
    u = np.linalg.solve(R, np.einsum("bia,bi->ba", Q, f)[..., None])[..., 0]
    res = np.linalg.norm(f - np.einsum("bia,ba->bi", Fs, u), axis=1)
    res /= np.maximum(1.0, np.linalg.norm(f, axis=1))
    for i in np.flatnonzero(deficient):
        u[i] = np.linalg.lstsq(Fs[i], f[i], rcond=None)[0]
        res[i] = np.inf
    return u, res
