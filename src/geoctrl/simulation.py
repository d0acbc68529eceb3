"""Fixed-step RK4 simulation of forced mechanical systems, CSV trajectory
export, and least-squares input reconstruction along sampled curves.

The state is x = (q, qdot) and the dynamics are

    qddot = -Gamma(q)(qdot, qdot) - M(q)^-1 dV/dq + k(q) qdot + sum_a Y_a u_a.

Integration is deliberately fixed-step (no adaptivity): convergence
studies sweep a parameter epsilon and need commensurate, reproducible
time grids.  Controls are evaluated at the RK4 stage times, so
continuous-time oscillatory inputs are sampled exactly where the stages
need them; the recorded input at a sample is the one RK4 stage 1 used.
"""

import io
import itertools
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NonFiniteStateError
from .geometry import MechanicalSystem
from .numutil import format_sig17


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

    def as_vector(self):
        return np.concatenate([self.q, self.qdot])


@dataclass(frozen=True)
class ControlLaw:
    """u = eval(t, q, qdot), an m-vector.

    ``suggested_max_dt``, when set (oscillatory controls), lets simulate
    warn if the integration step under-resolves the fast time scale.

    ``reads_point`` declares a kernel-reading law: simulate hands it each RK4
    stage's point ``pt = sys.at(q)`` (q is ``pt.q``) in the q slot, the point
    the acceleration reads too.  It still gets an array q at the last sample.
    """

    eval: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    suggested_max_dt: Optional[float] = None
    reads_point: bool = False

    def __call__(self, t, q, qdot):
        return np.atleast_1d(np.asarray(self.eval(t, q, qdot), dtype=float))

    @staticmethod
    def zero(m):
        u = np.zeros(m)
        return ControlLaw(eval=lambda t, q, qd, _u=u: _u.copy())

    @staticmethod
    def constant(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return ControlLaw(eval=lambda t, q, qd, _u=u: _u.copy())

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


@contextmanager
def _text_output(path_or_file):
    """A path opened for writing (and closed after), or an open file as is."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "w") as fh:
            yield fh
    else:
        yield path_or_file


def _write_rows(path_or_file, header, rows):
    """CSV text: the header names, then one line per row of numbers (format_sig17)."""
    with _text_output(path_or_file) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_sig17(v) for v in row) + "\n")


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
    def n(self):
        return self.qs.shape[1]

    @property
    def n_samples(self):
        return self.qs.shape[0]

    def write_csv(self, path_or_file):
        n, m = self.n, self.us.shape[1]
        header = (
            ["t"]
            + [f"q{i+1}" for i in range(n)]
            + [f"qd{i+1}" for i in range(n)]
            + [f"u{i+1}" for i in range(m)]
        )
        _write_rows(path_or_file, header, np.column_stack([self.times, self.qs, self.qds, self.us]))

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


def read_trajectory_csv(path) -> Trajectory:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    n = sum(1 for h in header if h.startswith("q") and not h.startswith("qd"))
    m = sum(1 for h in header if h.startswith("u"))
    t = data[:, 0]
    dt = t[1] - t[0] if len(t) > 1 else 1.0
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
    """qddot at the kernel point pt given the generalized applied force (covector) `applied`."""
    sys, q = pt.sys, pt.q
    acc = pt.solve(applied - coriolis_covector(pt.dM, qd) - sys.grad_potential(q))
    if sys.damping is not None:
        acc = acc + sys.damping_matrix(q) @ qd
    return acc


def dynamics_rhs(sys: MechanicalSystem, state: State, u) -> np.ndarray:
    """Time derivative of x = (q, qdot) under input u."""
    pt = sys.at(state.q)
    return np.concatenate([state.qdot, _acceleration(pt, state.qdot, pt.F @ np.atleast_1d(u))])


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


def _rk4(rhs, x0, t0, dt, steps):
    """Fixed-step RK4; returns the (steps+1, len(x0)) solution array."""

    def stage(t, x):
        k = np.asarray(rhs(t, x), dtype=float)
        # catch non-finite stage derivatives (e.g. a control law returning
        # nan) before they reach the inertia solver
        if not np.isfinite(k).all():
            raise NonFiniteStateError(t)
        return k

    xs = np.empty((steps + 1, x0.size))
    xs[0] = x0
    x = x0.copy()
    for i in range(steps):
        t = t0 + i * dt
        k1 = stage(t, x)
        k2 = stage(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = stage(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = stage(t + dt, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise NonFiniteStateError(t + dt)
        xs[i + 1] = x
    return xs


def _record_stage_one(fn, out):
    """fn, storing in out[k] what it returns at RK4 stage 1 of step k.

    Call it once per _rk4 stage: _rk4 runs its four stages in order, and
    stage 1 of step k is at (t0 + k dt, x_k), a sample of the solution.
    """
    calls = itertools.count()

    def recorded(*args):
        value = fn(*args)
        k, stage = divmod(next(calls), 4)
        if stage == 0:
            out[k] = value
        return value

    return recorded


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
    n = sys.n
    us = np.empty((steps + 1, sys.m))
    law = _record_stage_one(control, us)

    def rhs(t, x):
        q, qd = x[:n], x[n:]
        pt = sys.at(q)
        u = law(t, pt if control.reads_point else q, qd)
        return np.concatenate([qd, _acceleration(pt, qd, pt.F @ u)])

    xs = _rk4(rhs, x0.as_vector(), t0, cfg.dt, steps)
    us[steps] = control(t0 + steps * cfg.dt, xs[steps, :n], xs[steps, n:])
    return Trajectory(t0=t0, t1=t1, dt=cfg.dt, qs=xs[:, :n], qds=xs[:, n:], us=us)


def simulate_forced(
    sys: MechanicalSystem,
    forcing: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
    x0: State,
    t0: float,
    t1: float,
    cfg: IntegratorConfig,
    record: Optional[Callable[[float], np.ndarray]] = None,
) -> Trajectory:
    """Like simulate, but with a direct acceleration-level forcing term.

    ``forcing(t, pt, qdot)`` is an n-vector added to the acceleration (the
    potential, Coriolis and damping terms of sys still apply); ``pt`` is the
    stage's kernel point ``sys.at(q)``, q is ``pt.q``.  ``record`` optionally
    logs a vector per sample time into the trajectory's input columns (e.g.
    gain values of an averaged system).
    """
    steps = check_grid(t0, t1, cfg.dt)
    n = sys.n

    zero = np.zeros(n)

    def rhs(t, x):
        q, qd = x[:n], x[n:]
        pt = sys.at(q)
        acc = _acceleration(pt, qd, zero) + forcing(t, pt, qd)
        return np.concatenate([qd, acc])

    xs = _rk4(rhs, x0.as_vector(), t0, cfg.dt, steps)
    ts = t0 + cfg.dt * np.arange(steps + 1)
    if record is None:
        us = np.zeros((steps + 1, 0))
    else:
        us = np.array([np.atleast_1d(record(t)) for t in ts])
    return Trajectory(t0=t0, t1=t1, dt=cfg.dt, qs=xs[:, :n], qds=xs[:, n:], us=us)


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

    Samples are processed in blocks of _RECONSTRUCT_BLOCK: a model
    callable marked ``takes_stacks`` runs once per block, any other once
    per sample; symmetry checks, the Coriolis term and the least-squares
    solves (QR of F, rank from the singular values of R) run on whole
    blocks, which bounds the memory they take.
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


def _rows(fn, qs):
    """fn at every row of qs: one call if fn takes stacks, else one call per row."""
    if getattr(fn, "takes_stacks", False):
        return np.asarray(fn(qs), dtype=float)
    return np.array([np.asarray(fn(q), dtype=float) for q in qs])


def _reconstruct_block(sys, qs, qds, qdds):
    """Inputs and residuals of reconstruct_inputs for one block of samples."""
    n, m = sys.n, sys.m
    Ms = sys._symmetrized(qs, _rows(sys.inertia, qs))
    Fs = np.stack([_rows(F, qs) for F in sys.input_covectors], axis=-1)
    f = coriolis_covector(_rows(sys.dmass if sys.dinertia is None else sys.dinertia, qs), qds)
    f += np.einsum("bij,bj->bi", Ms, qdds)
    if sys.potential is not None:
        f += _rows(sys.grad_potential if sys.dpotential is None else sys.dpotential, qs)
    if sys.damping is not None:
        kqd = np.einsum("bij,bj->bi", _rows(sys.damping, qs), qds)
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
