"""Differential-geometric kernel for mechanical control systems.

A mechanical system with configuration q in R^n is described by a kinetic
energy metric M(q) (the inertia matrix), an optional potential V(q), an
optional velocity-proportional damping map k(q), and m input co-vector
fields F_a(q).  The Christoffel symbols of M define an affine connection;
the covariant derivative, Lie bracket and symmetric product built from it
are the basic operators behind all the controllability and averaging
analysis in the rest of the package.

Conventions
-----------
* Gamma[i, j, k] is the Christoffel symbol with upper index i:
  Gamma^i_jk = (1/2) Minv[m, i] (dM[m,j]/dq^k + dM[m,k]/dq^j
  - dM[j,k]/dq^m), symmetric in (j, k).
* dmass(q)[i, j, k] is dM_ij / dq^k.
* Input vector fields are Y_a = M(q)^-1 F_a(q).
* State-space (lifted) vector fields live on R^{2n} with x = (q, qdot).
  They are :class:`VectorField`s too, one field type for both spaces,
  tagged with a velocity homogeneity class ``hclass``.

``sys.at(q)`` is the one per-point kernel: a :class:`PointData` factors M(q)
once (refusing a condition number above COND_LIMIT; a :func:`constant_inertia`
is factored once per system) and computes dM, dF, Y, dY, Gamma and the
symmetric products on first read.  Every consumer reads them there.  On a
stack Q (B, n) of points, ``sys.at(Q)`` is the same class with a leading B
axis on every array; each member equals ``sys.at(Q[i])`` bit for bit, a
constant M solves all members in one block, and any other M factors each
member.  The
products come from the covector identity

    M <Y_a : Y_b> = dF_a . Y_b + dF_b . Y_a - dM(Y_a, Y_b),
    dM(u, v)_i = dM_jk/dq^i u^j v^k,

one solve for all pairs, with neither dY nor Gamma formed.

The factor, its condition estimate and the solve are LAPACK's dpotrf, dpocon
and dpotrs from ``flapack``: scipy's compiled LAPACK module, loaded once at
import without scipy.linalg's package init (which would double the start-up of
every process).  kinematic takes its QR and QZ routines from the same module.

All operations are pure functions of immutable inputs and safe to call
from multiple threads (a PointData read by two threads at once at worst
computes a field twice).
"""

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy

from .errors import SingularInertiaError
from .numutil import central_jacobian

DEFAULT_FD_STEP = 1e-5
COND_LIMIT = 1e12
SYMMETRY_TOL = 1e-12


def _load_flapack():
    """scipy's compiled LAPACK module scipy/linalg/_flapack, loaded without running
    scipy.linalg's package init: its routines are the objects scipy.linalg.lapack
    re-exports.  ImportError if this scipy has no such module."""
    where = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [where])
    if spec is None:
        raise ImportError(f"scipy's LAPACK module _flapack is not in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


flapack = _load_flapack()  # kinematic reads its QR and QZ routines here
dpotrf, dpocon, dpotrs = flapack.dpotrf, flapack.dpocon, flapack.dpotrs


@dataclass(frozen=True)
class VectorField:
    """A vector field q -> R^n with Jacobian access.

    ``jacobian`` returns the matrix d eval^i / d q^j; when omitted it is
    computed by central finite differences of ``eval`` with step ``h``.

    On state space R^{2n}, x = (q, qdot), ``hclass`` tags velocity
    homogeneity: the first n components are polynomial of degree j in
    qdot and the last n of degree j+1, so under qdot -> lam * qdot they
    scale by lam^j and lam^(j+1).  The geodesic spray has class 1, a
    damping lift class 0 and an input lift class -1; Lie brackets add
    classes.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h: float = DEFAULT_FD_STEP
    hclass: Optional[int] = None

    def __call__(self, q):
        return np.asarray(self.eval(np.asarray(q, dtype=float)), dtype=float)

    def jacobian_at(self, q):
        q = np.asarray(q, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(q), dtype=float)
        return central_jacobian(self.eval, q, self.h)


def takes_stacks(fn):
    """Mark the model callable fn as also taking a (B, n) stack of points.

    The mark is the attribute ``fn.takes_stacks``, so it travels with the
    callable: a function swapped in by ``dataclasses.replace`` is called one
    point at a time unless it is marked too, and ``functools.wraps`` copies it.
    """
    fn.takes_stacks = True
    return fn


def constant_inertia(M):
    """The inertia callable q -> M, marked with the constant matrix M as ``fn.constant_inertia``
    (``functools.wraps`` copies it): a system checks and factors M once and takes dM as zero.
    Without the mark the callable gives the same numbers, evaluated at every point."""
    fn = lambda q: fn.constant_inertia.copy()
    fn.constant_inertia = np.array(M, dtype=float)
    return fn


def _cholesky(M):
    """(factor, rcond): the lower Cholesky factor of M (LAPACK dpotrf) and dpocon's
    1-norm estimate of its reciprocal condition number, 0 if M is not positive definite."""
    factor, info = dpotrf(M, lower=1)
    return factor, dpocon(factor, np.abs(M).sum(axis=0).max(), uplo="L")[0] if info == 0 else 0.0


def _at_points(fn, q):
    """fn at the point q (n,), or at every row of a stack q (B, n): one call if fn
    takes stacks, else one call per row."""
    if q.ndim == 1 or getattr(fn, "takes_stacks", False):
        return np.asarray(fn(q), dtype=float)
    return np.array([np.asarray(fn(p), dtype=float) for p in q])


def _derivative(fn, dfn, q):
    """The analytic derivative dfn at q, a point or a stack (see _at_points), or without
    one (dfn None) central differences of fn with step DEFAULT_FD_STEP."""
    if dfn is None:
        return _at_points(lambda p: central_jacobian(fn, p, DEFAULT_FD_STEP), q)
    return _at_points(dfn, q)


@dataclass(frozen=True)
class MechanicalSystem:
    """Forced mechanical system (n, m, M, V, k, F_a) with derivative access.

    Parameters
    ----------
    n
        Degrees of freedom.
    inertia
        q -> symmetric positive-definite (n, n) matrix M(q); ``constant_inertia(M)`` for a
        constant M, kept checked as ``constant_mass`` (else None), with no ``dinertia``.
    input_covectors
        m callables q -> R^n giving the input co-vector fields F_a; the number of inputs
        ``m`` is their count, 1 <= m <= n.
    potential
        Optional q -> float.  None means identically zero.
    damping
        Optional q -> (n, n) matrix k(q); the damping force enters the
        acceleration as k(q) qdot (dissipative for k negative
        semi-definite; not enforced).
    dinertia, dpotential, dinput_covectors
        Optional analytic first derivatives: dinertia(q)[i, j, k] is
        dM_ij/dq^k, dpotential(q) the gradient of V, and
        dinput_covectors[a](q)[i, j] is dF_a^i/dq^j.  Any that are omitted
        fall back to central finite differences with step DEFAULT_FD_STEP.

    The model callables are read only through the readers ``mass``, ``dmass``,
    ``grad_potential``, ``damping_matrix``, ``input_matrix`` and ``dinput_matrix``,
    which take a point (n,) or a stack (B, n) of points and return the B
    values stacked on a leading axis.  A model callable marked with
    :func:`takes_stacks` also accepts a stack, and a reader calls it once
    per stack; any other callable runs once per row.
    """

    n: int
    m: int = field(init=False)  # len(input_covectors)
    inertia: Callable[[np.ndarray], np.ndarray]
    input_covectors: Sequence[Callable[[np.ndarray], np.ndarray]]
    potential: Optional[Callable[[np.ndarray], float]] = None
    damping: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dinertia: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dpotential: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dinput_covectors: Optional[Sequence[Callable[[np.ndarray], np.ndarray]]] = None
    constant_mass: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _factor: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "m", len(self.input_covectors))
        if not (1 <= self.m <= self.n):
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if self.dinput_covectors is not None and len(self.dinput_covectors) != self.m:
            raise ValueError("dinput_covectors must have length m")
        if getattr(self.inertia, "constant_inertia", None) is not None:
            if self.dinertia is not None:
                raise ValueError("a constant_inertia takes no dinertia: its dM is zero")
            M = self.mass(np.zeros(self.n))  # its one evaluation, checked as at any point
            object.__setattr__(self, "constant_mass", M)
            object.__setattr__(self, "_factor", _cholesky(M))

    # -- readers: the model at a point (n,) or at every row of a stack (B, n) --

    def mass(self, q):
        """M(q), validated symmetric (SYMMETRY_TOL relative) and returned symmetrized."""
        q = np.asarray(q, dtype=float)
        if self.constant_mass is not None:
            return np.broadcast_to(self.constant_mass, q.shape[:-1] + (self.n, self.n))
        M = _at_points(self.inertia, q)
        shape = M.shape[q.ndim - 1 :]
        if shape != (self.n, self.n):
            raise ValueError(f"inertia returned shape {shape}, expected {(self.n, self.n)}")
        MT = M.swapaxes(-1, -2)
        if q.ndim == 1:  # one point: the same rule, on cheaper whole-array reductions
            if not np.abs(M - MT).max() > SYMMETRY_TOL * max(np.abs(M).max(), 1.0):
                return 0.5 * (M + MT)
        asym = np.abs(M - MT).max(axis=(-2, -1))
        bad = asym > SYMMETRY_TOL * np.maximum(np.abs(M).max(axis=(-2, -1)), 1.0)
        if bad.any():  # name the first point that fails
            i, q, asym = np.argmax(bad), q.reshape(-1, self.n), np.ravel(asym)
            msg = f"inertia matrix asymmetric at q={q[i].tolist()} (|M - M^T| = {asym[i]:.3e})"
            raise ValueError(msg)
        return 0.5 * (M + MT)

    def dmass(self, q):
        """dM_ij/dq^k as an (n, n, n) array, analytic or finite-difference; zero for a constant M."""
        if self.constant_mass is not None:
            return np.zeros(np.shape(q) + (self.n, self.n))
        return _derivative(self.inertia, self.dinertia, np.asarray(q, dtype=float))

    def grad_potential(self, q):
        """dV/dq, analytic or finite-difference; zero without a potential."""
        q = np.asarray(q, dtype=float)
        if self.potential is None:
            return np.zeros(q.shape)
        return _derivative(lambda x: np.array(self.potential(x)), self.dpotential, q)

    def damping_matrix(self, q):
        """k(q); zero without damping."""
        q = np.asarray(q, dtype=float)
        if self.damping is None:
            return np.zeros(q.shape + (self.n,))
        return _at_points(self.damping, q)

    def input_matrix(self, q):
        """Co-vector fields F_a(q) stacked as columns of an (n, m) matrix."""
        q = np.asarray(q, dtype=float)
        cols = np.array([_at_points(F, q) for F in self.input_covectors])
        # (n, m) F-ordered for a point, (B, n, m) C-ordered for a stack: the products
        # with these arrays round by their layout
        return cols.T if q.ndim == 1 else np.ascontiguousarray(cols.transpose(1, 2, 0))

    def dinput_matrix(self, q):
        """dF[a, i, j] = dF_a^i/dq^j, analytic or finite-difference: (m, n, n) at a point."""
        q = np.asarray(q, dtype=float)
        derivatives = self.dinput_covectors or (None,) * self.m
        cols = np.array([_derivative(F, dF, q) for F, dF in zip(self.input_covectors, derivatives)])
        return cols if q.ndim == 1 else np.ascontiguousarray(cols.swapaxes(0, 1))

    def input_field(self, a):
        """The a-th input vector field Y_a as a :class:`VectorField` (0-based):
        ``at(q).Y[:, a]``, with Jacobian ``at(q).JY[a]``."""
        if not 0 <= a < self.m:
            raise IndexError(f"input index {a} out of range for m={self.m}")
        return VectorField(eval=lambda q: self.at(q).Y[:, a], jacobian=lambda q: self.at(q).JY[a])

    def at(self, q) -> "PointData":
        """The per-point kernel at q (see :class:`PointData`); a point of this system is itself."""
        if isinstance(q, PointData):
            return q if q.sys is self else PointData(self, q.q)
        return PointData(self, q)


def _solve_factored(L, b):
    """M^-1 b from the lower Cholesky factor L of M (LAPACK dpotrs): the one solve call,
    which only PointData.solve makes."""
    return dpotrs(L, b, lower=1)[0]


class PointData:
    """Everything the connection needs at a configuration q (``sys.at(q)``): a point (n,), or
    a stack (B, n) of points, on which every array below gains a leading B axis.

    Construction factors M(q) (LAPACK dpotrf; a constant M's factor is the system's, a stack
    on a q-dependent M has one factor per member); a failed factorization (M not positive
    definite) or dpocon's 1-norm estimate rcond with rcond * COND_LIMIT < 1 raises
    SingularInertiaError, naming the refused member's q.  Computed on first read, so ``F``,
    ``Y`` and ``solve`` never evaluate dM: ``dM`` (n, n, n), dM[i, j, k] = dM_ij/dq^k; ``F``
    (n, m), the input co-vector fields F_a as columns (the applied force of inputs u is
    F @ u); ``dF`` (m, n, n), with dF[a, i, j] = dF_a^i/dq^j; ``Y`` (n, m) = M^-1 F; ``JY``
    (m, n, n), with JY[a, i, r] = dY_a^i/dq^r; ``Gamma`` (n, n, n), the Christoffel
    symbols; ``products`` (m, m, n), products[a, b] = <Y_a : Y_b>, from the covector
    identity M <Y_a : Y_b> = dF_a Y_b + dF_b Y_a - dM(Y_a, Y_b) (one solve; JY and Gamma
    stay unread).  A member of a stack equals the point at its q bit for bit.
    """

    __slots__ = ("sys", "q", "factor", "_dM", "_F", "_dF", "_Y", "_JY", "_Gamma", "_products")

    def __init__(self, sys: MechanicalSystem, q):
        self.sys = sys
        self.q = q = np.asarray(q, dtype=float)
        if sys._factor is not None or q.ndim == 1:  # one factor: the constant M's, or q's
            self.factor, rcond = sys._factor or _cholesky(sys.mass(q))
            rconds = (rcond,)
        else:  # a tuple of factors, one per member
            self.factor, rconds = zip(*map(_cholesky, sys.mass(q)))
        for i, rcond in enumerate(rconds):
            if not rcond * COND_LIMIT >= 1.0:  # also rejects a NaN estimate
                cond = np.inf if rcond == 0.0 else 1.0 / rcond
                raise SingularInertiaError(q if q.ndim == 1 else q[i], cond)
        self._dM = self._F = self._dF = self._Y = self._JY = self._Gamma = self._products = None

    def solve(self, b):
        """M(q)^-1 b for a vector or an (n, k) block b; on a stack, for b (B, n) or (B, n, k),
        member by member.  On one factor the B members are the columns of one (n, B k) block.

        dpotrs does no finiteness check, so non-finite entries in b
        propagate to the result and the integrator can report them as a
        state blow-up rather than a linear-algebra error.
        """
        if self.q.ndim == 1:
            return _solve_factored(self.factor, b)
        cols = b.swapaxes(0, 1)  # (n, B) or (n, B, k)
        if isinstance(self.factor, tuple):  # a factor per member
            x = np.empty(cols.shape, order="F")
            for i, (L, rhs) in enumerate(zip(self.factor, b)):
                x[:, i] = _solve_factored(L, rhs)
        else:  # the members side by side, as the columns of one (n, B k) block
            x = _solve_factored(self.factor, cols.reshape(len(cols), -1, order="F"))
            x = x.reshape(cols.shape, order="F")
        return x.swapaxes(0, 1)  # each member F-ordered, laid out as a point's solve is

    @property
    def dM(self):
        if self._dM is None:
            self._dM = self.sys.dmass(self.q)
        return self._dM

    @property
    def F(self):
        if self._F is None:
            self._F = self.sys.input_matrix(self.q)
        return self._F

    @property
    def dF(self):
        if self._dF is None:
            self._dF = self.sys.dinput_matrix(self.q)
        return self._dF

    @property
    def Y(self):
        if self._Y is None:
            self._Y = self.solve(self.F)
        return self._Y

    @property
    def JY(self):
        if self._JY is None:
            lead, n, m = self.q.shape[:-1], self.sys.n, self.sys.m
            # chain rule dY_a = M^-1 (dF_a - dM . Y_a), the m blocks solved side by side
            rhs = self.dF.swapaxes(-3, -2) - np.einsum("...irj,...ra->...iaj", self.dM, self.Y)
            JY = self.solve(rhs.reshape(lead + (n, -1))).reshape(lead + (n, m, n))
            self._JY = JY.swapaxes(-3, -2)
        return self._JY

    @property
    def Gamma(self):
        if self._Gamma is None:
            # A[m,j,k] = dM_mj/dq^k + dM_mk/dq^j - dM_jk/dq^m; symmetrizing over
            # (j, k) cancels finite-difference asymmetry noise
            lead, n, D = self.q.shape[:-1], self.sys.n, self.dM
            A = D + D.swapaxes(-1, -2) - D.swapaxes(-1, -2).swapaxes(-2, -3)
            G = 0.5 * self.solve(A.reshape(lead + (n, n * n))).reshape(lead + (n, n, n))
            self._Gamma = 0.5 * (G + G.swapaxes(-1, -2))
        return self._Gamma

    @property
    def products(self):
        if self._products is None:
            # P[:, a, b] = M^-1 (dF_a Y_b - dM(Y_a, Y_b) / 2), all m^2 right-hand
            # sides in one solve; <Y_a : Y_b> = P[:, a, b] + P[:, b, a]
            m, Y = self.sys.m, self.Y
            if self.q.ndim == 2:
                Y = Y[:, None]
            dMY = Y.swapaxes(-1, -2) @ self.dM.swapaxes(-1, -2).swapaxes(-2, -3) @ Y
            rhs = (self.dF @ Y).swapaxes(-3, -2) - 0.5 * dMY
            P = self.solve(rhs.reshape(rhs.shape[:-2] + (m * m,))).reshape(rhs.shape)
            self._products = (P + P.swapaxes(-1, -2)).swapaxes(-3, -2).swapaxes(-2, -1)
        return self._products


def covariant_derivative(sys: MechanicalSystem, X: VectorField, Y: VectorField, q):
    """(nabla_X Y)^i = dY^i/dq^j X^j + Gamma^i_jk X^j Y^k at q."""
    q = np.asarray(q, dtype=float)
    x = X(q)
    y = Y(q)
    return Y.jacobian_at(q) @ x + np.einsum("ijk,j,k->i", sys.at(q).Gamma, x, y)


def lie_bracket(X: VectorField, Y: VectorField, q):
    """[X, Y]^i = dY^i/dq^j X^j - dX^i/dq^j Y^j at q."""
    q = np.asarray(q, dtype=float)
    return Y.jacobian_at(q) @ X(q) - X.jacobian_at(q) @ Y(q)


def _symmetric_product(a, b, Ja, Jb, G):
    """<A : B> = J_A b + J_B a + G(a, b) + G(b, a) from the values a, b of
    A, B, their Jacobians Ja, Jb and the Christoffel symbols G, at a point or a stack."""
    Gab, Gba = (np.einsum("...ijk,...j,...k->...i", G, u, v) for u, v in ((a, b), (b, a)))
    return (Ja @ b[..., None] + Jb @ a[..., None])[..., 0] + Gab + Gba


def symmetric_product(sys: MechanicalSystem, Ya: VectorField, Yb: VectorField, q):
    """<Ya : Yb> = nabla_Ya Yb + nabla_Yb Ya at q (symmetric in Ya, Yb)."""
    q = np.asarray(q, dtype=float)
    return _symmetric_product(Ya(q), Yb(q), Ya.jacobian_at(q), Yb.jacobian_at(q), sys.at(q).Gamma)


# -- lifted (state-space) fields ------------------------------------------


def _split_state(x):
    n = x.size // 2
    return x[:n], x[n:]


def lift(Y: VectorField) -> VectorField:
    """Vertical lift (0, Y(q)) of a configuration vector field; class -1."""

    def ev(x):
        q, _ = _split_state(x)
        return np.concatenate([np.zeros_like(q), Y(q)])

    def jac(x):
        q, _ = _split_state(x)
        n = q.size
        J = np.zeros((2 * n, 2 * n))
        J[n:, :n] = Y.jacobian_at(q)
        return J

    return VectorField(eval=ev, jacobian=jac, hclass=-1)


def geodesic_spray(sys: MechanicalSystem) -> VectorField:
    """The geodesic spray Z(q, qdot) = (qdot, -Gamma(qdot, qdot)); class 1."""

    def ev(x):
        q, qd = _split_state(x)
        return np.concatenate([qd, -np.einsum("ijk,j,k->i", sys.at(q).Gamma, qd, qd)])

    def jac(x):
        q, qd = _split_state(x)
        n = q.size
        J = np.zeros((2 * n, 2 * n))
        J[:n, n:] = np.eye(n)
        # d(-Gamma(q)(qd,qd))/dq by finite differences of the quadratic form
        J[n:, :n] = central_jacobian(
            lambda qq: -np.einsum("ijk,j,k->i", sys.at(qq).Gamma, qd, qd), q, DEFAULT_FD_STEP
        )
        J[n:, n:] = -2.0 * np.einsum("ijk,k->ij", sys.at(q).Gamma, qd)
        return J

    return VectorField(eval=ev, jacobian=jac, hclass=1)


def damping_lift(sys: MechanicalSystem) -> VectorField:
    """(0, k(q) qdot), the damping force as a state-space field; class 0."""

    def ev(x):
        q, qd = _split_state(x)
        return np.concatenate([np.zeros_like(q), sys.damping_matrix(q) @ qd])

    def jac(x):
        q, qd = _split_state(x)
        n = q.size
        J = np.zeros((2 * n, 2 * n))
        J[n:, :n] = central_jacobian(lambda qq: sys.damping_matrix(qq) @ qd, q, DEFAULT_FD_STEP)
        J[n:, n:] = sys.damping_matrix(q)
        return J

    return VectorField(eval=ev, jacobian=jac, hclass=0)


def lifted_lie_bracket(F: VectorField, G: VectorField) -> VectorField:
    """[F, G] on state space; homogeneity classes add when both are tagged."""
    cls = None
    if F.hclass is not None and G.hclass is not None:
        cls = F.hclass + G.hclass
    return VectorField(eval=lambda x: lie_bracket(F, G, x), h=1e-6, hclass=cls)


def homogeneity_error(W: VectorField, q, qdot, lam):
    """Deviation from the class-j scaling law under qdot -> lam * qdot.

    Returns ||W(q, lam qdot) - S_lam W(q, qdot)|| / max(1, ||.||) where
    S_lam scales the first n components by lam^j and the rest by
    lam^(j+1).
    """
    if W.hclass is None:
        raise ValueError("field has no homogeneity class tag")
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    w = W(np.concatenate([q, qdot]))
    n = q.size
    j = W.hclass
    expected = np.concatenate([lam**j * w[:n], lam ** (j + 1) * w[n:]])
    actual = W(np.concatenate([q, lam * qdot]))
    return float(np.linalg.norm(actual - expected) / max(1.0, np.linalg.norm(expected)))
