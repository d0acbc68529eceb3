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

All operations are pure functions of immutable inputs and safe to call
from multiple threads.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs

from .errors import SingularInertiaError
from .numutil import central_jacobian

DEFAULT_FD_STEP = 1e-5
COND_LIMIT = 1e12
SYMMETRY_TOL = 1e-12


def _asymmetry_error(q, asym):
    """The error for an inertia matrix failing the SYMMETRY_TOL check at q."""
    q = np.asarray(q, dtype=float)
    return ValueError(f"inertia matrix asymmetric at q={q.tolist()} (|M - M^T| = {asym:.3e})")


def _potrs(factor, b):
    """M^-1 b from the lower Cholesky factor of M (LAPACK dpotrs)."""
    return dpotrs(factor, b, lower=1)[0]


@dataclass(frozen=True)
class VectorField:
    """A configuration-space vector field q -> R^n with Jacobian access.

    ``jacobian`` returns the matrix d eval^i / d q^j; when omitted it is
    computed by central finite differences of ``eval`` with step ``h``.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h: float = DEFAULT_FD_STEP

    def __call__(self, q):
        return np.asarray(self.eval(np.asarray(q, dtype=float)), dtype=float)

    def jacobian_at(self, q):
        q = np.asarray(q, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(q), dtype=float)
        return central_jacobian(self.eval, q, self.h)

    @staticmethod
    def constant(v):
        v = np.asarray(v, dtype=float)
        n = v.size
        return VectorField(
            eval=lambda q, _v=v: _v.copy(),
            jacobian=lambda q, _n=n: np.zeros((_n, _n)),
        )


@dataclass(frozen=True)
class MechanicalSystem:
    """Forced mechanical system (n, m, M, V, k, F_a) with derivative access.

    Parameters
    ----------
    n, m
        Degrees of freedom and number of inputs, m <= n.
    inertia
        q -> symmetric positive-definite (n, n) matrix M(q).
    input_covectors
        m callables q -> R^n giving the input co-vector fields F_a.
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
        fall back to central finite differences with step ``fd_step``.
    """

    n: int
    m: int
    inertia: Callable[[np.ndarray], np.ndarray]
    input_covectors: Sequence[Callable[[np.ndarray], np.ndarray]]
    potential: Optional[Callable[[np.ndarray], float]] = None
    damping: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dinertia: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dpotential: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dinput_covectors: Optional[Sequence[Callable[[np.ndarray], np.ndarray]]] = None
    fd_step: float = DEFAULT_FD_STEP
    cond_limit: float = COND_LIMIT
    name: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not (1 <= self.m <= self.n):
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if len(self.input_covectors) != self.m:
            raise ValueError("input_covectors must have length m")
        if self.dinput_covectors is not None and len(self.dinput_covectors) != self.m:
            raise ValueError("dinput_covectors must have length m")

    @property
    def derivative_provider(self):
        analytic = (
            self.dinertia is not None
            and (self.potential is None or self.dpotential is not None)
            and self.dinput_covectors is not None
        )
        return "analytic" if analytic else f"central-finite-difference({self.fd_step:g})"

    # -- inertia ---------------------------------------------------------

    def mass(self, q):
        """M(q), validated symmetric (SYMMETRY_TOL relative) and returned symmetrized."""
        q = np.asarray(q, dtype=float)
        M = np.asarray(self.inertia(q), dtype=float)
        if M.shape != (self.n, self.n):
            raise ValueError(f"inertia returned shape {M.shape}, expected {(self.n, self.n)}")
        asym = np.max(np.abs(M - M.T))
        if asym > SYMMETRY_TOL * max(1.0, np.max(np.abs(M))):
            raise _asymmetry_error(q, asym)
        return 0.5 * (M + M.T)

    def _mass_factor(self, q):
        """Lower Cholesky factor of M(q) (LAPACK dpotrf), condition-guarded.

        The guard is dpocon's estimate of the 1-norm reciprocal condition
        number; a factorization failure (M not positive definite) or
        rcond * cond_limit < 1 raises SingularInertiaError.
        """
        M = self.mass(q)
        factor, info = dpotrf(M, lower=1)
        if info != 0:
            raise SingularInertiaError(q, np.inf)
        rcond, _ = dpocon(factor, np.abs(M).sum(axis=0).max(), uplo="L")
        if not rcond * self.cond_limit >= 1.0:  # also rejects a NaN estimate
            raise SingularInertiaError(q, np.inf if rcond == 0.0 else 1.0 / rcond)
        return factor

    def solve_mass(self, q, b):
        """M(q)^-1 b through one guarded Cholesky factorization (dpotrf/dpotrs).

        ``b`` may be a vector or an (n, k) block of right-hand sides.
        dpotrs does no finiteness check, so non-finite entries in b
        propagate to the result and the integrator can report them as a
        state blow-up rather than a linear-algebra error.
        """
        return _potrs(self._mass_factor(q), np.asarray(b, dtype=float))

    def dmass(self, q):
        """dM_ij/dq^k as an (n, n, n) array, analytic or finite-difference."""
        q = np.asarray(q, dtype=float)
        if self.dinertia is not None:
            return np.asarray(self.dinertia(q), dtype=float)
        return central_jacobian(self.inertia, q, self.fd_step)

    # -- potential and damping -------------------------------------------

    def potential_value(self, q):
        return 0.0 if self.potential is None else float(self.potential(np.asarray(q, dtype=float)))

    def grad_potential(self, q):
        q = np.asarray(q, dtype=float)
        if self.potential is None:
            return np.zeros(self.n)
        if self.dpotential is not None:
            return np.asarray(self.dpotential(q), dtype=float)
        return central_jacobian(lambda x: np.array(self.potential(x)), q, self.fd_step)

    def damping_matrix(self, q):
        q = np.asarray(q, dtype=float)
        if self.damping is None:
            return np.zeros((self.n, self.n))
        return np.asarray(self.damping(q), dtype=float)

    # -- inputs -----------------------------------------------------------

    def input_matrix(self, q):
        """Co-vector fields F_a(q) stacked as columns of an (n, m) matrix."""
        q = np.asarray(q, dtype=float)
        return np.column_stack([np.asarray(F(q), dtype=float) for F in self.input_covectors])

    def input_fields_matrix(self, q):
        """Input vector fields Y_a = M^-1 F_a as columns of an (n, m) matrix."""
        return self.solve_mass(q, self.input_matrix(q))

    def input_field(self, a):
        """The a-th input vector field Y_a as a :class:`VectorField` (0-based).

        The Jacobian uses the chain rule
        dY_a/dq^j = M^-1 (dF_a/dq^j - (dM/dq^j) Y_a),
        with dF_a and dM from the system's derivative provider.
        """
        if not 0 <= a < self.m:
            raise IndexError(f"input index {a} out of range for m={self.m}")

        def ev(q, _a=a):
            return self.solve_mass(q, np.asarray(self.input_covectors[_a](q), dtype=float))

        def jac(q, _a=a):
            q = np.asarray(q, dtype=float)
            factor = self._mass_factor(q)
            y = _potrs(factor, np.asarray(self.input_covectors[_a](q), dtype=float))
            if self.dinput_covectors is not None:
                dF = np.asarray(self.dinput_covectors[_a](q), dtype=float)
            else:
                dF = central_jacobian(self.input_covectors[_a], q, self.fd_step)
            dM = self.dmass(q)
            # columns: dF[:, j] - dM[:, :, j] @ y
            rhs = dF - np.einsum("irj,r->ij", dM, y)
            return _potrs(factor, rhs)

        return VectorField(eval=ev, jacobian=jac, h=self.fd_step)

    def kinetic_energy(self, q, qdot):
        qdot = np.asarray(qdot, dtype=float)
        return 0.5 * float(qdot @ self.mass(q) @ qdot)

    def total_energy(self, q, qdot):
        return self.kinetic_energy(q, qdot) + self.potential_value(q)


@dataclass(frozen=True)
class ChristoffelTensor:
    """Christoffel symbols Gamma^i_jk at a fixed configuration point."""

    q: np.ndarray
    values: np.ndarray  # (n, n, n), symmetric in the last two indices

    def bilinear(self, u, v):
        """Gamma(u, v)^i = Gamma^i_jk u^j v^k."""
        return np.einsum("ijk,j,k->i", self.values, u, v)

    def quadratic(self, qdot):
        """Gamma(qdot, qdot), the quadratic velocity (Coriolis) vector."""
        return self.bilinear(qdot, qdot)


def christoffel(sys: MechanicalSystem, q) -> ChristoffelTensor:
    """Christoffel symbols of the inertia metric at q.

    Gamma^i_jk = (1/2) M^{mi} (dM_mj/dq^k + dM_mk/dq^j - dM_jk/dq^m),
    symmetrized over (j, k) to cancel finite-difference asymmetry noise.
    M^-1 is formed (dpotrs on the identity) and contracted rather than
    solved for as in input_span_data: the two round differently, and
    finite differences of this Gamma (the geodesic spray's Jacobian)
    amplify that to ~1e-9.
    """
    q = np.asarray(q, dtype=float)
    Minv = _potrs(sys._mass_factor(q), np.eye(sys.n))
    D = sys.dmass(q)
    # A[m,j,k] = dM_mj/dq^k + dM_mk/dq^j - dM_jk/dq^m
    A = D + D.transpose(0, 2, 1) - D.transpose(2, 0, 1)
    G = 0.5 * np.einsum("mi,mjk->ijk", Minv, A)
    G = 0.5 * (G + G.transpose(0, 2, 1))
    return ChristoffelTensor(q=q, values=G)


def input_span_data(sys: MechanicalSystem, q):
    """(Y, JY, Gamma) at q, sharing a single inertia factorization.

    Y is (n, m) with the input vector fields as columns, JY is (m, n, n)
    with JY[a, i, r] = dY_a^i/dq^r, Gamma the Christoffel array.  This is
    the batch form of input_field/christoffel used by the controllability
    and averaging code, where all inputs are needed at once per point.
    """
    q = np.asarray(q, dtype=float)
    n, m = sys.n, sys.m
    factor = sys._mass_factor(q)
    Y = _potrs(factor, sys.input_matrix(q))
    dM = sys.dmass(q)
    A = dM + dM.transpose(0, 2, 1) - dM.transpose(2, 0, 1)
    Gam = 0.5 * _potrs(factor, A.reshape(n, n * n)).reshape(n, n, n)
    Gam = 0.5 * (Gam + Gam.transpose(0, 2, 1))
    if sys.dinput_covectors is not None:
        dF = np.array([np.asarray(d(q), dtype=float) for d in sys.dinput_covectors])
    else:
        dF = np.array(
            [central_jacobian(cov, q, sys.fd_step) for cov in sys.input_covectors]
        )
    # JY_a = M^-1 (dF_a - dM . Y_a), columnwise over the derivative index;
    # the m right-hand-side blocks are solved side by side as (n, m*n)
    rhs = dF.transpose(1, 0, 2) - np.einsum("irj,ra->iaj", dM, Y)
    JY = _potrs(factor, rhs.reshape(n, m * n)).reshape(n, m, n).transpose(1, 0, 2)
    return Y, JY, Gam


def pairwise_symmetric_products(Y, JY, Gam):
    """All <Y_a : Y_b> stacked as S[a, b] with shape (m, m, n)."""
    S = np.einsum("bir,ra->abi", JY, Y) + np.einsum("air,rb->abi", JY, Y)
    G = np.einsum("ijk,ja,kb->abi", Gam, Y, Y)
    return S + G + G.transpose(1, 0, 2)


def covariant_derivative(sys: MechanicalSystem, X: VectorField, Y: VectorField, q):
    """(nabla_X Y)^i = dY^i/dq^j X^j + Gamma^i_jk X^j Y^k at q."""
    q = np.asarray(q, dtype=float)
    x = X(q)
    y = Y(q)
    gamma = christoffel(sys, q)
    return Y.jacobian_at(q) @ x + gamma.bilinear(x, y)


def lie_bracket(X: VectorField, Y: VectorField, q):
    """[X, Y]^i = dY^i/dq^j X^j - dX^i/dq^j Y^j at q."""
    q = np.asarray(q, dtype=float)
    return Y.jacobian_at(q) @ X(q) - X.jacobian_at(q) @ Y(q)


def symmetric_product(sys: MechanicalSystem, Ya: VectorField, Yb: VectorField, q):
    """<Ya : Yb> = nabla_Ya Yb + nabla_Yb Ya at q (symmetric in Ya, Yb)."""
    q = np.asarray(q, dtype=float)
    a = Ya(q)
    b = Yb(q)
    gamma = christoffel(sys, q)
    return (
        Ya.jacobian_at(q) @ b
        + Yb.jacobian_at(q) @ a
        + gamma.bilinear(a, b)
        + gamma.bilinear(b, a)
    )


# -- lifted (state-space) fields ------------------------------------------


@dataclass(frozen=True)
class LiftedVectorField:
    """A vector field on state space R^{2n}, x = (q, qdot).

    ``hclass`` tags velocity homogeneity: the first n components are
    polynomial of degree j in qdot and the last n of degree j+1, so under
    qdot -> lam * qdot they scale by lam^j and lam^(j+1).  The geodesic
    spray has class 1, a damping lift class 0 and an input lift class -1;
    Lie brackets add classes.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hclass: Optional[int] = None
    h: float = 1e-6

    def __call__(self, x):
        return np.asarray(self.eval(np.asarray(x, dtype=float)), dtype=float)

    def jacobian_at(self, x):
        x = np.asarray(x, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(x), dtype=float)
        return central_jacobian(self.eval, x, self.h)


def _split_state(x):
    n = x.size // 2
    return x[:n], x[n:]


def lift(Y: VectorField) -> LiftedVectorField:
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

    return LiftedVectorField(eval=ev, jacobian=jac, hclass=-1)


def geodesic_spray(sys: MechanicalSystem) -> LiftedVectorField:
    """The geodesic spray Z(q, qdot) = (qdot, -Gamma(qdot, qdot)); class 1."""

    def ev(x):
        q, qd = _split_state(x)
        return np.concatenate([qd, -christoffel(sys, q).quadratic(qd)])

    def jac(x):
        q, qd = _split_state(x)
        n = q.size
        J = np.zeros((2 * n, 2 * n))
        J[:n, n:] = np.eye(n)
        # d(-Gamma(q)(qd,qd))/dq by finite differences of the quadratic form
        J[n:, :n] = central_jacobian(
            lambda qq: -christoffel(sys, qq).quadratic(qd), q, sys.fd_step
        )
        J[n:, n:] = -2.0 * np.einsum("ijk,k->ij", christoffel(sys, q).values, qd)
        return J

    return LiftedVectorField(eval=ev, jacobian=jac, hclass=1)


def damping_lift(sys: MechanicalSystem) -> LiftedVectorField:
    """(0, k(q) qdot), the damping force as a state-space field; class 0."""

    def ev(x):
        q, qd = _split_state(x)
        return np.concatenate([np.zeros_like(q), sys.damping_matrix(q) @ qd])

    def jac(x):
        q, qd = _split_state(x)
        n = q.size
        J = np.zeros((2 * n, 2 * n))
        J[n:, :n] = central_jacobian(lambda qq: sys.damping_matrix(qq) @ qd, q, sys.fd_step)
        J[n:, n:] = sys.damping_matrix(q)
        return J

    return LiftedVectorField(eval=ev, jacobian=jac, hclass=0)


def lifted_lie_bracket(F: LiftedVectorField, G: LiftedVectorField) -> LiftedVectorField:
    """[F, G] on state space; homogeneity classes add when both are tagged."""

    def ev(x):
        return G.jacobian_at(x) @ F(x) - F.jacobian_at(x) @ G(x)

    cls = None
    if F.hclass is not None and G.hclass is not None:
        cls = F.hclass + G.hclass
    return LiftedVectorField(eval=ev, hclass=cls)


def homogeneity_error(W: LiftedVectorField, q, qdot, lam):
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
