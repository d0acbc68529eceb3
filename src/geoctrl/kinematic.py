"""Decoupling vector fields, kinematic controllability, and rest-to-rest
motion plans that follow decoupling fields under arbitrary time scalings.

A configuration vector field V decouples the dynamics when both V and
nabla_V V lie in the input span {Y_a(q)} pointwise; every time-scaled
traversal of its integral curves is then realizable by some input, so
planning collapses to kinematics.  Writing V = sum_a h_a(q) Y_a(q), the
h-derivative terms of nabla_V V stay in the span automatically, so the
obstruction at a point is the system of quadratic equations

    B_l(h, h) = sum_{a,b} h_a h_b <c_l, <Y_a : Y_b>(q)> = 0,
    l = 1 .. n-m,

with {c_l} an orthonormal basis of the orthogonal complement of the input
span.  Solutions are projective directions in R^m, found exactly for m <= 3.

The complement basis comes from LAPACK dgeqrf and dorgqr, and the singular
member of a pencil of two forms from the QZ routine dggev, all three read from
geometry's ``flapack`` (scipy's compiled LAPACK module), not from scipy.linalg.
"""

import math
from dataclasses import dataclass, field, replace
from typing import List, Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import (
    BranchVanishedError,
    DecouplingSetError,
    NonFiniteStateError,
    RankDeficientInputsError,
    ResidualViolationError,
)
from .geometry import (
    MechanicalSystem,
    VectorField,
    covariant_derivative,
    flapack,
    lie_bracket,
)
from .simulation import (
    IntegratorConfig,
    Trajectory,
    check_grid,
    _rk4,
    reconstruct_inputs,
)

RANK_TOL = 1e-8
ZERO_TOL = 1e-10  # a form or coefficient this small (relative) is zero
ROOT_TOL = 1e-10  # a root leaves every form below this (relative)
ANGLE_TOL = 1e-6  # directions closer than this angle are one
# the deepest bracket larc_rank forms: each level costs about 13x the one before,
# and a depth-d bracket of a decoupling field nests d - 1 central differences
MAX_DEPTH = 4
dgeqrf, dorgqr, dggev = flapack.dgeqrf, flapack.dorgqr, flapack.dggev


def _span_projector(Y, q):
    """QR-based orthogonal-complement data for span{Y_a(q)}.

    Returns (Q, C): Q spans the input distribution, C its complement.
    Raises RankDeficientInputsError(q) if the input fields are rank
    deficient at the point q.  The complete Q comes from LAPACK dgeqrf +
    dorgqr, the routines behind np.linalg.qr(mode="complete"), without
    numpy's per-call overhead.
    """
    n, m = Y.shape
    qr, tau, _, _ = dgeqrf(Y)
    diag = np.abs(np.diag(qr))
    if diag.min() <= 1e-10 * max(1.0, diag.max()):
        raise RankDeficientInputsError(q)
    full = np.zeros((n, n), order="F")
    full[:, :m] = qr
    Qfull, _, _ = dorgqr(full, tau, overwrite_a=1)
    return Qfull[:, :m], Qfull[:, m:]


# -- decoupling test and search ------------------------------------------------


def decoupling_residual(sys: MechanicalSystem, V: VectorField, q) -> float:
    """How far V and nabla_V V stick out of the input span at q.

    Returns max over both fields of ||P_perp w|| / max(1, ||w||); zero
    (to numerical noise) characterizes a decoupling field at the point.
    """
    q = np.asarray(q, dtype=float)
    Q, _ = _span_projector(sys.at(q).Y, q)
    dVV = covariant_derivative(sys, V, V, q)
    v = V(q)

    def leak(w):
        return np.linalg.norm(w - Q @ (Q.T @ w)) / max(1.0, np.linalg.norm(w))

    return float(max(leak(dVV), leak(v)))


@dataclass(frozen=True)
class DecouplingSolutions:
    """Projective coefficient directions solving the quadratic system.

    ``all_directions`` flags the degenerate case of identically zero
    quadratic forms (e.g. fully actuated systems): every direction works.
    Otherwise ``directions`` is every root: a finite set, never samples of a curve.
    ``fields`` is the (n, m) matrix of input vector fields Y at the point,
    so a direction h gives the field value ``fields @ h``.
    """

    directions: List[np.ndarray]
    fields: np.ndarray
    all_directions: bool = False


def _canonical(h):
    h = h / np.linalg.norm(h)
    k = int(np.argmax(np.abs(h)))
    return -h if h[k] < 0 else h


def quadratic_forms(sys: MechanicalSystem, q):
    """(B, Y): the forms B[l, a, b] tested against h at q, shape (n-m, m, m),
    and the (n, m) input fields Y they came from."""
    pt = sys.at(q)
    _, C = _span_projector(pt.Y, pt.q)
    return (pt.products @ C).transpose(2, 0, 1), pt.Y


def find_decoupling_fields(sys: MechanicalSystem, q) -> DecouplingSolutions:
    """All projective h with B_l(h, h) = 0 at the point q.

    m = 2 uses the closed-form quadratic in the ratio h_2/h_1; m = 1 has
    no root while a form is live; m = 3 solves m = 2 on the real lines of a
    degenerate conic of the forms' pencil (the conic intersection of
    Richter-Gebert, Perspectives on Projective Geometry, 2011, ch. 11).  An
    empty list is a valid outcome (no real solutions).  DecouplingSetError
    where the roots hold a line or a curve, and for m > 3 with a live form.
    """
    B, Y = quadratic_forms(sys, q)
    if sys.m == 2:
        directions = _two_input_directions(B.tolist())
    else:
        directions = _conic_directions(B, q)
    if directions is None:  # identically zero forms: every direction decouples
        return DecouplingSolutions(directions=[], all_directions=True, fields=Y)
    return DecouplingSolutions(directions=directions, all_directions=False, fields=Y)


def _two_input_directions(forms):
    """The m = 2 directions from B.tolist(), on Python floats; None if B ~ 0.

    Each root of the first live form a r^2 + b r + c (r = h2/h1, or h1 = 0
    when a ~ 0) is normalized, signed so its largest entry is positive, and
    kept if it annihilates every live form; two kept roots that are one
    projective direction count once.
    """
    scale = max([abs(x) for Bl in forms for row in Bl for x in row], default=0.0)
    if scale <= ZERO_TOL:
        return None
    zero, root_tol = ZERO_TOL * scale, ROOT_TOL * scale
    live = [Bl for Bl in forms if max(map(abs, Bl[0] + Bl[1])) > zero]
    (c, b), (_, a) = live[0]
    b = 2.0 * b
    if abs(a) <= zero:
        cands = [(1.0, -c / b)] if abs(b) > zero else []
        cands.append((0.0, 1.0))  # h1 = 0 annihilates when a ~ 0
    else:
        disc = b * b - 4.0 * a * c
        if not disc >= 0.0:
            return []  # no real root
        sq = math.sqrt(disc)
        qq = -0.5 * (b + (math.copysign(sq, b) if b != 0.0 else sq))
        cands = [(1.0, qq / a)] + ([(1.0, c / qq)] if qq != 0.0 else [])
    unique = []
    for h1, h2 in cands:
        norm = math.sqrt(h1 * h1 + h2 * h2)
        h1, h2 = h1 / norm, h2 / norm
        if (h1 if abs(h1) >= abs(h2) else h2) < 0.0:
            h1, h2 = -h1, -h2
        if all(
            abs((h1 * B1 + h2 * B3) * h1 + (h1 * B2 + h2 * B4) * h2) <= root_tol
            for (B1, B2), (B3, B4) in live
        ) and not any(abs(h1 * u1 + h2 * u2) > 1.0 - 0.5 * ANGLE_TOL**2 for u1, u2 in unique):
            unique.append((h1, h2))
    if len(unique) > 1:  # the order of np.round(h, 9), the m > 2 key
        unique.sort(key=lambda h: (round(h[0] * 1e9) / 1e9, round(h[1] * 1e9) / 1e9))
    return [np.array(h) for h in unique]


def _pencil_eigvals(A, B):
    """The homogeneous eigenvalues (alpha, beta) of the pencil (A, B), the rows of a
    complex (2, n) array: scipy.linalg.eigvals(A, B, homogeneous_eigvals=True) as its own
    LAPACK dggev calls make it, a workspace query and then the eigenvalues alone.
    ValueError on a non-finite entry, LinAlgError if dggev fails."""
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("array must not contain infs or NaNs")
    lwork = dggev(A, B, lwork=-1)[-2][0].real.astype(np.int_)
    alphar, alphai, beta, _, _, _, info = dggev(A, B, compute_vl=0, compute_vr=0, lwork=lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dggev failed (info={info})")
    return np.vstack((alphar + 1j * alphai, beta))


def _conic_directions(B, q):
    """The m != 2 directions of the forms B, shape (k, m, m); None if B ~ 0.  For m = 3, D
    is a singular member of the pencil of two independent live forms, or the one form."""
    scale = float(np.max(np.abs(B))) if B.size else 0.0
    if scale <= ZERO_TOL:
        return None
    if B.shape[1] == 1:  # the one direction, h = 1, leaves the largest form at scale
        return []
    if B.shape[1] > 3:
        raise DecouplingSetError(q, f"no exact solve for m = {B.shape[1]} with a live form")
    # scaled, so that ZERO_TOL and ROOT_TOL act relative to the largest entry
    live = B[np.max(np.abs(B), axis=(1, 2)) > ZERO_TOL * scale] / scale
    D = live[0]
    indep = [E for E in live[1:] if np.max(np.abs(E - np.sum(E * D) / np.sum(D * D) * D)) > ZERO_TOL]
    if indep:  # the largest real root (alpha, beta) of det(beta D - alpha E) = 0, or
        # in a singular pencil, where every member is singular, any nonzero one
        alpha, beta = _pencil_eigvals(D, indep[0])
        size = np.hypot(alpha.real, beta.real)
        k = max(range(3), key=lambda i: (alpha[i].imag == 0.0 and size[i] > 0.0, size[i]))
        D = (beta[k].real * D - alpha[k].real * indep[0]) / size[k]
    w, v = np.linalg.eigh(D)
    i0, ib, ia = np.argsort(np.abs(w))
    if not indep and abs(w[i0]) > ZERO_TOL * abs(w[ia]) and w[0] * w[-1] < 0.0:  # one, nonsingular
        raise DecouplingSetError(q, "the roots of the quadratic forms hold a curve")
    # D's two real lines (one line twice at rank 1), or two lines through its one real
    # point, by their normals: every root of D lies on one of them
    a, b = v[:, ia], math.sqrt(abs(w[ib] / w[ia])) * v[:, ib]  # scaled by 1 / sqrt|w[ia]|
    cands = []
    for normal in (a + b, a - b):
        _, P = _span_projector(normal[:, None], q)  # an orthonormal basis of the line
        on_line = P.T @ live @ P
        F = on_line[np.argmax(np.abs(on_line).sum((1, 2)))]  # every common root is its root
        roots = _two_input_directions([F.tolist()])
        if roots is None:
            raise DecouplingSetError(q, "the roots of the quadratic forms hold a line")
        if len(roots) < 2:  # a double root (tangent forms) whose discriminant rounded below 0
            wF, vF = np.linalg.eigh(F)
            roots.append(vF[:, np.argmin(np.abs(wF))])
        cands.extend(P @ h for h in roots)
    unique: List[np.ndarray] = []
    for h in [h for h in map(_canonical, cands) if all(abs(h @ Bl @ h) <= ROOT_TOL for Bl in live)]:
        if not any(abs(h @ u) > 1.0 - 0.5 * ANGLE_TOL**2 for u in unique):
            unique.append(h)
    unique.sort(key=lambda h: tuple(np.round(h, 9)))
    return unique


@dataclass(frozen=True)
class DecouplingCandidate:
    """A decoupling field V(q) = sum_a h_a(q) Y_a(q)."""

    field: VectorField


def candidate_from_direction(
    sys: MechanicalSystem, q0, h0
) -> DecouplingCandidate:
    """Extend a pointwise solution to a field by re-solving along the way.

    At each queried q the quadratic system is re-solved and the branch
    nearest the previously matched direction is taken (sign-aligned), so
    the field is continuous along any continuously sampled path.  The
    branch memory makes the candidate stateful: evaluate it along one
    path at a time.  A field evaluation is one decoupling solve: V(q) is
    the solve's own input fields Y(q) times the matched h, so each point
    costs a single inertia evaluation and factorization.  ValueError unless h0 is a
    finite, nonzero vector of length sys.m.
    """
    h0 = np.asarray(h0, dtype=float)
    if h0.shape != (sys.m,) or not np.isfinite(h0).all() or not h0.any():
        raise ValueError(f"h0 must be a finite, nonzero vector of length m={sys.m}, got {h0}")
    h0 = _canonical(h0)
    ref = [h0]

    def ev(q):
        q = np.asarray(q, dtype=float)
        # module-level name lookup, so wrapping find_decoupling_fields
        # (e.g. for tracing) sees every re-solve
        sol = find_decoupling_fields(sys, q)
        if sol.all_directions:
            return sol.fields @ ref[0]
        if not sol.directions:
            raise BranchVanishedError(q)
        h, dot = None, 0.0  # the first direction of largest |d . ref|
        for d in sol.directions:
            dd = float(d @ ref[0])
            if h is None or abs(dd) > abs(dot):
                h, dot = d, dd
        if dot < 0:
            h = -h
        ref[0] = h
        return sol.fields @ h

    return DecouplingCandidate(field=VectorField(eval=ev))


# -- LARC ---------------------------------------------------------------------


@dataclass(frozen=True)
class ControllabilityReport:
    rank: int
    depth: int
    verdict: bool
    residuals: List[float] = field(default_factory=list)


def larc_rank(
    fields: Sequence[VectorField],
    q,
    max_depth: int = 2,
    tol: float = RANK_TOL,
) -> ControllabilityReport:
    """Numerical rank of the iterated-bracket span of ``fields`` at q.

    Depth d adds brackets of the base fields with everything at depth
    d-1 (left-normed brackets, which span the full bracket algebra).
    Rank counts singular values above tol * sigma_max, 0 < tol < 1; the verdict is
    rank == dim q, and the search stops at the first depth whose rank reaches it.  An
    empty family has rank 0.  The depth is at most MAX_DEPTH.
    """
    if not 1 <= max_depth <= MAX_DEPTH:
        raise ValueError(f"max_depth must be in 1..{MAX_DEPTH}, got {max_depth}")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    q = np.asarray(q, dtype=float)
    base = list(fields)
    level = list(fields)
    columns = [f(q) for f in base]

    def current_rank():
        if not columns:
            return 0
        sv = np.linalg.svd(np.column_stack(columns), compute_uv=False)
        return int(np.sum(sv > tol * sv[0])) if sv[0] > 0 else 0

    ranks = [current_rank()]
    for _ in range(2, max_depth + 1):
        if ranks[-1] == q.size:
            break
        nxt = []
        for X in base:
            for W in level:
                nxt.append(
                    VectorField(eval=lambda qq, _X=X, _W=W: lie_bracket(_X, _W, qq))
                )
        columns.extend(f(q) for f in nxt)
        level = nxt
        ranks.append(current_rank())
    rank = ranks[-1]
    depth = 1 + next(i for i, r in enumerate(ranks) if r == rank)
    return ControllabilityReport(rank=rank, depth=depth, verdict=(rank == q.size))


def kinematic_controllability(
    sys: MechanicalSystem, q, max_depth: int = 2, tol: float = RANK_TOL
):
    """Find decoupling fields at q and test the LARC on them.

    Returns (report, candidates).  For the degenerate all-directions case
    the input fields themselves are used; no field found gives rank 0.
    """
    q = np.asarray(q, dtype=float)
    sol = find_decoupling_fields(sys, q)
    if sol.all_directions:
        cands = [DecouplingCandidate(field=sys.input_field(a)) for a in range(sys.m)]
    else:
        cands = [candidate_from_direction(sys, q, h) for h in sol.directions]
    residuals = [decoupling_residual(sys, c.field, q) for c in cands]
    report = larc_rank([c.field for c in cands], q, max_depth=max_depth, tol=tol)
    return replace(report, residuals=residuals), cands


# -- time scalings and plans ----------------------------------------------------


@dataclass(frozen=True)
class TimeScaling:
    """Monotone s: [0, T] -> [0, 1] with zero endpoint rates."""

    T: float
    profile: str

    def __post_init__(self):
        if self.profile not in ("cubic", "trapezoidal"):
            raise ValueError(f"unknown time-scaling profile '{self.profile}'")
        if not self.T > 0:
            raise ValueError("T must be positive")

    def s(self, t):
        """s(t), elementwise for an array t."""
        T = self.T
        tau = np.clip(np.asarray(t, dtype=float) / T, 0.0, 1.0)
        if self.profile == "cubic":
            return tau * tau * (3.0 - 2.0 * tau)
        # trapezoidal speed: 25% ramp up, 50% cruise, 25% ramp down
        v = 4.0 / (3.0 * T)
        t = tau * T
        ta = 0.25 * T
        r = T - t
        return np.where(
            t <= ta,
            0.5 * v * t * t / ta,
            np.where(t <= T - ta, v * ta / 2.0 + v * (t - ta), 1.0 - 0.5 * v * r * r / ta),
        )[()]

    def sdot(self, t):
        """ds/dt, elementwise for an array t; zero outside [0, T]."""
        T = self.T
        t = np.asarray(t, dtype=float)
        tau = t / T
        if self.profile == "cubic":
            rate = 6.0 * tau * (1.0 - tau) / T
        else:
            v = 4.0 / (3.0 * T)
            ta = 0.25 * T
            rate = np.where(t <= ta, v * t / ta, np.where(t <= T - ta, v, v * (T - t) / ta))
        return np.where((t < 0.0) | (t > T), 0.0, rate)[()]

    @staticmethod
    def cubic(T):
        return TimeScaling(T=T, profile="cubic")

    @staticmethod
    def trapezoidal(T):
        return TimeScaling(T=T, profile="trapezoidal")


@dataclass(frozen=True)
class PlanSegment:
    candidate: DecouplingCandidate
    sign: float
    scaling: TimeScaling


# arc-parameter grid for the path ODE.  On the 40 plan-3r benchmark paths
# (three-link, dt 2e-4) the planned q stays within 8.1e-12 of an 8000-step
# path and the validation residual within 1.0002x of that path's.  The grid is
# sized by a path that straightens the elbow: from the README q0, branch 1
# forward passes within 1.2e-5 of q2 = 0, and at dt 1e-4 reads a residual of
# 3.9e-7 (2.7e-7 at 3200 steps; every grid tried from 950 to 2400 steps,
# by 50, stays under 4.3e-7).  Coarser grids lose its accuracy (400 steps:
# 1.2e-5) or its branch (450, 600, 750 and 900 steps: 3e-4 to 8e-4).  Each
# arc step costs four decoupling solves.
_PATH_STEPS = 1000


def _quintic_table():
    """Lagrange basis of the six nodes 0..5 on each of their five intervals.

    Entry o holds, in u = x - o, the monomial coefficients of every node's
    basis polynomial, shape (6, 6) [power, node].  Working in u in [0, 1]
    keeps the sums well scaled.
    """
    nodes = np.arange(6.0)
    return np.array([
        np.column_stack([
            P.polyfromroots(np.delete(nodes, k) - o) / np.prod(k - np.delete(nodes, k))
            for k in range(6)
        ])
        for o in range(5)
    ])


_QUINTIC = _quintic_table()


def _path_interpolant(q0, vel, s):
    """(q(s), v(s)) at the arc values s from dQ/ds at the _PATH_STEPS + 1 arc nodes.

    On each arc interval v is the degree-5 polynomial through the six
    nearest nodes (the stencil shifted inward at both ends), and q is q0
    plus the integral of v, so dq/ds = v holds exactly along the path.
    """
    N = _PATH_STEPS
    start = np.clip(np.arange(N) - 2, 0, N - 5)
    # per interval i, the coefficients of v and of q in powers of u = s N - i
    cv = _QUINTIC[np.arange(N) - start] @ vel[start[:, None] + np.arange(6)]
    cq = P.polyint(cv, axis=1) / N
    rise = cq.sum(axis=1)  # q at the interval's right node minus at its left
    cq[:, 0] = q0 + np.cumsum(rise, axis=0) - rise
    i = np.minimum((s * N).astype(int), N - 1)
    u = (s * N - i)[:, None]
    q, v = cq[i, 6], 0.0
    for p in range(5, -1, -1):  # Horner
        q, v = q * u + cq[i, p], v * u + cv[i, p]
    return q, v


def kinematic_plan(
    sys: MechanicalSystem,
    segments: Sequence[PlanSegment],
    q0,
    cfg: IntegratorConfig,
    residual_tol: float = 1e-6,
    validate: bool = True,
) -> Trajectory:
    """Rest-to-rest trajectory following decoupling fields segment by segment.

    Each segment solves qdot = sdot(t) * sign * V(q); junctions are at
    rest because every scaling has zero endpoint rate.  The motion factors
    through the path ODE dQ/ds = sign * V(Q), so the field is walked once
    per segment by fixed-step RK4 on _PATH_STEPS arc steps (in order:
    branch-tracked candidates are stateful), and the time grid only samples
    the path interpolant: v(s) is the degree-5 interpolant of the field at
    the arc nodes and q(s) = q0 + its integral, so q(t) = q(s(t)) and
    qdot(t) = sdot(t) v(s(t)) are exactly one curve and its derivative.
    That keeps the cost independent of dt, which matters because the
    central-difference validation needs fine grids near trapezoid
    corners.  When ``validate`` is set, the inputs realizing each segment
    are reconstructed into the trajectory and the worst span residual is
    checked against ``residual_tol``; otherwise the recorded inputs stay
    zero.
    """
    if not segments:
        raise ValueError("segments must hold at least one PlanSegment")
    q = np.asarray(q0, dtype=float)
    parts = []  # (qs, qds, us) of each segment
    t_total = 0.0
    for si, seg in enumerate(segments):
        T = seg.scaling.T
        ts = np.arange(check_grid(0.0, T, cfg.dt) + 1) * cfg.dt
        arc = seg.scaling.s(ts)

        rhs = lambda s, x: (seg.sign * seg.candidate.field(x),) * 2  # keeps dQ/ds at the arc nodes
        try:  # _rk4 stamps errors with the arc parameter s
            path, vel = _rk4(rhs, q, 0.0, 1.0 / _PATH_STEPS, _PATH_STEPS)
        except NonFiniteStateError as e:
            raise NonFiniteStateError(t_total + float(np.interp(e.t, arc, ts))) from None

        qs, v = _path_interpolant(q, vel, arc)
        qds = seg.scaling.sdot(ts)[:, None] * v
        us = np.zeros((ts.size, sys.m))
        if validate:
            part = Trajectory(t0=0.0, dt=cfg.dt, qs=qs, qds=qds, us=us)
            rec = reconstruct_inputs(sys, part)
            if rec.max_residual > residual_tol:
                worst = int(np.argmax(rec.residuals))
                raise ResidualViolationError(
                    segment=si,
                    t=t_total + rec.times[worst],
                    residual=rec.max_residual,
                    tol=residual_tol,
                )
            us[1:-1] = rec.inputs
            us[0], us[-1] = us[1], us[-2]
        first = 1 if si else 0  # a junction sample is the previous segment's last
        parts.append((qs[first:], qds[first:], us[first:]))
        q = qs[-1]
        t_total += T
    all_qs, all_qds, all_us = zip(*parts)
    return Trajectory(
        t0=0.0,
        dt=cfg.dt,
        qs=np.concatenate(all_qs),
        qds=np.concatenate(all_qds),
        us=np.concatenate(all_us),
    )
