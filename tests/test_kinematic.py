"""Decoupling vector fields, rank tests, time scalings, and motion plans."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from geoctrl import (
    DecouplingCandidate,
    IntegratorConfig,
    MechanicalSystem,
    PlanSegment,
    TimeScaling,
    VectorField,
    candidate_from_direction,
    decoupling_residual,
    find_decoupling_fields,
    kinematic_controllability,
    kinematic_plan,
    larc_rank,
    make,
    quadratic_forms,
    reconstruct_inputs,
)
from geoctrl import kinematic
from geoctrl.errors import (
    BranchVanishedError,
    DecouplingSetError,
    GeoctrlError,
    NonFiniteStateError,
    RankDeficientInputsError,
    ResidualViolationError,
)
from geoctrl.kinematic import _PATH_STEPS, MAX_DEPTH, _span_projector


def constant_field(v):
    """The constant vector field q -> v, with its zero Jacobian."""
    v = np.asarray(v, dtype=float)
    return VectorField(eval=lambda q: v.copy(), jacobian=lambda q: np.zeros((v.size, v.size)))


# -- time scalings -------------------------------------------------------------


@pytest.mark.parametrize("profile", ["cubic", "trapezoidal"])
@pytest.mark.parametrize("T", [1.0, 2.0, 5.0])
def test_time_scaling_endpoint_conditions(profile, T):
    sc = TimeScaling(T=T, profile=profile)
    assert sc.s(0.0) == 0.0
    assert abs(sc.s(T) - 1.0) < 1e-12
    assert sc.sdot(0.0) == 0.0
    assert sc.sdot(T) == 0.0
    ts = np.linspace(0, T, 401)
    vals = np.array([sc.s(t) for t in ts])
    assert np.all(np.diff(vals) >= -1e-15)  # monotone


@pytest.mark.parametrize("profile", ["cubic", "trapezoidal"])
def test_time_scaling_rate_consistency(profile):
    sc = TimeScaling(T=2.0, profile=profile)
    h = 1e-6
    for t in np.linspace(0.1, 1.9, 25):
        fd = (sc.s(t + h) - sc.s(t - h)) / (2 * h)
        assert abs(sc.sdot(t) - fd) < 1e-8


def test_trapezoid_cruise_speed():
    T = 4.0
    sc = TimeScaling.trapezoidal(T)
    v = 4.0 / (3.0 * T)
    for t in np.linspace(T / 4, 3 * T / 4, 9):
        assert abs(sc.sdot(t) - v) < 1e-14


class ScalarTimeScaling:
    """The per-sample branchy time scalings, kept as the scalar-path oracle."""

    def __init__(self, T, profile):
        self.T, self.profile = T, profile

    def s(self, t):
        tau = np.clip(t / self.T, 0.0, 1.0)
        if self.profile == "cubic":
            return tau * tau * (3.0 - 2.0 * tau)
        v = 4.0 / (3.0 * self.T)
        t = tau * self.T
        ta = 0.25 * self.T
        if t <= ta:
            return 0.5 * v * t * t / ta
        if t <= self.T - ta:
            return v * ta / 2.0 + v * (t - ta)
        r = self.T - t
        return 1.0 - 0.5 * v * r * r / ta

    def sdot(self, t):
        if t < 0.0 or t > self.T:
            return 0.0
        tau = t / self.T
        if self.profile == "cubic":
            return 6.0 * tau * (1.0 - tau) / self.T
        v = 4.0 / (3.0 * self.T)
        ta = 0.25 * self.T
        if t <= ta:
            return v * t / ta
        if t <= self.T - ta:
            return v
        return v * (self.T - t) / ta


@pytest.mark.parametrize("profile", ["cubic", "trapezoidal"])
@pytest.mark.parametrize("T", [0.7, 2.0, 3.3])
def test_time_scaling_arrays_match_scalar_path_bitwise(profile, T):
    sc, oracle = TimeScaling(T=T, profile=profile), ScalarTimeScaling(T, profile)
    corners = [-0.0, 0.0, 0.25 * T, 0.75 * T, T, T - 0.25 * T]
    ts = np.concatenate([np.linspace(-0.5, T + 0.5, 2001), corners])
    want_s = np.array([oracle.s(float(t)) for t in ts])
    want_sdot = np.array([oracle.sdot(float(t)) for t in ts])
    for got, want in (
        (sc.s(ts), want_s),
        (sc.sdot(ts), want_sdot),
        (np.array([sc.s(float(t)) for t in ts]), want_s),
        (np.array([sc.sdot(float(t)) for t in ts]), want_sdot),
    ):
        assert got.tobytes() == want.tobytes()


def test_time_scaling_validation():
    with pytest.raises(ValueError):
        TimeScaling(T=1.0, profile="quintic")
    with pytest.raises(ValueError):
        TimeScaling(T=0.0, profile="cubic")


# -- decoupling fields -----------------------------------------------------------


@pytest.mark.parametrize("n, m", [(3, 1), (3, 2), (3, 3), (4, 2)])
def test_span_projector_matches_numpy_complete_qr(n, m):
    rng = np.random.default_rng(17)
    for _ in range(50):
        Y = rng.standard_normal((n, m))
        Q, C = _span_projector(Y, np.zeros(n))
        Qref = np.linalg.qr(Y, mode="complete")[0]
        Cref = Qref[:, m:]
        assert Q.shape == (n, m) and C.shape == (n, n - m)
        assert np.max(np.abs(Q @ Q.T - Qref[:, :m] @ Qref[:, :m].T), initial=0.0) <= 1e-14
        assert np.max(np.abs(C @ C.T - Cref @ Cref.T), initial=0.0) <= 1e-14
        assert np.max(np.abs(C.T @ Y), initial=0.0) <= 1e-14 * np.max(np.abs(Y))


@pytest.mark.parametrize(
    "Y",
    [
        np.array([[1.0, 2.0], [0.5, 1.0], [-1.0, -2.0]]),  # parallel columns
        np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0]]),  # a zero column
        np.zeros((3, 1)),
    ],
)
def test_span_projector_rank_deficient_raises(Y):
    with pytest.raises(RankDeficientInputsError, match=r"deficient at q=\[0\.0, 1\.0, 2\.0\]"):
        _span_projector(Y, np.arange(3.0))


def test_fully_actuated_all_directions():
    sys = make("three-link", actuators=(1, 2, 3))
    q = np.array([0.3, -0.8, 0.5])
    sol = find_decoupling_fields(sys, q)
    assert sol.all_directions
    report, cands = kinematic_controllability(sys, q)
    assert report.verdict and report.rank == 3 and report.depth == 1
    assert max(report.residuals) < 1e-9


def test_planar_com_forces_all_decoupling():
    # both body-frame COM forces have vanishing products: B = 0
    sys = make("planar-body", actuators=(1, 2))
    q = np.array([1.0, -0.5, 0.7])
    sol = find_decoupling_fields(sys, q)
    assert sol.all_directions
    V = VectorField(eval=lambda qq: sys.at(qq).Y @ np.array([0.6, -0.8]))
    assert decoupling_residual(sys, V, q) < 1e-8


def test_blimp_pure_inputs_decouple():
    # <Y1:Y3> is the only product leaking out of the span, so the
    # decoupling directions are exactly the two pure inputs
    sys = make("blimp")
    q = np.array([0.2, 0.1, -0.4])
    sol = find_decoupling_fields(sys, q)
    assert not sol.all_directions
    assert len(sol.directions) == 2
    got = sorted(tuple(np.round(np.abs(h), 9)) for h in sol.directions)
    assert got == [(0.0, 1.0), (1.0, 0.0)]
    for h in sol.directions:
        V = VectorField(eval=lambda qq, _h=h: sys.at(qq).Y @ _h)
        assert decoupling_residual(sys, V, q) < 1e-8
    mixed = VectorField(eval=lambda qq: sys.at(qq).Y @ np.array([1.0, 1.0]))
    assert decoupling_residual(sys, mixed, q) > 1e-3


def test_three_link_roots_annihilate_forms():
    sys = make("three-link")  # default torques (1, 2)
    q = np.array([0.4, 0.9, -1.3])
    B, Y = quadratic_forms(sys, q)
    assert B.shape == (1, 2, 2)
    assert np.array_equal(Y, sys.at(q).Y)
    assert_allclose(B[0], B[0].T, atol=1e-12)
    sol = find_decoupling_fields(sys, q)
    assert len(sol.directions) >= 1
    scale = np.max(np.abs(B))
    for h in sol.directions:
        assert abs(h @ B[0] @ h) < 1e-10 * scale
        assert abs(np.linalg.norm(h) - 1.0) < 1e-12
        V = VectorField(eval=lambda qq, _h=h: sys.at(qq).Y @ _h)
        assert decoupling_residual(sys, V, q) < 1e-8


def test_find_decoupling_deterministic():
    sys = make("three-link")
    q = np.array([0.4, 0.9, -1.3])
    a = find_decoupling_fields(sys, q)
    b = find_decoupling_fields(sys, q)
    assert len(a.directions) == len(b.directions)
    for x, y in zip(a.directions, b.directions):
        assert_allclose(x, y, atol=0)


def synthetic_system(*forms):
    """M = I_n, Y_a = e_a + sum_l Q_la(q) e_{m+l} with linear Q_la(q) =
    B_l[a] . q[:m] / 2, so the complement forms at q = 0 are exactly the
    given (m, m) forms B_l (up to sign); n = m + the number of forms."""
    m = forms[0].shape[0]
    n = m + len(forms)

    def cov(a):
        def F(q, _a=a):
            e = np.zeros(n)
            e[_a] = 1.0
            for l, B in enumerate(forms):
                e[m + l] = 0.5 * float(B[_a] @ q[:m])
            return e

        return F

    return MechanicalSystem(
        n=n,
        inertia=lambda q: np.eye(n),
        input_covectors=[cov(a) for a in range(m)],
        dinertia=lambda q: np.zeros((n, n, n)),
    )


def test_general_m_root_finding_designed_roots():
    # build two quadratic forms vanishing on two known directions, then
    # check the exact m = 3 solve recovers both
    rng = np.random.default_rng(40)
    h_star = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    h_dagger = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)

    def constrained_form():
        # project a random symmetric matrix onto {B : h*^T B h* = hd^T B hd = 0}
        A = rng.standard_normal((3, 3))
        B = 0.5 * (A + A.T)
        P1 = np.outer(h_star, h_star)
        P2 = np.outer(h_dagger, h_dagger)
        # Gram-Schmidt on the two rank-one constraints
        P1 /= np.linalg.norm(P1)
        P2 = P2 - np.sum(P2 * P1) * P1
        P2 /= np.linalg.norm(P2)
        B = B - np.sum(B * P1) * P1 - np.sum(B * P2) * P2
        return B

    B1, B2 = constrained_form(), constrained_form()
    assert abs(h_star @ B1 @ h_star) < 1e-12 and abs(h_dagger @ B2 @ h_dagger) < 1e-12
    sys = synthetic_system(B1, B2)
    sol = find_decoupling_fields(sys, np.zeros(5))
    assert not sol.all_directions
    found = np.array(sol.directions)
    for target in (h_star, h_dagger):
        align = np.max(np.abs(found @ target)) if found.size else 0.0
        assert align > 1.0 - 1e-8
    for h in sol.directions:
        V = VectorField(eval=lambda qq, _h=h: sys.at(qq).Y @ _h)
        assert decoupling_residual(sys, V, np.zeros(5)) < 1e-8


def product_form(a, b):
    """The form 2 h_a h_b."""
    E = np.zeros((3, 3))
    E[a, b] = E[b, a] = 1.0
    return E


XY, XZ, YZ = product_form(0, 1), product_form(0, 2), product_form(1, 2)
# rotating the forms to R^T B R moves their roots h to R^T h
ROTATION = np.linalg.qr(np.random.default_rng(23).standard_normal((3, 3)))[0]


def rotated_system(forms):
    return synthetic_system(*(ROTATION.T @ np.asarray(B, dtype=float) @ ROTATION for B in forms))


@pytest.mark.parametrize(
    "forms, roots",
    [
        ([np.diag([1.0, 2.0, 3.0])], []),  # one definite form: no real point
        ([np.diag([1.0, 2.0, 0.0])], [[0, 0, 1]]),  # rank-2 semidefinite: its null direction
        ([np.diag([1.0, 2.0, 3.0]), np.diag([2.0, 4.0, 6.0])], []),  # a dependent pair
        # a generic pencil (E nonsingular, three distinct mu): four roots
        ([np.diag([1.0, 0.0, -1.0]), np.diag([1.0, 1.0, -2.0])],
         [[1, 1, 1], [1, -1, 1], [-1, 1, 1], [1, 1, -1]]),
        # the same roots from a second form 1e7 times smaller, and nearly the first
        ([np.diag([1.0, 0.0, -1.0]), 1e-7 * np.diag([1.0, 1e-3, -1.001])],
         [[1, 1, 1], [1, -1, 1], [-1, 1, 1], [1, 1, -1]]),
        # a third form keeps the two of those four roots that it annihilates
        ([np.diag([1.0, 0.0, -1.0]), np.diag([1.0, 1.0, -2.0]), XZ - YZ],
         [[1, 1, 1], [1, 1, -1]]),
        ([np.diag([1.0, 1.0, -1.0]), XY], [[0, 1, 1], [0, 1, -1], [1, 0, 1], [1, 0, -1]]),  # singular E
        ([np.diag([1.0, -1.0, 0.0]), XY], [[0, 0, 1]]),  # det(B1 - mu E) = 0 for every mu
        # mu = 1 twice, with the rank-1 member diag(0, -1, 0): two tangent roots
        ([np.diag([1.0, 1.0, -1.0]), np.diag([1.0, 2.0, -1.0])], [[1, 0, 1], [1, 0, -1]]),
        # a rank-1 E: the member D = E is the line h1 = 0 twice
        ([np.diag([0.0, 1.0, -1.0]), np.diag([1.0, 0.0, 0.0])], [[0, 1, 1], [0, 1, -1]]),
    ],
)
def test_three_input_roots_are_exact(forms, roots):
    sol = find_decoupling_fields(rotated_system(forms), np.zeros(3 + len(forms)))
    assert not sol.all_directions and len(sol.directions) == len(roots)
    for root in roots:
        h = ROTATION.T @ root / np.linalg.norm(root)
        assert max(abs(d @ h) for d in sol.directions) > 1.0 - 1e-12


def forms_through(roots):
    """The two orthonormal symmetric forms that vanish on four given directions."""
    rows = [[h[0] ** 2, h[1] ** 2, h[2] ** 2, 2 * h[0] * h[1], 2 * h[0] * h[2], 2 * h[1] * h[2]]
            for h in roots]
    return [np.array([[x[0], x[3], x[4]], [x[3], x[1], x[5]], [x[4], x[5], x[2]]])
            for x in np.linalg.svd(rows)[2][4:]]


def test_three_input_roots_survive_an_ill_conditioned_pencil():
    # the second form moved to within 10^-7.5 to 10^-9.5 of a singular member of the
    # pencil keeps all four designed roots (a singular member from E^-1 B1 instead of
    # the generalized eigenvalues lost roots in 10 of these 200 pairs)
    rng = np.random.default_rng(2302)
    for _ in range(200):
        roots = rng.standard_normal((4, 3))
        B1, E = forms_through(roots / np.linalg.norm(roots, axis=1)[:, None])
        mu = np.linalg.eigvals(np.linalg.solve(B1, E))
        E = E - mu[np.argmin(abs(mu.imag))].real * (1.0 - 10.0 ** -rng.uniform(7.5, 9.5)) * B1
        assert len(kinematic._conic_directions(np.array([B1, E]), np.zeros(3))) == 4


@pytest.mark.parametrize(
    "forms, shape",
    [
        ([np.diag([1.0, 1.0, -1.0])], "curve"),  # one indefinite nonsingular form
        ([np.diag([1.0, 1.0, -1.0]), np.diag([2.0, 2.0, -2.0])], "curve"),  # a dependent pair
        ([np.diag([1.0, 0.0, 0.0])], "line"),  # rank 1: the plane h1 = 0, twice
        ([np.diag([1.0, -2.0, 0.0])], "line"),  # rank 2 indefinite: two planes
        ([XY, XZ], "line"),  # the plane h1 = 0 and the point e1
    ],
)
def test_three_input_continuum_is_refused(forms, shape):
    with pytest.raises(DecouplingSetError, match=f"hold a {shape}"):
        find_decoupling_fields(rotated_system(forms), np.zeros(3 + len(forms)))


def test_four_inputs_are_refused_unless_every_form_vanishes():
    with pytest.raises(DecouplingSetError, match="no exact solve for m = 4"):
        find_decoupling_fields(synthetic_system(np.diag([1.0, 2.0, -1.0, 0.5])), np.zeros(5))
    assert find_decoupling_fields(synthetic_system(np.zeros((4, 4))), np.zeros(5)).all_directions


def test_three_input_controllability_uses_the_exact_directions(monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("the decoupling solve drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    sys = rotated_system([np.diag([1.0, 0.0, -1.0]), np.diag([1.0, 1.0, -2.0])])
    q = np.zeros(5)
    sol = find_decoupling_fields(sys, q)
    report, cands = kinematic_controllability(sys, q)
    assert len(sol.directions) == len(cands) == 4
    for h, cand in zip(sol.directions, cands):
        assert np.array_equal(cand.field(q), sol.fields @ h)
    assert (report.rank, report.depth) == (3, 1) and max(report.residuals) < 1e-12


def symmetric_forms():
    entry = st.floats(-1.0, 1.0)
    form = st.lists(entry, min_size=6, max_size=6).map(
        lambda e: np.array([[e[0], e[1], e[2]], [e[1], e[3], e[4]], [e[2], e[4], e[5]]])
    )
    return st.lists(form, min_size=1, max_size=3).map(np.array)


def test_three_input_directions_keep_a_root_of_a_nearly_rank_one_point_member():
    # a derandomized example of the property test below: e1 annihilates both forms
    a, b = -0.7502, -0.6255
    B1 = np.array([[0.0, a, b], [a, 1.0, 0.0], [b, 0.0, 1.19e-7]])
    B2 = np.array([[0.0, a, b], [a, 0.0, 0.0], [b, 0.0, 0.0]])
    e1 = np.eye(3)[0]
    assert e1 @ B1 @ e1 == 0.0 and e1 @ B2 @ e1 == 0.0
    got = kinematic._conic_directions(np.array([B1, B2]), np.zeros(3))
    assert any(abs(abs(h @ e1) - 1.0) < 1e-8 for h in got)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(symmetric_forms())
# a pencil whose one real singular member comes at scale 3e-77
@example(np.array([np.diag([0.0, 1.0, -1.0]), np.diag([3.2e-77, 0.0, 0.0]) + YZ]))
def test_three_input_directions_are_roots_or_refused(B):
    # at most four (Bezout), unit, sign-canonical, roots of every live form and
    # pairwise distinct; or the typed refusal
    try:
        got = kinematic._conic_directions(B, np.zeros(3))
    except DecouplingSetError:
        return
    scale = np.max(np.abs(B))
    if got is None:
        assert scale <= kinematic.ZERO_TOL
        return
    assert len(got) <= 4
    for i, h in enumerate(got):
        assert abs(np.linalg.norm(h) - 1.0) < 1e-12 and h[np.argmax(np.abs(h))] > 0.0
        for F in B:
            assert np.max(np.abs(F)) <= kinematic.ZERO_TOL * scale or (
                abs(h @ F @ h) <= kinematic.ROOT_TOL * scale
            )
        for u in got[:i]:
            assert abs(h @ u) <= 1.0 - 0.5 * kinematic.ANGLE_TOL**2


def former_two_input_solve(B):
    """The former m = 2 closed form on numpy arrays, kept as the oracle: the
    directions solving the forms B, or None when B is identically zero."""
    scale = float(np.max(np.abs(B)))
    if scale <= kinematic.ZERO_TOL:
        return None
    live = [Bl for Bl in B if np.max(np.abs(Bl)) > kinematic.ZERO_TOL * scale]

    def canonical(h):
        h = h / np.linalg.norm(h)
        k = int(np.argmax(np.abs(h)))
        return -h if h[k] < 0 else h

    cands = []
    Bl = live[0]
    c, b, a = Bl[0, 0], 2.0 * Bl[0, 1], Bl[1, 1]
    if abs(a) <= kinematic.ZERO_TOL * scale:
        if abs(b) > kinematic.ZERO_TOL * scale:
            cands.append(np.array([1.0, -c / b]))
        cands.append(np.array([0.0, 1.0]))
    else:
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            sq = np.sqrt(disc)
            qq = -0.5 * (b + (np.copysign(sq, b) if b != 0.0 else sq))
            cands.append(np.array([1.0, qq / a]))
            if qq != 0.0:
                cands.append(np.array([1.0, c / qq]))
    sols = [
        h
        for h in map(canonical, cands)
        if all(abs(h @ Bl @ h) <= kinematic.ROOT_TOL * scale for Bl in live)
    ]
    unique = []
    for h in sols:
        if not any(abs(h @ u) > 1.0 - 0.5 * kinematic.ANGLE_TOL**2 for u in unique):
            unique.append(h)
    unique.sort(key=lambda h: tuple(np.round(h, 9)))
    return unique


def two_input_forms():
    rng = np.random.default_rng(41)
    arm = make("three-link")
    yield from (quadratic_forms(arm, q)[0] for q in rng.uniform(-np.pi, np.pi, (200, 3)))
    for acts in ((1, 3), (2, 3)):
        arm = make("three-link", acts, gravity=9.81)
        yield from (quadratic_forms(arm, q)[0] for q in rng.uniform(-np.pi, np.pi, (20, 3)))
    blimp = make("blimp")  # a ~ 0: the root h1 = 0 and the root of the linear term
    for q in rng.uniform(-np.pi, np.pi, (5, 3)):
        B = quadratic_forms(blimp, q)[0]
        assert abs(B[0, 1, 1]) <= kinematic.ZERO_TOL * np.max(np.abs(B))
        yield B
    yield np.array([[[1.0, 0.2], [0.2, 0.5]]])  # positive definite: no real root
    yield np.zeros((1, 2, 2))


def test_two_input_solve_matches_former_closed_form():
    counts = set()
    for B in two_input_forms():
        got = kinematic._two_input_directions(B.tolist())
        want = former_two_input_solve(B)
        if want is None:
            assert got is None
            continue
        counts.add(len(want))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert isinstance(g, np.ndarray) and g.shape == (2,)
            assert np.max(np.abs(g - w)) <= 1e-15  # same order and sign
    assert counts == {0, 2}


def test_no_real_root_is_an_empty_answer():
    sys = synthetic_system(np.array([[1.0, 0.2], [0.2, 0.5]]))
    sol = find_decoupling_fields(sys, np.zeros(3))
    assert sol.directions == [] and not sol.all_directions
    assert_allclose(sol.fields, np.eye(3)[:, :2], atol=0)


def test_candidate_branch_continuity():
    sys = make("three-link")
    q0 = np.array([0.4, 0.9, -1.3])
    h0 = find_decoupling_fields(sys, q0).directions[0]
    cand = candidate_from_direction(sys, q0, h0)

    def direction(q):  # h with V(q) = Y(q) h
        return np.linalg.lstsq(sys.at(q).Y, cand.field(q), rcond=None)[0]

    prev = direction(q0)
    for step in np.linspace(0.0, 0.3, 31)[1:]:
        h = direction(q0 + step * np.array([1.0, -0.5, 0.2]))
        assert h @ prev > 0.9  # no jumps, no sign flips
        prev = h


@pytest.mark.parametrize("h0", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], [1.0, 0.0, 0.0]])
def test_candidate_refuses_a_bad_direction(h0):
    with pytest.raises(ValueError, match="h0 must be a finite, nonzero vector of length m=2"):
        candidate_from_direction(make("three-link"), np.array([0.4, 0.9, -1.3]), h0)


# -- LARC ------------------------------------------------------------------------


def test_larc_commuting_fields_deficient():
    fields = [constant_field([1.0, 0.0, 0.0]), constant_field([0.0, 1.0, 0.0])]
    report = larc_rank(fields, np.zeros(3))
    assert report.rank == 2 and report.depth == 1 and not report.verdict


def test_larc_heading_pair_fills_at_depth_two():
    # planar heading field plus turning: the bracket supplies the lateral motion
    drive = VectorField(
        eval=lambda q: np.array([np.cos(q[2]), np.sin(q[2]), 0.0]),
        jacobian=lambda q: np.array(
            [[0.0, 0.0, -np.sin(q[2])], [0.0, 0.0, np.cos(q[2])], [0.0, 0.0, 0.0]]
        ),
    )
    turn = constant_field([0.0, 0.0, 1.0])
    report = larc_rank([drive, turn], np.array([0.0, 0.0, 0.4]))
    assert report.verdict and report.rank == 3 and report.depth == 2
    swapped = larc_rank([turn, drive], np.array([0.0, 0.0, 0.4]))
    assert swapped.rank == 3 and swapped.depth == 2


def test_larc_depth_validation_and_report_dict():
    with pytest.raises(ValueError):
        larc_rank([constant_field([1.0, 0.0])], np.zeros(2), max_depth=0)
    # pvtol with one input: one field whose self-bracket is zero, so rank 1; a tol
    # outside (0, 1) read rank 2 here (tol -1) and rank 0 when fully actuated (tol 2)
    pvtol, q = make("pvtol"), np.zeros(3)
    fields = [make("pvtol", actuators=(1,)).input_field(0)]
    assert larc_rank(fields, q).rank == 1
    for tol in (-1.0, 0.0, 1.0, 2.0):
        with pytest.raises(ValueError, match="tol"):
            larc_rank(fields, q, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            kinematic_controllability(pvtol, q, tol=tol)
    # each bracket level costs about 13x the one before, so the depth is bounded
    assert larc_rank(fields, q, max_depth=MAX_DEPTH).rank == 1
    for depth in (MAX_DEPTH + 1, 10**9):
        with pytest.raises(ValueError, match=f"max_depth must be in 1..{MAX_DEPTH}"):
            larc_rank(fields, q, max_depth=depth)
        with pytest.raises(ValueError, match="max_depth"):
            kinematic_controllability(pvtol, q, max_depth=depth)
    report = larc_rank([constant_field([1.0, 0.0])], np.zeros(2))
    d = dataclasses.asdict(report)
    assert set(d) == {"rank", "depth", "verdict", "residuals"}
    assert d["rank"] == 1 and d["verdict"] is False


@pytest.mark.parametrize(
    "name, actuators", [("planar-body", (4,)), ("three-link", (1,)), ("three-link", (3,))]
)
def test_no_decoupling_field_reports_rank_zero(name, actuators):
    # m = 1 with a live form: the one direction is no root, so no field is found
    sys = make(name, actuators=actuators)
    q = np.array([0.3, -0.2, 0.5])
    sol = find_decoupling_fields(sys, q)
    assert sol.directions == [] and not sol.all_directions
    report, cands = kinematic_controllability(sys, q, max_depth=3)
    assert cands == []
    assert (report.rank, report.depth, report.verdict, report.residuals) == (0, 1, False, [])
    assert larc_rank([], q) == larc_rank([], q, max_depth=3) == report


def test_larc_stops_at_full_rank(monkeypatch):
    # three-link (1, 2) reaches rank 3 at depth 2: deeper searches give the same
    # report from the same 77 decoupling solves (917 at depth 3, 12789 at depth 4
    # when the search ran on past full rank)
    sys, q = make("three-link"), np.array([0.4, 0.9, -1.3])
    solve, calls = kinematic.find_decoupling_fields, []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(kinematic, "find_decoupling_fields", counted)
    reports = {}
    for depth in (2, 3, 4):
        calls.clear()
        reports[depth], _ = kinematic_controllability(sys, q, max_depth=depth)
        assert len(calls) <= 77
    assert (reports[2].rank, reports[2].depth, reports[2].verdict) == (3, 2, True)
    assert reports[2] == reports[3] == reports[4]


def test_pencil_eigvals_equal_scipy_bit_for_bit():
    # the direct dggev path of _conic_directions against scipy.linalg.eigvals, on
    # seeded symmetric 3 x 3 pairs with rank-1, singular and singular-pencil members
    rng = np.random.default_rng(27)
    for i in range(400):
        A, B = (X + X.T for X in rng.standard_normal((2, 3, 3)))
        if i % 5 == 1:  # a rank-1 member
            v = rng.standard_normal(3)
            A = np.outer(v, v)
        elif i % 5 == 2:  # a singular member
            B[:, 2] = B[2, :] = 0.0
        elif i % 5 == 3:  # a singular pencil: det(beta A - alpha B) = 0 for all (alpha, beta)
            A[:, 0] = A[0, :] = B[:, 0] = B[0, :] = 0.0
        elif i % 5 == 4:  # proportional forms
            A = -2.0 * B
        want = scipy.linalg.eigvals(A, B, homogeneous_eigvals=True)
        got = kinematic._pencil_eigvals(A, B)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="infs or NaNs"):
            kinematic._pencil_eigvals(np.full((3, 3), bad), np.eye(3))


# -- plans -------------------------------------------------------------------------


def two_candidates(sys, q0):
    sol = find_decoupling_fields(sys, q0)
    assert len(sol.directions) >= 2
    return [candidate_from_direction(sys, q0, h) for h in sol.directions[:2]]


def test_candidate_field_evaluates_inertia_once_per_point():
    sys = make("three-link")
    calls = []

    def counting_inertia(q):
        calls.append(q)
        return sys.inertia(q)

    counted = dataclasses.replace(sys, inertia=counting_inertia)
    q0 = np.array([0.4, 0.9, -1.3])
    cand = two_candidates(counted, q0)[0]
    calls.clear()
    v = cand.field(q0 + 0.01)
    assert len(calls) == 1  # the decoupling solve's fields are reused
    sol = find_decoupling_fields(sys, q0 + 0.01)  # v is Y times a signed solved direction
    assert any(np.array_equal(v, s * (sol.fields @ h)) for h in sol.directions for s in (1, -1))


def test_plan_single_segment_matches_kinematic_ode():
    sys = make("three-link")
    q0 = np.array([0.4, 0.9, -1.3])
    cand = two_candidates(sys, q0)[0]
    sc = TimeScaling.cubic(2.0)
    traj = kinematic_plan(
        sys, [PlanSegment(candidate=cand, sign=1.0, scaling=sc)], q0, IntegratorConfig(dt=1e-3)
    )
    # independent Runge-Kutta-Fehlberg integration of qdot = sdot V(q)
    ref_cand = two_candidates(sys, q0)[0]
    sol = solve_ivp(
        lambda t, q: sc.sdot(t) * ref_cand.field(q),
        (0.0, 2.0),
        q0,
        rtol=1e-11,
        atol=1e-12,
    )
    assert np.linalg.norm(traj.qs[-1] - sol.y[:, -1]) < 1e-6
    assert traj.n_samples == 2001


def test_plan_rest_to_rest_junctions():
    sys = make("three-link")
    q0 = np.array([0.4, 0.9, -1.3])
    c1, c2 = two_candidates(sys, q0)
    segs = [
        PlanSegment(candidate=c1, sign=1.0, scaling=TimeScaling.cubic(1.0)),
        PlanSegment(candidate=c2, sign=-1.0, scaling=TimeScaling.trapezoidal(1.0)),
    ]
    # the sddot jump at the trapezoid corners makes the central-difference
    # validation O(dt) at two samples (~1.6e-5 here); a branch-tracking bug
    # would show up as ~1e-1, so this tolerance still bites
    traj = kinematic_plan(sys, segs, q0, IntegratorConfig(dt=2.5e-4), residual_tol=5e-5)
    assert traj.n_samples == 8001  # two 1 s segments at dt 2.5e-4
    k = 4000  # junction sample
    assert np.linalg.norm(traj.qds[0]) < 1e-12
    assert np.linalg.norm(traj.qds[k]) < 1e-10
    assert np.linalg.norm(traj.qds[-1]) < 1e-10
    assert not np.allclose(traj.qs[-1], q0)  # the plan actually moves


def test_plan_validates_span_residual():
    # a deliberately non-decoupling field: mixing the blimp-style inputs
    # drifts sideways, which the chosen actuators cannot realize
    sys = make("planar-body", actuators=(1, 3))
    bad = DecouplingCandidate(
        field=VectorField(eval=lambda q: sys.at(q).Y @ (np.array([1.0, 1.0]) / np.sqrt(2)))
    )
    seg = PlanSegment(candidate=bad, sign=1.0, scaling=TimeScaling.cubic(1.0))
    with pytest.raises(ResidualViolationError) as ei:
        kinematic_plan(sys, [seg], np.zeros(3), IntegratorConfig(dt=1e-3))
    assert ei.value.residual > 1e-3
    assert str(ei.value).startswith("segment 0: reconstruction residual ")


def test_plan_needs_a_segment():
    with pytest.raises(ValueError, match="segments must hold at least one"):
        kinematic_plan(make("three-link"), [], np.zeros(3), IntegratorConfig(dt=1e-3))


def test_plan_reconstructed_inputs_recorded():
    sys = make("three-link")
    q0 = np.array([0.4, 0.9, -1.3])
    cand = two_candidates(sys, q0)[0]
    traj = kinematic_plan(
        sys,
        [PlanSegment(candidate=cand, sign=1.0, scaling=TimeScaling.cubic(1.0))],
        q0,
        IntegratorConfig(dt=2.5e-4),
    )
    assert traj.us.shape == (4001, 2)
    assert np.max(np.abs(traj.us)) > 1e-4  # nontrivial torques are needed


def test_plan_dt_must_divide_segment():
    sys = make("three-link")
    q0 = np.array([0.4, 0.9, -1.3])
    cand = two_candidates(sys, q0)[0]
    seg = PlanSegment(candidate=cand, sign=1.0, scaling=TimeScaling.cubic(1.0))
    with pytest.raises(ValueError, match="divide"):
        kinematic_plan(sys, [seg], q0, IntegratorConfig(dt=3e-4))


def test_vanished_branch_is_typed_error(monkeypatch):
    sys = make("three-link")
    q0 = np.array([0.4, 0.9, -1.3])
    h0 = find_decoupling_fields(sys, q0).directions[0]
    real = kinematic.find_decoupling_fields
    calls = []

    def directions_only_once(sys, q, **kwargs):
        sol = real(sys, q, **kwargs)
        calls.append(q)
        return sol if len(calls) == 1 else dataclasses.replace(sol, directions=[])

    monkeypatch.setattr(kinematic, "find_decoupling_fields", directions_only_once)
    cand = candidate_from_direction(sys, q0, h0)
    cand.field(q0)
    q1 = q0 + 0.01
    with pytest.raises(BranchVanishedError) as ei:
        cand.field(q1)
    assert isinstance(ei.value, GeoctrlError)
    assert np.array_equal(ei.value.q, q1)


def constant_segment(v, T, calls, nan_after=None):
    """A plan segment along the constant field v that counts its calls and,
    after nan_after of them, returns NaN."""

    def ev(q):
        calls.append(q)
        if nan_after is not None and len(calls) > nan_after:
            return np.full(3, np.nan)
        return np.array(v, dtype=float)

    cand = DecouplingCandidate(field=VectorField(eval=ev))
    return PlanSegment(candidate=cand, sign=1.0, scaling=TimeScaling.cubic(T))


def test_path_ode_walks_each_field_once_per_rk4_stage():
    calls1, calls2 = [], []
    segs = [
        constant_segment([1.0, 0.0, 0.0], 1.0, calls1),
        constant_segment([0.0, 2.0, 0.0], 0.5, calls2),
    ]
    traj = kinematic_plan(
        make("planar-body"), segs, np.zeros(3), IntegratorConfig(dt=1e-2), validate=False
    )
    assert len(calls1) == len(calls2) == 4 * _PATH_STEPS + 1
    assert_allclose(traj.qs[-1], [1.0, 2.0, 0.0], rtol=0, atol=1e-12)


def test_path_ode_nan_field_reports_a_time_inside_its_segment():
    first, second = [], []
    segs = [
        constant_segment([1.0, 0.0, 0.0], 1.0, first),
        constant_segment([0.0, 1.0, 0.0], 2.0, second, nan_after=4 * (_PATH_STEPS // 2) + 2),
    ]
    with pytest.raises(NonFiniteStateError) as ei:
        kinematic_plan(
            make("planar-body"), segs, np.zeros(3), IntegratorConfig(dt=1e-2), validate=False
        )
    assert len(second) == 4 * (_PATH_STEPS // 2) + 3  # caught at the first NaN stage
    # inside the second segment, at its arc midpoint s = 1/2 (t = 1 of its 2 s)
    assert 1.0 < ei.value.t < 3.0
    assert abs(ei.value.t - 2.0) < 0.01


@pytest.mark.parametrize("validate", [True, False])
def test_path_ode_nan_field_at_the_last_arc_node_is_a_typed_error(validate):
    # the field at the last arc node is the driver's final call, checked like a stage
    calls = []
    seg = constant_segment([1.0, 0.0, 0.0], 1.5, calls, nan_after=4 * _PATH_STEPS)
    with pytest.raises(NonFiniteStateError) as ei:
        kinematic_plan(
            make("planar-body"), [seg], np.zeros(3), IntegratorConfig(dt=1e-2), validate=validate
        )
    assert len(calls) == 4 * _PATH_STEPS + 1
    assert ei.value.t == pytest.approx(1.5)  # the segment's end time


def test_three_link_segment_solves_once_per_rk4_stage(monkeypatch):
    sys = make("three-link", actuators=(1, 2))
    q0 = np.array([0.4, 0.9, -1.3])
    seg = PlanSegment(
        candidate=two_candidates(sys, q0)[0], sign=1.0, scaling=TimeScaling.cubic(2.0)
    )
    real = kinematic.find_decoupling_fields
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(kinematic, "find_decoupling_fields", counted)
    kinematic_plan(sys, [seg], q0, IntegratorConfig(dt=1e-3))  # validating solves nothing
    assert len(calls) == 4 * _PATH_STEPS + 1 == 4001


@pytest.mark.parametrize("degree", range(7))
def test_path_interpolant_reproduces_polynomials_to_degree_five(monkeypatch, degree):
    # eight arc steps: the two intervals at each end take the shifted stencil
    monkeypatch.setattr(kinematic, "_PATH_STEPS", 8)
    rng = np.random.default_rng(degree)
    coef = rng.standard_normal((degree + 1, 3))
    q0 = rng.standard_normal(3)
    s = np.linspace(0.0, 1.0, 97)  # 12 samples per interval and both ends
    q, v = kinematic._path_interpolant(q0, P.polyval(np.linspace(0.0, 1.0, 9), coef).T, s)
    err = max(
        np.max(np.abs(v - P.polyval(s, coef).T)),
        np.max(np.abs(q - q0 - P.polyval(s, P.polyint(coef)).T)),
    )
    if degree <= 5:
        assert err < 1e-13
    else:
        assert err > 1e-7


README_Q0 = np.array([0.4, 0.9, -1.3])


def readme_plan(branch, sign, dt, validate):
    """One cubic 2 s segment from the README q0 along a decoupling branch."""
    sys = make("three-link", actuators=(1, 2))
    h = find_decoupling_fields(sys, README_Q0).directions[branch]
    seg = PlanSegment(
        candidate=candidate_from_direction(sys, README_Q0, h),
        sign=sign,
        scaling=TimeScaling.cubic(2.0),
    )
    return sys, kinematic_plan(sys, [seg], README_Q0, IntegratorConfig(dt=dt), validate=validate)


@pytest.mark.parametrize(
    "branch, sign",
    [
        (0, 1.0),
        pytest.param(
            0, -1.0,
            marks=pytest.mark.xfail(
                strict=True,
                reason="passes within 6.4e-5 of the straight elbow; no fixed arc grid "
                "up to 6400 steps resolves it (residual 1.8e-4 to 1.4e-3)",
            ),
        ),
        (1, 1.0),  # straightens the elbow (q2 within 1.2e-5 of 0): sizes _PATH_STEPS
        (1, -1.0),
    ],
)
def test_plan_matches_a_finer_arc_grid(monkeypatch, branch, sign):
    def plan():
        sys, traj = readme_plan(branch, sign, 2e-4, validate=False)
        return traj.qs, reconstruct_inputs(sys, traj).max_residual

    qs, residual = plan()
    monkeypatch.setattr(kinematic, "_PATH_STEPS", 3200)
    fine_qs, fine_residual = plan()
    assert np.max(np.abs(qs - fine_qs)) <= 1e-9
    assert residual <= 1.1 * fine_residual


def test_plan_that_straightens_the_elbow_validates_at_fine_dt():
    # 3.9e-7 on the 1000-step grid; 1.2e-5 on a 400-step one
    sys, traj = readme_plan(1, 1.0, 1e-4, validate=True)
    assert np.min(np.abs(traj.qs[:, 1])) < 1e-4
    assert reconstruct_inputs(sys, traj).max_residual < 5e-7
