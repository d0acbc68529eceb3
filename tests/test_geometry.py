"""Christoffel symbols, connection operators, and state-space lifts."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geoctrl import (
    MechanicalSystem,
    VectorField,
    covariant_derivative,
    damping_lift,
    geodesic_spray,
    homogeneity_error,
    lie_bracket,
    lift,
    lifted_lie_bracket,
    make,
    symmetric_product,
)
from geoctrl.errors import SingularInertiaError
from geoctrl.numutil import central_jacobian


def constant_field(v):
    """The constant vector field q -> v, with its zero Jacobian."""
    v = np.asarray(v, dtype=float)
    return VectorField(eval=lambda q: v.copy(), jacobian=lambda q: np.zeros((v.size, v.size)))


def warped_plane(analytic=True):
    """M = diag(1, 1 + q1^2); nonzero symbols are G^1_22 = -q1 and
    G^2_12 = G^2_21 = q1 / (1 + q1^2)."""

    def dinertia(q):
        dM = np.zeros((2, 2, 2))
        dM[1, 1, 0] = 2.0 * q[0]
        return dM

    return MechanicalSystem(
        n=2,
        inertia=lambda q: np.diag([1.0, 1.0 + q[0] ** 2]),
        input_covectors=[lambda q: np.array([1.0, 0.0]), lambda q: np.array([0.0, 1.0])],
        dinertia=dinertia if analytic else None,
        dinput_covectors=[lambda q: np.zeros((2, 2))] * 2 if analytic else None,
    )


def warped_gamma(q):
    G = np.zeros((2, 2, 2))
    G[0, 1, 1] = -q[0]
    G[1, 0, 1] = G[1, 1, 0] = q[0] / (1.0 + q[0] ** 2)
    return G


def test_christoffel_hand_values_analytic():
    sys = warped_plane()
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = rng.uniform(-2.0, 2.0, 2)
        got = sys.at(q).Gamma
        assert_allclose(got, warped_gamma(q), atol=1e-13)


def test_christoffel_hand_values_fd():
    sys = warped_plane(analytic=False)
    q = np.array([1.0, 0.0])
    got = sys.at(q).Gamma
    assert abs(got[0, 1, 1] - (-1.0)) < 1e-5
    assert abs(got[1, 0, 1] - 0.5) < 1e-5
    assert_allclose(got, warped_gamma(q), atol=1e-5)


def test_christoffel_symmetric_lower_indices():
    sys = make("three-link", gravity=0.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        q = rng.uniform(-np.pi, np.pi, 3)
        G = sys.at(q).Gamma
        assert_allclose(G, G.transpose(0, 2, 1), atol=1e-14)


def test_christoffel_metric_compatibility():
    # dM_ij/dq^k = M_lj G^l_ik + M_il G^l_jk for the Levi-Civita connection
    sys = make("three-link", gravity=0.0)
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = rng.uniform(-np.pi, np.pi, 3)
        M = sys.mass(q)
        dM = sys.dmass(q)
        G = sys.at(q).Gamma
        recon = np.einsum("lj,lik->ijk", M, G) + np.einsum("il,ljk->ijk", M, G)
        assert_allclose(dM, recon, atol=1e-10)


def test_covariant_derivative_flat_is_directional():
    # zero Christoffel symbols: nabla_X Y = JY X
    sys = make("flat", actuators=(1, 2))
    A = np.array([[0.3, -1.2], [0.8, 0.1]])
    B = np.array([[1.0, 0.4], [-0.5, 2.0]])
    X = VectorField(eval=lambda q: A @ q, jacobian=lambda q: A)
    Y = VectorField(eval=lambda q: B @ q, jacobian=lambda q: B)
    q = np.array([0.6, -1.4])
    assert_allclose(covariant_derivative(sys, X, Y, q), B @ (A @ q), atol=1e-14)


def test_lie_bracket_linear_fields():
    A = np.array([[0.0, 1.0], [-2.0, 0.5]])
    B = np.array([[1.5, 0.0], [0.3, -1.0]])
    X = VectorField(eval=lambda q: A @ q, jacobian=lambda q: A)
    Y = VectorField(eval=lambda q: B @ q, jacobian=lambda q: B)
    q = np.array([0.9, 0.4])
    assert_allclose(lie_bracket(X, Y, q), (B @ A - A @ B) @ q, atol=1e-14)
    assert_allclose(lie_bracket(X, Y, q), -lie_bracket(Y, X, q), atol=1e-14)


def test_lie_bracket_constant_fields_commute():
    X = constant_field([1.0, 2.0, 3.0])
    Y = constant_field([-1.0, 0.5, 0.0])
    assert_allclose(lie_bracket(X, Y, np.zeros(3)), np.zeros(3))


def test_symmetric_product_symmetry():
    sys = make("three-link", gravity=0.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        q = rng.uniform(-1.5, 1.5, 3)
        Ya, Yb = sys.input_field(0), sys.input_field(1)
        assert_allclose(
            symmetric_product(sys, Ya, Yb, q),
            symmetric_product(sys, Yb, Ya, q),
            atol=1e-12,
        )


def test_symmetric_product_is_sum_of_covariant_derivatives():
    sys = make("three-link", gravity=0.0)
    q = np.array([0.4, -0.7, 1.1])
    Ya, Yb = sys.input_field(0), sys.input_field(1)
    want = covariant_derivative(sys, Ya, Yb, q) + covariant_derivative(sys, Yb, Ya, q)
    assert_allclose(symmetric_product(sys, Ya, Yb, q), want, atol=1e-12)


@pytest.mark.parametrize("model", ["three-link", "pvtol"])
def test_pairwise_products_match_pointwise(model):
    sys = make(model, gravity=0.0)
    rng = np.random.default_rng(4)
    for _ in range(3):
        q = rng.uniform(-1.0, 1.0, sys.n)
        S = sys.at(q).products
        for a in range(sys.m):
            for b in range(sys.m):
                want = symmetric_product(sys, sys.input_field(a), sys.input_field(b), q)
                assert_allclose(S[a, b], want, atol=1e-10)


def test_point_data_consistency():
    sys = make("three-link", gravity=0.0)
    q = np.array([0.2, 0.5, -0.9])
    pt = sys.at(q)
    Y, JY = pt.Y, pt.JY
    assert_allclose(Y, np.linalg.solve(sys.mass(q), sys.input_matrix(q)), atol=1e-14)
    for a in range(sys.m):
        assert_allclose(JY[a], sys.input_field(a).jacobian_at(q), atol=1e-14)


def test_input_field_jacobian_matches_fd():
    sys = make("three-link", gravity=0.0)
    q = np.array([0.3, -0.2, 0.8])
    for a in range(sys.m):
        Ya = sys.input_field(a)
        fd = VectorField(eval=Ya.eval)  # strip the analytic jacobian
        assert_allclose(Ya.jacobian_at(q), fd.jacobian_at(q), rtol=0, atol=1e-7)


def test_mass_rejects_asymmetric_inertia():
    sys = MechanicalSystem(
        n=2,
        inertia=lambda q: np.array([[1.0, 0.5], [0.0, 1.0]]),
        input_covectors=[lambda q: np.array([1.0, 0.0])],
    )
    with pytest.raises(ValueError, match="asymmetric"):
        sys.mass(np.zeros(2))


def test_singular_inertia_raises():
    sys = MechanicalSystem(
        n=2,
        inertia=lambda q: np.diag([1.0, 0.0]),
        input_covectors=[lambda q: np.array([1.0, 0.0])],
    )
    with pytest.raises(SingularInertiaError):
        sys.at(np.zeros(2)).solve(np.ones(2))


def diagonal_inertia_system(diag):
    return MechanicalSystem(
        n=len(diag),
        inertia=lambda q: np.diag(diag),
        input_covectors=[lambda q: np.eye(len(diag))[0]],
    )


def test_condition_guard_uses_lapack_estimate():
    q = np.zeros(2)
    with pytest.raises(SingularInertiaError) as ei:
        diagonal_inertia_system([1.0, 1e-13]).at(q).solve(np.ones(2))
    assert ei.value.cond > 1e12
    # cond 1e11 is inside the default 1e12 guard
    x = diagonal_inertia_system([1.0, 1e-11]).at(q).solve(np.ones(2))
    assert_allclose(x, [1.0, 1e11], rtol=1e-15)


LAPACK_ORDER_SCRIPT = """
import importlib, json, sys
order = ("geoctrl.kinematic", "scipy.linalg.lapack")
for name in order if sys.argv[1] == "geoctrl" else order[::-1]:
    importlib.import_module(name)
    if name == "geoctrl.kinematic" and sys.argv[1] == "geoctrl":
        assert "scipy.linalg" not in sys.modules
from scipy.linalg import lapack
from geoctrl import geometry, kinematic
routines = [(geometry, "dpotrf"), (geometry, "dpocon"), (geometry, "dpotrs"),
            (kinematic, "dgeqrf"), (kinematic, "dorgqr"), (kinematic, "dggev")]
print(json.dumps([getattr(owner, name) is getattr(lapack, name) for owner, name in routines]))
"""


@pytest.mark.parametrize("first", ["geoctrl", "scipy.linalg"])
def test_lapack_routines_are_scipys_in_either_import_order(first):
    # geometry loads scipy's compiled LAPACK module without scipy.linalg's package
    # init; imported before scipy.linalg or after it, the six routines geoctrl
    # calls are the very objects scipy.linalg.lapack exports
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", LAPACK_ORDER_SCRIPT, first],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        check=True,
    )
    assert json.loads(run.stdout.splitlines()[-1]) == [True] * 6


def test_indefinite_inertia_raises():
    sys = MechanicalSystem(
        n=2,
        inertia=lambda q: np.array([[1.0, 2.0], [2.0, 1.0]]),
        input_covectors=[lambda q: np.array([1.0, 0.0])],
    )
    with pytest.raises(SingularInertiaError):
        sys.at(np.zeros(2)).solve(np.ones(2))


def test_solve_mass_propagates_nonfinite_rhs():
    sys = diagonal_inertia_system([2.0, 4.0])
    x = sys.at(np.zeros(2)).solve(np.array([np.nan, 1.0]))
    assert np.isnan(x[0])
    B = sys.at(np.zeros(2)).solve(np.array([[2.0, np.inf], [4.0, 8.0]]))
    assert_allclose(B[:, 0], [1.0, 1.0])
    assert not np.isfinite(B[0, 1])


def test_geodesic_spray_structure():
    sys = warped_plane()
    Z = geodesic_spray(sys)
    assert Z.hclass == 1
    q = np.array([0.8, -0.1])
    qd = np.array([1.2, 0.7])
    out = Z(np.concatenate([q, qd]))
    assert_allclose(out[:2], qd)
    assert_allclose(out[2:], -np.einsum("ijk,j,k->i", sys.at(q).Gamma, qd, qd), atol=1e-13)


def test_lift_structure():
    Y = constant_field([2.0, -1.0])
    W = lift(Y)
    assert W.hclass == -1
    out = W(np.array([0.1, 0.2, 0.3, 0.4]))
    assert_allclose(out, [0.0, 0.0, 2.0, -1.0])


def test_damping_lift_class():
    sys = make("blimp")
    W = damping_lift(sys)
    assert W.hclass == 0
    x = np.array([0.1, -0.2, 0.3, 1.0, 2.0, 3.0])
    out = W(x)
    assert_allclose(out[:3], 0.0)
    assert_allclose(out[3:], sys.damping_matrix(x[:3]) @ x[3:])


def test_damping_lift_jacobian_matches_differences():
    W = damping_lift(make("blimp"))
    x = np.array([0.1, -0.2, 0.3, 1.0, 2.0, 3.0])
    assert_allclose(W.jacobian_at(x), central_jacobian(W.eval, x, 1e-6), rtol=0, atol=1e-9)


def _covector(q):
    return np.array([1.0, 0.0])


def _unit_mass(q):
    return np.eye(2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: MechanicalSystem(0, _unit_mass, [_covector]), ValueError, "n must be a positive"),
        (lambda: MechanicalSystem(2, _unit_mass, []), ValueError, "need 1 <= m <= n"),
        (lambda: MechanicalSystem(2, _unit_mass, [_covector] * 3), ValueError, "need 1 <= m <= n"),
        (lambda: MechanicalSystem(2, _unit_mass, [_covector], dinput_covectors=[]), ValueError,
         "dinput_covectors must have length m"),
        (lambda: MechanicalSystem(2, lambda q: np.eye(3), [_covector]).mass(np.zeros(2)),
         ValueError, r"inertia returned shape \(3, 3\), expected \(2, 2\)"),
        (lambda: make("flat").input_field(1), IndexError, "input index 1 out of range for m=1"),
        (lambda: make("flat").input_field(-1), IndexError, "out of range"),
        (lambda: homogeneity_error(VectorField(np.negative), np.zeros(2), np.ones(2), 2.0),
         ValueError, "no homogeneity class"),
    ],
)
def test_geometry_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_input_count_is_the_number_of_covectors():
    sys = MechanicalSystem(2, _unit_mass, [_covector, _covector])
    assert sys.m == 2
    assert dataclasses.replace(sys, input_covectors=[_covector]).m == 1
    with pytest.raises(TypeError):
        MechanicalSystem(2, _unit_mass, [_covector], m=1)


def test_homogeneity_classes_add_under_bracket():
    sys = make("three-link", gravity=0.0)
    Z = geodesic_spray(sys)
    Y0 = lift(sys.input_field(0))
    rng = np.random.default_rng(5)
    q = rng.uniform(-1.0, 1.0, 3)
    qd = rng.uniform(-1.0, 1.0, 3)
    assert homogeneity_error(Z, q, qd, 2.0) < 1e-12
    assert homogeneity_error(Y0, q, qd, 2.0) < 1e-12
    B1 = lifted_lie_bracket(Z, Y0)
    assert B1.hclass == 0
    assert homogeneity_error(B1, q, qd, 2.0) < 1e-8
    B2 = lifted_lie_bracket(Y0, B1)
    assert B2.hclass == -1
    assert homogeneity_error(B2, q, qd, 2.0) < 1e-8


def test_lifted_fields_are_vector_fields():
    sys = make("blimp")
    Z, W = geodesic_spray(sys), lift(sys.input_field(0))
    B = lifted_lie_bracket(Z, W)
    for F in (Z, W, damping_lift(sys), B):
        assert isinstance(F, VectorField)
    # a bracket has no analytic Jacobian: central differences with step 1e-6
    assert B.jacobian is None and B.h == 1e-6
    x = np.array([0.1, -0.2, 0.3, 1.0, 2.0, 3.0])
    assert np.array_equal(B.jacobian_at(x), central_jacobian(B.eval, x, 1e-6))
    # hclass comes last, so positional construction keeps its meaning
    V = VectorField(np.negative, None, 1e-3)
    assert V.h == 1e-3 and V.hclass is None


def test_lift_identity_point():
    # <Ya : Yb>^lift = [Yb^lift, [Z, Ya^lift]] at one pvtol state
    sys = make("pvtol", gravity=0.0)
    Z = geodesic_spray(sys)
    q = np.array([0.2, -0.5, 0.9])
    qd = np.array([0.4, 0.1, -0.7])
    x = np.concatenate([q, qd])
    Ya, Yb = sys.input_field(0), sys.input_field(1)
    got = lifted_lie_bracket(lift(Yb), lifted_lie_bracket(Z, lift(Ya)))(x)
    want = np.concatenate([np.zeros(3), symmetric_product(sys, Ya, Yb, q)])
    assert np.linalg.norm(got - want) < 1e-8


# -- the per-point kernel sys.at(q) -------------------------------------------


def random_polynomial_system(analytic=True, seed=7, n=4, m=2):
    """M(q) = I + B(q) B(q)^T with B(q) = B0 + sum_k q_k B_k (symmetric positive
    definite everywhere) and F_a(q) = c_a + D_a q + e_a |q|^2; the twin without
    analytic derivatives takes them by central differences."""
    rng = np.random.default_rng(seed)
    B = 0.5 * rng.standard_normal((n + 1, n, n))
    c, e = rng.standard_normal((2, m, n))
    D = rng.standard_normal((m, n, n))

    def Bq(q):
        return B[0] + np.tensordot(q, B[1:], axes=1)

    def dinertia(q):
        BBk = np.einsum("kij,lj->ilk", B[1:], Bq(q))  # B_k B^T as [i, l, k]
        return BBk + BBk.transpose(1, 0, 2)

    return MechanicalSystem(
        n=n,
        inertia=lambda q: np.eye(n) + Bq(q) @ Bq(q).T,
        input_covectors=[lambda q, a=a: c[a] + D[a] @ q + e[a] * (q @ q) for a in range(m)],
        dinertia=dinertia if analytic else None,
        dinput_covectors=(
            [lambda q, a=a: D[a] + 2.0 * np.outer(e[a], q) for a in range(m)] if analytic else None
        ),
    )


KERNEL_SYSTEMS = pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])


def kernel_points(seed=8, count=4):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (count, 4))


@KERNEL_SYSTEMS
def test_point_data_connection_identities(analytic):
    sys = random_polynomial_system(analytic)
    for q in kernel_points():
        pt = sys.at(q)
        M, G = sys.mass(q), pt.Gamma
        # metric compatibility: dM_ij/dq^k = M_lj G^l_ik + M_il G^l_jk
        recon = np.einsum("lj,lik->ijk", M, G) + np.einsum("il,ljk->ijk", M, G)
        assert_allclose(pt.dM, recon, atol=1e-9)
        assert np.array_equal(G, G.transpose(0, 2, 1))
        assert np.array_equal(pt.products, pt.products.transpose(1, 0, 2))
        fd = np.moveaxis(central_jacobian(lambda x: sys.at(x).Y, q, 1e-5), 1, 0)  # [a, i, r]
        assert_allclose(pt.JY, fd, rtol=0, atol=1e-7)
        for a in range(sys.m):
            for b in range(sys.m):
                want = symmetric_product(sys, sys.input_field(a), sys.input_field(b), q)
                assert_allclose(pt.products[a, b], want, atol=1e-10)


@KERNEL_SYSTEMS
def test_christoffel_and_input_jacobians_read_the_kernel(analytic):
    sys = random_polynomial_system(analytic)
    for q in kernel_points(9):
        pt = sys.at(q)
        for a in range(sys.m):
            assert np.array_equal(sys.input_field(a)(q), pt.Y[:, a])
            assert np.array_equal(sys.input_field(a).jacobian_at(q), pt.JY[a])


@pytest.mark.parametrize(
    "reads", [(), ("Y",), ("JY",), ("Gamma",), ("products",), ("products", "JY", "Gamma", "Y")]
)
def test_point_data_evaluates_the_model_once(reads):
    calls = {"inertia": 0, "dinertia": 0}

    def counted(name, fn):
        def wrapper(q):
            calls[name] += 1
            return fn(q)

        return wrapper

    sys = random_polynomial_system()
    sys = dataclasses.replace(
        sys, inertia=counted("inertia", sys.inertia), dinertia=counted("dinertia", sys.dinertia)
    )
    pt = sys.at(kernel_points()[0])
    for name in reads + reads:  # a second read computes nothing
        getattr(pt, name)
    needs_dM = not set(reads) <= {"Y"}  # Y and solve read the factor alone
    assert calls["inertia"] == 1
    assert calls["dinertia"] == (1 if needs_dM else 0)
    # the finite-difference twin takes dM from inertia on the first read that
    # needs it: two central_jacobian calls per coordinate
    calls["inertia"] = 0
    twin = random_polynomial_system(analytic=False)
    pt = dataclasses.replace(twin, inertia=counted("inertia", twin.inertia)).at(kernel_points()[0])
    assert calls["inertia"] == 1
    for name in reads + reads:  # a second read computes nothing
        getattr(pt, name)
    assert calls["inertia"] == 1 + (2 * twin.n if needs_dM else 0)


def test_at_returns_a_point_of_the_same_system_as_is():
    sys = random_polynomial_system()
    pt = sys.at(kernel_points()[0])
    assert sys.at(pt) is pt
    twin = dataclasses.replace(sys)  # another system: a fresh point at the same q
    other = twin.at(pt)
    assert other is not pt and other.sys is twin and np.array_equal(other.q, pt.q)
    assert np.array_equal(pt.F, sys.input_matrix(pt.q)) and np.array_equal(pt.Y, pt.solve(pt.F))


def former_products(pt):
    """The former products formula, kept as the oracle: P[a, b] = JY_b Y_a +
    Gamma(Y_a, Y_b), summed as P + P^T."""
    Y = pt.Y
    P = np.einsum("bir,ra->abi", pt.JY, Y) + np.einsum("ijk,ja,kb->abi", pt.Gamma, Y, Y)
    return P + P.transpose(1, 0, 2)


SHIPPED = [
    ("flat", (1, 2)),
    ("planar-body", (1, 2, 4)),
    ("blimp", (1, 3)),
    ("pvtol", (1, 2)),
    ("three-link", (1, 2)),
    ("three-link", (1, 2, 3)),
]


@pytest.mark.parametrize(
    "sys",
    [make(name, acts) for name, acts in SHIPPED]
    + [random_polynomial_system(), random_polynomial_system(analytic=False)],
    ids=[f"{name}{list(acts)}" for name, acts in SHIPPED] + ["polynomial", "polynomial-fd"],
)
def test_products_match_former_formula(sys):
    rng = np.random.default_rng(21)
    for q in rng.uniform(-2.0, 2.0, (25, sys.n)):
        pt = sys.at(q)
        P = pt.products
        assert pt._JY is None and pt._Gamma is None  # products read neither
        want = former_products(pt)
        assert np.max(np.abs(P - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        assert np.array_equal(P, P.transpose(1, 0, 2))


# -- a stack (B, n) of points: sys.at(Q) -----------------------------------------


STACKED = [
    make("flat", (1, 2)),
    make("planar-body", (1, 2, 4)),
    make("pvtol", (1, 2)),
    make("three-link", (1, 2)),
    make("three-link", (1, 2, 3)),
    random_polynomial_system(),
    random_polynomial_system(analytic=False),
]


@pytest.mark.parametrize(
    "sys", STACKED,
    ids=["flat", "planar-body", "pvtol", "three-link[1, 2]", "three-link[1, 2, 3]",
         "polynomial", "polynomial-fd"],
)
def test_stacked_point_equals_its_members_bit_for_bit(sys):
    Q = np.random.default_rng(22).uniform(-2.0, 2.0, (4, sys.n))
    stack, points = sys.at(Q), [sys.at(q) for q in Q]
    for name in ("F", "dF", "dM", "Y", "JY", "Gamma", "products"):
        got = getattr(stack, name)
        assert got.shape == (len(Q),) + getattr(points[0], name).shape, name
        for i, pt in enumerate(points):  # tobytes: the values, -0.0 included, not the layout
            assert got[i].tobytes() == getattr(pt, name).tobytes(), (name, i)
    b = np.random.default_rng(23).standard_normal((len(Q), sys.n, 2))
    x = stack.solve(b)
    for i, pt in enumerate(points):
        assert x[i].tobytes() == pt.solve(b[i]).tobytes()
        assert stack.solve(b[:, :, 0])[i].tobytes() == pt.solve(b[i, :, 0]).tobytes()


def test_stacked_point_names_the_member_it_refuses():
    sys = MechanicalSystem(
        n=2, inertia=lambda q: np.diag([1.0, q[0] ** 2]),
        input_covectors=[lambda q: np.array([1.0, 0.0])],
    )
    Q = np.array([[1.0, 0.5], [0.0, 0.25], [2.0, 0.0]])
    with pytest.raises(SingularInertiaError) as ei:
        sys.at(Q)
    assert ei.value.q.tolist() == [0.0, 0.25]
