"""Christoffel symbols, connection operators, and state-space lifts."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geoctrl import (
    MechanicalSystem,
    VectorField,
    christoffel,
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
from geoctrl.geometry import input_span_data, pairwise_symmetric_products


def warped_plane(analytic=True):
    """M = diag(1, 1 + q1^2); nonzero symbols are G^1_22 = -q1 and
    G^2_12 = G^2_21 = q1 / (1 + q1^2)."""

    def dinertia(q):
        dM = np.zeros((2, 2, 2))
        dM[1, 1, 0] = 2.0 * q[0]
        return dM

    return MechanicalSystem(
        n=2,
        m=2,
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
        got = christoffel(sys, q).values
        assert_allclose(got, warped_gamma(q), atol=1e-13)


def test_christoffel_hand_values_fd():
    sys = warped_plane(analytic=False)
    assert sys.derivative_provider.startswith("central-finite-difference")
    q = np.array([1.0, 0.0])
    got = christoffel(sys, q).values
    assert abs(got[0, 1, 1] - (-1.0)) < 1e-5
    assert abs(got[1, 0, 1] - 0.5) < 1e-5
    assert_allclose(got, warped_gamma(q), atol=1e-5)


def test_christoffel_symmetric_lower_indices():
    sys = make("three-link", gravity=0.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        q = rng.uniform(-np.pi, np.pi, 3)
        G = christoffel(sys, q).values
        assert_allclose(G, G.transpose(0, 2, 1), atol=1e-14)


def test_christoffel_metric_compatibility():
    # dM_ij/dq^k = M_lj G^l_ik + M_il G^l_jk for the Levi-Civita connection
    sys = make("three-link", gravity=0.0)
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = rng.uniform(-np.pi, np.pi, 3)
        M = sys.mass(q)
        dM = sys.dmass(q)
        G = christoffel(sys, q).values
        recon = np.einsum("lj,lik->ijk", M, G) + np.einsum("il,ljk->ijk", M, G)
        assert_allclose(dM, recon, atol=1e-10)


def test_christoffel_bilinear_quadratic():
    sys = warped_plane()
    q = np.array([1.3, 0.2])
    G = christoffel(sys, q)
    u = np.array([0.5, -1.1])
    v = np.array([2.0, 0.7])
    assert_allclose(G.bilinear(u, v), np.einsum("ijk,j,k->i", G.values, u, v))
    assert_allclose(G.quadratic(u), G.bilinear(u, u))


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
    X = VectorField.constant([1.0, 2.0, 3.0])
    Y = VectorField.constant([-1.0, 0.5, 0.0])
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
        Y, JY, Gam = input_span_data(sys, q)
        S = pairwise_symmetric_products(Y, JY, Gam)
        for a in range(sys.m):
            for b in range(sys.m):
                want = symmetric_product(sys, sys.input_field(a), sys.input_field(b), q)
                assert_allclose(S[a, b], want, atol=1e-10)


def test_input_span_data_consistency():
    sys = make("three-link", gravity=0.0)
    q = np.array([0.2, 0.5, -0.9])
    Y, JY, Gam = input_span_data(sys, q)
    assert_allclose(Y, sys.input_fields_matrix(q), atol=1e-14)
    assert_allclose(Gam, christoffel(sys, q).values, atol=1e-14)
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
        m=1,
        inertia=lambda q: np.array([[1.0, 0.5], [0.0, 1.0]]),
        input_covectors=[lambda q: np.array([1.0, 0.0])],
    )
    with pytest.raises(ValueError, match="asymmetric"):
        sys.mass(np.zeros(2))


def test_singular_inertia_raises():
    sys = MechanicalSystem(
        n=2,
        m=1,
        inertia=lambda q: np.diag([1.0, 0.0]),
        input_covectors=[lambda q: np.array([1.0, 0.0])],
    )
    with pytest.raises(SingularInertiaError):
        sys.solve_mass(np.zeros(2), np.ones(2))


def diagonal_inertia_system(diag):
    return MechanicalSystem(
        n=len(diag),
        m=1,
        inertia=lambda q: np.diag(diag),
        input_covectors=[lambda q: np.eye(len(diag))[0]],
    )


def test_condition_guard_uses_lapack_estimate():
    q = np.zeros(2)
    with pytest.raises(SingularInertiaError) as ei:
        diagonal_inertia_system([1.0, 1e-13]).solve_mass(q, np.ones(2))
    assert ei.value.cond > 1e12
    # cond 1e11 is inside the default 1e12 guard
    x = diagonal_inertia_system([1.0, 1e-11]).solve_mass(q, np.ones(2))
    assert_allclose(x, [1.0, 1e11], rtol=1e-15)


def test_indefinite_inertia_raises():
    sys = MechanicalSystem(
        n=2,
        m=1,
        inertia=lambda q: np.array([[1.0, 2.0], [2.0, 1.0]]),
        input_covectors=[lambda q: np.array([1.0, 0.0])],
    )
    with pytest.raises(SingularInertiaError):
        sys.solve_mass(np.zeros(2), np.ones(2))


def test_solve_mass_propagates_nonfinite_rhs():
    sys = diagonal_inertia_system([2.0, 4.0])
    x = sys.solve_mass(np.zeros(2), np.array([np.nan, 1.0]))
    assert np.isnan(x[0])
    B = sys.solve_mass(np.zeros(2), np.array([[2.0, np.inf], [4.0, 8.0]]))
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
    assert_allclose(out[2:], -christoffel(sys, q).quadratic(qd), atol=1e-13)


def test_lift_structure():
    Y = VectorField.constant([2.0, -1.0])
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


def test_energy_accessors():
    sys = make("pvtol")  # gravity 9.81, potential m g y
    q = np.array([0.0, 2.0, 0.0])
    qd = np.array([1.0, 0.0, 0.0])
    assert_allclose(sys.kinetic_energy(q, qd), 0.5)
    assert_allclose(sys.total_energy(q, qd), 0.5 + 9.81 * 2.0)
