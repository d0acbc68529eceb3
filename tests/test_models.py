"""Benchmark model library: derivatives, descriptors, hand-derived products."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geoctrl import ModelDescriptor, build, list_models, make, symmetric_product
from geoctrl.errors import ConfigError, UnknownModelError
from geoctrl.numutil import central_jacobian

ALL_MODELS = ["flat", "planar-body", "blimp", "pvtol", "three-link"]


def random_configs(n, count, seed, scale=np.pi):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(count, n))


def test_registry_contents():
    names = [e["name"] for e in list_models()]
    assert sorted(names) == sorted(ALL_MODELS)
    for e in list_models():
        assert e["dof"] >= len(e["default_actuators"])


def test_unknown_model_rejected():
    with pytest.raises(UnknownModelError):
        build(ModelDescriptor(name="hovercraft"))


@pytest.mark.parametrize(
    "desc",
    [
        ModelDescriptor("pvtol", parameters={"wingspan": 2.0}),
        ModelDescriptor("pvtol", parameters={"mass": -1.0}),
        ModelDescriptor("pvtol", parameters={"mass": 0.0}),
        ModelDescriptor("pvtol", parameters={"gravity": -9.81}),
        ModelDescriptor("three-link", actuators=(1, 4)),
        ModelDescriptor("three-link", actuators=(2, 2)),
        ModelDescriptor("flat", actuators=()),
        ModelDescriptor("blimp", actuators=(1, 2, 3, 4)),
    ],
)
def test_bad_descriptors_rejected(desc):
    with pytest.raises(ConfigError):
        build(desc)


@pytest.mark.parametrize(
    "actuators", [(1.9, 2.2), (1, 2.5), (True, 2), ("1", 2), (1, float("inf"))]
)
def test_actuators_that_are_not_whole_numbers_rejected(actuators):
    with pytest.raises(ConfigError, match="'actuators' must be whole numbers"):
        make("three-link", actuators)


@pytest.mark.parametrize("gravity", [True, "1.0"])
def test_parameters_that_are_not_numbers_rejected(gravity):
    # float() would read True as 1.0 and "1.0" as 1.0
    with pytest.raises(ConfigError, match="parameter 'gravity' must be a number"):
        make("pvtol", gravity=gravity)


@pytest.mark.parametrize(
    "name, parameter",
    [("pvtol", {"gravity": np.nan}), ("pvtol", {"mass": np.inf}), ("three-link", {"l1": np.nan})],
)
def test_parameters_that_are_not_finite_rejected(name, parameter):
    # NaN passes every range comparison, and an infinite mass only fails at sys.at(q)
    (key,) = parameter
    with pytest.raises(ConfigError, match=f"parameter '{key}' must be finite"):
        make(name, **parameter)


def test_whole_float_and_numpy_actuators_load():
    for actuators in [(1.0, 2.0), np.array([1, 2]), np.array([1.0, 2.0])]:
        acts = ModelDescriptor("three-link", actuators=tuple(actuators)).resolved()[2]
        assert acts == (1, 2) and all(type(a) is int for a in acts)


def test_zero_gravity_and_drag_allowed():
    assert build(ModelDescriptor("pvtol", parameters={"gravity": 0.0})).potential is None
    assert build(ModelDescriptor("blimp", parameters={"drag": 0.0})).damping is None


@pytest.mark.parametrize("name", ALL_MODELS)
def test_analytic_derivatives_match_fd(name):
    """The registered dinertia/dpotential/dinput jacobians against central
    differences of the base callables at 100 random configurations."""
    sys = make(name)
    for q in random_configs(sys.n, 100, seed=10):
        dM = sys.dmass(q)
        fd = central_jacobian(sys.inertia, q, 1e-5)
        assert np.max(np.abs(dM - fd)) <= 1e-6 * max(1.0, np.max(np.abs(dM)))
        if sys.potential is not None:
            gV = sys.grad_potential(q)
            fdV = central_jacobian(lambda x: np.array(sys.potential(x)), q, 1e-5)
            assert np.max(np.abs(gV - fdV)) <= 1e-6 * max(1.0, np.max(np.abs(gV)))
        for a in range(sys.m):
            dF = np.asarray(sys.dinput_covectors[a](q))
            fdF = central_jacobian(sys.input_covectors[a], q, 1e-5)
            assert np.max(np.abs(dF - fdF)) <= 1e-6


@pytest.mark.parametrize("name", ALL_MODELS)
def test_inertia_positive_definite(name):
    sys = make(name)
    for q in random_configs(sys.n, 25, seed=11):
        eigs = np.linalg.eigvalsh(sys.mass(q))
        assert eigs[0] > 0.0


def three_link_inertia_oracle(q, m, l):
    """M(q) assembled from raw link kinematics: COM positions differentiated
    by finite differences, plus the rod inertias on the angle rates."""
    I = m * l**2 / 12.0

    def com(i):
        def r(qq):
            th = np.cumsum(qq)
            p = np.zeros(2)
            for j in range(i):
                p = p + l[j] * np.array([np.cos(th[j]), np.sin(th[j])])
            return p + 0.5 * l[i] * np.array([np.cos(th[i]), np.sin(th[i])])

        return r

    M = np.zeros((3, 3))
    for i in range(3):
        Jv = central_jacobian(com(i), q, 1e-6)  # (2, 3)
        w = np.zeros(3)
        w[: i + 1] = 1.0
        M += m[i] * Jv.T @ Jv + I[i] * np.outer(w, w)
    return M


def test_three_link_inertia_vs_kinematics_oracle():
    params = {"m1": 1.3, "m2": 0.8, "m3": 0.5, "l1": 1.1, "l2": 0.9, "l3": 0.6}
    sys = make("three-link", **params)
    m = np.array([params["m1"], params["m2"], params["m3"]])
    l = np.array([params["l1"], params["l2"], params["l3"]])
    for q in random_configs(3, 20, seed=12):
        want = three_link_inertia_oracle(q, m, l)
        assert_allclose(sys.mass(q), want, rtol=0, atol=1e-8)


def einsum_three_link(m, l):
    """The three-link inertia and its derivative assembled from the link
    Jacobians with 4-operand einsums, as the model computed them before
    its closed form; kept as an oracle."""
    I = m * l**2 / 12.0
    A = np.zeros((3, 3))
    for i in range(3):
        A[i, :i] = l[:i]
        A[i, i] = 0.5 * l[i]
    L = np.tril(np.ones((3, 3)))
    Mw = sum(I[i] * np.outer(L[i], L[i]) for i in range(3))

    def jacobians(q):
        th = np.cumsum(q)
        c, s = np.cos(th), np.sin(th)
        return c, s, -(A * s) @ L, (A * c) @ L

    def inertia(q):
        _, _, Jvx, Jvy = jacobians(q)
        return np.einsum("i,ik,il->kl", m, Jvx, Jvx) + np.einsum("i,ik,il->kl", m, Jvy, Jvy) + Mw

    def dinertia(q):
        c, s, Jvx, Jvy = jacobians(q)
        dJvx = -np.einsum("ij,j,jr,jk->rik", A, c, L, L)
        dJvy = -np.einsum("ij,j,jr,jk->rik", A, s, L, L)
        D = np.einsum("i,rik,il->klr", m, dJvx, Jvx) + np.einsum("i,ik,ril->klr", m, Jvx, dJvx)
        D += np.einsum("i,rik,il->klr", m, dJvy, Jvy) + np.einsum("i,ik,ril->klr", m, Jvy, dJvy)
        return D

    return inertia, dinertia


THREE_LINK_PARAMS = {"m1": 1.3, "m2": 0.8, "m3": 0.5, "l1": 1.1, "l2": 0.9, "l3": 0.6}


def test_three_link_closed_form_matches_einsum_oracle():
    sys = make("three-link", **THREE_LINK_PARAMS)
    p = THREE_LINK_PARAMS
    inertia, dinertia = einsum_three_link(
        np.array([p["m1"], p["m2"], p["m3"]]), np.array([p["l1"], p["l2"], p["l3"]])
    )
    for q in random_configs(3, 200, seed=15):
        assert np.max(np.abs(sys.inertia(q) - inertia(q))) <= 1e-13
        assert np.max(np.abs(sys.dinertia(q) - dinertia(q))) <= 1e-13


@pytest.mark.parametrize("gravity", [0.0, 9.81])
def test_three_link_callables_take_stacks_bit_for_bit(gravity):
    sys = make("three-link", (1, 2, 3), gravity=gravity, **THREE_LINK_PARAMS)
    fns = [sys.inertia, sys.dinertia, *sys.input_covectors, *sys.dinput_covectors]
    fns += [sys.dpotential] if gravity else []
    assert all(fn.takes_stacks for fn in fns)
    for B, seed in ((1, 17), (2, 18), (33, 19)):
        Q = random_configs(3, B, seed)
        for fn in fns:
            assert np.array_equal(fn(Q), np.array([fn(q) for q in Q]))


def test_three_link_dinertia_matches_fd_of_inertia():
    sys = make("three-link", **THREE_LINK_PARAMS)
    for q in random_configs(3, 50, seed=16):
        fd = central_jacobian(sys.inertia, q, 1e-5)
        assert_allclose(sys.dinertia(q), fd, rtol=0, atol=1e-9)


def test_three_link_potential_is_weighted_com_height():
    sys = make("three-link", gravity=9.81)
    q = np.array([0.4, -0.3, 1.2])
    th = np.cumsum(q)
    l = np.ones(3)
    heights = []
    p = 0.0
    for i in range(3):
        heights.append(p + 0.5 * l[i] * np.sin(th[i]))
        p += l[i] * np.sin(th[i])
    assert_allclose(sys.potential_value(q), 9.81 * sum(heights), atol=1e-12)


def test_three_link_actuator_subset():
    sys = make("three-link", actuators=(1, 3))
    q = np.zeros(3)
    F = sys.input_matrix(q)
    assert_allclose(F[:, 0], [1.0, 0.0, 0.0])
    assert_allclose(F[:, 1], [0.0, 0.0, 1.0])


def hand_written_covectors(d, eps0):
    """The per-input covector functions that preceded the shared body-frame
    covector; kept as an oracle.  Returns the planar (F, dF) pairs for
    inputs 1..4 with offset d and the pvtol pairs with coupling eps0."""

    def fx(q):
        c, s = np.cos(q[2]), np.sin(q[2])
        return np.array([c, s, 0.0])

    def dfx(q):
        c, s = np.cos(q[2]), np.sin(q[2])
        J = np.zeros((3, 3))
        J[:, 2] = [-s, c, 0.0]
        return J

    def fy(q):
        c, s = np.cos(q[2]), np.sin(q[2])
        return np.array([-s, c, 0.0])

    def dfy(q):
        c, s = np.cos(q[2]), np.sin(q[2])
        J = np.zeros((3, 3))
        J[:, 2] = [-c, -s, 0.0]
        return J

    def torque(q):
        return np.array([0.0, 0.0, 1.0])

    def dtorque(q):
        return np.zeros((3, 3))

    def fx_off(q):
        c, s = np.cos(q[2]), np.sin(q[2])
        return np.array([c, s, -d])

    def dfx_off(q):
        c, s = np.cos(q[2]), np.sin(q[2])
        J = np.zeros((3, 3))
        J[:, 2] = [-s, c, 0.0]
        return J

    def thrust(q):
        c, s = np.cos(q[2]), np.sin(q[2])
        return np.array([-s, c, 0.0])

    def dthrust(q):
        c, s = np.cos(q[2]), np.sin(q[2])
        Jm = np.zeros((3, 3))
        Jm[:, 2] = [-c, -s, 0.0]
        return Jm

    def roll(q):
        c, s = np.cos(q[2]), np.sin(q[2])
        return np.array([eps0 * c, eps0 * s, 1.0])

    def droll(q):
        c, s = np.cos(q[2]), np.sin(q[2])
        Jm = np.zeros((3, 3))
        Jm[:, 2] = [-eps0 * s, eps0 * c, 0.0]
        return Jm

    planar = [(fx, dfx), (fy, dfy), (torque, dtorque), (fx_off, dfx_off)]
    return planar, [(thrust, dthrust), (roll, droll)]


@pytest.mark.parametrize(
    "name, params",
    [("planar-body", {}), ("blimp", {"offset": 0.37}), ("pvtol", {"coupling": 0.23})],
)
def test_body_frame_covectors_match_hand_written_oracle(name, params):
    planar, pvtol = hand_written_covectors(params.get("offset", 1.0), params.get("coupling"))
    oracle = pvtol if name == "pvtol" else planar
    qs = random_configs(3, 200, seed=21, scale=4.0)
    qs[0] = 0.0  # q[2] = 0: sin is exactly zero
    qs[1, 2] = np.pi
    for a, (F, dF) in enumerate(oracle, start=1):
        sys = make(name, actuators=(a,), **params)
        for q in qs:
            assert np.array_equal(sys.input_covectors[0](q), F(q))
            assert np.array_equal(sys.dinput_covectors[0](q), dF(q))


def test_pvtol_roll_self_product_is_thrust_direction():
    # <Y2 : Y2> = (2 eps0 / J) Y1: the roll-thrust coupling behind the
    # oscillatory altitude control
    eps0, J = 0.7, 1.4
    sys = make("pvtol", gravity=0.0, coupling=eps0, inertia=J)
    Y1, Y2 = sys.input_field(0), sys.input_field(1)
    for q in random_configs(3, 10, seed=13):
        got = symmetric_product(sys, Y2, Y2, q)
        assert_allclose(got, (2.0 * eps0 / J) * Y1(q), atol=1e-10)


def test_pvtol_thrust_self_product_vanishes():
    sys = make("pvtol", gravity=0.0)
    Y1 = sys.input_field(0)
    for q in random_configs(3, 10, seed=14):
        assert np.linalg.norm(symmetric_product(sys, Y1, Y1, q)) < 1e-10


def test_planar_offset_self_product():
    # the offset force (lever arm d) twists the body, so pushing along it
    # generates lateral drift: <Y4 : Y4> = -(2 d / J) Y_fy
    d, mass, J = 0.8, 1.5, 2.0
    sys = make("planar-body", actuators=(4,), offset=d, mass=mass, inertia=J)
    Y4 = sys.input_field(0)
    q = np.array([0.3, -1.0, 0.6])
    c, s = np.cos(q[2]), np.sin(q[2])
    y_fy = np.array([-s / mass, c / mass, 0.0])
    assert_allclose(symmetric_product(sys, Y4, Y4, q), -(2.0 * d / J) * y_fy, atol=1e-10)


def test_blimp_pair_product_is_lateral():
    # default actuators (fx-body, torque): <Y1 : Y3> = (1/J) Y_fy
    sys = make("blimp")
    Y1, Y3 = sys.input_field(0), sys.input_field(1)
    q = np.array([0.0, 0.0, 0.9])
    c, s = np.cos(q[2]), np.sin(q[2])
    assert_allclose(
        symmetric_product(sys, Y1, Y3, q), np.array([-s, c, 0.0]), atol=1e-10
    )
    assert np.linalg.norm(symmetric_product(sys, Y1, Y1, q)) < 1e-12
    assert np.linalg.norm(symmetric_product(sys, Y3, Y3, q)) < 1e-12


def test_planar_com_products_vanish():
    sys = make("planar-body", actuators=(1, 2))
    fields = [sys.input_field(a) for a in range(2)]
    q = np.array([1.0, -0.5, 0.4])
    for a in range(2):
        for b in range(2):
            assert np.linalg.norm(symmetric_product(sys, fields[a], fields[b], q)) < 1e-10


def test_make_shorthand_matches_build():
    a = make("pvtol", actuators=(1, 2), gravity=0.0)
    b = build(ModelDescriptor("pvtol", parameters={"gravity": 0.0}, actuators=(1, 2)))
    q = np.array([0.1, 0.2, 0.3])
    assert_allclose(a.mass(q), b.mass(q))
    assert_allclose(a.input_matrix(q), b.input_matrix(q))
