"""Built-in benchmark systems with analytic inertia/potential/input derivatives.

Registry
--------
flat         n=2 point mass, M = I, direct forces.  Sanity/test model.
planar-body  n=3 rigid body in the horizontal plane, q = (x, y, theta),
             M = diag(mass, mass, inertia).  Canonical inputs (body-frame
             (bx, by, btau), below): force through the center of mass
             along body-x (1, 0, 0) and body-y (0, 1, 0), pure torque
             (0, 0, 1), and a body-x force applied at the lateral offset
             point (0, offset), with its induced torque: (1, 0, -offset).
blimp        planar-body plus isotropic linear damping k(q) = -drag * I,
             a crude hull-drag model.  Default actuators (1, 3): body-x
             force and torque, an underactuated configuration.
pvtol        planar VTOL aircraft, q = (x, y, theta), M = diag(mass, mass,
             inertia).  Input 1 is unit thrust along the body vertical
             axis (0, 1, 0); input 2 is a rolling moment with the
             characteristic lateral-force coupling (coupling, 0, 1).
             Optional gravity potential mass * gravity * y.
three-link   planar manipulator with three revolute joints, torque inputs
             at a selectable subset of joints (default joints (1, 2)).

A body-frame force (bx, by) and moment btau acts at heading q[2] as the
covector F(q) = (c bx - s by, s bx + c by, btau), c, s = cos q[2], sin q[2];
dF/dq is zero except column 2, (-s bx - c by, c bx - s by, 0).  The constant M
of flat and the bodies is a ``geometry.constant_inertia``, factored once per system.

Three-link derivation (standard Lagrangian composition): with relative
joint angles q and absolute link angles theta = L q, L lower-triangular
ones (theta_j = q_1 + ... + q_j), link i is a uniform rod of mass m_i,
length l_i, center of mass at the midpoint and rotational inertia
I_i = m_i l_i^2 / 12.  The center of mass sits at p_i = sum_j A[i, j]
e(theta_j) with e(t) = (cos t, sin t), A[i, j] = l_j for j < i and
A[i, i] = l_i / 2.  Since e'(a) . e'(b) = cos(a - b), the translational
Jacobians drop out of M = sum_i m_i Jv_i^T Jv_i + I_i Jw_i^T Jw_i:

    M(q) = L^T (W o C(q)) L,    dM/dq_r = L^T (WD_r o S(q)) L,

with C[j, k] = cos(theta_j - theta_k), S[j, k] = sin(theta_j - theta_k),
the constant weights W = A^T diag(m) A + diag(I) (the rod inertias sit
on the diagonal, where C = 1) and WD_r[j, k] = -W[j, k] (L[j, r] -
L[k, r]).  V(q) = gravity * sum_i m_i p_{i,y}.  The test suite
cross-checks every analytic derivative against central finite
differences.  M, dM, the input covectors, their derivatives and dV/dq
also take a (B, 3) stack of configurations (``geometry.takes_stacks``),
so reconstructing inputs along a sampled plan calls each once per block.

Parameters are unit values by default (masses 1 kg, lengths 1 m, derived
rod inertias, offset/coupling 1 m).  Gravity defaults: 9.81 m/s^2 for the
pvtol (set gravity 0 for the horizontal/series experiments), 0 for the
three-link (a horizontal device; set 9.81 to add the potential).
"""

import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, UnknownModelError
from .geometry import MechanicalSystem, constant_inertia, takes_stacks

_REGISTRY: Dict[str, dict] = {}


def _whole(x):
    """int(x) for a whole number x (2 or 2.0); ValueError for 2.5, True, "3" or inf."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or x % 1 != 0:
        raise ValueError(f"{x!r} is not a whole number")
    return int(x)


@dataclass(frozen=True)
class ModelDescriptor:
    """A named model plus parameter overrides and the active actuator subset.

    ``actuators`` uses 1-based canonical input indices (e.g. (1, 3) picks
    the first and third canonical inputs); None selects the model default.
    """

    name: str
    parameters: Dict[str, float] = field(default_factory=dict)
    actuators: Optional[Tuple[int, ...]] = None

    def resolved(self):
        """Validate against the registry; return (entry, params, actuators)."""
        entry = _REGISTRY.get(self.name)
        if entry is None:
            raise UnknownModelError(self.name, sorted(_REGISTRY))
        params = dict(entry["defaults"])
        for key, val in self.parameters.items():
            if key not in params:
                raise ConfigError(
                    f"model '{self.name}' has no parameter '{key}' "
                    f"(known: {sorted(params)})"
                )
            if isinstance(val, bool) or not isinstance(val, numbers.Real):
                raise ConfigError(f"parameter '{key}' must be a number, got {val!r}")
            try:
                params[key] = float(val)
            except OverflowError:  # an int past the float range, refused as inf below
                params[key] = np.inf
        for key, val in params.items():
            if key in entry["nonneg"]:
                if not 0.0 <= val < np.inf:  # also refuses NaN
                    raise ConfigError(f"parameter '{key}' must be finite and >= 0, got {val}")
            elif not 0.0 < val < np.inf:
                raise ConfigError(f"parameter '{key}' must be finite and > 0, got {val}")
        acts = self.actuators if self.actuators is not None else entry["default_actuators"]
        try:
            acts = tuple(_whole(a) for a in acts)
        except ValueError:
            raise ConfigError(f"'actuators' must be whole numbers, got {acts!r}") from None
        n_inputs = len(entry["input_names"])
        if not 1 <= len(acts) <= entry["n"]:
            raise ConfigError(
                f"'actuators' must pick 1..{entry['n']} inputs of model '{self.name}', got {acts}"
            )
        if len(set(acts)) != len(acts):
            raise ConfigError(f"duplicate actuator indices in {acts}")
        for a in acts:
            if not 1 <= a <= n_inputs:
                raise ConfigError(
                    f"actuator index {a} out of range 1..{n_inputs} for model '{self.name}'"
                )
        return entry, params, acts


def build(descriptor: ModelDescriptor) -> MechanicalSystem:
    """Construct the MechanicalSystem for a validated descriptor."""
    entry, params, acts = descriptor.resolved()
    return entry["builder"](params, acts)


def make(name: str, actuators: Optional[Sequence[int]] = None, **parameters) -> MechanicalSystem:
    """Shorthand: make('pvtol', gravity=0.0) or make('three-link', (1, 3))."""
    acts = tuple(actuators) if actuators is not None else None
    return build(ModelDescriptor(name, parameters, acts))


def list_models() -> List[dict]:
    """Registry metadata: name, dof, inputs, defaults — for CLI listing."""
    out = []
    for name in sorted(_REGISTRY):
        e = _REGISTRY[name]
        out.append(
            {
                "name": name,
                "dof": e["n"],
                "inputs": list(e["input_names"]),
                "default_actuators": list(e["default_actuators"]),
                "parameters": dict(e["defaults"]),
                "description": e["doc"],
            }
        )
    return out


def _register(name, n, input_names, defaults, default_actuators, builder, doc, nonneg=()):
    _REGISTRY[name] = {
        "n": n,
        "input_names": tuple(input_names),
        "defaults": dict(defaults),
        "default_actuators": tuple(default_actuators),
        "builder": builder,
        "doc": doc,
        "nonneg": frozenset(nonneg),
    }


# -- flat ------------------------------------------------------------------


def _build_flat(params, acts):
    covs = [lambda q, _a=a - 1: np.eye(2)[_a].copy() for a in acts]
    dcovs = [lambda q: np.zeros((2, 2)) for _ in acts]
    return MechanicalSystem(
        n=2,
        m=len(acts),
        inertia=constant_inertia(np.eye(2)),
        input_covectors=covs,
        dinput_covectors=dcovs,
    )


_register(
    "flat",
    n=2,
    input_names=("f1", "f2"),
    defaults={},
    default_actuators=(1,),
    builder=_build_flat,
    doc="point mass in the plane, identity inertia, direct coordinate forces",
)


# -- rigid bodies in the plane: planar-body, blimp, pvtol -------------------


def _body_covector(bx, by, btau):
    """(F, dF) of the body-frame force (bx, by) and moment btau at heading q[2]."""

    # float(): the scalar arithmetic costs less on Python floats than on numpy scalars
    def F(q):
        c, s = float(np.cos(q[2])), float(np.sin(q[2]))
        return np.array([c * bx - s * by, s * bx + c * by, btau])

    def dF(q):
        c, s = float(np.cos(q[2])), float(np.sin(q[2]))
        J = np.zeros((3, 3))
        J[:, 2] = [-s * bx - c * by, c * bx - s * by, 0.0]
        return J

    return F, dF


def _build_body(params, acts, forces, drag=0.0, gravity=0.0):
    """Rigid body in the plane, M = diag(mass, mass, inertia), driven by the body-frame
    forces (bx, by, btau) that acts picks; drag adds linear damping, gravity a potential."""
    mass = params["mass"]
    table = [_body_covector(*forces[a - 1]) for a in acts]
    damping = potential = dpotential = None
    if drag > 0.0:
        K = -drag * np.eye(3)
        damping = lambda q: K.copy()
    if gravity > 0.0:
        grad = np.array([0.0, mass * gravity, 0.0])
        potential = lambda q: mass * gravity * q[1]
        dpotential = lambda q: grad.copy()
    return MechanicalSystem(
        n=3,
        m=len(acts),
        inertia=constant_inertia(np.diag([mass, mass, params["inertia"]])),
        input_covectors=[F for F, _ in table],
        damping=damping,
        potential=potential,
        dpotential=dpotential,
        dinput_covectors=[dF for _, dF in table],
    )


def _planar_forces(params):
    return (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, -params["offset"])


_register(
    "planar-body",
    n=3,
    input_names=("fx-body", "fy-body", "torque", "fx-offset"),
    defaults={"mass": 1.0, "inertia": 1.0, "offset": 1.0},
    default_actuators=(1, 2, 3),
    builder=lambda p, a: _build_body(p, a, _planar_forces(p)),
    doc="rigid body in the horizontal plane; body-frame forces, torque, offset force",
)

_register(
    "blimp",
    n=3,
    input_names=("fx-body", "fy-body", "torque", "fx-offset"),
    defaults={"mass": 1.0, "inertia": 1.0, "offset": 1.0, "drag": 0.1},
    default_actuators=(1, 3),
    builder=lambda p, a: _build_body(p, a, _planar_forces(p), drag=p["drag"]),
    doc="planar body with isotropic linear hull drag; underactuated by default",
    nonneg=("drag",),
)

_register(
    "pvtol",
    n=3,
    input_names=("thrust", "roll"),
    defaults={"mass": 1.0, "inertia": 1.0, "coupling": 1.0, "gravity": 9.81},
    default_actuators=(1, 2),
    builder=lambda p, a: _build_body(
        p, a, ((0.0, 1.0, 0.0), (p["coupling"], 0.0, 1.0)), gravity=p["gravity"]
    ),
    doc="planar VTOL aircraft: thrust along body axis, roll moment with lateral coupling",
    nonneg=("gravity",),
)


# -- three-link manipulator ---------------------------------------------------


def _build_three_link(params, acts):
    m = np.array([params["m1"], params["m2"], params["m3"]])
    l = np.array([params["l1"], params["l2"], params["l3"]])
    g = params["gravity"]
    I = m * l**2 / 12.0  # uniform rod about its center of mass

    # A[i, j]: coefficient of e(theta_j) in the COM position of link i
    A = np.zeros((3, 3))
    for i in range(3):
        for j in range(i):
            A[i, j] = l[j]
        A[i, i] = 0.5 * l[i]
    # L[j, k] = 1 iff theta_j depends on q_k (j >= k)
    L = np.tril(np.ones((3, 3)))
    W = A.T @ (m[:, None] * A) + np.diag(I)
    WD = -W * (L.T[:, :, None] - L.T[:, None, :])  # WD[r] = WD_r
    mA = m @ A  # row vector: sum_i m_i A[i, j]

    # a stacked call does the per-point arithmetic on every point, so it equals
    # per-point calls bit for bit
    @takes_stacks
    def inertia(q):
        th = np.asarray(q).cumsum(-1)
        return L.T @ (W * np.cos(th[..., None] - th[..., None, :])) @ L

    @takes_stacks
    def dinertia(q):
        th = np.asarray(q).cumsum(-1)
        D = L.T @ (WD * np.sin(th[..., None, :, None] - th[..., None, None, :])) @ L
        return D.swapaxes(-3, -2).swapaxes(-2, -1)  # [..., r, j, k] -> [..., j, k, r]

    @takes_stacks
    def dcovector(q):
        return np.zeros(np.shape(q) + (3,))

    def covector(e):
        return takes_stacks(lambda q: e.copy() if np.ndim(q) == 1 else np.tile(e, (len(q), 1)))

    covs = [covector(np.eye(3)[a - 1]) for a in acts]
    dcovs = [dcovector] * len(acts)

    potential = None
    dpotential = None
    if g > 0.0:

        def potential(q):
            s = np.sin(np.cumsum(q))
            return g * float(m @ (A @ s))

        @takes_stacks
        def dpotential(q):
            c = np.cos(np.asarray(q).cumsum(-1))
            return g * ((mA * c)[..., None, :] @ L)[..., 0, :]

    return MechanicalSystem(
        n=3,
        m=len(acts),
        inertia=inertia,
        input_covectors=covs,
        potential=potential,
        dinertia=dinertia,
        dpotential=dpotential,
        dinput_covectors=dcovs,
    )


_register(
    "three-link",
    n=3,
    input_names=("tau1", "tau2", "tau3"),
    defaults={
        "m1": 1.0,
        "m2": 1.0,
        "m3": 1.0,
        "l1": 1.0,
        "l2": 1.0,
        "l3": 1.0,
        "gravity": 0.0,
    },
    default_actuators=(1, 2),
    builder=_build_three_link,
    doc="planar 3R manipulator, uniform-rod links, torque inputs at chosen joints",
    nonneg=("gravity",),
)
