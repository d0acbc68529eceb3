"""Exception types shared across the toolbox.

All numerical failure modes raise a subclass of :class:`GeoctrlError` so
callers (and the CLI) can distinguish bad inputs from genuine numerical
breakdown.
"""

import numpy as np


class GeoctrlError(Exception):
    """Base class for all toolbox errors."""


class SingularInertiaError(GeoctrlError):
    """Inertia matrix is singular or too ill-conditioned to invert.

    Raised when M(q) is not positive definite (its Cholesky factorization
    fails; ``cond`` is inf) or when the LAPACK 1-norm condition estimate
    (dpocon on the Cholesky factor, ``cond`` = 1 / rcond) exceeds
    ``geometry.COND_LIMIT`` (1e12).
    """

    def __init__(self, q, cond):
        self.q = np.asarray(q)
        self.cond = cond
        super().__init__(
            f"inertia matrix at q={self.q.tolist()} has condition number "
            f"{cond:.3e} (not safely invertible)"
        )


class NonFiniteStateError(GeoctrlError):
    """Integration produced a non-finite state."""

    def __init__(self, t):
        self.t = t
        super().__init__(f"state became non-finite at t={t!r}")


class RankDeficientInputsError(GeoctrlError):
    """The input vector fields do not have full column rank at a point."""

    def __init__(self, q):
        self.q = np.asarray(q)
        super().__init__(f"input vector fields are rank deficient at q={self.q.tolist()}")


class BranchVanishedError(GeoctrlError):
    """A tracked decoupling field has no solution direction left at q."""

    def __init__(self, q):
        self.q = np.asarray(q)
        super().__init__(f"decoupling branch vanished at q={self.q.tolist()}")


class DecouplingSetError(GeoctrlError):
    """The decoupling directions at q hold a line or a curve, not a finite set, or
    m > 3 inputs meet a live quadratic form, which no exact solve covers."""

    def __init__(self, q, reason):
        self.q = np.asarray(q)
        super().__init__(f"decoupling directions at q={self.q.tolist()}: {reason}")


class SpanAssumptionError(GeoctrlError):
    """A diagonal symmetric product leaves the span of the input fields.

    The oscillatory synthesis requires every <Y_a : Y_a> to be a pointwise
    linear combination of the input fields; this error carries the worst
    offending residual and the point where it occurred.
    """

    def __init__(self, q, residual, tol):
        self.q = np.asarray(q)
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"span assumption violated at q={self.q.tolist()}: residual "
            f"{residual:.3e} exceeds tolerance {tol:.3e}"
        )


class ResidualViolationError(GeoctrlError):
    """The inputs reconstructed for a planned kinematic segment leave a span
    residual (the reconstruction residual) above the plan's bound."""

    def __init__(self, segment, t, residual, tol):
        self.segment = segment
        self.t = t
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"segment {segment}: reconstruction residual {residual:.3e} exceeds "
            f"{tol:.3e} at t={t:.6g}"
        )


class ConfigError(GeoctrlError, ValueError):
    """Experiment configuration failed to parse or validate.

    Also a ValueError: library arguments that a config supplies (such as a
    step that does not divide the horizon) raise it directly.
    """


class UnknownModelError(ConfigError):
    """Requested model name is not registered (a config problem)."""

    def __init__(self, name, known):
        self.name = name
        super().__init__(
            f"unknown model {name!r}; available models: {', '.join(sorted(known))}"
        )
