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
    (dpocon on the Cholesky factor, ``cond`` = 1 / rcond) exceeds the
    configured guard (default 1e12).
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

    def __init__(self, q=None):
        self.q = None if q is None else np.asarray(q)
        where = "" if self.q is None else f" at q={self.q.tolist()}"
        super().__init__(f"input vector fields are rank deficient{where}")


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
    """A planned kinematic segment fails its decoupling residual bound."""

    def __init__(self, segment, t, residual, tol):
        self.segment = segment
        self.t = t
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"segment {segment}: decoupling residual {residual:.3e} exceeds "
            f"{tol:.3e} at t={t:.6g}"
        )


class UnknownModelError(GeoctrlError):
    """Requested model name is not registered."""

    def __init__(self, name, known):
        self.name = name
        super().__init__(
            f"unknown model {name!r}; available models: {', '.join(sorted(known))}"
        )


class ConfigError(GeoctrlError, ValueError):
    """Experiment configuration failed to parse or validate.

    Also a ValueError: library arguments that a config supplies (such as a
    step that does not divide the horizon) raise it directly.
    """
