"""Small numerical helpers: finite differences, quadrature, slope fits."""

import numpy as np

# scipy.integrate is imported by the quadrature helpers on first use: it pulls
# in scipy.optimize and adds about 22 MB to a process, and one that only plans
# never integrates


def central_jacobian(f, x, h=1e-5):
    """Jacobian of ``f`` at ``x`` by second-order central differences.

    Returns an array of shape ``f(x).shape + x.shape`` with entries
    d f_i / d x_j, from 2 x.size evaluations of ``f`` (never at x itself;
    the first probe gives the output shape).  Step is absolute
    (coordinates here are O(1) angles and positions, so no relative
    scaling is applied).
    """
    x = np.asarray(x, dtype=float)
    jac = None
    for j in range(x.size):
        dx = np.zeros_like(x)
        dx.flat[j] = h
        fp = np.asarray(f(x + dx), dtype=float)
        fm = np.asarray(f(x - dx), dtype=float)
        if jac is None:
            jac = np.empty(fp.shape + x.shape)
        jac[..., j] = (fp - fm) / (2.0 * h)
    return jac


def simpson_uniform(y, dx, axis=0):
    """Composite Simpson integral of uniformly sampled values.

    Requires an odd number of samples (even number of panels).
    """
    n = y.shape[axis] if isinstance(y, np.ndarray) else len(y)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"composite Simpson needs an odd sample count, got {n}")
    from scipy.integrate import simpson

    return simpson(y, dx=dx, axis=axis)


def cumulative_simpson_uniform(y, dx, axis=0):
    """Cumulative Simpson integral with a zero leading sample.

    Output has the same shape as ``y``; entry ``i`` approximates the
    integral from sample 0 to sample ``i``.
    """
    from scipy.integrate import cumulative_simpson

    y = np.asarray(y, dtype=float)
    return cumulative_simpson(y, dx=dx, axis=axis, initial=0.0)


def lagrange4_interp(tgrid, values, t):
    """Cubic (4-point Lagrange) interpolation on a uniform grid.

    ``values`` is indexed by grid node along axis 0.  Accurate to O(dx^4)
    for smooth data; exact at the nodes.  Needs at least four nodes.
    """
    tgrid = np.asarray(tgrid)
    values = np.asarray(values)
    n = tgrid.size
    if n < 4:
        raise ValueError(f"4-point interpolation needs at least 4 grid nodes, got {n}")
    dx = tgrid[1] - tgrid[0]
    if not (tgrid[0] - 1e-9 * dx <= t <= tgrid[-1] + 1e-9 * dx):
        raise ValueError(f"t={t} outside grid [{tgrid[0]}, {tgrid[-1]}]")
    pos = (t - tgrid[0]) / dx
    i = int(round(pos))
    if 0 <= i < n and abs(pos - i) < 1e-9:
        return values[i]
    i0 = min(max(int(pos) - 1, 0), n - 4)
    s = pos - i0
    vs = values[i0:i0 + 4]
    w = np.array([
        -(s - 1) * (s - 2) * (s - 3) / 6.0,
        s * (s - 2) * (s - 3) / 2.0,
        -s * (s - 1) * (s - 3) / 2.0,
        s * (s - 1) * (s - 2) / 6.0,
    ])
    return np.tensordot(w, vs, axes=(0, 0))


def loglog_slope(x, y):
    """Least-squares slope of log(y) against log(x); needs at least 2 points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError(f"log-log slope needs at least 2 points, got {x.size}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log slope needs positive data")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def format_sig17(x):
    """Decimal text with 17 significant digits (round-trips doubles)."""
    return f"{float(x):.17g}"
