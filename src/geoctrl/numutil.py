"""Small numerical helpers: finite differences, quadrature, slope fits."""

import numpy as np


def central_jacobian(f, x, h):
    """Jacobian of ``f`` at ``x`` by second-order central differences.

    ``x`` is a point (n,), or a stack (B, n) of points that ``f`` maps
    member by member: each probe moves coordinate j of every member at
    once.  Returns an array of shape ``f(x).shape + (n,)`` with entries
    d f_i / d x_j, from 2n evaluations of ``f`` (never at x itself; the
    first probe gives the output shape).  Step is absolute (coordinates
    here are O(1) angles and positions, so no relative scaling is applied).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    jac = None
    for j in range(n):
        dx = np.zeros_like(x)
        dx[..., j] = h
        fp = np.asarray(f(x + dx), dtype=float)
        fm = np.asarray(f(x - dx), dtype=float)
        if jac is None:
            jac = np.empty(fp.shape + (n,))
        jac[..., j] = (fp - fm) / (2.0 * h)
    return jac


def simpson_uniform(y, dx):
    """Composite Simpson integral over the last axis of uniformly sampled values:
    dx/3 sum (y_2i + 4 y_2i+1 + y_2i+2), which needs an odd number of samples."""
    y = np.asarray(y, dtype=float)
    n = y.shape[-1] if y.ndim else 0
    if n < 3 or n % 2 == 0:
        raise ValueError(f"composite Simpson needs an odd sample count, got {n}")
    return np.sum(y[..., :-2:2] + 4.0 * y[..., 1:-1:2] + y[..., 2::2], axis=-1) * (dx / 3.0)


def cumulative_simpson_uniform(y, dx):
    """Cumulative Simpson integral over the last axis from a zero leading sample, for 3 or
    more samples.  An interval takes the parabola through it and one neighbour,
    dx/3 (5/4 f1 + 2 f2 - 1/4 f3) (Cartwright 2017, eq. 10): the right neighbour for the
    even intervals, the left one for the odd intervals and the last."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 0 or y.shape[-1] < 3:
        raise ValueError(f"cumulative Simpson needs at least 3 samples, got shape {y.shape}")

    def parabolas(f):
        return dx / 3 * (5 * f[..., :-2] / 4 + 2 * f[..., 1:-1] - f[..., 2:] / 4)

    forward, backward = parabolas(y), parabolas(y[..., ::-1])[..., ::-1]
    pieces = np.zeros(y.shape)
    pieces[..., 1:-1:2] = forward[..., ::2]
    pieces[..., 2::2] = backward[..., ::2]
    pieces[..., -1] = backward[..., -1]
    return np.cumsum(pieces, axis=-1)


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
    t0, t1 = float(tgrid[0]), float(tgrid[-1])  # Python floats: the same doubles, cheaper
    dx = float(tgrid[1]) - t0
    if not (t0 - 1e-9 * dx <= t <= t1 + 1e-9 * dx):
        raise ValueError(f"t={t} outside grid [{t0}, {t1}]")
    pos = (t - t0) / dx
    i = int(round(pos))
    if 0 <= i < n and abs(pos - i) < 1e-9:
        return values[i]
    i0 = min(max(int(pos) - 1, 0), n - 4)
    s = pos - i0
    v0, v1, v2, v3 = values[i0:i0 + 4]
    # entry by entry w0 v0 + w1 v1 + w2 v2 + w3 v3: an entry rounds the same whatever
    # the other entries of values hold (a stack interpolates as its members alone)
    return ((-(s - 1) * (s - 2) * (s - 3) / 6.0) * v0 + (s * (s - 2) * (s - 3) / 2.0) * v1
            + (-s * (s - 1) * (s - 3) / 2.0) * v2 + (s * (s - 1) * (s - 2) / 6.0) * v3)


def loglog_slope(x, y):
    """Least-squares slope of log(y) against log(x), or NaN where there is none: fewer
    than 2 distinct x, or an x or y that is not positive."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.unique(x).size < 2 or not (np.all(x > 0) and np.all(y > 0)):
        return float("nan")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])
