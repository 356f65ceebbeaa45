"""The package's one cubic spline.

``Spline(x, c)`` holds the cubic splines of the rows of (m, n) node data:
the knots x, shared (n,) or one row per spline (m, n), and the power-basis
coefficients c, (4, n - 1, m), highest power first, in the layout of
scipy's ``CubicSpline(x, data, axis=1)``.  :func:`not_a_knot` and
:func:`periodic` build them, :func:`at` (each spline at its own points)
and :func:`at_all` (all at the same points) read them,
:func:`antiderivative` and :func:`integral` integrate them, and
:class:`Bicubic` is the tensor product of two not-a-knot splines.  Each
system for the knot slopes is filled as scipy fills it and solved by LAPACK
``gtsv``, and every sum runs in the order of scipy's ``PPoly`` evaluation,
so each result equals scipy's bit for bit; the bicubic equals FITPACK's to
rounding (tests/test_spline.py compares them).
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
from scipy.linalg import solve_banded

Spline = namedtuple("Spline", "x c")


def _interval(knots, t):
    """Index of the knot interval of each point t: ``searchsorted(side=
    "right") - 1`` clipped to the first and the last interval, so that the
    last knot and points outside the knots use an end interval.  Searching
    the interior knots alone gives that index unclipped."""
    return np.searchsorted(knots[1:-1], t, side="right")


def _hermite(knots, values, h, slope, m):
    """The splines with knot slopes m, (rows, n), formed as scipy's
    ``CubicHermiteSpline`` forms them."""
    t = (m[:, :-1] + m[:, 1:] - 2 * slope) / h
    c = np.stack((t / h, (slope - m[:, :-1]) / h - t, m[:, :-1],
                  np.broadcast_to(values[..., :-1], t.shape)))
    return Spline(knots, np.ascontiguousarray(c.transpose(0, 2, 1)))


def not_a_knot(knots, values):
    """The not-a-knot splines of the rows of ``values``, (m, n) or one row
    (n,), through ``knots``, shared (n,) or one row per spline (m, n);
    n >= 4.  Row i equals ``CubicSpline(knots, values, axis=1)`` (shared
    knots) or ``CubicSpline(knots[i], values[i])`` (knots per row) bit for
    bit."""
    return _hermite(knots, values, *_knot_slopes(knots, values))


def _knot_slopes(knots, values):
    """The spacings, the secant slopes and the knot slopes, (m, n), of
    :func:`not_a_knot`'s splines.

    The rows of each system are filled as scipy fills them.  Shared knots
    make one system with m right-hand sides, as scipy's.  Knots per row
    make m systems, solved as one block-diagonal system by one ``gtsv``
    call.  The entries that couple neighbouring blocks are zero.  ``gtsv``
    swaps rows only where the sub-diagonal entry exceeds the diagonal one
    in size, so never at a zero, and eliminates a zero sub-diagonal entry
    with multiplier exactly 0, which leaves the next block untouched: each
    block's solution is bit-identical to its own solve.
    """
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    h = np.diff(knots)
    slope = np.atleast_2d(np.diff(values) / h)
    rows, n = slope.shape[0], slope.shape[1] + 1
    ab = np.zeros((3, *h.shape[:-1], n))
    b = np.empty((rows, n))
    ab[1, ..., 1:-1] = 2 * (h[..., :-1] + h[..., 1:])
    ab[0, ..., 2:] = h[..., :-1]
    ab[2, ..., :-2] = h[..., 1:]
    b[:, 1:-1] = 3 * (h[..., 1:] * slope[:, :-1] + h[..., :-1] * slope[:, 1:])
    # The not-a-knot rows.  scipy squares the end spacings of a 1-D spline
    # as NumPy scalars, that is by C pow, whose result differs from h * h
    # in the last bit for about one h in a thousand; those of shared knots
    # under 2-D data it squares as arrays, which is h * h.
    if knots.ndim == 1 and values.ndim == 2:
        sq0, sq1 = h[0] * h[0], h[-1] * h[-1]
    else:
        sq0, sq1 = (np.array([math.pow(v, 2)
                              for v in np.atleast_1d(h[..., j])])
                    for j in (0, -1))
    d = knots[..., 2] - knots[..., 0]
    ab[1, ..., 0], ab[0, ..., 1] = h[..., 1], d
    b[:, 0] = ((h[..., 0] + 2 * d) * h[..., 1] * slope[:, 0]
               + sq0 * slope[:, 1]) / d
    d = knots[..., -1] - knots[..., -3]
    ab[1, ..., -1], ab[2, ..., -2] = h[..., -2], d
    b[:, -1] = (sq1 * slope[:, -2]
                + (2 * d + h[..., -1]) * h[..., -2] * slope[:, -1]) / d
    if knots.ndim == 1:
        m = solve_banded((1, 1), ab, b.T, overwrite_ab=True,
                         overwrite_b=True, check_finite=False).T
    else:
        m = solve_banded((1, 1), ab.reshape(3, -1), b.reshape(-1),
                         overwrite_ab=True, overwrite_b=True,
                         check_finite=False).reshape(rows, n)
    return h, slope, m


def periodic(knots, values):
    """The periodic splines of the rows of ``values``, (m, n), through the
    shared ``knots``, (n,); each row must end on its first value.

    As scipy's ``CubicSpline(knots, values, axis=1, bc_type="periodic")``:
    the cyclic system for the slopes at knots 0..n - 3 is condensed, solved
    by one ``gtsv`` call for the data and for the removed column, and the
    slope at knot n - 2 follows from the removed row.
    """
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    h = np.diff(knots)
    slope = np.diff(values) / h
    ab = np.zeros((3, len(h) - 1))
    ab[1, 1:] = 2 * (h[:-2] + h[1:-1])
    ab[0, 2:] = h[:-3]
    ab[2, :-1] = h[1:-1]
    ab[1, 0], ab[0, 1] = 2 * (h[-1] + h[0]), h[-1]
    b = np.zeros((len(h) - 1, 2 * len(values)))
    b[1:, :len(values)] = (3 * (h[1:-1] * slope[:, :-2]
                                + h[:-2] * slope[:, 1:-1])).T
    b[0, :len(values)] = 3 * (h[0] * slope[:, -1] + h[-1] * slope[:, 0])
    b[0, len(values):], b[-1, len(values):] = -h[0], -h[-3]
    s1, s2 = np.split(solve_banded((1, 1), ab, b, overwrite_ab=True,
                                   check_finite=False).T, 2)
    last = ((3 * (h[-1] * slope[:, -2] + h[-2] * slope[:, -1])
             - h[-2] * s1[:, 0] - h[-1] * s1[:, -1])
            / (2 * (h[-1] + h[-2]) + h[-2] * s2[:, 0] + h[-1] * s2[:, -1]))
    m = np.concatenate([s1 + last[:, None] * s2, last[:, None],
                        s1[:, :1] + last[:, None] * s2[:, :1]], axis=1)
    return _hermite(knots, values, h, slope, m)


def at(spline, t, slope=False):
    """Spline i at its own points ``t[i]``, t of shape (m, ...): on the
    interval of each point, at offset s from its left knot, the sum
    c3 + c2 s + c1 s^2 + c0 s^3 in that order; the end intervals serve the
    last knot and the points outside the knots.  With ``slope``, the pair
    of the value and the first derivative, from the one interval search.
    """
    x = spline.x
    if x.ndim == 1:
        k = _interval(x, t)
    else:
        k = np.array([_interval(xi, ti) for xi, ti in zip(x, t)])
    rows = np.arange(t.shape[0]).reshape(-1, *(1,) * (t.ndim - 1))
    s = t - (x[k] if x.ndim == 1 else x[rows, k])
    c0, c1, c2, c3 = spline.c[:, k, rows]
    value = c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)
    if slope:
        return value, c2 + c1 * s * 2.0 + c0 * (s * s) * 3.0
    return value


def at_all(spline, t):
    """Every spline of shared knots at the same points t: t.shape + (m,),
    laid out and summed as scipy's axis-0 evaluation, from one interval
    search."""
    k = _interval(spline.x, t)
    s = (t - spline.x[k])[..., None]
    c0, c1, c2, c3 = np.take(spline.c, k, axis=1)
    s2 = s * s
    return c3 + c2 * s + c1 * s2 + c0 * (s2 * s)


def _interval_terms(spline):
    """Per interval (n - 1, m): the spacing s and the coefficients."""
    s = np.diff(spline.x)
    return (s[:, None] if s.ndim == 1 else s.T), spline.c


def antiderivative(spline):
    """The antiderivatives from the first knot at the knots, (m, n), summed
    as scipy's ``antiderivative()`` at the knots sums them: each interval
    adds its four terms in turn to the value at its left knot.  As scipy's
    result, it is the transpose of a C-ordered (n, m) array, on which the
    sums of :func:`strip_calculus.strip_integral` depend."""
    s, (c0, c1, c2, c3) = _interval_terms(spline)
    terms = np.empty((len(s), 4, c0.shape[1]))
    terms[:, 0], terms[:, 1] = c3 * s, c2 / 2.0 * (s * s)
    terms[:, 2] = c1 / 3.0 * (s * s * s)
    terms[:, 3] = c0 / 4.0 * (s * s * s * s)
    out = np.zeros((len(s) + 1, c0.shape[1]))
    out[1:] = np.cumsum(terms.reshape(-1, c0.shape[1]), axis=0)[3::4]
    return out.T


def integral(spline):
    """The integrals over the whole knot range, (m,), summed as scipy's
    ``integrate`` sums them: interval by interval, each its four terms."""
    s, (c0, c1, c2, c3) = _interval_terms(spline)
    parts = (c3 * s + c2 * (s * s) * 0.5 + c1 * (s * s * s) * (1.0 / 3.0)
             + c0 * (s * s * s * s) * 0.25)
    return np.cumsum(parts, axis=0)[-1]


# The nu-th derivatives of s^3, s^2, s and 1: _FALLING[nu] * s ** _RAISED[nu].
_FALLING = np.array([[math.perm(e, nu) for e in (3, 2, 1, 0)]
                     for nu in range(4)], dtype=float)
_RAISED = np.maximum(np.arange(3, -1, -1) - np.arange(4)[:, None], 0)
# Cubic Hermite basis on [0, 1] in the powers u^3, u^2, u, 1: the values at
# 0 and 1, then the slopes at 0 and 1.
_HERMITE = np.array([[2.0, -3.0, 0.0, 1.0], [-2.0, 3.0, 0.0, 0.0],
                     [1.0, -2.0, 1.0, 0.0], [1.0, -1.0, 0.0, 0.0]])
# The node (i or i + 1) and the kind (value or slope) of each basis term.
_STEP, _KIND = np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])


def _hermite_weights(knots, t, nu):
    """Interval i of each point t and the weights of the nu-th derivative
    at t on the values at knots i, i + 1 and the slopes there."""
    i = _interval(knots, t)
    h = (knots[i + 1] - knots[i])[..., None]
    u = (t - knots[i])[..., None] / h
    w = (_FALLING[nu] * u ** _RAISED[nu]) @ _HERMITE.T / h ** nu
    w[..., 2:] *= h
    return i, w


class Bicubic:
    """The bicubic spline of node data F (nx, ny) on the knots xs, ys: the
    tensor product of the not-a-knot splines in x and in y, read as cubic
    Hermite patches from F and its slopes in x, in y and across at the
    nodes.  This is the interpolant that FITPACK's
    ``RectBivariateSpline(xs, ys, F)`` builds with s = 0, up to rounding,
    and as FITPACK's it takes the value of the nearest point of the knot
    rectangle outside it."""

    def __init__(self, xs, ys, F):
        self.xs, self.ys = np.asarray(xs, float), np.asarray(ys, float)
        fy = _knot_slopes(self.ys, F)[2]
        fx, fxy = np.split(_knot_slopes(self.xs, np.vstack([F.T, fy.T]))[2],
                           2)
        # (nx, ny, 2, 2): [[F, D2 F], [D1 F, D12 F]] at each node
        self.nodes = np.stack([np.stack([F, fy], axis=-1),
                               np.stack([fx.T, fxy.T], axis=-1)], axis=-2)

    def ev(self, x, y, dx=0, dy=0):
        """The derivative of orders ``dx`` in x and ``dy`` in y at the
        points (x, y)."""
        i, wx = _hermite_weights(
            self.xs, np.minimum(np.maximum(x, self.xs[0]), self.xs[-1]), dx)
        j, wy = _hermite_weights(
            self.ys, np.minimum(np.maximum(y, self.ys[0]), self.ys[-1]), dy)
        corner = self.nodes[np.add.outer(i, _STEP)[..., :, None],
                            np.add.outer(j, _STEP)[..., None, :],
                            _KIND[:, None], _KIND]
        return np.einsum("...ab,...a,...b->...", corner, wx, wy)
