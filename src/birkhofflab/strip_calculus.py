"""Area-preserving maps of the strip R x [0, pi] with form sin(y) dx dy.

Maps are represented by their node values on a rectangular grid: x runs over
a uniform periodic mesh of period L (node 0 at x = 0, no endpoint node), and
y over a uniform mesh of [0, pi] including both boundary rows.  Derivatives
in x are spectral (the data is periodic and smooth), derivatives in y use
the sixth-order finite-difference matrix of :func:`ddy_mesh`, so all residual
checks hold to well below the documented tolerances on the default 96 x 96
mesh.

The objects computed here are classical for this setting:

* flux        -- average horizontal displacement (1 / 2L) en-masse of X - x;
* action      -- the primitive sigma of Phi^* lambda - lambda, lambda = cos(y) dx,
                 normalised by boundary path integrals of lambda;
* Calabi invariant -- the omega-average of the action (zero-flux maps only);
* generating function W of a monotone map: (X - x) sin(Y) = D2 W(x, Y) and
  cos(Y) - cos(y) = D1 W(x, Y), normalised so the boundary rows carry
  -flux and +flux.

A monotone, zero-flux map different from the identity with non-positive
Calabi invariant has an interior fixed point of negative action (the minimum
of W); the mirrored statement holds for non-negative Calabi invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _spline
from ._spline import at as _columns_at
from .errors import (InternalConsistencyError, NonIntegrableFormError,
                     NotGeneratingError, PreconditionError)

_PI = math.pi

# Default residual tolerance for discrete-form identities on the grid.
IDENTITY_TOL = 1e-5
FLUX_TOL = 1e-6
IDENTITY_MAP_EPS = 1e-9     # sup-norm threshold below which a map counts as id
FIXED_TOL = 1e-6            # how far the map may move a located fixed point
_W_RESOLUTION = 1e-14       # W differences the fixed-point refinement ignores
_IMAGE_ITERATIONS = 60      # Newton cap of the generated map's solve
_NEWTON_ITERATIONS = 30     # Newton cap of the fixed-point search
_STEP_ROUNDING = 1e-14      # fixed-point steps below W's derivative rounding
_STENCIL = 7                # nodes of the sixth-order y-derivative
_RANDOM_MODES = 2           # x harmonics and y profiles of a random W


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def strip_mesh(length, nx, ny):
    xs = np.arange(nx) * (length / nx)
    ys = np.linspace(0.0, _PI, ny)
    return xs, ys


@dataclass
class StripMapGrid:
    """Discrete strip map: node values of the lift Phi = (X, Y)."""

    length: float
    xs: np.ndarray
    ys: np.ndarray
    X: np.ndarray              # (nx, ny)
    Y: np.ndarray              # (nx, ny)

    @property
    def nx(self):
        return len(self.xs)

    @property
    def ny(self):
        return len(self.ys)

    def displacement(self):
        return self.X - self.xs[:, None]

    def sup_distance_to_identity(self):
        """Sup of |Y - y| and of |X - x| in units of L / 2 pi (scale-free)."""
        return float(max(np.max(np.abs(self.displacement()))
                         * (2.0 * _PI / self.length),
                         np.max(np.abs(self.Y - self.ys[None, :]))))


@dataclass
class GeneratingGrid:
    """Node values of a generating function W on the (x, Y) mesh, with the
    closure residual of the one-form it was integrated from (0 when W is
    given)."""

    length: float
    xs: np.ndarray
    Ys: np.ndarray
    w: np.ndarray              # (nx, ny)
    closure_residual: float = 0.0

    @property
    def nx(self):
        return len(self.xs)

    @property
    def ny(self):
        return len(self.Ys)

    def boundary_values(self):
        return float(np.mean(self.w[:, 0])), float(np.mean(self.w[:, -1]))


@dataclass
class ActionGrid:
    """Node values of the action sigma of a strip map and its flux."""

    sigma: np.ndarray          # (nx, ny)
    closure_residual: float
    flux: float


# ---------------------------------------------------------------------------
# discrete derivatives and quadrature
# ---------------------------------------------------------------------------

def ddx_periodic(F, length):
    """Spectral x-derivative of periodic node data (axis 0)."""
    nx = F.shape[0]
    k = np.fft.rfftfreq(nx, d=1.0 / nx) * (2.0 * _PI / length)
    Fh = np.fft.rfft(F, axis=0)
    return np.fft.irfft(1j * k[:, None] * Fh, n=nx, axis=0)


def _fornberg_weights(z, x, m):
    """Finite-difference weights for derivatives 0..m at z from nodes x."""
    n = len(x)
    c = np.zeros((n, m + 1))
    c1, c4 = 1.0, x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


_DIFF_CACHE = {}


def _diff_matrix(ys):
    """Dense differentiation matrix of sixth order on the (uniform) y-mesh."""
    key = (len(ys), float(ys[0]), float(ys[-1]))
    D = _DIFF_CACHE.get(key)
    if D is None:
        n = len(ys)
        D = np.zeros((n, n))
        half = _STENCIL // 2
        for j in range(n):
            lo = min(max(j - half, 0), n - _STENCIL)
            w = _fornberg_weights(ys[j], ys[lo:lo + _STENCIL], 1)[:, 1]
            D[j, lo:lo + _STENCIL] = w
        _DIFF_CACHE[key] = D
    return D


def ddy_mesh(F, ys):
    """Sixth-order y-derivative of node data (axis 1)."""
    return F @ _diff_matrix(ys).T


def _simpson(y, x):
    """Composite Simpson integrals of the rows of y over the knots x, on
    pairs of intervals from the first knot; an odd number of intervals
    ends with Cartwright's correction for the last one.  The weights and
    sums are those of scipy's ``simpson``, term by term."""
    stop = len(x) - 2 if len(x) % 2 else len(x) - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, ratio = h0 + h1, h0 / h1
    middle = hsum * (hsum / (h0 * h1))
    total = np.sum(hsum / 6.0 * (y[:, 0:stop:2] * (2.0 - 1.0 / ratio)
                                 + y[:, 1:stop + 1:2] * middle
                                 + y[:, 2:stop + 2:2] * (2.0 - ratio)), axis=1)
    if len(x) % 2 == 0:
        a, b = h[-2:-1], h[-1:]
        total += ((2 * b ** 2 + 3 * a * b) / (6 * (b + a)) * y[:, -1]
                  + (b ** 2 + 3.0 * a * b) / (6 * a) * y[:, -2]
                  - b ** 3 / (6 * a * (a + b)) * y[:, -3])
    return total


def strip_integral(F, xs, ys, length):
    """Integral of F * sin(y) dx dy over one period of the strip."""
    inner = _simpson(F * np.sin(ys)[None, :], ys)
    return float(length * np.mean(inner))


def map_derivatives(grid):
    """(D1 X, D2 X, D1 Y, D2 Y) from the displacement fields, which keeps
    identity-like maps exact."""
    dispX = grid.displacement()
    dispY = grid.Y - grid.ys[None, :]
    d1X = 1.0 + ddx_periodic(dispX, grid.length)
    d2X = ddy_mesh(dispX, grid.ys)
    d1Y = ddx_periodic(dispY, grid.length)
    d2Y = 1.0 + ddy_mesh(dispY, grid.ys)
    return d1X, d2X, d1Y, d2Y


def omega_preservation_residual(grid):
    """max |sin(Y) det(DPhi) - sin(y)| over interior nodes."""
    d1X, d2X, d1Y, d2Y = map_derivatives(grid)
    det = d1X * d2Y - d2X * d1Y
    res = np.abs(np.sin(grid.Y) * det - np.sin(grid.ys)[None, :])
    return float(np.max(res[:, 1:-1]))


def _periodic_spline(xs, ys, length, F):
    """Bicubic spline (:class:`_spline.Bicubic`) of node data F (nx, ny),
    periodic in x with period ``length``.  The mesh is padded by 16
    periodic images on each side, so the not-a-knot end conditions reach
    the period only at rounding level: with 4 images, W and D1 W differ
    across x = 0 and x = L by up to 1e-9 and 1e-7, which moves an extremum
    near the seam by up to 2.5e-6."""
    i = np.arange(-16, len(xs) + 16)
    return _spline.Bicubic(xs[i % len(xs)] + length * (i // len(xs)), ys,
                           F[i % len(xs)])


# ---------------------------------------------------------------------------
# flux
# ---------------------------------------------------------------------------

def flux(grid):
    """(1 / 2L) of the omega-integral of the horizontal displacement."""
    return 0.5 * strip_integral(grid.displacement(), grid.xs, grid.ys,
                                grid.length) / grid.length


def zero_flux(grid, F):
    """Whether ``F``, the flux of ``grid``, counts as zero: |F| at most
    ``FLUX_TOL`` in units of L / 2 pi, a scale-free test as the flux scales
    with the period (|F| <= ``FLUX_TOL`` on a strip of period 2 pi)."""
    return abs(F) <= FLUX_TOL * grid.length / (2.0 * _PI)


def flux_boundary_path(grid):
    """Flux evaluated as the line integral (1/2) of x sin(y) dy along the
    image of the fibre x = 0; cross-validates :func:`flux`."""
    Xc = grid.X[0, :]
    Yc = grid.Y[0, :]
    t = grid.ys
    _, dY = _columns_at(_spline.not_a_knot(t, Yc), t[None], slope=True)
    integrand = Xc * np.sin(Yc) * dY[0]
    return 0.5 * float(_spline.integral(_spline.not_a_knot(t, integrand))[0])


# ---------------------------------------------------------------------------
# action and Calabi invariant
# ---------------------------------------------------------------------------

def action(grid):
    """The action sigma: d sigma = Phi^* lambda - lambda, normalised so that
    sigma on the lower boundary equals the boundary displacement minus flux.

    The primitive is accumulated along grid verticals; the x-component of
    the defining one-form then serves as an independent closure test.  Its
    failure means the input does not preserve the area form.
    """
    F = flux(grid)
    ys, L = grid.ys, grid.length
    disp = grid.displacement()
    d1X, d2X, _, _ = map_derivatives(grid)
    cosY = np.cos(grid.Y)
    # vertical component of Phi^* lambda - lambda, integrated from y = 0
    Q = cosY * d2X
    sigma0 = disp[:, 0] - F
    sigma = sigma0[:, None] + _spline.antiderivative(_spline.not_a_knot(ys, Q))
    # closure test against the horizontal component
    P = cosY * d1X - np.cos(ys)[None, :]
    closure = float(np.max(np.abs(ddx_periodic(sigma, L) - P)))
    if closure > IDENTITY_TOL:
        raise NonIntegrableFormError(
            f"one-form closure residual {closure:.3g} exceeds "
            f"{IDENTITY_TOL:.3g}; "
            "the map does not preserve the area form")
    return ActionGrid(sigma=sigma, closure_residual=closure, flux=F)


def calabi(grid, action_grid=None):
    """Average action (1 / 2L) integral of sigma * omega; zero flux only."""
    act = action_grid if action_grid is not None else action(grid)
    if not zero_flux(grid, act.flux):
        raise PreconditionError(
            f"Calabi invariant requires zero flux (got {act.flux:.3g})")
    return 0.5 * strip_integral(act.sigma, grid.xs, grid.ys,
                                grid.length) / grid.length


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def _inverse_columns(knots, values):
    """The not-a-knot splines ``CubicSpline(knots[i], values)`` of every
    column i at once (:func:`_spline.not_a_knot` on per-column knots), for
    :func:`_columns_at`; a column whose knots are not finite and strictly
    increasing is refused."""
    bad = (~np.all(np.isfinite(knots), axis=1)
           | np.any(np.diff(knots, axis=1) <= 0.0, axis=1))
    if bad.any():
        raise PreconditionError(
            f"column {int(np.argmax(bad))} of the map is not finite and "
            "strictly increasing in y, so it has no inverse")
    return _spline.not_a_knot(knots, values)


def build_from_generating(gen):
    """Construct the monotone strip map generated by W.

    For each node (x, y) the colatitude image Y solves
    cos(Y) - cos(y) = D1 W(x, Y) by Newton's method on the whole grid,
    safeguarded by bisection of a per-node bracket in [0, pi] (D1 W
    vanishes on the boundary rows, so the residual changes sign there).  A
    column stops once its largest residual is below 1e-12.  Then
    X - x = D2 W(x, Y) / sin(Y), with the boundary rows taking the
    L'Hopital limit +- D22 W.
    """
    xs, Ys, L = gen.xs, gen.Ys, gen.length
    d1W = ddx_periodic(gen.w, L)
    # Structural admissibility: constant boundary rows (so D1 W = 0 there)
    # and D2 W -> 0 at the rows.  The derivative estimate carries O(h^3)
    # spline noise, so the threshold scales with the data.
    scale = max(float(np.max(np.abs(gen.w))), 1e-12)
    row_var = max(float(np.ptp(gen.w[:, 0])), float(np.ptp(gen.w[:, -1])))
    if row_var > 1e-9 * max(scale, 1.0):
        raise NotGeneratingError(
            f"W must be constant on each boundary row (variation {row_var:.3g})")
    d2W = ddy_mesh(gen.w, Ys)
    bnd = float(np.max(np.abs(d2W[:, [0, -1]])))
    if bnd > 1e-4 * scale:
        raise NotGeneratingError(
            f"D2 W must vanish on the boundary rows (max {bnd:.3g})")
    # Horizontal displacement as the regular quotient D2 W / sin(Y); the
    # boundary rows carry the L'Hopital limits +- D22 W.
    d22W = ddy_mesh(d2W, Ys)
    quot = np.empty_like(d2W)
    quot[:, 1:-1] = d2W[:, 1:-1] / np.sin(Ys[1:-1])[None, :]
    quot[:, 0] = d22W[:, 0]
    quot[:, -1] = -d22W[:, -1]
    d1_spl = _spline.not_a_knot(Ys, d1W)
    Y = np.tile(Ys, (gen.nx, 1))
    lo = np.zeros_like(Y)           # the residual is >= 0 at lo, <= 0 at hi
    hi = np.full_like(Y, _PI)
    for _ in range(_IMAGE_ITERATIONS):
        d1, d11 = _columns_at(d1_spl, Y, slope=True)
        f = np.cos(Y) - d1 - np.cos(Ys)
        busy = ~(np.max(np.abs(f), axis=1) < 1e-12)    # NaN stays busy
        if not busy.any():
            break
        lo = np.where(f > 0.0, Y, lo)
        hi = np.where(f > 0.0, hi, Y)
        df = -np.sin(Y) - d11
        newton = Y - f / np.where(df == 0.0, 1.0, df)
        inside = (np.abs(df) > 1e-14) & (lo <= newton) & (newton <= hi)
        Y = np.where(busy[:, None],
                     np.where(inside, newton, 0.5 * (lo + hi)), Y)
    else:
        raise NotGeneratingError(
            f"no admissible image angle in column {int(np.argmax(busy))}")
    if np.any(np.diff(Y, axis=1) <= 0.0):
        raise NotGeneratingError(
            "generated column is not monotone; W is too large")
    X = xs[:, None] + _columns_at(_spline.not_a_knot(Ys, quot), Y)
    Y[:, 0] = 0.0
    Y[:, -1] = _PI
    return StripMapGrid(length=L, xs=xs, ys=Ys.copy(), X=X, Y=Y)


def generating_from_map(grid):
    """Recover the normalised generating function of a monotone map.

    Column i is inverted by the spline through its own knots Y[i] with
    values y: :func:`_inverse_columns` builds all of them in one
    block-diagonal ``gtsv`` solve, which equals ``CubicSpline(Y[i], y)``
    bit for bit as no entry couples two columns, and refuses a column that
    is not finite and strictly increasing.  The one-form
    (cos Y - cos y) dx + (X - x) sin Y dY is then integrated along verticals
    of the (x, Y) mesh; the x-component provides the closure test.
    """
    _, _, _, d2Y = map_derivatives(grid)
    if np.min(d2Y) <= 0.0:
        raise PreconditionError(
            "generating function requires a monotone map (D2 Y > 0)")
    xs, ys, L = grid.xs, grid.ys, grid.length
    F = flux(grid)
    Yreg = ys
    y_of_Y = _columns_at(_inverse_columns(grid.Y, ys),
                         np.broadcast_to(Yreg, grid.Y.shape))
    y_of_Y = np.clip(y_of_Y, 0.0, _PI)
    y_of_Y[:, 0], y_of_Y[:, -1] = 0.0, _PI
    Xq = _columns_at(_spline.not_a_knot(ys, grid.X), y_of_Y)
    eta_Y = (Xq - xs[:, None]) * np.sin(Yreg)
    w = -F + _spline.antiderivative(_spline.not_a_knot(Yreg, eta_Y))
    eta_x = np.cos(Yreg)[None, :] - np.cos(y_of_Y)
    closure = float(np.max(np.abs(ddx_periodic(w, L) - eta_x)))
    if closure > IDENTITY_TOL:
        raise NonIntegrableFormError(
            f"generating one-form closure residual {closure:.3g} "
            f"exceeds {IDENTITY_TOL:.3g}")
    return GeneratingGrid(length=L, xs=xs, Ys=Yreg.copy(), w=w,
                          closure_residual=closure)


def calabi_from_generating(gen, grid):
    """Calabi invariant as (1 / 2L) of the omega-integral of
    W(x, y) + W(x, Y(x, y)); zero-flux maps only."""
    F = flux(grid)
    if not zero_flux(grid, F):
        raise PreconditionError(
            f"Calabi invariant requires zero flux (got {F:.3g})")
    total = gen.w + _columns_at(_spline.not_a_knot(gen.Ys, gen.w), grid.Y)
    return 0.5 * strip_integral(total, grid.xs, grid.ys,
                                grid.length) / grid.length


# ---------------------------------------------------------------------------
# fixed points with signed action
# ---------------------------------------------------------------------------

def _refinement_start(interior, tie):
    """Node of ``interior`` (x periodic) that starts the refinement of its
    minimum, and whether the refinement holds x fixed.

    Nodes within ``tie`` of the minimum tie: the refinement's resolution or
    the noise of W, its closure residual, whichever is larger.  A grid
    symmetry makes distinct extrema tie up to rounding.  Of the connected
    sets of tied nodes (8-neighbours), the one holding the last tied node in
    row-major order (the largest x, then the largest Y) is refined, from its
    lowest node; a single extremum thus starts at the overall minimum.  A
    set covering every column, a circle of fixed points, starts at its
    lowest node of column 0 and only Y is refined, so x is that node's.
    """
    tied = interior <= interior.min() + tie
    nx, ny = tied.shape
    last = np.unravel_index(np.flatnonzero(tied)[-1], tied.shape)
    part, todo = {last}, [last]
    while todo:
        i, j = todo.pop()
        for q in (((i + di) % nx, j + dj)
                  for di in (-1, 0, 1) for dj in (-1, 0, 1)):
            if 0 <= q[1] < ny and q not in part and tied[q]:
                part.add(q)
                todo.append(q)
    circle = len({i for i, _ in part}) == nx
    start = min(sorted(q for q in part if q[0] == 0 or not circle),
                key=interior.__getitem__)
    return (*start, circle)


def _newton_step(surf, p, circle):
    """Newton step on the gradient of the spline ``surf`` at ``p``.

    Only Hessian eigenvalues above 1e-8 of the largest are inverted, so a
    direction in which W is flat (an x-invariant W) takes no step, and each
    is inverted in size, so a direction of negative curvature steps
    downhill.  The 2 x 2 eigenpairs are in closed form, as a first LAPACK
    call would add about 1 MB to a strip-map run's peak memory.  A circle
    of fixed points steps in Y alone.
    """
    def dw(i, j):
        return float(surf.ev(p[0], p[1], dx=i, dy=j))

    if circle:
        c = dw(0, 2)
        return np.array([0.0, dw(0, 1) / abs(c) if c else 0.0])
    a, b, c = dw(2, 0), dw(1, 1), dw(0, 2)
    grad = np.array([dw(1, 0), dw(0, 1)])
    t = 0.5 * math.atan2(2.0 * b, a - c)
    m, r = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    step = np.zeros(2)
    for lam, angle in ((m + r, t), (m - r, t + 0.5 * _PI)):
        v = np.array([math.cos(angle), math.sin(angle)])
        if abs(lam) > 1e-8 * (abs(m) + r):
            step += v * (v @ grad) / abs(lam)
    return step


def _map_near(grid, x, y):
    """The map's (X, Y) at one point, from the bicubic splines of the
    displacements X - x and Y - y on the window of 10 x 10 grid nodes
    around it (periodic in x, kept inside the rows): the splines in x of
    the window columns' splines in y at y, both fields at once."""
    h, half = grid.length / grid.nx, 5
    cols = np.arange(-half + 1, half + 1) + math.floor(x / h)
    j = int(np.searchsorted(grid.ys, y)) - half
    j = max(min(j, grid.ny - 2 * half), 0)
    rows = slice(j, j + 2 * half)
    i = cols % grid.nx
    ys = grid.ys[rows]
    disp = np.vstack([grid.X[i, rows] - grid.xs[i, None],
                      grid.Y[i, rows] - ys])
    in_y = _columns_at(_spline.not_a_knot(ys, disp),
                       np.full((4 * half, 1), y))
    dX, dY = _columns_at(_spline.not_a_knot(cols * h, in_y.reshape(2, -1)),
                         np.full((2, 1), x))[:, 0]
    return x + float(dX), y + float(dY)


def fixed_point_with_signed_action(grid, gen, branch=None):
    """Interior fixed point whose action sign matches the Calabi sign.

    For a monotone zero-flux map different from the identity, the interior
    minimum (resp. maximum) of the generating function is a fixed point with
    negative (resp. positive) action.  ``branch`` may force "negative" or
    "positive"; by default it follows the sign of the Calabi invariant.

    The extremum is the critical point that Newton's method on the gradient
    of W's periodic bicubic spline reaches from the grid extremum (see
    :func:`_newton_step`).  Each step is capped at one cell and x is wrapped
    into [0, L) after it; the iteration stops once a step is below the
    rounding of W's derivatives.  The map read at that point from its own
    grid must fix it to within ``FIXED_TOL``.  Its tolerances are set for
    a = 1; the CLI normalises first.
    """
    if not zero_flux(grid, flux(grid)):
        raise PreconditionError("fixed-point theorem requires zero flux")
    if grid.sup_distance_to_identity() <= IDENTITY_MAP_EPS:
        raise PreconditionError("map is numerically the identity")
    if branch is None:
        cal = calabi_from_generating(gen, grid)
        branch = "negative" if cal <= 0.0 else "positive"
    sign = 1.0 if branch == "negative" else -1.0
    w = sign * gen.w
    i0, j0, circle = _refinement_start(
        w[:, 1:-1], max(_W_RESOLUTION, gen.closure_residual))
    j0 += 1
    xs, Ys, L = gen.xs, gen.Ys, gen.length
    surf = _periodic_spline(xs, Ys, L, w)
    cell = np.array([L / gen.nx, Ys[1] - Ys[0]])
    p = np.array([xs[i0], Ys[j0]])
    for _ in range(_NEWTON_ITERATIONS):
        step = _newton_step(surf, p, circle)
        step /= max(1.0, float(np.max(np.abs(step) / cell)))
        p = p - step
        p[0] = np.mod(p[0], L)
        # past a boundary row the spline is constant: the margin refuses
        if not 0.0 <= p[1] <= _PI or np.all(np.abs(step) <= _STEP_ROUNDING):
            break
    else:
        raise InternalConsistencyError(
            f"Newton's method found no extremum of the generating function "
            f"in {_NEWTON_ITERATIONS} steps")
    x_star, y_star = map(float, p)
    if not (cell[1] * 0.5 < y_star < _PI - cell[1] * 0.5):
        raise InternalConsistencyError(
            "extremum of the generating function landed on the boundary")
    Xq, Yq = _map_near(grid, x_star, y_star)
    if abs(Xq - x_star) > FIXED_TOL or abs(Yq - y_star) > FIXED_TOL:
        raise InternalConsistencyError(
            f"located extremum is not fixed by the map "
            f"(|dx| = {abs(Xq - x_star):.3g}, "
            f"|dy| = {abs(Yq - y_star):.3g})")
    sigma_val = float(sign * surf.ev(x_star, y_star))
    return (x_star, y_star), sigma_val


# ---------------------------------------------------------------------------
# random generating functions
# ---------------------------------------------------------------------------

def random_generating_grid(rng, length=2 * _PI, nx=96, ny=96,
                           amplitude=0.004, net_flux=0.0):
    """Seeded random admissible generating grid.

    The interior part is built from sin(Y)^2 * T(cos Y) profiles (so W and
    D2 W vanish on the boundary rows); an optional -net_flux * cos(Y) term
    realises a prescribed flux.
    """
    xs, Ys = strip_mesh(length, nx, ny)
    w = np.zeros((nx, ny))
    sin2 = np.sin(Ys) ** 2
    cosY = np.cos(Ys)
    for jy in range(_RANDOM_MODES):
        prof = sin2 * cosY ** jy
        w += rng.uniform(-amplitude, amplitude) * prof[None, :]
        for kx in range(1, _RANDOM_MODES + 1):
            ck = rng.uniform(-amplitude, amplitude) / kx
            sk = rng.uniform(-amplitude, amplitude) / kx
            w += (ck * np.cos(2 * _PI * kx * xs / length)[:, None]
                  + sk * np.sin(2 * _PI * kx * xs / length)[:, None]) \
                * prof[None, :]
    if net_flux != 0.0:
        w += -net_flux * cosY[None, :]
    return GeneratingGrid(length=length, xs=xs, Ys=Ys, w=w)
