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

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline, RectBivariateSpline
from scipy.optimize import minimize

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


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def strip_mesh(length, nx, ny):
    xs = np.arange(nx) * (length / nx)
    ys = np.linspace(0.0, _PI, ny)
    return xs, ys


def _write_node_csv(path, header, xs, ys, *values):
    """One CSV row per mesh node, x-major: the node coordinates, then each
    (nx, ny) array of ``values`` at that node, all as repr(float)."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for i in range(len(xs)):
            for j in range(len(ys)):
                wr.writerow([repr(float(xs[i])), repr(float(ys[j]))]
                            + [repr(float(v[i, j])) for v in values])


@dataclass
class StripMapGrid:
    """Discrete strip map: node values of the lift Phi = (X, Y)."""

    length: float
    xs: np.ndarray
    ys: np.ndarray
    X: np.ndarray              # (nx, ny)
    Y: np.ndarray              # (nx, ny)
    provenance: str = "synthetic"

    @property
    def nx(self):
        return len(self.xs)

    @property
    def ny(self):
        return len(self.ys)

    def displacement(self):
        return self.X - self.xs[:, None]

    def sup_distance_to_identity(self):
        return float(max(np.max(np.abs(self.displacement())),
                         np.max(np.abs(self.Y - self.ys[None, :]))))

    def evaluate(self, xq, yq):
        """Map values at off-node points, interpolating the periodic
        displacement field with bivariate splines."""
        dx_s, dy_s = _displacement_splines(self)
        xw = np.mod(xq, self.length)
        Xq = xq + dx_s.ev(xw, yq)
        Yq = np.clip(yq + dy_s.ev(xw, yq), 0.0, _PI)
        return Xq, Yq

    def validate(self, tol=IDENTITY_TOL):
        """Check the defining grid invariants; raises on violation."""
        if np.max(np.abs(self.Y[:, 0])) > 1e-7 \
                or np.max(np.abs(self.Y[:, -1] - _PI)) > 1e-7:
            raise InternalConsistencyError("boundary rows are not preserved")
        res = omega_preservation_residual(self)
        if res > tol:
            raise NonIntegrableFormError(
                f"area form not preserved at grid resolution "
                f"(residual {res:.3g} > {tol:.3g})")
        return res

    def to_csv(self, path):
        _write_node_csv(path, ["x", "y", "X", "Y"], self.xs, self.ys,
                        self.X, self.Y)

    @classmethod
    def from_csv(cls, path, length, provenance="synthetic"):
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        xs = np.unique(data[:, 0])
        ys = np.unique(data[:, 1])
        nx, ny = len(xs), len(ys)
        X = data[:, 2].reshape(nx, ny)
        Y = data[:, 3].reshape(nx, ny)
        return cls(length=length, xs=xs, ys=ys, X=X, Y=Y,
                   provenance=provenance)


@dataclass
class GeneratingGrid:
    """Node values of a generating function W on the (x, Y) mesh."""

    length: float
    xs: np.ndarray
    Ys: np.ndarray
    w: np.ndarray              # (nx, ny)

    @property
    def nx(self):
        return len(self.xs)

    @property
    def ny(self):
        return len(self.Ys)

    def boundary_values(self):
        return float(np.mean(self.w[:, 0])), float(np.mean(self.w[:, -1]))

    def to_csv(self, path):
        _write_node_csv(path, ["x", "Y", "W"], self.xs, self.Ys, self.w)

    @classmethod
    def from_csv(cls, path, length):
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        xs = np.unique(data[:, 0])
        Ys = np.unique(data[:, 1])
        return cls(length=length, xs=xs, Ys=Ys,
                   w=data[:, 2].reshape(len(xs), len(Ys)))


@dataclass
class ActionGrid:
    """Node values of the action sigma of a strip map."""

    length: float
    xs: np.ndarray
    ys: np.ndarray
    sigma: np.ndarray          # (nx, ny)
    flux: float
    closure_residual: float


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


def _diff_matrix(ys, stencil=7):
    """Dense differentiation matrix of sixth order on the (uniform) y-mesh."""
    key = (len(ys), float(ys[0]), float(ys[-1]), stencil)
    D = _DIFF_CACHE.get(key)
    if D is None:
        n = len(ys)
        D = np.zeros((n, n))
        half = stencil // 2
        for j in range(n):
            lo = min(max(j - half, 0), n - stencil)
            w = _fornberg_weights(ys[j], ys[lo:lo + stencil], 1)[:, 1]
            D[j, lo:lo + stencil] = w
        _DIFF_CACHE[key] = D
    return D


def ddy_mesh(F, ys):
    """Sixth-order y-derivative of node data (axis 1)."""
    return F @ _diff_matrix(ys).T


def strip_integral(F, xs, ys, length):
    """Integral of F * sin(y) dx dy over one period of the strip."""
    inner = simpson(F * np.sin(ys)[None, :], x=ys, axis=1)
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
    """Bicubic spline of node data F (nx, ny), periodic in x with period
    ``length`` (the mesh is padded by 4 periodic images on each side)."""
    xp = np.concatenate([xs[-4:] - length, xs, xs[:4] + length])
    Fp = np.concatenate([F[-4:], F, F[:4]], axis=0)
    return RectBivariateSpline(xp, ys, Fp, kx=3, ky=3)


def _displacement_splines(grid):
    """Periodic bicubic splines of (X - x, Y - y)."""
    return (_periodic_spline(grid.xs, grid.ys, grid.length,
                             grid.displacement()),
            _periodic_spline(grid.xs, grid.ys, grid.length,
                             grid.Y - grid.ys[None, :]))


# ---------------------------------------------------------------------------
# flux
# ---------------------------------------------------------------------------

def flux(grid):
    """(1 / 2L) of the omega-integral of the horizontal displacement."""
    return 0.5 * strip_integral(grid.displacement(), grid.xs, grid.ys,
                                grid.length) / grid.length


def flux_boundary_path(grid):
    """Flux evaluated as the line integral (1/2) of x sin(y) dy along the
    image of the fibre x = 0; cross-validates :func:`flux`."""
    Xc = grid.X[0, :]
    Yc = grid.Y[0, :]
    t = grid.ys
    dY = CubicSpline(t, Yc).derivative()(t)
    integrand = Xc * np.sin(Yc) * dY
    return 0.5 * float(CubicSpline(t, integrand).integrate(0.0, _PI))


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
    xs, ys, L = grid.xs, grid.ys, grid.length
    disp = grid.displacement()
    d1X, d2X, _, _ = map_derivatives(grid)
    cosY = np.cos(grid.Y)
    # vertical component of Phi^* lambda - lambda, integrated from y = 0
    Q = cosY * d2X
    sigma0 = disp[:, 0] - F
    sigma = sigma0[:, None] + CubicSpline(ys, Q, axis=1).antiderivative()(ys)
    # closure test against the horizontal component
    P = cosY * d1X - np.cos(ys)[None, :]
    closure = float(np.max(np.abs(ddx_periodic(sigma, L) - P)))
    if closure > IDENTITY_TOL:
        raise NonIntegrableFormError(
            f"one-form closure residual {closure:.3g} exceeds "
            f"{IDENTITY_TOL:.3g}; "
            "the map does not preserve the area form")
    return ActionGrid(length=L, xs=xs, ys=ys, sigma=sigma, flux=F,
                      closure_residual=closure)


def calabi(grid, action_grid=None):
    """Average action (1 / 2L) integral of sigma * omega; requires zero flux."""
    F = flux(grid)
    if abs(F) > FLUX_TOL:
        raise PreconditionError(
            f"Calabi invariant requires |flux| < {FLUX_TOL:g} (got {F:.3g})")
    act = action_grid if action_grid is not None else action(grid)
    return 0.5 * strip_integral(act.sigma, grid.xs, grid.ys,
                                grid.length) / grid.length


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def _columns_at(spline, Y, nu=0):
    """Column i of an axis-1 ``CubicSpline`` of (nx, ny) node data, or its
    first derivative (``nu=1``), at that column's own points ``Y[i]``.
    The interval search and power sums repeat scipy's ``PPoly`` evaluation
    term by term, so each column equals a per-column spline bit for bit.
    """
    x = spline.x
    k = np.clip(np.searchsorted(x, Y, side="right") - 1, 0, len(x) - 2)
    s = Y - x[k]
    c0, c1, c2, c3 = spline.c[:, k, np.arange(Y.shape[0])[:, None]]
    if nu == 1:
        return c2 + c1 * s * 2.0 + c0 * (s * s) * 3.0
    return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)


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
    d1_spl = CubicSpline(Ys, d1W, axis=1)
    Y = np.tile(Ys, (gen.nx, 1))
    lo = np.zeros_like(Y)           # the residual is >= 0 at lo, <= 0 at hi
    hi = np.full_like(Y, _PI)
    for _ in range(_IMAGE_ITERATIONS):
        f = np.cos(Y) - _columns_at(d1_spl, Y) - np.cos(Ys)
        busy = ~(np.max(np.abs(f), axis=1) < 1e-12)    # NaN stays busy
        if not busy.any():
            break
        lo = np.where(f > 0.0, Y, lo)
        hi = np.where(f > 0.0, hi, Y)
        df = -np.sin(Y) - _columns_at(d1_spl, Y, 1)
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
    X = xs[:, None] + _columns_at(CubicSpline(Ys, quot, axis=1), Y)
    Y[:, 0] = 0.0
    Y[:, -1] = _PI
    return StripMapGrid(length=L, xs=xs, ys=Ys.copy(), X=X, Y=Y,
                        provenance="synthetic")


def generating_from_map(grid):
    """Recover the normalised generating function of a monotone map.

    The one-form (cos Y - cos y) dx + (X - x) sin Y dY is integrated along
    verticals of the (x, Y) mesh; the x-component provides the closure test.
    """
    _, _, _, d2Y = map_derivatives(grid)
    if np.min(d2Y) <= 0.0:
        raise PreconditionError(
            "generating function requires a monotone map (D2 Y > 0)")
    xs, ys, L = grid.xs, grid.ys, grid.length
    F = flux(grid)
    Yreg = ys
    y_of_Y = np.empty((grid.nx, grid.ny))
    for i in range(grid.nx):                  # monotone columns invert
        y_of_Y[i] = CubicSpline(grid.Y[i], ys)(Yreg)
    y_of_Y = np.clip(y_of_Y, 0.0, _PI)
    y_of_Y[:, 0], y_of_Y[:, -1] = 0.0, _PI
    Xq = _columns_at(CubicSpline(ys, grid.X, axis=1), y_of_Y)
    eta_Y = (Xq - xs[:, None]) * np.sin(Yreg)
    w = -F + CubicSpline(Yreg, eta_Y, axis=1).antiderivative()(Yreg)
    eta_x = np.cos(Yreg)[None, :] - np.cos(y_of_Y)
    closure = float(np.max(np.abs(ddx_periodic(w, L) - eta_x)))
    if closure > IDENTITY_TOL:
        raise NonIntegrableFormError(
            f"generating one-form closure residual {closure:.3g} "
            f"exceeds {IDENTITY_TOL:.3g}")
    return GeneratingGrid(length=L, xs=xs, Ys=Yreg.copy(), w=w)


def action_from_generating(gen, grid):
    """Action via the generating function: sigma = W(x, Y) + (X - x) cos(Y),
    the form that stays regular on the boundary rows."""
    w_at_Y = _columns_at(CubicSpline(gen.Ys, gen.w, axis=1), grid.Y)
    sigma = w_at_Y + (grid.X - grid.xs[:, None]) * np.cos(grid.Y)
    return ActionGrid(length=grid.length, xs=grid.xs, ys=grid.ys,
                      sigma=sigma, flux=flux(grid), closure_residual=0.0)


def calabi_from_generating(gen, grid):
    """Calabi invariant as (1 / 2L) of the omega-integral of
    W(x, y) + W(x, Y(x, y)); zero-flux maps only."""
    F = flux(grid)
    if abs(F) > FLUX_TOL:
        raise PreconditionError(
            f"Calabi invariant requires |flux| < {FLUX_TOL:g} (got {F:.3g})")
    total = gen.w + _columns_at(CubicSpline(gen.Ys, gen.w, axis=1), grid.Y)
    return 0.5 * strip_integral(total, grid.xs, grid.ys,
                                grid.length) / grid.length


# ---------------------------------------------------------------------------
# fixed points with signed action
# ---------------------------------------------------------------------------

def _refinement_start(interior):
    """Node of ``interior`` (x periodic) that starts the refinement of its
    minimum.

    Nodes within the refinement's resolution of the minimum tie, and a grid
    symmetry makes distinct extrema tie up to rounding.  Of the connected
    sets of tied nodes (8-neighbours), the one holding the last tied node in
    row-major order (the largest x, then the largest Y) is refined, from its
    lowest node; a single extremum, or a plateau along a circle of fixed
    points, thus starts at the overall minimum.
    """
    tied = interior <= interior.min() + _W_RESOLUTION
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
    return min(sorted(part), key=interior.__getitem__)


def fixed_point_with_signed_action(grid, gen, branch=None):
    """Interior fixed point whose action sign matches the Calabi sign.

    For a monotone zero-flux map different from the identity, the interior
    minimum (resp. maximum) of the generating function is a fixed point with
    negative (resp. positive) action.  ``branch`` may force "negative" or
    "positive"; by default it follows the sign of the Calabi invariant.
    """
    F = flux(grid)
    if abs(F) > FLUX_TOL:
        raise PreconditionError("fixed-point theorem requires zero flux")
    if grid.sup_distance_to_identity() <= IDENTITY_MAP_EPS:
        raise PreconditionError("map is numerically the identity")
    if branch is None:
        cal = calabi_from_generating(gen, grid)
        branch = "negative" if cal <= 0.0 else "positive"
    sign = 1.0 if branch == "negative" else -1.0
    w = sign * gen.w
    i0, j0 = _refinement_start(w[:, 1:-1])
    j0 += 1
    xs, Ys, L = gen.xs, gen.Ys, gen.length
    surf = _periodic_spline(xs, Ys, L, w)      # for local refinement
    res = minimize(lambda p: float(surf.ev(p[0], p[1])),
                   x0=np.array([xs[i0], Ys[j0]]),
                   method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": _W_RESOLUTION,
                            "maxiter": 400})
    # Nelder-Mead stops where W is flat to its function tolerance, about
    # 1e-8 from the extremum; Newton steps on the spline's gradient pin the
    # critical point.  Only Hessian eigenvalues above 1e-8 of the largest
    # are inverted, so a direction in which W is flat (an x-invariant W)
    # takes no step.  The 2 x 2 eigenpairs are in closed form, as a first
    # LAPACK call would add about 1 MB to a strip-map run's peak memory.
    p = np.array([np.mod(res.x[0], L), res.x[1]])

    def dw(i, j):
        return float(surf.ev(p[0], p[1], dx=i, dy=j))

    for _ in range(4):
        a, b, c = dw(2, 0), dw(1, 1), dw(0, 2)
        grad = np.array([dw(1, 0), dw(0, 1)])
        t = 0.5 * math.atan2(2.0 * b, a - c)
        m, r = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
        for lam, angle in ((m + r, t), (m - r, t + 0.5 * _PI)):
            v = np.array([math.cos(angle), math.sin(angle)])
            if abs(lam) > 1e-8 * (abs(m) + r):
                p -= v * (v @ grad) / lam
    x_star = float(np.mod(p[0], L))
    y_star = float(np.clip(p[1], 0.0, _PI))
    margin = Ys[1] - Ys[0]
    if not (margin * 0.5 < y_star < _PI - margin * 0.5):
        raise InternalConsistencyError(
            "extremum of the generating function landed on the boundary")
    Xq, Yq = grid.evaluate(np.array([x_star]), np.array([y_star]))
    if abs(Xq[0] - x_star) > FIXED_TOL or abs(Yq[0] - y_star) > FIXED_TOL:
        raise InternalConsistencyError(
            f"located extremum is not fixed by the map "
            f"(|dx| = {abs(Xq[0] - x_star):.3g}, "
            f"|dy| = {abs(Yq[0] - y_star):.3g})")
    sigma_val = float(sign * surf.ev(x_star, y_star))
    return (x_star, y_star), sigma_val


# ---------------------------------------------------------------------------
# synthetic constructors
# ---------------------------------------------------------------------------

def identity_map(length=2 * _PI, nx=96, ny=96):
    xs, ys = strip_mesh(length, nx, ny)
    X = np.tile(xs[:, None], (1, ny)).astype(float)
    Y = np.tile(ys[None, :], (nx, 1)).astype(float)
    return StripMapGrid(length=length, xs=xs, ys=ys, X=X, Y=Y)


def translation_map(c, length=2 * _PI, nx=96, ny=96):
    g = identity_map(length, nx, ny)
    return StripMapGrid(length=length, xs=g.xs, ys=g.ys, X=g.X + c, Y=g.Y)


def shear_map(f, length=2 * _PI, nx=96, ny=96):
    """(x, y) -> (x + f(y), y); preserves omega for any smooth f."""
    g = identity_map(length, nx, ny)
    shift = np.asarray(f(g.ys), dtype=float)
    return StripMapGrid(length=length, xs=g.xs, ys=g.ys,
                        X=g.X + shift[None, :], Y=g.Y)


def compose_maps(outer, inner):
    """Grid of outer o inner, interpolating the outer displacement field."""
    if abs(outer.length - inner.length) > 1e-12:
        raise PreconditionError("maps must share the same period")
    Xq, Yq = outer.evaluate(inner.X, inner.Y)
    return StripMapGrid(length=inner.length, xs=inner.xs, ys=inner.ys,
                        X=Xq, Y=Yq, provenance="synthetic")


def random_generating_grid(rng, length=2 * _PI, nx=96, ny=96,
                           amplitude=0.004, net_flux=0.0, modes_x=2,
                           modes_y=2):
    """Seeded random admissible generating grid.

    The interior part is built from sin(Y)^2 * T(cos Y) profiles (so W and
    D2 W vanish on the boundary rows); an optional -net_flux * cos(Y) term
    realises a prescribed flux.
    """
    xs, Ys = strip_mesh(length, nx, ny)
    w = np.zeros((nx, ny))
    sin2 = np.sin(Ys) ** 2
    cosY = np.cos(Ys)
    for jy in range(modes_y):
        prof = sin2 * cosY ** jy
        w += rng.uniform(-amplitude, amplitude) * prof[None, :]
        for kx in range(1, modes_x + 1):
            ck = rng.uniform(-amplitude, amplitude) / kx
            sk = rng.uniform(-amplitude, amplitude) / kx
            w += (ck * np.cos(2 * _PI * kx * xs / length)[:, None]
                  + sk * np.sin(2 * _PI * kx * xs / length)[:, None]) \
                * prof[None, :]
    if net_flux != 0.0:
        w += -net_flux * cosY[None, :]
    return GeneratingGrid(length=length, xs=xs, Ys=Ys, w=w)
