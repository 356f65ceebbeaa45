"""Transversal annulus over a simple closed geodesic and its return data.

The annulus over a closed geodesic gamma consists of the unit tangent
vectors based on gamma that point into one of the two disks it bounds,
charted by (x, y): x the arc parameter along gamma, y the angle from
gamma'(x).  All base geodesics handled here lie on a plane through the
origin of the chart sphere (the equator and the meridians of a revolution
metric, and every geodesic of the round one), so hits of the flowed orbit
on the annulus are roots of the scalar height u . n, with n the plane
normal: downward crossings land on the opposite annulus, upward crossings
return to the original one.

The first-return data (X, Y, tau) is assembled on a periodic-by-closed grid
over [0, L) x [0, pi].  Interior nodes are integrated in batches; boundary
rows are not integrated at all: there the return time is the second
conjugate time along gamma (forward along the lower row, backward along the
upper one) and the footpoint advance equals that time, which pins the lift

    X = x + rho - L,     rho = rho_plus + rho_minus in [0, 2L),

whose flux vanishes.  Each leg advance rho_{+,-} is the unique arc-position
representative in [0, L); this is well defined because each leg of the
return arc is injective when the curvature is pinched above 1/4, which is
what the sampled self-intersection test in :func:`zero_flux_lift` checks.

Every model is a surface of revolution about e3.  Isometries that map the
annulus onto itself commute with the return map.  Over the equator these are
the rotations about e3, so by Clairaut's integral the return map is an
x-invariant shear (x, y) -> (x + Theta(y), y); over a meridian of a surface
symmetric under z -> -z, a reflection and, for an even number of grid
columns, a half turn.  :func:`compute_return_grid` integrates a fundamental
domain of that group on the grid plus a few seeded check nodes, verifies the
check nodes against the group's field laws and fills the grid from the
domain.  Every other base (a meridian of a surface without that symmetry, a
great circle of the round sphere tilted against the axis) gets the trivial
group, whose domain is every grid node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.spatial import cKDTree

from . import geodesic_dynamics as gd
from . import metric_models as mm
from . import strip_calculus as sc
from ._integrate import integrate_adaptive, sweep_linear_events
from .errors import (InternalConsistencyError, PinchingViolationError,
                     PreconditionError, ReturnFailure, SectionInvalidError)

_TWO_PI = 2.0 * math.pi

STATUS_OK = 0
STATUS_GRAZING = 1
STATUS_MISSING = 2

# Most interior orbits integrated in one return sweep.  A sweep holds the
# stages and events of all its orbits at once, so its memory grows with its
# size; the oblate audit's 2,350-orbit sweep (the 96 x 96 meridian domain and
# its checks) is the peak already accepted against the `peak_rss_mb` bound.
_SWEEP_ORBITS = 2400
_CHECK_COLUMNS = 4         # columns checked against column 0 on the equator
_AXIS_TILT = 1e-12         # largest misalignment of a normal with the axis
_GRID_FIELDS = ("X", "Y", "tau", "tau_plus", "rho_plus", "jac_angle",
                "jac_du", "status")
# Return-sweep horizon in units of 2 pi / sqrt(min K).
_HORIZON_FACTOR = 3.0
_ADJACENT_SEGMENTS = 3   # segments this close in index are neighbours
_MAX_FOLD = 6            # largest cover order minimal_period_fold tries
_ARC_SAMPLES = 600       # dense-output samples per leg of a checked arc
_BOUNDARY_ROWS = 5       # interior rows extrapolated onto a boundary row
MONOTONE_CROSSCHECK_TOL = 1e-4   # |D2 Y - jac_du| bound of the report


# ---------------------------------------------------------------------------
# curve self-intersection machinery
# ---------------------------------------------------------------------------

def _segment_pair_distance(p1, q1, p2, q2):
    """Minimum distance between segments [p1, q1] and [p2, q2] in R^3."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = d1 @ d1
    e = d2 @ d2
    f = d2 @ r
    c = d1 @ r
    b = d1 @ d2
    denom = a * e - b * b
    s = np.clip((b * f - c * e) / denom, 0.0, 1.0) if denom > 1e-30 else 0.0
    t = (b * s + f) / e if e > 1e-30 else 0.0
    if t < 0.0:
        t = 0.0
        s = np.clip(-c / a, 0.0, 1.0) if a > 1e-30 else 0.0
    elif t > 1.0:
        t = 1.0
        s = np.clip((b - c) / a, 0.0, 1.0) if a > 1e-30 else 0.0
    diff = (p1 + s * d1) - (p2 + t * d2)
    return math.sqrt(diff @ diff)


def curve_self_intersects(points, closed=True, resolution=1e-6):
    """Whether a polyline in R^3 approaches itself closer than ``resolution``
    away from parameter-adjacent segments."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    segs_a = pts
    segs_b = np.roll(pts, -1, axis=0) if closed else pts[1:]
    nseg = n if closed else n - 1
    mids = 0.5 * (segs_a[:nseg] + segs_b[:nseg])
    seg_len = np.max(np.linalg.norm(segs_b[:nseg] - segs_a[:nseg], axis=1))
    tree = cKDTree(mids)
    pairs = tree.query_pairs(r=2.0 * seg_len + resolution)
    for i, j in pairs:
        gap = min(abs(i - j), nseg - abs(i - j)) if closed else abs(i - j)
        if gap <= _ADJACENT_SEGMENTS:
            continue
        d = _segment_pair_distance(segs_a[i], segs_b[i % n],
                                   segs_a[j], segs_b[j % n])
        if d < resolution:
            return True
    return False


def minimal_period_fold(orbit, tol=1e-7):
    """Smallest integer m > 1 such that the stored orbit is an m-fold cover
    of a shorter closed orbit, or 1 if it is primitive."""
    states = orbit.states
    n = len(states)
    for m in range(2, _MAX_FOLD + 1):
        if n % m:
            continue
        shift = n // m
        if np.max(np.abs(states - np.roll(states, -shift, axis=0))) < tol:
            return m
    return 1


# ---------------------------------------------------------------------------
# the section
# ---------------------------------------------------------------------------

@dataclass
class BirkhoffSection:
    """Annulus chart over a planar simple closed geodesic."""

    model: mm.MetricModel
    orbit: gd.ClosedOrbit
    normal: np.ndarray
    length: float
    _alpha_spline: CubicSpline = field(repr=False, default=None)
    _alpha0: float = 0.0

    def frames(self, x):
        """(u, gamma', gamma'_perp) at arc positions x (vectorised)."""
        u, v = self.orbit.at(np.asarray(x, dtype=float))
        raw = np.cross(u, v)
        nrm = np.sqrt(self.model.dot(u, raw, raw))
        return u, v, raw / nrm[..., None]

    def section_vector(self, x, y):
        """Ambient (point, direction) of the annulus vector at (x, y)."""
        u, t, p = self.frames(x)
        y = np.asarray(y, dtype=float)
        w = np.cos(y)[..., None] * t + np.sin(y)[..., None] * p
        return u, w

    def footpoint(self, points):
        """Arc positions in [0, L) of points lying on the base circle."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        alpha = np.arctan2(pts @ self._p2, pts @ self._p1)
        rel = np.mod(alpha - self._alpha0, _TWO_PI)
        x = self._alpha_spline(rel)
        return np.mod(x, self.length)

    def angles_of(self, x, w):
        """Annulus angle of tangent vectors w based at arc positions x,
        in (-pi, pi] (positive on the annulus itself)."""
        u, t, p = self.frames(x)
        ct = self.model.dot(u, w, t)
        st = self.model.dot(u, w, p)
        return np.arctan2(st, ct)


def build_section(model, orbit=None, resolution=1e-6):
    """Annulus over ``orbit`` (default: the equatorial geodesic).

    The base curve must be simple at the given spatial resolution and must
    lie on a plane through the origin of the chart sphere; otherwise a
    :class:`SectionInvalidError` is raised.
    """
    if orbit is None:
        orbit = gd.equator_orbit(model)
    pts = orbit.states[:, 0:3]
    if curve_self_intersects(pts, closed=True, resolution=resolution):
        raise SectionInvalidError("base curve is not simple at resolution "
                                  f"{resolution:g}")
    normal = orbit.plane_normal() if hasattr(orbit, "plane_normal") else None
    if normal is None:
        raise SectionInvalidError(
            "base geodesic does not lie on a central plane; only planar "
            "base curves are supported")
    sec = BirkhoffSection(model=model, orbit=orbit, normal=normal,
                          length=orbit.length)
    # Orient the normal towards the positive side of the annulus.
    u0, t0, p0 = sec.frames(0.0)
    if float(p0 @ normal) < 0.0:
        normal = -normal
        sec.normal = normal
    # Arc position as a function of the in-plane angle (strictly monotone).
    p1 = u0 / np.linalg.norm(u0)
    p2 = np.cross(normal, p1)
    sec._p1, sec._p2 = p1, p2
    ts = np.linspace(0.0, orbit.length, 4096, endpoint=False)
    us, _ = orbit.at(ts)
    alpha = np.unwrap(np.arctan2(us @ p2, us @ p1))
    if alpha[1] < alpha[0]:
        raise SectionInvalidError("base curve orientation is degenerate")
    sec._alpha0 = alpha[0]
    rel = alpha - alpha[0]
    rel_ext = np.concatenate([rel, [_TWO_PI]])
    ts_ext = np.concatenate([ts, [orbit.length]])
    sec._alpha_spline = CubicSpline(rel_ext, ts_ext)
    return sec


# ---------------------------------------------------------------------------
# return data
# ---------------------------------------------------------------------------

@dataclass
class ReturnSample:
    """First-return record of one annulus vector."""

    x: float
    y: float
    tau_plus: float
    tau: float
    rho_plus: float
    rho: float
    X: float
    Y: float
    jac_angle: float
    jac_du: float
    status: int = STATUS_OK


@dataclass
class BirkhoffGrid:
    """Sampled return data of the annulus over the base geodesic."""

    section: BirkhoffSection
    L: float
    xs: np.ndarray
    ys: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    tau: np.ndarray
    tau_plus: np.ndarray
    rho_plus: np.ndarray
    jac_angle: np.ndarray      # lifted Jacobi angle at the return time
    jac_du: np.ndarray         # transversal Jacobi derivative at the return
    status: np.ndarray

    @property
    def nx(self):
        return len(self.xs)

    @property
    def ny(self):
        return len(self.ys)

    def require_clean(self):
        if np.any(self.status != STATUS_OK):
            bad = int(np.sum(self.status != STATUS_OK))
            raise InternalConsistencyError(
                f"{bad} grid nodes are flagged; returns are unreliable")

    def to_csv(self, path):
        sc._write_node_csv(path, ["x", "y", "X", "Y", "tau"], self.xs,
                           self.ys, self.X, self.Y, self.tau)

    def summary(self, model=None):
        lift = zero_flux_lift(self, arc_check_nodes=0)
        out = {
            "L": self.L,
            "nx": self.nx,
            "ny": self.ny,
            "flux": sc.flux(lift),
            "sup_distance_to_identity": lift.sup_distance_to_identity(),
            "tau_min": float(np.min(self.tau)),
            "tau_max": float(np.max(self.tau)),
        }
        act = sc.action(lift)
        out["cal"] = (sc.calabi(lift, action_grid=act)
                      if abs(out["flux"]) < sc.FLUX_TOL else None)
        out["residuals"] = {
            "tau_action_max": verify_tau_action_identity(self, lift, act),
            "omega_preservation_max": sc.omega_preservation_residual(lift),
        }
        if model is not None:
            out["residuals"]["area_identity_rel"] = \
                verify_area_identity(self, lift, model, action_grid=act)
            out["residuals"]["contact_volume_rel"] = \
                contact_volume_check(self, model)
        return out


def return_data(section, x, y, rtol=1e-10, atol=1e-12,
                horizon_factor=_HORIZON_FACTOR):
    """First-return record of the annulus vector at (x, y).

    Interior angles are integrated with event detection; the boundary rows
    y in {0, pi} are resolved through the second conjugate time along the
    base geodesic (forward/backward respectively).
    """
    if not (0.0 <= y <= math.pi):
        raise PreconditionError("y must lie in [0, pi]")
    xs = np.array([float(x)])
    if y == 0.0 or y == math.pi:
        out = _boundary_returns(section, xs, y == math.pi, rtol, atol)
    else:
        out = _returns(section, xs, np.array([float(y)]), rtol, atol,
                       _horizon(section.model, horizon_factor))
        if out["status"][0] == STATUS_MISSING:
            raise ReturnFailure(
                "return events not found within horizon factor "
                f"{horizon_factor}")
    return ReturnSample(x=float(x), y=float(y),
                        **{k: v[0].item() for k, v in out.items()})


def _horizon(model, factor):
    kmin, _ = mm.curvature_extremes(model)
    return factor * _TWO_PI / math.sqrt(kmin)


def _return_sweep(section, xs, ys, rtol, atol, horizon, slopes=(-1, +1)):
    """Crossings of the base plane by the orbits of the annulus vectors at
    matched coordinates (xs, ys), one event per expected slope."""
    model = section.model
    u, w = section.section_vector(xs, ys)
    seeds = np.zeros((len(u), 8))
    seeds[:, 0:3] = u
    seeds[:, 3:6] = w
    wev = np.zeros(8)
    wev[0:3] = section.normal
    return sweep_linear_events(gd.geodesic_rhs(model, jacobi=True), seeds,
                               horizon, wev, target=0.0,
                               n_events=len(slopes), expected_slopes=slopes,
                               rtol=rtol, atol=atol,
                               project=gd.state_projector(model))


def _returns(section, xs, ys, rtol, atol, horizon):
    """Return-data arrays (the fields of :class:`ReturnSample` other than
    x, y) for matched arrays of interior coordinates; flagged nodes are
    NaN."""
    L = section.length
    sweep = _return_sweep(section, xs, ys, rtol, atol, horizon)
    y1 = sweep.y_events[:, 0]
    y2 = sweep.y_events[:, 1]
    x1 = section.footpoint(y1[:, 0:3])
    x2 = section.footpoint(y2[:, 0:3])
    rho_plus = (x1 - xs) % L
    rho = rho_plus + (x2 - x1) % L
    out = {"tau_plus": sweep.t_events[:, 0], "tau": sweep.t_events[:, 1],
           "rho_plus": rho_plus, "rho": rho, "X": xs + rho - L,
           "Y": section.angles_of(x2, y2[:, 3:6]), "jac_angle": y2[:, 6],
           "jac_du": np.exp(y2[:, 7]) * np.cos(y2[:, 6])}
    status = np.where(sweep.grazing, STATUS_GRAZING,
                      np.where(sweep.n_found < 2, STATUS_MISSING, STATUS_OK))
    for v in out.values():
        v[status != STATUS_OK] = np.nan
    out["status"] = status
    return out


def _boundary_returns(section, xs, backward, rtol, atol):
    """Return-data arrays of a boundary row from the second conjugate time
    along the base."""
    L = section.length
    n = len(xs)
    u, t, _ = section.frames(xs)
    seeds = np.zeros((n, 8))
    seeds[:, 0:3] = u
    seeds[:, 3:6] = -t if backward else t
    tau, y_end = gd._conjugate_sweep(section.model, seeds, 2, rtol, atol)
    rho = 2.0 * L - tau if backward else tau
    escaped = ~((0.0 < rho) & (rho < 2.0 * L))
    if np.any(escaped):
        raise PinchingViolationError(
            f"boundary advance {rho[escaped][0]:.6g} escapes (0, 2L); the "
            "lift pinning hypotheses fail for this metric")
    return {"tau_plus": np.full(n, np.nan), "tau": tau,
            "rho_plus": np.full(n, np.nan), "rho": rho, "X": xs + rho - L,
            "Y": np.full(n, math.pi if backward else 0.0),
            "jac_angle": np.full(n, _TWO_PI), "jac_du": np.exp(y_end[:, 7]),
            "status": np.full(n, STATUS_OK)}


def _grid_symmetry(section, nx, ny):
    """The symmetry group of the annulus grid (see
    :func:`compute_return_grid`) as (nx, ny) arrays: ``rep``, the flat index
    i * ny + j of the node of the fundamental domain (the smallest flat
    index of each orbit) that a node is the image of; ``flip``, whether that
    element reflects the annulus; ``check``, the seeded check nodes.  The
    trivial group makes every node its own representative and checks
    none."""
    n = section.normal
    I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    maps = [(I, J, False)]
    check_columns = False
    if math.hypot(n[0], n[1]) < _AXIS_TILT:
        # The equator: the rotations shift the columns (generated one at a
        # time, as there are nx of them).
        maps = (((I + k) % nx, J, False) for k in range(nx))
        check_columns = True
    elif (abs(n[2]) < _AXIS_TILT and not np.any(section.model.b_coef[1::2])
          and abs(section.frames(0.0)[0][2]) < _AXIS_TILT):
        # A meridian launched from the equator: the reflection z -> -z maps
        # (x, y) to (-x, pi - y); for even nx, the half turn about the plane
        # normal shifts x by L/2, and it composes with the reflection.
        h = nx // 2
        maps = [(I, J, False), ((I + h) % nx, J, False),
                (-I % nx, ny - 1 - J, True), ((h - I) % nx, ny - 1 - J, True)]
        if nx % 2:
            maps = maps[::2]
    node = I * ny + J
    rep, flip = node, np.zeros((nx, ny), dtype=bool)
    for gi, gj, reflects in maps:
        image = gi * ny + gj
        flip = np.where(image < rep, reflects, flip)
        rep = np.minimum(image, rep)
    rng = np.random.default_rng(0)
    check = np.zeros((nx, ny), dtype=bool)
    if check_columns:
        # whole columns, so the sweep is the one of column 0 and its checks
        check[rng.choice(np.arange(1, nx), size=min(_CHECK_COLUMNS, nx - 1),
                         replace=False)] = True
    else:
        outside = np.flatnonzero(rep != node)
        check.flat[rng.choice(outside, size=min(ny, len(outside)),
                              replace=False)] = True
    return rep, flip, check


def _symmetric_returns(section, xs, ys, rep, flip, check, rtol, atol):
    """Return-data arrays of shape (len(xs), len(ys)) filled from the
    fundamental domain of the grid symmetry group (see
    :func:`_grid_symmetry`).

    The interior nodes of the domain and the check nodes are integrated in
    row-major order, split evenly into sweeps of at most ``_SWEEP_ORBITS``
    orbits; boundary nodes come from the conjugate times.  A rotation keeps
    every field but X - x; a reflection maps X - x to -(X - x), Y to
    pi - Y and rho_plus to L - rho_plus, and keeps the other fields.  Every
    check node must repeat what its domain node predicts: equal status, and
    X - x and the other fields within ``rtol`` times max(1, |value|);
    otherwise :class:`InternalConsistencyError`.
    Symmetric orbits of one sweep differ only by rounding (1e-14 to 1e-12
    relative), as a sweep steps all its orbits alike; orbits of different
    sweeps differ within the integration tolerance."""
    nx, ny = len(xs), len(ys)
    swept = (rep == np.arange(nx * ny).reshape(nx, ny)) | check
    vals = {k: np.empty((nx, ny), dtype=int if k == "status" else float)
            for k in _GRID_FIELDS}

    def store(ii, jj, out):
        for k in _GRID_FIELDS:
            vals[k][ii, jj] = out[k]

    jj, ii = np.nonzero(swept[:, 1:-1].T)
    horizon = _horizon(section.model, _HORIZON_FACTOR)
    for part in np.array_split(np.arange(len(ii)),
                               -(-len(ii) // _SWEEP_ORBITS)):
        i, j = ii[part], jj[part] + 1
        store(i, j, _returns(section, xs[i], ys[j], rtol, atol, horizon))
    for j, backward in ((0, False), (ny - 1, True)):
        ii = np.flatnonzero(swept[:, j])
        store(ii, j, _boundary_returns(section, xs[ii], backward, rtol, atol))

    ri, rj = np.divmod(rep, ny)
    out = {k: v[ri, rj] for k, v in vals.items()}
    out["X"] = xs[:, None] + np.where(flip, -1.0, 1.0) * (out["X"] - xs[ri])
    out["Y"] = np.where(flip, math.pi - out["Y"], out["Y"])
    out["rho_plus"] = np.where(flip, section.length - out["rho_plus"],
                               out["rho_plus"])
    if np.any(out["status"][check] != vals["status"][check]):
        raise InternalConsistencyError(
            "grid symmetry check nodes disagree in their node status")
    ok = check & (vals["status"] == STATUS_OK)
    x_ok = np.broadcast_to(xs[:, None], ok.shape)[ok]
    for k in _GRID_FIELDS[:-1]:
        shift = x_ok if k == "X" else 0.0
        want, got = out[k][ok] - shift, vals[k][ok] - shift
        err = np.abs(got - want)
        if np.any(err > rtol * np.maximum(1.0, np.abs(want))):
            raise InternalConsistencyError(
                f"grid symmetry check nodes disagree in {k} by "
                f"{np.nanmax(err):.3g}; the return map does not commute with "
                "the symmetry group of the annulus")
    return out


def compute_return_grid(section, nx=96, ny=96, rtol=1e-10, atol=1e-12):
    """First-return data over the full annulus grid.

    Isometries of the model that map the annulus onto itself commute with
    the return map.  Every grid gets the group of those that act on it, and
    only its fundamental domain and seeded check nodes are integrated; the
    domain fills the grid by the group's field laws after every check node
    has repeated them (see :func:`_symmetric_returns`):

    * over the equator, the rotations about the axis by 2 pi k / nx: the
      return map is the x-invariant shear (x, y) -> (x + Theta(y), y).
      Column 0 is the domain; ``_CHECK_COLUMNS`` seeded columns are checked.
    * over a meridian launched from the equator, when b is even in z (the
      odd ``b_coef`` entries vanish: round and spheroid), the reflection
      (i, j) -> (-i mod nx, ny - 1 - j).  For even nx it joins the half
      turn (i, j) -> (i + nx/2, j) and their composite in a Klein
      four-group, whose domain is columns 0 to nx/4, the first and last of
      them only up to row (ny - 1)/2, about a quarter of the grid; for odd
      nx the domain is about half of the grid.  ny nodes are checked.
    * on every other grid (a meridian of a model whose b is not even in z,
      a base plane neither containing nor normal to the axis) the trivial
      group: every node is integrated and none is checked.

    The orbits of a sweep share a step controller (the error norm is still
    per orbit), so node values depend on the batch layout within the
    integration tolerance: a one-node :func:`return_data` call differs from
    its grid node by about 1e-12.
    """
    if nx < 1 or ny < 3:
        raise PreconditionError(f"a return grid needs nx >= 1 and ny >= 3 "
                                f"(an interior row); got {nx} x {ny}")
    L = section.length
    xs = np.arange(nx) * (L / nx)
    ys = np.linspace(0.0, math.pi, ny)
    arrays = _symmetric_returns(section, xs, ys,
                                *_grid_symmetry(section, nx, ny), rtol, atol)

    grid = BirkhoffGrid(section=section, L=L, xs=xs, ys=ys, **arrays)
    ok = grid.status == STATUS_OK
    if np.any((grid.tau <= 0.0) & ok):
        raise InternalConsistencyError("non-positive return time on the grid")
    return grid


# ---------------------------------------------------------------------------
# the zero-flux lift and the bridge identities
# ---------------------------------------------------------------------------

def zero_flux_lift(grid, arc_check_nodes=12):
    """Strip map carrying the return data, with the canonical zero-flux lift.

    The advance-based lift is trusted only if the sampled return arcs are
    injective (each leg separately); a detected self-intersection raises
    :class:`PinchingViolationError`.  The vanishing of the flux is verified,
    not assumed.
    """
    grid.require_clean()
    if arc_check_nodes:
        check_return_arc_injectivity(grid, n_nodes=arc_check_nodes)
    lift = sc.StripMapGrid(length=grid.L, xs=grid.xs.copy(),
                           ys=grid.ys.copy(), X=grid.X.copy(),
                           Y=grid.Y.copy(), provenance="birkhoff")
    F = sc.flux(lift)
    if abs(F) > sc.FLUX_TOL:
        raise InternalConsistencyError(
            f"advance-based lift has flux {F:.3g}, expected 0 within "
            f"{sc.FLUX_TOL:g}")
    return lift


def check_return_arc_injectivity(grid, n_nodes=12, resolution=1e-6,
                                 rtol=1e-10, atol=1e-12):
    """Sampled verification that each return-arc leg is an injective curve.

    The sampled orbits are integrated as one batch up to the longest return
    time; each leg is sampled from its own orbit's dense output."""
    model = grid.section.model
    rng = np.random.default_rng(0)
    ii = rng.integers(0, grid.nx, size=n_nodes)
    jj = rng.integers(1, grid.ny - 1, size=n_nodes)
    u, w = grid.section.section_vector(grid.xs[ii], grid.ys[jj])
    t_mid, t_end = grid.tau_plus[ii, jj], grid.tau[ii, jj]
    _, _, dense = integrate_adaptive(
        gd.geodesic_rhs(model), np.hstack([u, w]), (0.0, np.max(t_end)),
        rtol=rtol, atol=atol, project=gd.state_projector(model), store=True)
    for n, (i, j) in enumerate(zip(ii, jj)):
        ts = np.linspace([0.0, t_mid[n]], [t_mid[n], t_end[n]], _ARC_SAMPLES,
                         axis=1)
        legs = dense(ts.ravel(), row=n)[:, 0:3].reshape(2, _ARC_SAMPLES, 3)
        for pts in legs:
            if curve_self_intersects(pts, closed=False,
                                     resolution=resolution):
                raise PinchingViolationError(
                    f"return arc through node ({i}, {j}) self-intersects; "
                    "the advance pinning hypotheses fail")


def verify_tau_action_identity(grid, lift, action_grid=None, ):
    """max |tau - L - sigma| over the grid: the return time must equal the
    base length plus the action of the zero-flux lift."""
    act = action_grid if action_grid is not None else sc.action(lift)
    return float(np.max(np.abs(grid.tau - grid.L - act.sigma)))


def verify_area_identity(grid, lift, model, action_grid=None):
    """Relative residual of pi * Area = L^2 + L * CAL."""
    cal = sc.calabi(lift, action_grid=action_grid)
    target = math.pi * mm.area(model)
    return abs(target - grid.L ** 2 - grid.L * cal) / target


def contact_volume_check(grid, model):
    """Relative residual of the unit-tangent volume identity: the
    tau-weighted area of the annulus must equal 2 pi * Area."""
    vol = sc.strip_integral(grid.tau, grid.xs, grid.ys, grid.L)
    target = _TWO_PI * mm.area(model)
    return abs(vol - target) / target


@dataclass
class MonotonicityReport:
    min_d2Y_fd: float
    min_d2Y_jacobi: float
    max_discrepancy: float
    monotone: bool

    @property
    def passed(self):
        return (self.monotone
                and self.max_discrepancy < MONOTONE_CROSSCHECK_TOL)


def monotonicity_check(grid):
    """Vertical derivative of the angle component, two ways.

    Finite differences of the grid are compared against the transversal
    Jacobi derivative at the return time, which equals D2 Y identically.
    """
    if grid.ny < 64:
        raise PreconditionError("monotonicity check requires ny >= 64")
    d2Y = 1.0 + sc.ddy_mesh(grid.Y - grid.ys[None, :], grid.ys)
    disc = np.abs(d2Y - grid.jac_du)
    rep = MonotonicityReport(
        min_d2Y_fd=float(np.min(d2Y)),
        min_d2Y_jacobi=float(np.min(grid.jac_du)),
        max_discrepancy=float(np.max(disc)),
        monotone=bool(np.min(d2Y) > 0.0 and np.min(grid.jac_du) > 0.0),
    )
    return rep


def jacobi_angle_window(grid, delta):
    """Window check for the lifted Jacobi angle at the return time.

    Valid for models normalised to max K = 1: every return angle must lie in
    [delta (4 pi - 2 pi / sqrt(delta)), 4 pi / sqrt(delta) - 2 pi] and its
    cosine must be positive.
    """
    lo = delta * (4.0 * math.pi - _TWO_PI / math.sqrt(delta))
    hi = 4.0 * math.pi / math.sqrt(delta) - _TWO_PI
    ang = grid.jac_angle[:, 1:-1]
    inside = bool(np.all(ang >= lo - 1e-9) and np.all(ang <= hi + 1e-9))
    cos_pos = bool(np.all(np.cos(ang) > 0.0))
    return {"lower": lo, "upper": hi,
            "min_angle": float(np.min(ang)), "max_angle": float(np.max(ang)),
            "inside": inside, "cos_positive": cos_pos}


def boundary_consistency_check(grid):
    """Polynomial extrapolation of interior return times onto the boundary
    rows, compared with the conjugate-time values computed there."""
    ys = grid.ys
    out = []
    for edge in (0, -1):
        inner = (slice(1, 1 + _BOUNDARY_ROWS) if edge == 0
                 else slice(-1 - _BOUNDARY_ROWS, -1))
        coef = np.polynomial.polynomial.polyfit(
            ys[inner], grid.tau[:, inner].T, _BOUNDARY_ROWS - 1)
        extrap = np.polynomial.polynomial.polyval(ys[edge], coef)
        out.append(float(np.max(np.abs(extrap - grid.tau[:, edge]))))
    return max(out)


def composition_identity_check(grid, n_nodes=10, rtol=1e-10, atol=1e-12):
    """Re-seeded composition residuals on a node subsample.

    The intermediate hit of each return orbit is converted to coordinates on
    the opposite annulus and re-integrated from there; the identity
    tau = tau_+ + tau_- o phi_+ and the factorisation of the return map
    must be reproduced within integration accuracy.
    """
    sec = grid.section
    rng = np.random.default_rng(1)
    ii = rng.integers(0, grid.nx, size=n_nodes)
    jj = rng.integers(1, grid.ny - 1, size=n_nodes)
    horizon = _horizon(sec.model, _HORIZON_FACTOR)
    sweep = _return_sweep(sec, grid.xs[ii], grid.ys[jj], rtol, atol, horizon)
    if np.any(sweep.n_found < 2):
        raise ReturnFailure("return not found during composition check")
    # coordinates of the intermediate vectors on the opposite annulus
    y1 = sweep.y_events[:, 0]
    x1 = sec.footpoint(y1[:, 0:3])
    res2 = _return_sweep(sec, x1, sec.angles_of(x1, y1[:, 3:6]), rtol, atol,
                         horizon, slopes=(+1,))
    if np.any(res2.n_found < 1):
        raise ReturnFailure("transition return not found")
    tau_res = np.abs(grid.tau[ii, jj]
                     - (sweep.t_events[:, 0] + res2.t_events[:, 0]))
    y2 = res2.y_events[:, 0]
    x2 = sec.footpoint(y2[:, 0:3])
    dx = np.abs((x2 - grid.X[ii, jj]) % grid.L)
    map_res = np.maximum(np.minimum(dx, grid.L - dx),
                         np.abs(sec.angles_of(x2, y2[:, 3:6]) - grid.Y[ii, jj]))
    return (float(np.max(tau_res, initial=0.0)),
            float(np.max(map_res, initial=0.0)))


def action_boundary_identity(grid, lift, action_grid=None):
    """max |sigma(x, 0) - (tau(x, 0) - L)|: the lower-row action of the
    zero-flux lift equals the boundary return time minus the base length."""
    act = action_grid if action_grid is not None else sc.action(lift)
    return float(np.max(np.abs(act.sigma[:, 0] - (grid.tau[:, 0] - grid.L))))
