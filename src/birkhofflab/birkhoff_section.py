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
over [0, L) x [0, pi].  Swept boundary rows ride in the same return sweeps
as interior nodes, their event being the Jacobi angle reaching 2 pi:
there the return time is the second conjugate time along gamma (forward
along the lower row, backward along the upper one) and the footpoint advance
equals that time, which pins the lift

    X = x + rho - L,     rho = rho_plus + rho_minus in [0, 2L),

whose flux vanishes.  Each leg advance rho_{+,-} is the unique arc-position
representative in [0, L); this is well defined because each leg of the
return arc is injective when the curvature is pinched above 1/4, which is
what the sampled self-intersection test in :func:`zero_flux_lift` checks.
Its legs come from the return sweep, which samples a few seeded orbits as
it steps (see :func:`_equator_returns` and :func:`_symmetric_returns`).

Every model is a surface of revolution about e3.  Over the equator,
Clairaut's integral makes the return map an x-invariant shear
(x, y) -> (x + rho(y) - L, y), and :func:`compute_return_grid` fills every
field from 1-D quadratures in y; it integrates only a few seeded check
nodes, which must repeat the quadrature and whose arcs the arc check
samples.  Over a meridian, isometries that map the annulus onto itself
commute with the return map: on a surface symmetric under z -> -z, a
reflection and, for an even number of grid columns, a half turn.  The
return grid integrates a fundamental domain of that group plus a few seeded
check nodes, verifies the check nodes against the group's field laws and
fills the grid from the domain.  Every other base (a meridian of a surface
without that symmetry, a great circle of the round sphere tilted against
the axis) gets the trivial group, whose domain is every grid node.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.spatial import cKDTree

from . import geodesic_dynamics as gd
from . import metric_models as mm
from . import strip_calculus as sc
from ._integrate import sweep_linear_events
from .errors import (InternalConsistencyError, PinchingViolationError,
                     PreconditionError, ReturnFailure, SectionInvalidError)

_TWO_PI = 2.0 * math.pi

# Most orbits integrated in one return sweep.  A sweep holds the stages and
# events of all its orbits at once, so its memory grows with its size; the
# oblate audit's 2,400-orbit sweep (the 96 x 96 meridian domain, boundary
# rows included, and its checks) is the peak accepted against `peak_rss_mb`.
_SWEEP_ORBITS = 2400
_AXIS_TILT = 1e-12         # largest misalignment of a normal with the axis
_GRID_FIELDS = ("X", "Y", "tau", "tau_plus", "rho_plus", "jac_angle", "jac_du")
# Return-sweep horizon in units of 2 pi / sqrt(min K).
_HORIZON_FACTOR = 3.0
_ADJACENT_SEGMENTS = 3   # segments this close in index are neighbours
_CURVE_RESOLUTION = 1e-6  # closer segments count as a self-intersection
_MAX_FOLD = 6            # largest cover order minimal_period_fold tries
_FOLD_TOL = 1e-7         # state mismatch below which a shift is a period
_ARC_NODES = 12          # swept nodes whose return arcs are sampled
_ARC_SAMPLES = 600       # least dense-output samples per leg of such an arc
_BOUNDARY_ROWS = 5       # interior rows extrapolated onto a boundary row
MONOTONE_CROSSCHECK_TOL = 1e-4   # |D2 Y - jac_du| bound of the report
# Least relative error expected of a sweep at any rtol: rounding over its
# steps leaves about 1e-12 of L (X - x is 7e-12 off on a spheroid c = 1.99).
_SWEEP_FLOOR = 1e-11


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


def curve_self_intersects(points, closed=True):
    """Whether a polyline in R^3 approaches itself closer than
    ``_CURVE_RESOLUTION`` away from parameter-adjacent segments."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    segs_a = pts
    segs_b = np.roll(pts, -1, axis=0) if closed else pts[1:]
    nseg = n if closed else n - 1
    mids = 0.5 * (segs_a[:nseg] + segs_b[:nseg])
    seg_len = np.max(np.linalg.norm(segs_b[:nseg] - segs_a[:nseg], axis=1))
    tree = cKDTree(mids)
    pairs = tree.query_pairs(r=2.0 * seg_len + _CURVE_RESOLUTION)
    for i, j in pairs:
        gap = min(abs(i - j), nseg - abs(i - j)) if closed else abs(i - j)
        if gap <= _ADJACENT_SEGMENTS:
            continue
        d = _segment_pair_distance(segs_a[i], segs_b[i % n],
                                   segs_a[j], segs_b[j % n])
        if d < _CURVE_RESOLUTION:
            return True
    return False


def minimal_period_fold(orbit):
    """Smallest integer m > 1 such that the stored orbit is an m-fold cover
    of a shorter closed orbit, or 1 if it is primitive."""
    states = orbit.states
    n = len(states)
    for m in range(2, _MAX_FOLD + 1):
        if n % m:
            continue
        shift = n // m
        shifted = np.roll(states, -shift, axis=0)
        if np.max(np.abs(states - shifted)) < _FOLD_TOL:
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


def build_section(model, orbit=None):
    """Annulus over ``orbit`` (default: the equatorial geodesic).

    The base curve must be simple at ``_CURVE_RESOLUTION`` and must
    lie on a plane through the origin of the chart sphere; otherwise a
    :class:`SectionInvalidError` is raised.
    """
    if orbit is None:
        orbit = gd.equator_orbit(model)
    pts = orbit.states[:, 0:3]
    if curve_self_intersects(pts, closed=True):
        raise SectionInvalidError("base curve is not simple at resolution "
                                  f"{_CURVE_RESOLUTION:g}")
    normal = orbit.plane_normal()
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


@dataclass
class BirkhoffGrid(sc.StripMapGrid):
    """Sampled return data of the annulus over the base geodesic, on the
    strip map (X, Y) of its zero-flux lift, of period ``length`` = L."""

    section: BirkhoffSection
    tau: np.ndarray
    tau_plus: np.ndarray
    rho_plus: np.ndarray
    jac_angle: np.ndarray      # lifted Jacobi angle at the return time
    jac_du: np.ndarray         # transversal Jacobi derivative at the return
    # (i, j, leg_plus, leg_minus) of each sampled return arc: the chart
    # sphere points of its two legs (see :func:`_arc_legs`)
    arc_legs: list = field(default_factory=list, repr=False)

    def to_csv(self, path):
        """One row per grid node, x-major: x, y, X, Y, tau as repr(float)."""
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["x", "y", "X", "Y", "tau"])
            for i, x in enumerate(self.xs):
                for j, y in enumerate(self.ys):
                    wr.writerow([repr(float(v)) for v in (
                        x, y, self.X[i, j], self.Y[i, j], self.tau[i, j])])

    def summary(self, model):
        return {"L": self.length, "nx": self.nx, "ny": self.ny,
                "tau_min": float(np.min(self.tau)),
                "tau_max": float(np.max(self.tau)),
                **lift_numbers(self, mm.area(model))}


def return_data(section, x, y, rtol=1e-10):
    """First-return record of the annulus vector at (x, y).

    Interior angles are integrated with event detection; on the boundary
    rows y in {0, pi} the orbit runs along the base geodesic (forward and
    backward respectively) to its second conjugate point; an orbit that
    does not return raises :class:`ReturnFailure` (see :func:`_returns`).
    """
    if not (0.0 <= y <= math.pi):
        raise PreconditionError("y must lie in [0, pi]")
    out = _returns(section, np.array([float(x)]), np.array([float(y)]), rtol)
    return ReturnSample(x=float(x), y=float(y),
                        **{k: v[0].item() for k, v in out.items()})


def _horizon(kmin, ys):
    """Sweep horizon of the orbits launched at angles ``ys`` on a model of
    least curvature ``kmin``: ``_HORIZON_FACTOR`` times 2 pi / sqrt(kmin)
    for a return, the conjugate horizon of order 2 along the base, the
    larger one in a mixed batch."""
    along = np.isin(ys, (0.0, math.pi))
    return max(0.0 if along.all()
               else _HORIZON_FACTOR * _TWO_PI / math.sqrt(kmin),
               gd.conjugate_horizon(kmin, 2) if along.any() else 0.0)


def _return_sweep(section, xs, ys, rtol, horizon, slopes=(-1, +1),
                  sample=None):
    """Crossings of the base plane by the orbits of the annulus vectors at
    matched coordinates (xs, ys), one event per expected slope; an orbit
    along the base (y = 0 or pi) records its Jacobi angle reaching 2 pi in
    the last slot instead.  ``sample`` is passed to
    :func:`~._integrate.sweep_linear_events`."""
    seeds = np.hstack([*section.section_vector(xs, ys),
                       np.zeros((len(xs), 2))])
    along = np.isin(ys, (0.0, math.pi))           # the boundary rows
    wev = np.where(along[:, None], np.eye(8)[6],
                   np.pad(section.normal, (0, 5)))
    return sweep_linear_events(
        gd.geodesic_rhs(section.model, jacobi=True), seeds, horizon, wev,
        target=np.where(along, _TWO_PI, 0.0),
        n_events=np.where(along, 1, len(slopes)), expected_slopes=slopes,
        rtol=rtol, project=gd.state_projector(section.model), sample=sample)


def _arc_legs(sweep, rows, times):
    """(row, leg_plus, leg_minus) of the return arc of each sweep row in
    ``rows``, from the positions it sampled at ``times``: the samples before
    the crossing, then the crossing; the crossing, the samples between it
    and the return, then the return."""
    ts = times[:len(sweep.samples)]
    legs = []
    for k, r in enumerate(rows):
        t1, t2 = sweep.t_events[r, 0], sweep.t_events[r, -1]
        p1, p2 = sweep.y_events[r, 0, 0:3], sweep.y_events[r, -1, 0:3]
        pts = sweep.samples[:, k]
        legs.append((r, np.vstack([pts[ts < t1], p1]),
                     np.vstack([p1, pts[(t1 < ts) & (ts < t2)], p2])))
    return legs


def _require_boundary_advance(rho, along, L):
    """Refuse a boundary row (``along``) whose advance escapes (0, 2L)."""
    escaped = along & ~((0.0 < rho) & (rho < 2.0 * L))
    if np.any(escaped):
        raise PinchingViolationError(
            f"boundary advance {rho[escaped][0]:.6g} escapes (0, 2L); the "
            "lift pinning hypotheses fail for this metric")


def _returns(section, xs, ys, rtol, arc=()):
    """Return-data arrays (the fields of :class:`ReturnSample` other than
    x, y) for matched arrays of coordinates, from one sweep.  Orbits that
    graze the base plane or miss a return (or, on a boundary row, the
    conjugate point) raise :class:`ReturnFailure`, which counts each kind;
    a boundary advance escaping (0, 2L) :class:`PinchingViolationError`.

    The interior rows ``arc`` sample their positions as the sweep steps,
    every pi / (sqrt(max K) ``_ARC_SAMPLES``) from 0, so a leg of their
    return arcs lasting pi / sqrt(max K) or more keeps at least
    ``_ARC_SAMPLES`` points (the shortest legs of the spheroid grids last
    3.09 to 3.19 against 3.05, and the round sphere's pi).  ``legs`` then
    lists the :func:`_arc_legs` of those rows."""
    L = section.length
    kmin, kmax = mm.curvature_extremes(section.model)
    horizon = _horizon(kmin, ys)
    sample = None
    if len(arc):
        times = np.arange(0.0, horizon,
                          math.pi / (math.sqrt(kmax) * _ARC_SAMPLES))
        sample = (arc, slice(0, 3), times)
    sweep = _return_sweep(section, xs, ys, rtol, horizon, sample=sample)
    short = ~sweep.grazing & (sweep.n_found < sweep.t_events.shape[1])
    if sweep.grazing.any() or short.any():
        raise ReturnFailure(
            f"{sweep.grazing.sum()} orbits graze the base plane and "
            f"{short.sum()} miss a return before the horizon t={horizon:.6g}")
    along = np.isin(ys, (0.0, math.pi))
    y1, y2 = sweep.y_events[:, 0], sweep.y_events[:, -1]
    x1, x2 = section.footpoint(y1[:, 0:3]), section.footpoint(y2[:, 0:3])
    tau = sweep.t_events[:, -1]
    rho_plus = np.where(along, np.nan, (x1 - xs) % L)
    rho = np.where(along, np.where(ys == math.pi, 2.0 * L - tau, tau),
                   rho_plus + (x2 - x1) % L)
    _require_boundary_advance(rho, along, L)
    jac_angle = np.where(along, _TWO_PI, y2[:, 6])
    out = {"tau_plus": np.where(along, np.nan, sweep.t_events[:, 0]),
           "tau": tau, "rho_plus": rho_plus, "rho": rho, "X": xs + rho - L,
           "Y": np.where(along, ys, section.angles_of(x2, y2[:, 3:6])),
           "jac_angle": jac_angle,
           "jac_du": np.exp(y2[:, 7]) * np.cos(jac_angle)}
    if len(arc):
        out["legs"] = _arc_legs(sweep, arc, times)
    return out


def _clairaut_rows(section, ys):
    """Return-data rows over the equator at the angles ``ys``, by Clairaut
    quadrature (see :func:`compute_return_grid`): a dict of (len(ys),)
    arrays holding the fields of :class:`ReturnSample` other than x, y and
    X, with rho in [0, 2L) and rho_plus in [0, L).  Boundary rows are the
    second conjugate point along the base, where K = 1 / E(0) is constant;
    one whose advance escapes (0, 2L) raises
    :class:`PinchingViolationError`."""
    model, L = section.model, section.length
    ra = math.sqrt(model.a)
    speed = model.meridian_speed

    def excess(z):      # (sqrt(E) - sqrt(a)) / (1 - z^2)
        return model.b(z) / (speed(z) + ra)

    def z_excess_prime(z):
        r = speed(z)
        return z * (model.bprime(z) / (r + ra) - model.b(z)
                    * model.profile_E_prime(z) / (2.0 * r * (r + ra) ** 2))

    along = np.isin(ys, (0.0, math.pi))
    s, cy = np.sin(ys), np.cos(ys)
    side = np.sign(section.normal[2]) * s
    # The advance is cos y * I past the round sphere's +-L (+-L/2 on a leg).
    # Its y-derivative -s I + cos y^2 J / s is taken under the integral, as
    # a finite difference of the mod-2L advance would jump at y = pi/2;
    # -s times it vanishes with s on the boundary rows, whose angle is 2 pi.
    I = mm.period_integral(excess, s)
    J = mm.period_integral(z_excess_prime, s)
    conj = _TWO_PI * float(speed(0.0))
    tau = np.where(along, conj, mm.period_integral(speed, s))
    rho = np.where(along, np.where(ys == math.pi, 2.0 * L - conj, conj),
                   np.mod(L * np.sign(cy) + cy * I, 2.0 * L))
    _require_boundary_advance(rho, along, L)
    leg = np.where(along, np.nan, 1.0)
    return {"tau_plus": leg * mm.leg_integral(speed, side), "tau": tau,
            "rho_plus": leg * np.mod(0.5 * L * np.sign(cy)
                                     + cy * mm.leg_integral(excess, side), L),
            "rho": rho, "Y": ys,
            "jac_angle": _TWO_PI + np.arctan(s * s * I - cy * cy * J),
            "jac_du": np.ones(len(ys))}


def _equator_returns(section, xs, ys, rtol):
    """Return-data arrays of shape (len(xs), len(ys)) over the equator:
    every column is the :func:`_clairaut_rows`, X shifted by x.

    ``_ARC_NODES`` interior nodes, drawn by a seeded generator without
    replacement, are integrated in one sweep that samples their return
    arcs (see :func:`_returns`); ``arc_legs`` lists them.  Each must repeat
    the quadrature, or :class:`InternalConsistencyError` is raised: X - x,
    tau, tau_plus and rho_plus within tol L and Y within tol pi,
    tol = max(rtol, ``_SWEEP_FLOOR``); the Jacobi fields within
    ``MONOTONE_CROSSCHECK_TOL`` max(r, 1 / r), with r = sqrt(a), as the
    sweep's polar Jacobi equation is not scale-free (on round spheres of
    radius r its angle errs by up to about 55 rtol r for r from 30 to 1e5,
    jac_du by about 200 rtol at r = 1e-4).  The rotations about the axis
    map a node's return arc onto those of its row, so each sampled arc
    stands for its row."""
    nx, ny, L = len(xs), len(ys), section.length
    rows = _clairaut_rows(section, ys)
    out = {k: np.tile(rows[k], (nx, 1)) for k in _GRID_FIELDS[1:]}
    out["X"] = xs[:, None] + (rows["rho"] - L)
    interior = np.arange(nx * ny).reshape(nx, ny)[:, 1:-1].ravel()
    i, j = np.divmod(np.sort(np.random.default_rng(0).choice(
        interior, size=min(_ARC_NODES, len(interior)), replace=False)), ny)
    got = _returns(section, xs[i], ys[j], rtol, arc=np.arange(len(i)))
    tol = max(rtol, _SWEEP_FLOOR)
    scale = math.sqrt(section.model.a)
    jac = MONOTONE_CROSSCHECK_TOL * max(scale, 1.0 / scale)
    bounds = {"Y": tol * math.pi, "jac_angle": jac, "jac_du": jac}
    for k in _GRID_FIELDS:
        err = np.abs(got[k] - out[k][i, j])
        if np.any(err > bounds.get(k, tol * L)):
            raise InternalConsistencyError(
                f"equator check nodes disagree in {k} by {np.max(err):.3g}; "
                "the sweep does not repeat the Clairaut quadrature")
    out["arc_legs"] = [(i[r], j[r], *pair) for r, *pair in got["legs"]]
    return out


def _grid_symmetry(section, nx, ny):
    """The symmetry group of a grid over a base other than the equator (see
    :func:`compute_return_grid`) as (nx, ny) arrays: ``rep``, the flat index
    i * ny + j of the node of the fundamental domain (the smallest flat
    index of each orbit) that a node is the image of; ``flip``, whether that
    element reflects the annulus; ``check``, the seeded check nodes.  The
    trivial group makes every node its own representative and checks
    none."""
    n = section.normal
    I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    maps = [(I, J, False)]
    if (abs(n[2]) < _AXIS_TILT and not np.any(section.model.b_coef[1::2])
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
    check = np.zeros((nx, ny), dtype=bool)
    outside = np.flatnonzero(rep != node)
    check.flat[np.random.default_rng(0).choice(
        outside, size=min(ny, len(outside)), replace=False)] = True
    return rep, flip, check


def _symmetric_returns(section, xs, ys, rep, flip, check, rtol):
    """Return-data arrays of shape (len(xs), len(ys)) filled from the
    fundamental domain of a grid symmetry group (see :func:`_grid_symmetry`
    for a meridian's; the trivial group integrates every node).

    The nodes of the domain and the check nodes, boundary rows included,
    are integrated in row-major order, split evenly into sweeps of at most
    ``_SWEEP_ORBITS`` orbits (see :func:`_returns`).  A rotation keeps
    every field but X - x; a reflection maps X - x to -(X - x), Y to
    pi - Y and rho_plus to L - rho_plus, and keeps the other fields.  Every
    check node must repeat what its domain node predicts, X - x and the
    other fields within ``rtol`` times max(1, |value|); otherwise
    :class:`InternalConsistencyError`.
    Symmetric orbits of one sweep differ only by rounding (1e-14 to 1e-12
    relative), as a sweep steps all its orbits alike; orbits of different
    sweeps differ within the integration tolerance.

    ``_ARC_NODES`` interior nodes among those integrated, drawn by a seeded
    generator without replacement, sample their return arcs in their sweeps
    (see :func:`_returns`); ``arc_legs`` lists them.  Every grid node is the
    image of an integrated one under an isometry of the annulus, which maps
    return arcs to return arcs, so their injectivity stands for the whole
    grid's."""
    nx, ny = len(xs), len(ys)
    swept = (rep == np.arange(nx * ny).reshape(nx, ny)) | check
    vals = {k: np.empty((nx, ny)) for k in _GRID_FIELDS}
    jj, ii = np.nonzero(swept.T)
    interior = np.flatnonzero((0 < jj) & (jj < ny - 1))
    arc = np.random.default_rng(0).choice(
        interior, size=min(_ARC_NODES, len(interior)), replace=False)
    legs = []
    for part in np.array_split(np.arange(len(ii)),
                               -(-len(ii) // _SWEEP_ORBITS)):
        i, j = ii[part], jj[part]
        out = _returns(section, xs[i], ys[j], rtol,
                       arc=np.flatnonzero(np.isin(part, arc)))
        for k in _GRID_FIELDS:
            vals[k][i, j] = out[k]
        legs += [(i[r], j[r], *pair) for r, *pair in out.pop("legs", ())]

    ri, rj = np.divmod(rep, ny)
    out = {k: v[ri, rj] for k, v in vals.items()}
    out["X"] = xs[:, None] + np.where(flip, -1.0, 1.0) * (out["X"] - xs[ri])
    out["Y"] = np.where(flip, math.pi - out["Y"], out["Y"])
    out["rho_plus"] = np.where(flip, section.length - out["rho_plus"],
                               out["rho_plus"])
    x_check = np.broadcast_to(xs[:, None], check.shape)[check]
    for k in _GRID_FIELDS:
        shift = x_check if k == "X" else 0.0
        want, got = out[k][check] - shift, vals[k][check] - shift
        err = np.abs(got - want)
        if np.any(err > rtol * np.maximum(1.0, np.abs(want))):
            raise InternalConsistencyError(
                f"grid symmetry check nodes disagree in {k} by "
                f"{np.nanmax(err):.3g}; the return map does not commute with "
                "the symmetry group of the annulus")
    out["arc_legs"] = legs
    return out


def compute_return_grid(section, nx=96, ny=96, rtol=1e-10):
    """First-return data over the full annulus grid.

    Over the equator, Clairaut's integral sqrt(a) cos y makes the return map
    the shear (x, y) -> (x + rho(y) - L, y), and every field is a 1-D
    quadrature in y (see :func:`_clairaut_rows`).  With s = sin y,
    c = sqrt(a) cos y and z = s sin psi on the side the normal points to,
    tau is the integral of sqrt(E(z)) over psi in [0, 2 pi) and
    rho = sqrt(a) (2 pi sign(cos y) + (c / a) integral of
    b / (sqrt(E) + sqrt(a))); tau_plus and rho_plus are the same integrals
    over [0, pi], with the round part pi sign(cos y).  Y = y, jac_du = 1 and
    jac_angle = 2 pi + atan(-sin y rho'(y)); the boundary rows return at
    the second conjugate time 2 pi sqrt(E(0)), K being constant along the
    equator.  Only ``_ARC_NODES`` seeded check nodes are integrated (see
    :func:`_equator_returns`).

    Over a meridian, the isometries of the model that map the annulus onto
    itself commute with the return map.  The grid gets the group of those
    that act on it, and only its fundamental domain and seeded check nodes
    are integrated; the domain fills the grid by the group's field laws
    after every check node has repeated them (see
    :func:`_symmetric_returns`):

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
    its grid node by about 1e-12.  An integrated orbit that does not return
    raises :class:`ReturnFailure`, so a grid holds only nodes that returned.
    """
    if nx < 1 or ny < 3:
        raise PreconditionError(f"a return grid needs nx >= 1 and ny >= 3 "
                                f"(an interior row); got {nx} x {ny}")
    L = section.length
    xs, ys = sc.strip_mesh(L, nx, ny)
    n = section.normal
    if math.hypot(n[0], n[1]) < _AXIS_TILT:
        arrays = _equator_returns(section, xs, ys, rtol)
    else:
        arrays = _symmetric_returns(section, xs, ys,
                                    *_grid_symmetry(section, nx, ny), rtol)

    grid = BirkhoffGrid(length=L, xs=xs, ys=ys, section=section, **arrays)
    if np.any(grid.tau <= 0.0):
        raise InternalConsistencyError("non-positive return time on the grid")
    return grid


# ---------------------------------------------------------------------------
# the zero-flux lift and the bridge identities
# ---------------------------------------------------------------------------

def zero_flux_lift(grid):
    """The grid itself, checked to carry the canonical zero-flux lift.

    Every node of a grid returned (see :func:`compute_return_grid`).  The
    advance-based lift is trusted only if the return arcs the grid's sweep
    sampled are injective, each leg separately; a detected self-intersection
    raises :class:`PinchingViolationError`.  The vanishing of the flux is
    verified, not assumed (see :func:`~.strip_calculus.zero_flux`).
    """
    check_return_arc_injectivity(grid)
    F = sc.flux(grid)
    if not sc.zero_flux(grid, F):
        raise InternalConsistencyError(
            f"advance-based lift has flux {F:.3g}, expected 0 within "
            f"{sc.FLUX_TOL:g} L / 2 pi")
    return grid


def lift_numbers(grid, area):
    """The numbers of the zero-flux lift of ``grid`` that the return-map and
    audit reports share, on a metric of area ``area``: flux, Calabi
    invariant, sup distance to the identity and the four identity
    residuals, all from one action."""
    act = sc.action(zero_flux_lift(grid))
    cal = sc.calabi(grid, action_grid=act)
    return {
        "flux": act.flux,
        "cal": cal,
        "sup_distance_to_identity": grid.sup_distance_to_identity(),
        "residuals": {
            "tau_action_max": verify_tau_action_identity(grid, act),
            "omega_preservation_max": sc.omega_preservation_residual(grid),
            "area_identity_rel": verify_area_identity(grid, cal, area),
            "contact_volume_rel": contact_volume_check(grid, area),
        },
    }


def check_return_arc_injectivity(grid):
    """Sampled verification that each return-arc leg is an injective curve,
    on the arcs of ``grid.arc_legs`` (the legs the return sweep sampled; see
    :func:`_symmetric_returns`)."""
    for i, j, *legs in grid.arc_legs:
        for pts in legs:
            if curve_self_intersects(pts, closed=False):
                raise PinchingViolationError(
                    f"return arc through node ({i}, {j}) self-intersects; "
                    "the advance pinning hypotheses fail")


def verify_tau_action_identity(grid, action_grid):
    """max |tau - L - sigma| over the grid: the return time must equal the
    base length plus the action ``action_grid`` of the zero-flux lift."""
    return float(np.max(np.abs(grid.tau - grid.length - action_grid.sigma)))


def verify_area_identity(grid, cal, area):
    """Relative residual of pi * Area = L^2 + L * CAL, for the Calabi
    invariant ``cal`` of the zero-flux lift and the area ``area``."""
    target = math.pi * area
    return abs(target - grid.length ** 2 - grid.length * cal) / target


def contact_volume_check(grid, area):
    """Relative residual of the unit-tangent volume identity: the
    tau-weighted area of the annulus must equal 2 pi * ``area``."""
    vol = sc.strip_integral(grid.tau, grid.xs, grid.ys, grid.length)
    target = _TWO_PI * area
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


def require_monotonicity_rows(ny):
    """Refuse a grid with too few rows for :func:`monotonicity_check`."""
    if ny < 64:
        raise PreconditionError("monotonicity check requires ny >= 64")


def monotonicity_check(grid):
    """Vertical derivative of the angle component, two ways.

    Finite differences of the grid are compared against the transversal
    Jacobi derivative at the return time, which equals D2 Y identically.
    """
    require_monotonicity_rows(grid.ny)
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


def composition_identity_check(grid, n_nodes=10, rtol=1e-10):
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
    horizon = _horizon(mm.curvature_extremes(sec.model)[0], grid.ys[jj])
    sweep = _return_sweep(sec, grid.xs[ii], grid.ys[jj], rtol, horizon)
    if np.any(sweep.n_found < 2):
        raise ReturnFailure("return not found during composition check")
    # coordinates of the intermediate vectors on the opposite annulus
    y1 = sweep.y_events[:, 0]
    x1 = sec.footpoint(y1[:, 0:3])
    res2 = _return_sweep(sec, x1, sec.angles_of(x1, y1[:, 3:6]), rtol,
                         horizon, slopes=(+1,))
    if np.any(res2.n_found < 1):
        raise ReturnFailure("transition return not found")
    tau_res = np.abs(grid.tau[ii, jj]
                     - (sweep.t_events[:, 0] + res2.t_events[:, 0]))
    y2 = res2.y_events[:, 0]
    x2 = sec.footpoint(y2[:, 0:3])
    dx = np.abs((x2 - grid.X[ii, jj]) % grid.length)
    map_res = np.maximum(np.minimum(dx, grid.length - dx),
                         np.abs(sec.angles_of(x2, y2[:, 3:6]) - grid.Y[ii, jj]))
    return (float(np.max(tau_res, initial=0.0)),
            float(np.max(map_res, initial=0.0)))
