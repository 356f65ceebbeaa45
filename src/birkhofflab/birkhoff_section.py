"""Transversal annulus over a simple closed geodesic and its return data.

The annulus over a closed geodesic gamma consists of the unit tangent
vectors based on gamma that point into one of the two disks it bounds,
charted by (x, y): x the arc parameter along gamma, y the angle from
gamma'(x).  A section's base lies on a plane through the origin of the
chart sphere, so hits of the flowed orbit on the annulus are roots of the
scalar height u . n, with n the plane normal: downward crossings land on
the opposite annulus, upward crossings return to the original one.  A
return grid needs the equator or a meridian as its base.

The first-return data (X, Y, tau) is assembled on a periodic-by-closed grid
over [0, L) x [0, pi].  On the boundary rows the orbit runs along gamma
and the return time is the second conjugate time (forward along the lower
row, backward along the upper one); the footpoint advance equals that time,
which pins the lift

    X = x + rho - L,     rho = rho_plus + rho_minus in [0, 2L),

whose flux vanishes.  Each leg advance rho_{+,-} is the unique arc-position
representative in [0, L); this is well defined because each leg of the
return arc is injective when the curvature is pinched above 1/4, which is
what the sampled self-intersection test in :func:`zero_flux_lift` checks.

Every model is a surface of revolution about e3, so Clairaut's integral
turns each return into 1-D quadratures, and :func:`compute_return_grid`
fills every field from them, over the equator (where the return map is an
x-invariant shear) and over a meridian alike.  It integrates only a few
seeded check nodes, which must repeat the quadrature and whose return arcs
the arc check samples (see :func:`_check_nodes`).
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
# Meridian-base quadrature (see _meridian_returns): the grid nodes whose
# Fourier series are held at once (2.2 MB traced at 64 samples, below the
# lift's share of an audit's peak memory), and Newton's iterations (enough
# for bisection alone to reach rounding) and the step, in radians, that
# ends them.
_QUADRATURE_NODES = 256
_NEWTON_ITERATIONS = 60
_NEWTON_TOL = 1e-15


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

    def to_csv(self, path, length_unit):
        """One row per grid node, x-major: x, y, X, Y, tau as repr(float),
        with the lengths x, X and tau multiplied by ``length_unit``."""
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["x", "y", "X", "Y", "tau"])
            for i, x in enumerate(self.xs):
                for j, y in enumerate(self.ys):
                    wr.writerow([repr(float(v)) for v in (
                        x * length_unit, y, self.X[i, j] * length_unit,
                        self.Y[i, j], self.tau[i, j] * length_unit)])

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


def _excess(model):
    """The excess (sqrt(E) - sqrt(a)) / (1 - z^2) = b / (sqrt(E) + sqrt(a))
    of the meridian speed over the round sphere's, and its z-derivative, as
    functions of the height z: smooth on [-1, 1] for every model."""
    ra = math.sqrt(model.a)
    speed = model.meridian_speed

    def excess(z):
        return model.b(z) / (speed(z) + ra)

    def excess_prime(z):
        r = speed(z)
        return (model.bprime(z) / (r + ra) - model.b(z)
                * model.profile_E_prime(z) / (2.0 * r * (r + ra) ** 2))

    return excess, excess_prime


def _integrands(model):
    """The integrands of a Clairaut quadrature at heights z and angles eta,
    one at a time, for :func:`~.metric_models.profile_antiderivatives`:
    sqrt(E), whose antiderivative is t; the excess (see :func:`_excess`);
    and excess' sin(eta), its derivative in Q."""
    speed = model.meridian_speed
    excess, excess_prime = _excess(model)

    def integrands(z, eta):
        yield speed(z)
        yield excess(z)
        yield excess_prime(z) * np.sin(eta)

    return integrands


def _clairaut_rows(section, ys):
    """Return-data rows over the equator at the angles ``ys``, by Clairaut
    quadrature (see :func:`compute_return_grid`): a dict of (len(ys),)
    arrays holding the fields of :class:`ReturnSample` other than x, y and
    X, with rho in [0, 2L) and rho_plus in [0, L).  Boundary rows are the
    second conjugate point along the base, where K = 1 / E(0) is constant;
    one whose advance escapes (0, 2L) raises
    :class:`PinchingViolationError`."""
    model, L = section.model, section.length
    along = np.isin(ys, (0.0, math.pi))
    s, cy = np.sin(ys), np.cos(ys)
    side = np.sign(section.normal[2]) * s
    # The orbit's height is side sin(eta); series 0 integrates its time,
    # 1 the excess, 2 the excess' sin(eta), so side times it is the
    # integral of z excess'(z).
    anti, _ = mm.profile_antiderivatives(
        _integrands(model), np.zeros(len(ys)), side, math.sqrt(model.a),
        mm._SERIES_SAMPLES[0])
    # The advance is cos y * I past the round sphere's +-L (+-L/2 on a leg).
    # Its y-derivative -s I + cos y^2 J / s is taken under the integral, as
    # a finite difference of the mod-2L advance would jump at y = pi/2;
    # -s times it vanishes with s on the boundary rows, whose angle is 2 pi.
    I, J = anti(1, _TWO_PI), side * anti(2, _TWO_PI)
    conj = _TWO_PI * float(model.meridian_speed(0.0))
    tau = np.where(along, conj, anti(0, _TWO_PI))
    rho = np.where(along, np.where(ys == math.pi, 2.0 * L - conj, conj),
                   np.mod(L * np.sign(cy) + cy * I, 2.0 * L))
    _require_boundary_advance(rho, along, L)
    leg = np.where(along, np.nan, 1.0)
    return {"tau_plus": leg * anti(0, math.pi), "tau": tau,
            "rho_plus": leg * np.mod(0.5 * L * np.sign(cy)
                                     + cy * anti(1, math.pi), L),
            "rho": rho, "Y": ys,
            "jac_angle": _TWO_PI + np.arctan(s * s * I - cy * cy * J),
            "jac_du": np.ones(len(ys))}


def _equator_returns(section, xs, ys):
    """Return-data arrays of shape (len(xs), len(ys)) over the equator:
    every column is the :func:`_clairaut_rows`, X shifted by x.  The
    rotations about the axis map the annulus onto itself and commute with
    the return map, so its fields other than X do not depend on x."""
    nx, L = len(xs), section.length
    rows = _clairaut_rows(section, ys)
    out = {k: np.tile(rows[k], (nx, 1)) for k in _GRID_FIELDS[1:]}
    out["X"] = xs[:, None] + (rows["rho"] - L)
    return out


def _launch(section, x, y):
    """Clairaut data of the annulus vectors at (x, y) over a meridian, from
    their states projected as a sweep projects them: the height P, and
    Q = sqrt(E) dz/dt, so that the orbit's height is P cos(eta) +
    Q sin(eta) with dt = sqrt(E) d eta; the Clairaut value in units of
    sqrt(a), kappa = C / sqrt(a); the y-derivatives of Q and kappa; the
    azimuth phi of the base point."""
    model = section.model
    ra = math.sqrt(model.a)
    u, t, p = section.frames(x)
    c, s = np.cos(y)[:, None], np.sin(y)[:, None]
    state = gd.state_projector(model)(np.hstack([u, c * t + s * p]))
    u, w = state[:, 0:3], state[:, 3:6]
    dw = c * p - s * t
    dw -= np.sum(u * dw, axis=1)[:, None] * u
    speed = model.meridian_speed(u[:, 2])
    kappa = ra * (u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0])
    dkappa = ra * (u[:, 0] * dw[:, 1] - u[:, 1] * dw[:, 0])
    return (u[:, 2], speed * w[:, 2], kappa, speed * dw[:, 2], dkappa,
            np.arctan2(u[:, 1], u[:, 0]))


def _orbit_height(P, Q, turns, d):
    """Height z and dz/d eta of the orbits at eta = turns pi + d."""
    sign = -1.0 if turns % 2 else 1.0
    c, s = np.cos(d), np.sin(d)
    return sign * (P * c + Q * s), sign * (Q * c - P * s)


def _meridian_interior(section, x, y, n):
    """Return-data arrays of the interior nodes (x, y) over a meridian (see
    :func:`_meridian_returns`) and the series' sample count."""
    model, L = section.model, section.length
    ra = math.sqrt(model.a)
    speed = model.meridian_speed
    P, Q, kappa, dQ, dkappa, phi = _launch(section, x, y)
    k, dk = np.abs(kappa), np.sign(kappa) * dkappa
    s2 = P * P + Q * Q
    anti, n = mm.profile_antiderivatives(_integrands(model), P, Q, ra, n)

    def great_circle(d):
        """eta - turns pi where the great circle's azimuth has advanced by
        turns pi + d (|d| < pi)."""
        return np.arctan2((k * k * P * P + Q * Q) * np.sin(d),
                          s2 * (k * np.cos(d) + P * Q * np.sin(d)))

    def root(turns):
        d = np.zeros(len(x))
        for _ in range(_NEWTON_ITERATIONS):
            g = great_circle(d)
            z, _ = _orbit_height(P, Q, turns, g)
            # the derivative in chi, 1 + excess (1 - z^2) / sqrt(a)
            step = (d + k / ra * anti(1, turns * math.pi + g)) * ra / speed(z)
            d -= step
            if np.max(np.abs(step)) <= _NEWTON_TOL:
                break
        else:
            raise InternalConsistencyError(
                "Newton's method found no meridian crossing in "
                f"{_NEWTON_ITERATIONS} steps")
        if np.max(np.abs(d)) >= math.pi:
            raise InternalConsistencyError(
                "a meridian crossing lies a half turn off the great circle's")
        return great_circle(d)

    def state(z, q, azimuth):
        rho = np.hypot(k, q)             # sqrt(1 - z^2), exact at the poles
        zdot = q / speed(z)
        rdot, spin = -z * zdot / rho, kappa / (ra * rho)
        c, s = np.cos(azimuth), np.sin(azimuth)
        return (np.column_stack([rho * c, rho * s, z]),
                np.column_stack([rdot * c - spin * s, rdot * s + spin * c,
                                 zdot]), rho)

    g1, g2 = root(1), root(2)
    z1, q1 = _orbit_height(P, Q, 1, g1)
    z2, q2 = _orbit_height(P, Q, 2, g2)
    u1, _, _ = state(z1, q1, phi + math.pi)
    u2, w2, rho2 = state(z2, q2, phi)
    x1, x2 = section.footpoint(u1), section.footpoint(u2)
    rho_plus = (x1 - x) % L
    Y = section.angles_of(x2, w2)
    # y-derivatives of the return: implicit in the azimuth equation
    # F(eta; Q, k) = 0 at fixed P, with F_eta = k sqrt(E) / (sqrt(a) rho^2)
    eta2 = _TWO_PI + g2
    rho0_sq = k * k + Q * Q
    F_Q = (-P * k * (Q - q2) * (Q + q2) / (s2 * rho0_sq * rho2 ** 2)
           + k / ra * anti(2, eta2))
    F_k = (z2 * q2 / rho2 ** 2 - P * Q / rho0_sq) / s2 + anti(1, eta2) / ra
    deta = -(F_Q * dQ + F_k * dk) * rho2 ** 2 * ra / (k * speed(z2))
    dz2 = np.sin(g2) * dQ + q2 * deta
    dq2 = np.cos(g2) * dQ - z2 * deta
    drho2 = (k * dk + q2 * dq2) / rho2
    du = np.column_stack([drho2 * np.cos(phi), drho2 * np.sin(phi), dz2])
    dX = model.dot(u2, du, section.frames(x2)[1])
    dY = (kappa * dq2 - q2 * dkappa) / rho2 ** 2
    return {"X": x + rho_plus + (x2 - x1) % L - L, "Y": Y,
            "tau": anti(0, eta2), "tau_plus": anti(0, math.pi + g1),
            "rho_plus": rho_plus,
            "jac_angle": _TWO_PI + np.arctan(-np.sin(Y) * dX / dY),
            "jac_du": dY}, n


def _meridian_boundary(section, x, y, n):
    """Return-data arrays of the boundary nodes (x, y) over a meridian (see
    :func:`_meridian_returns`) and the series' sample count."""
    model, L = section.model, section.length
    ra = math.sqrt(model.a)
    speed = model.meridian_speed
    excess, _ = _excess(model)
    P, Q, *_ = _launch(section, x, y)
    anti, n = mm.profile_antiderivatives(_integrands(model), P, Q, ra, n)

    def jacobi(d):
        """The Jacobi field vanishing at launch, sqrt(a) sin(eta) +
        q Q Ex(eta), and its eta-derivative at eta = 2 pi + d."""
        z, q = _orbit_height(P, Q, 2, d)
        ex = anti(1, _TWO_PI + d)
        return (ra * np.sin(d) + q * Q * ex,
                ra * np.cos(d) + Q * (q * excess(z) - z * ex), z)

    # J1 vanishes where q does, at the poles.  By Sturm's separation
    # theorem the second zero of J after launch is its only one between
    # the pole passages at eta = 2 pi + lo and 2 pi + hi, lo = hi - pi,
    # where J <= 0 and J >= 0; Newton's method keeps to that bracket,
    # bisecting where a step leaves it.
    hi = np.mod(np.arctan2(Q, P), math.pi)
    lo, d = hi - math.pi, np.minimum(hi, 0.0)
    for _ in range(_NEWTON_ITERATIONS):
        J, dJ, _ = jacobi(d)
        lo, hi = np.where(J < 0.0, d, lo), np.where(J > 0.0, d, hi)
        new = d - J / dJ
        new = np.where((lo < new) & (new < hi), new, 0.5 * (lo + hi))
        step, d = new - d, new
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            break
    else:
        raise InternalConsistencyError(
            "Newton's method found no conjugate point in "
            f"{_NEWTON_ITERATIONS} steps")
    _, dJ, z = jacobi(d)
    tau = anti(0, _TWO_PI + d)
    rho = np.where(y == math.pi, 2.0 * L - tau, tau)
    _require_boundary_advance(rho, np.ones(len(x), dtype=bool), L)
    nan = np.full(len(x), np.nan)
    return {"X": x + rho - L, "Y": y, "tau": tau, "tau_plus": nan,
            "rho_plus": nan, "jac_angle": np.full(len(x), _TWO_PI),
            "jac_du": dJ / speed(z)}, n


def _meridian_returns(section, xs, ys):
    """Return-data arrays of shape (len(xs), len(ys)) over a meridian, by
    Clairaut quadrature node by node (see :func:`compute_return_grid`).

    Each node's orbit has the Clairaut value C = sqrt(a) kappa of its
    launch, k = |kappa| and s = sqrt(1 - k^2); with z = s sin(psi) and
    psi = psi0 + eta, t and the azimuth phi are

        t = integral of sqrt(E(z)) d eta,
        phi - phi0 = sign(C) (chi(eta) + k / sqrt(a) Ex(eta)),

    where chi is the great circle's azimuth, atan(k tan psi) - atan(k tan
    psi0), in closed form, and Ex the antiderivative of the equator's
    excess b / (sqrt(E) + sqrt(a)) (see :func:`_integrands`).  Newton's
    method in chi, whose derivative is sqrt(E(z) / a), gives the crossing of
    the base plane (|phi - phi0| = pi) and the return (2 pi); their states
    go through :meth:`BirkhoffSection.footpoint` and
    :meth:`~BirkhoffSection.angles_of` as in :func:`_returns`.  jac_du is
    dY/dy and jac_angle 2 pi + atan(-sin Y (dX/dy) / (dY/dy)), both from
    the exact y-derivative of the return.

    On the boundary rows the orbit is the base (C = 0): along it the
    rotation about the axis gives the Jacobi field J1 = sqrt(a) sin(theta),
    so the one vanishing at launch, J1 times the integral of dt / J1^2, is
    sqrt(a) sin(eta) + q Q Ex(eta) with q = dz/d eta, Q its launch value;
    its second zero is the return.  Nodes are taken ``_QUADRATURE_NODES``
    at a time."""
    nx, ny = len(xs), len(ys)
    x, y = np.repeat(xs, ny), np.tile(ys, nx)
    along = np.isin(y, (0.0, math.pi))
    out = {k: np.empty(nx * ny) for k in _GRID_FIELDS}
    n = mm._SERIES_SAMPLES[0]
    for nodes, returns in ((np.flatnonzero(along), _meridian_boundary),
                           (np.flatnonzero(~along), _meridian_interior)):
        for part in np.array_split(nodes, -(-len(nodes) // _QUADRATURE_NODES)):
            fields, n = returns(section, x[part], y[part], n)
            for k in _GRID_FIELDS:
                out[k][part] = fields[k]
    return {k: v.reshape(nx, ny) for k, v in out.items()}


def _check_nodes(section, xs, ys, out, rtol):
    """The :func:`_arc_legs` of ``_ARC_NODES`` interior nodes, drawn by a
    seeded generator without replacement and integrated in one sweep that
    samples their return arcs (see :func:`_returns`), as (i, j, leg_plus,
    leg_minus).  Each must repeat the quadrature ``out``, or
    :class:`InternalConsistencyError` is raised: X - x, tau, tau_plus and
    rho_plus within tol L and Y within tol pi, tol = max(rtol,
    ``_SWEEP_FLOOR``); the Jacobi fields within ``MONOTONE_CROSSCHECK_TOL``.
    The quadrature holds for every node alike, so the sampled arcs stand
    for the grid's."""
    nx, ny, L = len(xs), len(ys), section.length
    interior = np.arange(nx * ny).reshape(nx, ny)[:, 1:-1].ravel()
    i, j = np.divmod(np.sort(np.random.default_rng(0).choice(
        interior, size=min(_ARC_NODES, len(interior)), replace=False)), ny)
    got = _returns(section, xs[i], ys[j], rtol, arc=np.arange(len(i)))
    tol = max(rtol, _SWEEP_FLOOR)
    bounds = {"Y": tol * math.pi, "jac_angle": MONOTONE_CROSSCHECK_TOL,
              "jac_du": MONOTONE_CROSSCHECK_TOL}
    for k in _GRID_FIELDS:
        err = np.abs(got[k] - out[k][i, j])
        if np.any(err > bounds.get(k, tol * L)):
            raise InternalConsistencyError(
                f"check nodes disagree in {k} by {np.max(err):.3g}; the "
                "sweep does not repeat the Clairaut quadrature")
    return [(i[r], j[r], *pair) for r, *pair in got["legs"]]


def compute_return_grid(section, nx=96, ny=96, rtol=1e-10):
    """First-return data over the full annulus grid, by Clairaut quadrature
    over the equator or a meridian; any other base raises
    :class:`SectionInvalidError`.

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
    equator.

    Over a meridian the Clairaut value depends on x as well, and each node
    is its own quadrature: the same integrals with the great circle's
    azimuth split off in closed form, solved for the crossing and the
    return by Newton's method (see :func:`_meridian_returns`).

    Only ``_ARC_NODES`` seeded check nodes are integrated, in one sweep;
    each must repeat the quadrature, and their sampled return arcs are the
    grid's ``arc_legs`` (see :func:`_check_nodes`).  A check orbit that
    does not return raises :class:`ReturnFailure`.
    """
    if nx < 1 or ny < 3:
        raise PreconditionError(f"a return grid needs nx >= 1 and ny >= 3 "
                                f"(an interior row); got {nx} x {ny}")
    L = section.length
    xs, ys = sc.strip_mesh(L, nx, ny)
    n = section.normal
    if math.hypot(n[0], n[1]) < _AXIS_TILT:
        arrays = _equator_returns(section, xs, ys)
    elif abs(n[2]) < _AXIS_TILT:
        arrays = _meridian_returns(section, xs, ys)
    else:
        raise SectionInvalidError(
            "a return grid needs the equator or a meridian as its base; the "
            "base plane neither contains nor is normal to the axis")
    if not (np.all(arrays["tau"] > 0.0) and all(
            np.isfinite(arrays[k]).all()
            for k in ("X", "Y", "jac_angle", "jac_du"))):
        raise InternalConsistencyError(
            "non-positive return time or non-finite return map on the grid")
    arrays["arc_legs"] = _check_nodes(section, xs, ys, arrays, rtol)
    return BirkhoffGrid(length=L, xs=xs, ys=ys, section=section, **arrays)


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
    :func:`_check_nodes`)."""
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
