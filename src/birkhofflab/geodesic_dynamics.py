"""Geodesic flow, Jacobi fields in polar form, and closed-geodesic search.

States are integrated in the ambient representation (u, du/dt) on the chart
sphere, where the revolution metrics of :mod:`.metric_models` are globally
smooth; the colatitude/azimuth chart is only used at the API boundary.  The
constrained equation of motion for g(v, w) = a v.w + b(z) v3 w3 is

    u'' = (mu * u - q * e3) / a,
    q   = b * xi3 + b'(z) * v3^2 / 2,
    xi3 = (mu * z - b'(z) * v3^2 / 2) / (a + b),
    mu  = a * (b'(z) * v3^2 * z / 2 - |v|^2 * (a + b)) / E(z),

with z = u3 and E the meridian profile coefficient.  The transversal Jacobi
field u_J with u_J(0) = 0, u_J'(0) = 1 is carried along in polar form
(u_J' + i u_J = r e^{i theta}), which obeys

    theta' = cos(theta)^2 + K sin(theta)^2,
    (log r)' = (1 - K) sin(theta) cos(theta),

so conjugate times are the roots of the monotone lifted angle theta at
multiples of pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from . import metric_models as mm
from ._integrate import integrate_adaptive, sweep_linear_events
from .errors import (ChartDomainError, NoConvergenceError, PreconditionError,
                     ReturnFailure)

_TWO_PI = 2.0 * math.pi
# Closure residual (sup norm of the state mismatch) a closed orbit must meet.
CLOSURE_TARGET = 1e-10


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _horner(coef):
    """Evaluator of the ascending polynomial ``coef`` in Horner form, on
    coefficients taken as Python floats once (the order of
    ``npoly.polyval``, so the values are the same)."""
    lead, *rest = [float(c) for c in reversed(coef)]

    def poly(z):
        acc = lead
        for c in rest:
            acc = c + acc * z
        return acc

    return poly


def geodesic_rhs(model, jacobi=False):
    """Vectorised RHS for batches of shape (n, 6) or, with the Jacobi
    augmentation, (n, 8) where columns 6, 7 hold (theta, log r).

    The arithmetic runs on one row-contiguous (d, n) copy of the state, and
    the result is returned as the (n, d) transpose of a (d, n) array.
    """
    a = float(model.a)
    b_of = _horner(model.b_coef)
    bp_of = _horner(model.bp_coef)

    def rhs(t, y):
        yt = y.T.copy()
        u, v = yt[0:3], yt[3:6]
        z = u[2]
        v3sq = v[2] * v[2]
        b = b_of(z)
        bp = bp_of(z)
        half_bp_v3sq = 0.5 * bp * v3sq
        vsq = (v * v).sum(axis=0)
        apb = a + b
        one_zz = 1.0 - z * z
        E = a + b * one_zz
        mu = a * (half_bp_v3sq * z - vsq * apb) / E
        xi3 = (mu * z - half_bp_v3sq) / apb
        q = b * xi3 + half_bp_v3sq
        out = np.empty_like(yt)
        out[0:3] = v
        out[3:6] = (mu / a) * u
        out[5] -= q / a
        if jacobi:
            th = yt[6]
            Ep = bp * one_zz - 2.0 * z * b
            K = 1.0 / E - z * Ep / (2.0 * E * E)
            s = np.sin(th)
            c = np.cos(th)
            out[6] = c * c + K * s * s
            out[7] = (1.0 - K) * s * c
        return out.T

    return rhs


def state_projector(model):
    """Renormaliser applied after each accepted step: |u| = 1, u.v = 0,
    g(v, v) = 1.  Columns 0:6 of ``y`` are rewritten in place, any further
    columns are left alone."""
    a = float(model.a)
    b_of = _horner(model.b_coef)

    def project(y):
        yt = y[:, 0:6].T.copy()
        u, v = yt[0:3], yt[3:6]
        u /= np.sqrt((u * u).sum(axis=0))
        v -= (u * v).sum(axis=0) * u
        v /= np.sqrt(a * (v * v).sum(axis=0) + b_of(u[2]) * (v[2] * v[2]))
        y[:, 0:6] = yt.T
        return y

    return project


# ---------------------------------------------------------------------------
# states and trajectories
# ---------------------------------------------------------------------------

@dataclass
class GeodesicState:
    """Point plus unit direction in chart coordinates.

    ``direction`` holds the chart velocities (dtheta/dt, dphi/dt) of the
    unit-speed parametrisation.
    """

    point: mm.SurfacePoint
    direction: tuple
    arclength: float = 0.0


def state_to_ambient(model, state):
    th, ph = state.point.theta, state.point.phi
    u = mm.chart_to_unitvec(th, ph)
    dth, dph = state.direction
    e_th = np.array([math.cos(th) * math.cos(ph),
                     math.cos(th) * math.sin(ph), -math.sin(th)])
    e_ph = np.array([-math.sin(th) * math.sin(ph),
                     math.sin(th) * math.cos(ph), 0.0])
    return u, dth * e_th + dph * e_ph


def state_from_ambient(model, u, v, arclength=0.0):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    th, ph = mm.unitvec_to_chart(u)
    st = math.sin(th)
    if st < 1e-12:
        raise ChartDomainError("state lies on a chart pole; no (theta, phi) "
                               "direction components exist there")
    dth = -float(v[2]) / st
    dph = float(u[0] * v[1] - u[1] * v[0]) / (st * st)
    point = mm.SurfacePoint(theta=th, phi=ph,
                            position=model.embedded_position(u))
    return GeodesicState(point=point, direction=(dth, dph),
                         arclength=arclength)


def state_from_angle(model, theta, phi, psi, arclength=0.0):
    """Unit-speed state at (theta, phi) making angle ``psi`` with the
    meridian direction (psi = pi/2 points along increasing phi)."""
    z = math.cos(theta)
    E = float(model.profile_E(z))
    G = float(model.profile_G(z))
    if G <= 0.0:
        raise ChartDomainError("direction frame undefined at the poles")
    dth = math.cos(psi) / math.sqrt(E)
    dph = math.sin(psi) / math.sqrt(G)
    point = mm.surface_point(model, theta, phi)
    return GeodesicState(point=point, direction=(dth, dph),
                         arclength=arclength)


def unit_speed_defect(model, u, v):
    return abs(float(model.dot(u, v, v)) - 1.0)


class Trajectory:
    """Dense-output geodesic trajectory of one orbit (ambient representation
    inside), from the :class:`~._integrate.DenseOutput` of its
    integration."""

    def __init__(self, model, dense, t_end, y_end):
        self.model = model
        self._dense = dense
        self.t_end = t_end
        self._y_end = y_end

    def ambient(self, t):
        """(u, v) at time t from the stored dense output; for an array of
        times, u and v have the shape of ``t`` plus a trailing axis of 3."""
        t = np.asarray(t, dtype=float)
        tq = t.reshape(-1)
        inside = (self._dense.t[0] - 1e-12 <= tq) & (tq <= self.t_end + 1e-12)
        if not inside.all():
            raise ValueError(f"t={tq[~inside][0]} outside trajectory range")
        y = np.where((tq >= self.t_end)[:, None], self._y_end,
                     self._dense(tq)[:, 0])
        y = y.reshape(t.shape + self._y_end.shape)
        return y[..., 0:3], y[..., 3:6]

    def state(self, t):
        u, v = self.ambient(t)
        return state_from_ambient(self.model, u, v, arclength=t)

    def to_csv_rows(self, n):
        """Rows (t, theta, phi, dtheta, dphi) at n uniform times over
        [0, t_end]; chart components are NaN at pole passages."""
        ts = np.linspace(0.0, self.t_end, n)
        ys = np.hstack(self.ambient(ts))
        rows = []
        for t, y in zip(ts, ys):
            try:
                s = state_from_ambient(self.model, y[0:3], y[3:6], t)
                rows.append((t, s.point.theta, s.point.phi,
                             s.direction[0], s.direction[1]))
            except ChartDomainError:
                rows.append((t, math.acos(max(-1, min(1, y[2]))),
                             math.nan, math.nan, math.nan))
        return rows


def integrate_geodesic(model, state, t_end, tol=1e-10):
    """Integrate the geodesic flow from ``state`` for time ``t_end``.

    ``tol`` is the relative tolerance of the embedded pair; the absolute
    tolerance is tied two decades below it.
    """
    if t_end <= 0.0:
        raise PreconditionError("t_end must be positive")
    if not (1e-12 <= tol <= 1e-6):
        raise PreconditionError("tol must lie in [1e-12, 1e-6]")
    u, v = state_to_ambient(model, state)
    y0 = np.concatenate([u, v])[None, :]
    project = state_projector(model)
    t, y, dense = integrate_adaptive(
        geodesic_rhs(model), y0, (0.0, t_end), rtol=tol, atol=tol * 1e-2,
        project=project, store=True)
    return Trajectory(model, dense, t, y[0])


def reversed_state(state):
    return GeodesicState(point=state.point,
                         direction=(-state.direction[0], -state.direction[1]),
                         arclength=state.arclength)


def clairaut_invariant(model, state):
    """G * dphi/dt = a (u1 v2 - u2 v1); constant along geodesics of any
    revolution metric and used as an integration diagnostic."""
    if isinstance(state, GeodesicState):
        u, v = state_to_ambient(model, state)
    else:
        u, v = np.asarray(state[0:3]), np.asarray(state[3:6])
    return float(model.a * (u[0] * v[1] - u[1] * v[0]))


# ---------------------------------------------------------------------------
# Jacobi data and conjugate points
# ---------------------------------------------------------------------------

@dataclass
class JacobiPolarState:
    """Polar form of the transversal Jacobi field: angle theta (lifted to the
    real line), radius r > 0, time t; u_J = r sin(theta), u_J' = r cos(theta)."""

    theta: float
    r: float
    t: float

    @property
    def value(self):
        return self.r * math.sin(self.theta)

    @property
    def derivative(self):
        return self.r * math.cos(self.theta)


def _augmented_initial(model, state):
    u, v = state_to_ambient(model, state)
    return np.concatenate([u, v, [0.0, 0.0]])[None, :]


def jacobi_polar_advance(model, base, t_end, tol=1e-10):
    """Advance the polar Jacobi data (theta(0) = 0, r(0) = 1) for time
    ``t_end`` along the geodesic through ``base``."""
    if t_end < 0.0:
        raise PreconditionError("t_end must be non-negative")
    if t_end == 0.0:
        return JacobiPolarState(theta=0.0, r=1.0, t=0.0)
    y0 = _augmented_initial(model, base)
    t, y, _ = integrate_adaptive(
        geodesic_rhs(model, jacobi=True), y0, (0.0, t_end),
        rtol=tol, atol=tol * 1e-2, project=state_projector(model))
    row = y[0]
    return JacobiPolarState(theta=float(row[6]), r=float(math.exp(row[7])),
                            t=t)


def conjugate_time(model, base, order, tol=1e-11):
    """Smallest t with lifted Jacobi angle equal to order * pi (order 1 or 2)."""
    if order not in (1, 2):
        raise PreconditionError("order must be 1 or 2")
    t, _ = _conjugate_sweep(model, _augmented_initial(model, base), order,
                            rtol=tol, atol=tol * 1e-2)
    return float(t[0])


def _conjugate_sweep(model, seeds, order, rtol, atol):
    """Conjugate times of the given order for a batch of (n, 8) augmented
    seeds, with the augmented states there."""
    kmin, _ = mm.curvature_extremes(model)
    horizon = order * math.pi / min(1.0, kmin) + 1.0
    w = np.zeros(8)
    w[6] = 1.0
    res = sweep_linear_events(
        geodesic_rhs(model, jacobi=True), seeds, horizon, w,
        target=order * math.pi, n_events=1, expected_slopes=(+1,),
        rtol=rtol, atol=atol, project=state_projector(model))
    if np.any(res.n_found < 1) or np.any(res.grazing):
        raise ReturnFailure(
            f"conjugate point of order {order} not reached before t={horizon}")
    return res.t_events[:, 0], res.y_events[:, 0]


# ---------------------------------------------------------------------------
# closed geodesics
# ---------------------------------------------------------------------------

class ClosedOrbit:
    """A closed geodesic stored as a uniform sample of its ambient states,
    with periodic splines for point/velocity evaluation."""

    def __init__(self, model, length, states, closure_residual):
        from scipy.interpolate import CubicSpline

        self.model = model
        self.length = float(length)
        self.states = np.asarray(states, dtype=float)
        self.closure_residual = float(closure_residual)
        ts = np.linspace(0.0, self.length, len(self.states) + 1)
        wrapped = np.vstack([self.states, self.states[0:1]])
        self._spline = CubicSpline(ts, wrapped, axis=0, bc_type="periodic")

    def at(self, x):
        """Ambient (u, v) at arclength x (periodically extended)."""
        y = self._spline(np.mod(x, self.length))
        return y[..., 0:3], y[..., 3:6]

    @property
    def clairaut(self):
        u, v = self.states[0, 0:3], self.states[0, 3:6]
        return self.model.a * (u[0] * v[1] - u[1] * v[0])

    def plane_normal(self):
        """Unit normal of the plane through the origin containing the orbit,
        or None if the orbit is not planar to 1e-8."""
        pts = self.states[:, 0:3]
        _, s, vt = np.linalg.svd(pts - 0.0, full_matrices=False)
        normal = vt[2]
        if np.max(np.abs(pts @ normal)) > 1e-8:
            return None
        return normal / np.linalg.norm(normal)


def equator_seed(model, x=0.0):
    phi = x / math.sqrt(model.a)
    return state_from_angle(model, math.pi / 2, phi, math.pi / 2)


def meridian_seed(model, phi=0.0):
    return state_from_angle(model, math.pi / 2, phi, 0.0)


def _flow_to(model, y0, t_end, tol, store=False):
    """End state of the flow from ``y0`` over [0, t_end] at the shooting
    tolerances, with the dense output when ``store`` is set."""
    _, y, dense = integrate_adaptive(
        geodesic_rhs(model), y0[None, :], (0.0, t_end), rtol=tol,
        atol=tol * 1e-3, project=state_projector(model), store=store)
    return y[0], dense


def find_closed_geodesic(model, seed, period_guess, tol=1e-12, n_store=1024):
    """Shooting refinement of (initial state, period) towards a closed orbit.

    The azimuth of the starting point is held fixed to quotient out the
    rotational symmetry; the colatitude, launch angle, and period are the
    shooting unknowns.  An exact seed (the equator, a meridian) costs one
    stored flow, which gives both the closure residual and the orbit
    samples.  Raises :class:`NoConvergenceError` when the closure residual
    cannot be brought below ``CLOSURE_TARGET``.
    """
    theta0 = seed.point.theta
    phi0 = seed.point.phi
    dth, dph = seed.direction
    z = math.cos(theta0)
    E = float(model.profile_E(z))
    G = float(model.profile_G(z))
    psi0 = math.atan2(math.sqrt(G) * dph, math.sqrt(E) * dth)

    def launch(p):
        u, v = state_to_ambient(model, state_from_angle(model, p[0], phi0,
                                                        p[1]))
        return np.concatenate([u, v])

    def residual(p):
        th, ps, T = p
        # steer the solver back when it wanders out of the chart or to a
        # non-positive period
        margin = 1e-6
        violation = (max(0.0, margin - T) + max(0.0, margin - th)
                     + max(0.0, th - (math.pi - margin)))
        if violation > 0.0:
            return np.full(6, 1.0 + violation)
        y0 = launch(p)
        return _flow_to(model, y0, T, tol)[0] - y0

    p = np.array([theta0, psi0, period_guess])
    y0 = launch(p)
    yT, dense = _flow_to(model, y0, p[2], tol, store=True)
    resid = float(np.max(np.abs(yT - y0)))
    if resid > 0.1 * CLOSURE_TARGET:
        sol = least_squares(residual, x0=p, method="lm", xtol=3e-16,
                            ftol=3e-16, gtol=3e-16, max_nfev=50 * 4)
        resid = float(np.max(np.abs(sol.fun)))
        if resid > CLOSURE_TARGET:
            raise NoConvergenceError(
                f"closure residual {resid:.3g} exceeds target "
                f"{CLOSURE_TARGET:.3g} after shooting refinement")
        p = sol.x
        _, dense = _flow_to(model, launch(p), p[2], tol, store=True)
    T = float(p[2])
    states = dense(np.linspace(0.0, T, n_store, endpoint=False))[:, 0]
    return ClosedOrbit(model, T, states, resid)


def equator_orbit(model, n_store=1024, tol=1e-12):
    """The equatorial closed geodesic, refined and sampled."""
    return find_closed_geodesic(model, equator_seed(model),
                                model.equator_length, tol=tol,
                                n_store=n_store)


def meridian_orbit(model, phi=0.0, n_store=1024, tol=1e-12):
    """The meridian closed geodesic through azimuth ``phi``."""
    return find_closed_geodesic(model, meridian_seed(model, phi),
                                model.meridian_circuit_length(), tol=tol,
                                n_store=n_store)
