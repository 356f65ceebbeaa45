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

from . import metric_models as mm
from ._integrate import integrate_adaptive, sampler, sweep_linear_events
from .errors import (ChartDomainError, NoConvergenceError, PreconditionError,
                     ReturnFailure)

_TWO_PI = 2.0 * math.pi
CLOSURE_TARGET = 1e-10    # sup norm of the (u, v) mismatch of a closed orbit
TOL_INT_RANGE = (1e-12, 1e-6)     # relative integration tolerances accepted
# Gauss-Newton shooting: angle push of the forward differences, and cap on
# the iterations (one flow each).
_SHOOT_STEP = 1e-7
_SHOOT_ITERATIONS = 8
_SHOOT_TOL = 1e-12        # relative tolerance of the shooting flows
_ORBIT_SAMPLES = 1024     # stored states of a closed orbit
_CONJUGATE_TOL = 1e-11    # relative tolerance of conjugate_time


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

    The arithmetic runs on the (d, n) rows of the state, which are the
    stepper's own column-major array when ``y`` is the view it hands out
    (any other layout is copied once), and the result is returned as the
    (n, d) transpose of a (d, n) array.  Its Jacobi tolerances are set
    for a = 1, as J grows with sqrt(a); the CLI normalises first.
    """
    a = float(model.a)
    b_of = _horner(model.b_coef)
    bp_of = _horner(model.bp_coef)

    def rhs(t, y):
        yt = np.ascontiguousarray(y.T)
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
    columns are left alone; on the stepper's column-major view that is done
    on its rows directly, any other layout is copied and written back."""
    a = float(model.a)
    b_of = _horner(model.b_coef)

    def project(y):
        rows = y[:, 0:6].T
        yt = np.ascontiguousarray(rows)
        u, v = yt[0:3], yt[3:6]
        u /= np.sqrt((u * u).sum(axis=0))
        v -= (u * v).sum(axis=0) * u
        v /= np.sqrt(a * (v * v).sum(axis=0) + b_of(u[2]) * (v[2] * v[2]))
        if yt is not rows:
            y[:, 0:6] = yt.T
        return y

    return project


# ---------------------------------------------------------------------------
# states and trajectories
# ---------------------------------------------------------------------------

@dataclass
class GeodesicState:
    """Chart point (theta in [0, pi], phi in [0, 2 pi)) and unit direction.

    ``direction`` holds the chart velocities (dtheta/dt, dphi/dt) of the
    unit-speed parametrisation.
    """

    theta: float
    phi: float
    direction: tuple


def state_to_ambient(model, state):
    th, ph = state.theta, state.phi
    u = mm.chart_to_unitvec(th, ph)
    dth, dph = state.direction
    e_th = np.array([math.cos(th) * math.cos(ph),
                     math.cos(th) * math.sin(ph), -math.sin(th)])
    e_ph = np.array([-math.sin(th) * math.sin(ph),
                     math.sin(th) * math.cos(ph), 0.0])
    return u, dth * e_th + dph * e_ph


def state_from_ambient(model, u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    th, ph = mm.unitvec_to_chart(u)
    st = math.sin(th)
    if st < 1e-12:
        raise ChartDomainError("state lies on a chart pole; no (theta, phi) "
                               "direction components exist there")
    dth = -float(v[2]) / st
    dph = float(u[0] * v[1] - u[1] * v[0]) / (st * st)
    return GeodesicState(theta=th, phi=ph, direction=(dth, dph))


def state_from_angle(model, theta, phi, psi):
    """Unit-speed state at (theta, phi) making angle ``psi`` with the
    meridian direction (psi = pi/2 points along increasing phi)."""
    if not (0.0 <= theta <= math.pi) or not math.isfinite(phi):
        raise ChartDomainError(
            f"chart coordinates (theta={theta}, phi={phi}) out of range")
    z = math.cos(theta)
    E = float(model.profile_E(z))
    G = float(model.profile_G(z))
    if G <= 0.0:
        raise ChartDomainError("direction frame undefined at the poles")
    dth = math.cos(psi) / math.sqrt(E)
    dph = math.sin(psi) / math.sqrt(G)
    return GeodesicState(theta=theta, phi=phi % _TWO_PI, direction=(dth, dph))


def integrate_geodesic(model, states, t_end, times, tol=1e-10):
    """Ambient states (q, n, 6) of the geodesic flows from the n ``states``,
    integrated as the rows of one batch to ``t_end`` and sampled at the
    ascending ``times`` (q,) in [0, t_end]; a time at ``t_end`` takes the
    final projected states.

    ``tol`` is the relative tolerance of the embedded pair, met by every
    row; the absolute tolerance is tied two decades below it.
    """
    if not (0.0 < t_end < math.inf):
        raise PreconditionError("t_end must be finite and positive")
    lo, hi = TOL_INT_RANGE
    if not (lo <= tol <= hi):
        raise PreconditionError(f"tol must lie in [{lo:g}, {hi:g}]")
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and np.all((0.0 <= times) & (times <= t_end))
            and np.all(np.diff(times) >= 0.0)):
        raise PreconditionError("times must ascend within [0, t_end]")
    y0 = np.array([np.concatenate(state_to_ambient(model, s))
                   for s in states])
    inner = times[times < t_end]
    y, blocks = _flow(model, y0, t_end, tol, np.arange(len(y0)), inner)
    return np.concatenate(
        [*blocks, np.repeat(y[None], len(times) - len(inner), axis=0)])


def _flow(model, y0, t_end, tol, rows, times):
    """End states (n, 6) of the flows from the rows of ``y0`` (n, 6),
    integrated as one batch over [0, ``t_end``] at the relative tolerance
    ``tol`` (absolute ``tol * 1e-2``), and the list of (p, len(rows), 6)
    blocks that the rows ``rows`` give at the ascending ``times`` in
    [0, t_end), in time order."""
    hook, blocks = sampler(rows, slice(None), times)
    _, y = integrate_adaptive(
        geodesic_rhs(model), y0, (0.0, t_end), rtol=tol,
        project=state_projector(model), step_hook=hook)
    return y, blocks


def clairaut_invariant(model, y):
    """G * dphi/dt = a (u1 v2 - u2 v1) of the ambient state ``y`` = (u, v);
    constant along geodesics of any revolution metric."""
    u, v = y[0:3], y[3:6]
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


def jacobi_polar_advance(model, base, t_end):
    """Advance the polar Jacobi data (theta(0) = 0, r(0) = 1) for time
    ``t_end`` along the geodesic through ``base``, at the default tolerances
    of :func:`~._integrate.integrate_adaptive`."""
    if t_end < 0.0:
        raise PreconditionError("t_end must be non-negative")
    if t_end == 0.0:
        return JacobiPolarState(theta=0.0, r=1.0, t=0.0)
    y0 = _augmented_initial(model, base)
    t, y = integrate_adaptive(
        geodesic_rhs(model, jacobi=True), y0, (0.0, t_end),
        project=state_projector(model))
    row = y[0]
    return JacobiPolarState(theta=float(row[6]), r=float(math.exp(row[7])),
                            t=t)


def conjugate_time(model, base, order):
    """Smallest t with lifted Jacobi angle equal to order * pi (order 1 or 2)."""
    if order not in (1, 2):
        raise PreconditionError("order must be 1 or 2")
    kmin, _ = mm.curvature_extremes(model)
    horizon = conjugate_horizon(kmin, order)
    res = sweep_linear_events(
        geodesic_rhs(model, jacobi=True), _augmented_initial(model, base),
        horizon, np.eye(8)[6], target=order * math.pi, n_events=1,
        expected_slopes=(+1,), rtol=_CONJUGATE_TOL,
        project=state_projector(model))
    if res.n_found[0] < 1 or res.grazing[0]:
        raise ReturnFailure(
            f"conjugate point of order {order} not reached before t={horizon}")
    return float(res.t_events[0, 0])


def conjugate_horizon(kmin, order):
    """Time within which every geodesic of a metric with min K = ``kmin``
    meets its conjugate point of the given order: the Sturm bound plus a
    margin, both scaled by 1 / sqrt(kmin) as the metric is."""
    return (order * math.pi + 1.0) / math.sqrt(kmin)


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
        return clairaut_invariant(self.model, self.states[0])

    def plane_normal(self):
        """Unit normal of the plane through the origin containing the orbit,
        or None if the orbit is not planar to 1e-8."""
        pts = self.states[:, 0:3]
        _, s, vt = np.linalg.svd(pts - 0.0, full_matrices=False)
        normal = vt[2]
        if np.max(np.abs(pts @ normal)) > 1e-8:
            return None
        return normal / np.linalg.norm(normal)


def equator_seed(model):
    return state_from_angle(model, math.pi / 2, 0.0, math.pi / 2)


def meridian_seed(model):
    return state_from_angle(model, math.pi / 2, 0.0, 0.0)


def find_closed_geodesic(model, seed, period_guess):
    """A closed orbit through the start azimuth of ``seed`` by Gauss-Newton
    shooting in (theta0, psi0, T); an exact seed (a meridian) closes on its
    first flow.

    Each iteration flows the launch and the launch with theta0 and psi0
    pushed by ``_SHOOT_STEP`` as the rows of one batch to T, so their
    forward differences share the step sizes (internal numerical
    differentiation); the period column of the Jacobian is the vector
    field at the launch's end state.  Closure is measured on (u, v).
    ``lstsq`` solves for the step even where the closed orbits form a
    family (theta0 along a meridian, a Zoll metric).  Raises
    :class:`NoConvergenceError` when the closure residual cannot be
    brought below ``CLOSURE_TARGET``.  The orbit stores the
    ``_ORBIT_SAMPLES`` states that the launch of the last flow sampled.
    Its tolerances are set for a = 1; the CLI normalises first.
    """
    theta0, phi0 = seed.theta, seed.phi
    (dth, dph), z = seed.direction, math.cos(theta0)
    psi0 = math.atan2(math.sqrt(float(model.profile_G(z))) * dph,
                      math.sqrt(float(model.profile_E(z))) * dth)
    p = np.array([theta0, psi0, period_guess])
    for _ in range(_SHOOT_ITERATIONS):
        T, pushes = p[2], p[:2] + _SHOOT_STEP * np.eye(3, 2, -1)
        y0 = np.array([np.concatenate(state_to_ambient(model, state_from_angle(
            model, th, phi0, ps))) for th, ps in pushes])
        yT, states = _flow(model, y0, T, _SHOOT_TOL, [0], np.linspace(
            0.0, T, _ORBIT_SAMPLES, endpoint=False))
        closure = yT - y0
        resid = float(np.max(np.abs(closure[0])))
        if resid <= 0.1 * CLOSURE_TARGET:
            return ClosedOrbit(model, T, np.concatenate(states)[:, 0], resid)
        jac = np.column_stack([*(closure[1:] - closure[0]) / _SHOOT_STEP,
                               geodesic_rhs(model)(T, yT[:1])[0]])
        p = p - np.linalg.lstsq(jac, closure[0], rcond=None)[0]
        # T -> 0 closes every state, a root that is no orbit
        if not (0.0 < p[0] < math.pi
                and p[2] > _SHOOT_STEP * period_guess):
            break
    raise NoConvergenceError(
        f"closure residual {resid:.3g} exceeds target "
        f"{CLOSURE_TARGET:.3g} after shooting refinement")


def equator_orbit(model):
    """The equatorial closed geodesic in closed form: the circle z = 0 run
    along increasing phi (the direction of :func:`equator_seed`) at chart
    speed 2 pi / L, L its length, sampled at ``_ORBIT_SAMPLES`` states; it
    closes exactly."""
    phi = np.linspace(0.0, _TWO_PI, _ORBIT_SAMPLES, endpoint=False)
    c, s, zero = np.cos(phi), np.sin(phi), np.zeros_like(phi)
    speed = _TWO_PI / model.equator_length
    return ClosedOrbit(model, model.equator_length, np.column_stack(
        [c, s, zero, -speed * s, speed * c, zero]), 0.0)


def meridian_orbit(model):
    """The meridian closed geodesic through azimuth 0."""
    return find_closed_geodesic(model, meridian_seed(model),
                                model.meridian_circuit_length())
