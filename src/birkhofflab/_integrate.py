"""Vectorised adaptive Runge-Kutta integration with dense output.

A single Dormand-Prince 5(4) stepper advances a whole batch of orbits with a
shared step size; the error controller uses the worst per-orbit error, so
every orbit individually satisfies the requested tolerances.  Dense output
(the classical quartic interpolant) supports event location inside accepted
steps without re-integration; the events of a whole batch are located
together (see :func:`sweep_linear_events`).

Grazing is decided by the same root finder: an orbit that crosses nothing
in a step but whose event quartic has an extremum there (a root of its
derivative) within ``GRAZE_TOL`` of the level is flagged.  This needs no
step-size cap, and an orbit leaving the level monotonically is not flagged.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IntegrationFailure

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])
# Dense-output extrapolation matrix (Shampine's quartic interpolant).
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0


def _theta_powers(theta):
    return np.array([theta, theta ** 2, theta ** 3, theta ** 4])


# Event sweeps look for sign changes of the event quartic and of its
# derivative on this sub-grid of every accepted step.
_SUBSAMPLES = 6
_THETAS = np.linspace(0.0, 1.0, _SUBSAMPLES + 1)
_THETA_POWS = np.vstack([_theta_powers(th) for th in _THETAS[1:]])   # (m, 4)
_SLOPE_POWS = np.vander(_THETAS, 4, increasing=True)                # (m+1, 4)
GRAZE_TOL = 1e-10   # extremum distance to the level that flags grazing


def dense_state(y_old, h, stages, theta):
    """State at t_old + theta*h from the dense-output interpolant.

    ``stages`` may be (7, d) for a single orbit or (7, n, d) for a batch;
    the result matches the trailing shape.  For a batch, ``theta`` may also
    be an (n,) array and ``h`` an (n, 1) array, one value per row.
    """
    w = _P @ _theta_powers(theta)                      # (7,) or (7, n)
    return y_old + h * np.einsum("s...,s...d->...d", w, stages)


class DenseOutput:
    """Dense output of one integration of n orbits over m accepted steps,
    built from their (t, h, y, stages) tuples: step starts ``t`` and sizes
    ``h`` (m,), start states ``y`` (m, n, d) and stages (7, m, n, d).

    The list ``steps`` is consumed: each step is released as it is written
    into the arrays, so the steps are never held twice."""

    def __init__(self, steps):
        m, (n, d) = len(steps), steps[0][2].shape
        self.t, self.h = np.empty(m), np.empty(m)
        self.y, self.stages = np.empty((m, n, d)), np.empty((7, m, n, d))
        for k in range(m - 1, -1, -1):
            self.t[k], self.h[k], self.y[k], self.stages[:, k] = steps.pop()

    def __call__(self, t, row=None):
        """States (q, n, d) at the times ``t`` (q,), each interpolated in
        the step that contains it (the first or last step outside the
        covered span); with ``row``, the (q, d) states of that orbit
        alone."""
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.t, t, side="right") - 1, 0,
                    len(self.t) - 1)
        rows = slice(None) if row is None else slice(row, row + 1)
        y0, stages = self.y[k, rows], self.stages[:, k, rows]
        q, n, d = y0.shape
        theta = np.repeat((t - self.t[k]) / self.h[k], n)
        h = np.repeat(self.h[k], n)[:, None]
        y = dense_state(y0.reshape(q * n, d), h,
                        stages.reshape(7, q * n, d), theta).reshape(q, n, d)
        return y if row is None else y[:, 0]


def _initial_step(fun, t0, y0, f0, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = np.max(np.abs(y0) / scale)
    d1 = np.max(np.abs(f0) / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = np.max(np.abs(f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


def integrate_adaptive(fun, y0, t_span, rtol=1e-10, atol=1e-12,
                       project=None, step_hook=None, store=False):
    """Advance ``y0`` (shape (n, d) or (d,)) over ``t_span = (t0, t1)``.

    Returns ``(t, y, dense)``.  ``step_hook(t_old, h, y_old, stages, y_new)``
    runs after every accepted step and may return True to request early
    termination.  With ``store``, ``dense`` is the :class:`DenseOutput` of
    the accepted steps (the (n, d) form even for a (d,) ``y0``); otherwise
    it is None.

    Error control is per orbit: the controller accepts a step only when the
    worst orbit in the batch meets the tolerance.
    """
    single = y0.ndim == 1
    y = np.array(y0, dtype=float, ndmin=2)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ValueError("t_span must be increasing")
    t = t0
    f = fun(t, y)
    h = min(_initial_step(fun, t, y, f, rtol, atol), t1 - t0)
    steps = []
    n, d = y.shape
    inv_d = 1.0 / d
    stages = np.empty((7, n, d))
    while t < t1:
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationFailure("step size underflow", t=t,
                                     last_state=y[0] if single else y)
        stages[0] = f
        for i in range(1, 7):
            yi = y + h * np.einsum("s,snd->nd", _A[i], stages[:i])
            stages[i] = fun(t + _C[i] * h, yi)
        y_new = y + h * np.einsum("s,snd->nd", _B, stages)
        err_vec = h * np.einsum("s,snd->nd", _E, stages)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        ratio = err_vec / scale
        # RMS error of the worst orbit
        worst = math.sqrt(float(np.max(np.einsum("nd,nd->n", ratio, ratio)))
                          * inv_d)
        if not math.isfinite(worst):
            worst = math.inf          # overflowing step: shrink and retry
        if worst <= 1.0:
            stop = False
            if step_hook is not None:
                stop = bool(step_hook(t, h, y, stages, y_new))
            if store:
                # y is never written after the step; stages is reused.
                steps.append((t, h, y, stages.copy()))
            t = t + h
            y = y_new
            if project is not None:
                y = project(y)
            f = fun(t, y)
            factor = (_MAX_FACTOR if worst == 0.0
                      else min(_MAX_FACTOR, _SAFETY * worst ** -0.2))
            if stop:
                break
        else:
            factor = max(_MIN_FACTOR, _SAFETY * worst ** -0.2)
        h = h * factor
    return t, (y[0] if single else y), DenseOutput(steps) if store else None


# ---------------------------------------------------------------------------
# event sweeps
# ---------------------------------------------------------------------------

class EventSweepResult:
    """Per-orbit event times/states collected by :func:`sweep_linear_events`."""

    def __init__(self, n, n_events, d):
        self.t_events = np.full((n, n_events), np.nan)
        self.y_events = np.full((n, n_events, d), np.nan)
        self.slopes = np.zeros((n, n_events))
        self.n_found = np.zeros(n, dtype=int)
        self.grazing = np.zeros(n, dtype=bool)


def _quartic_roots(coeffs, lo, hi, flo):
    """Roots of k dense polynomials, one inside each bracket [lo, hi], by
    safeguarded Newton with bisection fallback.

    ``coeffs`` is (k, 5) in ascending powers; ``lo``, ``hi`` and the
    values ``flo`` at ``lo`` are (k,).  The iteration runs elementwise:
    each root stops on its own test (a zero value or a step below 1e-15).
    """
    c0, c1, c2, c3, c4 = coeffs.T
    d1, d2, d3 = 2 * c2, 3 * c3, 4 * c4
    a, b, fa = lo, hi, flo
    x = 0.5 * (a + b)
    live = np.ones(len(x), dtype=bool)
    for _ in range(80):
        fx = c0 + x * (c1 + x * (c2 + x * (c3 + x * c4)))
        live &= fx != 0.0
        left = fa * fx < 0.0
        b = np.where(live & left, x, b)
        up = live & ~left
        a = np.where(up, x, a)
        fa = np.where(up, fx, fa)
        dfx = c1 + x * (d1 + x * (d2 + x * d3))
        with np.errstate(divide="ignore", invalid="ignore"):
            x_newton = np.where(dfx != 0.0, x - fx / dfx, a)
        x_next = np.where((a < x_newton) & (x_newton < b), x_newton,
                          0.5 * (a + b))
        settled = live & (np.abs(x_next - x) < 1e-15)
        x = np.where(live, x_next, x)
        live &= ~settled
        if not live.any():
            break
    return x


def sweep_linear_events(fun, y0, t_max, weights, target=0.0, n_events=2,
                        expected_slopes=None, rtol=1e-10, atol=1e-12,
                        project=None):
    """Batch-integrate until each orbit records ``n_events`` roots of the
    linear event functional  e(y) = y . weights - target.

    Returns an :class:`EventSweepResult`.  Orbits whose event function
    turns within ``GRAZE_TOL`` of zero in a step without crossing it are
    flagged as grazing and abandoned (their remaining events stay NaN).

    Event location is batched over the whole step.  The event function of
    every orbit is one quartic in theta = (t - t_old) / h, whose
    coefficients come from one contraction of the stages with ``weights``.
    On a sub-grid of the step, all sign changes of the quartic (each
    orbit's in time order, as many as its remaining ``n_events``) and, for
    orbits that cross nothing, all sign changes of its derivative are
    gathered and refined together by safeguarded Newton with bisection
    fallback, each root stopping on its own test.  So no event straddles a
    step boundary unnoticed, and crossing states come from one batched
    dense-output evaluation.
    """
    y0 = np.array(y0, dtype=float, ndmin=2)
    n, d = y0.shape
    w = np.asarray(weights, dtype=float)
    res = EventSweepResult(n, n_events, d)
    active = np.ones(n, dtype=bool)

    def hook(t, h, y_old, stages, y_new):
        z0 = y_old @ w - target
        if t == 0.0:
            # Seeds launched from the section itself carry rounding noise in
            # their event value; snap it so the launch side decides the sign.
            z0 = np.where(np.abs(z0) < 1e-9, 0.0, z0)
        cw = h * ((stages @ w).T @ _P)                   # (n,4) theta-poly
        zs = np.vstack([z0[None, :], z0[None, :] + _THETA_POWS @ cw.T])
        sgn = np.sign(zs)
        # A zero start counts on the side the orbit is launched towards.
        launch = np.sign(stages[0] @ w)
        sgn[0] = np.where(sgn[0] == 0.0, launch, sgn[0])
        changes = sgn[:-1] * sgn[1:] < 0.0                   # (m,n)
        has_change = changes.any(axis=0)
        hit = active & has_change
        # Extrema of the orbits that cross nothing: slope sign changes.
        dcw = cw * np.arange(1.0, 5.0)                   # (n,4) slope poly
        dzs = _SLOPE_POWS @ dcw.T                        # (m+1,n)
        turns = (dzs[:-1] * dzs[1:] < 0.0) & (active & ~has_change)
        if not (hit.any() or turns.any()):
            return False
        # Keep each orbit's crossings in time order up to its cap.
        rank = np.cumsum(changes, axis=0)
        keep = changes & hit & (res.n_found + rank <= n_events)
        i, m = np.nonzero(keep.T)                 # orbit-major, m ascending
        g, mg = np.nonzero(turns.T)
        sub = np.concatenate([m, mg])             # sub-interval of each root
        roots = _quartic_roots(
            np.vstack([np.column_stack([z0[i], cw[i]]),
                       np.column_stack([dcw[g], np.zeros(len(g))])]),
            _THETAS[sub], _THETAS[sub + 1],
            np.concatenate([zs[m, i], dzs[mg, g]]))
        th, th_g = roots[:len(i)], roots[len(i):]
        k = res.n_found[i] + rank[m, i] - 1
        res.t_events[i, k] = t + th * h
        res.y_events[i, k] = dense_state(y_old[i], h, stages[:, i], th)
        c1, c2, c3, c4 = cw[i].T
        res.slopes[i, k] = (c1 + th * (2 * c2 + th *
                            (3 * c3 + 4 * th * c4))) / h
        res.n_found += keep.sum(axis=0)
        active[hit & (res.n_found >= n_events)] = False
        c1, c2, c3, c4 = cw[g].T
        z_ext = z0[g] + th_g * (c1 + th_g * (c2 + th_g * (c3 + th_g * c4)))
        grazing = g[np.abs(z_ext) < GRAZE_TOL]
        res.grazing[grazing] = True
        active[grazing] = False
        return not np.any(active)

    integrate_adaptive(fun, y0, (0.0, t_max), rtol=rtol, atol=atol,
                       project=project, step_hook=hook)
    if expected_slopes is not None:
        res.grazing |= (res.n_found >= n_events) & np.any(
            np.sign(res.slopes) != expected_slopes, axis=1)
    return res
