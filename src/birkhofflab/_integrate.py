"""Vectorised adaptive Runge-Kutta integration with dense output.

A single Dormand-Prince 5(4) stepper advances a whole batch of orbits with a
shared step size; the error controller uses the worst per-orbit error, so
every orbit individually satisfies the requested tolerances.  Dense output
(the classical quartic interpolant) is read on the step in hand, from a step
hook: it locates events inside accepted steps, those of a whole batch
together (see :func:`sweep_linear_events`), and samples states between
steps (see :func:`sampler`), without re-integration and without keeping
the steps.

The batch is held column-major: the state is a (d, n) array and the stages
a (7, d, n) one, so each stage combination is one matrix-vector product
over whole rows and a right-hand side that works on the d coordinate rows
reads and writes them without a transposed copy.  Callers still see the
(n, d) orientation: ``fun``, ``project`` and ``step_hook`` receive
transposed views of the stepper's arrays.

Grazing is decided by the same root finder: an orbit that crosses nothing
in a step but whose event quartic has an extremum there (a root of its
derivative) within ``GRAZE_TOL`` of the level is flagged.  This needs no
step-size cap, and an orbit leaving the level monotonically is not flagged.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IntegrationFailure, PreconditionError

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


# Event sweeps look for sign changes of the event quartic and of its
# derivative on this sub-grid of every accepted step.
_SUBSAMPLES = 6
_THETAS = np.linspace(0.0, 1.0, _SUBSAMPLES + 1)
GRAZE_TOL = 1e-10   # extremum distance to the level that flags grazing
# Relative slack of the near-level screen of an event sweep, far above the
# few ulps by which the evaluated quartic can exceed its coefficient bound.
_SCREEN_SLACK = 1.0 + 1e-9


def dense_state(y_old, h, stages, theta):
    """State at t_old + theta*h from the dense-output interpolant.

    ``stages`` may be (7, d) for a single orbit or (7, n, d) for a batch;
    the result matches the trailing shape.  For a batch, ``theta`` may also
    be an (n,) array, one value per row.
    """
    w = _P @ np.array([theta, theta ** 2, theta ** 3, theta ** 4])  # (7, ...)
    return y_old + h * np.einsum("s...,s...d->...d", w, stages)


def sampler(rows, cols, times):
    """A step hook that evaluates the columns ``cols`` of the orbits
    ``rows`` (k,) at the ascending ``times`` that fall in each accepted
    step [t, t + h), by :func:`dense_state` on the step in hand, and the
    list it appends each step's (p, k, c) block to, in time order.  The
    hook never stops the integration.

    A sample's value does not depend on the rows or times sampled with it.
    numpy forms the weights of a lone sample by a matrix-vector product,
    whose sums round differently from the matrix product of two or more,
    so a lone sample is evaluated twice."""
    blocks = []

    def hook(t, h, y_old, stages, y_new):
        lo, hi = np.searchsorted(times, (t, t + h))
        if hi > lo:
            q, k = hi - lo, len(rows)
            theta = np.repeat((times[lo:hi] - t) / h, 1 + (q * k == 1))
            m = len(theta)
            y0, sk = y_old[rows][:, cols], stages[:, rows][..., cols]
            y = dense_state(np.tile(y0, (m, 1)), h, np.tile(sk, (1, m, 1)),
                            np.repeat(theta, k))
            blocks.append(y[:q * k].reshape(q, k, -1))
        return False

    return hook, blocks


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


def integrate_adaptive(fun, y0, t_span, rtol=1e-10, project=None,
                       step_hook=None):
    """Advance ``y0`` (shape (n, d) or (d,)) over ``t_span = (t0, t1)`` at
    the relative tolerance ``rtol`` and the absolute one ``rtol * 1e-2``.

    Returns ``(t, y)`` with ``y`` shaped like ``y0``.
    ``step_hook(t_old, h, y_old, stages, y_new)`` runs after every accepted
    step and may return True to request early termination; states between
    steps are read there (see :func:`sampler`).

    Error control is per orbit: the controller accepts a step only when the
    worst orbit in the batch meets the tolerance.

    The stepper holds the state as a (d, n) array and the stages as a
    (7, d, n) array, and forms each stage combination as one product of the
    tableau row with the stages flattened to (i, d n).  ``fun(t, y)``,
    ``project(y)`` and ``step_hook`` get (n, d) and (7, n, d) transposed
    views of these arrays, so ``len(y)`` is the number of orbits; their
    ``.T`` (``transpose(0, 2, 1)`` for the stages) is the C-contiguous
    column-major array again, without a copy.  A hook must not keep the
    views past its return: the stages array is reused by the next step.
    ``project`` may rewrite its argument in place and returns the new
    state.  The call structure is that of DP5(4): two RHS calls to start,
    six per attempted step and one per accepted step.  A step size below
    rounding (1e-14 times the larger of |t| and the span), or NaN, raises
    :class:`IntegrationFailure` (the controller's step, before its clip to
    the span's end, so a span below rounding is one step).
    """
    single = y0.ndim == 1
    y = np.array(np.atleast_2d(y0).T, dtype=float, order="C")      # (d, n)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (-math.inf < t0 < t1 < math.inf):
        raise PreconditionError("t_span must be finite and increasing")
    if not np.all(np.isfinite(y)):
        raise PreconditionError("initial state must be finite")

    def rhs(t, yc):
        return fun(t, yc.T).T

    d, n = y.shape
    stages = np.empty((7, d, n))
    flat = stages.reshape(7, d * n)
    views = stages.transpose(0, 2, 1)                 # (7, n, d), no copy
    inv_d = 1.0 / d
    atol = rtol * 1e-2
    t = t0
    stages[0] = rhs(t, y)
    h = _initial_step(rhs, t, y, stages[0], rtol, atol)
    while t < t1:
        if not h >= 1e-14 * max(abs(t), t1 - t0):   # NaN fails too
            raise IntegrationFailure("step size underflow", t=t,
                                     last_state=y.T[0] if single else y.T)
        h = min(h, t1 - t)
        for i in range(1, 7):
            yi = y + ((h * _A[i]) @ flat[:i]).reshape(d, n)
            stages[i] = rhs(t + _C[i] * h, yi)
        # The last stage is taken at the new state: the 5th-order weights
        # are the tableau's last row (first same as last).
        y_new = yi
        err_vec = ((h * _E) @ flat).reshape(d, n)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        ratio = err_vec / scale
        # RMS error of the worst orbit
        worst = math.sqrt(float(np.max(np.einsum("dn,dn->n", ratio, ratio)))
                          * inv_d)
        if not math.isfinite(worst):
            worst = math.inf          # overflowing step: shrink and retry
        if worst <= 1.0:
            stop = False
            if step_hook is not None:
                stop = bool(step_hook(t, h, y.T, views, y_new.T))
            t = t + h
            y = y_new
            if project is not None:
                y = np.ascontiguousarray(project(y.T).T)
            stages[0] = rhs(t, y)
            factor = (_MAX_FACTOR if worst == 0.0
                      else min(_MAX_FACTOR, _SAFETY * worst ** -0.2))
            if stop:
                break
        else:
            factor = max(_MIN_FACTOR, _SAFETY * worst ** -0.2)
        h = h * factor
    return t, y.T[0] if single else y.T


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
        self.samples = None


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
                        expected_slopes=None, rtol=1e-10, project=None,
                        sample=None):
    """Batch-integrate until each orbit records ``n_events`` roots of the
    linear event functional  e(y) = y . weights - target;  ``weights`` (d,)
    or (n, d), ``target`` and ``n_events`` broadcast per orbit.  An orbit
    wanting fewer events than the most fills the last slots, checked against
    the last ``expected_slopes``; its unused ones (NaN) count in ``n_found``.

    Returns an :class:`EventSweepResult`.  Orbits whose event function
    turns within ``GRAZE_TOL`` of zero in a step without crossing it are
    flagged as grazing and abandoned (their remaining events stay NaN).

    ``sample = (rows, cols, times)`` also samples the columns ``cols`` of
    the orbits ``rows`` (k,) at the ascending ``times`` (q,) by
    :func:`sampler`, the times ascending from 0: ``samples`` is (p, k, c),
    the states at the first p times, those the sweep reaches before it
    stops.
    Sampling only reads the steps, so the events are the same without it.

    Event location is batched over the whole step.  The event function of
    every orbit is one quartic in theta = (t - t_old) / h, whose
    coefficients come from one contraction of the stepper's (7, d, n)
    stages with ``weights``, over the columns the weights read.  On a
    sub-grid of the step, all sign changes of the quartic (each orbit's in
    time order, as many as its remaining events) and, for orbits that cross
    nothing, all sign changes of its derivative are gathered and refined
    together by safeguarded Newton with bisection fallback, each root
    stopping on its own test.  So no event straddles a step boundary
    unnoticed, and crossing states come from one batched dense-output
    evaluation.

    Only the active orbits near the level reach that search.  Over the step
    the quartic moves at most the sum of its coefficients' magnitudes away
    from its start value z0, so an orbit with |z0| beyond that sum plus
    ``GRAZE_TOL`` can neither cross the level nor turn within ``GRAZE_TOL``
    of it.  ``_SCREEN_SLACK`` covers the rounding of the sub-grid and
    extremum evaluations, so this holds in floating point too: the screen
    drops only orbits the search would leave untouched, and the search
    treats each orbit on its own, so the events, slopes and grazing flags
    are bit-identical to those of the unscreened search.
    """
    y0 = np.atleast_2d(np.asarray(y0, dtype=float))
    n, d = y0.shape
    w = np.broadcast_to(np.asarray(weights, dtype=float), (n, d))
    reads = np.flatnonzero(np.any(w != 0.0, axis=0))    # columns e reads
    w_reads = np.ascontiguousarray(w[:, reads].T)       # (u, n)
    wanted = np.broadcast_to(n_events, (n,))
    n_events = int(wanted.max())
    res = EventSweepResult(n, n_events, d)
    res.n_found[:] = n_events - wanted
    active = np.ones(n, dtype=bool)
    tg = _THETAS[:, None]                               # the sub-grid
    if sample is not None:
        sample_hook, blocks = sampler(*sample)

    def hook(t, h, y_old, stages, y_new):
        if sample is not None:
            sample_hook(t, h, y_old, stages, y_new)
        # the stepper's (d, n) state and (7, d, n) stages behind the views
        yc, sc = y_old.T, stages.transpose(0, 2, 1)
        z0 = np.einsum("un,un->n", yc[reads], w_reads) - target
        if t == 0.0:
            # Seeds launched from the section itself carry rounding noise in
            # their event value; snap it so the launch side decides the sign.
            z0 = np.where(np.abs(z0) < 1e-9, 0.0, z0)
        cw = h * (_P.T @ np.einsum("sun,un->sn", sc[:, reads], w_reads))
        near = np.flatnonzero(active & (np.abs(z0) <= _SCREEN_SLACK * (
            np.abs(cw).sum(axis=0) + GRAZE_TOL)))
        if not len(near):
            return False
        z0, cw = z0[near], cw[:, near]         # (k,), (4, k) theta-poly
        c1, c2, c3, c4 = cw
        zs = z0 + tg * (c1 + tg * (c2 + tg * (c3 + tg * c4)))    # (m+1, k)
        sgn = np.sign(zs)
        # A zero start counts on the side its initial slope points to.
        sgn[0] = np.where(sgn[0] == 0.0, np.sign(c1), sgn[0])
        changes = sgn[:-1] * sgn[1:] < 0.0                       # (m, k)
        hit = changes.any(axis=0)
        # Extrema of the orbits that cross nothing: slope sign changes.
        dcw = cw * np.arange(1.0, 5.0)[:, None]                  # slope poly
        d1, d2, d3, d4 = dcw
        dzs = d1 + tg * (d2 + tg * (d3 + tg * d4))               # (m+1, k)
        turns = (dzs[:-1] * dzs[1:] < 0.0) & ~hit
        if not (hit.any() or turns.any()):
            return False
        # Keep each orbit's crossings in time order up to its cap.
        rank = np.cumsum(changes, axis=0)
        keep = changes & hit & (res.n_found[near] + rank <= n_events)
        i, m = np.nonzero(keep.T)                 # orbit-major, m ascending
        g, mg = np.nonzero(turns.T)
        sub = np.concatenate([m, mg])             # sub-interval of each root
        roots = _quartic_roots(
            np.vstack([np.column_stack([z0[i], cw[:, i].T]),
                       np.column_stack([dcw[:, g].T, np.zeros(len(g))])]),
            _THETAS[sub], _THETAS[sub + 1],
            np.concatenate([zs[m, i], dzs[mg, g]]))
        th, th_g = roots[:len(i)], roots[len(i):]
        orbit = near[i]
        k = res.n_found[orbit] + rank[m, i] - 1
        res.t_events[orbit, k] = t + th * h
        res.y_events[orbit, k] = dense_state(y_old[orbit], h,
                                             stages[:, orbit], th)
        c1, c2, c3, c4 = cw[:, i]
        res.slopes[orbit, k] = (c1 + th * (2 * c2 + th *
                                (3 * c3 + 4 * th * c4))) / h
        res.n_found[near] += keep.sum(axis=0)
        active[near[hit & (res.n_found[near] >= n_events)]] = False
        c1, c2, c3, c4 = cw[:, g]
        z_ext = z0[g] + th_g * (c1 + th_g * (c2 + th_g * (c3 + th_g * c4)))
        grazing = near[g[np.abs(z_ext) < GRAZE_TOL]]
        res.grazing[grazing] = True
        active[grazing] = False
        return not np.any(active)

    integrate_adaptive(fun, y0, (0.0, t_max), rtol=rtol, project=project,
                       step_hook=hook)
    if sample is not None:
        res.samples = np.concatenate(blocks)
    if expected_slopes is not None:
        wrong = np.sign(res.slopes) != np.asarray(expected_slopes)[-n_events:]
        res.grazing |= (res.n_found >= n_events) & np.any(
            wrong & ~np.isnan(res.t_events), axis=1)
    return res
