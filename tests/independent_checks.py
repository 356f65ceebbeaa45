"""Independent checks that only the tests use: they restate a property of
the package's results from other routes, so they are kept out of the
package itself."""

import math

import numpy as np
from scipy.interpolate import CubicSpline

from birkhofflab import birkhoff_section as bs
from birkhofflab import geodesic_dynamics as gd
from birkhofflab import strip_calculus as sc
from birkhofflab._integrate import (_P, _THETAS, GRAZE_TOL, EventSweepResult,
                                    _quartic_roots, dense_state)
from birkhofflab.errors import PreconditionError

# Most orbits of one return sweep in every_node_returns: a sweep holds the
# stages and events of all its orbits at once.
SWEEP_ORBITS = 2400


def spheroid_area(c):
    """Closed-form area of the spheroid with semi-axes (1, 1, c), c != 1."""
    if c > 1.0:
        e = math.sqrt(1.0 - 1.0 / c ** 2)
        return 2.0 * math.pi * (1.0 + (c / e) * math.asin(e))
    e = math.sqrt(1.0 - c ** 2)
    return 2.0 * math.pi * (1.0 + (c * c / e) * math.atanh(e))


def unit_speed_defect(model, u, v):
    """|g(v, v) - 1| of the ambient tangent vector v at u."""
    return abs(float(model.dot(u, v, v)) - 1.0)


def reversed_state(state):
    """The same point with the direction reversed."""
    return gd.GeodesicState(theta=state.theta, phi=state.phi,
                            direction=(-state.direction[0],
                                       -state.direction[1]))


def identity_map(length=2 * np.pi, nx=96, ny=96):
    xs, ys = sc.strip_mesh(length, nx, ny)
    X = np.tile(xs[:, None], (1, ny)).astype(float)
    Y = np.tile(ys[None, :], (nx, 1)).astype(float)
    return sc.StripMapGrid(length=length, xs=xs, ys=ys, X=X, Y=Y)


def translation_map(c, length=2 * np.pi, nx=96, ny=96):
    g = identity_map(length, nx, ny)
    return sc.StripMapGrid(length=length, xs=g.xs, ys=g.ys, X=g.X + c, Y=g.Y)


def shear_map(f, length=2 * np.pi, nx=96, ny=96):
    """(x, y) -> (x + f(y), y); preserves omega for any smooth f."""
    g = identity_map(length, nx, ny)
    shift = np.asarray(f(g.ys), dtype=float)
    return sc.StripMapGrid(length=length, xs=g.xs, ys=g.ys,
                           X=g.X + shift[None, :], Y=g.Y)


def action_from_generating(gen, grid):
    """Action via the generating function: sigma = W(x, Y) + (X - x) cos(Y),
    the form that stays regular on the boundary rows."""
    w_at_Y = sc._columns_at(CubicSpline(gen.Ys, gen.w, axis=1), grid.Y)
    sigma = w_at_Y + (grid.X - grid.xs[:, None]) * np.cos(grid.Y)
    return sc.ActionGrid(sigma=sigma, closure_residual=0.0,
                         flux=sc.flux(grid))


def compose_maps(outer, inner):
    """Grid of outer o inner, interpolating the outer displacement fields
    X - x and Y - y with periodic bicubic splines."""
    if abs(outer.length - inner.length) > 1e-12:
        raise PreconditionError("maps must share the same period")
    dX, dY = (sc._periodic_spline(outer.xs, outer.ys, outer.length, d)
              for d in (outer.displacement(), outer.Y - outer.ys[None, :]))
    xw = np.mod(inner.X, outer.length)
    Xq = inner.X + dX.ev(xw, inner.Y)
    Yq = np.clip(inner.Y + dY.ev(xw, inner.Y), 0.0, np.pi)
    return sc.StripMapGrid(length=inner.length, xs=inner.xs, ys=inner.ys,
                           X=Xq, Y=Yq)


def action_boundary_identity(grid, act):
    """max |sigma(x, 0) - (tau(x, 0) - L)| of the action ``act`` of the
    return grid ``grid``: the lower-row action of the zero-flux lift equals
    the boundary return time minus the base length."""
    return float(np.max(np.abs(act.sigma[:, 0]
                               - (grid.tau[:, 0] - grid.length))))


class UnscreenedEventHook:
    """Step hook of :func:`birkhofflab._integrate.sweep_linear_events`
    without its near-level screen: the event search runs on every active
    orbit of every step.

    Run as a second hook of the same integration, it sees the same steps.
    Its quartic coefficients come from the same contraction, and every
    later value is elementwise per orbit, so a sound screen leaves the
    sweep's results bit-identical to :meth:`result`."""

    def __init__(self, y0, weights, target=0.0, n_events=2):
        n, d = np.atleast_2d(y0).shape
        w = np.broadcast_to(np.asarray(weights, dtype=float), (n, d))
        self.reads = np.flatnonzero(np.any(w != 0.0, axis=0))
        self.w_reads = np.ascontiguousarray(w[:, self.reads].T)
        self.target = target
        wanted = np.broadcast_to(n_events, (n,))
        self.n_events = int(wanted.max())
        self.res = EventSweepResult(n, self.n_events, d)
        self.res.n_found[:] = self.n_events - wanted
        self.active = np.ones(n, dtype=bool)

    def __call__(self, t, h, y_old, stages, y_new):
        res, active, cap = self.res, self.active, self.n_events
        yc, sc = y_old.T, stages.transpose(0, 2, 1)
        z0 = np.einsum("un,un->n", yc[self.reads], self.w_reads) - self.target
        if t == 0.0:
            z0 = np.where(np.abs(z0) < 1e-9, 0.0, z0)
        cw = h * (_P.T @ np.einsum("sun,un->sn", sc[:, self.reads],
                                   self.w_reads))
        tg = _THETAS[:, None]
        c1, c2, c3, c4 = cw
        zs = z0 + tg * (c1 + tg * (c2 + tg * (c3 + tg * c4)))
        sgn = np.sign(zs)
        sgn[0] = np.where(sgn[0] == 0.0, np.sign(c1), sgn[0])
        changes = sgn[:-1] * sgn[1:] < 0.0
        hit = active & changes.any(axis=0)
        dcw = cw * np.arange(1.0, 5.0)[:, None]
        d1, d2, d3, d4 = dcw
        dzs = d1 + tg * (d2 + tg * (d3 + tg * d4))
        turns = (dzs[:-1] * dzs[1:] < 0.0) & active & ~changes.any(axis=0)
        rank = np.cumsum(changes, axis=0)
        keep = changes & hit & (res.n_found + rank <= cap)
        i, m = np.nonzero(keep.T)
        g, mg = np.nonzero(turns.T)
        sub = np.concatenate([m, mg])
        roots = _quartic_roots(
            np.vstack([np.column_stack([z0[i], cw[:, i].T]),
                       np.column_stack([dcw[:, g].T, np.zeros(len(g))])]),
            _THETAS[sub], _THETAS[sub + 1],
            np.concatenate([zs[m, i], dzs[mg, g]]))
        th, th_g = roots[:len(i)], roots[len(i):]
        k = res.n_found[i] + rank[m, i] - 1
        res.t_events[i, k] = t + th * h
        res.y_events[i, k] = dense_state(y_old[i], h, stages[:, i], th)
        c1, c2, c3, c4 = cw[:, i]
        res.slopes[i, k] = (c1 + th * (2 * c2 + th *
                            (3 * c3 + 4 * th * c4))) / h
        res.n_found += keep.sum(axis=0)
        active[hit & (res.n_found >= cap)] = False
        c1, c2, c3, c4 = cw[:, g]
        z_ext = z0[g] + th_g * (c1 + th_g * (c2 + th_g * (c3 + th_g * c4)))
        grazing = g[np.abs(z_ext) < GRAZE_TOL]
        res.grazing[grazing] = True
        active[grazing] = False
        return not np.any(active)

    def result(self, expected_slopes=None):
        """The sweep's result, with the slope check of the filled slots."""
        res = self.res
        if expected_slopes is not None:
            wrong = (np.sign(res.slopes)
                     != np.asarray(expected_slopes)[-self.n_events:])
            res.grazing |= (res.n_found >= self.n_events) & np.any(
                wrong & ~np.isnan(res.t_events), axis=1)
        return res


def per_column_splines(knots, values, queries):
    """Row i: scipy's not-a-knot ``CubicSpline(knots[i], values)`` at
    ``queries[i]``, one spline built per column."""
    return np.array([CubicSpline(k, values)(q)
                     for k, q in zip(knots, queries)])


def every_node_returns(grid):
    """The return-data fields of every node of ``grid``, boundary rows
    included, each node integrated: (nx, ny) arrays from return sweeps of
    at most ``SWEEP_ORBITS`` orbits at rtol 1e-10."""
    nx, ny = grid.nx, grid.ny
    i, j = np.divmod(np.arange(nx * ny), ny)
    out = {}
    parts = -(-nx * ny // SWEEP_ORBITS)
    for part in np.array_split(np.arange(nx * ny), parts):
        got = bs._returns(grid.section, grid.xs[i[part]], grid.ys[j[part]],
                          1e-10)
        for k, v in got.items():
            out.setdefault(k, np.empty(nx * ny))[part] = v
    return {k: v.reshape(nx, ny) for k, v in out.items()}
