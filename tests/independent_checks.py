"""Independent checks that only the tests use: they restate a property of
the package's results from other routes, so they are kept out of the
package itself."""

import numpy as np

from birkhofflab import geodesic_dynamics as gd
from birkhofflab import strip_calculus as sc
from birkhofflab.errors import PreconditionError


def unit_speed_defect(model, u, v):
    """|g(v, v) - 1| of the ambient tangent vector v at u."""
    return abs(float(model.dot(u, v, v)) - 1.0)


def reversed_state(state):
    """The same point with the direction reversed."""
    return gd.GeodesicState(point=state.point,
                            direction=(-state.direction[0],
                                       -state.direction[1]),
                            arclength=state.arclength)


def compose_maps(outer, inner):
    """Grid of outer o inner, interpolating the outer displacement field."""
    if abs(outer.length - inner.length) > 1e-12:
        raise PreconditionError("maps must share the same period")
    Xq, Yq = outer.evaluate(inner.X, inner.Y)
    return sc.StripMapGrid(length=inner.length, xs=inner.xs, ys=inner.ys,
                           X=Xq, Y=Yq, provenance="synthetic")


def action_boundary_identity(grid, lift, action_grid=None):
    """max |sigma(x, 0) - (tau(x, 0) - L)|: the lower-row action of the
    zero-flux lift equals the boundary return time minus the base length."""
    act = action_grid if action_grid is not None else sc.action(lift)
    return float(np.max(np.abs(act.sigma[:, 0] - (grid.tau[:, 0] - grid.L))))
