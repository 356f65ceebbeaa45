"""The package's one cubic spline against scipy's, which stays a test
dependency: the not-a-knot spline bit for bit, the periodic one and the
bicubic tensor product to rounding."""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, RectBivariateSpline

from birkhofflab import _spline
from birkhofflab import geodesic_dynamics as gd
from birkhofflab import metric_models as mm


def _uniform_mesh(rng, ny, nx=24):
    """The strip's y-mesh of [0, pi] and random (nx, ny) node data."""
    return np.linspace(0.0, math.pi, ny), rng.normal(size=(nx, ny))


def _column_knots(rng, nx, ny):
    """Per-column knots: nx strictly increasing rows of random spacings."""
    return np.cumsum(np.concatenate([rng.uniform(-1.0, 1.0, (nx, 1)),
                                     rng.uniform(0.01, 1.0, (nx, ny - 1))],
                                    axis=1), axis=1)


class TestNotAKnot:
    @pytest.mark.parametrize("ny", [4, 7, 21, 95, 96])
    def test_uniform_mesh_is_scipys_bit_for_bit(self, ny):
        rng = np.random.default_rng(ny)
        ys, data = _uniform_mesh(rng, ny)
        want = CubicSpline(ys, data, axis=1)
        got = _spline.not_a_knot(ys, data)
        pts = np.concatenate([rng.uniform(-0.1, math.pi + 0.1, (24, 40)),
                              np.tile(ys, (24, 1))], axis=1)
        assert np.array_equal(got.c, want.c)
        assert np.array_equal(_spline.at(got, pts),
                              [want(p)[i] for i, p in enumerate(pts)])
        assert np.array_equal(_spline.at_all(got, pts[0]), want(pts[0]).T)
        knots = np.tile(ys, (24, 1))
        assert np.array_equal(_spline.at(got, knots, slope=True)[1],
                              want(ys, 1))
        assert np.array_equal(_spline.antiderivative(got),
                              want.antiderivative()(ys))
        assert np.array_equal(_spline.integral(got),
                              want.integrate(0.0, math.pi))

    @pytest.mark.parametrize("ny", [4, 21, 96])
    def test_one_row_is_scipys_bit_for_bit(self, ny):
        # a 1-D row squares its end spacings as scipy's scalars do (C pow)
        rng = np.random.default_rng(ny + 1)
        knots = _column_knots(rng, 1, ny)[0]
        values = rng.normal(size=ny)
        want = CubicSpline(knots, values)
        got = _spline.not_a_knot(knots, values)
        pts = rng.uniform(knots[0] - 0.1, knots[-1] + 0.1, 60)
        assert np.array_equal(_spline.at(got, pts[None])[0], want(pts))
        assert np.array_equal(_spline.at_all(got, pts)[:, 0], want(pts))
        assert np.array_equal(_spline.at(got, knots[None], slope=True)[1][0],
                              want(knots, 1))
        assert np.array_equal(_spline.antiderivative(got)[0],
                              want.antiderivative()(knots))
        assert _spline.integral(got)[0] == want.integrate(knots[0], knots[-1])

    @pytest.mark.parametrize("ny", [4, 33, 96])
    def test_per_column_knots_are_scipys_bit_for_bit(self, ny):
        rng = np.random.default_rng(ny + 2)
        knots = _column_knots(rng, 12, ny)
        values = rng.normal(size=(12, ny))
        got = _spline.not_a_knot(knots, values)
        pts = rng.uniform(knots[:, :1] - 0.1, knots[:, -1:] + 0.1, (12, 40))
        value = _spline.at(got, pts)
        slopes = _spline.at(got, knots, slope=True)[1]
        anti = _spline.antiderivative(got)
        total = _spline.integral(got)
        for i, (k, v) in enumerate(zip(knots, values)):
            want = CubicSpline(k, v)
            assert np.array_equal(value[i], want(pts[i]))
            assert np.array_equal(slopes[i], want(k, 1))
            assert np.array_equal(anti[i], want.antiderivative()(k))
            assert total[i] == want.integrate(k[0], k[-1])

    def test_antiderivative_keeps_scipys_layout(self):
        # strip_integral's row sums depend on the memory layout
        ys, data = _uniform_mesh(np.random.default_rng(0), 96, 96)
        got = _spline.antiderivative(_spline.not_a_knot(ys, data))
        want = CubicSpline(ys, data, axis=1).antiderivative()(ys)
        assert got.strides == want.strides


class TestPeriodic:
    def test_closed_orbit_against_scipy(self, spheroid_model):
        # the 1,024 states of the meridian shot closed
        orbit = gd.meridian_orbit(spheroid_model)
        n = len(orbit.states)
        assert n == 1024
        ts = np.linspace(0.0, orbit.length, n + 1)
        want = CubicSpline(ts, np.vstack([orbit.states, orbit.states[:1]]),
                           axis=0, bc_type="periodic")
        x = np.concatenate([
            np.random.default_rng(1).uniform(-orbit.length, 2 * orbit.length,
                                             2000), ts, [-1e-20]])
        u, v = orbit.at(x)
        ref = want(np.mod(x, orbit.length))
        assert np.max(np.abs(u - ref[:, :3])) <= 1e-14
        assert np.max(np.abs(v - ref[:, 3:])) <= 1e-14

    def test_equator_orbit_is_periodic(self):
        orbit = gd.equator_orbit(mm.make_spheroid(0.97))
        x = np.linspace(0.0, orbit.length, 37)
        for a, b in zip(orbit.at(x), orbit.at(x + orbit.length)):
            assert np.max(np.abs(a - b)) <= 1e-14


class TestBicubic:
    @pytest.mark.parametrize("dx, dy", [(i, j) for i in range(3)
                                        for j in range(3)])
    def test_ev_against_rect_bivariate_spline(self, dx, dy):
        rng = np.random.default_rng(7)
        xs = np.sort(np.concatenate([[0.0, 2.0], rng.uniform(0, 2, 18)]))
        ys = np.linspace(0.0, math.pi, 15)
        F = (np.sin(2 * xs[:, None]) * np.cos(1.5 * ys[None, :])
             + 0.01 * rng.normal(size=(20, 15)))
        want = RectBivariateSpline(xs, ys, F)
        got = _spline.Bicubic(xs, ys, F)
        # inside, on the knots, and outside (the nearest boundary value)
        x = np.concatenate([rng.uniform(0, 2, 300), xs[:15], [-0.5, 2.5]])
        y = np.concatenate([rng.uniform(0, math.pi, 300), ys, [1.0, 4.0]])
        ref = want.ev(x, y, dx=dx, dy=dy)
        assert np.max(np.abs(got.ev(x, y, dx=dx, dy=dy) - ref)) \
            <= 1e-12 * np.max(np.abs(ref))

    def test_scalar_point(self):
        xs, ys = np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 7)
        F = np.add.outer(xs ** 3, ys ** 2)
        got = _spline.Bicubic(xs, ys, F)
        assert float(got.ev(0.3, 0.4)) == pytest.approx(0.3 ** 3 + 0.4 ** 2,
                                                        abs=1e-15)
        assert float(got.ev(0.3, 0.4, dx=1, dy=0)) == pytest.approx(0.27)
