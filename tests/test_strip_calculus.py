import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from birkhofflab import birkhoff_section as bs
from birkhofflab import strip_calculus as sc
from birkhofflab.errors import (InternalConsistencyError,
                                NonIntegrableFormError, NotGeneratingError,
                                PreconditionError)

import independent_checks as ic

L = 2 * math.pi


def eps_sine_generating(eps=0.01, nx=96, ny=96):
    xs, Ys = sc.strip_mesh(L, nx, ny)
    w = eps * np.sin(2 * math.pi * xs / L)[:, None] * np.sin(Ys)[None, :] ** 2
    return sc.GeneratingGrid(length=L, xs=xs, Ys=Ys, w=w)


def minus_sin2_generating(eps=0.02, nx=96, ny=96):
    xs, Ys = sc.strip_mesh(L, nx, ny)
    w = np.repeat(-eps * np.sin(Ys)[None, :] ** 2, nx, axis=0)
    return sc.GeneratingGrid(length=L, xs=xs, Ys=Ys, w=w)


def seed5_generating(k):
    """Map k (from 0) of the maps drawn from one ``default_rng(5)`` stream
    with the ``random_generating_grid`` defaults."""
    rng = np.random.default_rng(5)
    for _ in range(k):
        sc.random_generating_grid(rng)
    return sc.random_generating_grid(rng)


class TestFlux:
    def test_identity(self):
        assert sc.flux(ic.identity_map()) == 0.0

    def test_translation(self):
        assert sc.flux(ic.translation_map(0.37)) == pytest.approx(0.37,
                                                                  abs=1e-7)

    def test_shear_oracle(self):
        # (1/2) integral of sin(y)^2 over [0, pi] = pi / 4
        got = sc.flux(ic.shear_map(np.sin))
        assert got == pytest.approx(math.pi / 4, abs=1e-7)

    def test_boundary_path_agreement(self):
        for grid in (ic.identity_map(), ic.translation_map(0.2),
                     ic.shear_map(np.sin),
                     ic.shear_map(lambda y: 0.3 * np.cos(2 * y))):
            assert sc.flux(grid) == pytest.approx(
                sc.flux_boundary_path(grid), abs=1e-6)

    def test_homomorphism_on_synthetic_pairs(self):
        a = ic.shear_map(lambda y: 0.15 * np.sin(y) ** 2)
        b = ic.translation_map(0.21)
        c = sc.build_from_generating(eps_sine_generating(0.008))
        for outer, inner in ((a, b), (b, c), (c, a)):
            comp = ic.compose_maps(outer, inner)
            assert sc.flux(comp) == pytest.approx(
                sc.flux(outer) + sc.flux(inner), abs=1e-5)


class TestAction:
    def test_identity(self):
        act = sc.action(ic.identity_map())
        assert np.max(np.abs(act.sigma)) == 0.0

    def test_translation_action_vanishes(self):
        act = sc.action(ic.translation_map(0.41))
        assert np.max(np.abs(act.sigma)) < 1e-7

    def test_upper_boundary_value(self):
        # sigma(x, pi) equals flux minus the upper-row displacement
        grid = ic.shear_map(lambda y: 0.2 + 0.1 * np.cos(y))
        act = sc.action(grid)
        F = sc.flux(grid)
        expected = -(grid.X[:, -1] - grid.xs) + F
        assert np.max(np.abs(act.sigma[:, -1] - expected)) < 1e-7

    def test_x_periodicity_and_closure(self):
        grid = sc.build_from_generating(eps_sine_generating(0.01))
        act = sc.action(grid)
        assert act.closure_residual < 1e-5

    def test_nonintegrable_input_rejected(self):
        base = ic.identity_map()
        bad = sc.StripMapGrid(length=L, xs=base.xs, ys=base.ys, X=base.X,
                              Y=base.Y + 0.2 * np.sin(base.Y))
        with pytest.raises(NonIntegrableFormError):
            sc.action(bad)


class TestCalabi:
    def test_identity(self):
        assert sc.calabi(ic.identity_map()) == 0.0

    def test_flux_precondition(self):
        with pytest.raises(PreconditionError):
            sc.calabi(ic.translation_map(0.2))

    def test_minus_sin2_value(self):
        # x-independent W = -eps sin^2 Y gives Y = y, sigma = 2 W,
        # CAL = -(eps / L) * L * int sin^3 = -4 eps / 3
        eps = 0.02
        grid = sc.build_from_generating(minus_sin2_generating(eps))
        assert sc.calabi(grid) == pytest.approx(-4 * eps / 3, abs=1e-6)

    def test_cross_pipeline_agreement(self):
        grid = sc.build_from_generating(eps_sine_generating(0.012))
        gen = sc.generating_from_map(grid)
        assert sc.calabi(grid) == pytest.approx(
            sc.calabi_from_generating(gen, grid), abs=1e-5)

    def test_x_odd_profile_has_zero_calabi(self):
        grid = sc.build_from_generating(eps_sine_generating(0.01))
        assert abs(sc.calabi(grid)) < 1e-6

    def test_homomorphism_on_zero_flux_pairs(self):
        rng = np.random.default_rng(17)
        a = sc.build_from_generating(
            sc.random_generating_grid(rng, amplitude=0.004))
        b = sc.build_from_generating(
            sc.random_generating_grid(rng, amplitude=0.004))
        comp = ic.compose_maps(a, b)
        assert sc.calabi(comp) == pytest.approx(
            sc.calabi(a) + sc.calabi(b), abs=1e-5)


class TestGeneratingFunctions:
    def test_zero_gives_identity(self):
        xs, Ys = sc.strip_mesh(L, 48, 48)
        gen = sc.GeneratingGrid(length=L, xs=xs, Ys=Ys, w=np.zeros((48, 48)))
        grid = sc.build_from_generating(gen)
        assert grid.sup_distance_to_identity() < 1e-12

    def test_cosine_profile_gives_translation(self):
        xs, Ys = sc.strip_mesh(L, 96, 96)
        c = 0.25
        gen = sc.GeneratingGrid(length=L, xs=xs, Ys=Ys,
                                w=np.repeat(-c * np.cos(Ys)[None, :], 96,
                                            axis=0))
        grid = sc.build_from_generating(gen)
        assert np.max(np.abs(grid.displacement() - c)) < 1e-8
        assert np.max(np.abs(grid.Y - grid.ys[None, :])) < 1e-12
        lo, hi = -c, c          # normalisation carries -flux / +flux
        assert gen.w[0, 0] == pytest.approx(lo)
        assert gen.w[0, -1] == pytest.approx(hi)
        assert sc.flux(grid) == pytest.approx(c, abs=1e-7)

    def test_eps_sine_map_is_admissible(self):
        grid = sc.build_from_generating(eps_sine_generating(0.01))
        assert sc.omega_preservation_residual(grid) < 1e-7
        assert abs(sc.flux(grid)) < 1e-8
        d2Y = sc.ddy_mesh(grid.Y, grid.ys)
        assert np.min(d2Y) > 0

    def test_round_trip(self):
        gen = eps_sine_generating(0.01)
        grid = sc.build_from_generating(gen)
        back = sc.generating_from_map(grid)
        assert np.max(np.abs(back.w - gen.w)) < 1e-6

    def test_identity_recovers_zero(self):
        gen = sc.generating_from_map(ic.identity_map())
        assert np.max(np.abs(gen.w)) < 1e-12

    def test_translation_recovers_cosine(self):
        c = 0.18
        gen = sc.generating_from_map(ic.translation_map(c))
        expected = -c * np.cos(gen.Ys)[None, :]
        assert np.max(np.abs(gen.w - expected)) < 1e-6

    def test_flux_normalisation_identity(self):
        # upper minus lower boundary value equals twice the flux
        for grid in (ic.translation_map(0.21),
                     ic.shear_map(lambda y: 0.1 + 0.05 * np.cos(y))):
            gen = sc.generating_from_map(grid)
            lo, hi = gen.boundary_values()
            assert hi - lo == pytest.approx(2 * sc.flux(grid), abs=1e-6)

    def test_boundary_rows_must_be_constant(self):
        xs, Ys = sc.strip_mesh(L, 48, 48)
        w = 0.01 * np.sin(2 * math.pi * xs / L)[:, None] \
            * np.ones((1, 48))
        with pytest.raises(NotGeneratingError):
            sc.build_from_generating(
                sc.GeneratingGrid(length=L, xs=xs, Ys=Ys, w=w))

    def test_d2w_must_vanish_on_rows(self):
        xs, Ys = sc.strip_mesh(L, 48, 48)
        w = np.repeat(0.05 * np.sin(Ys)[None, :], 48, axis=0)
        with pytest.raises(NotGeneratingError):
            sc.build_from_generating(
                sc.GeneratingGrid(length=L, xs=xs, Ys=Ys, w=w))

    def test_monotonicity_precondition(self):
        # D2 Y = 1 - 1.2 cos(y) is negative near the lower row
        base = ic.identity_map(nx=48, ny=48)
        bad = sc.StripMapGrid(length=L, xs=base.xs, ys=base.ys, X=base.X,
                              Y=np.repeat(
                                  (base.ys - 1.2 * np.sin(base.ys))[None, :],
                                  48, axis=0))
        with pytest.raises(PreconditionError):
            sc.generating_from_map(bad)

    @pytest.mark.parametrize("column, node, value", [
        (0, 50, "repeat"), (7, 20, math.nan)])
    def test_column_without_inverse_refused(self, column, node, value):
        # A repeated node (min D2 Y is still 0.25) or a NaN passes the D2 Y
        # check, but its column has no inverse spline.
        base = ic.identity_map()
        Y = base.Y.copy()
        Y[column, node] = Y[column, node - 1] if value == "repeat" else value
        bad = sc.StripMapGrid(length=L, xs=base.xs, ys=base.ys, X=base.X,
                              Y=Y)
        assert not np.min(sc.map_derivatives(bad)[3]) <= 0.0
        with pytest.raises(PreconditionError,
                           match=f"^column {column} of the map is not"):
            sc.generating_from_map(bad)


def _clipped_newton_column(gen, i):
    """Column i of the generated map by a per-column clipped Newton that
    stops once the column's largest residual is below 1e-12."""
    Ys = gen.Ys
    d1_spl = CubicSpline(Ys, sc.ddx_periodic(gen.w, gen.length)[i])
    d2W = sc.ddy_mesh(gen.w, Ys)
    d22W = sc.ddy_mesh(d2W, Ys)
    quot = np.empty(len(Ys))
    quot[1:-1] = d2W[i, 1:-1] / np.sin(Ys[1:-1])
    quot[0], quot[-1] = d22W[i, 0], -d22W[i, -1]
    Y = Ys.copy()
    for _ in range(60):
        f = np.cos(Y) - d1_spl(Y) - np.cos(Ys)
        if np.max(np.abs(f)) < 1e-12:
            break
        df = -np.sin(Y) - d1_spl(Y, 1)
        step = np.where(np.abs(df) > 1e-14, f / np.where(df == 0, 1, df),
                        0.0)
        Y = np.clip(Y - step, 0.0, math.pi)
    else:
        raise AssertionError(f"column {i} did not converge")
    X = gen.xs[i] + CubicSpline(Ys, quot)(Y)
    Y[0], Y[-1] = 0.0, math.pi
    return X, Y


def _knot_queries(rng, knots, n_inside=40):
    """Points inside the knot range of each column, on every knot, on
    both ends, one ulp and 1e-3 outside them."""
    lo, hi = knots[:, :1], knots[:, -1:]
    return np.concatenate([rng.uniform(lo, hi, (len(knots), n_inside)),
                           knots, np.nextafter(lo, -np.inf),
                           np.nextafter(hi, np.inf), lo - 1e-3, hi + 1e-3],
                          axis=1)


class TestWholeArrays:
    def test_columns_at_matches_per_column_splines(self):
        rng = np.random.default_rng(3)
        nx, ny = 24, 33
        ys = np.linspace(0.0, math.pi, ny)
        data = rng.normal(size=(nx, ny))
        pts = np.concatenate([rng.uniform(0.0, math.pi, (nx, 40)),
                              np.tile(ys, (nx, 1)),
                              np.tile([0.0, math.pi], (nx, 1))], axis=1)
        spline = CubicSpline(ys, data, axis=1)
        want, want_slope = (np.array([CubicSpline(ys, data[i])(pts[i], nu)
                                      for i in range(nx)]) for nu in (0, 1))
        got, slope = sc._columns_at(spline, pts, slope=True)
        assert np.array_equal(got, want)
        assert np.array_equal(sc._columns_at(spline, pts), want)
        assert np.max(np.abs(slope - want_slope)) < 1e-12

    def test_inverse_columns_match_per_column_splines(self):
        # Random non-uniform knots, one strictly increasing row per column.
        # Each first spacing is one whose square by C pow, which scipy's
        # scalar arithmetic takes, differs from h * h.
        rng = np.random.default_rng(8)
        nx, ny = 24, 33
        h = rng.uniform(0.01, 1.0, 100_000)
        steps = rng.uniform(0.01, 1.0, (nx, ny - 1))
        steps[:, 0] = h[[math.pow(v, 2) != v * v for v in h]][:nx]
        knots = np.cumsum(np.concatenate([np.zeros((nx, 1)), steps], axis=1),
                          axis=1)
        ys = np.linspace(0.0, math.pi, ny)
        pts = _knot_queries(rng, knots)
        got = sc._columns_at(sc._inverse_columns(knots, ys), pts)
        assert np.array_equal(got, ic.per_column_splines(knots, ys, pts))

    @settings(max_examples=40, deadline=None)
    @given(nx=st.integers(1, 12), ny=st.integers(4, 48),
           spread=st.floats(0.0, 4.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_inverse_columns_property(self, nx, ny, spread, seed):
        # neighbouring knot spacings differ by factors up to exp(2 spread)
        rng = np.random.default_rng(seed)
        steps = np.exp(spread * rng.uniform(-1.0, 1.0, (nx, ny - 1)))
        knots = np.cumsum(np.concatenate(
            [rng.uniform(-1.0, 1.0, (nx, 1)), steps], axis=1), axis=1)
        values = rng.normal(size=ny)
        pts = _knot_queries(rng, knots, n_inside=8)
        got = sc._columns_at(sc._inverse_columns(knots, values), pts)
        assert np.array_equal(got, ic.per_column_splines(knots, values, pts))

    def test_build_matches_bracketed_roots(self):
        # at eps = 1 a Newton without the bisection safeguard does not
        # converge on most columns.  A solved column has residuals below
        # 1e-12, so a node lies within 1e-12 / |slope| of its root (1.2e-12
        # at slope 0.36).
        gen = eps_sine_generating(1.0)
        grid = sc.build_from_generating(gen)
        Ys = gen.Ys
        d1W = sc.ddx_periodic(gen.w, L)
        for i in range(gen.nx):
            d1_spl = CubicSpline(Ys, d1W[i])
            for j in range(1, gen.ny - 1):
                root = brentq(lambda s: np.cos(s) - d1_spl(s) - np.cos(Ys[j]),
                              0.0, math.pi, xtol=1e-15)
                Y = grid.Y[i, j]
                slope = abs(np.sin(Y) + d1_spl(Y, 1))
                assert abs(Y - root) * slope < 1e-12, (i, j)

    def test_build_keeps_the_per_column_stopping_rule(self):
        gen = sc.random_generating_grid(np.random.default_rng(11))
        grid = sc.build_from_generating(gen)
        for i in (0, gen.nx // 2):
            X, Y = _clipped_newton_column(gen, i)
            assert np.array_equal(grid.X[i], X)
            assert np.array_equal(grid.Y[i], Y)


class TestActionFromGenerating:
    def test_translation_sigma_vanishes(self):
        c = 0.25
        grid = ic.translation_map(c)
        gen = sc.generating_from_map(grid)
        act = ic.action_from_generating(gen, grid)
        assert np.max(np.abs(act.sigma)) < 1e-6

    def test_agreement_with_path_integration(self):
        grid = sc.build_from_generating(eps_sine_generating(0.012))
        gen = sc.generating_from_map(grid)
        a1 = sc.action(grid)
        a2 = ic.action_from_generating(gen, grid)
        assert np.max(np.abs(a1.sigma - a2.sigma)) < 1e-5

    def test_sigma_at_interior_minimum_equals_w(self):
        # at the critical point of W the map is fixed and sigma equals W
        from scipy.interpolate import CubicSpline
        eps = 0.02
        gen = minus_sin2_generating(eps)
        grid = sc.build_from_generating(gen)
        point, sigma = sc.fixed_point_with_signed_action(grid, gen)
        act = sc.action(grid)
        sigma_interp = CubicSpline(grid.ys, act.sigma[0])(point[1])
        assert sigma_interp == pytest.approx(sigma, abs=1e-6)
        assert sigma == pytest.approx(-eps, abs=1e-7)


class TestFixedPointTheorem:
    def test_minus_sin2_fixed_circle(self):
        eps = 0.02
        gen = minus_sin2_generating(eps)
        grid = sc.build_from_generating(gen)
        point, sigma = sc.fixed_point_with_signed_action(grid, gen)
        assert point[1] == pytest.approx(math.pi / 2, abs=1e-6)
        assert sigma == pytest.approx(-eps, abs=1e-7)

    @pytest.mark.parametrize("node, dw, x_expected", [
        ((0, 16), -1e-15, L / 2), ((16, 16), -1e-15, L / 2),
        ((16, 16), 1e-15, L / 2), ((0, 16), -1e-12, 0.0)])
    def test_tied_extrema_start_from_the_last_one(self, node, dw,
                                                   x_expected):
        # W has two minima, at x = 0 and x = L/2 on Y = pi/2.  Nodes within
        # the refinement's resolution of the minimum tie, whichever rounding
        # makes lower, and the last one (largest x) is refined; a real
        # difference still decides.
        xs, Ys = sc.strip_mesh(L, 32, 33)
        w = (-0.02 * np.sin(Ys)[None, :] ** 2
             * (1.0 + 0.5 * np.cos(4 * math.pi * xs / L))[:, None])
        gen = sc.GeneratingGrid(length=L, xs=xs, Ys=Ys, w=w)
        grid = sc.build_from_generating(gen)
        w = w.copy()
        w[node] += dw
        point, sigma = sc.fixed_point_with_signed_action(
            grid, sc.GeneratingGrid(length=L, xs=xs, Ys=Ys, w=w),
            branch="negative")
        dx = (point[0] - x_expected + L / 2) % L - L / 2
        assert abs(dx) < 1e-3
        assert point[1] == pytest.approx(math.pi / 2, abs=1e-6)
        assert sigma == pytest.approx(-0.03, abs=1e-7)

    def test_fixed_point_does_not_depend_on_the_start(self, monkeypatch):
        # Newton on the spline's gradient lands on the same critical point
        # from the start node and from each of its 8 neighbours
        gen = sc.random_generating_grid(np.random.default_rng(7))
        grid = sc.build_from_generating(gen)
        start = sc._refinement_start
        points = [sc.fixed_point_with_signed_action(grid, gen)[0]]
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == dj == 0:
                    continue
                monkeypatch.setattr(
                    sc, "_refinement_start", lambda w, tie, di=di, dj=dj:
                    ((start(w, tie)[0] + di) % w.shape[0],
                     start(w, tie)[1] + dj, False))
                points.append(sc.fixed_point_with_signed_action(grid,
                                                                gen)[0])
        assert np.ptp(np.array(points), axis=0).max() < 1e-12

    def test_periodic_spline_agrees_across_the_seam(self):
        # W, D1 W and D2 W of the padded spline repeat with period L
        gen = seed5_generating(158)
        surf = sc._periodic_spline(gen.xs, gen.Ys, L, gen.w)
        x, y = np.meshgrid(np.linspace(0.0, L / gen.nx, 11),
                           np.linspace(0.0, math.pi, 61), indexing="ij")
        for dx, dy in ((0, 0), (1, 0), (0, 1)):
            gap = surf.ev(x + L, y, dx=dx, dy=dy) - surf.ev(x, y, dx=dx,
                                                            dy=dy)
            assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(gen.w))

    def test_fixed_map_check_reads_a_window_of_the_grid(self):
        # The map at one point from a 10 x 10 window of its grid agrees with
        # the periodic spline of the whole grid, across the seam and near
        # the boundary rows, far inside FIXED_TOL.
        rng = np.random.default_rng(5)
        gen = sc.random_generating_grid(rng, amplitude=0.006)
        grid = sc.build_from_generating(gen)
        dX, dY = (sc._periodic_spline(grid.xs, grid.ys, L, d)
                  for d in (grid.displacement(), grid.Y - grid.ys[None, :]))
        xs = np.concatenate([rng.uniform(0.0, L, 40),
                             [0.0, 1e-12, L - 1e-12, L / grid.nx]])
        ys = np.concatenate([rng.uniform(0.05, math.pi - 0.05, 40),
                             [0.04, math.pi - 0.04, 1.0, 2.0]])
        for x, y in zip(xs, ys):
            X, Y = sc._map_near(grid, x, y)
            assert abs(X - x - dX.ev(x, y)) < 1e-8
            assert abs(Y - y - dY.ev(x, y)) < 1e-8

    @pytest.mark.parametrize("k, branch", [
        (109, "positive"), (142, "positive"), (158, "positive"),
        (199, "negative")])
    def test_extremum_left_of_the_seam(self, monkeypatch, k, branch):
        # The extremum lies just left of x = L and the grid extremum is in
        # column 0, so the first step crosses the seam.  x is wrapped after
        # every step: the spline's gradient vanishes at the point found, and
        # a start in column nx - 1 finds the same point.
        gen = seed5_generating(k)
        grid = sc.build_from_generating(gen)
        sign = 1.0 if branch == "negative" else -1.0
        i0, j0, _ = sc._refinement_start(sign * gen.w[:, 1:-1],
                                         sc._W_RESOLUTION)
        assert i0 == 0
        (x, y), _ = sc.fixed_point_with_signed_action(grid, gen, branch)
        assert L - L / gen.nx < x < L
        surf = sc._periodic_spline(gen.xs, gen.Ys, L, gen.w)
        assert abs(surf.ev(x, y, dx=1)) <= 1e-15
        assert abs(surf.ev(x, y, dy=1)) <= 1e-15
        monkeypatch.setattr(sc, "_refinement_start",
                            lambda w, tie: (gen.nx - 1, j0, False))
        assert sc.fixed_point_with_signed_action(grid, gen, branch)[0] \
            == pytest.approx((x, y), abs=1e-12)

    def test_circle_of_fixed_points_keeps_its_x(self, spheroid_grid):
        # The prolate lift over the equator is x-invariant, so its positive
        # branch is a circle of fixed points (the meridians).  A change of
        # the grid at rounding level (seeded 1e-13 per row, as every change
        # of an equator grid is x-invariant) reorders the tied nodes; the
        # refinement starts at column 0 and refines Y alone, so x stays.
        lift = bs.zero_flux_lift(spheroid_grid)
        noise = 1e-13 * np.random.default_rng(4).standard_normal(lift.ny)
        points = []
        for dX in (0.0, noise[None, :]):
            grid = sc.StripMapGrid(length=lift.length, xs=lift.xs,
                                   ys=lift.ys, X=lift.X + dX, Y=lift.Y)
            gen = sc.generating_from_map(grid)
            points.append(sc.fixed_point_with_signed_action(
                grid, gen, branch="positive")[0])
        assert points[0][0] == points[1][0] == lift.xs[0]
        assert points[0][1] == pytest.approx(math.pi / 2, abs=1e-9)
        assert points[1][1] == pytest.approx(math.pi / 2, abs=1e-9)

    def test_circle_of_fixed_points_ties_within_closure_residual(
            self, spheroid_grid):
        # Noise on every node leaves W varying along its extremal row by
        # more than the refinement's resolution but less than the closure
        # residual of the recovered W; nodes tie within that residual, so
        # the circle is still found and x stays at column 0.
        lift = bs.zero_flux_lift(spheroid_grid)
        noise = 1e-13 * np.random.default_rng(0).standard_normal(
            lift.X.shape)
        grid = sc.StripMapGrid(length=lift.length, xs=lift.xs, ys=lift.ys,
                               X=lift.X + noise, Y=lift.Y)
        gen = sc.generating_from_map(grid)
        assert gen.closure_residual > sc._W_RESOLUTION
        (x, y), _ = sc.fixed_point_with_signed_action(grid, gen,
                                                      branch="positive")
        assert x == lift.xs[0]
        assert y == pytest.approx(math.pi / 2, abs=1e-9)

    def test_identity_rejected(self):
        grid = ic.identity_map()
        gen = sc.generating_from_map(grid)
        with pytest.raises(PreconditionError):
            sc.fixed_point_with_signed_action(grid, gen)

    def test_nonzero_flux_rejected(self):
        grid = ic.translation_map(0.2)
        gen = sc.generating_from_map(grid)
        with pytest.raises(PreconditionError):
            sc.fixed_point_with_signed_action(grid, gen)

    def test_fixed_point_action_matches_path_integrated_action(self):
        rng = np.random.default_rng(5)
        gen = sc.random_generating_grid(rng, amplitude=0.006)
        grid = sc.build_from_generating(gen)
        point, sigma = sc.fixed_point_with_signed_action(grid, gen)
        act = sc.action(grid)
        i = int(round(point[0] / L * grid.nx)) % grid.nx
        j = int(np.argmin(np.abs(grid.ys - point[1])))
        assert act.sigma[i, j] == pytest.approx(sigma, abs=1e-4)

    def test_signed_action_property_sample(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            gen = sc.random_generating_grid(rng, amplitude=0.005)
            grid = sc.build_from_generating(gen)
            if grid.sup_distance_to_identity() < 1e-6:
                continue
            cal = sc.calabi(grid)
            point, sigma = sc.fixed_point_with_signed_action(grid, gen)
            if cal <= 0:
                assert sigma < 0
            else:
                assert sigma > 0
            mirrored = "positive" if cal <= 0 else "negative"
            # the mirrored extremum is interior only where W takes that sign
            interior = gen.w[:, 1:-1]
            takes_sign = (interior.max() > 0 if cal <= 0
                          else interior.min() < 0)
            if takes_sign:
                _, sigma2 = sc.fixed_point_with_signed_action(
                    grid, gen, branch=mirrored)
                assert (sigma2 > 0) if cal <= 0 else (sigma2 < 0)
            else:
                with pytest.raises(InternalConsistencyError):
                    sc.fixed_point_with_signed_action(grid, gen,
                                                      branch=mirrored)

    def test_single_signed_w_refuses_mirrored_branch(self):
        rng = np.random.default_rng(19)
        rng.uniform(size=10)
        gen = sc.random_generating_grid(rng)
        grid = sc.build_from_generating(gen)
        assert gen.w[:, 1:-1].min() > 0.0
        _, sigma = sc.fixed_point_with_signed_action(grid, gen)
        assert sigma > 0
        # W > 0 inside the strip: its minimum lies on the boundary rows
        with pytest.raises(InternalConsistencyError):
            sc.fixed_point_with_signed_action(grid, gen, branch="negative")


class TestValidation:
    def test_admissible_grid_validates(self):
        grid = sc.build_from_generating(eps_sine_generating(0.01))
        assert sc.omega_preservation_residual(grid) < 1e-5

    def test_bad_grid_fails_validation(self):
        base = ic.identity_map()
        bad = sc.StripMapGrid(length=L, xs=base.xs, ys=base.ys, X=base.X,
                              Y=base.Y + 0.2 * np.sin(base.Y))
        assert sc.omega_preservation_residual(bad) > 1e-5
