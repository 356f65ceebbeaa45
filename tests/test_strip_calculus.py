import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from birkhofflab import strip_calculus as sc
from birkhofflab.errors import (InternalConsistencyError,
                                NonIntegrableFormError, NotGeneratingError,
                                PreconditionError)

L = 2 * math.pi


def eps_sine_generating(eps=0.01, nx=96, ny=96):
    xs, Ys = sc.strip_mesh(L, nx, ny)
    w = eps * np.sin(2 * math.pi * xs / L)[:, None] * np.sin(Ys)[None, :] ** 2
    return sc.GeneratingGrid(length=L, xs=xs, Ys=Ys, w=w)


def minus_sin2_generating(eps=0.02, nx=96, ny=96):
    xs, Ys = sc.strip_mesh(L, nx, ny)
    w = np.repeat(-eps * np.sin(Ys)[None, :] ** 2, nx, axis=0)
    return sc.GeneratingGrid(length=L, xs=xs, Ys=Ys, w=w)


class TestFlux:
    def test_identity(self):
        assert sc.flux(sc.identity_map()) == 0.0

    def test_translation(self):
        assert sc.flux(sc.translation_map(0.37)) == pytest.approx(0.37,
                                                                  abs=1e-7)

    def test_shear_oracle(self):
        # (1/2) integral of sin(y)^2 over [0, pi] = pi / 4
        got = sc.flux(sc.shear_map(np.sin))
        assert got == pytest.approx(math.pi / 4, abs=1e-7)

    def test_boundary_path_agreement(self):
        for grid in (sc.identity_map(), sc.translation_map(0.2),
                     sc.shear_map(np.sin),
                     sc.shear_map(lambda y: 0.3 * np.cos(2 * y))):
            assert sc.flux(grid) == pytest.approx(
                sc.flux_boundary_path(grid), abs=1e-6)

    def test_homomorphism_on_synthetic_pairs(self):
        a = sc.shear_map(lambda y: 0.15 * np.sin(y) ** 2)
        b = sc.translation_map(0.21)
        c = sc.build_from_generating(eps_sine_generating(0.008))
        for outer, inner in ((a, b), (b, c), (c, a)):
            comp = sc.compose_maps(outer, inner)
            assert sc.flux(comp) == pytest.approx(
                sc.flux(outer) + sc.flux(inner), abs=1e-5)


class TestAction:
    def test_identity(self):
        act = sc.action(sc.identity_map())
        assert np.max(np.abs(act.sigma)) == 0.0

    def test_translation_action_vanishes(self):
        act = sc.action(sc.translation_map(0.41))
        assert np.max(np.abs(act.sigma)) < 1e-7

    def test_upper_boundary_value(self):
        # sigma(x, pi) equals flux minus the upper-row displacement
        grid = sc.shear_map(lambda y: 0.2 + 0.1 * np.cos(y))
        act = sc.action(grid)
        F = sc.flux(grid)
        expected = -(grid.X[:, -1] - grid.xs) + F
        assert np.max(np.abs(act.sigma[:, -1] - expected)) < 1e-7

    def test_x_periodicity_and_closure(self):
        grid = sc.build_from_generating(eps_sine_generating(0.01))
        act = sc.action(grid)
        assert act.closure_residual < 1e-5

    def test_nonintegrable_input_rejected(self):
        base = sc.identity_map()
        bad = sc.StripMapGrid(length=L, xs=base.xs, ys=base.ys, X=base.X,
                              Y=base.Y + 0.2 * np.sin(base.Y))
        with pytest.raises(NonIntegrableFormError):
            sc.action(bad)


class TestCalabi:
    def test_identity(self):
        assert sc.calabi(sc.identity_map()) == 0.0

    def test_flux_precondition(self):
        with pytest.raises(PreconditionError):
            sc.calabi(sc.translation_map(0.2))

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
        comp = sc.compose_maps(a, b)
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
        gen = sc.generating_from_map(sc.identity_map())
        assert np.max(np.abs(gen.w)) < 1e-12

    def test_translation_recovers_cosine(self):
        c = 0.18
        gen = sc.generating_from_map(sc.translation_map(c))
        expected = -c * np.cos(gen.Ys)[None, :]
        assert np.max(np.abs(gen.w - expected)) < 1e-6

    def test_flux_normalisation_identity(self):
        # upper minus lower boundary value equals twice the flux
        for grid in (sc.translation_map(0.21),
                     sc.shear_map(lambda y: 0.1 + 0.05 * np.cos(y))):
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
        base = sc.identity_map(nx=48, ny=48)
        bad = sc.StripMapGrid(length=L, xs=base.xs, ys=base.ys, X=base.X,
                              Y=np.repeat(
                                  (base.ys - 1.2 * np.sin(base.ys))[None, :],
                                  48, axis=0))
        with pytest.raises(PreconditionError):
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
        for nu in (0, 1):
            want = np.array([CubicSpline(ys, data[i])(pts[i], nu)
                             for i in range(nx)])
            got = sc._columns_at(spline, pts, nu)
            if nu == 0:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) < 1e-12

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
        grid = sc.translation_map(c)
        gen = sc.generating_from_map(grid)
        act = sc.action_from_generating(gen, grid)
        assert np.max(np.abs(act.sigma)) < 1e-6

    def test_agreement_with_path_integration(self):
        grid = sc.build_from_generating(eps_sine_generating(0.012))
        gen = sc.generating_from_map(grid)
        a1 = sc.action(grid)
        a2 = sc.action_from_generating(gen, grid)
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
        # Nelder-Mead alone stops about 1e-8 from the extremum, wherever W
        # is flat to its function tolerance; the Newton polish on the
        # spline's gradient lands on the critical point from any start
        gen = sc.random_generating_grid(np.random.default_rng(7))
        grid = sc.build_from_generating(gen)
        minimize = sc.minimize
        points = []
        for shift in ((0.0, 0.0), (1e-3, 0.0), (0.0, -1e-3), (-1e-3, 1e-3)):
            monkeypatch.setattr(
                sc, "minimize", lambda f, x0, shift=shift, **kw:
                minimize(f, x0 + np.array(shift), **kw))
            points.append(sc.fixed_point_with_signed_action(grid, gen)[0])
        assert np.ptp(np.array(points), axis=0).max() < 1e-12

    def test_identity_rejected(self):
        grid = sc.identity_map()
        gen = sc.generating_from_map(grid)
        with pytest.raises(PreconditionError):
            sc.fixed_point_with_signed_action(grid, gen)

    def test_nonzero_flux_rejected(self):
        grid = sc.translation_map(0.2)
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
        assert grid.validate() < 1e-5

    def test_bad_grid_fails_validation(self):
        base = sc.identity_map()
        bad = sc.StripMapGrid(length=L, xs=base.xs, ys=base.ys, X=base.X,
                              Y=base.Y + 0.2 * np.sin(base.Y))
        with pytest.raises(NonIntegrableFormError):
            bad.validate()


class TestSerialisation:
    def test_stripmap_csv_round_trip(self, tmp_path):
        grid = sc.build_from_generating(eps_sine_generating(0.01, nx=24,
                                                            ny=24))
        path = tmp_path / "map.csv"
        grid.to_csv(path)
        again = sc.StripMapGrid.from_csv(path, length=L)
        assert np.max(np.abs(again.X - grid.X)) == 0.0
        assert np.max(np.abs(again.Y - grid.Y)) == 0.0

    def test_generating_csv_round_trip(self, tmp_path):
        gen = eps_sine_generating(0.01, nx=24, ny=24)
        path = tmp_path / "gen.csv"
        gen.to_csv(path)
        again = sc.GeneratingGrid.from_csv(path, length=L)
        assert np.max(np.abs(again.w - gen.w)) == 0.0
