import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import ellipe

from birkhofflab import geodesic_dynamics as gd
from birkhofflab import metric_models as mm
from birkhofflab._integrate import integrate_adaptive
from birkhofflab.errors import ChartDomainError, PreconditionError

import independent_checks as ic


def closure_defect(model, state, t_end, tol=1e-10):
    u0, v0 = gd.state_to_ambient(model, state)
    y1 = gd.integrate_geodesic(model, [state], t_end, [t_end], tol=tol)[0, 0]
    u1, v1 = y1[0:3], y1[3:6]
    return max(float(np.max(np.abs(u1 - u0))), float(np.max(np.abs(v1 - v0))))


def test_rhs_and_projector_read_either_layout(spheroid_model):
    # the stepper hands out (n, d) views of column-major (d, n) arrays; a
    # row-major batch gives the same values, and both are projected in place
    rng = np.random.default_rng(4)
    u = rng.normal(size=(5, 3))
    y = np.hstack([u / np.linalg.norm(u, axis=1)[:, None],
                   rng.normal(size=(5, 3)), rng.uniform(0, 3, (5, 2))])
    view = np.asfortranarray(y)
    assert view.T.flags.c_contiguous
    rhs = gd.geodesic_rhs(spheroid_model, jacobi=True)
    np.testing.assert_array_equal(rhs(0.0, view), rhs(0.0, y))
    project = gd.state_projector(spheroid_model)
    rows, cols = y.copy(), view.copy(order="F")
    assert project(rows) is rows and project(cols) is cols
    np.testing.assert_array_equal(rows, cols)
    np.testing.assert_array_equal(rows[:, 6:], y[:, 6:])
    for u, v in zip(rows[:, 0:3], rows[:, 3:6]):
        assert abs(float(u @ u) - 1.0) < 1e-15
        assert abs(float(u @ v)) < 1e-15
        assert ic.unit_speed_defect(spheroid_model, u, v) < 1e-14


class TestFlow:
    def test_round_great_circles_close(self, round_model):
        rng = np.random.default_rng(3)
        for _ in range(4):
            s = gd.state_from_angle(round_model,
                                    math.acos(rng.uniform(-0.9, 0.9)),
                                    rng.uniform(0, 2 * math.pi),
                                    rng.uniform(0, 2 * math.pi))
            assert closure_defect(round_model, s, 2 * math.pi) < 1e-8

    def test_spheroid_equator_closes(self, spheroid_model):
        s = gd.equator_seed(spheroid_model)
        assert closure_defect(spheroid_model, s, 2 * math.pi) < 1e-8

    def test_zoll_random_geodesics_close(self, zoll_model):
        rng = np.random.default_rng(11)
        for _ in range(3):
            s = gd.state_from_angle(zoll_model,
                                    math.acos(rng.uniform(-0.9, 0.9)),
                                    rng.uniform(0, 2 * math.pi),
                                    rng.uniform(0, 2 * math.pi))
            assert closure_defect(zoll_model, s, 2 * math.pi) < 1e-6

    def test_unit_speed_preserved(self, spheroid_model):
        s = gd.state_from_angle(spheroid_model, 0.9, 0.2, 0.8)
        ts = np.linspace(0, 15.0, 40)
        ys = gd.integrate_geodesic(spheroid_model, [s], 15.0, ts)[:, 0]
        for y in ys:
            u, v = y[0:3], y[3:6]
            assert ic.unit_speed_defect(spheroid_model, u, v) < 1e-9

    def test_states_at_an_array_of_times(self, spheroid_model):
        s = gd.state_from_angle(spheroid_model, 0.9, 0.2, 0.8)
        ts = np.concatenate([np.linspace(0.0, 7.0, 57), [7.0]])
        ys = gd.integrate_geodesic(spheroid_model, [s], 7.0, ts)[:, 0]
        assert ys.shape == (len(ts), 6)
        # 2 ulp at the scale of the state (|u| = 1, |v| of order 1)
        ulp2 = 2 * np.spacing(1.0)
        for t, y in zip(ts, ys):
            y1 = gd.integrate_geodesic(spheroid_model, [s], 7.0, [t])[0, 0]
            np.testing.assert_allclose(y, y1, rtol=0, atol=ulp2)
        # at t_end, the integrator's final state, not the interpolant
        y0 = np.concatenate(gd.state_to_ambient(spheroid_model, s))[None, :]
        _, y_end = integrate_adaptive(
            gd.geodesic_rhs(spheroid_model), y0, (0.0, 7.0), rtol=1e-10,
            project=gd.state_projector(spheroid_model))
        for k in (-2, -1):
            np.testing.assert_array_equal(ys[k], y_end[0])
        for bad in ([1.0, 7.0 + 1e-9], [-1e-9, 1.0], [[1.0], [np.nan]],
                    [2.0, 1.0]):
            with pytest.raises(PreconditionError):
                gd.integrate_geodesic(spheroid_model, [s], 7.0, bad)

    def test_batch_rows_follow_their_own_flows(self, spheroid_model):
        # the rows share step sizes, so each agrees with its own flow to
        # the tolerance, not bitwise; time 0 is the launch state itself
        rng = np.random.default_rng(5)
        states = [gd.state_from_angle(spheroid_model,
                                      math.acos(rng.uniform(-0.9, 0.9)),
                                      rng.uniform(0, 2 * math.pi),
                                      rng.uniform(0, 2 * math.pi))
                  for _ in range(3)]
        ts = [0.0, 3.0, 7.0]
        ys = gd.integrate_geodesic(spheroid_model, states, 7.0, ts)
        assert ys.shape == (3, 3, 6)
        for k, s in enumerate(states):
            np.testing.assert_array_equal(
                ys[0, k], np.concatenate(gd.state_to_ambient(spheroid_model,
                                                             s)))
            y1 = gd.integrate_geodesic(spheroid_model, [s], 7.0, ts)[:, 0]
            np.testing.assert_allclose(ys[:, k], y1, rtol=0, atol=1e-8)

    def test_memory_does_not_grow_with_t_end(self):
        # only the samples asked for are kept, not the steps to t_end (at
        # the coarsest tolerance, where the steps still hold about 3 MB, as
        # tracemalloc slows the run sevenfold)
        model = mm.make_spheroid(1.1)
        s = gd.state_from_angle(model, 1.0, 0.0, 0.7)
        tracemalloc.start()
        try:
            gd.integrate_geodesic(model, [s], 300.0, [0.0, 150.0, 300.0],
                                  tol=gd.TOL_INT_RANGE[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_time_reversal(self, spheroid_model):
        s = gd.state_from_angle(spheroid_model, 1.2, 0.4, 0.33)
        y = gd.integrate_geodesic(spheroid_model, [s], 5.0, [5.0])[0, 0]
        mid = gd.state_from_ambient(spheroid_model, y[0:3], y[3:6])
        y1 = gd.integrate_geodesic(spheroid_model, [ic.reversed_state(mid)],
                                   5.0, [5.0])[0, 0]
        u0, v0 = gd.state_to_ambient(spheroid_model, s)
        u1, v1 = y1[0:3], y1[3:6]
        assert np.max(np.abs(u1 - u0)) < 1e-8
        assert np.max(np.abs(v1 + v0)) < 1e-8

    def test_pole_crossing_is_smooth(self, spheroid_model):
        # meridian orbit passes through both poles without event trouble
        s = gd.meridian_seed(spheroid_model)
        L = spheroid_model.meridian_circuit_length()
        assert closure_defect(spheroid_model, s, L, tol=1e-11) < 1e-8

    def test_preconditions(self, round_model):
        s = gd.equator_seed(round_model)
        with pytest.raises(PreconditionError):
            gd.integrate_geodesic(round_model, [s], -1.0, [0.0])
        with pytest.raises(PreconditionError):
            gd.integrate_geodesic(round_model, [s], 1.0, [1.0], tol=1e-3)


class TestStates:
    @pytest.mark.parametrize("theta, phi", [
        (-0.5, 0.0), (3.5, 0.0), (1.0, math.nan), (1.0, math.inf),
    ], ids=["theta-below-0", "theta-above-pi", "phi-nan", "phi-inf"])
    def test_chart_range_enforced(self, round_model, theta, phi):
        with pytest.raises(ChartDomainError):
            gd.state_from_angle(round_model, theta, phi, 0.3)


def rhs_reference_row(model, y, jacobi):
    """The module docstring's equations for one state row, in plain floats:
    u'' = (mu u - q e3) / a and, with ``jacobi``, the polar Jacobi pair
    theta' = cos^2 + K sin^2, (log r)' = (1 - K) sin cos."""
    a = model.a
    u, v = y[0:3], y[3:6]
    z, v3 = u[2], v[2]
    b = float(np.polynomial.polynomial.polyval(z, model.b_coef))
    bp = float(np.polynomial.polynomial.polyval(z, model.bp_coef))
    E = a + b * (1.0 - z * z)
    vsq = math.fsum(vi * vi for vi in v)
    mu = a * (bp * v3 * v3 * z / 2 - vsq * (a + b)) / E
    xi3 = (mu * z - bp * v3 * v3 / 2) / (a + b)
    q = b * xi3 + bp * v3 * v3 / 2
    acc = [mu * ui / a for ui in u]
    acc[2] -= q / a
    out = list(v) + acc
    if jacobi:
        K = float(model.curvature(z))
        th = y[6]
        out += [math.cos(th) ** 2 + K * math.sin(th) ** 2,
                (1.0 - K) * math.sin(th) * math.cos(th)]
    return np.array(out)


def random_states(model, n, rng):
    """Unit u, tangent v with g(v, v) = 1, Jacobi columns (theta, log r)."""
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = rng.normal(size=(n, 3))
    v -= np.sum(u * v, axis=1)[:, None] * u
    v /= np.sqrt(model.dot(u, v, v))[:, None]
    jac = np.column_stack([rng.uniform(-10.0, 10.0, n),
                           rng.normal(size=n)])
    return np.hstack([u, v, jac])


class TestRhsReference:
    MODELS = {"round": lambda: mm.make_round(1.3),      # a != 1
              "spheroid": lambda: mm.make_spheroid(1.03),
              "zoll": lambda: mm.make_zoll([0.1, 0.0, -0.1]),
              # a != 1 with b != 0
              "rescaled-zoll":
                  lambda: mm.make_zoll([0.1, 0.0, -0.1]).rescale(1.7)}

    def check(self, model, y, jacobi):
        d = 8 if jacobi else 6
        got = gd.geodesic_rhs(model, jacobi=jacobi)(0.0, y)
        assert got.shape == y.shape
        for row_y, row in zip(y, got):
            ref = rhs_reference_row(model, row_y, jacobi)
            np.testing.assert_allclose(row[:d], ref, rtol=1e-13,
                                       atol=1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("n", [1, 768])
    @pytest.mark.parametrize("jacobi", [False, True])
    def test_matches_reference(self, name, n, jacobi):
        model = self.MODELS[name]()
        y = random_states(model, n, np.random.default_rng(n + 3 * jacobi))
        self.check(model, y if jacobi else y[:, 0:6].copy(), jacobi)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_non_contiguous_input(self, name):
        model = self.MODELS[name]()
        stages = np.zeros((7, 64, 8))
        stages[3] = random_states(model, 64, np.random.default_rng(11))
        self.check(model, stages[3], True)              # a stage slice
        self.check(model, stages[3][::2], True)         # row-strided
        self.check(model, stages[3][:, 0:6], False)     # column slice
        self.check(model, np.asfortranarray(stages[3]), True)


def ambient(model, state):
    return np.concatenate(gd.state_to_ambient(model, state))


class TestClairaut:
    def test_equator_round(self, round_model):
        seed = gd.equator_seed(round_model)
        assert gd.clairaut_invariant(round_model,
                                     ambient(round_model, seed)) == \
            pytest.approx(1.0, abs=1e-14)

    def test_meridian_zero(self, spheroid_model):
        seed = gd.meridian_seed(spheroid_model)
        assert gd.clairaut_invariant(spheroid_model,
                                     ambient(spheroid_model, seed)) == \
            pytest.approx(0.0, abs=1e-14)

    def test_drift_along_orbit(self, spheroid_model):
        s = gd.state_from_angle(spheroid_model, 1.0, 0.1, 0.77)
        nu0 = gd.clairaut_invariant(spheroid_model, ambient(spheroid_model, s))
        ys = gd.integrate_geodesic(spheroid_model, [s], 20.0,
                                   np.linspace(0, 20, 60))[:, 0]
        worst = 0.0
        for y in ys:
            u, v = y[0:3], y[3:6]
            nu = spheroid_model.a * (u[0] * v[1] - u[1] * v[0])
            worst = max(worst, abs(nu - nu0))
        assert worst < 1e-7


class TestJacobiPolar:
    def test_round_angle_is_time(self, round_model):
        s = gd.state_from_angle(round_model, 1.0, 0.3, 0.5)
        for t in (0.5, 1.0, math.pi):
            jp = gd.jacobi_polar_advance(round_model, s, t)
            assert jp.theta == pytest.approx(t, abs=1e-10)
            assert jp.r == pytest.approx(1.0, abs=1e-10)

    def test_angle_bounds_for_pinched_curvature(self, spheroid_model):
        # after normalising max K = 1, the angle slope lies in [delta, 1]
        kmin, kmax = mm.curvature_extremes(spheroid_model)
        norm = spheroid_model.rescale(kmax)
        delta = kmin / kmax
        s = gd.state_from_angle(norm, 1.2, 0.0, 0.4)
        for t in (1.0, 3.0, 6.0):
            jp = gd.jacobi_polar_advance(norm, s, t)
            assert delta * t - 1e-9 <= jp.theta <= t + 1e-9

    def test_against_second_order_jacobi_solve(self, spheroid_model):
        # oracle: integrate u'' + K u = 0 along the same geodesic directly
        s = gd.equator_seed(spheroid_model)
        t_end = 4.0
        rhs = gd.geodesic_rhs(spheroid_model)

        def full_rhs(t, y):
            out = np.empty(8)
            out[0:6] = rhs(t, y[None, 0:6])[0]
            z = y[2]
            K = float(spheroid_model.curvature(z))
            out[6] = y[7]
            out[7] = -K * y[6]
            return out

        u0, v0 = gd.state_to_ambient(spheroid_model, s)
        y0 = np.concatenate([u0, v0, [0.0, 1.0]])     # u_J = 0, u_J' = 1
        sol = solve_ivp(full_rhs, (0, t_end), y0, rtol=1e-12, atol=1e-14,
                        dense_output=True)
        uj, duj = sol.y[6, -1], sol.y[7, -1]
        theta_oracle = math.atan2(uj, duj)            # lifted separately
        jp = gd.jacobi_polar_advance(spheroid_model, s, t_end)
        assert jp.value == pytest.approx(uj, abs=1e-8)
        assert jp.derivative == pytest.approx(duj, abs=1e-8)
        assert math.atan2(math.sin(jp.theta), math.cos(jp.theta)) == \
            pytest.approx(theta_oracle, abs=1e-8)

    def test_lifted_angle_strictly_increasing(self, spheroid_model):
        s = gd.state_from_angle(spheroid_model, 1.3, 0.0, 1.1)
        ts = np.linspace(0.2, 8.0, 25)
        angles = [gd.jacobi_polar_advance(spheroid_model, s, t).theta
                  for t in ts]
        assert np.all(np.diff(angles) > 0)


class TestConjugateTime:
    def test_round_orders(self, round_model):
        s = gd.state_from_angle(round_model, 0.8, 0.1, 0.3)
        assert gd.conjugate_time(round_model, s, 1) == \
            pytest.approx(math.pi, abs=1e-9)
        assert gd.conjugate_time(round_model, s, 2) == \
            pytest.approx(2 * math.pi, abs=1e-9)

    def test_window_for_normalised_pinched_metric(self, spheroid_model):
        kmin, kmax = mm.curvature_extremes(spheroid_model)
        norm = spheroid_model.rescale(kmax)
        delta = kmin / kmax
        for psi in (0.0, 0.7, 1.3):
            s = gd.state_from_angle(norm, 1.1, 0.0, psi)
            t1 = gd.conjugate_time(norm, s, 1)
            assert math.pi - 1e-9 <= t1 <= math.pi / delta + 1e-9

    def test_sturm_lower_bound(self, spheroid_model):
        _, kmax = mm.curvature_extremes(spheroid_model)
        s = gd.state_from_angle(spheroid_model, 0.9, 0.2, 0.5)
        assert gd.conjugate_time(spheroid_model, s, 1) >= \
            math.pi / math.sqrt(kmax) - 1e-9

    def test_zoll_equator_second_conjugate_is_period(self, zoll_model):
        s = gd.equator_seed(zoll_model)
        assert gd.conjugate_time(zoll_model, s, 2) == \
            pytest.approx(2 * math.pi, abs=1e-6)

    def test_order_validated(self, round_model):
        with pytest.raises(PreconditionError):
            gd.conjugate_time(round_model, gd.equator_seed(round_model), 3)


class TestClosedGeodesics:
    def test_round_any_seed(self, round_model):
        orbit = gd.find_closed_geodesic(
            round_model, gd.state_from_angle(round_model, 1.0, 0.5, 0.9),
            2 * math.pi)
        assert orbit.length == pytest.approx(2 * math.pi, abs=1e-10)
        assert orbit.closure_residual < 1e-10

    def test_spheroid_equator(self, spheroid_model):
        orbit = gd.equator_orbit(spheroid_model)
        assert orbit.length == pytest.approx(2 * math.pi, abs=1e-10)
        assert orbit.closure_residual < 1e-10

    def test_spheroid_meridian_matches_ellipse_perimeter(self, spheroid_model):
        # the exact seed, and a perturbed one that Gauss-Newton shoots
        m = spheroid_model
        oracle = 4.0 * 1.03 * ellipe(1.0 - 1.0 / 1.03 ** 2)
        perturbed = gd.find_closed_geodesic(
            m, gd.state_from_angle(m, math.pi / 2, 0.0, 1e-3),
            m.meridian_circuit_length() * (1.0 + 1e-3))
        for orbit in (gd.meridian_orbit(m), perturbed):
            assert orbit.length == pytest.approx(oracle, abs=1e-9)
            assert orbit.closure_residual <= 0.1 * gd.CLOSURE_TARGET

    def test_orbit_interpolation_consistency(self, spheroid_model):
        orbit = gd.equator_orbit(spheroid_model)
        u, v = orbit.at(1.234)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-9
        assert abs(float(spheroid_model.dot(u, v, v)) - 1.0) < 1e-9

    def test_equator_closed_form_matches_a_flow(self, spheroid_model):
        # the circle z = 0 against one period of the flow from the seed,
        # sampled at the orbit's own arclengths
        m = spheroid_model
        orbit = gd.equator_orbit(m)
        ts = np.linspace(0.0, orbit.length, len(orbit.states),
                         endpoint=False)
        ys = gd.integrate_geodesic(m, [gd.equator_seed(m)], orbit.length,
                                   ts, tol=1e-12)[:, 0]
        assert orbit.length == m.equator_length
        assert orbit.closure_residual == 0.0
        assert np.max(np.abs(orbit.states - ys)) < 1e-12

    def test_each_gauss_newton_flow_holds_three_rows(self, spheroid_model,
                                                     monkeypatch):
        # the launch and its two angle pushes; the period column is the
        # vector field, so no fourth row
        m, rows, integrate = spheroid_model, [], gd.integrate_adaptive

        def spy(fun, y0, *args, **kwargs):
            rows.append(len(y0))
            return integrate(fun, y0, *args, **kwargs)

        monkeypatch.setattr(gd, "integrate_adaptive", spy)
        gd.find_closed_geodesic(
            m, gd.state_from_angle(m, math.pi / 2, 0.0, 1e-3),
            m.meridian_circuit_length() * (1.0 + 1e-3))
        assert len(rows) >= 2 and set(rows) == {3}

    def test_shooting_diverges_cleanly(self, spheroid_model, monkeypatch):
        from birkhofflab.errors import NoConvergenceError
        flows, integrate = [0], gd.integrate_adaptive

        def counted(*args, **kwargs):
            flows[0] += 1
            return integrate(*args, **kwargs)

        monkeypatch.setattr(gd, "integrate_adaptive", counted)
        # no closed geodesic of length ~1 exists on this spheroid; from the
        # second seed Gauss-Newton heads for the trivial root T = 0
        for theta, psi, period in ((1.1, 0.8, 1.0), (1.577, 1.555, 0.73)):
            seed = gd.state_from_angle(spheroid_model, theta, 0.0, psi)
            flows[0] = 0
            with pytest.raises(NoConvergenceError):
                gd.find_closed_geodesic(spheroid_model, seed, period)
            # one flow per iteration, the seed's own the first
            assert flows[0] <= gd._SHOOT_ITERATIONS
