import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from birkhofflab import birkhoff_section as bs
from birkhofflab import geodesic_dynamics as gd
from birkhofflab import metric_models as mm
from birkhofflab import strip_calculus as sc
from birkhofflab._integrate import integrate_adaptive, sampler
from birkhofflab.errors import (InternalConsistencyError,
                               PinchingViolationError, PreconditionError,
                               ReturnFailure, SectionInvalidError)

import independent_checks as ic

TWO_PI = 2 * math.pi


class FakeOrbit:
    """Synthetic closed curve for section-precondition tests."""

    def __init__(self, states, length):
        self.states = states
        self.length = length
        self.closure_residual = 0.0

    def plane_normal(self):
        pts = self.states[:, 0:3]
        _, _, vt = np.linalg.svd(pts, full_matrices=False)
        normal = vt[2]
        if np.max(np.abs(pts @ normal)) > 1e-8:
            return None
        return normal

    def at(self, x):
        raise NotImplementedError


def figure_eight_orbit():
    t = np.linspace(0, TWO_PI, 512, endpoint=False)
    theta = math.pi / 2 + 0.6 * np.sin(2 * t)
    phi = 0.8 * np.sin(t)
    u = np.stack([np.sin(theta) * np.cos(phi),
                  np.sin(theta) * np.sin(phi),
                  np.cos(theta)], axis=1)
    states = np.concatenate([u, np.gradient(u, axis=0)], axis=1)
    return FakeOrbit(states, TWO_PI)


class TestSectionConstruction:
    def test_round_equator_section(self, round_section):
        assert round_section.length == pytest.approx(TWO_PI, abs=1e-12)
        assert np.allclose(round_section.normal, [0, 0, 1], atol=1e-12)
        u, w = round_section.section_vector(np.array([0.0]),
                                            np.array([math.pi / 2]))
        # mid-angle vectors point straight into the upper hemisphere
        assert np.allclose(w[0], [0, 0, 1], atol=1e-12)

    def test_spheroid_equator_section(self, spheroid_section):
        assert spheroid_section.length == pytest.approx(TWO_PI, abs=1e-10)
        u, w = spheroid_section.section_vector(np.array([1.0]),
                                               np.array([0.3]))
        m = spheroid_section.model
        assert abs(float(m.dot(u[0], w[0], w[0])) - 1.0) < 1e-12

    def test_non_simple_curve_rejected(self, round_model):
        with pytest.raises(SectionInvalidError):
            bs.build_section(round_model, figure_eight_orbit())

    def test_footpoint_round_trip(self, spheroid_section):
        xs = np.linspace(0, spheroid_section.length, 17, endpoint=False)
        u, _, _ = spheroid_section.frames(xs)
        back = spheroid_section.footpoint(u)
        diff = np.abs(back - xs)
        diff = np.minimum(diff, spheroid_section.length - diff)
        assert np.max(diff) < 1e-10


class TestRoundGrid:
    def test_return_time_is_full_period(self, round_grid):
        assert np.max(np.abs(round_grid.tau - TWO_PI)) < 1e-7

    def test_map_is_identity(self, round_grid):
        assert np.max(np.abs(round_grid.X - round_grid.xs[:, None])) < 1e-8
        assert np.max(np.abs(round_grid.Y - round_grid.ys[None, :])) < 1e-8

    def test_jacobi_derivative_is_one(self, round_grid):
        assert np.max(np.abs(round_grid.jac_du - 1.0)) < 1e-8

    def test_all_nodes_clean(self, round_grid):
        # a grid holds only nodes that returned: no field is NaN but the
        # legs of the boundary rows
        for k in ("X", "Y", "tau", "jac_angle", "jac_du"):
            assert np.all(np.isfinite(getattr(round_grid, k))), k
        for k in ("tau_plus", "rho_plus"):
            leg = getattr(round_grid, k)
            assert np.all(np.isfinite(leg[:, 1:-1])), k
            assert np.all(np.isnan(leg[:, [0, -1]])), k


class TestSpheroidGrid:
    def test_boundary_rows_are_conjugate_times(self, spheroid_grid):
        # along the equator K is constant c^-2, so the second conjugate
        # time is exactly 2 pi c on both rows
        expect = TWO_PI * 1.03
        assert np.max(np.abs(spheroid_grid.tau[:, 0] - expect)) < 1e-9
        assert np.max(np.abs(spheroid_grid.tau[:, -1] - expect)) < 1e-9

    def test_boundary_lift_values(self, spheroid_grid):
        L = spheroid_grid.length
        expect = TWO_PI * 1.03 - L
        dX = spheroid_grid.X - spheroid_grid.xs[:, None]
        assert np.max(np.abs(dX[:, 0] - expect)) < 1e-9
        assert np.max(np.abs(dX[:, -1] + expect)) < 1e-9

    def test_angle_component_preserved_by_rotations(self, spheroid_grid):
        # revolution symmetry: columns of tau and Y do not depend on x.  The
        # equator grid broadcasts one column, so this holds by construction;
        # TestEquatorSymmetry compares it with every column integrated.
        assert np.max(np.ptp(spheroid_grid.tau, axis=0)) < 1e-8
        assert np.max(np.ptp(spheroid_grid.Y, axis=0)) < 1e-8

    def test_y_boundary_rows(self, spheroid_grid):
        assert np.max(np.abs(spheroid_grid.Y[:, 0])) < 1e-7
        assert np.max(np.abs(spheroid_grid.Y[:, -1] - math.pi)) < 1e-7

    def test_tau_positive(self, spheroid_grid):
        assert np.min(spheroid_grid.tau) > 0

    def test_omega_preservation(self, spheroid_grid):
        lift = bs.zero_flux_lift(spheroid_grid)
        assert sc.omega_preservation_residual(lift) < 1e-5

    def test_meridian_row_is_fixed(self, spheroid_grid):
        # ny = 65 puts y = pi/2 on-grid; those nodes are fixed points whose
        # return time is the meridian circuit length
        j = 32
        assert spheroid_grid.ys[j] == pytest.approx(math.pi / 2)
        oracle = spheroid_grid.section.model.meridian_circuit_length()
        assert np.max(np.abs(spheroid_grid.tau[:, j] - oracle)) < 1e-8
        dX = spheroid_grid.X[:, j] - spheroid_grid.xs
        assert np.max(np.abs(dX)) < 1e-8
        assert np.max(np.abs(spheroid_grid.Y[:, j] - math.pi / 2)) < 1e-8


def _clairaut_oracle(model, y):
    """(tau_plus, tau, rho) of the equator return at angle y from 1-D
    quadratures over theta, with z = sin(y) sin(theta) and the Clairaut
    value c = sqrt(a) cos(y); rho is the footpoint advance, defined mod L."""
    a = model.a
    s, c = math.sin(y), math.sqrt(a) * math.cos(y)

    def speed(th):
        return math.sqrt(float(model.profile_E(s * math.sin(th))))

    def advance(th):
        z = s * math.sin(th)
        return c * speed(th) / (a * (1.0 - z * z))

    opts = dict(epsabs=1e-12, epsrel=1e-12, limit=200)
    half = math.pi / 2
    tau_plus = 2.0 * quad(speed, 0.0, half, **opts)[0]
    tau = 2.0 * quad(speed, -half, half, **opts)[0]
    rho = math.sqrt(a) * 2.0 * quad(advance, -half, half, **opts)[0]
    return tau_plus, tau, rho


_QUAD = dict(epsabs=1e-12, epsrel=1e-12, limit=200)


def _meridian_oracle(model, u, w):
    """(tau_plus, tau, X - x) of the return of the annulus vector (u, w)
    over the meridian of azimuth 0 run from the equator towards the south
    pole, from quad and brentq (tau_plus None on a boundary row); X - x is
    defined mod L.  The base is the circle of in-plane angle
    th = atan2(u1, u3), whose arclength is the integral of sqrt(E(cos th)).

    An interior orbit has the Clairaut value C of its launch, k = |C| /
    sqrt(a) and z = s sin(psi), s = sqrt(1 - k^2); its azimuth advances at
    k sqrt(E) / (sqrt(a) (1 - z^2)) per unit psi (integrated piecewise,
    split where |z| peaks), its time at sqrt(E).  One launched over a pole
    runs along a meridian and returns after its length.  Along the base the
    Jacobi field vanishing at th0 is sin(th - th0) + sin(th) sin(th0)
    Ex(th0, th) / sqrt(a), Ex the integral of b / (sqrt(E) + sqrt(a)); its
    second zero lies between the second and the third pole ahead."""
    ra = math.sqrt(model.a)

    def speed(z):
        return math.sqrt(float(model.profile_E(z)))

    def arc(th0, th1):
        return quad(lambda th: speed(math.cos(th)), th0, th1, **_QUAD)[0]

    th0 = math.atan2(u[0], u[2])
    k = abs(model.a * (u[0] * w[1] - u[1] * w[0])) / ra
    if abs(w[1]) < 1e-9:                       # along the base
        ahead = math.copysign(1.0, w[0] * math.cos(th0)
                              - w[2] * math.sin(th0))

        def jacobi(th):
            ex = quad(lambda t: float(model.b(math.cos(t)))
                      / (speed(math.cos(t)) + ra), th0, th, **_QUAD)[0]
            return (math.sin(th - th0)
                    + math.sin(th) * math.sin(th0) * ex / ra)

        n = math.floor(th0 / math.pi) + (2 if ahead > 0 else -2)
        if abs(math.sin(th0)) < 1e-9:          # from a pole: the poles
            th2 = th0 + 2.0 * math.pi * ahead
        else:
            th2 = brentq(jacobi, n * math.pi, (n + 1) * math.pi,
                         xtol=1e-14, rtol=1e-15)
        tau = abs(arc(th0, th2))
        return None, tau, ahead * tau
    if k < 1e-9:                               # over a pole
        return arc(0.0, math.pi), arc(0.0, TWO_PI), 0.0
    s = math.sqrt(1.0 - k * k)
    psi0 = math.atan2(u[2], speed(u[2]) * w[2])

    def rate(psi):
        z = s * math.sin(psi)
        return k * speed(z) / (ra * (1.0 - z * z))

    def turn(lo, hi):
        if hi - lo < 1e-9:                     # brentq's last brackets
            return rate(0.5 * (lo + hi)) * (hi - lo)
        first = math.ceil((lo - math.pi / 2) / math.pi)
        last = math.floor((hi - math.pi / 2) / math.pi)
        cuts = [lo, *(math.pi / 2 + math.pi * np.arange(first, last + 1)),
                hi]
        return sum(quad(rate, p, q, **_QUAD)[0] for p, q in zip(cuts,
                                                                 cuts[1:]))

    def advance(target):
        lo, done = psi0, 0.0
        while True:
            hi = lo + math.pi / 4
            step = turn(lo, hi)
            if done + step >= target:
                return brentq(lambda p: done + turn(lo, p) - target, lo, hi,
                              xtol=1e-14, rtol=1e-15)
            lo, done = hi, done + step

    def time(psi):
        return quad(lambda p: speed(s * math.sin(p)), psi0, psi, **_QUAD)[0]

    psi1, psi2 = advance(math.pi), advance(TWO_PI)
    th2 = math.copysign(math.acos(s * math.sin(psi2)), u[0])
    return (time(psi1), time(psi2),
            arc(math.pi / 2, th2) - arc(math.pi / 2, th0))


# The ReturnFailure message of one orbit flagged by its sweep.
FLAGGED = {"grazing": "1 orbits graze the base plane and 0 miss a return",
           "short": "0 orbits graze the base plane and 1 miss a return"}


@pytest.fixture(scope="module")
def zoll_equator_grid(zoll_model):
    return bs.compute_return_grid(bs.build_section(zoll_model), nx=32, ny=65)


def assert_matches_every_node_integrated(grid):
    ref = ic.every_node_returns(grid)
    for k in ("X", "Y", "tau", "tau_plus", "rho_plus", "jac_angle", "jac_du"):
        got, want = getattr(grid, k), ref[k]
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want)) < 1e-10, k


class TestEquatorSymmetry:
    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("name", ["spheroid_grid", "zoll_equator_grid"])
    def test_clairaut_oracle(self, request, name):
        # tau_plus, tau and X - x of every row against Clairaut quadratures;
        # the adaptive rule resolves the advance integrand's peak near the
        # turning points of the rows next to y = pi/2 (orbits passing
        # about 0.017 from the poles), which 64 fixed Gauss nodes miss
        grid = request.getfixturevalue(name)
        L = grid.length
        for j, y in enumerate(grid.ys):
            tau_plus, tau, rho = _clairaut_oracle(grid.section.model, y)
            if 0 < j < grid.ny - 1:
                assert np.max(np.abs(grid.tau_plus[:, j] - tau_plus)) < 1e-9
            assert np.max(np.abs(grid.tau[:, j] - tau)) < 1e-9
            d = grid.X[:, j] - grid.xs - rho
            assert np.max(np.abs(d - L * np.round(d / L))) < 1e-9

    @pytest.mark.parametrize("name", ["round_grid", "spheroid_grid"])
    def test_matches_every_node_integrated(self, request, name):
        # the reference integrates every node, so it also pins the
        # x-invariance of the return map
        assert_matches_every_node_integrated(request.getfixturevalue(name))

    @pytest.mark.parametrize("field", ["X", "tau", "Y", "jac_du"])
    def test_disagreeing_check_column_raises(self, spheroid_section,
                                             monkeypatch, field):
        # a check node off the quadrature by more than its field's bound
        # (1e-4 for the Jacobi fields, about 1e-9 for the others)
        returns = bs._returns

        def perturbed(section, xs, ys, *args, **kwargs):
            out = returns(section, xs, ys, *args, **kwargs)
            out[field][xs == xs.max()] += 1e-3 if field == "jac_du" else 1e-6
            return out

        monkeypatch.setattr(bs, "_returns", perturbed)
        with pytest.raises(InternalConsistencyError):
            bs.compute_return_grid(spheroid_section, nx=16, ny=17)

    @pytest.mark.parametrize("name", ["zoll_equator_grid", "fat_equator_grid"])
    def test_rows_match_the_sweep(self, request, name):
        # every row of one column swept, boundary rows included, against
        # the quadrature; the Zoll metric's b is not even in z, so its legs
        # pin the side the orbits leave to
        grid = request.getfixturevalue(name)
        ref = bs._returns(grid.section, np.full(grid.ny, grid.xs[3]),
                          grid.ys, 1e-10)
        for k in ("X", "Y", "tau", "tau_plus", "rho_plus", "jac_angle",
                  "jac_du"):
            got, want = getattr(grid, k)[3], ref[k]
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.nanmax(np.abs(got - want)) < 1e-10, k

    def test_sweeps_the_arc_nodes_only(self, monkeypatch):
        # one sweep of _ARC_NODES interior nodes, no boundary row, each of
        # them a check node whose return arc is sampled
        model = mm.make_spheroid(0.97)
        sec = bs.build_section(model, gd.equator_orbit(model))
        seen = []
        returns = bs._returns

        def spy(section, xs, ys, *args, **kwargs):
            seen.append((xs, ys, kwargs["arc"]))
            return returns(section, xs, ys, *args, **kwargs)

        monkeypatch.setattr(bs, "_returns", spy)
        grid = bs.compute_return_grid(sec, nx=16, ny=17)
        [(xs, ys, arc)] = seen
        assert len(xs) == bs._ARC_NODES
        assert np.all((0.0 < ys) & (ys < math.pi))
        assert np.array_equal(arc, np.arange(bs._ARC_NODES))
        nodes = [(grid.xs[i], grid.ys[j]) for i, j, *_ in grid.arc_legs]
        assert nodes == list(zip(xs, ys))

    @pytest.mark.parametrize("flag", ["grazing", "short"])
    def test_flagged_orbit_raises(self, flag_one_orbit, flag):
        # one check node of the c = 0.97 equator flagged by its sweep
        model = mm.make_spheroid(0.97)
        flag_one_orbit(flag)
        with pytest.raises(ReturnFailure, match=FLAGGED[flag]):
            bs.compute_return_grid(bs.build_section(model), nx=16, ny=17)


@pytest.fixture(scope="module")
def fat_equator_grid():
    # c = 1.5 is pinched below 1/4: no lift, but its return grid exists
    return bs.compute_return_grid(bs.build_section(mm.make_spheroid(1.5)),
                                  nx=8, ny=33)


@pytest.fixture(scope="module")
def oblate_meridian_section():
    model = mm.make_spheroid(0.97)
    return bs.build_section(model, gd.meridian_orbit(model))


@pytest.mark.parametrize("base", ["equator", "meridian"])
@pytest.mark.parametrize("nx, ny", [(8, 2), (0, 17)])
def test_grid_without_nodes_to_integrate_refused(oblate_meridian_section,
                                                 monkeypatch, base, nx, ny):
    def returns(*args):
        raise AssertionError("integration started")

    monkeypatch.setattr(bs, "_returns", returns)
    model = oblate_meridian_section.model
    sec = (bs.build_section(model, gd.equator_orbit(model))
           if base == "equator" else oblate_meridian_section)
    with pytest.raises(PreconditionError, match=f"got {nx} x {ny}"):
        bs.compute_return_grid(sec, nx=nx, ny=ny)


class TestMeridianSymmetry:
    """The meridian-base grid by Clairaut quadrature, node by node."""

    @pytest.mark.parametrize("nx, ny", [(16, 17), (32, 65)])
    def test_matches_every_node_integrated(self, oblate_meridian_section,
                                           nx, ny):
        # every field of every node, boundary rows included, against its
        # own integration; 16 x 17 and 32 x 65 hold the pole columns, the
        # columns beside them and the equator's crossings at y = pi/2
        grid = bs.compute_return_grid(oblate_meridian_section, nx=nx, ny=ny)
        assert_matches_every_node_integrated(grid)

    def test_odd_nx_matches_every_node_integrated(
            self, oblate_meridian_section):
        # no column over the poles or at the equator's second crossing
        grid = bs.compute_return_grid(oblate_meridian_section, nx=15, ny=17)
        assert_matches_every_node_integrated(grid)

    def test_zoll_meridian_matches_every_node_integrated(self, zoll_model):
        # b has odd terms: the orbits are not symmetric under z -> -z
        sec = bs.build_section(zoll_model, gd.meridian_orbit(zoll_model))
        assert_matches_every_node_integrated(
            bs.compute_return_grid(sec, nx=16, ny=17))

    def test_pole_columns_are_fixed(self, oblate_meridian_section):
        # every vector over a pole launches a meridian, which returns after
        # L to where it started
        grid = bs.compute_return_grid(oblate_meridian_section, nx=32, ny=65)
        for i in (8, 24):
            assert np.max(np.abs(grid.tau[i] - grid.length)) < 1e-14
            assert np.max(np.abs(grid.X[i] - grid.xs[i])) < 1e-14
            assert np.max(np.abs(grid.Y[i] - grid.ys)) < 1e-14

    def test_undecayed_series_raises(self, oblate_meridian_section,
                                     monkeypatch):
        # c = 0.97 needs 64 samples a node to reach rounding; capped at 32,
        # the series is refused rather than truncated
        monkeypatch.setattr(mm, "_SERIES_SAMPLES", (16, 32))
        with pytest.raises(InternalConsistencyError, match="not decayed"):
            bs.compute_return_grid(oblate_meridian_section, nx=16, ny=17)

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("kind", ["spheroid", "zoll"])
    def test_meridian_oracle(self, kind, oblate_meridian_section,
                             zoll_model):
        # tau, tau_plus and X - x of every node, boundary rows included,
        # against quad and brentq on the launch state of each node
        sec = oblate_meridian_section
        if kind == "zoll":
            sec = bs.build_section(zoll_model, gd.meridian_orbit(zoll_model))
        grid = bs.compute_return_grid(sec, nx=12, ny=12)
        L = grid.length
        for i, x in enumerate(grid.xs):
            for j, y in enumerate(grid.ys):
                u, w = sec.section_vector(x, y)
                tau_plus, tau, shift = _meridian_oracle(sec.model, u, w)
                if tau_plus is not None:
                    assert abs(grid.tau_plus[i, j] - tau_plus) < 1e-9
                assert abs(grid.tau[i, j] - tau) < 1e-9
                d = grid.X[i, j] - x - shift
                assert abs(d - L * round(d / L)) < 1e-9

    @pytest.mark.parametrize("field", ["X", "tau"])
    def test_disagreeing_check_node_raises(self, oblate_meridian_section,
                                           monkeypatch, field):
        # one check node off the quadrature by 1e-6
        returns = bs._returns

        def perturbed(section, xs, ys, *args, **kwargs):
            out = returns(section, xs, ys, *args, **kwargs)
            out[field][xs == xs.max()] += 1e-6
            return out

        monkeypatch.setattr(bs, "_returns", perturbed)
        with pytest.raises(InternalConsistencyError,
                           match=f"check nodes disagree in {field}"):
            bs.compute_return_grid(oblate_meridian_section, nx=16, ny=17)

    def test_integrated_columns(self, monkeypatch, oblate_meridian_section):
        # one sweep of the _ARC_NODES seeded check nodes, all interior, is
        # all that is integrated
        seen = []
        returns = bs._returns

        def spy(section, xs, ys, *args, **kwargs):
            seen.append((xs, ys))
            return returns(section, xs, ys, *args, **kwargs)

        monkeypatch.setattr(bs, "_returns", spy)
        grid = bs.compute_return_grid(oblate_meridian_section, nx=16, ny=17)
        [(xs, ys)] = seen
        assert len(xs) == bs._ARC_NODES
        assert np.all((0.0 < ys) & (ys < math.pi))
        nodes = [(grid.xs[i], grid.ys[j]) for i, j, *_ in grid.arc_legs]
        assert nodes == list(zip(xs, ys))

    @pytest.mark.parametrize("flag", ["grazing", "short"])
    def test_flagged_orbit_raises(self, oblate_meridian_section,
                                  flag_one_orbit, flag):
        # one orbit of the check sweep flagged
        flag_one_orbit(flag)
        with pytest.raises(ReturnFailure, match=FLAGGED[flag]):
            bs.compute_return_grid(oblate_meridian_section, nx=16, ny=17)

    def test_boundary_rows_match_one_orbit_conjugate_times(
            self, oblate_meridian_section):
        # the boundary nodes of a sweep mixed with interior nodes, against
        # the second conjugate time of one orbit launched along the base,
        # forward (y = 0) and backward (y = pi)
        sec = oblate_meridian_section
        model = sec.model
        xs = np.arange(32) * (sec.length / 32)
        ys = np.linspace(0.0, math.pi, 65)
        i = np.array([0, 5, 13])
        x = np.concatenate([xs[i], xs[i], xs[i]])
        y = np.concatenate([np.zeros(3), np.full(3, math.pi), ys[[7, 30, 50]]])
        out = bs._returns(sec, x, y, 1e-10)
        for k in range(3):
            u, v, _ = sec.frames(xs[i[k]])
            base = gd.state_from_ambient(model, u, v)
            for tau, state in ((out["tau"][k], base),
                               (out["tau"][3 + k], ic.reversed_state(base))):
                assert abs(tau - gd.conjugate_time(model, state, 2)) < 1e-9

    def test_tilted_base_refused(self, round_model, monkeypatch):
        # a great circle of the round sphere on a plane tilted against the
        # axis is neither the equator nor a meridian
        def returns(*args, **kwargs):
            raise AssertionError("integration started")

        monkeypatch.setattr(bs, "_returns", returns)
        t = np.linspace(0.0, TWO_PI, 1024, endpoint=False)[:, None]
        e1, e2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8])
        states = np.hstack([np.cos(t) * e1 + np.sin(t) * e2,
                            np.cos(t) * e2 - np.sin(t) * e1])
        orbit = gd.ClosedOrbit(round_model, TWO_PI, states, 0.0)
        sec = bs.build_section(round_model, orbit)
        with pytest.raises(SectionInvalidError, match="equator or a meridian"):
            bs.compute_return_grid(sec, nx=16, ny=17)


class TestLiftAndIdentities:
    def test_round_lift_flux_zero(self, round_grid):
        lift = bs.zero_flux_lift(round_grid)
        assert abs(sc.flux(lift)) < 1e-9

    def test_spheroid_lift_flux_zero(self, spheroid_grid):
        lift = bs.zero_flux_lift(spheroid_grid)
        assert abs(sc.flux(lift)) < 1e-6

    def test_tau_action_identity(self, spheroid_grid):
        act = sc.action(bs.zero_flux_lift(spheroid_grid))
        assert bs.verify_tau_action_identity(spheroid_grid, act) < 1e-5

    def test_area_identity(self, spheroid_grid, spheroid_model):
        cal = sc.calabi(bs.zero_flux_lift(spheroid_grid))
        assert bs.verify_area_identity(spheroid_grid, cal,
                                       mm.area(spheroid_model)) < 1e-4

    def test_contact_volume(self, round_grid, round_model):
        # round sphere: tau-weighted annulus area is 2 pi * 4 pi = 8 pi^2
        vol = sc.strip_integral(round_grid.tau, round_grid.xs,
                                round_grid.ys, round_grid.length)
        assert vol == pytest.approx(8 * math.pi ** 2, rel=1e-6)
        assert bs.contact_volume_check(round_grid, mm.area(round_model)) \
            < 1e-4

    def test_action_boundary_identity(self, spheroid_grid):
        act = sc.action(bs.zero_flux_lift(spheroid_grid))
        assert ic.action_boundary_identity(spheroid_grid, act) < 1e-6

    def test_strongly_oblong_spheroid_breaks_lift_pinning(self):
        # tau at the boundary rows is 2 pi c > 2L for c = 2.5: the advance
        # escapes (0, 2L) and the lift construction must refuse loudly
        model = mm.make_spheroid(2.5)
        sec = bs.build_section(model)
        with pytest.raises(PinchingViolationError):
            bs.compute_return_grid(sec, nx=16, ny=17)

    def test_self_intersection_detector_on_spiral_arc(self):
        pts = spiral_arc()
        assert bs.curve_self_intersects(pts, closed=False)
        arc = pts[:150]          # short piece is injective
        assert not bs.curve_self_intersects(arc, closed=False)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(12, 48),
           closed=st.booleans(),
           factor=st.sampled_from([None, 0.5, 0.999, 1.001, 2.0]))
    def test_self_intersection_detector_against_all_pairs(self, seed, n,
                                                          closed, factor):
        pts = walk_with_crossing(np.random.default_rng(seed), n, closed,
                                 factor)
        want = ic.all_pairs_self_intersects(pts, closed)
        assert bs.curve_self_intersects(pts, closed=closed) is want
        if factor is not None and factor < 1.0:
            assert want

    def test_lift_is_the_grid(self, spheroid_grid):
        assert bs.zero_flux_lift(spheroid_grid) is spheroid_grid

    def test_return_arcs_injective_when_pinched(self, spheroid_grid):
        bs.check_return_arc_injectivity(spheroid_grid)

    def test_self_intersecting_arc_refuses_the_lift(self, spheroid_grid):
        # the spiral as the second leg of the grid's last sampled arc: the
        # lift names that arc's node
        legs = list(spheroid_grid.arc_legs)
        i, j, leg_plus, _ = legs[-1]
        legs[-1] = (i, j, leg_plus, spiral_arc())
        grid = dataclasses.replace(spheroid_grid, arc_legs=legs)
        with pytest.raises(PinchingViolationError,
                           match=rf"return arc through node \({i}, {j}\) "
                                 "self-intersects"):
            bs.zero_flux_lift(grid)

    def test_self_intersecting_arc_refuses_the_summary(self, spheroid_grid,
                                                       spheroid_model):
        # the return-map report checks the sampled arcs like every lift
        legs = list(spheroid_grid.arc_legs)
        i, j, leg_plus, _ = legs[0]
        legs[0] = (i, j, leg_plus, spiral_arc())
        grid = dataclasses.replace(spheroid_grid, arc_legs=legs)
        with pytest.raises(PinchingViolationError, match="self-intersects"):
            grid.summary(spheroid_model)


def _straight(p, q, step):
    """The points strictly between p and q that split [p, q] into equal
    pieces no longer than ``step``."""
    k = max(int(np.ceil(np.linalg.norm(q - p) / step)), 1)
    return p + (q - p) * (np.arange(1, k) / k)[:, None]


def walk_with_crossing(rng, n, closed, factor, step=0.3):
    """A random walk of n steps of length ``step``.  With ``factor``, it
    then runs straight back to cross one of its segments, at random points
    of both, at the distance factor * ``_CURVE_RESOLUTION`` and takes one
    more step; closed, it runs straight back to its start.  Every segment
    is at most ``step`` long, as on a sampled orbit, so the crossing
    segments' midpoints often lie in neighbouring cells of the spatial
    hash of ``curve_self_intersects``."""
    def unit(v):
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    pts = np.cumsum(step * unit(rng.normal(size=(n, 3))), axis=0)
    if factor is not None:
        i = int(rng.integers(4, n - 6))
        a, b = pts[i], pts[i + 1]
        normal = unit(np.cross(b - a, rng.normal(size=3)))
        cross = unit(np.cross(normal, b - a))
        at = (a + rng.uniform(0.05, 0.95) * (b - a)
              + factor * bs._CURVE_RESOLUTION * normal)
        start = at - rng.uniform(0.05, 0.95) * step * cross
        end = start + step * cross
        pts = np.vstack([pts, _straight(pts[-1], start, step), start, end,
                         end + step * unit(rng.normal(size=3))])
    if closed:
        pts = np.vstack([pts, _straight(pts[-1], pts[0], step)])
    return pts


def spiral_arc():
    """Open spiral climbing a cylinder-like surface, crossing its mirror."""
    t = np.linspace(0, 4 * math.pi, 800)
    height = 0.3 * np.sin(t / 2)
    r = np.sqrt(1 - height ** 2)
    return np.stack([r * np.cos(t), r * np.sin(t), height], axis=1)


@pytest.fixture(scope="module")
def oblate_meridian_grid(oblate_meridian_section):
    return bs.compute_return_grid(oblate_meridian_section, nx=32, ny=65)


@pytest.mark.parametrize("name", ["spheroid_grid", "oblate_meridian_grid"])
def test_arc_legs_match_one_orbit_integrations(request, name):
    # the legs sampled by the return sweep, against one sampled
    # integration of each arc's annulus vector, read at the sweep's sample
    # times (every pi / (sqrt(max K) _ARC_SAMPLES) from 0), its crossing and
    # its return (the integration runs a sample interval past the return)
    # on both bases the arcs are those of the seeded check nodes, the only
    # nodes integrated
    grid = request.getfixturevalue(name)
    sec = grid.section
    dt = math.pi / (math.sqrt(mm.curvature_extremes(sec.model)[1])
                    * bs._ARC_SAMPLES)
    nodes = {(i, j) for i, j, *_ in grid.arc_legs}
    assert len(nodes) == len(grid.arc_legs) == bs._ARC_NODES
    for i, j, leg_plus, leg_minus in grid.arc_legs:
        assert 0 < j < grid.ny - 1
        assert min(len(leg_plus), len(leg_minus)) >= bs._ARC_SAMPLES
        u, w = sec.section_vector(grid.xs[i], grid.ys[j])
        n = len(leg_plus) - 1
        ts = np.concatenate([np.arange(n) * dt, [grid.tau_plus[i, j]],
                             np.arange(n, n + len(leg_minus) - 2) * dt,
                             [grid.tau[i, j]]])
        hook, blocks = sampler([0], slice(0, 3), ts)
        integrate_adaptive(
            gd.geodesic_rhs(sec.model), np.concatenate([u, w]),
            (0.0, grid.tau[i, j] + dt),
            project=gd.state_projector(sec.model), step_hook=hook)
        pts = np.vstack([leg_plus, leg_minus[1:]])
        assert np.max(np.abs(np.concatenate(blocks)[:, 0] - pts)) < 1e-9


class TestMonotonicity:
    def test_round(self, round_grid):
        rep = bs.monotonicity_check(round_grid)
        assert rep.monotone
        assert rep.min_d2Y_fd == pytest.approx(1.0, abs=1e-9)
        assert rep.max_discrepancy < 1e-9

    def test_spheroid(self, spheroid_grid):
        rep = bs.monotonicity_check(spheroid_grid)
        assert rep.passed
        assert rep.max_discrepancy < 1e-4


class TestConsistencyChecks:
    def test_boundary_consistency(self, spheroid_grid):
        assert bs.boundary_consistency_check(spheroid_grid) < 1e-4

    def test_composition_identities(self, spheroid_grid):
        tau_res, map_res = bs.composition_identity_check(spheroid_grid,
                                                         n_nodes=6)
        assert tau_res < 1e-6
        assert map_res < 1e-6

    def test_composition_check_is_two_sweeps(self, spheroid_grid,
                                             monkeypatch):
        # one sweep over the sampled nodes, one over their intermediate
        # vectors; a transition return that is not found still raises
        sweep = bs._return_sweep
        calls = []

        def spy(section, xs, ys, *args, **kwargs):
            calls.append(len(xs))
            out = sweep(section, xs, ys, *args, **kwargs)
            if lose_transition and kwargs.get("slopes") == (+1,):
                out.n_found[-1] = 0
            return out

        monkeypatch.setattr(bs, "_return_sweep", spy)
        lose_transition = False
        bs.composition_identity_check(spheroid_grid, n_nodes=6)
        assert calls == [6, 6]
        lose_transition = True
        with pytest.raises(ReturnFailure, match="transition"):
            bs.composition_identity_check(spheroid_grid, n_nodes=6)

    def test_single_vector_return_matches_grid(self, spheroid_section,
                                               spheroid_grid):
        i, j = 5, 20
        s = bs.return_data(spheroid_section, float(spheroid_grid.xs[i]),
                           float(spheroid_grid.ys[j]))
        assert s.tau == pytest.approx(spheroid_grid.tau[i, j], abs=1e-9)
        assert s.X == pytest.approx(spheroid_grid.X[i, j], abs=1e-9)
        assert s.Y == pytest.approx(spheroid_grid.Y[i, j], abs=1e-9)

    def test_boundary_vector_return(self, spheroid_section):
        s = bs.return_data(spheroid_section, 0.5, 0.0)
        assert s.tau == pytest.approx(TWO_PI * 1.03, abs=1e-9)
        assert s.Y == 0.0

    def test_return_failure_on_tiny_horizon(self, spheroid_section,
                                            monkeypatch):
        from birkhofflab.errors import ReturnFailure
        monkeypatch.setattr(bs, "_HORIZON_FACTOR", 0.05)
        with pytest.raises(ReturnFailure):
            bs.return_data(spheroid_section, 0.5, 1.0)

    @pytest.mark.parametrize("kmin", [1e-12, 1e-6, 0.03, 1.0, 4.0, 1e6,
                                      1e12])
    def test_mixed_batch_keeps_the_return_horizon(self, kmin):
        # the boundary rows' conjugate horizon scales with the metric, as
        # the return horizon does, and stays below it, so the boundary rows
        # do not stretch a mixed sweep (nor its arc-sample times)
        ys = np.array([0.0, 1.0, math.pi])
        assert bs._horizon(kmin, ys) == bs._horizon(kmin, ys[1:2])
        assert bs._horizon(kmin, ys) == pytest.approx(
            3 * TWO_PI / math.sqrt(kmin), rel=1e-15)


@pytest.fixture(scope="module")
def zoll_grid(zoll_model):
    sec = bs.build_section(zoll_model)
    return bs.compute_return_grid(sec, nx=24, ny=65)


class TestZollGrid:
    def test_return_map_is_identity(self, zoll_grid):
        lift = bs.zero_flux_lift(zoll_grid)
        assert lift.sup_distance_to_identity() < 1e-5

    def test_tau_is_common_period(self, zoll_grid):
        assert np.max(np.abs(zoll_grid.tau - TWO_PI)) < 1e-6

    def test_calabi_vanishes(self, zoll_grid, zoll_model):
        cal = sc.calabi(bs.zero_flux_lift(zoll_grid))
        assert abs(cal) < 1e-6
        assert bs.verify_area_identity(zoll_grid, cal,
                                       mm.area(zoll_model)) < 1e-4


class TestJacobiWindow:
    def test_normalised_spheroid_window(self, spheroid_model):
        kmin, kmax = mm.curvature_extremes(spheroid_model)
        norm = spheroid_model.rescale(kmax)
        sec = bs.build_section(norm)
        grid = bs.compute_return_grid(sec, nx=16, ny=33)
        win = bs.jacobi_angle_window(grid, kmin / kmax)
        assert win["inside"]
        assert win["cos_positive"]


class TestSerialisation:
    def test_csv_and_summary(self, round_grid, round_model, tmp_path):
        path = tmp_path / "grid.csv"
        round_grid.to_csv(path, 1.0)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (round_grid.nx * round_grid.ny, 5)
        assert np.max(np.abs(data[:, 4] - TWO_PI)) < 1e-7
        summary = round_grid.summary(round_model)
        assert summary["nx"] == round_grid.nx
        assert abs(summary["flux"]) < 1e-9
        assert summary["residuals"]["tau_action_max"] < 1e-7
