import math

import numpy as np
import pytest
from scipy.integrate import quad

from birkhofflab import birkhoff_section as bs
from birkhofflab import geodesic_dynamics as gd
from birkhofflab import metric_models as mm
from birkhofflab import strip_calculus as sc
from birkhofflab.errors import (InternalConsistencyError,
                               PinchingViolationError, PreconditionError,
                               ReturnFailure, SectionInvalidError)

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
        assert np.all(round_grid.status == bs.STATUS_OK)


class TestSpheroidGrid:
    def test_boundary_rows_are_conjugate_times(self, spheroid_grid):
        # along the equator K is constant c^-2, so the second conjugate
        # time is exactly 2 pi c on both rows
        expect = TWO_PI * 1.03
        assert np.max(np.abs(spheroid_grid.tau[:, 0] - expect)) < 1e-9
        assert np.max(np.abs(spheroid_grid.tau[:, -1] - expect)) < 1e-9

    def test_boundary_lift_values(self, spheroid_grid):
        L = spheroid_grid.L
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
        lift = bs.zero_flux_lift(spheroid_grid, arc_check_nodes=0)
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


    def test_array_assembly_matches_per_node_reference(self,
                                                       spheroid_section,
                                                       spheroid_grid):
        # re-run the equator grid's one interior sweep (column 0 and the
        # check columns) and assemble column 0 node by node
        sec, grid = spheroid_section, spheroid_grid
        L = sec.length
        rep, _, check = bs._grid_symmetry(sec, grid.nx, grid.ny)
        domain = rep == np.arange(rep.size).reshape(rep.shape)
        cols = grid.xs[(domain | check).any(axis=1)]
        xx, yy = np.meshgrid(cols, grid.ys[1:-1])
        sweep = bs._return_sweep(sec, xx.ravel(), yy.ravel(), 1e-10, 1e-12,
                                 bs._horizon(sec.model, bs._HORIZON_FACTOR))
        for n in range(0, xx.size, len(cols)):
            j = 1 + n // len(cols)
            x = float(cols[0])
            y1, y2 = sweep.y_events[n]
            x1 = float(sec.footpoint(y1[0:3])[0])
            x2 = float(sec.footpoint(y2[0:3])[0])
            rho_plus = (x1 - x) % L
            rho = rho_plus + (x2 - x1) % L
            assert grid.status[0, j] == bs.STATUS_OK
            assert grid.tau_plus[0, j] == sweep.t_events[n, 0]
            assert grid.tau[0, j] == sweep.t_events[n, 1]
            assert grid.rho_plus[0, j] == rho_plus
            assert grid.X[0, j] == x + rho - L
            assert grid.Y[0, j] == sec.angles_of(np.array([x2]),
                                                 y2[None, 3:6])[0]
            assert grid.jac_angle[0, j] == y2[6]
            assert abs(grid.jac_du[0, j]
                       - math.exp(y2[7]) * math.cos(y2[6])) <= 1e-15
            # every other column is column 0 rotated
            assert np.all(grid.X[:, j] == grid.xs + (x + rho - L - x))
            for k in ("Y", "tau", "tau_plus", "rho_plus", "jac_angle",
                      "jac_du", "status"):
                assert np.all(getattr(grid, k)[:, j]
                              == getattr(grid, k)[0, j])


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


@pytest.fixture(scope="module")
def zoll_equator_grid(zoll_model):
    return bs.compute_return_grid(bs.build_section(zoll_model), nx=32, ny=65)


def _every_node_returns(grid):
    """Every node of the grid integrated: the trivial group, which applies
    no group law."""
    shape = (grid.nx, grid.ny)
    rep = np.arange(grid.nx * grid.ny).reshape(shape)
    none = np.zeros(shape, dtype=bool)
    return bs._symmetric_returns(grid.section, grid.xs, grid.ys, rep, none,
                                 none, 1e-10, 1e-12)


class TestEquatorSymmetry:
    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("name", ["spheroid_grid", "zoll_equator_grid"])
    def test_clairaut_oracle(self, request, name):
        # tau_plus, tau and X - x of every row against Clairaut quadratures;
        # the adaptive rule resolves the advance integrand's peak near the
        # turning points of the rows next to y = pi/2 (orbits passing
        # about 0.017 from the poles), which 64 fixed Gauss nodes miss
        grid = request.getfixturevalue(name)
        L = grid.L
        for j, y in enumerate(grid.ys):
            tau_plus, tau, rho = _clairaut_oracle(grid.section.model, y)
            if 0 < j < grid.ny - 1:
                assert np.max(np.abs(grid.tau_plus[:, j] - tau_plus)) < 1e-9
            assert np.max(np.abs(grid.tau[:, j] - tau)) < 1e-9
            d = grid.X[:, j] - grid.xs - rho
            assert np.max(np.abs(d - L * np.round(d / L))) < 1e-9

    @pytest.mark.parametrize("name", ["round_grid", "spheroid_grid"])
    def test_matches_every_node_integrated(self, request, name):
        # the reference integrates every interior node (the trivial group of
        # every other base), so it also pins the x-invariance of the return
        # map
        grid = request.getfixturevalue(name)
        ref = _every_node_returns(grid)
        assert np.array_equal(grid.status, ref["status"])
        for k in ("X", "Y", "tau", "tau_plus", "rho_plus", "jac_angle",
                  "jac_du"):
            got, want = getattr(grid, k), ref[k]
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.nanmax(np.abs(got - want)) < 1e-10, k

    @pytest.mark.parametrize("field", ["X", "tau", "status"])
    def test_disagreeing_check_column_raises(self, spheroid_section,
                                             monkeypatch, field):
        returns = bs._returns

        def perturbed(section, xs, ys, *args):
            out = returns(section, xs, ys, *args)
            last = xs == xs.max()
            if field == "status":
                out["status"][np.nonzero(last)[0][0]] = bs.STATUS_GRAZING
            else:
                out[field][last] += 1e-6
            return out

        monkeypatch.setattr(bs, "_returns", perturbed)
        with pytest.raises(InternalConsistencyError):
            bs.compute_return_grid(spheroid_section, nx=16, ny=17)

    @pytest.mark.parametrize("base, columns", [("equator", 5),
                                               ("meridian", 13)])
    def test_integrated_columns(self, monkeypatch, base, columns):
        # the equator integrates column 0 and four check columns; the
        # meridian (oblate spheroid) its fundamental domain, 61 interior
        # nodes (columns 0 to 4, the first and last up to row 8), and the
        # 15 interior ones of its 17 seeded check nodes
        nodes = {"equator": 5 * 15, "meridian": 61 + 15}[base]
        model = mm.make_spheroid(0.97)
        orbit = (gd.equator_orbit(model) if base == "equator"
                 else gd.meridian_orbit(model))
        sec = bs.build_section(model, orbit)
        seen = []
        returns = bs._returns

        def spy(section, xs, ys, *args):
            seen.append(xs)
            return returns(section, xs, ys, *args)

        monkeypatch.setattr(bs, "_returns", spy)
        grid = bs.compute_return_grid(sec, nx=16, ny=17)
        xs = np.concatenate(seen)
        assert len(np.unique(xs)) == columns
        assert len(xs) == nodes
        grid.require_clean()


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
    @pytest.mark.parametrize("nx, ny", [(16, 17), (32, 65)])
    def test_matches_every_node_integrated(self, oblate_meridian_section,
                                           nx, ny):
        # the reference integrates every node, so it pins the half turn
        # and the reflection laws on every node the group fills
        sec = oblate_meridian_section
        grid = bs.compute_return_grid(sec, nx=nx, ny=ny)
        ref = _every_node_returns(grid)
        assert np.array_equal(grid.status, ref["status"])
        for k in ("X", "Y", "tau", "tau_plus", "rho_plus", "jac_angle",
                  "jac_du"):
            got, want = getattr(grid, k), ref[k]
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.nanmax(np.abs(got - want)) < 1e-10, k

    @pytest.mark.parametrize("field", ["X", "tau", "status"])
    def test_disagreeing_check_node_raises(self, oblate_meridian_section,
                                           monkeypatch, field):
        # the domain lies in x <= L/4, so every node perturbed is a check
        returns = bs._returns
        L = oblate_meridian_section.length

        def perturbed(section, xs, ys, *args):
            out = returns(section, xs, ys, *args)
            far = xs > 0.3 * L
            assert far.any()
            if field == "status":
                out["status"][np.nonzero(far)[0][0]] = bs.STATUS_GRAZING
            else:
                out[field][far] += 1e-6
            return out

        monkeypatch.setattr(bs, "_returns", perturbed)
        with pytest.raises(InternalConsistencyError):
            bs.compute_return_grid(oblate_meridian_section, nx=16, ny=17)

    def test_check_nodes_refuse_a_surface_not_even_in_z(
            self, oblate_meridian_section, zoll_model):
        # the group of the spheroid's grid, forced on the Zoll meridian,
        # whose b has odd terms: the check nodes see the laws break
        sec = bs.build_section(zoll_model, gd.meridian_orbit(zoll_model))
        xs = np.arange(16) * (sec.length / 16)
        ys = np.linspace(0.0, math.pi, 17)
        group = bs._grid_symmetry(oblate_meridian_section, 16, 17)
        with pytest.raises(InternalConsistencyError):
            bs._symmetric_returns(sec, xs, ys, *group, 1e-10, 1e-12)

    def test_trivial_group_sweeps_every_node(self, monkeypatch, zoll_model):
        # b not even in z: the trivial group, so every interior node is
        # integrated, split evenly into sweeps of at most _SWEEP_ORBITS
        sec = bs.build_section(zoll_model, gd.meridian_orbit(zoll_model))
        rep, flip, check = bs._grid_symmetry(sec, 16, 17)
        assert np.array_equal(rep, np.arange(16 * 17).reshape(16, 17))
        assert not flip.any() and not check.any()
        seen = []
        returns = bs._returns

        def spy(section, xs, ys, *args):
            seen.append(len(xs))
            return returns(section, xs, ys, *args)

        monkeypatch.setattr(bs, "_returns", spy)
        monkeypatch.setattr(bs, "_SWEEP_ORBITS", 100)
        grid = bs.compute_return_grid(sec, nx=16, ny=17)
        assert seen == [80, 80, 80]
        grid.require_clean()

    def test_odd_nx_keeps_the_reflection(self, monkeypatch,
                                         oblate_meridian_section):
        # an odd nx has no half turn, but the reflection maps the columns
        # onto themselves: about half the grid is integrated (113 of the 225
        # interior nodes, plus 15 interior checks), and it matches every
        # node integrated
        sec = oblate_meridian_section
        rep, flip, check = bs._grid_symmetry(sec, 15, 17)
        assert flip.any() and check.sum() == 17
        seen = []
        returns = bs._returns

        def spy(section, xs, ys, *args):
            seen.append(len(xs))
            return returns(section, xs, ys, *args)

        monkeypatch.setattr(bs, "_returns", spy)
        grid = bs.compute_return_grid(sec, nx=15, ny=17)
        monkeypatch.setattr(bs, "_returns", returns)
        assert seen == [128]
        ref = _every_node_returns(grid)
        assert np.array_equal(grid.status, ref["status"])
        for k in ("X", "Y", "tau", "tau_plus", "rho_plus", "jac_angle",
                  "jac_du"):
            got, want = getattr(grid, k), ref[k]
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.nanmax(np.abs(got - want)) < 1e-10, k


class TestLiftAndIdentities:
    def test_round_lift_flux_zero(self, round_grid):
        lift = bs.zero_flux_lift(round_grid)
        assert abs(sc.flux(lift)) < 1e-9

    def test_spheroid_lift_flux_zero(self, spheroid_grid):
        lift = bs.zero_flux_lift(spheroid_grid)
        assert abs(sc.flux(lift)) < 1e-6

    def test_tau_action_identity(self, spheroid_grid):
        lift = bs.zero_flux_lift(spheroid_grid, arc_check_nodes=0)
        act = sc.action(lift)
        assert bs.verify_tau_action_identity(spheroid_grid, lift, act) < 1e-5

    def test_area_identity(self, spheroid_grid, spheroid_model):
        lift = bs.zero_flux_lift(spheroid_grid, arc_check_nodes=0)
        assert bs.verify_area_identity(spheroid_grid, lift,
                                       spheroid_model) < 1e-4

    def test_contact_volume(self, round_grid, round_model):
        # round sphere: tau-weighted annulus area is 2 pi * 4 pi = 8 pi^2
        vol = sc.strip_integral(round_grid.tau, round_grid.xs,
                                round_grid.ys, round_grid.L)
        assert vol == pytest.approx(8 * math.pi ** 2, rel=1e-6)
        assert bs.contact_volume_check(round_grid, round_model) < 1e-4

    def test_action_boundary_identity(self, spheroid_grid):
        lift = bs.zero_flux_lift(spheroid_grid, arc_check_nodes=0)
        act = sc.action(lift)
        assert bs.action_boundary_identity(spheroid_grid, lift, act) < 1e-6

    def test_strongly_oblong_spheroid_breaks_lift_pinning(self):
        # tau at the boundary rows is 2 pi c > 2L for c = 2.5: the advance
        # escapes (0, 2L) and the lift construction must refuse loudly
        model = mm.make_spheroid(2.5)
        sec = bs.build_section(model)
        with pytest.raises(PinchingViolationError):
            bs.compute_return_grid(sec, nx=16, ny=17)

    def test_self_intersection_detector_on_spiral_arc(self):
        # open spiral climbing a cylinder-like surface crosses its mirror
        t = np.linspace(0, 4 * math.pi, 800)
        height = 0.3 * np.sin(t / 2)
        r = np.sqrt(1 - height ** 2)
        pts = np.stack([r * np.cos(t), r * np.sin(t), height], axis=1)
        assert bs.curve_self_intersects(pts, closed=False)
        arc = pts[:150]          # short piece is injective
        assert not bs.curve_self_intersects(arc, closed=False)

    def test_return_arcs_injective_when_pinched(self, spheroid_grid):
        bs.check_return_arc_injectivity(spheroid_grid, n_nodes=6)


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

    def test_return_failure_on_tiny_horizon(self, spheroid_section):
        from birkhofflab.errors import ReturnFailure
        with pytest.raises(ReturnFailure):
            bs.return_data(spheroid_section, 0.5, 1.0, horizon_factor=0.05)


@pytest.fixture(scope="module")
def zoll_grid(zoll_model):
    sec = bs.build_section(zoll_model)
    return bs.compute_return_grid(sec, nx=24, ny=65)


class TestZollGrid:
    def test_return_map_is_identity(self, zoll_grid):
        lift = bs.zero_flux_lift(zoll_grid, arc_check_nodes=0)
        assert lift.sup_distance_to_identity() < 1e-5

    def test_tau_is_common_period(self, zoll_grid):
        assert np.max(np.abs(zoll_grid.tau - TWO_PI)) < 1e-6

    def test_calabi_vanishes(self, zoll_grid, zoll_model):
        lift = bs.zero_flux_lift(zoll_grid, arc_check_nodes=0)
        assert abs(sc.calabi(lift)) < 1e-6
        assert bs.verify_area_identity(zoll_grid, lift, zoll_model) < 1e-4


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
        round_grid.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (round_grid.nx * round_grid.ny, 5)
        assert np.max(np.abs(data[:, 4] - TWO_PI)) < 1e-7
        summary = round_grid.summary(round_model)
        assert summary["nx"] == round_grid.nx
        assert abs(summary["flux"]) < 1e-9
        assert summary["residuals"]["tau_action_max"] < 1e-7
