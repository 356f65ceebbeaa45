import math

import numpy as np
import pytest

from birkhofflab import birkhoff_section as bs
from birkhofflab import geodesic_dynamics as gd
from birkhofflab import metric_models as mm
from birkhofflab import strip_calculus as sc
from birkhofflab.errors import (PinchingViolationError, SectionInvalidError)

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
        # revolution symmetry: columns of tau and Y do not depend on x
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
        # re-run the first interior row batch and assemble it node by node
        sec, grid = spheroid_section, spheroid_grid
        L = sec.length
        xx, yy = np.meshgrid(grid.xs, grid.ys[1:1 + bs._ROW_BATCH])
        sweep = bs._return_sweep(sec, xx.ravel(), yy.ravel(), 1e-10, 1e-12,
                                 bs._horizon(sec.model, bs._HORIZON_FACTOR))
        for n in range(xx.size):
            j, k = 1 + n // grid.nx, n % grid.nx
            x = float(grid.xs[k])
            y1, y2 = sweep.y_events[n]
            x1 = float(sec.footpoint(y1[0:3])[0])
            x2 = float(sec.footpoint(y2[0:3])[0])
            rho_plus = (x1 - x) % L
            rho = rho_plus + (x2 - x1) % L
            assert grid.status[k, j] == bs.STATUS_OK
            assert grid.tau_plus[k, j] == sweep.t_events[n, 0]
            assert grid.tau[k, j] == sweep.t_events[n, 1]
            assert grid.rho_plus[k, j] == rho_plus
            assert grid.X[k, j] == x + rho - L
            assert grid.Y[k, j] == sec.angles_of(np.array([x2]),
                                                 y2[None, 3:6])[0]
            assert grid.jac_angle[k, j] == y2[6]
            assert abs(grid.jac_du[k, j]
                       - math.exp(y2[7]) * math.cos(y2[6])) <= 1e-15


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
