import contextlib
import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ellipe

from birkhofflab import _integrate
from birkhofflab import birkhoff_section as bs
from birkhofflab import geodesic_dynamics as gd
from birkhofflab import metric_models as mm
from birkhofflab import strip_calculus as sc
from birkhofflab import systolic_audit as sa
from birkhofflab.errors import AuditRefused, PreconditionError

import independent_checks as ic

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def round_report(round_model):
    return sa.audit(round_model, nx=32, ny=64)


@pytest.fixture(scope="module")
def spheroid_report(spheroid_model):
    return sa.audit(spheroid_model, nx=32, ny=64)


class TestCandidates:
    def test_round_single_length_class(self, round_model):
        cands = sa.candidate_closed_geodesics(round_model)
        lengths = {round(c.length, 9) for c in cands}
        assert lengths == {round(TWO_PI, 9)}

    def test_spheroid_equator_and_meridian(self, spheroid_model):
        cands = sa.candidate_closed_geodesics(spheroid_model)
        lengths = sorted(c.length for c in cands)
        assert lengths[0] == pytest.approx(TWO_PI, abs=1e-9)
        oracle = 4.0 * 1.03 * ellipe(1 - 1 / 1.03 ** 2)
        assert lengths[-1] == pytest.approx(oracle, abs=1e-8)
        assert all(c.closure_residual < 1e-10 for c in cands)

    def test_zoll_all_candidates_common_length(self, zoll_model):
        cands = sa.candidate_closed_geodesics(zoll_model)
        for c in cands:
            assert c.length == pytest.approx(TWO_PI, abs=1e-6)

    def test_tiny_spheroid_keeps_both_candidates(self):
        # lengths and Clairaut values scale as sqrt(a) = 1e-8 here, so the
        # equator and the meridian differ by less than absolute slacks of
        # 1e-8 and 1e-6 would resolve; slacks in units of sqrt(a) keep both
        model = mm.from_json({"kind": "rescaled-spheroid", "c": 1.03,
                              "scale": 1e-16})
        cands = sa.candidate_closed_geodesics(model)
        assert [c.label for c in cands] == ["equator", "meridian"]


@contextlib.contextmanager
def _shooting_flows():
    """Counts the integrations made inside ``find_closed_geodesic`` into
    the one-element list it yields."""
    depth, flows = [0], [0]
    shoot, integrate = gd.find_closed_geodesic, gd.integrate_adaptive

    def counted_shoot(*args, **kwargs):
        depth[0] += 1
        try:
            return shoot(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_integrate(*args, **kwargs):
        flows[0] += depth[0] > 0
        return integrate(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gd, "find_closed_geodesic", counted_shoot)
        mp.setattr(gd, "integrate_adaptive", counted_integrate)
        yield flows


def _counted_audit(c):
    """Audit of spheroid ``c`` at 32x65 with the integrations made inside
    ``find_closed_geodesic`` counted."""
    with _shooting_flows() as flows:
        rep = sa.audit(mm.make_spheroid(c), nx=32, ny=65)
    return rep, flows[0]


@pytest.fixture(scope="module")
def prolate_65():
    return _counted_audit(1.03)


@pytest.fixture(scope="module")
def oblate_65():
    return _counted_audit(0.97)


def _branch(rep, calabi_sign):
    return next(b for b in rep.fixed_point["branches"]
                if b["calabi_sign"] is calabi_sign)


class TestFixedPointCandidates:
    def test_prolate_calabi_sign_point_is_the_meridian(self, prolate_65):
        rep, _ = prolate_65
        b = _branch(rep, True)
        assert rep.cal > 0 and b["branch"] == "positive"
        assert b["y"] == pytest.approx(math.pi / 2, abs=1e-7)
        assert b["match"] == "meridian"
        assert b["length"] == pytest.approx(rep.grid.length + b["sigma"],
                                            abs=0)
        assert abs(b["clairaut"]) < 1e-6
        assert [c.label for c in rep.candidates] == ["equator", "meridian"]
        assert not rep.warnings

    def test_oblate_calabi_sign_point_is_the_reversed_equator(self,
                                                              oblate_65):
        # The half turn x -> x + L/2 makes W's two equator crossings tie to
        # rounding; the tie goes to the larger x, the equator traversed
        # backwards.
        rep, _ = oblate_65
        b = _branch(rep, True)
        assert b["match"] == "equator"
        assert b["x"] == pytest.approx(rep.grid.length / 2, abs=1e-3)
        assert b["clairaut"] == pytest.approx(-1.0, abs=1e-9)
        assert b["length"] == pytest.approx(TWO_PI, abs=1e-7)

    def test_oblate_mirrored_branch_adds_nothing(self, oblate_65):
        # The mirrored branch would sit on the circle of zero-action fixed
        # points over the pole; at 32x65 W takes the negative sign there
        # only at rounding level, far below the noise floor of predicted
        # lengths, so the branch is refused before any fixed point is
        # located or shot.
        rep, flows = oblate_65
        b = _branch(rep, False)
        assert b["branch"] == "negative"
        floor = sa._LENGTH_MATCH_FACTOR * rep.residuals["tau_action_max"]
        assert b["match"] == ("refused: W takes no negative value inside "
                              f"the strip beyond the noise floor {floor:.3g}")
        assert b["x"] is None and b["sigma"] is None
        assert flows == 1
        assert [c.label for c in rep.candidates] == ["equator", "meridian"]
        assert not rep.warnings

    def test_unmatched_prediction_is_shot(self, prolate_65,
                                          spheroid_model):
        rep, _ = prolate_65
        cands = sa.candidate_closed_geodesics(spheroid_model)[:1]
        warnings = []
        with _shooting_flows() as flows:
            block = sa._fixed_point_candidates(
                cands, spheroid_model, rep.grid, rep.cal,
                rep.residuals["tau_action_max"], warnings)
        # one 3-row flow per Gauss-Newton step, the seed's own the first
        assert flows[0] <= 6
        b = _branch(rep, True)
        assert block["branches"][0]["match"] == cands[1].label \
            == f"fixed-point({b['x']:.3f},{b['y']:.3f})"
        oracle = 4.0 * 1.03 * ellipe(1 - 1 / 1.03 ** 2)
        assert cands[1].length == pytest.approx(oracle, abs=1e-9)
        assert cands[1].simple and cands[1].primitive
        assert not warnings

    def test_pole_candidate_is_unverified(self, oblate_65, monkeypatch):
        # Every annulus vector over the pole (x = 3L/4 on the meridian
        # base) is a fixed point of zero action; its state has no chart
        # direction, so it cannot be shot.
        rep, _ = oblate_65
        model = rep.grid.section.model
        monkeypatch.setattr(
            sa.sc, "fixed_point_with_signed_action",
            lambda lift, gen, branch: ((0.75 * lift.length, 1.0), 0.0))
        cands = [c for c in sa.candidate_closed_geodesics(model)
                 if c.label == "equator"]
        warnings = []
        block = sa._fixed_point_candidates(
            cands, model, rep.grid, rep.cal,
            rep.residuals["tau_action_max"], warnings)
        b = block["branches"][0]
        assert b["match"].startswith("unverified: ")
        assert "pole" in b["match"]
        assert any("unverified" in w for w in warnings)
        assert [c.label for c in cands] == ["equator"]

    def test_non_monotone_map_adds_no_candidate(self, prolate_65,
                                                 spheroid_model,
                                                 monkeypatch):
        rep, _ = prolate_65

        def refuse(lift):
            raise PreconditionError("generating function requires a "
                                    "monotone map (D2 Y > 0)")

        monkeypatch.setattr(sa.sc, "generating_from_map", refuse)
        cands = sa.candidate_closed_geodesics(spheroid_model)
        warnings = []
        block = sa._fixed_point_candidates(
            cands, spheroid_model, rep.grid, rep.cal,
            rep.residuals["tau_action_max"], warnings)
        assert block["branches"] == []
        assert "monotone" in block["refused"]
        assert warnings == ["no fixed-point candidates: generating "
                            "function requires a monotone map (D2 Y > 0)"]
        assert len(cands) == 2

    def test_column_without_inverse_refuses_the_block(self):
        # A lift with a repeated node passes the D2 Y check; the error
        # raised for its column is caught, so the audit records the
        # refusal instead of ending.
        base = ic.identity_map()
        Y = base.Y.copy()
        Y[0, 50] = Y[0, 49]
        lift = sc.StripMapGrid(length=base.length, xs=base.xs, ys=base.ys,
                               X=base.X, Y=Y)
        warnings = []
        block = sa._fixed_point_candidates([], None, lift, 0.0, 1e-9,
                                           warnings)
        assert block["branches"] == []
        assert block["refused"].startswith("column 0 of the map is not")
        assert warnings == [f"no fixed-point candidates: {block['refused']}"]

    def test_identity_map_runs_no_theorem(self, round_report):
        fp = round_report.fixed_point
        assert fp["branches"] == [] and fp["refused"]
        assert round_report.to_dict()["fixed_point"] is fp

    @pytest.mark.parametrize("audit", ["prolate_65", "oblate_65"])
    def test_lift_does_not_write_into_the_grid(self, audit, request):
        # the zero-flux lift is the return grid itself, so the strip
        # calculus shares its xs, ys, X and Y: on read-only copies of them
        # the lift numbers and the fixed-point block are the audit's
        rep, _ = request.getfixturevalue(audit)
        arrays = {k: getattr(rep.grid, k).copy() for k in ("xs", "ys", "X",
                                                            "Y")}
        for a in arrays.values():
            a.setflags(write=False)
        grid = dataclasses.replace(rep.grid, **arrays)
        numbers = bs.lift_numbers(grid, rep.area)
        assert numbers["cal"] == rep.cal
        assert numbers["residuals"].items() <= rep.residuals.items()
        model = grid.section.model
        warnings = []
        block = sa._fixed_point_candidates(
            sa.candidate_closed_geodesics(model), model, grid,
            numbers["cal"], numbers["residuals"]["tau_action_max"], warnings)
        assert block == rep.fixed_point
        assert warnings == rep.warnings == []

    @pytest.mark.parametrize("audit", ["prolate_65", "oblate_65"])
    def test_one_shooting_flow_per_audit(self, audit, request):
        # one stored flow for both exact symmetric orbits, none for the
        # fixed points, which match them
        _, flows = request.getfixturevalue(audit)
        assert flows == 1


class TestSimplicity:
    def test_equator_simple(self, spheroid_model):
        assert sa.simplicity_check(gd.equator_orbit(spheroid_model))

    def test_meridian_simple(self, spheroid_model):
        assert sa.simplicity_check(gd.meridian_orbit(spheroid_model))

    def test_doubled_cover_excluded(self, spheroid_model):
        base = gd.equator_orbit(spheroid_model)
        doubled = gd.ClosedOrbit(spheroid_model, 2 * base.length,
                                 np.vstack([base.states, base.states]),
                                 base.closure_residual)
        assert bs.minimal_period_fold(doubled) == 2
        assert not sa.simplicity_check(doubled)

    def test_open_orbit_refused(self, spheroid_model):
        orbit = gd.equator_orbit(spheroid_model)
        orbit.closure_residual = 1e-3
        with pytest.raises(PreconditionError, match="not closed"):
            sa.simplicity_check(orbit)


class TestAuditRound:
    def test_passes_with_equalities(self, round_report):
        rep = round_report
        assert rep.passed
        assert rep.verdicts["zoll_flag"]
        assert rep.verdicts["zoll_equalities"]
        assert rep.rho_sys == pytest.approx(math.pi, rel=1e-9)
        assert rep.l_min == pytest.approx(TWO_PI, rel=1e-10)
        assert rep.l_max_simple == pytest.approx(TWO_PI, rel=1e-10)

    def test_invariants(self, round_report):
        assert abs(round_report.flux) < 1e-8
        assert abs(round_report.cal) < 1e-8
        assert round_report.delta == pytest.approx(1.0)
        assert not round_report.warnings


class TestAuditSpheroid:
    def test_strict_inequalities(self, spheroid_report):
        rep = spheroid_report
        assert rep.passed
        assert not rep.verdicts["zoll_flag"]
        target = math.pi * rep.area
        assert rep.l_min ** 2 < target
        assert rep.l_max_simple ** 2 > target
        assert rep.residuals["lower_margin"] > 1e-3
        assert rep.residuals["upper_margin"] > 1e-3

    def test_monotone_guaranteed_regime(self, spheroid_report):
        assert spheroid_report.verdicts["monotone_guaranteed"]
        assert spheroid_report.verdicts["monotone"]

    def test_identity_residuals_within_tolerances(self, spheroid_report):
        res = spheroid_report.residuals
        assert res["tau_action_max"] < 1e-5
        assert res["area_identity_rel"] < 1e-4
        assert res["contact_volume_rel"] < 1e-4
        assert res["flux_abs"] < 1e-6

    def test_klingenberg_bound_on_candidates(self, spheroid_report,
                                             spheroid_model):
        _, kmax = mm.curvature_extremes(spheroid_model)
        bound = TWO_PI / math.sqrt(kmax)
        for c in spheroid_report.candidates:
            assert c.length >= bound - 1e-6

    def test_report_serialises(self, spheroid_report):
        doc = spheroid_report.to_dict()
        assert doc["passed"]
        assert isinstance(doc["candidates"], list)


class TestAuditOblate:
    def test_meridian_base(self):
        # c < 1: the meridian is the shortest symmetry orbit and carries the
        # section, whose return map depends on x as well as y
        c = 0.97
        rep = sa.audit(mm.make_spheroid(c), nx=32, ny=65)
        meridian = 4.0 * ellipe(1 - c ** 2)
        assert rep.passed
        assert rep.section_length == pytest.approx(meridian, abs=1e-9)
        assert rep.l_min == pytest.approx(meridian, abs=1e-9)
        assert rep.l_max_simple == pytest.approx(TWO_PI, abs=1e-9)
        assert rep.residuals["tau_action_max"] < 1e-5
        assert rep.residuals["area_identity_rel"] < 1e-4


class TestRefusal:
    def test_fat_spheroid_refused(self):
        with pytest.raises(AuditRefused):
            sa.audit(mm.make_spheroid(1.5), nx=16, ny=16)

    def test_refusal_reason_mentions_pinching(self):
        try:
            sa.audit(mm.make_spheroid(1.5), nx=16, ny=16)
        except AuditRefused as exc:
            assert "pinching" in str(exc)

    def test_coarse_ny_refused_before_integrating(self, spheroid_model,
                                                  monkeypatch):
        def integrate(*args, **kwargs):
            raise AssertionError("integrated before the ny refusal")

        # every integration runs through one of these bindings (the return
        # sweep's through _integrate)
        for module in (gd, _integrate):
            monkeypatch.setattr(module, "integrate_adaptive", integrate)
        with pytest.raises(PreconditionError, match="ny >= 64"):
            sa.audit(spheroid_model, nx=16, ny=48)


class TestEqualityImpliesIdentityMap:
    def test_round_equalities_have_identity_map(self, round_report):
        res = round_report.residuals
        near_low = abs(round_report.l_min ** 2
                       - math.pi * round_report.area) < 1e-6 * round_report.area
        assert near_low
        assert res["sup_distance_to_identity"] < 1e-4

    def test_spheroid_without_equalities(self, spheroid_report):
        # contrapositive direction: map far from identity, margins positive
        assert spheroid_report.residuals["sup_distance_to_identity"] > 1e-3
        assert spheroid_report.residuals["lower_margin"] > 0
        assert spheroid_report.residuals["upper_margin"] > 0


class TestTwoGon:
    def test_round_sharp(self, round_grid, round_model):
        out = sa.two_gon_perimeter_check(round_model, round_grid)
        assert out["passed"]
        assert out["violations"] == 0
        assert out["worst_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_spheroid_no_violations(self, spheroid_grid, spheroid_model):
        out = sa.two_gon_perimeter_check(spheroid_model, spheroid_grid)
        assert out["passed"]
        assert out["violations"] == 0
        assert out["samples"] >= 500

    def test_runs_even_below_lift_threshold(self):
        # the perimeter bound needs only K >= H > 0, not the lift pinching
        model = mm.make_spheroid(1.5)
        sec = bs.build_section(model)
        grid = bs.compute_return_grid(sec, nx=16, ny=33)
        out = sa.two_gon_perimeter_check(model, grid)
        assert out["passed"]
