"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``.

All tolerances are pinned here; the heavy reports are computed once per
session and shared across criteria.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from birkhofflab import birkhoff_section as bs
from birkhofflab import cli
from birkhofflab import geodesic_dynamics as gd
from birkhofflab import metric_models as mm
from birkhofflab import strip_calculus as sc
from birkhofflab import systolic_audit as sa
from birkhofflab.errors import InternalConsistencyError, NonIntegrableFormError

import independent_checks as ic

TWO_PI = 2 * math.pi
PI = math.pi


@contextmanager
def criterion(n, label):
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {n}: {label}")
        raise
    print(f"\n[PASS] criterion {n}: {label}")


def _timed_audit(model, **kw):
    t0 = time.perf_counter()
    rep = sa.audit(model, **kw)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def round_audit():
    return _timed_audit(mm.make_round(1.0), nx=96, ny=96)


@pytest.fixture(scope="module")
def spheroid_audit():
    return _timed_audit(mm.make_spheroid(1.03), nx=96, ny=96)


@pytest.fixture(scope="module")
def zoll_audits():
    out = {}
    for eps in (0.05, 0.1):
        model = mm.make_zoll([eps, 0.0, -eps])
        out[eps] = _timed_audit(model, nx=96, ny=96)
    return out


def test_criterion_1_round_sphere(round_audit):
    rep, seconds = round_audit
    with criterion(1, f"round sphere exact data ({seconds:.1f}s)"):
        assert abs(rep.area - 4 * PI) / (4 * PI) < 1e-10
        assert abs(rep.l_min - TWO_PI) / TWO_PI < 1e-9
        assert abs(rep.l_max_simple - TWO_PI) / TWO_PI < 1e-9
        assert abs(rep.rho_sys - PI) / PI < 1e-9
        assert rep.residuals["sup_distance_to_identity"] < 1e-8
        assert abs(rep.flux) < 1e-8
        assert abs(rep.cal) < 1e-8
        grid = rep.grid
        assert grid.nx == 96 and grid.ny == 96
        assert np.max(np.abs(grid.tau - TWO_PI)) < 1e-7
        assert seconds < 30.0


def test_criterion_2_zoll_family(zoll_audits):
    for eps, (rep, seconds) in zoll_audits.items():
        with criterion(2, f"Zoll profile eps={eps} ({seconds:.1f}s)"):
            target = PI * rep.area
            assert abs(rep.area - 4 * PI) / (4 * PI) < 1e-6
            assert rep.residuals["contact_volume_rel"] < 1e-4
            vol = sc.strip_integral(rep.grid.tau, rep.grid.xs, rep.grid.ys,
                                    rep.grid.length)
            assert abs(vol - 8 * PI ** 2) / (8 * PI ** 2) < 1e-4
            assert rep.residuals["sup_distance_to_identity"] < 1e-5
            assert rep.verdicts["zoll_flag"]
            assert abs(rep.l_min ** 2 - target) / target < 1e-5
            assert abs(rep.l_max_simple ** 2 - target) / target < 1e-5
            assert seconds < 180.0


def test_criterion_3_spheroid_identities(spheroid_audit):
    rep, seconds = spheroid_audit
    with criterion(3, f"prolate spheroid c=1.03 ({seconds:.1f}s)"):
        assert rep.delta == pytest.approx(1.03 ** -4, abs=1e-8)
        assert rep.delta > (4 + math.sqrt(7)) / 8
        mono = bs.monotonicity_check(rep.grid)
        assert mono.min_d2Y_fd > 0
        assert mono.min_d2Y_jacobi > 0
        assert mono.max_discrepancy < 1e-4
        assert rep.residuals["flux_abs"] < 1e-6
        assert rep.residuals["tau_action_max"] < 1e-5
        assert rep.residuals["area_identity_rel"] < 1e-4
        target = PI * rep.area
        assert 4 * PI ** 2 < target < rep.l_max_simple ** 2
        assert rep.residuals["lower_margin"] > 0
        assert rep.residuals["upper_margin"] > 0
        assert seconds < 180.0


def test_criterion_4_jacobi_angle_window():
    model = mm.make_spheroid(1.03)
    kmin, kmax = mm.curvature_extremes(model)
    delta = kmin / kmax
    normalised = model.rescale(kmax)
    with criterion(4, "Jacobi angle window on the normalised spheroid"):
        sec = bs.build_section(normalised)
        grid = bs.compute_return_grid(sec, nx=64, ny=64)
        win = bs.jacobi_angle_window(grid, delta)
        lo = delta * (4 * PI - TWO_PI / math.sqrt(delta))
        hi = 4 * PI / math.sqrt(delta) - TWO_PI
        assert win["lower"] == pytest.approx(lo)
        assert win["upper"] == pytest.approx(hi)
        assert win["inside"]
        assert win["cos_positive"]


def test_criterion_5_strip_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    with criterion(5, "strip-calculus property suite (100 maps)"):
        for k in range(100):
            net_flux = 0.0 if k % 2 == 0 else rng.uniform(-0.05, 0.05)
            gen = sc.random_generating_grid(rng, net_flux=net_flux)
            grid = sc.build_from_generating(gen)
            back = sc.generating_from_map(grid)
            assert np.max(np.abs(back.w - gen.w)) < 1e-6
            f_area = sc.flux(grid)
            f_path = sc.flux_boundary_path(grid)
            assert abs(f_area - f_path) < 1e-6
            lo, hi = back.boundary_values()
            assert abs((hi - lo) - 2 * f_area) < 1e-6
            if net_flux == 0.0 and grid.sup_distance_to_identity() > 1e-6:
                cal = sc.calabi(grid)
                _, sigma = sc.fixed_point_with_signed_action(grid, gen)
                if cal <= 0:
                    assert sigma < 0
                else:
                    assert sigma > 0
                branch = "positive" if cal <= 0 else "negative"
                # the mirrored extremum is interior only where W takes
                # that sign
                interior = gen.w[:, 1:-1]
                takes_sign = (interior.max() > 0 if cal <= 0
                              else interior.min() < 0)
                if takes_sign:
                    _, sigma2 = sc.fixed_point_with_signed_action(
                        grid, gen, branch=branch)
                    assert (sigma2 > 0) if cal <= 0 else (sigma2 < 0)
                else:
                    with pytest.raises(InternalConsistencyError):
                        sc.fixed_point_with_signed_action(grid, gen,
                                                          branch=branch)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"


def test_criterion_6_two_gon_bound(round_audit, spheroid_audit):
    round_rep, _ = round_audit
    sph_rep, _ = spheroid_audit
    with criterion(6, "two-gon perimeter bound"):
        out_round = sa.two_gon_perimeter_check(mm.make_round(1.0),
                                               round_rep.grid)
        assert abs(out_round["worst_ratio"] - 1.0) < 1e-9
        out_sph = sa.two_gon_perimeter_check(mm.make_spheroid(1.03),
                                             sph_rep.grid)
        assert out_sph["samples"] >= 500
        assert out_sph["violations"] == 0
        assert out_sph["passed"]


def test_criterion_7_refusal_paths(capsys):
    with criterion(7, "refusal and rejection paths"):
        code = cli.main(["systolic-verify", "--metric",
                         '{"kind": "spheroid", "c": 1.5}',
                         "--nx", "16", "--ny", "16"])
        capsys.readouterr()
        assert code == 3
        base = ic.identity_map(nx=48, ny=48)
        bad = sc.StripMapGrid(length=base.length, xs=base.xs, ys=base.ys,
                              X=base.X, Y=base.Y + 0.2 * np.sin(base.Y))
        with pytest.raises(NonIntegrableFormError):
            sc.action(bad)
