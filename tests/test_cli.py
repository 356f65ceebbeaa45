import argparse
import contextlib
import functools
import io
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from birkhofflab import cli
from birkhofflab import systolic_audit as sa
from birkhofflab.errors import (BirkhofflabError, ComputationError,
                                IntegrationFailure, InternalConsistencyError,
                                NoConvergenceError, NonIntegrableFormError,
                                NotGeneratingError, RefusedError,
                                ReturnFailure, SectionInvalidError,
                                UsageError)

ROUND = '{"kind": "round", "radius": 1.0}'
SPHEROID = '{"kind": "spheroid", "c": 1.03}'
OBLATE = '{"kind": "spheroid", "c": 0.97}'
FAT = '{"kind": "spheroid", "c": 1.5}'
ZOLL = '{"kind": "zoll", "h_coeffs": [0.05, 0, -0.05]}'


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def standing_flow(calls):
    """A stand-in for ``integrate_geodesic`` that records the number of
    states and ``t_end`` of each call and returns the launch states at
    every time at once."""
    def integrate(model, states, t_end, times, tol):
        calls.append((len(states), t_end))
        y0 = [np.concatenate(cli.gd.state_to_ambient(model, s))
              for s in states]
        return np.tile(y0, (len(times), 1, 1))

    return integrate


class TestMetricInfo:
    def test_round(self, capsys):
        code, out, _ = run(capsys, "metric-info", "--metric", ROUND)
        assert code == 0
        doc = json.loads(out)
        assert doc["area"] == pytest.approx(4 * math.pi)
        assert doc["delta"] == pytest.approx(1.0)

    def test_spheroid_delta(self, capsys):
        code, out, _ = run(capsys, "metric-info", "--metric", SPHEROID)
        doc = json.loads(out)
        assert doc["delta"] == pytest.approx(1.03 ** -4, abs=1e-9)

    def test_malformed_json_exits_2(self, capsys):
        code, _, err = run(capsys, "metric-info", "--metric", '{"kind": ')
        assert code == 2
        assert err

    def test_unknown_kind_exits_2(self, capsys):
        code, _, err = run(capsys, "metric-info", "--metric",
                           '{"kind": "torus"}')
        assert code == 2

    @pytest.mark.parametrize("doc", [
        '{"kind": "spheroid", "c": [1]}',
        '{"kind": "round", "radius": null}',
        '{"kind": "rescaled-round", "scale": [2]}',
        '{"kind": "spheroid", "c": 1e308}',
    ])
    def test_malformed_parameter_exits_2(self, capsys, doc):
        code, _, err = run(capsys, "metric-info", "--metric", doc)
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("doc, key", [
        ('{"kind": "spheroid"}', "c"),
        ('{"kind": "zoll"}', "h_coeffs"),
        ('{"kind": "rescaled-round", "radius": 2}', "scale"),
        ('{"kind": "rescaled-spheroid", "scale": 2}', "c"),
    ])
    def test_missing_parameter_named(self, capsys, doc, key):
        code, out, err = run(capsys, "metric-info", "--metric", doc)
        kind = json.loads(doc)["kind"]
        assert code == 2
        assert out == ""
        assert err == f"error: metric kind '{kind}' needs a '{key}'\n"

    @pytest.mark.parametrize("doc, key", [
        ('{"kind": "round", "radus": 2}', "radus"),
        ('{"kind": "spheroid", "c": 1.03, "scale": 4}', "scale"),
        ('{"kind": "rescaled-round", "scale": 2, "c": 1.1}', "c"),
    ])
    def test_unknown_parameter_named(self, capsys, doc, key):
        # a misspelt or foreign key is refused, not dropped
        code, out, err = run(capsys, "metric-info", "--metric", doc)
        kind = json.loads(doc)["kind"]
        assert code == 2
        assert out == ""
        assert err == f"error: metric kind '{kind}' has no parameter '{key}'\n"

    @pytest.mark.parametrize("doc, bound", [
        (ROUND, pytest.approx(math.pi)),
        ('{"kind": "round", "radius": 2.0}',
         pytest.approx(2 * math.pi, rel=1e-10)),
        (SPHEROID, pytest.approx(math.pi / 1.03, rel=1e-10)),
    ], ids=["round", "round_radius", "spheroid"])
    def test_injectivity_bound(self, capsys, doc, bound):
        code, out, _ = run(capsys, "metric-info", "--metric", doc)
        assert code == 0
        assert json.loads(out)["injectivity_radius_lower_bound"] == bound

    @pytest.mark.parametrize("c", [0.02, 30])
    def test_undecayed_profile_series_exits_4(self, capsys, c):
        # the area's Fourier series has not decayed at 1,024 samples
        code, out, err = run(capsys, "metric-info", "--metric",
                             f'{{"kind": "spheroid", "c": {c}}}')
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not decayed" in err and "Traceback" not in err

    def test_missing_metric_exits_2(self, capsys):
        code, _, _ = run(capsys, "metric-info")
        assert code == 2

    def test_metric_from_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(SPHEROID)
        code, out, _ = run(capsys, "metric-info", "--metric", str(path))
        assert code == 0
        assert json.loads(out)["metric"]["c"] == 1.03


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        code1, out1, _ = run(capsys, "strip-report", "--seed", "9",
                             "--nx", "48", "--ny", "96")
        code2, out2, _ = run(capsys, "strip-report", "--seed", "9",
                             "--nx", "48", "--ny", "96")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_keys_sorted(self, capsys):
        _, out, _ = run(capsys, "metric-info", "--metric", ROUND)
        keys = [line.split('"')[1] for line in out.splitlines()
                if line.startswith('  "')]
        assert keys == sorted(keys)

    def test_float_format_17g(self):
        assert cli.dumps(math.pi) == "3.1415926535897931"


class TestTrace:
    def test_csv_columns(self, capsys, tmp_path):
        out_path = tmp_path / "orbit.csv"
        code, _, _ = run(capsys, "trace", "--metric", SPHEROID,
                         "--start", "1.2,0.0,0.5", "--t-end", "3.0",
                         "--samples", "50", "--out", str(out_path))
        assert code == 0
        rows = out_path.read_text().splitlines()
        assert rows[0] == "t,theta,phi,dir1,dir2"
        assert len(rows) == 51

    def test_bad_start_exits_2(self, capsys):
        code, _, _ = run(capsys, "trace", "--metric", SPHEROID,
                         "--start", "nope")
        assert code == 2

    @pytest.mark.parametrize("t_end", ["nan", "inf", "-1"])
    def test_t_end_not_finite_and_positive_exits_2(self, capsys,
                                                   monkeypatch, t_end):
        # refused before any integration starts (an infinite span would
        # never end)
        def integrate(*args, **kwargs):
            raise AssertionError("integration started")

        monkeypatch.setattr(cli.gd, "integrate_adaptive", integrate)
        code, _, err = run(capsys, "trace", "--metric", SPHEROID,
                           "--t-end", t_end)
        assert code == 2
        assert "t_end must be finite and positive" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("metric, below, above", [
        (ROUND, "628.3", "628.4"),
        ('{"kind": "round", "radius": 2}', "1256.6", "1256.7"),
    ], ids=["radius-1", "radius-2"])
    def test_t_end_above_100_equator_lengths_exits_2(self, capsys,
                                                     monkeypatch, metric,
                                                     below, above):
        # refused before any integration starts
        calls = []
        monkeypatch.setattr(cli.gd, "integrate_geodesic",
                            standing_flow(calls))
        code, out, _ = run(capsys, "trace", "--metric", metric,
                           "--t-end", below, "--samples", "3")
        assert code == 0 and len(out.splitlines()) == 4
        for t_end in (above, "1e7"):
            code, out, err = run(capsys, "trace", "--metric", metric,
                                 "--t-end", t_end, "--samples", "3")
            assert code == 2 and out == ""
            assert "100 equator lengths" in err
        assert calls == [(1, float(below))]

    @pytest.mark.parametrize("t_end", ["1e-20", "1e-300"])
    def test_t_end_below_rounding_exits_0(self, capsys, t_end):
        # a span shorter than the stepper's rounding floor is one step
        code, out, err = run(capsys, "trace", "--metric", ROUND,
                             "--t-end", t_end, "--samples", "2")
        assert code == 0 and err == ""
        rows = out.splitlines()
        assert len(rows) == 3 and rows[2].startswith(t_end + ",")

    @pytest.mark.parametrize("command", ["trace", "zoll-check"])
    def test_samples_above_the_bound_exit_2(self, capsys, monkeypatch,
                                            command):
        # refused before any integration starts; the largest count is taken
        calls = []
        monkeypatch.setattr(cli.gd, "integrate_geodesic",
                            standing_flow(calls))
        top = str(cli.MAX_SAMPLES)
        code, out, err = run(capsys, command, "--metric", ROUND,
                             "--samples", str(cli.MAX_SAMPLES + 1))
        assert code == 2 and out == ""
        assert err == f"error: --samples must be at most {top}\n"
        code, _, _ = run(capsys, command, "--metric", ROUND,
                         "--samples", "1000000000000")
        assert code == 2 and calls == []
        code, _, _ = run(capsys, command, "--metric", ROUND, "--samples", top)
        assert code == 0 and len(calls) == 1

    @pytest.mark.parametrize("start", ["1,0,nan", "nan,0,0.7", "1,inf,0.7"])
    def test_non_finite_start_exits_2(self, capsys, monkeypatch, start):
        # refused before any integration starts: a NaN launch angle makes
        # every step size NaN
        def integrate(*args, **kwargs):
            raise AssertionError("integration started")

        monkeypatch.setattr(cli.gd, "integrate_adaptive", integrate)
        code, out, err = run(capsys, "trace", "--metric", ROUND,
                             "--start", start)
        assert code == 2
        assert out == ""
        assert "--start components must be finite" in err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exits_2(self, capsys, monkeypatch, samples):
        # an empty trace is refused before anything is integrated
        def integrate(*args, **kwargs):
            raise AssertionError("integration started")

        monkeypatch.setattr(cli.gd, "integrate_adaptive", integrate)
        code, out, err = run(capsys, "trace", "--metric", SPHEROID,
                             "--samples", samples)
        assert code == 2
        assert out == ""
        assert "--samples must be at least 1" in err


class TestStripReport:
    def test_minus_sin2_preset(self, capsys):
        code, out, _ = run(capsys, "strip-report", "--w-preset", "minus-sin2",
                           "--eps", "0.02", "--nx", "32", "--ny", "96")
        assert code == 0
        doc = json.loads(out)
        assert doc["cal"] == pytest.approx(-0.02 * 4 / 3, abs=1e-6)
        assert doc["fixed_points"][0]["y"] == pytest.approx(math.pi / 2,
                                                            abs=1e-6)
        assert doc["fixed_points"][0]["sigma"] == pytest.approx(-0.02,
                                                                abs=1e-6)

    def test_zero_preset_all_zero(self, capsys):
        code, out, _ = run(capsys, "strip-report", "--w-preset", "zero",
                           "--nx", "32", "--ny", "96")
        doc = json.loads(out)
        assert doc["flux"] == 0.0
        assert doc["cal"] == 0.0
        assert doc["fixed_points"] == []

    @pytest.mark.parametrize("preset", ["x-sine", "random"])
    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_eps_not_finite_exits_2(self, capsys, monkeypatch, preset, eps):
        # refused before a map is built (x-sine failed inside scipy, and
        # random ignored eps and wrote a report holding NaN)
        def build(*args, **kwargs):
            raise AssertionError("map built")

        monkeypatch.setattr(cli.sc, "build_from_generating", build)
        code, out, err = run(capsys, "strip-report", "--w-preset", preset,
                             "--eps", eps, "--nx", "32", "--ny", "32")
        assert code == 2
        assert out == ""
        assert "--eps must be finite" in err

    @pytest.mark.parametrize("nx, ny, option", [
        (16, 17, "--nx"), (16, 32, "--nx"), (32, 32, "--nx"),
        (16, 64, "--nx"), (48, 32, "--ny")])
    def test_random_preset_on_a_coarse_grid_exits_2(self, capsys,
                                                     monkeypatch, nx, ny,
                                                     option):
        # refused before a map is built: the D2 W boundary check (16 x 17)
        # or the fixed-point check (the others) failed on these grids
        def build(*args, **kwargs):
            raise AssertionError("map built")

        monkeypatch.setattr(cli.sc, "build_from_generating", build)
        code, out, err = run(capsys, "strip-report", "--nx", str(nx),
                             "--ny", str(ny))
        assert code == 2
        assert out == ""
        assert err == (f"error: {option} must be at least 48 with "
                       "--w-preset random\n")

    def test_random_preset_at_the_smallest_grid(self, capsys):
        code, out, _ = run(capsys, "strip-report", "--nx", "48", "--ny", "48")
        assert code == 0
        assert json.loads(out)["source"]["preset"] == "random"

    @pytest.mark.parametrize("preset", ["minus-sin2", "x-sine"])
    @pytest.mark.parametrize("ny", [20, 21])
    def test_sin2_presets_need_21_rows(self, capsys, preset, ny):
        # below 21 rows the map builder refuses W (exit 3, "D2 W must
        # vanish on the boundary rows"), so the option is refused first
        code, out, err = run(capsys, "strip-report", "--w-preset", preset,
                             "--nx", "16", "--ny", str(ny))
        if ny < cli.SIN2_MIN_NY:
            assert code == 2
            assert out == ""
            assert err == (f"error: --ny must be at least 21 with "
                           f"--w-preset {preset}\n")
        else:
            assert code == 0
            assert json.loads(out)["source"]["preset"] == preset

    def test_x_sine_preset_zero_calabi(self, capsys):
        code, out, _ = run(capsys, "strip-report", "--w-preset", "x-sine",
                           "--eps", "0.01", "--nx", "48", "--ny", "96")
        doc = json.loads(out)
        assert abs(doc["cal"]) < 1e-6
        assert abs(doc["flux"] - doc["flux_boundary_path"]) < 1e-6

    def test_fixed_point_takes_the_sign_of_the_reported_calabi(self, capsys):
        # on this grid cal is -3.3e-17: the point is the minimum of W at
        # (3 pi / 2, pi / 2), sigma = -eps, as the printed sign demands
        code, out, _ = run(capsys, "strip-report", "--w-preset", "x-sine",
                           "--nx", "16", "--ny", "21")
        doc = json.loads(out)
        assert code == 0 and doc["cal"] <= 0.0
        (point,) = doc["fixed_points"]
        assert point["sigma"] <= 0.0
        assert point["x"] == pytest.approx(1.5 * math.pi, abs=1e-9)
        assert point["y"] == pytest.approx(0.5 * math.pi, abs=1e-9)


class TestVerdictCommands:
    def test_systolic_verify_round_passes(self, capsys):
        code, out, _ = run(capsys, "systolic-verify", "--metric", ROUND,
                           "--nx", "24", "--ny", "64")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["verdicts"]["zoll_flag"] is True

    @pytest.mark.parametrize("radius, tol", [(1e-3, "1e-10"), (1e3, "1e-10"),
                                             (1e-3, "1e-6"), (1e3, "1e-6"),
                                             (1e-6, "1e-10"), (1e-8, "1e-10")])
    def test_systolic_verify_round_passes_at_any_scale(self, capsys, radius,
                                                       tol):
        # every radius is audited as the unit sphere
        code, _, err = run(capsys, "systolic-verify", "--metric",
                           json.dumps({"kind": "round", "radius": radius}),
                           "--nx", "16", "--ny", "64", "--tol-int", tol)
        assert code == 0, err

    def test_systolic_verify_rescaled_spheroid_keeps_its_verdicts(
            self, capsys):
        # every scale is audited on the unit model, so a small spheroid is
        # neither flagged as Zoll nor warned about, a large one keeps its
        # lift, and at 1e-16, where lengths and Clairaut values are of order
        # 1e-8, the equator and the meridian are still told apart
        def branches(doc):
            return [(b["branch"], b["match"].split(":")[0])
                    for b in doc["fixed_point"]["branches"]]

        docs = []
        for scale in (1.0, 1e-6, 1e-12, 1e6, 1e-16):
            code, out, err = run(capsys, "systolic-verify", "--metric",
                                 json.dumps({"kind": "rescaled-spheroid",
                                             "c": 1.03, "scale": scale}),
                                 "--nx", "16", "--ny", "64")
            assert code == 0, err
            docs.append(json.loads(out))
        sup = docs[0]["residuals"]["sup_distance_to_identity"]
        for doc in docs:
            assert doc["verdicts"] == docs[0]["verdicts"]
            assert doc["verdicts"]["zoll_flag"] is False
            assert doc["warnings"] == []
            assert doc["fixed_point"]["refused"] is None
            assert branches(doc) == branches(docs[0])
            labels = [c["label"] for c in doc["candidates"]]
            assert {"equator", "meridian"} <= set(labels)
            assert doc["residuals"]["sup_distance_to_identity"] == (
                pytest.approx(sup, rel=1e-9))

    @pytest.mark.parametrize("c", [1.03, 1.1])
    def test_return_map_at_the_finest_tolerance(self, capsys, c):
        # at rtol 1e-12 the check nodes meet the sweep's rounding floor
        code, _, err = run(capsys, "return-map", "--metric",
                           json.dumps({"kind": "spheroid", "c": c}),
                           "--tol-int", "1e-12")
        assert code == 0, err

    def test_systolic_verify_fat_spheroid_refused(self, capsys):
        code, _, err = run(capsys, "systolic-verify", "--metric", FAT,
                           "--nx", "16", "--ny", "16")
        assert code == 3
        assert "refused" in err

    @pytest.mark.parametrize("ny", ["16", "32", "63"])
    def test_systolic_verify_coarse_ny_exits_2(self, capsys, ny):
        code, out, err = run(capsys, "systolic-verify", "--metric", SPHEROID,
                             "--nx", "16", "--ny", ny)
        assert code == 2
        assert out == ""
        assert err == "error: monotonicity check requires ny >= 64\n"

    def test_systolic_verify_coarse_meridian_nx_exits_2(self, capsys,
                                                       monkeypatch):
        # an oblate spheroid's base is the meridian, whose return map
        # depends on x: below 24 columns the action's closure residual (at
        # 16 columns 2.98e-5, above the 1e-5 it is refused at) would refuse
        # the lift, so the audit refuses --nx first, before the return grid
        def grid(*args, **kwargs):
            raise AssertionError("return grid built")

        monkeypatch.setattr(sa.bs, "compute_return_grid", grid)
        for nx in ("16", "23"):
            code, out, err = run(capsys, "systolic-verify", "--metric",
                                 OBLATE, "--nx", nx, "--ny", "64")
            assert code == 2
            assert out == ""
            assert err == (f"error: a meridian base needs --nx >= 24 (got "
                           f"{nx}): coarser grids do not resolve the "
                           "x-dependence of its return map\n")
        monkeypatch.undo()
        code, out, err = run(capsys, "systolic-verify", "--metric", OBLATE,
                             "--nx", "24", "--ny", "64")
        assert code == 0, err
        assert json.loads(out)["passed"] is True

    def test_return_map_large_spheroid_passes(self, capsys):
        # --tol-id is held against the unit model's tau - L - sigma, so a
        # spheroid scaled by 1e6 passes, though its reported residual, in
        # its own units, exceeds 1e-5
        code, out, err = run(capsys, "return-map", "--metric",
                             json.dumps({"kind": "rescaled-spheroid",
                                         "c": 1.03, "scale": 1e6}),
                             "--nx", "16", "--ny", "33")
        assert code == 0, err
        assert json.loads(out)["residuals"]["tau_action_max"] > 1e-5

    def test_return_map_refused_below_threshold(self, capsys):
        code, _, _ = run(capsys, "return-map", "--metric", FAT,
                         "--nx", "16", "--ny", "16")
        assert code == 3

    def test_return_map_round(self, capsys, tmp_path):
        out_csv = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "return-map", "--metric", ROUND,
                         "--nx", "16", "--ny", "17", "--format", "csv",
                         "--out", str(out_csv))
        assert code == 0
        data = np.loadtxt(out_csv, delimiter=",", skiprows=1)
        assert np.max(np.abs(data[:, 4] - 2 * math.pi)) < 1e-7
        summary = json.loads((tmp_path / "grid.csv.json").read_text())
        assert abs(summary["flux"]) < 1e-8

    @pytest.mark.parametrize("flag", ["grazing", "short"])
    def test_return_map_with_a_flagged_orbit_writes_nothing(
            self, capsys, tmp_path, flag_one_orbit, flag):
        # the grid refuses the orbit as its sweep flags it, naming how many
        # orbits grazed and how many missed a return, before any CSV row is
        # written
        flag_one_orbit(flag)
        out_csv = tmp_path / "grid.csv"
        code, out, err = run(capsys, "return-map", "--metric", SPHEROID,
                             "--nx", "16", "--ny", "17", "--format", "csv",
                             "--out", str(out_csv))
        assert code == 4
        assert out == "" and err.startswith("error: ")
        assert "orbits graze the base plane" in err
        assert list(tmp_path.iterdir()) == []

    def test_zoll_check_passes_on_zoll(self, capsys):
        code, out, _ = run(capsys, "zoll-check", "--metric", ZOLL,
                           "--samples", "3")
        assert code == 0
        assert json.loads(out)["all_closed"] is True

    @pytest.mark.parametrize("radius", [1e-8, 1e-10])
    def test_zoll_check_closes_at_any_scale(self, capsys, radius):
        # the orbits are flowed on the unit sphere, whatever the radius
        code, out, _ = run(capsys, "zoll-check", "--metric",
                           json.dumps({"kind": "round", "radius": radius}))
        doc = json.loads(out)
        assert code == 0 and doc["all_closed"] is True
        assert doc["max_closure_residual"] < 1e-11

    def test_zoll_check_fails_on_spheroid(self, capsys):
        code, out, _ = run(capsys, "zoll-check", "--metric", SPHEROID,
                           "--samples", "3")
        assert code == 1
        assert json.loads(out)["all_closed"] is False

    def test_zoll_check_fails_on_a_small_spheroid(self, capsys):
        # the closure of c = 1.03 is the same at scale 1e-16 as at 1: both
        # are flowed on the unit model
        docs = []
        for scale in (1.0, 1e-16):
            code, out, _ = run(capsys, "zoll-check", "--metric", json.dumps(
                {"kind": "rescaled-spheroid", "c": 1.03, "scale": scale}),
                "--samples", "3")
            assert code == 1
            docs.append(json.loads(out))
        assert docs[0]["max_closure_residual"] == pytest.approx(
            docs[1]["max_closure_residual"], rel=1e-6)

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_zoll_check_without_samples_exits_2(self, capsys, samples):
        # no sampled orbit is no evidence: no verdict at all
        code, out, err = run(capsys, "zoll-check", "--metric", SPHEROID,
                             "--samples", samples)
        assert code == 2
        assert out == ""
        assert "--samples must be at least 1" in err

    def test_zoll_check_is_one_integration(self, capsys, monkeypatch):
        # every sample is a row of one batch, flowed to the common period
        calls, integrate = [], cli.gd.integrate_adaptive

        def counted(fun, y0, *args, **kwargs):
            calls.append(len(y0))
            return integrate(fun, y0, *args, **kwargs)

        monkeypatch.setattr(cli.gd, "integrate_adaptive", counted)
        code, out, _ = run(capsys, "zoll-check", "--metric", ZOLL,
                           "--samples", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_closed"] is True and doc["samples"] == 8
        assert calls == [8]

    def test_polygon_check_round(self, capsys):
        code, out, _ = run(capsys, "polygon-check", "--metric", ROUND,
                           "--nx", "16", "--ny", "17")
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == 0

    def test_polygon_check_pinching_violation_refused(self, capsys):
        # c = 2.5 is pinched at 0.026, below the 1/4 the zero-flux lift
        # needs: refused up front, as by return-map and systolic-verify
        # (the in-grid PinchingViolationError is covered by
        # TestErrorTaxonomy)
        code, out, err = run(capsys, "polygon-check", "--metric",
                             '{"kind": "spheroid", "c": 2.5}',
                             "--nx", "16", "--ny", "16")
        assert code == 3
        assert out == ""
        assert err.startswith("refused: ") and "Traceback" not in err

    def test_strict_upgrades_warnings(self, capsys):
        # the eps = 0.05 profile passes but sits below the monotone-twist
        # pinching threshold, which is recorded as a warning
        code, out, _ = run(capsys, "systolic-verify", "--metric", ZOLL,
                           "--nx", "24", "--ny", "64")
        doc = json.loads(out)
        assert code == 0 and doc["passed"] and doc["warnings"]
        code_strict, _, _ = run(capsys, "systolic-verify", "--metric", ZOLL,
                                "--nx", "24", "--ny", "64", "--strict")
        assert code_strict == 1


def _rescaled(c, scale):
    return {"kind": "rescaled-spheroid", "c": c, "scale": scale}


@functools.cache
def _json_run(command, metric, *argv):
    """Exit code and JSON report of one run of ``command`` on the metric
    document ``metric`` (a JSON string), kept for later tests."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, "--metric", metric, *argv])
    return code, json.loads(out.getvalue())


def _scaled_run(command, c, scale, *argv):
    """``_json_run`` on spheroid ``c`` rescaled by ``scale``, then at 1."""
    return (_json_run(command, json.dumps(_rescaled(c, scale)), *argv),
            _json_run(command, json.dumps(_rescaled(c, 1.0)), *argv))


def assert_in_units(doc, unit_doc, a, tol=0.0):
    """Every number of ``doc`` is the same-placed number of ``unit_doc``
    times sqrt(a) to the power ``cli._UNIT_POWERS`` gives its key, within
    ``tol`` times that factor (0: exactly); every other value is equal.
    The ``metric`` keys, which name different models, are skipped."""
    factor = {0: 1.0, 1: math.sqrt(a), 2: a}

    def walk(got, want, key):
        if isinstance(want, dict):
            assert sorted(got) == sorted(want)
            for k in want.keys() - {"metric"}:
                walk(got[k], want[k], k)
        elif isinstance(want, list):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                walk(g, w, key)
        elif isinstance(want, (int, float)) and not isinstance(want, bool):
            f = factor[cli._UNIT_POWERS.get(key, 0)]
            assert abs(got - want * f) <= tol * f, (key, got, want * f)
        else:
            assert got == want, key

    walk(doc, unit_doc, None)


class TestUnitModel:
    """Every command but trace and metric-info runs on the unit model of its
    metric and scales its report back once: a rescaled metric reports the
    numbers of scale 1 in its own units.  b / a rounds by 6.9e-18 at scale
    1e-12, so the numbers agree there only to rounding."""

    @pytest.mark.parametrize("c, nx", [(0.97, "32"), (1.03, "16")])
    @pytest.mark.parametrize("scale, tol", [(1e12, 0.0), (1e6, 0.0),
                                            (1e-12, 1e-13)])
    def test_strict_audit_of_a_rescaled_spheroid(self, c, nx, scale, tol):
        (code, doc), (code1, doc1) = _scaled_run(
            "systolic-verify", c, scale, "--nx", nx, "--ny", "64", "--strict")
        assert code == code1 == 0
        assert doc["warnings"] == doc1["warnings"] == []
        assert doc["metric"] == _rescaled(c, scale)
        assert_in_units(doc, doc1, scale, tol)

    @pytest.mark.parametrize("command, argv", [
        ("return-map", ("--nx", "16", "--ny", "33")),
        ("polygon-check", ("--nx", "16", "--ny", "33")),
        ("strip-report", ("--nx", "16", "--ny", "33")),
        ("zoll-check", ()),
    ])
    def test_other_commands_at_scale_1e6(self, command, argv):
        (code, doc), (code1, doc1) = _scaled_run(command, 1.03, 1e6, *argv)
        assert code == code1
        assert_in_units(doc, doc1, 1e6)
        if command != "return-map":      # its summary names no metric
            metric = (doc["source"] if command == "strip-report" else doc)
            assert metric["metric"] == _rescaled(1.03, 1e6)

    def test_return_map_csv_at_scale_1e6(self, tmp_path):
        # x, X and tau are lengths, y and Y angles
        tables, summaries = [], []
        for scale in (1e6, 1.0):
            out = tmp_path / f"{scale}.csv"
            assert cli.main(["return-map", "--metric",
                             json.dumps(_rescaled(1.03, scale)),
                             "--nx", "16", "--ny", "33", "--format", "csv",
                             "--out", str(out)]) == 0
            tables.append(np.loadtxt(out, delimiter=",", skiprows=1))
            summaries.append(json.loads(Path(f"{out}.json").read_text()))
        assert_in_units(*summaries, 1e6)
        np.testing.assert_array_equal(
            tables[0], tables[1] * [1e3, 1.0, 1e3, 1.0, 1e3])


class TestComputationFailure:
    @pytest.mark.parametrize("error", [
        NoConvergenceError("closure residual 1e-06 exceeds target"),
        ReturnFailure("return events not found within horizon"),
        IntegrationFailure("step size underflow", t=1.0),
        InternalConsistencyError("advance-based lift has flux 0.1"),
    ], ids=lambda e: type(e).__name__)
    def test_exits_4(self, capsys, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(sa, "audit", fail)
        code, out, err = run(capsys, "systolic-verify", "--metric",
                             SPHEROID)
        assert code == cli.EXIT_COMPUTE == 4
        assert out == ""
        assert err == f"error: {error}\n"


class TestHypothesisRefusal:
    @pytest.mark.parametrize("error", [
        SectionInvalidError("base curve is not simple at resolution 1e-06"),
        NonIntegrableFormError("one-form closure residual 1.01 exceeds 1e-05"),
        NotGeneratingError("generated column is not monotone"),
    ], ids=lambda e: type(e).__name__)
    def test_exits_3(self, capsys, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(sa, "audit", fail)
        code, out, err = run(capsys, "systolic-verify", "--metric",
                             SPHEROID)
        assert code == cli.EXIT_REFUSED == 3
        assert out == ""
        assert err == f"refused: {error}\n"

    def test_non_area_preserving_preset_refused(self, capsys):
        code, out, err = run(capsys, "strip-report", "--w-preset", "x-sine",
                             "--eps", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("refused: one-form closure residual")


class TestConfigValidation:
    def test_small_grid_rejected(self, capsys):
        code, _, err = run(capsys, "return-map", "--metric", ROUND,
                           "--nx", "8")
        assert code == 2
        assert err == "error: grid sizes must be at least 16\n"

    @pytest.mark.parametrize("command", ["return-map", "strip-report",
                                         "polygon-check", "systolic-verify"])
    def test_grid_above_the_bound_exits_2(self, capsys, monkeypatch,
                                          command):
        # refused before the return grid is computed; the largest size is
        # taken (the stand-in then stops the command with exit 4)
        calls = []

        def grid(section, nx, ny, rtol):
            calls.append((nx, ny))
            raise ReturnFailure("stand-in return grid")

        monkeypatch.setattr(cli.bs, "compute_return_grid", grid)
        top, over = str(cli.MAX_GRID), str(cli.MAX_GRID + 1)
        for nx, ny in ((over, top), (top, over), ("100000", "100000")):
            code, out, err = run(capsys, command, "--metric", ROUND,
                                 "--nx", nx, "--ny", ny)
            assert code == 2 and out == ""
            assert err == f"error: grid sizes must be at most {top}\n"
        assert calls == []
        code, _, _ = run(capsys, command, "--metric", ROUND,
                         "--nx", top, "--ny", top)
        assert code == 4 and calls == [(cli.MAX_GRID, cli.MAX_GRID)]

    def test_tolerance_ordering_enforced(self, capsys):
        code, _, err = run(capsys, "return-map", "--metric", ROUND,
                           "--tol-int", "1e-7", "--tol-id", "1e-8")
        assert code == 2
        assert err == ("error: tolerances must be finite and satisfy "
                       "integration < identity < verdict\n")

    @pytest.mark.parametrize("command", ["return-map", "zoll-check"])
    def test_infinite_tolerance_rejected(self, capsys, command):
        # without --tol-verdict above it, an infinite --tol-id would pass
        # every residual
        code, out, err = run(capsys, command, "--metric", SPHEROID,
                             "--tol-id", "inf")
        assert code == 2
        assert out == ""
        assert "tolerances must be finite" in err

    def test_csv_without_out_refused_before_integrating(self, capsys,
                                                          monkeypatch):
        def grid(*args, **kwargs):
            raise AssertionError("return grid computed")

        monkeypatch.setattr(cli.bs, "compute_return_grid", grid)
        code, out, err = run(capsys, "return-map", "--metric", ROUND,
                             "--format", "csv")
        assert code == 2
        assert out == ""
        assert err == "error: --out is required with --format csv\n"

    @pytest.mark.parametrize("command, option", [
        ("metric-info", ["--nx", "16"]),
        ("trace", ["--seed", "1"]),
        ("systolic-verify", ["--format", "csv"]),
        ("zoll-check", ["--strict"]),
        ("polygon-check", ["--tol-id", "1e-5"]),
    ])
    def test_option_a_subcommand_does_not_read_refused(self, capsys, command,
                                                      option):
        code, out, err = run(capsys, command, "--metric", ROUND, *option)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {' '.join(option)}" in err

    def test_ladder_holds_only_the_tolerances_taken(self, capsys):
        # zoll-check takes no --tol-verdict, so its default 1e-4 no longer
        # caps --tol-id
        code, out, _ = run(capsys, "zoll-check", "--metric", ZOLL,
                           "--samples", "1", "--tol-id", "1e-3")
        assert code == 0
        assert json.loads(out)["all_closed"] is True

    @pytest.mark.parametrize("command", ["return-map", "systolic-verify",
                                         "polygon-check"])
    @pytest.mark.parametrize("tol_int", ["-1", "1e-14", "2e-6", "nan"])
    def test_tol_int_outside_its_range_rejected(self, capsys, command,
                                                tol_int):
        # below 1e-12 the sweep's own rounding fails the grid symmetry
        # check, which would blame the return map
        code, out, err = run(capsys, command, "--metric", SPHEROID,
                             "--nx", "16", "--ny", "17", "--tol-int", tol_int)
        assert code == 2
        assert out == ""
        assert err == "error: --tol-int must lie in [1e-12, 1e-06]\n"


def _error_classes(cls=BirkhofflabError):
    """``cls`` and every class derived from it."""
    return [cls] + [d for sub in cls.__subclasses__()
                    for d in _error_classes(sub)]


# The exit code of every package error, by category.
EXIT_CODES = {
    "BirkhofflabError": 2, "UsageError": 2, "ModelInvalidError": 2,
    "ChartDomainError": 2, "PreconditionError": 2,
    "RefusedError": 3, "SectionInvalidError": 3, "PinchingViolationError": 3,
    "NonIntegrableFormError": 3, "NotGeneratingError": 3, "AuditRefused": 3,
    "ComputationError": 4, "IntegrationFailure": 4, "NoConvergenceError": 4,
    "ReturnFailure": 4, "InternalConsistencyError": 4,
}


class TestErrorTaxonomy:
    def test_every_class_has_an_exit_code(self):
        assert {c.__name__ for c in _error_classes()} == set(EXIT_CODES)

    @pytest.mark.parametrize("cls", _error_classes()[1:],
                             ids=lambda c: c.__name__)
    def test_one_category_and_a_builtin_base(self, cls):
        categories = (UsageError, RefusedError, ComputationError)
        assert sum(issubclass(cls, c) for c in categories) == 1
        if cls not in categories:
            assert issubclass(cls, (ValueError, RuntimeError))

    @pytest.mark.parametrize("cls", _error_classes(),
                             ids=lambda c: c.__name__)
    def test_exit_code_and_stderr_line(self, capsys, monkeypatch, cls):
        def fail(*args, **kwargs):
            raise cls("the reason")

        monkeypatch.setattr(sa, "audit", fail)
        code, out, err = run(capsys, "systolic-verify", "--metric",
                             SPHEROID)
        assert code == EXIT_CODES[cls.__name__]
        assert out == ""
        prefix = "refused" if code == 3 else "error"
        assert err == f"{prefix}: the reason\n"

    @pytest.mark.parametrize("error", [
        ValueError("array must not contain infs or NaNs"),
        FileNotFoundError("no such file"),
    ], ids=lambda e: type(e).__name__)
    def test_outside_failures_exit_2(self, capsys, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(sa, "audit", fail)
        code, out, err = run(capsys, "systolic-verify", "--metric",
                             SPHEROID)
        assert code == 2
        assert out == ""
        assert err == f"error: {error}\n"

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        # numpy refusing an array too large to allocate, raised here
        # without allocating it
        def integrate(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(cli.gd, "integrate_geodesic", integrate)
        code, out, err = run(capsys, "trace", "--metric", ROUND)
        assert code == 2
        assert out == ""
        assert err == "error: Unable to allocate 7.28 TiB\n"

    def test_other_exceptions_are_not_swallowed(self, monkeypatch):
        def fail(*args, **kwargs):
            raise KeyError("a bug")

        monkeypatch.setattr(sa, "audit", fail)
        with pytest.raises(KeyError):
            cli.main(["systolic-verify", "--metric", SPHEROID])


class TestLiftPinchingRefusal:
    @pytest.mark.parametrize("command", ["return-map", "strip-report",
                                         "polygon-check", "systolic-verify"])
    def test_same_refusal_before_integrating(self, capsys, monkeypatch,
                                             command):
        # c = 1.5 is pinched at 1.5**-4 ~ 0.198, below the 1/4 the
        # zero-flux lift needs
        def grid(*args, **kwargs):
            raise AssertionError("return grid computed")

        monkeypatch.setattr(cli.bs, "compute_return_grid", grid)
        code, out, err = run(capsys, command, "--metric", FAT,
                             "--nx", "16", "--ny", "17")
        assert code == 3
        assert out == ""
        assert err == ("refused: pinching constant 0.1975 is not above "
                       "0.25; the zero-flux lift construction is not "
                       "guaranteed\n")


def _reads(argv):
    """The attributes of the parsed ``argv`` that its subcommand reads."""
    parsed = cli.build_parser().parse_args(argv)
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    args = Recording(**vars(parsed))
    args.fn(args)
    return read


class TestOptions:
    def _taken(self):
        ap = cli.build_parser()
        sub = next(a for a in ap._actions
                   if isinstance(a, argparse._SubParsersAction))
        return {name: {a.dest for a in p._actions
                       if a.option_strings and a.dest != "help"}
                for name, p in sub.choices.items()}

    def test_option_count(self):
        taken = self._taken()
        assert len(taken) == 7
        assert sum(map(len, taken.values())) == 42

    def test_each_subcommand_reads_every_option_it_takes(self, capsys,
                                                         tmp_path):
        grid = ["--nx", "16", "--ny", "17"]
        runs = [
            ["metric-info", "--metric", ROUND],
            ["trace", "--metric", ROUND, "--t-end", "1", "--samples", "3"],
            ["return-map", "--metric", ROUND, *grid, "--format", "csv",
             "--out", str(tmp_path / "grid.csv")],
            ["strip-report", "--w-preset", "zero", *grid],
            ["strip-report", "--metric", ROUND, *grid],
            ["systolic-verify", "--metric", ROUND, "--nx", "16",
             "--ny", "64"],
            ["zoll-check", "--metric", ROUND, "--samples", "1"],
            ["polygon-check", "--metric", ROUND, *grid],
        ]
        read = defaultdict(set)
        for argv in runs:
            read[argv[0]] |= _reads(argv)
        capsys.readouterr()
        for name, dests in self._taken().items():
            assert dests <= read[name], name
