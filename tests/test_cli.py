import json
import math

import numpy as np
import pytest

from birkhofflab import cli
from birkhofflab import systolic_audit as sa
from birkhofflab.errors import (IntegrationFailure, InternalConsistencyError,
                                NoConvergenceError, NonIntegrableFormError,
                                NotGeneratingError, ReturnFailure,
                                SectionInvalidError)

ROUND = '{"kind": "round", "radius": 1.0}'
SPHEROID = '{"kind": "spheroid", "c": 1.03}'
FAT = '{"kind": "spheroid", "c": 1.5}'
ZOLL = '{"kind": "zoll", "h_coeffs": [0.05, 0, -0.05]}'


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        _, out1, _ = run(capsys, "strip-report", "--seed", "9",
                         "--nx", "32", "--ny", "96")
        _, out2, _ = run(capsys, "strip-report", "--seed", "9",
                         "--nx", "32", "--ny", "96")
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

    def test_x_sine_preset_zero_calabi(self, capsys):
        code, out, _ = run(capsys, "strip-report", "--w-preset", "x-sine",
                           "--eps", "0.01", "--nx", "48", "--ny", "96")
        doc = json.loads(out)
        assert abs(doc["cal"]) < 1e-6
        assert abs(doc["flux"] - doc["flux_boundary_path"]) < 1e-6


class TestVerdictCommands:
    def test_systolic_verify_round_passes(self, capsys):
        code, out, _ = run(capsys, "systolic-verify", "--metric", ROUND,
                           "--nx", "24", "--ny", "64")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["verdicts"]["zoll_flag"] is True

    def test_systolic_verify_fat_spheroid_refused(self, capsys):
        code, _, err = run(capsys, "systolic-verify", "--metric", FAT,
                           "--nx", "16", "--ny", "16")
        assert code == 3
        assert "refused" in err

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

    def test_zoll_check_passes_on_zoll(self, capsys):
        code, out, _ = run(capsys, "zoll-check", "--metric", ZOLL,
                           "--samples", "3")
        assert code == 0
        assert json.loads(out)["all_closed"] is True

    def test_zoll_check_fails_on_spheroid(self, capsys):
        code, out, _ = run(capsys, "zoll-check", "--metric", SPHEROID,
                           "--samples", "3")
        assert code == 1
        assert json.loads(out)["all_closed"] is False

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_zoll_check_without_samples_exits_2(self, capsys, samples):
        # no sampled orbit is no evidence: no verdict at all
        code, out, err = run(capsys, "zoll-check", "--metric", SPHEROID,
                             "--samples", samples)
        assert code == 2
        assert out == ""
        assert "--samples must be at least 1" in err

    def test_polygon_check_round(self, capsys):
        code, out, _ = run(capsys, "polygon-check", "--metric", ROUND,
                           "--nx", "16", "--ny", "17")
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == 0

    def test_polygon_check_pinching_violation_refused(self, capsys):
        # c = 2.5: the boundary advance escapes (0, 2L) inside the return
        # grid, a failed hypothesis reported as a refusal, not a traceback
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
        code, _, _ = run(capsys, "metric-info", "--metric", ROUND,
                         "--nx", "8")
        assert code == 2

    def test_tolerance_ordering_enforced(self, capsys):
        code, _, _ = run(capsys, "metric-info", "--metric", ROUND,
                         "--tol-int", "1e-3", "--tol-id", "1e-5")
        assert code == 2
