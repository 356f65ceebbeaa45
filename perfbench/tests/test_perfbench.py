"""Self-tests of the benchmark: oracles, seeded inputs, output checks, the
tracer's transparency and coverage check, repeatable trace counts and the
speed probe.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import layertrace  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import speedprobe  # noqa: E402
import workloads  # noqa: E402
from birkhofflab import _integrate  # noqa: E402


def test_round_sphere_oracles():
    assert oracles.spheroid_area(1.0) == 4 * math.pi
    assert oracles.meridian_length(1.0) == pytest.approx(2 * math.pi,
                                                         rel=1e-15)
    assert oracles.pinching(1.0) == 1.0
    assert abs(oracles.calabi(1.0)) < 1e-14


@pytest.mark.parametrize("h", [1e-4, 1e-6])
def test_oracles_continuous_at_round_sphere(h):
    for c in (1.0 - h, 1.0 + h):
        assert oracles.spheroid_area(c) == pytest.approx(4 * math.pi,
                                                         rel=2 * h)
        assert oracles.meridian_length(c) == pytest.approx(2 * math.pi,
                                                           rel=2 * h)
        assert abs(oracles.calabi(c)) < 10 * h


@pytest.mark.parametrize("c", [0.5, 0.97, 1.03, 1.5])
def test_oracles_match_quadrature(c):
    # Meridian (sin t, c cos t): ds = sqrt(cos^2 t + c^2 sin^2 t) dt.
    ds = lambda t: math.sqrt(math.cos(t) ** 2 + (c * math.sin(t)) ** 2)  # noqa: E731
    half, _ = quad(ds, 0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
    area, _ = quad(lambda t: 2 * math.pi * math.sin(t) * ds(t), 0.0, math.pi,
                   epsabs=1e-13, epsrel=1e-13)
    assert oracles.meridian_length(c) == pytest.approx(2 * half, rel=1e-12)
    assert oracles.spheroid_area(c) == pytest.approx(area, rel=1e-12)


def _exact_report(c):
    lo, hi = sorted((oracles.equator_length(c), oracles.meridian_length(c)))
    return {"passed": True, "delta": oracles.pinching(c),
            "area": oracles.spheroid_area(c), "section_length": lo,
            "l_min": lo, "l_max_simple": hi, "cal": oracles.calabi(c),
            "residuals": {"tau_action_max": 0.0, "area_identity_rel": 0.0}}


@pytest.mark.parametrize("key, factor", [
    ("area", 1 + 1e-8), ("l_min", 1 + 1e-7), ("l_max_simple", 1 - 1e-7),
    ("section_length", 1 + 1e-7), ("cal", 1 + 1e-4), ("delta", 1 + 1e-6)])
def test_report_check_catches_each_wrong_value(key, factor):
    rep = _exact_report(1.03)
    assert oracles.check_spheroid_report(1.03, rep) == []
    rep[key] *= factor
    assert oracles.check_spheroid_report(1.03, rep)


def test_seed_gives_the_same_inputs():
    a = workloads.audit_inputs(7, 1.025, 1.035)
    assert a == workloads.audit_inputs(7, 1.025, 1.035)
    assert a != workloads.audit_inputs(8, 1.025, 1.035)
    assert 1.025 <= a.c <= 1.035
    s1, s2 = workloads.strip_inputs(7, 4), workloads.strip_inputs(7, 4)
    assert s1.net_flux == s2.net_flux
    assert s1.net_flux[0] == s1.net_flux[2] == 0.0 != s1.net_flux[1]
    for g1, g2 in zip(s1.gens, s2.gens):
        np.testing.assert_array_equal(g1.w, g2.w)
    other = workloads.strip_inputs(8, 4)
    assert not np.array_equal(other.gens[0].w, s1.gens[0].w)


def test_strip_maps_pass_and_a_wrong_flux_fails():
    inputs = workloads.strip_inputs(3, 2)
    op, _ = workloads.run_strip_maps(inputs)
    assert [it.fails for it in op.items] == [[], []]
    gen = inputs.gens[1]
    back, fl, fl_path, _ = workloads._strip_map(gen, False)
    wrong = inputs.net_flux[1] + 1e-3
    assert oracles.check_strip_map(wrong, gen.w, back.w, fl, fl_path,
                                   back.boundary_values())


def test_single_signed_map_skips_the_mirrored_branch():
    # Seed 19 draws a zero-flux map whose W is positive inside the strip:
    # it has a fixed point of positive action only.
    inputs = workloads.strip_inputs(19)
    gen = inputs.gens[0]
    assert inputs.net_flux[0] == 0.0 and gen.w[:, 1:-1].min() > 0.0
    assert workloads.takes_sign(gen, "positive")
    assert not workloads.takes_sign(gen, "negative")
    back, fl, fl_path, signs = workloads._strip_map(gen, True)
    cal, sigma, sigma_other = signs
    assert cal > 0 < sigma and sigma_other is None
    assert oracles.check_strip_map(0.0, gen.w, back.w, fl, fl_path,
                                   back.boundary_values(), signs) == []
    assert oracles.check_strip_map(0.0, gen.w, back.w, fl, fl_path,
                                   back.boundary_values(),
                                   (cal, sigma, sigma)) != []


@pytest.fixture(scope="module")
def small_audit():
    inputs = workloads.audit_inputs(11, 1.025, 1.035, nx=16, ny=64)
    plain, text = workloads.run_audit(inputs)
    traced = []
    for _ in range(2):
        with layertrace.Tracer() as tracer:
            op, traced_text = workloads.run_audit(inputs)
        traced.append((op, traced_text,
                       layertrace.op_metrics(tracer.take())))
    return plain, text, traced


def test_tracing_leaves_the_report_byte_identical(small_audit):
    plain, text, traced = small_audit
    assert plain.items[0].fails == []
    for op, traced_text, _ in traced:
        assert op.items[0].fails == []
        assert traced_text == text


def test_traced_counts_repeat_exactly(small_audit):
    _, _, traced = small_audit
    (_, _, first), (_, _, second) = traced
    counts = [k for k, unit in layertrace.LAYER_METRICS.items()
              if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["birkhoff_section.grid_nodes"] == 16 * 64
    assert first["integrate.steps_accepted"] > 0
    assert first["integrate.steps_rejected"] >= 0
    assert first["geodesic_dynamics.shooting_calls"] > 0
    assert first["integrate.sweep_yield"] == 1.0


def test_tracer_restores_the_program():
    original = _integrate.integrate_adaptive
    with layertrace.Tracer():
        assert _integrate.integrate_adaptive is not original
    assert _integrate.integrate_adaptive is original


def test_integration_without_layer_parent_fails_the_trace():
    with layertrace.Tracer() as tracer:
        _integrate.integrate_adaptive(lambda t, y: -y, np.ones((1, 2)),
                                      (0.0, 1.0))
    with pytest.raises(layertrace.TraceError, match="layer parent"):
        layertrace.op_metrics(tracer.take())


def test_rescale_cancels_the_host_speed():
    # An operation and the probe slowed by one factor rescale alike.
    fast = speedprobe.rescale(2.0, [speedprobe.REF_PROBE_S] * 3)
    slow = speedprobe.rescale(3.0, [1.5 * speedprobe.REF_PROBE_S] * 3)
    assert fast == slow == pytest.approx(2.0)


def test_speed_probe_samples_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    with speedprobe.SpeedProbe() as probe:
        deadline = time.perf_counter() + 3 * speedprobe.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 3
    assert all(s > 0.0 for s in probe.samples)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_matches_the_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in doc["workloads"]) == run.WORKLOADS
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} \
        == {**layertrace.LAYER_METRICS, **run.RUN_METRICS}


def test_without_program_source_the_run_fails(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "strip-maps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
