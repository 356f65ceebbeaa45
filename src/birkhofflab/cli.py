"""Command-line interface.

Subcommands: metric-info, trace, return-map, strip-report, systolic-verify,
zoll-check, polygon-check.  Exit codes: 0 verdict pass, 1 verdict fail,
2 usage or parse error, 3 hypothesis refusal (an audit refused up front, a
lift-pinching hypothesis found to fail during the computation, a base curve
that carries no annulus, or a map that preserves no area form or has no
generating function), 4
computation failure (a shooting that does not converge, a return event not
found, a step-size underflow or a failed internal consistency check).

Reports are JSON with sorted keys and floats printed to 17 significant
digits, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import birkhoff_section as bs
from . import geodesic_dynamics as gd
from . import metric_models as mm
from . import strip_calculus as sc
from . import systolic_audit as sa
from .errors import (AuditRefused, IntegrationFailure, InternalConsistencyError,
                     NoConvergenceError, NonIntegrableFormError,
                     NotGeneratingError, PinchingViolationError,
                     PreconditionError, ReturnFailure, SectionInvalidError)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_COMPUTE = 4


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def _fmt_float(x):
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dumps(obj, indent=0):
    """JSON text with sorted keys and 17-significant-digit floats."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        keys = sorted(obj.keys())
        if not keys:
            return "{}"
        parts = [pad_in + json.dumps(str(k)) + ": " + dumps(obj[k], indent + 1)
                 for k in keys]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialise {type(obj)!r}")


def _emit(doc, out):
    text = dumps(doc) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _load_metric(spec):
    if spec is None:
        raise ValueError("--metric is required for this command")
    spec = spec.strip()
    if spec.startswith("{"):
        return mm.from_json(spec)
    with open(spec) as fh:
        return mm.from_json(fh.read())


def _common_flags(p):
    p.add_argument("--metric", help="metric JSON file or inline JSON object")
    p.add_argument("--nx", type=int, default=96)
    p.add_argument("--ny", type=int, default=96)
    p.add_argument("--tol-int", type=float, default=1e-10,
                   help="integration relative tolerance")
    p.add_argument("--tol-id", type=float, default=1e-5,
                   help="identity-residual tolerance")
    p.add_argument("--tol-verdict", type=float, default=1e-4,
                   help="verdict tolerance (relative, scaled by area)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as failures")


def _check_config(args):
    if args.nx < 16 or args.ny < 16:
        raise ValueError("grid sizes must be at least 16")
    lo, hi = gd.TOL_INT_RANGE
    if not (lo <= args.tol_int <= hi):
        raise ValueError(f"--tol-int must lie in [{lo:g}, {hi:g}]")
    if not (args.tol_int < args.tol_id < args.tol_verdict):
        raise ValueError("tolerances must satisfy integration < identity "
                         "< verdict")
    if not math.isfinite(getattr(args, "eps", 0.0)):
        raise ValueError("--eps must be finite")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_metric_info(args):
    model = _load_metric(args.metric)
    kmin, kmax = mm.curvature_extremes(model)
    doc = {
        "metric": mm.to_json(model),
        "area": mm.area(model),
        "k_min": kmin,
        "k_max": kmax,
        "delta": kmin / kmax,
        "injectivity_radius_lower_bound": math.pi / math.sqrt(kmax),
        "equator_length": model.equator_length,
        "meridian_length": model.meridian_circuit_length(),
    }
    _emit(doc, args.out)
    return EXIT_PASS


def cmd_trace(args):
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    model = _load_metric(args.metric)
    try:
        theta, phi, psi = (float(v) for v in args.start.split(","))
    except Exception as exc:
        raise ValueError("--start must be 'theta,phi,psi'") from exc
    state = gd.state_from_angle(model, theta, phi, psi)
    traj = gd.integrate_geodesic(model, state, args.t_end,
                                 tol=args.tol_int)
    rows = traj.to_csv_rows(args.samples)
    out = args.out
    writer = open(out, "w", newline="") if out else sys.stdout
    try:
        wr = csv.writer(writer)
        wr.writerow(["t", "theta", "phi", "dir1", "dir2"])
        for row in rows:
            wr.writerow([repr(float(v)) for v in row])
    finally:
        if out:
            writer.close()
    return EXIT_PASS


def cmd_return_map(args):
    model = _load_metric(args.metric)
    delta = mm.pinching_constant(model)
    if delta <= sa.LIFT_PINCH_THRESHOLD:
        raise AuditRefused(
            f"pinching constant {delta:.4f} below the lift threshold "
            f"{sa.LIFT_PINCH_THRESHOLD}")
    section = bs.build_section(model)
    grid = bs.compute_return_grid(section, nx=args.nx, ny=args.ny,
                                  rtol=args.tol_int, atol=args.tol_int * 1e-2)
    if args.format == "csv":
        if not args.out:
            raise ValueError("--out is required with --format csv")
        grid.to_csv(args.out)
        summary_path = args.out + ".json"
    else:
        summary_path = args.out
    doc = grid.summary(model)
    doc["delta"] = delta
    _emit(doc, summary_path)
    bad = doc["residuals"]["tau_action_max"] > args.tol_id
    return EXIT_FAIL if bad else EXIT_PASS


def _preset_generating(preset, eps, length, nx, ny, seed):
    xs, Ys = sc.strip_mesh(length, nx, ny)
    if preset == "zero":
        w = np.zeros((nx, ny))
    elif preset == "minus-sin2":
        w = np.repeat(-eps * np.sin(Ys)[None, :] ** 2, nx, axis=0)
    elif preset == "x-sine":
        w = eps * np.sin(2 * math.pi * xs / length)[:, None] \
            * np.sin(Ys)[None, :] ** 2
    elif preset == "random":
        rng = np.random.default_rng(seed)
        return sc.random_generating_grid(rng, length=length, nx=nx, ny=ny)
    else:
        raise ValueError(f"unknown generating preset {preset!r}")
    return sc.GeneratingGrid(length=length, xs=xs, Ys=Ys, w=w)


def cmd_strip_report(args):
    if args.metric:
        model = _load_metric(args.metric)
        section = bs.build_section(model)
        grid = bs.compute_return_grid(section, nx=args.nx, ny=args.ny,
                                      rtol=args.tol_int,
                                      atol=args.tol_int * 1e-2)
        lift = bs.zero_flux_lift(grid)
        gen = sc.generating_from_map(lift)
        source = {"kind": "birkhoff-lift", "metric": mm.to_json(model)}
    else:
        gen = _preset_generating(args.w_preset, args.eps, 2 * math.pi,
                                 args.nx, args.ny, args.seed)
        lift = sc.build_from_generating(gen)
        source = {"kind": "generating", "preset": args.w_preset,
                  "eps": args.eps, "seed": args.seed}
    fl = sc.flux(lift)
    doc = {
        "source": source,
        "flux": fl,
        "flux_boundary_path": sc.flux_boundary_path(lift),
        "min_w": float(np.min(gen.w)),
        "max_w": float(np.max(gen.w)),
        "sup_distance_to_identity": lift.sup_distance_to_identity(),
        "fixed_points": [],
        "cal": None,
    }
    if abs(fl) < sc.FLUX_TOL:
        doc["cal"] = sc.calabi(lift)
        if lift.sup_distance_to_identity() > sc.IDENTITY_MAP_EPS:
            point, sigma = sc.fixed_point_with_signed_action(lift, gen)
            doc["fixed_points"].append(
                {"x": point[0], "y": point[1], "sigma": sigma})
    _emit(doc, args.out)
    return EXIT_PASS


def cmd_systolic_verify(args):
    model = _load_metric(args.metric)
    report = sa.audit(model, nx=args.nx, ny=args.ny, rtol=args.tol_int,
                      atol=args.tol_int * 1e-2, tol_identity=args.tol_id,
                      tol_verdict=args.tol_verdict)
    _emit(report.to_dict(), args.out)
    if not report.passed:
        return EXIT_FAIL
    if args.strict and report.warnings:
        return EXIT_FAIL
    return EXIT_PASS


def cmd_zoll_check(args):
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    model = _load_metric(args.metric)
    L = model.equator_length
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.samples):
        theta = math.acos(rng.uniform(-0.95, 0.95))
        phi = rng.uniform(0.0, 2 * math.pi)
        psi = rng.uniform(0.0, 2 * math.pi)
        state = gd.state_from_angle(model, theta, phi, psi)
        u0, v0 = gd.state_to_ambient(model, state)
        traj = gd.integrate_geodesic(model, state, L, tol=args.tol_int)
        u1, v1 = traj.ambient(L)
        worst = max(worst, float(np.max(np.abs(u1 - u0))),
                    float(np.max(np.abs(v1 - v0))))
    closed = worst < args.tol_id
    doc = {
        "metric": mm.to_json(model),
        "common_period": L,
        "samples": args.samples,
        "max_closure_residual": worst,
        "all_closed": bool(closed),
    }
    _emit(doc, args.out)
    return EXIT_PASS if closed else EXIT_FAIL


def cmd_polygon_check(args):
    model = _load_metric(args.metric)
    section = bs.build_section(model)
    grid = bs.compute_return_grid(section, nx=args.nx, ny=args.ny,
                                  rtol=args.tol_int,
                                  atol=args.tol_int * 1e-2)
    doc = sa.two_gon_perimeter_check(model, grid)
    kmin, _ = mm.curvature_extremes(model)
    doc["perimeter_bound"] = 2 * math.pi / math.sqrt(kmin)
    doc["metric"] = mm.to_json(model)
    _emit(doc, args.out)
    return EXIT_PASS if doc["passed"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="birkhofflab",
        description="Geodesic return maps, strip calculus, and systolic "
                    "audits on two-spheres of revolution.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, extra=None):
        p = sub.add_parser(name)
        _common_flags(p)
        if extra:
            extra(p)
        p.set_defaults(fn=fn)
        return p

    add("metric-info", cmd_metric_info)

    def trace_flags(p):
        p.add_argument("--start", default="1.047197551196598,0.0,0.7",
                       help="initial 'theta,phi,psi'")
        p.add_argument("--t-end", type=float, default=2 * math.pi)
        p.add_argument("--samples", type=int, default=200)
    add("trace", cmd_trace, trace_flags)

    add("return-map", cmd_return_map)

    def strip_flags(p):
        p.add_argument("--w-preset", default="random",
                       choices=("zero", "minus-sin2", "x-sine", "random"))
        p.add_argument("--eps", type=float, default=0.01)
    add("strip-report", cmd_strip_report, strip_flags)

    add("systolic-verify", cmd_systolic_verify)

    def zoll_flags(p):
        p.add_argument("--samples", type=int, default=8)
    add("zoll-check", cmd_zoll_check, zoll_flags)

    add("polygon-check", cmd_polygon_check)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        _check_config(args)
        return args.fn(args)
    except (AuditRefused, PinchingViolationError, SectionInvalidError,
            NonIntegrableFormError, NotGeneratingError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (ValueError, KeyError, OSError, json.JSONDecodeError,
            PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoConvergenceError, ReturnFailure, IntegrationFailure,
            InternalConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
