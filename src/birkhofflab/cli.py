"""Command-line interface.

Subcommands: metric-info, trace, return-map, strip-report, systolic-verify,
zoll-check, polygon-check.  Each takes only the options it reads, named in
its ``_command`` line; ``_check_config`` checks the ones given.

Exit codes: 0 verdict pass, 1 verdict fail; an error exits with the code of
its category in :mod:`birkhofflab.errors` and one stderr line: 2 usage
(``error:``), 3 hypothesis refusal (``refused:``), 4 computation failure
(``error:``).  Failures from outside the package (malformed JSON, an
unreadable file, a ``ValueError`` or ``MemoryError`` of numpy or scipy)
exit 2.

Reports are JSON with sorted keys and floats printed to 17 significant
digits, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .errors import (BirkhofflabError, ChartDomainError, ComputationError,
                     RefusedError, UsageError)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = UsageError.exit_code
EXIT_REFUSED = RefusedError.exit_code
EXIT_COMPUTE = ComputationError.exit_code
# Smallest --nx, --ny of the random strip preset: from 48 x 48 on, seeds 0
# to 39 all pass the map's D2 W and fixed-point checks; coarser grids do not.
RANDOM_MIN_GRID = 48
# Smallest --ny of the sin(Y)^2 strip presets: below 21 rows the sixth-order
# D2 W of sin(Y)^2 on the boundary rows exceeds 1e-4 max |W| (1.4e-4 at 20,
# 9.8e-5 at 21), at every --eps and --nx, and the map builder refuses W.
SIN2_MIN_NY = 21
TRACE_MAX_LENGTHS = 100   # longest trace --t-end, in equator lengths
MAX_GRID = 512            # largest --nx, --ny (costs measured in README)
MAX_SAMPLES = 10_000      # largest --samples (costs measured in README)
# Every command but trace and metric-info computes on the unit model (see
# metric_models.unit_model); a report key with a unit carries sqrt(a) to
# this power, 1 for a length, time, action or Clairaut value, 2 for an area.
_UNIT_POWERS = dict(area=2, lower_margin=2, upper_margin=2, **dict.fromkeys((
    "L cal clairaut common_period flux flux_abs flux_boundary_path l_min "
    "l_max_simple length max_w min_w perimeter_bound section_length sigma "
    "tau_action_max tau_min tau_max x boundary_consistency_max").split(), 1))


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def dumps(obj, indent=0):
    """JSON text with sorted keys and 17-significant-digit floats."""
    if isinstance(obj, dict):
        items = [json.dumps(str(k)) + ": " + dumps(obj[k], indent + 1)
                 for k in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps(v, indent + 1) for v in obj]
        brackets = "[]"
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        return format(x, ".17g") if math.isfinite(x) else json.dumps(x)
    else:
        return json.dumps(int(obj) if isinstance(obj, np.integer) else obj)
    if not items:
        return brackets
    pad = "\n" + "  " * (indent + 1)
    return (brackets[0] + pad + ("," + pad).join(items) + "\n"
            + "  " * indent + brackets[1])


def _open_out(out):
    """The file ``out`` opened for writing, or stdout when it is empty."""
    return (open(out, "w", newline="") if out
            else contextlib.nullcontext(sys.stdout))


def _emit(doc, out):
    with _open_out(out) as fh:
        fh.write(dumps(doc) + "\n")


def _in_units(doc, a):
    """The unit model's report ``doc`` in the units of its metric of scale
    ``a``: each ``_UNIT_POWERS`` key's number times sqrt(a) to its power."""
    if isinstance(doc, list):
        return [_in_units(v, a) for v in doc]
    unit = {1: math.sqrt(a), 2: a}
    return {k: _in_units(v, a) if v is None or k not in _UNIT_POWERS
            else v * unit[_UNIT_POWERS[k]]
            for k, v in doc.items()} if isinstance(doc, dict) else doc


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# Every option a subcommand may take; each subcommand names its own.
_OPTIONS = {
    "--metric": dict(help="metric JSON file or inline JSON object"),
    "--nx": dict(type=int, default=96),
    "--ny": dict(type=int, default=96),
    "--tol-int": dict(type=float, default=1e-10,
                      help="integration relative tolerance"),
    "--tol-id": dict(type=float, default=1e-5,
                     help="identity-residual tolerance"),
    "--tol-verdict": dict(type=float, default=1e-4,
                          help="verdict tolerance (relative, scaled by area)"),
    "--out": dict(help="output path (default: stdout)"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--seed": dict(type=int, default=0),
    "--strict": dict(action="store_true",
                     help="treat warnings as failures"),
    "--start": dict(default="1.047197551196598,0.0,0.7",
                    help="initial 'theta,phi,psi'"),
    "--t-end": dict(type=float, default=2 * math.pi),
    "--samples": dict(type=int),
    "--w-preset": dict(default="random",
                       choices=("zero", "minus-sin2", "x-sine", "random")),
    "--eps": dict(type=float, default=0.01),
}

_COMMANDS = {}


def _command(name, *options, **defaults):
    """Register the decorated function as subcommand ``name``, taking
    ``options`` (keys of ``_OPTIONS``) with ``defaults`` overriding
    theirs."""
    def register(fn):
        _COMMANDS[name] = (fn, options, defaults)
        return fn
    return register


def _start(text):
    """The (theta, phi, psi) floats of ``--start``."""
    try:
        theta, phi, psi = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError("--start must be 'theta,phi,psi'") from exc
    return theta, phi, psi


def _check_config(args):
    """Refuse the values of the given options that no subcommand can use."""
    opts = vars(args)
    if any(opts.get(k, 16) < 16 for k in ("nx", "ny")):
        raise UsageError("grid sizes must be at least 16")
    if any(opts.get(k, 16) > MAX_GRID for k in ("nx", "ny")):
        raise UsageError(f"grid sizes must be at most {MAX_GRID}")
    lo, hi = gd.TOL_INT_RANGE
    if "tol_int" in opts and not (lo <= opts["tol_int"] <= hi):
        raise UsageError(f"--tol-int must lie in [{lo:g}, {hi:g}]")
    ladder = [opts[k] for k in ("tol_int", "tol_id", "tol_verdict")
              if k in opts]
    if not (all(a < b for a, b in zip(ladder, ladder[1:]))
            and all(map(math.isfinite, ladder))):
        raise UsageError("tolerances must be finite and satisfy "
                         "integration < identity < verdict")
    if opts.get("format") == "csv" and not opts["out"]:
        raise UsageError("--out is required with --format csv")
    if opts.get("samples", 1) < 1:
        raise UsageError("--samples must be at least 1")
    if opts.get("samples", 1) > MAX_SAMPLES:
        raise UsageError(f"--samples must be at most {MAX_SAMPLES}")
    if not math.isfinite(opts.get("eps", 0.0)):
        raise UsageError("--eps must be finite")
    if "start" in opts and not all(map(math.isfinite, _start(opts["start"]))):
        raise UsageError("--start components must be finite")
    if opts.get("w_preset") == "random" and not opts["metric"]:
        for opt in ("nx", "ny"):
            if opts[opt] < RANDOM_MIN_GRID:
                raise UsageError(f"--{opt} must be at least "
                                 f"{RANDOM_MIN_GRID} with --w-preset random")
    if (opts.get("w_preset") in ("minus-sin2", "x-sine") and not opts["metric"]
            and opts["ny"] < SIN2_MIN_NY):
        raise UsageError(f"--ny must be at least {SIN2_MIN_NY} with "
                         f"--w-preset {opts['w_preset']}")


def _load_metric(spec):
    if spec is None:
        raise UsageError("--metric is required for this command")
    spec = spec.strip()
    if spec.startswith("{"):
        return mm.from_json(spec)
    with open(spec) as fh:
        return mm.from_json(fh.read())


def _return_grid(args):
    """The metric of ``args``, its scale a, its pinching constant and the
    return grid of its unit model over the equator; a metric the zero-flux
    lift does not cover is refused before anything is integrated."""
    model = _load_metric(args.metric)
    unit, a = mm.unit_model(model)
    delta = sa.require_lift_pinching(unit)
    grid = bs.compute_return_grid(bs.build_section(unit), nx=args.nx,
                                  ny=args.ny, rtol=args.tol_int)
    return model, a, delta, grid


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

@_command("metric-info", "--metric", "--out")
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


@_command("trace", "--metric", "--start", "--t-end", "--samples",
          "--tol-int", "--out", samples=200)
def cmd_trace(args):
    model = _load_metric(args.metric)
    state = gd.state_from_angle(model, *_start(args.start))
    if not (0.0 < args.t_end < math.inf):      # before times are built on it
        raise UsageError("t_end must be finite and positive")
    t_max = TRACE_MAX_LENGTHS * model.equator_length
    if args.t_end > t_max:
        raise UsageError(f"--t-end must be at most {t_max:.6g}, "
                         f"{TRACE_MAX_LENGTHS} equator lengths of the metric")
    ts = np.linspace(0.0, args.t_end, args.samples)
    rows = []
    for t, y in zip(ts, gd.integrate_geodesic(model, [state], args.t_end, ts,
                                              tol=args.tol_int)[:, 0]):
        try:
            s = gd.state_from_ambient(model, y[0:3], y[3:6])
            rows.append((t, s.theta, s.phi, *s.direction))
        except ChartDomainError:       # a pole passage has no chart angles
            rows.append((t, math.acos(max(-1, min(1, y[2]))), math.nan,
                         math.nan, math.nan))
    with _open_out(args.out) as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "theta", "phi", "dir1", "dir2"])
        wr.writerows([repr(float(v)) for v in row] for row in rows)
    return EXIT_PASS


@_command("return-map", "--metric", "--nx", "--ny", "--tol-int", "--tol-id",
          "--format", "--out")
def cmd_return_map(args):
    _, a, delta, grid = _return_grid(args)
    summary_path = args.out
    if args.format == "csv":
        grid.to_csv(args.out, math.sqrt(a))
        summary_path += ".json"
    doc = grid.summary(grid.section.model)
    doc["delta"] = delta
    _emit(_in_units(doc, a), summary_path)
    bad = doc["residuals"]["tau_action_max"] > args.tol_id
    return EXIT_FAIL if bad else EXIT_PASS


def _preset_generating(preset, eps, length, nx, ny, seed):
    if preset == "random":
        rng = np.random.default_rng(seed)
        return sc.random_generating_grid(rng, length=length, nx=nx, ny=ny)
    xs, Ys = sc.strip_mesh(length, nx, ny)
    if preset == "zero":
        w = np.zeros((nx, ny))
    elif preset == "minus-sin2":
        w = np.repeat(-eps * np.sin(Ys)[None, :] ** 2, nx, axis=0)
    else:   # "x-sine", the last of the parser's choices
        w = eps * np.sin(2 * math.pi * xs / length)[:, None] \
            * np.sin(Ys)[None, :] ** 2
    return sc.GeneratingGrid(length=length, xs=xs, Ys=Ys, w=w)


@_command("strip-report", "--metric", "--nx", "--ny", "--tol-int",
          "--w-preset", "--eps", "--seed", "--out")
def cmd_strip_report(args):
    a = 1.0
    if args.metric:
        model, a, _, grid = _return_grid(args)
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
    if sc.zero_flux(lift, fl):
        doc["cal"] = sc.calabi(lift)
        if lift.sup_distance_to_identity() > sc.IDENTITY_MAP_EPS:
            branch = "negative" if doc["cal"] <= 0.0 else "positive"
            point, sigma = sc.fixed_point_with_signed_action(lift, gen, branch)
            doc["fixed_points"].append(
                {"x": point[0], "y": point[1], "sigma": sigma})
    _emit(_in_units(doc, a), args.out)
    return EXIT_PASS


@_command("systolic-verify", "--metric", "--nx", "--ny", "--tol-int",
          "--tol-id", "--tol-verdict", "--strict", "--out")
def cmd_systolic_verify(args):
    model = _load_metric(args.metric)
    unit, a = mm.unit_model(model)
    report = sa.audit(unit, nx=args.nx, ny=args.ny, rtol=args.tol_int,
                      tol_identity=args.tol_id, tol_verdict=args.tol_verdict)
    _emit(dict(_in_units(report.to_dict(), a), metric=mm.to_json(model)),
          args.out)
    failed = not report.passed or (args.strict and report.warnings)
    return EXIT_FAIL if failed else EXIT_PASS


@_command("zoll-check", "--metric", "--samples", "--seed", "--tol-int",
          "--tol-id", "--out", samples=8)
def cmd_zoll_check(args):
    model = _load_metric(args.metric)
    unit, a = mm.unit_model(model)
    L = unit.equator_length
    rng = np.random.default_rng(args.seed)
    states = [gd.state_from_angle(unit, math.acos(rng.uniform(-0.95, 0.95)),
                                  rng.uniform(0.0, 2 * math.pi),
                                  rng.uniform(0.0, 2 * math.pi))
              for _ in range(args.samples)]       # theta, phi, psi in turn
    y0, y1 = gd.integrate_geodesic(unit, states, L, [0.0, L],
                                   tol=args.tol_int)
    worst = float(np.max(np.abs(y1 - y0)))
    closed = worst < args.tol_id
    doc = {
        "metric": mm.to_json(model),
        "common_period": L,
        "samples": args.samples,
        "max_closure_residual": worst,
        "all_closed": bool(closed),
    }
    _emit(_in_units(doc, a), args.out)
    return EXIT_PASS if closed else EXIT_FAIL


@_command("polygon-check", "--metric", "--nx", "--ny", "--tol-int", "--out")
def cmd_polygon_check(args):
    model, a, _, grid = _return_grid(args)
    doc = sa.two_gon_perimeter_check(grid.section.model, grid)
    doc["metric"] = mm.to_json(model)
    _emit(_in_units(doc, a), args.out)
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
    for name, (fn, options, defaults) in _COMMANDS.items():
        p = sub.add_parser(name)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(fn=fn, **defaults)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        _check_config(args)
        return args.fn(args)
    except BirkhofflabError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError, MemoryError) as exc:
        # from outside the package: malformed JSON, an unreadable or
        # unwritable file, or numpy or scipy refusing a value (among them
        # an array too large to allocate)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
