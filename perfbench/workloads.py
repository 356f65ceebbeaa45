"""Benchmark workloads: seeded inputs and one timed operation each.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returned, in this one process.  ``run_op``
returns an :class:`OpResult`, whose ``items`` hold the latency and the
failure messages of each item, and the report text for an audit (None for
strip maps); the program's output is checked after each item's timed calls.
"""

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from birkhofflab import cli
from birkhofflab import strip_calculus as sc

import oracles

# 96x96 is the CLI default grid.
GRID = 96
# Maps per strip-maps operation: half zero-flux, half with net flux.
BATCH_MAPS = 20
NET_FLUX_MAX = 0.05


@dataclass
class Item:
    seconds: float
    fails: list


@dataclass
class OpResult:
    items: list = field(default_factory=list)

    @property
    def seconds(self):
        return math.fsum(it.seconds for it in self.items)


@dataclass(frozen=True)
class AuditInputs:
    c: float
    argv: tuple


def audit_inputs(seed, c_lo, c_hi, nx=GRID, ny=GRID):
    c = random.Random(seed).uniform(c_lo, c_hi)
    metric = json.dumps({"kind": "spheroid", "c": c})
    argv = ("systolic-verify", "--metric", metric,
            "--nx", str(nx), "--ny", str(ny))
    return AuditInputs(c=c, argv=argv)


def run_audit(inputs):
    """One in-process ``birkhofflab systolic-verify``; its stdout is the
    report, which is returned with the result."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(inputs.argv))
    except Exception as exc:   # a raising audit is a failed operation
        return OpResult([Item(time.perf_counter() - t0,
                              [f"{type(exc).__name__}: {exc}"])]), None
    seconds = time.perf_counter() - t0
    text = out.getvalue()
    if code != 0:
        fails = [f"systolic-verify exited with {code}"]
    else:
        fails = oracles.check_spheroid_report(inputs.c, json.loads(text))
    return OpResult([Item(seconds, fails)]), text


@dataclass(frozen=True)
class StripInputs:
    net_flux: tuple
    gens: tuple


def strip_inputs(seed, n_maps=BATCH_MAPS):
    rng = np.random.default_rng(seed)
    net_flux = tuple(0.0 if k % 2 == 0
                     else float(rng.uniform(-NET_FLUX_MAX, NET_FLUX_MAX))
                     for k in range(n_maps))
    gens = tuple(sc.random_generating_grid(rng, nx=GRID, ny=GRID, net_flux=f)
                 for f in net_flux)
    return StripInputs(net_flux=net_flux, gens=gens)


def takes_sign(gen, branch):
    """Whether W takes the branch's sign inside the strip.

    W vanishes on both boundary rows, so its interior minimum (maximum) is a
    fixed point with negative (positive) action exactly when W is negative
    (positive) somewhere inside.  The fixed-point theorem guarantees only the
    branch of the Calabi sign: a single-signed W has no mirrored extremum.
    """
    interior = gen.w[:, 1:-1]
    return bool(interior.min() < 0.0 if branch == "negative"
                else interior.max() > 0.0)


def _strip_map(gen, zero_flux):
    grid = sc.build_from_generating(gen)
    back = sc.generating_from_map(grid)
    fl = sc.flux(grid)
    fl_path = sc.flux_boundary_path(grid)
    signs = None
    if zero_flux and grid.sup_distance_to_identity() > sc.IDENTITY_MAP_EPS:
        act = sc.action(grid)
        cal = sc.calabi(grid, action_grid=act)
        _, sigma = sc.fixed_point_with_signed_action(grid, gen)
        other = "positive" if cal <= 0 else "negative"
        sigma_other = None
        if takes_sign(gen, other):
            _, sigma_other = sc.fixed_point_with_signed_action(
                grid, gen, branch=other)
        signs = (cal, sigma, sigma_other)
    return back, fl, fl_path, signs


def run_strip_maps(inputs):
    """The batch of strip maps; each map is one timed item."""
    op = OpResult()
    for f, gen in zip(inputs.net_flux, inputs.gens):
        t0 = time.perf_counter()
        try:
            back, fl, fl_path, signs = _strip_map(gen, f == 0.0)
        except Exception as exc:   # a raising map is a failed operation
            op.items.append(Item(time.perf_counter() - t0,
                                 [f"{type(exc).__name__}: {exc}"]))
            continue
        seconds = time.perf_counter() - t0
        op.items.append(Item(seconds, oracles.check_strip_map(
            f, gen.w, back.w, fl, fl_path, back.boundary_values(), signs)))
    return op, None


@dataclass(frozen=True)
class Workload:
    make_inputs: object
    run_op: object


WORKLOADS = {
    "audit-prolate": Workload(
        lambda seed: audit_inputs(seed, 1.025, 1.035), run_audit),
    "audit-oblate": Workload(
        lambda seed: audit_inputs(seed, 0.965, 0.975), run_audit),
    "strip-maps": Workload(strip_inputs, run_strip_maps),
}
