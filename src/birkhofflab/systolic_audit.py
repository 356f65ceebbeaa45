"""End-to-end verification of the systolic inequalities on a given metric.

The audited chain: shortest/longest candidate closed geodesics (symmetry
orbits plus fixed points of the return map, each re-verified by shooting),
the transversal-annulus return data over the shortest candidate, its
zero-flux lift with flux/action/Calabi data, and the verdicts

    l_min^2 <= pi * Area <= l_max^2,

with equality (within tolerance) detected exactly when the return map is
the identity, the signature of an all-geodesics-closed metric.

The candidate set is finite, so the reported l_min / l_max are extrema over
candidates, not global ones; on the symmetric test families the true
extremisers are in the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import birkhoff_section as bs
from . import geodesic_dynamics as gd
from . import metric_models as mm
from . import strip_calculus as sc
from .errors import AuditRefused, NoConvergenceError

_TWO_PI = 2.0 * math.pi

MONOTONE_PINCH_THRESHOLD = (4.0 + math.sqrt(7.0)) / 8.0
LIFT_PINCH_THRESHOLD = 0.25
ZOLL_SUP_TOL = 1e-5
_FIXED_SEED_TOL = 5e-3   # nodes moved less in x and y seed the shooting


@dataclass
class CandidateGeodesic:
    label: str
    length: float
    clairaut: float
    simple: bool
    primitive: bool
    closure_residual: float
    orbit: gd.ClosedOrbit = field(repr=False, default=None)


@dataclass
class SystolicReport:
    metric: dict
    delta: float
    area: float
    section_length: float
    l_min: float
    l_max_simple: float
    rho_sys: float
    flux: float
    cal: float
    residuals: dict
    verdicts: dict
    candidates: list
    warnings: list
    grid: object = field(default=None, repr=False)
    lift: object = field(default=None, repr=False)

    @property
    def passed(self):
        return bool(self.verdicts["lower_inequality"]
                    and self.verdicts["upper_inequality"]
                    and (not self.verdicts["zoll_flag"]
                         or self.verdicts["zoll_equalities"]))

    def to_dict(self):
        return {
            "metric": self.metric,
            "delta": self.delta,
            "area": self.area,
            "section_length": self.section_length,
            "l_min": self.l_min,
            "l_max_simple": self.l_max_simple,
            "rho_sys": self.rho_sys,
            "flux": self.flux,
            "cal": self.cal,
            "residuals": self.residuals,
            "verdicts": self.verdicts,
            "candidates": [{
                "label": c.label, "length": c.length,
                "clairaut": c.clairaut, "simple": c.simple,
                "primitive": c.primitive,
                "closure_residual": c.closure_residual,
            } for c in self.candidates],
            "warnings": self.warnings,
            "passed": self.passed,
        }


def simplicity_check(orbit, resolution=1e-6):
    """Whether a closed orbit is a simple primitive curve.

    Non-primitive covers (full-state revisits before the period) are
    reported as not simple so that length extrema ignore them.
    """
    if orbit.closure_residual > gd.CLOSURE_TARGET * 10:
        raise ValueError("orbit is not closed to the required residual")
    if bs.minimal_period_fold(orbit) > 1:
        return False
    return not bs.curve_self_intersects(orbit.states[:, 0:3], closed=True,
                                        resolution=resolution)


def _near_fixed(grid, tol):
    """Nodes that the lift moves by less than ``tol`` in x and in y."""
    return ((np.abs(grid.X - grid.xs[:, None]) < tol)
            & (np.abs(grid.Y - grid.ys[None, :]) < tol))


def _fixed_point_seeds(grid):
    """Representative (x, y) nodes of fixed-point clusters of the lift."""
    mask = _near_fixed(grid, _FIXED_SEED_TOL)
    mask[:, 0] = mask[:, -1] = False
    seeds = []
    cols = np.nonzero(mask.any(axis=0))[0]
    # one representative per contiguous block of y-rows
    if len(cols):
        blocks = np.split(cols, np.nonzero(np.diff(cols) > 1)[0] + 1)
        for blk in blocks:
            j = int(blk[len(blk) // 2])
            i = int(np.nonzero(mask[:, j])[0][0])
            seeds.append((float(grid.xs[i]), float(grid.ys[j])))
    return seeds


def candidate_closed_geodesics(model, grid=None):
    """Deduplicated candidate closed geodesics with verified closure.

    Symmetry orbits (equator, meridian) are always included; fixed points
    of the return map contribute additional seeds, each refined by shooting.
    Fixed points of the lift determine closed geodesics of length L + sigma,
    which is how the candidate list stays consistent with the action data.
    """
    cands = []
    _push_candidate(cands, "equator", gd.equator_orbit(model))
    _push_candidate(cands, "meridian", gd.meridian_orbit(model))
    if grid is not None:
        lift = bs.zero_flux_lift(grid, arc_check_nodes=0)
        _extend_with_fixed_points(cands, model, grid,
                                  lift.sup_distance_to_identity())
    return cands


def _push_candidate(cands, label, orbit):
    for c in cands:
        if (abs(c.length - orbit.length) < 1e-8
                and abs(c.clairaut - orbit.clairaut) < 1e-6):
            return
    fold = bs.minimal_period_fold(orbit)
    cands.append(CandidateGeodesic(
        label=label, length=orbit.length, clairaut=orbit.clairaut,
        simple=simplicity_check(orbit), primitive=(fold == 1),
        closure_residual=orbit.closure_residual, orbit=orbit))


def _extend_with_fixed_points(cands, model, grid, sup_id):
    """Append the closed geodesics shot from fixed points of the return map
    on ``grid`` to ``cands`` (nothing when the map is the identity, that is
    when its sup distance ``sup_id`` to the identity is below
    ``ZOLL_SUP_TOL``)."""
    if sup_id >= ZOLL_SUP_TOL:
        sec = grid.section
        for (x, y) in _fixed_point_seeds(grid):
            u, w = sec.section_vector(np.array([x]), np.array([y]))
            try:
                state = gd.state_from_ambient(model, u[0], w[0])
                i = int(round(x / grid.L * grid.nx)) % grid.nx
                j = int(np.argmin(np.abs(grid.ys - y)))
                guess = float(grid.tau[i, j])
                orbit = gd.find_closed_geodesic(model, state, guess)
            except NoConvergenceError:
                continue
            _push_candidate(cands, f"fixed-point({x:.3f},{y:.3f})", orbit)


def two_gon_perimeter_check(model, grid, tol=1e-6):
    """Perimeter audit of the geodesic two-gons cut out by the return arcs.

    Every interior node contributes the first-leg arc (length tau_+) closed
    up by each of the two base-geodesic segments between its endpoints; with
    H = min K, all perimeters must satisfy perimeter * sqrt(H) / (2 pi) <= 1.
    """
    grid.require_clean()
    kmin, _ = mm.curvature_extremes(model)
    L = grid.L
    larc = grid.tau_plus[:, 1:-1]
    seg1 = grid.rho_plus[:, 1:-1]
    seg2 = L - seg1
    peri = np.concatenate([larc + seg1, larc + seg2])
    ratios = peri * math.sqrt(kmin) / _TWO_PI
    worst = float(np.max(ratios))
    return {"worst_ratio": worst, "samples": int(ratios.size),
            "violations": int(np.sum(ratios > 1.0 + tol)),
            "passed": bool(worst <= 1.0 + tol)}


def audit(model, nx=96, ny=96, rtol=1e-10, atol=1e-12, tol_identity=1e-5,
          tol_verdict=1e-4):
    """Full systolic verification; raises :class:`AuditRefused` when the
    pinching hypothesis behind the lift construction fails."""
    warnings = []
    delta = mm.pinching_constant(model)
    if delta <= LIFT_PINCH_THRESHOLD:
        raise AuditRefused(
            f"pinching constant {delta:.4f} is not above "
            f"{LIFT_PINCH_THRESHOLD}; the zero-flux lift construction is "
            "not guaranteed")
    monotone_guaranteed = delta > MONOTONE_PINCH_THRESHOLD
    if not monotone_guaranteed:
        warnings.append(
            f"pinching {delta:.4f} below the monotone-twist threshold "
            f"{MONOTONE_PINCH_THRESHOLD:.4f}; monotonicity is checked, "
            "not guaranteed")

    area_val = mm.area(model)
    target = math.pi * area_val

    # Section over the shortest symmetry orbit.
    cands = candidate_closed_geodesics(model)
    base = min((c for c in cands if c.simple), key=lambda c: c.length)
    section = bs.build_section(model, base.orbit)
    grid = bs.compute_return_grid(section, nx=nx, ny=ny, rtol=rtol, atol=atol)
    lift = bs.zero_flux_lift(grid)
    act = sc.action(lift)
    flux_val = sc.flux(lift)
    cal_val = sc.calabi(lift, action_grid=act)
    mono = bs.monotonicity_check(grid)
    if monotone_guaranteed and not mono.monotone:
        warnings.append("monotonicity failed despite the pinching guarantee")

    sup_id = lift.sup_distance_to_identity()
    zoll_flag = sup_id < ZOLL_SUP_TOL
    _extend_with_fixed_points(cands, model, grid, sup_id)
    lengths = [c.length for c in cands if c.primitive]
    l_min = min(lengths)
    l_max_simple = max(c.length for c in cands if c.simple)

    residuals = {
        "tau_action_max": bs.verify_tau_action_identity(grid, lift, act),
        "area_identity_rel": bs.verify_area_identity(grid, lift, model,
                                                     action_grid=act),
        "contact_volume_rel": bs.contact_volume_check(grid, model),
        "flux_abs": abs(flux_val),
        "monotone_crosscheck_max": mono.max_discrepancy,
        "omega_preservation_max": sc.omega_preservation_residual(lift),
        "boundary_consistency_max": bs.boundary_consistency_check(grid),
        "sup_distance_to_identity": sup_id,
        "lower_margin": target - l_min ** 2,
        "upper_margin": l_max_simple ** 2 - target,
    }

    tol_area = tol_verdict * area_val
    verdicts = {
        "lower_inequality": bool(l_min ** 2 <= target + tol_area),
        "upper_inequality": bool(l_max_simple ** 2 >= target - tol_area),
        "zoll_flag": bool(zoll_flag),
        "monotone": bool(mono.monotone),
        "monotone_guaranteed": bool(monotone_guaranteed),
        "zoll_equalities": True,
    }
    if zoll_flag:
        eq_low = abs(l_min ** 2 - target) / target
        eq_high = abs(l_max_simple ** 2 - target) / target
        verdicts["zoll_equalities"] = bool(eq_low < 1e-4 and eq_high < 1e-4)

    # Equality forces an identity return map (contrapositive check).
    near_low = abs(l_min ** 2 - target) < 1e-6 * area_val
    near_high = abs(l_max_simple ** 2 - target) < 1e-6 * area_val
    if (near_low or near_high) and sup_id >= 1e-4:
        warnings.append("near-equality of a systolic bound with a return "
                        "map far from the identity")

    # No fixed point of the lift may beat the shortest candidate.
    fixed = _near_fixed(grid, 1e-6)
    if np.any(fixed):
        shortest_fixed = float(np.min(grid.L + act.sigma[fixed]))
        if shortest_fixed < l_min - 1e-5:
            warnings.append(
                f"fixed point with length {shortest_fixed:.8f} beats the "
                f"candidate minimum {l_min:.8f}")

    # Curvature lower bound on closed-geodesic length.
    _, kmax = mm.curvature_extremes(model)
    kling = _TWO_PI / math.sqrt(kmax)
    for c in cands:
        if c.length < kling - 1e-6:
            warnings.append(f"candidate {c.label} shorter than the "
                            "curvature bound")

    if residuals["tau_action_max"] > tol_identity:
        warnings.append("return-time/action identity residual exceeds "
                        "tolerance")
    if residuals["area_identity_rel"] > tol_verdict:
        warnings.append("area/Calabi identity residual exceeds tolerance")

    sup_near_id = ZOLL_SUP_TOL <= sup_id < 1e-3
    if sup_near_id:
        warnings.append("return map is close to the identity without "
                        "meeting the flag threshold; verdicts may be "
                        "sensitive to the mesh")

    return SystolicReport(
        metric=mm.to_json(model), delta=delta, area=area_val,
        section_length=grid.L, l_min=l_min, l_max_simple=l_max_simple,
        rho_sys=l_min ** 2 / area_val, flux=flux_val, cal=cal_val,
        residuals=residuals, verdicts=verdicts, candidates=cands,
        warnings=warnings, grid=grid, lift=lift)
