"""End-to-end verification of the systolic inequalities on a given metric.

The audited chain: shortest/longest candidate closed geodesics, the
transversal-annulus return data over the shortest candidate, its zero-flux
lift with flux/action/Calabi data, and the verdicts

    l_min^2 <= pi * Area <= l_max^2,

with equality (within tolerance) detected exactly when the return map is
the identity, the signature of an all-geodesics-closed metric.

The candidates are the symmetry orbits, the equator in closed form (the
circle z = 0) and the meridian shot closed, plus the closed geodesics of
the fixed-point theorem: the interior extrema of the generating function W
of the lift are fixed points (x*, y*) of action sigma*, closing up
geodesics of length L + sigma* whose Clairaut value is that of the annulus
vector at (x*, y*).  A fixed point whose prediction matches a listed
candidate adds nothing; only an unmatched one is shot, from its predicted
state.

The candidate set is finite, so the reported l_min / l_max are extrema over
candidates, not global ones; on the symmetric test families the true
extremisers are in the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import birkhoff_section as bs
from . import geodesic_dynamics as gd
from . import metric_models as mm
from . import strip_calculus as sc
from .errors import (AuditRefused, ChartDomainError, InternalConsistencyError,
                     NoConvergenceError, NonIntegrableFormError,
                     PreconditionError)

_TWO_PI = 2.0 * math.pi

MONOTONE_PINCH_THRESHOLD = (4.0 + math.sqrt(7.0)) / 8.0
LIFT_PINCH_THRESHOLD = 0.25
ZOLL_SUP_TOL = 1e-5
# A fixed point's predicted length L + sigma* errs by the grid's
# |tau - L - sigma| residual: measured 0.34-1.09 times tau_action_max on
# spheroids c = 0.97, 1.03, 1.1 at 32x64, 32x65 and 48x64 (and c = 0.97,
# 1.03 at 96x96), so a match within ten times it has a margin of nine.
_LENGTH_MATCH_FACTOR = 10.0
_CLAIRAUT_MATCH = 1e-6
_PERIMETER_TOL = 1e-6     # slack of the two-gon perimeter bound
# Fewest grid columns over a meridian base: the spheroid c = 0.97 lift at
# 64 rows has an action closure residual of 2.98e-5 at 16 columns (above
# strip_calculus.IDENTITY_TOL), 1.7e-7 at 24 and 1.2e-8 at 32.
MERIDIAN_MIN_NX = 24


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
    fixed_point: dict
    warnings: list
    grid: object = field(default=None, repr=False)

    @property
    def passed(self):
        return bool(self.verdicts["lower_inequality"]
                    and self.verdicts["upper_inequality"]
                    and (not self.verdicts["zoll_flag"]
                         or self.verdicts["zoll_equalities"]))

    def to_dict(self):
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "grid"}
        doc["candidates"] = [{f.name: getattr(c, f.name) for f in fields(c)
                              if f.name != "orbit"} for c in self.candidates]
        doc["passed"] = self.passed
        return doc


def simplicity_check(orbit):
    """Whether a closed orbit is a simple primitive curve.

    Non-primitive covers (full-state revisits before the period) are
    reported as not simple so that length extrema ignore them.
    """
    if orbit.closure_residual > gd.CLOSURE_TARGET * 10:
        raise PreconditionError("orbit is not closed to the required "
                                "residual")
    if bs.minimal_period_fold(orbit) > 1:
        return False
    return not bs.curve_self_intersects(orbit.states[:, 0:3], closed=True)


def candidate_closed_geodesics(model):
    """The symmetry orbits, deduplicated: the equator in closed form and
    the meridian shot closed.  Its tolerances are set for a = 1; the CLI
    normalises first."""
    cands = []
    for label, orbit in (("equator", gd.equator_orbit(model)),
                         ("meridian", gd.meridian_orbit(model))):
        _push_candidate(cands, label, orbit)
    return cands


def _push_candidate(cands, label, orbit):
    """Append ``orbit`` unless a listed candidate has its length and
    Clairaut value to 1e-8 and 1e-6; returns the label it is under."""
    for c in cands:
        if (abs(c.length - orbit.length) < 1e-8
                and abs(c.clairaut - orbit.clairaut) < 1e-6):
            return c.label
    fold = bs.minimal_period_fold(orbit)
    cands.append(CandidateGeodesic(
        label=label, length=orbit.length, clairaut=orbit.clairaut,
        simple=simplicity_check(orbit), primitive=(fold == 1),
        closure_residual=orbit.closure_residual, orbit=orbit))
    return label


def _fixed_point_candidates(cands, model, grid, cal, tau_action_max,
                            warnings):
    """The report's ``fixed_point`` block, extending ``cands`` by the closed
    geodesics of the fixed-point theorem that no candidate matches.

    The Calabi-sign branch always runs; the mirrored one only where W takes
    its sign inside the strip beyond ``_LENGTH_MATCH_FACTOR *
    tau_action_max``: a fixed point with a smaller |W| predicts a length
    L + sigma* indistinguishable from the base's, so W's sign below that
    floor is rounding noise.  Each fixed point predicts a length L + sigma*
    and a Clairaut value, matched against the candidates within
    ``_LENGTH_MATCH_FACTOR * tau_action_max`` and ``_CLAIRAUT_MATCH``
    (in absolute value: a fixed point may sit on a candidate traversed
    backwards).  An unmatched one is shot from its predicted state; a
    candidate that cannot be shot is recorded as unverified.
    """
    block = {"cal": cal, "branches": [], "refused": None}
    if grid.sup_distance_to_identity() < ZOLL_SUP_TOL:
        block["refused"] = "the return map is the identity"
        return block
    try:
        gen = sc.generating_from_map(grid)
    except (PreconditionError, NonIntegrableFormError) as exc:
        block["refused"] = str(exc)
        warnings.append(f"no fixed-point candidates: {exc}")
        return block
    interior = gen.w[:, 1:-1]
    floor = _LENGTH_MATCH_FACTOR * tau_action_max
    takes_sign = {"negative": interior.min() < -floor,
                  "positive": interior.max() > floor}
    calabi_sign, mirrored = (("negative", "positive") if cal <= 0.0
                             else ("positive", "negative"))
    for branch in (calabi_sign, mirrored):
        entry = {"branch": branch, "calabi_sign": branch == calabi_sign,
                 "x": None, "y": None, "sigma": None, "length": None,
                 "clairaut": None}
        block["branches"].append(entry)
        if branch == mirrored and not takes_sign[branch]:
            entry["match"] = (f"refused: W takes no {branch} value inside "
                              f"the strip beyond the noise floor {floor:.3g}")
            continue
        try:
            (x, y), sigma = sc.fixed_point_with_signed_action(
                grid, gen, branch=branch)
        except InternalConsistencyError as exc:
            entry["match"] = f"refused: {exc}"
            if branch == calabi_sign:
                warnings.append(f"fixed-point theorem failed: {exc}")
            continue
        u, w = grid.section.section_vector(np.array([x]), np.array([y]))
        length = grid.length + sigma
        clairaut = gd.clairaut_invariant(model, np.concatenate([u[0], w[0]]))
        entry.update(x=x, y=y, sigma=sigma, length=length, clairaut=clairaut)
        entry["match"] = next(
            (c.label for c in cands
             if abs(c.length - length)
             <= _LENGTH_MATCH_FACTOR * tau_action_max
             and abs(abs(c.clairaut) - abs(clairaut))
             <= _CLAIRAUT_MATCH),
            None)
        if entry["match"] is None:
            try:
                orbit = gd.find_closed_geodesic(
                    model, gd.state_from_ambient(model, u[0], w[0]), length)
            except (ChartDomainError, NoConvergenceError) as exc:
                entry["match"] = f"unverified: {exc}"
                warnings.append(
                    f"fixed point ({x:.6f}, {y:.6f}) of predicted length "
                    f"{length:.8f} is unverified: {exc}")
                continue
            entry["match"] = _push_candidate(
                cands, f"fixed-point({x:.3f},{y:.3f})", orbit)
    return block


def two_gon_perimeter_check(model, grid):
    """Perimeter audit of the geodesic two-gons cut out by the return arcs.

    Every interior node contributes the first-leg arc (length tau_+) closed
    up by each of the two base-geodesic segments between its endpoints; with
    H = min K, all perimeters must satisfy perimeter * sqrt(H) / (2 pi) <= 1
    up to ``_PERIMETER_TOL``, that is stay below ``perimeter_bound``
    2 pi / sqrt(H).
    """
    kmin, _ = mm.curvature_extremes(model)
    L = grid.length
    larc = grid.tau_plus[:, 1:-1]
    seg1 = grid.rho_plus[:, 1:-1]
    seg2 = L - seg1
    peri = np.concatenate([larc + seg1, larc + seg2])
    ratios = peri * math.sqrt(kmin) / _TWO_PI
    worst = float(np.max(ratios))
    return {"worst_ratio": worst, "samples": int(ratios.size),
            "violations": int(np.sum(ratios > 1.0 + _PERIMETER_TOL)),
            "passed": bool(worst <= 1.0 + _PERIMETER_TOL),
            "perimeter_bound": _TWO_PI / math.sqrt(kmin)}


def require_lift_pinching(model):
    """The pinching constant delta = min K / max K of ``model``; raises
    :class:`AuditRefused` unless it is above ``LIFT_PINCH_THRESHOLD``, the
    hypothesis of the zero-flux lift construction."""
    delta = mm.pinching_constant(model)
    if delta <= LIFT_PINCH_THRESHOLD:
        raise AuditRefused(
            f"pinching constant {delta:.4f} is not above "
            f"{LIFT_PINCH_THRESHOLD}; the zero-flux lift construction is "
            "not guaranteed")
    return delta


def audit(model, nx=96, ny=96, rtol=1e-10, tol_identity=1e-5,
          tol_verdict=1e-4):
    """Full systolic verification; raises :class:`AuditRefused` when the
    pinching hypothesis behind the lift construction fails, and
    :class:`PreconditionError` before any integration when ``ny`` is too
    small for the monotonicity check, and before the return grid when the
    base is a meridian and ``nx`` is below ``MERIDIAN_MIN_NX``.  Its
    tolerances, ``tol_identity`` among them, are set for a = 1; the CLI
    normalises first."""
    warnings = []
    delta = require_lift_pinching(model)
    bs.require_monotonicity_rows(ny)
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
    if base.label == "meridian" and nx < MERIDIAN_MIN_NX:
        raise PreconditionError(
            f"a meridian base needs --nx >= {MERIDIAN_MIN_NX} (got {nx}): "
            "coarser grids do not resolve the x-dependence of its return map")
    section = bs.build_section(model, base.orbit)
    grid = bs.compute_return_grid(section, nx=nx, ny=ny, rtol=rtol)
    numbers = bs.lift_numbers(grid, area_val)
    flux_val, cal_val = numbers["flux"], numbers["cal"]
    mono = bs.monotonicity_check(grid)
    if monotone_guaranteed and not mono.monotone:
        warnings.append("monotonicity failed despite the pinching guarantee")

    sup_id = numbers["sup_distance_to_identity"]
    zoll_flag = sup_id < ZOLL_SUP_TOL
    tau_action_max = numbers["residuals"]["tau_action_max"]
    fixed_point = _fixed_point_candidates(cands, model, grid, cal_val,
                                          tau_action_max, warnings)
    lengths = [c.length for c in cands if c.primitive]
    l_min = min(lengths)
    l_max_simple = max(c.length for c in cands if c.simple)

    residuals = {
        **numbers["residuals"],
        "flux_abs": abs(flux_val),
        "monotone_crosscheck_max": mono.max_discrepancy,
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

    # No fixed point may beat the shortest candidate; the negative-action
    # one sits at the global minimum of W, so it is the shortest.
    for b in fixed_point["branches"]:
        if (b["branch"] == "negative" and b["length"] is not None
                and b["length"] < l_min - 1e-5):
            warnings.append(
                f"fixed point with length {b['length']:.8f} beats the "
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
        section_length=grid.length, l_min=l_min, l_max_simple=l_max_simple,
        rho_sys=l_min ** 2 / area_val, flux=flux_val, cal=cal_val,
        residuals=residuals, verdicts=verdicts, candidates=cands,
        fixed_point=fixed_point, warnings=warnings, grid=grid)
