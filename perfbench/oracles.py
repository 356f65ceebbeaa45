"""Closed-form oracles for the spheroid x^2 + y^2 + (z/c)^2 = 1 and the output
checks that compare a ``systolic-verify`` report or a strip map against them.

Nothing here imports ``birkhofflab``: the formulas are independent of the
program they check.  Each ``check_*`` function returns a list of failure
messages, empty when the output is correct.
"""

import math

from scipy.special import ellipe

TWO_PI = 2.0 * math.pi

# Acceptance tolerances of tests/test_acceptance.py (criteria 3 and 5); the
# benchmark gates no looser than these.
TAU_ACTION_MAX = 1e-5
AREA_IDENTITY_REL = 1e-4
DELTA_ABS = 1e-8
STRIP_TOL = 1e-6
# Oracle tolerances.  Area is a Gauss-Legendre quadrature of an analytic
# integrand and the lengths come from shooting closed to 1e-10, so both sit
# near rounding; CAL carries the grid's discretisation error (3.5e-7 relative
# at 96x96 for c = 0.97 and c = 1.03).
AREA_REL = 1e-10
LENGTH_REL = 1e-9
CAL_REL = 1e-5
CAL_ABS = 1e-8


def equator_length(c):
    """The equator is the unit circle for every c."""
    return TWO_PI


def meridian_length(c):
    """Perimeter of the ellipse with semi-axes 1 and c (scipy's ``ellipe``
    takes the parameter m = k^2)."""
    hi, lo = max(1.0, c), min(1.0, c)
    return 4.0 * hi * float(ellipe(1.0 - (lo / hi) ** 2))


def spheroid_area(c):
    """Surface area: prolate (c > 1) and oblate (c < 1) closed forms, 4 pi at
    c = 1."""
    if c == 1.0:
        return 4.0 * math.pi
    if c > 1.0:
        e = math.sqrt(1.0 - 1.0 / (c * c))
        return TWO_PI * (1.0 + c * math.asin(e) / e)
    e = math.sqrt(1.0 - c * c)
    return TWO_PI * (1.0 + c * c * math.atanh(e) / e)


def pinching(c):
    """min K / max K: K = c^2 at the poles and 1/c^2 on the equator."""
    return min(c, 1.0 / c) ** 4


def base_length(c):
    """Length of the section's base, the shortest simple closed geodesic."""
    return min(equator_length(c), meridian_length(c))


def calabi(c):
    """CAL from the bridge identity pi * Area = L^2 + L * CAL."""
    L = base_length(c)
    return (math.pi * spheroid_area(c) - L * L) / L


def _rel(value, exact):
    return abs(value - exact) / abs(exact)


def check_spheroid_report(c, report):
    """Failures of a parsed ``systolic-verify`` report on spheroid ``c``."""
    fails = []
    res = report["residuals"]
    if report["passed"] is not True:
        fails.append("report did not pass")
    if not res["tau_action_max"] < TAU_ACTION_MAX:
        fails.append(f"tau_action_max {res['tau_action_max']:.3g}")
    if not res["area_identity_rel"] < AREA_IDENTITY_REL:
        fails.append(f"area_identity_rel {res['area_identity_rel']:.3g}")
    if not abs(report["delta"] - pinching(c)) < DELTA_ABS:
        fails.append(f"delta {report['delta']!r} != {pinching(c)!r}")
    lengths = sorted((equator_length(c), meridian_length(c)))
    for key, exact, tol in (
            ("area", spheroid_area(c), AREA_REL),
            ("section_length", lengths[0], LENGTH_REL),
            ("l_min", lengths[0], LENGTH_REL),
            ("l_max_simple", lengths[1], LENGTH_REL)):
        if not _rel(report[key], exact) < tol:
            fails.append(f"{key} {report[key]!r} != {exact!r}")
    cal = calabi(c)
    if not abs(report["cal"] - cal) < CAL_REL * abs(cal) + CAL_ABS:
        fails.append(f"cal {report['cal']!r} != {cal!r}")
    return fails


def check_strip_map(net_flux, gen_w, back_w, flux, flux_path, boundary,
                    signs=None):
    """Failures of one strip map against acceptance criterion 5.

    ``boundary`` is the (lower, upper) boundary mean of the recovered
    generating function; ``signs`` is (cal, sigma, sigma_other_branch) for a
    zero-flux map that ran the fixed-point theorem, with sigma_other_branch
    None where W has no extremum of the mirrored sign.  The generating term
    -net_flux * cos(Y) fixes the flux in closed form.
    """
    fails = []
    if not float(abs(back_w - gen_w).max()) < STRIP_TOL:
        fails.append("generating function does not round-trip")
    if not abs(flux - net_flux) < STRIP_TOL:
        fails.append(f"flux {flux!r} != {net_flux!r}")
    if not abs(flux - flux_path) < STRIP_TOL:
        fails.append("area flux and boundary-path flux disagree")
    lo, hi = boundary
    if not abs((hi - lo) - 2.0 * flux) < STRIP_TOL:
        fails.append("boundary values disagree with the flux")
    if signs is not None:
        cal, sigma, sigma_other = signs
        if not (sigma < 0 if cal <= 0 else sigma > 0):
            fails.append("fixed-point action sign contradicts the Calabi sign")
        if sigma_other is not None and not (sigma_other > 0 if cal <= 0
                                            else sigma_other < 0):
            fails.append("mirrored fixed-point action has the Calabi sign")
    return fails
