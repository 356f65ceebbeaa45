"""Rotationally symmetric metrics on the two-sphere.

Every model lives on the unit chart sphere M = {u in R^3 : |u| = 1} and is
described by the smooth tensor

    g_u(v, w) = a * (v . w) + b(u3) * v3 * w3,        v, w tangent at u,

with a > 0 constant and b a polynomial in the height z = u3.  This covers

* the round sphere of radius r        (a = r^2, b = 0),
* the spheroid x^2 + y^2 + (z/c)^2 = 1 pulled back to the chart sphere
  by u -> (u1, u2, c*u3)              (a = 1, b = c^2 - 1),
* rotation-invariant Zoll-type profiles
  (1 + h(cos(theta)))^2 dtheta^2 + sin(theta)^2 dphi^2 with h an odd
  polynomial vanishing at +-1         (a = 1, b = p * (2 + h), h = (1-z^2) p).

Because b extends smoothly across the poles, the chart has no coordinate
singularity anywhere: geodesics, curvature, and Jacobi data are all smooth
functions of the ambient representation.

In the classical colatitude/azimuth chart (theta, phi) the line element is
E(z) dtheta^2 + a sin(theta)^2 dphi^2 with z = cos(theta) and

    E(z) = a + b(z) (1 - z^2),

so the Gaussian curvature reduces to the one-variable formula

    K(z) = 1/E - z E'(z) / (2 E^2),

and the total area to 2 pi sqrt(a) * integral of sqrt(E) over z in [-1, 1].
Every integral of the profile (the area, the meridian's length, a
section's return data) runs along z = P cos(eta) + Q sin(eta) with a smooth 2 pi-periodic
integrand, whose antiderivative one FFT gives (profile_antiderivatives).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InternalConsistencyError, ModelInvalidError

_TWO_PI = 2.0 * math.pi

# Admissibility of a model is checked on this fixed z-grid at construction.
_VALIDATION_SAMPLES = 1024
# Kind prefix of a model scaled by MetricModel.rescale.
_RESCALED = "rescaled-"
_PARAM_LIMIT = 1e150    # larger parameters are refused (squares overflow)
_CURVATURE_SAMPLES = 512  # heights sampled by curvature_extremes
# Profile quadrature (see profile_antiderivatives): the first and the last
# sample count of a Fourier series, and the coefficient size, in units of
# the integrand's scale, below which a series counts as decayed to rounding.
_SERIES_SAMPLES = (16, 1024)
_SERIES_TOL = 1e-15


@dataclass(frozen=True)
class MetricModel:
    """A revolution metric in the (a, b) normal form described above.

    Instances are immutable; all operations on them are pure functions, so a
    model can be shared freely across parallel workers.
    """

    kind: str
    params: dict
    a: float
    b_coef: np.ndarray          # polynomial coefficients of b in z (ascending)
    bp_coef: np.ndarray = field(default=None)  # derivative coefficients

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.b_coef, dtype=float))
        if not (self.a > 0.0 and np.all(np.isfinite([self.a, *b]))):
            raise ModelInvalidError("metric scale a must be positive and "
                                    "the coefficients finite")
        object.__setattr__(self, "b_coef", b)
        object.__setattr__(self, "bp_coef", npoly.polyder(b) if b.size > 1
                           else np.zeros(1))
        ks = self.curvature(np.linspace(-1.0, 1.0, _VALIDATION_SAMPLES))
        if not np.all(ks > 0.0):
            raise ModelInvalidError(
                f"Gaussian curvature is not positive everywhere "
                f"(min sampled K = {ks.min():.6g})")

    # -- pointwise coefficient data ------------------------------------

    def b(self, z):
        return npoly.polyval(z, self.b_coef)

    def bprime(self, z):
        return npoly.polyval(z, self.bp_coef)

    def profile_E(self, z):
        """Meridian coefficient E(z) = a + b(z)(1 - z^2); equals g(e_theta, e_theta)."""
        z = np.asarray(z, dtype=float)
        return self.a + self.b(z) * (1.0 - z * z)

    def profile_E_prime(self, z):
        z = np.asarray(z, dtype=float)
        return self.bprime(z) * (1.0 - z * z) - 2.0 * z * self.b(z)

    def profile_G(self, z):
        """Azimuthal coefficient G = a (1 - z^2) = a sin(theta)^2."""
        z = np.asarray(z, dtype=float)
        return self.a * (1.0 - z * z)

    def curvature(self, z):
        """Gaussian curvature as a function of the height z = cos(theta)."""
        E = self.profile_E(z)
        return 1.0 / E - np.asarray(z) * self.profile_E_prime(z) / (2.0 * E * E)

    # -- tangent-space metric ------------------------------------------

    def dot(self, u, v, w):
        """g-inner product of tangent vectors v, w at chart point(s) u."""
        z = u[..., 2]
        return (self.a * np.einsum("...i,...i->...", v, w)
                + self.b(z) * v[..., 2] * w[..., 2])

    # -- derived global quantities -------------------------------------

    @property
    def equator_length(self):
        """Length of the equatorial circle z = 0 (always a closed geodesic)."""
        return _TWO_PI * math.sqrt(self.a)

    def meridian_speed(self, z):
        """sqrt(E(z)): arclength per unit of colatitude at height z."""
        return np.sqrt(self.profile_E(z))

    def meridian_circuit_length(self):
        """Length of the closed meridian geodesic (full theta circuit): the
        integral of the meridian speed over a period of z = cos(eta)."""
        return _meridian_integral(self, lambda z, eta: self.meridian_speed(z),
                                  _TWO_PI)

    def rescale(self, factor):
        """The conformally scaled metric factor * g (lengths scale by
        sqrt(factor)).  Scaling a rescaled model composes the factors: the
        result is its base model scaled once by their product."""
        factor = _real(factor, "scale factor")
        if factor <= 0.0:
            raise ModelInvalidError("scale factor must be positive")
        base, scale = self, factor
        if self.kind.startswith(_RESCALED):
            base = _build(self.kind[len(_RESCALED):], self.params)
            scale *= self.params["scale"]
        return MetricModel(kind=_RESCALED + base.kind,
                           params=dict(base.params, scale=scale),
                           a=base.a * scale,
                           b_coef=base.b_coef * scale)


def chart_to_unitvec(theta, phi):
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def unitvec_to_chart(u):
    theta = math.acos(min(1.0, max(-1.0, float(u[2]))))
    phi = math.atan2(float(u[1]), float(u[0])) % _TWO_PI
    return theta, phi


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _real(value, name):
    """``value`` as a float; anything but a real number below
    ``_PARAM_LIMIT`` in magnitude is refused."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) < _PARAM_LIMIT):
        return float(value)
    raise ModelInvalidError(f"{name} must be a number below "
                            f"{_PARAM_LIMIT:g} in magnitude (got {value!r})")


def make_round(radius):
    radius = _real(radius, "round sphere radius")
    if radius <= 0.0:
        raise ModelInvalidError("round sphere radius must be positive")
    return MetricModel(kind="round", params={"radius": radius},
                       a=radius ** 2, b_coef=np.zeros(1))


def make_spheroid(c):
    c = _real(c, "spheroid semi-axis c")
    if c <= 0.0:
        raise ModelInvalidError("spheroid semi-axis c must be positive")
    return MetricModel(kind="spheroid", params={"c": c},
                       a=1.0, b_coef=np.array([c ** 2 - 1.0]))


def make_zoll(h_coeffs):
    """Zoll-type revolution metric from the odd profile polynomial h.

    ``h_coeffs[j]`` is the coefficient of s**(j+1), so [eps, 0, -eps]
    encodes h(s) = eps * s * (1 - s^2).  Requirements: h odd, h(+-1) = 0,
    |h| < 1 on [-1, 1].
    """
    if np.ndim(h_coeffs) != 1 or len(h_coeffs) == 0:
        raise ModelInvalidError("h_coeffs must be a non-empty 1-D sequence")
    coeffs = np.array([_real(c, "h_coeffs entry") for c in h_coeffs])
    h = np.concatenate(([0.0], coeffs))          # ascending powers of s
    if np.any(np.abs(h[2::2]) > 1e-14):
        raise ModelInvalidError("profile h must be an odd polynomial")
    if abs(npoly.polyval(1.0, h)) > 1e-12:
        raise ModelInvalidError("profile h must vanish at s = +-1")
    s = np.linspace(-1.0, 1.0, _VALIDATION_SAMPLES)
    if np.max(np.abs(npoly.polyval(s, h))) >= 1.0:
        raise ModelInvalidError("profile h must satisfy |h| < 1 on [-1, 1]")
    # h = (1 - s^2) p with p odd; the division is exact for admissible h.
    p, rem = npoly.polydiv(h, np.array([1.0, 0.0, -1.0]))
    if np.max(np.abs(rem)) > 1e-12:
        raise ModelInvalidError("(1 - s^2) must divide the profile h")
    b = npoly.polymul(p, npoly.polyadd(np.array([2.0]), h))
    return MetricModel(kind="zoll", params={"h_coeffs": [float(c) for c in coeffs]},
                       a=1.0, b_coef=np.trim_zeros(b, "b") if np.any(b) else np.zeros(1))


# Each kind's builder and its parameters in argument order, with the value
# a document that omits one takes (None: the document must give it).
_KINDS = {
    "round": (make_round, {"radius": 1.0}),
    "spheroid": (make_spheroid, {"c": None}),
    "zoll": (make_zoll, {"h_coeffs": None}),
}


def _build(kind, params):
    """Base-kind model from ``params``; a missing one raises ``KeyError``."""
    make, names = _KINDS[kind]
    return make(*(params[k] if v is None else params.get(k, v)
                  for k, v in names.items()))


def from_json(doc):
    """Build a model from a JSON document (string or parsed dict).

    ``rescaled-<kind>`` documents carry the parameters of the base kind
    plus the ``scale`` factor; any other key is refused."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ModelInvalidError("metric description must be an object with "
                                "a 'kind' key")
    kind = doc["kind"]
    base = kind.removeprefix(_RESCALED) if isinstance(kind, str) else None
    if base not in _KINDS:
        raise ModelInvalidError(f"unknown metric kind {kind!r}")
    known = {"kind", *_KINDS[base][1], *(("scale",) if base != kind else ())}
    for key in doc:
        if key not in known:
            raise ModelInvalidError(
                f"metric kind {kind!r} has no parameter {key!r}")
    try:
        model = _build(base, doc)
        return model if base == kind else model.rescale(doc["scale"])
    except KeyError as exc:
        raise ModelInvalidError(
            f"metric kind {kind!r} needs a {exc}") from None


def to_json(model):
    return {"kind": model.kind, **model.params}


def unit_model(model):
    """The unit model (1, b / a) of ``model``, and a; by division, exact at
    a = 1 where ``rescale(1 / a)`` is not.  It is never serialised."""
    return MetricModel(kind="unit", params={}, a=1.0,
                       b_coef=model.b_coef / model.a), model.a


# ---------------------------------------------------------------------------
# pointwise and global operations
# ---------------------------------------------------------------------------

def curvature_extremes(model):
    """(min K, max K) over the sphere, by dense height sampling plus local
    bounded refinement around each sampled extreme."""
    zs = np.linspace(-1.0, 1.0, _CURVATURE_SAMPLES)
    ks = model.curvature(zs)
    if not np.all(ks > 0.0):
        raise ModelInvalidError("curvature sample is not positive")
    h = zs[1] - zs[0]

    def refine(idx, sign):
        lo = max(-1.0, zs[idx] - 2.0 * h)
        hi = min(1.0, zs[idx] + 2.0 * h)
        return sign * _bounded_minimum(lambda z: sign * model.curvature(z),
                                       lo, hi)

    kmin = min(float(ks.min()), float(refine(int(np.argmin(ks)), +1.0)))
    kmax = max(float(ks.max()), float(refine(int(np.argmax(ks)), -1.0)))
    return kmin, kmax


def _bounded_minimum(f, a, b):
    """The least value of f that Brent's bounded search finds on [a, b]:
    parabolic steps where they fall inside the bracket and shrink, golden
    section steps otherwise, until the bracket is within twice
    sqrt(2.2e-16) |x| + 1e-12 / 3 of the best point x.  These are the
    steps of scipy's ``fminbound`` at ``xatol`` 1e-12, so both return the
    same value."""
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    e = rat = 0.0
    while True:
        xm, tol = 0.5 * (a + b), math.sqrt(2.2e-16) * abs(x) + 1e-12 / 3.0
        if abs(x - xm) <= 2.0 * tol - 0.5 * (b - a):
            return fx
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p, q = (-p if q > 0.0 else p), abs(q)
        if (abs(e) > tol and abs(p) < abs(0.5 * q * e)
                and q * (a - x) < p < q * (b - x)):
            e, rat = rat, (p + 0.0) / q
            if x + rat - a < 2.0 * tol or b - (x + rat) < 2.0 * tol:
                rat = tol if xm >= x else -tol
        else:
            e = a - x if x >= xm else b - x
            rat = golden * e
        u = x + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol)
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def pinching_constant(model):
    """delta = min K / max K, estimated by sampling the curvature profile."""
    kmin, kmax = curvature_extremes(model)
    return kmin / kmax


def profile_antiderivatives(integrands, P, Q, scale, n):
    """For each sample array that ``integrands(z, eta)`` yields, one at a
    time, and each node (P[i], Q[i]), the antiderivative from 0 of that
    integrand along z = P cos(eta) + Q sin(eta); and the sample count it
    took.  Each integrand is smooth and 2 pi-periodic, so its antiderivative
    is the mean times eta plus a Fourier series, read off one FFT of ``n``
    uniform samples per node.  The count doubles until
    every coefficient of the upper half of the band lies below
    ``_SERIES_TOL`` ``scale``, the coefficients below it are dropped, and
    a series not decayed at the last of ``_SERIES_SAMPLES`` raises
    :class:`InternalConsistencyError`.  The result ``anti(k, eta)``
    evaluates series k at one eta per node (Horner's rule in e^{i eta})."""
    tol = _SERIES_TOL * scale
    while True:
        eta = np.arange(n) * (_TWO_PI / n)
        z = (np.multiply.outer(P, np.cos(eta))
             + np.multiply.outer(Q, np.sin(eta)))
        coef = [np.fft.rfft(f, norm="forward") for f in integrands(z, eta)]
        band = np.max([np.max(np.abs(c), axis=0) for c in coef], axis=0)
        if np.max(band[n // 4:]) <= tol:
            break
        if n >= _SERIES_SAMPLES[1]:
            raise InternalConsistencyError(
                f"the profile's Fourier series has not decayed to "
                f"{tol:.3g} at {n} samples")
        n *= 2
    m = np.arange(1, max(2, np.flatnonzero(band > tol)[-1] + 1))
    mean = [c[:, 0].real for c in coef]
    series = [np.ascontiguousarray((c[:, m] * (2.0 / (1j * m))).T)
              for c in coef]
    offset = [c.real.sum(axis=0) for c in series]

    def anti(k, eta):
        e = np.exp(1j * eta)
        acc = series[k][-1] * e
        for c in series[k][-2::-1]:
            acc += c
            acc *= e
        return mean[k] * eta + acc.real - offset[k]

    return anti, n


def _meridian_integral(model, integrand, end):
    """Integral of ``integrand(z, eta)`` along the meridian z = cos(eta)
    over eta in [0, end], by :func:`profile_antiderivatives` in units of
    sqrt(a + sum |b_k|), the bound of the meridian speed sqrt(E) on
    [-1, 1]."""
    scale = math.sqrt(model.a + float(np.sum(np.abs(model.b_coef))))
    anti, _ = profile_antiderivatives(
        lambda z, eta: (integrand(z, eta),), np.ones(1), np.zeros(1),
        scale, _SERIES_SAMPLES[0])
    return float(anti(0, end)[0])


def area(model):
    """Total surface area, 2 pi sqrt(a) times the integral of the area
    element sqrt(E(z)) over z = cos(eta) in [-1, 1], that is of
    sqrt(E(cos eta)) sin(eta) over eta in [0, pi] (see
    :func:`profile_antiderivatives`: 64 samples on the spheroids c = 0.97
    and 1.03, 256 on c = 2.5)."""
    return (_TWO_PI * math.sqrt(model.a) * _meridian_integral(
        model, lambda z, eta: model.meridian_speed(z) * np.sin(eta),
        math.pi))
