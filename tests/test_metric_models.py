import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import ellipe

from birkhofflab import birkhoff_section as bs
from birkhofflab import metric_models as mm
from birkhofflab.errors import InternalConsistencyError, ModelInvalidError

import independent_checks as ic


def ellipsoid_curvature(c, theta):
    """Independent oracle: K = (abc)^-2 (x^2/a^4 + y^2/b^4 + z^2/c^4)^-2 on
    the embedded spheroid with a = b = 1."""
    x = math.sin(theta)
    z = c * math.cos(theta)
    return (1.0 / c ** 2) * (x ** 2 + z ** 2 / c ** 4) ** -2


class TestCurvature:
    def test_round_is_constant(self, round_model):
        for theta in (0.0, 0.4, 1.2, math.pi / 2, 3.0, math.pi):
            assert round_model.curvature(math.cos(theta)) == \
                pytest.approx(1.0)

    def test_round_radius_scaling(self):
        m = mm.make_round(2.0)
        assert m.curvature(math.cos(1.0)) == pytest.approx(0.25, rel=1e-14)

    def test_spheroid_pole_and_equator(self, spheroid_model):
        c = 1.03
        assert spheroid_model.curvature(math.cos(0.0)) == \
            pytest.approx(c ** 2, rel=1e-12)
        assert spheroid_model.curvature(math.cos(math.pi / 2)) == \
            pytest.approx(c ** -2, rel=1e-12)

    def test_spheroid_matches_embedded_formula(self, spheroid_model):
        for theta in np.linspace(0.01, math.pi - 0.01, 17):
            assert spheroid_model.curvature(math.cos(theta)) == \
                pytest.approx(ellipsoid_curvature(1.03, theta), rel=1e-11)


class TestPinching:
    def test_round(self, round_model):
        assert mm.pinching_constant(round_model) == pytest.approx(1.0)

    def test_spheroid_closed_form(self, spheroid_model):
        assert mm.pinching_constant(spheroid_model) == \
            pytest.approx(1.03 ** -4, abs=1e-10)

    def test_fat_spheroid_fails_threshold(self):
        m = mm.make_spheroid(1.5)
        delta = mm.pinching_constant(m)
        assert delta == pytest.approx(1.5 ** -4, abs=1e-10)
        assert delta < 0.25

    def test_rescale_invariance(self, spheroid_model):
        scaled = spheroid_model.rescale(3.7)
        assert mm.pinching_constant(scaled) == \
            pytest.approx(mm.pinching_constant(spheroid_model), rel=1e-12)
        assert mm.area(scaled) == pytest.approx(3.7 * mm.area(spheroid_model),
                                                rel=1e-12)

    def test_estimate_reaches_the_closed_form(self):
        # the sampled extremes and their refinement give the spheroid's
        # delta = min(c, 1/c)^4 to rounding, prolate and oblate
        for c in (1.2, 0.8):
            assert abs(mm.pinching_constant(mm.make_spheroid(c))
                       - min(c, 1 / c) ** 4) <= 1e-15

    @pytest.mark.parametrize("model", [
        *(mm.make_spheroid(c) for c in (0.5, 0.97, 1.03, 1.5)),
        mm.make_zoll([0.1, 0.0, -0.1])], ids=lambda m: str(m.params))
    def test_extremes_against_minimize_scalar(self, model):
        # the same samples, each extreme refined by scipy's bounded Brent
        zs = np.linspace(-1.0, 1.0, mm._CURVATURE_SAMPLES)
        ks, h = model.curvature(zs), zs[1] - zs[0]

        def refine(idx, sign):
            res = minimize_scalar(
                lambda z: sign * model.curvature(z), method="bounded",
                bounds=(max(-1.0, zs[idx] - 2 * h), min(1.0, zs[idx] + 2 * h)),
                options={"xatol": 1e-12})
            return sign * res.fun

        want = (min(ks.min(), refine(int(np.argmin(ks)), 1.0)),
                max(ks.max(), refine(int(np.argmax(ks)), -1.0)))
        assert mm.curvature_extremes(model) == pytest.approx(want, rel=1e-15)


class TestArea:
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 7.5])
    def test_round(self, r):
        assert mm.area(mm.make_round(r)) == \
            pytest.approx(4 * math.pi * r ** 2, rel=1e-13)

    # c = 0.1 and 10 need all 1,024 samples of the profile series
    @pytest.mark.parametrize("c", [0.1, 0.5, 0.965, 0.97, 1.03, 1.035, 1.5,
                                   2.5, 10.0])
    def test_spheroid_closed_form(self, c):
        assert mm.area(mm.make_spheroid(c)) == pytest.approx(
            ic.spheroid_area(c), rel=1e-13)

    def test_solves_no_eigenproblem(self, monkeypatch, spheroid_model):
        # Gauss-Legendre nodes come from an eigenproblem (multi-threaded
        # LAPACK); the area's Fourier series, one FFT of uniform samples,
        # needs none
        def refuse(*args, **kwargs):
            raise AssertionError("eigenproblem solved")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        assert mm.area(spheroid_model) == pytest.approx(
            ic.spheroid_area(1.03), rel=1e-13)

    def test_zoll_area_is_round_area(self, zoll_model):
        assert mm.area(zoll_model) == pytest.approx(4 * math.pi, rel=1e-12)

    def test_spheroid_against_closed_form_and_quadrature(self, spheroid_model):
        got = mm.area(spheroid_model)
        assert got == pytest.approx(ic.spheroid_area(1.03), rel=1e-11)
        adaptive, _ = quad(
            lambda th: 2 * math.pi * math.sin(th)
            * math.sqrt(math.cos(th) ** 2 + 1.03 ** 2 * math.sin(th) ** 2),
            0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
        assert got == pytest.approx(adaptive, rel=1e-10)


class TestMeridianLength:
    @pytest.mark.parametrize("c", [0.1, 0.965, 0.97, 1.03, 1.035, 1.5, 10.0])
    def test_spheroid_against_ellipe(self, c):
        # the meridian is an ellipse with semi-axes 1 and c
        a, b = max(1.0, c), min(1.0, c)
        oracle = 4.0 * a * ellipe(1.0 - (b / a) ** 2)
        got = mm.make_spheroid(c).meridian_circuit_length()
        assert got == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize("model", [
        mm.make_round(1.0), mm.make_zoll([0.05, 0.0, -0.05]),
        mm.make_zoll([0.1, 0.0, -0.1])], ids=lambda m: m.kind)
    def test_two_pi_when_all_geodesics_close(self, model):
        assert model.meridian_circuit_length() == pytest.approx(
            2 * math.pi, rel=1e-14)

    @pytest.mark.parametrize("model", [
        mm.make_spheroid(0.97), mm.make_spheroid(1.03),
        mm.make_zoll([0.1, 0.0, -0.1]), mm.make_round(3.0).rescale(0.5)],
        ids=lambda m: m.kind)
    def test_the_y_pi_half_row_of_the_period_integral(self, model):
        # the meridian is the orbit launched at y = pi/2 from the equator:
        # its length is that row of the equator quadrature, within rounding
        length = model.meridian_circuit_length()
        ys = np.linspace(0.0, math.pi, 65)
        row = bs._clairaut_rows(bs.build_section(model), ys)["tau"][32]
        assert row == pytest.approx(length, rel=1e-15)


@pytest.mark.parametrize("integral", [
    mm.area, mm.MetricModel.meridian_circuit_length],
    ids=["area", "meridian_length"])
@pytest.mark.parametrize("c", [0.02, 30.0])
def test_undecayed_series_raises(c, integral):
    # the profile series has not decayed at 1,024 samples: refused, not
    # truncated (the area's former 96-interval rule erred by 6.3e-6 at
    # c = 0.02 and by 2.0e-8 at c = 30)
    with pytest.raises(InternalConsistencyError, match="not decayed"):
        integral(mm.make_spheroid(c))


@pytest.mark.parametrize("s", [-0.9, -0.3, 0.0, 0.5, 1.0])
def test_leg_integral_against_adaptive_quadrature(s):
    # b of the Zoll metric is not even, so the leg's side matters: the
    # profile series along z = s sin(eta), read at eta = pi
    model = mm.make_zoll([0.1, 0.0, -0.1])
    want, _ = quad(lambda p: float(model.meridian_speed(s * math.sin(p))),
                   0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
    anti, _ = mm.profile_antiderivatives(
        lambda z, eta: (model.meridian_speed(z),), np.zeros(1),
        np.array([s]), 1.0, mm._SERIES_SAMPLES[0])
    assert abs(anti(0, math.pi)[0] - want) < 1e-13


class TestZollProfiles:
    def test_zero_profile_equals_round(self, round_model):
        z = mm.make_zoll([0.0])
        for zz in np.linspace(-1, 1, 33):
            assert z.curvature(zz) == round_model.curvature(zz)
            assert z.profile_E(zz) == round_model.profile_E(zz)
        assert mm.area(z) == mm.area(round_model)

    def test_rejects_even_profile(self):
        with pytest.raises(ModelInvalidError):
            mm.make_zoll([0.0, 0.3, 0.0, -0.3])  # h(s) ~ s^2 terms

    def test_rejects_nonvanishing_at_ends(self):
        with pytest.raises(ModelInvalidError):
            mm.make_zoll([0.1])  # h(1) = 0.1 != 0

    def test_rejects_large_profile(self):
        with pytest.raises(ModelInvalidError):
            mm.make_zoll([3.0, 0.0, -3.0])

    def test_rejects_negative_curvature(self):
        # strong high-order odd profile drives K negative near the poles
        with pytest.raises(ModelInvalidError):
            mm.make_zoll([0.9, 0.0, 0.0, 0.0, -0.9])

    def test_admissible_profile_positive_curvature(self, zoll_model):
        ks = zoll_model.curvature(np.linspace(-1, 1, 501))
        assert np.all(ks > 0)


class TestJsonInterface:
    def test_round_trip(self, spheroid_model):
        doc = mm.to_json(spheroid_model)
        again = mm.from_json(json.dumps(doc))
        assert again.kind == "spheroid"
        assert again.params["c"] == 1.03

    def test_parse_each_kind(self):
        assert mm.from_json('{"kind": "round", "radius": 2.0}').a == 4.0
        assert mm.from_json('{"kind": "spheroid", "c": 1.1}').kind == "spheroid"
        z = mm.from_json('{"kind": "zoll", "h_coeffs": [0.1, 0, -0.1]}')
        assert z.kind == "zoll"

    @pytest.mark.parametrize("make", [
        lambda: mm.make_round(1.3),
        lambda: mm.make_spheroid(1.03),
        lambda: mm.make_zoll([0.1, 0.0, -0.1]),
    ], ids=["round", "spheroid", "zoll"])
    def test_rescaled_round_trip(self, make):
        base = make()
        once = base.rescale(2.0)
        twice = once.rescale(0.75)
        for model, scale in ((once, 2.0), (twice, 1.5)):
            assert model.kind == "rescaled-" + base.kind
            assert model.params == dict(base.params, scale=scale)
            again = mm.from_json(json.dumps(mm.to_json(model)))
            assert again.kind == model.kind
            assert again.params == model.params
            assert again.a == model.a == base.a * scale
            np.testing.assert_array_equal(again.b_coef, model.b_coef)
            np.testing.assert_array_equal(again.b_coef, base.b_coef * scale)
        assert mm.area(twice) == pytest.approx(1.5 * mm.area(base), rel=1e-12)

    def test_malformed_rescaled(self):
        for doc in ('{"kind": "rescaled-spheroid", "c": 1.1}',
                    '{"kind": "rescaled-torus", "scale": 2.0}',
                    '{"kind": "rescaled-rescaled-round", "scale": 2.0}',
                    '{"kind": "rescaled-round", "scale": -1.0}',
                    '{"kind": 3}'):
            with pytest.raises(ModelInvalidError):
                mm.from_json(doc)

    def test_malformed(self):
        with pytest.raises(ModelInvalidError):
            mm.from_json('{"radius": 1.0}')
        with pytest.raises(ModelInvalidError):
            mm.from_json('{"kind": "torus"}')
        with pytest.raises(ModelInvalidError, match="needs a 'c'"):
            mm.from_json('{"kind": "spheroid"}')
        with pytest.raises(json.JSONDecodeError):
            mm.from_json("{not json")


def test_construction_positive_curvature_enforced():
    with pytest.raises(ModelInvalidError):
        mm.make_round(-1.0)
    with pytest.raises(ModelInvalidError):
        mm.make_spheroid(0.0)
