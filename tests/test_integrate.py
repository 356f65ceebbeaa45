import math

import numpy as np
import pytest

from birkhofflab import _integrate
from birkhofflab._integrate import (_quartic_roots, dense_state,
                                    integrate_adaptive, sweep_linear_events)
from birkhofflab.errors import IntegrationFailure


def oscillator(t, y):
    out = np.empty_like(y)
    out[:, 0] = y[:, 1]
    out[:, 1] = -y[:, 0]
    return out


class TestStepper:
    def test_harmonic_oscillator_accuracy(self):
        y0 = np.array([[1.0, 0.0], [0.0, 2.0]])
        t, y, _ = integrate_adaptive(oscillator, y0, (0.0, 2 * math.pi),
                                     rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(y - y0)) < 1e-9

    def test_per_orbit_error_control(self):
        # a stiff-ish fast orbit must not be under-resolved just because the
        # batch also contains slow ones
        def mixed(t, y):
            out = np.empty_like(y)
            out[:, 0] = y[:, 1] * y[:, 2]
            out[:, 1] = -y[:, 0] * y[:, 2]
            out[:, 2] = 0.0
            return out

        omegas = np.array([1.0, 25.0])
        y0 = np.column_stack([np.ones(2), np.zeros(2), omegas])
        t_end = 2 * math.pi
        t, y, _ = integrate_adaptive(mixed, y0, (0.0, t_end),
                                     rtol=1e-10, atol=1e-12)
        exact = np.cos(omegas * t_end)
        assert np.max(np.abs(y[:, 0] - exact)) < 1e-8

    def test_dense_output_matches_endpoints(self):
        y0 = np.array([[1.0, 0.0]])
        _, _, dense = integrate_adaptive(oscillator, y0, (0.0, 3.0),
                                         rtol=1e-10, atol=1e-12, store=True)
        k = len(dense.t) // 2
        assert np.max(np.abs(dense(dense.t[[k]])[0] - dense.y[k])) < 1e-12
        tq = dense.t[k] + 0.37 * dense.h[k]
        yq = dense(np.array([tq]))[0, 0]
        assert abs(yq[0] - math.cos(tq)) < 1e-10

    def test_dense_output_row_matches_batch(self):
        # one orbit's states are those of the whole batch, in that row
        y0 = np.array([[1.0, 0.0], [0.0, 2.0], [-0.5, 0.3]])
        _, _, dense = integrate_adaptive(oscillator, y0, (0.0, 3.0),
                                         rtol=1e-10, atol=1e-12, store=True)
        tq = np.linspace(0.0, 3.0, 41)
        full = dense(tq)
        for row in range(len(y0)):
            assert np.array_equal(dense(tq, row=row), full[:, row])

    def test_blowup_raises_integration_failure(self):
        def blowup(t, y):
            return y * y

        with pytest.raises(IntegrationFailure) as info:
            integrate_adaptive(blowup, np.array([[1.0]]), (0.0, 2.0),
                               rtol=1e-10, atol=1e-12)
        assert info.value.last_state is not None
        assert info.value.t < 2.0


class TestEventSweep:
    def test_oscillator_zero_crossings(self):
        y0 = np.array([[1.0, 0.0], [2.0, 0.0]])
        res = sweep_linear_events(oscillator, y0, 10.0,
                                  np.array([1.0, 0.0]), n_events=2,
                                  expected_slopes=(-1, +1),
                                  rtol=1e-11, atol=1e-13)
        assert np.all(res.n_found == 2)
        assert np.max(np.abs(res.t_events[:, 0] - math.pi / 2)) < 1e-10
        assert np.max(np.abs(res.t_events[:, 1] - 3 * math.pi / 2)) < 1e-10

    def test_event_states_interpolated(self):
        y0 = np.array([[1.0, 0.0]])
        res = sweep_linear_events(oscillator, y0, 10.0,
                                  np.array([1.0, 0.0]), n_events=1,
                                  rtol=1e-11, atol=1e-13)
        # at the crossing the velocity is -sin(pi/2) = -1
        assert res.y_events[0, 0, 1] == pytest.approx(-1.0, abs=1e-10)

    def test_zero_start_uses_launch_side(self):
        # starts exactly on the event surface moving upward: the first
        # recorded crossing must be the genuine downward one at t = pi
        y0 = np.array([[0.0, 1.0]])
        res = sweep_linear_events(oscillator, y0, 10.0,
                                  np.array([1.0, 0.0]), n_events=1,
                                  expected_slopes=(-1,),
                                  rtol=1e-11, atol=1e-13)
        assert res.n_found[0] == 1
        assert res.t_events[0, 0] == pytest.approx(math.pi, abs=1e-10)

    def test_tangency_flags_grazing(self):
        # z(t) = 1e-12 + (1 - t)^2 dips to the tolerance without crossing
        def parabola(t, y):
            out = np.empty_like(y)
            out[:, 0] = y[:, 1]
            out[:, 1] = 2.0
            return out

        y0 = np.array([[1.0 + 1e-12, -2.0]])
        res = sweep_linear_events(parabola, y0, 3.0, np.array([1.0, 0.0]),
                                  n_events=1, rtol=1e-10, atol=1e-14)
        assert res.grazing[0]
        assert res.n_found[0] == 0

    def test_clean_miss_not_flagged(self):
        # same parabola staying at distance 0.5 is a clean miss: no events,
        # no grazing flag
        def parabola(t, y):
            out = np.empty_like(y)
            out[:, 0] = y[:, 1]
            out[:, 1] = 2.0
            return out

        y0 = np.array([[1.5, -2.0]])
        res = sweep_linear_events(parabola, y0, 3.0, np.array([1.0, 0.0]),
                                  n_events=1, rtol=1e-10, atol=1e-14)
        assert not res.grazing[0]
        assert res.n_found[0] == 0


# ---------------------------------------------------------------------------
# batched event location
# ---------------------------------------------------------------------------

def phase_oscillators(t, y):
    """Rows (x, p, omega, c): x' = omega p, p' = -omega x; the frequency
    omega and the event level c are carried as constant columns."""
    out = np.zeros_like(y)
    out[:, 0] = y[:, 2] * y[:, 1]
    out[:, 1] = -y[:, 2] * y[:, 0]
    return out


# e(y) = x - c
LEVEL_EVENT = np.array([1.0, 0.0, 0.0, -1.0])


def oscillator_rows(omega, phi, c):
    """Start rows of x = cos(omega t + phi) with event level c."""
    omega, phi, c = np.broadcast_arrays(omega, phi, c)
    return np.column_stack([np.cos(phi), -np.sin(phi), omega, c])


def level_crossings(omega, phi, c, count):
    """First ``count`` times t > 0 with cos(omega t + phi) = c, and the
    slopes of cos(omega t + phi) - c there."""
    alpha = math.acos(c)
    psis = sorted(p for k in range(-1, count + 3)
                  for p in (2 * math.pi * k + alpha, 2 * math.pi * k - alpha)
                  if p > phi + 1e-9)[:count]
    return ([(p - phi) / omega for p in psis],
            [-omega * math.sin(p) for p in psis])


def mixed_batch(rng, n_regular, n_peaks, n_zero_start, peak_level):
    """Oscillators of different frequencies and phases: level-0 crossings,
    level crossings just below a maximum (two crossings close together)
    and rows starting on the event level (the launch side decides), which
    leave it towards their turning point."""
    omega = rng.uniform(0.7, 2.0, n_regular + n_peaks + n_zero_start)
    phi = rng.uniform(0.0, 2 * math.pi, omega.size)
    c = np.zeros(omega.size)
    peaks = slice(n_regular, n_regular + n_peaks)
    omega[peaks] = 2.0
    c[peaks] = np.cos(peak_level * rng.uniform(0.5, 1.0, n_peaks))
    starts = slice(n_regular + n_peaks, None)
    c[starts] = rng.uniform(-0.5, 0.5, n_zero_start)
    phi[starts] = -np.sign(c[starts]) * np.arccos(c[starts])
    y0 = oscillator_rows(omega, phi, c)
    y0[starts, 0] = c[starts]             # exactly on the event level
    return y0, omega, phi, c


@pytest.fixture
def step_log(monkeypatch):
    """Accepted steps (t, h) of the sweeps run by the test."""
    steps = []

    def recording(fun, y0, t_span, step_hook=None, **kw):
        def hook(t, h, *rest):
            steps.append((t, h))
            return step_hook(t, h, *rest)
        return integrate_adaptive(fun, y0, t_span, step_hook=hook, **kw)

    monkeypatch.setattr(_integrate, "integrate_adaptive", recording)
    return steps


class TestBatchedEventLocation:
    N_EVENTS = 3

    def sweep(self, y0, rtol, atol):
        return sweep_linear_events(phase_oscillators, y0, 30.0, LEVEL_EVENT,
                                   n_events=self.N_EVENTS, rtol=rtol,
                                   atol=atol)

    def test_closed_form_with_double_and_boundary_crossings(self, step_log):
        y0, omega, phi, c = mixed_batch(np.random.default_rng(5), 12, 12, 6,
                                        peak_level=0.002)
        self.sweep(y0, 1e-13, 1e-15)
        grid = np.array(step_log)
        # Slow rows crossing x = 0 exactly at step boundaries of that run;
        # they leave the step controller of the faster rows unchanged.
        t_b = grid[np.searchsorted(grid[:, 0], np.arange(0.5, 6.0)), 0]
        assert np.all((0.0 < t_b) & (t_b < 6.0))
        boundary = oscillator_rows(0.5, math.pi / 2 - 0.5 * t_b, 0.0)
        step_log.clear()
        res = self.sweep(np.vstack([y0, boundary]), 1e-13, 1e-15)
        assert step_log[:len(grid)] == [tuple(s) for s in grid]
        omega = np.concatenate([omega, np.full(len(t_b), 0.5)])
        phi = np.concatenate([phi, math.pi / 2 - 0.5 * t_b])
        c = np.concatenate([c, np.zeros(len(t_b))])
        assert np.all(res.n_found == self.N_EVENTS)
        assert not res.grazing.any()
        for i in range(len(omega)):
            times, slopes = level_crossings(omega[i], phi[i], c[i],
                                            self.N_EVENTS)
            np.testing.assert_allclose(res.t_events[i], times, rtol=0,
                                       atol=1e-10)
            np.testing.assert_allclose(res.slopes[i], slopes, rtol=0,
                                       atol=1e-10)
        np.testing.assert_allclose(res.t_events[-len(t_b):, 0], t_b,
                                   rtol=0, atol=1e-10)
        # some accepted step holds two crossings of one orbit
        starts = np.array(step_log)[:, 0]
        step_of = np.searchsorted(starts, res.t_events, side="right") - 1
        assert np.any(step_of[:, 1:] == step_of[:, :-1])

    def test_rows_leaving_the_level_convexly_do_not_graze(self):
        y0, omega, phi, c = mixed_batch(np.random.default_rng(5), 12, 12, 6,
                                        peak_level=0.002)
        # x = cos(1.05 t + phi) starting exactly on c = -0.036 moving up and
        # on c = +0.036 moving down: |x - c| grows convexly from 0, and the
        # start on the level is no tangency.
        c_away = np.array([-0.036, 0.036])
        phi_away = np.sign(c_away) * np.arccos(c_away)
        away = oscillator_rows(1.05, phi_away, c_away)
        away[:, 0] = c_away
        res = self.sweep(np.vstack([y0, away]), 1e-13, 1e-15)
        omega = np.concatenate([omega, [1.05, 1.05]])
        phi = np.concatenate([phi, phi_away])
        c = np.concatenate([c, c_away])
        assert not res.grazing.any()
        assert np.all(res.n_found == self.N_EVENTS)
        for i in range(len(omega)):
            times, _ = level_crossings(omega[i], phi[i], c[i], self.N_EVENTS)
            np.testing.assert_allclose(res.t_events[i], times, rtol=0,
                                       atol=1e-10)

    def test_event_states_match_one_orbit_sweeps(self):
        y0, *_ = mixed_batch(np.random.default_rng(8), 6, 4, 4,
                             peak_level=0.03)
        batch = self.sweep(y0, 1e-10, 1e-12)
        assert np.all(batch.n_found == self.N_EVENTS)
        for i in range(len(y0)):
            one = self.sweep(y0[i:i + 1], 1e-10, 1e-12)
            assert one.n_found[0] == self.N_EVENTS
            np.testing.assert_allclose(batch.t_events[i], one.t_events[0],
                                       rtol=0, atol=1e-8)
            np.testing.assert_allclose(batch.y_events[i], one.y_events[0],
                                       rtol=0, atol=1e-8)


def quartic_root_reference(c, lo, hi, flo):
    """Scalar safeguarded Newton/bisection root of the quartic ``c``
    (ascending powers) inside [lo, hi]; the loop the batched root follows
    elementwise."""
    def val(x):
        return c[0] + x * (c[1] + x * (c[2] + x * (c[3] + x * c[4])))

    def dval(x):
        return c[1] + x * (2 * c[2] + x * (3 * c[3] + x * (4 * c[4])))

    a, b, fa = lo, hi, flo
    x = 0.5 * (a + b)
    for _ in range(80):
        fx = val(x)
        if fx == 0.0:
            break
        if fa * fx < 0.0:
            b = x
        else:
            a, fa = x, fx
        dfx = dval(x)
        x_newton = x - fx / dfx if dfx != 0.0 else a
        x_next = x_newton if a < x_newton < b else 0.5 * (a + b)
        if abs(x_next - x) < 1e-15:
            return x_next
        x = x_next
    return x


def test_batched_roots_match_scalar_reference():
    rng = np.random.default_rng(21)
    coeffs = rng.normal(size=(4000, 5)) * rng.uniform(1e-3, 1e3, (4000, 1))
    edges = np.linspace(0.0, 1.0, 7)
    m = rng.integers(0, 6, 4000)
    lo, hi = edges[m], edges[m + 1]
    flo, fhi = (np.polynomial.polynomial.polyval(x, coeffs.T, tensor=False)
                for x in (lo, hi))
    sign_change = flo * fhi < 0.0
    assert sign_change.sum() > 200
    coeffs, lo, hi, flo = (a[sign_change] for a in (coeffs, lo, hi, flo))
    roots = _quartic_roots(coeffs, lo, hi, flo)
    expected = [quartic_root_reference(*args)
                for args in zip(coeffs, lo, hi, flo)]
    np.testing.assert_array_equal(roots, expected)
    assert np.all((lo <= roots) & (roots <= hi))
