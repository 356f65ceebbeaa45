import math

import numpy as np
import pytest

from birkhofflab import _integrate
from birkhofflab import birkhoff_section as bs
from birkhofflab import geodesic_dynamics as gd
from birkhofflab import metric_models as mm
from birkhofflab._integrate import (GRAZE_TOL, _quartic_roots, dense_state,
                                    integrate_adaptive, sampler,
                                    sweep_linear_events)
from birkhofflab.errors import IntegrationFailure, PreconditionError
from independent_checks import UnscreenedEventHook


def oscillator(t, y):
    out = np.empty_like(y)
    out[:, 0] = y[:, 1]
    out[:, 1] = -y[:, 0]
    return out


class TestStepper:
    def test_harmonic_oscillator_accuracy(self):
        y0 = np.array([[1.0, 0.0], [0.0, 2.0]])
        t, y = integrate_adaptive(oscillator, y0, (0.0, 2 * math.pi),
                                     rtol=1e-10)
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
        t, y = integrate_adaptive(mixed, y0, (0.0, t_end),
                                     rtol=1e-10)
        exact = np.cos(omegas * t_end)
        assert np.max(np.abs(y[:, 0] - exact)) < 1e-8

    def test_sample_at_a_step_start_and_mid_step(self):
        y0 = np.array([[1.0, 0.0]])
        starts = []

        def record(t, h, y_old, stages, y_new):
            starts.append((t, h, y_old.copy()))

        integrate_adaptive(oscillator, y0, (0.0, 3.0), rtol=1e-10,
                           step_hook=record)
        t, h, y_start = starts[len(starts) // 2]
        tq = t + 0.37 * h
        hook, blocks = sampler([0], slice(None), np.array([t, tq]))
        integrate_adaptive(oscillator, y0, (0.0, 3.0), rtol=1e-10,
                           step_hook=hook)
        (at_start, mid), = blocks
        assert np.max(np.abs(at_start - y_start)) < 1e-12
        assert abs(mid[0, 0] - math.cos(tq)) < 1e-10

    def test_sampled_row_matches_batch(self):
        # one orbit's samples are those of the whole batch, in that row
        y0 = np.array([[1.0, 0.0], [0.0, 2.0], [-0.5, 0.3]])
        tq = np.linspace(0.0, 3.0, 41)[:-1]

        def samples(rows):
            hook, blocks = sampler(rows, slice(None), tq)
            integrate_adaptive(oscillator, y0, (0.0, 3.0), rtol=1e-10,
                               step_hook=hook)
            return np.concatenate(blocks)

        full = samples(np.arange(len(y0)))
        for row in range(len(y0)):
            assert np.array_equal(samples([row])[:, 0], full[:, row])

    @pytest.mark.parametrize("y0", [np.array([1.0, 0.0]),
                                    np.array([[1.0, 0.0], [0.0, 2.0],
                                              [-0.5, 0.3]])],
                             ids=["single", "batch"])
    def test_callback_and_result_shapes(self, y0):
        # the contract the callers and the layer tracer read: fun, project
        # and step_hook see (n, d) states, len(y) rows, (7, n, d) stages;
        # the result has the shape of y0 and the samples (q, k, d); the
        # calls follow DP5(4): 2 to start, 6 per attempted step and 1 per
        # accepted step
        n, d = np.atleast_2d(y0).shape
        seen = {"fun": [], "project": [], "hook": []}
        tq = np.linspace(0.0, 3.0, 5)[:-1]
        every, every_blocks = sampler(np.arange(n), slice(None), tq)
        last, last_blocks = sampler([n - 1], slice(None), tq)

        def fun(t, y):
            seen["fun"].append((y.shape, len(y)))
            return oscillator(t, y)

        def project(y):
            seen["project"].append(y.shape)
            return y

        def hook(t, h, y_old, stages, y_new):
            seen["hook"].append((y_old.shape, stages.shape, y_new.shape))
            # stage 0 is the derivative at the step's start
            assert np.array_equal(stages[0], oscillator(t, y_old))
            every(t, h, y_old, stages, y_new)
            last(t, h, y_old, stages, y_new)

        t, y = integrate_adaptive(fun, y0, (0.0, 3.0), rtol=1e-10,
                                  project=project, step_hook=hook)
        assert t == 3.0
        assert y.shape == y0.shape
        assert set(seen["fun"]) == {((n, d), n)}
        assert set(seen["project"]) == {(n, d)}
        assert set(seen["hook"]) == {((n, d), (7, n, d), (n, d))}
        accepted = len(seen["hook"])
        assert len(seen["project"]) == accepted
        spare = len(seen["fun"]) - 2 - 7 * accepted
        assert spare >= 0 and spare % 6 == 0
        assert np.concatenate(every_blocks).shape == (4, n, d)
        assert np.concatenate(last_blocks).shape == (4, 1, d)
        np.testing.assert_allclose(np.concatenate(every_blocks)[0],
                                   np.atleast_2d(y0), rtol=0, atol=1e-12)

    def test_blowup_raises_integration_failure(self):
        def blowup(t, y):
            return y * y

        with pytest.raises(IntegrationFailure) as info:
            integrate_adaptive(blowup, np.array([[1.0]]), (0.0, 2.0),
                               rtol=1e-10)
        assert info.value.last_state is not None
        assert info.value.t < 2.0

    @staticmethod
    def capped(fun, calls=10_000):
        """``fun`` that fails the test after ``calls`` calls, so a stepper
        that never ends cannot hang it."""
        count = [0]

        def capped_fun(t, y):
            count[0] += 1
            assert count[0] <= calls, "the integration does not end"
            return fun(t, y)

        return capped_fun

    def test_non_finite_start_is_refused(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(PreconditionError, match="finite"):
                integrate_adaptive(self.capped(oscillator),
                                   np.array([[1.0, bad]]), (0.0, 1.0))

    @pytest.mark.parametrize("t_end", [1e-20, 1e-300])
    def test_span_below_rounding_is_one_step(self, t_end):
        # the underflow floor applies to the controller's step, not to the
        # step clipped to the span's end: two RHS calls to start, six for
        # the step and one after it
        calls = []

        def counted(t, y):
            calls.append(t)
            return oscillator(t, y)

        y0 = np.array([[1.0, 0.0]])
        t, y = integrate_adaptive(counted, y0, (0.0, t_end))
        assert t == t_end and len(calls) == 9
        np.testing.assert_array_equal(y, [[1.0, -t_end]])   # cos, -sin

    def test_underflow_floor_scales_with_the_span(self):
        # one period of an oscillator of frequency 1e14 takes steps of
        # order 1e-15, as the unit oscillator's are of order 0.1
        def fast(t, y):
            return 1e14 * oscillator(t, y)

        y0 = np.array([[1.0, 0.0]])
        t, y = integrate_adaptive(self.capped(fast), y0,
                                  (0.0, 2 * math.pi * 1e-14))
        assert np.max(np.abs(y - y0)) < 1e-8

    def test_nan_right_hand_side_fails_the_step(self):
        # _initial_step turns NaN, and every step size after it
        def nan_rhs(t, y):
            return np.full_like(y, math.nan)

        with pytest.raises(IntegrationFailure, match="step size"):
            integrate_adaptive(self.capped(nan_rhs), np.array([[1.0, 0.0]]),
                               (0.0, 1.0))


class TestEventSweep:
    def test_oscillator_zero_crossings(self):
        y0 = np.array([[1.0, 0.0], [2.0, 0.0]])
        res = sweep_linear_events(oscillator, y0, 10.0,
                                  np.array([1.0, 0.0]), n_events=2,
                                  expected_slopes=(-1, +1),
                                  rtol=1e-11)
        assert np.all(res.n_found == 2)
        assert np.max(np.abs(res.t_events[:, 0] - math.pi / 2)) < 1e-10
        assert np.max(np.abs(res.t_events[:, 1] - 3 * math.pi / 2)) < 1e-10

    def test_event_states_interpolated(self):
        y0 = np.array([[1.0, 0.0]])
        res = sweep_linear_events(oscillator, y0, 10.0,
                                  np.array([1.0, 0.0]), n_events=1,
                                  rtol=1e-11)
        # at the crossing the velocity is -sin(pi/2) = -1
        assert res.y_events[0, 0, 1] == pytest.approx(-1.0, abs=1e-10)

    def test_zero_start_uses_launch_side(self):
        # starts exactly on the event surface moving upward: the first
        # recorded crossing must be the genuine downward one at t = pi
        y0 = np.array([[0.0, 1.0]])
        res = sweep_linear_events(oscillator, y0, 10.0,
                                  np.array([1.0, 0.0]), n_events=1,
                                  expected_slopes=(-1,),
                                  rtol=1e-11)
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
                                  n_events=1, rtol=1e-10)
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
                                  n_events=1, rtol=1e-10)
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

    def sweep(self, y0, rtol):
        return sweep_linear_events(phase_oscillators, y0, 30.0, LEVEL_EVENT,
                                   n_events=self.N_EVENTS, rtol=rtol)

    def test_closed_form_with_double_and_boundary_crossings(self, step_log):
        y0, omega, phi, c = mixed_batch(np.random.default_rng(5), 12, 12, 6,
                                        peak_level=0.002)
        self.sweep(y0, 1e-13)
        grid = np.array(step_log)
        # Slow rows crossing x = 0 exactly at step boundaries of that run;
        # they leave the step controller of the faster rows unchanged.
        t_b = grid[np.searchsorted(grid[:, 0], np.arange(0.5, 6.0)), 0]
        assert np.all((0.0 < t_b) & (t_b < 6.0))
        boundary = oscillator_rows(0.5, math.pi / 2 - 0.5 * t_b, 0.0)
        step_log.clear()
        res = self.sweep(np.vstack([y0, boundary]), 1e-13)
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
        res = self.sweep(np.vstack([y0, away]), 1e-13)
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
        batch = self.sweep(y0, 1e-10)
        assert np.all(batch.n_found == self.N_EVENTS)
        for i in range(len(y0)):
            one = self.sweep(y0[i:i + 1], 1e-10)
            assert one.n_found[0] == self.N_EVENTS
            np.testing.assert_allclose(batch.t_events[i], one.t_events[0],
                                       rtol=0, atol=1e-8)
            np.testing.assert_allclose(batch.y_events[i], one.y_events[0],
                                       rtol=0, atol=1e-8)


class TestSampling:
    def test_samples_read_the_steps_and_stop_with_the_sweep(self, step_log):
        # positions and momenta of five rows of a mixed batch, every 0.01
        # from 0: the closed form wherever the sweep reached, nothing past
        # its last step, and the same steps and events as without sampling
        y0, omega, phi, c = mixed_batch(np.random.default_rng(5), 12, 12, 6,
                                        peak_level=0.002)
        rows = np.array([0, 5, 13, 20, 27])
        times = np.arange(0.0, 30.0, 0.01)

        def sweep(sample=None):
            return sweep_linear_events(phase_oscillators, y0, 30.0,
                                       LEVEL_EVENT, n_events=3, rtol=1e-12,
                                       sample=sample)

        plain = sweep()
        steps = list(step_log)
        step_log.clear()
        res = sweep((rows, slice(0, 2), times))
        assert step_log == steps
        assert plain.samples is None
        for k in ("t_events", "y_events", "slopes"):
            assert np.array_equal(getattr(res, k), getattr(plain, k),
                                  equal_nan=True)
        assert np.array_equal(res.n_found, plain.n_found)
        assert np.array_equal(res.grazing, plain.grazing)
        t_stop = steps[-1][0] + steps[-1][1]
        assert t_stop < 20.0
        assert res.samples.shape == (np.searchsorted(times, t_stop),
                                     len(rows), 2)
        phase = omega[rows] * times[:len(res.samples), None] + phi[rows]
        np.testing.assert_allclose(
            res.samples, np.stack([np.cos(phase), -np.sin(phase)], axis=-1),
            rtol=0, atol=1e-9)


class TestPerRowEvents:
    def test_rows_with_their_own_levels_and_counts(self):
        # x = cos(omega t + phi) crossing two levels (three events each) and
        # p = cos(omega t + phi + pi/2) crossing a third level once, in one
        # sweep: weights, target and n_events are per row, and the rows
        # wanting one event fill the last slot
        rng = np.random.default_rng(3)
        omega = rng.uniform(0.7, 2.0, 9)
        phi = rng.uniform(0.0, 2 * math.pi, 9)
        level = np.repeat([0.3, -0.6, 0.45], 3)
        on_p = np.arange(9) >= 6
        weights = np.where(on_p[:, None], [0.0, 1.0, 0.0, 0.0],
                           [1.0, 0.0, 0.0, 0.0])
        res = sweep_linear_events(
            phase_oscillators, oscillator_rows(omega, phi, 0.0), 30.0,
            weights, target=level, n_events=np.where(on_p, 1, 3),
            rtol=1e-13)
        assert np.all(res.n_found == 3)
        assert not res.grazing.any()
        for i in range(9):
            count = 1 if on_p[i] else 3
            times, slopes = level_crossings(
                omega[i], phi[i] + (math.pi / 2 if on_p[i] else 0.0),
                level[i], count)
            np.testing.assert_allclose(res.t_events[i, 3 - count:], times,
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(res.slopes[i, 3 - count:], slopes,
                                       rtol=0, atol=1e-10)
        assert np.all(np.isnan(res.t_events[on_p, :2]))

    def test_slope_check_skips_unused_slots(self):
        # x = cos t crosses 1/2 downwards at pi/3 and upwards at 5 pi/3;
        # p = -sin t crosses 1/2 once, upwards, at 7 pi/6: every slope is
        # the expected one, and the unused slot of the p row is not checked
        y0 = np.array([[1.0, 0.0], [1.0, 0.0]])
        res = sweep_linear_events(oscillator, y0, 7.0,
                                  np.array([[1.0, 0.0], [0.0, 1.0]]),
                                  target=0.5, n_events=np.array([2, 1]),
                                  expected_slopes=(-1, +1),
                                  rtol=1e-12)
        assert np.all(res.n_found == 2)
        assert not res.grazing.any()
        np.testing.assert_allclose(res.t_events[0], [math.pi / 3,
                                                     5 * math.pi / 3],
                                   rtol=0, atol=1e-10)
        assert res.t_events[1, 1] == pytest.approx(7 * math.pi / 6,
                                                   abs=1e-10)
        s = math.sqrt(3) / 2
        np.testing.assert_allclose(res.slopes, [[-s, s], [0.0, s]], rtol=0,
                                   atol=1e-10)


def grazing_rows(level_gap, amplitude=1.0):
    """Rows x = a cos(t + phi) whose event level sits ``level_gap`` beyond
    the maximum a or the minimum -a: peaks that turn that far from the
    level without crossing it."""
    gap = np.asarray(level_gap, dtype=float)
    phi = np.linspace(0.3, 2.8, gap.size)
    c = np.where(np.arange(gap.size) % 2, -amplitude - gap, amplitude + gap)
    rows = oscillator_rows(1.0, phi, c)
    rows[:, 0:2] *= amplitude
    return rows


@pytest.fixture
def with_reference(monkeypatch):
    """An event sweep that keeps, in its list ``pairs``, the (result,
    reference) of every call, also those of the return sweeps: the
    unscreened reference hook rides in the sweep's own integration, on the
    same steps, and stops when the sweep's hook stops."""
    pairs = []
    sweep, integrate = sweep_linear_events, integrate_adaptive

    def paired(fun, y0, t_max, weights, target=0.0, n_events=2,
               expected_slopes=None, **kw):
        ref = UnscreenedEventHook(y0, weights, target, n_events)

        def tee(fun, y0, t_span, step_hook=None, **kw):
            def both(*args):
                stop = step_hook(*args)
                assert ref(*args) == stop
                return stop
            return integrate(fun, y0, t_span, step_hook=both, **kw)

        monkeypatch.setattr(_integrate, "integrate_adaptive", tee)
        res = sweep(fun, y0, t_max, weights, target, n_events,
                    expected_slopes, **kw)
        monkeypatch.setattr(_integrate, "integrate_adaptive", integrate)
        pairs.append((res, ref.result(expected_slopes)))
        return res

    monkeypatch.setattr(bs, "sweep_linear_events", paired)
    paired.pairs = pairs
    return paired


def assert_same_events(pairs):
    assert pairs
    for res, ref in pairs:
        for k in ("t_events", "y_events", "slopes", "n_found", "grazing"):
            assert np.array_equal(getattr(res, k), getattr(ref, k),
                                  equal_nan=True), k


class TestNearLevelScreen:
    """The sweep skips the event search on orbits that stay farther from the
    level than the step can move them; the results are those of the
    unscreened search to the bit."""

    def test_oscillators_match_the_unscreened_search(self, with_reference):
        # level-0 crossings, double crossings just below a maximum, starts
        # on the level, and peaks turning at 0.5, 0.9, 1.1 and 2 GRAZE_TOL
        # from the level, of unit amplitude and of amplitude 1e-8: a step
        # moves those by less than GRAZE_TOL, so only the screen's margin
        # of GRAZE_TOL keeps the ones that graze
        y0, *_ = mixed_batch(np.random.default_rng(5), 12, 12, 6,
                             peak_level=0.002)
        gaps = GRAZE_TOL * np.array([0.5, 0.9, 1.1, 2.0, 0.5, 0.9, 1.1, 2.0])
        y0 = np.vstack([y0, grazing_rows(gaps),
                        grazing_rows(gaps, amplitude=1e-8)])
        res = with_reference(phase_oscillators, y0, 30.0, LEVEL_EVENT,
                             n_events=3, rtol=1e-13)
        assert_same_events(with_reference.pairs)
        # the peaks inside GRAZE_TOL are flagged, those beyond it are not
        assert np.array_equal(res.grazing[-16:], np.tile(gaps < GRAZE_TOL, 2))
        assert np.all(res.n_found[:-16] == 3)

    def test_oblate_meridian_sweep_matches_the_unscreened_search(
            self, with_reference):
        model = mm.make_spheroid(0.97)
        section = bs.build_section(model, gd.meridian_orbit(model))
        bs.compute_return_grid(section, nx=16, ny=17)
        assert len(with_reference.pairs) == 1
        assert_same_events(with_reference.pairs)


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
