"""Outside-in layer tracing for the benchmark's traced runs.

The tracer replaces chosen functions of each ``birkhofflab`` module with
wrappers that record one span per call (name, start, end, parent) and
restores them afterwards; ``src/`` is not modified.  A wrapper is installed
under every module attribute bound to the original function, so names taken
by ``from ... import`` (``integrate_adaptive`` and ``sweep_linear_events`` in
``birkhoff_section`` and ``geodesic_dynamics``) are traced as well.

Inside the integrator there are no per-call spans: each
``integrate_adaptive`` call wraps the ``fun``, ``step_hook`` and ``project``
arguments it receives and keeps one aggregate per integration.  Accepted
steps are the projector calls; rejected steps follow from the Dormand-Prince
5(4) call structure (two RHS calls to start, six per attempted step, one more
per accepted step).
"""

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time

# Spans are recorded for these functions, keyed by layer (the module name,
# without the leading underscore of ``_integrate``).
LAYER_FUNCTIONS = {
    "integrate": ("integrate_adaptive", "sweep_linear_events"),
    "metric_models": ("curvature_extremes",),
    "geodesic_dynamics": ("find_closed_geodesic", "integrate_geodesic",
                          "jacobi_polar_advance", "conjugate_time"),
    "birkhoff_section": ("build_section", "compute_return_grid",
                         "return_data", "zero_flux_lift",
                         "check_return_arc_injectivity",
                         "composition_identity_check",
                         "verify_tau_action_identity", "verify_area_identity",
                         "contact_volume_check", "monotonicity_check",
                         "boundary_consistency_check"),
    "strip_calculus": ("build_from_generating", "generating_from_map",
                       "fixed_point_with_signed_action", "action", "calabi",
                       "flux"),
    "systolic_audit": ("audit", "candidate_closed_geodesics"),
    "cli": ("main", "_emit"),
}
# Every integration must run under a span of one of these layers; anything
# else means a call path that the table above does not cover.
DYNAMICS_LAYERS = ("birkhoff_section", "geodesic_dynamics")
IDENTITY_CHECKS = ("verify_tau_action_identity", "verify_area_identity",
                   "contact_volume_check", "monotonicity_check",
                   "boundary_consistency_check")
STRIP_METRICS = {"build_from_generating": "build_from_generating",
                 "generating_from_map": "generating_from_map",
                 "fixed_point": "fixed_point_with_signed_action",
                 "action": "action", "calabi": "calabi", "flux": "flux"}

# Per-layer metrics of one operation: name -> unit.
LAYER_METRICS = {
    "integrate.rhs_calls": "count",
    "integrate.rhs_rows": "count",
    "integrate.integrations": "count",
    "integrate.steps_accepted": "count",
    "integrate.steps_rejected": "count",
    "integrate.rhs_s": "s",
    "integrate.event_hook_s": "s",
    "integrate.project_s": "s",
    "integrate.stepper_self_s": "s",
    "integrate.sweep_orbits": "count",
    "integrate.grazing_orbits": "count",
    "integrate.sweep_yield": "ratio",
    "birkhoff_section.orbits_integrated": "count",
    "birkhoff_section.grid_nodes": "count",
    "birkhoff_section.return_grid_s": "s",
    "birkhoff_section.return_sweep_s": "s",
    "birkhoff_section.assembly_s": "s",
    "birkhoff_section.section_s": "s",
    "birkhoff_section.lift_s": "s",
    "birkhoff_section.identities_s": "s",
    "geodesic_dynamics.shooting_calls": "count",
    "geodesic_dynamics.shooting_flows": "count",
    "geodesic_dynamics.shooting_rhs_calls": "count",
    "geodesic_dynamics.shooting_failed": "count",
    "geodesic_dynamics.shooting_s": "s",
    "systolic_audit.candidates_calls": "count",
    "systolic_audit.candidates_s": "s",
    "systolic_audit.audit_self_s": "s",
    "metric_models.curvature_extremes_calls": "count",
    "metric_models.curvature_extremes_s": "s",
    **{f"strip_calculus.{m}{suffix}": unit
       for m in STRIP_METRICS for suffix, unit in (("_s", "s"),
                                                   ("_calls", "count"))},
    "cli.emit_s": "s",
    "cli.self_s": "s",
}


class TraceError(RuntimeError):
    """The trace cannot account for the program's work."""


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "failed",
                 "stats")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.failed = False
        self.stats = None
        self.start = time.perf_counter()

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.seconds - self.child_s

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    def ancestors(self):
        span = self.parent
        while span is not None:
            yield span
            span = span.parent


def _sweep_stats(res):
    n, n_events = res.t_events.shape
    complete = (res.n_found >= n_events) & ~res.grazing
    return {"orbits": n, "grazing": int(res.grazing.sum()),
            "complete": int(complete.sum())}


def _grid_stats(grid):
    return {"nodes": grid.nx * grid.ny}


RESULT_STATS = {"integrate.sweep_linear_events": _sweep_stats,
                "birkhoff_section.compute_return_grid": _grid_stats}


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit.

    Finished spans stay in memory until :meth:`take` hands them out, once
    per operation.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "birkhofflab" or name.startswith("birkhofflab.")]
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(
                "birkhofflab._integrate" if layer == "integrate"
                else f"birkhofflab.{layer}")
            for name in names:
                original = getattr(module, name)
                full = f"{layer}.{name}"
                wrapper = (self._wrap_integration(original)
                           if full == "integrate.integrate_adaptive"
                           else self._wrap(full, original))
                for m in modules:
                    for attr in [a for a, v in vars(m).items()
                                 if v is original]:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            m, attr, original = self._patches.pop()
            setattr(m, attr, original)
        return False

    def take(self):
        spans, self.spans = self.spans, []
        return spans

    @contextlib.contextmanager
    def _span(self, name):
        span = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(span)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if span.parent is not None:
                span.parent.child_s += span.seconds
            self.spans.append(span)

    def _wrap(self, name, fn):
        stats = RESULT_STATS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._span(name) as span:
                result = fn(*args, **kwargs)
            if stats is not None:
                span.stats = stats(result)
            return result

        return traced

    def _wrap_integration(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arg = bound.arguments
            st = {"rhs_calls": 0, "rhs_rows": 0, "rhs_s": 0.0, "hook_s": 0.0,
                  "project_calls": 0, "project_s": 0.0,
                  "orbits": 1 if arg["y0"].ndim == 1 else len(arg["y0"])}
            fun, hook, project = arg["fun"], arg["step_hook"], arg["project"]
            if project is None:
                # An identity projector leaves the state untouched and still
                # counts the accepted steps.
                project = lambda y: y   # noqa: E731

            def rhs(t, y):
                t0 = time.perf_counter()
                out = fun(t, y)
                st["rhs_s"] += time.perf_counter() - t0
                st["rhs_calls"] += 1
                st["rhs_rows"] += len(y)
                return out

            def counted_project(y):
                t0 = time.perf_counter()
                out = project(y)
                st["project_s"] += time.perf_counter() - t0
                st["project_calls"] += 1
                return out

            def timed_hook(*hook_args):
                t0 = time.perf_counter()
                out = hook(*hook_args)
                st["hook_s"] += time.perf_counter() - t0
                return out

            arg["fun"] = rhs
            arg["project"] = counted_project
            if hook is not None:
                arg["step_hook"] = timed_hook
            with self._span("integrate.integrate_adaptive") as span:
                span.stats = st
                return fn(*bound.args, **bound.kwargs)

        return traced


def _rejected_steps(span):
    """Rejected steps of one finished integration, from its RHS calls."""
    st = span.stats
    spare = st["rhs_calls"] - 2 - 7 * st["project_calls"]
    if spare < 0 or spare % 6:
        raise TraceError(
            f"integration with {st['rhs_calls']} RHS calls and "
            f"{st['project_calls']} accepted steps does not fit the DP5(4) "
            "call structure")
    return spare // 6


def _layer_parent(span):
    return next((a for a in span.ancestors() if a.layer != "integrate"), None)


def _inclusive_s(spans, name):
    """Time in calls of ``name``, not counting calls nested in another."""
    return sum(s.seconds for s in spans if s.name == name
               and not any(a.name == name for a in s.ancestors()))


def _under(span, name):
    return any(a.name == name for a in span.ancestors())


def op_metrics(spans):
    """Per-layer metrics of one operation's spans (see ``LAYER_METRICS``).

    Raises :class:`TraceError` when an integration has no span of a
    dynamics layer above it or its counts break the DP5(4) accounting.
    """
    integrations = [s for s in spans
                    if s.name == "integrate.integrate_adaptive"]
    sweeps = [s for s in spans if s.name == "integrate.sweep_linear_events"]
    for s in integrations:
        parent = _layer_parent(s)
        if parent is None or parent.layer not in DYNAMICS_LAYERS:
            raise TraceError("integration without a layer parent (under "
                             f"{parent.name if parent else 'nothing'})")
    finished = [s for s in integrations if not s.failed]

    def total(key, among=integrations):
        return sum(s.stats[key] for s in among)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    rhs_s, hook_s, project_s = total("rhs_s"), total("hook_s"), \
        total("project_s")
    swept = sum(s.stats["orbits"] for s in sweeps if s.stats)
    complete = sum(s.stats["complete"] for s in sweeps if s.stats)
    grids = [s for s in spans
             if s.name == "birkhoff_section.compute_return_grid"]
    grid_work = [s for s in spans if _under(
        s, "birkhoff_section.compute_return_grid")]
    shooting = "geodesic_dynamics.find_closed_geodesic"
    m = {
        "integrate.rhs_calls": total("rhs_calls"),
        "integrate.rhs_rows": total("rhs_rows"),
        "integrate.integrations": len(integrations),
        "integrate.steps_accepted": total("project_calls"),
        "integrate.steps_rejected": sum(_rejected_steps(s)
                                        for s in finished),
        "integrate.rhs_s": rhs_s,
        "integrate.event_hook_s": hook_s,
        "integrate.project_s": project_s,
        "integrate.stepper_self_s": sum(s.seconds for s in integrations)
        - rhs_s - hook_s - project_s,
        "integrate.sweep_orbits": swept,
        "integrate.grazing_orbits": sum(s.stats["grazing"] for s in sweeps
                                        if s.stats),
        "integrate.sweep_yield": complete / swept if swept else 0.0,
        "birkhoff_section.orbits_integrated": total(
            "orbits", [s for s in grid_work
                       if s.name == "integrate.integrate_adaptive"]),
        "birkhoff_section.grid_nodes": sum(s.stats["nodes"] for s in grids
                                           if s.stats),
        "birkhoff_section.return_grid_s": _inclusive_s(
            spans, "birkhoff_section.compute_return_grid"),
        "birkhoff_section.return_sweep_s": sum(
            s.seconds for s in grid_work
            if s.name == "integrate.sweep_linear_events"),
        "birkhoff_section.assembly_s": sum(s.self_s for s in grids),
        "birkhoff_section.section_s": _inclusive_s(
            spans, "birkhoff_section.build_section"),
        "birkhoff_section.lift_s": _inclusive_s(
            spans, "birkhoff_section.zero_flux_lift"),
        "birkhoff_section.identities_s": sum(
            _inclusive_s(spans, f"birkhoff_section.{name}")
            for name in IDENTITY_CHECKS),
        "geodesic_dynamics.shooting_calls": calls(shooting),
        "geodesic_dynamics.shooting_flows": sum(
            1 for s in integrations if _layer_parent(s).name == shooting),
        "geodesic_dynamics.shooting_rhs_calls": total(
            "rhs_calls", [s for s in integrations if _under(s, shooting)]),
        "geodesic_dynamics.shooting_failed": sum(
            1 for s in spans if s.name == shooting and s.failed),
        "geodesic_dynamics.shooting_s": _inclusive_s(spans, shooting),
        "systolic_audit.candidates_calls": calls(
            "systolic_audit.candidate_closed_geodesics"),
        "systolic_audit.candidates_s": _inclusive_s(
            spans, "systolic_audit.candidate_closed_geodesics"),
        "systolic_audit.audit_self_s": sum(
            s.self_s for s in spans if s.name == "systolic_audit.audit"),
        "metric_models.curvature_extremes_calls": calls(
            "metric_models.curvature_extremes"),
        "metric_models.curvature_extremes_s": _inclusive_s(
            spans, "metric_models.curvature_extremes"),
        "cli.emit_s": _inclusive_s(spans, "cli._emit"),
        "cli.self_s": sum(s.self_s for s in spans if s.name == "cli.main"),
    }
    for metric, fn in STRIP_METRICS.items():
        name = f"strip_calculus.{fn}"
        m[f"strip_calculus.{metric}_s"] = _inclusive_s(spans, name)
        m[f"strip_calculus.{metric}_calls"] = calls(name)
    return m


def median_metrics(per_op):
    """Median over operations of each per-layer metric."""
    return {k: statistics.median(m[k] for m in per_op)
            for k in LAYER_METRICS}
