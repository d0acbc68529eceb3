"""Span tracing for the benchmark, installed from outside the library.

A :class:`Tracer` aggregates spans by name: calls, total time, self time
(the span's duration minus its child spans on the same thread) and the
time its direct children cover.  :func:`instrument` patches the public
functions of each ``geoctrl`` module wherever a module binds them, and
:func:`instrument_system` wraps a built system's model callables.  No
file of the library changes; everything is undone when the ``with``
block of :func:`instrument` ends.
"""

import dataclasses
import functools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext

_MISSING = object()


class _Span:
    __slots__ = ("tracer", "name", "stack", "t0")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.stack = self.tracer._stack()
        self.stack.append(0.0)  # time covered by direct children
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self.t0
        child = self.stack.pop()
        if self.stack:
            self.stack[-1] += dt
        self.tracer._record(self.name, dt, child)
        return False


class Tracer:
    """Per-name span aggregates and plain counters, safe across threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.child_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, dt, child):
        with self._lock:
            self.calls[name] += 1
            self.total_s[name] += dt
            self.self_s[name] += dt - child
            self.child_s[name] += child

    def span(self, name):
        return _Span(self, name)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)

        return traced

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += n

    def maximum(self, name, value):
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def ode_evaluation(self, fn):
        """``fn`` counted in ``ode.evals`` as an outer ODE evaluation.

        Calls made on the same thread while it runs see ``in_ode()`` true.
        """

        @functools.wraps(fn)
        def evaluation(*args, **kwargs):
            depth = getattr(self._local, "ode_depth", 0)
            if depth == 0:
                self.count("ode.evals")
            self._local.ode_depth = depth + 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.ode_depth = depth

        return evaluation

    def in_ode(self):
        return getattr(self._local, "ode_depth", 0) > 0


def instrument_system(tracer, sys):
    """The same system with its model callables wrapped in ``models.*`` spans.

    Inertia calls made inside an outer ODE evaluation are also counted in
    ``models.inertia.in_ode``.
    """
    inertia = tracer.wrap("models.inertia", sys.inertia)

    @functools.wraps(sys.inertia)
    def inertia_counting_ode_calls(*args, **kwargs):
        if tracer.in_ode():
            tracer.count("models.inertia.in_ode")
        return inertia(*args, **kwargs)

    changes = {
        "inertia": inertia_counting_ode_calls,
        "input_covectors": [tracer.wrap("models.covector", f) for f in sys.input_covectors],
    }
    if sys.dinertia is not None:
        changes["dinertia"] = tracer.wrap("models.dinertia", sys.dinertia)
    if sys.dinput_covectors is not None:
        changes["dinput_covectors"] = [
            tracer.wrap("models.dcovector", f) for f in sys.dinput_covectors
        ]
    return dataclasses.replace(sys, **changes)


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self, modules):
        self.modules = modules
        self.undo = []

    def set(self, owner, attr, value):
        self.undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def rebind(self, original, replacement):
        """Replace ``original`` in every module that binds it, under any name."""
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def restore(self):
        while self.undo:
            owner, attr, value = self.undo.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


@contextmanager
def instrument(tracer):
    """Route every layer boundary of ``geoctrl`` through ``tracer``.

    A boundary the library no longer has is skipped, so its metrics read
    zero instead of the run failing.
    """
    import geoctrl
    from geoctrl import cli, geometry, kinematic, numutil, oscillatory, series, simulation

    p = _Patches([geoctrl, cli, geometry, kinematic, numutil, oscillatory, series, simulation])
    wrap = tracer.wrap

    def rebind(owner, attr, make):
        """Rebind owner.attr, wherever a module binds it, to make(original)."""
        original = getattr(owner, attr, None)
        if original is not None:
            p.rebind(original, make(original))

    def patch(cls, attr, make):
        original = vars(cls).get(attr)
        if original is not None:
            p.set(cls, attr, make(original))

    def spanned(name):
        return lambda fn: wrap(name, fn)

    try:
        for owner, attr in (
            (geometry, "input_span_data"),
            (geometry, "christoffel"),
            (kinematic, "find_decoupling_fields"),
            (kinematic, "kinematic_controllability"),
            (series, "predict_from_rest"),
            (series, "truncation_errors"),
            (numutil, "cumulative_simpson_uniform"),
            (numutil, "lagrange4_interp"),
            (oscillatory, "convergence_study"),
            (cli, "load_config"),
            (cli, "parse_model"),
        ):
            rebind(owner, attr, spanned(f"{owner.__name__.split('.')[-1]}.{attr}"))

        ms = geometry.MechanicalSystem
        patch(ms, "solve_mass", spanned("geometry.solve_mass"))
        patch(ms, "input_fields_matrix", spanned("geometry.input_fields_matrix"))

        def traced_input_field(input_field):
            def input_field_with_jacobian_span(self, a):
                vf = input_field(self, a)
                return dataclasses.replace(
                    vf, jacobian=wrap("geometry.input_field.jacobian", vf.jacobian)
                )

            return input_field_with_jacobian_span

        patch(ms, "input_field", traced_input_field)

        def counted_simulate(simulate):
            def simulate_counting_controls(sys, control, x0, t0, t1, cfg):
                tracer.count("simulation.simulate.steps", round((t1 - t0) / cfg.dt))

                def law(t, q, qd):
                    tracer.count("simulation.control.calls")
                    return control.eval(t, q, qd)

                return simulate(sys, dataclasses.replace(control, eval=law), x0, t0, t1, cfg)

            return wrap("simulation.simulate", simulate_counting_controls)

        rebind(simulation, "simulate", counted_simulate)

        def counted_rk4(rk4):
            def rk4_counting_steps(rhs, x0, t0, dt, steps):
                tracer.count("simulation.rk4.steps", steps)
                return rk4(tracer.ode_evaluation(rhs), x0, t0, dt, steps)

            return rk4_counting_steps

        rebind(simulation, "_rk4", counted_rk4)

        def counted_reconstruct(reconstruct):
            def reconstruct_counting_samples(sys, traj):
                tracer.count("simulation.reconstruct_inputs.samples", max(traj.n_samples - 2, 0))
                rec = reconstruct(sys, traj)
                tracer.maximum("kinematic.plan.max_residual", rec.max_residual)
                return rec

            return wrap("simulation.reconstruct_inputs", reconstruct_counting_samples)

        rebind(simulation, "reconstruct_inputs", counted_reconstruct)

        def counted_plan(plan):
            def plan_counting_resolves(sys, segments, q0, cfg, *args, **kwargs):
                def counted_field(field):
                    return dataclasses.replace(field, eval=tracer.ode_evaluation(field.eval))

                segments = [
                    dataclasses.replace(
                        seg,
                        candidate=dataclasses.replace(
                            seg.candidate, field=counted_field(seg.candidate.field)
                        ),
                    )
                    for seg in segments
                ]
                before = tracer.calls["kinematic.find_decoupling_fields"]
                try:
                    return plan(sys, segments, q0, cfg, *args, **kwargs)
                finally:
                    tracer.count(
                        "kinematic.plan.resolves",
                        tracer.calls["kinematic.find_decoupling_fields"] - before,
                    )
                    path_steps = getattr(kinematic, "_PATH_STEPS", -1)
                    tracer.count("kinematic.plan.arc_nodes", (path_steps + 1) * len(segments))

            return wrap("kinematic.kinematic_plan", plan_counting_resolves)

        rebind(kinematic, "kinematic_plan", counted_plan)

        patch(oscillatory.SpanCoefficients, "check", spanned("oscillatory.span_check"))
        patch(oscillatory.AveragedSystem, "simulate", spanned("oscillatory.averaged_simulate"))

        class TracedPool(ThreadPoolExecutor):
            """Times the member fan-out and each member on its worker thread."""

            def __enter__(self):
                self._fanout = tracer.span("oscillatory.fanout").__enter__()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    self._fanout.__exit__(*exc)

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(wrap("oscillatory.member", fn), *args, **kwargs)

        if getattr(oscillatory, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            p.set(oscillatory, "ThreadPoolExecutor", TracedPool)

        patch(oscillatory.ConvergenceStudy, "write_csv", spanned("cli.write"))
        build = cli.build
        p.set(cli, "build", lambda desc: instrument_system(tracer, build(desc)))

        @contextmanager
        def cli_open(file, mode="r", *args, **kwargs):
            with tracer.span("cli.write") if "w" in mode else nullcontext():
                with open(file, mode, *args, **kwargs) as fh:
                    yield fh

        p.set(cli, "open", cli_open)
        yield tracer
    finally:
        p.restore()
