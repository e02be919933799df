"""Outside-in instrumentation of stripflow.

Wrappers are installed from the benchmark's side; nothing under ``src/`` is
edited.  Several stripflow functions are imported by name into other modules
(``from .pressure import solve_pressure``), so a wrapper placed only where a
function is defined would miss those calls.  ``Instrumentation.install``
therefore scans every loaded ``stripflow`` module and replaces each binding of
the original object, and ``uninstall`` restores them all.

Two recorders use the same mechanism:

* ``StepClock`` (untraced runs) wraps only the integrator step functions.  It
  times each step and can abort a run when its first step begins, which is how
  set-up time is measured from outside.
* ``Tracer`` (traced runs) records a span at every layer boundary listed in
  ``SPANS``: name, start, end and parent id, kept in flat arrays and written
  out at the end.  Per-name aggregates (calls, total time, self time, and the
  shares that fall inside an integrator step) are updated as spans close.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

PACKAGE = "stripflow"

# (defining module, attribute, span name).  "Class.method" patches the class.
STEP_SPANS = [
    ("stripflow.dynamics", "step_rk4", "dynamics.step_rk4"),
    ("stripflow.mollified", "step_rk4_slag", "mollified.step"),
]

SPANS = STEP_SPANS + [
    ("stripflow.spectral", "rfft", "spectral.rfft"),
    ("stripflow.spectral", "irfft", "spectral.irfft"),
    ("stripflow.spectral", "dx", "spectral.dx"),
    ("stripflow.spectral", "dr", "spectral.dr"),
    ("stripflow.spectral", "quadratic", "spectral.quadratic"),
    ("stripflow.spectral", "apply_multiplier", "spectral.multiplier"),
    ("stripflow.spectral", "dealias", "spectral.multiplier"),
    ("stripflow.spectral", "lambda_pow", "spectral.multiplier"),
    ("stripflow.spectral", "mollify", "spectral.multiplier"),
    ("stripflow.spectral", "harmonic_extension", "spectral.multiplier"),
    ("stripflow.geometry", "build_diffeo", "geometry.build_diffeo"),
    ("stripflow.geometry", "SigmaOps.grad_phi", "geometry.sigma_ops"),
    ("stripflow.geometry", "SigmaOps.dr_phi", "geometry.sigma_ops"),
    ("stripflow.geometry", "SigmaOps.div_phi", "geometry.sigma_ops"),
    ("stripflow.geometry", "SigmaOps.advect", "geometry.sigma_ops"),
    ("stripflow.pressure", "solve_pressure", "pressure.solve"),
    ("stripflow.pressure", "gmres", "pressure.gmres"),
    ("stripflow.pressure", "EllipticProblem.apply", "pressure.matvec"),
    ("stripflow.pressure", "_apply_flat_inverse", "pressure.precond"),
    ("stripflow.pressure", "_flat_inverse", "pressure.flat_inverse"),
    ("stripflow.dynamics", "euler_rhs", "dynamics.euler_rhs"),
    ("stripflow.dynamics", "project_divergence_free", "dynamics.project"),
    ("stripflow.mollified", "slag_rhs", "mollified.slag_rhs"),
    ("stripflow.mollified", "moll_energy", "mollified.moll_energy"),
    ("stripflow.mollified", "slag_to_sigma", "mollified.slag_to_sigma"),
    ("stripflow.mollified", "terminal_distance", "mollified.terminal_distance"),
    ("stripflow.mollified", "run_moll", "mollified.run_moll"),
    ("stripflow.shallow", "sw_step_rk4", "shallow.sw_step"),
    ("stripflow.shallow", "compare", "shallow.compare"),
    ("stripflow.shallow", "well_prepared_init", "shallow.well_prepared_init"),
    ("stripflow.runner", "measure", "runner.measure"),
    ("stripflow.runner", "simulate", "runner.simulate"),
    ("stripflow.diagnostics", "energy", "diagnostics.energy"),
    ("stripflow.experiments", "sweep", "experiments.sweep"),
    ("stripflow.io", "write_manifest", "io.write"),
    ("stripflow.io", "write_rate_summary", "io.write"),
    ("stripflow.io", "save_snapshot", "io.write"),
    ("stripflow.io", "ResultsWriter.__init__", "io.write"),
    ("stripflow.io", "ResultsWriter.row", "io.write"),
    ("stripflow.io", "ResultsWriter.close", "io.write"),
    ("stripflow.config", "parse_config_text", "config.parse"),
]

STEP_NAMES = frozenset(name for _, _, name in STEP_SPANS)

# Names whose per-call durations are kept for medians.
SAMPLED = frozenset(
    STEP_NAMES
    | {"pressure.solve", "dynamics.project", "shallow.sw_step"}
)

# Binding sites the tracer must cover (functions imported by name); each is
# wrapped by the module scan in ``install``, and ``uncovered`` verifies it.
REQUIRED_SITES = (
    "stripflow.runner.step_rk4",
    "stripflow.dynamics.solve_pressure",
    "stripflow.mollified.solve_pressure",
    "stripflow.dynamics.build_diffeo",
    "stripflow.runner.build_diffeo",
    "stripflow.mollified.build_diffeo",
    "stripflow.shallow.project_divergence_free",
    "stripflow.experiments.simulate",
    "stripflow.experiments.run_moll",
)


class FirstStep(BaseException):
    """Raised when the first integrator step begins in a set-up-only run.

    A BaseException so that no ``except Exception`` in the program swallows it.
    """


def _resolve(modname: str, attr: str):
    """(owner, attribute name) for "func" or "Class.method" in a module."""
    owner = sys.modules[modname]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _unwrap(fn):
    while hasattr(fn, "__bench_original__"):
        fn = fn.__bench_original__
    return fn


class Instrumentation:
    """Installs wrappers at every binding of a function and restores them."""

    def __init__(self):
        self._undo = []
        self.sites = []
        self.missing = []

    def _bind(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, specs, make_wrapper):
        """Wrap each spec's function; ``make_wrapper(fn, name)`` builds the
        wrapper.  Module-level bindings are replaced in every loaded stripflow
        module that holds the same object; methods are patched on the class.
        Specs the program no longer defines are listed in ``missing``."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for modname, attr, name in specs:
            try:
                owner, leaf = _resolve(modname, attr)
                original = _unwrap(owner.__dict__[leaf])
            except (KeyError, AttributeError):
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = make_wrapper(original, name)
            wrapper.__bench_original__ = original
            if isinstance(owner, type):
                self._bind(owner, leaf, wrapper)
                self.sites.append(f"{modname}.{attr}")
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if _unwrap(value) is original and value is not wrapper:
                        self._bind(mod, key, wrapper)
                        self.sites.append(f"{mod.__name__}.{key}")

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
        self.sites.clear()
        self.missing.clear()

    def uncovered(self):
        """Required binding sites that exist in the program but were not
        wrapped (a site the program no longer has is not reported)."""
        out = []
        for site in REQUIRED_SITES:
            modname, attr = site.rsplit(".", 1)
            if hasattr(sys.modules.get(modname), attr) and site not in self.sites:
                out.append(site)
        return out


class StepClock:
    """Times integrator steps from outside; optionally aborts at the first.

    With a ``speed`` (``bench_speed.CoreSpeed``) it also lets the core-speed
    kernel run between steps, outside the timed calls."""

    def __init__(self, speed=None):
        self.abort_at_first_step = False
        self.speed = speed
        self.reset()

    def reset(self):
        self.first_step_at = None
        self.starts = []
        self.durations = []

    def wrapper(self, fn, _name):
        clock = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def step(*args, **kwargs):
            start = perf()
            if clock.first_step_at is None:
                clock.first_step_at = start
                if clock.abort_at_first_step:
                    raise FirstStep()
            out = fn(*args, **kwargs)
            end = perf()
            clock.starts.append(start)
            clock.durations.append(end - start)
            if clock.speed is not None:
                clock.speed.tick(end)
            return out

        return step


class Tracer:
    """Span stack with parent ids and per-name aggregates."""

    def __init__(self, clock: StepClock):
        self.clock = clock
        self.names = []
        self._ids = {}
        for _, _, name in SPANS:
            self._id(name)
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.step_calls = [0] * n
        self.step_self = [0.0] * n
        self.samples = {name: [] for name in SAMPLED}
        self.gmres_iters = []
        self.project_iters = []
        self.solve_failures = 0
        self.flat_builds = []
        self.stack = []
        self.step_depth = 0
        self.next_id = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- span stack ---------------------------------------------------------

    def enter(self, nid, is_step):
        if is_step:
            self.step_depth += 1
        sid = self.next_id
        self.next_id += 1
        self.stack.append([nid, time.perf_counter(), 0.0, sid, is_step])

    def exit(self):
        end = time.perf_counter()
        nid, start, child, sid, is_step = self.stack.pop()
        dur = end - start
        own = dur - child
        parent = -1
        if self.stack:
            top = self.stack[-1]
            top[2] += dur
            parent = top[3]
        self.calls[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += own
        if self.step_depth:
            self.step_calls[nid] += 1
            self.step_self[nid] += own
        if is_step:
            self.step_depth -= 1
        self.span_id.append(sid)
        self.span_parent.append(parent)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)
        return dur

    def inside(self, name):
        nid = self._ids[name]
        return any(frame[0] == nid for frame in self.stack)

    # -- wrappers -----------------------------------------------------------

    def wrapper(self, fn, name):
        if name == "pressure.solve":
            return self._solve_wrapper(fn, name)
        if name == "pressure.flat_inverse" and hasattr(fn, "cache_info"):
            return self._cached_build_wrapper(fn, name)
        tracer, nid, is_step = self, self._id(name), name in STEP_NAMES
        keep = self.samples.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_step and clock.first_step_at is None:
                clock.first_step_at = time.perf_counter()
            tracer.enter(nid, is_step)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = tracer.exit()
                if keep is not None:
                    keep.append(dur)
                    if is_step:
                        clock.durations.append(dur)

        return traced

    def _solve_wrapper(self, fn, name):
        """Passes its own SolveInfo when the caller passes none, so the GMRES
        iterations of every solve are recorded from outside."""
        tracer, nid = self, self._id(name)
        keep = self.samples[name]
        sig = inspect.signature(fn)
        solve_info = sys.modules["stripflow.pressure"].SolveInfo
        has_info = "info" in sig.parameters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = None
            if has_info:
                bound = sig.bind(*args, **kwargs)
                info = bound.arguments.get("info")
                if info is None:
                    info = solve_info(0, 0.0)
                    bound.arguments["info"] = info
                args, kwargs = bound.args, bound.kwargs
            in_project = tracer.inside("dynamics.project")
            tracer.enter(nid, False)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.solve_failures += 1
                raise
            finally:
                keep.append(tracer.exit())
            if info is not None:
                tracer.gmres_iters.append(info.iterations)
                if in_project:
                    tracer.project_iters.append(info.iterations)
            return out

        return traced

    def _cached_build_wrapper(self, fn, name):
        """Counts a build only when the lru cache missed."""
        tracer, nid = self, self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = fn.cache_info().misses
            tracer.enter(nid, False)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = tracer.exit()
                if fn.cache_info().misses > misses:
                    tracer.flat_builds.append(dur)

        for attr in ("cache_info", "cache_clear"):
            setattr(traced, attr, getattr(fn, attr))
        return traced

    # -- summaries ----------------------------------------------------------

    def counts(self) -> dict:
        """Exact counts that must repeat between identical units."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "step_calls": dict(zip(self.names, self.step_calls)),
            "gmres_iters": list(self.gmres_iters),
            "flat_builds": len(self.flat_builds),
            "solve_failures": self.solve_failures,
        }

    def spans(self) -> dict:
        import numpy as np

        return {
            "names": np.array(self.names),
            "id": np.frombuffer(self.span_id, dtype=np.int64),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64),
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }
