"""Time-marching driver of both integrators: advances a state in equal steps
under the one step-limit rule, observes it at t = 0, at a fixed cadence and at
T, and halts with a structured status when a step exceeds the limit, an
observation flags a blow-up, or a step or observation raises a package error."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import shallow
from .diagnostics import EnergyReport, blowup_monitor, energy
from .dynamics import PressureGuess, StripState, assemble_pressure_problem, cfl_dt, project_divergence_free, step_rk4
from .errors import CFLViolation, StripflowError, TooManySteps
from .geometry import Bathymetry, PhysParams, build_diffeo
from .pressure import solve_pressure, taylor_coefficient
from .shallow import SWState


@dataclass
class RunRecord:
    status: str
    times: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    comparisons: list = field(default_factory=list)
    final: object = None
    dt: float = 0.0
    n_steps: int = 0
    wall_time: float = 0.0
    halted_at: float | None = None
    cfl_margin: float = 0.0

    @property
    def mean_eta0_drift(self) -> float:
        """Largest deviation of the mean surface from its first recorded
        value; 0 when nothing was recorded."""
        means = [r.mean_eta0 for r in self.reports]
        return max((abs(m - means[0]) for m in means), default=0.0)


# the longest march a run may take: a million steps of the smallest grid
# (16 x 8, at rest, 1.5 ms a step on a 2-core x86 box) take 25 minutes
MAX_STEPS = 10**6

# a run's largest step in units of its scheme's step limit (Courant, Friedrichs & Lewy 1928)
CFL_MAX = 0.5


def march(state, T: float, dt: float | None, cadence: int, step, observe, limit, cfl=None) -> RunRecord:
    """Advance a copy of ``state`` to T in equal steps no longer than dt.

    ``limit(state)`` is the scheme's factor-free step limit; dt None takes
    ``cfl`` times its initial value.  Before every step CFLViolation is raised
    when dt exceeds CFL_MAX times the current limit; ``cfl_margin`` keeps the
    worst ratio of dt to that bound.
    ``step(state, dt)`` returns the next state.  ``observe(state, rec)``
    records its snapshot into ``rec`` and returns ``(state, status)``, the run
    continuing from that state; it runs at t = 0, every ``cadence`` steps and
    at T, and the time is recorded after it.  A
    status other than Continue, or a package error in a step or an
    observation, ends the run with that status; ``halted_at`` is the time of
    the last state reached (the start of a failed step, or the state whose
    observation failed or flagged).  Raises TooManySteps, before any step,
    when the march needs more than MAX_STEPS steps."""
    t0 = time.perf_counter()
    if dt is None:
        dt = cfl * limit(state)
    with np.errstate(divide="ignore"):  # a limit that underflowed to 0 needs inf steps
        steps = np.ceil(T / dt - 1e-12)
    if not steps <= MAX_STEPS:  # a NaN step count too
        raise TooManySteps(f"T = {T:.3e} at dt = {dt:.3e} needs {steps:.3e} steps, more than {MAX_STEPS}")
    n_steps = max(1, int(steps))
    dt = T / n_steps
    rec = RunRecord(status="Continue", dt=dt, n_steps=n_steps)
    state = state.copy()
    try:
        for k in range(n_steps + 1):
            if k > 0:
                bound = CFL_MAX * limit(state)
                rec.cfl_margin = max(rec.cfl_margin, dt / bound)
                if dt > bound:
                    raise CFLViolation(f"dt={dt:.3e} exceeds bound {bound:.3e}")
                state = step(state, dt)
            if k % cadence == 0 or k == n_steps:
                state, status = observe(state, rec)
                rec.times.append(state.t)
                if status != "Continue":
                    rec.status = status
                    break
    except StripflowError as exc:
        rec.status = type(exc).__name__
    if rec.status != "Continue":
        rec.halted_at = state.t
    rec.final = state
    rec.wall_time = time.perf_counter() - t0
    return rec


def measure(
    state: StripState, bathymetry: Bathymetry, params: PhysParams, s: float, s0: float,
    guess: PressureGuess | None = None,
) -> EnergyReport:
    """One diagnostic snapshot: solves the pressure for the Taylor weight.
    The first stage of a step from ``state`` poses the same problem, so the
    solve starts from the guess ``guess`` makes for that stage, when given;
    a guess that holds no pressure yet keeps the solved one as its
    ``start``, that stage's guess."""
    diffeo = build_diffeo(bathymetry, state.eta0, params)
    problem, _ = assemble_pressure_problem(state, diffeo, params)
    P_hat = solve_pressure(problem, x0=None if guess is None else guess.initial(half_step=False))
    if guess is not None and not guess.solves:
        guess.start = P_hat
    return energy(state, taylor_coefficient(P_hat, diffeo, params), s, s0, params, diffeo)


def simulate(
    initial: StripState,
    bathymetry: Bathymetry,
    params: PhysParams,
    T: float,
    dt: float | None = None,
    cfl_factor: float = 0.4,
    s: float = 4.0,
    s0: float = 2.0,
    cadence: int = 10,
    sw: SWState | None = None,
    norm_factor: float = 10.0,
) -> RunRecord:
    """Advance to time T with fixed dt (by default cfl_factor times the step
    limit, with ``sw`` the smaller of the strip's and Saint-Venant's); one
    ``PressureGuess`` carries the spectra of the last pressures across steps
    (``dynamics.warm_started``).  Each observation after t = 0 projects the
    state first (the initial-state constructors project or build a rest
    state) and the run continues from the projected state, so every recorded
    state and ``final`` are projected.  An observation's pressure is the one
    the next step's first stage solves: it starts from that stage's guess,
    and at t = 0, where no pressure is held yet, the first stage starts from
    it (``measure``).  The projection's pressure is another quantity and
    starts cold.  When a shallow-water state is supplied it is co-advanced
    on the same clock and a ComparisonReport is recorded at each
    observation, with the shear norm of the energy report."""
    guess = PressureGuess(bathymetry.grid)

    def step(state, dt):
        nonlocal sw
        state = step_rk4(state, dt, bathymetry, params, guess)
        if sw is not None:
            sw = shallow.sw_step_rk4(sw, dt, bathymetry, params)
        return state

    def limit(state):
        bound = cfl_dt(state, bathymetry, params)
        return bound if sw is None else min(bound, shallow.cfl_dt_sw(sw, bathymetry, params))

    def observe(state, rec):
        if rec.times:
            state = project_divergence_free(state, bathymetry, params)
        report = measure(state, bathymetry, params, s, s0, guess)
        comparison = None if sw is None else shallow.compare(state, sw, s, bathymetry, params, report.shear_ratio)
        initial_norm = (rec.reports[0] if rec.reports else report).state_norm
        status = blowup_monitor(report, initial_norm, params, norm_factor)
        rec.reports.append(report)
        rec.energies.append(report.E_s)
        if comparison is not None:
            rec.comparisons.append(comparison)
        return state, status

    return march(initial, T, dt, cadence, step, observe, limit, cfl_factor)
