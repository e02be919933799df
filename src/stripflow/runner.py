"""Time-marching driver: advances a strip state, records energy and
comparison series at a fixed cadence, and halts with a structured status when
a blow-up flag fires or a step or measurement raises a package error."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import shallow
from .diagnostics import EnergyReport, blowup_monitor, energy
from .dynamics import StripState, cfl_dt, solve_state_pressure, step_rk4
from .errors import StripflowError
from .geometry import Bathymetry, PhysParams, build_diffeo
from .pressure import taylor_coefficient
from .shallow import SWState


@dataclass
class RunRecord:
    status: str
    times: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    comparisons: list = field(default_factory=list)
    final: StripState | None = None
    dt: float = 0.0
    n_steps: int = 0
    wall_time: float = 0.0
    halted_at: float | None = None

    @property
    def energies(self):
        return [r.E_s for r in self.reports]

    @property
    def mean_eta0_drift(self) -> float:
        """Largest deviation of the mean surface from its first recorded
        value; 0 when nothing was recorded."""
        means = [r.mean_eta0 for r in self.reports]
        return max((abs(m - means[0]) for m in means), default=0.0)


def measure(state: StripState, bathymetry: Bathymetry, params: PhysParams, s: float, s0: float) -> EnergyReport:
    """One diagnostic snapshot: solves the pressure for the Taylor weight."""
    diffeo = build_diffeo(bathymetry, state.eta0, params)
    P = solve_state_pressure(state, diffeo, params)
    taylor = taylor_coefficient(P, diffeo, params)
    return energy(state, taylor, s, s0, params, diffeo)


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
    sw_dt_ratio: int = 1,
    norm_factor: float = 10.0,
) -> RunRecord:
    """Advance to time T with fixed dt (from the initial CFL bound when not
    given).  When a shallow-water state is supplied it is co-advanced on the
    same clock and a ComparisonReport is recorded at each cadence."""
    t0 = time.perf_counter()
    state = initial.copy()
    if dt is None:
        dt = cfl_dt(state, bathymetry, params, cfl_factor)
        if sw is not None:
            dt = min(dt, shallow.cfl_dt_sw(sw, bathymetry, params, cfl_factor))
    n_steps = max(1, int(np.ceil(T / dt - 1e-12)))
    dt = T / n_steps
    sw = sw.copy() if sw is not None else None

    rec = RunRecord(status="Continue", dt=dt, n_steps=n_steps)
    try:
        report = measure(state, bathymetry, params, s, s0)
        if sw is not None:
            rec.comparisons.append(shallow.compare(state, sw, s, bathymetry, params))
    except StripflowError as exc:
        # a bad initial state halts before the first step
        rec.status, rec.halted_at, n_steps = type(exc).__name__, 0.0, 0
    else:
        initial_norm = report.state_norm
        rec.times.append(0.0)
        rec.reports.append(report)

    for step in range(n_steps):
        try:
            state = step_rk4(state, dt, bathymetry, params, enforce_cfl=False)
            if sw is not None:
                sub = max(1, sw_dt_ratio)
                for _ in range(sub):
                    sw = shallow.sw_step_rk4(sw, dt / sub, bathymetry, params)
            if (step + 1) % cadence != 0 and step != n_steps - 1:
                continue
            report = measure(state, bathymetry, params, s, s0)
            comparison = None if sw is None else shallow.compare(state, sw, s, bathymetry, params)
            diffeo = build_diffeo(bathymetry, state.eta0, params)
            status = blowup_monitor(state, report, initial_norm, params, diffeo, norm_factor)
        except StripflowError as exc:
            # state is the last one reached: the start of a failed step, or
            # the state whose measurement failed
            rec.status = type(exc).__name__
            rec.halted_at = state.t
            break
        rec.times.append(state.t)
        rec.reports.append(report)
        if comparison is not None:
            rec.comparisons.append(comparison)
        if status != "Continue":
            rec.status = status
            rec.halted_at = state.t
            break

    rec.final = state
    rec.wall_time = time.perf_counter() - t0
    return rec
