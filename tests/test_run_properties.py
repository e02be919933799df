"""Slower property checks that need short real runs: the surface-coefficient
time-derivative envelope, the irrotational reduction, the equivalence ratios
monitored along a trajectory, the projection of every observed state, its
stop and the warm start of its pressure, and the first stage's start from
the t = 0 observation's pressure."""

import numpy as np

from stripflow import Bathymetry, PhysParams, StripGrid, build_diffeo
from stripflow import runner, spectral
from stripflow import dynamics
from stripflow.dynamics import (
    PressureGuess,
    StripState,
    assemble_pressure_problem,
    cfl_dt,
    divergence_report,
    euler_rhs,
    project_divergence_free,
    step_rk4,
    vorticity,
)
from stripflow.errors import StripflowError
from stripflow.experiments import sw_initial
from stripflow.pressure import solve_pressure, taylor_coefficient
from stripflow.runner import simulate
from stripflow.shallow import well_prepared_init

from conftest import count_solve_iterations


class InsufficientHistory(StripflowError):
    """Time-differencing requested with fewer than two snapshots."""


def taylor_time_derivative(history: list, dt: float) -> np.ndarray:
    """Backward finite difference of the Taylor coefficient in time."""
    if len(history) < 2:
        raise InsufficientHistory("need at least two snapshots")
    vals = [np.asarray(h) for h in history]
    if len(vals) == 2:
        return (vals[-1] - vals[-2]) / dt
    return (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * dt)


def equivalence_ratios(grid, report, state, s: float = 4.0) -> dict:
    """The shear and vertical-derivative controls of an observed ``state``
    over sqrt(E_s) of its ``report``: the scaled shear, ||d_r w||_{H^(s-1)}
    and ||w||_{H^(s-1)}."""
    root = np.sqrt(max(report.E_s, 1e-300))
    return {
        "shear": report.shear_ratio / root,
        "drw": spectral.sobolev_norm(grid, spectral.dr(grid, state.w), s - 1) / root,
        "w": spectral.sobolev_norm(grid, state.w, s - 1) / root,
    }


def equivalence_checks(ratios: dict, reference: dict, factor: float = 4.0) -> dict:
    """Ratio stability of the controls against sqrt(E_s); the constants are
    fitted at the ``reference`` snapshot, never asserted against analysis
    constants."""
    flags = {key: ratios[key] <= factor * max(reference[key], 1e-14) for key in ratios}
    return {"ratios": ratios, "ok": all(flags.values()), "flags": flags}


def test_taylor_derivative_envelope_during_run():
    # |da/dt|_inf along a run is bounded by C eps (norm package), with the
    # constant fitted on the first sample and monitored over the rest
    grid = StripGrid(n_x=64, n_r=24)
    params = PhysParams(eps=0.3, beta=0.3, mu=1e-2, delta=1e-2)
    bath = Bathymetry.cosine(grid, 0.25)
    sw = sw_initial(grid, 0.08, 0.08)
    state, _ = well_prepared_init(sw, bath, params, 4.0, shear_amp=0.04, rho_amp=0.2)
    dt = 0.2 * cfl_dt(state, bath, params)
    taylors, envelopes = [], []
    s0 = 2.0
    for i in range(30):
        state = step_rk4(state, dt, bath, params)
        diffeo = build_diffeo(bath, state.eta0, params)
        P_hat = solve_pressure(assemble_pressure_problem(state, diffeo, params)[0])
        taylors.append(taylor_coefficient(P_hat, diffeo, params))
        sq = params.sqrt_mu
        pack = spectral.sobolev_norm(
            grid, np.stack([state.V[0], sq * state.w, sq * state.rho]), s0 + 2
        ) + spectral.surface_norm(grid, state.eta0, s0 + 2)
        envelopes.append(params.eps * pack)
        if len(taylors) >= 2:
            rate = np.abs(taylor_time_derivative(taylors[-3:], dt)).max()
            if len(envelopes) == 2:
                fitted_C = max(rate / envelopes[-1], 1e-6)
            if len(taylors) > 2:
                assert rate <= 10.0 * fitted_C * envelopes[-1]


def test_irrotational_homogeneous_flow_stays_irrotational():
    # delta = 0 and zero initial curl: the recomputed vorticity stays at the
    # discretization noise floor over the run
    grid = StripGrid(n_x=64, n_r=24)
    params = PhysParams(eps=0.3, beta=0.3, mu=1e-2, delta=0.0)
    bath = Bathymetry.cosine(grid, 0.2)
    state = StripState.rest(grid)
    state.eta0 = 0.08 * np.cos(grid.x)
    dt = 0.2 * cfl_dt(state, bath, params)
    for _ in range(40):
        state = step_rk4(state, dt, bath, params)
    diffeo = build_diffeo(bath, state.eta0, params)
    om = vorticity(state, diffeo, params)
    floor = spectral.sobolev_norm(grid, om, 3.0)
    drive = spectral.sobolev_norm(grid, state.V[0], 3.0)
    assert drive > 1e-3  # the wave actually developed a flow
    assert floor < 1e-6 * max(drive, 1.0) + 1e-9


def test_equivalence_ratios_stable_over_run(monkeypatch):
    grid = StripGrid(n_x=128, n_r=32)
    mu = 1e-2
    params = PhysParams(eps=0.25, beta=0.25, mu=mu, delta=mu)
    bath = Bathymetry.cosine(grid, 0.25)
    sw = sw_initial(grid, 0.1, 0.1)
    state, _ = well_prepared_init(sw, bath, params, 4.0, shear_amp=0.065, rho_amp=0.15)
    observed, measure = [], runner.measure

    def recording_measure(st, *args):
        observed.append(st)
        return measure(st, *args)

    monkeypatch.setattr(runner, "measure", recording_measure)
    rec = simulate(state, bath, params, 1.0, s=4.0, s0=2.0, cadence=20, sw=sw)
    assert rec.status == "Continue" and len(observed) == len(rec.reports)
    ratios = [equivalence_ratios(grid, rep, st, 4.0) for rep, st in zip(rec.reports, observed)]
    for r in ratios[1:]:
        out = equivalence_checks(r, reference=ratios[0], factor=4.0)
        assert out["ok"], out["ratios"]


def test_simulate_projects_every_observed_state(monkeypatch):
    # the steps do not project (their drift grows by about 2e-13 relative per
    # step here); simulate projects before each observation after t = 0, the
    # observations see the projected states and the run continues from them
    grid = StripGrid(n_x=64, n_r=16)
    params = PhysParams(eps=0.3, beta=0.3, mu=1e-2, delta=1e-2)
    bath = Bathymetry.cosine(grid, 0.25)
    state, _ = well_prepared_init(sw_initial(grid, 0.08, 0.08), bath, params, 4.0, shear_amp=0.04, rho_amp=0.2)
    observed, projected = [], []
    measure, project = runner.measure, runner.project_divergence_free

    def recording_measure(st, *args):
        observed.append(st)
        return measure(st, *args)

    def recording_project(st, *args):
        projected.append(project(st, *args))
        return projected[-1]

    monkeypatch.setattr(runner, "measure", recording_measure)
    monkeypatch.setattr(runner, "project_divergence_free", recording_project)
    dt = 0.2 * cfl_dt(state, bath, params)
    rec = simulate(state, bath, params, 5 * dt, dt=dt, cadence=2)
    assert rec.status == "Continue" and len(rec.times) == 4  # t = 0, 2 dt, 4 dt, 5 dt
    assert all(a is b for a, b in zip(observed[1:], projected))
    assert len(projected) == 3 and rec.final is projected[-1]
    for st in observed:
        assert divergence_report(st, bath, params)["div_interior_rel"] < 5e-14
    again = project_divergence_free(rec.final, bath, params)
    for f in ("V", "w"):
        a, b = getattr(again, f), getattr(rec.final, f)
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


def test_observation_pressure_starts_from_last_stage_pressure(monkeypatch):
    # each observation after t = 0 solves its pressure from the last stage
    # pressure, extrapolated as the guess of the next first stage, whose
    # problem it is: fewer iterations than the same solve started cold, and
    # the same energy to solver tolerance
    grid = StripGrid(n_x=64, n_r=16)
    params = PhysParams(eps=0.3, beta=0.3, mu=1e-2, delta=1e-2)
    bath = Bathymetry.cosine(grid, 0.25)
    state, _ = well_prepared_init(sw_initial(grid, 0.08, 0.08), bath, params, 4.0, shear_amp=0.04, rho_amp=0.2)
    dt = 0.2 * cfl_dt(state, bath, params)
    iterations = count_solve_iterations(monkeypatch)
    rec = simulate(state, bath, params, 4 * dt, dt=dt, cadence=2)
    # the t = 0 measure, then per observation 8 stage solves, the projection
    # and the measure
    assert rec.status == "Continue" and len(iterations) == 21
    warm = iterations[20]
    cold_report = runner.measure(rec.final, bath, params, 4.0, 2.0)
    cold = iterations[21]
    assert warm < cold
    assert abs(rec.reports[-1].E_s - cold_report.E_s) <= 1e-8 * cold_report.E_s


def test_drift_projection_stops_at_the_round_off_of_the_velocity(monkeypatch):
    # the mu = 0.1 member of the headline sweep after 75 steps: the drift the
    # projection removes is about 3e-12 of mu ||(V, sqrt(mu) w)|| (2e-12 after
    # 25 steps before the column-share preconditioner, 5.5e-13 with it), and
    # solved to 1e-12 of itself it took 80 to 113 iterations
    grid = StripGrid(n_x=256, n_r=48)
    params = PhysParams(eps=0.5, beta=0.5, mu=0.1, delta=0.1)
    bath = Bathymetry.cosine(grid, 0.3)
    state, _ = well_prepared_init(sw_initial(grid, 0.1, 0.1), bath, params, 4.0, shear_amp=0.03, rho_amp=0.2)
    dt, guess = 0.4 * cfl_dt(state, bath, params), PressureGuess(grid)
    for _ in range(75):
        state = step_rk4(state, dt, bath, params, guess)
    assert divergence_report(state, bath, params)["div_interior_rel"] > 1e-12
    iterations = count_solve_iterations(monkeypatch)
    out = project_divergence_free(state, bath, params)
    assert len(iterations) == 1 and iterations[0] <= 3
    assert divergence_report(out, bath, params)["div_interior_rel"] < 5e-14


def test_first_stage_starts_from_the_pressure_of_the_t0_observation(monkeypatch):
    # the t = 0 measure solves the problem that the first stage of the first
    # step poses again: that stage makes no iteration, and its rates are those
    # of a cold solve to round-off
    grid = StripGrid(n_x=64, n_r=16)
    params = PhysParams(eps=0.3, beta=0.3, mu=1e-2, delta=1e-2)
    bath = Bathymetry.cosine(grid, 0.25)
    state, _ = well_prepared_init(sw_initial(grid, 0.08, 0.08), bath, params, 4.0, shear_amp=0.04, rho_amp=0.2)
    dt = 0.2 * cfl_dt(state, bath, params)
    stage_rates, rhs = [], dynamics.euler_rhs

    def recording_rhs(*args, **kwargs):
        rates, P_hat = rhs(*args, **kwargs)
        stage_rates.append(rates)
        return rates, P_hat

    monkeypatch.setattr(dynamics, "euler_rhs", recording_rhs)
    iterations = count_solve_iterations(monkeypatch)
    rec = simulate(state, bath, params, dt, dt=dt, cadence=1)
    assert rec.status == "Continue"
    assert iterations[0] > 0 and iterations[1] == 0
    cold, _ = euler_rhs(state, bath, params)
    for f in ("V", "w", "rho", "eta0"):
        a, b = getattr(stage_rates[0], f), getattr(cold, f)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), f
