"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The heavy sweep data is computed once per module in fixtures and shared by
the criteria that consume it (the mass-conservation check runs over every
accepted run recorded here).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from stripflow import Bathymetry, PhysParams, StripGrid, build_diffeo
from stripflow import spectral
from stripflow.config import ExperimentConfig
from stripflow.diagnostics import fit_rate
from stripflow.dynamics import (
    StripState,
    init_from_streamfunction,
    step_rk4,
)
from stripflow.experiments import _direct_member, sw_initial, sweep
from stripflow.geometry import alinhac_unknown
from stripflow.mollified import (
    MollParams,
    from_strip_state,
    run_moll,
    slag_to_sigma,
    terminal_distance,
)
from stripflow.pressure import EllipticProblem, SolveInfo, solve_pressure, taylor_coefficient
from stripflow.runner import simulate
from stripflow.shallow import well_prepared_init


def report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def gronwall_slope(times, energies, skip: float = 0.05) -> float:
    """max_t log(E(t)/E(0))/t over the recorded series, ignoring the earliest
    fraction where the quotient is noise-dominated."""
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if energies[0] <= 0:
        raise ValueError("needs a nonzero initial energy")
    mask = times > skip * times[-1]
    vals = np.log(energies[mask] / energies[0]) / times[mask]
    return float(vals.max())


def growth_scale(params: PhysParams) -> float:
    """eps v beta v delta/mu, the slope scale of the energy growth."""
    return max(params.eps, params.beta, params.delta / params.mu)


ACCEPTED_RUNS = []  # (label, mean surface drift) pairs collected for the mass check

# the headline mu-sweep, run as users run it, on up to two workers (each
# runs BLAS on one thread, so two of them on 2 cores beat one worker)
JOBS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
MU_SWEEP = Path(__file__).resolve().parents[1] / "configs" / "mu_sweep.cfg"
# its columnar variant: no shear, no density, delta fixed at 0
COLUMNAR = "\ninitial.shear_amp = 0\ninitial.rho_amp = 0\nsweep.delta_tracks_mu = false\n"


@pytest.fixture(scope="module")
def sweep_vortical(tmp_path_factory):
    t0 = time.perf_counter()
    _, summary = sweep(ExperimentConfig.from_file(MU_SWEEP), tmp_path_factory.mktemp("mu_sweep"), jobs=JOBS)
    wall = time.perf_counter() - t0
    members = summary["members"]
    for m in members:
        ACCEPTED_RUNS.append((f"mu-sweep mu={m['mu']:g}", m["drift"]))
    return members, wall


@pytest.fixture(scope="module")
def sweep_columnar(tmp_path_factory):
    cfg = ExperimentConfig.from_text(MU_SWEEP.read_text() + COLUMNAR)
    _, summary = sweep(cfg, tmp_path_factory.mktemp("columnar_sweep"), jobs=JOBS)
    members = summary["members"]
    for m in members:
        ACCEPTED_RUNS.append((f"columnar sweep mu={m['mu']:g}", m["drift"]))
    return members


@pytest.fixture(scope="module")
def shear_run():
    grid = StripGrid(n_x=128, n_r=32)
    bath = Bathymetry.cosine(grid, 0.25)
    mu = 1e-2
    params = PhysParams(eps=0.25, beta=0.25, mu=mu, delta=mu)
    sw = sw_initial(grid, 0.1, 0.1)
    state, _ = well_prepared_init(sw, bath, params, 4.0, shear_amp=0.065, rho_amp=0.15)
    T = 1.0 / max(params.eps, params.beta)
    rec = simulate(state, bath, params, T, s=4.0, s0=2.0, cadence=20, sw=sw)
    ACCEPTED_RUNS.append(("shear-regime run", rec.mean_eta0_drift))
    return rec


@pytest.fixture(scope="module")
def gronwall_pair():
    def one(n_x, n_r):
        grid = StripGrid(n_x=n_x, n_r=n_r)
        bath = Bathymetry.cosine(grid, 0.3)
        params = PhysParams(eps=0.4, beta=0.4, mu=1e-2, delta=1e-2)
        sw = sw_initial(grid, 0.08, 0.08)
        st, _ = well_prepared_init(sw, bath, params, 4.0, shear_amp=0.04, rho_amp=0.25)
        rec = simulate(st, bath, params, 1.0, s=4.0, s0=2.0, cadence=10, sw=sw)
        K = gronwall_slope(rec.times, rec.energies) / growth_scale(params)
        return K, rec

    K1, rec1 = one(128, 24)
    K2, rec2 = one(256, 48)
    ACCEPTED_RUNS.append(("gronwall coarse", rec1.mean_eta0_drift))
    ACCEPTED_RUNS.append(("gronwall fine", rec2.mean_eta0_drift))
    return K1, K2


@pytest.fixture(scope="module")
def log_horizon_run():
    grid = StripGrid(n_x=128, n_r=32)
    bath = Bathymetry.cosine(grid, 0.2)
    eps = 0.1
    params = PhysParams(eps=eps, beta=1.0, mu=eps**2, delta=0.0)
    sw = sw_initial(grid, 0.1, 0.1)
    state, achieved = well_prepared_init(sw, bath, params, 4.0, shear_amp=0.05, rho_amp=0.0)
    horizon = 0.5 * np.log(1.0 / eps)
    rec = simulate(state, bath, params, horizon, s=4.0, s0=2.0, cadence=20, sw=sw)
    ACCEPTED_RUNS.append(("log-horizon run", rec.mean_eta0_drift))
    return rec, horizon, achieved


def test_criterion_01_rest_fixpoint():
    grid = StripGrid(n_x=128, n_r=32)
    params = PhysParams(eps=0.5, beta=1.0, mu=1e-2)
    bath = Bathymetry(grid, 0.45 * np.cos(grid.x))  # depth >= 0.55 at beta = 1
    state = StripState.rest(grid)
    t0 = time.perf_counter()
    for _ in range(1000):
        state = step_rk4(state, 1e-3, bath, params)
    wall = time.perf_counter() - t0
    change = max(
        np.abs(state.V).max(), np.abs(state.w).max(),
        np.abs(state.rho).max(), np.abs(state.eta0).max(),
    )
    ok = change < 1e-12 and wall < 10.0
    assert report(1, ok, f"rest fixpoint: change {change:.1e} < 1e-12, runtime {wall:.1f}s < 10s")


def test_criterion_02_pressure_manufactured_convergence():
    x, r = sp.symbols("x r")
    eps_v, beta_v, delta_v, bamp, e0amp = 0.4, 0.6, 0.3, 0.3, 0.1
    b_s = sp.Float(bamp) * sp.cos(x)
    eta0_s = sp.Float(e0amp) * sp.cos(x) + sp.Float(e0amp / 2) * sp.sin(2 * x)
    sigma = r * (1 - beta_v * b_s) + eps_v * (1 + r) * eta0_s
    h = sp.diff(sigma, r)
    kap = sp.diff(sigma, x) / h
    rho_s = sp.Rational(2, 10) * sp.cos(x) * sp.cos(sp.pi * r / 2)
    nu_s = 1 / (1 + eps_v * delta_v * rho_s)
    Pstar = sp.sin(x) * sp.sin(sp.pi * r / 2) + sp.Rational(1, 5) * sp.cos(2 * x) * (r + r**3)
    mu_s = sp.Symbol("mu", positive=True)
    Qx = nu_s * (sp.diff(Pstar, x) - kap * sp.diff(Pstar, r))
    Qr = nu_s * sp.diff(Pstar, r) / h
    S = mu_s * (sp.diff(Qx, x) - kap * sp.diff(Qx, r)) + sp.diff(Qr, r) / h
    bottom = (Qr - mu_s * (beta_v * sp.diff(b_s, x)) * Qx).subs(r, -1)
    fS = sp.lambdify((x, r, mu_s), S, "numpy")
    fbot = sp.lambdify((x, mu_s), bottom, "numpy")
    fP = sp.lambdify((x, r), Pstar, "numpy")
    frho = sp.lambdify((x, r), rho_s, "numpy")

    def solve_at(n_r, mu):
        grid = StripGrid(n_x=64, n_r=n_r)
        params = PhysParams(eps=eps_v, beta=beta_v, mu=mu, delta=delta_v)
        bath = Bathymetry(grid, bamp * np.cos(grid.x))
        e0 = e0amp * np.cos(grid.x) + e0amp / 2 * np.sin(2 * grid.x)
        diffeo = build_diffeo(bath, e0, params)
        X = np.broadcast_to(grid.x, (grid.n_r + 1,) + grid.xshape)
        Rm = np.broadcast_to(grid.r[:, None], X.shape)
        problem = EllipticProblem(
            diffeo=diffeo, mu=mu, rho_bar=1.0,
            nu=1.0 / (1.0 + eps_v * delta_v * frho(X, Rm)),
            rows=np.concatenate([fbot(grid.x, mu)[None], fS(X, Rm, mu)[1:n_r]]),
        )
        info = SolveInfo(0, 0.0)
        P = spectral.irfft(grid, solve_pressure(problem, info=info))
        return spectral.l2_strip(grid, P - fP(X, Rm)), info.iterations

    errs = [solve_at(n_r, 1e-2)[0] for n_r in (16, 32, 64)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    iters = [solve_at(32, mu)[1] for mu in (1.0, 1e-2, 1e-4)]
    spread = max(iters) / min(iters)
    ok = min(orders) >= 3.5 and spread < 2.0
    assert report(
        2, ok,
        f"manufactured solution: orders {orders[0]:.2f}/{orders[1]:.2f} >= 3.5, "
        f"iterations {iters} spread {spread:.2f}x < 2x",
    )


def test_criterion_03_shallow_water_rate(sweep_vortical):
    members, wall = sweep_vortical
    for m in members:
        assert m["status"] == "Continue"
        assert m["achieved"] <= np.sqrt(m["mu"])
        # scaled initial vorticity stays bounded independently of mu: the
        # report of the first results row (params, t, report, comparison)
        assert m["rows"][0][2].vort_norm < 5.0
    fit = fit_rate([(m["mu"], m["error"]) for m in members])
    ok = 0.4 <= fit.slope <= 1.1 and wall < 15 * 60
    assert report(
        3, ok,
        f"well-prepared mu-sweep slope {fit.slope:.3f} in [0.4, 1.1], "
        f"errors {['%.2e' % m['error'] for m in members]}, wall {wall:.0f}s < 900s",
    )


def test_headline_error_is_grid_converged(sweep_vortical):
    # the smallest-mu member of the headline sweep re-run at twice the
    # horizontal and at twice the vertical resolution: the discrepancy the
    # rate fit reads is that of the model, not of the grid
    members, _ = sweep_vortical
    coarse = min(members, key=lambda m: m["mu"])
    for refined in ("grid.n_x = 512", "grid.n_r = 96"):
        fine = _direct_member(ExperimentConfig.from_text(MU_SWEEP.read_text() + f"\n{refined}\n"), coarse["mu"])
        assert fine["status"] == "Continue"
        assert abs(fine["error"] - coarse["error"]) <= 1e-3 * coarse["error"], (refined, coarse["error"], fine["error"])


def test_criterion_04_columnar_sharpening(sweep_columnar):
    members = sweep_columnar
    for m in members:
        assert m["status"] == "Continue"
        assert m["achieved"] < 1e-6  # exact columnar lift
    fit = fit_rate([(m["mu"], m["error"]) for m in members])
    ok = fit.slope >= 0.8
    assert report(
        4, ok,
        f"homogeneous/columnar sweep slope {fit.slope:.3f} >= 0.8, "
        f"errors {['%.2e' % m['error'] for m in members]}",
    )


def test_criterion_05_shear_regime_propagation(shear_run):
    rec = shear_run
    ratios = [r.shear_ratio for r in rec.reports]
    factor = max(ratios) / ratios[0]
    ok = rec.status == "Continue" and factor <= 4.0
    assert report(
        5, ok,
        f"scaled shear over [0, {rec.times[-1]:.0f}]: max/initial {factor:.2f} <= 4",
    )


def test_criterion_06_mass_conservation(sweep_vortical, sweep_columnar, shear_run, gronwall_pair, log_horizon_run):
    worst = max(drift for _, drift in ACCEPTED_RUNS)
    ok = worst <= 1e-8
    assert report(6, ok, f"mean surface drift over {len(ACCEPTED_RUNS)} accepted runs: {worst:.2e} <= 1e-8")


def test_criterion_07_energy_growth_bound(gronwall_pair):
    K1, K2 = gronwall_pair
    ratio = max(K1, K2) / max(min(K1, K2), 1e-12)
    ok = ratio <= 2.0 and K1 > 0
    assert report(
        7, ok, f"growth constant K coarse {K1:.3f} vs refined {K2:.3f}, ratio {ratio:.2f} <= 2",
    )


def test_criterion_08_mollified_consistency():
    grid = StripGrid(n_x=64, n_r=32)
    params = PhysParams(eps=0.25, beta=0.25, mu=0.1, delta=0.0)
    bath = Bathymetry.cosine(grid, 0.2)
    state0 = StripState.rest(grid)
    state0.eta0 = 0.05 * np.cos(grid.x)
    T, dt = 0.5, 0.004

    direct = state0.copy()
    for _ in range(int(round(T / dt))):
        direct = step_rk4(direct, dt, bath, params)
    base = run_moll(from_strip_state(state0, bath, params), MollParams(), bath, params, T, dt=dt)
    agree = terminal_distance(base.final, direct, bath, params)

    ref_sigma = slag_to_sigma(base.final, bath, params)
    samples = []
    for i3 in (1e-1, 1e-2, 1e-3):
        tr = run_moll(from_strip_state(state0, bath, params), MollParams(0, 0, i3), bath, params, T, dt=dt)
        samples.append((i3, terminal_distance(tr.final, ref_sigma, bath, params)))
    fit = fit_rate(samples)
    ok = 0.8 <= fit.slope <= 1.2 and agree <= 1e-8
    assert report(
        8, ok,
        f"dispersive-cutoff slope {fit.slope:.3f} in [0.8, 1.2]; zero-cutoff agreement {agree:.1e} <= 1e-8",
    )


def physical_sigma_gradients(grid, ops, f):
    """(grad_phi f, dr_phi f) from ``spectral.dx`` and ``spectral.dr`` in
    physical space: a reference independent of ``SigmaOps``."""
    df = spectral.dr(grid, f)
    return spectral.dx(grid, f) - ops.kappa * df, ops.gamma * df


def test_criterion_09_good_unknown_commutator():
    grid = StripGrid(n_x=64, n_r=32)
    s = 4.0
    bshape = np.cos(grid.x) + 0.4 * np.sin(2 * grid.x)
    e0shape = np.cos(grid.x) - 0.3 * np.cos(3 * grid.x)
    R = grid.r[:, None]
    f = np.sin(grid.x)[None, :] * R + 0.3 * np.cos(2 * grid.x)[None, :] * np.cos(np.pi * R / 2)
    samples = []
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        params = PhysParams(eps=t, beta=t, mu=0.1)
        d = build_diffeo(Bathymetry(grid, bshape), e0shape, params)
        gx, gr = physical_sigma_gradients(grid, d.ops, f)
        fs = alinhac_unknown(f, spectral.rfft(grid, f), s, d)
        gxs, grs = physical_sigma_gradients(grid, d.ops, fs)
        rx = spectral.lambda_pow(grid, gx[0], s, dotted=True) - gxs[0]
        rr = spectral.lambda_pow(grid, gr, s, dotted=True) - grs
        resid = np.sqrt(spectral.l2_strip(grid, rx) ** 2 + spectral.l2_strip(grid, rr) ** 2)
        samples.append((t, resid))
    fit = fit_rate(samples)
    ok = 0.9 <= fit.slope <= 1.1
    assert report(9, ok, f"commutator residual slope in amplitude: {fit.slope:.4f} in [0.9, 1.1]")


def test_criterion_10_blowup_machinery():
    # (a) a synthetic surface-coefficient violation trips the monitor
    grid = StripGrid(n_x=64, n_r=16)
    params = PhysParams(eps=0.5, beta=0.0, mu=0.1, c_star=0.2)
    bath = Bathymetry.flat(grid)
    st = StripState.rest(grid)
    st.eta0 = 0.02 * np.cos(grid.x)
    diffeo = build_diffeo(bath, st.eta0, params)
    P_bad = 40.0 * np.broadcast_to(grid.r[:, None], (grid.n_r + 1,) + grid.xshape)
    a = taylor_coefficient(spectral.rfft(grid, P_bad), diffeo, params)
    from stripflow.diagnostics import blowup_monitor
    from stripflow.runner import measure as _measure

    rep = _measure(st, bath, params, 4.0, 2.0)
    synthetic = type(rep)(**{**rep.__dict__, "taylor_min": a.min()})
    trig = blowup_monitor(synthetic, rep.state_norm, params)

    # (b) a strongly sheared layer either completes or halts cleanly
    grid2 = StripGrid(n_x=64, n_r=32)
    p2 = PhysParams(eps=0.5, beta=0.0, mu=0.1, delta=0.0)
    bath2 = Bathymetry.flat(grid2)
    amp, width = 6.0, 0.1
    sq = np.sqrt(p2.mu)
    psi = lambda x, z: amp * sq * width * np.log(np.cosh((z + 0.5) / width)) + 0 * x
    dpx = lambda x, z: 0.0 * x + 0.0 * z
    dpz = lambda x, z: amp * sq * np.tanh((z + 0.5) / width) + 0 * x
    st2 = init_from_streamfunction(
        psi, dpx, dpz, np.zeros((grid2.n_r + 1,) + grid2.xshape), 0.02 * np.cos(grid2.x), bath2, p2
    )
    rec = simulate(st2, bath2, p2, 3.0, s=4.0, s0=2.0, cadence=5, norm_factor=10.0)
    finite = (
        all(np.isfinite(r.E_s) for r in rec.reports)
        and np.isfinite(rec.final.V).all()
        and np.isfinite(rec.final.w).all()
    )
    clean = rec.status in ("Continue", "NormBlowup", "TaylorDegenerate", "BlowUpSuspected", "NoConvergence")
    ok = trig == "TaylorDegenerate" and finite and clean
    assert report(
        10, ok,
        f"synthetic surface-coefficient violation -> {trig}; "
        f"sheared-layer run -> {rec.status} with finite outputs ({finite})",
    )


def test_criterion_11_log_horizon(log_horizon_run):
    rec, horizon, achieved = log_horizon_run
    ok = rec.status == "Continue" and abs(rec.final.t - horizon) < 1e-9
    assert report(
        11, ok,
        f"mu = eps^2 run reached t = {rec.final.t:.3f} (target {horizon:.3f}) without blow-up flags",
    )
