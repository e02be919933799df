"""Experiment orchestration: single runs, mu- and cutoff-scale sweeps, and
the logarithmic-horizon stability runs.  Exit codes: 0 success, 2 config
error, 3 solver halt, 4 rate-fit failure."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import io, mollified, shallow
from .config import ExperimentConfig
from .diagnostics import fit_rate
from .dynamics import StripState, init_from_streamfunction
from .errors import StripflowError
from .geometry import Bathymetry, PhysParams
from .grid import StripGrid
from .mollified import MollParams, from_strip_state, run_moll, terminal_distance
from .runner import simulate


def build_bathymetry(cfg: ExperimentConfig, grid: StripGrid) -> Bathymetry:
    preset = cfg["bathymetry.preset"]
    if preset == "file":
        return Bathymetry.from_file(grid, cfg["bathymetry.path"])
    return Bathymetry.preset(grid, preset, cfg["bathymetry.amplitude"])


def sw_initial(grid: StripGrid, eta_amp: float, v_amp: float, mode: int = 1) -> shallow.SWState:
    phase = 2.0 * np.pi * mode * grid.x / grid.length
    eta = eta_amp * np.cos(phase)
    V = v_amp * np.sin(phase)
    if grid.d == 2:
        eta = eta[:, None] * np.cos(phase)[None, :]
        V = V[:, None] * np.ones(grid.n_x)[None, :]
    sw = shallow.SWState.rest(grid)
    sw.eta = eta
    sw.V[0] = V
    return sw


def build_initial(
    cfg: ExperimentConfig, grid: StripGrid, params: PhysParams, bath: Bathymetry, rng: np.random.Generator
):
    """Initial strip state per the configured recipe; returns the paired
    shallow-water state for the comparison pipeline when one exists."""
    recipe = cfg["initial.recipe"]
    if recipe == "rest":
        state = StripState.rest(grid)
        state.eta0 = cfg["initial.eta0_amplitude"] * np.cos(
            2.0 * np.pi * cfg["initial.eta0_mode"] * grid.x / grid.length
        )
        if grid.d == 2:
            state.eta0 = state.eta0[:, None] * np.ones(grid.n_x)
        return state, None, None
    if recipe == "streamfunction":
        amp, mode = cfg["initial.psi_amplitude"], cfg["initial.psi_mode"]
        kx = 2.0 * np.pi * mode / grid.length
        sq = params.sqrt_mu

        def psi(x, z):
            return amp * sq * np.sin(kx * x) * (z + 1.0) ** 2

        def dpsi_dx(x, z):
            return amp * sq * kx * np.cos(kx * x) * (z + 1.0) ** 2

        def dpsi_dz(x, z):
            return 2.0 * amp * sq * np.sin(kx * x) * (z + 1.0)

        eta0 = cfg["initial.eta0_amplitude"] * np.cos(
            2.0 * np.pi * cfg["initial.eta0_mode"] * grid.x / grid.length
        )
        rho0 = np.zeros((grid.n_r + 1,) + grid.xshape)
        state = init_from_streamfunction(psi, dpsi_dx, dpsi_dz, rho0, eta0, bath, params)
        return state, None, None
    # well-prepared from a shallow-water state
    sw = sw_initial(grid, cfg["initial.eta0_amplitude"], cfg["initial.sw_v_amplitude"], cfg["initial.eta0_mode"])
    state, achieved = shallow.well_prepared_init(
        sw, bath, params, s=cfg["run.s"], shear_amp=cfg["initial.shear_amp"], rho_amp=cfg["initial.rho_amp"]
    )
    return state, sw, achieved


def run_single(cfg: ExperimentConfig, out_dir, seed: int, verbose: bool = False) -> tuple[int, dict]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = cfg.grid()
    params = cfg.params()
    bath = build_bathymetry(cfg, grid)
    rng = np.random.default_rng(seed)

    try:
        state, sw, achieved = build_initial(cfg, grid, params, bath, rng)
    except StripflowError as exc:
        io.write_manifest(out / "manifest.txt", cfg.dump(), seed, f"init-failed: {exc}")
        return 3, {"status": f"init-failed: {exc}"}

    if cfg["scheme.kind"] == "mollified":
        moll = MollParams(cfg["scheme.iota1"], cfg["scheme.iota2"], cfg["scheme.iota3"])
        slag = from_strip_state(state, bath, params)
        traj = run_moll(slag, moll, bath, params, cfg["run.T"], s=cfg["run.s"])
        with io.ResultsWriter(out / "results.txt") as w:
            for t, E in zip(traj.times, traj.energies):
                w.row(params, t, energy=E)
        io.write_manifest(
            out / "manifest.txt", cfg.dump(), seed, traj.status,
            {"scheme": "mollified", "final_t": traj.final.t},
        )
        return (0 if traj.status == "Continue" else 3), {"status": traj.status}

    dt = cfg["run.dt"] if cfg["run.dt"] > 0 else None
    rec = simulate(
        state, bath, params, cfg["run.T"], dt=dt, cfl_factor=cfg["run.cfl"],
        s=cfg["run.s"], s0=cfg["run.s0"], cadence=cfg["run.cadence"], sw=sw,
        norm_factor=cfg["limits.norm_factor"],
    )
    with io.ResultsWriter(out / "results.txt") as w:
        for i, t in enumerate(rec.times):
            comp = rec.comparisons[i] if rec.comparisons else None
            w.row(params, t, rec.reports[i], comp)
    io.save_snapshot(out / ("final." + ("npz" if cfg["output.format"] == "npz" else "txt")),
                     rec.final, grid, params, cfg["output.format"])
    extra = {"final_t": rec.final.t, "n_steps": rec.n_steps, "dt": rec.dt,
             "mean_eta0_drift": rec.mean_eta0_drift}
    if achieved is not None:
        extra["well_prepared_sum"] = achieved
    io.write_manifest(out / "manifest.txt", cfg.dump(), seed, rec.status, extra)
    if verbose:
        _dump_solver_debug(out / "solver_debug.txt", rec.final, bath, params)
        print(f"[run] status={rec.status} steps={rec.n_steps} wall={rec.wall_time:.1f}s")
    return (0 if rec.status == "Continue" else 3), {"status": rec.status, "record": rec}


def _dump_solver_debug(path, state, bath, params):
    """Columnar dump of the elliptic coefficient health and solve effort."""
    from .dynamics import assemble_pressure_problem
    from .geometry import build_diffeo
    from .pressure import SolveInfo, solve_pressure

    diffeo = build_diffeo(bath, state.eta0, params)
    problem, _ = assemble_pressure_problem(state, diffeo, params)
    info = SolveInfo(0, 0.0)
    solve_pressure(problem, info=info)
    with open(path, "w") as fh:
        fh.write("# t A_eigen_min iterations residual\n")
        fh.write(f"{state.t:.6f} {problem.A_eigen_min():.6e} {info.iterations} {info.residual:.3e}\n")


def _mu_member(args):
    cfg_text, mu, seed, track_delta = args
    cfg = ExperimentConfig.from_text(cfg_text)
    grid = cfg.grid()
    params = cfg.params(mu=mu, delta=(mu if track_delta else None))
    bath = build_bathymetry(cfg, grid)
    rng = np.random.default_rng(seed)
    try:
        state, sw, achieved = build_initial(cfg, grid, params, bath, rng)
    except StripflowError as exc:
        return {"mu": mu, "error": float("nan"), "status": type(exc).__name__,
                "rows": [], "achieved": None, "drift": float("nan")}
    dt = cfg["run.dt"] if cfg["run.dt"] > 0 else None
    rec = simulate(
        state, bath, params, cfg["run.T"], dt=dt, cfl_factor=cfg["run.cfl"],
        s=cfg["run.s"], s0=cfg["run.s0"], cadence=cfg["run.cadence"], sw=sw,
        norm_factor=cfg["limits.norm_factor"],
    )
    comp = rec.comparisons[-1] if rec.comparisons else None
    err = comp.err_total if comp is not None else float("nan")
    rows = []
    for i, t in enumerate(rec.times):
        c = rec.comparisons[i] if rec.comparisons else None
        rows.append((params, t, rec.reports[i], c))
    return {
        "mu": mu, "error": err, "status": rec.status, "rows": rows,
        "achieved": achieved, "drift": rec.mean_eta0_drift,
    }


def _iota_member(args):
    cfg_text, iota3, seed = args
    cfg = ExperimentConfig.from_text(cfg_text)
    grid = cfg.grid()
    params = cfg.params()
    bath = build_bathymetry(cfg, grid)
    rng = np.random.default_rng(seed)
    state, _, _ = build_initial(cfg, grid, params, bath, rng)
    T = cfg["run.T"]
    moll0 = MollParams(cfg["scheme.iota1"], cfg["scheme.iota2"], 0.0)
    base_dt = mollified.cfl_dt_slag(from_strip_state(state, bath, params),
                                    MollParams(0, 0, max(iota3, 1e-12)), bath, params)
    n = max(1, int(np.ceil(T / base_dt)))
    dt = T / n
    ref = run_moll(from_strip_state(state, bath, params), moll0, bath, params, T, dt=dt, s=cfg["run.s"])
    tr = run_moll(from_strip_state(state, bath, params),
                  MollParams(cfg["scheme.iota1"], cfg["scheme.iota2"], iota3),
                  bath, params, T, dt=dt, s=cfg["run.s"])
    dist = mollified.terminal_distance(tr.final, mollified.slag_to_sigma(ref.final, bath, params), bath, params)
    return {"iota3": iota3, "error": dist, "status": tr.status, "rows": []}


def _log_horizon_member(args):
    cfg_text, eps, seed = args
    cfg = ExperimentConfig.from_text(cfg_text)
    grid = cfg.grid()
    mu = eps * eps
    base = cfg.params()
    params = PhysParams(
        eps=eps, beta=base.beta, mu=mu, delta=min(base.delta, mu), g=base.g,
        rho_bar=base.rho_bar, h_min=base.h_min, h_max=base.h_max, c_star=base.c_star,
    )
    bath = build_bathymetry(cfg, grid)
    rng = np.random.default_rng(seed)
    horizon = cfg["run.T"] * np.log(1.0 / eps)
    try:
        state, sw, achieved = build_initial(cfg, grid, params, bath, rng)
    except StripflowError as exc:
        return {"eps": eps, "error": float("nan"), "status": type(exc).__name__,
                "rows": [], "horizon": horizon, "final_t": 0.0}
    rec = simulate(
        state, bath, params, horizon, cfl_factor=cfg["run.cfl"], s=cfg["run.s"],
        s0=cfg["run.s0"], cadence=cfg["run.cadence"], sw=sw,
        norm_factor=cfg["limits.norm_factor"],
    )
    rows = [(params, t, rec.reports[i], rec.comparisons[i] if rec.comparisons else None)
            for i, t in enumerate(rec.times)]
    return {"eps": eps, "error": float("nan"), "status": rec.status,
            "rows": rows, "horizon": horizon, "final_t": rec.final.t}


def sweep(cfg: ExperimentConfig, out_dir, jobs: int = 1, seed: int = 0, verbose: bool = False) -> tuple[int, dict]:
    """Run the configured axis members (parallelizable), collate terminal
    errors, fit the rate, and write the summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    axis = cfg["sweep.axis"]
    values = sorted(cfg["sweep.values"], reverse=True)
    if axis == "mu":
        worker, args = _mu_member, [(cfg.text, v, seed, cfg["sweep.delta_tracks_mu"]) for v in values]
    elif axis == "iota3":
        worker, args = _iota_member, [(cfg.text, v, seed) for v in values]
    elif axis == "log_horizon":
        worker, args = _log_horizon_member, [(cfg.text, v, seed) for v in values]
    else:
        raise StripflowError(f"unknown sweep axis {axis!r}")

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            members = list(pool.map(worker, args))
    else:
        members = [worker(a) for a in args]

    with io.ResultsWriter(out / "results.txt") as w:
        for m in members:
            for params, t, rep, comp in m.get("rows", []):
                w.row(params, t, rep, comp)

    ok = [m for m in members if m["status"] == "Continue"]
    failed = [m for m in members if m["status"] != "Continue"]
    summary = {"members": members, "excluded": len(failed)}
    code = 0
    key = "iota3" if axis == "iota3" else "mu"
    if axis in ("mu", "iota3") and len(ok) >= 3:
        fit = fit_rate([(m[key], m["error"]) for m in ok])
        io.write_rate_summary(out / "rates.txt", axis, [m[key] for m in ok],
                              [m["error"] for m in ok], fit)
        summary["fit"] = fit
        if not (cfg["rate.min"] <= fit.slope <= cfg["rate.max"]) or fit.degenerate:
            code = 4
    elif axis == "log_horizon":
        flags = [m["status"] for m in members]
        with open(out / "horizon.txt", "w") as fh:
            fh.write("# eps horizon final_t status\n")
            for m in members:
                fh.write(f"{m['eps']} {m['horizon']:.6f} {m['final_t']:.6f} {m['status']}\n")
        if any(f != "Continue" for f in flags):
            code = 3
    elif failed:
        code = 3
    io.write_manifest(out / "manifest.txt", cfg.dump(), seed, f"exit={code}",
                      {"axis": axis, "members": len(members), "excluded": len(failed)})
    if verbose:
        for m in members:
            print(f"[sweep] {axis}={m.get(axis, m.get('mu'))} err={m['error']:.3e} status={m['status']}")
    return code, summary
