"""Experiment orchestration: single runs, mu- and cutoff-scale sweeps, and
the logarithmic-horizon stability runs.  Exit codes: 0 success, 2 config
error, 3 solver halt, 4 rate-fit failure."""

from __future__ import annotations

import ctypes
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io, mollified, shallow
from .config import ExperimentConfig
from .diagnostics import fit_rate
from .dynamics import StripState, init_from_streamfunction
from .errors import ConfigError, StripflowError
from .geometry import Bathymetry, PhysParams
from .grid import StripGrid
from .mollified import MollParams, from_strip_state, run_moll
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


def build_initial(cfg: ExperimentConfig, params: PhysParams):
    """Bathymetry and initial strip state per the configured recipe:
    (bathymetry, state, paired shallow-water state for the comparison
    pipeline or None, well-prepared sum or None)."""
    grid = cfg.grid()
    bath = build_bathymetry(cfg, grid)
    recipe = cfg["initial.recipe"]
    if recipe == "rest":
        state = StripState.rest(grid)
        state.eta0 = cfg["initial.eta0_amplitude"] * np.cos(
            2.0 * np.pi * cfg["initial.eta0_mode"] * grid.x / grid.length
        )
        if grid.d == 2:
            state.eta0 = state.eta0[:, None] * np.ones(grid.n_x)
        return bath, state, None, None
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
        return bath, state, None, None
    # well-prepared from a shallow-water state
    sw = sw_initial(grid, cfg["initial.eta0_amplitude"], cfg["initial.sw_v_amplitude"], cfg["initial.eta0_mode"])
    state, achieved = shallow.well_prepared_init(
        sw, bath, params, s=cfg["run.s"], shear_amp=cfg["initial.shear_amp"], rho_amp=cfg["initial.rho_amp"]
    )
    return bath, state, sw, achieved


def _march(cfg: ExperimentConfig, params: PhysParams, T: float, bath: Bathymetry, state: StripState,
           sw: shallow.SWState | None, moll: MollParams | None, dt: float | None = None):
    """The one march of `run` and of every sweep member: advance built initial
    data to T with the run.* settings and collect the results rows.  ``moll``
    None runs the direct scheme (co-advancing ``sw``, if any), else the
    mollified scheme with those cutoffs; the step is ``dt``, else run.dt, else
    run.cfl times the scheme's step limit (``runner.march``).  Returns (record, rows)."""
    if dt is None and cfg["run.dt"] > 0:
        dt = cfg["run.dt"]
    if moll is None:
        rec = simulate(
            state, bath, params, T, dt=dt, cfl_factor=cfg["run.cfl"],
            s=cfg["run.s"], s0=cfg["run.s0"], cadence=cfg["run.cadence"], sw=sw,
            norm_factor=cfg["limits.norm_factor"],
        )
        rows = [(params, t, rec.reports[i], rec.comparisons[i] if rec.comparisons else None)
                for i, t in enumerate(rec.times)]
        return rec, rows
    rec = run_moll(from_strip_state(state, bath, params), moll, bath, params, T, dt, cfl_factor=cfg["run.cfl"],
                   s=cfg["run.s"], cadence=cfg["run.cadence"], norm_factor=cfg["limits.norm_factor"])
    return rec, [(params, t, None, None, E) for t, E in zip(rec.times, rec.energies)]


def _require_valid(cfg: ExperimentConfig):
    """Raise ConfigError naming every problem of ``cfg``, before anything is
    run or written."""
    problems = cfg.validate()
    if problems:
        raise ConfigError("; ".join(problems))


def run_single(cfg: ExperimentConfig, out_dir, verbose: bool = False) -> tuple[int, dict]:
    _require_valid(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = cfg.params()
    moll = None
    if cfg["scheme.kind"] == "mollified":
        moll = MollParams(cfg["scheme.iota1"], cfg["scheme.iota2"], cfg["scheme.iota3"])
    try:
        bath, state, sw, achieved = build_initial(cfg, params)
    except StripflowError as exc:
        return _halted_before_stepping(out, cfg, f"init-failed: {exc}")
    try:
        rec, rows = _march(cfg, params, cfg["run.T"], bath, state, sw, moll)
    except StripflowError as exc:  # TooManySteps, raised before any step
        return _halted_before_stepping(out, cfg, f"{type(exc).__name__}: {exc}")

    with io.ResultsWriter(out / "results.txt") as w:
        for row in rows:
            w.row(*row)
    extra = {"final_t": rec.final.t, "n_steps": rec.n_steps, "dt": rec.dt, "cfl_margin": rec.cfl_margin}
    if moll is None:
        io.save_snapshot(out / ("final." + ("npz" if cfg["output.format"] == "npz" else "txt")),
                         rec.final, bath.grid, params, cfg["output.format"])
        extra["mean_eta0_drift"] = rec.mean_eta0_drift
    else:
        extra["scheme"] = "mollified"
    if achieved is not None:
        extra["well_prepared_sum"] = achieved
    io.write_manifest(out / "manifest.txt", cfg.dump(), rec.status, extra)
    if verbose:
        print(f"[run] status={rec.status} steps={rec.n_steps} wall={rec.wall_time:.1f}s")
    return (0 if rec.status == "Continue" else 3), {"status": rec.status, "record": rec}


def _halted_before_stepping(out: Path, cfg: ExperimentConfig, status: str) -> tuple[int, dict]:
    """Exit 3 for a run that halted before its first step, ``status`` in its
    manifest."""
    io.write_manifest(out / "manifest.txt", cfg.dump(), status)
    return 3, {"status": status}


def _direct_member(cfg: ExperimentConfig, value: float) -> dict:
    """A mu or log_horizon member: the direct scheme from the configured
    recipe, to run.T at mu = value or to the log horizon at eps = value; its
    error is the err_total of its last comparison."""
    axis = cfg["sweep.axis"]
    params = cfg.member_params(value)
    bath, state, sw, achieved = build_initial(cfg, params)
    T = _horizon(cfg, value) if axis == "log_horizon" else cfg["run.T"]
    rec, rows = _march(cfg, params, T, bath, state, sw, None)
    comp = rec.comparisons[-1] if rec.comparisons else None
    return {
        _AXES[axis][1]: value, "error": comp.err_total if comp is not None else float("nan"),
        "status": rec.status, "rows": rows, "achieved": achieved, "drift": rec.mean_eta0_drift,
        "final_t": rec.final.t,
    }


def _iota_member(cfg: ExperimentConfig, iota3: float) -> dict:
    """Terminal distance between the cutoff run and the zero-cutoff reference,
    both marched from one built state with the cutoff run's step."""
    params = cfg.member_params(iota3)
    T = cfg["run.T"]
    moll = MollParams(cfg["scheme.iota1"], cfg["scheme.iota2"], iota3)
    bath, state, _, _ = build_initial(cfg, params)
    tr, _ = _march(cfg, params, T, bath, state, None, moll)
    ref, _ = _march(cfg, params, T, bath, state, None, replace(moll, iota3=0.0), dt=tr.dt)
    dist = mollified.terminal_distance(tr.final, mollified.slag_to_sigma(ref.final, bath, params), bath, params)
    status = tr.status if ref.status == "Continue" else ref.status
    return {"iota3": iota3, "error": dist, "status": status, "rows": []}


def _horizon(cfg: ExperimentConfig, eps: float) -> float:
    return cfg["run.T"] * np.log(1.0 / eps)


# sweep axis -> (member function, key of the member's axis value)
_AXES = {
    "mu": (_direct_member, "mu"),
    "iota3": (_iota_member, "iota3"),
    "log_horizon": (_direct_member, "eps"),
}


def _member(args) -> dict:
    """One sweep member; a package error anywhere in it becomes the member's
    status, so one bad member cannot take down the sweep or its worker pool."""
    axis, cfg_text, value = args
    worker, key = _AXES[axis]
    try:
        return worker(ExperimentConfig.from_text(cfg_text), value)
    except StripflowError as exc:
        return {key: value, "error": float("nan"), "status": type(exc).__name__,
                "rows": [], "final_t": 0.0}


# the thread-count setter of each OpenBLAS build (numpy's bundled scipy-openblas first)
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread():
    """Initializer of a sweep worker: every OpenBLAS loaded in the process
    runs on one thread, so that N workers do not each start a thread per
    core and oversubscribe the machine.  Does nothing where /proc/self/maps
    cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_SETTERS:
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def worker_pool(jobs: int) -> ProcessPoolExecutor:
    """The process pool of a sweep: ``jobs`` workers, each on one BLAS thread."""
    return ProcessPoolExecutor(max_workers=jobs, initializer=_one_blas_thread)


def sweep(cfg: ExperimentConfig, out_dir, jobs: int = 1, verbose: bool = False) -> tuple[int, dict]:
    """Run the configured axis members (parallelizable), collate terminal
    errors, fit the rate, and write the summary."""
    _require_valid(cfg)
    axis = cfg["sweep.axis"]
    if not axis:
        raise ConfigError("sweep requires sweep.axis")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    key = _AXES[axis][1]
    args = [(axis, cfg.text, v) for v in sorted(cfg["sweep.values"], reverse=True)]

    if jobs > 1:
        with worker_pool(jobs) as pool:
            members = list(pool.map(_member, args))
    else:
        members = [_member(a) for a in args]

    with io.ResultsWriter(out / "results.txt") as w:
        for m in members:
            for row in m["rows"]:
                w.row(*row)

    ok = [m for m in members if m["status"] == "Continue"]
    failed = [m for m in members if m["status"] != "Continue"]
    summary = {"members": members, "excluded": len(failed)}
    code = 0
    extra = {"axis": axis, "members": len(members), "excluded": len(failed)}
    if axis in ("mu", "iota3") and len(ok) >= 3:
        try:
            fit = fit_rate([(m[key], m["error"]) for m in ok])
        except ValueError as exc:  # the surviving members cannot be fitted
            code, extra["fit"] = 4, f"failed: {exc}"
        else:
            io.write_rate_summary(out / "rates.txt", axis, [m[key] for m in ok],
                                  [m["error"] for m in ok], fit)
            summary["fit"] = fit
            if not (cfg["rate.min"] <= fit.slope <= cfg["rate.max"]) or fit.degenerate:
                code = 4
    elif axis == "log_horizon":
        with open(out / "horizon.txt", "w") as fh:
            fh.write("# eps horizon final_t status\n")
            for m in members:
                fh.write(f"{m['eps']} {_horizon(cfg, m['eps']):.6f} {m['final_t']:.6f} {m['status']}\n")
        if failed:
            code = 3
    elif failed:
        code = 3
    io.write_manifest(out / "manifest.txt", cfg.dump(), f"exit={code}", extra)
    if verbose:
        for m in members:
            print(f"[sweep] {axis}={m[key]} err={m['error']:.3e} status={m['status']}")
    return code, summary
