"""Command-line entry point.

Subcommands: run (single experiment), sweep (axis study with rate fit),
check (fast invariant suite), rate (re-fit a slope from an existing results
file).  Exit codes: 0 success, 2 config error, 3 solver halt, 4 fit failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .diagnostics import fit_rate
from .errors import ConfigError, StripflowError


def cmd_run(args) -> int:
    from .experiments import run_single

    code, _ = run_single(ExperimentConfig.from_file(args.config), args.out, args.verbose)
    return code


def cmd_sweep(args) -> int:
    from .experiments import sweep

    code, summary = sweep(ExperimentConfig.from_file(args.config), args.out, args.jobs, args.verbose)
    fit = summary.get("fit")
    if fit is not None:
        print(f"slope = {fit.slope:.4f}  intercept = {fit.intercept:.4f}  "
              f"residual = {fit.residual:.3e}")
    return code


def cmd_check(args) -> int:
    """Fast self-contained invariant suite (a smoke check, not the tests)."""
    from . import spectral
    from .dynamics import StripState, divergence_report, step_rk4
    from .geometry import Bathymetry, PhysParams, build_diffeo
    from .grid import StripGrid
    from .mollified import MollParams, from_strip_state, step_rk4_slag
    from .runner import simulate
    from .shallow import SWState, sw_step_rk4

    grid = StripGrid(n_x=32, n_r=12)
    params = PhysParams(eps=0.3, beta=0.5, mu=1e-2)
    bath = Bathymetry.cosine(grid, 0.3)
    failures = []

    def check(name, ok):
        print(f"[{'pass' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)

    f = np.cos(grid.x)
    g2 = spectral.lambda_pow(grid, spectral.lambda_pow(grid, f, 1.25), 0.75)
    check("multiplier composition", np.allclose(g2, spectral.lambda_pow(grid, f, 2.0), atol=1e-12))
    check("mollifier is identity at 0", np.allclose(spectral.mollify(grid, f, 0.0), f))
    eta0 = 0.05 * np.cos(grid.x)
    diffeo = build_diffeo(bath, eta0, params)
    check("depth identity", np.allclose(diffeo.h_tot, 1 - params.beta * bath.values + params.eps * eta0))
    state = StripState.rest(grid)
    s1 = step_rk4(state, 1e-3, bath, params)
    delta = max(np.abs(s1.V).max(), np.abs(s1.w).max(), np.abs(s1.eta0).max())
    check("rest state is a fixpoint", delta < 1e-13)
    m1 = step_rk4_slag(from_strip_state(state, bath, params), 1e-3, MollParams(), bath, params)
    delta = max(np.abs(m1.V).max(), np.abs(m1.w).max(), np.abs(m1.eta0).max())
    check("rest state is a fixpoint of the mollified scheme", delta < 1e-13)
    sw1 = sw_step_rk4(SWState.rest(grid), 1e-3, bath, params)
    check("rest state is a fixpoint of Saint-Venant", max(np.abs(sw1.V).max(), np.abs(sw1.eta).max()) < 1e-13)
    state.eta0 = 0.05 * np.cos(grid.x)
    s2 = step_rk4(state, 1e-3, bath, params)
    check("divergence under control", divergence_report(s2, bath, params)["div_l2"] < 1e-10)
    rec = simulate(state, bath, params, 2e-3, dt=1e-3, cadence=2)
    div = divergence_report(rec.final, bath, params)["div_interior_linf"]
    check("observed final state is divergence-free", len(rec.times) == 2 and div < 1e-10)
    rec = simulate(state, bath, params, 2.0, dt=1.0)
    check("a step beyond the step limit halts at t = 0", rec.status == "CFLViolation" and rec.halted_at == 0.0)
    return 3 if failures else 0


def cmd_rate(args) -> int:
    from .io import RESULTS_HEADER

    columns = RESULTS_HEADER.lstrip("#").split()
    try:
        data = np.loadtxt(args.results, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"results file {args.results}: {exc}") from exc
    if data.shape[1] != len(columns):
        raise ConfigError(f"results file {args.results} needs rows of the columns {' '.join(columns)}")
    col = columns.index
    mus = data[:, col("mu")]
    errs = data[:, col("err_V")] + data[:, col("err_eta")]
    last = {}
    for m, e in zip(mus, errs):
        if np.isfinite(e):
            last[m] = e
    try:
        fit = fit_rate(sorted(last.items()))
    except ValueError as exc:
        print(f"rate fit failed: {exc}", file=sys.stderr)
        return 4
    print(f"slope = {fit.slope:.4f}  intercept = {fit.intercept:.4f}  "
          f"residual = {fit.residual:.3e}  degenerate = {fit.degenerate}")
    lo, hi = args.window
    return 0 if (lo <= fit.slope <= hi and not fit.degenerate) else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stripflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, required=True)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--verbose", action="store_true")

    p_run = sub.add_parser("run", help="execute a single experiment")
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep and fit the rate")
    common(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_check = sub.add_parser("check", help="run the fast invariant suite")
    p_check.add_argument("--verbose", action="store_true")
    p_check.set_defaults(fn=cmd_check)

    p_rate = sub.add_parser("rate", help="re-fit a slope from a results file")
    p_rate.add_argument("--results", type=Path, required=True)
    p_rate.add_argument("--window", type=float, nargs=2, default=(0.0, 10.0))
    p_rate.set_defaults(fn=cmd_rate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StripflowError as exc:
        print(f"solver halt: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
