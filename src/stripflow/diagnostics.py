"""Energy functional, blow-up monitoring, and rate fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .dynamics import StripState, vorticity
from .geometry import DiffeoFields, PhysParams, alinhac_unknown, total_density


@dataclass
class EnergyReport:
    """Scalar diagnostics of one snapshot."""

    E_s: float
    E_low: float
    alinhac_terms: float
    surface_term: float
    vort_norm: float
    shear_ratio: float
    taylor_min: float
    mean_eta0: float
    state_norm: float
    t: float


def state_norm(state: StripState, grid, params: PhysParams, s: float) -> float:
    """The blow-up functional ||(V, sqrt(mu) w, sqrt(mu) rho)||_{H^s} + |eta0|_{H^s}."""
    sq = params.sqrt_mu
    stack = np.concatenate([state.V, sq * state.w[None], sq * state.rho[None]])
    return spectral.sobolev_norm(grid, stack, s) + spectral.surface_norm(grid, state.eta0, s)


def good_unknown_energy(state, metric: DiffeoFields, params: PhysParams, s: float) -> float:
    """Weighted good-unknown sum
    ||sqrt(h rho) V^(s)||^2 + ||sqrt(mu h rho) w^(s)||^2 + ||sqrt(mu h) rho^(s)||^2
    on the coordinate map ``metric``, from the good unknowns of the stack
    (V, w, rho)."""
    h, mu = metric.h_tot, params.mu
    rho_tot = total_density(state.rho, params)
    weights = [np.sqrt(h * rho_tot)] * len(state.V) + [np.sqrt(mu * h * rho_tot), np.sqrt(mu * h)]
    unknowns = alinhac_unknown(np.concatenate([state.V, state.w[None], state.rho[None]]), s, metric)
    return sum(spectral.l2_strip(metric.grid, wt * f) ** 2 for wt, f in zip(weights, unknowns))


def energy(
    state: StripState,
    taylor: np.ndarray,
    s: float,
    s0: float,
    params: PhysParams,
    diffeo: DiffeoFields,
) -> EnergyReport:
    """Assemble the high-order energy: weighted good unknowns, the
    Taylor-weighted surface term (square-root weighting), the low-regularity
    block, and the vorticity norm."""
    grid = diffeo.grid
    sq = params.sqrt_mu
    al = good_unknown_energy(state, diffeo, params, s)

    eta_s = spectral.lambda_pow(grid, state.eta0, s, dotted=True)
    surface = spectral.l2_surface(grid, np.sqrt(np.maximum(taylor, 0.0)) * eta_s) ** 2

    low = np.concatenate([state.V, sq * state.w[None], state.rho[None]])
    E_low = spectral.sobolev_norm(grid, low, s0 + 1) ** 2
    E_low += params.g * params.rho_bar * spectral.surface_norm(grid, state.eta0, s0 + 1) ** 2

    vnorm = spectral.sobolev_norm(grid, vorticity(state, diffeo, params), s - 1)
    shear = spectral.sobolev_norm(grid, spectral.dr(grid, state.V), s - 1) / sq

    E_s = E_low + al + surface + vnorm**2
    return EnergyReport(
        E_s=E_s,
        E_low=E_low,
        alinhac_terms=al,
        surface_term=surface,
        vort_norm=vnorm,
        shear_ratio=shear,
        taylor_min=float(taylor.min()),
        mean_eta0=float(state.eta0.mean()),
        state_norm=state_norm(state, grid, params, s),
        t=state.t,
    )


def blowup_monitor(
    report: EnergyReport, initial_norm: float, params: PhysParams, norm_factor: float = 10.0
) -> str:
    """Continue / TaylorDegenerate / NormBlowup.  Depth and density need no
    check here: ``runner.measure`` raises DegenerateDepth or DegenerateDensity
    before a report of such a state exists."""
    if report.taylor_min < 0.5 * params.c_star:
        return "TaylorDegenerate"
    if not np.isfinite(report.state_norm):
        return "NormBlowup"
    if report.state_norm > norm_factor * max(initial_norm, 1e-12):
        return "NormBlowup"
    return "Continue"


@dataclass
class RateFit:
    slope: float
    intercept: float
    residual: float
    degenerate: bool


def spans_two_decades(values) -> bool:
    """The sample range a rate fit needs: max/min of the positive values >= 100."""
    return max(values) / min(values) >= 1e2


RATE_FLOOR = 1e-13  # errors below this are round-off, not discretization or model error


def fit_rate(samples) -> RateFit:
    """Least-squares slope of log(error) against log(mu); errors below
    RATE_FLOOR flag the fit as degenerate instead of failing."""
    samples = [(float(m), float(e)) for m, e in samples]
    if len(samples) < 3:
        raise ValueError("need at least three samples")
    mus = np.array([m for m, _ in samples])
    errs = np.array([e for _, e in samples])
    if not spans_two_decades(mus):
        raise ValueError("samples must span at least two decades")
    degenerate = bool((errs < RATE_FLOOR).any())
    errs = np.maximum(errs, RATE_FLOOR)
    coeffs, res = np.polyfit(np.log(mus), np.log(errs), 1, full=True)[:2]
    residual = float(res[0]) if len(res) else 0.0
    return RateFit(float(coeffs[0]), float(coeffs[1]), residual, degenerate)
