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


def scheme_energy(state, metric: DiffeoFields, params: PhysParams, s: float, weigh) -> tuple:
    """The parts of a scheme's energy on the coordinate map ``metric``: the
    weighted good-unknown sum
    ||sqrt(h rho) V^(s)||^2 + ||sqrt(mu h rho) w^(s)||^2 + ||sqrt(mu h) rho^(s)||^2
    of the stack (V, w, rho), the surface term ||weigh(dotted Lambda^s eta0)||^2
    (``weigh`` maps its spectrum to the surface field under the scheme's
    weight), the H^(s-1) norm of the vorticity; then the horizontal rFFTs of
    (V, w, rho) and of eta0 that they read, for the caller's other norms."""
    grid, h, mu = metric.grid, metric.h_tot, params.mu
    F = np.concatenate([state.V, state.w[None], state.rho[None]])
    F_hat, eta_hat = spectral.rfft(grid, F), spectral.rfft(grid, state.eta0)
    rho_tot = total_density(state.rho, params)
    weights = [np.sqrt(h * rho_tot)] * len(state.V) + [np.sqrt(mu * h * rho_tot), np.sqrt(mu * h)]
    unknowns = alinhac_unknown(F, F_hat, s, metric)
    al = sum(spectral.l2_strip(grid, wt * f) ** 2 for wt, f in zip(weights, unknowns))
    surface = spectral.l2_surface(grid, weigh(spectral.lambda_symbol(grid, s, dotted=True) * eta_hat)) ** 2
    vnorm = spectral.sobolev_norm(grid, vorticity(F_hat, metric, params), s - 1)
    return al, surface, vnorm, F_hat, eta_hat


def shear_norm(grid, powers: np.ndarray, s: float, params: PhysParams) -> float:
    """The shear ||d_r V||_{H^(s-1)} / sqrt(mu) from the ``vertical_powers``
    of V (orders 1 .. top_order(s, 1) at least)."""
    return spectral.root_sum_square(spectral.field_norms(grid, powers, s, first=1)) / params.sqrt_mu


def energy(
    state: StripState,
    taylor: np.ndarray,
    s: float,
    s0: float,
    params: PhysParams,
    diffeo: DiffeoFields,
) -> EnergyReport:
    """Assemble the high-order energy: the ``scheme_energy`` parts with the
    Taylor-weighted surface term (square-root weighting), and the
    low-regularity block."""
    grid = diffeo.grid
    d, sq = grid.d, params.sqrt_mu
    weight = np.sqrt(np.maximum(taylor, 0.0))
    al, surface, vnorm, F_hat, eta_hat = scheme_energy(
        state, diffeo, params, s, lambda E: weight * spectral.irfft(grid, E)
    )

    # the same two spectra serve the norms at s0 + 1 and at s, and the shear's:
    # the H^(s-1) norm of d_r V takes the orders 1 .. top_order(s, 1) of V
    powers = spectral.vertical_powers(grid, F_hat, max(spectral.top_order(s, first=1), spectral.top_order(s0 + 1)))
    eta_power = spectral.surface_power(grid, eta_hat)
    low = np.array([1.0] * d + [sq, 1.0]) * spectral.field_norms(grid, powers, s0 + 1)
    E_low = spectral.root_sum_square(low) ** 2
    E_low += params.g * params.rho_bar * spectral.power_norm(grid, eta_power, s0 + 1) ** 2

    # the blow-up functional ||(V, sqrt(mu) w, sqrt(mu) rho)||_{H^s} + |eta0|_{H^s}
    scale = np.array([1.0] * d + [sq, sq])
    norm = spectral.root_sum_square(scale * spectral.field_norms(grid, powers, s))
    norm += float(spectral.power_norm(grid, eta_power, s))
    E_s = E_low + al + surface + vnorm**2
    return EnergyReport(
        E_s=E_s,
        E_low=E_low,
        alinhac_terms=al,
        surface_term=surface,
        vort_norm=vnorm,
        shear_ratio=shear_norm(grid, powers[:, :d], s, params),
        taylor_min=float(taylor.min()),
        mean_eta0=float(state.eta0.mean()),
        state_norm=norm,
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
