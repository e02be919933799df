"""Depth-averaged (Saint-Venant) solver, its lift onto the strip, and the
discrepancy metrics behind the shallow-water comparison runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .diagnostics import shear_norm
from .dynamics import Fields, StripState, project_divergence_free, rk4
from .errors import DegenerateDepth, GridMismatch, PreparationFailed
from .geometry import Bathymetry, PhysParams, water_depth, wave_speed
from .grid import StripGrid


@dataclass
class SWState(Fields):
    """Surface fields of the depth-averaged system; V_sw keeps a component axis."""

    V: np.ndarray
    eta: np.ndarray
    t: float = 0.0

    @classmethod
    def rest(cls, grid: StripGrid) -> "SWState":
        return cls(np.zeros((grid.d,) + grid.xshape), np.zeros(grid.xshape))


@dataclass
class ComparisonReport:
    """Strip-versus-shallow-water discrepancy at one instant."""

    err_V: float
    err_eta: float
    err_w: float
    rho_norm: float
    t: float

    @property
    def err_total(self) -> float:
        return self.err_V + self.err_eta


def sw_rhs(sw: SWState, bathymetry: Bathymetry, params: PhysParams) -> SWState:
    """The rates d_t eta = -div((1 - beta b + eps eta) V) and
    d_t V = -eps V.grad V - g grad eta."""
    grid = bathymetry.grid
    h = water_depth(bathymetry, sw.eta, params)
    if h.min() <= 0.0:
        raise DegenerateDepth(f"shallow-water depth {h.min():.3e}")
    deta = -np.trace(spectral.dx(grid, spectral.dealias(grid, h * sw.V)))
    adv = spectral.dealias(grid, spectral.transport(grid, sw.V, sw.V))
    dV = -params.eps * adv - params.g * spectral.dx(grid, sw.eta)
    return SWState(dV, deta)


def sw_step_rk4(sw: SWState, dt: float, bathymetry: Bathymetry, params: PhysParams) -> SWState:
    return rk4(sw, dt, lambda st: sw_rhs(st, bathymetry, params))


def cfl_dt_sw(sw: SWState, bathymetry: Bathymetry, params: PhysParams) -> float:
    depth = water_depth(bathymetry, sw.eta, params)
    return bathymetry.grid.dx / wave_speed(depth, sw.V, params)


def lift_sw(sw: SWState, bathymetry: Bathymetry, params: PhysParams) -> StripState:
    """Columnar extension with the vertical velocity

        w = beta V.grad b - (r+1)(1 - beta b + eps eta) div V,

    which satisfies the strip incompressibility and both kinematic boundary
    conditions exactly (the vertical profile is linear in r, so the discrete
    identities are exact as well)."""
    grid = bathymetry.grid
    shape = (grid.n_r + 1,) + grid.xshape
    V = np.broadcast_to(sw.V[:, None], (grid.d,) + shape).copy()
    h = water_depth(bathymetry, sw.eta, params)
    divV = np.trace(spectral.dx(grid, sw.V))
    slope = params.beta * spectral.dealias(grid, np.sum(sw.V * bathymetry.gradient, axis=0))
    rp1 = grid.r_column(grid.r + 1.0)
    w = slope - rp1 * spectral.dealias(grid, h * divV)
    rho = np.zeros(shape)
    return StripState(V, w, rho, sw.eta.copy(), sw.t)


def compare(euler: StripState, sw: SWState, s: float, bathymetry: Bathymetry, params: PhysParams) -> ComparisonReport:
    """All norms of the difference driving the convergence claim, taken on
    the dealiased band."""
    grid = bathymetry.grid
    if euler.eta0.shape != sw.eta.shape:
        raise GridMismatch("euler and shallow-water states on different grids")
    d, sq = grid.d, params.sqrt_mu
    lifted = lift_sw(sw, bathymetry, params)
    # the differences are measured on the dealiased band, where both systems
    # carry their content: the 2/3 rule is a 0/1 mask of the spectrum, so it
    # masks the powers.  One spectrum of the stack (V - V_sw, w - w_sw, rho)
    band = grid.dealias_mask
    diff = np.concatenate([euler.V - lifted.V, (euler.w - lifted.w)[None], euler.rho[None]])
    powers = spectral.vertical_powers(grid, spectral.rfft(grid, diff), spectral.top_order(s))
    norms = spectral.field_norms(grid, band * powers, s)
    err_V = spectral.root_sum_square(norms[:d])
    err_w, rho_norm = sq * float(norms[d]), sq * float(norms[d + 1])
    eta_power = spectral.surface_power(grid, spectral.rfft(grid, euler.eta0 - sw.eta))
    err_eta = float(spectral.power_norm(grid, band * eta_power, s))
    return ComparisonReport(err_V, err_eta, err_w, rho_norm, euler.t)


def shear_streamfunction_profile(grid: StripGrid, amplitude: float, params: PhysParams) -> np.ndarray:
    """The documented shear family: V-perturbation d_z of
    psi = amplitude * mu * sin(2 pi x / L) (z+1)^2, evaluated on sigma levels
    of the flat reference column.  Scaled by mu so the well-preparedness sum
    stays O(sqrt(mu)) while the scaled vorticity remains O(amplitude)."""
    phase = np.sin(2.0 * np.pi * grid.x / grid.length)
    if grid.d == 2:
        phase = phase[:, None] * np.ones(grid.n_x)
    return 2.0 * amplitude * params.mu * grid.r_column(grid.r + 1.0) * phase


def well_prepared_init(
    sw: SWState,
    bathymetry: Bathymetry,
    params: PhysParams,
    s: float,
    shear_amp: float = 0.0,
    rho_amp: float = 0.0,
) -> tuple[StripState, float]:
    """Columnar lift plus a mu-scaled shear and a unit-norm-scaled density
    pattern of horizontal mode 1, re-projected; verifies that the closeness
    sum, ``compare``'s norms plus the shear, is at most sqrt(mu) and returns
    the achieved value."""
    if params.delta > params.mu:
        raise PreparationFailed(
            f"weak-density regime requires delta <= mu (got {params.delta} > {params.mu})"
        )
    grid = bathymetry.grid
    state = lift_sw(sw, bathymetry, params)
    if shear_amp:
        state.V[0] = state.V[0] + shear_streamfunction_profile(grid, shear_amp, params)
    if rho_amp:
        phase = 2.0 * np.pi * grid.x / grid.length
        pattern = np.cos(phase)
        if grid.d == 2:
            pattern = pattern[:, None] * np.cos(phase)[None, :]
        rfac = np.cos(0.5 * np.pi * grid.r_column(grid.r))
        raw = rfac * pattern
        nrm = spectral.sobolev_norm(grid, raw, s)
        state.rho = rho_amp * raw / nrm
    state = project_divergence_free(state, bathymetry, params)
    rep = compare(state, sw, s, bathymetry, params)
    V_powers = spectral.vertical_powers(grid, spectral.rfft(grid, state.V), spectral.top_order(s, first=1))
    achieved = np.sqrt(rep.err_V**2 + rep.err_w**2) + rep.err_eta + rep.rho_norm
    achieved += shear_norm(grid, V_powers, s, params)
    if achieved > params.sqrt_mu:
        raise PreparationFailed(
            f"closeness sum {achieved:.3e} exceeds sqrt(mu) = {params.sqrt_mu:.3e}"
        )
    return state, float(achieved)
