"""Constructive-scheme integrator: semi-Lagrangian coordinates (the vertical
map is transported by the flow, removing vertical advection), horizontal
Fourier mollifiers, and the dispersive surface regularization weighted by the
third cutoff parameter.

The vertical map is carried as the full deformation H(t, x, r) (physical
height = r + H, metric data from ``DiffeoFields.transported``); its initial
value reproduces the production solver's coordinates,
H = -r beta b + eps (1+r) eta0.  The surface elevation eta0 is
carried as its own prognostic so the zero-amplitude limit stays well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .diagnostics import good_unknown_energy
from .dynamics import (Fields, PressureGuess, StripState, kinematic_deta0, metric_motion_term, rk4, vorticity,
                       warm_started)
from .errors import DegenerateDiffeo, InterpolationOutOfRange
from .geometry import (Bathymetry, DiffeoFields, PhysParams, barycentric_heights, total_density, water_depth,
                       wave_speed)
from .pressure import closure_problem, solve_closure
from .runner import RunRecord, march


@dataclass
class MollParams:
    iota1: float = 0.0
    iota2: float = 0.0
    iota3: float = 0.0

    def __post_init__(self):
        if min(self.iota1, self.iota2, self.iota3) < 0:
            raise ValueError("cutoff scales must be >= 0")


@dataclass
class SlagState(Fields):
    """(V, w, rho) on the strip, the vertical deformation H, and the surface."""

    V: np.ndarray
    w: np.ndarray
    rho: np.ndarray
    H: np.ndarray
    eta0: np.ndarray
    t: float = 0.0


def from_strip_state(state: StripState, bathymetry: Bathymetry, params: PhysParams) -> SlagState:
    """Adopt the production coordinates as the initial transported map."""
    grid = bathymetry.grid
    H = barycentric_heights(bathymetry, state.eta0, params) - grid.r_column(grid.r)
    return SlagState(state.V.copy(), state.w.copy(), state.rho.copy(), H, state.eta0.copy(), state.t)


def slag_rhs(
    state: SlagState, moll: MollParams, bathymetry: Bathymetry, params: PhysParams,
    x0: np.ndarray | None = None,
) -> tuple[SlagState, np.ndarray]:
    """(rates, P_hat): the mollified rates of ``state`` and the spectrum of
    their pressure, defined through the elliptic problem assembled, as in the
    production solver, so that the rates keep the discrete divergence and
    bottom impermeability stationary.  x0 is the spectrum of the initial
    guess of the pressure solve."""
    grid = bathymetry.grid
    metric = DiffeoFields.transported(grid, state.H)
    ops = metric.ops
    d, mu, eps, g, rb = grid.d, params.mu, params.eps, params.g, params.rho_bar
    nu = 1.0 / total_density(state.rho, params)

    def J(f, iota):
        return spectral.mollify(grid, f, iota) if iota else f

    V2, w2 = J(state.V, moll.iota2), J(state.w, moll.iota2)
    # one spectrum of eta0 serves grad eta0 and the dispersive term
    eta0_hat = spectral.rfft(grid, state.eta0)
    grad_eta0 = spectral.dx_of_spectrum(grid, eta0_hat)

    # F = (V_1..V_d, w, rho, H): -eps J1(V2 . grad J1 f) for the whole stack,
    # the forces added raw, then one dealias (J1 commutes with the mask)
    F = np.concatenate([state.V, state.w[None], state.rho[None], state.H[None]])
    gx = spectral.dx(grid, J(F, moll.iota1))
    B = -eps * J(np.sum(V2[:, None] * gx, axis=0), moll.iota1)
    B[:d] -= g * rb * nu * J(grad_eta0, moll.iota2)[:, None]
    B[d] -= (g * params.delta / mu) * nu * state.rho
    B_hat = spectral.dealiased_spectrum(grid, B)
    B = spectral.irfft(grid, B_hat)
    BV_hat = B_hat[:d]  # the spectrum of B_V for the closure's source
    if moll.iota3:  # the dispersive term, outside the dealias
        # the spectrum of the harmonic extension of (1 + |xi|^2)^(1/2) eta0
        G = ops.gradients(grid.harmonic_profile * ((1.0 + grid.k_abs**2) ** 0.5 * eta0_hat))
        B[:d] += moll.iota3 * nu * J(G[:d], moll.iota2)
        B[d] += moll.iota3 * nu * J(G[d], moll.iota2) / mu
        BV_hat = spectral.rfft(grid, B[:d])
    dH = B[d + 2] + eps * w2
    deta0 = kinematic_deta0(V2[:, -1], w2[-1], grad_eta0, grid, params)

    # the map moves with d_t H = dH
    metric_term = metric_motion_term(
        ops, metric.h_tot, spectral.dr(grid, dH), spectral.dx(grid, dH), spectral.dr(grid, F[: d + 1])
    )
    problem = closure_problem(metric, params, nu, B[: d + 1], BV_hat, metric_term)
    dV, dw, P_hat = solve_closure(problem, B[:d], B[d], x0=x0)
    return SlagState(dV, dw, B[d + 1], dH, deta0), P_hat


def step_rk4_slag(
    state: SlagState, dt: float, moll: MollParams, bathymetry: Bathymetry, params: PhysParams,
    guess: PressureGuess | None = None,
) -> SlagState:
    """One RK4 step, each stage's pressure solve warm-started from ``guess``
    (``dynamics.warm_started``; a fresh guess without a carried one).
    ``runner.march`` checks dt."""
    guess = PressureGuess(bathymetry.grid) if guess is None else guess
    return rk4(state, dt, warm_started(lambda st, x0: slag_rhs(st, moll, bathymetry, params, x0=x0), guess))


def cfl_dt_slag(state: SlagState, moll: MollParams, bathymetry: Bathymetry, params: PhysParams) -> float:
    """Advective/gravity-wave step limit, capped when iota3 > 0 by the
    dispersive limit 3.75/omega of the fastest resolved surface mode
    (factor-free; see ``runner.march``)."""
    grid = bathymetry.grid
    depth = water_depth(bathymetry, state.eta0, params)
    dt = grid.dx / wave_speed(depth, state.V, params)
    if moll.iota3:
        kmax = 2.0 * np.pi * (grid.n_x // 3) / grid.length
        # products, not powers: a float power raises OverflowError where a
        # product becomes inf, and an infinite omega is a step limit of 0
        geff = params.g + moll.iota3 * np.sqrt(1.0 + kmax * kmax) / params.rho_bar
        omega = kmax * np.sqrt(geff * depth.max())
        dt = min(dt, 3.75 / omega)
    return dt


def moll_energy(
    state: SlagState, moll: MollParams, bathymetry: Bathymetry, params: PhysParams, s: float
) -> float:
    """Scheme energy: the weighted good unknowns of the transported map, the
    dispersive surface weight g rho_bar + iota3 * half-derivative multiplier,
    and the vorticity norm."""
    grid = bathymetry.grid
    metric = DiffeoFields.transported(grid, state.H)
    total = good_unknown_energy(state, metric, params, s)
    eta_s = spectral.lambda_pow(grid, state.eta0, s, dotted=True)
    sym = params.g * params.rho_bar + moll.iota3 * (1.0 + grid.k_abs**2) ** 0.25
    weighted = spectral.apply_multiplier(grid, eta_s, sym)
    total += spectral.l2_surface(grid, weighted) ** 2
    total += spectral.sobolev_norm(grid, vorticity(state, metric, params), s - 1) ** 2
    return total


def run_moll(
    initial: SlagState,
    moll: MollParams,
    bathymetry: Bathymetry,
    params: PhysParams,
    T: float,
    dt: float | None = None,
    cfl_factor: float = 0.4,
    s: float = 4.0,
    cadence: int = 10,
    norm_factor: float = 10.0,
) -> RunRecord:
    """RK4 trajectory of the mollified system, recording the scheme energy;
    one ``PressureGuess`` carries the last pressures across steps
    (``dynamics.warm_started``).  The run halts with NormBlowup when the
    energy is non-finite or exceeds norm_factor**2 times its t = 0 value (a
    squared norm; the floor of ``diagnostics.blowup_monitor``); see
    ``runner.march`` for the default dt (cfl_factor times ``cfl_dt_slag``),
    the cadence and the halt policy."""
    def observe(state, rec):
        E = moll_energy(state, moll, bathymetry, params, s)
        rec.energies.append(E)
        # a product, not a power: inf where a float power raises OverflowError
        bound = norm_factor * norm_factor * max(rec.energies[0], 1e-12)
        return state, ("Continue" if np.isfinite(E) and E <= bound else "NormBlowup")

    guess = PressureGuess(bathymetry.grid)

    def step(state, dt):
        return step_rk4_slag(state, dt, moll, bathymetry, params, guess)

    return march(initial, T, dt, cadence, step, observe,
                 lambda st: cfl_dt_slag(st, moll, bathymetry, params), cfl_factor)


# -- coordinate changes -----------------------------------------------------------

CLAMP_TOL = 1e-3


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point derivative at an end node, 0 where its sign
    differs from the end slope m0 and 3 m0 where it exceeds that thrice
    across a change of slope sign (Moler, *Numerical Computing with MATLAB*,
    sec. 3.6)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    d = np.where(np.sign(d) != np.sign(m0), 0.0, d)
    return np.where((np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0)), 3.0 * m0, d)


def monotone_cubic(z: np.ndarray, F: np.ndarray, zt: np.ndarray) -> np.ndarray:
    """Monotone piecewise cubic (Fritsch & Carlson, 1980) of the samples F
    (levels, fields, columns) at the strictly increasing heights z (levels,
    columns), evaluated at the heights zt (levels, columns) inside each
    column's range; every column and field at once.  The node derivatives
    are the weighted harmonic mean of the neighbouring slopes, 0 where they
    change sign or one vanishes, and ``_end_slope`` at the two ends (the
    PCHIP rule of Fritsch & Butland, 1984)."""
    h = np.diff(z, axis=0)[:, None]
    m = np.diff(F, axis=0) / h
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = (w1 + w2) / (w1 / m[:-1] + w2 / m[1:])
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    d = np.concatenate([
        _end_slope(h[0], h[1], m[0], m[1])[None],
        np.where(flat, 0.0, mean),
        _end_slope(h[-1], h[-2], m[-1], m[-2])[None],
    ])
    # per interval, the Hermite cubic in powers of the offset from its left node
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    coef = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], F[:-1]])
    # interval i holds z[i] <= zt < z[i + 1]; the top node closes the last one
    i = np.clip((z[None] <= zt[:, None]).sum(axis=1) - 1, 0, len(z) - 2)
    c = np.take_along_axis(coef, i[None, :, None], axis=1)
    s = (zt - np.take_along_axis(z, i, axis=0))[:, None]
    return ((c[0] * s + c[1]) * s + c[2]) * s + c[3]


def slag_to_sigma(state: SlagState, bathymetry: Bathymetry, params: PhysParams) -> StripState:
    """Resample (V, w, rho) from the transported vertical map onto the
    production sigma levels (``monotone_cubic`` per column, spectral in x is
    not needed because both maps share the horizontal nodes).  Target levels
    may exceed the source column by up to CLAMP_TOL (the mollified surface
    trace and the transported map decouple at the cutoff scale); they are
    clamped.
    """
    grid = bathymetry.grid
    if grid.d != 1:
        raise NotImplementedError("coordinate resampling is d = 1 only")
    z_target = barycentric_heights(bathymetry, state.eta0, params)
    r = grid.r_column(grid.r)
    z_source = r + state.H
    tol = CLAMP_TOL * (1.0 + np.abs(z_source).max())
    lo, hi = z_source.min(axis=0), z_source.max(axis=0)
    degenerate = ~(np.diff(z_source, axis=0) > 0).all(axis=0)
    outside = (z_target.min(axis=0) < lo - tol) | (z_target.max(axis=0) > hi + tol)
    bad = np.flatnonzero(degenerate | outside)
    if bad.size:  # the first bad column decides, as a column-by-column scan would
        j = bad[0]
        if degenerate[j]:
            raise DegenerateDiffeo("source column not strictly increasing")
        zt = z_target[:, j]
        raise InterpolationOutOfRange(
            f"target [{zt.min():.6f}, {zt.max():.6f}] vs source [{lo[j]:.6f}, {hi[j]:.6f}]"
        )
    F = np.stack([state.V[0], state.w, state.rho], axis=1)
    out = monotone_cubic(z_source, F, np.clip(z_target, lo, hi))
    V, w, rho = np.ascontiguousarray(out.transpose(1, 0, 2))
    return StripState(V[None], w, rho, state.eta0.copy(), state.t)


def terminal_distance(
    slag: SlagState, strip: StripState, bathymetry: Bathymetry, params: PhysParams
) -> float:
    """Surface distance plus resampled field distances between the two
    integrators' terminal states."""
    grid = bathymetry.grid
    resampled = slag_to_sigma(slag, bathymetry, params)
    d = spectral.l2_surface(grid, slag.eta0 - strip.eta0)
    d += spectral.l2_strip(grid, resampled.V[0] - strip.V[0])
    d += params.sqrt_mu * spectral.l2_strip(grid, resampled.w - strip.w)
    return float(d)
