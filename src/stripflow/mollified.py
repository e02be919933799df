"""Constructive-scheme integrator: semi-Lagrangian coordinates (the vertical
map is transported by the flow, removing vertical advection), horizontal
Fourier mollifiers, and the dispersive surface regularization weighted by the
third cutoff parameter.

The vertical map is carried as the full deformation H(t, x, r) (physical
height = r + H); its initial value reproduces the production solver's
coordinates, H = -r beta b + eps (1+r) eta0.  The surface elevation eta0 is
carried as its own prognostic so the zero-amplitude limit stays well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import spectral
from .dynamics import StripState
from .errors import BlowUpSuspected, DegenerateDiffeo, InterpolationOutOfRange
from .geometry import Bathymetry, PhysParams, SigmaOps, build_diffeo
from .grid import StripGrid
from .pressure import EllipticProblem, SolveInfo, solve_pressure


@dataclass
class MollParams:
    iota1: float = 0.0
    iota2: float = 0.0
    iota3: float = 0.0

    def __post_init__(self):
        if min(self.iota1, self.iota2, self.iota3) < 0:
            raise ValueError("cutoff scales must be >= 0")


@dataclass
class SlagState:
    """(V, w, rho) on the strip, the vertical deformation H, and the surface."""

    V: np.ndarray
    w: np.ndarray
    rho: np.ndarray
    H: np.ndarray
    eta0: np.ndarray
    t: float = 0.0

    def copy(self) -> "SlagState":
        return SlagState(
            self.V.copy(), self.w.copy(), self.rho.copy(), self.H.copy(), self.eta0.copy(), self.t
        )

    def shifted(self, k: "SlagTendencies", dt: float) -> "SlagState":
        return SlagState(
            self.V + dt * k.dV,
            self.w + dt * k.dw,
            self.rho + dt * k.drho,
            self.H + dt * k.dH,
            self.eta0 + dt * k.deta0,
            self.t + dt,
        )


@dataclass
class SlagTendencies:
    dV: np.ndarray
    dw: np.ndarray
    drho: np.ndarray
    dH: np.ndarray
    deta0: np.ndarray
    P: np.ndarray
    solve_info: SolveInfo


class SlagMetric:
    """Metric data of the map (x, r) -> (x, r + H); the layer thickness
    1 + d_r H is a genuine strip field here."""

    def __init__(self, grid: StripGrid, H: np.ndarray, h_star: float = 1e-3):
        self.grid = grid
        self.H = H
        self.h_tot = 1.0 + spectral.dr(grid, H)
        if self.h_tot.min() <= h_star:
            raise DegenerateDiffeo(f"layer thickness reached {self.h_tot.min():.3e}")
        self.grad_H = spectral.dx(grid, H)

    @cached_property
    def ops(self) -> SigmaOps:
        return SigmaOps(self.grid, self.grad_H / self.h_tot, 1.0 / self.h_tot)

    @property
    def bottom_gradient(self) -> np.ndarray:
        return self.grad_H[:, 0]

    @property
    def surface_gradient(self) -> np.ndarray:
        return self.grad_H[:, -1]


def from_strip_state(state: StripState, bathymetry: Bathymetry, params: PhysParams) -> SlagState:
    """Adopt the production coordinates as the initial transported map."""
    grid = bathymetry.grid
    diffeo = build_diffeo(bathymetry, state.eta0, params)
    r = grid.r_column(grid.r)
    H = diffeo.eta_bar + params.eps * diffeo.eta - r
    return SlagState(state.V.copy(), state.w.copy(), state.rho.copy(), H, state.eta0.copy(), state.t)


def slag_rhs(
    state: SlagState, moll: MollParams, bathymetry: Bathymetry, params: PhysParams,
    x0: np.ndarray | None = None,
) -> SlagTendencies:
    """Mollified tendencies; the pressure is defined through the elliptic
    problem assembled, as in the production solver, so that the tendencies
    keep the discrete divergence and bottom impermeability stationary.  x0 is
    the initial guess of the pressure solve."""
    grid = bathymetry.grid
    metric = SlagMetric(grid, state.H)
    ops = metric.ops
    mu, eps, g, rb = params.mu, params.eps, params.g, params.rho_bar
    nu = 1.0 / (rb + eps * params.delta * state.rho)

    def J(f, iota):
        return spectral.mollify(grid, f, iota) if iota else f

    V2 = np.stack([J(state.V[i], moll.iota2) for i in range(grid.d)])

    def moll_advect(f):
        f1 = J(f, moll.iota1)
        gx = spectral.dx(grid, f1)
        out = np.zeros_like(f)
        for i in range(grid.d):
            out += spectral.quadratic(grid, V2[i], gx[i])
        return J(out, moll.iota1)

    grad_eta0 = spectral.dx(grid, state.eta0)
    if moll.iota3:
        ext = spectral.harmonic_extension(grid, spectral.lambda_pow(grid, state.eta0, 1.0))
        disp_x = np.stack([J(c, moll.iota2) for c in ops.grad_phi(ext)])
        disp_r = J(ops.dr_phi(ext), moll.iota2)
    else:
        disp_x = np.zeros_like(state.V)
        disp_r = np.zeros_like(state.w)

    B_V = np.empty_like(state.V)
    for i in range(grid.d):
        B_V[i] = (
            -eps * moll_advect(state.V[i])
            - g * rb * spectral.quadratic(grid, nu, J(grad_eta0[i], moll.iota2))
            + moll.iota3 * nu * disp_x[i]
        )
    B_w = (
        -eps * moll_advect(state.w)
        + (-g * params.delta * spectral.quadratic(grid, nu, state.rho) + moll.iota3 * nu * disp_r) / mu
    )
    drho = -eps * moll_advect(state.rho)
    dH = -eps * moll_advect(state.H) + eps * J(state.w, moll.iota2)
    deta0 = J(state.w[-1], moll.iota2).copy()
    for i in range(grid.d):
        deta0 -= eps * spectral.quadratic(grid, J(state.V[i, -1], moll.iota2), grad_eta0[i])

    # metric motion entering the divergence-preservation source
    h = metric.h_tot
    h_dot = spectral.dr(grid, dH)
    grad_dH = spectral.dx(grid, dH)
    kappa = ops.kappa
    kappa_dot = grad_dH / h - kappa * h_dot / h
    gamma_dot = -h_dot / h**2
    metric_term = gamma_dot * spectral.dr(grid, state.w)
    for i in range(grid.d):
        metric_term -= kappa_dot[i] * spectral.dr(grid, state.V[i])

    source = mu * (ops.div_phi(B_V, B_w) + metric_term)
    bottom = mu * (B_w[0] - np.sum(metric.bottom_gradient * B_V[:, 0], axis=0))

    problem = EllipticProblem(
        grid=grid,
        ops=ops,
        mu=mu,
        rho_bar=rb,
        nu=np.broadcast_to(nu, (grid.n_r + 1,) + grid.xshape),
        h_tot=h,
        grad_sum=metric.grad_H,
        bottom_slope=metric.bottom_gradient,
        source=source,
        bottom_data=bottom,
    )
    info = SolveInfo(0, 0.0)
    P = solve_pressure(problem, info=info, x0=x0)
    gradP = ops.grad_phi(P)
    dV = np.stack([B_V[i] - nu * gradP[i] for i in range(grid.d)])
    dw = B_w - nu * ops.dr_phi(P) / mu

    if not np.isfinite(
        np.abs(dV).max() + np.abs(dw).max() + np.abs(drho).max() + np.abs(deta0).max()
    ):
        raise BlowUpSuspected("non-finite tendency in the mollified scheme")
    return SlagTendencies(dV, dw, drho, dH, deta0, P, info)


def step_rk4_slag(
    state: SlagState, dt: float, moll: MollParams, bathymetry: Bathymetry, params: PhysParams
) -> SlagState:
    k1 = slag_rhs(state, moll, bathymetry, params)
    k2 = slag_rhs(state.shifted(k1, 0.5 * dt), moll, bathymetry, params, x0=k1.P)
    k3 = slag_rhs(state.shifted(k2, 0.5 * dt), moll, bathymetry, params, x0=k2.P)
    k4 = slag_rhs(state.shifted(k3, dt), moll, bathymetry, params, x0=k3.P)
    return SlagState(
        state.V + (dt / 6.0) * (k1.dV + 2 * k2.dV + 2 * k3.dV + k4.dV),
        state.w + (dt / 6.0) * (k1.dw + 2 * k2.dw + 2 * k3.dw + k4.dw),
        state.rho + (dt / 6.0) * (k1.drho + 2 * k2.drho + 2 * k3.drho + k4.drho),
        state.H + (dt / 6.0) * (k1.dH + 2 * k2.dH + 2 * k3.dH + k4.dH),
        state.eta0 + (dt / 6.0) * (k1.deta0 + 2 * k2.deta0 + 2 * k3.deta0 + k4.deta0),
        state.t + dt,
    )


def cfl_dt_slag(
    state: SlagState, moll: MollParams, bathymetry: Bathymetry, params: PhysParams, factor: float = 0.4
) -> float:
    grid = bathymetry.grid
    depth = 1.0 - params.beta * bathymetry.values + params.eps * state.eta0
    vmax = float(np.abs(state.V).max())
    c = np.sqrt(params.g * depth.max()) + params.eps * vmax
    dt = factor * grid.dx / c
    if moll.iota3:
        kmax = 2.0 * np.pi * (grid.n_x // 3) / grid.length
        geff = params.g + moll.iota3 * np.sqrt(1.0 + kmax**2) / params.rho_bar
        omega = kmax * np.sqrt(geff * depth.max())
        dt = min(dt, 1.5 / omega)
    return dt


def _good_unknown(grid: StripGrid, f: np.ndarray, s: float, metric: SlagMetric) -> np.ndarray:
    corr = spectral.lambda_pow(grid, metric.H, s, dotted=True) / metric.h_tot
    return spectral.lambda_pow(grid, f, s, dotted=True) - corr * spectral.dr(grid, f)


def moll_energy(
    state: SlagState, moll: MollParams, bathymetry: Bathymetry, params: PhysParams, s: float
) -> float:
    """Scheme energy: weighted good unknowns built from the transported map,
    the dispersive surface weight g rho_bar + iota3 * half-derivative
    multiplier, and the vorticity norm."""
    grid = bathymetry.grid
    metric = SlagMetric(grid, state.H)
    mu, sq = params.mu, params.sqrt_mu
    rho_tot = params.rho_bar + params.eps * params.delta * state.rho
    h = metric.h_tot
    total = 0.0
    for i in range(grid.d):
        total += spectral.l2_strip(grid, np.sqrt(h * rho_tot) * _good_unknown(grid, state.V[i], s, metric)) ** 2
    total += spectral.l2_strip(grid, np.sqrt(mu * h * rho_tot) * _good_unknown(grid, state.w, s, metric)) ** 2
    total += spectral.l2_strip(grid, np.sqrt(mu * h) * _good_unknown(grid, state.rho, s, metric)) ** 2
    eta_s = spectral.lambda_pow(grid, state.eta0, s, dotted=True)
    sym = params.g * params.rho_bar + moll.iota3 * (1.0 + grid.k_abs**2) ** 0.25
    weighted = spectral.apply_multiplier(grid, eta_s, sym)
    total += spectral.l2_surface(grid, weighted) ** 2
    ops = metric.ops
    if grid.d == 1:
        om = ops.dr_phi(state.V[0]) / sq - sq * ops.grad_phi(state.w)[0]
        total += spectral.field_norm(grid, om, s - 1) ** 2
    else:
        gw = ops.grad_phi(state.w)
        omx = np.stack([-ops.dr_phi(state.V[1]) / sq + sq * gw[1], ops.dr_phi(state.V[0]) / sq - sq * gw[0]])
        omr = ops.grad_phi(state.V[1])[0] - ops.grad_phi(state.V[0])[1]
        total += spectral.stack_norm(grid, [omx[0], omx[1], omr], s - 1) ** 2
    return total


@dataclass
class MollTrajectory:
    times: list
    energies: list
    final: SlagState
    status: str


def run_moll(
    initial: SlagState,
    moll: MollParams,
    bathymetry: Bathymetry,
    params: PhysParams,
    T: float,
    dt: float | None = None,
    s: float = 4.0,
    cadence: int = 10,
) -> MollTrajectory:
    """RK4 trajectory of the mollified system, recording the scheme energy."""
    state = initial.copy()
    if dt is None:
        dt = cfl_dt_slag(state, moll, bathymetry, params)
    n_steps = max(1, int(np.ceil(T / dt - 1e-12)))
    dt = T / n_steps
    times = [0.0]
    energies = [moll_energy(state, moll, bathymetry, params, s)]
    status = "Continue"
    for step in range(n_steps):
        try:
            state = step_rk4_slag(state, dt, moll, bathymetry, params)
        except (BlowUpSuspected, DegenerateDiffeo) as exc:
            status = type(exc).__name__
            break
        if (step + 1) % cadence == 0 or step == n_steps - 1:
            E = moll_energy(state, moll, bathymetry, params, s)
            times.append(state.t)
            energies.append(E)
            if not np.isfinite(E):
                status = "NormBlowup"
                break
    return MollTrajectory(times, energies, state, status)


# -- coordinate changes -----------------------------------------------------------


def slag_to_sigma(
    state: SlagState, bathymetry: Bathymetry, params: PhysParams, clamp_tol: float = 1e-3
) -> StripState:
    """Resample (V, w, rho) from the transported vertical map onto the
    production sigma levels (monotone cubic per column, spectral in x is not
    needed because both maps share the horizontal nodes).  Target levels may
    exceed the source column by up to clamp_tol (the mollified surface trace
    and the transported map decouple at the cutoff scale); they are clamped.
    """
    grid = bathymetry.grid
    if grid.d != 1:
        raise NotImplementedError("coordinate resampling is d = 1 only")
    diffeo = build_diffeo(bathymetry, state.eta0, params)
    z_target = diffeo.z_nodes()
    r = grid.r_column(grid.r)
    z_source = r + state.H
    tol = clamp_tol * (1.0 + np.abs(z_source).max())
    fields = [state.V[0], state.w, state.rho]
    out = [np.empty_like(f) for f in fields]
    for j in range(grid.n_x):
        zs = z_source[:, j]
        zt = z_target[:, j]
        if np.any(np.diff(zs) <= 0):
            raise DegenerateDiffeo("source column not strictly increasing")
        if zt.min() < zs.min() - tol or zt.max() > zs.max() + tol:
            raise InterpolationOutOfRange(
                f"target [{zt.min():.6f}, {zt.max():.6f}] vs source [{zs.min():.6f}, {zs.max():.6f}]"
            )
        ztc = np.clip(zt, zs.min(), zs.max())
        for f, o in zip(fields, out):
            o[:, j] = PchipInterpolator(zs, f[:, j])(ztc)
    return StripState(out[0][None], out[1], out[2], state.eta0.copy(), state.t)


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
