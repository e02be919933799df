"""Physical parameters, bathymetry, the sigma-coordinate map of the strip
onto the fluid domain, the transformed differential operators, the
good-unknown correction used by the high-order diagnostics, and the rules
every scheme shares: the total density, the depth and the wave speed."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import spectral
from .errors import ConfigError, DegenerateDensity, DegenerateDepth, DegenerateDiffeo
from .grid import StripGrid


@dataclass(frozen=True)
class PhysParams:
    """Non-dimensional parameter tuple governing every equation."""

    eps: float = 0.5
    beta: float = 0.5
    mu: float = 1e-2
    delta: float = 0.0
    g: float = 1.0
    rho_bar: float = 1.0
    # the blow-up monitor flags TaylorDegenerate when the surface stability
    # coefficient falls below c_star / 2
    c_star: float = 0.1

    def __post_init__(self):
        if not (0.0 <= self.eps <= 1.0 and 0.0 <= self.beta <= 1.0 and 0.0 <= self.delta <= 1.0):
            raise ValueError("eps, beta, delta must lie in [0, 1]")
        if not (0.0 < self.mu <= 1.0):
            raise ValueError("mu must lie in (0, 1]")
        if self.g <= 0 or self.rho_bar <= 0:
            raise ValueError("g and rho_bar must be positive")

    @property
    def sqrt_mu(self) -> float:
        return float(np.sqrt(self.mu))


# -- bathymetry ------------------------------------------------------------------

RIDGE_WIDTH = 0.1  # standard deviation of the gaussian preset's ridge, as a fraction of the length


@dataclass(frozen=True)
class Bathymetry:
    """Dimensionless bottom shape b(x); the physical bottom is -1 + beta b."""

    grid: StripGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.xshape:
            raise ValueError("bathymetry sampled off-grid")

    @cached_property
    def gradient(self) -> np.ndarray:
        return spectral.dx(self.grid, self.values)

    @classmethod
    def flat(cls, grid: StripGrid) -> "Bathymetry":
        return cls(grid, np.zeros(grid.xshape))

    @classmethod
    def cosine(cls, grid: StripGrid, amplitude: float = 0.3) -> "Bathymetry":
        phase = 2.0 * np.pi * grid.x / grid.length
        vals = amplitude * np.cos(phase)
        if grid.d == 2:
            vals = vals[:, None] * np.cos(phase)[None, :]
        return cls(grid, vals)

    @classmethod
    def gaussian_ridge(cls, grid: StripGrid, amplitude: float = 0.3) -> "Bathymetry":
        xc = 0.5 * grid.length
        prof = amplitude * np.exp(-((grid.x - xc) ** 2) / (2.0 * (RIDGE_WIDTH * grid.length) ** 2))
        prof = prof - prof.mean()
        if grid.d == 2:
            prof = prof[:, None] + prof[None, :]
        return cls(grid, prof)

    @classmethod
    def from_file(cls, grid: StripGrid, path) -> "Bathymetry":
        """Columnar text file with x and b samples, interpolated periodically;
        ConfigError when it cannot be read, has fewer than two columns or a
        non-finite sample."""
        try:
            data = np.loadtxt(path, ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bathymetry file {path}: {exc}") from exc
        if data.shape[1] < 2:
            raise ConfigError(f"bathymetry file {path} needs two columns (x, b)")
        if not np.isfinite(data[:, :2]).all():
            raise ConfigError(f"bathymetry file {path} has a non-finite sample")
        xs, bs = data[:, 0], data[:, 1]
        order = np.argsort(xs)
        xs, bs = xs[order], bs[order]
        xq = np.concatenate([xs - grid.length, xs, xs + grid.length])
        bq = np.tile(bs, 3)
        vals = np.interp(grid.x, xq, bq)
        if grid.d == 2:
            vals = np.broadcast_to(vals[:, None], grid.xshape).copy()
        return cls(grid, vals)

    @classmethod
    def preset(cls, grid: StripGrid, name: str, amplitude: float = 0.3) -> "Bathymetry":
        if name == "flat":
            return cls.flat(grid)
        if name == "cosine":
            return cls.cosine(grid, amplitude)
        if name == "gaussian":
            return cls.gaussian_ridge(grid, amplitude)
        raise ValueError(f"unknown bathymetry preset {name!r}")


# -- sigma-coordinate operators ----------------------------------------------------


@dataclass(frozen=True)
class SigmaOps:
    """Transformed derivatives for a vertical map with slope field kappa and
    inverse layer thickness gamma:

        grad_phi f = grad f - kappa * d_r f,      dr_phi f = gamma * d_r f.

    kappa carries a leading component axis; both broadcast over strip fields.
    """

    grid: StripGrid
    kappa: np.ndarray
    gamma: np.ndarray

    def gradients(self, F_hat: np.ndarray) -> np.ndarray:
        """(grad_phi f, dr_phi f) of each field f whose horizontal rFFT is
        ``F_hat`` (a strip field or a stack of them), as d + 1 leading rows:
        d_r is taken on the spectrum (it commutes with the horizontal
        transform), and all rows come back in one inverse transform."""
        grid, d = self.grid, self.grid.d
        spec = np.empty((d + 1,) + F_hat.shape, dtype=complex)
        for i, k in enumerate(grid.kvec):
            np.multiply(1j * k, F_hat, out=spec[i])
        spec[d] = spectral.dr(grid, F_hat.view(float)).view(complex)
        G = spectral.irfft(grid, spec)
        for i in range(d):
            G[i] -= self.kappa[i] * G[d]
        G[d] *= self.gamma
        return G

    def div_phi(self, F: np.ndarray, Fx_hat: np.ndarray) -> np.ndarray:
        """grad_phi . F_x + dr_phi F_r of the d + 1 rows F = (F_x, F_r),
        stacked as ``gradients`` stacks them, given the horizontal rFFT
        ``Fx_hat`` of F_x, which the caller holds or takes: the horizontal
        divergence in one inverse transform, d_r of the stack in one call, and
        the metric applied in place."""
        grid, d = self.grid, self.grid.d
        out = spectral.irfft(grid, sum(1j * k * f for k, f in zip(grid.kvec, Fx_hat)))
        dF = spectral.dr(grid, F)
        dF[:d] *= self.kappa
        dF[d] *= self.gamma
        out += dF[d]
        for i in range(d):
            out -= dF[i]
        return out

    def advect(self, V: np.ndarray, w: np.ndarray, F: np.ndarray, dF: np.ndarray) -> np.ndarray:
        """V . grad_phi f + w dr_phi f for each field f of the stack F
        (leading field axis), given dF = d_r F (taken once by the caller,
        which reuses it): the horizontal ``spectral.transport`` of the stack
        plus c d_r f, with the vertical coefficient c = w gamma - V . kappa
        formed once for every field; raw products, not dealiased (the caller
        dealiases the stack once)."""
        out = spectral.transport(self.grid, V, F)
        c = w * self.gamma
        for i in range(self.grid.d):
            c -= V[i] * self.kappa[i]
        out += c * dF
        return out


# -- the coordinate map of the strip onto the fluid domain ----------------------------

# the transported map halts with DegenerateDiffeo once its layer thickness
# falls to this value
MIN_THICKNESS = 1e-3


@dataclass(frozen=True)
class DiffeoFields:
    """Metric data of a map (x, r) -> (x, z) of the flat strip onto the fluid
    domain: the layer thickness h_tot = d_r z (a surface field when
    r-independent), the horizontal gradient grad_sum of z (components
    leading), the node heights z, computed by ``heights`` on first read
    (only the good unknowns read them, not a time step), and the surface
    gradient of a barycentric map.  ``build_diffeo`` fills it from the
    barycentric profile of the direct scheme, ``transported`` from the
    deformation carried by the mollified scheme."""

    grid: StripGrid
    h_tot: np.ndarray
    grad_sum: np.ndarray
    heights: Callable[[], np.ndarray] = field(repr=False, compare=False)
    # grad eta0 of the surface a ``build_diffeo`` map was built from, which
    # the rates of the direct scheme read too; None for a transported map
    surface_gradient: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.h_tot.min() <= 0.0:
            raise DegenerateDepth(f"min depth {self.h_tot.min():.3e} <= 0")

    @cached_property
    def z(self) -> np.ndarray:
        return self.heights()

    @property
    def bottom_gradient(self) -> np.ndarray:
        return self.grad_sum[:, 0]

    @cached_property
    def ops(self) -> SigmaOps:
        return SigmaOps(self.grid, self.grad_sum / self.h_tot, 1.0 / self.h_tot)

    @classmethod
    def transported(cls, grid: StripGrid, H: np.ndarray) -> "DiffeoFields":
        """The map (x, r) -> (x, r + H); its layer thickness 1 + d_r H is a
        genuine strip field."""
        h_tot = 1.0 + spectral.dr(grid, H)
        if h_tot.min() <= MIN_THICKNESS:
            raise DegenerateDiffeo(f"layer thickness reached {h_tot.min():.3e}")
        return cls(grid, h_tot, spectral.dx(grid, H), lambda: grid.r_column(grid.r) + H)


def barycentric_heights(bathymetry: Bathymetry, eta0: np.ndarray, params: PhysParams) -> np.ndarray:
    """Node heights z = eta_bar + eps*eta of the linear-in-r profiles
    eta_bar = r(1 - beta b), eta = (1+r) eta0, without the rest of the map."""
    grid = bathymetry.grid
    if eta0.shape != grid.xshape:
        raise ValueError("surface field sampled off-grid")
    r = grid.r_column(grid.r)
    return r * (1.0 - params.beta * bathymetry.values) + params.eps * ((1.0 + r) * eta0)


def build_diffeo(bathymetry: Bathymetry, eta0: np.ndarray, params: PhysParams) -> DiffeoFields:
    """The map (x, r) -> (x, ``barycentric_heights``); its depth
    h_tot = 1 - beta b + eps eta0 must be positive (DegenerateDepth).  It
    keeps grad eta0 as ``surface_gradient``."""
    grid = bathymetry.grid
    if eta0.shape != grid.xshape:
        raise ValueError("surface field sampled off-grid")
    r = grid.r_column(grid.r)
    gb = -params.beta * bathymetry.gradient
    grad_eta0 = spectral.dx(grid, eta0)
    grad_sum = r[None] * gb[:, None] + (1.0 + r)[None] * (params.eps * grad_eta0)[:, None]
    h_tot = water_depth(bathymetry, eta0, params)
    return DiffeoFields(grid, h_tot, grad_sum, lambda: barycentric_heights(bathymetry, eta0, params), grad_eta0)


def alinhac_unknown(F: np.ndarray, F_hat: np.ndarray, s: float, diffeo: DiffeoFields) -> np.ndarray:
    """Good unknown f^(s) of each field f of the stack F (leading field axes,
    or one strip field) with the horizontal rFFT ``F_hat``: the dotted
    multiplier of order s applied to f, corrected by the metric of ``diffeo``
    so high-order derivatives commute with grad_phi up to O(eps v beta)
    remainders.  One inverse transform and one d_r serve the whole stack."""
    grid = diffeo.grid
    correction = spectral.lambda_pow(grid, diffeo.z, s, dotted=True) / diffeo.h_tot
    dotted = spectral.irfft(grid, spectral.lambda_symbol(grid, s, dotted=True) * F_hat)
    return dotted - correction * spectral.dr(grid, F)


def total_density(rho: np.ndarray, params: PhysParams) -> np.ndarray:
    """rho_bar + eps delta rho; DegenerateDensity unless it is positive
    everywhere (the pressure problem is elliptic only then)."""
    rho_tot = params.rho_bar + params.eps * params.delta * rho
    min_density = float(rho_tot.min())
    if min_density <= 0.0:
        raise DegenerateDensity(f"min density {min_density:.3e}")
    return rho_tot


def water_depth(bathymetry: Bathymetry, eta: np.ndarray, params: PhysParams) -> np.ndarray:
    """Depth 1 - beta b + eps eta under the surface eta (positive unless the
    water column cavitates)."""
    return 1.0 - params.beta * bathymetry.values + params.eps * eta


def wave_speed(depth: np.ndarray, V: np.ndarray, params: PhysParams) -> float:
    """Fastest signal speed sqrt(g max depth) + eps max|V| of the step bounds."""
    return np.sqrt(params.g * depth.max()) + params.eps * float(np.abs(V).max())
