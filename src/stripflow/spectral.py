"""Fourier multipliers, mollifiers, harmonic extension, anisotropic Sobolev
norms and quadrature on the strip.

All operators act slab-by-slab on strip fields (leading r-axis) and directly
on surface fields; the horizontal transform is a real FFT over the trailing
d axes, so the transforms, ``dx``, ``dr`` and the multipliers also take a
stack of fields along further leading axes in one call.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientResolution
from .grid import StripGrid


def rfft(grid: StripGrid, f: np.ndarray) -> np.ndarray:
    if grid.d == 1:
        return np.fft.rfft(f)
    return np.fft.rfftn(f, axes=(-2, -1))


def irfft(grid: StripGrid, F: np.ndarray) -> np.ndarray:
    if grid.d == 1:
        return np.fft.irfft(F, n=grid.n_x)
    return np.fft.irfftn(F, s=grid.xshape, axes=(-2, -1))


def apply_multiplier(grid: StripGrid, f: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Multiply each horizontal Fourier mode by ``symbol(xi)`` (real symbol)."""
    if not f.any():
        return np.zeros_like(f)
    return irfft(grid, rfft(grid, f) * symbol)


def dx(grid: StripGrid, f: np.ndarray) -> np.ndarray:
    """Horizontal gradient; returns a stack with a leading component axis."""
    if not f.any():
        return np.zeros((grid.d,) + f.shape)
    F = rfft(grid, f)
    spec = np.empty((grid.d,) + F.shape, dtype=complex)
    for i, k in enumerate(grid.kvec):
        np.multiply(1j * k, F, out=spec[i])
    return irfft(grid, spec)


def dr(grid: StripGrid, f: np.ndarray) -> np.ndarray:
    """Vertical derivative (4th-order finite differences) of a strip field,
    or of each field of a stack of them (leading field axes)."""
    if f.ndim < grid.d + 1 or f.shape[-grid.d - 1] != grid.n_r + 1:
        raise ValueError("not a strip field")
    return (grid.Dr @ f.reshape(f.shape[: -grid.d - 1] + (grid.n_r + 1, -1))).reshape(f.shape)


def dealias(grid: StripGrid, f: np.ndarray) -> np.ndarray:
    """2/3-rule filter.  Every nonlinear term goes through it the same way:
    the raw products of a field are summed, then dealiased once (the rule is
    linear), for a whole stack of fields in one call."""
    return apply_multiplier(grid, f, grid.dealias_mask)


# -- multipliers ---------------------------------------------------------------


def lambda_pow(grid: StripGrid, f: np.ndarray, s: float, dotted: bool = False) -> np.ndarray:
    """Bessel-potential multiplier (1+|xi|^2)^(s/2); the dotted variant is
    |xi| (1+|xi|^2)^((s-1)/2), which kills the mean mode."""
    base = (1.0 + grid.k_abs**2) ** (0.5 * s)
    if dotted:
        base = grid.k_abs * (1.0 + grid.k_abs**2) ** (0.5 * (s - 1.0))
    return apply_multiplier(grid, f, base)


def _bump(t: np.ndarray) -> np.ndarray:
    """Smooth transition equal to 1 on t <= 1 and 0 on t >= 2."""

    def psi(u):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            v = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        return v

    up, down = psi(2.0 - t), psi(t - 1.0)
    return up / (up + down + 1e-300)


def mollify(grid: StripGrid, f: np.ndarray, iota: float) -> np.ndarray:
    """Smooth low-pass cutoff chi(iota |xi|); identity when iota = 0."""
    if iota < 0:
        raise ValueError("iota must be >= 0")
    if iota == 0.0:
        return f.copy()
    return apply_multiplier(grid, f, _bump(iota * grid.k_abs))


def harmonic_extension(grid: StripGrid, eta0: np.ndarray) -> np.ndarray:
    """Extend a surface field into the strip mode-wise by
    cosh(|xi|(r+1))/cosh(|xi|): Dirichlet at r = 0, zero Neumann at r = -1."""
    F = rfft(grid, eta0)
    k = grid.k_abs
    r = grid.r
    # cosh(k(r+1))/cosh(k) computed stably as exp-form to avoid overflow
    rp = r.reshape((-1,) + (1,) * grid.d) + 1.0
    num = np.exp(k * (rp - 1.0)) + np.exp(-k * (rp + 1.0))
    den = 1.0 + np.exp(-2.0 * k)
    profile = num / den
    return irfft(grid, F[None, ...] * profile)


# -- norms and quadrature ------------------------------------------------------


def l2_surface(grid: StripGrid, f: np.ndarray) -> float:
    """L^2 norm on the torus; for band-limited samples this equals the
    Parseval sum."""
    return float(np.sqrt(grid.cell_volume * np.sum(f * f)))


def l2_strip(grid: StripGrid, f: np.ndarray) -> float:
    w = grid.r_column(grid.r_weights)
    return float(np.sqrt(grid.cell_volume * np.sum(w * f * f)))


def surface_norm(grid: StripGrid, f: np.ndarray, s: float) -> float:
    """|f|_{H^s} on the torus."""
    return l2_surface(grid, lambda_pow(grid, f, s))


def sobolev_norm(grid: StripGrid, F: np.ndarray, s: float) -> float:
    """Anisotropic H^s norm of a strip field, or of a stack of them along
    leading axes: each field's sum_{l<=k} ||Lambda^{s-l} d_r^l f||_{L^2(S)}
    with k = int(s) (0 for s < 0), then the root of the summed squares over the stack.
    Each order transforms the whole stack in one call."""
    lead = F.shape[: F.ndim - grid.d - 1]
    if F.shape[len(lead) :] != (grid.n_r + 1,) + grid.xshape:
        raise ValueError("not a strip field")
    k = max(int(s), 0)
    if k > 0 and grid.n_r + 1 < 5 + k:
        raise InsufficientResolution(f"k={k} on {grid.n_r + 1} vertical nodes")
    w = grid.r_column(grid.r_weights)
    norms = 0.0
    for l in range(k + 1):
        g = lambda_pow(grid, F, s - l)
        norms = norms + np.sqrt(grid.cell_volume * np.sum((w * g * g).reshape(lead + (-1,)), axis=-1))
        if l < k:
            F = dr(grid, F)
    # Python floats, squared and summed in stack order: the arithmetic of a
    # root-sum-square of separately taken norms
    return float(np.sqrt(sum(n**2 for n in np.ravel(norms).tolist())))
