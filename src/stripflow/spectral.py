"""Fourier multipliers, mollifiers, harmonic extension, anisotropic Sobolev
norms and quadrature on the strip.

All operators act slab-by-slab on strip fields (leading r-axis) and directly
on surface fields; the horizontal transform is a real FFT over the trailing
d axes, so the transforms, ``dx``, ``dr`` and the multipliers also take a
stack of fields along further leading axes in one call.

The Sobolev norms are read off the spectrum: one forward transform per field
stack, ``dr`` applied to the spectrum (it commutes with the horizontal
transform), and each order's L^2 norm summed from |F|^2 with the
half-spectrum Parseval weights (``StripGrid.parseval_weights``; Canuto,
Hussaini, Quarteroni & Zang, Spectral Methods, 2006).  No inverse transform
follows, and one field's ``vertical_powers`` serve its norms at every s.
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
    return dx_of_spectrum(grid, rfft(grid, f))


def dx_of_spectrum(grid: StripGrid, F: np.ndarray) -> np.ndarray:
    """``dx`` of the field whose horizontal rFFT is F: one inverse transform."""
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


def dealiased_spectrum(grid: StripGrid, f: np.ndarray) -> np.ndarray:
    """The horizontal rFFT of ``dealias(f)``: the 2/3 rule applied to the
    spectrum, for a caller that keeps the spectrum as well as the field."""
    return rfft(grid, f) * grid.dealias_mask


def dealias(grid: StripGrid, f: np.ndarray) -> np.ndarray:
    """2/3-rule filter.  Every nonlinear term goes through it the same way:
    the raw products of a field are summed, then dealiased once (the rule is
    linear), for a whole stack of fields in one call."""
    return irfft(grid, dealiased_spectrum(grid, f))


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
    cosh(|xi|(r+1))/cosh(|xi|) (``StripGrid.harmonic_profile``): Dirichlet
    at r = 0, zero Neumann at r = -1."""
    return irfft(grid, rfft(grid, eta0)[None, ...] * grid.harmonic_profile)


# -- norms and quadrature ------------------------------------------------------


def l2_surface(grid: StripGrid, f: np.ndarray) -> float:
    """L^2 norm on the torus; for band-limited samples this equals the
    Parseval sum."""
    return float(np.sqrt(grid.cell_volume * np.sum(f * f)))


def l2_strip(grid: StripGrid, f: np.ndarray) -> float:
    w = grid.r_column(grid.r_weights)
    return float(np.sqrt(grid.cell_volume * np.sum(w * f * f)))


def power_norm(grid: StripGrid, power: np.ndarray, s: float) -> np.ndarray:
    """sqrt(sum_xi (1+|xi|^2)^s power(xi)) over the trailing mode axes: the
    H^s norm of a surface field whose ``surface_power`` is ``power`` (one per
    leading axis)."""
    bessel = (1.0 + grid.k_abs**2) ** s
    return np.sqrt(np.sum((power * bessel).reshape(power.shape[: power.ndim - grid.d] + (-1,)), axis=-1))


def surface_power(grid: StripGrid, f: np.ndarray) -> np.ndarray:
    """The Parseval-weighted power of each horizontal mode of a surface
    field: its sum is ||f||^2_{L^2(T^d)}."""
    F = rfft(grid, f)
    return grid.parseval_weights * (F.real**2 + F.imag**2)


def surface_norm(grid: StripGrid, f: np.ndarray, s: float) -> float:
    """|f|_{H^s} on the torus."""
    return float(power_norm(grid, surface_power(grid, f), s))


def top_order(s: float, first: int = 0) -> int:
    """The highest vertical derivative the H^(s - first) norm of d_r^first f
    takes: first + int(s - first), and first for s < first."""
    return first + max(int(s - first), 0)


def vertical_powers(grid: StripGrid, F: np.ndarray, k: int) -> np.ndarray:
    """P[l] for l = 0..k: the power of each horizontal mode of d_r^l f,
    summed over r with the trapezoid weights and over the half spectrum with
    the Parseval weights, for each field f of the strip field or stack F
    (shape (k + 1, *stack axes, *spectral shape)); sum(P[l]) is
    ||d_r^l f||^2_{L^2(S)}.  One forward transform of the stack, then ``dr``
    on its spectrum."""
    lead = F.shape[: F.ndim - grid.d - 1]
    if F.shape[len(lead) :] != (grid.n_r + 1,) + grid.xshape:
        raise ValueError("not a strip field")
    if k > 0 and grid.n_r + 1 < 5 + k:
        raise InsufficientResolution(f"k={k} on {grid.n_r + 1} vertical nodes")
    G = rfft(grid, F)
    cols = lead + (grid.n_r + 1, -1)
    P = np.empty((k + 1,) + lead + grid.k_abs.shape)
    for l in range(k + 1):
        P[l] = (grid.r_weights @ (G.real**2 + G.imag**2).reshape(cols)).reshape(P.shape[1:])
        if l < k:
            G = dr(grid, G.view(float)).view(complex)
    P *= grid.parseval_weights
    return P


def field_norms(grid: StripGrid, P: np.ndarray, s: float, first: int = 0) -> np.ndarray:
    """The anisotropic H^(s - first) norm of d_r^first f for each field f
    whose ``vertical_powers`` are P: sum_{l} ||Lambda^(s-l) d_r^l f||_{L^2(S)}
    over l = first .. top_order(s, first)."""
    return sum(power_norm(grid, P[l], s - l) for l in range(first, top_order(s, first) + 1))


def root_sum_square(norms) -> float:
    """The norm of a stack from the norms of its fields."""
    # Python floats, squared and summed in stack order: the arithmetic of a
    # root-sum-square of separately taken norms
    return float(np.sqrt(sum(n**2 for n in np.ravel(norms).tolist())))


def sobolev_norm(grid: StripGrid, F: np.ndarray, s: float) -> float:
    """Anisotropic H^s norm of a strip field, or of a stack of them along
    leading axes: each field's sum_{l<=k} ||Lambda^{s-l} d_r^l f||_{L^2(S)}
    with k = int(s) (0 for s < 0), then the root of the summed squares over
    the stack.  The whole stack is transformed once and each order's norm is
    read off its spectrum (``vertical_powers``)."""
    return root_sum_square(field_norms(grid, vertical_powers(grid, F, top_order(s)), s))
