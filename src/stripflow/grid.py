"""Discrete periodic-in-x, bounded-in-r mesh of the strip T^d x [-1, 0].

Shape conventions used throughout the package:

* surface field   -- shape ``grid.xshape`` (d horizontal axes),
* strip field     -- shape ``(n_r + 1, *grid.xshape)``,
* horizontal vector field -- a leading component axis of length d.

All fields are real-valued numpy arrays; Fourier transforms act on the
trailing d axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _dr_matrix(n_nodes: int, dr: float) -> np.ndarray:
    """Differentiation matrix on a uniform grid: 4th-order centered in the
    interior, 4th-order one-sided/biased closures at the two boundary pairs."""
    D = np.zeros((n_nodes, n_nodes))
    c = 1.0 / (12.0 * dr)
    for i in range(2, n_nodes - 2):
        D[i, i - 2 : i + 3] = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) * c
    D[0, :5] = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) * c
    D[1, :5] = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) * c
    D[-1, -5:] = -np.array([-25.0, 48.0, -36.0, 16.0, -3.0])[::-1] * c
    D[-2, -5:] = -np.array([-3.0, -10.0, 18.0, -6.0, 1.0])[::-1] * c
    return D


@dataclass(frozen=True)
class StripGrid:
    """Uniform mesh of T^d x [-1, 0]; r-nodes include both endpoints."""

    n_x: int
    n_r: int
    length: float = 2.0 * np.pi
    d: int = 1

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("horizontal dimension must be 1 or 2")
        if self.n_x < 8 or self.n_x & (self.n_x - 1):
            raise ValueError("n_x must be a power of two >= 8")
        if self.n_r < 8:
            raise ValueError("n_r must be >= 8")
        if self.length <= 0:
            raise ValueError("period must be positive")

    # -- horizontal structure -------------------------------------------------

    @property
    def xshape(self) -> tuple:
        return (self.n_x,) * self.d

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.n_x) * (self.length / self.n_x)

    @property
    def dx(self) -> float:
        return self.length / self.n_x

    @cached_property
    def k(self) -> np.ndarray:
        """rfft wavenumbers along the last axis, physical scaling 2*pi/L."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n_x, d=1.0 / self.n_x) / self.length

    @cached_property
    def k_full(self) -> np.ndarray:
        """fft wavenumbers (for the non-last horizontal axis when d = 2)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_x, d=1.0 / self.n_x) / self.length

    @cached_property
    def kvec(self) -> tuple:
        """Wavenumber arrays broadcast to the spectral shape, one per axis."""
        if self.d == 1:
            return (self.k,)
        return (self.k_full[:, None], self.k[None, :])

    @cached_property
    def k_abs(self) -> np.ndarray:
        """|xi| on the spectral grid."""
        if self.d == 1:
            return np.abs(self.k)
        return np.sqrt(self.kvec[0] ** 2 + self.kvec[1] ** 2)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask on the spectral grid."""
        cut = 2.0 * np.pi * (self.n_x // 3) / self.length
        if self.d == 1:
            return (np.abs(self.k) <= cut + 1e-12).astype(float)
        mx = np.abs(self.kvec[0]) <= cut + 1e-12
        my = np.abs(self.kvec[1]) <= cut + 1e-12
        return (mx & my).astype(float)

    # -- vertical structure ---------------------------------------------------

    @cached_property
    def r(self) -> np.ndarray:
        return np.linspace(-1.0, 0.0, self.n_r + 1)

    @property
    def dr(self) -> float:
        return 1.0 / self.n_r

    @cached_property
    def Dr(self) -> np.ndarray:
        return _dr_matrix(self.n_r + 1, self.dr)

    @cached_property
    def r_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights on the r-nodes."""
        w = np.full(self.n_r + 1, self.dr)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    # -- helpers --------------------------------------------------------------

    @property
    def cell_volume(self) -> float:
        return self.dx**self.d

    def r_column(self, f_of_r: np.ndarray) -> np.ndarray:
        """Broadcast an (n_r+1,) profile against the horizontal axes."""
        return f_of_r.reshape((self.n_r + 1,) + (1,) * self.d)
