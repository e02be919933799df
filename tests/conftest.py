import numpy as np
import pytest

from stripflow import Bathymetry, PhysParams, StripGrid, pressure, runner, spectral
from stripflow.dynamics import vorticity
from stripflow.geometry import alinhac_unknown


@pytest.fixture
def grid():
    return StripGrid(n_x=64, n_r=16)


@pytest.fixture
def fine_grid():
    return StripGrid(n_x=64, n_r=32)


@pytest.fixture
def params():
    return PhysParams(eps=0.3, beta=0.5, mu=1e-2, delta=0.2)


@pytest.fixture
def flat_setup(grid):
    params = PhysParams(eps=0.0, beta=0.0, mu=1e-2, delta=0.0)
    return grid, params, Bathymetry.flat(grid)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_band_limited(grid, rng, kmax=6, r_degree=3, amp=1.0):
    """Smooth random strip field: a few Fourier modes times an r-polynomial."""
    f = np.zeros((grid.n_r + 1,) + grid.xshape)
    x = grid.x
    r = grid.r[:, None]
    for k in range(kmax + 1):
        for p in range(r_degree + 1):
            a, b = rng.standard_normal(2) / (1 + k**2) / (1 + p)
            f += (a * np.cos(k * x) + b * np.sin(k * x))[None, :] * r**p
    return amp * f


def random_surface(grid, rng, kmax=6, amp=1.0):
    f = np.zeros(grid.xshape)
    for k in range(kmax + 1):
        a, b = rng.standard_normal(2) / (1 + k**2)
        f += a * np.cos(k * grid.x) + b * np.sin(k * grid.x)
    return amp * f


def harmonic_extension(grid, eta0):
    """Extend a surface field into the strip mode-wise by
    cosh(|xi|(r+1))/cosh(|xi|) (``StripGrid.harmonic_profile``): Dirichlet
    at r = 0, zero Neumann at r = -1.  The reference for the dispersive term
    of the mollified scheme, which takes the extension's spectrum directly."""
    return spectral.irfft(grid, spectral.rfft(grid, eta0)[None, ...] * grid.harmonic_profile)


def surface_norm(grid, f, s):
    """|f|_{H^s} on the torus, from the ``spectral.surface_power`` of f."""
    return float(spectral.power_norm(grid, spectral.surface_power(grid, spectral.rfft(grid, f)), s))


def state_vorticity(state, diffeo, params):
    """``dynamics.vorticity`` of a state, from the horizontal rFFT of its
    (V, w)."""
    return vorticity(spectral.rfft(diffeo.grid, np.concatenate([state.V, state.w[None]])), diffeo, params)


def good_unknown(f, s, diffeo):
    """``geometry.alinhac_unknown`` of a field or stack, from its own
    horizontal rFFT."""
    return alinhac_unknown(f, spectral.rfft(diffeo.grid, f), s, diffeo)


def sigma_gradients(ops, f):
    """(grad_phi f, dr_phi f) of a strip field f, from ``ops.gradients`` of
    its spectrum."""
    G = ops.gradients(spectral.rfft(ops.grid, f))
    return G[:-1], G[-1]


def sigma_divergence(ops, F):
    """``ops.div_phi`` of the stacked rows F = (F_x, F_r), with the
    horizontal rFFT of F_x taken here."""
    return ops.div_phi(F, spectral.rfft(ops.grid, F[: ops.grid.d]))


def count_solve_iterations(monkeypatch) -> list:
    """The GMRES iterations of every pressure solve from here on, in order
    (``solve_pressure`` monkeypatched to record them where ``pressure``
    defines it and where ``runner`` imports it)."""
    iterations = []
    solve = pressure.solve_pressure

    def counted_solve(problem, rtol=1e-10, info=None, x0=None, **kwargs):
        info = pressure.SolveInfo(0, 0.0) if info is None else info
        P = solve(problem, rtol=rtol, info=info, x0=x0, **kwargs)
        iterations.append(info.iterations)
        return P

    for module in (pressure, runner):
        monkeypatch.setattr(module, "solve_pressure", counted_solve)
    return iterations
