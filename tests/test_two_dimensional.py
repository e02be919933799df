"""Coverage of the d = 2 code paths: smoke checks of the operator toolbox,
and steps of data constant along one axis against the d = 1 run; the
production experiments run d = 1."""

import numpy as np
import pytest

from stripflow import Bathymetry, PhysParams, StripGrid, build_diffeo
from stripflow import spectral
from stripflow.dynamics import PressureGuess, StripState, euler_rhs, step_rk4
from stripflow.experiments import sw_initial
from stripflow.shallow import well_prepared_init

from conftest import harmonic_extension, sigma_gradients, state_vorticity, surface_norm


@pytest.fixture
def grid2():
    return StripGrid(n_x=16, n_r=8, d=2)


def test_multipliers_and_norms(grid2):
    X, Y = np.meshgrid(grid2.x, grid2.x, indexing="ij")
    f = np.cos(X) * np.cos(2 * Y)
    k2 = 1.0 + 1.0 + 4.0  # 1 + |xi|^2 for the (1,2) mode
    assert np.allclose(spectral.lambda_pow(grid2, f, 2.0), k2 * f, atol=1e-10)
    assert np.isclose(
        surface_norm(grid2, f, 0.0), spectral.l2_surface(grid2, f), rtol=1e-12
    )
    g = harmonic_extension(grid2, f)
    assert np.allclose(g[-1], f, atol=1e-12)


def test_sigma_operators(grid2):
    params = PhysParams(eps=0.3, beta=0.4, mu=0.1)
    bath = Bathymetry.cosine(grid2, 0.2)
    X, Y = np.meshgrid(grid2.x, grid2.x, indexing="ij")
    e0 = 0.05 * np.cos(X) * np.cos(Y)
    diffeo = build_diffeo(bath, e0, params)
    # the height function has vanishing transformed gradient, unit vertical
    f = diffeo.z
    gx, gr = sigma_gradients(diffeo.ops, f)
    assert gx.shape == (2, grid2.n_r + 1, 16, 16)
    assert np.abs(gx).max() < 1e-11
    assert np.abs(gr - 1.0).max() < 1e-11


def test_rest_tendencies_and_vorticity(grid2):
    params = PhysParams(eps=0.3, beta=0.4, mu=0.1)
    bath = Bathymetry.cosine(grid2, 0.2)
    state = StripState.rest(grid2)
    t, _ = euler_rhs(state, bath, params)
    assert np.abs(t.V).max() == 0.0
    assert np.abs(t.w).max() == 0.0
    om = state_vorticity(state, build_diffeo(bath, state.eta0, params), params)
    assert om.shape == (3, grid2.n_r + 1, 16, 16)  # omega_x (two components) and omega_r
    assert np.abs(om[2]).max() == 0.0


def test_single_mode_wave_step(grid2):
    params = PhysParams(eps=0.0, beta=0.0, mu=0.1)
    bath = Bathymetry.flat(grid2)
    state = StripState.rest(grid2)
    X, Y = np.meshgrid(grid2.x, grid2.x, indexing="ij")
    state.eta0 = 0.01 * np.cos(X) * np.cos(Y)
    out = step_rk4(state, 1e-2, bath, params)
    assert np.isfinite(out.V).all() and np.isfinite(out.eta0).all()
    assert np.abs(out.eta0 - state.eta0).max() > 0.0


@pytest.mark.parametrize("axis", [0, 1], ids=["varying_along_x", "varying_along_y"])
def test_data_constant_along_one_axis_reproduce_the_d1_run(axis):
    # data that vary along one horizontal axis only reduce the d = 2 system to
    # the d = 1 system along that axis: 20 steps of each agree to round-off,
    # and the velocity component across it stays exactly 0
    g1, g2 = StripGrid(n_x=32, n_r=12), StripGrid(n_x=32, n_r=12, d=2)
    params = PhysParams(eps=0.3, beta=0.5, mu=1e-2, delta=1e-2)
    bath1 = Bathymetry.cosine(g1, 0.3)
    s1, _ = well_prepared_init(sw_initial(g1, 0.05, 0.05), bath1, params, 4.0, shear_amp=0.03, rho_amp=0.2)

    def lifted(f):  # broadcast a d = 1 field along the other axis
        return np.expand_dims(f, f.ndim - axis).repeat(g2.n_x, axis=f.ndim - axis).copy()

    bath2 = Bathymetry(g2, lifted(bath1.values))
    s2 = StripState(np.zeros((2,) + lifted(s1.w).shape), lifted(s1.w), lifted(s1.rho), lifted(s1.eta0))
    s2.V[axis] = lifted(s1.V[0])
    guess1, guess2 = PressureGuess(g1), PressureGuess(g2)
    for _ in range(20):
        s1 = step_rk4(s1, 5e-3, bath1, params, guess1)
        s2 = step_rk4(s2, 5e-3, bath2, params, guess2)
    for got, want in ((s2.V[axis], s1.V[0]), (s2.w, s1.w), (s2.rho, s1.rho), (s2.eta0, s1.eta0)):
        assert np.abs(got - lifted(want)).max() <= 1e-15
    assert not s2.V[1 - axis].any()
