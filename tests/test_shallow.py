import numpy as np
import pytest

from stripflow import Bathymetry, PhysParams, StripGrid, build_diffeo
from stripflow import spectral
from stripflow.dynamics import StripState, cfl_dt, divergence_report, rk4
from stripflow.errors import BlowUpSuspected, DegenerateDepth, GridMismatch, PreparationFailed
from stripflow.experiments import sw_initial
from stripflow.geometry import water_depth
from stripflow.runner import simulate
from stripflow.shallow import (
    SWState,
    cfl_dt_sw,
    compare,
    lift_sw,
    sw_rhs,
    sw_step_rk4,
    well_prepared_init,
)


def sw_mass(sw, bath, params):
    return float(water_depth(bath, sw.eta, params).mean())


def sw_energy(sw, bath, params):
    h = water_depth(bath, sw.eta, params)
    kin = 0.5 * h * np.sum(sw.V**2, axis=0)
    pot = 0.5 * params.g * sw.eta**2
    return float((kin + pot).mean() * bath.grid.length ** bath.grid.d)


class TestSWDynamics:
    def test_rest_tendencies(self, grid):
        params = PhysParams(eps=0.5, beta=0.5, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.3)
        t = sw_rhs(SWState.rest(grid), bath, params)
        assert np.abs(t.V).max() == 0.0
        assert np.abs(t.eta).max() == 0.0

    def test_lake_at_rest_with_constant_elevation(self, grid):
        params = PhysParams(eps=0.5, beta=0.5, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.3)
        sw = SWState.rest(grid)
        sw.eta = np.full(grid.xshape, 0.2)
        t = sw_rhs(sw, bath, params)
        assert np.abs(t.V).max() < 1e-13
        assert np.abs(t.eta).max() < 1e-11

    def test_degenerate_depth(self, grid):
        params = PhysParams(eps=1.0, beta=1.0, mu=0.1)
        bath = Bathymetry(grid, np.full(grid.xshape, 0.5))
        sw = SWState.rest(grid)
        sw.eta = np.full(grid.xshape, -0.6)
        with pytest.raises(DegenerateDepth):
            sw_rhs(sw, bath, params)

    def test_non_finite_state_halts(self):
        # a NaN in the Saint-Venant velocity makes a non-finite stage tendency,
        # which halts the co-advanced run instead of comparing against NaN
        grid = StripGrid(n_x=32, n_r=12)
        params = PhysParams(eps=0.5, beta=0.5, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.3)
        sw = SWState.rest(grid)
        sw.V[0, 5] = np.nan
        with pytest.raises(BlowUpSuspected):
            sw_step_rk4(sw, 1e-3, bath, params)
        rec = simulate(StripState.rest(grid), bath, params, 4e-3, dt=1e-3, sw=sw)
        assert rec.status == "BlowUpSuspected"
        assert rec.halted_at == 0.0

    def test_rk4_matches_hand_written_reference(self, grid):
        params = PhysParams(eps=0.5, beta=0.5, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.3)
        sw = sw_initial(grid, 0.1, 0.1)
        sw.t = 0.3
        dt = 0.01
        k1 = sw_rhs(sw, bath, params)
        k2 = sw_rhs(SWState(sw.V + 0.5 * dt * k1.V, sw.eta + 0.5 * dt * k1.eta), bath, params)
        k3 = sw_rhs(SWState(sw.V + 0.5 * dt * k2.V, sw.eta + 0.5 * dt * k2.eta), bath, params)
        k4 = sw_rhs(SWState(sw.V + dt * k3.V, sw.eta + dt * k3.eta), bath, params)
        V = sw.V + (dt / 6.0) * (k1.V + 2.0 * k2.V + 2.0 * k3.V + k4.V)
        eta = sw.eta + (dt / 6.0) * (k1.eta + 2.0 * k2.eta + 2.0 * k3.eta + k4.eta)

        got = rk4(sw, dt, lambda st: sw_rhs(st, bath, params))
        assert np.abs(got.V - V).max() <= 1e-15 * np.abs(V).max()
        assert np.abs(got.eta - eta).max() <= 1e-15 * np.abs(eta).max()
        assert got.t == pytest.approx(0.31)

    def test_linear_dispersion(self, grid):
        # eps -> 0, flat bottom: a single mode oscillates at sqrt(g) k
        params = PhysParams(eps=0.0, beta=0.0, mu=0.1, g=1.3)
        bath = Bathymetry.flat(grid)
        k = 2.0
        sw = SWState.rest(grid)
        sw.eta = 0.01 * np.cos(k * grid.x)
        omega = np.sqrt(params.g) * k
        period = 2 * np.pi / omega
        dt = period / 400
        st = sw
        for _ in range(400):
            st = sw_step_rk4(st, dt, bath, params)
        assert np.abs(st.eta - sw.eta).max() < 1e-8

    def test_mass_and_energy_drift(self, grid):
        params = PhysParams(eps=0.3, beta=0.5, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.3)
        sw = sw_initial(grid, 0.08, 0.08)
        m0 = sw_mass(sw, bath, params)
        e0 = sw_energy(sw, bath, params)
        dt = 0.2 * cfl_dt_sw(sw, bath, params)
        st = sw
        for _ in range(100):
            st = sw_step_rk4(st, dt, bath, params)
        assert abs(sw_mass(st, bath, params) - m0) < 1e-12
        assert abs(sw_energy(st, bath, params) - e0) / e0 < 1e-5

    def test_co_step_beyond_its_limit_halts(self, grid):
        # with dt set, the Saint-Venant co-step ran unchecked: here at 1.6
        # times its bound, with the run reporting Continue
        params = PhysParams(eps=0.5, beta=0.5, mu=0.01)
        bath = Bathymetry.flat(grid)
        state = StripState.rest(grid)
        sw = SWState.rest(grid)
        sw.V[0] = 2.0 * np.sin(grid.x)
        dt = 0.4 * cfl_dt(state, bath, params)
        assert dt == pytest.approx(1.6 * 0.5 * cfl_dt_sw(sw, bath, params))
        rec = simulate(state, bath, params, 4 * dt, dt=dt, sw=sw)
        assert rec.status == "CFLViolation"
        assert rec.halted_at == 0.0

    def test_large_time_viability(self):
        # beta = 1, smooth data: stable to t = 1/(2 eps) at eps = 0.1
        grid = StripGrid(n_x=128, n_r=8)
        params = PhysParams(eps=0.1, beta=1.0, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.25)
        sw = sw_initial(grid, 0.1, 0.1)
        T = 1.0 / (2 * params.eps)
        dt = 0.2 * cfl_dt_sw(sw, bath, params)
        n = int(np.ceil(T / dt))
        st = sw
        for _ in range(n):
            st = sw_step_rk4(st, T / n, bath, params)
        assert np.isfinite(st.eta).all() and np.isfinite(st.V).all()
        assert np.abs(st.eta).max() < 10.0


class TestLift:
    def test_rest(self, grid):
        params = PhysParams(eps=0.5, beta=0.5, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.3)
        st = lift_sw(SWState.rest(grid), bath, params)
        assert np.abs(st.V).max() == 0.0
        assert np.abs(st.w).max() == 0.0

    def test_flat_bottom_constant_velocity(self, grid):
        params = PhysParams(eps=0.5, beta=0.0, mu=0.1)
        bath = Bathymetry.flat(grid)
        sw = SWState.rest(grid)
        sw.V[0] = 0.4
        st = lift_sw(sw, bath, params)
        assert np.abs(st.w).max() < 1e-14

    def test_lift_satisfies_constraints_exactly(self, grid):
        params = PhysParams(eps=0.5, beta=0.5, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.3)
        sw = sw_initial(grid, 0.1, 0.15)
        st = lift_sw(sw, bath, params)
        rep = divergence_report(st, bath, params)
        assert rep["div_rel"] < 1e-11
        assert rep["bottom_linf"] < 1e-13
        # surface kinematic condition: the lifted w matches the sw mass flux
        deta = sw_rhs(sw, bath, params).eta
        kin = deta + params.eps * sw.V[0] * spectral.dx(grid, sw.eta)[0] - st.w[-1]
        assert np.abs(kin).max() < 1e-11


class TestCompare:
    def test_self_comparison_vanishes(self, grid):
        params = PhysParams(eps=0.5, beta=0.5, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.3)
        sw = sw_initial(grid, 0.1, 0.15)
        st = lift_sw(sw, bath, params)
        rep = compare(st, sw, 4.0, bath, params)
        assert rep.err_V == 0.0
        assert rep.err_eta == 0.0
        assert rep.err_w == 0.0

    def test_single_mode_elevation_norm(self, grid):
        params = PhysParams(eps=0.3, beta=0.0, mu=0.1)
        bath = Bathymetry.flat(grid)
        sw = SWState.rest(grid)
        from stripflow.dynamics import StripState

        st = lift_sw(sw, bath, params)
        a, k, s = 0.05, 2.0, 3.0
        sw2 = SWState.rest(grid)
        sw2.eta = a * np.cos(k * grid.x)
        rep = compare(st, sw2, s, bath, params)
        expect = a * (1 + k**2) ** (s / 2) * np.sqrt(np.pi)  # |cos(kx)|_{L^2} = sqrt(pi)
        assert np.isclose(rep.err_eta, expect, rtol=1e-12)

    def test_grid_mismatch(self, grid):
        params = PhysParams(eps=0.3, beta=0.0, mu=0.1)
        bath = Bathymetry.flat(grid)
        other = StripGrid(n_x=32, n_r=8)
        st = lift_sw(SWState.rest(other), Bathymetry.flat(other), params)
        with pytest.raises(GridMismatch):
            compare(st, SWState.rest(grid), 4.0, bath, params)


class TestWellPrepared:
    def test_zero_perturbation_is_exact(self, grid):
        params = PhysParams(eps=0.5, beta=0.5, mu=1e-2, delta=0.0)
        bath = Bathymetry.cosine(grid, 0.3)
        sw = sw_initial(grid, 0.1, 0.1)
        st, achieved = well_prepared_init(sw, bath, params, 4.0)
        assert achieved < 1e-7

    def test_achieved_sum_reported(self, fine_grid):
        grid = fine_grid
        params = PhysParams(eps=0.5, beta=0.5, mu=1e-2, delta=1e-2)
        bath = Bathymetry.cosine(grid, 0.3)
        sw = sw_initial(grid, 0.1, 0.1)
        st, achieved = well_prepared_init(sw, bath, params, 4.0, shear_amp=0.03, rho_amp=0.2)
        assert 0.0 < achieved <= np.sqrt(params.mu)
        # scaled vorticity of the prepared state is O(1)-bounded
        from stripflow.dynamics import vorticity

        diffeo = build_diffeo(bath, st.eta0, params)
        om = vorticity(st, diffeo, params)
        assert spectral.sobolev_norm(grid, om, 3.0) < 5.0

    def test_strong_density_rejected(self, grid):
        params = PhysParams(eps=0.5, beta=0.5, mu=1e-3, delta=1e-2)
        bath = Bathymetry.cosine(grid, 0.3)
        sw = sw_initial(grid, 0.1, 0.1)
        with pytest.raises(PreparationFailed):
            well_prepared_init(sw, bath, params, 4.0)

    def test_oversized_shear_rejected(self, grid):
        params = PhysParams(eps=0.5, beta=0.5, mu=1e-2, delta=0.0)
        bath = Bathymetry.cosine(grid, 0.3)
        sw = sw_initial(grid, 0.1, 0.1)
        with pytest.raises(PreparationFailed):
            well_prepared_init(sw, bath, params, 4.0, shear_amp=1.0)
