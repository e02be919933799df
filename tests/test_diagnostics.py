import numpy as np
import pytest

from stripflow import Bathymetry, PhysParams, StripGrid, build_diffeo
from stripflow import spectral
from stripflow.diagnostics import blowup_monitor, energy, fit_rate, good_unknown_energy, state_norm
from stripflow.dynamics import StripState, assemble_pressure_problem, cfl_dt
from stripflow.geometry import alinhac_unknown, total_density
from stripflow.mollified import MollParams, from_strip_state, run_moll
from stripflow.pressure import solve_pressure, taylor_coefficient
from stripflow import runner
from stripflow.errors import NoConvergence
from stripflow.runner import measure, simulate

from conftest import random_band_limited
from test_acceptance import gronwall_slope
from test_run_properties import equivalence_checks, equivalence_ratios


def report_for(state, bath, params, s=4.0, s0=2.0):
    diffeo = build_diffeo(bath, state.eta0, params)
    P_hat = solve_pressure(assemble_pressure_problem(state, diffeo, params)[0])
    taylor = taylor_coefficient(P_hat, diffeo, params)
    return energy(state, taylor, s, s0, params, diffeo), diffeo


class TestEnergy:
    @pytest.mark.parametrize("n_x,n_r,d", [(64, 16, 1), (16, 12, 2)])
    def test_good_unknowns_of_the_stack_in_one_transform(self, n_x, n_r, d, rng, monkeypatch):
        # one multiplier and one d_r of the stack (V, w, rho) and one
        # multiplier of the heights, where each field took its own
        # (2 (d + 2) multipliers and d + 2 d_r), with the field-by-field sum
        grid = StripGrid(n_x=n_x, n_r=n_r, d=d)
        params = PhysParams(eps=0.3, beta=0.4, mu=0.05, delta=0.04)
        strip = (n_r + 1,) + grid.xshape
        st = StripState(
            V=0.1 * rng.standard_normal((d,) + strip), w=0.1 * rng.standard_normal(strip),
            rho=0.1 * rng.standard_normal(strip), eta0=0.05 * rng.standard_normal(grid.xshape),
        )
        diffeo = build_diffeo(Bathymetry.cosine(grid, 0.2), st.eta0, params)
        h, mu, rho_tot = diffeo.h_tot, params.mu, total_density(st.rho, params)
        terms = [(np.sqrt(h * rho_tot), V_i) for V_i in st.V]
        terms += [(np.sqrt(mu * h * rho_tot), st.w), (np.sqrt(mu * h), st.rho)]
        expect = sum(spectral.l2_strip(grid, wt * alinhac_unknown(f, 3.5, diffeo)) ** 2 for wt, f in terms)
        calls = {"lambda_pow": 0, "dr": 0}
        for name in calls:
            def counted(*args, _f=getattr(spectral, name), _name=name, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(spectral, name, counted)
        assert good_unknown_energy(st, diffeo, params, 3.5) == expect
        assert calls == {"lambda_pow": 2, "dr": 1}

    def test_rest_energy_is_zero(self, grid):
        params = PhysParams(eps=0.3, beta=0.5, mu=1e-2)
        bath = Bathymetry.cosine(grid, 0.3)
        rep, _ = report_for(StripState.rest(grid), bath, params)
        assert rep.E_s == 0.0
        assert rep.E_low == 0.0
        assert rep.taylor_min == pytest.approx(params.g * params.rho_bar)

    def test_single_mode_closed_form(self, grid):
        # rest + one surface mode: E = g rho_bar pi a^2 (1+k^2)^{s0+1}
        #                              + g rho_bar pi a^2 k^2 (1+k^2)^{s-1}
        params = PhysParams(eps=0.0, beta=0.0, mu=1e-2, g=1.2, rho_bar=1.1)
        bath = Bathymetry.flat(grid)
        st = StripState.rest(grid)
        a, k = 0.04, 1.0
        st.eta0 = a * np.cos(k * grid.x)
        s, s0 = 4.0, 2.0
        rep, _ = report_for(st, bath, params, s, s0)
        grav = params.g * params.rho_bar
        low = grav * np.pi * a**2 * (1 + k**2) ** (s0 + 1)
        surf = grav * np.pi * a**2 * k**2 * (1 + k**2) ** (s - 1)
        assert np.isclose(rep.E_low, low, rtol=1e-10)
        assert np.isclose(rep.surface_term, surf, rtol=1e-10)
        assert np.isclose(rep.E_s, low + surf, rtol=1e-10)

    def test_two_sided_equivalence_scan(self, fine_grid, rng):
        # E_s is squeezed between multiples of the squared norm package
        grid = fine_grid
        params = PhysParams(eps=0.3, beta=0.3, mu=0.04, delta=0.04)
        bath = Bathymetry.cosine(grid, 0.2)
        ratios = []
        for _ in range(20):
            st = StripState.rest(grid)
            st.eta0 = 0.05 * np.cos(grid.x) + 0.02 * np.sin(2 * grid.x)
            st.V[0] = random_band_limited(grid, rng, amp=0.3)
            st.w = random_band_limited(grid, rng, amp=0.3)
            st.rho = random_band_limited(grid, rng, amp=0.3)
            rep, diffeo = report_for(st, bath, params)
            from stripflow.dynamics import vorticity
            from stripflow.diagnostics import vorticity_norm

            sq = params.sqrt_mu
            pack = (
                spectral.stack_norm(grid, [st.V[0], sq * st.w, sq * st.rho], 4.0) ** 2
                + vorticity_norm(grid, vorticity(st, diffeo, params), 3.0) ** 2
                + spectral.surface_norm(grid, st.eta0, 4.0) ** 2
            )
            ratios.append(rep.E_s / pack)
        assert max(ratios) / min(ratios) < 50.0
        assert min(ratios) > 0.0

    def test_continuity_in_state(self, grid, rng):
        params = PhysParams(eps=0.3, beta=0.3, mu=0.04)
        bath = Bathymetry.cosine(grid, 0.2)
        st = StripState.rest(grid)
        st.eta0 = 0.05 * np.cos(grid.x)
        st.V[0] = random_band_limited(grid, rng, amp=0.2)
        rep0, _ = report_for(st, bath, params)
        direction = random_band_limited(grid, rng)
        eps_fd = 1e-6
        st2 = st.copy()
        st2.V[0] = st.V[0] + eps_fd * direction
        rep1, _ = report_for(st2, bath, params)
        # first-order change is bounded by the perturbation's norm scale
        bound = 20.0 * eps_fd * spectral.field_norm(grid, direction, 4.0) * np.sqrt(rep0.E_s)
        assert abs(rep1.E_s - rep0.E_s) < bound


class TestEquivalenceChecks:
    def test_rest_passes(self, grid):
        params = PhysParams(eps=0.3, beta=0.5, mu=1e-2)
        bath = Bathymetry.cosine(grid, 0.3)
        st = StripState.rest(grid)
        rep, _ = report_for(st, bath, params)
        ratios = equivalence_ratios(grid, rep, st)
        out = equivalence_checks(ratios, reference=ratios)
        assert out["ok"]

    def test_columnar_lift_has_zero_shear(self, grid):
        from stripflow.experiments import sw_initial
        from stripflow.shallow import lift_sw

        params = PhysParams(eps=0.3, beta=0.3, mu=1e-2)
        bath = Bathymetry.cosine(grid, 0.2)
        st = lift_sw(sw_initial(grid, 0.05, 0.05), bath, params)
        rep, _ = report_for(st, bath, params)
        assert rep.shear_ratio < 1e-10

    def test_ratio_monitoring_flags_growth(self, grid):
        params = PhysParams(eps=0.3, beta=0.5, mu=1e-2)
        bath = Bathymetry.cosine(grid, 0.3)
        st = StripState.rest(grid)
        st.eta0 = 0.05 * np.cos(grid.x)
        rep, _ = report_for(st, bath, params)
        inflated = type(rep)(**{**rep.__dict__, "shear_ratio": 100.0})
        out = equivalence_checks(equivalence_ratios(grid, inflated, st), reference=equivalence_ratios(grid, rep, st))
        assert not out["ok"]
        assert not out["flags"]["shear"]


class TestBlowupMonitor:
    def _setup(self, grid):
        params = PhysParams(eps=0.3, beta=0.3, mu=1e-2, c_star=0.2)
        bath = Bathymetry.cosine(grid, 0.2)
        st = StripState.rest(grid)
        st.eta0 = 0.05 * np.cos(grid.x)
        rep, diffeo = report_for(st, bath, params)
        return params, st, rep, diffeo

    def test_healthy_run_continues(self, grid):
        params, st, rep, diffeo = self._setup(grid)
        assert blowup_monitor(rep, rep.state_norm, params) == "Continue"

    def test_taylor_degenerate(self, grid):
        params, st, rep, diffeo = self._setup(grid)
        bad = type(rep)(**{**rep.__dict__, "taylor_min": 0.01})
        assert blowup_monitor(bad, rep.state_norm, params) == "TaylorDegenerate"

    def test_taylor_degenerate_from_synthetic_pressure(self, grid):
        # a synthetic pressure with a strong vertical gradient drives the
        # surface coefficient below half its floor
        params, st, rep, diffeo = self._setup(grid)
        P = 40.0 * np.broadcast_to(grid.r[:, None], (grid.n_r + 1,) + grid.xshape)
        a = taylor_coefficient(spectral.rfft(grid, P), diffeo, params)
        bad = type(rep)(**{**rep.__dict__, "taylor_min": a.min()})
        assert a.min() < 0.5 * params.c_star
        assert blowup_monitor(bad, rep.state_norm, params) == "TaylorDegenerate"

    def test_norm_spike(self, grid):
        params, st, rep, diffeo = self._setup(grid)
        spiked = type(rep)(**{**rep.__dict__, "state_norm": 20.0 * rep.state_norm})
        assert blowup_monitor(spiked, rep.state_norm, params) == "NormBlowup"


class TestSimulateHalts:
    def test_package_error_becomes_status_at_failing_step(self, grid, monkeypatch):
        params = PhysParams(eps=0.3, beta=0.3, mu=1e-2)
        bath = Bathymetry.cosine(grid, 0.2)
        st = StripState.rest(grid)
        st.eta0 = 0.05 * np.cos(grid.x)
        real_step = runner.step_rk4
        started = []

        def step_failing_on_third(state, dt, *args, **kwargs):
            started.append(state.t)
            if len(started) == 3:
                raise NoConvergence("synthetic stalled solve")
            return real_step(state, dt, *args, **kwargs)

        monkeypatch.setattr(runner, "step_rk4", step_failing_on_third)
        rec = simulate(st, bath, params, 0.01, dt=1e-3, cadence=10)
        assert rec.status == "NoConvergence"
        assert rec.halted_at == started[-1]
        assert rec.halted_at == pytest.approx(2e-3)
        assert rec.final.t == rec.halted_at
        assert rec.times == [0.0]

    def test_bad_initial_state_halts_at_zero(self):
        # the t = 0 observation of either driver checks the density: the
        # direct scheme's measurement and the mollified scheme's energy
        grid = StripGrid(n_x=32, n_r=8)
        params = PhysParams(eps=1.0, beta=0.3, mu=1e-2, delta=1.0)
        bath = Bathymetry.flat(grid)
        st = StripState.rest(grid)
        st.rho[:] = -1.5
        drivers = {
            "simulate": lambda: simulate(st, bath, params, 0.01, dt=1e-3),
            "run_moll": lambda: run_moll(from_strip_state(st, bath, params), MollParams(), bath, params,
                                         0.01, dt=1e-3),
        }
        for name, driver in drivers.items():
            rec = driver()
            assert rec.status == "DegenerateDensity", name
            assert rec.halted_at == 0.0, name
            assert rec.final.t == 0.0, name
            assert rec.times == [] and rec.energies == [] and rec.reports == [], name
            assert rec.mean_eta0_drift == 0.0, name

    def test_step_beyond_stability_bound_halts(self, grid):
        # every step re-checks the bound, so a fixed dt that exceeds it halts
        params = PhysParams(eps=0.3, beta=0.3, mu=1e-2)
        bath = Bathymetry.cosine(grid, 0.2)
        st = StripState.rest(grid)
        st.eta0 = 0.05 * np.cos(grid.x)
        dt = 10.0 * 0.5 * cfl_dt(st, bath, params)
        rec = simulate(st, bath, params, 2.0 * dt, dt=dt)
        assert rec.status == "CFLViolation"
        assert rec.halted_at == 0.0
        assert rec.final.t == 0.0
        assert rec.times == [0.0]


class TestFitRate:
    def test_exact_sqrt(self):
        fit = fit_rate([(m, np.sqrt(m)) for m in (1e-1, 1e-2, 1e-3, 1e-4)])
        assert np.isclose(fit.slope, 0.5, atol=1e-12)
        assert not fit.degenerate

    def test_exact_linear(self):
        fit = fit_rate([(m, m) for m in (1e-1, 1e-2, 1e-3, 1e-4)])
        assert np.isclose(fit.slope, 1.0, atol=1e-12)

    def test_noise_floor_flagged(self):
        fit = fit_rate([(1e-1, 1e-14), (1e-2, 1e-14), (1e-4, 1e-15)])
        assert fit.degenerate

    def test_insufficient_samples(self):
        with pytest.raises(ValueError):
            fit_rate([(1e-1, 1.0), (1e-2, 0.3)])

    def test_insufficient_span(self):
        with pytest.raises(ValueError):
            fit_rate([(1e-1, 1.0), (5e-2, 0.7), (2e-2, 0.5)])


class TestGronwall:
    def test_synthetic_exponential(self):
        times = np.linspace(0, 2, 50)
        K = 0.7
        energies = np.exp(K * times)
        assert np.isclose(gronwall_slope(times, energies), K, rtol=1e-6)

    def test_needs_positive_initial(self):
        with pytest.raises(ValueError):
            gronwall_slope([0.0, 1.0], [0.0, 1.0])
