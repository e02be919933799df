import numpy as np
import pytest

from stripflow import Bathymetry, PhysParams, StripGrid, build_diffeo
from stripflow import spectral
from stripflow import mollified
from stripflow.config import ExperimentConfig
from stripflow.diagnostics import good_unknown_energy
from stripflow.dynamics import PressureGuess, StripState, step_rk4, vorticity
from stripflow.geometry import DiffeoFields
from stripflow.errors import DegenerateDiffeo, InterpolationOutOfRange, NoConvergence
from stripflow.experiments import run_single
from stripflow.mollified import (
    MollParams,
    SlagState,
    cfl_dt_slag,
    from_strip_state,
    moll_energy,
    run_moll,
    slag_rhs,
    slag_to_sigma,
    step_rk4_slag,
    terminal_distance,
)

from conftest import count_solve_iterations, random_band_limited


def wave_state(grid, amp=0.05):
    st = StripState.rest(grid)
    st.eta0 = amp * np.cos(grid.x)
    return st


class TestMollParams:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MollParams(iota1=-0.1)


class TestSlagSetup:
    def test_adopts_production_coordinates(self, grid):
        params = PhysParams(eps=0.25, beta=0.25, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.2)
        st = wave_state(grid)
        slag = from_strip_state(st, bath, params)
        # the transported map of r + H is the production map
        diffeo = build_diffeo(bath, st.eta0, params)
        metric = DiffeoFields.transported(grid, slag.H)
        assert np.allclose(grid.r[:, None] + slag.H, diffeo.z, atol=1e-14)
        assert np.allclose(metric.z, diffeo.z, atol=1e-14)
        for name in ("h_tot", "grad_sum", "bottom_gradient"):
            assert np.allclose(getattr(metric, name), getattr(diffeo, name), rtol=0.0, atol=1e-12), name
        assert np.allclose(metric.ops.kappa, diffeo.ops.kappa, rtol=0.0, atol=1e-12)
        assert np.allclose(metric.ops.gamma, diffeo.ops.gamma, rtol=0.0, atol=1e-12)

    def test_metric_monotonicity_guard(self, grid):
        H = -1.5 * np.broadcast_to(grid.r[:, None], (grid.n_r + 1,) + grid.xshape)
        with pytest.raises(DegenerateDiffeo):
            DiffeoFields.transported(grid, H.copy())

    def test_semi_lagrangian_identity(self, grid, rng):
        # with d_t H from its transport equation, the coordinate-time
        # derivative plus advection collapses to plain transport
        params = PhysParams(eps=0.25, beta=0.25, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.2)
        st = wave_state(grid)
        slag = from_strip_state(st, bath, params)
        slag.V[0] = random_band_limited(grid, rng, amp=0.2)
        slag.w = random_band_limited(grid, rng, amp=0.2)
        metric = DiffeoFields.transported(grid, slag.H)
        ops = metric.ops
        f = random_band_limited(grid, rng)
        dtH = -params.eps * (slag.V[0] * spectral.dx(grid, slag.H)[0]) + params.eps * slag.w
        # (d_t^phi + eps U . grad_phi) f - (d_t + eps V . grad) f, with the
        # d_t parts cancelling, leaves the vertical-coefficient combination
        lhs = (
            -dtH / metric.h_tot * spectral.dr(grid, f)
            + params.eps * slag.V[0] * ops.grad_phi(f)[0]
            + params.eps * slag.w * ops.dr_phi(f)
        )
        rhs = params.eps * slag.V[0] * spectral.dx(grid, f)[0]
        assert np.abs(lhs - rhs).max() < 1e-12


class TestSlagDynamics:
    def test_rest_is_fixpoint_for_any_cutoffs(self, grid):
        params = PhysParams(eps=0.25, beta=0.4, mu=0.1, delta=0.1)
        bath = Bathymetry.cosine(grid, 0.2)
        slag = from_strip_state(StripState.rest(grid), bath, params)
        for moll in (MollParams(), MollParams(0.2, 0.1, 0.05)):
            t, _ = slag_rhs(slag, moll, bath, params)
            assert np.abs(t.V).max() < 1e-13
            assert np.abs(t.w).max() < 1e-13
            assert np.abs(t.H).max() < 1e-13
            assert np.abs(t.eta0).max() < 1e-13

    def test_transported_map_follows_characteristics(self, grid):
        # frozen rigid translation: H is advected exactly along characteristics
        params = PhysParams(eps=0.5, beta=0.0, mu=0.1)
        bath = Bathymetry.flat(grid)
        c = 0.6
        H0 = 0.1 * np.cos(grid.x)[None, :] * (1 + grid.r)[:, None]
        V = np.full((1, grid.n_r + 1, grid.n_x), c)

        def dH(H):
            return -params.eps * spectral.dealias(grid, V[0] * spectral.dx(grid, H)[0])

        T, n = 0.5, 100
        dt = T / n
        H = H0.copy()
        for _ in range(n):
            k1, k2 = dH(H), None
            k2 = dH(H + 0.5 * dt * k1)
            k3 = dH(H + 0.5 * dt * k2)
            k4 = dH(H + dt * k3)
            H = H + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        expect = 0.1 * np.cos(grid.x - params.eps * c * T)[None, :] * (1 + grid.r)[:, None]
        assert np.abs(H - expect).max() < 1e-9

    def test_divergence_stays_at_floor(self, grid):
        # starting divergence-free, the constructed pressure keeps the
        # residual at the noise floor over a short march
        params = PhysParams(eps=0.25, beta=0.25, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.2)
        slag = from_strip_state(wave_state(grid), bath, params)
        moll = MollParams()
        dt = 2e-3
        for _ in range(10):
            slag = step_rk4_slag(slag, dt, moll, bath, params)
        metric = DiffeoFields.transported(grid, slag.H)
        div = metric.ops.div_phi(slag.V, slag.w)
        assert np.abs(div[1:-1]).max() < 1e-10

    def test_carried_guess_matches_cold_steps(self, grid):
        # the guess ramps up as the history fills: stage 4 of step 1 starts
        # from the half-step base, stage 1 of step 2 from the last-stage
        # pressure of step 1, stage 4 of step 2 and stage 1 of step 3 add the
        # defect or increment their stage saw one step earlier, and stage 4 of
        # step 3 and stage 1 of step 4 extrapolate those of the two steps
        # before; every solve stops on the same relative residual
        params = PhysParams(eps=0.25, beta=0.25, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.2)
        cold = warm = from_strip_state(wave_state(grid), bath, params)
        moll, dt, guess = MollParams(0.1, 0.1, 0.01), 2e-3, PressureGuess(grid)
        for _ in range(4):
            cold = step_rk4_slag(cold, dt, moll, bath, params)
            warm = step_rk4_slag(warm, dt, moll, bath, params, guess)
        for name in ("V", "w", "rho", "H", "eta0"):
            ref = getattr(cold, name)
            scale = max(np.abs(ref).max(), 1e-300)
            assert np.abs(getattr(warm, name) - ref).max() <= 1e-8 * scale, name

    def test_stage_increment_cuts_iterations(self, grid, monkeypatch):
        # step 3 from the carried history against step 3 from the last
        # pressure alone (each stage then starts from the previous one)
        params = PhysParams(eps=0.25, beta=0.25, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.2)
        slag = from_strip_state(wave_state(grid), bath, params)
        moll, dt, guess = MollParams(0.1, 0.1, 0.01), 2e-3, PressureGuess(grid)
        slag = step_rk4_slag(step_rk4_slag(slag, dt, moll, bath, params, guess), dt, moll, bath, params, guess)
        last = PressureGuess(grid)
        last.append(guess.history[-1])
        iterations = count_solve_iterations(monkeypatch)
        step_rk4_slag(slag, dt, moll, bath, params, last)
        step_rk4_slag(slag, dt, moll, bath, params, guess)
        assert len(iterations) == 8
        assert sum(iterations[4:]) < sum(iterations[:4])

    def test_second_order_increment_cuts_iterations(self, grid, monkeypatch):
        # step 4 from the full history (each stage extrapolates the increments
        # or defects it saw one and two steps earlier) against step 4 from the
        # last five pressures (each stage adds at most those of one step
        # earlier)
        params = PhysParams(eps=0.25, beta=0.25, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.2)
        slag = from_strip_state(wave_state(grid), bath, params)
        moll, dt, guess = MollParams(0.1, 0.1, 0.01), 2e-3, PressureGuess(grid)
        for _ in range(3):
            slag = step_rk4_slag(slag, dt, moll, bath, params, guess)
        full, first = PressureGuess(grid), PressureGuess(grid)
        for P in guess.history:
            full.append(P)
        for P in guess.history[-5:]:
            first.append(P)
        iterations = count_solve_iterations(monkeypatch)
        step_rk4_slag(slag, dt, moll, bath, params, first)
        step_rk4_slag(slag, dt, moll, bath, params, full)
        assert len(iterations) == 8
        assert sum(iterations[4:]) < sum(iterations[:4])

    def test_energy_near_conservation_small_amplitude(self, grid):
        # the dispersive surface term pairs to a total derivative: for weak
        # waves the scheme energy drifts only through nonlinearity
        params = PhysParams(eps=0.25, beta=0.0, mu=0.1)
        bath = Bathymetry.flat(grid)
        slag = from_strip_state(wave_state(grid, amp=0.01), bath, params)
        moll = MollParams(0.0, 0.0, 0.05)
        traj = run_moll(slag, moll, bath, params, T=0.5, dt=2e-3, s=4.0)
        E = np.array(traj.energies)
        assert traj.status == "Continue"
        assert np.abs(E - E[0]).max() / E[0] < 5e-2


class TestSchemeConsistency:
    def test_zero_cutoffs_match_direct_scheme(self):
        grid = StripGrid(n_x=32, n_r=16)
        params = PhysParams(eps=0.25, beta=0.25, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.2)
        st0 = wave_state(grid)
        T, dt = 0.2, 2e-3
        n = int(round(T / dt))
        st = st0.copy()
        for _ in range(n):
            st = step_rk4(st, dt, bath, params)
        traj = run_moll(from_strip_state(st0, bath, params), MollParams(), bath, params, T, dt=dt)
        assert terminal_distance(traj.final, st, bath, params) < 1e-9

    def test_iota1_upper_bound_on_broadband_data(self, grid, rng):
        # turning the first cutoff on changes the terminal state by O(iota1)
        params = PhysParams(eps=0.25, beta=0.0, mu=0.1)
        bath = Bathymetry.flat(grid)
        st0 = wave_state(grid, amp=0.03)
        st0.eta0 += 0.01 * np.cos(3 * grid.x) + 0.005 * np.sin(5 * grid.x)
        T, dt = 0.2, 2e-3
        ref = run_moll(from_strip_state(st0, bath, params), MollParams(), bath, params, T, dt=dt)
        ref_sigma = slag_to_sigma(ref.final, bath, params)
        dists = []
        for i1 in (0.5, 0.25):
            tr = run_moll(from_strip_state(st0, bath, params), MollParams(i1, 0, 0), bath, params, T, dt=dt)
            dists.append(terminal_distance(tr.final, ref_sigma, bath, params))
        assert dists[0] < 0.5 * 1.0  # O(iota1) upper bound with a generous constant
        assert dists[1] <= dists[0] + 1e-12  # shrinks with the cutoff


class TestCoordinateChange:
    def test_flat_rest_identity(self, grid):
        params = PhysParams(eps=0.25, beta=0.0, mu=0.1)
        bath = Bathymetry.flat(grid)
        slag = from_strip_state(StripState.rest(grid), bath, params)
        out = slag_to_sigma(slag, bath, params)
        assert np.abs(out.V).max() < 1e-14
        assert np.abs(out.w).max() < 1e-14

    def test_slaved_profile_is_identity(self, grid, rng):
        # H still on the production profile: resampling reproduces the fields
        params = PhysParams(eps=0.25, beta=0.25, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.2)
        st = wave_state(grid)
        st.V[0] = random_band_limited(grid, rng, amp=0.2)
        st.w = random_band_limited(grid, rng, amp=0.2)
        slag = from_strip_state(st, bath, params)
        out = slag_to_sigma(slag, bath, params)
        assert np.abs(out.V[0] - st.V[0]).max() < 1e-11
        assert np.abs(out.w - st.w).max() < 1e-11

    def test_round_trip_refines_at_interpolation_order(self, rng):
        params = PhysParams(eps=0.3, beta=0.0, mu=0.1)
        errs = []
        for n_r in (16, 32):
            grid = StripGrid(n_x=32, n_r=n_r)
            bath = Bathymetry.flat(grid)
            st = wave_state(grid, amp=0.08)
            slag = from_strip_state(st, bath, params)
            # perturb the map away from the slaved profile but keep the ends
            bump = 0.05 * np.sin(np.pi * (grid.r[:, None] + 1)) ** 2
            slag.H = slag.H + bump * np.cos(grid.x)[None, :]
            slag.V[0] = np.cos(grid.x)[None, :] * np.sin(1.5 * (grid.r[:, None] + 1))
            sig = slag_to_sigma(slag, bath, params)
            # resample back onto the slag heights
            from scipy.interpolate import PchipInterpolator

            diffeo = build_diffeo(bath, st.eta0, params)
            z_sigma = diffeo.z
            z_slag = grid.r[:, None] + slag.H
            back = np.empty_like(sig.V[0])
            for j in range(grid.n_x):
                back[:, j] = PchipInterpolator(z_sigma[:, j], sig.V[0][:, j])(
                    np.clip(z_slag[:, j], z_sigma[0, j], z_sigma[-1, j])
                )
            errs.append(np.abs(back - slag.V[0]).max())
        assert np.log2(errs[0] / errs[1]) > 2.5

    def test_monotone_cubic_matches_pchip(self, rng):
        # the resampler against scipy's PchipInterpolator column by column:
        # random strictly increasing heights; random-walk samples, whose
        # slope changes sign, with flat runs inside and at either end;
        # targets on a node and at both clamped end levels
        from scipy.interpolate import PchipInterpolator

        n_levels, n_cols = 17, 200
        z = np.cumsum(rng.uniform(0.01, 1.0, (n_levels, n_cols)), axis=0)
        F = np.cumsum(rng.standard_normal((n_levels, 2, n_cols)), axis=0)
        F[4:7] = F[4]
        F[:2, 0] = F[0, 0]
        F[-2:, 1] = F[-1, 1]
        zt = np.sort(rng.uniform(z[0], z[-1], (n_levels + 4, n_cols)), axis=0)
        zt[0], zt[5], zt[-1] = z[0], z[8], z[-1]
        got = mollified.monotone_cubic(z, F, zt)
        worst = 0.0
        for j in range(n_cols):
            for f in range(2):
                ref = PchipInterpolator(z[:, j], F[:, f, j])(zt[:, j])
                worst = max(worst, np.abs(got[:, f, j] - ref).max() / np.abs(ref).max())
        assert worst <= 1e-13

    def test_out_of_range_detected(self, grid):
        params = PhysParams(eps=0.25, beta=0.0, mu=0.1)
        bath = Bathymetry.flat(grid)
        slag = from_strip_state(wave_state(grid), bath, params)
        slag.H = slag.H - 0.2  # shifted column no longer covers the target
        with pytest.raises(InterpolationOutOfRange):
            slag_to_sigma(slag, bath, params)

    def test_first_bad_column_decides(self, grid):
        # column 5 repeats a level; column 2, before it, is shifted down
        params = PhysParams(eps=0.25, beta=0.0, mu=0.1)
        bath = Bathymetry.flat(grid)
        slag = from_strip_state(wave_state(grid), bath, params)
        slag.H[3, 5] = slag.H[2, 5] + grid.r[2] - grid.r[3]
        with pytest.raises(DegenerateDiffeo):
            slag_to_sigma(slag, bath, params)
        slag.H[:, 2] -= 0.2
        with pytest.raises(InterpolationOutOfRange):
            slag_to_sigma(slag, bath, params)


class TestSharedDiagnostics:
    def test_energy_and_vorticity_match_production_map(self, grid, rng):
        # on the adopted production coordinates, the good-unknown energy and
        # the vorticity through the transported map equal the diffeo ones
        params = PhysParams(eps=0.25, beta=0.25, mu=0.1, delta=0.1)
        bath = Bathymetry.cosine(grid, 0.2)
        st = wave_state(grid)
        st.V[0] = random_band_limited(grid, rng, amp=0.2)
        st.w = random_band_limited(grid, rng, amp=0.2)
        st.rho = random_band_limited(grid, rng, amp=0.2)
        slag = from_strip_state(st, bath, params)
        diffeo = build_diffeo(bath, st.eta0, params)
        metric = DiffeoFields.transported(grid, slag.H)
        E_ref = good_unknown_energy(st, diffeo, params, 4.0)
        assert abs(good_unknown_energy(slag, metric, params, 4.0) - E_ref) <= 1e-12 * E_ref
        om_ref = vorticity(st, diffeo, params)
        om = vorticity(slag, metric, params)
        assert np.abs(om - om_ref).max() <= 1e-12 * np.abs(om_ref).max()


class TestRunMollHalts:
    def _run(self, grid):
        params = PhysParams(eps=0.25, beta=0.25, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.2)
        slag = from_strip_state(wave_state(grid), bath, params)
        return run_moll(slag, MollParams(), bath, params, 3e-3, dt=1e-3, cadence=1)

    def test_step_error_becomes_status(self, grid, monkeypatch):
        step = mollified.step_rk4_slag

        def failing_step(state, *args):
            if state.t > 0.5e-3:
                raise NoConvergence("synthetic")
            return step(state, *args)

        monkeypatch.setattr(mollified, "step_rk4_slag", failing_step)
        traj = self._run(grid)
        assert traj.status == "NoConvergence"
        assert traj.final.t == pytest.approx(1e-3)
        assert len(traj.energies) == 2

    def test_energy_error_becomes_status(self, grid, monkeypatch):
        energy = mollified.moll_energy

        def failing_energy(state, *args):
            if state.t > 1.5e-3:
                raise NoConvergence("synthetic")
            return energy(state, *args)

        monkeypatch.setattr(mollified, "moll_energy", failing_energy)
        traj = self._run(grid)
        assert traj.status == "NoConvergence"
        assert traj.times == pytest.approx([0.0, 1e-3])

    def test_step_beyond_stability_bound_halts(self, grid):
        # a step beyond the 0.5-factor bound halts before it is taken
        params = PhysParams(eps=0.25, beta=0.25, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.2)
        slag = from_strip_state(wave_state(grid), bath, params)
        moll = MollParams(0.0, 0.0, 0.01)
        dt = 1.01 * 0.5 * cfl_dt_slag(slag, moll, bath, params)
        traj = run_moll(slag, moll, bath, params, 10 * dt, dt=dt, cadence=1)
        assert traj.status == "CFLViolation"
        assert traj.halted_at == 0.0 and traj.times == [0.0]

    def test_initial_energy_error_becomes_status(self, grid):
        # the t = 0 scheme energy builds the metric of the transported map,
        # whose layer thickness 1 + d_r H is negative here
        params = PhysParams(eps=0.25, beta=0.25, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.2)
        slag = from_strip_state(wave_state(grid), bath, params)
        slag.H = -1.5 * np.broadcast_to(grid.r[:, None], slag.H.shape)
        traj = run_moll(slag, MollParams(), bath, params, 3e-3, dt=1e-3, cadence=1)
        assert traj.status == "DegenerateDiffeo"
        assert traj.times == [] and traj.energies == []
        assert traj.final.t == 0.0

    def test_energy_growth_halts_with_norm_blowup(self, grid, monkeypatch):
        # the scheme energy is a squared norm: the run halts once it exceeds
        # norm_factor**2 (default 10**2) times its t = 0 value
        energies = iter([2.0, 150.0, 250.0, 250.0])
        monkeypatch.setattr(mollified, "moll_energy", lambda *args: next(energies))
        traj = self._run(grid)
        assert traj.status == "NormBlowup"
        assert traj.energies == [2.0, 150.0, 250.0]
        assert traj.halted_at == pytest.approx(2e-3)

    def test_run_reads_norm_factor(self, tmp_path, monkeypatch):
        # a mollified run takes limits.norm_factor from its configuration
        energies = iter([1.0, 3.0, 5.0, 5.0, 5.0])
        monkeypatch.setattr(mollified, "moll_energy", lambda *args: next(energies))
        cfg = ExperimentConfig.from_text(
            "scheme.kind = mollified\ngrid.n_x = 32\ngrid.n_r = 8\ninitial.eta0_amplitude = 0.05\n"
            "run.T = 0.004\nrun.dt = 0.001\nrun.cadence = 1\nlimits.norm_factor = 2\n"
        )
        code, summary = run_single(cfg, tmp_path)
        assert code == 3 and summary["status"] == "NormBlowup"
        assert summary["record"].energies == [1.0, 3.0, 5.0]
