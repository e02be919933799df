import numpy as np
import pytest

from stripflow import Bathymetry, PhysParams, StripGrid, build_diffeo
from stripflow import pressure, runner, spectral
from stripflow.dynamics import (
    PressureGuess,
    StripState,
    cfl_dt,
    divergence_report,
    euler_rhs,
    init_from_streamfunction,
    kinematic_deta0,
    project_divergence_free,
    rk4,
    step_rk4,
    vorticity,
    warm_started,
)
from stripflow.errors import InvalidStreamfunction, TooManySteps
from stripflow.geometry import DiffeoFields, total_density
from stripflow.mollified import MollParams, from_strip_state, slag_rhs

from conftest import random_band_limited


def shape(grid):
    return (grid.n_r + 1,) + grid.xshape


def vorticity_source(state, P, diffeo, params):
    """Source of the scaled-vorticity transport equation stemming from the
    density variations (d = 1): the baroclinic torque of the total pressure
    (perturbation plus the moving hydrostatic column), divided by delta,

        F = eps nu^2 [dr_phi rho (grad_phi P + g rho_bar grad eta0)
                      - grad_phi rho dr_phi P] + g rho_bar nu^2 grad_phi rho.
    """
    ops = diffeo.ops
    nu2 = (1.0 / (params.rho_bar + params.eps * params.delta * state.rho)) ** 2
    eps, g, rb = params.eps, params.g, params.rho_bar
    grad_rho, dr_rho = ops.grad_phi(state.rho)[0], ops.dr_phi(state.rho)
    grad_eta0 = spectral.dx(diffeo.grid, state.eta0)[0]
    torque = dr_rho * (ops.grad_phi(P)[0] + g * rb * grad_eta0) - grad_rho * ops.dr_phi(P)
    return nu2 * (eps * torque + g * rb * grad_rho)


class TestRestState:
    def test_tendencies_vanish_over_topography(self, grid):
        params = PhysParams(eps=0.4, beta=0.8, mu=0.05, delta=0.3)
        bath = Bathymetry.cosine(grid, 0.3)
        t, P_hat = euler_rhs(StripState.rest(grid), bath, params)
        assert np.abs(t.V).max() == 0.0
        assert np.abs(t.w).max() == 0.0
        assert np.abs(t.rho).max() == 0.0
        assert np.abs(t.eta0).max() == 0.0
        assert np.abs(P_hat).max() == 0.0

    def test_short_march_is_exact(self, grid):
        params = PhysParams(eps=0.3, beta=0.6, mu=0.05)
        bath = Bathymetry.gaussian_ridge(grid, 0.25)
        state = StripState.rest(grid)
        for _ in range(10):
            state = step_rk4(state, 1e-3, bath, params)
        assert np.abs(state.V).max() < 1e-14
        assert np.abs(state.eta0).max() < 1e-14

    @pytest.mark.parametrize("T", [1e300, float("nan")])
    def test_march_beyond_step_budget_halts_before_stepping(self, grid, T):
        # run.T = 1e300 (or params.g = 1e300, through the CFL step) marched
        # forever; a NaN step count raised ValueError from int()
        def step(state, dt):
            raise AssertionError("stepped")

        with pytest.raises(TooManySteps):
            runner.march(StripState.rest(grid), T, 1e-3, 10, step, lambda st, rec: (st, "Continue"), lambda st: 1.0)


class TestLinearizedDynamics:
    """epsilon = 0, flat bottom: the tendencies are linear; the discrete
    eigen-decomposition is the oracle for the wave frequency."""

    def build_operator(self, grid, params, bath, k=1.0):
        nr1 = grid.n_r + 1
        dim = 2 * nr1 + 1

        def pack(u):
            st = StripState.rest(grid)
            st.V[0] = u[:nr1, None] * np.cos(k * grid.x)[None, :]
            st.w = u[nr1 : 2 * nr1, None] * np.sin(k * grid.x)[None, :]
            st.eta0 = u[-1] * np.sin(k * grid.x)
            return st

        cosx, sinx = np.cos(k * grid.x), np.sin(k * grid.x)

        def unpack(t):
            vc = 2 * np.mean(t.V[0] * cosx[None, :], axis=1)
            ws = 2 * np.mean(t.w * sinx[None, :], axis=1)
            return np.concatenate([vc, ws, [2 * np.mean(t.eta0 * sinx)]])

        A = np.zeros((dim, dim))
        for j in range(dim):
            u = np.zeros(dim)
            u[j] = 1.0
            A[:, j] = unpack(euler_rhs(pack(u), bath, params)[0])
        return A, pack

    def test_dispersion_relation(self):
        grid = StripGrid(n_x=32, n_r=24)
        mu = 0.04
        params = PhysParams(eps=0.0, beta=0.0, mu=mu, delta=0.0)
        bath = Bathymetry.flat(grid)
        A, _ = self.build_operator(grid, params, bath)
        ev = np.linalg.eigvals(A)
        freqs = np.abs(ev.imag)
        omega = np.sqrt(params.g * np.tanh(np.sqrt(mu)) / np.sqrt(mu))
        assert np.abs(ev.real).max() < 1e-10  # energy-neutral semi-discretization
        assert abs(freqs.max() - omega) / omega < 1e-8
        # exactly one wave pair, rest of the spectrum at zero
        assert (freqs > 1e-8).sum() == 2

    def test_rk4_order_on_wave(self):
        grid = StripGrid(n_x=32, n_r=16)
        mu = 0.04
        params = PhysParams(eps=0.0, beta=0.0, mu=mu, delta=0.0)
        bath = Bathymetry.flat(grid)
        omega = np.sqrt(params.g * np.tanh(np.sqrt(mu)) / np.sqrt(mu))
        period = 2 * np.pi / omega
        st0 = StripState.rest(grid)
        st0.eta0 = 0.01 * np.sin(grid.x)
        errs = []
        for nsteps in (16, 32):
            st = st0.copy()
            dt = period / nsteps
            for _ in range(nsteps):  # beyond the CFL bound that runner.march checks
                st = rk4(st, dt, warm_started(lambda x, x0: euler_rhs(x, bath, params, x0=x0), PressureGuess(grid)))
            errs.append(np.abs(st.eta0 - st0.eta0).max())
        assert np.log2(errs[0] / errs[1]) > 3.7

    def test_time_reversibility(self):
        grid = StripGrid(n_x=32, n_r=16)
        params = PhysParams(eps=0.0, beta=0.0, mu=0.04, delta=0.0)
        bath = Bathymetry.flat(grid)
        st0 = StripState.rest(grid)
        st0.eta0 = 0.01 * np.sin(grid.x)
        dt = 0.05
        fwd = step_rk4(st0, dt, bath, params)
        back = step_rk4(fwd, -dt, bath, params)
        assert np.abs(back.eta0 - st0.eta0).max() < 10 * dt**5
        assert np.abs(back.V - st0.V).max() < 10 * dt**5


class TestTransport:
    def test_rigid_translation_of_density(self, grid):
        # frozen columnar velocity: the density advection operator translates
        # a band-limited profile at spectral accuracy
        params = PhysParams(eps=0.5, beta=0.0, mu=0.1)
        bath = Bathymetry.flat(grid)
        c = 0.8
        V = np.full((1,) + shape(grid), c)
        w = np.zeros(shape(grid))
        diffeo = build_diffeo(bath, np.zeros(grid.xshape), params)
        rho = np.cos(2 * grid.x)[None, :] * (1 + grid.r)[:, None]

        def drho(r):
            return -params.eps * diffeo.ops.advect(V, w, r[None], spectral.dr(grid, r)[None])[0]

        T, n = 0.5, 200
        dt = T / n
        r = rho.copy()
        for _ in range(n):
            k1 = drho(r)
            k2 = drho(r + 0.5 * dt * k1)
            k3 = drho(r + 0.5 * dt * k2)
            k4 = drho(r + dt * k3)
            r = r + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        expect = np.cos(2 * (grid.x - params.eps * c * T))[None, :] * (1 + grid.r)[:, None]
        assert np.abs(r - expect).max() < 1e-9

    def test_surface_rate_equals_depth_averaged_flux(self, fine_grid, rng):
        # the kinematic surface rate equals -(1/eps) div of the depth-weighted
        # vertical average of V, for divergence-free states (fluid-height
        # conservation in flux form); discrete agreement at truncation level
        grid = fine_grid
        params = PhysParams(eps=0.4, beta=0.4, mu=0.05)
        bath = Bathymetry.cosine(grid, 0.25)
        st = StripState.rest(grid)
        st.eta0 = 0.08 * np.cos(grid.x)
        st.V[0] = random_band_limited(grid, rng, amp=0.3)
        st.w = random_band_limited(grid, rng, amp=0.3)
        st = project_divergence_free(st, bath, params)
        diffeo = build_diffeo(bath, st.eta0, params)
        deta0 = kinematic_deta0(st.V[:, -1], st.w[-1], spectral.dx(grid, st.eta0), grid, params)
        flux = diffeo.h_tot * np.sum(grid.r_weights[:, None] * st.V[0], axis=0)
        rhs = -spectral.dx(grid, flux)[0]
        assert np.abs(deta0 - rhs).max() < 5e-4
        assert abs(np.mean(deta0)) < 1e-9  # mass-drift rate sits at the truncation floor

    def test_kinematic_at_rest_with_wave(self, grid):
        params = PhysParams(eps=0.5, beta=0.0, mu=0.1)
        st = StripState.rest(grid)
        st.eta0 = 0.1 * np.cos(grid.x)
        st.w[-1] = 0.3 * np.sin(grid.x)
        expect = st.w[-1] - params.eps * st.V[0, -1] * spectral.dx(grid, st.eta0)[0]
        deta0 = kinematic_deta0(st.V[:, -1], st.w[-1], spectral.dx(grid, st.eta0), grid, params)
        assert np.allclose(deta0, expect, atol=1e-12)


def per_field_euler(state, bath, params):
    """Direct-scheme tendencies field by field: each transported field gets
    its own d_x and its own dealias, and each surface product its own."""
    grid, eps, mu, g, rb = bath.grid, params.eps, params.mu, params.g, params.rho_bar
    diffeo = build_diffeo(bath, state.eta0, params)
    ops = diffeo.ops
    nu = 1.0 / total_density(state.rho, params)
    grad_eta0 = spectral.dx(grid, state.eta0)
    deta0 = state.w[-1].copy()
    for i in range(grid.d):
        deta0 -= eps * spectral.dealias(grid, state.V[i, -1] * grad_eta0[i])
    rp1 = grid.r_column(grid.r + 1.0)
    tcorr = eps * rp1 * deta0 / diffeo.h_tot

    def tendency(f, force=0.0):
        df = spectral.dr(grid, f)
        gx = spectral.dx(grid, f) - ops.kappa * df
        adv = state.w * (ops.gamma * df) + sum(state.V[i] * gx[i] for i in range(grid.d))
        return spectral.dealias(grid, -eps * adv + force + tcorr * df)

    B_V = np.stack([tendency(state.V[i], -g * rb * nu * grad_eta0[i]) for i in range(grid.d)])
    B_w = tendency(state.w, -(g * params.delta / mu) * nu * state.rho)
    drho = tendency(state.rho)
    grad_dH = eps * rp1[None] * spectral.dx(grid, deta0)[:, None]
    metric_term = per_field_metric_term(grid, ops, diffeo.h_tot, eps * deta0, grad_dH, state)
    problem = pressure.closure_problem(diffeo, params, nu, B_V, B_w, metric_term)
    dV, dw, _ = pressure.solve_closure(problem, B_V, B_w)
    return {"V": dV, "w": dw, "rho": drho, "eta0": deta0}


def per_field_metric_term(grid, ops, h, h_dot, grad_dH, state):
    kappa_dot = (grad_dH - ops.kappa * h_dot) / h
    out = -h_dot / h**2 * spectral.dr(grid, state.w)
    for i in range(grid.d):
        out -= kappa_dot[i] * spectral.dr(grid, state.V[i])
    return out


def per_field_slag(state, moll, bath, params):
    """Mollified-scheme tendencies field by field: -eps J1(V2 . grad J1 f)
    with each product of rho and H dealiased on its own."""
    grid, eps, mu, g, rb = bath.grid, params.eps, params.mu, params.g, params.rho_bar
    metric = DiffeoFields.transported(grid, state.H)
    ops = metric.ops
    nu = 1.0 / total_density(state.rho, params)

    def J(f, iota):
        return spectral.mollify(grid, f, iota) if iota else f

    V2 = np.stack([J(state.V[i], moll.iota2) for i in range(grid.d)])
    grad_eta0 = spectral.dx(grid, state.eta0)

    def moll_advect(f):
        gx = spectral.dx(grid, J(f, moll.iota1))
        return J(sum(spectral.dealias(grid, V2[i] * gx[i]) for i in range(grid.d)), moll.iota1)

    def momentum(f, force):
        gx = spectral.dx(grid, J(f, moll.iota1))
        return spectral.dealias(grid, -eps * J(np.sum(V2 * gx, axis=0), moll.iota1) + force)

    ext = spectral.harmonic_extension(grid, spectral.lambda_pow(grid, state.eta0, 1.0))
    grad_ext, dr_ext = ops.gradients(ext)
    B_V = np.stack([
        momentum(state.V[i], -g * rb * nu * J(grad_eta0[i], moll.iota2))
        + moll.iota3 * nu * J(grad_ext[i], moll.iota2)
        for i in range(grid.d)
    ])
    B_w = momentum(state.w, -(g * params.delta / mu) * nu * state.rho) + moll.iota3 * nu * J(dr_ext, moll.iota2) / mu
    drho = -eps * moll_advect(state.rho)
    dH = -eps * moll_advect(state.H) + eps * J(state.w, moll.iota2)
    deta0 = J(state.w[-1], moll.iota2).copy()
    for i in range(grid.d):
        deta0 -= eps * spectral.dealias(grid, J(state.V[i, -1], moll.iota2) * grad_eta0[i])
    metric_term = per_field_metric_term(
        grid, ops, metric.h_tot, spectral.dr(grid, dH), spectral.dx(grid, dH), state
    )
    problem = pressure.closure_problem(metric, params, nu, B_V, B_w, metric_term)
    dV, dw, _ = pressure.solve_closure(problem, B_V, B_w)
    return {"V": dV, "w": dw, "rho": drho, "eta0": deta0, "H": dH}


@pytest.mark.parametrize("n_x,n_r,d", [(32, 12, 1), (16, 8, 2)], ids=["d1", "d2"])
def test_stacked_transport_matches_per_field_reference(n_x, n_r, d, rng):
    # both schemes advect their fields as one stack and dealias it once; the
    # rule is linear, so this equals the field-by-field, product-by-product
    # evaluation to round-off, with every cutoff active
    grid = StripGrid(n_x=n_x, n_r=n_r, d=d)
    params = PhysParams(eps=0.3, beta=0.4, mu=0.05, delta=0.04)
    bath = Bathymetry.cosine(grid, 0.2)
    strip = (grid.n_r + 1,) + grid.xshape
    st = StripState(
        V=0.1 * rng.standard_normal((d,) + strip), w=0.1 * rng.standard_normal(strip),
        rho=0.1 * rng.standard_normal(strip), eta0=0.05 * rng.standard_normal(grid.xshape),
    )
    slag = from_strip_state(st, bath, params)
    slag.H = slag.H + 1e-3 * rng.standard_normal(strip)
    moll = MollParams(0.05, 0.08, 0.1)
    cases = [
        (euler_rhs(st, bath, params)[0], per_field_euler(st, bath, params)),
        (slag_rhs(slag, moll, bath, params)[0], per_field_slag(slag, moll, bath, params)),
    ]
    for tend, expect in cases:
        for name, ref in expect.items():
            err = np.abs(getattr(tend, name) - ref).max()
            assert err <= 1e-12 * np.abs(ref).max(), (name, err)


class TestProjection:
    def test_divergence_free_state_unchanged(self, grid):
        params = PhysParams(eps=0.3, beta=0.0, mu=0.1)
        bath = Bathymetry.flat(grid)
        st = StripState.rest(grid)
        st.V[0] = 0.5  # uniform columnar flow, exactly divergence-free
        out = project_divergence_free(st, bath, params)
        assert np.abs(out.V - st.V).max() < 1e-11
        assert np.abs(out.w - st.w).max() < 1e-11

    def test_recovers_field_after_gradient_injection(self, grid, rng):
        # flat metric: inject the mu-weighted gradient family and project back
        params = PhysParams(eps=0.0, beta=0.0, mu=0.1)
        bath = Bathymetry.flat(grid)
        st = StripState.rest(grid)
        st.V[0] = 0.4  # divergence-free base
        chi = np.sin(grid.x)[None, :] * (grid.r**2 - grid.r**4)[:, None]  # chi(r=0)=0
        nu = 1.0 / params.rho_bar
        polluted = st.copy()
        polluted.V[0] = st.V[0] + nu * spectral.dx(grid, chi)[0]
        polluted.w = st.w + nu * spectral.dr(grid, chi) / params.mu
        out = project_divergence_free(polluted, bath, params)
        assert np.abs(out.V[0] - st.V[0]).max() < 1e-8
        assert np.abs(out.w - st.w).max() < 1e-8

    def test_curved_metric_residual_drift_scale(self, fine_grid, rng):
        # drift-removal regime: a consistent state polluted at the size the
        # time integrator actually produces comes back below 1e-10 relative
        grid = fine_grid
        params = PhysParams(eps=0.4, beta=0.5, mu=0.05, delta=0.0)
        bath = Bathymetry.cosine(grid, 0.3)
        st = StripState.rest(grid)
        st.eta0 = 0.1 * np.cos(grid.x)
        st.V[0] = 0.5  # columnar base
        st.w = (grid.r[:, None] + 1.0) * 0.0
        st = project_divergence_free(st, bath, params)
        polluted = st.copy()
        polluted.V[0] = st.V[0] + 1e-5 * random_band_limited(grid, rng)
        polluted.w = st.w + 1e-5 * random_band_limited(grid, rng)
        out = project_divergence_free(polluted, bath, params)
        rep = divergence_report(out, bath, params)
        assert rep["div_rel"] < 1e-10
        assert rep["bottom_linf"] < 1e-10

    def test_unit_injection_floor_refines_at_stencil_order(self):
        # O(1) random divergence: the interior rows are zeroed exactly, the two
        # boundary collocation slabs retain the elliptic truncation, which
        # shrinks at the vertical stencil order
        params = PhysParams(eps=0.4, beta=0.5, mu=0.05, delta=0.0)
        res = []
        for n_r in (16, 32):
            grid = StripGrid(n_x=64, n_r=n_r)
            bath = Bathymetry.cosine(grid, 0.3)
            rloc = np.random.default_rng(11)
            st = StripState.rest(grid)
            st.eta0 = 0.1 * np.cos(grid.x)
            st.V[0] = random_band_limited(grid, rloc, amp=0.5)
            st.w = random_band_limited(grid, rloc, amp=0.5)
            out = project_divergence_free(st, bath, params)
            rep = divergence_report(out, bath, params)
            assert rep["bottom_linf"] < 1e-10
            div = build_diffeo(bath, out.eta0, params).ops.div_phi(out.V, out.w)
            assert np.abs(div[1:-1]).max() < 1e-9  # interior rows are solver-exact
            res.append(rep["div_rel"])
        assert np.log2(res[0] / res[1]) > 3.0


class TestVorticity:
    def test_columnar_is_irrotational(self, grid):
        params = PhysParams(eps=0.3, beta=0.0, mu=0.04)
        bath = Bathymetry.flat(grid)
        st = StripState.rest(grid)
        st.V[0] = 0.7
        diffeo = build_diffeo(bath, st.eta0, params)
        om = vorticity(st, diffeo, params)
        assert np.abs(om).max() < 1e-12
        assert len(om) == 1  # omega_x only: no omega_r for d = 1

    def test_unit_vorticity_regime(self, grid):
        # V = sqrt(mu) r v0(x), w = 0, flat: omega = v0
        params = PhysParams(eps=0.3, beta=0.0, mu=0.04)
        bath = Bathymetry.flat(grid)
        st = StripState.rest(grid)
        v0 = np.cos(grid.x)
        st.V[0] = np.sqrt(params.mu) * grid.r[:, None] * v0[None, :]
        diffeo = build_diffeo(bath, st.eta0, params)
        om = vorticity(st, diffeo, params)
        assert np.allclose(om[0], v0[None, :], atol=1e-12)

    def test_against_eulerian_curl_oracle(self):
        # pull back a closed-form flow and compare with the analytic curl
        errs = []
        for n_r in (16, 32):
            grid = StripGrid(n_x=64, n_r=n_r)
            params = PhysParams(eps=0.4, beta=0.5, mu=0.09)
            bath = Bathymetry.cosine(grid, 0.25)
            e0 = 0.1 * np.cos(grid.x)
            diffeo = build_diffeo(bath, e0, params)
            z = diffeo.z
            x = np.broadcast_to(grid.x, z.shape)
            st = StripState.rest(grid)
            st.eta0 = e0
            st.V[0] = np.sin(x) * np.cos(z)
            st.w = 0.5 * np.cos(2 * x) * np.sin(z)
            om = vorticity(st, diffeo, params)
            sq = np.sqrt(params.mu)
            expect = -np.sin(x) * np.sin(z) / sq + sq * np.sin(2 * x) * np.sin(z)
            errs.append(np.abs(om[0] - expect).max())
        assert np.log2(errs[0] / errs[1]) > 3.5

    def test_source_vanishes_without_density(self, grid, rng):
        params = PhysParams(eps=0.4, beta=0.5, mu=0.09, delta=0.3)
        bath = Bathymetry.cosine(grid, 0.25)
        st = StripState.rest(grid)
        st.eta0 = 0.1 * np.cos(grid.x)
        st.V[0] = random_band_limited(grid, rng)
        diffeo = build_diffeo(bath, st.eta0, params)
        P = random_band_limited(grid, rng)
        F = vorticity_source(st, P, diffeo, params)
        assert np.abs(F).max() == 0.0

    def test_source_vanishes_for_layered_density_flat(self, grid):
        # rho = rho(r) only, flat metric, d=1: every term carries an
        # x-derivative of an x-independent function
        params = PhysParams(eps=0.0, beta=0.0, mu=0.09, delta=0.3)
        bath = Bathymetry.flat(grid)
        st = StripState.rest(grid)
        st.rho = np.broadcast_to(np.cos(grid.r)[:, None], shape(grid)).copy()
        diffeo = build_diffeo(bath, st.eta0, params)
        P = np.broadcast_to((grid.r**2)[:, None], shape(grid)).copy()
        F = vorticity_source(st, P, diffeo, params)
        assert np.abs(F).max() < 1e-12

    def test_source_against_symbolic_oracle(self):
        import sympy as sp

        grid = StripGrid(n_x=64, n_r=32)
        params = PhysParams(eps=0.3, beta=0.4, mu=0.09, delta=0.2, g=1.1, rho_bar=1.2)
        bath = Bathymetry(grid, 0.2 * np.cos(grid.x))
        e0 = 0.08 * np.cos(grid.x)

        x, r = sp.symbols("x r")
        b_s = sp.Float(0.2) * sp.cos(x)
        e0_s = sp.Float(0.08) * sp.cos(x)
        sigma = r * (1 - params.beta * b_s) + params.eps * (1 + r) * e0_s
        h = sp.diff(sigma, r)
        kap = sp.diff(sigma, x) / h
        rho_s = sp.Rational(3, 10) * sp.cos(x) * sp.cos(sp.pi * r / 2)
        P_s = sp.sin(x) * sp.sin(sp.pi * r / 2)
        nu_s = 1 / (params.rho_bar + params.eps * params.delta * rho_s)
        gp = lambda f: sp.diff(f, x) - kap * sp.diff(f, r)
        dp = lambda f: sp.diff(f, r) / h
        F_s = nu_s**2 * (
            params.eps * (dp(rho_s) * (gp(P_s) + params.g * params.rho_bar * sp.diff(e0_s, x)) - gp(rho_s) * dp(P_s))
            + params.g * params.rho_bar * gp(rho_s)
        )
        fF = sp.lambdify((x, r), F_s, "numpy")
        frho = sp.lambdify((x, r), rho_s, "numpy")
        fP = sp.lambdify((x, r), P_s, "numpy")

        X = np.broadcast_to(grid.x, shape(grid))
        R = np.broadcast_to(grid.r[:, None], shape(grid))
        st = StripState.rest(grid)
        st.eta0 = e0
        st.rho = frho(X, R)
        diffeo = build_diffeo(bath, e0, params)
        F = vorticity_source(st, fP(X, R), diffeo, params)
        assert np.abs(F - fF(X, R)).max() < 5e-5  # discretization of the oracle's derivatives

    def test_transport_consistency(self, fine_grid):
        # d/dt of the recomputed vorticity along the semi-discrete flow matches
        # advection plus the density source
        grid = fine_grid
        params = PhysParams(eps=0.3, beta=0.3, mu=0.09, delta=0.05)
        bath = Bathymetry.cosine(grid, 0.2)
        st = StripState.rest(grid)
        st.eta0 = 0.05 * np.cos(grid.x)
        X = np.broadcast_to(grid.x, shape(grid))
        R = np.broadcast_to(grid.r[:, None], shape(grid))
        st.V[0] = 0.1 * np.sin(X) * (1 + R) * np.sqrt(params.mu)
        st.rho = 0.3 * np.cos(X) * np.cos(np.pi * R / 2)
        st = project_divergence_free(st, bath, params)

        dt = 1e-4
        plus = step_rk4(st, dt, bath, params)
        minus = step_rk4(st, -dt, bath, params)
        dif_p = build_diffeo(bath, plus.eta0, params)
        dif_m = build_diffeo(bath, minus.eta0, params)
        dom_dt = (vorticity(plus, dif_p, params)[0] - vorticity(minus, dif_m, params)[0]) / (2 * dt)

        tend, P_hat = euler_rhs(st, bath, params)
        diffeo = build_diffeo(bath, st.eta0, params)
        om = vorticity(st, diffeo, params)  # a stack of one field
        F = vorticity_source(st, spectral.irfft(grid, P_hat), diffeo, params)
        tcorr = params.eps * (1 + grid.r)[:, None] * tend.eta0[None, :] / diffeo.h_tot
        rhs = (
            -params.eps * spectral.dealias(grid, diffeo.ops.advect(st.V, st.w, om, spectral.dr(grid, om)))[0]
            + spectral.dealias(grid, tcorr * spectral.dr(grid, om[0]))
            + (params.delta / np.sqrt(params.mu)) * F
        )
        scale = np.abs(dom_dt).max()
        assert np.abs(dom_dt - rhs).max() < 2e-3 * max(scale, 1.0)


class TestStreamfunctionInit:
    def test_zero_gives_rest(self, grid):
        params = PhysParams(eps=0.3, beta=0.0, mu=0.1)
        bath = Bathymetry.flat(grid)
        zero = lambda x, z: np.zeros_like(np.asarray(x) + np.asarray(z))
        st = init_from_streamfunction(zero, zero, zero, np.zeros(shape(grid)), np.zeros(grid.xshape), bath, params)
        assert np.abs(st.V).max() < 1e-12
        assert np.abs(st.w).max() < 1e-12

    def test_unit_columnar_flow(self, grid):
        params = PhysParams(eps=0.3, beta=0.0, mu=0.1)
        bath = Bathymetry.flat(grid)
        psi = lambda x, z: z + 1.0 + 0.0 * x
        dpx = lambda x, z: np.zeros_like(np.asarray(x) + np.asarray(z))
        dpz = lambda x, z: np.ones_like(np.asarray(x) + np.asarray(z))
        st = init_from_streamfunction(psi, dpx, dpz, np.zeros(shape(grid)), np.zeros(grid.xshape), bath, params)
        assert np.abs(st.V[0] - 1.0).max() < 1e-10
        assert np.abs(st.w).max() < 1e-10
        rep = divergence_report(st, bath, params)
        assert rep["div_l2"] < 1e-12

    def test_shear_family_invariants(self, fine_grid):
        grid = fine_grid
        params = PhysParams(eps=0.3, beta=0.0, mu=0.01)
        bath = Bathymetry.flat(grid)
        sq = params.sqrt_mu
        psi = lambda x, z: sq * np.sin(x) * (z + 1.0) ** 2
        dpx = lambda x, z: sq * np.cos(x) * (z + 1.0) ** 2
        dpz = lambda x, z: 2 * sq * np.sin(x) * (z + 1.0)
        st = init_from_streamfunction(psi, dpx, dpz, np.zeros(shape(grid)), np.zeros(grid.xshape), bath, params)
        rep = divergence_report(st, bath, params)
        assert rep["div_rel"] < 1e-9
        drV = spectral.dr(grid, st.V[0])
        ratio = spectral.l2_strip(grid, drV) / sq
        assert 0.5 < ratio < 10.0  # scaled shear is O(1)

    def test_bottom_violation_rejected(self, grid):
        params = PhysParams(eps=0.3, beta=0.5, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.3)
        psi = lambda x, z: (z + 1.0) * np.cos(x)
        dpx = lambda x, z: -(z + 1.0) * np.sin(x)
        dpz = lambda x, z: np.cos(x) + 0.0 * z
        with pytest.raises(InvalidStreamfunction):
            init_from_streamfunction(psi, dpx, dpz, np.zeros(shape(grid)), np.zeros(grid.xshape), bath, params)


class TestStepGuards:
    def test_cfl_violation(self, grid):
        # the march checks the step limit before every step, so a step
        # beyond CFL_MAX times the limit is never taken
        params = PhysParams(eps=0.3, beta=0.0, mu=0.1)
        bath = Bathymetry.flat(grid)
        st = StripState.rest(grid)
        st.eta0 = 0.01 * np.cos(grid.x)

        def step(state, dt):
            raise AssertionError("stepped beyond the limit")

        def limit(state):
            return cfl_dt(state, bath, params)

        dt = 4.0 * limit(st)
        rec = runner.march(st, 10 * dt, dt, 1, step, lambda s, rec: (s, "Continue"), limit)
        assert rec.status == "CFLViolation"
        assert rec.halted_at == 0.0 and rec.times == [0.0]
        assert rec.cfl_margin == pytest.approx(4.0 / runner.CFL_MAX)

    def test_step_makes_four_pressure_solves(self, grid, monkeypatch):
        # one solve per RK4 stage; the drift projection is left to simulate
        calls = []
        solve = pressure.solve_pressure

        def counting_solve(*args, **kwargs):
            calls.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(pressure, "solve_pressure", counting_solve)
        params = PhysParams(eps=0.3, beta=0.5, mu=1e-2)
        bath = Bathymetry.cosine(grid, 0.3)
        st = StripState.rest(grid)
        st.eta0 = 0.05 * np.cos(grid.x)
        step_rk4(st, 1e-3, bath, params)
        assert len(calls) == 4

    def test_divergence_invariant_over_run(self, fine_grid):
        # interior rows hold at solver tolerance throughout; the boundary
        # collocation rows accumulate closure truncation at O(dr^4) per time
        grid = fine_grid
        params = PhysParams(eps=0.4, beta=0.4, mu=0.05, delta=0.0)
        bath = Bathymetry.cosine(grid, 0.25)
        st = StripState.rest(grid)
        st.eta0 = 0.1 * np.cos(grid.x)
        dt = 0.2 * cfl_dt(st, bath, params)
        for _ in range(20):
            st = step_rk4(st, dt, bath, params)
            rep = divergence_report(st, bath, params)
            assert rep["div_interior_rel"] < 1e-9
            assert rep["div_rel"] < 3e-8
            assert rep["bottom_linf"] < 1e-9
