from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
import sympy as sp
from scipy.sparse.linalg import LinearOperator, gmres

from stripflow import Bathymetry, PhysParams, StripGrid, build_diffeo
from stripflow import pressure, spectral
from stripflow.dynamics import (
    PROJECT_RTOL,
    PressureGuess,
    StripState,
    assemble_pressure_problem,
    euler_rhs,
    project_divergence_free,
    shifted,
    step_rk4,
)
from stripflow.errors import DegenerateDensity, NoConvergence
from stripflow.geometry import DiffeoFields, SigmaOps, total_density
from stripflow.mollified import from_strip_state
from stripflow.pressure import (
    EllipticProblem,
    SolveInfo,
    _apply_flat_inverse,
    _flat_inverse,
    closure_problem,
    solve_closure,
    solve_pressure,
    taylor_coefficient,
)

from conftest import count_solve_iterations, random_band_limited, sigma_divergence, sigma_gradients
from test_run_properties import InsufficientHistory, taylor_time_derivative


def A_blocks(problem):
    """(horizontal block, off-diagonal column, vertical entry) of the
    divergence-form coefficient matrix A of ``problem`` (module docstring of
    ``pressure``)."""
    grid, h, grad_sum = problem.diffeo.grid, problem.diffeo.h_tot, problem.diffeo.grad_sum
    shape = (grid.n_r + 1,) + grid.xshape
    alpha = np.broadcast_to(problem.nu * h, shape)
    off = -np.sqrt(problem.mu) * problem.nu * grad_sum
    gs2 = np.sum(grad_sum**2, axis=0)
    beta = problem.nu * (1.0 + problem.mu * gs2) / h
    return alpha, off, np.broadcast_to(beta, shape)


def A_eigen_min(problem) -> float:
    """Nodewise minimum eigenvalue of A (d = 1: closed form; d = 2 via the
    block structure alpha I_2 + rank-one coupling)."""
    alpha, off, beta = A_blocks(problem)
    c2 = np.sum(off**2, axis=0)
    half_tr = 0.5 * (alpha + beta)
    disc = np.sqrt(0.25 * (alpha - beta) ** 2 + c2)
    return float((half_tr - disc).min())


def strip_shape(grid):
    return (grid.n_r + 1,) + grid.xshape


def divergence_form_source(state, diffeo, params, rates):
    """R = (sqrt(mu) h G_V ; mu G_w - mu grad_sigma . G_V) with G the
    d_t^phi-form tendencies: the rates ``rates`` before the pressure
    correction, as ``assemble_pressure_problem`` returns them, without the
    metric-motion correction."""
    grid, mu = diffeo.grid, params.mu
    dt_eta = grid.r_column(grid.r + 1.0) * rates.eta0
    tcorr = params.eps * dt_eta / diffeo.h_tot
    G_V = np.stack(
        [rates.V[i] - spectral.dealias(grid, tcorr * spectral.dr(grid, state.V[i])) for i in range(grid.d)]
    )
    G_w = rates.w - spectral.dealias(grid, tcorr * spectral.dr(grid, state.w))
    R_r = mu * G_w - mu * np.sum(diffeo.grad_sum * G_V, axis=0)
    return np.concatenate([np.sqrt(mu) * diffeo.h_tot * G_V, R_r[None]], axis=0)


def problem_from_divergence_form(diffeo, params, R):
    """Pose div_mu (A grad_mu P) = div_mu R through the composed form: the
    scalar source is (1/h) div_mu R and the bottom data is the vertical
    component of R at r = -1 (the conormal identity e.A grad_mu P = e.R)."""
    grid = diffeo.grid
    R_x, R_r = R[:-1], R[-1]
    div = spectral.dr(grid, R_r)
    for i in range(grid.d):
        div = div + np.sqrt(params.mu) * spectral.dx(grid, R_x[i])[i]
    shape = strip_shape(grid)
    return EllipticProblem(
        diffeo=diffeo, mu=params.mu, rho_bar=params.rho_bar, nu=np.full(shape, 1.0 / params.rho_bar),
        source=div / diffeo.h_tot, bottom_data=R_r[0].copy(),
    )


def relative_residual(problem, P):
    """Residual of the composed rows (interior and bottom) relative to the data."""
    interior, bottom = problem.apply(spectral.rfft(problem.diffeo.grid, P))
    num = np.sqrt(
        np.sum((interior[1:-1] - problem.source[1:-1]) ** 2) + np.sum((bottom - problem.bottom_data) ** 2)
    )
    den = np.sqrt(np.sum(problem.source[1:-1] ** 2) + np.sum(problem.bottom_data**2))
    return float(num / max(den, 1e-300))


class TestAssembly:
    def test_rest_state_coefficients(self, flat_setup):
        grid, params, bath = flat_setup
        state = StripState.rest(grid)
        diffeo = build_diffeo(bath, state.eta0, params)
        problem, rates = assemble_pressure_problem(state, diffeo, params)
        alpha, off, beta = A_blocks(problem)
        assert np.allclose(alpha, 1.0 / params.rho_bar)
        assert np.abs(off).max() == 0.0
        assert np.allclose(beta, 1.0 / params.rho_bar)
        assert np.abs(divergence_form_source(state, diffeo, params, rates)).max() == 0.0
        assert np.abs(problem.source).max() == 0.0

    def test_constant_density_column_source(self, grid):
        # rest + constant rho: only the buoyancy column survives in R
        params = PhysParams(eps=0.3, beta=0.0, mu=0.04, delta=0.5)
        bath = Bathymetry.flat(grid)
        state = StripState.rest(grid)
        rho0 = 0.4
        state.rho[:] = rho0
        diffeo = build_diffeo(bath, state.eta0, params)
        _, rates = assemble_pressure_problem(state, diffeo, params)
        R = divergence_form_source(state, diffeo, params, rates)
        nu0 = 1.0 / (params.rho_bar + params.eps * params.delta * rho0)
        assert np.abs(R[:-1]).max() < 1e-15
        # magnitude sqrt(mu) * (delta/sqrt(mu)) * g rho0 nu0, entering downward
        assert np.allclose(R[-1], -np.sqrt(params.mu) * (params.delta / np.sqrt(params.mu)) * params.g * rho0 * nu0)

    def test_entrywise_against_symbolic_oracle(self):
        # manufactured smooth state: A and R match an independently coded
        # term-by-term evaluation of the momentum right-hand sides
        grid = StripGrid(n_x=64, n_r=24)
        params = PhysParams(eps=0.3, beta=0.4, mu=0.04, delta=0.04, g=1.2, rho_bar=1.1)
        bath = Bathymetry(grid, 0.2 * np.cos(grid.x))
        X = np.broadcast_to(grid.x, strip_shape(grid)).copy()
        R_ = np.broadcast_to(grid.r[:, None], strip_shape(grid)).copy()
        state = StripState.rest(grid)
        state.eta0 = 0.08 * np.cos(grid.x)
        state.V[0] = 0.2 * np.sin(X) * (1 + R_)
        state.w = 0.1 * np.cos(X) * R_
        state.rho = 0.3 * np.cos(X) * np.cos(np.pi * R_ / 2)
        diffeo = build_diffeo(bath, state.eta0, params)
        problem, rates = assemble_pressure_problem(state, diffeo, params)
        R = divergence_form_source(state, diffeo, params, rates)

        alpha, off, beta_blk = A_blocks(problem)
        nu = 1.0 / (params.rho_bar + params.eps * params.delta * state.rho)
        h = 1.0 - params.beta * bath.values + params.eps * state.eta0
        sigma_grad = diffeo.grad_sum
        assert np.allclose(alpha, nu * h, atol=1e-13)
        assert np.allclose(off[0], -np.sqrt(params.mu) * nu * sigma_grad[0], atol=1e-13)
        assert np.allclose(beta_blk, nu * (1 + params.mu * sigma_grad[0] ** 2) / h, atol=1e-13)

        # R against a hand-assembled version of the same tendencies
        ops = diffeo.ops
        eps, mu, g, rb = params.eps, params.mu, params.g, params.rho_bar
        Vw = np.stack([state.V[0], state.w])
        adv_V, adv_w = spectral.dealias(grid, ops.advect(state.V, state.w, Vw, spectral.dr(grid, Vw)))
        G_V = -eps * adv_V - g * rb * spectral.dealias(grid, nu * spectral.dx(grid, state.eta0)[0])
        G_w = -eps * adv_w - (g * params.delta / mu) * spectral.dealias(grid, nu * state.rho)
        expect_Rx = np.sqrt(mu) * h * G_V
        expect_Rr = mu * G_w - mu * sigma_grad[0] * G_V
        assert np.allclose(R[0], expect_Rx, atol=1e-12)
        assert np.allclose(R[1], expect_Rr, atol=1e-12)

    def test_spd_lower_bound(self, grid, rng):
        params = PhysParams(eps=0.4, beta=0.5, mu=0.5, delta=0.3)
        bath = Bathymetry.cosine(grid, 0.3)
        state = StripState.rest(grid)
        state.eta0 = 0.1 * np.cos(grid.x)
        state.rho = random_band_limited(grid, rng, amp=0.2)
        diffeo = build_diffeo(bath, state.eta0, params)
        problem, _ = assemble_pressure_problem(state, diffeo, params)
        eig = A_eigen_min(problem)
        nu_min = 1.0 / (params.rho_bar * (1 + params.eps * params.delta * np.abs(state.rho).max() / params.rho_bar))
        h_lo, h_hi = diffeo.h_tot.min(), diffeo.h_tot.max()
        coupling = 1.0 + params.mu * np.max(np.sum(diffeo.grad_sum**2, axis=0))
        bound = nu_min * min(h_lo, 1.0 / h_hi) / (coupling * (1.0 + h_hi / h_lo))
        assert eig > 0.0
        assert eig >= bound

    @pytest.mark.parametrize("rho_node", [-1.0, -2.0], ids=["zero", "negative"])
    def test_nonpositive_density_rejected(self, rho_node):
        # rho_bar + eps delta rho vanishes (or turns negative) at one node:
        # the pressure problem is no longer elliptic there
        grid = StripGrid(n_x=32, n_r=12)
        params = PhysParams(eps=1.0, beta=0.3, mu=0.1, delta=1.0)
        bath = Bathymetry.cosine(grid, 0.3)
        state = StripState.rest(grid)
        state.V[0] = 0.1 * np.cos(grid.x)
        state.rho[4, 7] = rho_node
        with pytest.raises(DegenerateDensity):
            project_divergence_free(state, bath, params)


@lru_cache(maxsize=None)
def _manufactured_fields():
    """The manufactured solution of criterion 2 and its data, lambdified:
    (source(x, r, mu), bottom data(x, mu), P(x, r), rho(x, r))."""
    x, r = sp.symbols("x r")
    eps_v, beta_v, delta_v, bamp, e0amp = _MANUFACTURED
    b_s = sp.Float(bamp) * sp.cos(x)
    eta0_s = sp.Float(e0amp) * sp.cos(x) + sp.Float(e0amp / 2) * sp.sin(2 * x)
    sigma = r * (1 - beta_v * b_s) + eps_v * (1 + r) * eta0_s
    h = sp.diff(sigma, r)
    kap = sp.diff(sigma, x) / h
    rho_s = sp.Rational(2, 10) * sp.cos(x) * sp.cos(sp.pi * r / 2)
    nu_s = 1 / (1 + eps_v * delta_v * rho_s)
    Pstar = sp.sin(x) * sp.sin(sp.pi * r / 2) + sp.Rational(1, 5) * sp.cos(2 * x) * (r + r**3)
    mu_s = sp.Symbol("mu", positive=True)
    Qx = nu_s * (sp.diff(Pstar, x) - kap * sp.diff(Pstar, r))
    Qr = nu_s * sp.diff(Pstar, r) / h
    S = mu_s * (sp.diff(Qx, x) - kap * sp.diff(Qx, r)) + sp.diff(Qr, r) / h
    bottom = (Qr - mu_s * (beta_v * sp.diff(b_s, x)) * Qx).subs(r, -1)
    return (
        sp.lambdify((x, r, mu_s), S, "numpy"),
        sp.lambdify((x, mu_s), bottom, "numpy"),
        sp.lambdify((x, r), Pstar, "numpy"),
        sp.lambdify((x, r), rho_s, "numpy"),
    )


# eps, beta, delta and the bathymetry and surface amplitudes of criterion 2
_MANUFACTURED = (0.4, 0.6, 0.3, 0.3, 0.1)


def _manufactured_problem(n_r, mu):
    """Criterion 2's pressure problem on a 64 x n_r strip, and its exact
    solution on the nodes."""
    fS, fbot, fP, frho = _manufactured_fields()
    eps_v, beta_v, delta_v, bamp, e0amp = _MANUFACTURED
    grid = StripGrid(n_x=64, n_r=n_r)
    params = PhysParams(eps=eps_v, beta=beta_v, mu=mu, delta=delta_v)
    bath = Bathymetry(grid, bamp * np.cos(grid.x))
    e0 = e0amp * np.cos(grid.x) + e0amp / 2 * np.sin(2 * grid.x)
    diffeo = build_diffeo(bath, e0, params)
    X = np.broadcast_to(grid.x, strip_shape(grid))
    Rm = np.broadcast_to(grid.r[:, None], strip_shape(grid))
    problem = EllipticProblem(
        diffeo=diffeo, mu=mu, rho_bar=1.0,
        nu=1.0 / (1.0 + eps_v * delta_v * frho(X, Rm)),
        source=fS(X, Rm, mu), bottom_data=fbot(grid.x, mu),
    )
    return problem, fP(X, Rm)


class TestSolve:
    def test_zero_source(self, flat_setup):
        grid, params, bath = flat_setup
        state = StripState.rest(grid)
        diffeo = build_diffeo(bath, state.eta0, params)
        problem, _ = assemble_pressure_problem(state, diffeo, params)
        P = solve_pressure(problem)
        assert np.abs(P).max() == 0.0

    def test_constant_vertical_flux(self, flat_setup):
        # R = (0, c): two-point problem with solution rho_bar * c * r
        grid, params, bath = flat_setup
        c = 0.7
        diffeo = build_diffeo(bath, np.zeros(grid.xshape), params)
        R = np.zeros((2,) + strip_shape(grid))
        R[1] = c
        problem = problem_from_divergence_form(diffeo, params, R)
        P = spectral.irfft(grid, solve_pressure(problem))
        expect = params.rho_bar * c * grid.r[:, None]
        assert np.abs(P - expect).max() < 1e-9
        assert relative_residual(problem, P) < 1e-9

    def test_manufactured_order_and_iteration_uniformity(self):
        def solve_at(n_r, mu):
            problem, P_exact = _manufactured_problem(n_r, mu)
            grid = problem.diffeo.grid
            info = SolveInfo(0, 0.0)
            P = spectral.irfft(grid, solve_pressure(problem, info=info))
            return spectral.l2_strip(grid, P - P_exact), info.iterations

        errs = [solve_at(n_r, 1e-2)[0] for n_r in (16, 32)]
        assert np.log2(errs[0] / errs[1]) > 3.5
        iters = [solve_at(32, mu)[1] for mu in (1.0, 1e-2, 1e-4)]
        assert max(iters) < 2 * min(iters)

    def test_column_share_cuts_shallow_iterations(self):
        # criterion 2's problem in the shallow regime: the column share
        # weights each column-dominated eigenmode by h^2 (9 iterations with
        # the weight h on every mode)
        problem, _ = _manufactured_problem(32, 1e-4)
        fd = _flat_inverse(problem.diffeo.grid, problem.mu, problem.rho_bar)
        assert fd.column.min() >= 0.0 and fd.column.max() <= 1.0
        info = SolveInfo(0, 0.0)
        solve_pressure(problem, info=info)
        assert info.iterations <= 7

    @pytest.mark.parametrize("mu", [1.0, 1e-2])
    @pytest.mark.parametrize("n_x,n_r,d", [(64, 16, 1), (16, 12, 2)])
    def test_flat_inverse_is_exact_on_a_flat_strip(self, n_x, n_r, d, mu, rng):
        # with h = nu = rho_bar = 1 the preconditioner is the inverse of the
        # operator, down to the modes the spectral derivative loses, so
        # white-noise data converge in one iteration (17 and 35 at mu = 1, 9
        # at mu = 1e-2, with -|k|^2 in place of the operator's symbol there)
        grid = StripGrid(n_x=n_x, n_r=n_r, d=d)
        params = PhysParams(mu=mu)
        problem = EllipticProblem(
            diffeo=build_diffeo(Bathymetry.flat(grid), np.zeros(grid.xshape), params), mu=mu, rho_bar=1.0,
            nu=np.ones(strip_shape(grid)), source=rng.standard_normal(strip_shape(grid)),
            bottom_data=rng.standard_normal(grid.xshape),
        )
        info = SolveInfo(0, 0.0)
        P = spectral.irfft(grid, solve_pressure(problem, info=info))
        assert info.iterations == 1
        assert relative_residual(problem, P) <= 1e-10

    def test_pressure_scaling_in_mu(self, grid):
        # for a fixed small perturbation with delta <= mu, the scaled gradient
        # norm tracks sqrt(mu) (bounded ratio across four decades)
        bath = Bathymetry.cosine(grid, 0.2)
        vals = []
        for mu in (1.0, 1e-2, 1e-4):
            params = PhysParams(eps=0.2, beta=0.2, mu=mu, delta=mu)
            state = StripState.rest(grid)
            state.eta0 = 0.05 * np.cos(grid.x)
            state.V[0] = 0.1 * np.sin(grid.x)[None, :] * np.ones((grid.n_r + 1, 1))
            state.rho = 0.2 * np.cos(grid.x)[None, :] * np.cos(np.pi * grid.r / 2)[:, None]
            diffeo = build_diffeo(bath, state.eta0, params)
            problem, _ = assemble_pressure_problem(state, diffeo, params)
            P = spectral.irfft(grid, solve_pressure(problem))
            gx, gr = sigma_gradients(diffeo.ops, P)
            X = np.sqrt(
                params.mu * spectral.l2_strip(grid, gx[0]) ** 2 + spectral.l2_strip(grid, gr) ** 2
            )
            vals.append(X / np.sqrt(mu))
        # the scaled-gradient bound is an upper estimate: the ratio to sqrt(mu)
        # must not grow as mu -> 0 (here it decays, the gravity part is O(mu))
        assert max(vals) <= 2.0 * vals[0]

    def test_stalled_solve_raises_and_leaves_info_unfilled(self, grid, params, rng, monkeypatch):
        bath = Bathymetry.cosine(grid, 0.2)
        state = _sheared_state(grid, rng)
        diffeo = build_diffeo(bath, state.eta0, params)
        problem, _ = assemble_pressure_problem(state, diffeo, params)
        krylov = pressure.gmres

        def two_iterations(matvec, psolve, b, x0, tol, maxiter):
            return krylov(matvec, psolve, b, x0, tol, 2)

        monkeypatch.setattr(pressure, "gmres", two_iterations)
        info = SolveInfo(-1, -1.0)
        with pytest.raises(NoConvergence):
            solve_pressure(problem, info=info)
        assert info == SolveInfo(-1, -1.0)


class TestGmres:
    """The Krylov routine alone, on a dense nonsymmetric matrix with no
    preconditioner: diag(1..1000) plus a small random part needs several
    restart cycles."""

    @pytest.fixture
    def system(self):
        rng = np.random.default_rng(7)
        n = 300
        A = np.diag(np.linspace(1.0, 1000.0, n)) + 0.5 * rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        return A, b

    def test_restarted_solve_returns_its_true_residual(self, system):
        A, b = system
        tol = 1e-10 * np.linalg.norm(b)
        x, iterations, res = pressure.gmres(lambda v: A @ v, lambda v: v, b, np.zeros(b.size), tol, 2000)
        assert iterations > 3 * pressure.RESTART
        assert res == pytest.approx(np.linalg.norm(b - A @ x), rel=1e-12)
        assert res <= tol

    def test_restart_starts_from_the_true_residual(self, system):
        # every cycle but the first recomputes b - A x with one more matvec
        A, b = system
        tol = 1e-10 * np.linalg.norm(b)
        calls = []

        def matvec(v):
            calls.append(1)
            return A @ v

        x, iterations, res = pressure.gmres(matvec, lambda v: v, b, np.zeros(b.size), tol, 2000)
        cycles = -(-iterations // pressure.RESTART)
        assert cycles > 1
        assert len(calls) == iterations + cycles - 1

    def test_iteration_cap_stops_early(self, system):
        A, b = system
        tol = 1e-10 * np.linalg.norm(b)
        x, iterations, res = pressure.gmres(lambda v: A @ v, lambda v: v, b, np.zeros(b.size), tol, 5)
        assert iterations == 5
        assert res == pytest.approx(np.linalg.norm(b - A @ x), rel=1e-12)
        assert res > tol


class TestTaylor:
    def test_rest(self, flat_setup):
        grid, params, bath = flat_setup
        diffeo = build_diffeo(bath, np.zeros(grid.xshape), params)
        P = np.zeros(strip_shape(grid))
        a = taylor_coefficient(spectral.rfft(grid, P), diffeo, params)
        assert np.allclose(a, params.g * params.rho_bar)

    def test_eps_zero_prefactor(self, grid):
        params = PhysParams(eps=0.0, beta=0.3, mu=0.1)
        bath = Bathymetry.cosine(grid, 0.2)
        diffeo = build_diffeo(bath, np.zeros(grid.xshape), params)
        P = random_band_limited(grid, np.random.default_rng(3))
        a = taylor_coefficient(spectral.rfft(grid, P), diffeo, params)
        assert np.allclose(a, params.g * params.rho_bar)

    def test_hydrostatic_column(self, grid):
        # rest + constant rho: P = -g delta rho0 r, so a = g(rho_bar + eps delta rho0)
        params = PhysParams(eps=0.3, beta=0.0, mu=0.04, delta=0.5)
        bath = Bathymetry.flat(grid)
        state = StripState.rest(grid)
        rho0 = 0.4
        state.rho[:] = rho0
        diffeo = build_diffeo(bath, state.eta0, params)
        problem, _ = assemble_pressure_problem(state, diffeo, params)
        P_hat = solve_pressure(problem)
        P = spectral.irfft(grid, P_hat)
        expect_P = -params.g * params.delta * rho0 * grid.r[:, None]
        assert np.abs(P - expect_P).max() < 1e-9
        a = taylor_coefficient(P_hat, diffeo, params)
        expect_a = params.g * (params.rho_bar + params.eps * params.delta * rho0)
        assert np.allclose(a, expect_a, atol=1e-9)

    def test_time_derivative(self, grid):
        a0 = np.full(grid.xshape, 1.0)
        a1 = np.full(grid.xshape, 1.0)
        assert np.abs(taylor_time_derivative([a0, a1], 0.1)).max() == 0.0
        c = 0.3
        hist = [np.full(grid.xshape, 1.0 + c * t) for t in (0.0, 0.1, 0.2)]
        assert np.allclose(taylor_time_derivative(hist, 0.1), c, atol=1e-12)
        with pytest.raises(InsufficientHistory):
            taylor_time_derivative([a0], 0.1)


# -- hot path: batched preconditioner, fused matvec, warm start -------------------


def _operator_symbol(grid):
    """-Delta_x as the operator's spectral derivative composes it, one value
    per horizontal mode: ``spectral.dx`` applied twice to the field of each
    unit spectrum, read off the spectrum of the result."""
    m = grid.k_abs.size
    f = spectral.irfft(grid, np.eye(m).reshape((m,) + grid.k_abs.shape))
    grad = spectral.dx(grid, f)
    laplacian = sum(spectral.dx(grid, grad[i])[i] for i in range(grid.d))
    out, back = (spectral.rfft(grid, g).reshape(m, m).diagonal() for g in (laplacian, f))
    return -(out / back).real


def _dense_flat_inverse(grid, mu, rho_bar):
    """Oracle: (dense inverses, one per horizontal mode, of the flat-strip
    operator (mu Delta_x + d_r^2)/rho_bar with the bottom conormal row and
    the Dirichlet slab n_r eliminated and Delta_x taken with the operator's
    own symbol; the dense column share of each mode on the n_r unknown
    rows, V diag(|lambda| / (|lambda| + mu |k|^2)) V^-1 from the complex
    eigenpairs (lambda, V) of the eliminated vertical operator B' on the
    interior rows, zero on the bottom row)."""
    n = grid.n_r
    D = grid.Dr
    DD = D @ D
    k2 = _operator_symbol(grid)
    mats = np.empty((k2.size, n, n))
    for j, kk in enumerate(k2):
        M = (DD[:, :n] - mu * kk * np.eye(n + 1, n)) / rho_bar
        M[0, :] = D[0, :n] / rho_bar
        mats[j] = M[:n, :]
    c = DD[1:n, 0] / D[0, 0]
    lam, V = np.linalg.eig(DD[1:n, 1:n] - np.outer(c, D[0, 1:n]))
    share = np.zeros((k2.size, n, n))
    for j, kk in enumerate(k2):
        theta = np.abs(lam) / (np.abs(lam) + mu * kk)
        share[j, 1:, 1:] = ((V * theta) @ np.linalg.inv(V)).real
    return np.linalg.inv(mats), share


def _dense_apply(grid, oracle, v):
    """The dense per-mode inverses of ``oracle`` applied to the residual
    v[0] (n_r rows) plus the dense column share times its column part v[1],
    returned as ``_apply_flat_inverse`` returns it: a spectrum of n_r + 1
    rows whose Dirichlet row is zero."""
    inv, share = oracle
    n = grid.n_r
    vh = spectral.rfft(grid, v).reshape(2, n, -1)
    f = vh[0] + np.einsum("mij,jm->im", share, vh[1])
    uh = np.zeros((n + 1,) + grid.k_abs.shape, dtype=complex)
    uh[:n] = np.einsum("mij,jm->im", inv, f).reshape((n,) + grid.k_abs.shape)
    return uh


def _unweighted_gmres(problem, rtol=1e-10):
    """Reference solve: the same GMRES driven by the flat inverse alone, with
    no depth weight.  Returns (P, iterations)."""
    grid = problem.diffeo.grid
    n, xshape = grid.n_r, grid.xshape
    nun = n * int(np.prod(xshape))

    def embed(u):
        P = np.zeros((n + 1,) + xshape)
        P[:n] = u.reshape((n,) + xshape)
        return P

    def matvec(u):
        interior, bottom = problem.apply(spectral.rfft(grid, embed(u)))
        return np.concatenate([bottom[None], interior[1:n]]).reshape(-1)

    fd = _flat_inverse(grid, problem.mu, problem.rho_bar)
    stack = np.zeros((2, n) + xshape)  # no column part

    def precondition(v):
        stack[0] = v.reshape((n,) + xshape)
        return spectral.irfft(grid, _apply_flat_inverse(grid, fd, stack))[:n].reshape(-1)

    M = LinearOperator((nun, nun), matvec=precondition)
    b = np.concatenate([problem.bottom_data[None], problem.source[1:n]]).reshape(-1)
    count = [0]

    def cb(_):
        count[0] += 1

    u, _ = gmres(
        LinearOperator((nun, nun), matvec=matvec), b, M=M, rtol=rtol, atol=0.0,
        restart=40, maxiter=20, callback=cb, callback_type="pr_norm",
    )
    assert np.linalg.norm(b - matvec(u)) <= 10 * rtol * np.linalg.norm(b)
    return embed(u), count[0]


def _sheared_state(grid, rng):
    """Smooth state with velocity, density and surface perturbations."""
    state = StripState.rest(grid)
    if grid.d == 1:
        state.eta0 = 0.06 * np.cos(grid.x) + 0.02 * np.sin(2 * grid.x)
        state.V[0] = random_band_limited(grid, rng, kmax=4, amp=0.2)
        state.w = random_band_limited(grid, rng, kmax=4, amp=0.1)
        state.rho = random_band_limited(grid, rng, kmax=4, amp=0.3)
    else:
        X, Y = np.meshgrid(grid.x, grid.x, indexing="ij")
        r = grid.r_column(grid.r)
        state.eta0 = 0.05 * np.cos(X) * np.cos(Y)
        state.V[0] = 0.2 * np.sin(X) * np.cos(2 * Y) * (1 + r)
        state.V[1] = 0.1 * np.cos(X + Y) * r
        state.w = 0.1 * np.cos(X) * np.sin(Y) * r
        state.rho = 0.3 * np.cos(X - Y) * np.cos(np.pi * r / 2)
    return state


def _stage_problem(params, rng):
    """The pressure problem of an RK stage 1e-3 past a sheared state at
    32 x 16, and the spectrum of that state's pressure, the stage's warm
    start."""
    grid = StripGrid(n_x=32, n_r=16)
    bath = Bathymetry.cosine(grid, 0.2)
    state = _sheared_state(grid, rng)
    k1, P1 = euler_rhs(state, bath, params)
    stage = shifted(state, k1, 1e-3)
    problem, _ = assemble_pressure_problem(stage, build_diffeo(bath, stage.eta0, params), params)
    return problem, P1


class TestHotPath:
    @pytest.mark.parametrize("n_x,n_r,d", [(64, 16, 1), (256, 48, 1), (16, 12, 2)])
    def test_fast_diagonalisation_matches_dense_inverse(self, n_x, n_r, d, rng):
        # both d = 1 grids give the eliminated vertical operator complex
        # eigenpairs, which the real basis carries as 2 x 2 blocks
        grid = StripGrid(n_x=n_x, n_r=n_r, d=d)
        v = rng.standard_normal((2, n_r) + grid.xshape)
        v[1, 0] = 0.0  # the column part has no bottom row
        residual_only = v.copy()
        residual_only[1] = 0.0
        oracle, fd = _dense_flat_inverse(grid, 0.04, 1.1), _flat_inverse(grid, 0.04, 1.1)
        for stack in (residual_only, v):
            ref = spectral.irfft(grid, _dense_apply(grid, oracle, stack))
            got = spectral.irfft(grid, _apply_flat_inverse(grid, fd, stack))
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
            assert not got[-1].any()

    def test_dense_preconditioner_solves_alike(self, grid, params, rng, monkeypatch):
        bath = Bathymetry.cosine(grid, 0.2)
        state = _sheared_state(grid, rng)
        problem, _ = assemble_pressure_problem(state, build_diffeo(bath, state.eta0, params), params)
        info = SolveInfo(0, 0.0)
        P = spectral.irfft(grid, solve_pressure(problem, info=info))
        monkeypatch.setattr(pressure, "_flat_inverse", _dense_flat_inverse)
        monkeypatch.setattr(pressure, "_apply_flat_inverse", _dense_apply)
        dense_info = SolveInfo(0, 0.0)
        P_dense = spectral.irfft(grid, solve_pressure(problem, info=dense_info))
        assert np.abs(P - P_dense).max() <= 1e-9 * np.abs(P_dense).max()
        assert abs(info.iterations - dense_info.iterations) <= 1

    @pytest.mark.parametrize("n_x,n_r,d", [(64, 16, 1), (16, 12, 2)])
    def test_fused_apply_matches_composed_form(self, n_x, n_r, d, rng):
        grid = StripGrid(n_x=n_x, n_r=n_r, d=d)
        params = PhysParams(eps=0.3, beta=0.4, mu=0.04, delta=0.04, g=1.2, rho_bar=1.1)
        bath = Bathymetry.cosine(grid, 0.2)
        state = _sheared_state(grid, rng)
        diffeo = build_diffeo(bath, state.eta0, params)
        problem, _ = assemble_pressure_problem(state, diffeo, params)
        P = problem.nu * _sheared_state(grid, rng).rho
        P[-1] = 0.0
        ops = problem.diffeo.ops

        def grad_phi(f):  # the physical-space reference, independent of SigmaOps
            return spectral.dx(grid, f) - ops.kappa * spectral.dr(grid, f)

        Qx, Qr = problem.nu * grad_phi(P), problem.nu * ops.gamma * spectral.dr(grid, P)
        interior_ref = params.mu * sum(grad_phi(Qx[i])[i] for i in range(d)) + ops.gamma * spectral.dr(grid, Qr)
        bottom_ref = Qr[0] - params.mu * np.sum(problem.diffeo.bottom_gradient * Qx[:, 0], axis=0)
        interior, bottom = problem.apply(spectral.rfft(grid, P))
        scale = np.abs(interior_ref).max()
        assert np.abs(interior - interior_ref).max() <= 1e-12 * scale
        assert np.abs(bottom - bottom_ref).max() <= 1e-12 * np.abs(bottom_ref).max()

    def test_converged_initial_guess_returns_at_once(self, grid, params, rng):
        bath = Bathymetry.cosine(grid, 0.2)
        state = _sheared_state(grid, rng)
        diffeo = build_diffeo(bath, state.eta0, params)
        problem, _ = assemble_pressure_problem(state, diffeo, params)
        P = spectral.irfft(grid, solve_pressure(problem))
        info = SolveInfo(0, 0.0)
        P2 = spectral.irfft(grid, solve_pressure(problem, info=info, x0=spectral.rfft(grid, P)))
        assert info.iterations <= 2
        assert np.abs(P2 - P).max() <= 1e-10 * np.abs(P).max()

    def test_depth_weight_cuts_iterations(self, grid, rng):
        # shallow strip over varying depth: the flat inverse alone assumes
        # h = 1 everywhere, the weight h/(nu rho_bar) accounts for the depth
        params = PhysParams(eps=0.3, beta=0.5, mu=1e-3, delta=0.2)
        bath = Bathymetry.cosine(grid, 0.3)
        state = _sheared_state(grid, rng)
        diffeo = build_diffeo(bath, state.eta0, params)
        problem, _ = assemble_pressure_problem(state, diffeo, params)
        P_ref, iters_ref = _unweighted_gmres(problem)
        info = SolveInfo(0, 0.0)
        P = spectral.irfft(grid, solve_pressure(problem, info=info))
        assert info.iterations < iters_ref
        assert np.abs(P - P_ref).max() <= 1e-8 * np.abs(P_ref).max()

    def test_solve_makes_no_surplus_operator_applications(self, params, rng, monkeypatch):
        # one matvec and one preconditioner apply per Krylov iteration and
        # none after it (the cycle ends on its stored directions and images);
        # a warm start adds the matvec of the initial residual
        problem, P1 = _stage_problem(params, rng)
        counts = {"matvec": 0, "precond": 0}
        apply, flat_inverse = EllipticProblem.apply, pressure._apply_flat_inverse

        def counted_apply(self, P):
            counts["matvec"] += 1
            return apply(self, P)

        def counted_flat_inverse(*args):
            counts["precond"] += 1
            return flat_inverse(*args)

        monkeypatch.setattr(EllipticProblem, "apply", counted_apply)
        monkeypatch.setattr(pressure, "_apply_flat_inverse", counted_flat_inverse)
        for x0 in (None, P1):
            counts.update(matvec=0, precond=0)
            info = SolveInfo(0, 0.0)
            solve_pressure(problem, info=info, x0=x0)
            assert info.iterations > 0
            assert counts["matvec"] == info.iterations + (x0 is not None)
            assert counts["precond"] == info.iterations

    @pytest.mark.parametrize("restart", [None, 2])
    def test_reported_residual_is_the_true_residual(self, params, rng, restart, monkeypatch):
        # the residual recombined from the stored images matches a fresh
        # apply of the returned pressure, for a warm stage solve and for the
        # cold projection at its tighter tolerance; a short restart length
        # makes both solves restart many times
        if restart:
            monkeypatch.setattr(pressure, "RESTART", restart)
        problem, P1 = _stage_problem(params, rng)
        grid = problem.diffeo.grid
        state = _sheared_state(grid, rng)
        diffeo = build_diffeo(Bathymetry.cosine(grid, 0.2), state.eta0, params)
        projection = closure_problem(diffeo, params, 1.0 / total_density(state.rho, params),
                                     np.concatenate([state.V, state.w[None]]), spectral.rfft(grid, state.V))
        for prob, x0, rtol in ((problem, P1, 1e-10), (projection, None, PROJECT_RTOL)):
            info = SolveInfo(0, 0.0)
            P = spectral.irfft(grid, solve_pressure(prob, rtol=rtol, info=info, x0=x0))
            assert info.iterations > (restart or 0)
            assert info.residual <= rtol
            assert abs(info.residual - relative_residual(prob, P)) <= 1e-12

    def test_warm_started_stage_needs_fewer_iterations(self, grid, params, rng):
        bath = Bathymetry.cosine(grid, 0.2)
        state = _sheared_state(grid, rng)
        k1, P1 = euler_rhs(state, bath, params)
        stage = shifted(state, k1, 0.5 * 2e-3)
        problem, _ = assemble_pressure_problem(stage, build_diffeo(bath, stage.eta0, params), params)
        cold, warm = SolveInfo(0, 0.0), SolveInfo(0, 0.0)
        cold_P = spectral.irfft(grid, solve_pressure(problem, info=cold))
        warm_P = spectral.irfft(grid, solve_pressure(problem, info=warm, x0=P1))
        assert warm.iterations < cold.iterations
        assert warm.residual <= 1e-10
        assert np.abs(warm_P - cold_P).max() <= 1e-8 * np.abs(cold_P).max()

    def test_carried_guess_matches_cold_steps(self, grid, params, rng):
        # the guess ramps up as the history fills: stage 4 of step 1 starts
        # from the half-step base, stage 1 of step 2 from the last-stage
        # pressure of step 1, stage 4 of step 2 and stage 1 of step 3 add the
        # defect or increment their stage saw one step earlier, and stage 4 of
        # step 3 and stage 1 of step 4 extrapolate those of the two steps
        # before; every solve stops on the same relative residual
        bath = Bathymetry.cosine(grid, 0.2)
        cold = warm = _sheared_state(grid, rng)
        dt, guess = 2e-3, PressureGuess(grid)
        for _ in range(4):
            cold = step_rk4(cold, dt, bath, params)
            warm = step_rk4(warm, dt, bath, params, guess)
        for name in ("V", "w", "rho", "eta0"):
            ref = getattr(cold, name)
            assert np.abs(getattr(warm, name) - ref).max() <= 1e-8 * np.abs(ref).max(), name

    def test_carried_guess_cuts_first_stage_iterations(self, grid, params, rng, monkeypatch):
        bath = Bathymetry.cosine(grid, 0.2)
        state, dt = _sheared_state(grid, rng), 2e-3
        iterations = count_solve_iterations(monkeypatch)
        step_rk4(step_rk4(state, dt, bath, params), dt, bath, params)
        guess = PressureGuess(grid)
        step_rk4(step_rk4(state, dt, bath, params, guess), dt, bath, params, guess)
        assert len(iterations) == 16
        cold_stage1, warm_stage1 = iterations[4], iterations[12]
        assert warm_stage1 < cold_stage1

    def test_stage_increment_cuts_iterations(self, grid, params, rng, monkeypatch):
        # step 3 from the carried history against step 3 from the last
        # pressure alone (each stage then starts from the previous one)
        bath = Bathymetry.cosine(grid, 0.2)
        state, dt, guess = _sheared_state(grid, rng), 2e-3, PressureGuess(grid)
        state = step_rk4(step_rk4(state, dt, bath, params, guess), dt, bath, params, guess)
        last = PressureGuess(grid)
        last.append(guess.history[-1])
        iterations = count_solve_iterations(monkeypatch)
        step_rk4(state, dt, bath, params, last)
        step_rk4(state, dt, bath, params, guess)
        assert len(iterations) == 8
        assert sum(iterations[4:]) < sum(iterations[:4])

    def test_second_order_increment_cuts_iterations(self, grid, params, rng, monkeypatch):
        # step 4 from the full history (each stage extrapolates the increments
        # or defects it saw one and two steps earlier) against step 4 from the
        # last five pressures (each stage adds at most those of one step
        # earlier)
        bath = Bathymetry.cosine(grid, 0.2)
        state, dt, guess = _sheared_state(grid, rng), 2e-3, PressureGuess(grid)
        for _ in range(3):
            state = step_rk4(state, dt, bath, params, guess)
        full, first = PressureGuess(grid), PressureGuess(grid)
        for P in guess.history:
            full.append(P)
        for P in guess.history[-5:]:
            first.append(P)
        iterations = count_solve_iterations(monkeypatch)
        step_rk4(state, dt, bath, params, first)
        step_rk4(state, dt, bath, params, full)
        assert len(iterations) == 8
        assert sum(iterations[4:]) < sum(iterations[:4])

    def test_half_step_guess_cuts_iterations(self, grid, params, rng, monkeypatch):
        # with the stage-increment guess alone every step from the fourth on
        # takes 9 iterations ([1, 3, 2, 3]); the half-step base of stages 2
        # and 4 takes 6 ([1, 2, 2, 1])
        bath = Bathymetry.cosine(grid, 0.2)
        state, dt, guess = _sheared_state(grid, rng), 1e-2, PressureGuess(grid)
        iterations = count_solve_iterations(monkeypatch)
        for _ in range(8):
            state = step_rk4(state, dt, bath, params, guess)
        per_step = [sum(iterations[i : i + 4]) for i in range(16, 32, 4)]
        assert max(per_step) <= 7, per_step

    def test_guess_changes_only_the_dealiased_band(self, grid, rng):
        # P[-1] keeps its modes above the 2/3 cutoff; the extrapolated change
        # has none there
        guess = PressureGuess(grid)
        shape = (grid.n_r + 1,) + grid.k_abs.shape
        high = grid.dealias_mask == 0.0
        for _ in range(12):
            guess.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for half_step in (False, True):
            change = guess.initial(half_step) - guess.history[-1]
            assert not change[..., high].any()
            assert np.abs(change[..., ~high]).min() > 0.0

    def test_guess_is_exact_for_a_cubic_in_time(self, grid, rng):
        # a band-limited pressure cubic in time, sampled at the stage times
        # t, t + h/2, t + h/2, t + h of each step: once the history is full,
        # stages 1 and 3 repeat the pressure of their time and stages 2 and 4
        # extrapolate the base's defect, which is linear in time, exactly
        shape = (grid.n_r + 1,) + grid.k_abs.shape
        modes = [grid.dealias_mask * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                 for _ in range(4)]

        def P(t):
            return sum(m * t**p for p, m in enumerate(modes))

        guess, h = PressureGuess(grid), 0.1
        for step in range(5):
            for stage, offset in enumerate((0.0, 0.5, 0.5, 1.0)):
                exact = P((step + offset) * h)
                if step >= 3:
                    got = guess.initial(half_step=stage % 2 == 1)
                    assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max(), (step, stage)
                guess.append(exact)


class TestClosure:
    @pytest.mark.parametrize("kind", ["diffeo", "slag"])
    def test_corrected_tendencies_are_divergence_free(self, grid, params, rng, kind):
        # one closure for every coordinate map: the production map and the
        # mollified scheme's transported map (here perturbed off it)
        bath = Bathymetry.cosine(grid, 0.2)
        state = _sheared_state(grid, rng)
        metric = build_diffeo(bath, state.eta0, params)
        if kind == "slag":
            H = from_strip_state(state, bath, params).H
            metric = DiffeoFields.transported(grid, H + 0.02 * random_band_limited(grid, rng, kmax=3))
        B_V = random_band_limited(grid, rng, kmax=4, amp=0.3)[None]
        B_w = random_band_limited(grid, rng, kmax=4, amp=0.3)
        nu = 1.0 / (params.rho_bar + params.eps * params.delta * state.rho)
        problem = closure_problem(metric, params, nu, np.concatenate([B_V, B_w[None]]), spectral.rfft(grid, B_V))
        dV, dw, P_hat = solve_closure(problem, B_V, B_w)
        assert relative_residual(problem, spectral.irfft(grid, P_hat)) <= 1e-10
        scale = np.abs(sigma_divergence(metric.ops, np.concatenate([B_V, B_w[None]]))[1:-1]).max()
        assert np.abs(sigma_divergence(metric.ops, np.concatenate([dV, dw[None]]))[1:-1]).max() <= 1e-8 * scale
        bottom = dw[0] - np.sum(metric.bottom_gradient * dV[:, 0], axis=0)
        assert np.abs(bottom).max() <= 1e-8 * np.abs(B_w[0]).max()

    @pytest.mark.parametrize("guess", ["stage", "converged"])
    def test_correction_is_the_flux_of_the_returned_pressure(self, params, rng, guess, monkeypatch):
        # after iterating, the correction is the flux half evaluated on the
        # returned pressure; from a guess that already meets the tolerance, it
        # is that of the residual's apply
        problem, P1 = _stage_problem(params, rng)
        d = problem.diffeo.grid.d
        B_V = random_band_limited(problem.diffeo.grid, rng, kmax=4, amp=0.3)[None]
        B_w = random_band_limited(problem.diffeo.grid, rng, kmax=4, amp=0.3)
        x0 = P1
        if guess == "converged":
            x0 = solve_pressure(problem, rtol=1e-13)
        iterations = count_solve_iterations(monkeypatch)
        dV, dw, P_hat = solve_closure(problem, B_V, B_w, x0=x0)
        P = spectral.irfft(problem.diffeo.grid, P_hat)
        assert len(iterations) == 1 and (iterations[0] == 0) == (guess == "converged")
        Q = problem.flux(spectral.rfft(problem.diffeo.grid, P))
        scale = np.abs(Q).max()
        assert np.abs((B_V - dV) - Q[:d]).max() <= 1e-12 * scale
        assert np.abs((B_w - dw) * params.mu - Q[d]).max() <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["sheared_d1", "sheared_d2", "rest"])
    def test_correction_reuses_solve_fluxes(self, grid, params, rng, kind):
        # the correction takes nu grad_phi P and nu dr_phi P of the solved
        # pressure; a zero right-hand side leaves B unchanged
        if kind == "sheared_d2":
            grid = StripGrid(n_x=16, n_r=12, d=2)
        bath = Bathymetry.cosine(grid, 0.2)
        state = StripState.rest(grid) if kind == "rest" else _sheared_state(grid, rng)
        if kind == "rest":
            params, bath = PhysParams(eps=0.3, beta=0.0, mu=1e-2, delta=0.2), Bathymetry.flat(grid)
        problem, rates = assemble_pressure_problem(state, build_diffeo(bath, state.eta0, params), params)
        B_V, B_w = rates.V, rates.w
        dV, dw, P_hat = solve_closure(problem, B_V, B_w)
        P = spectral.irfft(grid, P_hat)
        grad_P, dr_P = sigma_gradients(problem.diffeo.ops, P)
        ref_V, ref_w = B_V - problem.nu * grad_P, B_w - problem.nu * dr_P / params.mu
        assert dV.shape == B_V.shape and dw.shape == B_w.shape
        for got, ref, B in ((dV, ref_V, B_V), (dw, ref_w, B_w)):
            assert np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), np.abs(B).max())
        if kind == "rest":
            assert not P.any()
            assert np.array_equal(dV, B_V) and np.array_equal(dw, B_w)

    @pytest.mark.parametrize("n_x,n_r,d", [(32, 16, 1), (16, 12, 2)])
    @pytest.mark.parametrize("warm", [True, False])
    def test_correction_by_linearity_holds_across_restarts(self, params, rng, n_x, n_r, d, warm, monkeypatch):
        # one direction per cycle: the correction of the returned pressure is
        # the last restart's own apply plus the one direction of its cycle
        grid = StripGrid(n_x=n_x, n_r=n_r, d=d)
        bath = Bathymetry.cosine(grid, 0.2)
        state = _sheared_state(grid, rng)
        k1, P1 = euler_rhs(state, bath, params)
        stage = shifted(state, k1, 1e-3)
        problem, rates = assemble_pressure_problem(stage, build_diffeo(bath, stage.eta0, params), params)
        monkeypatch.setattr(pressure, "RESTART", 1)
        iterations = count_solve_iterations(monkeypatch)
        dV, dw, P_hat = solve_closure(problem, rates.V, rates.w, x0=P1 if warm else None)
        assert iterations[0] >= 2
        Q = problem.flux(P_hat)
        scale = np.abs(Q).max()
        assert np.abs((rates.V - dV) - Q[:d]).max() <= 1e-12 * scale
        assert np.abs((rates.w - dw) * params.mu - Q[d]).max() <= 1e-12 * scale

    def test_warm_stage_differentiates_and_transforms_once(self, params, rng, monkeypatch):
        # one SigmaOps.gradients per operator apply and none after the solve,
        # whose correction comes by linearity; besides one forward transform
        # per preconditioner and per operator apply, a stage makes 5: the
        # surface gradient (shared by the map and the rates), the kinematic
        # product's dealias, the transport's gradient, the dealias of B (whose
        # spectrum the closure's source reuses) and grad d_t eta0.  A trailing
        # flux per solve, a source that transformed B_V again and a second
        # grad eta0 made that 5 + 2 and one gradients more.
        grid = StripGrid(n_x=32, n_r=16)
        bath = Bathymetry.cosine(grid, 0.2)
        state = _sheared_state(grid, rng)
        k1, P1 = euler_rhs(state, bath, params)
        stage = shifted(state, k1, 1e-3)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SigmaOps, "gradients", counted("gradients", SigmaOps.gradients))
        monkeypatch.setattr(EllipticProblem, "apply", counted("apply", EllipticProblem.apply))
        monkeypatch.setattr(pressure, "_apply_flat_inverse", counted("precond", pressure._apply_flat_inverse))
        monkeypatch.setattr(spectral, "rfft", counted("rfft", spectral.rfft))
        euler_rhs(stage, bath, params, x0=P1)
        assert calls["precond"] > 0
        assert calls["gradients"] == calls["apply"]
        assert calls["rfft"] == 5 + calls["precond"] + calls["apply"]
