import numpy as np
import pytest

from stripflow import Bathymetry, PhysParams, StripGrid, build_diffeo
from stripflow import spectral
from stripflow.errors import InsufficientResolution

from conftest import random_band_limited, random_surface


def strip_integral(grid, f):
    w = grid.r_column(grid.r_weights)
    return float(grid.cell_volume * np.sum(w * f))


def surface_integral(grid, f):
    return float(grid.cell_volume * np.sum(f))


def ibp_residual(grid, F_x, F_r, g, diffeo):
    """Absolute defect of the sigma-coordinate integration-by-parts identity

        int_S h (grad_phi . F) g  =  surface term - bottom term
                                     - int_S h F . grad_phi g,

    computed with the package's own quadrature and derivatives.  The residual
    vanishes at the discretization rate for smooth data.
    """
    ops = diffeo.ops
    h = diffeo.h_tot
    lhs = strip_integral(grid, h * ops.div_phi(F_x, F_r) * g)
    vol = strip_integral(grid, h * (np.sum(F_x * ops.grad_phi(g), axis=0) + F_r * ops.dr_phi(g)))
    top = surface_integral(
        grid, (np.sum(F_x[:, -1] * diffeo.grad_sum[:, -1], axis=0) - F_r[-1]) * g[-1]
    )
    bot = surface_integral(
        grid, (np.sum(F_x[:, 0] * diffeo.bottom_gradient, axis=0) - F_r[0]) * g[0]
    )
    return abs(lhs - (-top + bot - vol))


class TestLambdaPow:
    def test_identity_at_zero(self, grid, rng):
        f = random_surface(grid, rng)
        assert np.allclose(spectral.lambda_pow(grid, f, 0.0), f, atol=1e-13)

    def test_single_mode(self, grid):
        k = 3.0
        f = np.cos(k * grid.x)
        out = spectral.lambda_pow(grid, f, 2.0)
        assert np.allclose(out, (1 + k**2) * f, atol=1e-11)

    def test_dotted_kills_constants(self, grid):
        f = np.full(grid.xshape, 2.7)
        for s in (0.5, 1.0, 4.0):
            assert np.abs(spectral.lambda_pow(grid, f, s, dotted=True)).max() < 1e-14

    def test_dotted_single_mode(self, grid):
        k = 2.0
        f = np.sin(k * grid.x)
        out = spectral.lambda_pow(grid, f, 3.0, dotted=True)
        assert np.allclose(out, k * (1 + k**2) * f, atol=1e-10)

    @pytest.mark.parametrize("s,t", [(1.0, 2.0), (0.5, -0.5), (2.5, 1.5)])
    def test_composition(self, grid, rng, s, t):
        f = random_surface(grid, rng)
        a = spectral.lambda_pow(grid, spectral.lambda_pow(grid, f, s), t)
        b = spectral.lambda_pow(grid, f, s + t)
        assert np.allclose(a, b, atol=1e-11)


class TestMollify:
    def test_identity_at_zero(self, grid, rng):
        f = random_surface(grid, rng)
        assert np.array_equal(spectral.mollify(grid, f, 0.0), f)

    def test_tail_mode_killed(self, grid):
        k = 8.0
        f = np.cos(k * grid.x)
        out = spectral.mollify(grid, f, 3.0 / k)
        assert np.abs(out).max() < 1e-13

    def test_contraction(self, grid, rng):
        f = random_surface(grid, rng)
        n0 = spectral.l2_surface(grid, f)
        for iota in (0.01, 0.1, 1.0, 10.0):
            assert spectral.l2_surface(grid, spectral.mollify(grid, f, iota)) <= n0 + 1e-13

    def test_self_adjoint(self, grid, rng):
        f, g = random_surface(grid, rng), random_surface(grid, rng)
        jf = spectral.mollify(grid, f, 0.3)
        jg = spectral.mollify(grid, g, 0.3)
        assert np.isclose(np.sum(jf * g), np.sum(f * jg), rtol=1e-12)

    def test_lipschitz_in_iota(self, grid, rng):
        # || (J_i - J_j) f ||_{H^{s-1}} <= C |i - j| ||f||_{H^s}
        f = random_surface(grid, rng, kmax=10)
        s = 2.0
        denom = spectral.surface_norm(grid, f, s)
        iotas = np.linspace(0.05, 0.6, 8)
        ratios = []
        for i in iotas:
            for j in iotas:
                if i >= j:
                    continue
                diff = spectral.mollify(grid, f, i) - spectral.mollify(grid, f, j)
                ratios.append(spectral.surface_norm(grid, diff, s - 1) / (abs(i - j) * denom))
        assert max(ratios) < 3.0


class TestHarmonicExtension:
    def test_constant(self, grid):
        out = spectral.harmonic_extension(grid, np.full(grid.xshape, 1.5))
        assert np.allclose(out, 1.5, atol=1e-13)

    def test_separated_mode(self, grid):
        k = 2.0
        e0 = np.cos(k * grid.x)
        out = spectral.harmonic_extension(grid, e0)
        expect = np.cosh(k * (grid.r[:, None] + 1)) / np.cosh(k) * e0[None, :]
        assert np.allclose(out, expect, atol=1e-12)

    def test_surface_trace_and_linearity(self, grid, rng):
        a = random_surface(grid, rng)
        b = random_surface(grid, rng)
        ea = spectral.harmonic_extension(grid, a)
        eb = spectral.harmonic_extension(grid, b)
        eab = spectral.harmonic_extension(grid, 2.0 * a - 3.0 * b)
        assert np.allclose(ea[-1], a, atol=1e-12)
        assert np.allclose(eab, 2.0 * ea - 3.0 * eb, atol=1e-11)

    def test_discrete_laplacian_residual(self, rng):
        # interior residual of d_rr + d_xx shrinks at the vertical stencil order
        e0 = None
        res = []
        for n_r in (16, 32):
            grid = StripGrid(n_x=64, n_r=n_r)
            e0 = np.cos(2 * grid.x) + 0.5 * np.sin(3 * grid.x)
            ext = spectral.harmonic_extension(grid, e0)
            lap = spectral.dr(grid, spectral.dr(grid, ext)) + spectral.dx(grid, spectral.dx(grid, ext)[0])[0]
            res.append(np.abs(lap[3:-3]).max())
        order = np.log2(res[0] / res[1])
        assert order > 3.0


class TestNorms:
    def test_zero(self, grid):
        z = np.zeros((grid.n_r + 1,) + grid.xshape)
        assert spectral.sobolev_norm(grid, z, 2.0) == 0.0

    def test_parseval_matches_quadrature(self, grid, rng):
        f = random_band_limited(grid, rng)
        a = spectral.sobolev_norm(grid, f, 0.0)
        b = spectral.l2_strip(grid, f)
        assert np.isclose(a, b, rtol=1e-12)

    def test_r_independent_single_mode(self, grid):
        k = 3.0
        f = np.broadcast_to(np.cos(k * grid.x), (grid.n_r + 1,) + grid.xshape).copy()
        got = spectral.sobolev_norm(grid, f, 1.0)
        expect = np.sqrt(1 + k**2) * spectral.l2_strip(grid, f)
        assert np.isclose(got, expect, rtol=1e-12)

    def test_against_slow_direct_summation(self, grid, rng):
        # independent implementation: explicit DFT sums, explicit stencils
        f = random_band_limited(grid, rng, kmax=5, r_degree=2)
        s, k = 2.0, 2
        got = spectral.sobolev_norm(grid, f, s)

        def slow_dr(g):
            n, dr = g.shape[0] - 1, 1.0 / (g.shape[0] - 1)
            out = np.zeros_like(g)
            for i in range(n + 1):
                if 2 <= i <= n - 2:
                    out[i] = (g[i - 2] - 8 * g[i - 1] + 8 * g[i + 1] - g[i + 2]) / (12 * dr)
                elif i == 0:
                    out[i] = (-25 * g[0] + 48 * g[1] - 36 * g[2] + 16 * g[3] - 3 * g[4]) / (12 * dr)
                elif i == 1:
                    out[i] = (-3 * g[0] - 10 * g[1] + 18 * g[2] - 6 * g[3] + g[4]) / (12 * dr)
                elif i == n - 1:
                    out[i] = -(-3 * g[n] - 10 * g[n - 1] + 18 * g[n - 2] - 6 * g[n - 3] + g[n - 4]) / (12 * dr)
                else:
                    out[i] = -(-25 * g[n] + 48 * g[n - 1] - 36 * g[n - 2] + 16 * g[n - 3] - 3 * g[n - 4]) / (12 * dr)
            return out

        def slow_lambda(g, order):
            n = grid.n_x
            out = np.zeros_like(g)
            modes = np.fft.fftfreq(n, d=1.0 / n) * 2 * np.pi / grid.length
            for slab in range(g.shape[0]):
                coef = np.array([np.sum(g[slab] * np.exp(-1j * m * grid.x)) / n for m in modes])
                coef *= (1 + modes**2) ** (order / 2)
                out[slab] = np.real(
                    np.sum(coef[:, None] * np.exp(1j * modes[:, None] * grid.x[None, :]), axis=0)
                )
            return out

        total, g = 0.0, f.copy()
        w = grid.r_weights
        for l in range(k + 1):
            lam = slow_lambda(g, s - l)
            total += np.sqrt(grid.dx * np.sum(w[:, None] * lam**2))
            if l < k:
                g = slow_dr(g)
        assert np.isclose(got, total, rtol=1e-10)

    def test_stack_is_the_root_sum_square_of_its_fields(self, grid, rng, monkeypatch):
        # one lambda_pow per order l <= int(s) for the whole stack; a stack
        # was taken as a surface field
        F = np.stack([random_band_limited(grid, rng, kmax=6, r_degree=3) for _ in range(3)])
        each = [spectral.sobolev_norm(grid, f, 4.0) for f in F]
        shapes = []
        lambda_pow = spectral.lambda_pow

        def counted(grid, f, s, **kw):
            shapes.append(f.shape)
            return lambda_pow(grid, f, s, **kw)

        monkeypatch.setattr(spectral, "lambda_pow", counted)
        got = spectral.sobolev_norm(grid, F, 4.0)
        assert np.isclose(got, np.sqrt(np.sum(np.square(each))), rtol=1e-14)
        assert shapes == [F.shape] * 5

    def test_surface_field_rejected(self, grid):
        with pytest.raises(ValueError, match="not a strip field"):
            spectral.sobolev_norm(grid, np.ones(grid.xshape), 1.0)

    def test_insufficient_resolution(self):
        grid = StripGrid(n_x=8, n_r=8)
        f = np.zeros((9,) + grid.xshape)
        with pytest.raises(InsufficientResolution):
            spectral.sobolev_norm(grid, f, 8.0)


def one_vertical_derivative_norm(grid, f, s):
    """||f||_{H^{s,1}} = ||Lambda^s f|| + ||Lambda^(s-1) d_r f||: the
    anisotropic norm with one vertical derivative at any s."""
    return spectral.l2_strip(grid, spectral.lambda_pow(grid, f, s)) + spectral.l2_strip(
        grid, spectral.lambda_pow(grid, spectral.dr(grid, f), s - 1)
    )


class TestTraceAndQuadrature:
    def test_trace_estimate_scan(self, grid, rng):
        # |f(.,0)|_{H^s} / ||f||_{H^{s+1/2,1}} stays bounded over samples
        s = 1.5
        ratios = []
        for _ in range(100):
            f = random_band_limited(grid, rng, kmax=8, r_degree=3)
            num = spectral.surface_norm(grid, f[-1], s)
            den = one_vertical_derivative_norm(grid, f, s + 0.5)
            ratios.append(num / den)
        assert max(ratios) < 2.0

    def test_strip_integral_of_one(self, grid):
        f = np.ones((grid.n_r + 1,) + grid.xshape)
        assert np.isclose(strip_integral(grid, f), grid.length, rtol=1e-13)

    def test_ibp_zero_field(self, grid, params):
        bath = Bathymetry.cosine(grid, 0.3)
        diffeo = build_diffeo(bath, 0.05 * np.cos(grid.x), params)
        shape = (grid.n_r + 1,) + grid.xshape
        F_x = np.zeros((1,) + shape)
        res = ibp_residual(grid, F_x, np.zeros(shape), np.ones(shape), diffeo)
        assert res < 1e-14

    def test_ibp_refinement_rate(self, params, rng):
        res = []
        for n_r in (16, 32, 64):
            grid = StripGrid(n_x=64, n_r=n_r)
            bath = Bathymetry.cosine(grid, 0.3)
            diffeo = build_diffeo(bath, 0.08 * np.cos(grid.x), params)
            rloc = np.random.default_rng(7)
            F_x = random_band_limited(grid, rloc, kmax=4, r_degree=3)[None]
            F_r = random_band_limited(grid, rloc, kmax=4, r_degree=3)
            g = random_band_limited(grid, rloc, kmax=4, r_degree=3)
            res.append(ibp_residual(grid, F_x, F_r, g, diffeo))
        order = np.log2(res[0] / res[1])
        order2 = np.log2(res[1] / res[2])
        assert min(order, order2) > 1.7


class TestDealias:
    def test_dealias_removes_high_modes(self, grid):
        f = np.cos((grid.n_x // 2 - 1) * 2 * np.pi * grid.x / grid.length)
        assert np.abs(spectral.dealias(grid, f)).max() < 1e-13

    def test_dealias_of_zero_product(self, grid, rng):
        # a zero stack of products keeps its shape and stays exactly zero
        f = np.stack([random_surface(grid, rng), random_surface(grid, rng)])
        out = spectral.dealias(grid, f * np.zeros_like(f))
        assert out.shape == f.shape
        assert np.abs(out).max() == 0.0


class TestTransforms:
    """The one-axis transforms and the matrix-product stencil give the same
    bits as the generic N-d transforms and the tensor contraction."""

    @pytest.mark.parametrize("n_x,n_r", [(256, 48), (64, 32)])
    def test_one_axis_fft_matches_generic(self, n_x, n_r, rng):
        grid = StripGrid(n_x=n_x, n_r=n_r)
        f = rng.standard_normal((n_r + 1, n_x))
        F = np.fft.rfftn(f, axes=(-1,))
        assert np.array_equal(spectral.rfft(grid, f), F)
        assert np.array_equal(spectral.irfft(grid, F), np.fft.irfftn(F, s=grid.xshape, axes=(-1,)))

    @pytest.mark.parametrize("n_x,n_r,d", [(256, 48, 1), (16, 12, 2)])
    def test_dr_matches_tensor_contraction(self, n_x, n_r, d, rng):
        grid = StripGrid(n_x=n_x, n_r=n_r, d=d)
        f = rng.standard_normal((n_r + 1,) + grid.xshape)
        once = np.tensordot(grid.Dr, f, axes=(1, 0))
        assert np.array_equal(spectral.dr(grid, f), once)
        assert np.array_equal(spectral.dr(grid, spectral.dr(grid, f)), np.tensordot(grid.Dr, once, axes=(1, 0)))

    @pytest.mark.parametrize("n_x,n_r,d", [(64, 16, 1), (16, 12, 2)])
    def test_dr_of_a_stack_is_dr_of_each_field(self, n_x, n_r, d, rng):
        grid = StripGrid(n_x=n_x, n_r=n_r, d=d)
        F = rng.standard_normal((3, n_r + 1) + grid.xshape)
        once = np.stack([spectral.dr(grid, f) for f in F])
        twice = np.stack([spectral.dr(grid, spectral.dr(grid, f)) for f in F])
        assert np.array_equal(spectral.dr(grid, F), once)
        assert np.array_equal(spectral.dr(grid, spectral.dr(grid, F)), twice)
