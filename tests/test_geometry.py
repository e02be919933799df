import numpy as np
import pytest

from stripflow import Bathymetry, PhysParams, StripGrid, build_diffeo
from stripflow import spectral
from stripflow.errors import DegenerateDensity, DegenerateDepth
from stripflow.geometry import DiffeoFields, total_density
from stripflow.diagnostics import fit_rate

from conftest import good_unknown, sigma_gradients
from test_acceptance import growth_scale


class TestPhysParams:
    def test_defaults_valid(self):
        p = PhysParams()
        assert growth_scale(p) == max(p.eps, p.beta, p.delta / p.mu)

    @pytest.mark.parametrize(
        "kw", [dict(mu=0.0), dict(mu=1.5), dict(eps=1.2), dict(g=-1.0), dict(rho_bar=0.0)]
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            PhysParams(**kw)


class TestBathymetry:
    def test_presets(self, grid):
        for name in ("flat", "cosine", "gaussian"):
            b = Bathymetry.preset(grid, name, 0.2)
            assert b.values.shape == grid.xshape

    def test_from_file(self, grid, tmp_path):
        xs = np.linspace(0, grid.length, 200, endpoint=False)
        bs = 0.25 * np.cos(2 * np.pi * xs / grid.length)
        path = tmp_path / "bottom.txt"
        np.savetxt(path, np.column_stack([xs, bs]))
        b = Bathymetry.from_file(grid, path)
        assert np.allclose(b.values, 0.25 * np.cos(2 * np.pi * grid.x / grid.length), atol=1e-3)

    def test_unknown_preset(self, grid):
        with pytest.raises(ValueError):
            Bathymetry.preset(grid, "volcano")


class TestBuildDiffeo:
    def test_flat_configuration(self, flat_setup):
        grid, params, bath = flat_setup
        d = build_diffeo(bath, np.zeros(grid.xshape), params)
        assert np.allclose(d.z, grid.r[:, None])
        assert np.allclose(d.h_tot, 1.0)

    def test_cosine_bottom_depth(self):
        grid = StripGrid(n_x=64, n_r=16)
        params = PhysParams(eps=0.0, beta=1.0, mu=0.1)
        bath = Bathymetry(grid, 0.3 * np.cos(2 * np.pi * grid.x / grid.length))
        d = build_diffeo(bath, np.zeros(grid.xshape), params)
        expect = 1.0 - 0.3 * np.cos(2 * np.pi * grid.x / grid.length)
        assert np.allclose(d.h_tot, expect, atol=1e-14)
        assert np.isclose(d.h_tot.min(), 0.7, atol=1e-12)

    def test_degenerate_depth(self, grid):
        params = PhysParams(eps=0.1, beta=1.0, mu=0.1)
        bath = Bathymetry(grid, np.full(grid.xshape, 1.2))
        with pytest.raises(DegenerateDepth):
            build_diffeo(bath, 0.01 * np.cos(grid.x), params)

    def test_depth_identity_everywhere(self, grid, params):
        bath = Bathymetry.cosine(grid, 0.3)
        e0 = 0.1 * np.cos(grid.x) - 0.05 * np.sin(3 * grid.x)
        d = build_diffeo(bath, e0, params)
        expect = 1.0 - params.beta * bath.values + params.eps * e0
        assert np.abs(d.h_tot - expect).max() < 1e-15
        # h_tot = d_r z, and the surface node sits at height eps eta0
        assert np.abs(spectral.dr(grid, d.z) - expect).max() < 1e-12
        assert np.abs(d.z[-1] - params.eps * e0).max() < 1e-15


class TestSigmaGrad:
    def test_flat_is_plain_gradient(self, flat_setup, rng):
        grid, params, bath = flat_setup
        d = build_diffeo(bath, np.zeros(grid.xshape), params)
        f = np.sin(grid.x)[None, :] * np.cos(grid.r)[:, None]
        gx, gr = sigma_gradients(d.ops, f)
        assert np.allclose(gx[0], np.cos(grid.x)[None, :] * np.cos(grid.r)[:, None], atol=1e-11)
        assert np.allclose(gr, -np.sin(grid.r)[:, None] * np.sin(grid.x)[None, :], atol=1e-5)

    def test_linear_vertical_coordinate(self, grid, params):
        # f = height function: grad_phi f = 0 and dr_phi f = 1 exactly
        bath = Bathymetry.cosine(grid, 0.3)
        d = build_diffeo(bath, 0.1 * np.cos(grid.x), params)
        f = d.z
        gx, gr = sigma_gradients(d.ops, f)
        assert np.abs(gx).max() < 1e-12
        assert np.abs(gr - 1.0).max() < 1e-12

    def test_pullback_identity_under_refinement(self, params):
        # (grad_phi, dr_phi) of F(x, z(x,r)) matches (grad F)(x, z(x,r))
        errs = []
        for n_r in (16, 32):
            grid = StripGrid(n_x=64, n_r=n_r)
            bath = Bathymetry.cosine(grid, 0.3)
            d = build_diffeo(bath, 0.1 * np.cos(grid.x), params)
            z = d.z
            x = np.broadcast_to(grid.x, z.shape)
            f = np.sin(x) * np.cos(2.0 * z)
            gx, gr = sigma_gradients(d.ops, f)
            ex = np.cos(x) * np.cos(2.0 * z)
            er = -2.0 * np.sin(x) * np.sin(2.0 * z)
            errs.append(max(np.abs(gx[0] - ex).max(), np.abs(gr - er).max()))
        assert np.log2(errs[0] / errs[1]) > 3.5

    @staticmethod
    def curved_map(n_x, n_r, d):
        grid = StripGrid(n_x=n_x, n_r=n_r, d=d)
        params = PhysParams(eps=0.3, beta=0.4, mu=0.04)
        eta0 = 0.1 * np.cos(grid.x)
        if d == 2:
            eta0 = eta0[:, None] * np.cos(grid.x)[None, :]
        return grid, build_diffeo(Bathymetry.cosine(grid, 0.3), eta0, params).ops

    @pytest.mark.parametrize("n_x,n_r,d", [(64, 16, 1), (16, 12, 2)])
    def test_gradients_of_a_stack_are_those_of_each_field(self, n_x, n_r, d, rng):
        # one call on a 2-field spectrum stack: the d + 1 rows of each field
        # equal its own call and the physical-space dx - kappa dr, gamma dr
        grid, ops = self.curved_map(n_x, n_r, d)
        F = spectral.dealias(grid, rng.standard_normal((2, grid.n_r + 1) + grid.xshape))
        G = ops.gradients(spectral.rfft(grid, F))
        assert G.shape == (d + 1, 2, grid.n_r + 1) + grid.xshape
        for j in range(2):
            ref = np.concatenate([
                spectral.dx(grid, F[j]) - ops.kappa * spectral.dr(grid, F[j]),
                (ops.gamma * spectral.dr(grid, F[j]))[None],
            ])
            scale = np.abs(ref).max()
            assert np.abs(G[:, j] - ops.gradients(spectral.rfft(grid, F[j]))).max() <= 1e-13 * scale
            assert np.abs(G[:, j] - ref).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n_x,n_r,d", [(64, 16, 1), (16, 12, 2)])
    def test_div_phi_matches_per_component_reference(self, n_x, n_r, d, rng):
        grid, ops = self.curved_map(n_x, n_r, d)
        F_x = spectral.dealias(grid, rng.standard_normal((d, grid.n_r + 1) + grid.xshape))
        F_r = spectral.dealias(grid, rng.standard_normal((grid.n_r + 1,) + grid.xshape))
        ref = ops.gamma * spectral.dr(grid, F_r)
        for i in range(d):
            ref = ref + spectral.dx(grid, F_x[i])[i] - ops.kappa[i] * spectral.dr(grid, F_x[i])
        got = ops.div_phi(np.concatenate([F_x, F_r[None]]), spectral.rfft(grid, F_x))
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestAlinhac:
    def test_flat_reduces_to_multiplier(self, flat_setup, rng):
        grid, params, bath = flat_setup
        d = build_diffeo(bath, np.zeros(grid.xshape), params)
        f = np.sin(2 * grid.x)[None, :] * grid.r[:, None]
        got = good_unknown(f, 3.0, d)
        assert np.allclose(got, spectral.lambda_pow(grid, f, 3.0, dotted=True), atol=1e-12)

    def test_r_independent_field(self, grid, params):
        bath = Bathymetry.cosine(grid, 0.3)
        d = build_diffeo(bath, 0.1 * np.cos(grid.x), params)
        f = np.broadcast_to(np.sin(grid.x), (grid.n_r + 1,) + grid.xshape).copy()
        got = good_unknown(f, 3.0, d)
        assert np.allclose(got, spectral.lambda_pow(grid, f, 3.0, dotted=True), atol=1e-12)

    def test_single_mode_against_direct_assembly(self, grid):
        params = PhysParams(eps=0.4, beta=0.0, mu=0.1)
        bath = Bathymetry.flat(grid)
        e0 = 0.2 * np.cos(grid.x)
        d = build_diffeo(bath, e0, params)
        f = np.sin(grid.x)[None, :] * grid.r[:, None]
        s = 2.0
        # direct term-by-term assembly for the single-mode metric
        sigma = grid.r[:, None] * 1.0 + params.eps * (1 + grid.r)[:, None] * e0[None, :]
        lam_sigma = params.eps * (1 + grid.r)[:, None] * spectral.lambda_pow(grid, e0, s, dotted=True)
        h_tot = 1.0 + params.eps * e0
        drf = np.sin(grid.x)[None, :] * np.ones_like(grid.r)[:, None]
        expect = spectral.lambda_pow(grid, f, s, dotted=True) - lam_sigma / h_tot * drf
        assert np.allclose(good_unknown(f, s, d), expect, atol=1e-11)

    def test_commutator_smallness_slope(self):
        grid = StripGrid(n_x=64, n_r=32)
        s = 4.0
        bshape = np.cos(grid.x) + 0.4 * np.sin(2 * grid.x)
        e0shape = np.cos(grid.x) - 0.3 * np.cos(3 * grid.x)
        R = grid.r[:, None]
        f = np.sin(grid.x)[None, :] * R + 0.3 * np.cos(2 * grid.x)[None, :] * np.cos(np.pi * R / 2)
        samples = []
        for t in (1e-1, 1e-2, 1e-3, 1e-4):
            params = PhysParams(eps=t, beta=t, mu=0.1)
            d = build_diffeo(Bathymetry(grid, bshape), e0shape, params)
            gx, gr = sigma_gradients(d.ops, f)
            fs = good_unknown(f, s, d)
            rx = spectral.lambda_pow(grid, gx[0], s, dotted=True) - sigma_gradients(d.ops, fs)[0][0]
            rr = spectral.lambda_pow(grid, gr, s, dotted=True) - sigma_gradients(d.ops, fs)[1]
            samples.append((t, np.sqrt(spectral.l2_strip(grid, rx) ** 2 + spectral.l2_strip(grid, rr) ** 2)))
        fit = fit_rate(samples)
        assert 0.9 <= fit.slope <= 1.1


class TestNondegeneracy:
    def test_rest_passes(self, flat_setup):
        grid, params, bath = flat_setup
        d = build_diffeo(bath, np.zeros(grid.xshape), params)
        assert np.all(total_density(np.zeros((grid.n_r + 1,) + grid.xshape), params) == params.rho_bar)
        assert d.h_tot.min() == 1.0

    def test_density_cancellation_flagged(self, grid):
        params = PhysParams(eps=0.5, beta=0.0, mu=0.1, delta=0.5)
        bath = Bathymetry.flat(grid)
        d = build_diffeo(bath, np.zeros(grid.xshape), params)
        rho = np.full((grid.n_r + 1,) + grid.xshape, -params.rho_bar / (params.eps * params.delta))
        with pytest.raises(DegenerateDensity):
            total_density(rho, params)

    def test_trough_over_bump_depth_scan(self, grid):
        # aligned bump and trough: the pointwise depth minimum drives the check
        params = PhysParams(eps=1.0, beta=1.0, mu=0.1)
        bump = 0.25 * (1 + np.cos(grid.x))
        trough = -0.45 * 0.5 * (1 + np.cos(grid.x))
        bath = Bathymetry(grid, bump)
        d = build_diffeo(bath, trough, params)
        depth = 1.0 - bump + trough
        assert np.isclose(d.h_tot.min(), depth.min())
        rho = np.zeros((grid.n_r + 1,) + grid.xshape)
        total_density(rho, params)
        # shifting the trough away from the bump restores the margin
        shifted = np.roll(trough, grid.n_x // 2)
        assert build_diffeo(bath, shifted, params).h_tot.min() > d.h_tot.min()
        # a trough deeper than the water over the bump is rejected by the map
        with pytest.raises(DegenerateDepth):
            DiffeoFields(grid, 1.0 - bump + 2.0 * trough, d.grad_sum, d.heights)
