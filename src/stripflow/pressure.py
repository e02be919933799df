"""The pressure closure: a variable-coefficient anisotropic elliptic solve.

The discrete operator is the composition

    L P = mu * grad_phi . Q_x + dr_phi Q_r,
    Q_x = nu * grad_phi P,     Q_r = nu * dr_phi P,

with homogeneous Dirichlet data at r = 0 and the conormal row
N_b . (mu Q_x, Q_r) imposed at r = -1.  Pointwise algebra identifies
(mu Q_x * h, Q_r - mu grad_sigma . Q_x) with the flux A grad_mu P of the
equivalent divergence form.  Its horizontal block nu h I and the Schur
complement nu/h of that block are positive wherever nu > 0 and h > 0, which
``geometry.total_density`` and ``DiffeoFields`` enforce, so A is positive
definite by construction and serves only the solver diagnostics.  The solve
uses the composed form, the one that makes the prognostic tendencies preserve
the discrete divergence.

Every solver closes its non-pressure tendencies (B_V, B_w) the same way:
``closure_problem`` poses the source mu div_phi B (plus the metric motion of
a moving map) with bottom data mu (B_w - grad b . B_V), and ``solve_closure``
applies the correction B_V - nu grad_phi P, B_w - nu dr_phi P / mu.  The
projection is the same closure with B = (V, w) and no metric term.

Krylov: restarted GMRES (``gmres``), preconditioned from the right, so the
residual it minimises is the true residual b - A x of the unpreconditioned
rows.  Each iteration orthogonalises by classical Gram-Schmidt applied twice
(two matrix-vector products over the basis), and the stopping test
||b - A x|| <= rtol ||b|| is read on the true residual, recomputed with one
matvec at the end of every restart cycle.  The preconditioner is a
depth-weighted inverse of the flat-strip operator
(mu Delta_x + d_r^2)/rho_bar.  The residual is first multiplied by
the per-node weight w = h_tot/(nu rho_bar) (sqrt(h_tot)/(nu rho_bar) on the
bottom conormal row, which carries one derivative less), then the per-mode
real inverses of the vertical problem are applied to the stacked real and
imaginary parts of every horizontal Fourier mode as one batched matmul.
Locally the operator is (nu/h^2)(d_r^2 + mu h^2 Delta_x): its vertical part
wants the weight h^2 and its horizontal part the weight 1.  The weight h is
their geometric mean, so both regimes are off by the same factor of h and
the iteration counts stay uniform in the shallow-water parameter mu, which
the flat inverse carries as well; h^2 is exact only in the column limit and
lets the count drift with mu.  The RK integrator
warm-starts each stage's solve from the last pressure solved plus the
increment the same stage added one step earlier, P[-1] + (P[-4] - P[-5])
over the last five solves (``dynamics.PressureGuess``; from P[-1] while
fewer are held); the stopping test stays relative to the right-hand side,
so the accuracy does not depend on the initial guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular

from . import spectral
from .errors import InsufficientHistory, NoConvergence
from .geometry import DiffeoFields, PhysParams
from .grid import StripGrid


@dataclass(frozen=True)
class TaylorCoefficient:
    """Surface field a = g rho_bar - (eps/(h_bar + eps h)) d_r P at r = 0."""

    values: np.ndarray

    @property
    def minimum(self) -> float:
        return float(self.values.min())


@dataclass
class EllipticProblem:
    """One pressure-type solve: the coordinate map, the coefficient nu, and
    the right-hand side in composed form (scalar source + conormal bottom
    data)."""

    diffeo: DiffeoFields
    mu: float
    rho_bar: float
    nu: np.ndarray
    source: np.ndarray
    bottom_data: np.ndarray

    # -- coefficient matrix (divergence form), kept for diagnostics ------------

    def A_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(horizontal block, off-diagonal column, vertical entry) of A."""
        grid, h, grad_sum = self.diffeo.grid, self.diffeo.h_tot, self.diffeo.grad_sum
        shape = (grid.n_r + 1,) + grid.xshape
        alpha = np.broadcast_to(self.nu * h, shape)
        off = -np.sqrt(self.mu) * self.nu * grad_sum
        gs2 = np.sum(grad_sum**2, axis=0)
        beta = self.nu * (1.0 + self.mu * gs2) / h
        return alpha, off, np.broadcast_to(beta, shape)

    def A_eigen_min(self) -> float:
        """Nodewise minimum eigenvalue of A (d = 1: closed form; d = 2 via the
        block structure alpha I_2 + rank-one coupling)."""
        alpha, off, beta = self.A_blocks()
        c2 = np.sum(off**2, axis=0)
        half_tr = 0.5 * (alpha + beta)
        disc = np.sqrt(0.25 * (alpha - beta) ** 2 + c2)
        return float((half_tr - disc).min())

    # -- the composed operator --------------------------------------------------

    def apply(self, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(interior rows mu grad_phi.Q_x + dr_phi Q_r, bottom conormal row).

        The composition of the module docstring, with d_r P taken once and
        only the i-th horizontal derivative of Q_x[i] transformed."""
        grid, kappa, gamma = self.diffeo.grid, self.diffeo.ops.kappa, self.diffeo.ops.gamma
        dP = spectral.dr(grid, P)
        Qx = self.nu * (spectral.dx(grid, P) - kappa * dP)
        Qr = self.nu * gamma * dP
        interior = gamma * spectral.dr(grid, Qr)
        for i in range(grid.d):
            dxi = spectral.irfft(grid, 1j * grid.kvec[i] * spectral.rfft(grid, Qx[i]))
            interior += self.mu * (dxi - kappa[i] * spectral.dr(grid, Qx[i]))
        bottom = Qr[0] - self.mu * np.sum(self.diffeo.bottom_gradient * Qx[:, 0], axis=0)
        return interior, bottom


def _as_strip(grid: StripGrid, f) -> np.ndarray:
    shape = (grid.n_r + 1,) + grid.xshape
    return np.broadcast_to(np.asarray(f, dtype=float), shape)


def closure_problem(
    diffeo: DiffeoFields, params: PhysParams, nu, B_V, B_w, metric_term=0.0
) -> EllipticProblem:
    """Pressure problem on the coordinate map ``diffeo`` that keeps
    B_V - nu grad_phi P, B_w - nu dr_phi P / mu divergence-free and impermeable
    at the bottom; ``metric_term`` is the time derivative of the metric
    coefficients of a moving map acting on the current velocity."""
    bottom = B_w[0] - np.sum(diffeo.bottom_gradient * B_V[:, 0], axis=0)
    return EllipticProblem(
        diffeo=diffeo,
        mu=params.mu,
        rho_bar=params.rho_bar,
        nu=_as_strip(diffeo.grid, nu),
        source=params.mu * (diffeo.ops.div_phi(B_V, B_w) + metric_term),
        bottom_data=params.mu * bottom,
    )


def solve_closure(problem: EllipticProblem, B_V, B_w, rtol: float = 1e-10, x0=None):
    """Solve ``problem`` (from the initial guess x0, when given) and apply the
    pressure correction: (corrected B_V, corrected B_w, P, SolveInfo)."""
    info = SolveInfo(0, 0.0)
    P = solve_pressure(problem, rtol=rtol, info=info, x0=x0)
    grad_P, dr_P = problem.diffeo.ops.gradients(P)
    dV = B_V - problem.nu * grad_P
    dw = B_w - problem.nu * dr_P / problem.mu
    return dV, dw, P, info


# -- preconditioner ------------------------------------------------------------


@lru_cache(maxsize=32)
def _flat_inverse(grid: StripGrid, mu: float, rho_bar: float) -> np.ndarray:
    """Dense inverses, one per horizontal mode, of the flat-strip operator
    (mu Delta_x + d_r^2)/rho_bar with the same boundary-row structure as the
    full problem (unknown slabs 0..n_r-1; Dirichlet slab n_r eliminated)."""
    n = grid.n_r
    D = grid.Dr
    DD = D @ D
    k2 = (grid.k_abs**2).reshape(-1)
    mats = np.empty((k2.size, n, n))
    base = DD[:, :n]
    for j, kk in enumerate(k2):
        M = (base - mu * kk * np.eye(n + 1, n)) / rho_bar
        M[0, :] = D[0, :n] / rho_bar
        mats[j] = M[:n, :]
    return np.linalg.inv(mats)


def _apply_flat_inverse(grid: StripGrid, inv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-mode inverse applied as one real batched matmul: the rFFT of v is
    laid out mode-major, (modes, n_r, 2) with real and imaginary parts
    interleaved, which is the float view of the transposed complex array."""
    vh = spectral.rfft(grid, v)
    spec_shape = vh.shape[1:]
    X = np.ascontiguousarray(vh.reshape(grid.n_r, -1).T).view(float)
    U = np.matmul(inv, X.reshape(-1, grid.n_r, 2))
    uh = U.view(complex).reshape(-1, grid.n_r).T.reshape((grid.n_r,) + spec_shape)
    return spectral.irfft(grid, uh)


# -- Krylov solver ----------------------------------------------------------------

# GMRES restart length: the Krylov basis holds at most this many directions
RESTART = 40


def gmres(matvec, psolve, b: np.ndarray, x0: np.ndarray, tol: float, maxiter: int):
    """Right-preconditioned restarted GMRES for A x = b: (x, iterations,
    ||b - A x||).

    Each iteration applies M^-1 and A once and orthogonalises A M^-1 v
    against the basis by classical Gram-Schmidt run twice; Givens rotations
    keep the least-squares residual of the Hessenberg system, which is the
    residual of A x up to round-off.  A cycle ends at RESTART iterations,
    at that residual <= tol, or at ``maxiter`` iterations in all; it then
    forms x with one more M^-1 and one matvec gives the true residual, which
    decides whether to restart.  A zero x0 costs no initial matvec."""
    V = np.empty((RESTART + 1, b.size))
    R = np.zeros((RESTART, RESTART))  # the Hessenberg matrix after the rotations
    cs, sn, g = np.empty(RESTART), np.empty(RESTART), np.empty(RESTART + 1)
    x = x0.copy()
    r = b - matvec(x) if x.any() else b
    res = float(np.linalg.norm(r))
    iterations = 0
    while res > tol and iterations < maxiter:
        V[0] = r / res
        g[0] = res
        j = 0
        while j < RESTART and iterations < maxiter:
            w = matvec(psolve(V[j]))
            basis = V[: j + 1]
            h = basis @ w
            w -= h @ basis
            h2 = basis @ w
            w -= h2 @ basis
            h += h2
            hn = float(np.linalg.norm(w))
            for i in range(j):
                h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], cs[i] * h[i + 1] - sn[i] * h[i]
            rho = np.hypot(h[j], hn)
            cs[j], sn[j] = h[j] / rho, hn / rho
            h[j] = rho
            R[: j + 1, j] = h
            g[j + 1] = -sn[j] * g[j]
            g[j] *= cs[j]
            j += 1
            iterations += 1
            if abs(g[j]) <= tol:
                break
            V[j] = w / hn
        y = solve_triangular(R[:j, :j], g[:j], check_finite=False)
        x += psolve(y @ V[:j])
        r = b - matvec(x)
        res = float(np.linalg.norm(r))
    return x, iterations, res


# -- driver ---------------------------------------------------------------------


@dataclass
class SolveInfo:
    iterations: int
    residual: float


def solve_pressure(
    problem: EllipticProblem,
    rtol: float = 1e-10,
    info: SolveInfo | None = None,
    x0: np.ndarray | None = None,
) -> np.ndarray:
    """Solve for P with P(r=0) = 0; raises NoConvergence past the iteration
    cap 10 sqrt(n_x^d n_r).  The problem is elliptic by construction (module docstring)."""
    grid = problem.diffeo.grid
    n, xshape = grid.n_r, grid.xshape
    nun = int(n * np.prod(xshape))
    cap = max(60, int(10.0 * np.sqrt(np.prod(xshape) * n)))

    b = np.concatenate(
        [problem.bottom_data[None], problem.source[1:n]], axis=0
    ).reshape(-1)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        if info is not None:
            info.iterations, info.residual = 0, 0.0
        return np.zeros((n + 1,) + xshape)

    # one padded buffer whose Dirichlet slab n stays zero, and one output
    # vector (bottom row, then the interior rows); every matvec overwrites both
    padded = np.zeros((n + 1,) + xshape)
    out = np.empty(nun)
    out_rows = out.reshape((n,) + xshape)

    def matvec(u: np.ndarray) -> np.ndarray:
        padded[:n] = u.reshape((n,) + xshape)
        interior, bottom = problem.apply(padded)
        out_rows[0] = bottom
        out_rows[1:] = interior[1:n]
        return out

    inv = _flat_inverse(grid, problem.mu, problem.rho_bar)
    h = _as_strip(grid, problem.diffeo.h_tot)
    weight = h[:n] / (problem.nu[:n] * problem.rho_bar)
    weight[0] = np.sqrt(h[0]) / (problem.nu[0] * problem.rho_bar)

    def psolve(v: np.ndarray) -> np.ndarray:
        return _apply_flat_inverse(grid, inv, weight * v.reshape((n,) + xshape)).reshape(-1)

    u0 = np.zeros(nun) if x0 is None else x0[:n].reshape(-1)
    u, iterations, res = gmres(matvec, psolve, b, u0, rtol * bnorm, cap)
    true_res = res / bnorm
    if true_res > 100 * rtol:
        raise NoConvergence(f"pressure solve stalled at residual {true_res:.2e}")
    if info is not None:
        info.iterations, info.residual = iterations, true_res
    padded[:n] = u.reshape((n,) + xshape)
    return padded


# -- Rayleigh-Taylor coefficient --------------------------------------------------


def taylor_coefficient(P: np.ndarray, diffeo: DiffeoFields, params: PhysParams) -> TaylorCoefficient:
    """a = g rho_bar - (eps/(h_bar + eps h)) d_r P evaluated at the surface
    (one-sided vertical stencil)."""
    drP_top = spectral.dr(diffeo.grid, P)[-1]
    a = params.g * params.rho_bar - params.eps * drP_top / diffeo.h_tot
    return TaylorCoefficient(a)


def taylor_time_derivative(history: list, dt: float) -> np.ndarray:
    """Backward finite difference of the Taylor coefficient in time."""
    if len(history) < 2:
        raise InsufficientHistory("need at least two snapshots")
    vals = [h.values if isinstance(h, TaylorCoefficient) else np.asarray(h) for h in history]
    if len(vals) == 2:
        return (vals[-1] - vals[-2]) / dt
    return (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * dt)
