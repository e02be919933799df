"""Prognostic core: right-hand sides for (V, w, rho, eta0) in sigma
coordinates, vorticity, the RK4 integrator shared by every solver, and the
divergence projection.

A right-hand side returns the rates of change of its state as a record of the
state's own type.  The rates go through the pressure closure of ``pressure``:
the non-pressure rates plus the time derivative of the metric coefficients
(known before the solve because the kinematic surface equation does not
involve P) pose the problem, and the pressure correction keeps the discrete
divergence and the bottom impermeability stationary, so a step makes four
solves and no projection.  The projection is the same closure applied to the
velocity itself; it only removes the time-integration drift, which is read
only where a state is observed, so the initial-state constructors and
``runner.simulate`` (before each observation after t = 0) apply it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from itertools import count

import numpy as np

from . import spectral
from .errors import BlowUpSuspected, InvalidStreamfunction
from .geometry import (
    Bathymetry,
    DiffeoFields,
    PhysParams,
    barycentric_heights,
    build_diffeo,
    total_density,
    water_depth,
    wave_speed,
)
from .grid import StripGrid
from .pressure import EllipticProblem, closure_problem, solve_closure


@dataclass
class Fields:
    """Base of the states that ``rk4`` advances: array fields and a time t.
    A right-hand side returns the rates of its state in the same type."""

    def copy(self):
        return replace(self, **{f: getattr(self, f).copy() for f in _advanced(self)})


@dataclass
class StripState(Fields):
    """Prognostic fields on the strip; V carries a leading component axis."""

    V: np.ndarray
    w: np.ndarray
    rho: np.ndarray
    eta0: np.ndarray
    t: float = 0.0

    @classmethod
    def rest(cls, grid: StripGrid) -> "StripState":
        shape = (grid.n_r + 1,) + grid.xshape
        return cls(
            V=np.zeros((grid.d,) + shape),
            w=np.zeros(shape),
            rho=np.zeros(shape),
            eta0=np.zeros(grid.xshape),
        )


# pressures a PressureGuess holds: the four stages of each of the last two
# steps and three more, back to the base of a half-step stage two steps earlier
GUESS_HISTORY = 11

# The guess of a solve is P[-1] + M sum_j c_j P[-j] over the held pressures
# (P[-1] the last, M the 2/3 dealias mask), with the weights c_1 .. c_11 of
# one row below.  Stages 1 and 3 solve at the time of P[-1]; they add the
# increments d1 = P[-4] - P[-5] and d2 = P[-8] - P[-9] that the same stage
# added one and two steps earlier.  Stages 2 and 4 solve half a step past
# P[-1] and a whole step past P[-3]; they take the base 2 P[-1] - P[-3] and
# add the defects e1 = P[-4] - (2 P[-5] - P[-7]) and
# e2 = P[-8] - (2 P[-9] - P[-11]) of the bases the same stage took one and
# two steps earlier.  Only the change is band-limited: P[-1] keeps its modes
# above the cutoff, whose extrapolation would amplify the solver's noise there
# (Fischer 1998: guesses for successive right-hand sides).  Each parity lists
# its rows by increasing reach; a solve takes the last row whose reach the
# history holds, so the guess ramps up from a cold start as the history fills.
GUESS_WEIGHTS = (
    # stages 1 and 3: P[-1]; + d1; + 2 d1 - d2
    np.array([
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 2, -2, 0, 0, -1, 1, 0, 0],
    ], dtype=float),
    # stages 2 and 4: P[-1]; the base; + e1; + 2 e1 - e2
    np.array([
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, -1, 1, -2, 0, 1, 0, 0, 0, 0],
        [1, 0, -1, 2, -4, 0, 2, -1, 2, 0, -1],
    ], dtype=float),
)


@dataclass
class PressureGuess:
    """The spectra of the last GUESS_HISTORY pressures solved on the strip
    ``grid``, in a ring of preallocated rows, carried from step to step by the
    caller that owns the time loop; ``initial`` makes a solve's guess from
    them (GUESS_WEIGHTS)."""

    grid: StripGrid
    solves: int = 0  # pressures appended so far
    # the spectrum of a pressure already solved for the first solve's own
    # problem (a run's t = 0 observation), that solve's guess
    start: np.ndarray | None = None
    _ring: np.ndarray | None = field(default=None, repr=False)

    def append(self, P_hat: np.ndarray) -> None:
        """Hold the spectrum of a solved pressure (copied)."""
        if self._ring is None:
            self._ring = np.zeros((GUESS_HISTORY,) + P_hat.shape, dtype=complex)
        self._ring[self.solves % GUESS_HISTORY] = P_hat
        self.solves += 1

    @property
    def history(self) -> tuple:
        """The held spectra, oldest first (views, valid until the next
        ``append``)."""
        held = min(self.solves, GUESS_HISTORY)
        return tuple(self._ring[(self.solves - j) % GUESS_HISTORY] for j in range(held, 0, -1))

    def initial(self, half_step: bool) -> np.ndarray | None:
        """The spectrum of the GUESS_WEIGHTS guess of a solve of the parity
        ``half_step`` (stages 2 and 4); ``start`` (None: a cold start) while
        no pressure is held."""
        if not self.solves:
            return self.start
        held = min(self.solves, GUESS_HISTORY)
        c = next(row for row in GUESS_WEIGHTS[half_step][::-1] if not row[held:].any())
        # row m of the ring holds P[-j] with j - 1 = (solves - 1 - m) mod GUESS_HISTORY
        weights = c[(self.solves - 1 - np.arange(GUESS_HISTORY)) % GUESS_HISTORY]
        ring = self._ring.reshape(GUESS_HISTORY, -1).view(float)
        guess = (weights @ ring).view(complex).reshape(self._ring.shape[1:])
        guess *= self.grid.dealias_mask
        guess += self.history[-1]
        return guess


def kinematic_deta0(
    V_top: np.ndarray, w_top: np.ndarray, grad_eta0: np.ndarray, grid: StripGrid, params: PhysParams
) -> np.ndarray:
    """d_t eta0 = -eps V|_{r=0} . grad eta0 + w|_{r=0}, from the surface
    traces V_top, w_top and grad_eta0 = grad eta0 (both schemes)."""
    return w_top - params.eps * spectral.dealias(grid, np.sum(V_top * grad_eta0, axis=0))


def metric_motion_term(ops, h, h_dot, grad_dH, dF) -> np.ndarray:
    """Divergence source of a moving coordinate map with layer thickness h:
    d_t gamma d_r w - sum_i d_t kappa_i d_r V_i for gamma = 1/h and
    kappa = grad H / h, given h_dot = d_t h, grad_dH = grad d_t H and the
    vertical derivatives dF = d_r (V_1, .., V_d, w, ..) of a stack that
    begins with the velocity."""
    d = ops.grid.d
    kappa_dot = (grad_dH - ops.kappa * h_dot) / h
    return -h_dot / h**2 * dF[d] - np.sum(kappa_dot * dF[:d], axis=0)


def assemble_pressure_problem(
    state: StripState, diffeo: DiffeoFields, params: PhysParams
) -> tuple[EllipticProblem, StripState]:
    """Elliptic problem for P plus the rates before the pressure correction
    that it was built from (returned so the caller corrects their V and w
    without re-deriving them).  V, w and rho are transported as one stack.
    ``diffeo`` is the ``build_diffeo`` map of ``state.eta0``, whose surface
    gradient the kinematic and gravity terms read."""
    grid = diffeo.grid
    ops = diffeo.ops
    d, mu, eps = grid.d, params.mu, params.eps
    nu = 1.0 / total_density(state.rho, params)

    grad_eta0 = diffeo.surface_gradient
    deta0 = kinematic_deta0(state.V[:, -1], state.w[-1], grad_eta0, grid, params)

    # F = (V_1..V_d, w, rho); d_r F once, shared by the transport and the
    # metric term; the forces are added raw and the stack dealiased once,
    # its spectrum kept for the closure's source.  The map moves with
    # d_t (eta_bar + eps eta) = eps (1+r) deta0, so the stack is transported
    # by the vertical velocity relative to it, w - (1+r) deta0
    rp1 = grid.r_column(grid.r + 1.0)
    F = np.concatenate([state.V, state.w[None], state.rho[None]])
    dF = spectral.dr(grid, F)
    B = -eps * ops.advect(state.V, state.w - rp1 * deta0, F, dF)
    B[:d] -= params.g * params.rho_bar * nu * grad_eta0[:, None]
    B[d] -= (params.g * params.delta / mu) * nu * state.rho
    B_hat = spectral.dealiased_spectrum(grid, B)
    B = spectral.irfft(grid, B_hat)

    grad_dH = eps * rp1[None] * spectral.dx(grid, deta0)[:, None]
    metric_term = metric_motion_term(ops, diffeo.h_tot, eps * deta0, grad_dH, dF)
    problem = closure_problem(diffeo, params, nu, B[: d + 1], B_hat[:d], metric_term)
    return problem, StripState(B[:d], B[d], B[d + 1], deta0)


def euler_rhs(
    state: StripState, bathymetry: Bathymetry, params: PhysParams, x0: np.ndarray | None = None
) -> tuple[StripState, np.ndarray]:
    """(rates, P_hat): the rates of ``state`` and the spectrum of the pressure
    they were closed with, solved from the spectrum x0 of an initial guess,
    when given."""
    diffeo = build_diffeo(bathymetry, state.eta0, params)
    problem, rates = assemble_pressure_problem(state, diffeo, params)
    rates.V, rates.w, P_hat = solve_closure(problem, rates.V, rates.w, x0=x0)
    return rates, P_hat


def divergence_report(state: StripState, bathymetry: Bathymetry, params: PhysParams) -> dict:
    """Constraint residuals.  The interior collocation rows are the ones the
    pressure construction and the projection control (solver tolerance); the
    two boundary rows carry the elliptic closure truncation, which accumulates
    at O(dr^4) per unit time and is reported separately."""
    diffeo = build_diffeo(bathymetry, state.eta0, params)
    grid = diffeo.grid
    div = diffeo.ops.div_phi(np.concatenate([state.V, state.w[None]]), spectral.rfft(grid, state.V))
    bottom = state.w[0] - np.sum(diffeo.bottom_gradient * state.V[:, 0], axis=0)
    scale = spectral.l2_strip(grid, state.V[0]) + spectral.l2_strip(
        grid, np.sqrt(params.mu) * state.w
    )
    for i in range(1, grid.d):
        scale += spectral.l2_strip(grid, state.V[i])
    scale = max(scale, 1e-30)
    interior = float(np.abs(div[1:-1]).max())
    return {
        "div_l2": spectral.l2_strip(grid, div),
        "div_rel": spectral.l2_strip(grid, div) / scale,
        "div_interior_linf": interior,
        "div_interior_rel": interior / scale,
        "bottom_linf": float(np.abs(bottom).max()),
        "scale": scale,
    }


# The projection's right-hand side is the divergence drift of the steps, a
# round-off-sized multiple of the velocity, so a stop relative to it alone
# would solve that drift to round-off of itself.  The solve stops once its
# residual is below PROJECT_RTOL ||b|| or PROJECT_VTOL mu ||(V, sqrt(mu) w)||
# over the same rows, whichever is looser: the second is the size of the
# source mu div(V, w) that round-off of the velocity leaves; the first is the
# looser one where the field is genuinely divergent (the initial states).
PROJECT_RTOL = 1e-12
PROJECT_VTOL = 1e-14


def project_divergence_free(state: StripState, bathymetry: Bathymetry, params: PhysParams) -> StripState:
    """Remove the discrete divergence and restore bottom impermeability: the
    pressure closure with B = (V, w) (Dirichlet top), solved until its
    residual is below PROJECT_RTOL relative to its right-hand side or
    PROJECT_VTOL relative to mu times the velocity (V, sqrt(mu) w) on the
    residual rows (the bottom and interior slabs), whichever is looser."""
    diffeo = build_diffeo(bathymetry, state.eta0, params)
    B = np.concatenate([state.V, np.broadcast_to(state.w, state.V.shape[1:])[None]])  # w may be broadcast
    problem = closure_problem(diffeo, params, 1.0 / total_density(state.rho, params), B,
                              spectral.rfft(diffeo.grid, state.V))
    rows = slice(0, diffeo.grid.n_r)
    size = np.sqrt(np.sum(B[:-1, rows] ** 2) + params.mu * np.sum(B[-1, rows] ** 2))
    atol = PROJECT_VTOL * params.mu * size
    V, w, _ = solve_closure(problem, state.V, state.w, rtol=PROJECT_RTOL, atol=atol)
    return StripState(V, w, state.rho.copy(), state.eta0.copy(), state.t)


def cfl_dt(state: StripState, bathymetry: Bathymetry, params: PhysParams) -> float:
    """Advective/gravity-wave step limit (factor-free; see ``runner.march``)."""
    grid = bathymetry.grid
    depth = water_depth(bathymetry, state.eta0, params)
    dt_x = grid.dx / wave_speed(depth, state.V, params)
    dt_r = grid.dr * depth.min() / (params.eps * float(np.abs(state.w).max()) + 1e-30)
    return min(dt_x, dt_r)


def step_rk4(
    state: StripState, dt: float, bathymetry: Bathymetry, params: PhysParams,
    guess: PressureGuess | None = None,
) -> StripState:
    """Classical four-stage step, four pressure solves, no projection (the
    stage solves keep the divergence stationary to solver tolerance), each
    warm-started from ``guess`` (``warm_started``; a fresh guess without a
    carried one).  ``runner.march`` checks dt."""
    guess = PressureGuess(bathymetry.grid) if guess is None else guess
    return rk4(state, dt, warm_started(lambda st, x0: euler_rhs(st, bathymetry, params, x0=x0), guess))


def _advanced(state) -> list:
    """Fields an integrator advances: all but the time t."""
    return [f.name for f in fields(state) if f.name != "t"]


def shifted(state, k, h: float):
    """state + h k over dataclass fields: each field f advances by the same
    field of the rates k, and t by h."""
    new = {f: getattr(state, f) + h * getattr(k, f) for f in _advanced(state)}
    return replace(state, t=state.t + h, **new)


def warm_started(solve, guess: PressureGuess):
    """``solve(state, x0)``, which returns (rates, P_hat) with the pressure
    solved from the spectrum x0, as an ``rk4`` right-hand side: each solve
    starts from ``guess.initial`` and appends its P_hat to ``guess``.  A
    counter of the solves gives the stage parity: stages 1 and 3 extrapolate
    the increments their stage added one and two steps earlier, stages 2 and
    4, half a step past the last pressure, start from the half-step base
    2 P[-1] - P[-3] (GUESS_WEIGHTS); the extrapolated change is restricted to
    the dealiased band.  The stopping test is relative to the right-hand
    side, so the guess changes the cost of a solve, not its accuracy."""
    solves = count()

    def rhs(state):
        rates, P_hat = solve(state, guess.initial(half_step=next(solves) % 2 == 1))
        guess.append(P_hat)
        return rates

    return rhs


def rk4(state, dt: float, rhs):
    """Classical four-stage step of a dataclass state (see ``shifted``) with
    rates ``rhs(state)``; BlowUpSuspected when a stage rate of an advanced
    field holds a non-finite value."""
    names = _advanced(state)

    def stage(st):
        k = rhs(st)
        if not all(np.isfinite(getattr(k, f)).all() for f in names):
            raise BlowUpSuspected(f"non-finite tendency at t = {st.t:.6g}")
        return k

    k1 = stage(state)
    k2 = stage(shifted(state, k1, 0.5 * dt))
    k3 = stage(shifted(state, k2, 0.5 * dt))
    k4 = stage(shifted(state, k3, dt))

    def combined(f):
        return getattr(k1, f) + 2.0 * getattr(k2, f) + 2.0 * getattr(k3, f) + getattr(k4, f)

    new = {f: getattr(state, f) + (dt / 6.0) * combined(f) for f in names}
    return replace(state, t=state.t + dt, **new)


# -- vorticity -------------------------------------------------------------------


def vorticity(F_hat: np.ndarray, diffeo: DiffeoFields, params: PhysParams) -> np.ndarray:
    """Scaled curl of (V, w) in the coordinates of ``diffeo``, as a stack of
    its components: omega_x for d = 1; omega_x (two) and omega_r for d = 2,
    from one ``gradients`` G of the first d + 1 rows (V_1 .. V_d, w) of the
    stack whose horizontal rFFT is ``F_hat``: G[j, i] is derivative j
    (grad_phi components, then dr_phi) of field i."""
    grid, sq = diffeo.grid, params.sqrt_mu
    G = diffeo.ops.gradients(F_hat[: grid.d + 1])
    if grid.d == 1:
        return (G[1, 0] / sq - sq * G[0, 1])[None]
    return np.stack([-G[2, 1] / sq + sq * G[1, 2], G[2, 0] / sq - sq * G[0, 2], G[0, 1] - G[1, 0]])


# -- initial data ------------------------------------------------------------------

PSI_BOTTOM_TOL = 1e-8


def init_from_streamfunction(
    psi,
    dpsi_dx,
    dpsi_dz,
    rho0: np.ndarray,
    eta0_init: np.ndarray,
    bathymetry: Bathymetry,
    params: PhysParams,
) -> StripState:
    """Build (V, w) = (d_z psi, -d_x psi) from callables on the physical
    domain, pulled back to the sigma grid, then projected so the discrete
    invariants hold.  d = 1 only; psi must be constant along the bottom, to
    PSI_BOTTOM_TOL relative to its size there."""
    grid = bathymetry.grid
    if grid.d != 1:
        raise ValueError("streamfunction initialization is d = 1 only")
    z = barycentric_heights(bathymetry, eta0_init, params)
    x = np.broadcast_to(grid.x, z.shape)
    psi_bottom = np.asarray(psi(grid.x, -1.0 + params.beta * bathymetry.values))
    if np.ptp(psi_bottom) > PSI_BOTTOM_TOL * max(1.0, np.abs(psi_bottom).max()):
        raise InvalidStreamfunction(
            f"psi varies by {np.ptp(psi_bottom):.2e} along the bottom"
        )
    V = np.asarray(dpsi_dz(x, z))[None]
    w = -np.asarray(dpsi_dx(x, z))
    state = StripState(V, w, rho0.copy(), eta0_init.copy())
    return project_divergence_free(state, bathymetry, params)
