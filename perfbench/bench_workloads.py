"""The three benchmark workloads.

Each workload turns the benchmark seed into inputs for stripflow (seed 0 gives
the nominal inputs; any other seed perturbs amplitudes, and where the public
API allows it the initial phase, by a few percent), runs one *unit* of work
through stripflow's public API, and checks the outputs.  stripflow never sees
the seed.

All stripflow calls go through module attributes (``runner.simulate``, not a
name imported at load time) so that the wrappers installed by
``bench_trace.Instrumentation`` are the functions that run.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stripflow import config, dynamics, experiments, geometry, grid as gridmod, mollified, runner, shallow
from stripflow.errors import StripflowError

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

DRIFT_MAX = 1e-8  # mean surface drift gate (acceptance criterion 6)
SLOPE_WINDOW = (0.8, 1.2)  # dispersive-cutoff rate window (criterion 8)


@dataclass
class Member:
    """One member run inside a unit and the verdict of its output checks."""

    label: str
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class Unit:
    members: list
    digest: str
    out_bytes: int = 0


class Digest:
    """Bit-level fingerprint of a unit's outputs."""

    def __init__(self):
        self._h = hashlib.sha256()

    def arrays(self, *arrays):
        for a in arrays:
            self._h.update(np.ascontiguousarray(a).tobytes())

    def floats(self, *values):
        for v in values:
            self._h.update(float(v).hex().encode())

    def raw(self, data: bytes):
        self._h.update(data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _perturbation(seed: int, n: int, rel: float = 0.05):
    """n factors in [1 - rel, 1 + rel] and one phase in [-0.03, 0.03] x 2 pi."""
    if seed == 0:
        return [1.0] * n, 0.0
    rng = np.random.default_rng([20261017, seed])
    factors = 1.0 + rel * rng.uniform(-1.0, 1.0, n)
    phase = 2.0 * np.pi * 0.03 * rng.uniform(-1.0, 1.0)
    return [float(f) for f in factors], float(phase)


def _check_reference(member: Member, workload: str, seed: int, rtol: float):
    """Compare recorded values for the default seed."""
    if seed != REFERENCE["seed"]:
        return
    ref = REFERENCE["values"][workload].get(member.label, {})
    for key, want in ref.items():
        got = member.values.get(key)
        if got is None or not math.isclose(got, want, rel_tol=rtol, abs_tol=0.0):
            member.problems.append(f"{key} = {got!r} differs from reference {want!r} (rtol {rtol:g})")


def _check_finite(member: Member):
    for key, v in member.values.items():
        if not math.isfinite(v):
            member.problems.append(f"{key} is not finite")


class MuMember:
    """One member of the acceptance "vortical" mu-sweep through runner.simulate."""

    name = "mu_member_256x48"
    T = 0.25  # a quarter of the acceptance horizon (28 steps), so that many units fit in a run

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        (self.eta_f, self.v_f, self.shear_f, self.rho_f), self.phase = _perturbation(seed, 4)
        self.params = geometry.PhysParams(eps=0.5, beta=0.5, mu=1e-3, delta=1e-3)

    def run_unit(self) -> Unit:
        g = gridmod.StripGrid(n_x=256, n_r=48)
        bath = geometry.Bathymetry.cosine(g, 0.3)
        params = self.params
        phase = 2.0 * np.pi * g.x / g.length + self.phase
        sw = shallow.SWState.rest(g)
        sw.eta = 0.1 * self.eta_f * np.cos(phase)
        sw.V[0] = 0.1 * self.v_f * np.sin(phase)
        member = Member("member")
        try:
            state, achieved = shallow.well_prepared_init(
                sw, bath, params, s=4.0, shear_amp=0.03 * self.shear_f, rho_amp=0.2 * self.rho_f
            )
            rec = runner.simulate(state, bath, params, self.T, s=4.0, s0=2.0, cadence=25, sw=sw)
        except StripflowError as exc:
            member.problems.append(f"raised {type(exc).__name__}: {exc}")
            return Unit([member], "")
        comp, rep = rec.comparisons[-1], rec.reports[-1]
        member.values = {
            "err_total": comp.err_total,
            "E_s": rep.E_s,
            "drift": rec.mean_eta0_drift,
            "achieved": achieved,
        }
        if rec.status != "Continue":
            member.problems.append(f"status {rec.status}")
        if abs(rec.final.t - self.T) > 1e-9:
            member.problems.append(f"stopped at t = {rec.final.t!r}, not {self.T}")
        if rec.mean_eta0_drift > DRIFT_MAX:
            member.problems.append(f"mean surface drift {rec.mean_eta0_drift:.2e} > {DRIFT_MAX:g}")
        if achieved > params.sqrt_mu:
            member.problems.append(f"closeness sum {achieved:.3e} > sqrt(mu)")
        _check_finite(member)
        _check_reference(member, self.name, self.seed, REFERENCE["rtol"])
        d = Digest()
        f = rec.final
        d.arrays(f.V, f.w, f.rho, f.eta0)
        d.floats(*(r.E_s for r in rec.reports), *(c.err_total for c in rec.comparisons))
        return Unit([member], d.hexdigest())


HORIZON_CONFIG = """\
# physics and grid of configs/log_horizon.cfg with a quarter of its horizon;
# amplitudes set by the seed
params.beta = 1.0
grid.n_x = 128
grid.n_r = 32
bathymetry.preset    = cosine
bathymetry.amplitude = 0.2
initial.recipe         = well_prepared
initial.eta0_amplitude = {eta:.17g}
initial.sw_v_amplitude = {v:.17g}
initial.shear_amp      = {shear:.17g}
run.T       = 0.125
run.cadence = 20
sweep.axis   = log_horizon
sweep.values = 0.2, 0.1, 0.05
"""


class HorizonSweep:
    """The user-facing path: experiments.sweep on the log-horizon study."""

    name = "horizon_sweep_128x32"
    OUTPUTS = ("results.txt", "horizon.txt", "manifest.txt")

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.out = work_dir / self.name
        (eta_f, v_f, shear_f), _ = _perturbation(seed, 3)
        self.text = HORIZON_CONFIG.format(eta=0.1 * eta_f, v=0.1 * v_f, shear=0.05 * shear_f)

    def run_unit(self) -> Unit:
        shutil.rmtree(self.out, ignore_errors=True)
        cfg = config.ExperimentConfig.from_text(self.text)
        problems = cfg.validate()
        if problems:
            raise ValueError(f"benchmark config rejected: {problems}")
        eps_values = sorted(cfg["sweep.values"], reverse=True)
        members = [Member(f"eps={e:g}") for e in eps_values]
        try:
            code, summary = experiments.sweep(cfg, self.out, jobs=1)
        except StripflowError as exc:
            for m in members:
                m.problems.append(f"sweep raised {type(exc).__name__}: {exc}")
            return Unit(members, "")

        missing = [n for n in self.OUTPUTS if not (self.out / n).is_file()]
        if code != 0 or missing:
            for m in members:
                m.problems.append(f"sweep exit code {code}, missing outputs {missing}")
        horizon_rows = {}
        if "horizon.txt" not in missing:
            for line in (self.out / "horizon.txt").read_text().splitlines()[1:]:
                eps, horizon, final_t, status = line.split()
                horizon_rows[float(eps)] = (float(final_t), status)

        n_rows = 0
        for m, eps, result in zip(members, eps_values, summary["members"]):
            horizon = cfg["run.T"] * math.log(1.0 / eps)
            rows = result["rows"]
            n_rows += len(rows)
            means = [rep.mean_eta0 for _, _, rep, _ in rows]
            drift = max(abs(v - means[0]) for v in means) if means else float("nan")
            rep_last, comp_last = rows[-1][2:] if rows else (None, None)
            m.values = {
                "err_total": comp_last.err_total if comp_last else float("nan"),
                "E_s": rep_last.E_s if rep_last else float("nan"),
                "drift": drift,
            }
            if result["status"] != "Continue":
                m.problems.append(f"status {result['status']}")
            if result["eps"] != eps or abs(result["final_t"] - horizon) > 1e-9:
                m.problems.append(f"final t {result['final_t']!r} misses horizon {horizon!r}")
            if horizon_rows.get(eps, (None, None))[1] != "Continue" or (
                abs(horizon_rows[eps][0] - horizon) > 1e-5
            ):
                m.problems.append(f"horizon.txt row for eps={eps:g} is {horizon_rows.get(eps)}")
            if not drift <= DRIFT_MAX:
                m.problems.append(f"mean surface drift {drift:.2e} > {DRIFT_MAX:g}")
            _check_finite(m)
            _check_reference(m, self.name, self.seed, REFERENCE["rtol"])

        d = Digest()
        out_bytes = 0
        for n in self.OUTPUTS:
            p = self.out / n
            if p.is_file():
                data = p.read_bytes()
                out_bytes += len(data)
                d.raw(data)
        if "results.txt" not in missing:
            lines = (self.out / "results.txt").read_text().splitlines()
            if len(lines) != 1 + n_rows:
                for m in members:
                    m.problems.append(f"results.txt has {len(lines) - 1} rows, expected {n_rows}")
        shutil.rmtree(self.out, ignore_errors=True)
        return Unit(members, d.hexdigest(), out_bytes)


class MollifiedCutoff:
    """Scheme-consistency study (acceptance criterion 8) via the mollified API."""

    name = "mollified_cutoff_64x32"
    T, dt = 0.15, 0.004  # criterion 8 runs to T = 0.5
    IOTA3 = (1e-1, 1e-2, 1e-3)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        (self.amp_f,), self.phase = _perturbation(seed, 1)
        self.params = geometry.PhysParams(eps=0.25, beta=0.25, mu=0.1, delta=0.0)

    def run_unit(self) -> Unit:
        g = gridmod.StripGrid(n_x=64, n_r=32)
        bath = geometry.Bathymetry.cosine(g, 0.2)
        params = self.params
        state0 = dynamics.StripState.rest(g)
        state0.eta0 = 0.05 * self.amp_f * np.cos(g.x + self.phase)
        MP = mollified.MollParams
        d = Digest()
        ref_member = Member("reference")
        members = [ref_member] + [Member(f"iota3={i:g}") for i in self.IOTA3]
        try:
            ref = mollified.run_moll(
                mollified.from_strip_state(state0, bath, params), MP(), bath, params, self.T, dt=self.dt
            )
            ref_sigma = mollified.slag_to_sigma(ref.final, bath, params)
        except StripflowError as exc:
            for m in members:
                m.problems.append(f"reference run raised {type(exc).__name__}: {exc}")
            return Unit(members, "")
        self._check_run(ref_member, ref)
        d.arrays(ref.final.V, ref.final.w, ref.final.rho, ref.final.H, ref.final.eta0)
        distances = []
        for m, i3 in zip(members[1:], self.IOTA3):
            try:
                tr = mollified.run_moll(
                    mollified.from_strip_state(state0, bath, params), MP(0.0, 0.0, i3),
                    bath, params, self.T, dt=self.dt,
                )
                dist = mollified.terminal_distance(tr.final, ref_sigma, bath, params)
            except StripflowError as exc:
                m.problems.append(f"raised {type(exc).__name__}: {exc}")
                distances.append(float("nan"))
                continue
            self._check_run(m, tr)
            m.values["distance"] = dist
            distances.append(dist)
            d.arrays(tr.final.V, tr.final.w, tr.final.rho, tr.final.H, tr.final.eta0)
            d.floats(dist, *tr.energies)

        cutoff = members[1:]
        if all(math.isfinite(x) and x > 0 for x in distances):
            monotone = all(a > b for a, b in zip(distances, distances[1:]))
            slope = float(np.polyfit(np.log(self.IOTA3), np.log(distances), 1)[0])
            ok = monotone and SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]
            for m in cutoff:
                m.values["slope"] = slope
                if not ok:
                    m.problems.append(
                        f"cutoff distances {distances} (monotone {monotone}) slope {slope:.3f} "
                        f"outside {SLOPE_WINDOW}"
                    )
        for m in members:
            _check_finite(m)
            _check_reference(m, self.name, self.seed, REFERENCE["rtol"])
        return Unit(members, d.hexdigest())

    def _check_run(self, member: Member, traj):
        if traj.status != "Continue":
            member.problems.append(f"status {traj.status}")
        if abs(traj.final.t - self.T) > 1e-9:
            member.problems.append(f"stopped at t = {traj.final.t!r}, not {self.T}")
        member.values["E_final"] = traj.energies[-1]


WORKLOADS = {w.name: w for w in (MuMember, HorizonSweep, MollifiedCutoff)}
