"""Flat key-value experiment configuration with dotted sections."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .diagnostics import spans_two_decades
from .errors import ConfigError
from .geometry import Bathymetry, PhysParams
from .grid import StripGrid
from .runner import CFL_MAX

_DEFAULTS = {
    "params.eps": 0.5,
    "params.beta": 0.5,
    "params.mu": 0.01,
    "params.delta": 0.0,
    "params.g": 1.0,
    "params.rho_bar": 1.0,
    "limits.c_star": 0.1,
    "limits.norm_factor": 10.0,
    "grid.d": 1,
    "grid.n_x": 128,
    "grid.n_r": 32,
    "grid.length": 6.283185307179586,
    "bathymetry.preset": "flat",
    "bathymetry.amplitude": 0.3,
    "bathymetry.path": "",
    "initial.recipe": "rest",
    "initial.eta0_amplitude": 0.0,
    "initial.eta0_mode": 1,
    "initial.sw_v_amplitude": 0.0,
    "initial.shear_amp": 0.0,
    "initial.rho_amp": 0.0,
    "initial.psi_amplitude": 0.0,
    "initial.psi_mode": 1,
    "scheme.kind": "direct",
    "scheme.iota1": 0.0,
    "scheme.iota2": 0.0,
    "scheme.iota3": 0.0,
    "run.T": 1.0,
    "run.dt": 0.0,
    "run.cfl": 0.4,
    "run.cadence": 10,
    "run.s": 4.0,
    "run.s0": 2.0,
    "output.format": "npz",
    "sweep.axis": "",
    "sweep.values": (),
    "sweep.delta_tracks_mu": False,
    "rate.min": 0.0,
    "rate.max": 10.0,
}

_PRESETS = ("flat", "cosine", "gaussian", "file")
_RECIPES = ("rest", "streamfunction", "well_prepared")
_SCHEMES = ("direct", "mollified")
_FORMATS = ("npz", "text")
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _coerce(key: str, raw: str):
    default = _DEFAULTS[key]
    raw = raw.strip()
    if isinstance(default, tuple):
        if not raw:
            return ()
        return tuple(float(v) for v in raw.replace(",", " ").split())
    if isinstance(default, bool):
        word = raw.lower()
        if word not in _TRUE + _FALSE:
            raise ValueError(f"{key} needs a boolean ({'/'.join(_TRUE + _FALSE)}), got {raw!r}")
        return word in _TRUE
    if isinstance(default, int):
        value = float(raw)
        if not value.is_integer():
            raise ValueError(f"{key} needs an integer, got {raw!r}")
        return int(value)
    if isinstance(default, float):
        return float(raw)
    return raw


def parse_config_text(text: str) -> dict:
    values = dict(_DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (p.strip() for p in body.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _coerce(key, raw)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return values


@dataclass
class ExperimentConfig:
    values: dict
    text: str = ""

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        text = Path(path).read_text()
        return cls(parse_config_text(text), text)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls(parse_config_text(text), text)

    def __getitem__(self, key):
        return self.values[key]

    def validate(self) -> list:
        """Collect violations; empty list means the config is runnable."""
        v = self.values
        problems = [
            f"{key} must be finite" for key, default in _DEFAULTS.items()
            if isinstance(default, (float, tuple)) and not np.isfinite(v[key]).all()
        ]
        if v["bathymetry.preset"] not in _PRESETS:
            problems.append(f"unknown bathymetry preset {v['bathymetry.preset']!r}")
        if v["bathymetry.preset"] == "file" and not v["bathymetry.path"]:
            problems.append("bathymetry.preset=file needs bathymetry.path")
        if v["initial.recipe"] not in _RECIPES:
            problems.append(f"unknown initial recipe {v['initial.recipe']!r}")
        if v["scheme.kind"] not in _SCHEMES:
            problems.append(f"unknown scheme {v['scheme.kind']!r}")
        if v["output.format"] not in _FORMATS:
            problems.append(f"unknown output.format {v['output.format']!r} (npz or text)")
        if v["run.T"] <= 0:
            problems.append("run.T must be positive")
        if v["run.dt"] < 0:
            problems.append("run.dt must not be negative (0 takes the CFL step)")
        if not 0 < v["run.cfl"] <= CFL_MAX:
            problems.append(f"run.cfl must lie in (0, {CFL_MAX}] (a larger step exceeds the stability limit)")
        if v["run.cadence"] < 1:
            problems.append("run.cadence must be at least 1")
        # cutoff scales and Sobolev orders the norms can take
        problems += [f"{key} must not be negative"
                     for key in ("scheme.iota1", "scheme.iota2", "scheme.iota3", "run.s0") if v[key] < 0]
        if v["run.s"] < 1:
            problems.append("run.s must be at least 1 (the vorticity is measured in H^(s-1))")
        if v["limits.norm_factor"] <= 0:
            problems.append("limits.norm_factor must be positive (a run would halt at t = 0)")
        if v["rate.min"] > v["rate.max"]:
            problems.append("rate.min must not exceed rate.max (no fit could pass)")
        if v["sweep.axis"] and v["sweep.axis"] not in ("mu", "iota3", "log_horizon"):
            problems.append(f"unknown sweep axis {v['sweep.axis']!r}")
        if v["sweep.axis"]:
            axis, values = v["sweep.axis"], v["sweep.values"]
            if len(values) < 3:
                problems.append("sweep needs at least three values")
            if any(val <= 0 for val in values):
                problems.append("sweep values must be positive")
            elif axis in ("mu", "iota3") and values and not spans_two_decades(values):
                problems.append("a rate fit needs sweep values spanning at least two decades")
            if axis in ("mu", "log_horizon") and max(values, default=0.0) > 1.0:
                problems.append(f"{axis} sweep values must not exceed 1")
        problems += [f"{key} must be below n_x/2 in magnitude (a higher mode aliases onto the grid)"
                     for key in ("initial.eta0_mode", "initial.psi_mode") if abs(v[key]) >= v["grid.n_x"] / 2]
        if v["grid.d"] == 2 and v["initial.recipe"] == "streamfunction":
            problems.append("streamfunction initial data is d = 1 only")
        if v["grid.d"] == 2 and v["sweep.axis"] == "iota3":
            problems.append("an iota3 sweep is d = 1 only (its distance resamples columns)")
        # on the parameters a run uses: a mu sweep's members take their own mu
        # (one with delta > mu is run and excluded as PreparationFailed), and
        # a log_horizon member's delta is at most its mu by construction
        if (v["initial.recipe"] == "well_prepared" and v["sweep.axis"] not in ("mu", "log_horizon")
                and v["params.delta"] > v["params.mu"]):
            problems.append(
                "well-prepared runs require weak density variations (delta <= mu)"
            )
        try:
            grid = self.grid()
        except ValueError as exc:
            problems.append(str(exc))
        else:
            problems += [f"{key} = {v[key]:g} is too high for grid.n_r = {grid.n_r}: its norms would take more "
                         f"than the {grid.n_r - 4} vertical derivatives the stencil supports"
                         for key, k in self._vertical_derivatives().items() if k > grid.n_r - 4]
            if v["bathymetry.preset"] == "file" and v["bathymetry.path"]:
                try:
                    Bathymetry.from_file(grid, v["bathymetry.path"])
                except ConfigError as exc:
                    problems.append(str(exc))
        try:
            self.params()
        except ValueError as exc:
            problems.append(str(exc))
        for value in v["sweep.values"] if v["sweep.axis"] else ():
            try:
                self.member_params(value)
            except ValueError as exc:
                problems.append(f"sweep member {v['sweep.axis']} = {value:g}: {exc}")
        return problems

    def _vertical_derivatives(self) -> dict:
        """Key -> the most vertical derivatives a norm of the run takes for
        it (``spectral.sobolev_norm``): int(s) for the direct energy, the
        comparison and the well-prepared recipe, int(s0 + 1) for E_low, and
        int(s - 1) for the mollified vorticity.  A config that may run the
        mollified scheme (its scheme.kind or an iota3 sweep) is held to that
        scheme's norms, which the direct scheme's include."""
        v = self.values
        if not np.isfinite([v["run.s"], v["run.s0"]]).all():
            return {}
        if v["scheme.kind"] == "mollified" or v["sweep.axis"] == "iota3":
            return {"run.s": int(v["run.s"] - (v["initial.recipe"] != "well_prepared"))}
        return {"run.s": int(v["run.s"]), "run.s0": int(v["run.s0"] + 1)}

    def grid(self) -> StripGrid:
        v = self.values
        return StripGrid(n_x=v["grid.n_x"], n_r=v["grid.n_r"], length=v["grid.length"], d=v["grid.d"])

    def params(self, mu: float | None = None, delta: float | None = None) -> PhysParams:
        v = self.values
        return PhysParams(
            eps=v["params.eps"],
            beta=v["params.beta"],
            mu=v["params.mu"] if mu is None else mu,
            delta=v["params.delta"] if delta is None else delta,
            g=v["params.g"],
            rho_bar=v["params.rho_bar"],
            c_star=v["limits.c_star"],
        )

    def member_params(self, value: float) -> PhysParams:
        """Parameters of the sweep member at axis value ``value``: mu = value
        (and delta, when sweep.delta_tracks_mu), eps = value with mu = eps^2
        and delta at most mu (log_horizon), or the run's own (iota3)."""
        axis = self["sweep.axis"]
        if axis == "mu":
            return self.params(mu=value, delta=(value if self["sweep.delta_tracks_mu"] else None))
        base = self.params()
        if axis == "log_horizon":
            return replace(base, eps=value, mu=value * value, delta=min(base.delta, value * value))
        return base

    def dump(self) -> str:
        return "\n".join(f"{k} = {self.values[k]}" for k in sorted(self.values))
