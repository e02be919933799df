"""Snapshot serialization, columnar results files, and run manifests."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .dynamics import StripState
from .geometry import PhysParams
from .grid import StripGrid

RESULTS_HEADER = (
    "# mu eps beta delta t err_V err_eta err_w shear rho_norm E_s taylor_min"
)


def save_snapshot(path, state: StripState, grid: StripGrid, params: PhysParams, fmt: str = "npz"):
    """Self-describing snapshot of a direct-scheme state: header (grid,
    params, t, scheme tag) then the fields in fixed order V, w, rho, eta0."""
    path = Path(path)
    header = {
        "d": grid.d,
        "n_x": grid.n_x,
        "n_r": grid.n_r,
        "length": grid.length,
        "eps": params.eps,
        "beta": params.beta,
        "mu": params.mu,
        "delta": params.delta,
        "g": params.g,
        "rho_bar": params.rho_bar,
        "t": state.t,
        "scheme": "direct",
    }
    if fmt == "npz":
        np.savez(
            path,
            header=json.dumps(header, sort_keys=True),
            V=state.V,
            w=state.w,
            rho=state.rho,
            eta0=state.eta0,
        )
        return
    if fmt == "text":
        with open(path, "w") as fh:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            for name, arr in (("V", state.V), ("w", state.w), ("rho", state.rho), ("eta0", state.eta0)):
                fh.write(f"# field {name} shape {' '.join(map(str, arr.shape))}\n")
                np.savetxt(fh, arr.reshape(-1, 1), fmt="%.17e")
        return
    raise ValueError(f"unknown snapshot format {fmt!r}")


def load_snapshot(path):
    path = Path(path)
    if path.suffix == ".npz" or path.with_suffix("").suffix == ".npz":
        data = np.load(path, allow_pickle=False)
        header = json.loads(str(data["header"]))
        state = StripState(data["V"], data["w"], data["rho"], data["eta0"], header["t"])
        return state, header
    with open(path) as fh:
        header = json.loads(fh.readline().lstrip("# ").strip())
        fields = {}
        name, shape, buf = None, None, []

        def flush():
            if name is not None:
                fields[name] = np.array(buf, dtype=float).reshape(shape)

        for line in fh:
            if line.startswith("# field"):
                flush()
                parts = line.split()
                name = parts[2]
                shape = tuple(int(p) for p in parts[4:])
                buf = []
            else:
                buf.append(float(line))
        flush()
    state = StripState(fields["V"], fields["w"], fields["rho"], fields["eta0"], header["t"])
    return state, header


class ResultsWriter:
    """Single-writer columnar time-series file."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w")
        self._fh.write(RESULTS_HEADER + "\n")

    def row(self, params: PhysParams, t, report=None, comparison=None, energy=None):
        """One row; ``energy`` fills the E_s column of runs that have a scheme
        energy but no EnergyReport (the mollified integrator)."""

        def f(x):
            return "%.17e" % x

        err_V = err_eta = err_w = shear = rho_norm = float("nan")
        E_s = taylor = float("nan")
        if energy is not None:
            E_s = energy
        if comparison is not None:
            err_V, err_eta, err_w = comparison.err_V, comparison.err_eta, comparison.err_w
            shear, rho_norm = comparison.shear, comparison.rho_norm
        if report is not None:
            E_s, taylor = report.E_s, report.taylor_min
            if comparison is None:
                shear = report.shear_ratio
        cols = [
            params.mu, params.eps, params.beta, params.delta, t,
            err_V, err_eta, err_w, shear, rho_norm, E_s, taylor,
        ]
        self._fh.write(" ".join(f(c) for c in cols) + "\n")

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_rate_summary(path, axis: str, values, errors, fit):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# axis {axis}\n# value error\n")
        for v, e in zip(values, errors):
            fh.write("%.17e %.17e\n" % (v, e))
        fh.write(
            "# slope %.12f intercept %.12f residual %.6e degenerate %d\n"
            % (fit.slope, fit.intercept, fit.residual, int(fit.degenerate))
        )


def content_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_manifest(path, config_text: str, status: str, extra: dict | None = None):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"hash = {content_hash(config_text)}\n")
        fh.write(f"status = {status}\n")
        for k, v in (extra or {}).items():
            fh.write(f"{k} = {v}\n")
        fh.write("# --- config echo ---\n")
        for line in config_text.rstrip().splitlines():
            fh.write(f"# {line}\n")
