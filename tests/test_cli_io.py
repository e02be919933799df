import ctypes
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from stripflow import Bathymetry, PhysParams, StripGrid
from stripflow.cli import main
from stripflow import config
from stripflow.config import ExperimentConfig, parse_config_text
from stripflow.diagnostics import fit_rate
from stripflow.dynamics import StripState
from stripflow.errors import ConfigError, NoConvergence
from stripflow import experiments
from stripflow.io import (
    RESULTS_HEADER,
    ResultsWriter,
    content_hash,
    load_snapshot,
    save_snapshot,
    write_manifest,
    write_rate_summary,
)
from stripflow.shallow import ComparisonReport

from conftest import random_band_limited

BASE_CONFIG = """
# minimal fast run
params.eps = 0.3
params.beta = 0.4
params.mu = 0.01
grid.n_x = 32
grid.n_r = 12
bathymetry.preset = cosine
bathymetry.amplitude = 0.2
initial.recipe = rest
initial.eta0_amplitude = 0.05
run.T = 0.05
run.cadence = 5
output.format = npz
"""

SMALL_GRID = "\ngrid.n_x = 16\ngrid.n_r = 8\n"

# the bases a hostile value is set on: the base config (a direct run from
# rest), the two other initial recipes and the mollified scheme
HOSTILE_BASES = {
    "": "",
    "well_prepared": "initial.recipe = well_prepared\ninitial.sw_v_amplitude = 0.05\n",
    "streamfunction": "initial.recipe = streamfunction\ninitial.psi_amplitude = 0.05\n",
    "mollified": "scheme.kind = mollified\nscheme.iota1 = 0.05\nscheme.iota2 = 0.05\nscheme.iota3 = 0.05\n",
}

# on each base, every numeric key at 0, -1, 1e300 and 1e-300; the grid sizes
# at 0, -1 and 7, so that no case allocates a large grid
HOSTILE = [
    (base, key, value)
    for base in HOSTILE_BASES
    for key, default in config._DEFAULTS.items()
    if isinstance(default, (int, float)) and not isinstance(default, bool)
    for value in (("0", "-1", "7") if key in ("grid.n_x", "grid.n_r") else ("0", "-1", "1e300", "1e-300"))
]


def _openblas_threads(delay: float) -> tuple:
    """(pid, thread count of each OpenBLAS loaded in the process), read as
    perfbench/run.py:_openblas reads them, after ``delay`` seconds."""
    time.sleep(delay)
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    threads = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_int
                threads.append(get())
                break
    return os.getpid(), threads


def test_sweep_workers_run_one_blas_thread():
    # two workers with a BLAS thread per core each oversubscribe the machine:
    # a jobs = 2 sweep ran 2 to 4 times slower than jobs = 1 on 2 cores
    _, parent_threads = _openblas_threads(0.0)
    if not parent_threads:
        pytest.skip("no OpenBLAS loaded")
    with experiments.worker_pool(2) as pool:
        reports = list(pool.map(_openblas_threads, [0.2] * 4))
    assert len({pid for pid, _ in reports}) == 2
    assert all(threads == [1] * len(parent_threads) for _, threads in reports)
    assert _openblas_threads(0.0)[1] == parent_threads


class TestConfig:
    def test_defaults_and_overrides(self):
        cfg = ExperimentConfig.from_text(BASE_CONFIG)
        assert cfg["params.eps"] == 0.3
        assert cfg["grid.n_x"] == 32
        assert cfg["params.g"] == 1.0  # default survives
        assert cfg.validate() == []

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("params.nope = 3")

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("params.eps 0.3")

    def test_sweep_validation(self):
        cfg = ExperimentConfig.from_text(BASE_CONFIG + "\nsweep.axis = mu\nsweep.values = 0.1, 0.01\n")
        assert any("three values" in p for p in cfg.validate())

    @pytest.mark.parametrize("axis, values", [("mu", "2, 0.1, 0.01"), ("log_horizon", "2, 0.2, 0.1")])
    def test_sweep_values_out_of_range(self, axis, values):
        cfg = ExperimentConfig.from_text(BASE_CONFIG + f"\nsweep.axis = {axis}\nsweep.values = {values}\n")
        assert any("must not exceed 1" in p for p in cfg.validate())

    def test_non_finite_sweep_value(self):
        cfg = ExperimentConfig.from_text(BASE_CONFIG + "\nsweep.axis = mu\nsweep.values = 0.1, nan, 0.001\n")
        assert "sweep.values must be finite" in cfg.validate()

    @pytest.mark.parametrize("axis", ["mu", "iota3"])
    def test_sweep_span_below_two_decades(self, axis):
        cfg = ExperimentConfig.from_text(BASE_CONFIG + f"\nsweep.axis = {axis}\nsweep.values = 0.1, 0.05, 0.02\n")
        assert any("two decades" in p for p in cfg.validate())

    @pytest.mark.parametrize("path", sorted(Path(__file__).parent.parent.glob("configs/*.cfg")))
    def test_shipped_configs_are_valid(self, path):
        assert ExperimentConfig.from_file(path).validate() == []

    def test_weak_density_guard(self):
        text = BASE_CONFIG + "\ninitial.recipe = well_prepared\nparams.delta = 0.5\n"
        cfg = ExperimentConfig.from_text(text)
        assert any("delta <= mu" in p for p in cfg.validate())

    @pytest.mark.parametrize("axis,values,rejected", [
        ("mu", "1, 0.1, 0.01", False),
        ("log_horizon", "0.5, 0.2, 0.1", False),
        ("iota3", "1, 0.1, 0.01", True),
    ])
    def test_weak_density_guard_reads_the_run_parameters(self, axis, values, rejected):
        # the members of a mu or log_horizon sweep never use params.mu, and
        # each of these has delta <= mu; the rule rejected the mu sweep
        text = BASE_CONFIG + (
            f"\ninitial.recipe = well_prepared\nparams.mu = 0.001\nparams.delta = 0.005\n"
            f"sweep.axis = {axis}\nsweep.values = {values}\n"
        )
        problems = ExperimentConfig.from_text(text).validate()
        assert any("delta <= mu" in p for p in problems) == rejected
        assert rejected or problems == []

    @pytest.mark.parametrize("extra", [
        "run.s = 7",
        "run.s0 = 6",
        "run.s = 7\nscheme.kind = mollified",
        "run.s = 5\nscheme.kind = mollified\ninitial.recipe = well_prepared",
    ], ids=["s", "s0", "mollified-s", "mollified-well_prepared-s"])
    def test_sobolev_order_beyond_the_vertical_stencil_exit_code(self, tmp_path, extra):
        # on 16 x 8 a norm takes at most 4 vertical derivatives; each of these
        # runs halted at t = 0 with InsufficientResolution (exit 3)
        text = BASE_CONFIG + SMALL_GRID + extra + "\n"
        key = extra.split()[0]
        assert any(p.startswith(f"{key} = ") for p in ExperimentConfig.from_text(text).validate())
        path = tmp_path / "high.cfg"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("extra", ["run.s = 5\nscheme.kind = mollified", "run.s0 = 3"], ids=["mollified-s", "s0"])
    def test_sobolev_orders_the_stencil_takes_still_run(self, tmp_path, extra):
        # the mollified scheme measures its vorticity in H^(s-1), and E_low
        # takes int(s0 + 1) = 4 vertical derivatives
        path = tmp_path / "edge.cfg"
        path.write_text(BASE_CONFIG + SMALL_GRID + extra + "\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("raw,value", [("true", True), ("On", True), ("1", True), ("no", False), ("OFF", False)])
    def test_bool_words(self, raw, value):
        assert parse_config_text(f"sweep.delta_tracks_mu = {raw}")["sweep.delta_tracks_mu"] is value

    def test_bool_typo_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("sweep.delta_tracks_mu = ture")
        path = tmp_path / "typo.cfg"
        path.write_text(BASE_CONFIG + "\nsweep.delta_tracks_mu = ture\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("raw,value", [("16", 16), ("16.0", 16), ("1e2", 100)])
    def test_integral_value_of_integer_key(self, raw, value):
        assert parse_config_text(f"grid.n_x = {raw}")["grid.n_x"] == value

    def test_value_lists(self):
        cfg = ExperimentConfig.from_text("sweep.values = 1e-1, 1e-2, 1e-3")
        assert cfg["sweep.values"] == (0.1, 0.01, 0.001)


class TestSnapshots:
    @pytest.mark.parametrize("fmt,suffix", [("npz", "npz"), ("text", "txt")])
    def test_round_trip(self, tmp_path, grid, rng, fmt, suffix):
        params = PhysParams(eps=0.3, beta=0.4, mu=0.01)
        st = StripState.rest(grid)
        st.eta0 = 0.05 * np.cos(grid.x)
        st.V[0] = random_band_limited(grid, rng, amp=0.1)
        st.t = 1.25
        path = tmp_path / f"snap.{suffix}"
        save_snapshot(path, st, grid, params, fmt)
        loaded, header = load_snapshot(path)
        assert header["n_x"] == grid.n_x
        assert header["t"] == 1.25
        assert np.allclose(loaded.V, st.V)
        assert np.allclose(loaded.eta0, st.eta0)

    def test_results_writer_columns(self, tmp_path):
        params = PhysParams(eps=0.3, beta=0.4, mu=0.01)
        path = tmp_path / "results.txt"
        with ResultsWriter(path) as w:
            w.row(params, 0.5)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# mu eps beta delta t")
        assert len(lines[1].split()) == 12

    def test_manifest_written(self, tmp_path):
        config_text = "a = 1\nb = 2"
        write_manifest(tmp_path / "m.txt", config_text, "Continue", {"k": "v"})
        text = (tmp_path / "m.txt").read_text()
        assert f"hash = {content_hash(config_text)}" in text
        assert "status = Continue" in text
        assert "# a = 1" in text


class TestCLI:
    def _write(self, tmp_path, extra=""):
        path = tmp_path / "run.cfg"
        path.write_text(BASE_CONFIG + extra)
        return path

    def test_run_success(self, tmp_path):
        cfg = self._write(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "results.txt").exists()
        assert (out / "manifest.txt").exists()
        assert (out / "final.npz").exists()

    def test_run_determinism(self, tmp_path):
        cfg = self._write(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "results.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("params.eps = not_a_number")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_invalid_recipe_combination(self, tmp_path):
        cfg = self._write(tmp_path, "\ninitial.recipe = well_prepared\nparams.delta = 0.9\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("setting", [
        "run.cadence = 0", "run.cfl = 0", "run.cfl = -1", "run.dt = -1",
        "run.T = nan", "run.T = inf", "run.cfl = nan", "initial.eta0_amplitude = nan", "run.dt = nan",
        "run.cadence = inf",
    ])
    def test_unusable_run_setting_exit_code(self, tmp_path, setting):
        cfg = self._write(tmp_path, f"\n{setting}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("setting", [
        "scheme.kind = mollified\nscheme.iota1 = -1", "scheme.kind = mollified\nscheme.iota2 = -1",
        "scheme.kind = mollified\nscheme.iota3 = -1", "run.s = -3", "run.s0 = -1",
        "limits.norm_factor = -1", "limits.norm_factor = 0", "rate.min = 5\nrate.max = 1",
        SMALL_GRID + "run.T = 2\nrun.cfl = 0.6",
        SMALL_GRID + "run.T = 2\nrun.cfl = 0.6\nscheme.kind = mollified\nscheme.iota3 = 0.1",
        SMALL_GRID + "run.T = 2\nrun.cfl = 0.6\ninitial.recipe = well_prepared",
    ], ids=["iota1", "iota2", "iota3", "s", "s0", "norm_factor-negative", "norm_factor-zero", "rate-window",
            "cfl-direct", "cfl-mollified", "cfl-well-prepared"])
    def test_impossible_setting_exit_code(self, tmp_path, setting):
        # a negative cutoff raised ValueError from MollParams and a negative s
        # from the Sobolev norm (exit 1); a negative s0 ran on unchecked; a
        # non-positive norm_factor halted every run at t = 0 (exit 3); an
        # empty rate window was accepted, although no sweep fit could pass;
        # run.cfl above CFL_MAX halted every run with CFLViolation at its
        # first step (exit 3)
        cfg = self._write(tmp_path, f"\n{setting}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def _sweep_with_two_workers(self, cfg, out):
        """The CLI sweep of ``cfg`` into ``out`` with --jobs 2, in a fresh
        process (a traceback of a worker pool reaches its stderr)."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-m", "stripflow.cli", "sweep", "--config", str(cfg), "--out", str(out), "--jobs", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_negative_cutoff_sweep_exit_code(self, tmp_path):
        # the first member's ValueError escaped _member and took down the
        # worker pool with a traceback (exit 1)
        extra = "\nscheme.iota1 = -1\nsweep.axis = iota3\nsweep.values = 1e-1, 1e-2, 1e-3\n"
        cfg, out = self._write(tmp_path, extra), tmp_path / "s"
        proc = self._sweep_with_two_workers(cfg, out)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "scheme.iota1 must not be negative" in proc.stderr
        assert not out.exists()

    def test_overflowing_norm_factor_sweep_exit_code(self, tmp_path):
        # limits.norm_factor**2 raised OverflowError in each cutoff member,
        # which escaped _member and took down the worker pool (exit 1)
        extra = SMALL_GRID + "run.T = 0.02\nlimits.norm_factor = 1e300\n"
        extra += "sweep.axis = iota3\nsweep.values = 1e-1, 1e-2, 1e-3\n"
        proc = self._sweep_with_two_workers(self._write(tmp_path, extra), tmp_path / "s")
        assert proc.returncode in (0, 3, 4), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_sweep_member_parameters_exit_code(self, tmp_path, capsys):
        # mu = eps^2 of the member eps = 1e-200 underflows to 0: the
        # ValueError of PhysParams escaped _member (exit 1, a traceback)
        extra = SMALL_GRID + "run.T = 0.02\nsweep.axis = log_horizon\nsweep.values = 0.5, 0.2, 1e-200\n"
        cfg, out = self._write(tmp_path, extra), tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "sweep member log_horizon = 1e-200: mu must lie in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_sobolev_order_exit_code(self, tmp_path, capsys):
        # run.s = 0 passed validate, then the H^(s-1) vorticity norm raised
        # "ValueError: k must be >= 0" (exit 1)
        cfg = self._write(tmp_path, "\nrun.s = 0\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "H^(s-1)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_output_format_exit_code(self, tmp_path, capsys):
        # output.format = txt marched to T, then io.save_snapshot raised
        # ValueError (exit 1) and no manifest.txt was written
        cfg = self._write(tmp_path, SMALL_GRID + "run.T = 0.02\noutput.format = txt\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "output.format" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_two_dimensional_well_prepared_shear_run(self, tmp_path):
        # the d = 2 shear profile was broadcast to (n_r+1, n_r+1, n, n): every
        # d = 2 well-prepared run with shear exited 1 with a ValueError
        extra = ("\ngrid.d = 2\ngrid.n_x = 16\ngrid.n_r = 12\nrun.T = 0.02\ninitial.recipe = well_prepared\n"
                 "initial.sw_v_amplitude = 0.05\ninitial.shear_amp = 0.01\ninitial.rho_amp = 0.2\n"
                 "params.delta = 0.005\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(self._write(tmp_path, extra)), "--out", str(out)]) == 0
        assert "status = Continue" in (out / "manifest.txt").read_text()

    def test_march_error_keeps_its_name(self, tmp_path):
        # an error of the march, not of the initial data, was labelled
        # "init-failed: T = 1.000e+300 ..."
        cfg = self._write(tmp_path, SMALL_GRID + "run.T = 1e300\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        status = (tmp_path / "o" / "manifest.txt").read_text().splitlines()[1]
        assert status.startswith("status = TooManySteps: T = 1.000e+300")

    @pytest.mark.parametrize("setting", [
        "initial.eta0_mode = 100", "initial.eta0_mode = -8", "initial.recipe = streamfunction\ninitial.psi_mode = 8",
    ], ids=["eta0-100", "eta0-nyquist", "psi-nyquist"])
    def test_aliased_initial_mode_exit_code(self, tmp_path, setting, capsys):
        # a mode at or past n_x/2 = 8 ran with the mode aliased onto the grid
        cfg = self._write(tmp_path, SMALL_GRID + f"run.T = 0.02\n{setting}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "aliases onto the grid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("base, key, value", HOSTILE,
                             ids=["-".join(filter(None, (b, f"{k}={v}"))) for b, k, v in HOSTILE])
    def test_hostile_value_exit_code(self, tmp_path, base, key, value):
        # a 16 x 8 run with one hostile value ends with a documented exit code
        # and lets no exception escape; a mollified run raised OverflowError
        # (exit 1) at limits.norm_factor = 1e300 and at grid.length = 1e-300
        cfg = self._write(tmp_path, SMALL_GRID + f"run.T = 0.02\n{HOSTILE_BASES[base]}{key} = {value}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) in (0, 2, 3, 4)

    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only: with it blocked, the package
        # imports, makes a direct run and resamples a transported map
        cfg = self._write(tmp_path, SMALL_GRID)
        script = f"""
import sys
sys.modules["scipy"] = None
import stripflow.cli, stripflow.experiments
from stripflow import Bathymetry, PhysParams, StripGrid
from stripflow.dynamics import StripState
from stripflow.mollified import from_strip_state, slag_to_sigma

assert stripflow.cli.main(["run", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "o")!r}]) == 0
grid = StripGrid(n_x=16, n_r=8)
params = PhysParams(eps=0.3, beta=0.4, mu=0.01)
bath = Bathymetry.cosine(grid, 0.2)
slag_to_sigma(from_strip_state(StripState.rest(grid), bath, params), bath, params)
"""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_imports_without_the_process_pool(self):
        # only a sweep with workers loads multiprocessing (experiments.worker_pool)
        script = 'import sys; import stripflow.cli, stripflow.experiments; assert "multiprocessing" not in sys.modules'
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("setting", ["grid.n_x = 16.7", "run.cadence = 1.5"], ids=["n_x", "cadence"])
    def test_fractional_integer_setting_exit_code(self, tmp_path, setting):
        # an integer key is not truncated: 16.7 grid points is a typo
        cfg = self._write(tmp_path, f"\n{setting}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_two_dimensional_streamfunction_run_exit_code(self, tmp_path):
        # init_from_streamfunction is d = 1 only: ValueError, exit 1
        cfg = self._write(tmp_path, "\ngrid.d = 2\ngrid.n_x = 16\ngrid.n_r = 8\ninitial.recipe = streamfunction\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_two_dimensional_iota3_sweep_exit_code(self, tmp_path):
        # slag_to_sigma is d = 1 only: NotImplementedError, exit 1, no manifest
        extra = "\ngrid.d = 2\ngrid.n_x = 16\ngrid.n_r = 8\nsweep.axis = iota3\nsweep.values = 1e-1, 1e-2, 1e-3\n"
        cfg = self._write(tmp_path, extra)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "content", [None, "0.0\n1.0\n2.0\n", "0.0 0.1\n1.0 nan\n2.0 0.0\n"],
        ids=["missing", "one-column", "nan-sample"],
    )
    def test_unreadable_bathymetry_file_exit_code(self, tmp_path, content):
        bottom = tmp_path / "bottom.txt"
        if content is not None:
            bottom.write_text(content)
        cfg = self._write(tmp_path, f"\nbathymetry.preset = file\nbathymetry.path = {bottom}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_check_command(self):
        assert main(["check"]) == 0

    def test_rate_command(self, tmp_path):
        params_by_mu = [(1e-1, 0.3), (1e-2, 0.1), (1e-3, 0.03)]
        path = tmp_path / "results.txt"
        with ResultsWriter(path) as w:
            for mu, err in params_by_mu:
                p = PhysParams(eps=0.3, beta=0.4, mu=mu)
                comp = ComparisonReport(err / 2, err / 2, 0, 0, 1.0)
                w.row(p, 1.0, None, comp)
        code = main(["rate", "--results", str(path), "--window", "0.3", "0.7"])
        assert code == 0
        code = main(["rate", "--results", str(path), "--window", "0.9", "1.1"])
        assert code == 4

    def test_rate_on_too_few_samples_is_a_failed_fit(self, tmp_path, capsys):
        path = tmp_path / "results.txt"
        with ResultsWriter(path) as w:
            for mu in (1e-1, 1e-3):
                w.row(PhysParams(eps=0.3, beta=0.4, mu=mu), 1.0, None, ComparisonReport(mu, mu, 0, 0, 1.0))
        assert main(["rate", "--results", str(path)]) == 4
        assert "three samples" in capsys.readouterr().err

    def test_rate_fits_named_columns(self, tmp_path, capsys):
        # err_V + err_eta = 2 mu^0.75 at the last time of each member; the
        # earlier rows and the other columns must not enter the fit
        path = tmp_path / "results.txt"
        with ResultsWriter(path) as w:
            for mu in (1e-1, 1e-2, 1e-3, 1e-4):
                p = PhysParams(eps=0.3, beta=0.4, mu=mu, delta=0.5 * mu)
                w.row(p, 0.0, None, ComparisonReport(5.0, 5.0, 7.0, 0.2, 1.0))
                err = mu**0.75
                w.row(p, 1.0, None, ComparisonReport(err, err, 3.0, 0.5, 1.0))
        assert main(["rate", "--results", str(path), "--window", "0.74", "0.76"]) == 0
        assert "slope = 0.7500" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, command, kind):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"params.eps = 0.3\n\xff\xfe\n")
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", [None, "mu err\n0.1 0.2\n", "", "two_column_rates"],
                             ids=["missing", "non_numeric", "empty", "two_column_rates"])
    def test_unreadable_results_exit_code(self, tmp_path, capsys, content):
        path = tmp_path / "results.txt"
        if content == "two_column_rates":
            samples = [(1e-1, 0.3), (1e-2, 0.1), (1e-3, 0.03)]
            write_rate_summary(path, "mu", *zip(*samples), fit_rate(samples))
        elif content is not None:
            path.write_text(content)
        assert main(["rate", "--results", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_sweep_small(self, tmp_path):
        extra = """
initial.recipe = well_prepared
initial.eta0_amplitude = 0.08
initial.sw_v_amplitude = 0.08
initial.shear_amp = 0.0
initial.rho_amp = 0.0
grid.n_x = 32
grid.n_r = 12
run.T = 0.05
sweep.axis = mu
sweep.values = 1e-1, 1e-2, 1e-3
sweep.delta_tracks_mu = true
rate.min = 0.2
rate.max = 1.5
"""
        cfg = self._write(tmp_path, extra)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "rates.txt").exists()
        text = (out / "rates.txt").read_text()
        assert "slope" in text

    def test_snapshot_text_format(self, tmp_path):
        cfg = self._write(tmp_path, "\noutput.format = text\n")
        out = tmp_path / "out_text"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        loaded, header = load_snapshot(out / "final.txt")
        assert header["scheme"] == "direct"
        assert loaded.eta0.shape == (32,)

    def test_exact_rest_run_has_zero_energy_series(self, tmp_path):
        cfg = self._write(tmp_path, "\ninitial.eta0_amplitude = 0.0\nrun.T = 0.2\n")
        out = tmp_path / "rest"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--verbose"]) == 0
        data = np.loadtxt(out / "results.txt")
        assert np.abs(data[:, 10]).max() == 0.0  # E_s column
        assert "Continue" in (out / "manifest.txt").read_text()
        # a verbose run prints its status and writes no further file
        assert sorted(f.name for f in out.iterdir()) == ["final.npz", "manifest.txt", "results.txt"]

    def test_mollified_scheme_run(self, tmp_path):
        extra = "\nscheme.kind = mollified\nscheme.iota3 = 0.01\nrun.T = 0.02\n"
        cfg = self._write(tmp_path, extra)
        out = tmp_path / "moll"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert "scheme = mollified" in (out / "manifest.txt").read_text()

    def test_mollified_run_writes_scheme_energies(self, tmp_path, monkeypatch):
        trajectories = []

        def recording_run_moll(*args, **kwargs):
            trajectories.append(run_moll(*args, **kwargs))
            return trajectories[-1]

        run_moll = experiments.run_moll
        monkeypatch.setattr(experiments, "run_moll", recording_run_moll)
        extra = "\nscheme.kind = mollified\nscheme.iota3 = 0.01\nrun.T = 0.02\n"
        out = tmp_path / "moll"
        assert main(["run", "--config", str(self._write(tmp_path, extra)), "--out", str(out)]) == 0
        data = np.loadtxt(out / "results.txt", ndmin=2)
        E_s = data[:, RESULTS_HEADER.lstrip("#").split().index("E_s")]
        assert np.isfinite(E_s).all()
        assert E_s.tolist() == trajectories[0].energies

    def test_mollified_run_honours_run_keys(self, tmp_path):
        # the mollified run takes its step from run.dt and observes every
        # run.cadence steps and at T, as the direct run does
        extra = "\nscheme.kind = mollified\nscheme.iota3 = 0.01\nrun.T = 0.05\nrun.dt = 0.01\nrun.cadence = 2\n"
        out = tmp_path / "moll"
        assert main(["run", "--config", str(self._write(tmp_path, extra)), "--out", str(out)]) == 0
        data = np.loadtxt(out / "results.txt", ndmin=2)
        t = data[:, RESULTS_HEADER.lstrip("#").split().index("t")]
        assert t.shape == (4,) and np.allclose(t, [0.0, 0.02, 0.04, 0.05], rtol=0, atol=1e-12)
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert "n_steps = 5" in manifest and "dt = 0.01" in manifest

    def test_mollified_run_beyond_stability_bound_halts(self, tmp_path):
        # run.dt = 0.5 is 6.6 times the 0.4-factor CFL step of this run
        extra = "\nscheme.kind = mollified\nrun.T = 2\nrun.dt = 0.5\n"
        out = tmp_path / "moll"
        assert main(["run", "--config", str(self._write(tmp_path, extra)), "--out", str(out)]) == 3
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert "status = CFLViolation" in manifest and "final_t = 0.0" in manifest

    @pytest.mark.parametrize("extra", ["", "\nscheme.kind = mollified\nscheme.iota3 = 0.01\n"],
                             ids=["direct", "mollified"])
    def test_manifest_keeps_cfl_margin(self, tmp_path, extra):
        # the worst ratio of dt to the checked step bound, which the march
        # computed at every step and dropped
        out = tmp_path / "o"
        code, result = experiments.run_single(ExperimentConfig.from_text(BASE_CONFIG + extra), out)
        assert code == 0
        margin = result["record"].cfl_margin
        assert 0.0 < margin <= 1.0
        assert f"cfl_margin = {margin}" in (out / "manifest.txt").read_text().splitlines()

    def test_sweep_iota3_runs_share_one_step(self, tmp_path, monkeypatch):
        # each cutoff member marches its cutoff run and its zero-cutoff
        # reference with one step (run.dt when set) and at run.cadence
        calls = []

        def recording_run_moll(initial, moll, bathymetry, params, T, dt, **kwargs):
            rec = real_run_moll(initial, moll, bathymetry, params, T, dt, **kwargs)
            calls.append((moll.iota3, dt, kwargs.get("cadence"), rec))
            return rec

        real_run_moll = experiments.run_moll
        monkeypatch.setattr(experiments, "run_moll", recording_run_moll)
        text = BASE_CONFIG + "\nrun.T = 0.01\nsweep.axis = iota3\nsweep.values = 1e-1, 1e-2, 1e-3\n"
        experiments.sweep(ExperimentConfig.from_text(text + "run.dt = 0.005\n"), tmp_path / "fixed")
        assert [(dt, cadence) for _, dt, cadence, _ in calls] == [(0.005, 5)] * 6
        for member in (calls[0:2], calls[2:4], calls[4:6]):  # one cutoff run and one reference each
            assert sorted(c[0] == 0.0 for c in member) == [False, True]

        calls.clear()
        experiments.sweep(ExperimentConfig.from_text(text), tmp_path / "cfl")
        assert len(calls) == 6
        for cutoff, reference in zip(calls[::2], calls[1::2]):
            assert cutoff[3].dt == reference[3].dt

    def test_sweep_iota3_axis(self, tmp_path):
        extra = """
grid.n_x = 32
grid.n_r = 12
initial.recipe = rest
initial.eta0_amplitude = 0.05
run.T = 0.05
sweep.axis = iota3
sweep.values = 1e-1, 1e-2, 1e-3
rate.min = 0.5
rate.max = 1.5
"""
        cfg = self._write(tmp_path, extra)
        out = tmp_path / "iota"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code in (0, 4)  # the fit window is advisory at this tiny scale
        assert (out / "rates.txt").exists()

    def test_solver_halt_exit_code(self, tmp_path):
        # an unsatisfiable preparation target halts before execution -> 3
        extra = "\ninitial.recipe = well_prepared\ninitial.shear_amp = 5.0\nparams.delta = 0.0\n"
        cfg = self._write(tmp_path, extra)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "halt")]) == 3

    def test_sweep_partial_failure_excluded(self, tmp_path):
        # the smallest member violates the weak-density guard and is excluded
        extra = """
initial.recipe = well_prepared
initial.eta0_amplitude = 0.05
initial.sw_v_amplitude = 0.05
params.delta = 0.005
grid.n_x = 32
grid.n_r = 12
run.T = 0.02
sweep.axis = mu
sweep.values = 1e-1, 1e-2, 1e-3
"""
        cfg = self._write(tmp_path, extra)
        out = tmp_path / "partial"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert "excluded = 1" in (out / "manifest.txt").read_text()

    def test_sweep_log_horizon_axis(self, tmp_path):
        extra = """
grid.n_x = 32
grid.n_r = 12
params.beta = 1.0
bathymetry.amplitude = 0.2
initial.recipe = well_prepared
initial.eta0_amplitude = 0.05
initial.sw_v_amplitude = 0.05
run.T = 0.05
sweep.axis = log_horizon
sweep.values = 0.3, 0.2, 0.1
"""
        cfg = self._write(tmp_path, extra)
        out = tmp_path / "horizon"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        text = (out / "horizon.txt").read_text()
        assert "Continue" in text and len(text.splitlines()) == 4

    def test_log_horizon_member_error_is_its_last_comparison(self, tmp_path):
        # a log_horizon member computed its comparisons and reported NaN
        extra = SMALL_GRID + """
params.beta = 1.0
initial.recipe = well_prepared
initial.sw_v_amplitude = 0.05
run.T = 0.02
sweep.axis = log_horizon
sweep.values = 0.5, 0.2, 0.1
"""
        code, summary = experiments.sweep(ExperimentConfig.from_text(BASE_CONFIG + extra), tmp_path / "s")
        assert code == 0
        for m in summary["members"]:
            last = m["rows"][-1][3]
            assert m["error"] == last.err_V + last.err_eta

    def test_sweep_member_error_becomes_status(self, tmp_path, monkeypatch):
        # an error inside a cutoff member halts that member, not the sweep
        def failing_run_moll(*args, **kwargs):
            raise NoConvergence("synthetic")

        monkeypatch.setattr(experiments, "run_moll", failing_run_moll)
        extra = "\nsweep.axis = iota3\nsweep.values = 1e-1, 1e-2, 1e-3\n"
        cfg = ExperimentConfig.from_text(BASE_CONFIG + extra)
        code, summary = experiments.sweep(cfg, tmp_path / "iota")
        assert code == 3
        assert [m["status"] for m in summary["members"]] == ["NoConvergence"] * 3
        assert "excluded = 3" in (tmp_path / "iota" / "manifest.txt").read_text()

    def test_sweep_member_reports_halted_reference(self, tmp_path, monkeypatch):
        # a cutoff member whose zero-cutoff reference run halted is not a
        # Continue member: its distance is taken against a truncated run
        def run_moll(initial, moll, *args, **kwargs):
            traj = real_run_moll(initial, moll, *args, **kwargs)
            if moll.iota3 == 0.0:
                traj.status = "NoConvergence"
            return traj

        real_run_moll = experiments.run_moll
        monkeypatch.setattr(experiments, "run_moll", run_moll)
        extra = "\nrun.T = 0.01\nsweep.axis = iota3\nsweep.values = 1e-1, 1e-2, 1e-3\n"
        code, summary = experiments.sweep(ExperimentConfig.from_text(BASE_CONFIG + extra), tmp_path / "iota")
        assert code == 3
        assert [m["status"] for m in summary["members"]] == ["NoConvergence"] * 3

    def test_sweep_rejects_unusable_values_before_running(self, tmp_path, monkeypatch):
        # mu > 1 made the first member raise from PhysParams; a span below
        # two decades ran every member and then failed the fit
        def member(cfg, mu):
            raise AssertionError("a member ran")

        monkeypatch.setitem(experiments._AXES, "mu", (member, "mu"))
        for values in ("2, 0.1, 0.01", "0.1, 0.05, 0.02"):
            cfg = self._write(tmp_path, f"\nsweep.axis = mu\nsweep.values = {values}\n")
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"), "--jobs", "2"]) == 2
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("jobs", [2, 4, 64])
    def test_sweep_pool_has_at_most_one_worker_per_member(self, tmp_path, monkeypatch, jobs):
        # the fork start method starts every worker of the pool at once, so
        # the pool is sized by the members; a fake pool records the size and
        # maps serially, starting no process
        sizes = []

        class SerialPool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        def member(cfg, mu):
            return {"mu": mu, "error": mu, "status": "Continue", "rows": [], "achieved": 0.0, "drift": 0.0}

        monkeypatch.setattr(experiments, "worker_pool", SerialPool)
        monkeypatch.setitem(experiments._AXES, "mu", (member, "mu"))
        cfg = ExperimentConfig.from_text(BASE_CONFIG + "\nsweep.axis = mu\nsweep.values = 1e-1, 1e-2, 1e-3, 1e-4\n")
        code, summary = experiments.sweep(cfg, tmp_path / "s", jobs=jobs)
        assert code == 0 and len(summary["members"]) == 4
        assert sizes == [min(jobs, 4)]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_rejects_a_worker_count_below_one(self, tmp_path, monkeypatch, capsys, jobs):
        # such a count was accepted and ran the members serially
        def member(cfg, mu):
            raise AssertionError("a member ran")

        monkeypatch.setitem(experiments._AXES, "mu", (member, "mu"))
        cfg = self._write(tmp_path, "\nsweep.axis = mu\nsweep.values = 1e-1, 1e-2, 1e-3\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"), "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_api_calls_validate_before_running(self, tmp_path, monkeypatch):
        # the API entry points reject an invalid config themselves, before
        # any member runs or the output directory exists
        def member(args):
            raise AssertionError("a member ran")

        monkeypatch.setattr(experiments, "_member", member)
        cfg = ExperimentConfig.from_text(BASE_CONFIG + "\nsweep.axis = mu\nsweep.values = 2, 0.1, 0.01\n")
        with pytest.raises(ConfigError, match="must not exceed 1"):
            experiments.sweep(cfg, tmp_path / "s")
        with pytest.raises(ConfigError, match="sweep requires sweep.axis"):
            experiments.sweep(ExperimentConfig.from_text(BASE_CONFIG), tmp_path / "s")
        with pytest.raises(ConfigError, match="unknown bathymetry preset"):
            experiments.run_single(ExperimentConfig.from_text(BASE_CONFIG + "\nbathymetry.preset = volcano\n"),
                                   tmp_path / "r")
        assert not (tmp_path / "s").exists() and not (tmp_path / "r").exists()

    def test_sweep_unfittable_survivors_exit_4(self, tmp_path, monkeypatch):
        # the smallest member halts and the survivors span less than two
        # decades: the fit cannot be made, which is a fit failure (exit 4)
        def member(cfg, mu):
            status = "NoConvergence" if mu < 1e-2 else "Continue"
            return {"mu": mu, "error": mu, "status": status, "rows": [], "achieved": 0.0, "drift": 0.0}

        monkeypatch.setitem(experiments._AXES, "mu", (member, "mu"))
        cfg = self._write(tmp_path, "\nsweep.axis = mu\nsweep.values = 1e-1, 5e-2, 2e-2, 1e-3\n")
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 4
        manifest = (out / "manifest.txt").read_text()
        assert "status = exit=4" in manifest and "excluded = 1" in manifest
        assert "fit = failed: samples must span at least two decades" in manifest
        assert not (out / "rates.txt").exists()

    def test_sweep_verbose_prints_member_axis_value(self, tmp_path, capsys):
        extra = """
grid.n_x = 16
grid.n_r = 8
params.beta = 1.0
bathymetry.amplitude = 0.2
initial.recipe = well_prepared
initial.eta0_amplitude = 0.05
initial.sw_v_amplitude = 0.05
run.T = 0.01
sweep.axis = log_horizon
sweep.values = 0.3, 0.2, 0.1
"""
        cfg = self._write(tmp_path, extra)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "h"), "--verbose"]) == 0
        out = capsys.readouterr().out
        for eps in ("0.3", "0.2", "0.1"):
            assert f"[sweep] log_horizon={eps} " in out
