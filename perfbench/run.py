#!/usr/bin/env python3
"""stripflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``bench_workloads.WORKLOADS``) in this process, checks
its outputs, and prints a human-readable table followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

A *unit* is one complete piece of work of the workload (one sweep member, one
sweep, one cutoff study; see ``README.md``).  An untraced run (``--trace 0``)
runs whole units while the next one still fits into ``--seconds`` (at least
one); before each of the first ``SETUP_REPEATS`` units it times one cold start
in a fresh process.  It reports the end-to-end metrics:

* ``setup_s``: median over the cold starts of the time from the start of the
  fresh process (interpreter, imports) until its first integrator step begins
  (grid, bathymetry, initial state with its projection, the first
  preconditioner build, the t = 0 diagnostics).  The probe process stops
  there.
* ``wall_s``: median over units of the time from the first step until every
  output of the unit exists.
* ``step_p50_ms`` / ``step_p90_ms``: quantiles of the duration of each call of
  ``dynamics.step_rk4`` or ``mollified.step_rk4_slag``.
* ``peak_rss_mb``: peak resident memory of the process.

The times are scaled to a fixed core speed (``bench_speed``): co-tenant load on
a shared host slows a core by up to 1.7x for seconds to minutes at a time, and
a small fixed kernel timed between steps measures by how much.  The raw times
and the speed factor are printed next to them.  ``fail_frac`` (also the
``failed`` / ``attempted`` fields) counts member runs that halted, raised, or
failed an output check.

A traced run (``--trace 1``) runs one unit untraced, then two units with a
span at every layer boundary (``bench_trace.SPANS``), checks that the traced
outputs are bit-identical to the untraced ones and that the exact counts repeat
between the two traced units, and reports the per-layer metrics.  Spans and a
summary are written to ``perfbench/out/``.

BLAS runs single-threaded (``BLAS_THREADS``); the environment is printed.
"""

import os
import sys
import time

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT = 120  # seconds per set-up probe


def _import_program():
    """Import stripflow from this checkout's ``src`` only, then the
    benchmark's own modules."""
    sys.path.insert(0, str(SRC))
    try:
        import stripflow
        import stripflow.experiments  # noqa: F401  (pulls in every solver module)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import stripflow from {SRC}: {exc}")
    if Path(stripflow.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: stripflow was imported from {stripflow.__file__}, not from {SRC}")
    import bench_speed
    import bench_trace
    import bench_workloads

    return bench_speed, bench_trace, bench_workloads


# -- environment record ---------------------------------------------------------


_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_config64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_get_config", "scipy_openblas_get_num_threads"),
    ("openblas_get_config64_", "openblas_get_num_threads64_"),
    ("openblas_get_config", "openblas_get_num_threads"),
)


def _openblas():
    """Build string and thread count of every OpenBLAS loaded in-process."""
    found = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for cfg_name, threads_name in _OPENBLAS_SYMBOLS:
            cfg, threads = getattr(lib, cfg_name, None), getattr(lib, threads_name, None)
            if cfg is not None and threads is not None:
                cfg.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                entry["config"], entry["threads"] = cfg().decode(), threads()
                break
        found.append(entry)
    return found


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_hash = hashlib.sha256()
    for p in sorted((SRC / "stripflow").glob("*.py")):
        src_hash.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_threads_set": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest()[:16],
    }


# -- running units ----------------------------------------------------------------


def _clear_preconditioner_cache():
    """Each unit pays its own preconditioner builds, as a fresh process
    would."""
    from stripflow import pressure

    cached = getattr(pressure, "_flat_inverse", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


def probe_setup(workload, clock, bench_trace):
    """In a fresh process: run a unit until its first step begins, then print
    the monotonic clock, which all processes of the machine share."""
    clock.abort_at_first_step = True
    try:
        workload.run_unit()
    except bench_trace.FirstStep:
        print(f"first_step_at {time.monotonic()!r}", flush=True)


def cold_setup(args, speed):
    """(raw seconds, speed factor) from the start of a probe process to its
    first step; the core speed is sampled just before and just after."""
    for _ in range(speed.SPAN):
        speed.sample()
    t0, p0 = time.monotonic(), time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT,
    )
    t1, p1 = time.monotonic(), time.perf_counter()
    for _ in range(speed.SPAN):
        speed.sample()
    stamp = [ln.split()[1] for ln in proc.stdout.splitlines() if ln.startswith("first_step_at ")]
    if proc.returncode != 0 or not stamp:
        print(f"  set-up probe reached no step (exit {proc.returncode}): "
              f"{(proc.stdout + proc.stderr).strip()[-400:]}")
        raw = t1 - t0
    else:
        raw = float(stamp[0]) - t0
    return raw, speed.factor(p0, p1)


def run_unit(workload, clock) -> dict:
    _clear_preconditioner_cache()
    clock.reset()
    speed = clock.speed
    spent0 = speed.spent if speed else 0.0
    t0 = time.perf_counter()
    try:
        unit = workload.run_unit()
    except Exception as exc:  # a traceback from the program is a failed unit, not a crash
        from bench_workloads import Member, Unit

        traceback.print_exc(file=sys.stdout)
        unit = Unit([Member("unit", [f"raised {exc!r}"])], "")
    t_end = time.perf_counter()
    first = clock.first_step_at if clock.first_step_at is not None else t0
    kernel = speed.spent - spent0 if speed else 0.0  # speed samples taken inside the unit
    return {
        "unit": unit,
        "wall": t_end - first - kernel,
        "elapsed": t_end - t0,
        "span": (first, t_end),
        "starts": list(clock.starts),
        "steps": list(clock.durations),
    }


def _step_clock(bench_trace, speed=None):
    inst = bench_trace.Instrumentation()
    clock = bench_trace.StepClock(speed)
    inst.install(bench_trace.STEP_SPANS, clock.wrapper)
    if inst.missing:
        sys.exit(f"perfbench: integrator step functions not found: {inst.missing}")
    return inst, clock


def _member_tally(results):
    members = [m for r in results for m in r["unit"].members]
    failed = [m for m in members if m.failed]
    return members, failed


def _quantile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _print_problems(failed):
    for m in failed:
        for p in m.problems:
            print(f"  FAILED {m.label}: {p}")


# -- untraced run ---------------------------------------------------------------------


def untraced(args, workload, bench_speed, bench_trace):
    speed = bench_speed.CoreSpeed()
    inst, clock = _step_clock(bench_trace, speed)
    setups, results = [], []
    t_begin = time.perf_counter()
    while True:
        if len(setups) < SETUP_REPEATS:
            setups.append(cold_setup(args, speed))
        results.append(run_unit(workload, clock))
        elapsed = time.perf_counter() - t_begin
        failed_unit = any(m.failed for m in results[-1]["unit"].members)
        if failed_unit or elapsed + results[-1]["elapsed"] > args.seconds:
            break
    inst.uninstall()
    speed.sample()  # so that the last unit has samples after it

    members, failed = _member_tally(results)
    digests = {r["unit"].digest for r in results}
    repeat_ok = len(digests) == 1
    raw_steps, steps, raw_walls, walls = [], [], [], []
    for r in results:
        raw_walls.append(r["wall"])
        walls.append(r["wall"] * speed.factor(*r["span"]))
        for t0, d in zip(r["starts"], r["steps"]):
            raw_steps.append(d)
            steps.append(d * speed.factor(t0, t0 + d))
    raw_setups = [raw for raw, _ in setups]
    factors = [bench_speed.REF_S / d for d in speed.durations]
    metrics = {
        "setup_s": (statistics.median(raw * f for raw, f in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "step_p50_ms": (1e3 * _quantile(steps, 50), "ms"),
        "step_p90_ms": (1e3 * _quantile(steps, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"workload {workload.name}  seed {args.seed}  units {len(results)}  "
          f"member runs {len(members)}  core speed x{statistics.median(factors):.3f} "
          f"(p10 x{_quantile(factors, 10):.3f}, p90 x{_quantile(factors, 90):.3f}; "
          f"{len(factors)} samples)")
    notes = {
        "setup_s": f"median of {len(setups)} cold starts; raw "
                   f"{', '.join(f'{s:.3f}' for s in raw_setups)}",
        "wall_s": f"n={len(walls)} units; raw median {statistics.median(raw_walls):.4f}",
        "step_p50_ms": f"n={len(steps)} steps; raw {1e3 * _quantile(raw_steps, 50):.4f}",
        "step_p90_ms": f"n={len(steps)} steps; raw {1e3 * _quantile(raw_steps, 90):.4f}",
        "peak_rss_mb": "ru_maxrss",
    }
    for key, (value, unit) in metrics.items():
        print(f"  {key:<12} {value:>12.4f} {unit:<3} ({notes[key]})")
    print(f"  {'fail_frac':<12} {len(failed) / len(members):>12.4f}     "
          f"({len(failed)}/{len(members)} member runs)")
    for m in members[: len(members) // len(results)]:
        vals = ", ".join(f"{k}={v:.12e}" for k, v in m.values.items())
        print(f"  output {m.label}: {vals}")
    _print_problems(failed)
    if not repeat_ok:
        print("  FAILED outputs differ between identical units")
    correct = not failed and repeat_ok
    return correct, len(members), len(failed), metrics


# -- traced run ------------------------------------------------------------------------


def _per_unit_metrics(tr, names, wall, base_wall, out_bytes):
    ids = {n: i for i, n in enumerate(tr.names)}

    def calls(n):
        return tr.calls[ids[n]]

    def mean_self_ms(n):
        c = calls(n)
        return 1e3 * tr.self_time[ids[n]] / c if c else 0.0

    def mean_ms(n):
        c = calls(n)
        return 1e3 * tr.total[ids[n]] / c if c else 0.0

    def p50_ms(n):
        return 1e3 * _quantile(tr.samples[n], 50)

    steps = calls("dynamics.step_rk4") + calls("mollified.step")

    def per_step(v):
        return v / steps if steps else 0.0

    def step_calls(n):
        return per_step(tr.step_calls[ids[n]])

    def step_self_ms(*ns):
        return per_step(1e3 * sum(tr.step_self[ids[n]] for n in ns))

    step_total = sum(tr.total[ids[n]] for n in ("dynamics.step_rk4", "mollified.step"))
    step_own = sum(tr.self_time[ids[n]] for n in ("dynamics.step_rk4", "mollified.step"))
    iters = tr.gmres_iters
    builds = tr.flat_builds
    m = {
        "spectral.rfft.calls_per_step": step_calls("spectral.rfft"),
        "spectral.irfft.calls_per_step": step_calls("spectral.irfft"),
        "spectral.fft.self_ms_per_step": step_self_ms("spectral.rfft", "spectral.irfft"),
        "spectral.dx.self_ms_per_step": step_self_ms("spectral.dx"),
        "spectral.dr.self_ms_per_step": step_self_ms("spectral.dr"),
        "spectral.quadratic.self_ms_per_step": step_self_ms("spectral.quadratic"),
        "spectral.multiplier.self_ms_per_step": step_self_ms("spectral.multiplier"),
        "geometry.build_diffeo.self_ms_per_step": step_self_ms("geometry.build_diffeo"),
        "geometry.sigma_ops.self_ms_per_step": step_self_ms("geometry.sigma_ops"),
        "pressure.flat_inverse.builds": len(builds),
        "pressure.flat_inverse.build_ms": 1e3 * sum(builds) / len(builds) if builds else 0.0,
        "pressure.solve.calls": calls("pressure.solve"),
        "pressure.solve.calls_per_step": step_calls("pressure.solve"),
        "pressure.solve.ms_p50": p50_ms("pressure.solve"),
        "pressure.solve.self_ms_per_step": step_self_ms("pressure.solve"),
        "pressure.gmres.iters_mean": sum(iters) / len(iters) if iters else 0.0,
        "pressure.gmres.iters_max": max(iters) if iters else 0,
        "pressure.gmres.self_ms_per_step": step_self_ms("pressure.gmres"),
        "pressure.matvec.calls_per_step": step_calls("pressure.matvec"),
        "pressure.matvec.self_ms": mean_self_ms("pressure.matvec"),
        "pressure.precond.calls_per_step": step_calls("pressure.precond"),
        "pressure.precond.self_ms": mean_self_ms("pressure.precond"),
        "pressure.solve.failures": tr.solve_failures,
        "dynamics.euler_rhs.self_ms": mean_self_ms("dynamics.euler_rhs"),
        "dynamics.step_rk4.ms_p50": p50_ms("dynamics.step_rk4"),
        "dynamics.project.ms_p50": p50_ms("dynamics.project"),
        "dynamics.project.gmres_iters_mean": (
            sum(tr.project_iters) / len(tr.project_iters) if tr.project_iters else 0.0),
        "mollified.slag_rhs.self_ms": mean_self_ms("mollified.slag_rhs"),
        "mollified.step.ms_p50": p50_ms("mollified.step"),
        "mollified.moll_energy.ms": mean_ms("mollified.moll_energy"),
        "mollified.slag_to_sigma.ms": mean_ms("mollified.slag_to_sigma"),
        "shallow.sw_step.ms_p50": p50_ms("shallow.sw_step"),
        "shallow.compare.ms": mean_ms("shallow.compare"),
        "shallow.well_prepared_init.ms": mean_ms("shallow.well_prepared_init"),
        "runner.measure.ms": mean_ms("runner.measure"),
        "diagnostics.energy.self_ms": mean_self_ms("diagnostics.energy"),
        "runner.simulate.self_ms": mean_self_ms("runner.simulate"),
        "experiments.sweep.self_ms": mean_self_ms("experiments.sweep"),
        "io.write.ms": 1e3 * tr.total[ids["io.write"]],
        "io.write.bytes": out_bytes,
        "config.parse.ms": mean_ms("config.parse"),
        "trace.steps": steps,
        "trace.spans_per_step": per_step(tr.next_id),
        "trace.step_unaccounted_frac": step_own / step_total if step_total else 0.0,
        "trace.overhead_frac": wall / base_wall - 1.0,
    }
    missing = [k for k in names if k not in m]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return m


def _step_breakdown(tr):
    ids = {n: i for i, n in enumerate(tr.names)}
    steps = tr.calls[ids["dynamics.step_rk4"]] + tr.calls[ids["mollified.step"]]
    total = sum(tr.total[ids[n]] for n in ("dynamics.step_rk4", "mollified.step"))
    if not steps or not total:
        return
    print(f"  in-step self time by layer ({steps} steps, {1e3 * total / steps:.2f} ms/step traced):")
    rows = sorted(((tr.step_self[i], n) for n, i in ids.items() if tr.step_self[i] > 0), reverse=True)
    for own, n in rows:
        label = "(step body, unaccounted)" if n in ("dynamics.step_rk4", "mollified.step") else ""
        print(f"    {n:<28} {1e3 * own / steps:>9.3f} ms/step {100 * own / total:6.2f} % {label}")


def traced(args, workload, bench_trace, names):
    inst, clock = _step_clock(bench_trace)
    base = run_unit(workload, clock)
    inst.uninstall()

    results, per_unit, counts = [base], [], []
    for _ in range(2):
        tr = bench_trace.Tracer(clock)
        inst.install(bench_trace.SPANS, tr.wrapper)
        sites, missing, uncovered = list(inst.sites), list(inst.missing), inst.uncovered()
        r = run_unit(workload, clock)
        inst.uninstall()
        results.append(r)
        counts.append(tr.counts())
        per_unit.append(_per_unit_metrics(tr, names, r["wall"], base["wall"], r["unit"].out_bytes))

    members, failed = _member_tally(results)
    problems = []
    if len({r["unit"].digest for r in results}) != 1:
        problems.append("traced outputs are not bit-identical to the untraced outputs")
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0]["calls"] if counts[0]["calls"][k] != counts[1]["calls"][k])
        problems.append(f"exact counts differ between traced units (calls of {diff}; "
                        f"gmres iterations equal: {counts[0]['gmres_iters'] == counts[1]['gmres_iters']})")
    if uncovered:
        problems.append(f"binding sites not wrapped: {uncovered}")

    metrics = {key: ((per_unit[0][key] + per_unit[1][key]) / 2.0, unit) for key, unit in names.items()}

    print(f"workload {workload.name}  seed {args.seed}  traced units 2 (+1 untraced)  "
          f"untraced wall {base['wall']:.3f} s, traced wall "
          f"{results[1]['wall']:.3f} / {results[2]['wall']:.3f} s")
    print(f"  wrapped binding sites: {len(sites)}")
    if missing:
        print(f"  not in the program, reported as 0: {missing}")
    _step_breakdown(tr)
    if workload.name == "mu_member_256x48":
        c = counts[1]["calls"]
        steps, measures = c["dynamics.step_rk4"], c["runner.measure"]
        expected = 5 * steps + measures + 1
        print(f"  solve count {c['pressure.solve']} vs 5 x {steps} steps + {measures} measures "
              f"+ 1 set-up = {expected}")
    for key in names:
        value, unit = metrics[key]
        print(f"  {key:<42} {value:>14.4f} {unit}")
    _print_problems(failed)
    for p in problems:
        print(f"  FAILED {p}")

    OUT.mkdir(parents=True, exist_ok=True)
    import numpy as np

    np.savez_compressed(OUT / f"trace-{workload.name}.npz", **tr.spans())
    summary = {
        "workload": workload.name, "seed": args.seed, "metrics": metrics,
        "counts": counts[1], "sites": sorted(sites), "missing": missing, "problems": problems,
    }
    (OUT / f"trace-{workload.name}.json").write_text(json.dumps(summary, indent=1, default=str))
    correct = not failed and not problems
    return correct, len(members), len(failed), metrics


# -- entry point ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench_speed, bench_trace, bench_workloads = _import_program()
    if args.workload not in bench_workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(bench_workloads.WORKLOADS)}")

    work_dir = OUT / f"work-{os.getpid()}"
    workload = bench_workloads.WORKLOADS[args.workload](args.seed, work_dir)
    if args.setup_probe:
        try:
            probe_setup(workload, _step_clock(bench_trace)[1], bench_trace)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        return 0

    print("env " + json.dumps(environment(), sort_keys=True))
    try:
        if args.trace:
            names = {m["name"]: m["unit"] for m in spec["per_layer"]}
            correct, attempted, failed, metrics = traced(args, workload, bench_trace, names)
        else:
            correct, attempted, failed, metrics = untraced(args, workload, bench_speed, bench_trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
