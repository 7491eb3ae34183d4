"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload bench_fit --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the harness imports `zsalign` from
`src/` next to this directory and nowhere else, and exits non-zero without
a result when it is missing. Each run is one fresh process. The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; `--trace 0` reports the end-to-end
metrics of BENCHMARK.json, `--trace 1` the per-layer ones. The lines before
it name every metric with its unit, and one JSON line records the
environment, the derived seeds and the sha256 digests of the inputs and
outputs.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXTRA_SETUPS = 5    # set-ups before the first unit, for a steadier median


def limit_blas_threads():
    """Cap BLAS threads at the CPUs this process may use. Must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            n = 0
        if not 1 <= n <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_program():
    """Import zsalign from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import zsalign
    except ImportError as e:
        sys.exit(f"bench: cannot import zsalign from {src}: {e}")
    if Path(zsalign.__file__).resolve().parent != src / "zsalign":
        sys.exit(f"bench: zsalign imported from {zsalign.__file__}, "
                 f"not from {src}")


def environment(nproc, seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "machine": platform.machine(), "seed": seed}


def train_rate(units):
    """Training rows over the median epoch time."""
    return units[0].train_rows / statistics.median(
        s for u in units for s in u.epoch_s)


def eval_time(units):
    return statistics.median(s for u in units for s in u.eval_s)


class Run:
    """Counts operations and problems across the units of one run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def add(self, unit):
        self.attempted += unit.attempted
        self.failed += unit.failed
        self.problems += unit.problems

    def same(self, what, got, want):
        """Repeated runs of one seed must give equal digests."""
        if got != want:
            self.failed += 1
            self.problems.append(f"{what} digests differ: {got} != {want}")


def timed(w, seeds, workdir, seconds, run):
    """Repeat set-up + unit for `seconds`, so that every metric samples the
    whole run rather than one stretch of it; a unit starts only if a
    median-length one still ends in time. EXTRA_SETUPS set-ups come first
    so that even a run of few units has several. peak_rss_mb is read when
    the first unit's evaluations end."""
    from workloads import run_unit, setup
    setup_s, inputs = [], []

    def set_up():
        t = time.perf_counter()
        inputs.append(setup(w, seeds, workdir))
        setup_s.append(time.perf_counter() - t)
        run.same("input", inputs[-1], inputs[0])

    deadline = time.perf_counter() + seconds
    for _ in range(EXTRA_SETUPS):
        set_up()
    units, unit_s = [], []
    while True:
        t = time.perf_counter()
        set_up()
        unit = run_unit(w, seeds, workdir)
        unit_s.append(time.perf_counter() - t)
        run.add(unit)
        if unit.failed:
            break
        units.append(unit)
        run.same("output", unit.digests, units[0].digests)
        if time.perf_counter() + statistics.median(unit_s) > deadline:
            break
    metrics = {"setup_s": (statistics.median(setup_s), "s")}
    if units:
        metrics.update({
            "train_samples_per_s": (train_rate(units), "1/s"),
            "eval_s": (eval_time(units), "s"),
            "peak_rss_mb": (units[0].peak_rss_mb, "MB"),
        })
    return metrics, inputs[0], units


def traced(w, seeds, workdir, run):
    """An untraced warm-up unit, the same unit with the wrappers installed,
    then an untraced one again. All digests must agree; traced minus the
    last untraced unit is the tracing overhead."""
    import tracing
    from workloads import run_unit, setup
    inputs = setup(w, seeds, workdir)
    warm = run_unit(w, seeds, workdir)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        run.same("traced input", setup(w, seeds, workdir, tracer.span),
                 inputs)
        unit = run_unit(w, seeds, workdir, tracer.span)
    plain = run_unit(w, seeds, workdir)
    units = [warm, unit, plain]
    for u in units:
        run.add(u)
    if any(u.failed for u in units):
        return {}, inputs, []
    run.same("traced output", unit.digests, plain.digests)
    run.same("untraced output", warm.digests, plain.digests)
    steps, fit = tracer.steps_within_fit()
    if steps > fit:
        run.failed += 1
        run.problems.append(f"training.step_* spans {steps} s exceed "
                            f"training.fit {fit} s")
    metrics = tracer.summary()
    metrics["model.checkpoint_bytes"] = (unit.checkpoint_bytes, "byte")
    metrics["trace.train_samples_per_s_delta"] = (
        train_rate([unit]) - train_rate([plain]), "1/s")
    metrics["trace.eval_s_delta"] = (eval_time([unit]) - eval_time([plain]),
                                     "s")
    return metrics, inputs, units


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload to run in about a second "
                         "(smoke test)")
    args = ap.parse_args(argv)
    nproc = limit_blas_threads()
    import_program()
    from workloads import WORKLOADS, Seeds, tiny
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload '{args.workload}' "
                 f"(choose from {', '.join(WORKLOADS)})")
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)
    seeds = Seeds.derive(args.seed)
    run = Run()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=scratch)
    try:
        if args.trace:
            metrics, inputs, units = traced(w, seeds, workdir, run)
        else:
            metrics, inputs, units = timed(w, seeds, workdir, args.seconds,
                                           run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    details = {
        "workload": w.name, "trace": args.trace,
        "environment": environment(nproc, args.seed),
        "seeds": vars(seeds), "units": len(units),
        "epochs": sum(len(u.epoch_s) for u in units),
        "evals": sum(len(u.eval_s) for u in units),
        "digests": dict(units[0].digests, inputs=inputs) if units else {},
        "quality": units[0].quality if units else {},
        "problems": run.problems,
    }
    print(json.dumps(details, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": max(run.attempted, 1), "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
