"""Run each workload over several seeds, one fresh process after another,
and report each end-to-end metric's median and quartiles.

    python3 bench/baseline.py --seeds 1-10                # spreads only
    python3 bench/baseline.py --seeds 1-10 --write --label "commit abc123"

The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4); it is flagged when it exceeds a third of
the metric's bound in BENCHMARK.json. `--write` also makes one traced run
per workload (on the first seed) and writes bench/baseline.json: per
metric the median, quartiles and sample count, per run the output digests
and accuracies, one per-layer breakdown per workload, and the environment.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, trace):
    """(result, details) of one run; both are the run's last JSON lines."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    details = next(json.loads(line) for line in reversed(lines[:-1])
                   if line.startswith("{"))
    return json.loads(lines[-1]), dict(details, wall_s=wall)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--write", action="store_true")
    ap.add_argument("--label", default="",
                    help="what was measured, e.g. the commit")
    args = ap.parse_args()
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    out = {"label": args.label, "run_seconds": SPEC["run_seconds"],
           "workloads": {}}
    for workload in why:
        values, runs = {}, []
        for seed in args.seeds:
            result, details = run_once(workload, seed, 0)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed} failed: "
                         f"{details['problems']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"],
                         "digests": details["digests"],
                         "quality": details["quality"]})
            out["environment"] = dict(details["environment"], seed=None)
            print(f"{workload} seed {seed} ({details['wall_s']:.1f} s): " +
                  ", ".join(
                f"{k} {m['value']:.5g}"
                for k, m in result["metrics"].items()), flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]["bound"]
            flag = "" if spread <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:22s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} (bound {bound}){flag}")
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "n": len(vals), "unit": bounds[name]["unit"],
                             "values": vals}
        entry = {"why": why[workload], "end_to_end": summary, "runs": runs}
        if args.write:
            result, details = run_once(workload, args.seeds[0], 1)
            if not result["correct"]:
                sys.exit(f"{workload} traced run failed: "
                         f"{details['problems']}")
            if details["digests"] != runs[0]["digests"]:
                sys.exit(f"{workload} seed {args.seeds[0]}: traced and "
                         f"untraced processes gave different digests")
            entry["traced"] = {"seed": args.seeds[0],
                               "digests": details["digests"],
                               "metrics": {k: m["value"] for k, m in
                                           result["metrics"].items()}}
        out["workloads"][workload] = entry
    if args.write:
        path = HERE / "baseline.json"
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
