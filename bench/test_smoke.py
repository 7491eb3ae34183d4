"""Smoke test of the benchmark harness: every workload at tiny size.

    python3 -m pytest bench/test_smoke.py

Checks that each workload keeps its own structure when shrunk, that each
run emits exactly the metrics BENCHMARK.json names, with their units, that
repeated and traced runs of one seed give equal output digests, and that
the harness refuses to run without the sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=3, root=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"], cwd=root, capture_output=True, text=True, timeout=120)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[0])


def test_tiny_shrinks_only_sizes_and_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from workloads import WORKLOADS as specs, tiny
    assert sorted(specs) == sorted(WORKLOADS)
    for w in specs.values():
        t = tiny(w)
        assert (t.evals, t.eval_initial) == (w.evals, w.eval_initial)
        assert (t.czsl is None, t.gzsl is None) == \
            (w.czsl is None, w.gzsl is None)
        for spec, small in ((w.synth, t.synth), (w.arch, t.arch),
                            (w.sched, t.sched)):
            assert spec.keys() <= small.keys()
        assert t.synth.get("train_fraction") == w.synth.get("train_fraction")
        assert t.synth.get("sample_noise") == w.synth.get("sample_noise")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_spec_and_digests_repeat(workload):
    digests = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, details = parse(run(workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, details
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        for name, m in result["metrics"].items():
            assert math.isfinite(m["value"]), name
            if key == "end_to_end":
                assert m["value"] > 0, name
        digests.append(details["digests"])
    _, again = parse(run(workload, 0))
    assert digests[0] == digests[1] == again["digests"]
    assert set(digests[0]) == {"inputs", "curves", "checkpoint", "metrics"}


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
