import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from zsalign import losses
from zsalign.cli import main
from zsalign.gradcheck import run_gradcheck

SMALL_SYNTH = {"n_classes": 6, "n_seen": 4, "samples_per_class": 20,
               "visual_dim": 16, "attr_dim": 8, "proto_dim": 4, "seed": 0}
SMALL_MODEL = {"structure_dim": 12, "latent_dim": 4, "common_hidden": 8,
               "dec_visual_hidden": 8, "dec_semantic_hidden": 6}


def write_cfg(tmp_path, name="cfg.json", **extra):
    cfg = {"synth": dict(SMALL_SYNTH), "model": dict(SMALL_MODEL),
           "schedule": {"epochs": 2, "batch_size": 16, "swd_directions": 8},
           "eval": {"czsl_unseen": 20, "gzsl_unseen": 20, "gzsl_seen": 20}}
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_synth_writes_loadable_dataset(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    assert "wrote dataset" in capsys.readouterr().out
    from zsalign import load_dataset
    ds = load_dataset(out / "dataset")
    assert ds.n_classes == 6


def test_train_then_eval_round_trip(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--seed", "3",
                 "--out", str(out)]) == 0
    for artifact in ("checkpoint.bin", "curves.csv", "manifest.json"):
        assert (out / artifact).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert "config_hash" in manifest

    ev = tmp_path / "ev"
    assert main(["eval", "--config", cfg, "--seed", "3", "--out", str(ev),
                 "--checkpoint", str(out / "checkpoint.bin")]) == 0
    for artifact in ("metrics_czsl.json", "metrics_gzsl.json", "latents.csv"):
        assert (ev / artifact).exists()
    czsl = json.loads((ev / "metrics_czsl.json").read_text())
    assert czsl["protocol"] == "CZSL"
    gzsl = json.loads((ev / "metrics_gzsl.json").read_text())
    assert gzsl["protocol"] == "GZSL"
    assert set(gzsl["per_class"]) == {"0", "1", "2", "3", "4", "5"}
    header = (ev / "latents.csv").read_text().splitlines()[0]
    assert header.startswith("sample,class,z0")


def test_rerun_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)

    def run(tag):
        out = tmp_path / tag
        assert main(["train", "--config", cfg, "--seed", "5",
                     "--out", str(out)]) == 0
        ev = tmp_path / (tag + "_ev")
        assert main(["eval", "--config", cfg, "--seed", "5", "--out",
                     str(ev), "--checkpoint", str(out / "checkpoint.bin")]) \
            == 0
        return ((out / "curves.csv").read_bytes(),
                (ev / "metrics_czsl.json").read_bytes(),
                (ev / "metrics_gzsl.json").read_bytes())

    assert run("a") == run("b")


def test_train_ablation_flag_zeroes_adversarial_columns(tmp_path):
    cfg = write_cfg(tmp_path, ablation={"disable_sa": True})
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "curves.csv").read_text().splitlines()
    header = lines[0].split(",")
    i1, i2 = header.index("dis1"), header.index("dis2")
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[i1]) == 0.0
        assert float(cells[i2]) == 0.0


def test_exit_code_1_on_config_errors(tmp_path, capsys, monkeypatch):
    import zsalign.cli
    fits = []
    monkeypatch.setattr(zsalign.cli, "fit",
                        lambda *args, **kwargs: fits.append(args))
    missing = str(tmp_path / "nope.json")
    assert main(["train", "--config", missing, "--out",
                 str(tmp_path / "o")]) == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["train", "--config", str(bad), "--out",
                 str(tmp_path / "o")]) == 1

    neither = tmp_path / "neither.json"
    neither.write_text(json.dumps({"model": SMALL_MODEL}))
    assert main(["train", "--config", str(neither), "--out",
                 str(tmp_path / "o")]) == 1

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"synth": {"bogus_field": 1}}))
    assert main(["synth", "--config", str(unknown), "--out",
                 str(tmp_path / "o")]) == 1
    assert "bogus_field" in capsys.readouterr().err

    # a path that names the wrong kind of file
    good = write_cfg(tmp_path)
    assert main(["eval", "--config", good, "--out", str(tmp_path / "o"),
                 "--checkpoint", str(tmp_path)]) == 1
    assert not (tmp_path / "o").exists()
    assert main(["eval", "--config", good, "--out", str(tmp_path / "o"),
                 "--checkpoint", str(tmp_path / "nope.bin")]) == 1
    assert not (tmp_path / "o").exists()
    assert main(["train", "--config", str(tmp_path), "--out",
                 str(tmp_path / "o")]) == 1
    # an output path that is a file, or under one, is refused before
    # anything is trained
    before = pathlib.Path(good).read_bytes()
    assert main(["synth", "--config", good, "--out", good]) == 1
    assert main(["train", "--config", good, "--out", good]) == 1
    assert main(["train", "--config", good, "--out",
                 os.path.join(good, "run")]) == 1
    assert main(["ablate", "--config", good, "--out", good]) == 1
    assert pathlib.Path(good).read_bytes() == before
    assert fits == []
    assert capsys.readouterr().err.count("config error: ") == 7


def test_exit_code_1_on_bad_usage(capsys):
    assert main(["not-a-verb"]) == 1
    assert main(["eval"]) == 1  # missing required --checkpoint
    capsys.readouterr()


def test_exit_code_2_on_runtime_error(tmp_path, capsys, with_header):
    # checkpoint dims disagree with the dataset named by the eval config
    cfg_a = write_cfg(tmp_path, "a.json")
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_a, "--out", str(out)]) == 0
    other = dict(SMALL_SYNTH)
    other["visual_dim"] = 24
    cfg_b = write_cfg(tmp_path, "b.json", synth=other)
    code = main(["eval", "--config", cfg_b, "--out", str(tmp_path / "ev"),
                 "--checkpoint", str(out / "checkpoint.bin")])
    assert code == 1  # dimension mismatch is a config error
    assert "visual_dim" in capsys.readouterr().err

    # a checkpoint cut short is a runtime error, not a config error
    stub = tmp_path / "stub.bin"
    stub.write_bytes((out / "checkpoint.bin").read_bytes()[:100])
    assert main(["eval", "--config", cfg_a, "--out", str(tmp_path / "ev2"),
                 "--checkpoint", str(stub)]) == 2
    assert "truncated" in capsys.readouterr().err

    # so is a malformed header: here an architecture field given as a string
    def edit(header):
        header["architecture"]["latent_dim"] = "4"
        return header

    bad = tmp_path / "bad.bin"
    bad.write_bytes(with_header((out / "checkpoint.bin").read_bytes(), edit))
    assert main(["eval", "--config", cfg_a, "--out", str(tmp_path / "ev3"),
                 "--checkpoint", str(bad)]) == 2
    assert "'latent_dim' must be int" in capsys.readouterr().err


@pytest.mark.parametrize("synth,field", [
    ({"visual_dim": 24}, "visual_dim"),
    ({"attr_dim": 10}, "attr_dim"),
    ({"n_seen": 3}, "n_seen_classes"),
], ids=["visual_dim", "attr_dim", "n_seen_classes"])
def test_eval_rejects_checkpoint_of_other_geometry(tmp_path, capsys, synth,
                                                   field):
    out = tmp_path / "run"
    assert main(["train", "--config", write_cfg(tmp_path, "a.json"),
                 "--out", str(out)]) == 0
    cfg_b = write_cfg(tmp_path, "b.json", synth={**SMALL_SYNTH, **synth})
    ev = tmp_path / "ev"
    assert main(["eval", "--config", cfg_b, "--out", str(ev),
                 "--checkpoint", str(out / "checkpoint.bin")]) == 1
    assert field in capsys.readouterr().err
    assert not list(ev.glob("metrics_*.json"))


def test_train_rejects_batches_inverse_coral_cannot_use(tmp_path, capsys):
    # 40 training rows in batches of 13 end in a 1-row batch
    cfg = write_cfg(tmp_path, synth={**SMALL_SYNTH, "samples_per_class": 13},
                    schedule={"epochs": 2, "batch_size": 13,
                              "swd_directions": 8})
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert ("40 training rows at batch_size 13 leave a last batch of 1, "
            "with 2 unseen classes") in capsys.readouterr().err
    assert not (out / "checkpoint.bin").exists()


def test_train_rejects_invalid_schedule(tmp_path, capsys):
    for schedule in ({"epochs": -3}, {"inner_repeats": 0}, {"epochs": "3"}):
        cfg = write_cfg(tmp_path, schedule=schedule)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert not (out / "checkpoint.bin").exists()
        assert next(iter(schedule)) in capsys.readouterr().err


@pytest.mark.parametrize("verb,section,values", [
    ("synth", "synth", {"n_classes": 4, "n_seen": 4}),
    ("train", "synth", {"n_classes": 4, "n_seen": 4}),
    ("train", "model", {"latent_dim": 0}),
    ("train", "model", {"latent_dim": "4"}),
    ("ablate", "eval", {"bogus_count": 5}),
    ("train", "schedule", {"learning_rate": "x"}),
    ("train", "schedule", {"learning_rate": 0}),
    ("train", "schedule", {"batch_size": 0}),
    ("train", "schedule", {"swd_directions": 0}),
    ("train", "schedule", {"adam_beta1": 1.0}),
    ("train", "schedule", {"adam_beta2": "0.9"}),
    ("ablate", "eval", {"czsl_unseen": 0}),
    ("ablate", "eval", {"gzsl_unseen": "12"}),
    ("ablate", "eval", {"gzsl_seen": 2.7}),
    ("ablate", "eval", {"use_mean": "false"}),
    ("train", "ablation", {"disable_sa": "false"}),
    ("train", "model", {"latent_dim": True}),
    ("train", "synth", {"visual_map": "cube"}),
    ("train", "synth", {"sample_noise": "x"}),
    ("train", "synth", {"sample_noise": float("nan")}),
    ("train", "synth", {"sample_noise": -0.5}),
    ("train", "synth", {"attr_noise": -3.0}),
    ("synth", "synth", {"attr_noise": float("inf")}),
])
def test_invalid_config_section_exits_1(tmp_path, capsys, verb, section,
                                        values):
    cfg = write_cfg(tmp_path, **{section: values})
    out = tmp_path / "run"
    assert main([verb, "--config", cfg, "--out", str(out)]) == 1
    assert f"'{section}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb,key,value", [
    ("train", "schedual", {"epochs": 1}),
    ("train", "minmax", "false"),
    ("train", "seed", 2.7),
    ("train", "seed", "x"),
    ("train", "out", 5),
    ("train", "dataset", 3),
    ("train", "model", [4]),
    ("ablate", "seeds", 3),
    ("ablate", "seeds", [1, 2.5]),
    ("ablate", "seeds", []),
])
def test_invalid_top_level_config_exits_1(tmp_path, capsys, monkeypatch,
                                          verb, key, value):
    import zsalign.cli
    fits = []
    monkeypatch.setattr(zsalign.cli, "fit",
                        lambda *args, **kwargs: fits.append(args))
    cfg = json.loads(open(write_cfg(tmp_path), encoding="utf-8").read())
    if key == "dataset":
        del cfg["synth"]  # one dataset source: only the value's type is wrong
    cfg[key] = value
    path = tmp_path / "top.json"
    path.write_text(json.dumps(cfg))
    assert main([verb, "--config", str(path),
                 "--out", str(tmp_path / "run")]) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert fits == []
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("verb,flags,extra,key", [
    ("train", [], {"seed": -1}, "seed"),
    ("train", ["--seed", "-2"], {}, "seed"),
    ("train", [], {"synth": dict(SMALL_SYNTH, seed=-3)}, "seed"),
    ("ablate", [], {"seeds": [-1]}, "seeds"),
])
def test_negative_seed_exits_1(tmp_path, capsys, monkeypatch, verb, flags,
                               extra, key):
    import zsalign.cli
    fits = []
    monkeypatch.setattr(zsalign.cli, "fit",
                        lambda *args, **kwargs: fits.append(args))
    cfg = write_cfg(tmp_path, **extra)
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "run")]
                + flags) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert fits == []
    assert not (tmp_path / "run").exists()


def test_load_config_accepts_every_top_level_key(tmp_path):
    from zsalign.cli import TOP_LEVEL, load_config
    cfg = {"synth": {}, "model": {}, "schedule": {}, "ablation": {},
           "eval": {}, "dataset": "data", "minmax": True, "seed": 3,
           "seeds": [1, 2], "out": "runs/x"}
    assert set(cfg) == set(TOP_LEVEL)
    path = tmp_path / "all.json"
    path.write_text(json.dumps(cfg))
    assert load_config(str(path)) == cfg


def test_ablate_rejects_eval_counts_before_training(tmp_path, capsys,
                                                   monkeypatch):
    import zsalign.cli
    fits = []
    monkeypatch.setattr(zsalign.cli, "fit",
                        lambda *args, **kwargs: fits.append(args))
    cfg = write_cfg(tmp_path, seeds=[1], eval={"czsl_unseen": 0})
    out = tmp_path / "abl"
    assert main(["ablate", "--config", cfg, "--out", str(out)]) == 1
    assert "czsl_unseen" in capsys.readouterr().err
    assert fits == []
    assert not (out / "ablation.csv").exists()


def test_gradcheck_command(capsys):
    start = time.time()
    assert main(["gradcheck", "--seed", "0"]) == 0
    assert time.time() - start < 60
    out = capsys.readouterr().out
    assert out.count("pass") >= 9
    assert "FAIL" not in out


def test_gradcheck_detects_injected_fault(scale_backward):
    # a 5% error in the backward pass of the latent W2 loss that training
    # calls: only the 'da' check may fail
    scale_backward(losses, "gaussian_w2", 1.05)
    by_name = {name: passed for name, _, passed in run_gradcheck(seed=0)}
    assert not by_name["da"]
    assert all(passed for name, passed in by_name.items() if name != "da")


# each demo's last line (for 02 its start, which the path of the file the
# demo wrote under TMPDIR follows; 03 ends with its GZSL metrics as JSON,
# checked below, and takes about 15 s)
DEMO_LAST_LINES = {
    "01_synthetic_data": "container round trip bitwise equal: True",
    "02_training_curves": "full per-epoch table in ",
    "03_evaluation": None,
    "04_gradient_check": "with an injected fault in 'da': detected",
}


@pytest.mark.parametrize("script", DEMO_LAST_LINES)
def test_demo_runs(script, tmp_path):
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(root / "demos" / f"{script}.py")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    if script == "02_training_curves":
        start = DEMO_LAST_LINES[script]
        assert last.startswith(start)
        written = pathlib.Path(last[len(start):])
        assert written.is_file()
        assert written.resolve().is_relative_to(tmp_path.resolve())
    elif script == "03_evaluation":
        doc = json.loads(last)
        assert doc["protocol"] == "GZSL"
        assert doc["counts"] == {"seen": 200, "unseen": 400}
        u, s, h = doc["u"], doc["s"], doc["h"]
        assert 0 < u <= 100 and 0 < s <= 100
        assert h == pytest.approx(2 * u * s / (u + s), abs=0.02)
        assert len(doc["per_class"]) == 20
    else:
        assert last == DEMO_LAST_LINES[script]
    if script == "04_gradient_check":
        assert "9/9 terms passed" in proc.stdout


def test_ablate_writes_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path, seeds=[1, 2])
    out = tmp_path / "abl"
    assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "variant,seed,u,s,h,acc"
    variants = ("full", "no_sa", "no_da_icoral", "no_icoral")
    # 4 variants x 2 seeds + 4 mean rows
    assert len(lines) == 1 + 4 * 2 + 4
    for v in variants:
        assert sum(1 for ln in lines[1:] if ln.startswith(v + ",")) == 3
        assert any(ln.startswith(f"{v},mean,") for ln in lines[1:])


def test_train_and_eval_draw_each_stream_for_one_purpose(tmp_path,
                                                         monkeypatch):
    import zsalign.cli
    from zsalign.rng import Rng
    # (entropy, spawn key) of each stream that draws -> what it drew for
    purposes, active = {}, []

    def drawing(real):
        def draw(self, *args, **kwargs):
            key = (self._seq.entropy, self._seq.spawn_key)
            purposes.setdefault(key, set()).add(
                active[-1] if active else None)
            return real(self, *args, **kwargs)
        return draw

    for method in ("standard_normal", "unit_directions", "uniform",
                   "permutation", "integers"):
        monkeypatch.setattr(Rng, method, drawing(getattr(Rng, method)))

    def serving(purpose, real):
        def call(*args, **kwargs):
            active.append(purpose)
            try:
                return real(*args, **kwargs)
            finally:
                active.pop()
        return call

    for name, purpose in (("synth_generate", "dataset"), ("Model", "init"),
                          ("fit", "training"), ("czsl_eval", "czsl"),
                          ("gzsl_eval", "gzsl"), ("_dump_latents", "latents")):
        monkeypatch.setattr(zsalign.cli, name,
                            serving(purpose, getattr(zsalign.cli, name)))
    # no 'seed' in 'synth': the dataset's streams hang off the run seed
    synth = {k: v for k, v in SMALL_SYNTH.items() if k != "seed"}
    cfg = write_cfg(tmp_path, synth=synth)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--seed", "1",
                 "--out", str(out)]) == 0
    assert main(["eval", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "ev"),
                 "--checkpoint", str(out / "checkpoint.bin")]) == 0
    assert set().union(*purposes.values()) == {
        "dataset", "init", "training", "czsl", "gzsl", "latents"}
    shared = {key: sorted(p) for key, p in purposes.items() if len(p) > 1}
    assert shared == {}


def test_ablate_row_is_train_then_eval(tmp_path):
    # at 4 epochs the no_icoral row differs from the full model's
    schedule = {"epochs": 4, "batch_size": 16, "swd_directions": 8}
    out = tmp_path / "abl"
    assert main(["ablate", "--config",
                 write_cfg(tmp_path, seeds=[1], schedule=schedule),
                 "--out", str(out)]) == 0
    rows = {line.split(",")[0]: line for line in
            (out / "ablation.csv").read_text().split() if ",1," in line}
    row = rows["no_icoral"]
    assert row.split(",")[2:] != rows["full"].split(",")[2:]

    cfg = write_cfg(tmp_path, "one.json", schedule=schedule,
                    ablation={"disable_icoral": True})
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--seed", "1",
                 "--out", str(run)]) == 0
    ev = tmp_path / "ev"
    assert main(["eval", "--config", cfg, "--seed", "1", "--out", str(ev),
                 "--checkpoint", str(run / "checkpoint.bin")]) == 0
    g = json.loads((ev / "metrics_gzsl.json").read_text())
    c = json.loads((ev / "metrics_czsl.json").read_text())
    assert row == (f"no_icoral,1,{g['u']:.2f},{g['s']:.2f},{g['h']:.2f},"
                   f"{c['acc']:.2f}")


def test_train_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the acceptance geometry, whose products keep their bits at any
    # OpenBLAS thread count (README "Determinism"); `eval` of the trained
    # checkpoint writes the same metrics too
    from test_acceptance import BENCH_ARCH, BENCH_SYNTH
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "synth": BENCH_SYNTH, "model": BENCH_ARCH,
        "schedule": {"epochs": 3, "batch_size": 50, "swd_directions": 32}}))
    root = pathlib.Path(__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        for verb in (["train", "--out", str(out)],
                     ["eval", "--out", str(out / "eval"), "--checkpoint",
                      str(out / "checkpoint.bin")]):
            proc = subprocess.run(
                [sys.executable, "-m", "zsalign.cli", *verb, "--config",
                 str(cfg), "--seed", "1"],
                capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["openblas_num_threads"] == threads
        assert {"blas", "blas_version", "nproc"} <= set(manifest)
        outputs.append([(out / name).read_bytes() for name in (
            "checkpoint.bin", "eval/metrics_czsl.json",
            "eval/metrics_gzsl.json")])
    assert outputs[0] == outputs[1]
