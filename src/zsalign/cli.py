"""Command-line surface: synth / train / eval / gradcheck / ablate.

All commands are driven by a JSON config; command-line flags override
config fields (flags > file > defaults). Exit codes: 0 success, 1
usage/config error, 2 runtime or numerical error.
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .data import (SynthConfig, load_dataset, minmax_features, save_dataset,
                   synth_generate)
from .evaluation import (EvalConfig, EvalCounts, czsl_eval,
                         encode_test_features, gzsl_eval)
from .gradcheck import run_gradcheck
from .model import (Architecture, Model, check_fits_dataset, dataset_dims,
                    load_checkpoint, save_checkpoint)
from .rng import Rng
from .tensor import check_type
from .training import (AblationFlags, TrainSchedule, TrainingDivergence, fit,
                       write_curves)


class ConfigError(ValueError):
    pass


# every top-level config key, with the type of its value
TOP_LEVEL = {"synth": dict, "model": dict, "schedule": dict, "ablation": dict,
             "eval": dict, "dataset": str, "minmax": bool, "seed": int,
             "seeds": list, "out": str}


def load_config(path):
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as f:
        try:
            cfg = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - set(TOP_LEVEL)
    if unknown:
        raise ConfigError(f"unknown top-level key '{sorted(unknown)[0]}'")
    try:
        for key, value in cfg.items():
            check_type(key, value, TOP_LEVEL[key])
        for value in cfg.get("seeds", ()):
            check_type("seeds", value, int)
    except TypeError as e:
        raise ConfigError(f"invalid config: {e}") from e
    if cfg.get("seeds") == []:
        raise ConfigError("'seeds' must not be empty")
    if any(s < 0 for s in cfg.get("seeds", ())):
        raise ConfigError(f"'seeds' must be >= 0, got {cfg['seeds']}")
    return cfg


def _check_out(out):
    """Refuse, before any work, an output path that cannot become a
    directory: an existing file, or a path under one."""
    head = os.path.abspath(out)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise ConfigError(f"output path is a file or lies under one: {out}")


def _section(cfg, key, valid):
    sub = cfg.get(key, {})
    unknown = set(sub) - set(valid)
    if unknown:
        raise ConfigError(f"unknown field '{sorted(unknown)[0]}' in '{key}'")
    return sub


def _take(cfg, key, cls, **fixed):
    """The dataclass `cls` built from config section `key`, with the
    `fixed` fields overriding the file, and validated."""
    obj = cls(**{**_section(cfg, key, cls.__dataclass_fields__), **fixed})
    try:
        obj.validate()
    except (ValueError, TypeError) as e:
        raise ConfigError(f"invalid '{key}': {e}") from e
    return obj


def _synth_config(cfg, seed):
    """The `synth` section, whose `seed` defaults to the run seed."""
    return _take(cfg, "synth", SynthConfig,
                 seed=cfg.get("synth", {}).get("seed", seed))


def resolve_dataset(cfg, seed):
    has_path = "dataset" in cfg
    has_synth = "synth" in cfg
    if has_path == has_synth:
        raise ConfigError(
            "config must name exactly one dataset source: 'dataset' or 'synth'")
    if has_path:
        ds = load_dataset(cfg["dataset"])
    else:
        ds = synth_generate(_synth_config(cfg, seed))
    if cfg.get("minmax", False):
        ds = minmax_features(ds)
    return ds


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")).hexdigest()


def write_manifest(out, cfg, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    doc = {
        "config_hash": config_hash(cfg),
        "seed": seed,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        # the bytes a run writes are pinned at a fixed BLAS and thread count
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)


def run_stream(seed, purpose):
    """A run's stream for `purpose`: child 0 or 1 of the seed's `Rng`, or a
    child of its child 2. A dataset synthesized from the same seed draws
    from children 0-3 themselves, which a run only ever spawns from."""
    init, train, evaluation = Rng(seed).spawn(3)
    czsl, gzsl, latents = evaluation.spawn(3)
    return {"init": init, "train": train, "czsl": czsl, "gzsl": gzsl,
            "latents": latents}[purpose]


def _evaluate(ev, model, ds, seed):
    """(CZSL report, GZSL report) of `model` under the `eval` section `ev`."""
    rep_c = czsl_eval(model, ds, EvalCounts(unseen=ev.czsl_unseen, seen=0),
                      run_stream(seed, "czsl"), seed, use_mean=ev.use_mean)
    rep_g = gzsl_eval(model, ds,
                      EvalCounts(unseen=ev.gzsl_unseen, seen=ev.gzsl_seen),
                      run_stream(seed, "gzsl"), seed, use_mean=ev.use_mean)
    return rep_c, rep_g


# ---- commands ------------------------------------------------------------

def cmd_synth(cfg, seed, out):
    ds = synth_generate(_synth_config(cfg, seed))
    target = os.path.join(out, "dataset")
    save_dataset(ds, target)
    print(f"wrote dataset to {target}: {ds.n_samples} samples, "
          f"{ds.n_classes} classes ({len(ds.seen_classes)} seen / "
          f"{len(ds.unseen_classes)} unseen), visual_dim {ds.visual_dim}, "
          f"attr_dim {ds.attr_dim}")
    return 0


def _train_one(cfg, ds, seed, flags):
    sched = _take(cfg, "schedule", TrainSchedule)
    arch = _take(cfg, "model", Architecture, **dataset_dims(ds))
    model = Model(arch, run_stream(seed, "init"))
    return model, fit(model, ds, sched, run_stream(seed, "train"), flags)


def cmd_train(cfg, seed, out):
    ds = resolve_dataset(cfg, seed)
    flags = _take(cfg, "ablation", AblationFlags)
    model, curves = _train_one(cfg, ds, seed, flags)
    os.makedirs(out, exist_ok=True)
    save_checkpoint(model, os.path.join(out, "checkpoint.bin"))
    write_curves(curves, os.path.join(out, "curves.csv"))
    write_manifest(out, cfg, seed)
    if curves:
        last = curves[-1]
        print(f"trained {len(curves)} epochs; final rec {last['rec']:.4f}, "
              f"cls {last['cls']:.4f}")
    print(f"artifacts in {out}")
    return 0


def cmd_eval(cfg, seed, out, checkpoint):
    ds = resolve_dataset(cfg, seed)
    ev = _take(cfg, "eval", EvalConfig)
    model = load_checkpoint(checkpoint)
    try:
        check_fits_dataset(model.arch, ds)
    except ValueError as e:
        raise ConfigError(f"checkpoint does not fit the dataset: {e}") from e
    rep_c, rep_g = _evaluate(ev, model, ds, seed)
    os.makedirs(out, exist_ok=True)
    for name, rep in (("metrics_czsl.json", rep_c), ("metrics_gzsl.json",
                                                     rep_g)):
        with open(os.path.join(out, name), "w", encoding="utf-8") as f:
            f.write(rep.to_json() + "\n")
    _dump_latents(model, ds, seed, os.path.join(out, "latents.csv"))
    print(f"CZSL acc {rep_c.acc:.2f} | GZSL U {rep_g.u:.2f} S {rep_g.s:.2f} "
          f"H {rep_g.h:.2f}")
    print(f"reports in {out}")
    return 0


def _dump_latents(model, ds, seed, path):
    """Raw latent embeddings of all test samples, for external plotting."""
    idx = np.concatenate([ds.test_seen_idx, ds.test_unseen_idx])
    z = encode_test_features(model, ds.features[idx],
                             run_stream(seed, "latents"))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        dims = ",".join(f"z{j}" for j in range(z.shape[1]))
        f.write(f"sample,class,{dims}\n")
        for i, sample in enumerate(idx):
            vals = ",".join(f"{v:.6f}" for v in z[i])
            f.write(f"{int(sample)},{int(ds.labels[sample])},{vals}\n")


def cmd_gradcheck(cfg, seed, out):
    results = run_gradcheck(seed=seed)
    width = max(len(n) for n, _, _ in results)
    ok = True
    for name, err, passed in results:
        ok &= passed
        print(f"{name:<{width}}  rel_err {err:.3e}  "
              f"{'pass' if passed else 'FAIL'}")
    return 0 if ok else 2


ABLATION_VARIANTS = (
    ("full", AblationFlags()),
    ("no_sa", AblationFlags(disable_sa=True)),
    ("no_da_icoral", AblationFlags(disable_da_icoral=True)),
    ("no_icoral", AblationFlags(disable_icoral=True)),
)


def cmd_ablate(cfg, seed, out):
    seeds = cfg.get("seeds", [seed + i for i in range(5)])
    ev = _take(cfg, "eval", EvalConfig)
    rows = []
    for name, flags in ABLATION_VARIANTS:
        for s in seeds:
            ds = resolve_dataset(cfg, s)
            model, _ = _train_one(cfg, ds, s, flags)
            rep_c, rep_g = _evaluate(ev, model, ds, s)
            rows.append((name, s, rep_g.u, rep_g.s, rep_g.h, rep_c.acc))
            print(f"{name} seed {s}: U {rep_g.u:.2f} S {rep_g.s:.2f} "
                  f"H {rep_g.h:.2f} Acc {rep_c.acc:.2f}")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "ablation.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("variant,seed,u,s,h,acc\n")
        for name, s, u, sv, h, acc in rows:
            f.write(f"{name},{s},{u:.2f},{sv:.2f},{h:.2f},{acc:.2f}\n")
        for name, _ in ABLATION_VARIANTS:
            sub = [r for r in rows if r[0] == name]
            mean = [float(np.mean([r[i] for r in sub])) for i in (2, 3, 4, 5)]
            f.write(f"{name},mean,{mean[0]:.2f},{mean[1]:.2f},"
                    f"{mean[2]:.2f},{mean[3]:.2f}\n")
    print(f"ablation table in {path}")
    return 0


# ---- entry point ---------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="zsalign",
        description="Cross-modal zero-shot learning with structure-then-"
                    "distribution alignment")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in ("synth", "train", "eval", "gradcheck", "ablate"):
        p = sub.add_parser(verb)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        if verb == "eval":
            p.add_argument("--checkpoint", required=True)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        if seed < 0:
            raise ConfigError(f"'seed' must be >= 0, got {seed}")
        out = args.out if args.out is not None else cfg.get("out", "runs/out")
        if args.command != "gradcheck":
            _check_out(out)
        if args.command == "synth":
            return cmd_synth(cfg, seed, out)
        if args.command == "train":
            return cmd_train(cfg, seed, out)
        if args.command == "eval":
            return cmd_eval(cfg, seed, out, args.checkpoint)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, seed, out)
        if args.command == "ablate":
            return cmd_ablate(cfg, seed, out)
        return 1
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (ValueError, TrainingDivergence, RuntimeError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
