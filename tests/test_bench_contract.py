"""The names the benchmark's tracer patches (`bench/tracing.py`, `WRAPPED`)
must exist where it patches them, or a traced run fails, and the program
must call them there, or the traced run reads zero for them."""

import importlib.util
from pathlib import Path

from zsalign import (Architecture, EvalCounts, Model, Rng, SynthConfig,
                     TrainSchedule, czsl_eval, fit, gzsl_eval, synth_generate)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_an_attribute_of_its_owner():
    wrapped = load_tracing().WRAPPED
    assert wrapped
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for _, owner, attr in wrapped if attr not in vars(owner)]
    assert missing == []


def test_tracer_records_a_call_for_every_wrapped_name():
    # a function bound at import time, instead of looked up where the
    # tracer patches it, would record no call here
    tracing = load_tracing()
    ds = synth_generate(SynthConfig(n_classes=6, n_seen=4,
                                    samples_per_class=20, visual_dim=16,
                                    attr_dim=8, proto_dim=4))
    arch = Architecture(visual_dim=16, attr_dim=8, n_seen_classes=4,
                        structure_dim=12, latent_dim=4, common_hidden=8,
                        dec_visual_hidden=8, dec_semantic_hidden=6)
    counts = EvalCounts(unseen=5, seen=5)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        model = Model(arch, Rng(0))
        fit(model, ds, TrainSchedule(epochs=1, swd_directions=4), Rng(1))
        czsl_eval(model, ds, counts, Rng(2))
        gzsl_eval(model, ds, counts, Rng(3))
    summary = tracer.summary()
    names = {name for name, _, _ in tracing.WRAPPED}
    names |= {"data.batch_iter", "optim.Adam.step"}
    silent = [n for n in sorted(names) if summary[f"{n}.calls"][0] < 1]
    assert silent == []
