"""The names the benchmark's tracer patches (`bench/tracing.py`, `WRAPPED`)
must exist where it patches them, or a traced run fails."""

import importlib.util
from pathlib import Path

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
