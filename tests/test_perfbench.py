"""The benchmark's tracer still finds every function it wraps."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    # A rename or deletion of a traced function must fail here, not in a
    # `perfbench/run.py --trace 1` run.
    tracer = load_tracer()
    for module, attr in tracer.SPANS + tracer.COUNTS:
        obj = importlib.import_module(f"mnl_bandit.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                pytest.fail(f"perfbench traces mnl_bandit.{module}.{attr}, which does not exist")
        assert callable(obj), f"mnl_bandit.{module}.{attr} is not callable"
