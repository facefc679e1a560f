"""Every promptlab name the benchmark's span tracer patches must still exist.

``perfbench/spans.py`` wraps functions and methods by name; a renamed or
deleted one makes ``perfbench/run.py --trace 1`` fail with a ``KeyError``.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    spans = load_spans()
    from promptlab import tensor

    missing = [f"tensor.{name}" for name in [*spans.TENSOR_OPS, "_check_finite", "_make"]
               if name not in vars(tensor)]
    missing += [] if "backward" in vars(tensor.Tensor) else ["tensor.Tensor.backward"]
    for layer, functions in spans.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"promptlab.{layer}")
        for attr in functions:
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or name not in vars(owner):
                missing.append(f"{layer}.{attr}")
    assert not missing, missing
