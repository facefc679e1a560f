"""Every promptlab name the benchmark's span tracer patches must still exist.

``perfbench/spans.py`` wraps functions and methods by name, and times each
VJP under the op name ``tensor._make`` receives; a renamed or deleted
function, or an op name it does not list, makes ``perfbench/run.py --trace 1``
fail with a ``KeyError``.
"""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"

# one toy search step and one toy training epoch under the installed tracer
TRACED_TOY_RUN = """
from spans import Tracer, install

tracer = Tracer("toy")
install(tracer)

from promptlab.optim import SGD, Adam
from promptlab.search import search_step
from promptlab.training import TrainConfig, make_bank, train_prompts
from test_search import one_step_setup, search_encoder, search_task

task = search_task()
enc = search_encoder(task)
plan, params, alpha, batch = one_step_setup(task, enc)
search_step(enc, plan, alpha, Adam([alpha], lr=0.05), SGD(params, lr=0.05), batch, batch)
cfg = TrainConfig(epochs=1, batch_size=8, lr_init=0.05)
train_prompts(task, cfg, make_bank(cfg, enc), enc)
assert tracer.counts["tensor.make_calls"] > 0
"""


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


def test_every_op_name_make_records_is_traced():
    # checked in the source, so ops no toy run reaches are covered too
    known = set(load_spans().TENSOR_OPS.values())
    source = ROOT / "src" / "promptlab" / "tensor.py"
    calls = [node for node in ast.walk(ast.parse(source.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_make"]
    unknown = [ast.unparse(call) for call in calls if len(call.args) < 4
               or not (isinstance(call.args[3], ast.Constant) and call.args[3].value in known)]
    assert calls
    assert not unknown, unknown


def test_traced_search_step_and_training_epoch_run():
    # a child process: install patches promptlab for the rest of the process
    path = os.pathsep.join([str(ROOT / "src"), str(SPANS.parent), str(ROOT / "tests")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", TRACED_TOY_RUN], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
