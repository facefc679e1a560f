"""Span tracer installed around promptlab's public functions from outside ``src/``.

``install(tracer)`` replaces module functions and class methods of every layer
with wrappers that record one span each (name id, start, end, parent span) in
flat arrays. Module attributes that alias a wrapped function, such as
``cli.dump_json`` or ``search.class_text_features``, are patched as well, so no
call is missed because a caller imported the function by name.

The tensor layer is traced at three points:

- each primitive op function (``tensor.<op>`` spans, one per ``_make`` call);
- ``_make`` wraps every vector-Jacobian closure it stores, giving
  ``tensor.<op>.vjp`` spans and counts of parent gradients computed and used;
- ``_check_finite`` (``tensor.finite_check`` spans) and the ``np.einsum`` call
  in the matmul VJP, which computes the weight gradient of ``x @ W``; its time
  is accumulated, not spanned, so it stays inside the matmul VJP's self time.

``summarize`` turns saved span files into the per-layer metrics of
``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import time
import types
from array import array
from collections import Counter

import numpy as np

# primitive op function -> op name passed to tensor._make
TENSOR_OPS = {
    "add": "add", "mul": "mul", "scale": "scale", "gelu": "gelu", "tanh": "tanh",
    "tsum": "sum", "matmul": "matmul", "transpose_last": "transpose_last",
    "reshape": "reshape", "expand0": "expand0", "softmax": "softmax",
    "layer_norm": "layer_norm", "l2_normalize": "l2_normalize",
    "cross_entropy": "cross_entropy", "embedding": "embedding", "concat": "concat",
    "stack": "stack", "narrow": "narrow",
}

# the ops the three workloads use, in the order the per-layer table lists them
USED_OPS = (
    "embedding", "matmul", "add", "narrow", "concat", "layer_norm", "scale",
    "transpose_last", "gelu", "softmax", "l2_normalize", "stack", "reshape", "mul",
    "cross_entropy", "expand0",
)

# layer -> {attribute, or "Class.method": span name}
LAYER_FUNCTIONS = {
    "encoders": {
        "DualEncoder.__init__": "init", "DualEncoder.encode_text": "encode_text",
        "DualEncoder.encode_image": "encode_image", "DualEncoder.class_logits": "class_logits",
        "DualEncoder.embed_tokens": "embed_tokens",
        "DualEncoder.encode_class_names": "encode_class_names",
        "DualEncoder.save": "save", "DualEncoder.load": "load",
        "build_config_for": "build_config_for",
    },
    "prompts": {name: name for name in (
        "compose_shallow", "compose_classic", "class_text_features", "deep_forward",
        "apply_drop_policy", "template_rows_for", "init_soft_tokens")} | {
        "SoftPromptBank.create": "bank_create", "SoftPromptBank.to_dict": "bank_to_dict",
        "SoftPromptBank.from_dict": "bank_from_dict",
    },
    "vocab": {"Vocabulary.encode": "encode",
              "Vocabulary.encode_with_sentinels": "encode_with_sentinels"},
    "search": {name: name for name in (
        "alternating_search", "candidate_logits", "mixture_logits", "build_candidate_banks",
        "enumerate_pool", "select_candidate", "format_result", "export_result",
        "parse_result", "load_result")},
    "optim": {"SGD.step": "sgd_step", "SGD.zero_grad": "sgd_zero_grad",
              "Adam.step": "adam_step", "Adam.zero_grad": "adam_zero_grad",
              "cosine_lr": "cosine_lr"},
    "training": {name: name for name in (
        "train_prompts", "evaluate", "per_class_accuracy", "run_base_to_novel", "make_bank",
        "aggregate_reports", "save_report_records", "load_report_records")},
    "data": {"generate_task": "generate_task", "make_base_novel_task": "make_base_novel_task",
             "Task.save": "task_save", "Task.load": "task_load"},
    "serialize": {name: name for name in ("dump_json", "dumps_json", "load_json", "file_sha256")},
    "config": {"load_run_config": "load_run_config", "save_run_config": "save_run_config",
               "config_hash": "config_hash", "RunConfig.fingerprint": "fingerprint"},
    "cli": {name: name for name in (
        "main", "cmd_gen_data", "cmd_search_attrs", "cmd_train", "cmd_eval", "cmd_report")},
}


class Tracer:
    """In-memory span recorder; spans live in flat arrays until ``save``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.window = [0.0, None]
        self.einsum_s = 0.0

    def _id(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, result)`` may add counts."""
        return functools.wraps(fn)(self.spanned(self._id(name), fn, after))

    def spanned(self, nid: int, fn, after=None):
        """``wrap`` without copying ``fn``'s metadata, for closures made per call."""
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def begin_window(self) -> None:
        """Start of the timed part: counts restart, and count metrics use later spans."""
        self.counts.clear()
        self.einsum_s = 0.0
        self.window[0] = time.perf_counter()

    def end_window(self) -> None:
        self.window[1] = time.perf_counter()

    def save(self, path: str, meta: dict) -> None:
        """Write spans as arrays plus a JSON header with names, counts and meta."""
        header = {
            "run_id": self.run_id,
            "names": sorted(self.names, key=self.names.get),
            "counts": dict(self.counts),
            "einsum_s": self.einsum_s,
            "window": self.window,
            "meta": meta,
        }
        np.savez_compressed(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        )


def import_all_modules() -> None:
    """Import every promptlab module, so each aliasing attribute can be patched."""
    import promptlab

    for info in pkgutil.iter_modules(promptlab.__path__):
        importlib.import_module(f"promptlab.{info.name}")


def _patch_aliases(originals: dict) -> None:
    """Point every promptlab module attribute that is a wrapped original at its wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("promptlab"):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and wrapper[0] is value:
                setattr(mod, attr, wrapper[1])


def install(tracer: Tracer) -> None:
    """Wrap every layer of an imported promptlab; call once per process."""
    import_all_modules()
    from promptlab import tensor as T

    counts = tracer.counts
    originals: dict[int, tuple] = {}

    def swap(owner, attr: str, span: str, after=None):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(span, raw.__func__, after))
        else:
            wrapped = tracer.wrap(span, raw, after)
            originals[id(raw)] = (raw, wrapped)
        setattr(owner, attr, wrapped)

    # tensor: op forwards, their VJPs, finite checks, backward, the weight-grad einsum
    for fn_name, op in TENSOR_OPS.items():
        swap(T, fn_name, f"tensor.{op}")
    swap(T, "_check_finite", "tensor.finite_check")
    swap(T.Tensor, "backward", "tensor.backward")

    make = T._make
    vjp_ids = {op: tracer._id(f"tensor.{op}.vjp") for op in TENSOR_OPS.values()}

    def traced_make(data, parents, vjp, op):
        counts["tensor.make_calls"] += 1
        for p in parents:
            if p.requires_grad:
                vjp = tracer.spanned(vjp_ids[op], vjp,
                                     lambda args, grads: _count_grads(counts, parents, grads))
                break
        return make(data, parents, vjp, op)

    T._make = traced_make

    real_einsum = np.einsum

    def einsum(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return real_einsum(*args, **kwargs)
        finally:
            tracer.einsum_s += time.perf_counter() - t0

    np_view = types.ModuleType("numpy")
    np_view.__dict__.update(vars(np))
    np_view.einsum = einsum
    T.np = np_view

    # the other layers
    def text_rows(args, result):
        embeds = args[1]
        counts["encoders.encode_text.rows"] += embeds.shape[0] if embeds.ndim == 3 else 1

    def bytes_written(args, result):
        counts["serialize.bytes_written"] += os.path.getsize(args[1])

    extra = {"encoders.encode_text": text_rows, "serialize.dump_json": bytes_written}
    for layer, functions in LAYER_FUNCTIONS.items():
        mod = importlib.import_module(f"promptlab.{layer}")
        for attr, name in functions.items():
            owner, _, attr = attr.rpartition(".")
            span = f"{layer}.{name}"
            swap(getattr(mod, owner) if owner else mod, attr, span, extra.get(span))
    _patch_aliases(originals)


def _count_grads(counts: Counter, parents, grads) -> None:
    computed = used = 0
    for p, g in zip(parents, grads):
        if g is not None:
            computed += 1
            used += p.requires_grad
    counts["tensor.vjp_calls"] += 1
    counts["tensor.parent_grads_computed"] += computed
    counts["tensor.parent_grads_used"] += used


# -- reading span files back ---------------------------------------------------------


def load_spans(path: str) -> dict:
    """One saved span file: arrays, per-span durations and self times, and the header."""
    with np.load(path) as z:
        spans = {k: z[k] for k in ("name_id", "parent", "start", "end")}
        header = json.loads(z["header"].tobytes().decode())
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    child = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    lo, hi = header["window"]
    in_window = spans["start"] >= lo
    if hi is not None:
        in_window &= spans["start"] <= hi
    return dict(spans, dur=dur, self=dur - child, in_window=in_window, header=header)


class SpanTable:
    """Per-name totals over one or more span files."""

    def __init__(self, files):
        self.calls: Counter = Counter()      # spans inside the timed window
        self.self_s: Counter = Counter()     # self time over the whole process
        self.incl_s: Counter = Counter()     # inclusive time over the whole process
        self.counts: Counter = Counter()
        self.einsum_s = 0.0
        self.metas = []
        self.alpha_ms, self.theta_ms = [], []
        for f in files:
            names = f["header"]["names"]
            n = len(names)
            calls = np.bincount(f["name_id"][f["in_window"]], minlength=n)
            self_s = np.bincount(f["name_id"], weights=f["self"], minlength=n)
            incl_s = np.bincount(f["name_id"], weights=f["dur"], minlength=n)
            for i, name in enumerate(names):
                self.calls[name] += int(calls[i])
                self.self_s[name] += float(self_s[i])
                self.incl_s[name] += float(incl_s[i])
            self.counts.update(f["header"]["counts"])
            self.einsum_s += f["header"]["einsum_s"]
            self.metas.append(f["header"]["meta"])
            self._step_intervals(f, names)

    def _step_intervals(self, f, names) -> None:
        """alpha step: previous theta step's end to Adam.step's end; theta: Adam's end to SGD's."""
        ids = {names.index(n): n for n in ("optim.adam_step", "optim.sgd_step") if n in names}
        if len(ids) < 2:
            return
        mask = f["in_window"] & np.isin(f["name_id"], list(ids))
        order = np.argsort(f["end"][mask])
        kinds = f["name_id"][mask][order]
        ends = f["end"][mask][order]
        prev_kind, prev_end = None, None
        for kind, end in zip(kinds, ends):
            kind = ids[int(kind)]
            if prev_end is not None and kind != prev_kind:
                target = self.alpha_ms if kind == "optim.adam_step" else self.theta_ms
                target.append((end - prev_end) * 1e3)
            prev_kind, prev_end = kind, end

    def rows(self):
        """(name, calls, self_s, incl_s) sorted by self time."""
        return sorted(
            ((n, self.calls[n], self.self_s[n], self.incl_s[n]) for n in self.self_s),
            key=lambda r: -r[2],
        )


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def summarize(table: SpanTable, traced_run_s: float, untraced_run_s: float,
              failed_share: float) -> dict:
    """Per-layer metrics (name -> value) from a traced run's span table."""
    calls, self_s, incl_s, counts = table.calls, table.self_s, table.incl_s, table.counts
    steps = calls["optim.sgd_step"]

    def per_step(value):
        return value / steps if steps else 0.0

    ops = sum(calls[f"tensor.{op}"] for op in TENSOR_OPS.values())
    m = {"tensor.ops": ops, "tensor.ops_per_step": per_step(ops)}
    for op in USED_OPS:
        m[f"tensor.{op}.calls"] = calls[f"tensor.{op}"]
        m[f"tensor.{op}.fwd_s"] = self_s[f"tensor.{op}"]
        m[f"tensor.{op}.vjp_s"] = self_s[f"tensor.{op}.vjp"]
    computed = counts["tensor.parent_grads_computed"]
    m.update({
        "tensor.finite_check_s": self_s["tensor.finite_check"],
        "tensor.backward.s": self_s["tensor.backward"],
        "tensor.vjp_calls": counts["tensor.vjp_calls"],
        "tensor.vjp_useful_share": counts["tensor.parent_grads_used"] / computed if computed else 0.0,
        "tensor.frozen_vjp_s": table.einsum_s,
    })
    share_base = traced_run_s if traced_run_s > 0 else 1.0
    m["tensor.finite_check_share"] = m["tensor.finite_check_s"] / share_base
    m["tensor.frozen_vjp_share"] = table.einsum_s / share_base
    m["tensor.embedding_share"] = (self_s["tensor.embedding"]
                                   + self_s["tensor.embedding.vjp"]) / share_base
    m.update({
        "encoders.encode_text.calls_per_step": per_step(calls["encoders.encode_text"]),
        "encoders.encode_text.rows_per_step": per_step(counts["encoders.encode_text.rows"]),
        "encoders.encode_text.self_s": self_s["encoders.encode_text"],
        "encoders.encode_image.self_s": self_s["encoders.encode_image"],
        "encoders.class_logits.self_s": self_s["encoders.class_logits"],
        "encoders.init_s": incl_s["encoders.init"],
        "prompts.compose_shallow.calls_per_step": per_step(calls["prompts.compose_shallow"]),
        "prompts.compose_shallow.self_s": self_s["prompts.compose_shallow"],
        "prompts.class_text_features.self_s": self_s["prompts.class_text_features"],
        "vocab.encode.calls_per_step": per_step(calls["vocab.encode"]),
        "search.candidate_logits.calls_per_step": per_step(calls["search.candidate_logits"]),
        "search.mixture_logits.self_s": self_s["search.mixture_logits"],
        "search.alpha_step_ms": _median(table.alpha_ms),
        "search.theta_step_ms": _median(table.theta_ms),
        "optim.sgd_step.s": self_s["optim.sgd_step"],
        "optim.adam_step.s": self_s["optim.adam_step"],
        "optim.zero_grad.s": self_s["optim.sgd_zero_grad"] + self_s["optim.adam_zero_grad"],
        "training.train_prompts.s": self_s["training.train_prompts"],
        "training.evaluate.s": self_s["training.evaluate"],
        "training.per_class_accuracy.s": self_s["training.per_class_accuracy"],
        "data.generate_task.s": self_s["data.generate_task"],
        "data.task_save.s": self_s["data.task_save"],
        "data.task_load.s": self_s["data.task_load"],
        "serialize.dump_json.s": self_s["serialize.dump_json"],
        "serialize.load_json.s": self_s["serialize.load_json"],
        "serialize.bytes_written": counts["serialize.bytes_written"],
        "serialize.file_sha256.s": self_s["serialize.file_sha256"],
        "config.load_run_config.s": self_s["config.load_run_config"],
    })
    commands = {meta["command"]: meta for meta in table.metas if "command" in meta}
    m["cli.import_s"] = _median([meta["import_s"] for meta in commands.values()])
    for name in ("gen_data", "search_attrs", "train", "train_classic", "eval", "report"):
        m[f"cli.{name}.s"] = commands[name]["main_s"] if name in commands else 0.0
    m.update({
        "phase.compose_ms": per_step(incl_s["prompts.compose_shallow"]) * 1e3,
        "phase.text_fwd_ms": per_step(incl_s["encoders.encode_text"]) * 1e3,
        "phase.image_fwd_ms": per_step(incl_s["encoders.encode_image"]) * 1e3,
        "phase.backward_ms": per_step(incl_s["tensor.backward"]) * 1e3,
        "phase.optim_ms": per_step(sum(incl_s[f"optim.{n}"] for n in (
            "sgd_step", "sgd_zero_grad", "adam_step", "adam_zero_grad"))) * 1e3,
        "trace.overhead_share": (traced_run_s / untraced_run_s - 1.0) if untraced_run_s else 0.0,
        "failed_share": failed_share,
    })
    return m


def format_table(table: SpanTable, limit: int = 40) -> str:
    """Text table of the spans with the most self time."""
    rows = table.rows()
    total = sum(r[2] for r in rows) or 1.0
    lines = [f"{'span':<40} {'calls':>9} {'self_s':>9} {'self%':>6} {'incl_s':>9}"]
    for name, calls, self_s, incl_s in rows[:limit]:
        lines.append(f"{name:<40} {calls:>9} {self_s:>9.4f} {100 * self_s / total:>6.2f} {incl_s:>9.4f}")
    return "\n".join(lines)
