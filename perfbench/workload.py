"""One benchmark workload in one process: set up, run passes in a closed loop, check outputs.

``run.py`` starts this file as a child process, one at a time. The child
builds its inputs from the seed, reports how long set-up took from its own
spawn, then repeats the workload's pass for ``--seconds`` (and until
``--min-steps`` step samples were taken), checking every output. It writes one
JSON result file and exits 0 even when an operation failed; the failure is
recorded per operation.

A pass is the unit ``run_s`` times:

- ``search15``: one ``alternating_search`` (one operation);
- ``train100``: the anchored and the classic ``run_base_to_novel`` arm (two);
- ``cli_pipeline``: six ``python -m promptlab.cli`` commands in a fresh
  directory (six).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# -- inputs: the acceptance suite's criterion 5, 6 and 8 set-ups --------------------

SEARCH_BASES = ("color", "shape", "size", "texture")

PIPELINE_CONFIG = {
    "kind": "run_config",
    "format_version": 1,
    "task": {
        "num_classes": 6,
        "samples_per_class": 8,
        "noise_std": 0.1,
        "latent_attributes": [
            ["color", ["color0", "color1", "color2", "color3", "color4", "color5"]],
            ["shape", ["shape0", "shape1"]],
        ],
        "informative_attributes": ["color"],
        "seed": 0,
    },
    "attributes": {"explicit": ["color", "shape"]},
    "search": {"epochs": 2, "batch_size": 16, "theta_lr": 0.05, "alpha_lr": 0.02},
    "train": {"epochs": 3, "batch_size": 16, "lr_init": 0.05},
    "layout": {"depth": 1},
    "out": "out",
    "seed": 3,
}

# (metric name, argv) in pipeline order
CLI_COMMANDS = (
    ("gen_data", ["gen-data"]),
    ("search_attrs", ["search-attrs"]),
    ("train", ["train"]),
    ("train_classic", ["train", "--classic"]),
    ("eval", ["eval"]),
    ("report", ["report"]),
)

# artifact name prefix -> the command that writes it, so a changed byte fails that command
ARTIFACT_OWNERS = (
    ("search_result", "search_attrs"), ("checkpoint_atprompt", "train"),
    ("report_atprompt", "train"), ("checkpoint_classic", "train_classic"),
    ("report_classic", "train_classic"), ("eval_report", "eval"),
)


def recovery_spec(seed, signal=1.0, include_id_words=False, task_seed_base=300):
    from promptlab.data import LatentAttribute, TaskSpec

    attrs = (
        LatentAttribute("color", tuple(f"color{i}" for i in range(8))),
        LatentAttribute("shape", ("shape0",)),
        LatentAttribute("size", ("size0",)),
        LatentAttribute("texture", ("texture0",)),
    )
    return TaskSpec(
        num_classes=8, samples_per_class=32, noise_std=0.1, latent_attributes=attrs,
        informative_attributes=("color",), attribute_signal=signal, value_spread=0.8,
        include_id_words=include_id_words, feature_map="identity", raw_feature_dim=32,
        embed_dim=32, seed=task_seed_base + seed,
    )


def small_encoder(vocabulary, seed):
    from promptlab.encoders import DualEncoder, build_config_for

    cfg = build_config_for(vocabulary, num_heads=1, joint_dim=32,
                           image_dim=32, image_hidden_dim=32)
    return DualEncoder(cfg, vocabulary, seed=seed)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- step and loss probes ---------------------------------------------------------------


class Probes:
    """Times theta-optimizer steps (wrapping ``SGD.step``) and records every loss."""

    def __init__(self):
        from promptlab import optim, tensor

        self.step_ms: list[float] = []
        self.losses: list[float] = []
        self._last = None
        step, backward = optim.SGD.step, tensor.Tensor.backward
        probes = self

        def timed_step(opt):
            step(opt)
            now = time.perf_counter()
            if probes._last is not None:
                probes.step_ms.append((now - probes._last) * 1e3)
            probes._last = now

        def logged_backward(loss):
            probes.losses.append(float(loss.data))
            backward(loss)

        optim.SGD.step = timed_step
        tensor.Tensor.backward = logged_backward

    def new_operation(self) -> None:
        """Steps of different operations are not consecutive."""
        self._last = None


# -- workloads ------------------------------------------------------------------------------


class Search15:
    """One criterion-5 search: 4 bases, 15 candidates, 10 epochs, 80 alpha+theta steps."""

    RSS_OF = resource.RUSAGE_SELF

    def __init__(self, seed: int, quick: bool, out: str):
        from promptlab.data import generate_task
        from promptlab.search import SearchConfig

        self.task = generate_task(recovery_spec(seed))
        self.encoder = small_encoder(self.task.vocabulary, seed)
        self.config = SearchConfig(seed=seed, theta_lr=0.05, alpha_lr=0.05,
                                   epochs=1 if quick else 10)

    def run_pass(self, probes: Probes, index: int) -> list:
        from promptlab.search import alternating_search

        def search():
            result = alternating_search(self.task, SEARCH_BASES, self.config, self.encoder)
            result.validate()
            return {"selected": list(result.selected), "weights": result.weights.tolist()}

        return [run_operation("search", search, probes)]


class Train100:
    """The criterion-6 pair: anchored on ("color",) and classic, 100 epochs, 400 steps each."""

    ARMS = (("anchored", ("color",)), ("classic", ()))
    RSS_OF = resource.RUSAGE_SELF

    def __init__(self, seed: int, quick: bool, out: str):
        from promptlab.data import make_base_novel_task
        from promptlab.training import TrainConfig

        self.base, self.novel = make_base_novel_task(
            recovery_spec(seed, signal=0.8, include_id_words=True, task_seed_base=700))
        self.encoder = small_encoder(self.base.vocabulary, seed)
        self.config = TrainConfig(epochs=2 if quick else 100, batch_size=32, lr_init=0.05,
                                  attr_soft_len=1, seed=seed)

    def run_pass(self, probes: Probes, index: int) -> list:
        from promptlab.training import run_base_to_novel

        def arm(attributes):
            report = run_base_to_novel(self.base, self.novel,
                                       replace(self.config, attributes=attributes), self.encoder)
            report.validate()
            return {"base": report.base_accuracy, "novel": report.novel_accuracy,
                    "hm": report.harmonic_mean}

        return [run_operation(name, lambda a=attrs: arm(a), probes) for name, attrs in self.ARMS]


class CliPipeline:
    """The six criterion-8 commands, each its own process, in a fresh directory per pass."""

    RSS_OF = resource.RUSAGE_CHILDREN  # peak RSS: the largest command process

    def __init__(self, seed: int, quick: bool, out: str):
        import promptlab.cli  # noqa: F401  set-up is the import a user pays per command

        self.config = dict(PIPELINE_CONFIG, seed=seed)
        self.out = out
        self.trace_dir = None

    def run_pass(self, probes: Probes, index: int) -> list:
        from promptlab.search import load_result
        from promptlab.training import load_report_records

        work = os.path.join(self.out, f"pass{index}")
        os.makedirs(work)
        with open(os.path.join(work, "run.json"), "w") as fh:
            json.dump(self.config, fh)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        ops = []
        for name, argv in CLI_COMMANDS:
            if self.trace_dir:
                cmd = [sys.executable, os.path.join(HERE, "clitrace.py"),
                       "--spans", os.path.join(self.trace_dir, f"spans-{name}.npz"),
                       "--command", name, "--"]
            else:
                cmd = [sys.executable, "-m", "promptlab.cli"]
            cmd += argv + ["--config", "run.json"]
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
            stdout, stderr = proc.communicate(timeout=170)
            probes.step_ms.append((time.perf_counter() - t0) * 1e3)
            op = {"name": name, "ok": proc.returncode == 0, "error": None,
                  "outputs": {"stdout": hashlib.sha256(stdout).hexdigest()}}
            if proc.returncode != 0:
                op["error"] = f"exit {proc.returncode}: {stderr.decode(errors='replace')[-300:]}"
            ops.append(op)

        by_name = {op["name"]: op for op in ops}
        out_dir = os.path.join(work, "out")
        hashes = {}
        if os.path.isdir(out_dir):
            hashes = {f: sha256_file(os.path.join(out_dir, f)) for f in sorted(os.listdir(out_dir))}
        checks = (
            ("search_attrs", lambda: load_result(os.path.join(out_dir, "search_result.txt"))),
            ("train", lambda: load_report_records(os.path.join(out_dir, "report_atprompt.json"))),
            ("train_classic",
             lambda: load_report_records(os.path.join(out_dir, "report_classic.json"))),
            ("eval", lambda: load_report_records(os.path.join(out_dir, "eval_report_atprompt.json"))),
        )
        for name, check in checks:
            try:
                check()
            except Exception as exc:  # any broken artifact fails the command that wrote it
                fail(by_name[name], f"{type(exc).__name__}: {exc}")
        if hashes.get("report_atprompt.json") != hashes.get("eval_report_atprompt.json"):
            fail(by_name["eval"], "eval_report_atprompt.json differs from report_atprompt.json")
        for name, digest in hashes.items():
            owner = next((cmd for prefix, cmd in ARTIFACT_OWNERS if name.startswith(prefix)),
                         "gen_data")
            by_name[owner]["outputs"][name] = digest
        return ops


WORKLOADS = {"search15": Search15, "train100": Train100, "cli_pipeline": CliPipeline}


def run_operation(name: str, fn, probes: Probes) -> dict:
    """Run one operation; an exception or a non-finite loss fails it."""
    probes.new_operation()
    first_loss = len(probes.losses)
    op = {"name": name, "ok": True, "error": None, "outputs": None}
    try:
        op["outputs"] = fn()
    except Exception as exc:  # the benchmark counts failures instead of stopping
        fail(op, f"{type(exc).__name__}: {exc}")
    losses = probes.losses[first_loss:]
    if not all(map(math.isfinite, losses)):
        fail(op, "non-finite loss")
    return op


def fail(op: dict, why: str) -> None:
    op["ok"] = False
    op["error"] = op["error"] or why


def run_passes(workload, probes: Probes, seconds: float, max_passes: int,
               min_steps: int) -> list:
    """Closed loop: the next pass starts when the previous one ends.

    A pass starts only if it is expected to end within ``seconds`` (judged by
    the last pass), or while fewer than ``min_steps`` step samples exist.
    """
    passes = []
    start = time.perf_counter()
    while True:
        cpu0 = time.process_time()
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        ops = workload.run_pass(probes, len(passes))
        run_s = time.perf_counter() - t0
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu_s = (time.process_time() - cpu0 + kids1.ru_utime - kids0.ru_utime
                 + kids1.ru_stime - kids0.ru_stime)
        if passes:  # the same seed must give the same outputs on every pass
            for op, ref in zip(ops, passes[0]["ops"]):
                if op["ok"] and ref["ok"] and op["outputs"] != ref["outputs"]:
                    fail(op, "outputs differ from the first pass")
        passes.append({"run_s": run_s, "cpu_s": cpu_s, "ops": ops})
        if max_passes and len(passes) >= max_passes:
            return passes
        if (time.perf_counter() - start + run_s > seconds
                and len(probes.step_ms) >= min_steps):
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-passes", type=int, default=0)
    parser.add_argument("--min-steps", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before the parent spawned this process")
    parser.add_argument("--out", required=True, help="directory for the result and pass files")
    parser.add_argument("--tag", required=True, help="result file name stem")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--quick", action="store_true", help="few steps, for the harness tests")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    tracer = None
    if args.trace_dir and args.workload != "cli_pipeline":
        from spans import Tracer, install

        tracer = Tracer(f"{args.workload}-s{args.seed}")
        install(tracer)
    workdir = os.path.join(args.out, args.tag)
    os.makedirs(workdir)
    workload = WORKLOADS[args.workload](args.seed, args.quick, workdir)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if args.trace_dir and args.workload == "cli_pipeline":
            workload.trace_dir = args.trace_dir
        probes = Probes()
        if tracer:
            tracer.begin_window()
        passes = run_passes(workload, probes, args.seconds, args.max_passes, args.min_steps)
        if tracer:
            tracer.end_window()
            tracer.save(os.path.join(args.trace_dir, "spans-main.npz"),
                        {"workload": args.workload})
        result.update(
            passes=passes,
            step_ms=probes.step_ms,
            peak_rss_mb=resource.getrusage(workload.RSS_OF).ru_maxrss / 1024.0,
        )
    with open(os.path.join(args.out, f"{args.tag}.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
