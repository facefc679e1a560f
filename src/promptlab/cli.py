"""Command-line pipeline: gen-data, search-attrs, train, eval, ablate, report.

Each command reads one JSON run config (``--config``), applies flag
overrides (flags win), and writes versioned artifact files into the output
directory. Commands are idempotent: identical config and seed produce
byte-identical artifacts. On failure, a failed allocation included (the
machine's limit, not a fault), the process exits nonzero and the last line on
standard error is a single machine-parseable summary of the form
``error: <ErrorType>: <message>``. Each command imports the modules it runs
in its own body, so ``report`` loads no numpy and ``gen-data`` no encoder.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from itertools import permutations

from .config import CHOICES, RunConfig, load_run_config, save_run_config
from .errors import CheckpointError, ConfigError, DataError, PromptLabError
from .serialize import dump_artifact, file_sha256

MANIFEST_KIND = "dataset_manifest"
SWEEP_KIND = "ablation_sweep"

ABLATION_AXES = ("length", "class_position", "drop_policy", "attr_order", "attr_position", "init")


# -- plumbing --------------------------------------------------------------------


def _path(config: RunConfig, name: str) -> str:
    return os.path.join(config.out_dir, name)


def _load_config(args) -> RunConfig:
    try:
        seeds = None if args.seeds is None else [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--seeds must be integers, got {args.seeds!r}") from None
    if seeds == []:
        raise ConfigError(f"--seeds names no seed, got {args.seeds!r}")
    return load_run_config(args.config, {"seed": args.seed, "out": args.out, "seeds": seeds})


def _tasks_for(config: RunConfig):
    """Base and novel halves, read from the dataset files gen-data wrote.

    The files must have been generated from this config's task spec; a stale
    pair (the spec changed since gen-data) is a DataError. So is a class name
    that names two classes, in one file or across the two: accuracies are
    reported per class name, and one class's entry would replace the other's.
    And so is a novel vocabulary that is not the base one, word for word and
    vector for vector: the encoder is built from the base vocabulary alone.
    """
    from .data import DATASET_KIND, Task
    base_path = _path(config, "base.json")
    if not os.path.exists(base_path):
        raise DataError(f"no dataset at {base_path}; run gen-data first")
    paths = (base_path, _path(config, "novel.json"))
    base, novel = (Task.load(path, config.task_spec) for path in paths)
    if (novel.vocabulary.words != base.vocabulary.words
            or novel.vocabulary.vectors.tobytes() != base.vocabulary.vectors.tobytes()):
        raise DataError(f"{paths[1]}:{DATASET_KIND}.vocabulary is not the vocabulary of "
                        f"{base_path}")
    seen = set()
    for path, task in zip(paths, (base, novel)):
        for name in task.class_names:
            if name in seen:
                raise DataError(f"{path}:{DATASET_KIND}.class_names: {name!r} names two classes")
            seen.add(name)
    return base, novel


def _run_inputs(args):
    """(config, base, novel, encoder) for a command that runs the encoders.

    The encoder depends only on the run seed and stays frozen, so one
    instance serves every seed and ablation cell of the command.
    """
    from .encoders import DualEncoder, build_config_for
    config = _load_config(args)
    base, novel = _tasks_for(config)
    cfg = build_config_for(base.vocabulary, image_dim=base.spec.raw_feature_dim,
                           **config.encoder_overrides)
    return config, base, novel, DualEncoder(cfg, base.vocabulary, seed=config.seed)


def _resolve_bases(config: RunConfig, task):
    src = config.attributes
    if src.explicit is not None:
        return tuple(src.explicit)
    if src.fixture is not None:
        from .attributes import fixture_bases
        return fixture_bases(src.fixture).bases
    from .attributes import LlmClient, ResponseCache, describe_categories, summarize_bases
    cache = ResponseCache(_path(config, "llm_cache"))
    client = LlmClient(src.llm, cache=cache)
    described = describe_categories(task.class_names, client)
    return summarize_bases(described, 5, client).bases


def _selected_attributes(config: RunConfig) -> tuple:
    """The combination a train run anchors on: explicit config wins, then search output."""
    if config.train.attributes:
        return tuple(config.train.attributes)
    result_path = _path(config, "search_result.txt")
    if os.path.exists(result_path):
        from .search import load_result
        return tuple(load_result(result_path).selected)
    raise ConfigError(
        "no attributes to anchor on: set train.attributes or run search-attrs first"
    )


# -- commands -------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    from .data import make_base_novel_task
    config = _load_config(args)
    os.makedirs(config.out_dir, exist_ok=True)
    base, novel = make_base_novel_task(config.task_spec)
    entries = []
    for task, name in ((base, "base.json"), (novel, "novel.json")):
        path = _path(config, name)
        task.save(path)
        entries.append(
            {
                "file": name,
                "sha256": file_sha256(path),
                "classes": len(task.class_names),
                "splits": {k: len(y) for k, (x, y) in sorted(task.splits.items())},
            }
        )
    manifest = {
        "config_hash": config.fingerprint(),
        "datasets": entries,
    }
    dump_artifact(MANIFEST_KIND, manifest, _path(config, "manifest.json"))
    save_run_config(config, _path(config, "run_config.json"))
    for e in entries:
        print(f"wrote {e['file']}: {e['classes']} classes, splits {e['splits']}")
    return 0


def cmd_search_attrs(args) -> int:
    from .search import alternating_search, export_result
    config, base, _, encoder = _run_inputs(args)
    bases = _resolve_bases(config, base)
    result = alternating_search(base, bases, config.search, encoder)
    export_result(result, _path(config, "search_result.txt"))
    print(f"pool size {len(result.candidates)} over bases: {', '.join(result.bases)}")
    print(f"selected: ({', '.join(result.selected)})")
    return 0


def _save_reports(config: RunConfig, reports, name: str):
    """Write (seed, report) pairs and their aggregate, under seed -1, to one report file."""
    from .reports import save_report_records
    from .training import aggregate_reports
    aggregate = aggregate_reports(report for _, report in reports)
    records = [
        {"config_hash": config.fingerprint(), "seed": seed, "report": report}
        for seed, report in [*reports, (-1, aggregate)]
    ]
    save_report_records(records, _path(config, name))
    return aggregate


def cmd_train(args) -> int:
    from .training import base_novel_report, make_bank, save_checkpoint, train_prompts
    config, base, novel, encoder = _run_inputs(args)
    tag = "classic" if args.classic else "atprompt"
    attrs = () if args.classic else _selected_attributes(config)
    reports = []
    for seed in config.seed_list():
        train_cfg = replace(config.train, attributes=attrs, seed=seed)
        bank, _ = train_prompts(base, train_cfg, make_bank(train_cfg, encoder), encoder)
        layout = train_cfg.effective_layout()
        save_checkpoint(_path(config, f"checkpoint_{tag}_s{seed}.json"), bank, layout,
                        config_hash=config.fingerprint())
        reports.append((seed, base_novel_report(encoder, bank, layout, base, novel)))
    aggregate = _save_reports(config, reports, f"report_{tag}.json")
    print(
        f"{tag}: base {aggregate.base_accuracy:.2f} novel {aggregate.novel_accuracy:.2f} "
        f"hm {aggregate.harmonic_mean:.2f} over {aggregate.seeds_aggregated} seed(s)"
    )
    return 0


def cmd_eval(args) -> int:
    from .training import base_novel_report, load_checkpoint
    config, base, novel, encoder = _run_inputs(args)
    tag = "classic" if args.classic else "atprompt"
    reports = []
    for seed in config.seed_list():
        path = _path(config, f"checkpoint_{tag}_s{seed}.json")
        if not os.path.exists(path):
            raise CheckpointError(f"no checkpoint at {path}; run train first")
        bank, layout = load_checkpoint(path)
        if bank.embed_dim != encoder.config.embed_dim:
            raise CheckpointError(f"{path}: bank.class_block rows have width {bank.embed_dim}, "
                                  f"the encoder embeds in {encoder.config.embed_dim}")
        report = base_novel_report(encoder, bank, layout, base, novel)
        reports.append((seed, report))
        print(f"seed {seed}: base {report.base_accuracy:.2f} novel {report.novel_accuracy:.2f} "
              f"hm {report.harmonic_mean:.2f}")
    _save_reports(config, reports, f"eval_report_{tag}.json")
    return 0


def _ablation_cells(config: RunConfig, axis: str):
    """(label, train config) per cell; every cell starts from the selected attributes."""
    train = replace(config.train, attributes=_selected_attributes(config))
    if axis == "length":
        for n in (1, 2, 4):
            yield f"soft_len={n}", replace(train, soft_len=n, attr_soft_len=n)
    elif axis == "class_position":
        for pos in CHOICES["class_token_position"]:
            yield pos, replace(train, layout=replace(train.layout, class_token_position=pos))
    elif axis == "drop_policy":
        for policy in CHOICES["drop_policy"]:
            yield policy, replace(
                train, layout=replace(train.layout, drop_policy=policy, depth=2)
            )
    elif axis == "attr_order":
        if len(train.attributes) < 2:
            raise ConfigError(f"attr_order needs >= 2 anchored attributes, got {train.attributes}")
        for order in permutations(train.attributes):
            yield ", ".join(order), replace(train, attributes=order)
    elif axis == "attr_position":
        for style in CHOICES["attribute_position_style"]:
            yield style, replace(
                train, layout=replace(train.layout, attribute_position_style=style)
            )
    elif axis == "init":
        for scheme in CHOICES["init_scheme"]:
            yield scheme, replace(train, init_scheme=scheme)


def cmd_ablate(args) -> int:
    from .training import aggregate_reports, run_base_to_novel
    config, base, novel, encoder = _run_inputs(args)
    rows = []
    for label, train_cfg in _ablation_cells(config, args.axis):
        reports = []
        for seed in config.seed_list():
            reports.append(run_base_to_novel(base, novel, replace(train_cfg, seed=seed), encoder))
        agg = aggregate_reports(reports)
        rows.append(
            {
                "cell": label,
                "base": agg.base_accuracy,
                "novel": agg.novel_accuracy,
                "hm": agg.harmonic_mean,
                "seeds": agg.seeds_aggregated,
            }
        )
    rows.sort(key=lambda r: -r["hm"])
    sweep = {
        "axis": args.axis,
        "config_hash": config.fingerprint(),
        "rows": rows,
    }
    dump_artifact(SWEEP_KIND, sweep, _path(config, f"ablate_{args.axis}.json"))
    print(f"{'cell':<24} {'base':>7} {'novel':>7} {'hm':>7}")
    for r in rows:
        print(f"{r['cell']:<24} {r['base']:>7.2f} {r['novel']:>7.2f} {r['hm']:>7.2f}")
    return 0


def cmd_report(args) -> int:
    from .reports import load_report_records
    config = _load_config(args)
    out = config.out_dir
    if not os.path.isdir(out):
        raise DataError(f"no output directory {out}")
    print(f"{'run':<12} {'base':>7} {'novel':>7} {'hm':>7} {'seeds':>6}")
    found = False
    for tag in ("atprompt", "classic"):
        for prefix in ("report", "eval_report"):
            path = os.path.join(out, f"{prefix}_{tag}.json")
            if not os.path.exists(path):
                continue
            found = True
            agg = next((r["report"] for r in load_report_records(path) if r["seed"] == -1), None)
            if agg is None:  # an empty file too: each report file ends in its aggregate
                raise DataError(f"{path}: no records hold the aggregate (seed -1)")
            name = tag if prefix == "report" else f"{tag} (eval)"
            print(
                f"{name:<12} {agg.base_accuracy:>7.2f} {agg.novel_accuracy:>7.2f} "
                f"{agg.harmonic_mean:>7.2f} {agg.seeds_aggregated:>6}"
            )
    if not found:
        raise DataError(f"no report files under {out}")
    return 0


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptlab",
        description="attribute-anchored prompt learning pipeline on a miniature dual encoder",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, text in (
        ("gen-data", cmd_gen_data, "generate the base/novel dataset files"),
        ("search-attrs", cmd_search_attrs, "run differentiable attribute search"),
        ("train", cmd_train, "train prompts on base classes and report base/novel"),
        ("eval", cmd_eval, "re-evaluate saved checkpoints"),
        ("ablate", cmd_ablate, "sweep one design axis and compare by harmonic mean"),
        ("report", cmd_report, "print the stored evaluation summaries"),
    ):
        p = commands[name] = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--seeds", default=None, help="comma-separated seed list override")
        p.set_defaults(func=func)
    commands["train"].add_argument("--classic", action="store_true",
                                   help="train the no-attribute baseline")
    commands["eval"].add_argument("--classic", action="store_true",
                                  help="evaluate the baseline checkpoints")
    commands["ablate"].add_argument("--axis", required=True, choices=ABLATION_AXES)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PromptLabError, OSError, MemoryError) as exc:
        message = str(exc) or repr(exc)
        print(f"error: {type(exc).__name__}: {message}".replace("\n", " "), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
