import functools
import json
import operator
import os
import platform
import re
import shutil
import socket
import subprocess
import sys
from dataclasses import replace
from typing import get_origin, get_type_hints

import numpy as np
import pytest

from promptlab import encoders
from promptlab.attributes import DESCRIBE_TEMPLATE, SUMMARIZE_TEMPLATE, ResponseCache
from promptlab.cli import ABLATION_AXES, main
from promptlab.config import (ARRAYS, CHOICES, RUN_CONFIG_TYPES, AttributeSource, EncoderConfig,
                              LlmClientConfig, PromptLayout, SearchConfig, TaskSpec, TrainConfig,
                              load_run_config)
from promptlab.data import make_base_novel_task
from promptlab.encoders import DualEncoder, build_config_for
from promptlab.search import alternating_search, export_result, load_result, parse_result
from promptlab.serialize import FORMAT_VERSION, file_sha256, load_json
from promptlab.training import (EvalReport, load_report_records, make_bank, save_checkpoint,
                                save_report_records, train_prompts)
from test_acceptance import PIPELINE_CONFIG


def write_config(tmp_path, **overrides):
    out = str(tmp_path / "out")
    payload = {
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
        "search": {"epochs": 1, "batch_size": 16, "theta_lr": 0.05, "alpha_lr": 0.02},
        "train": {"epochs": 2, "batch_size": 16, "lr_init": 0.05},
        "layout": {"depth": 1},
        "out": out,
        "seed": 3,
    }
    payload.update(overrides)
    path = str(tmp_path / "run.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path, payload["out"]


def test_gen_data_writes_datasets_and_manifest(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    manifest = load_json(os.path.join(out, "manifest.json"))
    assert manifest["kind"] == "dataset_manifest"
    files = {e["file"]: e for e in manifest["datasets"]}
    assert set(files) == {"base.json", "novel.json"}
    for entry in files.values():
        assert set(entry["splits"]) == {"train", "val", "test"}
        path = os.path.join(out, entry["file"])
        assert file_sha256(path) == entry["sha256"]


def test_gen_data_is_idempotent_byte_for_byte(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    first = {f: file_sha256(os.path.join(out, f)) for f in os.listdir(out)}
    assert main(["gen-data", "--config", cfg]) == 0
    second = {f: file_sha256(os.path.join(out, f)) for f in os.listdir(out)}
    assert first == second


def test_gen_data_requires_an_inline_spec(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    payload = json.load(open(cfg))
    del payload["task"]
    payload["dataset"] = str(tmp_path / "task.json")
    json.dump(payload, open(cfg, "w"))
    for command in (["gen-data"], ["search-attrs"], ["train"], ["eval"],
                    ["ablate", "--axis", "init"], ["report"]):
        capsys.readouterr()
        assert main([*command, "--config", cfg]) == 1, command
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith("error: ConfigError: unknown key 'dataset'"), last
    assert not os.path.exists(out)


def test_train_on_datasets_of_a_changed_task_spec_is_a_data_error(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    with open(cfg) as fh:
        payload = json.load(fh)
    payload["task"]["num_classes"] = 5
    with open(cfg, "w") as fh:
        json.dump(payload, fh)
    assert main(["train", "--config", cfg, "--classic"]) == 1
    assert capsys.readouterr().err.strip().splitlines()[-1].startswith("error: DataError:")


def test_commands_write_what_the_library_recipe_writes_for_the_same_seeds(tmp_path):
    # the criterion-8 config: task.seed 0 draws the datasets, seed 3 the encoder, the search
    # and the one training run
    cfg, out = write_config(
        tmp_path, search={"epochs": 2, "batch_size": 16, "theta_lr": 0.05, "alpha_lr": 0.02},
        train={"epochs": 3, "batch_size": 16, "lr_init": 0.05})
    for command in (["gen-data"], ["search-attrs"], ["train"]):
        assert main([*command, "--config", cfg]) == 0, command
    config = load_run_config(cfg)
    lib = tmp_path / "library"
    lib.mkdir()
    base, _ = make_base_novel_task(config.task_spec)
    base.save(str(lib / "base.json"))
    encoder = DualEncoder(build_config_for(base.vocabulary), base.vocabulary, seed=3)
    found = alternating_search(base, ("color", "shape"), replace(config.search, seed=3), encoder)
    export_result(found, str(lib / "search_result.txt"))
    train = replace(config.train, attributes=found.selected, seed=3)
    bank, _ = train_prompts(base, train, make_bank(train, encoder), encoder)
    save_checkpoint(str(lib / "checkpoint_atprompt_s3.json"), bank, train.effective_layout(),
                    config_hash=config.fingerprint())
    for name in ("base.json", "search_result.txt", "checkpoint_atprompt_s3.json"):
        assert file_sha256(os.path.join(out, name)) == file_sha256(str(lib / name)), name


def test_task_seed_draws_the_datasets_and_seed_the_search(tmp_path):
    hashes = {}
    for run, task_seed, flags in (("given", 0, []), ("task_seed", 1, []),
                                  ("seed_flag", 0, ["--seed", "4"])):
        (tmp_path / run).mkdir()
        cfg, out = write_config(tmp_path / run)
        payload = load_json(cfg)
        payload["task"]["seed"] = task_seed
        with open(cfg, "w") as fh:
            json.dump(payload, fh)
        for command in ("gen-data", "search-attrs"):
            assert main([command, "--config", cfg, *flags]) == 0, (run, command)
        hashes[run] = {name: file_sha256(os.path.join(out, name))
                       for name in ("base.json", "novel.json", "search_result.txt")}
    assert hashes["task_seed"]["base.json"] != hashes["given"]["base.json"]
    for name in ("base.json", "novel.json"):
        assert hashes["seed_flag"][name] == hashes["given"][name], name
    assert hashes["seed_flag"]["search_result.txt"] != hashes["given"]["search_result.txt"]


def test_gen_data_out_flag_writes_there_and_nowhere_else(tmp_path):
    cfg, out = write_config(tmp_path)
    elsewhere = str(tmp_path / "elsewhere")
    assert main(["gen-data", "--config", cfg, "--out", elsewhere]) == 0
    assert {"base.json", "novel.json", "manifest.json"} <= set(os.listdir(elsewhere))
    assert load_json(os.path.join(elsewhere, "run_config.json"))["out"] == elsewhere
    assert not os.path.exists(out)


def test_encoder_commands_before_gen_data_stop_with_guidance(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    expected = (f"error: DataError: no dataset at {os.path.join(out, 'base.json')}; "
                "run gen-data first")
    for command in (["search-attrs"], ["train"], ["train", "--classic"], ["eval"],
                    ["ablate", "--axis", "init"]):
        capsys.readouterr()
        assert main([*command, "--config", cfg]) == 1, command
        assert capsys.readouterr().err.strip().splitlines()[-1] == expected, command
        assert not os.path.exists(out), command


# a task whose latent attributes are the five bases of the bundled caltech101 row;
# only color tells the classes apart
FIVE_BASES = ("shape", "color", "material", "function", "size")
FIVE_BASE_TASK = {
    "num_classes": 6,
    "samples_per_class": 8,
    "noise_std": 0.1,
    "latent_attributes": [[name, [f"{name}{i}" for i in range(6 if name == "color" else 1)]]
                          for name in FIVE_BASES],
    "informative_attributes": ["color"],
    "seed": 0,
}


def test_search_attrs_over_a_fixture_source_searches_its_bases(tmp_path):
    cfg, out = write_config(tmp_path, task=FIVE_BASE_TASK, attributes={"fixture": "caltech101"})
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["search-attrs", "--config", cfg]) == 0
    result = load_result(os.path.join(out, "search_result.txt"))
    assert result.bases == FIVE_BASES
    assert len(result.candidates) == 31


def test_search_attrs_over_an_llm_source_replays_its_cache_offline(tmp_path, monkeypatch):
    def no_network(*args, **kwargs):
        raise AssertionError("network access attempted")

    monkeypatch.setattr(socket, "socket", no_network)
    monkeypatch.delenv("PROMPTLAB_TEST_KEY", raising=False)
    cfg, out = write_config(tmp_path, task=FIVE_BASE_TASK, attributes={
        "llm": {"model": "test-model", "credential_env": "PROMPTLAB_TEST_KEY"}})
    assert main(["gen-data", "--config", cfg]) == 0
    cache = ResponseCache(os.path.join(out, "llm_cache"))
    descriptions = {}
    for name in load_json(os.path.join(out, "base.json"))["class_names"]:
        descriptions[name] = f"a {name} thing."
        cache.put("test-model", DESCRIBE_TEMPLATE.format(name=name), descriptions[name])
    joined = "\n".join(f"- {name}: {text}" for name, text in sorted(descriptions.items()))
    cache.put("test-model", SUMMARIZE_TEMPLATE.format(descriptions=joined, n=5),
              "Size, color, shape, material, function")
    assert main(["search-attrs", "--config", cfg]) == 0
    result = load_result(os.path.join(out, "search_result.txt"))
    assert result.bases == ("size", "color", "shape", "material", "function")
    assert len(result.candidates) == 31
    assert set(result.selected) <= set(FIVE_BASES)


def test_search_attrs_writes_the_result_file(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["search-attrs", "--config", cfg]) == 0
    result = load_result(os.path.join(out, "search_result.txt"))
    assert result.bases == ("color", "shape")
    assert len(result.candidates) == 3
    assert "selected:" in capsys.readouterr().out


def test_train_uses_searched_attributes_and_writes_reports(tmp_path):
    cfg, out = write_config(tmp_path)
    main(["gen-data", "--config", cfg])
    main(["search-attrs", "--config", cfg])
    assert main(["train", "--config", cfg]) == 0
    records = load_report_records(os.path.join(out, "report_atprompt.json"))
    seeds = [r["seed"] for r in records]
    assert seeds == [3, -1]  # one run plus the aggregate row
    checkpoint = load_json(os.path.join(out, "checkpoint_atprompt_s3.json"))
    selected = load_result(os.path.join(out, "search_result.txt")).selected
    assert tuple(checkpoint["layout"]["attribute_names"]) == selected


def test_train_without_attributes_fails_with_guidance(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    main(["gen-data", "--config", cfg])
    rc = main(["train", "--config", cfg])
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert rc == 1
    assert err_lines[-1] == ("error: ConfigError: no attributes to anchor on: "
                             "set train.attributes or run search-attrs first")


def test_classic_flag_skips_search_and_anchors_nothing(tmp_path):
    cfg, out = write_config(tmp_path)
    main(["gen-data", "--config", cfg])
    assert main(["train", "--config", cfg, "--classic"]) == 0
    checkpoint = load_json(os.path.join(out, "checkpoint_classic_s3.json"))
    assert checkpoint["layout"]["attribute_names"] == []
    assert os.path.exists(os.path.join(out, "report_classic.json"))


def test_multi_seed_aggregate_is_the_mean_of_runs(tmp_path):
    cfg, out = write_config(tmp_path, seeds=[1, 2])
    main(["gen-data", "--config", cfg])
    main(["search-attrs", "--config", cfg])
    assert main(["train", "--config", cfg]) == 0
    records = load_report_records(os.path.join(out, "report_atprompt.json"))
    per_seed = [r["report"] for r in records if r["seed"] >= 0]
    agg = next(r["report"] for r in records if r["seed"] == -1)
    assert len(per_seed) == 2
    assert agg.seeds_aggregated == 2
    mean_base = sum(r.base_accuracy for r in per_seed) / 2
    assert agg.base_accuracy == pytest.approx(mean_base, abs=1e-9)


def test_eval_reproduces_the_training_report(tmp_path):
    cfg, out = write_config(tmp_path)
    main(["gen-data", "--config", cfg])
    main(["search-attrs", "--config", cfg])
    main(["train", "--config", cfg])
    assert main(["eval", "--config", cfg]) == 0
    trained = load_report_records(os.path.join(out, "report_atprompt.json"))
    evaled = load_report_records(os.path.join(out, "eval_report_atprompt.json"))
    t = next(r["report"] for r in trained if r["seed"] == 3)
    e = next(r["report"] for r in evaled if r["seed"] == 3)
    assert e.base_accuracy == pytest.approx(t.base_accuracy, abs=1e-9)
    assert e.novel_accuracy == pytest.approx(t.novel_accuracy, abs=1e-9)


def test_eval_without_checkpoint_names_the_missing_file(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    main(["gen-data", "--config", cfg])
    rc = main(["eval", "--config", cfg])
    assert rc == 1
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("error: CheckpointError:")
    assert "checkpoint_atprompt_s3.json" in last


def test_ablate_unknown_axis_is_a_usage_error(tmp_path):
    cfg, out = write_config(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["ablate", "--config", cfg, "--axis", "flavor"])
    assert err.value.code == 2  # argparse usage failure


def test_ablate_class_position_has_three_sorted_cells(tmp_path):
    cfg, out = write_config(tmp_path)
    main(["gen-data", "--config", cfg])
    main(["search-attrs", "--config", cfg])
    assert main(["ablate", "--config", cfg, "--axis", "class_position"]) == 0
    sweep = load_json(os.path.join(out, "ablate_class_position.json"))
    assert {r["cell"] for r in sweep["rows"]} == {"front", "middle", "end"}
    hms = [r["hm"] for r in sweep["rows"]]
    assert hms == sorted(hms, reverse=True)


def test_ablate_attr_order_permutes_the_anchored_pair(tmp_path):
    cfg, out = write_config(tmp_path, train={"epochs": 1, "batch_size": 16, "lr_init": 0.05,
                                             "attributes": ["color", "shape"]})
    main(["gen-data", "--config", cfg])
    assert main(["ablate", "--config", cfg, "--axis", "attr_order"]) == 0
    sweep = load_json(os.path.join(out, "ablate_attr_order.json"))
    assert {r["cell"] for r in sweep["rows"]} == {"color, shape", "shape, color"}


# ablation axis -> the labels of its cells, for a run anchored on (color, shape)
ABLATION_CELLS = {
    "length": {"soft_len=1", "soft_len=2", "soft_len=4"},
    "class_position": {"front", "middle", "end"},
    "drop_policy": {"retain_all", "partial_drop", "full_drop"},
    "attr_order": {"color, shape", "shape, color"},
    "attr_position": {"interval", "adjacent_front", "adjacent_middle", "adjacent_end",
                      "separate"},
    "init": {"random_normal", "phrase_init"},
}


@pytest.mark.parametrize("axis", ABLATION_AXES)
def test_ablate_sweeps_every_cell_of_its_axis(axis, tmp_path):
    cfg, out = write_config(tmp_path, train={"epochs": 1, "batch_size": 16, "lr_init": 0.05,
                                             "attributes": ["color", "shape"]})
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["ablate", "--config", cfg, "--axis", axis]) == 0
    sweep = load_json(os.path.join(out, f"ablate_{axis}.json"))
    assert sweep["axis"] == axis
    assert sorted(r["cell"] for r in sweep["rows"]) == sorted(ABLATION_CELLS[axis])
    hms = [r["hm"] for r in sweep["rows"]]
    assert hms == sorted(hms, reverse=True)


def test_report_prints_stored_summaries(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    main(["gen-data", "--config", cfg])
    main(["search-attrs", "--config", cfg])
    main(["train", "--config", cfg])
    main(["train", "--config", cfg, "--classic"])
    capsys.readouterr()
    assert main(["report", "--config", cfg]) == 0
    table = capsys.readouterr().out
    assert "atprompt" in table and "classic" in table


def test_report_with_no_artifacts_fails_cleanly(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    os.makedirs(out, exist_ok=True)
    rc = main(["report", "--config", cfg])
    assert rc == 1
    assert capsys.readouterr().err.strip().splitlines()[-1].startswith("error: DataError:")


def test_report_without_an_output_directory_fails_cleanly(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    assert main(["report", "--config", cfg]) == 1
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last == f"error: DataError: no output directory {out}"


def _report_with_bad_records(tmp_path, edit):
    cfg, out = write_config(tmp_path)
    os.makedirs(out)
    report = EvalReport.from_accuracies(80.0, 60.0, {"cat": 75.0})
    path = os.path.join(out, "report_classic.json")
    save_report_records([{"config_hash": "h", "seed": 3, "report": report}] * 2, path)
    payload = load_json(path)
    edit(payload["records"])
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return cfg, path


def test_report_on_a_record_without_a_required_field_names_the_key(tmp_path, capsys):
    cfg, path = _report_with_bad_records(
        tmp_path, lambda records: records[1]["report"].pop("base_accuracy"))
    capsys.readouterr()
    assert main(["report", "--config", cfg]) == 1
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last == f"error: ConfigError: missing key '{path}:records[1].report.base_accuracy'"


# an edit to a report file's records -> the start of the error line it gives
BAD_RECORD_EDITS = [
    (lambda records: records[1].pop("seed"), "ConfigError: missing key '{path}:records[1].seed'"),
    (lambda records: records[1].update(seed="3"),
     "ConfigError: {path}:records[1].seed must be a JSON integer"),
    (lambda records: records[1].update(extra=1),
     "ConfigError: unknown key '{path}:records[1].extra'"),
    (lambda records: records.clear(), "DataError: {path}: no records"),
    # the helper's file holds two seed-3 records and no aggregate: neither stands for the run
    (lambda records: None, "DataError: {path}: no records hold the aggregate (seed -1)"),
    (lambda records: records[1]["report"].update(seeds_aggregated=0),
     "ContractError: {path}:records[1].report: seeds_aggregated must be at least 1, got 0"),
]


@pytest.mark.parametrize("edit, message", BAD_RECORD_EDITS)
def test_report_on_bad_records_is_one_error_line(tmp_path, capsys, edit, message):
    cfg, path = _report_with_bad_records(tmp_path, edit)
    capsys.readouterr()
    assert main(["report", "--config", cfg]) == 1
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith(f"error: {message.format(path=path)}")


def test_each_command_builds_one_encoder_for_all_seeds_and_cells(tmp_path, monkeypatch):
    cfg, out = write_config(tmp_path, train={"epochs": 1, "batch_size": 16, "lr_init": 0.05,
                                             "attributes": ["color"]})
    built = []

    class CountingEncoder(encoders.DualEncoder):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(encoders, "DualEncoder", CountingEncoder)
    assert main(["gen-data", "--config", cfg]) == 0
    for command in (["train"], ["eval"], ["ablate", "--axis", "init"]):
        built.clear()
        assert main([*command, "--seeds", "1,2", "--config", cfg]) == 0
        assert len(built) == 1, command


def test_every_json_artifact_carries_the_one_header(tmp_path):
    cfg, out = write_config(tmp_path)
    for command in (["gen-data"], ["search-attrs"], ["train"], ["train", "--classic"], ["eval"],
                    ["ablate", "--axis", "length"], ["report"]):
        assert main([*command, "--config", cfg]) == 0, command
    names = sorted(f for f in os.listdir(out) if f.endswith(".json"))
    assert len(names) == 10
    for name in names:
        payload = load_json(os.path.join(out, name))
        assert isinstance(payload.get("kind"), str), name
        assert payload["format_version"] == FORMAT_VERSION, name
    with open(os.path.join(out, "search_result.txt")) as fh:
        assert f"# format_version: {FORMAT_VERSION}\n" in fh.read()


def test_full_pipeline_is_deterministic_across_output_dirs(tmp_path):
    hashes = []
    for run in ("a", "b"):
        out_dir = str(tmp_path / f"out_{run}")
        cfg, _ = write_config(tmp_path, out=out_dir)
        cfg_path = str(tmp_path / f"run_{run}.json")
        os.replace(cfg, cfg_path)
        for argv in (
            ["gen-data", "--config", cfg_path],
            ["search-attrs", "--config", cfg_path],
            ["train", "--config", cfg_path],
        ):
            assert main(argv) == 0
        hashes.append(
            {
                f: file_sha256(os.path.join(out_dir, f))
                for f in sorted(os.listdir(out_dir))
                if f != "run_config.json"  # embeds the out dir path itself
            }
        )
    assert hashes[0] == hashes[1]


def test_pipeline_reads_images_as_wide_as_the_dataset_makes_them(tmp_path, capsys):
    # the encoder's image width comes from the task's raw_feature_dim, not a default
    cfg, out = write_config(tmp_path)
    payload = json.load(open(cfg))
    payload["task"]["raw_feature_dim"] = 32
    json.dump(payload, open(cfg, "w"))
    for command in (["gen-data"], ["search-attrs"], ["train"], ["train", "--classic"], ["eval"],
                    ["report"]):
        assert main([*command, "--config", cfg]) == 0, (command, capsys.readouterr().err)
    assert load_json(os.path.join(out, "base.json"))["spec"]["raw_feature_dim"] == 32


def test_artifact_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a thread count the user sets wins over the package's one-thread policy,
    # and it must not move a byte of what the commands write
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    hashes = []
    for threads in ("1", "2"):
        work = tmp_path / f"threads_{threads}"
        work.mkdir()
        cfg, _ = write_config(work, out="out")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        for command in ("gen-data", "search-attrs", "train"):
            proc = subprocess.run([sys.executable, "-m", "promptlab.cli", command, "--config", cfg],
                                  cwd=work, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        hashes.append({f: file_sha256(str(work / "out" / f))
                       for f in sorted(os.listdir(work / "out"))})
    assert "checkpoint_atprompt_s3.json" in hashes[0]
    assert hashes[0] == hashes[1]


def _openblas_configuration() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # TypeError: numpy before 1.26 has no dict mode
        return ""
    return blas.get("openblas configuration", "")


# the criterion-8 files whose bytes do not depend on the BLAS kernel (see README)
PORTABLE_FILES = ("base.json", "eval_report_atprompt.json", "manifest.json", "novel.json",
                  "report_atprompt.json", "report_classic.json", "run_config.json",
                  "search_result.txt")


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or "DYNAMIC_ARCH" not in _openblas_configuration(),
                    reason="OPENBLAS_CORETYPE picks kernels only in an x86-64 DYNAMIC_ARCH OpenBLAS")
def test_portable_artifacts_hash_the_same_under_another_blas_kernel(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    hashes = []
    for coretype in ("", "Prescott"):
        work = tmp_path / (coretype or "default")
        work.mkdir()
        (work / "run.json").write_text(json.dumps(PIPELINE_CONFIG))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        for command in (["gen-data"], ["search-attrs"], ["train"], ["train", "--classic"],
                        ["eval"], ["report"]):
            proc = subprocess.run([sys.executable, "-m", "promptlab.cli", *command,
                                   "--config", "run.json"],
                                  cwd=work, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        hashes.append({f: file_sha256(str(work / "out" / f)) for f in PORTABLE_FILES})
    assert hashes[0] == hashes[1]


def _set(section, key, value):
    def edit(payload):
        payload.setdefault(section, {})[key] = value
    return edit


def _raw(section, key, text):
    """An edit that writes ``text`` as the key's value verbatim: JSON that json.dump cannot make."""
    def edit(payload):
        (payload.setdefault(section, {}) if section else payload)[key] = "@raw@"
        return json.dumps(payload).replace('"@raw@"', text)
    return edit


def run_cli_process(command, cfg, cwd, **kwargs):
    """The finished ``promptlab`` child process of one command on config ``cfg``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return subprocess.run([sys.executable, "-m", "promptlab.cli", *command, "--config", cfg],
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, **kwargs)


# case -> (config edit, or None; the command that used to fail without naming the
# input; a key, or other text, the last stderr line must name, or None). An edit
# changes the payload in place, or returns the config file's new text.
BAD_INPUTS = {
    "task_unknown_key": (_set("task", "bogus", 1), ["train"], None),
    "llm_unknown_key": (lambda payload: payload.update(attributes={"llm": {"bogus": 1}}),
                        ["train"], None),
    "encoder_overrides_unknown_key": (_set("encoder_overrides", "bogus", 1), ["train"], None),
    "layout_depth_string": (_set("layout", "depth", "2"), ["train"], None),
    "train_batch_size_string": (_set("train", "batch_size", "16"), ["train"], None),
    "seed_not_integer": (lambda payload: payload.update(seed="x"), ["train"], None),
    "seeds_flag_not_integers": (None, ["train", "--seeds", "a,b"], None),
    "seeds_bool": (lambda payload: payload.update(seeds=[True]), ["train", "--classic"], "seeds"),
    "train_negative_soft_len": (_set("train", "soft_len", -1), ["train", "--classic"], None),
    "search_negative_soft_len": (_set("search", "soft_len", -1), ["search-attrs"], None),
    "train_zero_attr_soft_len": (_set("train", "attr_soft_len", 0), ["gen-data"],
                                 "attr_soft_len"),
    "encoder_overrides_string": (_set("encoder_overrides", "num_layers", "4"),
                                 ["search-attrs"], "num_layers"),
    "out_not_string": (lambda payload: payload.update(out=5), ["gen-data"], "out"),
    "layout_attribute_names_string": (_set("layout", "attribute_names", "color"),
                                      ["gen-data"], "attribute_names"),
    "layout_attribute_names_set": (_set("layout", "attribute_names", ["color"]),
                                   ["gen-data"], "train.attributes"),
    "layout_misspelled_key": (_set("layout", "dpeth", 2), ["gen-data"], "dpeth"),
    "top_level_misspelled_key": (lambda payload: payload.update(trian={"epochs": 1}),
                                 ["gen-data"], "trian"),
    "search_epochs_string": (_set("search", "epochs", "3"), ["gen-data"], "epochs"),
    # a rule a section's value breaks names the section, which the two sections share
    "train_epochs_zero": (_set("train", "epochs", 0), ["gen-data"],
                          "ConfigError: train: epochs must be at least 1, got 0"),
    "search_epochs_zero": (_set("search", "epochs", 0), ["gen-data"],
                           "ConfigError: search: epochs must be at least 1, got 0"),
    "llm_timeout_string": (lambda payload: payload.update(attributes={"llm": {"timeout": "5"}}),
                           ["gen-data"], "timeout"),
    "latent_attribute_without_values": (_set("task", "latent_attributes", [["color"]]),
                                        ["gen-data"], "latent_attributes"),
    "seed_negative": (lambda payload: payload.update(seed=-1), ["gen-data"], "seed"),
    "seed_flag_negative": (None, ["gen-data", "--seed", "-1"], "seed"),
    "seeds_flag_negative": (None, ["train", "--classic", "--seeds", "-1"], "seeds"),
    # a repeated seed would run twice and count twice in the aggregate
    "seeds_repeated": (lambda payload: payload.update(seeds=[3, 3]), ["train", "--classic"],
                       "ConfigError: seeds"),
    "seeds_flag_repeated": (None, ["train", "--classic", "--seeds", "3,3"], "ConfigError: seeds"),
    # a list of no seed would fall back to the config's seed
    **{f"seeds_flag_{name}": (None, ["train", "--classic", "--seeds", value],
                              "ConfigError: --seeds names no seed")
       for name, value in (("comma", ","), ("empty", ""), ("blank", " , "))},
    "train_init_scheme_unknown": (_set("train", "init_scheme", "bogus"), ["gen-data"],
                                  "init_scheme"),
    "task_embed_dim_negative": (_set("task", "embed_dim", -4), ["gen-data"], "embed_dim"),
    "task_embed_dim_zero": (_set("task", "embed_dim", 0), ["gen-data"], "embed_dim"),
    "task_raw_feature_dim_negative": (_set("task", "raw_feature_dim", -3), ["gen-data"],
                                      "raw_feature_dim"),
    "task_raw_feature_dim_zero": (_set("task", "raw_feature_dim", 0), ["gen-data"],
                                  "raw_feature_dim"),
    # json.dump writes these as the Infinity and NaN tokens, which json.load reads back
    "task_noise_std_infinity": (_set("task", "noise_std", float("inf")), ["gen-data"],
                                "noise_std"),
    "search_theta_lr_nan": (_set("search", "theta_lr", float("nan")), ["gen-data"], "theta_lr"),
    # past Python's 4,300-digit limit for int() of a string
    "task_noise_std_over_long_integer": (_raw("task", "noise_std", "1" + "0" * 5000),
                                         ["gen-data"], "DataError: not valid JSON"),
    # past the JSON decoder's recursion limit
    "seeds_nested_too_deep": (_raw(None, "seeds", "[" * 100_000 + "0" + "]" * 100_000),
                              ["gen-data"], "DataError: not valid JSON"),
    # past int64, which numpy reads no wider than
    "task_raw_feature_dim_past_int64": (_set("task", "raw_feature_dim", 10**30), ["gen-data"],
                                        "task.raw_feature_dim must be a 64-bit integer"),
    # more bytes than any array can address: rejected before anything is allocated
    "task_embed_dim_past_addressable": (_set("task", "embed_dim", 2**62), ["gen-data"],
                                        "embed_dim makes an array of more than"),
    "encoder_overrides_max_seq_len_past_int64": (
        _set("encoder_overrides", "max_seq_len", 10**30), ["search-attrs"],
        "encoder_overrides.max_seq_len must be a 64-bit integer"),
    "seeds_past_int64": (lambda payload: payload.update(seeds=[10**30]), ["train", "--classic"],
                         "seeds must be non-negative 64-bit integers"),
    # the dataset fixes the vocabulary's width and the image width; its size is no field
    "encoder_overrides_vocab_size": (_set("encoder_overrides", "vocab_size", 40), ["gen-data"],
                                     "vocab_size"),
    "encoder_overrides_embed_dim": (_set("encoder_overrides", "embed_dim", 32), ["gen-data"],
                                    "embed_dim"),
    "encoder_overrides_image_dim": (_set("encoder_overrides", "image_dim", 16), ["gen-data"],
                                    "image_dim"),
    # settings that became constants: the MLP width ratio, the temperature and the schedule
    **{f"{section}_{key}_removed": (_set(section, key, value), ["gen-data"],
                                    f"ConfigError: unknown key '{section}.{key}'; known: ")
       for section, key, value in (("encoder_overrides", "mlp_ratio", 2),
                                   ("encoder_overrides", "temperature", 0.07),
                                   ("train", "schedule", "cosine"))},
    # words the vocabulary cannot tokenize, or one it already holds
    "latent_attribute_value_of_two_words": (
        _set("task", "latent_attributes", [["color", ["red car", "blue", "green"]],
                                           ["shape", ["round", "square"]]]),
        ["gen-data"], "'red car'"),
    "latent_attribute_name_capitalized": (
        _set("task", "latent_attributes", [["color", [f"color{i}" for i in range(6)]],
                                           ["Shape", ["shape0", "shape1"]]]),
        ["gen-data"], "'Shape'"),
    "latent_attribute_named_like_a_template_word": (
        _set("task", "latent_attributes", [["color", [f"color{i}" for i in range(6)]],
                                           ["photo", ["shape0", "shape1"]]]),
        ["gen-data"], "repeated: photo"),
    "latent_attribute_with_empty_values": (
        _set("task", "latent_attributes", [["color", [f"color{i}" for i in range(6)]],
                                           ["shape", []]]),
        ["gen-data"], "shape"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_config_input_is_one_error_line(case, tmp_path):
    cfg, out = write_config(tmp_path)
    edit, command, key = BAD_INPUTS[case]
    if edit is not None:
        payload = json.load(open(cfg))
        text = edit(payload)
        with open(cfg, "w") as fh:
            fh.write(json.dumps(payload) if text is None else text)
    proc = run_cli_process(command, cfg, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert re.match(r"^error: \w+Error: ", proc.stderr.strip().splitlines()[-1]), proc.stderr
    if key is not None:
        assert key in proc.stderr.strip().splitlines()[-1], proc.stderr
    assert not os.path.exists(out) or os.listdir(out) == []  # rejected before any write


def _limited_memory():
    """Cap the child's address space, so an input that allocates without bound fails fast."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2_500_000 * 1024,) * 2)


# case -> (config edit, the command that fails once gen-data has written the dataset,
# the text the last stderr line must hold)
AFTER_GEN_DATA = {
    # deeper than the encoder: rejected before any deep block is made
    "layout_depth_past_encoder_layers": (_set("layout", "depth", 10**9), ["search-attrs"],
                                         "ConfigError: depth 1000000000 exceeds encoder layers 4"),
    # longer than any prompt the encoder reads: rejected before any soft block is made
    **{f"{section}_{key}_past_max_seq_len": (
        _set(section, key, 10**9), command,
        f"CapacityError: {key} 1000000000 exceeds max_seq_len 32")
       for section, command in (("search", ["search-attrs"]), ("train", ["train", "--classic"]))
       for key in ("soft_len", "attr_soft_len")},
    # an encoder array of more bytes than any array can address, for each size a run config
    # sets: rejected by the first rule of config.ARRAYS that names it, before it is made
    **{f"encoder_overrides_{key}_past_addressable": (
        _set("encoder_overrides", key, 2**62), ["train", "--classic"],
        f"ConfigError: {rule} makes an array of more than")
       for key in get_type_hints(EncoderConfig) if key not in ("embed_dim", "image_dim")
       for rule in [" * ".join(map(str, dims)) for dims in ARRAYS if key in dims][:1]},
    # a positional table of 233 TiB: the machine's limit, reported as one error line
    "encoder_overrides_max_seq_len_past_memory": (
        _set("encoder_overrides", "max_seq_len", 10**12), ["train", "--classic"],
        "MemoryError: Unable to allocate"),
}


@pytest.mark.parametrize("case", sorted(AFTER_GEN_DATA))
def test_input_too_large_to_run_is_one_error_line(case, tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    edit, command, text = AFTER_GEN_DATA[case]
    with open(cfg) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(cfg, "w") as fh:
        json.dump(payload, fh)
    proc = run_cli_process(command, cfg, tmp_path, preexec_fn=_limited_memory)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].startswith(f"error: {text}"), proc.stderr


# every int, float and choice key of a config section, as (section, key); "" is the top
# level. The run config owns the search and train seeds, and the dataset the encoder's widths.
GRID_KEYS = [("", "seed")] + [
    (section, key)
    for section, kind in (("task", TaskSpec), ("search", SearchConfig), ("train", TrainConfig),
                          ("layout", PromptLayout), ("llm", LlmClientConfig),
                          ("encoder_overrides", EncoderConfig))
    for key, hint in get_type_hints(kind).items()
    if (hint in (int, float) or key in CHOICES) and (section, key) not in {
        ("search", "seed"), ("train", "seed"), ("encoder_overrides", "embed_dim"),
        ("encoder_overrides", "image_dim")}
]
CONFIG_GRID = [(section, key, value) for section, key in GRID_KEYS
               for value in (0, -1, *(["bogus"] if key in CHOICES else []))]


@pytest.fixture(scope="module")
def grid_dataset(tmp_path_factory):
    """An output directory gen-data has filled, for the encoder_overrides cases to read."""
    cfg, out = write_config(tmp_path_factory.mktemp("grid"))
    assert main(["gen-data", "--config", cfg]) == 0
    return out


def test_every_setting_at_a_bad_value_runs_or_is_one_error_line_naming_it(grid_dataset, tmp_path,
                                                                          capsys):
    # gen-data reads every section; encoder_overrides first meet the encoder, which eval builds
    for section, key, value in CONFIG_GRID:
        work = tmp_path / f"{section}.{key}.{value}"
        work.mkdir()
        cfg, _ = write_config(work)
        with open(cfg) as fh:
            payload = json.load(fh)
        if section == "encoder_overrides":
            payload.update(out=grid_dataset, encoder_overrides={key: value})
        elif section == "llm":
            payload["attributes"] = {"llm": {key: value}}
        else:
            (payload[section] if section else payload)[key] = value
        with open(cfg, "w") as fh:
            json.dump(payload, fh)
        capsys.readouterr()
        code = main(["eval" if section == "encoder_overrides" else "gen-data", "--config", cfg])
        last = (capsys.readouterr().err.strip().splitlines() or [""])[-1]
        assert code == 0 or (code == 1 and re.match(r"^error: \w+Error: ", last) and key in last), (
            section, key, value, code, last)


# values of every JSON type, and past int64, that any key may be set to; a list key also
# takes the lists after them
RETYPED_VALUES = (True, "x", {}, None, 1.5, 10**30)
RETYPED_LISTS = ([], [1], [[]])


def _retyped_values(is_list):
    return RETYPED_VALUES + (RETYPED_LISTS if is_list else ())


def _section_keys(types, skip=()):
    """A config section's keys, less ``skip``, each with whether it holds a list."""
    types = types if isinstance(types, dict) else get_type_hints(types)
    return {k: h is tuple or get_origin(h) is tuple for k, h in types.items() if k not in skip}


# config section -> (its keys and whether each is a list, the command that reads it). The
# run config owns the search and train seeds, and the dataset the encoder's widths. An llm
# source is read only as far as the config, by gen-data, so that no case reaches for the
# network.
CONFIG_SECTIONS = {
    "": (_section_keys(RUN_CONFIG_TYPES), ["gen-data"]),
    "task": (_section_keys(TaskSpec), ["gen-data"]),
    "attributes": (_section_keys(AttributeSource, ("llm",)), ["search-attrs"]),
    "llm": (_section_keys(LlmClientConfig), ["gen-data"]),
    "search": (_section_keys(SearchConfig, ("seed", "layout")), ["search-attrs"]),
    "train": (_section_keys(TrainConfig, ("seed", "layout")), ["train"]),
    "layout": (_section_keys(PromptLayout), ["train"]),
    "encoder_overrides": (_section_keys(EncoderConfig, ("embed_dim", "image_dim")), ["eval"]),
}


def _outcome(argv, capsys, path=None):
    """None when a command exits 0 or ends in one ``error:`` line naming ``path``; else why not."""
    capsys.readouterr()
    try:
        code = main(argv)
    except Exception as exc:  # a traceback, not an error line
        return f"{type(exc).__name__}: {exc}"
    err = capsys.readouterr().err.strip().splitlines()
    if code == 0 or (code == 1 and len(err) == 1 and re.match(r"^error: \w+Error: ", err[0])
                     and (path is None or path in err[0])):
        return None
    return f"exit {code}: {err}"


@pytest.mark.parametrize("section", sorted(CONFIG_SECTIONS), ids=lambda s: s or "top_level")
def test_every_config_key_retyped_runs_or_is_one_error_line(section, grid_dataset, tmp_path,
                                                           capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # "out": "x" writes there
    keys, command = CONFIG_SECTIONS[section]
    failures = []
    for key, is_list in keys.items():
        for value in _retyped_values(is_list):
            cfg, _ = write_config(tmp_path)
            with open(cfg) as fh:
                payload = json.load(fh)
            if command != ["gen-data"]:
                payload["out"] = grid_dataset
            if section == "llm":
                payload["attributes"] = {"llm": {key: value}}
            elif section == "attributes":
                payload["attributes"] = {key: value}
            else:
                (payload.setdefault(section, {}) if section else payload)[key] = value
            with open(cfg, "w") as fh:
                json.dump(payload, fh)
            failure = _outcome([*command, "--config", cfg], capsys)
            if failure:
                failures.append((key, value, failure))
    assert not failures, failures


# artifact -> (the command that reads it, every top-level key, and the keys one level down)
ARTIFACT_KEYS = {
    "base.json": (["train", "--classic"], {
        "kind", "format_version", "spec", "vocabulary", "class_names", "splits"},
        {"vocabulary": {"words", "vectors"}}),
    "novel.json": (["train", "--classic"], {
        "kind", "format_version", "spec", "vocabulary", "class_names", "splits"},
        {"vocabulary": {"words", "vectors"}}),
    "checkpoint_classic_s3.json": (["eval", "--classic"], {
        "kind", "format_version", "config_hash", "layout", "bank"},
        {"bank": {"class_block", "attribute_blocks", "deep_class_blocks"}}),
    "report_classic.json": (["report"], {"kind", "format_version", "records"}, {}),
}
KEY_DELETIONS = sorted(
    (name, path)
    for name, (_, top, nested) in ARTIFACT_KEYS.items()
    for path in [*top, *(f"{outer}.{inner}" for outer, keys in nested.items() for inner in keys)]
)


@pytest.fixture(scope="module")
def classic_pipeline_out(tmp_path_factory):
    cfg, out = write_config(tmp_path_factory.mktemp("pipeline"))
    for command in (["gen-data"], ["train", "--classic"]):
        assert main([*command, "--config", cfg]) == 0, command
    for name, (_, top, nested) in ARTIFACT_KEYS.items():
        payload = load_json(os.path.join(out, name))
        assert set(payload) == top, name
        for outer, keys in nested.items():
            assert set(payload[outer]) == keys, (name, outer)
    return out


@pytest.mark.parametrize("name, key", KEY_DELETIONS)
def test_artifact_without_a_key_is_one_error_line(name, key, classic_pipeline_out, tmp_path,
                                                  capsys):
    cfg, out = write_config(tmp_path)
    shutil.copytree(classic_pipeline_out, out)
    path = os.path.join(out, name)
    payload = load_json(path)
    *outer, last = key.split(".")
    del (payload[outer[0]] if outer else payload)[last]
    with open(path, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert main([*ARTIFACT_KEYS[name][0], "--config", cfg]) == 1
    line = capsys.readouterr().err.strip().splitlines()[-1]
    assert line.startswith("error: ") and path in line, line
    assert key == "kind" or last in line, line


# keys that earlier dataset and prompt-checkpoint files held and no reader read, with a
# value each held; such a file carries the same format_version and fails on the key
REMOVED_KEYS = {
    "base.json": {"name": "task0.base", "class_signatures": [{"color": "color0"}],
                  "attribute_names": ["color", "shape"], "prototypes": [[0.0]]},
    "checkpoint_classic_s3.json": {"attributes": [], "tag": "classic", "seed": 3},
}


@pytest.mark.parametrize("name, key", [(name, key) for name, keys in REMOVED_KEYS.items()
                                       for key in keys])
def test_artifact_with_a_removed_key_is_one_unknown_key_line(name, key, classic_pipeline_out,
                                                             tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    shutil.copytree(classic_pipeline_out, out)
    path = os.path.join(out, name)
    payload = load_json(path)
    payload[key] = REMOVED_KEYS[name][key]
    with open(path, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert main([*ARTIFACT_KEYS[name][0], "--config", cfg]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    kind = payload["kind"]
    assert line.startswith(f"error: ConfigError: unknown key '{path}:{kind}.{key}'; known: "), line


# an element of an artifact replaced by a string, or by another value or what a function
# makes of it; the keys on its path name it in the error line
RETYPED_ELEMENTS = {
    "splits.train.x": ("base.json", ("splits", "train", "x", 0, 0), "x"),
    "vocabulary.vectors": ("base.json", ("vocabulary", "vectors", 0, 0), "x"),
    "bank.class_block": ("checkpoint_classic_s3.json", ("bank", "class_block", 0, 0), "x"),
    # a JSON bool, which numpy would read as 1.0 or 0.0
    **{f"{'.'.join(at[:-2])}_{json.dumps(value)}": (name, at, value)
       for name, at in (("base.json", ("splits", "test", "x", 0, 0)),
                        ("base.json", ("vocabulary", "vectors", 0, 0)),
                        ("checkpoint_classic_s3.json", ("bank", "class_block", 0, 0)))
       for value in (True, False)},
    # null and a numeric string, which numpy would read as NaN and as the number, and the
    # NaN and Infinity tokens Python's json reads
    **{f"splits.test.x_{case}": ("base.json", ("splits", "test", "x", 0, 0), value)
       for case, value in (("null", None), ("numeric_string", "0.5"), ("nan", float("nan")),
                           ("infinity", float("inf")))},
    # a number past float64's range, a label that is no integer, a label list one short of
    # the rows, and rows narrower than the spec's raw_feature_dim
    "splits.test.x": ("base.json", ("splits", "test", "x", 0, 0), 10**400),
    "splits.test.y": ("base.json", ("splits", "test", "y", 0), 1.5),
    "splits.train.y": ("base.json", ("splits", "train", "y"), lambda y: y[:-1]),
    "splits.val.x": ("base.json", ("splits", "val", "x"), lambda x: [row[:3] for row in x]),
    # a class name that holds no word, which would give its class no prompt rows
    **{f"class_names_{case}": ("base.json", ("class_names", 0), value)
       for case, value in (("empty", ""), ("blank", " "))},
}


@pytest.mark.parametrize("case", sorted(RETYPED_ELEMENTS))
def test_artifact_with_a_retyped_element_is_one_error_line(case, classic_pipeline_out, tmp_path,
                                                           capsys):
    cfg, out = write_config(tmp_path)
    shutil.copytree(classic_pipeline_out, out)
    name, (*outer, last), value = RETYPED_ELEMENTS[case]
    where = ".".join(key for key in (*outer, last) if isinstance(key, str))
    path = os.path.join(out, name)
    payload = load_json(path)
    element = functools.reduce(operator.getitem, outer, payload)
    element[last] = value(element[last]) if callable(value) else value
    with open(path, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert main([*ARTIFACT_KEYS[name][0], "--config", cfg]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert re.match(r"^error: \w+Error: ", line), line
    assert f"{path}:{payload['kind']}.{where}" in line, line


# the dataset file whose last class name becomes the first name of base.json
REPEATED_CLASS_NAMES = {"in_base": "base.json", "across_base_and_novel": "novel.json"}


@pytest.mark.parametrize("command", [["train", "--classic"], ["eval", "--classic"],
                                     ["ablate", "--axis", "init"]], ids=lambda c: c[0])
@pytest.mark.parametrize("case", sorted(REPEATED_CLASS_NAMES))
def test_dataset_class_name_that_names_two_classes_is_one_error_line(
        case, command, classic_pipeline_out, tmp_path, capsys):
    # per-class accuracies are keyed by name: one class's entry would replace the other's
    cfg, out = write_config(tmp_path)
    shutil.copytree(classic_pipeline_out, out)
    first = load_json(os.path.join(out, "base.json"))["class_names"][0]
    path = os.path.join(out, REPEATED_CLASS_NAMES[case])
    payload = load_json(path)
    payload["class_names"][-1] = first
    with open(path, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert main([*command, "--config", cfg]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    expected = f"error: DataError: {path}:dataset.class_names: {first!r} names two classes"
    assert line == expected, line


def _rename_a_class_word(dataset):
    """The last word of the first class name becomes 'zzz', in the name and the vocabulary."""
    words, name = dataset["vocabulary"]["words"], dataset["class_names"][0].split()
    words[words.index(name[-1])] = name[-1] = "zzz"
    dataset["class_names"][0] = " ".join(name)


# an edit after which novel.json's vocabulary is not base.json's, though the file is valid
NOVEL_VOCABULARY_EDITS = {
    "vector": lambda dataset: operator.setitem(dataset["vocabulary"]["vectors"][-1], 0, 0.5),
    "renamed_word": _rename_a_class_word,
}


@pytest.mark.parametrize("case", sorted(NOVEL_VOCABULARY_EDITS))
def test_novel_vocabulary_that_is_not_the_base_one_is_one_error_line(case, classic_pipeline_out,
                                                                     tmp_path, capsys):
    # the encoder is built from base.json's vocabulary, and it encodes the novel class names
    cfg, out = write_config(tmp_path)
    shutil.copytree(classic_pipeline_out, out)
    path, report = os.path.join(out, "novel.json"), os.path.join(out, "report_classic.json")
    payload = load_json(path)
    NOVEL_VOCABULARY_EDITS[case](payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    before = file_sha256(report)
    capsys.readouterr()
    assert main(["train", "--classic", "--config", cfg]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    base = os.path.join(out, "base.json")
    assert line == (f"error: DataError: {path}:dataset.vocabulary is not the vocabulary of "
                    f"{base}"), line
    assert file_sha256(report) == before


def _key_paths(payload):
    """Each key at the top level and one level down, as a path; a record list's first record
    and its report count as one level down."""
    for key, value in payload.items():
        yield (key,)
        yield from ((key, inner) for inner in (value if isinstance(value, dict) else ()))
    for key, value in payload.get("records", [{}])[0].items():
        yield ("records", 0, key)
        yield from (("records", 0, key, inner) for inner in (value if isinstance(value, dict)
                                                              else ()))


@pytest.mark.parametrize("name", sorted(ARTIFACT_KEYS))
def test_every_artifact_key_retyped_runs_or_is_one_error_line_naming_the_file(
        name, classic_pipeline_out, tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    shutil.copytree(classic_pipeline_out, out)
    path = os.path.join(out, name)
    with open(path) as fh:
        text = fh.read()
    failures = []
    for *outer, last in _key_paths(json.loads(text)):
        for value in _retyped_values(isinstance(
                functools.reduce(operator.getitem, [*outer, last], json.loads(text)), list)):
            payload = json.loads(text)
            functools.reduce(operator.getitem, outer, payload)[last] = value
            with open(path, "w") as fh:
                json.dump(payload, fh)
            failure = _outcome([*ARTIFACT_KEYS[name][0], "--config", cfg], capsys, path)
            if failure:
                failures.append(([*outer, last], value, failure))
    with open(path, "w") as fh:
        fh.write(text)
    assert not failures, failures


# a prompt-checkpoint soft block of the wrong shape -> (the error type of its one line, and
# the bank key that line must name)
BAD_BLOCKS = {
    "class_block_empty": (("class_block",), [], "DataError", "bank.class_block"),
    "class_block_narrow": (("class_block",), [[0.1, 0.2], [0.3, 0.4]], "CheckpointError",
                           "bank.class_block"),
    "attribute_block_narrow": (("attribute_blocks", "color"), [[0.1, 0.2]], "DataError",
                               "bank.attribute_blocks.color"),
    # the classic checkpoint is depth 1, with a class block of 2 rows of width 32
    "deep_block_extra": (("deep_class_blocks",), [[[0.0] * 32] * 2], "CheckpointError",
                         "bank.deep_class_blocks"),
    "deep_block_short": (("deep_class_blocks",), [[[0.0] * 32]], "DataError",
                         "bank: deep block 0 has length 1"),
    "attribute_block_extra": (("attribute_blocks", "zzz"), [[0.0] * 32] * 2, "CheckpointError",
                              "bank.attribute_blocks ['zzz']"),
}


@pytest.mark.parametrize("case", sorted(BAD_BLOCKS))
def test_checkpoint_block_of_the_wrong_shape_is_one_error_line(case, classic_pipeline_out,
                                                               tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    shutil.copytree(classic_pipeline_out, out)
    (*outer, last), block, error, where = BAD_BLOCKS[case]
    path = os.path.join(out, "checkpoint_classic_s3.json")
    payload = load_json(path)
    functools.reduce(operator.getitem, outer, payload["bank"])[last] = block
    with open(path, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert main(["eval", "--classic", "--config", cfg]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith(f"error: {error}: "), line
    assert path in line and where in line, line


# the classic checkpoint's attribute names edited so that they disagree with its bank:
# (key, value) edits and what the error line must name
BAD_ATTRIBUTES = {
    "layout_attribute_without_a_block": ([(("layout", "attribute_names"), ["shape"])],
                                         "bank.attribute_blocks []"),
}


@pytest.mark.parametrize("case", sorted(BAD_ATTRIBUTES))
def test_checkpoint_attributes_that_disagree_are_one_error_line(case, classic_pipeline_out,
                                                                tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    shutil.copytree(classic_pipeline_out, out)
    edits, where = BAD_ATTRIBUTES[case]
    path = os.path.join(out, "checkpoint_classic_s3.json")
    payload = load_json(path)
    for (*outer, last), value in edits:
        functools.reduce(operator.getitem, outer, payload)[last] = value
    with open(path, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert main(["eval", "--classic", "--config", cfg]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("error: CheckpointError: "), line
    assert path in line and where in line, line


SEARCH_RESULT = """\
# kind: search_result
# format_version: 1
# bases: color, shape
# pool_size: {pool_size}
# config_hash: none
(color), weight: {weight}
(shape), weight: 0.302
(color, shape), weight: 0.349
selected: (color)
"""


@pytest.mark.parametrize("line, fields", [
    (4, {"pool_size": "three", "weight": "0.349"}),
    (6, {"pool_size": "3", "weight": "-.-349"}),
], ids=["pool_size", "weight"])
def test_search_result_with_a_bad_number_is_one_error_line(line, fields, classic_pipeline_out,
                                                           tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    shutil.copytree(classic_pipeline_out, out)
    path = os.path.join(out, "search_result.txt")
    parse_result(SEARCH_RESULT.format(pool_size="3", weight="0.349"))  # the file, unedited, reads
    with open(path, "w") as fh:
        fh.write(SEARCH_RESULT.format(**fields))
    capsys.readouterr()
    assert main(["train", "--config", cfg]) == 1
    (err,) = capsys.readouterr().err.strip().splitlines()
    assert err.startswith(f"error: ParseError: {path}:{line}: "), err


# a search result over one base that is the empty word, as export_result writes it
EMPTY_BASE_RESULT = "".join(f"{line}\n" for line in (
    "# kind: search_result", "# format_version: 1", "# bases: ", "# pool_size: 1",
    "# config_hash: none", "(), weight: 1.000", "selected: ()"))
# an empty word handed to a command as the words a prompt anchors on -> (the config edit,
# the search result file's text or None, the command, the artifact it must not write, and
# the end of its one error line)
EMPTY_ANCHORS = {
    "train_attributes": (_set("train", "attributes", [""]), None, ["train"],
                         "checkpoint_atprompt_s3.json",
                         "ConfigError: train: attributes must be one lowercase word, got ''"),
    "train_attributes_gen_data": (_set("train", "attributes", [""]), None, ["gen-data"],
                                  "base.json",
                                  "ConfigError: train: attributes must be one lowercase word, "
                                  "got ''"),
    "train_attributes_search": (_set("train", "attributes", [""]), None, ["search-attrs"],
                                "search_result.txt",
                                "ConfigError: train: attributes must be one lowercase word, "
                                "got ''"),
    "explicit_bases": (_set("attributes", "explicit", ["color", ""]), None, ["search-attrs"],
                       "search_result.txt",
                       "ConfigError: attributes: explicit must be one lowercase word, got ''"),
    "explicit_bases_gen_data": (_set("attributes", "explicit", ["color", ""]), None,
                                ["gen-data"], "base.json",
                                "ConfigError: attributes: explicit must be one lowercase word, "
                                "got ''"),
    "search_result_bases": (None, EMPTY_BASE_RESULT, ["train"], "checkpoint_atprompt_s3.json",
                            "search_result.txt: base words must be one lowercase word, got ''"),
}


@pytest.mark.parametrize("case", sorted(EMPTY_ANCHORS))
def test_an_empty_anchor_word_is_one_error_line_and_no_artifact(case, classic_pipeline_out,
                                                               tmp_path, capsys):
    edit, result, command, artifact, message = EMPTY_ANCHORS[case]
    cfg, out = write_config(tmp_path)
    if command != ["gen-data"]:  # the other commands read what gen-data and train wrote
        shutil.copytree(classic_pipeline_out, out)
    if edit is not None:
        payload = load_json(cfg)
        edit(payload)
        with open(cfg, "w") as fh:
            json.dump(payload, fh)
    if result is not None:
        with open(os.path.join(out, "search_result.txt"), "w") as fh:
            fh.write(result)
    capsys.readouterr()
    assert main([*command, "--config", cfg]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("error: ") and line.endswith(message), line
    assert not os.path.exists(os.path.join(out, artifact))
