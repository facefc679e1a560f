import functools
import json
import operator
import os
import re
import shutil
import subprocess
import sys

import pytest

from promptlab import cli
from promptlab.cli import main
from promptlab.search import load_result, parse_result
from promptlab.serialize import FORMAT_VERSION, file_sha256, load_json
from promptlab.training import EvalReport, load_report_records, save_report_records


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


def test_gen_data_requires_an_inline_spec(tmp_path):
    cfg, out = write_config(tmp_path)
    payload = json.load(open(cfg))
    del payload["task"]
    payload["dataset"] = str(tmp_path / "task.json")
    json.dump(payload, open(cfg, "w"))
    assert main(["gen-data", "--config", cfg]) == 1


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
    assert tuple(checkpoint["attributes"]) == selected


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
    assert checkpoint["attributes"] == []
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


@pytest.mark.parametrize("edit, message", [
    (lambda records: records[1].pop("seed"), "ConfigError: missing key '{path}:records[1].seed'"),
    (lambda records: records[1].update(seed="3"),
     "ConfigError: {path}:records[1].seed must be a JSON integer"),
    (lambda records: records[1].update(extra=1),
     "ConfigError: unknown key '{path}:records[1].extra'"),
    (lambda records: records.clear(), "DataError: {path}: no records"),
])
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

    class CountingEncoder(cli.DualEncoder):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "DualEncoder", CountingEncoder)
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
    "train_zero_attr_soft_len": (_set("train", "attr_soft_len", 0), ["gen-data"], "soft lengths"),
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
    "llm_timeout_string": (lambda payload: payload.update(attributes={"llm": {"timeout": "5"}}),
                           ["gen-data"], "timeout"),
    "latent_attribute_without_values": (_set("task", "latent_attributes", [["color"]]),
                                        ["gen-data"], "latent_attributes"),
    "seed_negative": (lambda payload: payload.update(seed=-1), ["gen-data"], "seed"),
    "seed_flag_negative": (None, ["gen-data", "--seed", "-1"], "seed"),
    "seeds_flag_negative": (None, ["train", "--classic", "--seeds", "-1"], "seeds"),
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
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "promptlab.cli", *command, "--config", cfg],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert re.match(r"^error: \w+Error: ", proc.stderr.strip().splitlines()[-1]), proc.stderr
    if key is not None:
        assert key in proc.stderr.strip().splitlines()[-1], proc.stderr
    assert not os.path.exists(out) or os.listdir(out) == []  # rejected before any write


# artifact -> (the command that reads it, every top-level key, and the keys one level down)
ARTIFACT_KEYS = {
    "base.json": (["train", "--classic"], {
        "kind", "format_version", "spec", "name", "vocabulary", "class_names",
        "class_signatures", "attribute_names", "prototypes", "splits"},
        {"vocabulary": {"words", "vectors"}}),
    "checkpoint_classic_s3.json": (["eval", "--classic"], {
        "kind", "format_version", "config_hash", "tag", "seed", "attributes", "layout", "bank"},
        {"bank": {"class_block", "attribute_blocks", "deep_class_blocks"}}),
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


# an element of an artifact replaced by a string, keyed by the name its error line must carry
RETYPED_ELEMENTS = {
    "class_signatures[0]": ("base.json", ("class_signatures", 0)),
    "splits.train.x": ("base.json", ("splits", "train", "x", 0, 0)),
    "vocabulary.vectors": ("base.json", ("vocabulary", "vectors", 0, 0)),
    "bank.class_block": ("checkpoint_classic_s3.json", ("bank", "class_block", 0, 0)),
}


@pytest.mark.parametrize("where", sorted(RETYPED_ELEMENTS))
def test_artifact_with_a_retyped_element_is_one_error_line(where, classic_pipeline_out, tmp_path,
                                                           capsys):
    cfg, out = write_config(tmp_path)
    shutil.copytree(classic_pipeline_out, out)
    name, (*outer, last) = RETYPED_ELEMENTS[where]
    path = os.path.join(out, name)
    payload = load_json(path)
    functools.reduce(operator.getitem, outer, payload)[last] = "x"
    with open(path, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert main([*ARTIFACT_KEYS[name][0], "--config", cfg]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert re.match(r"^error: \w+Error: ", line) and path in line and where in line, line


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


# the classic checkpoint's attribute names edited so that they disagree: (key, value) edits
# and what the error line must name
BAD_ATTRIBUTES = {
    "attributes_not_the_layout": ([(("attributes",), ["shape"])], "attributes ['shape']"),
    "layout_attribute_without_a_block": (
        [(("attributes",), ["shape"]), (("layout", "attribute_names"), ["shape"])],
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
