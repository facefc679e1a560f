import json
import math
import os
import re
import sys
import tempfile
from dataclasses import is_dataclass, replace
from typing import get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promptlab import config
from promptlab.attributes import AttributeBases, LlmClientConfig
from promptlab.config import (
    ARRAYS,
    CHOICES,
    MLP_RATIO,
    RANGES,
    RUN_CONFIG_TYPES,
    AttributeSource,
    RunConfig,
    config_hash,
    load_run_config,
    save_run_config,
)
from promptlab.data import SUBSEED_NAMES, LatentAttribute, TaskSpec, subseed
from promptlab.encoders import EncoderConfig
from promptlab.errors import ConfigError, DataError, ParameterError, PromptLabError
from promptlab.prompts import (
    CLASS_POSITIONS,
    DROP_POLICIES,
    INIT_SCHEMES,
    POSITION_STYLES,
    PromptLayout,
)
from promptlab.search import SearchConfig, describe_config, enumerate_pool
from promptlab.serialize import dumps_json, file_sha256
from promptlab.training import EvalReport, TrainConfig


def toy_spec():
    return TaskSpec(
        latent_attributes=(
            LatentAttribute("color", ("color0", "color1", "color2", "color3")),
            LatentAttribute("shape", ("shape0",)),
        ),
        informative_attributes=("color",),
        num_classes=4,
        samples_per_class=4,
        seed=1,
    )


def toy_config(**kw):
    defaults = dict(
        task_spec=toy_spec(),
        attributes=AttributeSource(explicit=("color", "shape")),
        out_dir="runs/toy",
    )
    defaults.update(kw)
    return RunConfig(**defaults)


# -- sub-seeds -----------------------------------------------------------------


def test_named_subseeds_are_stable_and_distinct():
    streams = {name: subseed(7, name) for name in SUBSEED_NAMES}
    assert streams == {name: subseed(7, name) for name in SUBSEED_NAMES}
    assert len(set(streams.values())) == len(SUBSEED_NAMES)


def test_named_subseed_rejects_unknown_components():
    with pytest.raises(ConfigError):
        subseed(7, "cache")


def test_subseeds_are_pinned_for_every_component():
    # each value seeds a stream behind saved artifacts; a change here moves them all
    assert {name: subseed(0, name) for name in SUBSEED_NAMES} == {
        "init": 3501147124, "search.banks": 2700969913, "search.order": 2095722251,
        "train.order": 3431036499,
    }
    assert {name: subseed(7, name) for name in SUBSEED_NAMES} == {
        "init": 1512160537, "search.banks": 1634806952, "search.order": 1244855497,
        "train.order": 1254550084,
    }


def test_config_hash_is_order_insensitive_and_content_sensitive():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


# -- attribute source ---------------------------------------------------------------


def test_attribute_source_requires_exactly_one_mode():
    with pytest.raises(ConfigError):
        AttributeSource().validate()
    with pytest.raises(ConfigError):
        AttributeSource(fixture="caltech101", explicit=("color",)).validate()
    AttributeSource(fixture="caltech101").validate()
    AttributeSource(llm=LlmClientConfig()).validate()


def test_attribute_source_rejects_empty_explicit_list():
    with pytest.raises(ConfigError):
        AttributeSource(explicit=()).validate()


def test_attribute_source_round_trips_every_mode():
    for src in (
        AttributeSource(fixture="dtd"),
        AttributeSource(explicit=("color", "shape")),
        AttributeSource(llm=LlmClientConfig(model="m", credential_env="MY_KEY")),
    ):
        clone = AttributeSource.from_dict(src.validate().to_dict())
        assert clone == src


def test_attribute_source_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        AttributeSource.from_dict({"fixtures": "dtd"})


@pytest.mark.parametrize("value, key", [
    (EvalReport.from_accuracies(80.0, 60.0, {"cat": 75.0}), "base_accuracy"),
    (EvalReport.from_accuracies(80.0, 60.0, {"cat": 75.0}), "per_class_accuracy"),
])
def test_missing_required_key_is_a_config_error_naming_it(value, key):
    payload = value.to_dict()
    del payload[key]
    name = type(value).__name__
    with pytest.raises(ConfigError, match=rf"^missing key '{name}\.{key}'$"):
        type(value).from_dict(payload)
    with pytest.raises(ConfigError, match=rf"^missing key 'record\.{key}'$"):
        type(value).from_dict(payload, "record")


# -- run config ----------------------------------------------------------------------


def test_run_config_requires_one_task_origin():
    with pytest.raises(ConfigError, match="^config must set a task spec$"):
        RunConfig(attributes=AttributeSource(explicit=("a",))).validate()
    with pytest.raises(ConfigError, match="^unknown key 'dataset'"):
        RunConfig.from_dict({**toy_config().to_dict(), "dataset": "data/task.json"})


def test_readme_run_config_example_loads():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.DOTALL)
    (example,) = [json.loads(b) for b in blocks if '"kind": "run_config"' in b]
    RunConfig.from_dict(example)  # a key or value the reader rejects fails here


def test_run_config_round_trips_through_dict():
    config = toy_config(seeds=(1, 2, 3)).validate()
    clone = RunConfig.from_dict(config.to_dict())
    assert clone.task_spec == config.task_spec
    assert clone.attributes == config.attributes
    assert clone.seeds == (1, 2, 3)
    assert clone.fingerprint() == config.fingerprint()


def test_seed_list_falls_back_to_the_single_seed():
    assert toy_config(seed=5).seed_list() == (5,)
    assert toy_config(seed=5, seeds=(1, 2)).seed_list() == (1, 2)


def test_run_config_rejects_bad_sections():
    with pytest.raises(ConfigError):
        RunConfig.from_dict(
            {"task": toy_spec().to_dict(), "attributes": {"explicit": ["a"]},
             "search": {"momentum": 0.9}, "out": "runs/x"}
        )
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"kind": "other", "task": toy_spec().to_dict()})


def test_file_round_trip_and_flag_overrides(tmp_path):
    path = str(tmp_path / "run.json")
    config = toy_config(seed=1).validate()
    save_run_config(config, path)
    same = load_run_config(path)
    assert same.fingerprint() == config.fingerprint()
    overridden = load_run_config(path, overrides={"seed": 9, "out": "elsewhere"})
    assert overridden.seed == 9
    assert overridden.out_dir == "elsewhere"
    ignored = load_run_config(path, overrides={"seed": None})
    assert ignored.seed == 1  # None means "flag not given"


def test_load_rejects_non_object_files(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(DataError):
        load_run_config(str(path))


# every float field of a run config, as (section, key)
FLOAT_FIELDS = [
    (section, key)
    for section, kind in (("task", TaskSpec), ("search", SearchConfig), ("train", TrainConfig),
                          ("encoder_overrides", EncoderConfig), ("llm", LlmClientConfig))
    for key, hint in get_type_hints(kind).items() if hint is float
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400],
                         ids=["NaN", "Infinity", "-Infinity", "integer-past-float64"])
@pytest.mark.parametrize("section, key", FLOAT_FIELDS)
def test_non_finite_float_is_a_config_error_naming_the_key(section, key, value, tmp_path):
    # Python's json reads NaN and Infinity, and NaN slips past every "<= 0" check;
    # an integer past float64's range overflows where the value is first used
    payload = toy_config().validate().to_dict()
    if section == "llm":
        payload["attributes"] = {"llm": {key: value}}
    else:
        payload[section][key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=rf"\b{key} must be a finite float64 number, got"):
        load_run_config(str(path))


# every int field a run config sets, as (section, key); "" is the top level. The
# run config owns the search and train seeds, and the dataset the encoder's widths.
INT_FIELDS = [
    (section, key)
    for section, types in (("", RUN_CONFIG_TYPES), ("task", get_type_hints(TaskSpec)),
                           ("search", get_type_hints(SearchConfig)),
                           ("train", get_type_hints(TrainConfig)),
                           ("layout", get_type_hints(PromptLayout)),
                           ("encoder_overrides", get_type_hints(EncoderConfig)),
                           ("llm", get_type_hints(LlmClientConfig)))
    for key, hint in types.items()
    if hint is int and (section, key) not in {
        ("search", "seed"), ("train", "seed"),
        ("encoder_overrides", "embed_dim"), ("encoder_overrides", "image_dim")}
]


@pytest.mark.parametrize("value", [10**30, -(10**30)])
@pytest.mark.parametrize("section, key", INT_FIELDS)
def test_integer_past_int64_is_a_config_error_naming_the_key(section, key, value, tmp_path):
    # numpy reads no wider integer: past int64 a value overflows where it is first used
    payload = toy_config().validate().to_dict()
    if section == "llm":
        payload["attributes"] = {"llm": {key: value}}
    else:
        (payload[section] if section else payload)[key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=rf"\b{key} must be a 64-bit integer, got"):
        load_run_config(str(path))


def test_seeds_past_int64_are_a_config_error():
    with pytest.raises(ConfigError, match="^seeds must be non-negative 64-bit integers, got"):
        replace(toy_config(), seeds=(3, 2**63)).validate()
    assert replace(toy_config(), seeds=(2**63 - 1,)).validate().seeds == (2**63 - 1,)


# -- the one table of choices and ranges ---------------------------------------------------

SETTINGS_CLASSES = [kind for kind in vars(config).values() if is_dataclass(kind)] + [EvalReport]


def test_every_rule_names_a_field_of_some_settings_class():
    # a renamed field must not leave a rule behind that checks nothing
    types = [get_type_hints(kind) for kind in SETTINGS_CLASSES]
    for key in CHOICES:
        assert any(t.get(key) is str for t in types), key
    for key in RANGES:
        assert any(t.get(key) in (int, float) for t in types), key
    for key in {name for dims in ARRAYS for name in dims if isinstance(name, str)}:
        assert any(t.get(key) is int for t in types), key


def test_negative_task_seed_is_a_data_error():
    # numpy's generators take no negative seed: it used to end gen-data in a ValueError
    with pytest.raises(DataError, match="^seed must be at least 0, got -1$"):
        TaskSpec(seed=-1).validate()


def array_sizes(kind):
    """The fields of ``kind`` that enter a rule of ``config.ARRAYS`` which the class has."""
    fields = get_type_hints(kind)
    rules = [{d for d in dims if isinstance(d, str)} for dims in ARRAYS]
    return [key for key in fields
            if any(key in names and names <= fields.keys() for names in rules)]


# case -> (section, key) whose size at 2**62 makes an array of more bytes than anything
# can address; a key both sections have is named by its section in the encoder's case
UNADDRESSABLE = {key: (TaskSpec, key) for key in array_sizes(TaskSpec)}
UNADDRESSABLE |= {(f"EncoderConfig.{key}" if key in UNADDRESSABLE else key): (EncoderConfig, key)
                  for key in array_sizes(EncoderConfig)}


@pytest.mark.parametrize("case", sorted(UNADDRESSABLE))
def test_sizes_no_array_can_address_are_rejected_naming_the_key(case):
    kind, key = UNADDRESSABLE[case]
    error = DataError if kind is TaskSpec else ConfigError
    with pytest.raises(error, match=rf"\b{key}\b.* makes an array of more than {sys.maxsize}"):
        kind(**{key: 2**62}).validate()


def test_the_largest_addressable_positional_table_passes():
    # 8 bytes a value; the positional table is max_seq_len * embed_dim values
    longest = sys.maxsize // (8 * 32)
    assert EncoderConfig(max_seq_len=longest).validate().max_seq_len == longest
    with pytest.raises(ConfigError, match="^max_seq_len \\* embed_dim makes an array"):
        EncoderConfig(max_seq_len=longest + 1).validate()


def test_the_largest_addressable_mlp_weight_passes():
    # each block's MLP weight is embed_dim * MLP_RATIO * embed_dim values
    widest = math.isqrt(sys.maxsize // (8 * MLP_RATIO))
    assert EncoderConfig(embed_dim=widest, num_heads=1).validate().embed_dim == widest
    with pytest.raises(ConfigError,
                       match=rf"^embed_dim \* {MLP_RATIO} \* embed_dim makes an array"):
        EncoderConfig(embed_dim=widest + 1, num_heads=1).validate()


# -- serialized sections, pinned on the command-line pipeline's config --------------------

PIPELINE_CONFIG = {
    "task": {
        "num_classes": 6, "samples_per_class": 8, "noise_std": 0.1,
        "latent_attributes": [
            ["color", ["color0", "color1", "color2", "color3", "color4", "color5"]],
            ["shape", ["shape0", "shape1"]],
        ],
        "informative_attributes": ["color"], "seed": 0,
    },
    "attributes": {"explicit": ["color", "shape"]},
    "search": {"epochs": 2, "batch_size": 16, "theta_lr": 0.05, "alpha_lr": 0.02},
    "train": {"epochs": 3, "batch_size": 16, "lr_init": 0.05},
    "layout": {"depth": 1},
    "out": "out",
    "seed": 3,
}


def test_search_description_is_pinned():
    config = RunConfig.from_dict(PIPELINE_CONFIG)
    search = replace(config.search, seed=config.seed)
    assert describe_config(search) == (
        '{\n  "alpha_lr": 0.02,\n  "attr_soft_len": 2,\n  "batch_size": 16,\n  "epochs": 2,\n'
        '  "init_scheme": "phrase_init",\n  "layout": {\n    "attribute_names": [],\n'
        '    "attribute_position_style": "interval",\n    "class_token_position": "end",\n'
        '    "depth": 1,\n    "drop_policy": "retain_all"\n  },\n  "seed": 3,\n'
        '  "soft_len": 2,\n  "theta_lr": 0.05\n}\n'
    )


def test_saved_run_config_bytes_are_pinned(tmp_path):
    path = str(tmp_path / "run_config.json")
    save_run_config(RunConfig.from_dict(PIPELINE_CONFIG), path)
    assert file_sha256(path) == "af057b4627aa652478370e457c7371f9b3f6fba1aa9772f2ef4e92f950ee7727"


# -- round trips over generated configs ---------------------------------------------------

names = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
seeds = st.integers(0, 2**32 - 1)
# float fields also take ints, which must come back as the ints they were written as
positive_numbers = st.one_of(st.integers(1, 9), st.floats(1e-4, 9.0))
fractions = st.one_of(st.integers(0, 1), st.floats(0.0, 1.0))
sizes = st.integers(1, 4)


def _valid(config):
    try:
        config.validate()
    except ConfigError:
        return False
    return True


def layouts(attribute_names=st.just(())):
    return st.builds(
        PromptLayout, attribute_names=attribute_names,
        class_token_position=st.sampled_from(CLASS_POSITIONS),
        attribute_position_style=st.sampled_from(POSITION_STYLES),
        drop_policy=st.sampled_from(DROP_POLICIES), depth=st.integers(1, 4),
    ).filter(_valid)


llm_configs = st.builds(
    LlmClientConfig, endpoint=names, model=names,
    credential_env=st.from_regex(r"[A-Z][A-Z0-9_]{0,8}", fullmatch=True),
    timeout=positive_numbers, max_retries=st.integers(0, 3),
)
attribute_sources = st.one_of(
    st.builds(AttributeSource, fixture=names),
    st.builds(AttributeSource, llm=llm_configs),
    st.builds(AttributeSource,
              explicit=st.lists(names, min_size=1, max_size=3, unique=True).map(tuple)),
)
task_specs = st.builds(
    TaskSpec, num_classes=st.integers(2, 4), raw_feature_dim=st.integers(1, 32),
    latent_attributes=st.just(toy_spec().latent_attributes),
    informative_attributes=st.just(("color",)), samples_per_class=st.integers(1, 16),
    noise_std=fractions, attribute_signal=fractions, value_spread=positive_numbers,
    include_id_words=st.booleans(), seed=seeds,
)
encoder_configs = st.integers(1, 4).flatmap(lambda heads: st.builds(
    EncoderConfig, embed_dim=st.integers(1, 8).map(heads.__mul__),
    num_layers=st.integers(1, 4), num_heads=st.just(heads), max_seq_len=st.integers(1, 64),
))
encoder_overrides = st.fixed_dictionaries({}, optional={
    "num_layers": st.integers(1, 4), "max_seq_len": st.integers(8, 64),
})
eval_reports = st.builds(
    EvalReport.from_accuracies, st.floats(0.0, 100.0), st.floats(0.0, 100.0),
    st.dictionaries(names, st.floats(0.0, 100.0), max_size=3), st.integers(1, 5),
)


@st.composite
def run_configs(draw):
    # each section draws its own seed and layout: the run config sets both seeds to its seed
    # and the search's layout to the train section's, the only ones its file holds
    search = draw(st.builds(
        SearchConfig, epochs=st.integers(1, 20), batch_size=st.integers(1, 64),
        theta_lr=positive_numbers, alpha_lr=positive_numbers, soft_len=sizes,
        attr_soft_len=sizes, init_scheme=st.sampled_from(INIT_SCHEMES), seed=seeds,
        layout=layouts(),
    ))
    train = draw(st.builds(
        TrainConfig, epochs=st.integers(1, 20), batch_size=st.integers(1, 64),
        lr_init=positive_numbers,
        attributes=st.lists(names, unique=True, max_size=3).map(tuple), soft_len=sizes,
        attr_soft_len=sizes, init_scheme=st.sampled_from(INIT_SCHEMES), seed=seeds,
        layout=layouts(),
    ))
    return RunConfig(
        task_spec=draw(task_specs), attributes=draw(attribute_sources), search=search,
        train=train, encoder_overrides=draw(encoder_overrides), out_dir=draw(names),
        seed=draw(seeds), seeds=tuple(draw(st.lists(seeds, unique=True, max_size=3))),
    ).validate()


@settings(max_examples=60, deadline=None)
@given(run_configs())
def test_run_config_round_trips_and_keeps_its_fingerprint(config):
    assert config.search.seed == config.train.seed == config.seed
    assert config.search.layout == config.train.layout
    assert RunConfig.from_dict(config.to_dict()) == config
    assert RunConfig.from_dict(json.loads(dumps_json(config.to_dict()))) == config
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run_config.json")
        save_run_config(config, path)
        assert load_run_config(path).fingerprint() == config.fingerprint()


JSON_FIELDS = {
    "AttributeSource": attribute_sources,
    "EncoderConfig": encoder_configs,
    "EvalReport": eval_reports,
    "LlmClientConfig": llm_configs,
    "PromptLayout": layouts(st.lists(names, unique=True, max_size=3).map(tuple)),
    "TaskSpec": task_specs,
}


@pytest.mark.parametrize("name", sorted(JSON_FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_json_fields_round_trip(name, data):
    value = data.draw(JSON_FIELDS[name])
    assert type(value).__name__ == name
    assert type(value).from_dict(json.loads(dumps_json(value.to_dict()))) == value


# -- the anchor-word rule ----------------------------------------------------------------


# each check of the words a prompt anchors on, fed a word list, and the error it raises
ANCHOR_WORD_CHECKS = {
    "TaskSpec": (lambda words: TaskSpec(num_classes=2, latent_attributes=[("color", words)],
                                        informative_attributes=("color",)).validate(),
                 DataError),
    "PromptLayout": (lambda words: PromptLayout(attribute_names=words).validate(), ConfigError),
    "enumerate_pool": (enumerate_pool, ParameterError),
    "AttributeBases": (lambda words: AttributeBases("d", words).validate(), DataError),
    "TrainConfig": (lambda words: TrainConfig(attributes=words).validate(), ConfigError),
    "AttributeSource": (lambda words: AttributeSource(explicit=words).validate(), ConfigError),
}
# empty or blank, two words, capitalised, padded
non_words = st.one_of(st.text(" \t\n", max_size=2), st.tuples(names, names).map(" ".join),
                      names.map(str.capitalize), names.map(" {}".format))


@pytest.mark.parametrize("check", sorted(ANCHOR_WORD_CHECKS))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(words=st.one_of(st.tuples(names, non_words), names.map(lambda word: (word, word))))
@example(words=("blue", "red car")).via("two words")
@example(words=("blue", "Color")).via("capitalised")
@example(words=("blue", "")).via("empty")
@example(words=("blue", " red")).via("padded")
@example(words=("blue", 7)).via("a number")
@example(words=("color", "color")).via("a repeat")
def test_every_anchor_word_check_rejects_a_non_word_or_a_repeat_naming_it(check, words):
    run, error = ANCHOR_WORD_CHECKS[check]
    with pytest.raises(PromptLabError) as info:
        run(words)
    assert type(info.value) is error
    first, last = words
    message = str(info.value)
    if first == last:
        assert message.startswith("duplicate ") and message.endswith(f": {last}"), message
    else:
        assert message.endswith(f"one lowercase word, got {last!r}"), message
