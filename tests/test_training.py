import json
import re
from dataclasses import replace

import numpy as np
import pytest

from promptlab.data import LatentAttribute, TaskSpec, generate_task, make_base_novel_task
from promptlab.encoders import DualEncoder, build_config_for
from promptlab.errors import CheckpointError, ConfigError, ContractError, DataError
from promptlab.optim import SGD, cosine_lr
from promptlab.prompts import PromptLayout
from promptlab.search import SearchConfig, alternating_search
from promptlab.training import (
    EvalReport,
    TrainConfig,
    aggregate_reports,
    evaluate,
    harmonic_mean,
    load_checkpoint,
    load_report_records,
    make_bank,
    per_class_accuracy,
    run_base_to_novel,
    save_checkpoint,
    save_report_records,
    train_prompts,
)


def toy_task(seed=3, num_classes=4, samples_per_class=8, **kw):
    attrs = (
        LatentAttribute("color", tuple(f"color{j}" for j in range(num_classes))),
        LatentAttribute("shape", ("shape0",)),
    )
    spec = TaskSpec(
        latent_attributes=attrs,
        informative_attributes=("color",),
        num_classes=num_classes,
        samples_per_class=samples_per_class,
        noise_std=0.05,
        seed=seed,
        **kw,
    )
    return generate_task(spec)


def toy_encoder(task, seed=0, **overrides):
    cfg = build_config_for(task.vocabulary, num_layers=2, **overrides)
    return DualEncoder(cfg, task.vocabulary, seed=seed)


# -- config ------------------------------------------------------------------


def test_train_config_rejects_bad_fields():
    with pytest.raises(ConfigError, match="lr_init"):
        TrainConfig(lr_init=0.0).validate()


# a bad value of a setting search and training share -> what the error names
BAD_SHARED_SETTINGS = {
    "epochs": ({"epochs": 0}, "epochs"),
    "batch_size": ({"batch_size": 0}, "batch_size"),
    "seed": ({"seed": -1}, "seed"),
    "soft_len": ({"soft_len": -1}, "soft_len"),
    "soft_len_zero": ({"soft_len": 0}, "soft_len"),
    "attr_soft_len_zero": ({"attr_soft_len": 0}, "attr_soft_len"),
    "init_scheme": ({"init_scheme": "bogus"}, "init_scheme"),
    "layout": ({"layout": PromptLayout(drop_policy="bogus")}, "drop_policy"),
}


@pytest.mark.parametrize("config_type", [SearchConfig, TrainConfig])
@pytest.mark.parametrize("case", sorted(BAD_SHARED_SETTINGS))
def test_shared_run_settings_fail_alike_in_search_and_training(config_type, case):
    fields, named = BAD_SHARED_SETTINGS[case]
    with pytest.raises(ConfigError, match=named):
        config_type(**fields).validate()


def test_effective_layout_substitutes_attributes():
    cfg = TrainConfig(attributes=("color",), layout=PromptLayout(depth=1))
    assert cfg.effective_layout().attribute_names == ("color",)
    assert TrainConfig().effective_layout().attribute_names == ()


def test_make_bank_carries_configured_blocks():
    task = toy_task()
    enc = toy_encoder(task)
    cfg = TrainConfig(attributes=("color", "shape"), soft_len=3, attr_soft_len=2)
    bank = make_bank(cfg, enc)
    assert bank.class_block.shape[0] == 3
    assert sorted(bank.attribute_blocks) == ["color", "shape"]
    assert {b.shape[0] for b in bank.attribute_blocks.values()} == {2}


# -- training loop ------------------------------------------------------------


def test_training_fits_a_separable_toy_task():
    task = toy_task(num_classes=2, samples_per_class=16)
    enc = toy_encoder(task)
    cfg = TrainConfig(epochs=50, batch_size=8, lr_init=0.05, seed=0)
    bank = make_bank(cfg, enc)
    bank, history = train_prompts(task, cfg, bank, enc)
    assert len(history) == 50
    assert history[-1] < history[0]
    assert evaluate(enc, bank, cfg.effective_layout(), task, "train") == 100.0


def test_training_leaves_the_encoder_bitwise_frozen():
    task = toy_task()
    enc = toy_encoder(task)
    before = enc.weights_fingerprint()
    cfg = TrainConfig(epochs=2, batch_size=8, lr_init=0.05)
    train_prompts(task, cfg, make_bank(cfg, enc), enc)
    assert enc.weights_fingerprint() == before


def test_initial_loss_floors_at_log_num_classes_when_images_are_uninformative():
    # attribute_signal=0 makes prototypes pure per-class offsets that no text
    # feature can see, so untrained predictions are label-independent: the loss
    # cannot sit below the ln(N) uniform floor, and the sharp temperature
    # (cos/0.07) only pushes it above by amplifying per-class cosine jitter
    task = toy_task(num_classes=8, samples_per_class=4, attribute_signal=0.0)
    enc = toy_encoder(task)
    cfg = TrainConfig(epochs=1, batch_size=256, lr_init=1e-9, init_scheme="random_normal")
    bank = make_bank(cfg, enc)
    _, history = train_prompts(task, cfg, bank, enc)
    assert np.log(8) - 0.3 < history[0] < np.log(8) + 2.5
    acc = evaluate(enc, bank, cfg.effective_layout(), task, "test")
    assert acc <= 3 * (100.0 / 8)  # near chance, nothing to learn from


def test_training_steps_follow_the_half_cosine_decay(monkeypatch):
    rates, step = [], SGD.step
    monkeypatch.setattr(SGD, "step", lambda opt: (rates.append(opt.lr), step(opt)))
    task = toy_task()  # 32 training rows: 4 batches of 8 an epoch
    enc = toy_encoder(task)
    cfg = TrainConfig(epochs=3, batch_size=8, lr_init=0.05)
    train_prompts(task, cfg, make_bank(cfg, enc), enc)
    assert rates == [cosine_lr(s, 12, 0.05) for s in range(12)]


def test_training_is_deterministic_given_the_seed():
    losses = []
    for _ in range(2):
        task = toy_task()
        enc = toy_encoder(task)
        cfg = TrainConfig(epochs=3, batch_size=8, lr_init=0.05, seed=9)
        _, history = train_prompts(task, cfg, make_bank(cfg, enc), enc)
        losses.append(history)
    np.testing.assert_array_equal(losses[0], losses[1])


class RecordingRng:
    """A generator that logs the size of every ``permutation`` it draws."""

    def __init__(self, rng, draws):
        self.rng, self.draws = rng, draws

    def permutation(self, n):
        self.draws.append(n)
        return self.rng.permutation(n)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_batch_orders_are_drawn_in_a_fixed_sequence(monkeypatch):
    # 12 training rows and 6 validation rows in batches of 4: three steps per
    # epoch, and the validation order wraps every two steps, so it wraps
    # mid-epoch (steps 2, 4 and 8) and at an epoch boundary (step 6)
    task = toy_task()
    enc = toy_encoder(task)
    (xt, yt), (xv, yv) = task.split("train"), task.split("val")
    task = replace(task, splits={**task.splits, "train": (xt[:12], yt[:12]),
                                 "val": (xv[:6], yv[:6])})
    draws = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args: RecordingRng(default_rng(*args), draws))
    alternating_search(task, ("color", "shape"), SearchConfig(epochs=3, batch_size=4), enc)
    # validation first; then each epoch's training order ahead of a wrap in the same step
    assert draws == [6, 12, 6, 12, 6, 12, 6, 6]
    draws.clear()
    cfg = TrainConfig(epochs=3, batch_size=4)
    train_prompts(task, cfg, make_bank(cfg, enc), enc)
    assert draws == [12, 12, 12]


def test_training_rejects_empty_split():
    task = toy_task()
    x, y = task.splits["train"]
    starved = replace(task, splits={**task.splits, "train": (x[:0], y[:0])})
    enc = toy_encoder(task)
    cfg = TrainConfig(epochs=1)
    with pytest.raises(DataError):
        train_prompts(starved, cfg, make_bank(cfg, enc), enc)


# -- evaluation ----------------------------------------------------------------


def test_evaluate_returns_percent_and_rejects_empty_split():
    task = toy_task()
    enc = toy_encoder(task)
    cfg = TrainConfig()
    bank = make_bank(cfg, enc)
    acc = evaluate(enc, bank, cfg.effective_layout(), task, "test")
    assert 0.0 <= acc <= 100.0
    starved = replace(task, splits={**task.splits, "test": (task.splits["test"][0][:0],
                                                            task.splits["test"][1][:0])})
    with pytest.raises(DataError):
        evaluate(enc, bank, cfg.effective_layout(), starved, "test")


def test_per_class_accuracy_covers_every_class():
    task = toy_task()
    enc = toy_encoder(task)
    cfg = TrainConfig()
    bank = make_bank(cfg, enc)
    table = per_class_accuracy(enc, bank, cfg.effective_layout(), task)
    assert sorted(table) == sorted(task.class_names)
    overall = evaluate(enc, bank, cfg.effective_layout(), task)
    assert np.mean(list(table.values())) == pytest.approx(overall, abs=1e-9)


# -- base/novel protocol ----------------------------------------------------------


def test_harmonic_mean_matches_published_aggregates():
    assert harmonic_mean(82.69, 63.22) == pytest.approx(71.66, abs=0.01)
    assert harmonic_mean(82.28, 75.14) == pytest.approx(78.55, abs=0.01)


def test_harmonic_mean_edge_cases():
    assert harmonic_mean(0.0, 50.0) == 0.0
    assert harmonic_mean(50.0, 0.0) == 0.0
    assert harmonic_mean(60.0, 60.0) == pytest.approx(60.0)
    with pytest.raises(ContractError):
        harmonic_mean(-1.0, 50.0)


def test_eval_report_checks_its_own_arithmetic():
    EvalReport(80.0, 60.0, harmonic_mean(80.0, 60.0), {}).validate()
    with pytest.raises(ContractError):
        EvalReport(80.0, 60.0, 70.0, {}).validate()
    with pytest.raises(ContractError):
        EvalReport(120.0, 60.0, harmonic_mean(120.0, 60.0), {}).validate()


def test_eval_report_aggregates_at_least_one_seed():
    payload = EvalReport.from_accuracies(80.0, 60.0, {}).to_dict()
    with pytest.raises(ContractError, match="^seeds_aggregated must be at least 1, got -3$"):
        EvalReport.from_dict({**payload, "seeds_aggregated": -3})


def test_a_report_changed_after_its_check_is_checked_again():
    # a report is mutable, so passing once does not make it pass again
    report = EvalReport.from_accuracies(80.0, 60.0, {})
    report.seeds_aggregated = 0
    with pytest.raises(ContractError, match="^seeds_aggregated must be at least 1, got 0$"):
        report.validate()


def test_eval_report_round_trips():
    report = EvalReport(80.0, 60.0, harmonic_mean(80.0, 60.0), {"cat": 75.0}, seeds_aggregated=2)
    clone = EvalReport.from_dict(report.to_dict())
    assert clone == report


def saved_checkpoint(tmp_path):
    task = toy_task()
    config = TrainConfig(layout=PromptLayout(depth=2, drop_policy="partial_drop"),
                         attributes=("shape", "color"))
    bank = make_bank(config, toy_encoder(task))
    path = str(tmp_path / "checkpoint.json")
    save_checkpoint(path, bank, config.effective_layout(), config_hash="abc")
    return path, bank, config


def test_checkpoint_round_trips_blocks_bit_for_bit_and_the_layout(tmp_path):
    path, bank, config = saved_checkpoint(tmp_path)
    loaded, layout = load_checkpoint(path)
    assert layout == config.effective_layout()
    assert set(loaded.attribute_blocks) == {"shape", "color"}
    blocks, clones = ([b.class_block, b.attribute_blocks["shape"], b.attribute_blocks["color"],
                       *b.deep_class_blocks] for b in (bank, loaded))
    assert len(clones) == len(blocks) == 4
    for block, clone in zip(blocks, clones):
        assert clone.data.dtype == block.data.dtype
        assert clone.data.tobytes() == block.data.tobytes()


@pytest.mark.parametrize("key, value", [("kind", "eval_report"), ("format_version", 2)])
def test_checkpoint_of_another_kind_or_version_is_a_data_error(tmp_path, key, value):
    path, _, _ = saved_checkpoint(tmp_path)
    with open(path) as fh:
        payload = json.load(fh)
    payload[key] = value
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(DataError):
        load_checkpoint(path)


# an edit to the depth-2 checkpoint -> (the error it raises, and what the message names)
DEEP_MISMATCHES = {
    "deep_blocks_removed": (lambda payload: payload["bank"].update(deep_class_blocks=[]),
                            CheckpointError, "bank.deep_class_blocks"),
    "layout_depth_lowered": (lambda payload: payload["layout"].update(depth=1),
                             CheckpointError, "bank.deep_class_blocks"),
    "deep_block_cut": (lambda payload: payload["bank"]["deep_class_blocks"][0].pop(),
                       DataError, "bank: deep block 0 has length 1"),
}


@pytest.mark.parametrize("case", sorted(DEEP_MISMATCHES))
def test_checkpoint_deep_blocks_must_fit_the_layout_depth(tmp_path, case):
    path, _, _ = saved_checkpoint(tmp_path)
    edit, error, named = DEEP_MISMATCHES[case]
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(error, match=f"^{re.escape(path)}:.*{named}"):
        load_checkpoint(path)


def test_save_checkpoint_refuses_what_load_checkpoint_rejects(tmp_path):
    task = toy_task()
    encoder = toy_encoder(task)
    config = TrainConfig(epochs=1, batch_size=8, attributes=("color",))
    superset = make_bank(replace(config, attributes=("color", "shape")), encoder)
    train_prompts(task, config, superset, encoder)  # composition may read a subset of the blocks
    deep = make_bank(replace(config, layout=PromptLayout(depth=2)), encoder)
    path = tmp_path / "checkpoint.json"
    for bank, named in ((superset, "bank.attribute_blocks ['color', 'shape'] are not the blocks "
                                   "of layout.attribute_names ['color']"),
                        (deep, "layout.depth 1 needs 0 bank.deep_class_blocks, got 1")):
        with pytest.raises(CheckpointError, match=f"^{re.escape(f'{path}: {named}')}$"):
            save_checkpoint(str(path), bank, config.effective_layout(), config_hash="abc")
        assert not path.exists()


def test_aggregate_recomputes_hm_from_mean_accuracies():
    r1 = EvalReport(90.0, 30.0, harmonic_mean(90.0, 30.0), {"a": 90.0})
    r2 = EvalReport(30.0, 90.0, harmonic_mean(30.0, 90.0), {"a": 30.0, "b": 10.0})
    agg = aggregate_reports([r1, r2])
    assert agg.base_accuracy == pytest.approx(60.0)
    assert agg.novel_accuracy == pytest.approx(60.0)
    # HM of the means (60, 60) = 60, not the mean of the per-seed HMs (45)
    assert agg.harmonic_mean == pytest.approx(60.0)
    assert agg.seeds_aggregated == 2
    assert agg.per_class_accuracy["a"] == pytest.approx(60.0)
    with pytest.raises(DataError):
        aggregate_reports([])


def test_run_base_to_novel_reports_both_halves():
    attrs = (
        LatentAttribute("color", tuple(f"color{j}" for j in range(6))),
        LatentAttribute("shape", ("shape0", "shape1")),
    )
    spec = TaskSpec(
        latent_attributes=attrs,
        informative_attributes=("color",),
        num_classes=6,
        samples_per_class=4,
        noise_std=0.05,
        seed=5,
    )
    base_task, novel_task = make_base_novel_task(spec)
    enc = toy_encoder(base_task)
    cfg = TrainConfig(epochs=2, batch_size=8, lr_init=0.05)
    report = run_base_to_novel(base_task, novel_task, cfg, enc)
    assert report.seeds_aggregated == 1
    for name in base_task.class_names + novel_task.class_names:
        assert name in report.per_class_accuracy


# -- report files ----------------------------------------------------------------


def test_report_records_round_trip(tmp_path):
    path = str(tmp_path / "reports.json")
    records = [
        {
            "config_hash": "deadbeef",
            "seed": s,
            "report": EvalReport(80.0, 60.0 + s, harmonic_mean(80.0, 60.0 + s), {"a": 1.0}),
        }
        for s in range(3)
    ]
    save_report_records(records, path)
    back = load_report_records(path)
    assert [r["seed"] for r in back] == [0, 1, 2]
    assert back[0]["config_hash"] == "deadbeef"
    assert back[2]["report"] == records[2]["report"]


def test_report_loader_rejects_other_kinds(tmp_path):
    from promptlab.serialize import dump_json

    path = str(tmp_path / "other.json")
    dump_json({"kind": "something_else", "format_version": 1, "records": []}, path)
    with pytest.raises(DataError):
        load_report_records(path)

