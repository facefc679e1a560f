"""Prompt training, base-to-novel evaluation, and the report and checkpoint files.

The attribute search reuses the run settings, banks, batches and step defined here.
Training minimizes batch-mean cross-entropy between image features and the
composed per-class text features (encoder frozen, only soft tokens move),
with an optional half-cosine learning-rate decay. Evaluation is top-1
accuracy under the cosine/temperature scoring rule; base-to-novel runs
train on the base half of a task's classes and score the held-out novel
half zero-shot, summarized by the harmonic mean.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .data import Task, subseed
from .errors import CheckpointError, ConfigError, ContractError, DataError, NumericsError
from .optim import SGD, cosine_lr
from .prompts import (
    INIT_SCHEMES,
    FeaturePlan,
    PromptLayout,
    SoftPromptBank,
    class_text_features,
    template_rows_for,
)
from .serialize import JsonFields, check_fields, dump_artifact, load_artifact

REPORT_KIND = "eval_report"
CHECKPOINT_KIND = "prompt_checkpoint"

SCHEDULES = ("cosine", "constant")


@dataclass(frozen=True)
class PromptRunConfig:
    """The settings every soft-prompt run shares: attribute search and prompt training."""

    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    layout: PromptLayout = field(default_factory=PromptLayout)
    soft_len: int = 2
    attr_soft_len: int = 2
    init_scheme: str = "phrase_init"

    def validate(self) -> "PromptRunConfig":
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if min(self.soft_len, self.attr_soft_len) < 1:
            raise ConfigError(f"soft lengths must be >= 1, got {self.soft_len}, "
                              f"{self.attr_soft_len}")
        if self.init_scheme not in INIT_SCHEMES:
            raise ConfigError(f"unknown init_scheme {self.init_scheme!r}")
        self.layout.validate()
        return self

    def make_banks(self, encoder, candidates, seed: int) -> list:
        """One bank per attribute tuple, all sharing the first bank's class block."""
        rows = template_rows_for(encoder)
        banks, class_block = [], None
        for names in candidates:
            banks.append(SoftPromptBank.create(
                embed_dim=encoder.config.embed_dim,
                soft_len=self.soft_len,
                attribute_names=names,
                attr_soft_len=self.attr_soft_len,
                depth=self.layout.depth,
                seed=seed,
                scheme=self.init_scheme,
                template_rows=rows,
                shared_class_block=class_block,
            ))
            class_block = banks[-1].class_block
        return banks


@dataclass(frozen=True)
class TrainConfig(PromptRunConfig):
    lr_init: float = 0.002
    schedule: str = "cosine"
    attributes: tuple = ()  # selected combination; () trains the classic form

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))

    def validate(self) -> "TrainConfig":
        super().validate()
        if self.lr_init <= 0:
            raise ConfigError(f"lr_init must be positive, got {self.lr_init}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        return self

    def effective_layout(self) -> PromptLayout:
        """Layout with the selected attribute combination substituted in."""
        return replace(self.layout, attribute_names=tuple(self.attributes))


def make_bank(config: TrainConfig, encoder) -> SoftPromptBank:
    (bank,) = config.make_banks(encoder, [config.attributes], subseed(config.seed, "init"))
    return bank


# -- the soft-prompt loop, shared with the attribute search ----------------------


def epoch_batches(rng, n: int, batch_size: int, epochs: int = None):
    """(epoch, batch, rows) over ``epochs`` passes of n rows; endless when epochs is None.

    Each epoch walks a fresh ``rng.permutation(n)``, drawn as the epoch starts;
    the first starts at this call, so streams on one generator draw in the order made.
    """

    def walk(order):
        for epoch in itertools.count() if epochs is None else range(epochs):
            if epoch:
                order = rng.permutation(n)
            for b in range(math.ceil(n / batch_size)):
                yield epoch, b, order[b * batch_size : (b + 1) * batch_size]

    return walk(rng.permutation(n))


def class_loss(encoder, feats, batch) -> T.Tensor:
    """Batch-mean cross-entropy of a batch's images scored against class features [C, joint]."""
    x, y = batch
    return T.cross_entropy(encoder.class_logits(encoder.encode_image(x), feats), y)


def descend(opt, loss: T.Tensor) -> None:
    opt.zero_grad()
    loss.backward()
    opt.step()


def train_prompts(task: Task, config: TrainConfig, bank: SoftPromptBank, encoder):
    """Minimize Eq.-7-style cross-entropy over a task's train split.

    Returns (bank, history) where history is the per-epoch mean loss.
    The prompts are composed once, into a ``FeaturePlan``; every step
    re-encodes them from the bank's current soft blocks.
    """
    config.validate()
    x, y = task.split("train")
    if len(y) == 0:
        raise DataError("empty training split")
    opt = SGD(bank.parameters(), lr=config.lr_init)
    rng = np.random.default_rng(subseed(config.seed, "train.order"))
    total_steps = config.epochs * math.ceil(len(y) / config.batch_size)
    plan = FeaturePlan(encoder, [(bank, config.effective_layout())], task.class_names)
    losses = [[] for _ in range(config.epochs)]
    for step, (epoch, b, rows) in enumerate(
            epoch_batches(rng, len(y), config.batch_size, config.epochs)):
        if config.schedule == "cosine":
            opt.lr = cosine_lr(step, total_steps, config.lr_init)
        try:
            loss = class_loss(encoder, plan.features(), (x[rows], y[rows]))
        except NumericsError as exc:
            raise NumericsError(f"non-finite loss at epoch {epoch}, batch {b}: {exc}")
        descend(opt, loss)
        losses[epoch].append(loss.item())
    return bank, [float(np.mean(epoch_losses)) for epoch_losses in losses]


def _score(encoder, bank: SoftPromptBank, layout: PromptLayout, task: Task, split: str):
    """Top-1 and per-class accuracy in percent, both from one forward and one argmax."""
    x, y = task.split(split)
    if len(y) == 0:
        raise DataError(f"empty split {split!r}")
    feats = class_text_features(encoder, bank, layout, task.class_names)
    # np.argmax: ties go to the lowest index
    pred = encoder.class_logits(encoder.encode_image(x), feats).data.argmax(axis=1)
    per_class = {}
    for c, name in enumerate(task.class_names):
        mask = y == c
        per_class[name] = float((pred[mask] == c).mean() * 100.0) if mask.any() else 0.0
    return float((pred == y).mean() * 100.0), per_class


def evaluate(encoder, bank: SoftPromptBank, layout: PromptLayout, task: Task,
             split: str = "test") -> float:
    """Top-1 accuracy in percent; class features computed once per call."""
    return _score(encoder, bank, layout, task, split)[0]


def per_class_accuracy(encoder, bank: SoftPromptBank, layout: PromptLayout, task: Task,
                       split: str = "test") -> dict:
    return _score(encoder, bank, layout, task, split)[1]


# -- protocol helpers --------------------------------------------------------------


def harmonic_mean(base_acc: float, novel_acc: float) -> float:
    if base_acc < 0 or novel_acc < 0:
        raise ContractError(f"accuracies must be nonnegative, got {base_acc}, {novel_acc}")
    if base_acc == 0.0 or novel_acc == 0.0:
        return 0.0
    return 2.0 * base_acc * novel_acc / (base_acc + novel_acc)


@dataclass
class EvalReport(JsonFields):
    base_accuracy: float
    novel_accuracy: float
    harmonic_mean: float
    per_class_accuracy: dict
    seeds_aggregated: int = 1

    def validate(self) -> "EvalReport":
        for name in ("base_accuracy", "novel_accuracy", "harmonic_mean"):
            value = getattr(self, name)
            if not 0.0 <= value <= 100.0:
                raise ContractError(f"{name} out of range: {value}")
        expected = harmonic_mean(self.base_accuracy, self.novel_accuracy)
        if abs(expected - self.harmonic_mean) > 0.01:
            raise ContractError(
                f"harmonic mean {self.harmonic_mean:.4f} inconsistent with "
                f"({self.base_accuracy:.4f}, {self.novel_accuracy:.4f})"
            )
        return self

    @classmethod
    def from_accuracies(cls, base_accuracy: float, novel_accuracy: float,
                        per_class_accuracy: dict, seeds_aggregated: int = 1) -> "EvalReport":
        """A validated report whose harmonic mean is computed from the two accuracies."""
        return cls(
            base_accuracy=base_accuracy,
            novel_accuracy=novel_accuracy,
            harmonic_mean=harmonic_mean(base_accuracy, novel_accuracy),
            per_class_accuracy=per_class_accuracy,
            seeds_aggregated=seeds_aggregated,
        ).validate()


def base_novel_report(encoder, bank: SoftPromptBank, layout: PromptLayout,
                      base_task: Task, novel_task: Task) -> EvalReport:
    """Score both halves' test splits, one forward each, into a base/novel report."""
    base_acc, per_class = _score(encoder, bank, layout, base_task, "test")
    novel_acc, novel_per_class = _score(encoder, bank, layout, novel_task, "test")
    return EvalReport.from_accuracies(base_acc, novel_acc, {**per_class, **novel_per_class})


def run_base_to_novel(base_task: Task, novel_task: Task, config: TrainConfig,
                      encoder) -> EvalReport:
    """Train on the base half, evaluate both halves, report with the HM."""
    bank = make_bank(config, encoder)
    train_prompts(base_task, config, bank, encoder)
    return base_novel_report(encoder, bank, config.effective_layout(), base_task, novel_task)


def aggregate_reports(reports) -> EvalReport:
    """Arithmetic mean over seeds; the HM is recomputed from the mean accuracies."""
    reports = list(reports)
    if not reports:
        raise DataError("nothing to aggregate")
    base = float(np.mean([r.base_accuracy for r in reports]))
    novel = float(np.mean([r.novel_accuracy for r in reports]))
    names = set().union(*(r.per_class_accuracy for r in reports))
    per_class = {
        n: float(np.mean([r.per_class_accuracy.get(n, 0.0) for r in reports])) for n in names
    }
    return EvalReport.from_accuracies(
        base, novel, per_class, seeds_aggregated=sum(r.seeds_aggregated for r in reports)
    )


# -- report files ---------------------------------------------------------------------


def save_report_records(records, path: str) -> None:
    """records: list of {config_hash, seed, report: EvalReport}."""
    dump_artifact(
        REPORT_KIND,
        {
            "records": [
                {
                    "config_hash": r["config_hash"],
                    "seed": r["seed"],
                    "report": r["report"].to_dict(),
                }
                for r in records
            ],
        },
        path,
    )


# the fields of one report record, all required
RECORD_TYPES = {"config_hash": str, "seed": int, "report": EvalReport}


def load_report_records(path: str):
    """The records of a report file; an error names the file and the record's index."""
    records = load_artifact(path, REPORT_KIND, {"records": tuple})["records"]
    return [check_fields(RECORD_TYPES, rec, f"{path}:records[{i}]", RECORD_TYPES)
            for i, rec in enumerate(records)]


# -- checkpoints ----------------------------------------------------------------------


def save_checkpoint(path: str, bank: SoftPromptBank, config: TrainConfig, *,
                    config_hash: str, tag: str, seed: int) -> None:
    """Trained prompts, with the attributes and layout they were trained under."""
    dump_artifact(
        CHECKPOINT_KIND,
        {
            "config_hash": config_hash,
            "tag": tag,
            "seed": seed,
            "attributes": list(config.attributes),
            "layout": config.effective_layout().to_dict(),
            "bank": bank.to_dict(),
        },
        path,
    )


# the keys of a checkpoint's body, all required
CHECKPOINT_TYPES = {"config_hash": str, "tag": str, "seed": int, "attributes": tuple,
                    "layout": PromptLayout, "bank": SoftPromptBank}


def load_checkpoint(path: str):
    """(bank, layout) from a checkpoint file; a wrong kind or version is a DataError.

    A CheckpointError names the path and the key when the parts disagree: the
    attributes must be layout.attribute_names, the bank's attribute blocks
    must be exactly those, and its deep blocks must number layout.depth - 1.
    """
    body = load_artifact(path, CHECKPOINT_KIND, CHECKPOINT_TYPES)
    bank, layout = body["bank"], body["layout"]
    names = layout.attribute_names
    if body["attributes"] != names:
        raise CheckpointError(f"{path}: attributes {list(body['attributes'])} are not "
                              f"layout.attribute_names {list(names)}")
    if set(bank.attribute_blocks) != set(names):
        raise CheckpointError(f"{path}: bank.attribute_blocks {sorted(bank.attribute_blocks)} "
                              f"are not the blocks of layout.attribute_names {list(names)}")
    if len(bank.deep_class_blocks) != layout.depth - 1:
        raise CheckpointError(f"{path}: layout.depth {layout.depth} needs {layout.depth - 1} "
                              f"bank.deep_class_blocks, got {len(bank.deep_class_blocks)}")
    return bank, layout

