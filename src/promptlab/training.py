"""Prompt training, base-to-novel evaluation, and the checkpoint files.

The attribute search reuses the banks, batches and step defined here; the
run settings both read are ``config.PromptRunConfig`` and its subclasses.
Training minimizes batch-mean cross-entropy between image features and the
composed per-class text features (encoder frozen, only soft tokens move),
by SGD under CoOp's half-cosine learning-rate decay. Evaluation is top-1
accuracy under the cosine/temperature scoring rule; base-to-novel runs
train on the base half of a task's classes and score the held-out novel
half zero-shot, summarized by the harmonic mean.
"""

from __future__ import annotations

import itertools
import math
import numpy as np

from . import tensor as T
from .config import PromptLayout, PromptRunConfig, TrainConfig  # re-exported
from .data import Task, subseed
from .errors import CapacityError, CheckpointError, DataError, NumericsError
from .optim import SGD, cosine_lr
from .prompts import FeaturePlan, SoftPromptBank, class_text_features, template_rows_for
from .reports import EvalReport, harmonic_mean, load_report_records, save_report_records
from .serialize import dump_artifact, load_artifact

CHECKPOINT_KIND = "prompt_checkpoint"


def make_banks(config: PromptRunConfig, encoder, candidates, seed: int) -> list:
    """One bank per attribute tuple, all sharing the first bank's class block.

    The layout and soft lengths are checked against the encoder first, so a
    depth or length no prompt can run is an error before any block is made.
    """
    config.layout.validate(encoder.config.num_layers)
    for key in ("soft_len", "attr_soft_len"):
        if getattr(config, key) > encoder.config.max_seq_len:
            raise CapacityError(f"{key} {getattr(config, key)} exceeds max_seq_len "
                                f"{encoder.config.max_seq_len}: no prompt can hold it")
    rows = template_rows_for(encoder)
    banks = [SoftPromptBank.create(
        embed_dim=encoder.config.embed_dim,
        soft_len=config.soft_len,
        attribute_names=names,
        attr_soft_len=config.attr_soft_len,
        depth=config.layout.depth,
        seed=seed,
        scheme=config.init_scheme,
        template_rows=rows,
    ) for names in candidates]
    for bank in banks[1:]:  # each drew the same block: init streams are keyed by content
        bank.class_block = banks[0].class_block
    return banks


def make_bank(config: TrainConfig, encoder) -> SoftPromptBank:
    (bank,) = make_banks(config, encoder, [config.attributes], subseed(config.seed, "init"))
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
    opt = SGD(bank.parameters(), lr=config.lr_init)
    rng = np.random.default_rng(subseed(config.seed, "train.order"))
    total_steps = config.epochs * math.ceil(len(y) / config.batch_size)
    plan = FeaturePlan(encoder, [(bank, config.effective_layout())], task.class_names)
    losses = [[] for _ in range(config.epochs)]
    for step, (epoch, b, rows) in enumerate(
            epoch_batches(rng, len(y), config.batch_size, config.epochs)):
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


# -- checkpoints ----------------------------------------------------------------------


def save_checkpoint(path: str, bank: SoftPromptBank, layout: PromptLayout, *,
                    config_hash: str) -> None:
    """Trained prompts and the layout they were trained under, with the run config's hash.

    The file name carries the run's tag and seed; the attributes are ``layout.attribute_names``.
    A bank and layout that ``load_checkpoint`` would reject are refused, and no file is written.
    """
    _check_agreement(path, bank, layout)
    dump_artifact(
        CHECKPOINT_KIND,
        {"config_hash": config_hash, "layout": layout.to_dict(), "bank": bank.to_dict()},
        path,
    )


# the keys of a checkpoint's body, all required
CHECKPOINT_TYPES = {"config_hash": str, "layout": PromptLayout, "bank": SoftPromptBank}


def load_checkpoint(path: str):
    """(bank, layout) from a checkpoint file; a wrong kind or version is a DataError.

    A CheckpointError names the path and the key when the bank disagrees with
    the layout: its attribute blocks must be exactly those of
    layout.attribute_names, and its deep blocks must number layout.depth - 1.
    """
    body = load_artifact(path, CHECKPOINT_KIND, CHECKPOINT_TYPES)
    bank, layout = body["bank"], body["layout"]
    _check_agreement(path, bank, layout)
    return bank, layout


def _check_agreement(path: str, bank: SoftPromptBank, layout: PromptLayout) -> None:
    """The checkpoint rule that ``save_checkpoint`` and ``load_checkpoint`` both apply."""
    names = layout.attribute_names
    if set(bank.attribute_blocks) != set(names):
        raise CheckpointError(f"{path}: bank.attribute_blocks {sorted(bank.attribute_blocks)} "
                              f"are not the blocks of layout.attribute_names {list(names)}")
    if len(bank.deep_class_blocks) != layout.depth - 1:
        raise CheckpointError(f"{path}: layout.depth {layout.depth} needs {layout.depth - 1} "
                              f"bank.deep_class_blocks, got {len(bank.deep_class_blocks)}")
