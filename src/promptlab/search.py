"""Differentiable attribute search over the subset pool of candidate bases.

The pool is every non-empty subset of the base words in a canonical order
(size first, then lexicographic by base index). Each candidate carries its
own attribute soft blocks, all candidates share one class soft block, and a
softmax over the mixture logits alpha weighs the candidates' class scores.
Alternating first-order steps tune alpha on validation batches and the soft
blocks on training batches; the argmax candidate wins, lowest index on ties.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field, replace
from itertools import combinations

import numpy as np

from . import tensor as T
from .data import Task, subseed
from .errors import ConfigError, DataError, NumericsError, ParameterError, ParseError
from .optim import SGD, Adam
from .prompts import (
    FeaturePlan,
    PromptLayout,
    SoftPromptBank,
    class_text_features,
    template_rows_for,
)
from .serialize import FORMAT_VERSION, atomic_write, dumps_json

RESULT_KIND = "search_result"

MAX_BASES = 12  # 2^12 - 1 = 4095 candidates is already past desk scale


def enumerate_pool(bases) -> list:
    """All non-empty subsets of the bases, ordered by size then lexicographically.

    Lexicographic means by base *indices* in the order given, so the first
    len(bases) entries are the singletons in declaration order.
    """
    bases = tuple(bases)
    if not 1 <= len(bases) <= MAX_BASES:
        raise ConfigError(f"need between 1 and {MAX_BASES} bases, got {len(bases)}")
    if len(set(bases)) != len(bases):
        dupes = sorted({b for b in bases if bases.count(b) > 1})
        raise ParameterError(f"duplicate base words: {', '.join(dupes)}")
    pool = []
    for size in range(1, len(bases) + 1):
        for idx in combinations(range(len(bases)), size):
            pool.append(tuple(bases[i] for i in idx))
    return pool


@dataclass
class AlphaVector:
    """Mixture logits, one per candidate; zeros at init so weights start uniform."""

    logits: T.Tensor

    @classmethod
    def create(cls, num_candidates: int) -> "AlphaVector":
        if num_candidates < 1:
            raise ParameterError(f"need at least one candidate, got {num_candidates}")
        return cls(logits=T.Tensor(np.zeros(num_candidates), requires_grad=True, name="alpha"))

    def weights(self) -> np.ndarray:
        z = self.logits.data - self.logits.data.max()
        e = np.exp(z)
        return e / e.sum()


@dataclass(frozen=True)
class SearchConfig:
    epochs: int = 10
    batch_size: int = 32
    theta_lr: float = 0.002
    alpha_lr: float = 0.02
    seed: int = 0
    soft_len: int = 2
    attr_soft_len: int = 2
    init_scheme: str = "phrase_init"
    layout: PromptLayout = field(default_factory=PromptLayout)

    def validate(self) -> "SearchConfig":
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.theta_lr <= 0 or self.alpha_lr <= 0:
            raise ConfigError(
                f"learning rates must be positive, got theta={self.theta_lr}, alpha={self.alpha_lr}"
            )
        if min(self.soft_len, self.attr_soft_len) < 0:
            raise ConfigError(f"soft lengths must be >= 0, got {self.soft_len}, "
                              f"{self.attr_soft_len}")
        if self.layout.attribute_names:
            raise ConfigError("search layout must leave attribute_names empty; candidates fill it")
        self.layout.validate()
        return self


def build_candidate_banks(pool, config: SearchConfig, encoder) -> dict:
    """One bank per candidate, all sharing a single class block object.

    The first candidate's bank creates the class block and the rest reuse it.
    Block init is content keyed, so a base's attribute block starts identical
    in every candidate that contains it and across any pool ordering.
    """
    seed = subseed(config.seed, "search.banks")
    rows = template_rows_for(encoder)
    banks, class_block = {}, None
    for cand in pool:
        banks[cand] = SoftPromptBank.create(
            embed_dim=encoder.config.embed_dim,
            soft_len=config.soft_len,
            attribute_names=cand,
            attr_soft_len=config.attr_soft_len,
            depth=config.layout.depth,
            seed=seed,
            scheme=config.init_scheme,
            template_rows=rows,
            shared_class_block=class_block,
        )
        class_block = banks[cand].class_block
    return banks


def candidate_logits(encoder, bank: SoftPromptBank, layout: PromptLayout,
                     class_names, image_features) -> T.Tensor:
    feats = class_text_features(encoder, bank, layout, class_names)
    return encoder.class_logits(image_features, feats)


def mixture_logits(per_candidate, weights) -> T.Tensor:
    """Convex combination of per-candidate arrays of one shape, as one [1, k] @ [k, n] product.

    The arrays are pre-softmax class scores, or the class features behind
    them: scores are linear in the features, so mixing the features first
    gives the mixed scores from one scoring product. weights may be a Tensor
    (softmax of alpha, for alpha steps) or a plain array of constants (for
    theta steps, keeping alpha out of the graph).
    """
    per_candidate = list(per_candidate)
    if not per_candidate:
        raise ParameterError("empty candidate list")
    if not isinstance(weights, T.Tensor):
        weights = T.Tensor(weights)
    k = len(per_candidate)
    if weights.shape != (k,):
        raise ParameterError(f"weights shape {weights.shape} does not match {k} candidates")
    shape = per_candidate[0].shape
    stacked = T.reshape(T.stack(per_candidate), (k, per_candidate[0].size))
    return T.reshape(T.matmul(T.reshape(weights, (1, k)), stacked), shape)


@dataclass
class SearchResult:
    bases: tuple
    candidates: tuple
    weights: np.ndarray
    selected: tuple
    config_hash: str = ""

    def validate(self) -> "SearchResult":
        pool = tuple(enumerate_pool(self.bases))
        if tuple(self.candidates) != pool:
            raise DataError("candidates are not the canonical pool of the bases")
        if self.weights.shape != (len(pool),):
            raise DataError(
                f"expected {len(pool)} weights, got shape {self.weights.shape}"
            )
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 0.02:
            raise DataError(f"weights are not a distribution (sum {self.weights.sum():.4f})")
        if tuple(self.selected) not in pool:
            raise DataError(f"selected combination {self.selected} is not in the pool")
        sel = self.weights[pool.index(tuple(self.selected))]
        # half a stored decimal of slack: 3-decimal rounding can tie the argmax
        if sel < self.weights.max() - 5e-4:
            raise DataError("selected combination is not a maximal-weight candidate")
        return self


def select_candidate(pool, weights) -> tuple:
    # np.argmax returns the first maximal entry, which is the tie-break rule
    return tuple(pool[int(np.argmax(np.asarray(weights)))])


def _mixture_loss(encoder, feats, weights, batch) -> T.Tensor:
    x, y = batch
    u = encoder.encode_image(x)
    return T.cross_entropy(encoder.class_logits(u, mixture_logits(feats, weights)), y)


def _descend(opt, loss: T.Tensor) -> None:
    opt.zero_grad()
    loss.backward()
    opt.step()


def search_step(encoder, plan: FeaturePlan, alpha: AlphaVector, alpha_opt, theta_opt,
                val_batch, train_batch) -> None:
    """One alpha step on a validation batch, then one theta step on a training batch.

    ``plan`` builds the candidates' class features from the current soft
    blocks. The mixture is linear in those features, so they depend on theta
    only: one forward serves both steps, and each step scores the images once,
    against the alpha-weighted features. The alpha step sees the features as
    constants; the theta step backpropagates through them with alpha's
    weights as constants. The step's graph is released on return.
    """
    feats = plan.features()
    frozen = [T.Tensor(f.data) for f in feats]
    _descend(alpha_opt, _mixture_loss(encoder, frozen, T.softmax(alpha.logits), val_batch))
    _descend(theta_opt, _mixture_loss(encoder, feats, alpha.weights(), train_batch))


def alternating_search(task: Task, bases, config: SearchConfig, encoder,
                       config_hash: str = "") -> SearchResult:
    """First-order alternation: alpha on validation batches, theta on training ones.

    Each epoch walks the training split once; every theta batch is preceded by
    one alpha step on the next validation batch (cycled independently).
    """
    config.validate()
    pool = enumerate_pool(bases)
    layouts = {cand: replace(config.layout, attribute_names=cand) for cand in pool}
    for layout in layouts.values():
        layout.validate(encoder.config.num_layers)
    banks = build_candidate_banks(pool, config, encoder)
    alpha = AlphaVector.create(len(pool))

    seen, theta_params = set(), []
    for bank in banks.values():
        for p in bank.parameters():  # class block repeats; keep one copy
            if id(p) not in seen:
                seen.add(id(p))
                theta_params.append(p)
    theta_opt = SGD(theta_params, lr=config.theta_lr)
    alpha_opt = Adam([alpha.logits], lr=config.alpha_lr)

    x_train, y_train = task.split("train")
    x_val, y_val = task.split("val")
    if len(y_train) == 0 or len(y_val) == 0:
        raise DataError("search needs non-empty train and val splits")
    order_rng = np.random.default_rng(subseed(config.seed, "search.order"))
    steps_per_epoch = math.ceil(len(y_train) / config.batch_size)
    val_steps = math.ceil(len(y_val) / config.batch_size)

    def batches(x, y, order, count, step):
        rows = order[(step % count) * config.batch_size : (step % count + 1) * config.batch_size]
        return x[rows], y[rows]

    plan = FeaturePlan(encoder, [(banks[c], layouts[c]) for c in pool], task.class_names)
    val_step = 0
    val_order = order_rng.permutation(len(y_val))
    for epoch in range(config.epochs):
        train_order = order_rng.permutation(len(y_train))
        for b in range(steps_per_epoch):
            if val_step % val_steps == 0 and val_step:
                val_order = order_rng.permutation(len(y_val))
            val_batch = batches(x_val, y_val, val_order, val_steps, val_step)
            val_step += 1
            try:
                search_step(encoder, plan, alpha, alpha_opt, theta_opt, val_batch,
                            batches(x_train, y_train, train_order, steps_per_epoch, b))
            except NumericsError as exc:
                raise NumericsError(f"non-finite loss at epoch {epoch}, batch {b}: {exc}")

    weights = alpha.weights()
    return SearchResult(
        bases=tuple(bases),
        candidates=tuple(pool),
        weights=weights,
        selected=select_candidate(pool, weights),
        config_hash=config_hash,
    ).validate()


# -- result files -------------------------------------------------------------

# a weight is a decimal number, which float() always reads; anything else is an unrecognized line
_WEIGHT = r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
_ROW_RE = re.compile(rf"^\((?P<names>[^()]*)\), weight: (?P<weight>{_WEIGHT})$")
_SELECTED_RE = re.compile(r"^selected: \((?P<names>[^()]*)\)$")


def format_result(result: SearchResult) -> str:
    """Plain-text table: header comments, one weight row per candidate, argmax footer."""
    result.validate()
    lines = [
        f"# kind: {RESULT_KIND}",
        f"# format_version: {FORMAT_VERSION}",
        f"# bases: {', '.join(result.bases)}",
        f"# pool_size: {len(result.candidates)}",
        f"# config_hash: {result.config_hash or 'none'}",
    ]
    for cand, w in zip(result.candidates, result.weights):
        lines.append(f"({', '.join(cand)}), weight: {float(w):.3f}")
    lines.append(f"selected: ({', '.join(result.selected)})")
    return "\n".join(lines) + "\n"


def export_result(result: SearchResult, path: str) -> None:
    atomic_write(path, format_result(result))


def parse_result(text: str, path: str = "<string>") -> SearchResult:
    header, rows, selected = {}, [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = (s.strip() for s in line.lstrip("# ").partition(":"))
            if key == "pool_size" and not re.fullmatch(r"[0-9]+", value):
                raise ParseError(f"{path}:{lineno}: pool_size must be a count, got {value!r}")
            header[key] = value
            continue
        m = _SELECTED_RE.match(line)
        if m:
            selected = tuple(n.strip() for n in m.group("names").split(","))
            continue
        m = _ROW_RE.match(line)
        if m is None:
            raise ParseError(f"{path}:{lineno}: unrecognized line {line!r}")
        names = tuple(n.strip() for n in m.group("names").split(","))
        rows.append((names, float(m.group("weight"))))
    if header.get("kind") != RESULT_KIND:
        raise ParseError(f"{path}: missing or wrong kind header (expected {RESULT_KIND})")
    if header.get("format_version") != str(FORMAT_VERSION):
        raise ParseError(f"{path}: unsupported format_version {header.get('format_version')!r}")
    if "bases" not in header:
        raise ParseError(f"{path}: missing bases header")
    bases = tuple(b.strip() for b in header["bases"].split(","))
    if "pool_size" in header and int(header["pool_size"]) != len(rows):
        raise ParseError(
            f"{path}: pool_size header says {header['pool_size']}, found {len(rows)} rows"
        )
    if selected is None:
        raise ParseError(f"{path}: missing selected footer")
    candidates = tuple(names for names, _ in rows)
    weights = np.array([w for _, w in rows], dtype=np.float64)
    result = SearchResult(
        bases=bases,
        candidates=candidates,
        weights=weights,
        selected=selected,
        config_hash="" if header.get("config_hash") in (None, "none") else header["config_hash"],
    )
    try:
        return result.validate()
    except DataError as exc:
        raise ParseError(f"{path}: {exc}")


def load_result(path: str) -> SearchResult:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read search result {path}: {exc}")
    return parse_result(text, path=path)


def describe_config(config: SearchConfig) -> str:
    """Stable serialization used for hashing search setups."""
    return dumps_json(asdict(config))
