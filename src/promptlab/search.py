"""Differentiable attribute search over the subset pool of candidate bases.

The pool is every non-empty subset of the base words in a canonical order
(size first, then lexicographic by base index). Each candidate carries its
own attribute soft blocks, all candidates share one class soft block, and a
softmax over the mixture logits alpha weighs the candidates' class scores.
Alternating first-order steps tune alpha on validation batches and the soft
blocks on training batches; the argmax candidate wins, lowest index on ties.

The pool shrinks as the search goes, as in P-DARTS (arXiv:1904.12760): at the
start of epochs 2, 4, 6 and so on (0-based), the search keeps the ceil(n/2)
active candidates with the highest alpha, never fewer than two, ties to the
lower pool index. A pruned candidate's alpha stays as it was when pruned, so
the result's weights, the softmax of every candidate's alpha, still cover the
whole pool.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, replace
from itertools import combinations

import numpy as np

from . import tensor as T
from .config import SearchConfig, check_words, config_hash
from .data import Task, subseed
from .errors import ConfigError, DataError, NumericsError, ParameterError, ParseError
from .optim import SGD, Adam
from .prompts import FeaturePlan, PromptLayout, SoftPromptBank, class_text_features
from .serialize import FORMAT_VERSION, atomic_write, dumps_json
from .training import class_loss, descend, epoch_batches, make_banks

RESULT_KIND = "search_result"

MAX_BASES = 12  # 2^12 - 1 = 4095 candidates is already past desk scale

PRUNE_EVERY = 2  # epochs per stage of the active pool
MIN_ACTIVE = 2  # the active pool is never halved below this


def enumerate_pool(bases) -> list:
    """All non-empty subsets of the bases, ordered by size then lexicographically.

    Lexicographic means by base *indices* in the order given, so the first
    len(bases) entries are the singletons in declaration order.
    """
    bases = tuple(bases)
    if not 1 <= len(bases) <= MAX_BASES:
        raise ConfigError(f"need between 1 and {MAX_BASES} bases, got {len(bases)}")
    check_words(bases, "base words", ParameterError)
    pool = []
    for size in range(1, len(bases) + 1):
        for idx in combinations(range(len(bases)), size):
            pool.append(tuple(bases[i] for i in idx))
    return pool


def build_candidate_banks(pool, config: SearchConfig, encoder) -> dict:
    """One bank per candidate, all sharing a single class block object."""
    seed = subseed(config.seed, "search.banks")
    return dict(zip(pool, make_banks(config, encoder, pool, seed)))


def candidate_logits(encoder, bank: SoftPromptBank, layout: PromptLayout,
                     class_names, image_features) -> T.Tensor:
    feats = class_text_features(encoder, bank, layout, class_names)
    return encoder.class_logits(image_features, feats)


def mixture_logits(per_candidate, weights) -> T.Tensor:
    """Convex combination of per-candidate arrays of one shape, as one [1, k] @ [k, n] product.

    The arrays come as one tensor [k, ...] or as a list, stacked here. They
    are pre-softmax class scores, or the class features behind them: scores
    are linear in the features, so mixing the features first gives the mixed
    scores from one scoring product. weights may be a Tensor (softmax of
    alpha, for alpha steps) or a plain array of constants (for theta steps,
    keeping alpha out of the graph).
    """
    if not isinstance(per_candidate, T.Tensor):
        per_candidate = list(per_candidate)
        if not per_candidate:
            raise ParameterError("empty candidate list")
        per_candidate = T.stack(per_candidate)
    if not isinstance(weights, T.Tensor):
        weights = T.Tensor(weights)
    k = per_candidate.shape[0]
    if weights.shape != (k,):
        raise ParameterError(f"weights shape {weights.shape} does not match {k} candidates")
    shape = per_candidate.shape[1:]
    stacked = T.reshape(per_candidate, (k, per_candidate.size // k))
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
        # a stored row is rounded to 3 decimals, so n rows may sum n / 2000 off
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > max(0.02, 5e-4 * len(pool)):
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


def halve(alpha) -> list:
    """Positions of the ceil(n/2) largest of n logits, at least MIN_ACTIVE, in order.

    ``sorted`` is stable, so it ranks ties by position, which is the
    tie-break rule of ``select_candidate``. It is Python's sort, not numpy's:
    numpy's first sort call pages in about 0.4 MB of library code, which a
    search's peak RSS would show.
    """
    keep = max(MIN_ACTIVE, -(-len(alpha) // 2))
    return sorted(sorted(range(len(alpha)), key=lambda i: -alpha[i])[:keep])


def search_step(encoder, plan: FeaturePlan, alpha: T.Tensor, alpha_opt, theta_opt,
                val_batch, train_batch) -> None:
    """One alpha step on a validation batch, then one theta step on a training batch.

    ``plan`` builds the candidates' class features from the current soft
    blocks. The mixture is linear in those features, so they depend on theta
    only: one forward serves both steps, and each step scores the images once,
    against the features weighted by the softmax of alpha. The alpha step sees
    the features as constants; the theta step backpropagates through them
    with alpha's weights as constants. The step's graph is released on return.
    """
    table = plan.features()
    feats = T.reshape(table, (alpha.size, table.shape[0] // alpha.size, table.shape[1]))
    frozen = T.Tensor(feats.data)
    descend(alpha_opt, class_loss(encoder, mixture_logits(frozen, T.softmax(alpha)), val_batch))
    descend(theta_opt, class_loss(encoder, mixture_logits(feats, T.softmax(alpha).data),
                                  train_batch))


def alternating_search(task: Task, bases, config: SearchConfig, encoder) -> SearchResult:
    """First-order alternation: alpha on validation batches, theta on training ones.

    Each epoch walks the training split once; every theta batch is preceded by
    one alpha step on the next validation batch (cycled independently). Every
    PRUNE_EVERY epochs the active pool is halved by ``halve``: one new
    ``FeaturePlan`` over the survivors, in pool order, replaces the old one,
    and the survivors keep their alpha and its Adam moments. A pruned
    candidate's alpha is frozen and its bank gets no more gradient. The
    result weighs every candidate by the softmax of all of alpha and carries
    the hash of ``describe_config(config)``.
    """
    config.validate()
    pool = enumerate_pool(bases)
    banks = build_candidate_banks(pool, config, encoder)
    alpha = T.Tensor(np.zeros(len(pool)), requires_grad=True, name="alpha")  # uniform weights
    # the shared class block is in every bank; the optimizer takes it once
    theta_params = {id(p): p for bank in banks.values() for p in bank.parameters()}
    theta_opt = SGD(theta_params.values(), lr=config.theta_lr)
    alpha_opt = Adam([alpha], lr=config.alpha_lr)
    active = np.arange(len(pool))  # the pool indices alpha holds, in pool order
    logits = np.zeros(len(pool))  # every candidate's alpha; a pruned one's as it was pruned

    x_train, y_train = task.split("train")
    x_val, y_val = task.split("val")

    def plan_over(indices):  # composing validates each candidate's layout against the encoder
        candidates = [pool[i] for i in indices]
        return FeaturePlan(encoder, [(banks[c], replace(config.layout, attribute_names=c))
                                     for c in candidates], task.class_names)

    plan = plan_over(active)
    rng = np.random.default_rng(subseed(config.seed, "search.order"))
    val_batches = epoch_batches(rng, len(y_val), config.batch_size)  # its order is drawn first
    for epoch, b, rows in epoch_batches(rng, len(y_train), config.batch_size, config.epochs):
        if b == 0 and epoch and epoch % PRUNE_EVERY == 0 and active.size > MIN_ACTIVE:
            logits[active], keep = alpha.data, halve(alpha.data)
            active, alpha_opt = active[keep], alpha_opt.narrowed(keep)
            alpha = alpha_opt.params[0]
            plan = None  # the old plan's arrays go before the new plan's are made
            plan = plan_over(active)
        _, _, val_rows = next(val_batches)
        try:
            search_step(encoder, plan, alpha, alpha_opt, theta_opt,
                        (x_val[val_rows], y_val[val_rows]), (x_train[rows], y_train[rows]))
        except NumericsError as exc:
            raise NumericsError(f"non-finite loss at epoch {epoch}, batch {b}: {exc}")

    logits[active] = alpha.data
    weights = T.softmax(T.Tensor(logits)).data
    return SearchResult(
        bases=tuple(bases),
        candidates=tuple(pool),
        weights=weights,
        selected=select_candidate(pool, weights),
        config_hash=config_hash(describe_config(config)),
    ).validate()


# -- result files -------------------------------------------------------------

# a weight is a decimal number, which float() always reads; anything else is an unrecognized line
_WEIGHT = r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
_ROW_RE = re.compile(rf"^\((?P<names>[^()]*)\), weight: (?P<weight>{_WEIGHT})$")
_SELECTED_RE = re.compile(r"^selected: \((?P<names>[^()]*)\)$")
# the header keys format_result writes, the only ones parse_result reads
_HEADERS = ("kind", "format_version", "bases", "pool_size", "config_hash")


def format_result(result: SearchResult) -> str:
    """Plain-text table: header comments, one weight row per candidate, argmax footer.

    Weights keep 3 decimals, the paper's table format (see the caltech101 fixture);
    the rounding hides BLAS kernels' last-bit differences, so the bytes are portable.
    From 10 bases on most rows read 0.000: only ``selected`` round-trips exactly.
    """
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
            if key not in _HEADERS:
                raise ParseError(f"{path}:{lineno}: unknown header {key!r}; known: "
                                 f"{', '.join(_HEADERS)}")
            if key == "pool_size" and not re.fullmatch(r"[0-9]+", value):
                raise ParseError(f"{path}:{lineno}: pool_size must be a count, got {value!r}")
            if key in header:
                raise ParseError(f"{path}:{lineno}: repeated {key} header")
            header[key] = value
            continue
        m = _SELECTED_RE.match(line)
        if m:
            if selected is not None:
                raise ParseError(f"{path}:{lineno}: a second selected footer")
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
    except (DataError, ConfigError, ParameterError) as exc:  # the last two: a bad bases header
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
