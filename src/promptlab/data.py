"""Seeded synthetic classification tasks with explicit latent attribute structure.

Each task draws a semantic vocabulary: every latent attribute has a base
word (``color``) whose value words (``color0``, ``color1``, ...) are unit
vectors clustered around the base word's distinct direction, so a hard
attribute anchor genuinely relates to the value words appearing in class
names while staying unrelated to other attributes' values. A class is a
full signature (one value per latent attribute, distinct over the
informative ones) plus a unique id word; its name lists every signature
value followed by the id word, so the uninformative values are in-name
distractors that an anchored prompt can learn to ignore.

Raw image vectors mix two parts, balanced by ``attribute_signal``: a
systematic part (a fixed seeded linear map applied to the sum of the
class's informative value vectors) and an idiosyncratic per-class offset
keyed to the id word. The offset is
unrelated to the id word's embedding, so no prompt can map novel id words
to their offsets: whatever accuracy survives on unseen classes must come
through the attribute path. That is the knob that makes "attributes help
on novel classes" falsifiable.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .config import LatentAttribute, TaskSpec, default_attributes  # re-exported
from .errors import ConfigError, DataError, TokenizationError
from .serialize import check_fields, dump_artifact, load_artifact, numeric_array
from .vocab import EOS, PHOTO_TEMPLATE, SOS, Vocabulary

DATASET_KIND = "dataset"

SPLITS = ("train", "val", "test")

SUBSEED_NAMES = ("init", "search.banks", "search.order", "train.order")


def subseed(seed: int, name: str) -> int:
    """A prompt run's seed for one named stream; crc32 keying keeps streams order-free."""
    if name not in SUBSEED_NAMES:
        raise ConfigError(f"unknown sub-seed name {name!r}; use one of {SUBSEED_NAMES}")
    return int(
        np.random.SeedSequence([int(seed), zlib.crc32(name.encode())]).generate_state(1)[0]
    )


def keyed_rng(*keys):
    """Generator keyed by integers and strings (content-addressed streams)."""
    entropy = [k if isinstance(k, int) else zlib.crc32(str(k).encode()) for k in keys]
    return np.random.default_rng(entropy)


# the dataset's arithmetic uses element-wise products and np.add.reduce, not
# BLAS (np.linalg.norm, @): its bytes then do not depend on the BLAS kernel
def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.sqrt(np.add.reduce(v * v))


@dataclass
class Task:
    """One generated classification task (or one base/novel half of one)."""

    spec: TaskSpec
    vocabulary: Vocabulary
    class_names: list
    splits: dict  # split -> (x [n, raw], y [n])

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def split(self, name: str):
        """(x, y) of a split that holds rows; a missing or empty split is a DataError."""
        if name not in self.splits or len(self.splits[name][1]) == 0:
            raise DataError(f"task has no rows in split {name!r}")
        return self.splits[name]

    def save(self, path: str) -> None:
        dump_artifact(
            DATASET_KIND,
            {
                "spec": self.spec.to_dict(),
                "vocabulary": self.vocabulary.to_dict(),
                "class_names": self.class_names,
                "splits": {
                    k: {"x": x.tolist(), "y": y.tolist()} for k, (x, y) in self.splits.items()
                },
            },
            path,
        )

    @classmethod
    def load(cls, path: str, expected_spec: TaskSpec = None) -> "Task":
        body = load_artifact(path, DATASET_KIND, TASK_TYPES)
        spec = body["spec"]
        if expected_spec is not None and spec != expected_spec.validate():
            raise DataError(f"{path}: dataset spec does not match the runtime spec")
        where, class_names = f"{path}:{DATASET_KIND}", list(body["class_names"])
        for name in class_names:  # a prompt reads each class name word by word
            try:
                body["vocabulary"].encode(name)
            except TokenizationError as exc:
                raise TokenizationError(f"{where}.class_names: {exc}") from None
        splits = check_fields(dict.fromkeys(SPLITS, dict), body["splits"], f"{where}.splits",
                              SPLITS)
        for name, split in splits.items():
            at = f"{where}.splits.{name}"
            xy = check_fields(SPLIT_TYPES, split, at, SPLIT_TYPES)
            x, y = numeric_array(xy["x"], f"{at}.x"), xy["y"]
            if x.ndim != 2 or x.shape[1] != spec.raw_feature_dim:
                raise DataError(f"{at}.x must be rows of {spec.raw_feature_dim} numbers, "
                                f"got shape {x.shape}")
            if len(y) != len(x):
                raise DataError(f"{at}.y holds {len(y)} labels for the {len(x)} rows of x")
            if not all(0 <= label < len(class_names) for label in y):
                raise DataError(f"{at}.y holds a label that is none of the "
                                f"{len(class_names)} class names")
            splits[name] = (x, np.asarray(y, dtype=np.int64))
        return cls(spec=spec, vocabulary=body["vocabulary"], class_names=class_names,
                   splits=splits)


# the keys of a dataset file's body, and of each of its splits, all required
TASK_TYPES = {"spec": TaskSpec, "vocabulary": Vocabulary, "class_names": tuple[str, ...],
              "splits": dict}
SPLIT_TYPES = {"x": tuple, "y": tuple[int, ...]}


# -- vocabulary construction ---------------------------------------------------------


def _build_vocabulary(spec: TaskSpec, id_words) -> Vocabulary:
    """Vocabulary with a two-hop routing geometry.

    Every base word shares one "attribute axis" direction and adds its own
    distinct direction; the end sentinel sits on the axis itself, so under
    similarity-driven attention the readout position listens to attribute
    anchors rather than to raw name tokens. Value words cluster around their
    base's *distinct* direction only: an anchor attends to its own attribute's
    values (one similarity hop) and the readout attends to anchors (the second
    hop), while value and id words stay invisible to the readout directly.
    """
    d = spec.embed_dim
    rng = keyed_rng(spec.seed, "vocab")
    axis = _unit(keyed_rng(spec.seed, "attribute_axis").standard_normal(d))
    words = [SOS, EOS]
    vectors = [_unit(rng.standard_normal(d)), axis.copy()]
    for word in dict.fromkeys(PHOTO_TEMPLATE.split()):  # each distinct word once, in order
        words.append(word)
        vectors.append(_unit(rng.standard_normal(d)))
    for attr in spec.latent_attributes:
        distinct = _unit(keyed_rng(spec.seed, "base", attr.name).standard_normal(d))
        words.append(attr.name)
        vectors.append(_unit(axis + distinct))
        for value in attr.values:
            noise = _unit(keyed_rng(spec.seed, "value", value).standard_normal(d))
            words.append(value)
            vectors.append(_unit(distinct + spec.value_spread * noise))
    for word in id_words:
        words.append(word)
        vectors.append(_unit(keyed_rng(spec.seed, "id", word).standard_normal(d)))
    return Vocabulary(words, np.asarray(vectors))


# -- class construction ------------------------------------------------------------------


def _draw_signatures(spec: TaskSpec):
    """One signature per class, distinct over the informative attributes, free elsewhere."""
    rng = keyed_rng(spec.seed, "signatures", "task0")
    informative = [spec.attribute(n) for n in spec.informative_attributes]
    seen = set()
    signatures = []
    while len(signatures) < spec.num_classes:
        sig = tuple(attr.values[rng.integers(len(attr.values))] for attr in informative)
        if sig in seen:
            continue
        seen.add(sig)
        full = dict(zip(spec.informative_attributes, sig))
        for attr in spec.latent_attributes:
            if attr.name not in full:
                full[attr.name] = attr.values[rng.integers(len(attr.values))]
        signatures.append(full)
    return signatures


def _class_name(spec: TaskSpec, signature: dict, id_word: str) -> str:
    # the full signature appears in the name, so uninformative value words act
    # as distractors that an attribute anchor must select against; the id word
    # names the class-specific offset (signatures are distinct without it)
    values = [signature[a.name] for a in spec.latent_attributes]
    return " ".join(values + [id_word] if spec.include_id_words else values)


def _feature_map(spec: TaskSpec) -> np.ndarray:
    # identity: image prototypes live in embedding coordinates, so image and
    # text content can match without learning a change of basis
    if spec.feature_map == "identity":
        return np.eye(spec.raw_feature_dim)
    rng = keyed_rng(spec.seed, "feature_map")
    return rng.standard_normal((spec.raw_feature_dim, spec.embed_dim)) / math.sqrt(
        spec.embed_dim
    )


def _prototype(spec: TaskSpec, vocab: Vocabulary, fmap: np.ndarray, signature: dict,
               id_word: str) -> np.ndarray:
    content = sum(
        vocab.vectors[vocab.id_of(signature[n])] for n in spec.informative_attributes
    )
    systematic = _unit(np.add.reduce(fmap * content, axis=1))
    offset = _unit(keyed_rng(spec.seed, "offset", id_word).standard_normal(spec.raw_feature_dim))
    s = spec.attribute_signal
    return _unit(s * systematic + (1.0 - s) * offset)


def _sample_split(spec: TaskSpec, prototypes: np.ndarray, split: str):
    xs, ys = [], []
    for c in range(len(prototypes)):
        rng = keyed_rng(spec.seed, "samples", "task0", split, c)
        noise = rng.standard_normal((spec.samples_per_class, spec.raw_feature_dim))
        xs.append(prototypes[c] + spec.noise_std * noise)
        ys.append(np.full(spec.samples_per_class, c, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    order = keyed_rng(spec.seed, "order", "task0", split).permutation(len(y))
    return x[order], y[order]


def generate_task(spec: TaskSpec) -> Task:
    """One task: vocabulary, classes with distinct informative signatures, splits.

    The spec's seed, and the tag ``"task0"``, key the task's signature and sample streams.
    """
    spec.validate()
    id_words = [f"id{c}" for c in range(spec.num_classes)]
    signatures = _draw_signatures(spec)
    vocab = _build_vocabulary(spec, id_words)
    fmap = _feature_map(spec)
    prototypes = np.stack([_prototype(spec, vocab, fmap, sig, idw)
                           for sig, idw in zip(signatures, id_words)])
    names = [_class_name(spec, sig, idw) for sig, idw in zip(signatures, id_words)]
    splits = {s: _sample_split(spec, prototypes, s) for s in SPLITS}
    return Task(spec=spec, vocabulary=vocab, class_names=names, splits=splits)


def make_base_novel_task(spec: TaskSpec):
    """Split one task's classes into (base, novel) with disjoint signatures.

    Base gets the first ceil(C/2) classes of the generated task; novel gets
    the rest. Both halves share the vocabulary and attribute semantics, and
    every class keeps its own train/val/test samples (novel training splits
    exist but go unused by the protocol).
    """
    spec.validate()
    if spec.num_classes < 4:
        raise DataError(f"base/novel construction needs >= 4 classes, got {spec.num_classes}")
    task = generate_task(spec)
    cut = (spec.num_classes + 1) // 2
    return _slice_classes(task, range(0, cut)), _slice_classes(task, range(cut, spec.num_classes))


def _slice_classes(task: Task, class_ids) -> Task:
    ids = list(class_ids)
    remap = {old: new for new, old in enumerate(ids)}
    splits = {}
    for split, (x, y) in task.splits.items():
        mask = np.isin(y, ids)
        kept_y = np.asarray([remap[int(c)] for c in y[mask]], dtype=np.int64)
        splits[split] = (x[mask], kept_y)
    return Task(spec=task.spec, vocabulary=task.vocabulary,
                class_names=[task.class_names[i] for i in ids], splits=splits)

