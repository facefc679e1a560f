"""Every setting promptlab reads, and the run configuration that gathers them.

One JSON document drives every command: the task spec that gen-data
generates the base/novel dataset files from, where attribute bases come from
(bundled fixture, remote LLM, or an explicit list - exactly one), the
search and train hyperparameters, the prompt layout, the output directory,
and the seeds. Each seed draws what it names, as in the library: ``task.seed``
the datasets, ``seed`` the frozen encoder and the attribute search, and each
of ``seeds`` (default: ``seed``) one training run.

Each section's dataclass lives here, not in the module that runs it, and
this module imports only ``errors`` and ``serialize``: reading and checking
a config loads no numpy, so a command that only reads files stays light.
"""

from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import dataclass, field, replace

from .errors import ConfigError, DataError
from .serialize import (FORMAT_VERSION, INT64_MAX, JsonFields, check_fields, dump_json, dumps_json,
                        field_types, load_json, named)

CLASS_POSITIONS = ("front", "middle", "end")
POSITION_STYLES = ("interval", "adjacent_front", "adjacent_middle", "adjacent_end", "separate")
# drop policy -> the kinds of prompt position that re-enter with their own rows
# at every deep layer; the class soft block always re-enters as a deep block
REENTERED_KINDS = {
    "retain_all": (),
    "partial_drop": ("attr_soft",),
    "full_drop": ("attr_soft", "attr_hard"),
}
DROP_POLICIES = tuple(REENTERED_KINDS)
INIT_SCHEMES = ("random_normal", "phrase_init")
FEATURE_MAPS = ("random", "identity")
# a field -> the values it takes, in every settings class that has it
CHOICES = {"class_token_position": CLASS_POSITIONS, "attribute_position_style": POSITION_STYLES,
           "drop_policy": DROP_POLICIES, "init_scheme": INIT_SCHEMES, "feature_map": FEATURE_MAPS}
_ABOVE_ZERO = math.ulp(0.0)  # the least float above 0: x >= it is x > 0
# an int field is at least 1 and a float field above 0, except these (low, high), inclusive;
# NaN lies in no range
RANGES = {"seed": (0, math.inf), "num_classes": (2, math.inf), "max_retries": (0, math.inf),
          "noise_std": (0, math.inf), "attribute_signal": (0, 1),
          "value_spread": (-math.inf, math.inf), "base_accuracy": (0, 100),
          "novel_accuracy": (0, 100), "harmonic_mean": (0, 100)}
# the encoder's MLP width per embedding dimension, and the temperature its logits divide by
MLP_RATIO, TEMPERATURE = 2, 0.07
# the fields and constants whose product is the length of a float64 array the settings
# make: the task's vocabulary (a row per class and more), feature map and split images, and
# the encoder's positional table, MLP weight, text projection and image layers. Sizes whose
# array no machine can address (more than sys.maxsize bytes) fail before any array is made.
ARRAYS = (("num_classes", "embed_dim"), ("raw_feature_dim", "embed_dim"),
          ("num_classes", "samples_per_class", "raw_feature_dim"), ("max_seq_len", "embed_dim"),
          ("embed_dim", MLP_RATIO, "embed_dim"), ("embed_dim", "joint_dim"),
          ("image_dim", "image_hidden_dim"), ("image_hidden_dim", "joint_dim"))


def check_settings(section, error=ConfigError) -> None:
    """Check each field of ``section`` by the tables; a bad value is ``error`` naming the field."""
    types = field_types(type(section))
    for name in types:
        if name in CHOICES and getattr(section, name) not in CHOICES[name]:
            raise error(f"unknown {name} {getattr(section, name)!r}; use one of {CHOICES[name]}")
    for name, kind in types.items():
        low, high = RANGES.get(name, (1 if kind is int else _ABOVE_ZERO, math.inf))
        if kind in (int, float) and not low <= getattr(section, name) <= high:
            bound = ("above 0" if low == _ABOVE_ZERO else f"at least {low}" if high == math.inf
                     else f"in [{low}, {high}]")
            raise error(f"{name} must be {bound}, got {getattr(section, name)!r}")
    for dims in ARRAYS:  # a rule applies where the section has each field it names
        sizes = [d if isinstance(d, int) else getattr(section, d) if d in types else None
                 for d in dims]
        if None not in sizes and 8 * math.prod(sizes) > sys.maxsize:
            raise error(f"{' * '.join(map(str, dims))} makes an array of more than "
                        f"{sys.maxsize} bytes")


def check_words(words, what: str, error=ConfigError) -> None:
    """Each entry is one lowercase word and none repeats; else ``error`` naming the words."""
    for word in words:  # the vocabulary reads text as lowercased, whitespace-split words
        if not isinstance(word, str) or word.split() != [word.lower()]:
            raise error(f"{what} must be one lowercase word, got {word!r}")
    repeated = sorted({w for w in words if words.count(w) > 1})
    if repeated:
        raise error(f"duplicate {what}: {', '.join(repeated)}")


# -- sections ---------------------------------------------------------------------


@dataclass(frozen=True)
class LatentAttribute:
    name: str
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))


def default_attributes():
    names = ("color", "shape", "size", "texture")
    return tuple(LatentAttribute(n, tuple(f"{n}{j}" for j in range(8))) for n in names)


def _latent_attribute(entry) -> LatentAttribute:
    """A latent attribute, or one read from its JSON form ``[name, [values]]``."""
    if isinstance(entry, LatentAttribute):
        return entry
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], (list, tuple))):
        raise ConfigError(f"latent_attributes entries must be [name, [values]], got {entry!r}")
    return LatentAttribute(*entry)


@dataclass(frozen=True)
class TaskSpec(JsonFields):
    num_classes: int = 8
    raw_feature_dim: int = 16
    embed_dim: int = 32
    latent_attributes: tuple = field(default_factory=default_attributes)
    informative_attributes: tuple[str, ...] = ("color", "shape")
    samples_per_class: int = 16  # per split: train, val, and test each get this many
    noise_std: float = 0.1
    attribute_signal: float = 1.0  # 1: images carry only attribute content; 0: only offsets
    value_spread: float = 1.0  # distance of value words from their base word
    include_id_words: bool = True  # False: class names carry value words only
    feature_map: str = "random"  # how attribute content becomes image features
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "latent_attributes",
                           tuple(map(_latent_attribute, self.latent_attributes)))
        object.__setattr__(self, "informative_attributes", tuple(self.informative_attributes))

    def validate(self) -> "TaskSpec":
        check_settings(self, DataError)
        if self.feature_map == "identity" and self.raw_feature_dim != self.embed_dim:
            raise DataError(
                "identity feature_map needs raw_feature_dim == embed_dim, got "
                f"{self.raw_feature_dim} != {self.embed_dim}"
            )
        check_words([w for a in self.latent_attributes for w in (a.name, *a.values)],
                    "attribute names and values", DataError)
        missing = set(self.informative_attributes) - {a.name for a in self.latent_attributes}
        if missing:
            raise DataError(f"informative attributes not declared: {sorted(missing)}")
        if not self.informative_attributes:
            raise DataError("need at least one informative attribute")
        capacity = 1
        for attr in self.latent_attributes:
            if not attr.values:
                raise DataError(f"latent attribute {attr.name!r} has no values")
            if attr.name in self.informative_attributes:
                capacity *= len(attr.values)
        if capacity < self.num_classes:
            raise DataError(
                f"only {capacity} distinct informative signatures for "
                f"{self.num_classes} classes"
            )
        return self

    def attribute(self, name: str) -> LatentAttribute:
        for attr in self.latent_attributes:
            if attr.name == name:
                return attr
        raise DataError(f"no attribute named {name!r}")

    def to_dict(self) -> dict:
        pairs = [[a.name, list(a.values)] for a in self.latent_attributes]
        return {**super().to_dict(), "latent_attributes": pairs}


@dataclass(frozen=True)
class EncoderConfig(JsonFields):
    embed_dim: int = 32
    num_layers: int = 4
    num_heads: int = 4
    max_seq_len: int = 32
    joint_dim: int = 16
    image_dim: int = 16
    image_hidden_dim: int = 32

    def validate(self) -> "EncoderConfig":
        check_settings(self)
        if self.embed_dim % self.num_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        return self


@dataclass(frozen=True)
class PromptLayout(JsonFields):
    """Declarative description of how one text prompt is assembled."""

    attribute_names: tuple[str, ...] = ()
    class_token_position: str = "end"
    attribute_position_style: str = "interval"
    drop_policy: str = "retain_all"
    depth: int = 1

    def __post_init__(self):
        object.__setattr__(self, "attribute_names", tuple(self.attribute_names))

    def validate(self, num_encoder_layers: int = None) -> "PromptLayout":
        check_settings(self)
        if num_encoder_layers is not None and self.depth > num_encoder_layers:
            raise ConfigError(
                f"depth {self.depth} exceeds encoder layers {num_encoder_layers}"
            )
        check_words(self.attribute_names, "attribute_names")
        if (
            self.class_token_position != "end"
            and self.attribute_position_style != "interval"
            and self.attribute_names
        ):
            raise ConfigError(
                "class_token_position other than 'end' is only defined for the interval style"
            )
        return self


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
        check_settings(self)
        self.layout.validate()
        if self.layout.attribute_names:
            raise ConfigError("layout.attribute_names must stay empty: train.attributes chooses "
                              "the anchored attributes, and a search fills it per candidate")
        return self


@dataclass(frozen=True)
class TrainConfig(PromptRunConfig):
    lr_init: float = 0.002
    attributes: tuple[str, ...] = ()  # selected combination; () trains the classic form

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))

    def validate(self) -> "TrainConfig":
        super().validate()
        check_words(self.attributes, "attributes")
        return self

    def effective_layout(self) -> PromptLayout:
        """Layout with the selected attribute combination substituted in."""
        return replace(self.layout, attribute_names=tuple(self.attributes))


@dataclass(frozen=True)
class SearchConfig(PromptRunConfig):
    epochs: int = 10
    theta_lr: float = 0.002
    alpha_lr: float = 0.02


_ENV_NAME_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")


@dataclass(frozen=True)
class LlmClientConfig(JsonFields):
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model: str = "gpt-4o"
    credential_env: str = "PROMPTLAB_API_KEY"  # variable NAME; value is read per request
    timeout: float = 30.0
    max_retries: int = 2

    def validate(self) -> "LlmClientConfig":
        check_settings(self)
        if not _ENV_NAME_RE.match(self.credential_env):
            raise ConfigError(
                "credential_env must name an environment variable "
                f"(letters, digits, underscores), got {self.credential_env!r}"
            )
        return self


# -- the run config -------------------------------------------------------------------


RUN_CONFIG_KIND = "run_config"

def config_hash(payload) -> str:
    """Short content address of any JSON-serializable object."""
    import hashlib  # here, not at the top: it loads OpenSSL, which `report` never needs
    return hashlib.sha256(dumps_json(payload).encode()).hexdigest()[:12]


def _hyperparameter_types(section_type) -> dict:
    """A search/train section's field types, less the seed and layout the run config owns."""
    return {k: v for k, v in field_types(section_type).items() if k not in ("seed", "layout")}


def _hyperparameters(section) -> dict:
    return {name: getattr(section, name) for name in _hyperparameter_types(type(section))}


@dataclass(frozen=True)
class AttributeSource(JsonFields):
    """Exactly one of: bundled fixture row, LLM pipeline, explicit base list."""

    fixture: str = None
    llm: LlmClientConfig = None
    explicit: tuple[str, ...] = None

    def validate(self) -> "AttributeSource":
        modes = [m for m in (self.fixture, self.llm, self.explicit) if m is not None]
        if len(modes) != 1:
            raise ConfigError(
                "attribute source must set exactly one of fixture/llm/explicit, "
                f"got {len(modes)}"
            )
        if self.explicit is not None and len(self.explicit) == 0:
            raise ConfigError("explicit attribute list is empty")
        check_words(self.explicit or (), "explicit")
        if self.llm is not None:
            self.llm.validate()
        return self


RUN_CONFIG_TYPES = {
    "kind": str, "format_version": int, "task": TaskSpec, "attributes": AttributeSource,
    "search": dict, "train": dict, "layout": PromptLayout,
    "encoder_overrides": dict, "out": str, "seed": int, "seeds": tuple,
}
# run config keys whose RunConfig field has another name
RENAMED_KEYS = {"task": "task_spec", "out": "out_dir"}


@dataclass(frozen=True)
class RunConfig:
    task_spec: TaskSpec = None
    attributes: AttributeSource = field(default_factory=lambda: AttributeSource(explicit=("color",)))
    search: SearchConfig = field(default_factory=SearchConfig)
    train: TrainConfig = field(default_factory=TrainConfig)  # its layout is the run's layout
    encoder_overrides: dict = field(default_factory=dict)
    out_dir: str = "runs/out"
    seed: int = 0
    seeds: tuple = ()                   # empty means just (seed,)

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        # both sections run under the run's seed and layout, the only ones to_dict writes
        object.__setattr__(self, "search",
                           replace(self.search, seed=self.seed, layout=self.train.layout))
        object.__setattr__(self, "train", replace(self.train, seed=self.seed))

    def validate(self) -> "RunConfig":
        if self.task_spec is None:
            raise ConfigError("config must set a task spec")
        # a rule a section breaks names the section, as when the config file is read
        for key, section in (("task", self.task_spec), ("attributes", self.attributes),
                             ("train", self.train), ("search", self.search)):
            with named(key):
                section.validate()
        # the dataset fixes the vocabulary's width and the image width
        check_fields({k: v for k, v in field_types(EncoderConfig).items()
                      if k not in ("embed_dim", "image_dim")},
                     self.encoder_overrides, "encoder_overrides")
        if not self.out_dir:
            raise ConfigError("output directory must be set")
        check_settings(self)
        for s in self.seeds:
            if isinstance(s, bool) or not isinstance(s, int) or not 0 <= s <= INT64_MAX:
                raise ConfigError(f"seeds must be non-negative 64-bit integers, got {s!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must not repeat a seed, got {list(self.seeds)}")
        return self

    def seed_list(self) -> tuple:
        return self.seeds if self.seeds else (self.seed,)

    def to_dict(self) -> dict:
        return {
            "kind": RUN_CONFIG_KIND,
            "format_version": FORMAT_VERSION,
            "task": self.task_spec.to_dict(),
            "attributes": self.attributes.to_dict(),
            "search": _hyperparameters(self.search),
            "train": _hyperparameters(self.train),
            "layout": self.train.layout.to_dict(),
            "encoder_overrides": dict(self.encoder_overrides),
            "out": self.out_dir,
            "seed": self.seed,
            "seeds": list(self.seeds),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        given = check_fields(RUN_CONFIG_TYPES, payload, "")
        kind = given.pop("kind", RUN_CONFIG_KIND)
        if kind != RUN_CONFIG_KIND:
            raise ConfigError(f"not a run config (kind={kind!r})")
        version = given.pop("format_version", FORMAT_VERSION)
        if version != FORMAT_VERSION:
            raise ConfigError(f"unsupported run config version {version!r}")
        layout = given.pop("layout", PromptLayout())
        sections = {
            name: section(layout=layout, **check_fields(
                _hyperparameter_types(section), given.pop(name, {}), name))
            for name, section in (("search", SearchConfig), ("train", TrainConfig))
        }
        return cls(**sections, **{RENAMED_KEYS.get(k, k): v for k, v in given.items()}).validate()

    def fingerprint(self) -> str:
        # The hash identifies the experiment, not where its files land, so the
        # output directory is excluded: the same run in two places matches.
        payload = {k: v for k, v in self.to_dict().items() if k != "out"}
        return config_hash(payload)


def load_run_config(path: str, overrides: dict = None) -> RunConfig:
    """Read a config file and apply command-line overrides (flags win)."""
    payload = load_json(path)
    if not isinstance(payload, dict):
        raise DataError(f"{path}: run config must be a JSON object")
    for key, value in (overrides or {}).items():
        if value is not None:
            payload[key] = value
    return RunConfig.from_dict(payload)


def save_run_config(config: RunConfig, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    dump_json(config.to_dict(), path)
