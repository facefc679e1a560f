"""Declarative run configuration shared by the command-line pipeline.

One JSON document drives every command: where the task comes from (an
inline spec or a saved dataset file), where attribute bases come from
(bundled fixture, remote LLM, or an explicit list - exactly one), the
search and train hyperparameters, the prompt layout, the output directory,
and the seed list. Every source of randomness in a run flows from the
single run seed through named sub-seeds so components stay independently
reproducible.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import get_type_hints

from .attributes import LlmClientConfig
from .data import TaskSpec
from .encoders import EncoderConfig
from .errors import ConfigError, DataError
from .prompts import PromptLayout
from .search import SearchConfig
from .serialize import FORMAT_VERSION, JsonFields, check_fields, dump_json, dumps_json, load_json
from .training import TrainConfig

RUN_CONFIG_KIND = "run_config"

def config_hash(payload) -> str:
    """Short content address of any JSON-serializable object."""
    return hashlib.sha256(dumps_json(payload).encode()).hexdigest()[:12]


def _hyperparameter_types(section_type) -> dict:
    """A search/train section's field types, less the seed and layout the run config owns."""
    return {k: v for k, v in get_type_hints(section_type).items() if k not in ("seed", "layout")}


def _hyperparameters(section) -> dict:
    return {name: getattr(section, name) for name in _hyperparameter_types(type(section))}


@dataclass(frozen=True)
class AttributeSource(JsonFields):
    """Exactly one of: bundled fixture row, LLM pipeline, explicit base list."""

    fixture: str = None
    llm: LlmClientConfig = None
    explicit: tuple = None

    def validate(self) -> "AttributeSource":
        modes = [m for m in (self.fixture, self.llm, self.explicit) if m is not None]
        if len(modes) != 1:
            raise ConfigError(
                "attribute source must set exactly one of fixture/llm/explicit, "
                f"got {len(modes)}"
            )
        if self.explicit is not None and len(self.explicit) == 0:
            raise ConfigError("explicit attribute list is empty")
        if self.llm is not None:
            self.llm.validate()
        return self


RUN_CONFIG_TYPES = {
    "kind": str, "format_version": int, "task": TaskSpec, "dataset": str,
    "attributes": AttributeSource, "search": dict, "train": dict, "layout": PromptLayout,
    "encoder_overrides": dict, "out": str, "seed": int, "seeds": tuple,
}
# run config keys whose RunConfig field has another name
RENAMED_KEYS = {"task": "task_spec", "dataset": "dataset_path", "out": "out_dir"}


@dataclass(frozen=True)
class RunConfig:
    task_spec: TaskSpec = None          # inline spec ...
    dataset_path: str = None            # ... or a saved dataset file
    attributes: AttributeSource = field(default_factory=lambda: AttributeSource(explicit=("color",)))
    search: SearchConfig = field(default_factory=SearchConfig)
    train: TrainConfig = field(default_factory=TrainConfig)  # its layout is the run's layout
    encoder_overrides: dict = field(default_factory=dict)
    out_dir: str = "runs/out"
    seed: int = 0
    seeds: tuple = ()                   # empty means just (seed,)

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))

    def validate(self) -> "RunConfig":
        sources = [s for s in (self.task_spec, self.dataset_path) if s is not None]
        if len(sources) != 1:
            raise ConfigError("config must set exactly one of task spec / dataset path")
        if self.task_spec is not None:
            self.task_spec.validate()
        self.attributes.validate()
        self.search.validate()
        self.train.validate()
        check_fields(get_type_hints(EncoderConfig), self.encoder_overrides, "encoder_overrides")
        if not self.out_dir:
            raise ConfigError("output directory must be set")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        for s in self.seeds:
            if isinstance(s, bool) or not isinstance(s, int) or s < 0:
                raise ConfigError(f"seeds must be non-negative integers, got {s!r}")
        return self

    def seed_list(self) -> tuple:
        return self.seeds if self.seeds else (self.seed,)

    def to_dict(self) -> dict:
        payload = {
            "kind": RUN_CONFIG_KIND,
            "format_version": FORMAT_VERSION,
            "attributes": self.attributes.to_dict(),
            "search": _hyperparameters(self.search),
            "train": _hyperparameters(self.train),
            "layout": self.train.layout.to_dict(),
            "encoder_overrides": dict(self.encoder_overrides),
            "out": self.out_dir,
            "seed": self.seed,
            "seeds": list(self.seeds),
        }
        if self.task_spec is not None:
            payload["task"] = self.task_spec.to_dict()
        if self.dataset_path is not None:
            payload["dataset"] = self.dataset_path
        return payload

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
        if layout.attribute_names:
            raise ConfigError("layout.attribute_names must stay empty; "
                              "set train.attributes to choose the anchored attributes")
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
    config = RunConfig.from_dict(payload)
    return config


def save_run_config(config: RunConfig, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    dump_json(config.to_dict(), path)
