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
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

from .attributes import LlmClientConfig
from .data import TaskSpec
from .encoders import EncoderConfig
from .errors import ConfigError, DataError, PromptLabError
from .prompts import PromptLayout
from .search import SearchConfig
from .serialize import dump_json, dumps_json, load_json
from .training import TrainConfig

RUN_CONFIG_KIND = "run_config"
RUN_CONFIG_VERSION = 1

def config_hash(payload) -> str:
    """Short content address of any JSON-serializable object."""
    return hashlib.sha256(dumps_json(payload).encode()).hexdigest()[:12]


@contextmanager
def _section(what: str):
    """An unknown key or a value of the wrong type in ``what`` is a ConfigError naming it."""
    try:
        yield
    except PromptLabError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _hyperparameters(section) -> dict:
    """A search/train section's fields, less the seed and layout the run config owns."""
    return {f.name: getattr(section, f.name) for f in fields(section)
            if f.name not in ("seed", "layout")}


@dataclass(frozen=True)
class AttributeSource:
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

    def to_dict(self) -> dict:
        if self.fixture is not None:
            return {"fixture": self.fixture}
        if self.explicit is not None:
            return {"explicit": list(self.explicit)}
        return {
            "llm": {
                "endpoint": self.llm.endpoint,
                "model": self.llm.model,
                "credential_env": self.llm.credential_env,
                "timeout": self.llm.timeout,
                "max_retries": self.llm.max_retries,
            }
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AttributeSource":
        known = {"fixture", "llm", "explicit"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown attribute source keys: {sorted(unknown)}")
        llm = payload.get("llm")
        return cls(
            fixture=payload.get("fixture"),
            llm=LlmClientConfig(**llm) if llm is not None else None,
            explicit=tuple(payload["explicit"]) if "explicit" in payload else None,
        ).validate()


@dataclass(frozen=True)
class RunConfig:
    task_spec: TaskSpec = None          # inline spec ...
    dataset_path: str = None            # ... or a saved dataset file
    attributes: AttributeSource = field(default_factory=lambda: AttributeSource(explicit=("color",)))
    search: SearchConfig = field(default_factory=SearchConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    layout: PromptLayout = field(default_factory=PromptLayout)
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
        self.layout.validate()
        unknown = set(self.encoder_overrides) - {f.name for f in fields(EncoderConfig)}
        if unknown:
            raise ConfigError(f"unknown encoder_overrides keys: {sorted(unknown)}")
        if not self.out_dir:
            raise ConfigError("output directory must be set")
        for s in self.seeds:
            if not isinstance(s, int):
                raise ConfigError(f"seeds must be integers, got {s!r}")
        return self

    def seed_list(self) -> tuple:
        return self.seeds if self.seeds else (self.seed,)

    def to_dict(self) -> dict:
        payload = {
            "kind": RUN_CONFIG_KIND,
            "format_version": RUN_CONFIG_VERSION,
            "attributes": self.attributes.to_dict(),
            "search": _hyperparameters(self.search),
            "train": _hyperparameters(self.train),
            "layout": self.layout.to_dict(),
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
        if payload.get("kind", RUN_CONFIG_KIND) != RUN_CONFIG_KIND:
            raise ConfigError(f"not a run config (kind={payload.get('kind')!r})")
        version = payload.get("format_version", RUN_CONFIG_VERSION)
        if version != RUN_CONFIG_VERSION:
            raise ConfigError(f"unsupported run config version {version!r}")
        with _section("layout section"):
            layout = PromptLayout.from_dict(payload.get("layout", {}))
        with _section("task section"):
            task_spec = TaskSpec.from_dict(payload["task"]) if "task" in payload else None
        with _section("attributes section"):
            attributes = AttributeSource.from_dict(payload.get("attributes", {"explicit": ["color"]}))
        with _section("search section"):
            search_kw = dict(payload.get("search", {}))
            search = SearchConfig(layout=replace(layout, attribute_names=()), **search_kw).validate()
        with _section("train section"):
            train_kw = dict(payload.get("train", {}))
            train_kw["attributes"] = tuple(train_kw.get("attributes", ()))
            train = TrainConfig(layout=layout, **train_kw).validate()
        with _section("seed"):
            seed = int(payload.get("seed", 0))
        return cls(
            task_spec=task_spec,
            dataset_path=payload.get("dataset"),
            attributes=attributes,
            search=search,
            train=train,
            layout=layout,
            encoder_overrides=dict(payload.get("encoder_overrides", {})),
            out_dir=payload.get("out", "runs/out"),
            seed=seed,
            seeds=tuple(payload.get("seeds", ())),
        ).validate()

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
