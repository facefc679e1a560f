"""Deterministic JSON persistence helpers used by every file format.

All artifact files are plain JSON with sorted keys so that identical runs
produce byte-identical files (float64 values round-trip exactly through
repr). This module owns the artifact header: every JSON artifact is written
by ``dump_artifact`` with its ``kind`` and the one ``FORMAT_VERSION``, and
read back by ``load_artifact``, which checks both. The run config, the
bundled fixture and the search-result text file carry the same version.
Config sections and artifact bodies are read through one check, ``check_fields``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import MISSING, asdict, fields
from typing import get_type_hints

import numpy as np

from .errors import ConfigError, DataError

# the version every artifact header carries; bump it when any format changes
FORMAT_VERSION = 1

# the JSON type each Python field type is read from, named as errors print it
JSON_TYPES = {str: "string", int: "integer", float: "number", bool: "boolean",
              tuple: "list", dict: "object"}


def atomic_write(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` in one rename: readers see the old file or the new.

    The text goes to a uniquely named file next to the target, so concurrent
    writers never share a temporary file; on any failure that file is removed
    and the target is left as it was. The new file's permission bits follow
    the umask, as a plain ``open`` would create them.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def dump_json(obj, path: str) -> None:
    atomic_write(path, dumps_json(obj))


def dumps_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataError(f"file not found: {path}")
    except (ValueError, RecursionError) as exc:  # decode errors, over-long integers, deep nesting
        raise DataError(f"not valid JSON: {path} ({exc})")


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def dump_artifact(kind: str, body: dict, path: str) -> None:
    """Write ``body`` under the artifact header: its ``kind`` and ``FORMAT_VERSION``."""
    dump_json({"kind": kind, "format_version": FORMAT_VERSION, **body}, path)


def load_artifact(path: str, kind: str, types: dict) -> dict:
    """A JSON artifact's body, every key of ``types`` required, read by ``check_fields``.

    A non-object, wrong kind or version is a DataError; a body error names ``<path>:<kind>``.
    """
    payload = load_json(path)
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        raise DataError(f"{path}: expected a {kind!r} file")
    if payload.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"{path}: format_version {payload.get('format_version')!r}, expected {FORMAT_VERSION}"
        )
    body = {k: v for k, v in payload.items() if k not in ("kind", "format_version")}
    return check_fields(types, body, f"{path}:{kind}", types)


def numeric_array(value, dtype, where: str, error=DataError) -> np.ndarray:
    """``value`` as a ``dtype`` array; a ragged or non-numeric value is ``error`` at ``where``."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):
        raise error(f"{where} must be a rectangular array of numbers") from None


def check_fields(types: dict, payload, what: str, required=()) -> dict:
    """The keyword arguments a JSON object gives, each checked against ``types[key]``.

    Unknown keys, missing ``required`` keys and values of the wrong JSON type
    are ConfigErrors naming the key under ``what``. An ``int`` field takes an
    int but not a bool; a ``float`` field takes an int or a float within
    float64 range (not the ``NaN`` or ``Infinity`` Python's ``json`` reads),
    kept as written so no bytes move; a ``tuple`` field takes a list and returns a
    tuple; a field whose class has a ``from_dict`` (a ``JsonFields`` class,
    ``Vocabulary``, ``SoftPromptBank``) takes an object, read by that method.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"{what or 'config'} must be a JSON object, got {payload!r}")
    kwargs = {}
    for key, value in payload.items():
        where = f"{what}.{key}" if what else key
        if key not in types:
            raise ConfigError(f"unknown key {where!r}; known: {', '.join(sorted(types))}")
        kind = types[key]
        if hasattr(kind, "from_dict"):
            kwargs[key] = kind.from_dict(value, where)
            continue
        accepted = {float: (int, float), tuple: (list, tuple)}.get(kind, kind)
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            raise ConfigError(f"{where} must be a JSON {JSON_TYPES[kind]}, got {value!r}")
        if kind is float and not abs(value) <= sys.float_info.max:  # NaN compares false
            raise ConfigError(f"{where} must be a finite float64 number, got {value!r}")
        kwargs[key] = tuple(value) if kind is tuple else value
    missing = [f"{what}.{k}" if what else k for k in required if k not in kwargs]
    if missing:
        raise ConfigError(f"missing key {', '.join(map(repr, missing))}")
    return kwargs


class JsonFields:
    """Dataclass mixin: JSON form is the fields, read back through ``check_fields``."""

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, payload, what: str = None):
        """The validated instance a JSON object gives; a missing required key is a ConfigError."""
        required = [f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING]
        return cls(**check_fields(get_type_hints(cls), payload, what or cls.__name__,
                                  required)).validate()
