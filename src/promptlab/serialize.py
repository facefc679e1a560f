"""Deterministic JSON persistence helpers used by every file format.

All artifact files are plain JSON with sorted keys so that identical runs
produce byte-identical files (float64 values round-trip exactly through
repr). Every format carries a ``format_version`` field.
"""

from __future__ import annotations

import hashlib
import json
import os

from .errors import DataError


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
    except json.JSONDecodeError as exc:
        raise DataError(f"not valid JSON: {path} ({exc})")


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def expect_version(payload: dict, kind: str, version: int, path: str) -> None:
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        raise DataError(f"{path}: expected a {kind!r} file")
    if payload.get("format_version") != version:
        raise DataError(
            f"{path}: format_version {payload.get('format_version')!r}, expected {version}"
        )
