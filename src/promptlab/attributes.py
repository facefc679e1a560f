"""Attribute-base providers: a bundled fixture table and a remote LLM pipeline.

Two ways to obtain the base words that span an attribute search pool. The
fixture provider returns recorded per-dataset base lists offline. The LLM
pipeline runs the two-step query protocol (describe every category, then
summarize shared attribute bases) against a chat-completion style HTTP
endpoint; a pluggable transport keeps the whole thing testable without a
network. Credentials are referenced by environment variable name only and
are read at request time; they are never stored, logged, or written to any
cache or result file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from importlib import resources

from .config import LlmClientConfig, check_words
from .errors import (
    ConfigError,
    DataError,
    ExtractionError,
    FixtureLookupError,
    ParameterError,
    RemoteError,
)
from .search import SearchResult, parse_result
from .serialize import check_fields, dump_json, load_artifact, load_json

PROVENANCES = ("fixture", "llm", "manual")

FIXTURE_KIND = "attribute_bases"

DESCRIBE_TEMPLATE = (
    "Describe the visual characteristics of the category {name!r} in one "
    "sentence, focusing on properties shared by all instances."
)
SUMMARIZE_TEMPLATE = (
    "These sentences describe every category of one image classification "
    "task:\n{descriptions}\n"
    "Reply with exactly {n} lowercase single-word attribute names, separated "
    "by commas, that are common to all categories and could each take a "
    "different value per category. Reply with the attribute names only."
)
REPROMPT_SUFFIX = (
    "\nYour previous reply {reply!r} was not {n} distinct single words. "
    "Reply again with exactly {n} distinct lowercase single-word attribute "
    "names separated by commas and nothing else."
)


@dataclass(frozen=True)
class AttributeBases:
    dataset_name: str
    bases: tuple
    provenance: str = "manual"
    searched: tuple = None  # fixture rows carry the recorded search outcome

    def __post_init__(self):
        object.__setattr__(self, "bases", tuple(self.bases))
        if self.searched is not None:
            object.__setattr__(self, "searched", tuple(self.searched))

    def validate(self) -> "AttributeBases":
        if self.provenance not in PROVENANCES:
            raise ConfigError(f"unknown provenance {self.provenance!r}")
        if not self.bases:
            raise DataError(f"dataset {self.dataset_name!r} has an empty base list")
        check_words(self.bases, f"bases for {self.dataset_name!r}", DataError)
        return self


# -- bundled fixtures ----------------------------------------------------------


def _fixture_payload() -> dict:
    with resources.as_file(resources.files("promptlab.fixtures") / "attribute_bases.json") as path:
        return load_artifact(path, FIXTURE_KIND, {"datasets": dict})["datasets"]


def fixture_datasets() -> tuple:
    return tuple(sorted(_fixture_payload()))


def fixture_bases(dataset_name: str) -> AttributeBases:
    """The recorded base list for one of the eleven bundled datasets."""
    table = _fixture_payload()
    key = dataset_name.strip().lower()
    if key not in table:
        raise FixtureLookupError(
            f"no attribute fixture for {dataset_name!r}; available: "
            + ", ".join(sorted(table))
        )
    row = table[key]
    return AttributeBases(
        dataset_name=key,
        bases=tuple(row["bases"]),
        provenance="fixture",
        searched=tuple(row["searched"]),
    ).validate()


def fixture_search_result() -> SearchResult:
    """The recorded 31-candidate weight table (5 bases, one dataset)."""
    text = resources.files("promptlab.fixtures").joinpath("caltech101_search.txt").read_text()
    return parse_result(text, path="caltech101_search.txt")


# -- remote client --------------------------------------------------------------


class HttpTransport:
    """POSTs a single-message chat request; the reply text is the completion.

    The request body is ``{"model": ..., "messages": [{"role": "user",
    "content": prompt}]}`` and the reply is read from
    ``choices[0].message.content``, the least common denominator of
    chat-completion providers.
    """

    def __init__(self, config: LlmClientConfig):
        self.config = config.validate()

    def __call__(self, prompt: str) -> str:
        import http.client  # imported here so that commands which never call out start faster
        import urllib.request

        token = os.environ.get(self.config.credential_env)
        if not token:
            raise RemoteError(
                f"environment variable {self.config.credential_env} is not set"
            )
        body = json.dumps({
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
        }).encode()
        headers = {"Authorization": f"Bearer {token}", "Content-Type": "application/json"}
        last_error = None
        for _ in range(self.config.max_retries + 1):
            try:
                request = urllib.request.Request(self.config.endpoint, data=body, headers=headers)
                with urllib.request.urlopen(request, timeout=self.config.timeout) as reply:
                    return json.load(reply)["choices"][0]["message"]["content"]
            except (OSError, http.client.HTTPException, LookupError, TypeError, ValueError) as exc:
                # the exception text may embed the URL but never the token
                last_error = f"{type(exc).__name__}: {exc}"
        raise RemoteError(
            f"request to {self.config.endpoint} failed after "
            f"{self.config.max_retries + 1} attempts ({last_error})"
        )


class MockTransport:
    """Canned replies for offline tests; records every prompt it sees."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.prompts = []

    def __call__(self, prompt: str) -> str:
        self.prompts.append(prompt)
        if not self.replies:
            raise RemoteError("mock transport ran out of replies")
        return self.replies.pop(0)


# the keys of a cache file, all required
CACHE_TYPES = {"model": str, "request": str, "reply": str}


class ResponseCache:
    """Append-only directory of raw reply files keyed by (model, request text).

    Each file is named by a digest of the model and the full request text and
    holds both, so a cache directory can be inspected or committed as a
    recorded transcript. Writing an existing key overwrites it (last write
    wins); nothing is ever deleted.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, model: str, request: str) -> str:
        digest = hashlib.sha256(json.dumps([model, request]).encode()).hexdigest()
        return os.path.join(self.directory, f"{digest}.json")

    def get(self, model: str, request: str):
        path = self._path(model, request)
        if not os.path.exists(path):
            return None
        payload = check_fields(CACHE_TYPES, load_json(path), f"{path}:cache", CACHE_TYPES)
        if payload["model"] != model or payload["request"] != request:
            raise DataError(f"cache file {path} does not match its key")
        return payload["reply"]

    def put(self, model: str, request: str, reply: str) -> None:
        dump_json({"model": model, "request": request, "reply": reply},
                  self._path(model, request))


class LlmClient:
    """Transport plus model name; the pipeline functions below do the talking."""

    def __init__(self, config: LlmClientConfig = None, transport=None, cache: ResponseCache = None):
        self.config = (config or LlmClientConfig()).validate()
        self.transport = transport if transport is not None else HttpTransport(self.config)
        self.cache = cache

    def ask(self, prompt: str) -> str:
        """The reply to one prompt; with a cache, each distinct prompt is sent once."""
        if self.cache is not None:
            hit = self.cache.get(self.config.model, prompt)
            if hit is not None:
                return hit
        reply = self.transport(prompt)
        if not isinstance(reply, str):
            raise RemoteError(f"transport returned {type(reply).__name__}, expected text")
        if self.cache is not None:
            self.cache.put(self.config.model, prompt, reply)
        return reply


# -- two-step pipeline -------------------------------------------------------------


def describe_categories(class_names, client: LlmClient) -> dict:
    """One description per class; repeat queries for a class hit the cache."""
    out = {}
    for name in class_names:
        out[name] = client.ask(DESCRIBE_TEMPLATE.format(name=name))
    return out


def _parse_bases(reply: str, n: int, dataset_name: str) -> AttributeBases:
    """The n bases a comma-separated reply names; DataError unless n distinct words of letters."""
    tokens = [t.strip().lower() for t in reply.split(",")]
    bases = tuple(t for t in tokens if t)
    if len(bases) != n:
        raise DataError(f"expected {n} bases, got {len(bases)}")
    if not all(t.isalpha() for t in bases):
        raise DataError(f"bases must be words of letters, got {bases}")
    return AttributeBases(dataset_name=dataset_name, bases=bases, provenance="llm").validate()


def summarize_bases(descriptions, n: int, client: LlmClient,
                    dataset_name: str = "llm_task") -> AttributeBases:
    """Distill N shared attribute bases out of the per-class descriptions.

    A malformed reply (wrong count, repeats, multi-word items) earns one
    corrective reprompt; a second failure raises with the raw reply attached.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1 bases, got {n}")
    descriptions = dict(descriptions)
    if not descriptions:
        raise ParameterError("no descriptions to summarize")
    joined = "\n".join(f"- {name}: {text}" for name, text in sorted(descriptions.items()))
    prompt = SUMMARIZE_TEMPLATE.format(descriptions=joined, n=n)
    reply = client.ask(prompt)
    try:
        return _parse_bases(reply, n, dataset_name)
    except DataError:
        reply = client.ask(prompt + REPROMPT_SUFFIX.format(reply=reply, n=n))
    try:
        return _parse_bases(reply, n, dataset_name)
    except DataError as exc:
        raise ExtractionError(
            f"could not extract {n} attribute bases after one reprompt ({exc}); "
            f"last reply: {reply!r}"
        ) from None
