import json
import os
import socket
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from promptlab.attributes import (
    AttributeBases,
    DESCRIBE_TEMPLATE,
    LlmClient,
    LlmClientConfig,
    MockTransport,
    ResponseCache,
    describe_categories,
    fixture_bases,
    fixture_datasets,
    fixture_search_result,
    summarize_bases,
)
from promptlab.cli import main
from promptlab.errors import (
    ConfigError,
    DataError,
    ExtractionError,
    FixtureLookupError,
    ParameterError,
    RemoteError,
)


def offline_client(replies, cache=None, model="test-model"):
    transport = MockTransport(replies)
    cfg = LlmClientConfig(model=model, credential_env="PROMPTLAB_TEST_KEY")
    return LlmClient(cfg, transport=transport, cache=cache), transport


# -- fixture provider -----------------------------------------------------------


def test_fixture_table_has_the_eleven_recorded_datasets():
    assert len(fixture_datasets()) == 11


def test_fixture_rows_match_the_recorded_base_lists():
    rows = {
        "imagenet": ("color", "size", "shape", "habitat", "behavior"),
        "caltech101": ("shape", "color", "material", "function", "size"),
        "oxford_pets": ("loyalty", "affection", "playfulness", "energy", "intelligence"),
        "stanford_cars": ("design", "engine", "performance", "luxury", "color"),
        "flowers102": ("color", "flower", "habitat", "growth", "season"),
        "food101": ("flavor", "texture", "origin", "ingredients", "preparation"),
        "fgvc_aircraft": ("design", "capacity", "range", "engines", "liveries"),
        "sun397": ("architecture", "environment", "structure", "design", "function"),
        "dtd": ("pattern", "texture", "color", "design", "structure"),
        "eurosat": ("habitat", "foliage", "infrastructure", "terrain", "watercourse"),
        "ucf101": ("precision", "coordination", "technique", "strength", "control"),
    }
    for name, bases in rows.items():
        row = fixture_bases(name)
        assert row.bases == bases
        assert row.provenance == "fixture"
        assert row.dataset_name == name


def test_fixture_searched_outcomes_are_recorded():
    assert fixture_bases("caltech101").searched == ("shape", "size")
    assert fixture_bases("stanford_cars").searched == ("luxury",)
    assert fixture_bases("dtd").searched == ("pattern", "color", "design")


def test_fixture_lookup_is_case_insensitive():
    assert fixture_bases("ImageNet").bases == fixture_bases("imagenet").bases


def test_fixture_lookup_error_lists_available_names():
    with pytest.raises(FixtureLookupError, match="caltech101"):
        fixture_bases("cifar10")


def test_fixture_weight_table_round_trips_through_the_result_parser():
    result = fixture_search_result()
    assert result.bases == ("shape", "color", "material", "function", "size")
    assert len(result.candidates) == 31
    assert result.selected == ("shape", "size")
    assert dict(zip(result.candidates, result.weights))[("shape", "size")] == pytest.approx(0.565)
    assert result.weights.sum() == pytest.approx(1.0, abs=0.01)


def test_attribute_bases_validation():
    with pytest.raises(DataError):
        AttributeBases("d", ()).validate()
    with pytest.raises(DataError):
        AttributeBases("d", ("color", "color")).validate()
    with pytest.raises(ConfigError):
        AttributeBases("d", ("color",), provenance="scraped").validate()


# -- client configuration ---------------------------------------------------------


def test_config_rejects_bad_timeout_retries_and_env_names():
    with pytest.raises(ConfigError):
        LlmClientConfig(timeout=0).validate()
    with pytest.raises(ConfigError):
        LlmClientConfig(max_retries=-1).validate()
    # a literal token is not an environment variable name
    with pytest.raises(ConfigError):
        LlmClientConfig(credential_env="sk-abc123").validate()


def test_http_transport_refuses_to_run_without_the_named_variable(monkeypatch):
    from promptlab.attributes import HttpTransport

    monkeypatch.delenv("PROMPTLAB_TEST_KEY", raising=False)
    transport = HttpTransport(LlmClientConfig(credential_env="PROMPTLAB_TEST_KEY"))
    with pytest.raises(RemoteError, match="PROMPTLAB_TEST_KEY"):
        transport("hello")


class _ChatHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next scripted status; the last status repeats."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.headers["Authorization"], json.loads(body)))
        statuses = self.server.statuses
        status = statuses.pop(0) if len(statuses) > 1 else statuses[0]
        payload = json.dumps(self.server.reply).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@contextmanager
def chat_server(monkeypatch, statuses,
                reply={"choices": [{"message": {"content": "color, shape"}}]}):
    """A loopback chat endpoint on a thread, with the transport's credential set."""
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("PROMPTLAB_TEST_KEY", "sk-test-secret")
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    server.statuses, server.seen, server.reply = list(statuses), [], reply
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, LlmClientConfig(
            endpoint=f"http://127.0.0.1:{server.server_port}/v1/chat/completions",
            model="test-model", credential_env="PROMPTLAB_TEST_KEY", timeout=5.0,
            max_retries=2,
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_http_transport_posts_the_prompt_and_returns_the_reply(monkeypatch):
    from promptlab.attributes import HttpTransport

    with chat_server(monkeypatch, [200]) as (server, config):
        assert HttpTransport(config)("hello") == "color, shape"
    assert server.seen == [(
        "Bearer sk-test-secret",
        {"model": "test-model", "messages": [{"role": "user", "content": "hello"}]},
    )]


def test_http_transport_retries_after_a_server_error(monkeypatch):
    from promptlab.attributes import HttpTransport

    with chat_server(monkeypatch, [500, 200]) as (server, config):
        assert HttpTransport(config)("hello") == "color, shape"
    assert len(server.seen) == 2


def test_http_transport_gives_up_without_leaking_the_token(monkeypatch):
    from promptlab.attributes import HttpTransport

    with chat_server(monkeypatch, [500]) as (server, config):
        with pytest.raises(RemoteError, match="after 3 attempts") as info:
            HttpTransport(config)("hello")
    assert len(server.seen) == config.max_retries + 1
    assert "sk-test-secret" not in str(info.value)


@pytest.mark.parametrize("reply", [{"choices": None}, {"choices": []}, {"other": 1}])
def test_http_transport_reports_a_reply_without_content_as_remote_error(monkeypatch, reply):
    from promptlab.attributes import HttpTransport

    with chat_server(monkeypatch, [200], reply) as (server, config):
        with pytest.raises(RemoteError, match="after 3 attempts"):
            HttpTransport(config)("hello")


# -- describe step ---------------------------------------------------------------


def test_describe_returns_mock_text_per_class():
    client, transport = offline_client(["a furry cat.", "a loyal dog."])
    out = describe_categories(["cat", "dog"], client)
    assert out == {"cat": "a furry cat.", "dog": "a loyal dog."}
    assert transport.prompts[0] == DESCRIBE_TEMPLATE.format(name="cat")


def test_describe_empty_class_list_makes_no_calls():
    client, transport = offline_client([])
    assert describe_categories([], client) == {}
    assert transport.prompts == []


def test_describe_uses_the_cache_on_repeat_queries(tmp_path):
    cache = ResponseCache(str(tmp_path / "cache"))
    client, transport = offline_client(["first reply"], cache=cache)
    first = describe_categories(["cat"], client)
    again = describe_categories(["cat"], client)  # no replies left: must hit cache
    assert first == again
    assert len(transport.prompts) == 1


def test_cache_round_trips_replies_bit_identically(tmp_path):
    cache = ResponseCache(str(tmp_path / "cache"))
    reply = "unicode éß, newline\n, and trailing space "
    cache.put("m", "cat", reply)
    assert cache.get("m", "cat") == reply
    assert cache.get("m", "dog") is None
    assert cache.get("other-model", "cat") is None  # keyed by (model, request)


def test_cached_pipeline_replays_describe_and_summarize_offline(tmp_path):
    cache = ResponseCache(str(tmp_path / "cache"))
    client, _ = offline_client(
        ["sleek fur.", "feathers.", "Color; size", "color, size"], cache=cache)
    bases = summarize_bases(describe_categories(["cat", "bird"], client), 2, client)
    replay, transport = offline_client([], cache=cache)
    again = summarize_bases(describe_categories(["cat", "bird"], replay), 2, replay)
    assert again == bases
    assert transport.prompts == []


def test_names_with_equal_slugs_get_separate_cache_entries(tmp_path):
    cache = ResponseCache(str(tmp_path / "cache"))
    client, _ = offline_client(["a red car.", "a car in red."], cache=cache)
    first = describe_categories(["Red car", "red-car"], client)
    assert first == {"Red car": "a red car.", "red-car": "a car in red."}
    assert len(os.listdir(tmp_path / "cache")) == 2
    replay, _ = offline_client([], cache=cache)
    assert describe_categories(["Red car", "red-car"], replay) == first


def test_cache_file_that_does_not_match_its_key_is_a_data_error(tmp_path):
    cache = ResponseCache(str(tmp_path / "cache"))
    cache.put("m", "describe cat", "furry")
    (path,) = (tmp_path / "cache").iterdir()
    payload = json.loads(path.read_text())
    payload["request"] = "describe dog"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError):
        cache.get("m", "describe cat")


@pytest.mark.parametrize("content, message", [
    (lambda request: "{not json", "DataError: not valid JSON: {path}"),
    (lambda request: json.dumps(["test-model", request, "furry"]),
     "ConfigError: {path}:cache must be a JSON object"),
    (lambda request: json.dumps({"model": "test-model", "request": request}),
     "ConfigError: missing key '{path}:cache.reply'"),
], ids=["not_json", "list", "no_reply"])
def test_malformed_cache_file_ends_search_attrs_in_one_error_line(content, message, tmp_path,
                                                                  monkeypatch, capsys):
    def no_network(*args, **kwargs):
        raise AssertionError("network access attempted")

    monkeypatch.setattr(socket, "socket", no_network)
    monkeypatch.delenv("PROMPTLAB_TEST_KEY", raising=False)
    out, cfg = tmp_path / "out", tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "kind": "run_config",
        "format_version": 1,
        "task": {"num_classes": 4, "samples_per_class": 4, "noise_std": 0.1,
                 "latent_attributes": [["color", ["color0", "color1", "color2", "color3"]]],
                 "informative_attributes": ["color"], "seed": 0},
        "attributes": {"llm": {"model": "test-model", "credential_env": "PROMPTLAB_TEST_KEY"}},
        "out": str(out),
        "seed": 0,
    }))
    assert main(["gen-data", "--config", str(cfg)]) == 0
    first = json.loads((out / "base.json").read_text())["class_names"][0]
    request = DESCRIBE_TEMPLATE.format(name=first)
    path = ResponseCache(str(out / "llm_cache"))._path("test-model", request)
    with open(path, "w") as fh:
        fh.write(content(request))
    capsys.readouterr()
    assert main(["search-attrs", "--config", str(cfg)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith(f"error: {message.format(path=path)}"), line


def test_cache_files_are_structured_text_without_credentials(tmp_path, monkeypatch):
    secret = "hunter2-super-secret"
    monkeypatch.setenv("PROMPTLAB_TEST_KEY", secret)
    cache = ResponseCache(str(tmp_path / "cache"))
    client, _ = offline_client(["a reply"], cache=cache)
    describe_categories(["cat"], client)
    files = os.listdir(tmp_path / "cache")
    assert len(files) == 1
    body = (tmp_path / "cache" / files[0]).read_text()
    json.loads(body)  # structured
    assert secret not in body
    assert "PROMPTLAB_TEST_KEY" not in body  # not even the variable name


def test_transport_exhaustion_is_a_remote_error():
    client, _ = offline_client(["only one"])
    with pytest.raises(RemoteError):
        describe_categories(["cat", "dog"], client)


# -- summarize step -----------------------------------------------------------------


def test_summarize_parses_a_clean_reply():
    client, transport = offline_client(["color, shape"])
    out = summarize_bases({"cat": "furry", "dog": "loyal"}, 2, client)
    assert out.bases == ("color", "shape")
    assert out.provenance == "llm"
    assert len(transport.prompts) == 1


def test_summarize_lowercases_and_strips():
    client, _ = offline_client(["  Color ,  SHAPE  "])
    assert summarize_bases({"cat": "x"}, 2, client).bases == ("color", "shape")


def test_summarize_reprompts_once_then_succeeds():
    client, transport = offline_client(["Color, color, shape", "color, shape"])
    out = summarize_bases({"cat": "x"}, 2, client)
    assert out.bases == ("color", "shape")
    assert len(transport.prompts) == 2
    assert "previous reply" in transport.prompts[1]


def test_summarize_two_bad_replies_raise_with_the_raw_text():
    client, _ = offline_client(["not enough", "still not, enough, words, here"])
    with pytest.raises(ExtractionError, match="still not"):
        summarize_bases({"cat": "x"}, 2, client)


def test_summarize_rejects_multiword_or_wrong_count_replies():
    client, _ = offline_client(["bright color, shape", "color, shape, size"])
    with pytest.raises(ExtractionError):
        summarize_bases({"cat": "x"}, 2, client)


def test_summarize_validates_inputs():
    client, _ = offline_client([])
    with pytest.raises(ParameterError):
        summarize_bases({}, 2, client)
    with pytest.raises(ParameterError):
        summarize_bases({"cat": "x"}, 0, client)


def test_full_offline_pipeline_yields_a_search_ready_base_list(tmp_path):
    cache = ResponseCache(str(tmp_path / "cache"))
    client, _ = offline_client(
        ["sleek fur and whiskers.", "feathers and a beak.", "color, texture, size"],
        cache=cache,
    )
    described = describe_categories(["cat", "bird"], client)
    bases = summarize_bases(described, 3, client)
    from promptlab.search import enumerate_pool

    assert len(enumerate_pool(bases.bases)) == 7
