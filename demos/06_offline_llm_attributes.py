"""Attribute bases from three sources: bundled fixtures, an LLM, or your own list.

The LLM path is shown fully offline against a mock transport. The real
transport posts a chat-completions payload to whatever endpoint the config
names and reads the API key from an environment variable at request time; the
key is never stored in configs, caches, or logs.
"""

import tempfile

from promptlab.attributes import (
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

############## bundled tables ##############
print("bundled datasets:", ", ".join(sorted(fixture_datasets())))
row = fixture_bases("caltech101")
print("caltech101 bases:   ", row.bases)
print("caltech101 searched:", row.searched)

weights = fixture_search_result()
top = max(zip(weights.weights, weights.candidates))
print(f"bundled weight table: {len(weights.candidates)} rows, top {top[1]} at {top[0]:.3f}")

############## the two-step LLM recipe, offline ##############
# Step 1 asks for a one-line visual description per class; step 2 asks for
# exactly N comma-separated attribute bases over all descriptions. A malformed
# reply gets one reprompt that quotes the previous answer before failing hard.

transport = MockTransport([
    "small songbird with a bright chest",
    "large raptor with broad wings",
    "color, size, habitat",
])
config = LlmClientConfig(endpoint="https://api.example.com/v1/chat", model="any-chat-model")

with tempfile.TemporaryDirectory() as cache_dir:
    client = LlmClient(config, transport=transport, cache=ResponseCache(cache_dir))
    described = describe_categories(["robin", "eagle"], client)
    for name, text in sorted(described.items()):
        print(f"  {name}: {text}")
    bases = summarize_bases(described, 3, client, dataset_name="birds2")
    print("extracted bases:", bases.bases, f"(provenance: {bases.provenance})")

    # every request was cached, so a dead transport replays both steps
    offline = LlmClient(config, transport=MockTransport([]), cache=ResponseCache(cache_dir))
    again = summarize_bases(describe_categories(["robin", "eagle"], offline), 3, offline,
                            dataset_name="birds2")
    print("served from cache:", again == bases)
