import os
import pathlib
import platform
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptlab import tensor as T
from promptlab.data import LatentAttribute, TaskSpec, generate_task, subseed
from promptlab.encoders import DualEncoder, build_config_for
from promptlab.errors import ConfigError, DataError, NumericsError, ParameterError, ParseError
from promptlab.optim import SGD, Adam
from promptlab.prompts import FeaturePlan, PromptLayout, SoftPromptBank, template_rows_for
from promptlab.search import (
    MAX_BASES,
    SearchConfig,
    SearchResult,
    alternating_search,
    build_candidate_banks,
    describe_config,
    enumerate_pool,
    export_result,
    format_result,
    load_result,
    mixture_logits,
    parse_result,
    search_step,
    select_candidate,
)
from promptlab.tensor import Tensor


def search_task(seed=0, num_classes=4, samples_per_class=8):
    attrs = (
        LatentAttribute("color", ("color0", "color1", "color2", "color3")),
        LatentAttribute("shape", ("shape0",)),
    )
    spec = TaskSpec(
        latent_attributes=attrs,
        informative_attributes=("color",),
        num_classes=num_classes,
        samples_per_class=samples_per_class,
        noise_std=0.1,
        include_id_words=False,
        seed=seed,
    )
    return generate_task(spec)


def search_encoder(task, seed=0):
    cfg = build_config_for(task.vocabulary, num_layers=2)
    return DualEncoder(cfg, task.vocabulary, seed=seed)


# -- pool enumeration ---------------------------------------------------------


def test_pool_size_is_two_to_n_minus_one():
    for n in range(1, 11):
        bases = tuple(f"b{i}" for i in range(n))
        assert len(enumerate_pool(bases)) == 2**n - 1


def test_pool_order_is_size_then_index():
    pool = enumerate_pool(("x", "y", "z"))
    assert pool == [
        ("x",), ("y",), ("z",),
        ("x", "y"), ("x", "z"), ("y", "z"),
        ("x", "y", "z"),
    ]


def test_pool_singletons_come_first_in_declaration_order():
    bases = ("delta", "alpha", "echo")
    pool = enumerate_pool(bases)
    assert tuple(pool[i] for i in range(3)) == (("delta",), ("alpha",), ("echo",))


def test_pool_rejects_empty_and_oversized_base_lists():
    with pytest.raises(ConfigError):
        enumerate_pool(())
    with pytest.raises(ConfigError):
        enumerate_pool(tuple(f"b{i}" for i in range(MAX_BASES + 1)))


def test_pool_rejects_duplicates_and_names_them():
    with pytest.raises(ParameterError, match="color"):
        enumerate_pool(("color", "shape", "color"))


# -- mixture -------------------------------------------------------------------


def rand_logits(rng, n=6, c=4, grad=False):
    return Tensor(rng.standard_normal((n, c)), requires_grad=grad)


def test_mixture_matches_explicit_loop():
    rng = np.random.default_rng(0)
    per_candidate = [rand_logits(rng) for _ in range(4)]
    w = rng.dirichlet(np.ones(4))
    mixed = mixture_logits(per_candidate, w)
    expected = sum(wi * t.data for wi, t in zip(w, per_candidate))
    np.testing.assert_allclose(mixed.data, expected, atol=1e-9)


def test_mixture_one_hot_collapses_to_single_candidate():
    rng = np.random.default_rng(1)
    per_candidate = [rand_logits(rng) for _ in range(5)]
    for k in range(5):
        w = np.zeros(5)
        w[k] = 1.0
        mixed = mixture_logits(per_candidate, w)
        np.testing.assert_allclose(mixed.data, per_candidate[k].data, atol=1e-6)


def test_mixture_tensor_weights_route_gradient_to_alpha():
    rng = np.random.default_rng(2)
    per_candidate = [rand_logits(rng) for _ in range(3)]
    logits = Tensor(np.zeros(3), requires_grad=True)
    w = T.softmax(logits)
    loss = T.tsum(mixture_logits(per_candidate, w))
    loss.backward()
    assert logits.grad is not None
    assert np.abs(logits.grad).sum() > 0


def test_mixture_constant_weights_leave_candidate_grads_scaled():
    # d(mix)/d(logits_i) must be exactly w_i
    rng = np.random.default_rng(3)
    per_candidate = [rand_logits(rng, grad=True) for _ in range(3)]
    w = np.array([0.2, 0.3, 0.5])
    T.tsum(mixture_logits(per_candidate, w)).backward()
    for wi, t in zip(w, per_candidate):
        np.testing.assert_allclose(t.grad, np.full(t.shape, wi), atol=1e-12)


def test_mixture_shape_and_emptiness_errors():
    rng = np.random.default_rng(4)
    with pytest.raises(ParameterError):
        mixture_logits([], np.array([1.0]))
    with pytest.raises(ParameterError):
        mixture_logits([rand_logits(rng)], np.array([0.5, 0.5]))
    with pytest.raises(ParameterError):
        mixture_logits([rand_logits(rng)], Tensor(np.array([0.5, 0.5]), requires_grad=True))


# -- config and banks ----------------------------------------------------------


def test_search_config_rejects_prefilled_attribute_names():
    layout = PromptLayout(attribute_names=("color",))
    with pytest.raises(ConfigError):
        SearchConfig(layout=layout).validate()


def test_search_config_rejects_bad_rates_and_epochs():
    with pytest.raises(ConfigError):
        SearchConfig(theta_lr=0.0).validate()
    with pytest.raises(ConfigError):
        SearchConfig(alpha_lr=-1.0).validate()
    with pytest.raises(ConfigError):
        SearchConfig(epochs=0).validate()


def test_candidate_banks_share_one_class_block_object():
    task = search_task()
    enc = search_encoder(task)
    pool = enumerate_pool(("color", "shape"))
    banks = build_candidate_banks(pool, SearchConfig(), enc)
    blocks = {id(b.class_block) for b in banks.values()}
    assert len(blocks) == 1


def test_shared_class_block_starts_as_a_stand_alone_class_block():
    task = search_task()
    enc = search_encoder(task)
    cfg = SearchConfig()
    banks = build_candidate_banks(enumerate_pool(("color", "shape")), cfg, enc)
    alone = SoftPromptBank.create(
        embed_dim=enc.config.embed_dim, soft_len=cfg.soft_len,
        seed=subseed(cfg.seed, "search.banks"), scheme=cfg.init_scheme,
        template_rows=template_rows_for(enc))
    for bank in banks.values():
        assert bank.class_block.data.tobytes() == alone.class_block.data.tobytes()


def test_candidate_banks_key_attribute_blocks_by_content():
    # the same base word gets the same initial block in every candidate
    task = search_task()
    enc = search_encoder(task)
    pool = enumerate_pool(("color", "shape"))
    banks = build_candidate_banks(pool, SearchConfig(), enc)
    solo = banks[("color",)].attribute_blocks["color"].data
    pair = banks[("color", "shape")].attribute_blocks["color"].data
    np.testing.assert_array_equal(solo, pair)


def test_candidate_bank_init_survives_base_permutation():
    task = search_task()
    enc = search_encoder(task)
    fwd = build_candidate_banks(enumerate_pool(("color", "shape")), SearchConfig(), enc)
    rev = build_candidate_banks(enumerate_pool(("shape", "color")), SearchConfig(), enc)
    np.testing.assert_array_equal(
        fwd[("color",)].attribute_blocks["color"].data,
        rev[("color",)].attribute_blocks["color"].data,
    )
    np.testing.assert_array_equal(
        fwd[("color", "shape")].attribute_blocks["shape"].data,
        rev[("shape", "color")].attribute_blocks["shape"].data,
    )


# -- alternation ----------------------------------------------------------------


def test_alternating_search_returns_valid_result():
    task = search_task()
    enc = search_encoder(task)
    cfg = SearchConfig(epochs=1, batch_size=16)
    res = alternating_search(task, ("color", "shape"), cfg, enc)
    assert res.candidates == tuple(enumerate_pool(("color", "shape")))
    assert res.weights.shape == (3,)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert res.selected in res.candidates


def test_alternating_search_is_deterministic():
    runs = []
    for _ in range(2):
        task = search_task()
        enc = search_encoder(task)
        cfg = SearchConfig(epochs=1, batch_size=16)
        runs.append(alternating_search(task, ("color", "shape"), cfg, enc))
    np.testing.assert_array_equal(runs[0].weights, runs[1].weights)
    assert runs[0].selected == runs[1].selected


def test_alternating_search_moves_alpha_and_theta():
    task = search_task()
    enc = search_encoder(task)
    cfg = SearchConfig(epochs=1, batch_size=16)
    pool = enumerate_pool(("color", "shape"))
    before = build_candidate_banks(pool, cfg, enc)
    res = alternating_search(task, ("color", "shape"), cfg, enc)
    assert np.abs(res.weights - 1 / 3).max() > 1e-6  # alpha left uniform
    after = build_candidate_banks(pool, cfg, enc)
    np.testing.assert_array_equal(  # a fresh build reproduces the init ...
        before[("color",)].attribute_blocks["color"].data,
        after[("color",)].attribute_blocks["color"].data,
    )


def test_alternating_search_empty_split_is_data_error():
    task = search_task()
    enc = search_encoder(task)
    xv, yv = task.splits["val"]
    starved = replace(task, splits={**task.splits, "val": (xv[:0], yv[:0])})
    with pytest.raises(DataError):
        alternating_search(starved, ("color", "shape"), SearchConfig(epochs=1), enc)


def test_non_finite_search_loss_names_its_step():
    task = search_task()
    enc = search_encoder(task)
    encode_image, batches = enc.encode_image, []

    def poisoned(x):
        batches.append(x)
        # the third image batch is the alpha half of the second step
        return encode_image(x * np.nan if len(batches) == 3 else x)

    enc.encode_image = poisoned
    with pytest.raises(NumericsError, match=r"^non-finite loss at epoch 0, batch 1: "
                                            r"\w+ produced non-finite values$"):
        alternating_search(task, ("color", "shape"), SearchConfig(epochs=1, batch_size=4), enc)


class ThetaSpy:
    """Theta optimizer stand-in that snapshots the soft blocks once the alpha step is done."""

    def __init__(self, params):
        self.params = params
        self.after_alpha = None

    def zero_grad(self):
        self.after_alpha = ([p.grad.copy() for p in self.params],
                            [p.data.copy() for p in self.params])

    def step(self):
        pass


def one_step_setup(task, enc, bases=("color", "shape"), batch_rows=8):
    pool = enumerate_pool(bases)
    banks = build_candidate_banks(pool, SearchConfig(), enc)
    candidates = [(banks[c], PromptLayout(attribute_names=c)) for c in pool]
    params = list({id(p): p for b in banks.values() for p in b.parameters()}.values())
    alpha = Tensor(np.zeros(len(pool)), requires_grad=True, name="alpha")
    x, y = task.split("train")
    batch = (x[:batch_rows], y[:batch_rows])
    return FeaturePlan(enc, candidates, task.class_names), params, alpha, batch


def test_alpha_step_writes_no_gradient_into_soft_blocks():
    task = search_task()
    enc = search_encoder(task)
    plan, params, alpha, batch = one_step_setup(task, enc)
    before = [p.data.copy() for p in params]
    spy = ThetaSpy(params)
    search_step(enc, plan, alpha, Adam([alpha], lr=0.05), spy, batch, batch)
    grads, data = spy.after_alpha
    assert np.abs(alpha.data).max() > 0  # the alpha step did run
    for p, g, d, d0 in zip(params, grads, data, before):
        assert not g.any(), f"alpha step wrote a gradient into {p.name}"
        np.testing.assert_array_equal(d, d0)


# measured: prompts composed once per search, one text forward per step over
# one row stack of every prompt, two fused ops per encoder block, a
# read-out-only last block, and one softmax of alpha and one scoring product
# per half-step
OPS_PER_TOY_STEP = 46


def test_search_step_op_count_stays_low(monkeypatch):
    # one alpha+theta step of the toy search; a regression in op count shows
    # here without timing noise (3 candidates, 4 classes, 2 layers, 4 heads)
    task = search_task()
    enc = search_encoder(task)
    plan, params, alpha, batch = one_step_setup(task, enc)
    alpha_opt, theta_opt = Adam([alpha], lr=0.05), SGD(params, lr=0.05)
    search_step(enc, plan, alpha, alpha_opt, theta_opt, batch, batch)
    ops = []
    make = T._make

    def counting(data, parents, vjp, op):
        ops.append(op)
        return make(data, parents, vjp, op)

    monkeypatch.setattr(T, "_make", counting)
    search_step(enc, plan, alpha, alpha_opt, theta_opt, batch, batch)
    assert len(ops) <= OPS_PER_TOY_STEP, f"{len(ops)} ops per step"
    assert "embedding" not in ops  # the first step filled the encoder's hard-row cache


# warm search15-sized steps (15 candidates, 8 classes, a 32-dim one-head
# encoder) in a fresh process; prints the minor page faults per step
WARM_STEP_FAULTS_RUN = """
import resource

from promptlab.data import LatentAttribute, TaskSpec, generate_task
from promptlab.encoders import DualEncoder, build_config_for
from promptlab.optim import SGD, Adam
from promptlab.search import search_step
from test_search import one_step_setup

bases = ("color", "shape", "size", "texture")
attrs = (LatentAttribute("color", tuple(f"color{i}" for i in range(8))),
         *(LatentAttribute(b, (b + "0",)) for b in bases[1:]))
task = generate_task(TaskSpec(
    num_classes=8, samples_per_class=32, latent_attributes=attrs,
    informative_attributes=("color",), include_id_words=False, feature_map="identity",
    raw_feature_dim=32, embed_dim=32, seed=300))
enc = DualEncoder(build_config_for(task.vocabulary, num_heads=1, joint_dim=32, image_dim=32,
                                   image_hidden_dim=32), task.vocabulary, seed=0)
plan, params, alpha, batch = one_step_setup(task, enc, bases, batch_rows=32)
alpha_opt, theta_opt = Adam([alpha], lr=0.05), SGD(params, lr=0.05)


def steps(n):
    for _ in range(n):
        search_step(enc, plan, alpha, alpha_opt, theta_opt, batch, batch)


steps(3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
steps(5)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is glibc's")
def test_warm_search_steps_reuse_freed_memory():
    # a step frees its whole graph; with glibc's default thresholds the next
    # step faulted about 1,300 pages back in, zero-filled
    tests = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    proc = subprocess.run([sys.executable, "-c", WARM_STEP_FAULTS_RUN],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    faults = float(proc.stdout.split()[-1])
    assert faults < 50, f"{faults} minor page faults per warm search step"


# -- selection and validation ------------------------------------------------------


def test_select_candidate_breaks_ties_toward_lowest_index():
    pool = enumerate_pool(("a", "b"))
    w = np.array([0.4, 0.4, 0.2])
    assert select_candidate(pool, w) == ("a",)


def test_result_rejects_non_canonical_pool():
    with pytest.raises(DataError):
        SearchResult(
            bases=("a", "b"),
            candidates=(("b",), ("a",), ("a", "b")),
            weights=np.array([0.5, 0.3, 0.2]),
            selected=("b",),
        ).validate()


def test_result_rejects_weight_shape_and_negative_mass():
    pool = tuple(enumerate_pool(("a", "b")))
    with pytest.raises(DataError):
        SearchResult(("a", "b"), pool, np.array([0.5, 0.5]), ("a",)).validate()
    with pytest.raises(DataError):
        SearchResult(("a", "b"), pool, np.array([-0.1, 0.6, 0.5]), ("b",)).validate()


def test_result_rejects_selected_outside_pool_or_below_max():
    pool = tuple(enumerate_pool(("a", "b")))
    w = np.array([0.6, 0.3, 0.1])
    with pytest.raises(DataError):
        SearchResult(("a", "b"), pool, w, ("c",)).validate()
    with pytest.raises(DataError):
        SearchResult(("a", "b"), pool, w, ("b",)).validate()


# -- result files -----------------------------------------------------------------


def toy_result(n=3):
    bases = tuple("xyz"[:n])
    pool = tuple(enumerate_pool(bases))
    rng = np.random.default_rng(5)
    w = rng.dirichlet(np.ones(len(pool)))
    return SearchResult(bases, pool, w, tuple(pool[int(np.argmax(w))]), config_hash="abc123")


def test_format_writes_three_decimal_weights():
    text = format_result(toy_result())
    for line in text.splitlines():
        if "weight:" in line:
            value = line.rsplit(":", 1)[1].strip()
            whole, _, frac = value.partition(".")
            assert len(frac) == 3


def test_rounded_weight_column_still_sums_to_one():
    res = toy_result(3)
    total = sum(
        float(line.rsplit(":", 1)[1])
        for line in format_result(res).splitlines()
        if "weight:" in line
    )
    assert total == pytest.approx(1.0, abs=0.01)


def test_export_then_load_round_trips_to_stored_precision(tmp_path):
    res = toy_result()
    path = tmp_path / "weights.txt"
    export_result(res, str(path))
    back = load_result(str(path))
    assert back.bases == res.bases
    assert back.candidates == res.candidates
    assert back.selected == res.selected
    assert back.config_hash == res.config_hash
    np.testing.assert_allclose(back.weights, np.round(res.weights, 3), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    bases=st.lists(st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=8),
                   min_size=1, max_size=4, unique=True),
    config_hash=st.one_of(st.just(""), st.text("0123456789abcdef", min_size=1, max_size=16)),
    data=st.data(),
)
def test_parse_of_format_returns_the_result(bases, config_hash, data):
    # any valid pool, with weights already at the three decimals the format stores
    pool = tuple(enumerate_pool(bases))
    raw = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(pool),
                                      max_size=len(pool)).filter(lambda w: sum(w) > 0)))
    weights = np.round(raw / raw.sum(), 3)
    result = SearchResult(tuple(bases), pool, weights, select_candidate(pool, weights),
                          config_hash).validate()
    back = parse_result(format_result(result))
    assert (back.bases, back.candidates, back.selected, back.config_hash) == (
        result.bases, result.candidates, result.selected, result.config_hash)
    np.testing.assert_array_equal(back.weights, result.weights)


def test_parse_rejects_malformed_rows_with_location():
    res = toy_result()
    text = format_result(res).replace("selected:", "chosen:", 1)
    with pytest.raises(ParseError):
        parse_result(text, path="w.txt")
    bad = format_result(res) + "garbage line\n"
    with pytest.raises(ParseError, match="w.txt:"):
        parse_result(bad, path="w.txt")


def test_parse_rejects_wrong_kind_version_and_pool_size():
    text = format_result(toy_result())
    with pytest.raises(ParseError):
        parse_result(text.replace("# kind: search_result", "# kind: other"))
    with pytest.raises(ParseError):
        parse_result(text.replace("# format_version: 1", "# format_version: 9"))
    with pytest.raises(ParseError):
        parse_result(text.replace("# pool_size: 7", "# pool_size: 5"))


def test_load_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        load_result(str(tmp_path / "absent.txt"))


def test_describe_config_is_stable_and_seed_sensitive():
    a = describe_config(SearchConfig())
    b = describe_config(SearchConfig())
    c = describe_config(SearchConfig(seed=1))
    assert a == b
    assert a != c
