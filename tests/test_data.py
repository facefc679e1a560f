import os
import re
from dataclasses import replace

import numpy as np
import pytest

from promptlab.data import (
    LatentAttribute,
    Task,
    TaskSpec,
    default_attributes,
    generate_task,
    make_base_novel_task,
)
from promptlab.errors import DataError


def small_spec(**kw):
    defaults = dict(num_classes=8, samples_per_class=8, seed=11)
    defaults.update(kw)
    return TaskSpec(**defaults)


def signatures(task):
    """Each class's signature, read from its name: one value per latent attribute, in
    declaration order, then the id word."""
    names = [a.name for a in task.spec.latent_attributes]
    return [dict(zip(names, class_name.split())) for class_name in task.class_names]


def prototypes(spec):
    """Each class's image prototype: its samples in the noise-free twin of ``spec``."""
    x, y = generate_task(replace(spec, noise_std=0.0)).split("train")
    return np.stack([x[y == c][0] for c in range(spec.num_classes)])


# -- spec validation -----------------------------------------------------------


def test_spec_rejects_single_class():
    with pytest.raises(DataError):
        TaskSpec(num_classes=1).validate()


def test_spec_rejects_unknown_informative_attribute():
    with pytest.raises(DataError):
        TaskSpec(informative_attributes=("weight",)).validate()


def test_spec_rejects_undersized_signature_space():
    attrs = (LatentAttribute("color", ("color0", "color1")),)
    with pytest.raises(DataError):
        TaskSpec(
            num_classes=4, latent_attributes=attrs, informative_attributes=("color",)
        ).validate()


@pytest.mark.parametrize("name, value, bad", [
    ("color", "red car", "red car"), ("Color", "red", "Color"), ("color", "Red", "Red"),
    ("color", "", ""), ("color", " red", " red"), ("color", 7, 7),
], ids=["two_words", "capital_name", "capital_value", "empty", "padded", "number"])
def test_spec_rejects_attribute_words_the_vocabulary_cannot_read(name, value, bad):
    # the vocabulary lowercases text and splits it on whitespace
    attrs = (LatentAttribute(name, ("blue", value)), LatentAttribute("shape", ("round", "square")))
    with pytest.raises(DataError, match=f"one lowercase word, got {re.escape(repr(bad))}$"):
        TaskSpec(num_classes=2, latent_attributes=attrs,
                 informative_attributes=(name,)).validate()


def test_spec_rejects_out_of_range_signal():
    with pytest.raises(DataError):
        TaskSpec(attribute_signal=1.5).validate()


def test_spec_round_trip():
    spec = small_spec()
    clone = TaskSpec.from_dict(spec.to_dict())
    assert clone == spec


# -- generation ----------------------------------------------------------------


def test_zero_noise_samples_equal_prototypes():
    spec = small_spec()
    protos = prototypes(spec)
    np.testing.assert_allclose(np.linalg.norm(protos, axis=1), 1.0)
    assert len({row.tobytes() for row in protos}) == spec.num_classes
    twin = generate_task(replace(spec, noise_std=0.0))
    for split in ("train", "val", "test"):
        x, y = twin.split(split)
        np.testing.assert_array_equal(x, protos[y])
    # the noisy task scatters its samples around the same prototypes
    x, y = generate_task(spec).split("train")
    assert abs((x - protos[y]).std() - spec.noise_std) < 0.01


def test_same_seed_bitwise_identical():
    a = generate_task(small_spec())
    b = generate_task(small_spec())
    for split in ("train", "val", "test"):
        np.testing.assert_array_equal(a.split(split)[0], b.split(split)[0])
        np.testing.assert_array_equal(a.split(split)[1], b.split(split)[1])
    assert a.class_names == b.class_names
    np.testing.assert_array_equal(a.vocabulary.vectors, b.vocabulary.vectors)


def test_different_seed_differs():
    a = generate_task(small_spec(seed=1))
    b = generate_task(small_spec(seed=2))
    assert not np.array_equal(a.split("train")[0], b.split("train")[0])


def test_nearest_prototype_oracle_is_perfect_at_low_noise():
    task = generate_task(small_spec(noise_std=0.05))
    x, y = task.split("test")
    d2 = ((x[:, None, :] - prototypes(task.spec)[None, :, :]) ** 2).sum(axis=2)
    assert (d2.argmin(axis=1) == y).all()


def test_informative_signatures_are_unique():
    task = generate_task(small_spec())
    sigs = [tuple(sig[n] for n in task.spec.informative_attributes) for sig in signatures(task)]
    assert len(set(sigs)) == len(sigs) == task.num_classes


def test_class_names_are_full_signatures_plus_id_and_equal_length():
    task = generate_task(small_spec())
    lengths = set()
    attrs = task.spec.latent_attributes
    for name in task.class_names:
        words = name.split()
        assert len(words) == len(attrs) + 1
        assert all(word in attr.values for word, attr in zip(words, attrs))
        assert words[-1].startswith("id")
        lengths.add(len(words))
    assert len(lengths) == 1


def test_class_names_without_id_words_are_signature_values_only():
    task = generate_task(replace(small_spec(), include_id_words=False))
    attrs = task.spec.latent_attributes
    for name in task.class_names:
        words = name.split()
        assert len(words) == len(attrs)
        assert all(word in attr.values for word, attr in zip(words, attrs))
    # prototypes still carry the id-keyed offset even when names omit the word
    assert len(set(task.class_names)) == task.num_classes


def test_vocabulary_covers_all_emitted_words():
    task = generate_task(small_spec())
    for name in task.class_names + [a.name for a in task.spec.latent_attributes]:
        task.vocabulary.encode(name)  # must not raise


def test_value_words_cluster_around_their_base_word():
    task = generate_task(small_spec())
    v = task.vocabulary
    hits = 0
    total = 0
    for attr in task.spec.latent_attributes:
        base_vec = v.vectors[v.id_of(attr.name)]
        other = [v.vectors[v.id_of(a.name)] for a in task.spec.latent_attributes
                 if a.name != attr.name]
        for value in attr.values:
            vec = v.vectors[v.id_of(value)]
            own = vec @ base_vec
            best_other = max(vec @ o for o in other)
            total += 1
            hits += own > best_other
    assert hits / total > 0.95


def test_splits_are_disjoint_and_balanced():
    task = generate_task(small_spec(samples_per_class=6))
    seen = set()
    for split in ("train", "val", "test"):
        x, y = task.split(split)
        assert len(y) == 6 * task.num_classes
        assert np.bincount(y, minlength=task.num_classes).tolist() == [6] * task.num_classes
        for row in x:
            key = row.tobytes()
            assert key not in seen
            seen.add(key)


def test_a_missing_or_empty_split_is_a_data_error_naming_it():
    task = generate_task(small_spec())
    x, y = task.split("val")
    starved = replace(task, splits={"train": task.splits["train"], "val": (x[:0], y[:0])})
    assert starved.split("train") is task.splits["train"]
    for name in ("test", "val"):  # missing, then empty
        with pytest.raises(DataError, match=f"^task has no rows in split '{name}'$"):
            starved.split(name)


def test_linear_probe_recovers_informative_values():
    # least-squares probe on raw features must read informative values at >= 95%
    task = generate_task(small_spec(noise_std=0.1, samples_per_class=24))
    x_train, y_train = task.split("train")
    x_test, y_test = task.split("test")
    sigs = signatures(task)
    for attr_name in task.spec.informative_attributes:
        values = sorted({sig[attr_name] for sig in sigs})
        index = {v: i for i, v in enumerate(values)}
        label = lambda ys: np.asarray([index[sigs[c][attr_name]] for c in ys])
        onehot = np.eye(len(values))[label(y_train)]
        design = np.hstack([x_train, np.ones((len(x_train), 1))])
        w, *_ = np.linalg.lstsq(design, onehot, rcond=None)
        pred = (np.hstack([x_test, np.ones((len(x_test), 1))]) @ w).argmax(axis=1)
        accuracy = (pred == label(y_test)).mean()
        assert accuracy >= 0.95, f"{attr_name} probe accuracy {accuracy:.3f}"


# -- base / novel -------------------------------------------------------------------


def test_base_novel_names_and_signatures_disjoint():
    base, novel = make_base_novel_task(small_spec())
    assert not set(base.class_names) & set(novel.class_names)
    key = lambda task: {
        tuple(sig[n] for n in task.spec.informative_attributes) for sig in signatures(task)
    }
    assert not key(base) & key(novel)


def test_base_novel_sizes_follow_ceiling_rule():
    base, novel = make_base_novel_task(small_spec(num_classes=7))
    assert base.num_classes == 4 and novel.num_classes == 3


def test_base_novel_share_vocabulary():
    base, novel = make_base_novel_task(small_spec())
    assert base.vocabulary.words == novel.vocabulary.words
    np.testing.assert_array_equal(base.vocabulary.vectors, novel.vocabulary.vectors)


def test_base_novel_requires_four_classes():
    with pytest.raises(DataError):
        make_base_novel_task(small_spec(num_classes=3, informative_attributes=("color",)))


def test_sliced_labels_are_reindexed():
    base, novel = make_base_novel_task(small_spec())
    for task in (base, novel):
        for split in ("train", "test"):
            _, y = task.split(split)
            assert y.min() == 0 and y.max() == task.num_classes - 1


# -- persistence -----------------------------------------------------------------------


def test_dataset_file_round_trip(tmp_path):
    task = generate_task(small_spec())
    path = os.path.join(tmp_path, "task.json")
    task.save(path)
    clone = Task.load(path, expected_spec=task.spec)
    assert clone.class_names == task.class_names
    for split in ("train", "val", "test"):
        np.testing.assert_array_equal(clone.split(split)[0], task.split(split)[0])
        np.testing.assert_array_equal(clone.split(split)[1], task.split(split)[1])


def test_dataset_load_rejects_spec_mismatch(tmp_path):
    task = generate_task(small_spec())
    path = os.path.join(tmp_path, "task.json")
    task.save(path)
    with pytest.raises(DataError):
        Task.load(path, expected_spec=small_spec(seed=99))


def test_dataset_load_rejects_wrong_kind(tmp_path):
    path = os.path.join(tmp_path, "junk.json")
    with open(path, "w") as fh:
        fh.write('{"kind": "other", "format_version": 1}')
    with pytest.raises(DataError):
        Task.load(path)
