import struct

import numpy as np
import pytest

from fedsim.data import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    label_histogram,
    load_idx,
    make_blobs,
    partition_by_similarity,
    partition_indices,
)

from checks import write_idx


def test_idx_round_trip(tmp_path):
    features, labels = make_blobs(120, 3, 5, seed=0)
    images = str(tmp_path / "images.idx")
    names = str(tmp_path / "labels.idx")
    write_idx(images, names, features, labels)
    loaded_features, loaded_labels = load_idx(images, names)
    np.testing.assert_array_equal(loaded_features, features)
    np.testing.assert_array_equal(loaded_labels, labels)


def test_idx_bad_magic(tmp_path):
    images = tmp_path / "images.idx"
    names = tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 0, 1, 1))
    names.write_bytes(struct.pack(">II", LABEL_MAGIC, 0))
    with pytest.raises(ValueError, match="bad magic"):
        load_idx(str(images), str(names))


@pytest.mark.parametrize("image_bytes, label_bytes, expected", [
    (struct.pack(">III", IMAGE_MAGIC, 10, 1), struct.pack(">II", LABEL_MAGIC, 0),
     "expected at least 16"),
    (struct.pack(">IIII", IMAGE_MAGIC, 10, 1, 4) + b"\x00" * 39,
     struct.pack(">II", LABEL_MAGIC, 10) + b"\x00" * 10, "expected 56"),
    (struct.pack(">IIII", IMAGE_MAGIC, 2, 1, 3) + b"\x00" * 7,
     struct.pack(">II", LABEL_MAGIC, 2) + b"\x00" * 2, "expected 22"),
    (struct.pack(">IIII", IMAGE_MAGIC, 2, 1, 3) + b"\x00" * 6,
     struct.pack(">II", LABEL_MAGIC, 2) + b"\x00" * 3, "expected 10"),
], ids=["short-header", "short-payload", "long-image-payload", "long-label-payload"])
def test_idx_truncation(tmp_path, image_bytes, label_bytes, expected):
    images = tmp_path / "images.idx"
    names = tmp_path / "labels.idx"
    images.write_bytes(image_bytes)
    names.write_bytes(label_bytes)
    with pytest.raises(ValueError, match=f"truncated or oversized .*{expected}\\)"):
        load_idx(str(images), str(names))


def test_idx_count_mismatch(tmp_path):
    images = tmp_path / "images.idx"
    names = tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", IMAGE_MAGIC, 2, 1, 3) + b"\x00" * 6)
    names.write_bytes(struct.pack(">II", LABEL_MAGIC, 3) + b"\x00" * 3)
    with pytest.raises(ValueError, match="count mismatch"):
        load_idx(str(images), str(names))


def test_blobs_are_deterministic_and_quantized():
    a_feats, a_labels = make_blobs(200, 4, 6, seed=5)
    b_feats, b_labels = make_blobs(200, 4, 6, seed=5)
    np.testing.assert_array_equal(a_feats, b_feats)
    np.testing.assert_array_equal(a_labels, b_labels)
    assert a_feats.min() >= 0.0 and a_feats.max() <= 1.0
    np.testing.assert_array_equal(a_feats, np.rint(a_feats * 255) / 255.0)
    other = make_blobs(200, 4, 6, seed=5, stream_index=2)[0]
    assert not np.array_equal(a_feats, other)


def test_blobs_validation():
    with pytest.raises(ValueError):
        make_blobs(0, 2, 4, seed=0)
    with pytest.raises(ValueError):
        make_blobs(10, 1, 4, seed=0)
    with pytest.raises(ValueError, match="too small"):
        make_blobs(10, 5, 2, seed=0)


def test_partition_preserves_every_sample():
    labels = np.repeat(np.arange(10), 100)
    shards = partition_indices(labels, 7, similarity=30.0, seed=1)
    sizes = sorted(len(s) for s in shards)
    assert sum(sizes) == 1000
    assert sizes[-1] - sizes[0] <= 1
    assert sorted(np.concatenate(shards).tolist()) == list(range(1000))


def test_partition_fully_sorted_at_zero_similarity():
    labels = np.repeat(np.arange(10), 100)
    shards = partition_indices(labels, 10, similarity=0.0, seed=3)
    for idx in shards:
        assert len(np.unique(labels[idx])) <= 2


def test_partition_fully_mixed_at_full_similarity():
    labels = np.repeat(np.arange(5), 200)
    shards = partition_indices(labels, 4, similarity=100.0, seed=3)
    for idx in shards:
        counts = np.bincount(labels[idx], minlength=5) / len(idx)
        # total variation distance to the global label distribution
        assert 0.5 * np.abs(counts - 0.2).sum() < 0.1


def test_partition_is_seed_deterministic():
    labels = np.repeat(np.arange(4), 25)
    a = partition_indices(labels, 5, 40.0, seed=9)
    b = partition_indices(labels, 5, 40.0, seed=9)
    for left, right in zip(a, b):
        np.testing.assert_array_equal(left, right)
    c = partition_indices(labels, 5, 40.0, seed=10)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_partition_by_similarity_groups_features_with_labels():
    features, labels = make_blobs(300, 3, 4, seed=7)
    shards = partition_by_similarity(features, labels, 6, 50.0, seed=7)
    for feats, shard_labels in shards:
        assert len(feats) == len(shard_labels)
        # every (feature row, label) pair must exist in the source data
        for row, lab in zip(feats[:3], shard_labels[:3]):
            matches = np.where((features == row).all(axis=1))[0]
            assert any(labels[m] == lab for m in matches)


def test_label_histogram_counts():
    rows = label_histogram([np.array([0, 0, 2]), np.array([1])])
    assert rows == [(0, 0, 2), (0, 2, 1), (1, 1, 1)]
