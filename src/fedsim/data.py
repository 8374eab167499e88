"""Dataset IO, synthetic classification data, and the similarity partition.

The on-disk container is the classic big-endian IDX pair (images +
labels), which `load_idx` reads. Partitioning splits one labeled dataset
into N client shards where s% of each shard comes from a shuffled i.i.d.
pool and the rest from a label-sorted pool taken contiguously, which
concentrates each client on few labels as s shrinks.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile

import numpy as np

from .core import gaussians_from, rng_stream

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

_BLOB_LOW = 60.0
_BLOB_HIGH = 195.0
_BLOB_NOISE = 18.0


def _read_idx(path: str, kind: str, magic: int, n_dims: int) -> tuple[list[int], np.ndarray]:
    """One IDX file's dimensions and its uint8 payload, after checking the
    header length, the magic number and that the size is exact."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = 4 * (1 + n_dims)
    if len(blob) < header:
        raise ValueError(f"truncated or oversized IDX file: {path} "
                         f"({len(blob)} bytes, expected at least {header})")
    found, *dims = struct.unpack(f">{1 + n_dims}I", blob[:header])
    if found != magic:
        raise ValueError(f"bad magic in {kind} file {path}: 0x{found:08x}")
    expected = header + math.prod(dims)
    if len(blob) != expected:
        raise ValueError(f"truncated or oversized IDX file: {path} "
                         f"({len(blob)} bytes, expected {expected})")
    return dims, np.frombuffer(blob, dtype=np.uint8, offset=header)


def load_idx(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load an IDX image/label pair; pixels are scaled to [0, 1]."""
    (count, rows, cols), pixels = _read_idx(images_path, "image", IMAGE_MAGIC, 3)
    features = (pixels.astype(float) / 255.0).reshape(count, rows * cols)
    (label_count,), labels = _read_idx(labels_path, "label", LABEL_MAGIC, 1)
    labels = labels.astype(np.int64)
    if count != label_count:
        raise ValueError(f"image/label count mismatch: {count} images, {label_count} labels")
    return features, labels


def atomic_write(path: str, payload: bytes) -> None:
    """Replace `path` with `payload` by renaming a finished file over it.

    The unfinished file sits beside the target as a hidden `.<name>-*`, and
    is removed if the write fails."""
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{name}-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def make_blobs(n_samples: int, n_classes: int, n_features: int, seed: int,
               stream_index: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic byte-quantized Gaussian blobs, one cluster per class.

    Class centers sit on distinct corners of a hypercube whose edge is far
    wider than the noise, so the classes are linearly separable with rare
    exceptions. Returned features lie in [0, 1] on the 1/255 grid. A
    different stream_index gives an independent draw for the same seed,
    which is how held-out sets are made.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1.")
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2.")
    if n_features < 1 or 2 ** min(n_features, 40) < n_classes:
        raise ValueError("n_features too small to separate n_classes clusters.")
    rng = rng_stream(seed, "partition", 0, stream_index)
    corners: list[tuple[int, ...]] = []
    attempts = 0
    while len(corners) < n_classes:
        bits = tuple(int(b) for b in rng.random(n_features) < 0.5)
        attempts += 1
        if attempts > 10000:
            raise ValueError("could not find distinct cluster corners; increase n_features.")
        if bits not in corners:
            corners.append(bits)
    centers = _BLOB_LOW + (_BLOB_HIGH - _BLOB_LOW) * np.array(corners, dtype=float)
    labels = np.arange(n_samples, dtype=np.int64) % n_classes
    noise = gaussians_from(rng.random(n_samples * n_features), _BLOB_NOISE).reshape(n_samples, n_features)
    pixels = np.clip(np.rint(centers[labels] + noise), 0, 255)
    return pixels / 255.0, labels


def partition_indices(labels: np.ndarray, n_clients: int, similarity: float, seed: int) -> list[np.ndarray]:
    """Assign sample indices to clients under the similarity protocol.

    Each client's quota of round(s% * shard size) samples comes from a
    uniformly selected, shuffled pool; the rest are dealt contiguously from
    the remaining samples sorted by label (stable sort). Clients are indexed
    in the order they consume the sorted pool, so consecutive clients cover
    consecutive label ranges when s is small.
    """
    labels = np.asarray(labels)
    total = len(labels)
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1.")
    if n_clients > total:
        raise ValueError(f"cannot split {total} samples across {n_clients} clients.")
    if not 0 <= similarity <= 100:
        raise ValueError("similarity is a percentage in [0, 100].")

    base, extra = divmod(total, n_clients)
    sizes = [base + 1 if i < extra else base for i in range(n_clients)]
    quotas = [min(int(similarity / 100.0 * size + 0.5), size) for size in sizes]
    pool_size = sum(quotas)

    perm = rng_stream(seed, "partition", 0, 0).permutation(total)
    iid_pool = perm[:pool_size]
    rest = perm[pool_size:]
    sorted_pool = rest[np.argsort(labels[rest], kind="stable")]

    shards = []
    iid_at = 0
    sorted_at = 0
    for size, quota in zip(sizes, quotas):
        take_sorted = size - quota
        idx = np.concatenate([iid_pool[iid_at:iid_at + quota],
                              sorted_pool[sorted_at:sorted_at + take_sorted]])
        iid_at += quota
        sorted_at += take_sorted
        shards.append(idx.astype(np.int64))
    return shards


def partition_by_similarity(features: np.ndarray, labels: np.ndarray, n_clients: int,
                            similarity: float, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    shards = partition_indices(labels, n_clients, similarity, seed)
    return [(features[idx], labels[idx]) for idx in shards]


def label_histogram(labels: list[np.ndarray]) -> list[tuple[int, int, int]]:
    """(client, label, count) rows for every label present in each client's
    label array `labels[client]`."""
    rows = []
    for client, shard in enumerate(labels):
        values, counts = np.unique(shard, return_counts=True)
        rows.extend((client, int(v), int(c)) for v, c in zip(values, counts))
    return rows
