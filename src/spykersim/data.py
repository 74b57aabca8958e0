"""Datasets: IDX loading, synthetic blobs, non-iid partitioning, evaluation.

Features are float32 and held once: training and scoring widen the rows
they use into small float64 buffers (``models.local_training`` and
``models.predict_into``), with the same float64 values as a float64 copy of
the whole set.  Labels are int64.  All generation and partitioning is pure
given a seed.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Callable
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import (
    ConfigError,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# The longest IDX header: the magic and up to 255 dimensions.
IDX_HEADER_MAX = 4 + 4 * 255
# Pixel bytes read at a time: a file's picked rows are copied block by block.
IDX_BLOCK_BYTES = 1 << 20
# Feature bytes checked for finiteness at a time, so that the check's bool
# mask stays small beside the features.
CHECK_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class Dataset:
    """An in-memory labelled dataset; immutable after construction.

    Construction checks that every feature is finite and every label in
    range, unless ``rows_checked`` says the rows come from a checked set.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    name: str = "unnamed"
    rows_checked: InitVar[bool] = False

    def __post_init__(self, rows_checked: bool):
        X, y = self.features, self.labels
        if X.ndim != 2 or len(y) != X.shape[0]:
            raise ValueError("features must be (n, dim) with one label per row")
        if X.shape[0] == 0:
            raise ValueError("dataset must be non-empty")
        if not rows_checked:
            step = max(1, CHECK_BLOCK_BYTES // max(X[0].nbytes, 1))
            for start in range(0, X.shape[0], step):
                if not np.isfinite(X[start : start + step]).all():
                    raise ValueError("features must be finite")
            if y.min() < 0 or y.max() >= self.n_classes:
                raise ValueError(f"labels must lie in [0, {self.n_classes})")
        X.setflags(write=False)
        y.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx: np.ndarray, name: str | None = None) -> "Dataset":
        """The rows ``idx``, copied; they were checked with this set."""
        return Dataset(
            np.ascontiguousarray(self.features[idx]),
            np.ascontiguousarray(self.labels[idx]),
            self.n_classes,
            name or self.name,
            rows_checked=True,
        )


@dataclass(frozen=True)
class PartitionSpec:
    """How to carve a training set into per-client shards."""

    n_clients: int
    labels_per_client: int
    seed: int = 0

    def validate(self, n_classes: int) -> None:
        if self.n_clients < 1:
            raise ConfigError("n_clients must be >= 1")
        if not 1 <= self.labels_per_client <= n_classes:
            raise ConfigError(
                f"labels_per_client must be in [1, {n_classes}], got {self.labels_per_client}"
            )
        if self.n_clients * self.labels_per_client < n_classes:
            raise ConfigError(
                "n_clients * labels_per_client must cover all classes: "
                f"{self.n_clients} * {self.labels_per_client} < {n_classes}"
            )


def _read_idx_header(buf: bytes, path: str) -> tuple[int, list[int], int]:
    if len(buf) < 4:
        raise IdxTruncatedError(f"{path}: too short for an IDX header")
    magic = struct.unpack(">I", buf[:4])[0]
    ndim = magic & 0xFF
    if magic >> 16 != 0 or ndim == 0:
        raise IdxMagicError(f"{path}: bad IDX magic 0x{magic:08x}")
    header = 4 + 4 * ndim
    if len(buf) < header:
        raise IdxTruncatedError(f"{path}: truncated IDX dimension header")
    dims = list(struct.unpack(f">{ndim}I", buf[4:header]))
    return magic, dims, header


def load_idx(
    images_path: str,
    labels_path: str,
    pick: Callable[[np.ndarray, int], np.ndarray | None] | None = None,
    name: str = "idx",
) -> Dataset:
    """Load an IDX image/label file pair into a flat float32 dataset.

    Pixel bytes are scaled to [0, 1].  Raises IdxMagicError when a file does
    not carry the expected magic (e.g. swapped arguments), IdxTruncatedError
    when the payload is shorter than the header promises, and
    IdxCountMismatchError when the two files disagree on the sample count.

    ``pick(labels, n_classes)`` may choose the rows to keep from the whole
    file's labels (None keeps them all); only those rows are widened to
    float32.  Every check, and ``n_classes``, covers the whole file.  The
    image file is never read whole: its size is checked against its
    header, and its pixels are read a block of rows at a time.
    """
    with open(images_path, "rb") as f:
        img_head = f.read(IDX_HEADER_MAX)
        img_size = os.fstat(f.fileno()).st_size
    with open(labels_path, "rb") as f:
        lab_buf = f.read()

    img_magic, img_dims, img_off = _read_idx_header(img_head, images_path)
    if img_magic != IDX_IMAGES_MAGIC:
        raise IdxMagicError(
            f"{images_path}: expected image magic 0x{IDX_IMAGES_MAGIC:08x}, got 0x{img_magic:08x}"
        )
    lab_magic, lab_dims, lab_off = _read_idx_header(lab_buf, labels_path)
    if lab_magic != IDX_LABELS_MAGIC:
        raise IdxMagicError(
            f"{labels_path}: expected label magic 0x{IDX_LABELS_MAGIC:08x}, got 0x{lab_magic:08x}"
        )

    n = img_dims[0]
    dim = int(np.prod(img_dims[1:])) if len(img_dims) > 1 else 1
    if img_size - img_off < n * dim:
        raise IdxTruncatedError(f"{images_path}: expected {n * dim} pixel bytes")
    if len(lab_buf) - lab_off < lab_dims[0]:
        raise IdxTruncatedError(f"{labels_path}: expected {lab_dims[0]} label bytes")
    if lab_dims[0] != n:
        raise IdxCountMismatchError(
            f"{images_path} has {n} samples but {labels_path} has {lab_dims[0]}"
        )

    y = np.frombuffer(lab_buf, dtype=np.uint8, count=n, offset=lab_off).astype(np.int64)
    n_classes = int(y.max()) + 1 if n else 0
    rows = None if pick is None else pick(y, n_classes)
    if rows is None:
        rows = np.arange(n)
    X = _read_pixel_rows(images_path, img_off, n, dim, rows)
    X /= np.float32(255.0)
    return Dataset(X, y[rows], n_classes, name=name)


def _read_pixel_rows(path: str, offset: int, n: int, dim: int, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of the (n, dim) uint8 pixels at ``offset`` in the
    file, as float32, read a block of at most ``IDX_BLOCK_BYTES`` at a
    time; a block that holds none of the rows is skipped."""
    order = np.argsort(rows, kind="stable")
    wanted = rows[order]
    X = np.empty((len(rows), dim), np.float32)
    step = max(1, IDX_BLOCK_BYTES // max(dim, 1))
    block = np.empty((step, dim), np.uint8)
    lo = 0
    with open(path, "rb") as f:
        for start in range(0, n, step):
            hi = int(np.searchsorted(wanted, start + step))
            if hi == lo:
                continue
            m = min(step, n - start)
            f.seek(offset + start * dim)
            if f.readinto(block[:m]) != m * dim:
                raise IdxTruncatedError(f"{path}: expected {n * dim} pixel bytes")
            X[order[lo:hi]] = block[wanted[lo:hi] - start]
            lo = hi
    return X


def synthetic_dataset(
    seed: int | np.random.Generator,
    n_samples: int,
    dim: int,
    n_classes: int,
    separation: float,
    name: str | None = None,
) -> Dataset:
    """Balanced Gaussian blobs around centroids whose closest pair is exactly
    `separation` apart.

    Centroids are sampled standard normal and rescaled as a set, so blob std
    1 makes `separation` a direct control of class overlap: the hardest pair
    has Bayes error Phi(-separation / 2).
    """
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if separation <= 0:
        raise ValueError("separation must be > 0")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    while True:
        C = rng.normal(size=(n_classes, dim))
        gaps = np.linalg.norm(C[:, None, :] - C[None, :, :], axis=-1)
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() > 1e-9:
            break
    C *= separation / gaps.min()

    base = n_samples // n_classes
    counts = [base + (1 if k < n_samples % n_classes else 0) for k in range(n_classes)]
    # One class block of float64 draws at a time, rounded into the float32
    # array: the same draws and values as building all of X in float64.
    X = np.empty((n_samples, dim), dtype=np.float32)
    start = 0
    for k in range(n_classes):
        block = rng.normal(size=(counts[k], dim))
        block += C[k]
        X[start : start + counts[k]] = block
        start += counts[k]
    y = np.concatenate([np.full(counts[k], k, dtype=np.int64) for k in range(n_classes)])
    order = rng.permutation(n_samples)
    return Dataset(
        X[order],
        y[order],
        n_classes,
        name or f"synthetic-{n_classes}c-{dim}d",
    )


def train_test_split(
    data: Dataset, test_fraction: float, seed: int | np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Stratified split: per class, a seeded slice of about test_fraction goes to test."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    test_idx: list[np.ndarray] = []
    train_idx: list[np.ndarray] = []
    for c in range(data.n_classes):
        members = np.flatnonzero(data.labels == c)
        members = members[rng.permutation(len(members))]
        k = int(round(len(members) * test_fraction))
        k = min(max(k, 1), len(members) - 1) if len(members) > 1 else 0
        test_idx.append(members[:k])
        train_idx.append(members[k:])
    return (
        data.subset(np.sort(np.concatenate(train_idx)), data.name + "-train"),
        data.subset(np.sort(np.concatenate(test_idx)), data.name + "-test"),
    )


def partition_noniid(data: Dataset, spec: PartitionSpec) -> list[Dataset]:
    """Split a dataset into per-client shards restricted to l labels each.

    Labels are sorted, permuted once with the partition seed, and dealt to
    clients in consecutive windows of size l that wrap around the
    permutation, so every label is assigned before any repeats and each
    client holds exactly min(l, n_classes) distinct labels.  Each label's
    samples are then split evenly among its clients, with the larger chunks
    steered to the currently smallest shards.
    """
    return [
        data.subset(idx, f"{data.name}-shard{i}")
        for i, idx in enumerate(shard_rows(data.labels, data.n_classes, spec))
    ]


def shard_rows(labels: np.ndarray, n_classes: int, spec: PartitionSpec) -> list[np.ndarray]:
    """Each client's sorted row positions in ``partition_noniid``'s deal; they
    depend on the labels alone, and every row goes to exactly one shard."""
    present = np.unique(labels)
    spec.validate(n_classes)
    n, l = spec.n_clients, min(spec.labels_per_client, len(present))
    rng = np.random.default_rng(spec.seed)

    perm = present[rng.permutation(len(present))]
    client_labels = [
        {perm[(i * l + j) % len(perm)] for j in range(l)} for i in range(n)
    ]
    label_clients: dict[int, list[int]] = {int(c): [] for c in present}
    for i, labs in enumerate(client_labels):
        for c in labs:
            label_clients[int(c)].append(i)

    shard_idx: list[list[np.ndarray]] = [[] for _ in range(n)]
    shard_sizes = np.zeros(n, dtype=np.int64)
    for c in sorted(label_clients):
        members = np.flatnonzero(labels == c)
        members = members[rng.permutation(len(members))]
        owners = label_clients[c]
        chunks = np.array_split(members, len(owners))
        # np.array_split yields the larger chunks first; hand those to the
        # clients that currently hold the least data.
        order = sorted(owners, key=lambda i: (shard_sizes[i], i))
        for chunk, i in zip(chunks, order):
            shard_idx[i].append(chunk)
            shard_sizes[i] += len(chunk)
    for i in range(n):
        if not shard_idx[i] or shard_sizes[i] == 0:
            raise ConfigError(
                f"partition left client {i} without data; "
                "reduce n_clients or rebalance labels_per_client"
            )
    return [np.sort(np.concatenate(chunks)) for chunks in shard_idx]


def evaluate(model, test: Dataset) -> float:
    """Fraction of argmax-correct predictions; argmax ties go to the lowest class.

    The reference for a run's scoring: ``models.predict`` widens the whole
    test set to float64 for this call."""
    from . import models

    pred = models.predict(model, test.features)
    return float(np.mean(pred == test.labels))

