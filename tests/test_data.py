"""Dataset loading, synthesis, partitioning, evaluation."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spykersim import data as dt
from spykersim import models
from spykersim.errors import (
    ConfigError,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
)


def fake_idx_pair(tmp_path, n=30, side=4, n_classes=5, seed=0):
    """Fabricate a well-formed IDX image/label pair on disk."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
    labels = rng.integers(0, n_classes, size=n, dtype=np.uint8)
    img = tmp_path / "images-idx3-ubyte"
    lab = tmp_path / "labels-idx1-ubyte"
    img.write_bytes(struct.pack(">IIII", 0x803, n, side, side) + pixels.tobytes())
    lab.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
    return str(img), str(lab), pixels, labels


class TestLoadIdx:
    def test_roundtrip_values(self, tmp_path):
        img, lab, pixels, labels = fake_idx_pair(tmp_path)
        ds = dt.load_idx(img, lab)
        assert ds.n_samples == 30 and ds.dim == 16
        np.testing.assert_array_equal(ds.labels, labels.astype(np.int64))
        np.testing.assert_allclose(
            ds.features, pixels.reshape(30, 16).astype(np.float32) / 255.0, atol=0
        )
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_swapped_paths_magic_error(self, tmp_path):
        img, lab, _, _ = fake_idx_pair(tmp_path)
        with pytest.raises(IdxMagicError):
            dt.load_idx(lab, img)

    def test_empty_file_truncation_error(self, tmp_path):
        img, lab, _, _ = fake_idx_pair(tmp_path)
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        with pytest.raises(IdxTruncatedError):
            dt.load_idx(str(empty), lab)

    def test_short_payload_truncation_error(self, tmp_path):
        img, lab, _, _ = fake_idx_pair(tmp_path)
        cut = tmp_path / "cut"
        cut.write_bytes(open(img, "rb").read()[:-5])
        with pytest.raises(IdxTruncatedError):
            dt.load_idx(str(cut), lab)

    def test_count_mismatch_error(self, tmp_path):
        img, _, _, _ = fake_idx_pair(tmp_path)
        lab2 = tmp_path / "short-labels"
        lab2.write_bytes(struct.pack(">II", 0x801, 7) + bytes(7))
        with pytest.raises(IdxCountMismatchError):
            dt.load_idx(img, str(lab2))

    def test_garbage_magic(self, tmp_path):
        junk = tmp_path / "junk"
        junk.write_bytes(b"\xff\xff\xff\xff" + bytes(64))
        _, lab, _, _ = fake_idx_pair(tmp_path)
        with pytest.raises(IdxMagicError):
            dt.load_idx(str(junk), lab)


class TestSynthetic:
    def test_bitwise_deterministic(self):
        a = dt.synthetic_dataset(5, 120, 6, 3, 2.0)
        b = dt.synthetic_dataset(5, 120, 6, 3, 2.0)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_balanced_two_class(self):
        ds = dt.synthetic_dataset(1, 400, 2, 2, 3.0)
        counts = np.bincount(ds.labels)
        assert list(counts) == [200, 200]

    def test_remainder_goes_to_low_classes(self):
        ds = dt.synthetic_dataset(1, 10, 2, 3, 3.0)
        assert sorted(np.bincount(ds.labels), reverse=True) == [4, 3, 3]

    def test_centroid_separation_respected(self):
        ds = dt.synthetic_dataset(2, 900, 4, 6, 4.0)
        cents = np.stack([ds.features[ds.labels == k].mean(axis=0) for k in range(6)])
        d = np.linalg.norm(cents[:, None] - cents[None, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        # Empirical centroids sit near the true ones, so allow slack.
        assert d.min() > 4.0 - 1.0

    def test_many_classes_low_dim_terminates(self):
        # Twelve blobs on a line still keep the closest pair 2.0 apart.
        ds = dt.synthetic_dataset(3, 60, 1, 12, 2.0)
        assert ds.n_classes == 12

    def test_wide_separation_linearly_separable(self):
        ds = dt.synthetic_dataset(7, 600, 8, 3, 10.0)
        train, test = dt.train_test_split(ds, 0.25, 11)
        m = models.init_model(models.LOGREG, 8, 3, 0, np.random.default_rng(0))
        m = models.local_training(
            m, np.asarray(train.features, float), train.labels, 0.5, 8, 32,
            np.random.default_rng(1),
        )
        assert dt.evaluate(m, test) >= 0.99

    @pytest.mark.parametrize(
        "seed, n, dim, classes",
        [(0, 100, 4, 2), (5, 121, 6, 3), (9, 1003, 17, 10), (21, 50, 784, 7), (3, 60, 1, 12)],
    )
    def test_features_equal_the_float64_formula(self, seed, n, dim, classes):
        # The block-wise float32 fill against building all of X in float64,
        # permuting it and rounding once.
        rng = np.random.default_rng(seed)
        while True:
            C = rng.normal(size=(classes, dim))
            gaps = np.linalg.norm(C[:, None, :] - C[None, :, :], axis=-1)
            np.fill_diagonal(gaps, np.inf)
            if gaps.min() > 1e-9:
                break
        C *= 2.5 / gaps.min()
        counts = [n // classes + (1 if k < n % classes else 0) for k in range(classes)]
        X = np.concatenate([C[k] + rng.normal(size=(counts[k], dim)) for k in range(classes)])
        y = np.concatenate([np.full(counts[k], k, dtype=np.int64) for k in range(classes)])
        order = rng.permutation(n)
        ds = dt.synthetic_dataset(seed, n, dim, classes, 2.5)
        assert ds.features.dtype == np.float32
        assert ds.features.tobytes() == X[order].astype(np.float32).tobytes()
        np.testing.assert_array_equal(ds.labels, y[order])

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            dt.synthetic_dataset(0, 10, 2, 1, 1.0)
        with pytest.raises(ValueError):
            dt.synthetic_dataset(0, 10, 2, 2, 0.0)


class TestTrainTestSplit:
    def test_disjoint_cover(self):
        ds = dt.synthetic_dataset(4, 300, 3, 3, 3.0)
        train, test = dt.train_test_split(ds, 0.2, 9)
        assert train.n_samples + test.n_samples == 300
        assert test.n_samples == 60

    def test_stratified(self):
        ds = dt.synthetic_dataset(4, 300, 3, 3, 3.0)
        _, test = dt.train_test_split(ds, 0.2, 9)
        assert list(np.bincount(test.labels)) == [20, 20, 20]


class TestPartition:
    def make(self, n_samples=600, n_classes=6, seed=0):
        return dt.synthetic_dataset(seed, n_samples, 4, n_classes, 3.0)

    def test_disjoint_and_covering(self):
        ds = self.make()
        shards = dt.partition_noniid(ds, dt.PartitionSpec(10, 2, seed=1))
        seen = np.concatenate(
            [np.flatnonzero((ds.features[:, None] == s.features[None]).all(-1).any(-1))
             for s in shards]
        )
        assert sum(s.n_samples for s in shards) == ds.n_samples
        assert len(np.unique(seen)) == ds.n_samples

    def test_label_cardinality_exact(self):
        ds = self.make()
        for l in (1, 2, 4, 6):
            shards = dt.partition_noniid(ds, dt.PartitionSpec(9, l, seed=2))
            for s in shards:
                assert len(np.unique(s.labels)) == min(l, 6)

    def test_balanced_shards_within_one(self):
        ds = self.make(n_samples=600, n_classes=6)
        shards = dt.partition_noniid(ds, dt.PartitionSpec(12, 2, seed=3))
        sizes = sorted(s.n_samples for s in shards)
        assert sizes[-1] - sizes[0] <= 1

    def test_iid_equivalent_when_l_equals_classes(self):
        ds = self.make()
        shards = dt.partition_noniid(ds, dt.PartitionSpec(5, 6, seed=4))
        for s in shards:
            assert len(np.unique(s.labels)) == 6

    def test_infeasible_spec_rejected(self):
        ds = self.make()
        with pytest.raises(ConfigError):
            dt.partition_noniid(ds, dt.PartitionSpec(2, 2, seed=0))
        with pytest.raises(ConfigError):
            dt.partition_noniid(ds, dt.PartitionSpec(4, 9, seed=0))

    def test_deterministic_given_seed(self):
        ds = self.make()
        a = dt.partition_noniid(ds, dt.PartitionSpec(10, 2, seed=5))
        b = dt.partition_noniid(ds, dt.PartitionSpec(10, 2, seed=5))
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.features, sb.features)
            np.testing.assert_array_equal(sa.labels, sb.labels)

    @given(
        n_clients=st.integers(2, 20),
        l=st.integers(1, 5),
        n_classes=st.integers(2, 5),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_properties(self, n_clients, l, n_classes, seed):
        l = min(l, n_classes)
        if n_clients * l < n_classes:
            return
        ds = dt.synthetic_dataset(seed, 40 * n_classes, 3, n_classes, 3.0)
        shards = dt.partition_noniid(ds, dt.PartitionSpec(n_clients, l, seed=seed))
        assert len(shards) == n_clients
        assert sum(s.n_samples for s in shards) == ds.n_samples
        union = set()
        for s in shards:
            assert len(np.unique(s.labels)) == l
            rows = {bytes(row) for row in s.features}
            assert not (union & rows)
            union |= rows


class TestEvaluate:
    def test_constant_predictor_on_balanced_binary(self):
        ds = dt.synthetic_dataset(6, 200, 4, 2, 3.0)
        m = models.init_model(models.LOGREG, 4, 2, 0, np.random.default_rng(0))
        biased = np.zeros(m.dim)
        biased[-2] = 100.0  # huge class-0 bias
        assert dt.evaluate(m.with_params(biased), ds) == pytest.approx(0.5, abs=1e-12)

    def test_memorizer_hits_one(self):
        ds = dt.synthetic_dataset(8, 240, 6, 3, 12.0)
        m = models.init_model(models.LOGREG, 6, 3, 0, np.random.default_rng(1))
        m = models.local_training(
            m, np.asarray(ds.features, float), ds.labels, 0.5, 12, 32,
            np.random.default_rng(2),
        )
        assert dt.evaluate(m, ds) == 1.0


def test_dataset_invariants():
    with pytest.raises(ValueError):
        dt.Dataset(np.zeros((0, 3), dtype=np.float32), np.zeros(0, dtype=np.int64), 2)
    with pytest.raises(ValueError):
        dt.Dataset(
            np.full((2, 3), np.nan, dtype=np.float32), np.zeros(2, dtype=np.int64), 2
        )
    with pytest.raises(ValueError):
        dt.Dataset(np.zeros((2, 3), dtype=np.float32), np.array([0, 5]), 2)
