"""Tiny model zoo: forward pass, loss, analytic gradients, SGD stepping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spykersim import models
from spykersim.errors import NumericsError
from spykersim.hyperparams import HyperParams
from spykersim.models import TinyModel, init_model, local_training, sgd_step


def make_logreg(rng=None, input_dim=4, n_classes=3):
    rng = rng or np.random.default_rng(0)
    return init_model(models.LOGREG, input_dim, n_classes, 0, rng)


def make_mlp(rng=None, input_dim=5, n_classes=3, hidden_dim=8):
    rng = rng or np.random.default_rng(0)
    return init_model(models.MLP, input_dim, n_classes, hidden_dim, rng)


def make_batch(rng, m, n=16):
    X = rng.normal(size=(n, m.input_dim))
    y = rng.integers(0, m.n_classes, size=n)
    return X, y


class TestParamCount:
    def test_logreg(self):
        assert models.param_count(models.LOGREG, 4, 3, 0) == 15

    def test_mlp(self):
        # 5*8 + 8 + 8*3 + 3 = 75
        assert models.param_count(models.MLP, 5, 3, 8) == 75

    def test_mnist_sized_mlp(self):
        assert models.param_count(models.MLP, 784, 10, 64) == 50890


class TestInit:
    def test_param_vector_length(self):
        assert make_logreg().dim == 15
        assert make_mlp().dim == 75

    def test_biases_start_zero(self):
        m = make_logreg()
        w, b = models._split_logreg(m)
        assert np.all(b == 0.0)

    def test_deterministic_given_rng_seed(self):
        a = make_mlp(np.random.default_rng(7))
        b = make_mlp(np.random.default_rng(7))
        np.testing.assert_array_equal(a.params, b.params)

    def test_bad_hidden_dim_rejected(self):
        with pytest.raises(ValueError):
            init_model(models.MLP, 4, 3, 0, np.random.default_rng(0))


class TestForward:
    def test_dim_mismatch_rejected(self):
        m = make_logreg()
        with pytest.raises(ValueError):
            models.predict(m, np.zeros((2, m.input_dim + 1)))

    @pytest.mark.parametrize("make", [make_logreg, make_mlp])
    def test_predict_into_equals_predict(self, make):
        m = make()
        rng = np.random.default_rng(4)
        X = rng.normal(size=(37, m.input_dim))
        logits = np.full((37, m.n_classes), np.nan)
        hidden = np.full((37, m.hidden_dim), np.nan) if m.kind == models.MLP else None
        out = np.empty(37, dtype=np.intp)
        # Buffers reused across calls; one block of rows, then four, then
        # the float64 X multiplied whole.
        for block in (37, 37, 10, 10, None):
            xbuf = None if block is None else np.empty((block, m.input_dim))
            m = m.with_params(rng.normal(size=m.dim))
            got = models.predict_into(m, X, xbuf, logits, hidden, out)
            assert got is out
            np.testing.assert_array_equal(got, models.predict(m, X))
            z, _ = models._logits(m, X)
            assert logits.tobytes() == z.tobytes()


class TestLossGrad:
    def test_uniform_model_loss_is_log_k(self):
        m = make_logreg().with_params(np.zeros(15))
        X = np.random.default_rng(4).normal(size=(8, 4))
        y = np.random.default_rng(5).integers(0, 3, size=8)
        assert models.loss(m, X, y) == pytest.approx(np.log(3.0), abs=1e-12)

    def test_loss_and_grad_agree_with_loss(self):
        m = make_mlp()
        X, y = make_batch(np.random.default_rng(6), m)
        val, _ = models.loss_and_grad(m, X, y)
        assert val == pytest.approx(models.loss(m, X, y), abs=1e-12)

    @pytest.mark.parametrize("maker", [make_logreg, make_mlp])
    def test_gradcheck_central_differences(self, maker):
        # 100 random parameter draws, eps=1e-5, relative error < 1e-4 on
        # a handful of coordinates each.
        rng = np.random.default_rng(42)
        eps = 1e-5
        worst = 0.0
        for _ in range(100):
            m = maker(rng)
            m = m.with_params(rng.normal(scale=0.5, size=m.dim))
            X, y = make_batch(rng, m, n=6)
            _, g = models.loss_and_grad(m, X, y)
            for j in rng.choice(m.dim, size=4, replace=False):
                up = m.params.copy()
                dn = m.params.copy()
                up[j] += eps
                dn[j] -= eps
                num = (models.loss(m.with_params(up), X, y) - models.loss(m.with_params(dn), X, y)) / (
                    2 * eps
                )
                denom = max(abs(num), abs(g[j]), 1e-8)
                worst = max(worst, abs(num - g[j]) / denom)
        assert worst < 1e-4

    def test_nonfinite_gradient_reports_index(self):
        m = make_logreg()
        bad = m.params.copy()
        bad[3] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError) as exc:
            models.local_sgd_step(m.with_params(bad), *make_batch(np.random.default_rng(8), m), 0.1)
        assert exc.value.index is not None


class TestSgdStep:
    def test_quadratic_oracle(self):
        # f(w) = (w - 1)^2, grad = 2(w - 1); from 0 with lr 0.1 -> 0.2.
        w = np.array([0.0])
        g = 2 * (w - 1.0)
        assert sgd_step(w, g, 0.1)[0] == pytest.approx(0.2, abs=1e-12)

    def test_quadratic_converges(self):
        w = np.array([0.0])
        for _ in range(200):
            w = sgd_step(w, 2 * (w - 1.0), 0.1)
        assert w[0] == pytest.approx(1.0, abs=1e-9)

    def test_pure_no_mutation(self):
        w = np.array([1.0, 2.0])
        out = sgd_step(w, np.array([1.0, 1.0]), 0.5)
        np.testing.assert_array_equal(w, [1.0, 2.0])
        np.testing.assert_allclose(out, [0.5, 1.5], atol=1e-15)

    @given(st.floats(-10, 10), st.floats(0.001, 0.45))
    def test_quadratic_step_contracts(self, w0, lr):
        w = np.array([w0])
        w1 = sgd_step(w, 2 * (w - 1.0), lr)
        assert abs(w1[0] - 1.0) <= abs(w0 - 1.0) + 1e-12


class TestLocalTraining:
    def test_deterministic_given_seed(self):
        m = make_mlp()
        X, y = make_batch(np.random.default_rng(9), m, n=64)
        hp = HyperParams()
        a = local_training(m, X, y, 0.1, hp.local_epochs, hp.batch_size, np.random.default_rng(11))
        b = local_training(m, X, y, 0.1, hp.local_epochs, hp.batch_size, np.random.default_rng(11))
        np.testing.assert_array_equal(a.params, b.params)

    def test_training_reduces_loss_on_separable_data(self):
        rng = np.random.default_rng(12)
        m = make_logreg(rng, input_dim=2, n_classes=2)
        X = np.concatenate([rng.normal(-2, 0.3, size=(40, 2)), rng.normal(2, 0.3, size=(40, 2))])
        y = np.array([0] * 40 + [1] * 40)
        before = models.loss(m, X, y)
        trained = local_training(m, X, y, 0.5, 5, 16, np.random.default_rng(13))
        assert models.loss(trained, X, y) < before

    def test_zero_lr_is_identity(self):
        m = make_mlp()
        X, y = make_batch(np.random.default_rng(14), m, n=32)
        out = local_training(m, X, y, 0.0, 2, 8, np.random.default_rng(15))
        np.testing.assert_array_equal(out.params, m.params)

    @given(st.integers(1, 3), st.integers(4, 32))
    @settings(max_examples=20, deadline=None)
    def test_batch_partition_covers_all_samples(self, epochs, batch):
        # One full epoch with lr>0 on nonzero data must touch the weights.
        rng = np.random.default_rng(16)
        m = make_logreg(rng)
        X, y = make_batch(rng, m, n=33)
        out = local_training(m, X, y, 0.05, epochs, batch, np.random.default_rng(17))
        assert not np.array_equal(out.params, m.params)

    @pytest.mark.parametrize("epochs", [1, 2])
    @pytest.mark.parametrize("batch", [1, 32, 64])
    @pytest.mark.parametrize("make", [make_logreg, make_mlp])
    def test_float32_features_train_to_the_bytes_of_their_float64_copy(self, make, batch, epochs):
        # 100 rows leave a ragged last batch at 32 and at 64.
        rng = np.random.default_rng(31)
        m = make(rng, input_dim=20)
        X = rng.normal(size=(100, m.input_dim)).astype(np.float32)
        X.setflags(write=False)
        y = rng.integers(0, m.n_classes, size=100)
        before = X.tobytes()
        got = local_training(m, X, y, 0.1, epochs, batch, np.random.default_rng(33))
        want = local_training(
            m, X.astype(np.float64), y, 0.1, epochs, batch, np.random.default_rng(33)
        )
        assert got.params.tobytes() == want.params.tobytes()
        assert X.dtype == np.float32 and X.tobytes() == before


def fold_of_reference_steps(m, X, y, lr, epochs, batch_size, rng):
    """local_training as the plain fold of local_sgd_step over rng's shuffles."""
    X = np.asarray(X, dtype=np.float64)
    for _ in range(epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), batch_size):
            idx = order[start : start + batch_size]
            m = models.local_sgd_step(m, X[idx], y[idx], lr)
    return m


class TestFusedKernel:
    @pytest.mark.parametrize("maker", [make_logreg, make_mlp])
    @pytest.mark.parametrize("batch_size", [1, 32, 64])
    @pytest.mark.parametrize("epochs", [1, 2])
    def test_equals_fold_of_reference_steps_byte_for_byte(self, maker, batch_size, epochs):
        # 45 samples: batches of 32 leave a ragged last batch of 13, and 64
        # is larger than the shard.  float32 features, as the datasets hold.
        rng = np.random.default_rng(21)
        m = maker(rng)
        X, y = make_batch(rng, m, n=45)
        X = X.astype(np.float32)
        out = local_training(m, X, y, 0.3, epochs, batch_size, np.random.default_rng(5))
        ref = fold_of_reference_steps(m, X, y, 0.3, epochs, batch_size, np.random.default_rng(5))
        assert out.params.tobytes() == ref.params.tobytes()

    @pytest.mark.parametrize("maker", [make_logreg, make_mlp])
    def test_input_params_untouched_and_not_shared(self, maker):
        # Dispatched parameters alias the server model; a read-only input
        # makes any write into it fail.
        m = maker()
        before = m.params.copy()
        frozen = before.copy()
        frozen.setflags(write=False)
        X, y = make_batch(np.random.default_rng(22), m, n=20)
        out = local_training(m.with_params(frozen), X, y, 0.5, 2, 8, np.random.default_rng(23))
        assert frozen.tobytes() == before.tobytes()
        assert not np.shares_memory(out.params, frozen)
        assert not np.array_equal(out.params, before)

    def test_non_finite_start_raises_with_index(self):
        m = make_mlp()
        bad = m.params.copy()
        bad[3] = np.inf
        X, y = make_batch(np.random.default_rng(24), m)
        with np.errstate(all="ignore"), pytest.raises(NumericsError) as exc:
            local_training(m.with_params(bad), X, y, 0.1, 1, 8, np.random.default_rng(25))
        assert exc.value.index is not None and 0 <= exc.value.index < m.dim

    def test_bad_arguments_rejected_once(self):
        m = make_logreg()
        X, y = make_batch(np.random.default_rng(26), m)
        for lr, epochs, batch in ((-0.1, 1, 8), (0.1, 0, 8), (0.1, 1, 0)):
            with pytest.raises(ValueError):
                local_training(m, X, y, lr, epochs, batch, np.random.default_rng(27))
        with pytest.raises(ValueError):
            local_training(m, X[:, :2], y, 0.1, 1, 8, np.random.default_rng(27))


class TestTinyModelDataclass:
    def test_frozen(self):
        m = make_logreg()
        with pytest.raises(AttributeError):
            m.params = np.zeros(15)

    def test_with_params_checks_length(self):
        m = make_logreg()
        with pytest.raises(ValueError):
            m.with_params(np.zeros(3))

    def test_with_params_keeps_the_shape_fields(self):
        m = make_mlp()
        p = np.ones(m.dim)
        out = m.with_params(p)
        assert out.params is p
        assert out == TinyModel(m.kind, p, m.input_dim, m.n_classes, m.hidden_dim)
        assert m.params is not p
        with pytest.raises(ValueError):
            m.with_params(np.ones((m.dim, 1)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TinyModel(kind="rbf", params=np.zeros(3), input_dim=1, n_classes=2)
