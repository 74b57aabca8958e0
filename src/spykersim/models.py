"""Tiny classification models with hand-derived gradients.

Two architectures cover the desk-scale experiments: multinomial logistic
regression and a one-hidden-layer MLP with tanh activation (smooth, so
finite-difference gradient checks are well conditioned).  Parameters live in
a single flat float64 vector; every operation here is a pure function that
returns fresh arrays and never mutates its inputs.  ``local_training`` is a
fused in-place kernel on a private copy; ``loss_and_grad``,
``local_sgd_step`` and ``sgd_step`` are the reference it is tested against.
Likewise ``predict_into`` writes ``predict``'s classes into reused buffers.
Features may be float32: the reference functions widen the whole batch to
float64, while ``local_training`` and ``predict_into`` widen only the rows
in use into small float64 buffers.  ``local_training`` gathers one shuffled
copy of the shard per epoch in its own dtype (282 KB for a 90-row float32
MNIST shard) and widens it a mini-batch at a time, so no float64 copy of a
data set is made.  Widening is exact, so both see the same float64 values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError

LOGREG = "logistic-regression"
MLP = "mlp-1-hidden"


def param_count(kind: str, input_dim: int, n_classes: int, hidden_dim: int = 0) -> int:
    if kind == LOGREG:
        return input_dim * n_classes + n_classes
    if kind == MLP:
        if hidden_dim < 1:
            raise ValueError("mlp requires hidden_dim >= 1")
        return input_dim * hidden_dim + hidden_dim + hidden_dim * n_classes + n_classes
    raise ValueError(f"unknown model kind {kind!r}")


@dataclass(frozen=True)
class TinyModel:
    kind: str
    params: np.ndarray  # flat float64 vector
    input_dim: int
    n_classes: int
    hidden_dim: int = 0

    def __post_init__(self):
        expected = param_count(self.kind, self.input_dim, self.n_classes, self.hidden_dim)
        if self.params.ndim != 1 or self.params.shape[0] != expected:
            raise ValueError(
                f"params has dim {self.params.shape}, expected ({expected},) for {self.kind}"
            )

    @property
    def dim(self) -> int:
        return self.params.shape[0]

    def with_params(self, params: np.ndarray) -> "TinyModel":
        """This model with ``params``, which must have the shape of its own."""
        if params.shape != self.params.shape:
            raise ValueError(
                f"params has dim {params.shape}, expected {self.params.shape} for {self.kind}"
            )
        # The fields but params are those of a checked model, so the check
        # of __post_init__ is skipped.
        new = object.__new__(type(self))
        vars(new).update(vars(self), params=params)
        return new


def first_non_finite(v: np.ndarray) -> int | None:
    """The index of the first non-finite entry of the 1-D float64 ``v``, or
    None when every entry is finite.

    A finite sum of squares implies that every entry is finite, so one BLAS
    reduction clears the common case; only a non-finite sum, which an
    all-finite vector gives by overflowing, is checked entry by entry.
    """
    if math.isfinite(np.dot(v, v)):
        return None
    bad = np.flatnonzero(~np.isfinite(v))
    return int(bad[0]) if bad.size else None


def init_model(
    kind: str,
    input_dim: int,
    n_classes: int,
    hidden_dim: int = 0,
    rng: np.random.Generator | None = None,
    scale: float | None = None,
) -> TinyModel:
    """Random weights ~ N(0, scale^2), zero biases.  scale defaults to 1/sqrt(fan_in)."""
    rng = rng or np.random.default_rng(0)
    if kind == LOGREG:
        s = scale if scale is not None else 1.0 / np.sqrt(input_dim)
        w = rng.normal(0.0, s, size=input_dim * n_classes)
        b = np.zeros(n_classes)
        params = np.concatenate([w, b])
    elif kind == MLP:
        if hidden_dim < 1:
            raise ValueError("mlp needs hidden_dim >= 1")
        s1 = scale if scale is not None else 1.0 / np.sqrt(input_dim)
        s2 = scale if scale is not None else 1.0 / np.sqrt(hidden_dim)
        w1 = rng.normal(0.0, s1, size=input_dim * hidden_dim)
        b1 = np.zeros(hidden_dim)
        w2 = rng.normal(0.0, s2, size=hidden_dim * n_classes)
        b2 = np.zeros(n_classes)
        params = np.concatenate([w1, b1, w2, b2])
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return TinyModel(kind, params, input_dim, n_classes, hidden_dim)


def _split_logreg(m: TinyModel):
    d, c = m.input_dim, m.n_classes
    w = m.params[: d * c].reshape(d, c)
    b = m.params[d * c :]
    return w, b


def _split_mlp(m: TinyModel):
    d, h, c = m.input_dim, m.hidden_dim, m.n_classes
    p = m.params
    i = 0
    w1 = p[i : i + d * h].reshape(d, h); i += d * h
    b1 = p[i : i + h]; i += h
    w2 = p[i : i + h * c].reshape(h, c); i += h * c
    b2 = p[i : i + c]
    return w1, b1, w2, b2


def _check_batch(
    m: TinyModel, X: np.ndarray, y: np.ndarray | None = None, dtype=np.float64
) -> np.ndarray:
    """``X`` as an array of ``dtype`` (None keeps its dtype), checked
    against the model and ``y``."""
    X = np.asarray(X, dtype=dtype)
    if X.ndim != 2 or X.shape[1] != m.input_dim:
        raise ValueError(f"batch feature dim {X.shape} does not match input_dim {m.input_dim}")
    if X.shape[0] == 0:
        raise ValueError("batch is empty")
    if y is not None and len(y) != X.shape[0]:
        raise ValueError("feature/label count mismatch")
    return X


def _logits(m: TinyModel, X: np.ndarray):
    """Returns (logits, hidden activations or None)."""
    if m.kind == LOGREG:
        w, b = _split_logreg(m)
        return X @ w + b, None
    w1, b1, w2, b2 = _split_mlp(m)
    h = np.tanh(X @ w1 + b1)
    return h @ w2 + b2, h


def predict(m: TinyModel, X: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index."""
    z, _ = _logits(m, _check_batch(m, X))
    return np.argmax(z, axis=1)


def predict_into(
    m: TinyModel,
    X: np.ndarray,
    xbuf: np.ndarray,
    logits: np.ndarray,
    hidden: np.ndarray | None,
    out: np.ndarray,
) -> np.ndarray:
    """``predict`` into caller-owned buffers, for scoring one batch many times.

    ``X`` is an (n, input_dim) batch of any float dtype, typically float32;
    ``xbuf`` a float64 (b, input_dim) buffer, into which the first layer's
    product widens X b rows at a time, or None for a float64 ``X``, which
    is multiplied whole; ``logits`` is (n, n_classes),
    ``hidden`` (n, hidden_dim) for the MLP and ``out`` an intp (n,) array.
    The float64 values and operations are those of ``predict``, and no array
    of batch size is allocated.  A row's logits are its own dot products,
    so they repeat ``predict``'s byte for byte wherever OpenBLAS runs a
    block through the same kernel as the whole batch.  Its AVX-512 kernels
    switch to a small-matrix kernel for products of at most 10^6
    multiply-adds, which can move a logit by its last bit, and so a class
    only at a near-tie.
    """
    if m.kind == LOGREG:
        w1, b1 = _split_logreg(m)
        first = logits
    else:
        w1, b1, w2, b2 = _split_mlp(m)
        first = hidden
    n = X.shape[0]
    rows = n if xbuf is None else xbuf.shape[0]
    for start in range(0, n, rows):
        block = X[start : start + rows]
        if xbuf is not None:
            wide = xbuf[: len(block)]
            np.copyto(wide, block)
            block = wide
        np.matmul(block, w1, out=first[start : start + rows])
    first += b1
    if m.kind == MLP:
        np.tanh(hidden, out=hidden)
        np.matmul(hidden, w2, out=logits)
        logits += b2
    return np.argmax(logits, axis=1, out=out)


def loss(m: TinyModel, X: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of the batch (nonnegative)."""
    X = _check_batch(m, X, y)
    z, _ = _logits(m, X)
    zmax = z.max(axis=1, keepdims=True)
    logsumexp = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    return float(np.mean(logsumexp - z[np.arange(len(y)), y]))


def loss_and_grad(m: TinyModel, X: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch loss and the flat analytic gradient."""
    X = _check_batch(m, X, y)
    y = np.asarray(y)
    n = X.shape[0]
    z, h = _logits(m, X)
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    p = e / e.sum(axis=1, keepdims=True)
    logsumexp = zmax[:, 0] + np.log(e.sum(axis=1))
    value = float(np.mean(logsumexp - z[np.arange(n), y]))

    dz = p.copy()
    dz[np.arange(n), y] -= 1.0
    dz /= n
    if m.kind == LOGREG:
        gw = X.T @ dz
        gb = dz.sum(axis=0)
        grad = np.concatenate([gw.ravel(), gb])
    else:
        _, _, w2, _ = _split_mlp(m)
        gw2 = h.T @ dz
        gb2 = dz.sum(axis=0)
        dh = dz @ w2.T
        dpre = dh * (1.0 - h * h)
        gw1 = X.T @ dpre
        gb1 = dpre.sum(axis=0)
        grad = np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])
    return value, grad


def sgd_step(params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """One gradient step: params - lr * grad."""
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if params.shape != grad.shape:
        raise ValueError(f"param/grad shape mismatch {params.shape} vs {grad.shape}")
    return params - lr * grad


def local_sgd_step(m: TinyModel, X: np.ndarray, y: np.ndarray, lr: float) -> TinyModel:
    """One SGD step on a batch; the input model is left untouched."""
    _, grad = loss_and_grad(m, X, y)
    bad = first_non_finite(grad)
    if bad is not None:
        raise NumericsError(f"non-finite gradient at component {bad}", index=bad)
    return m.with_params(sgd_step(m.params, grad, lr))


def local_training(
    m: TinyModel,
    X: np.ndarray,
    y: np.ndarray,
    lr: float,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
) -> TinyModel:
    """SGD over shuffled mini-batches for the given number of full passes.

    The shuffle order is drawn only from ``rng``, so reruns with an equally
    seeded generator are bitwise identical.  This is the fold of
    ``local_sgd_step`` over the batches, fused: each batch runs the same
    float64 expressions as ``loss_and_grad`` and ``sgd_step``, in the same
    order, but updates views of one private copy of the parameters in place
    and skips the loss value.  ``m.params`` is never written.  ``X`` keeps
    its dtype: each epoch gathers its rows once, in shuffled order, and the
    one-hot rows of their labels; each batch widens its contiguous slice of
    the rows exactly into one float64 buffer and subtracts its slice of the
    one-hot rows from the softmax.  So a float32 ``X`` trains to the same
    bytes as its float64 copy, and only one batch is ever held in float64.
    Inputs are checked once, and finiteness once at the end.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if lr < 0:
        raise ValueError("lr must be >= 0")
    X = _check_batch(m, X, y, dtype=None)
    y = np.asarray(y)
    n = X.shape[0]
    params = m.params.copy()
    out = m.with_params(params)
    # One batch's gradient, laid out as the parameters, so that one step
    # updates every layer; reused, as are the batch rows widened to float64.
    grad = np.empty_like(params)
    if m.kind == LOGREG:
        w1, b1 = _split_logreg(out)
        gw1, gb1 = _split_logreg(out.with_params(grad))
    else:
        w1, b1, w2, b2 = _split_mlp(out)
        gw1, gb1, gw2, gb2 = _split_mlp(out.with_params(grad))
    xbuf = np.empty((min(batch_size, n), m.input_dim))
    eye = np.eye(m.n_classes)
    for _ in range(epochs):
        order = rng.permutation(n)
        # The epoch's rows in shuffled order, in X's dtype, and the one-hot
        # rows of their labels; each batch takes a contiguous slice of both.
        Xo = X.take(order, axis=0)
        onehot = eye.take(y.take(order), axis=0)
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            k = stop - start
            Xb = xbuf[:k]
            np.copyto(Xb, Xo[start:stop])
            h = Xb @ w1
            h += b1
            if m.kind == LOGREG:
                z = h
            else:
                np.tanh(h, out=h)
                z = h @ w2
                z += b2
            # z becomes the softmax p, then dz = (p - onehot(y)) / k.
            z -= z.max(axis=1, keepdims=True)
            np.exp(z, out=z)
            z /= z.sum(axis=1, keepdims=True)
            # Subtracting 0.0 leaves the other entries' bits as they are.
            z -= onehot[start:stop]
            z /= k
            if m.kind == LOGREG:
                dpre = z
            else:
                np.matmul(h.T, z, out=gw2)
                z.sum(axis=0, out=gb2)
                dpre = h * h
                np.subtract(1.0, dpre, out=dpre)
                dpre *= z @ w2.T
            np.matmul(Xb.T, dpre, out=gw1)
            dpre.sum(axis=0, out=gb1)
            # params - lr * grad, as sgd_step computes it, in place.
            grad *= lr
            params -= grad
    bad = first_non_finite(out.params)
    if bad is not None:
        raise NumericsError(f"local training left non-finite parameter {bad}", index=bad)
    return out

