"""Model aggregation and weighting rules for all five training schemes.

Everything operates on flat parameter vectors (1-D float64 arrays) and plain
floats for model ages.  Functions are pure and never mutate their arguments,
which alias in-flight messages.  The spyker client, server pair and FedAsync
merges each write one fresh output array, with the same float64 operations
as their textbook formulas.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from .errors import NumericsError, ProtocolViolation
from .models import first_non_finite

LITERAL = "literal"
DAMPENED = "dampened"


def require_finite(merged: np.ndarray, cause: Callable[[], str]) -> np.ndarray:
    """``merged`` itself when every entry is finite (``first_non_finite``);
    otherwise a NumericsError with the message ``cause()``, which servers use
    to name the merge."""
    if first_non_finite(merged) is not None:
        raise NumericsError(cause())
    return merged


def _check_same_dim(*vecs: np.ndarray) -> None:
    dims = {v.shape for v in vecs}
    if len(dims) != 1:
        raise ValueError(f"model vectors have mismatched dims: {sorted(dims)}")


def fedavg_aggregate(updates: Sequence[tuple[np.ndarray, int]]) -> np.ndarray:
    """Data-weighted average sum_k (d_k / d) * W_k."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    _check_same_dim(*(w for w, _ in updates))
    total = float(sum(d for _, d in updates))
    out = np.zeros_like(updates[0][0], dtype=np.float64)
    for w, d in updates:
        out += (d / total) * w
    return out


def fedasync_staleness(tau: float, alpha: float) -> float:
    """Polynomial dampening (1 + tau)^(-alpha); equals 1 for a fresh update."""
    if tau < 0:
        raise ValueError("staleness must be >= 0")
    return (1.0 + tau) ** (-alpha)


def fedasync_merge(
    w_global: np.ndarray,
    w_sent: np.ndarray,
    w_returned: np.ndarray,
    staleness: float,
    d_k: int,
    d: int,
    alpha: float,
) -> np.ndarray:
    """Staleness-dampened asynchronous merge of a single client update.

    Returns W_global - s(tau) * (d_k/d) * (W_sent - W_returned), i.e. the
    global model moves along the client's local progress, scaled down both by
    its data share and by how stale the model it trained on was.
    """
    _check_same_dim(w_global, w_sent, w_returned)
    if not 1 <= d_k <= d:
        raise ValueError(f"need d >= d_k >= 1, got d_k={d_k}, d={d}")
    s = fedasync_staleness(staleness, alpha)
    out = np.subtract(w_sent, w_returned)
    out *= s * (d_k / d)
    return np.subtract(w_global, out, out=out)


def client_staleness_weight(a_server: float, a_sent: float, mode: str = DAMPENED) -> float:
    """Weight of a client update given the server age gap since dispatch.

    literal mode returns the raw gap (the pseudocode rule, which grows with
    staleness); dampened mode returns 1/(1+gap) so fresh updates weigh 1 and
    stale ones fade, matching the stated intent.
    """
    if a_server < a_sent:
        raise ProtocolViolation(
            f"server age {a_server} below the age echoed by the client {a_sent}"
        )
    gap = a_server - a_sent
    if mode == LITERAL:
        return gap
    if mode == DAMPENED:
        return 1.0 / (1.0 + gap)
    raise ValueError(f"unknown staleness mode {mode!r}")


def spyker_client_merge(
    w_server: np.ndarray, w_client: np.ndarray, weight: float, eta_server: float
) -> np.ndarray:
    """W_server + eta_server * weight * (W_client - W_server)."""
    _check_same_dim(w_server, w_client)
    if weight < 0:
        raise ValueError("weight must be >= 0")
    if not 0 < eta_server <= 1:
        raise ValueError("eta_server must be in (0, 1]")
    out = np.subtract(w_client, w_server)
    out *= eta_server * weight
    out += w_server
    return out


def decay(base_lr: float, u_k: int, u_mean: float, beta: float, eta_min: float) -> float:
    """Learning-rate decay for clients that update more often than average.

    Below the per-server mean update count the base rate passes through;
    above it the rate drops by beta per excess update, floored at eta_min.
    """
    if u_k < u_mean:
        return base_lr
    return max(eta_min, base_lr - beta * (u_k - u_mean))


def server_pair_weight(a_i: float, a_j: float, phi: float) -> float:
    """Sigmoid weight for merging a peer model of age a_j into one of age a_i.

    w = sigmoid(phi * (a_j - a_i) / a_i): 0.5 at equal ages, approaching 1
    when the peer is much more mature and 0 when it is much younger.  The
    denominator is clamped to max(a_i, 1) so the function is total at age 0.
    """
    denom = max(a_i, 1.0)
    a = phi * (a_j - a_i) / denom
    if a >= 0:
        return 1.0 / (1.0 + math.exp(-a))
    e = math.exp(a)
    return e / (1.0 + e)


def server_merge(
    w_i: np.ndarray,
    a_i: float,
    w_j: np.ndarray,
    a_j: float,
    eta_a: float,
    phi: float,
) -> tuple[np.ndarray, float]:
    """Merge a peer server model, moving both weights and age convexly.

    Returns (W_i + c*(W_j - W_i), (1-c)*A_i + c*A_j) with c = eta_a * w and
    w the sigmoid pair weight; the new age always lies between the two input
    ages.
    """
    _check_same_dim(w_i, w_j)
    if not 0 < eta_a <= 1:
        raise ValueError("eta_a must be in (0, 1]")
    w = server_pair_weight(a_i, a_j, phi)
    c = eta_a * w
    out = np.subtract(w_j, w_i)
    out *= c
    out += w_i
    return out, (1.0 - c) * a_i + c * a_j
