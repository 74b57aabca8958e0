"""Output checks computed apart from the program.

Everything here is plain numpy written from the documented formats and
rules, not from spykersim's code: the softmax-regression SGD and FedAvg
replay, the forward passes, and the wire-format byte count. Each check
returns a list of failure strings; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np

# Documented wire format: a 64-byte header, 4 bytes per model parameter,
# 8 bytes per age entry.
HEADER_BYTES = 64
PARAM_BYTES = 4
AGE_BYTES = 8
MODEL_MESSAGES = ("ModelDispatch", "ClientUpdate", "ModelBroadcast", "EdgeReport", "CloudModel")

LOGREG = "logistic-regression"
MLP = "mlp-1-hidden"

REPLAY_TOL = 1e-9


def n_params(kind: str, d: int, c: int, h: int = 0) -> int:
    """Length of the flat parameter vector: [W (d x c), b] or [W1, b1, W2, b2]."""
    if kind == LOGREG:
        return d * c + c
    return d * h + h + h * c + c


# -- forward passes from the flat layout ----------------------------------------


def logits(kind: str, params: np.ndarray, X: np.ndarray, d: int, c: int, h: int = 0) -> np.ndarray:
    if kind == LOGREG:
        W = params[: d * c].reshape(d, c)
        b = params[d * c :]
        return X @ W + b
    i = d * h
    W1 = params[:i].reshape(d, h)
    b1 = params[i : i + h]
    W2 = params[i + h : i + h + h * c].reshape(h, c)
    b2 = params[i + h + h * c :]
    return np.tanh(X @ W1 + b1) @ W2 + b2


def accuracy(kind: str, params: np.ndarray, X: np.ndarray, y: np.ndarray, d: int, c: int, h: int = 0) -> float:
    pred = np.argmax(logits(kind, params, np.asarray(X, dtype=np.float64), d, c, h), axis=1)
    return float(np.mean(pred == y))


def check_accuracy(reported: float, recomputed: float, n_test: int) -> list[str]:
    if abs(reported - recomputed) > 1.0 / n_test + 1e-12:
        return [f"final accuracy {reported:.6f} but the forward pass gives {recomputed:.6f}"]
    return []


# -- softmax regression SGD and FedAvg replay ---------------------------------


def softmax_sgd(params, X, y, lr, epochs, batch_size, rng, d, c):
    """Mini-batch SGD on mean cross-entropy, shuffling with ``rng`` each epoch."""
    p = params.copy()
    n = X.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            Xb, yb = X[idx], y[idx]
            z = Xb @ p[: d * c].reshape(d, c) + p[d * c :]
            z = z - z.max(axis=1, keepdims=True)
            e = np.exp(z)
            g = e / e.sum(axis=1, keepdims=True)
            g[np.arange(len(yb)), yb] -= 1.0
            g /= len(yb)
            p = p - lr * np.concatenate([(Xb.T @ g).ravel(), g.sum(axis=0)])
    return p


def replay_fedavg(init, shards, client_seeds, lr, epochs, batch_size, rounds, d, c):
    """Global parameters after each of the first ``rounds`` FedAvg rounds.

    Every client trains from the global model with the shuffle generator
    ``default_rng([client seed, round])``; the server takes the data-weighted
    average in client order.
    """
    total = float(sum(len(y) for _, y in shards))
    glob = init
    out = []
    for r in range(rounds):
        acc = np.zeros_like(glob)
        for (X, y), seed in zip(shards, client_seeds):
            w = softmax_sgd(glob, X, y, lr, epochs, batch_size, np.random.default_rng([seed, r]), d, c)
            acc += (len(y) / total) * w
        glob = acc
        out.append(glob)
    return out


def check_replay(program_rounds: list, replayed: list) -> list[str]:
    if len(program_rounds) < len(replayed):
        return [f"fedavg completed {len(program_rounds)} rounds, replay needs {len(replayed)}"]
    errs = []
    for r, (got, want) in enumerate(zip(program_rounds, replayed)):
        diff = float(np.max(np.abs(got - want)))
        if not diff <= REPLAY_TOL:
            errs.append(f"fedavg round {r + 1}: max |program - replay| = {diff:.3e}")
    return errs


# -- wire bytes ------------------------------------------------------------------


def message_bytes(kind: str, n_model: int, n_ages: int) -> int:
    if kind in MODEL_MESSAGES:
        return HEADER_BYTES + PARAM_BYTES * n_model
    if kind == "AgeBroadcast":
        return HEADER_BYTES + AGE_BYTES
    if kind == "TokenPass":
        return HEADER_BYTES + AGE_BYTES * n_ages
    raise ValueError(f"no wire size for {kind}")


def check_bytes(sends, deliveries, server_ids, expected_model_len, reported: dict) -> list[str]:
    """Recount bytes from the sends and check FIFO conservation per link.

    ``sends`` holds (src, dst, kind, n_model, n_ages, sent_at) per send in
    send order; ``deliveries`` holds (src, dst, kind, sent_at) per delivery
    in delivery order. Self-addressed sends are free. On every directed link
    the deliveries must be a prefix of the sends; the rest is still in flight.
    """
    errs = []
    totals = {"server-server": 0, "server-client": 0}
    sent_by_link: dict = {}
    for src, dst, kind, n_model, n_ages, sent_at in sends:
        sent_by_link.setdefault((src, dst), []).append((kind, sent_at))
        if src == dst:
            continue
        if kind in MODEL_MESSAGES and n_model != expected_model_len:
            errs.append(f"{kind} {src}->{dst} carries {n_model} parameters, model has {expected_model_len}")
        cls = "server-server" if src in server_ids and dst in server_ids else "server-client"
        totals[cls] += message_bytes(kind, n_model, n_ages)
    for cls, want in totals.items():
        if reported.get(cls) != want:
            errs.append(f"{cls} bytes: program {reported.get(cls)}, wire format {want}")
    got_by_link: dict = {}
    for src, dst, kind, sent_at in deliveries:
        got_by_link.setdefault((src, dst), []).append((kind, sent_at))
    for link, got in got_by_link.items():
        sent = sent_by_link.get(link, [])
        if got != sent[: len(got)]:
            errs.append(f"link {link[0]}->{link[1]}: {len(got)} deliveries do not match the first sends")
            break
    return errs


# -- properties the method must have ---------------------------------------------


def check_properties(run: dict) -> list[str]:
    """Checks on one run's record (see ``run.py``'s ``inspect_run``)."""
    errs = []
    if run["stop_reason"] != "horizon":
        errs.append(f"stop reason {run['stop_reason']!r}, expected 'horizon'")
    if not run["params_finite"]:
        errs.append("non-finite server parameters")
    if run["token_counts"] and set(run["token_counts"]) != {1}:
        errs.append(f"token count (holders + in flight) took values {sorted(set(run['token_counts']))}")
    for sid, (counted, absorbed, pending_max) in run["update_counts"].items():
        # Round-based servers count an update on arrival but absorb it when
        # the round closes, so up to one round may be pending.
        if not 0 <= counted - absorbed <= pending_max:
            errs.append(f"server {sid}: clients counted {counted} updates, server absorbed {absorbed}")
    return errs


def check_target(label: str, time_to_target: float | None, target: float) -> list[str]:
    if time_to_target is None:
        return [f"{label} never evaluated at or above the target accuracy {target}"]
    return []


def check_repeat(label: str, first: dict, again: dict) -> list[str]:
    return [
        f"{label}: {key} differs between repeats ({first[key][:12]} vs {again[key][:12]})"
        for key in first
        if first[key] != again[key]
    ]
