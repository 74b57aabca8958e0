"""Wire messages exchanged between nodes, with payload size accounting.

Model-bearing messages cost 4 bytes per parameter (32-bit on the wire) plus
a fixed 64-byte header; age and token messages carry the header plus 8 bytes
per age entry.  Sizes feed the link transfer-time and bandwidth metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HEADER_BYTES = 64
PARAM_BYTES = 4
AGE_BYTES = 8


@dataclass(frozen=True)
class Token:
    """Circulating permission object serializing server model exchanges."""

    bid: int
    ages: tuple[float, ...]


@dataclass(frozen=True)
class ModelDispatch:
    """Server -> client: model to train, its age, and the client's current lr."""

    params: np.ndarray
    age: float
    lr: float


@dataclass(frozen=True)
class ClientUpdate:
    """Client -> server: trained model plus the age echoed from the dispatch."""

    params: np.ndarray
    age_sent: float


@dataclass(frozen=True)
class ModelBroadcast:
    """Server -> server: full model with age, tagged by synchronization bid.

    Synchronous exchanges reuse this with bid = exchange round number.
    """

    params: np.ndarray
    age: float
    bid: int


@dataclass(frozen=True)
class AgeBroadcast:
    """Server -> server: age gossip from a server not holding the token."""

    age: float


@dataclass(frozen=True)
class TokenPass:
    """Server -> ring successor: hands over the token."""

    token: Token


@dataclass(frozen=True)
class EdgeReport:
    """Edge server -> cloud: edge model and the data count behind it."""

    params: np.ndarray
    weight: int


@dataclass(frozen=True)
class CloudModel:
    """Cloud -> edge servers: the averaged model to resume from."""

    params: np.ndarray


@dataclass(frozen=True)
class ReplayedUpdate:
    """Self-addressed wrapper for a client update buffered during a sync."""

    inner: ClientUpdate
    orig_src: int


_MODEL_BEARING = frozenset({ModelDispatch, ClientUpdate, ModelBroadcast, EdgeReport, CloudModel})


def payload_bytes(msg) -> int:
    # Dispatch on the exact type: message classes are final, and this runs
    # for every send.
    t = type(msg)
    if t in _MODEL_BEARING:
        return PARAM_BYTES * len(msg.params) + HEADER_BYTES
    if t is AgeBroadcast:
        return HEADER_BYTES + AGE_BYTES
    if t is TokenPass:
        return HEADER_BYTES + AGE_BYTES * len(msg.token.ages)
    if t is ReplayedUpdate:
        return 0
    raise TypeError(f"unknown message type {t.__name__}")


_DESCRIBE = {
    ModelBroadcast: lambda m: f"ModelBroadcast(bid={m.bid},age={m.age:.6f})",
    TokenPass: lambda m: f"TokenPass(bid={m.token.bid})",
    AgeBroadcast: lambda m: f"AgeBroadcast(age={m.age:.6f})",
    ClientUpdate: lambda m: f"ClientUpdate(age_sent={m.age_sent:.6f})",
    ModelDispatch: lambda m: f"ModelDispatch(age={m.age:.6f},lr={m.lr:.9f})",
    ReplayedUpdate: lambda m: f"ReplayedUpdate(src={m.orig_src})",
}


def describe(msg) -> str:
    """Compact single-token description used in event traces."""
    fmt = _DESCRIBE.get(type(msg))
    return type(msg).__name__ if fmt is None else fmt(msg)
