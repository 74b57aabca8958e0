"""Synchronous single-server federated averaging.

Each round the server dispatches the global model to every selected client,
waits for all trained models, and replaces the global model with the
data-weighted average.  Round length is therefore set by the slowest
client's round trip plus one aggregation delay.
"""

from __future__ import annotations

import numpy as np

from ..aggregation import fedavg_aggregate, require_finite
from ..errors import ProtocolViolation
from ..messages import ClientUpdate, ModelDispatch
from ..models import TinyModel
from ..simulation import SERVER, Node, Simulator


class FedAvgServer(Node):
    kind = SERVER

    def __init__(
        self,
        node_id: int,
        location: str,
        model: TinyModel,
        client_ids: list[int],
        client_data_sizes: dict[int, int],
        lr: float,
        agg_ms: float,
        selection_fraction: float = 1.0,
        seed: int = 0,
    ):
        if not 0 < selection_fraction <= 1:
            raise ProtocolViolation("selection_fraction must be in (0, 1]")
        self.node_id = node_id
        self.location = location
        self.model = model
        self.client_ids = sorted(client_ids)
        self.data_sizes = dict(client_data_sizes)
        self.lr = lr
        self.agg_ms = agg_ms
        self.selection_fraction = selection_fraction
        self.seed = seed
        self.round = 0
        self.updates_absorbed = 0
        self.u = {cid: 0 for cid in self.client_ids}
        self._selected: list[int] = []
        self._pending: dict[int, np.ndarray] = {}

    def _select(self) -> list[int]:
        k = max(1, int(round(self.selection_fraction * len(self.client_ids))))
        if k >= len(self.client_ids):
            return list(self.client_ids)
        rng = np.random.default_rng([self.seed, self.round])
        picked = rng.choice(len(self.client_ids), size=k, replace=False)
        return sorted(self.client_ids[i] for i in picked)

    def _dispatch_round(self, sim: Simulator) -> None:
        self._selected = self._select()
        self._pending = {}
        for cid in self._selected:
            sim.send(self.node_id, cid, ModelDispatch(self.model.params, float(self.round), self.lr))

    def bootstrap(self, sim: Simulator) -> None:
        self._dispatch_round(sim)

    def service_ms(self, sim: Simulator, msg, src: int) -> float:
        # Collection is free; the round's single aggregation happens while
        # servicing the final missing update.
        if type(msg) is ClientUpdate and len(self._pending) + 1 == len(self._selected):
            return self.agg_ms
        return 0.0

    def handle(self, sim: Simulator, src: int, msg) -> None:
        if type(msg) is not ClientUpdate:
            self._on_other(sim, src, msg)
            return
        if src not in self.u:
            raise ProtocolViolation(f"update from unknown client {src}")
        if src in self._pending:
            raise ProtocolViolation(f"duplicate update from client {src} in round {self.round}")
        self._pending[src] = msg.params
        self.u[src] += 1
        if len(self._pending) == len(self._selected):
            updates = [(self._pending[cid], self.data_sizes[cid]) for cid in self._selected]
            merged = require_finite(
                fedavg_aggregate(updates),
                lambda: averaged_into_non_finite(
                    f"server {self.node_id} averaged round {self.round}", "client",
                    self._selected, updates,
                ),
            )
            self.model = self.model.with_params(merged)
            self.updates_absorbed += len(updates)
            self.round += 1
            self._on_round_closed(sim)

    # -- hooks for the hierarchical edge -------------------------------------

    def _on_round_closed(self, sim: Simulator) -> None:
        self._dispatch_round(sim)

    def _on_other(self, sim: Simulator, src: int, msg) -> None:
        raise ProtocolViolation(f"server cannot handle {type(msg).__name__}")


def averaged_into_non_finite(what: str, kind: str, sources: list[int], updates) -> str:
    """The error message for a non-finite ``fedavg_aggregate(updates)``, one
    update per id in ``sources``: it names the first source whose weighted
    term is not finite, with its coefficient d_k/d."""
    total = float(sum(d for _, d in updates))
    for sid, (w, d) in zip(sources, updates):
        if not np.isfinite((d / total) * w).all():
            return f"{what} into a non-finite model: {kind} {sid}, coefficient d_k/d = {d / total}"
    return f"{what} into a non-finite model: the weighted sum overflowed"
