"""Asynchronous single-server baseline with staleness-dampened merges.

The server folds each client update into the global model the moment its
service slot frees up, weighting by data share and by how many versions the
global model advanced since that client last received it, then immediately
sends the fresh model back.
"""

from __future__ import annotations

import numpy as np

from ..aggregation import fedasync_merge, fedasync_staleness, require_finite
from ..errors import ProtocolViolation
from ..messages import ClientUpdate, ModelDispatch
from ..models import TinyModel
from ..simulation import SERVER, Node, Simulator


class FedAsyncServer(Node):
    kind = SERVER

    def __init__(
        self,
        node_id: int,
        location: str,
        model: TinyModel,
        client_ids: list[int],
        client_data_sizes: dict[int, int],
        lr: float,
        alpha: float,
        agg_ms: float,
    ):
        self.node_id = node_id
        self.location = location
        self.model = model
        self.client_ids = sorted(client_ids)
        self.data_sizes = dict(client_data_sizes)
        self.total_data = sum(self.data_sizes.values())
        self.lr = lr
        self.alpha = alpha
        self.agg_ms = agg_ms
        self.version = 0
        self.updates_absorbed = 0
        self.u = {cid: 0 for cid in self.client_ids}
        self._version_sent = {cid: 0 for cid in self.client_ids}
        self._params_sent: dict[int, np.ndarray] = {}

    def bootstrap(self, sim: Simulator) -> None:
        for cid in self.client_ids:
            self._params_sent[cid] = self.model.params
            self._version_sent[cid] = self.version
            sim.send(self.node_id, cid, ModelDispatch(self.model.params, 0.0, self.lr))

    def service_ms(self, sim: Simulator, msg, src: int) -> float:
        return self.agg_ms

    def handle(self, sim: Simulator, src: int, msg) -> None:
        if type(msg) is not ClientUpdate:
            raise ProtocolViolation(f"server cannot handle {type(msg).__name__}")
        if src not in self.u:
            raise ProtocolViolation(f"update from unknown client {src}")
        tau = float(self.version - self._version_sent[src])
        d_k = self.data_sizes[src]
        merged = require_finite(
            fedasync_merge(
                self.model.params,
                self._params_sent[src],
                msg.params,
                tau,
                d_k,
                self.total_data,
                self.alpha,
            ),
            lambda: f"server {self.node_id} merged client {src} into a non-finite model: "
            f"staleness {tau}, coefficient s(tau) x d_k/d = "
            f"{fedasync_staleness(tau, self.alpha) * (d_k / self.total_data)}",
        )
        self.model = self.model.with_params(merged)
        self.version += 1
        self.updates_absorbed += 1
        self.u[src] += 1
        self._params_sent[src] = self.model.params
        self._version_sent[src] = self.version
        sim.send(self.node_id, src, ModelDispatch(self.model.params, float(self.version), self.lr))
