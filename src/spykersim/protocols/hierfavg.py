"""Two-level hierarchical averaging: edge servers plus a cloud aggregator.

Edges are flat averaging servers over their own clients with full
participation.  Every `cloud_period` edge rounds they report their model
(weighted by their clients' data) to the cloud and pause; the cloud
averages all reports and redistributes, after which edges resume.
"""

from __future__ import annotations

import numpy as np

from ..aggregation import fedavg_aggregate, require_finite
from ..errors import ProtocolViolation
from ..messages import CloudModel, EdgeReport
from ..models import TinyModel
from ..simulation import SERVER, Node, Simulator
from .fedavg import FedAvgServer, averaged_into_non_finite


class HierEdgeServer(FedAvgServer):
    def __init__(
        self,
        node_id: int,
        location: str,
        model: TinyModel,
        client_ids: list[int],
        client_data_sizes: dict[int, int],
        lr: float,
        agg_ms: float,
        cloud_id: int,
        cloud_period: int,
    ):
        if cloud_period < 1:
            raise ProtocolViolation("cloud_period must be >= 1")
        super().__init__(node_id, location, model, client_ids, client_data_sizes, lr, agg_ms)
        self.total_data = sum(self.data_sizes.values())
        self.cloud_id = cloud_id
        self.cloud_period = cloud_period

    def _on_round_closed(self, sim: Simulator) -> None:
        if self.round % self.cloud_period == 0:
            sim.send(self.node_id, self.cloud_id, EdgeReport(self.model.params, self.total_data))
        else:
            self._dispatch_round(sim)

    def _on_other(self, sim: Simulator, src: int, msg) -> None:
        if type(msg) is not CloudModel:
            raise ProtocolViolation(
                f"edge server {self.node_id} cannot handle {type(msg).__name__} from node {src}"
            )
        self.model = self.model.with_params(msg.params)
        self._dispatch_round(sim)


class HierCloud(Node):
    kind = SERVER

    def __init__(self, node_id: int, location: str, model: TinyModel, edge_ids: list[int], agg_ms: float):
        self.node_id = node_id
        self.location = location
        self.model = model
        self.edge_ids = sorted(edge_ids)
        self.agg_ms = agg_ms
        self.cloud_rounds = 0
        self._reports: dict[int, tuple[np.ndarray, int]] = {}

    def service_ms(self, sim: Simulator, msg, src: int) -> float:
        if len(self._reports) + 1 == len(self.edge_ids):
            return self.agg_ms
        return 0.0

    def handle(self, sim: Simulator, src: int, msg) -> None:
        if type(msg) is not EdgeReport:
            raise ProtocolViolation(
                f"cloud {self.node_id} cannot handle {type(msg).__name__} from node {src}"
            )
        if src not in self.edge_ids:
            raise ProtocolViolation(f"cloud {self.node_id} got a report from unknown edge {src}")
        self._reports[src] = (msg.params, msg.weight)
        if len(self._reports) == len(self.edge_ids):
            updates = [self._reports[eid] for eid in self.edge_ids]
            merged = require_finite(
                fedavg_aggregate(updates),
                lambda: averaged_into_non_finite(
                    f"cloud {self.node_id} averaged cloud round {self.cloud_rounds}", "edge",
                    self.edge_ids, updates,
                ),
            )
            self.model = self.model.with_params(merged)
            self.cloud_rounds += 1
            self._reports = {}
            for eid in self.edge_ids:
                sim.send(self.node_id, eid, CloudModel(self.model.params))
