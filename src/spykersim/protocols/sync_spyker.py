"""Synchronous variant: periodic blocking all-to-all model exchange.

When a server's age has grown by `sync_period` since the last exchange it
broadcasts its model (tagged with the exchange round number) and stops
absorbing client updates, buffering them instead.  Any server receiving a
round-r broadcast joins round r immediately.  Once a server holds all n
round-r models it folds them in ascending server order, which makes every
server's post-exchange model bitwise identical, then replays its buffered
updates in arrival order.
"""

from __future__ import annotations

from ..aggregation import require_finite, server_merge, server_pair_weight
from ..errors import ProtocolViolation
from ..hyperparams import HyperParams
from ..messages import ClientUpdate, ModelBroadcast, ReplayedUpdate
from ..models import TinyModel
from ..simulation import Simulator
from .spyker import SpykerBase


class SyncSpykerServer(SpykerBase):
    def __init__(
        self,
        node_id: int,
        location: str,
        server_ids: list[int],
        model: TinyModel,
        client_ids: list[int],
        hp: HyperParams,
        agg_ms: float,
        sync_period: float,
    ):
        super().__init__(node_id, location, server_ids, model, client_ids, hp, agg_ms)
        self.sync_period = sync_period
        self.syncs_completed = 0
        self.syncing = False
        self._broadcast_round = 0
        self._peer_models: dict[int, dict[int, tuple]] = {}
        self._buffer: list[tuple[int, ClientUpdate]] = []
        self.buffered_total = 0
        self.replayed_total = 0

    # -- engine hooks -------------------------------------------------------

    def service_ms(self, sim: Simulator, msg, src: int) -> float:
        t = type(msg)
        if t is ClientUpdate or t is ReplayedUpdate:
            return 0.0 if self.syncing else self.agg_ms
        if t is ModelBroadcast:
            have = len(self._peer_models.get(msg.bid, ()))
            if have + 1 == self.n_servers - 1 or self.n_servers == 1:
                # This arrival completes the set; folding n models costs
                # n-1 pairwise merges.
                return self.agg_ms * max(self.n_servers - 1, 1)
            return 0.0
        return 0.0

    def handle(self, sim: Simulator, src: int, msg) -> None:
        t = type(msg)
        if t is ClientUpdate or t is ReplayedUpdate:
            replayed = t is ReplayedUpdate
            if replayed:
                src, msg = msg.orig_src, msg.inner
            if self.syncing:
                self._buffer.append((src, msg))
                if not replayed:
                    self.buffered_total += 1
                return
            if replayed:
                self.replayed_total += 1
            self._absorb(sim, src, msg)
            if self.age - self.age_prev >= self.sync_period:
                self._start_sync(sim)
        elif t is ModelBroadcast:
            self._on_peer_model(sim, src, msg)
        else:
            raise ProtocolViolation(f"server cannot handle {type(msg).__name__}")

    # -- state transitions ---------------------------------------------------

    def _start_sync(self, sim: Simulator) -> None:
        r = self.syncs_completed + 1
        self.syncing = True
        self._broadcast_round = r
        for p in self.peer_ids:
            sim.send(self.node_id, p, ModelBroadcast(self.model.params, self.age, r))
        if len(self._peer_models.get(r, ())) == self.n_servers - 1:
            self._fold(sim, r)

    def _on_peer_model(self, sim: Simulator, src: int, msg: ModelBroadcast) -> None:
        r = msg.bid
        if r <= self.syncs_completed:
            raise ProtocolViolation(
                f"server {self.node_id} got a round-{r} model after completing round "
                f"{self.syncs_completed}"
            )
        self._peer_models.setdefault(r, {})[self.index_of[src]] = (msg.params, msg.age)
        if not self.syncing and self._broadcast_round < r:
            # Joining the round folds at once when this model completed it.
            self._start_sync(sim)
        elif self._broadcast_round == r and len(self._peer_models[r]) == self.n_servers - 1:
            self._fold(sim, r)

    def _fold(self, sim: Simulator, r: int) -> None:
        entries = dict(self._peer_models.get(r, {}))
        entries[self.server_index] = (self.model.params, self.age)
        order = sorted(entries)
        params, age = entries[order[0]]
        for idx in order[1:]:
            pj, aj = entries[idx]
            merged, merged_age = server_merge(params, age, pj, aj, self.hp.eta_a, self.hp.phi)
            require_finite(
                merged,
                lambda: f"server {self.node_id} merged server {self.server_ids[idx]} into a "
                f"non-finite model in exchange round {r}: ages {age} and {aj}, coefficient "
                f"eta_a x pair weight = {self.hp.eta_a * server_pair_weight(age, aj, self.hp.phi)}",
            )
            params, age = merged, merged_age
        self.model = self.model.with_params(params)
        self.age = age
        self.age_prev = age
        self.syncs_completed = r
        self.syncing = False
        self._peer_models.pop(r, None)
        replay, self._buffer = self._buffer, []
        for src, upd in replay:
            sim.send(self.node_id, self.node_id, ReplayedUpdate(upd, src))
