"""Token-coordinated asynchronous multi-server training.

Each server absorbs its own clients' updates immediately (age-weighted
convex merge) and gossips ages.  Model exchange between servers is
serialized by a single circulating token: when the age spread across
servers or the local age growth exceeds its threshold, the token holder
broadcasts its model; every other server echoes its own model once per bid;
after the holder has seen all n models it forwards the token around the
ring.
"""

from __future__ import annotations

from ..aggregation import (
    client_staleness_weight,
    decay,
    require_finite,
    server_merge,
    server_pair_weight,
    spyker_client_merge,
)
from ..errors import ProtocolViolation
from ..hyperparams import HyperParams
from ..messages import (
    AgeBroadcast,
    ClientUpdate,
    ModelBroadcast,
    ModelDispatch,
    Token,
    TokenPass,
)
from ..models import TinyModel
from ..simulation import SERVER, Node, Simulator


class SpykerBase(Node):
    """The client side shared by both spyker variants.

    Absorbs each client update with an age-weighted merge, bumps the age and
    the client's update count, decays the client's learning rate and sends
    the fresh model back.  Subclasses add the server-server exchange.
    """

    kind = SERVER

    def __init__(
        self,
        node_id: int,
        location: str,
        server_ids: list[int],
        model: TinyModel,
        client_ids: list[int],
        hp: HyperParams,
        agg_ms: float,
    ):
        if len(set(server_ids)) != len(server_ids) or node_id not in server_ids:
            raise ProtocolViolation(
                f"server {node_id} needs unique server ids including its own, got {server_ids}"
            )
        self.node_id = node_id
        self.location = location
        self.server_ids = list(server_ids)
        self.n_servers = len(server_ids)
        self.index_of = {sid: i for i, sid in enumerate(server_ids)}
        self.server_index = self.index_of[node_id]
        self.peer_ids = [sid for sid in server_ids if sid != node_id]
        self.hp = hp
        self.agg_ms = agg_ms

        self.model = model
        self.age = 0.0
        self.age_prev = 0.0
        self.u = {cid: 0 for cid in client_ids}
        self.eta = {cid: hp.eta_init for cid in client_ids}
        self.updates_absorbed = 0
        self.age_clamps = 0

    def bootstrap(self, sim: Simulator) -> None:
        for cid in sorted(self.u):
            sim.send(self.node_id, cid, ModelDispatch(self.model.params, self.age, self.eta[cid]))

    def _absorb(self, sim: Simulator, src: int, msg: ClientUpdate) -> None:
        if src not in self.u:
            raise ProtocolViolation(f"update from unknown client {src} at server {self.node_id}")
        # Server-server merges can pull the age below an outstanding
        # dispatch; treat such echoes as fresh rather than rejecting them,
        # and count them.
        age_sent = msg.age_sent
        if age_sent > self.age:
            age_sent = self.age
            self.age_clamps += 1
        w = client_staleness_weight(self.age, age_sent, self.hp.staleness_mode)
        merged = require_finite(
            spyker_client_merge(self.model.params, msg.params, w, self.hp.eta_server),
            lambda: f"server {self.node_id} merged client {src} into a non-finite model: "
            f"age gap {self.age - age_sent}, coefficient eta_server x weight = "
            f"{self.hp.eta_server * w}",
        )
        self.model = self.model.with_params(merged)
        self.age += 1.0
        self.u[src] += 1
        self.eta[src] = self.hp.eta_init
        if self.hp.decay_enabled:
            u_mean = sum(self.u.values()) / len(self.u)
            self.eta[src] = decay(self.eta[src], self.u[src], u_mean, self.hp.beta, self.hp.eta_min)
        self.updates_absorbed += 1
        sim.send(self.node_id, src, ModelDispatch(self.model.params, self.age, self.eta[src]))


class SpykerServer(SpykerBase):
    def __init__(
        self,
        node_id: int,
        location: str,
        server_ids: list[int],
        model: TinyModel,
        ring_successor: int,
        client_ids: list[int],
        hp: HyperParams,
        agg_ms: float,
        token: Token | None = None,
    ):
        super().__init__(node_id, location, server_ids, model, client_ids, hp, agg_ms)
        self.ring_successor = ring_successor
        self.known_ages = [0.0] * self.n_servers
        self.token = token
        self.did_broadcast: set[int] = set()
        self.cnt: dict[int, int] = {}
        self.ongoing_synchro = False
        self._last_age_broadcast: float | None = None

    # -- engine hooks -------------------------------------------------------

    def instant(self, msg) -> bool:
        t = type(msg)
        return t is AgeBroadcast or t is TokenPass

    def service_ms(self, sim: Simulator, msg, src: int) -> float:
        return self.agg_ms

    def handle(self, sim: Simulator, src: int, msg) -> None:
        # Message classes are final, so the exact type decides.
        t = type(msg)
        if t is AgeBroadcast:
            self._on_age(sim, src, msg)
        elif t is ClientUpdate:
            self._absorb(sim, src, msg)
            self._check_synchronization(sim)
        elif t is ModelBroadcast:
            self._on_model_broadcast(sim, src, msg)
        elif t is TokenPass:
            self._on_token(sim, msg)
        else:
            raise ProtocolViolation(
                f"server {self.node_id} cannot handle {type(msg).__name__} from node {src}"
            )

    # -- state transitions ---------------------------------------------------

    def effective_ages(self) -> list[float]:
        ages = self.known_ages.copy()
        ages[self.server_index] = self.age
        return ages

    def _check_synchronization(self, sim: Simulator) -> None:
        last = self._last_age_broadcast
        if self.token is None and last is not None and self.age - last < 1.0:
            # A non-holder that has gossiped this age has nothing to do.
            return
        ages = self.effective_ages()
        triggered = (max(ages) - min(ages) >= self.hp.h_inter) or (
            self.age - self.age_prev >= self.hp.h_intra
        )
        if not triggered:
            return
        if self.token is not None:
            if self.ongoing_synchro:
                return
            self.age_prev = self.age
            self.ongoing_synchro = True
            bid = self.token.bid
            self.did_broadcast.add(bid)
            self.cnt[bid] = 1
            msg = ModelBroadcast(self.model.params, self.age, bid)
            for p in self.peer_ids:
                sim.send(self.node_id, p, msg)
            self._maybe_pass_token(sim, bid)
        else:
            # The return above throttles: a non-holder gets here only once
            # its age has grown by >= 1 since its last gossip.
            self._last_age_broadcast = self.age
            # Messages are frozen, so every peer can share one.
            msg = AgeBroadcast(self.age)
            for p in self.peer_ids:
                sim.send(self.node_id, p, msg)

    def _on_age(self, sim: Simulator, src: int, msg: AgeBroadcast) -> None:
        j = self.index_of[src]
        if msg.age > self.known_ages[j]:
            self.known_ages[j] = msg.age
        self._check_synchronization(sim)

    def _on_token(self, sim: Simulator, msg: TokenPass) -> None:
        if self.token is not None:
            raise ProtocolViolation(f"server {self.node_id} received a token while holding one")
        t = msg.token
        self.known_ages = [max(a, b) for a, b in zip(self.known_ages, t.ages)]
        self.token = Token(t.bid + 1, t.ages)
        self._check_synchronization(sim)

    def _on_model_broadcast(self, sim: Simulator, src: int, msg: ModelBroadcast) -> None:
        j = self.index_of[src]
        self.known_ages[j] = max(self.known_ages[j], msg.age)
        if msg.bid not in self.did_broadcast:
            self.did_broadcast.add(msg.bid)
            self.age_prev = self.age
            echo = ModelBroadcast(self.model.params, self.age, msg.bid)
            for p in self.peer_ids:
                sim.send(self.node_id, p, echo)
        params, age = server_merge(
            self.model.params, self.age, msg.params, msg.age, self.hp.eta_a, self.hp.phi
        )
        require_finite(
            params,
            lambda: f"server {self.node_id} merged server {src} into a non-finite model: "
            f"ages {self.age} and {msg.age}, coefficient eta_a x pair weight = "
            f"{self.hp.eta_a * server_pair_weight(self.age, msg.age, self.hp.phi)}",
        )
        self.model = self.model.with_params(params)
        self.age = age
        if self.token is not None and self.token.bid == msg.bid:
            self.cnt[msg.bid] = self.cnt.get(msg.bid, 0) + 1
            self._maybe_pass_token(sim, msg.bid)

    def _maybe_pass_token(self, sim: Simulator, bid: int) -> None:
        """Pass the token once all n models of its bid are in; only its
        holder calls this, with the token's bid."""
        if self.cnt.get(bid, 0) >= self.n_servers:
            out = Token(bid, tuple(self.effective_ages()))
            self.token = None
            self.ongoing_synchro = False
            sim.send(self.node_id, self.ring_successor, TokenPass(out))
