"""Learning and aggregation hyperparameters.

The defaults carry the client lr used for training runs (0.05), which
converges on the desk-scale tasks; the presets in ``config`` override fields
per task.  ``h_inter`` depends on the topology (n_clients / (5 *
n_servers)) and is resolved at experiment-build time when left unset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError


@dataclass(frozen=True)
class HyperParams:
    eta_init: float = 0.05      # initial client learning rate
    eta_min: float = 1e-6       # lower bound for decayed client learning rates
    beta: float = 0.05          # decay rate per excess update
    h_inter: float | None = None  # inter-server age-spread trigger; None -> n_C/(5n)
    h_intra: float = 350.0      # local age growth trigger since last synchronization
    phi: float = 1.5            # sigmoid activation rate for server pair weights
    eta_a: float = 0.6          # server-server aggregation rate
    eta_server: float = 0.6     # server-side rate for absorbing client updates
    alpha_fedasync: float = 0.5  # exponent of the (1+staleness)^-alpha dampening
    local_epochs: int = 1       # epochs per client training pass (T_k)
    batch_size: int = 32
    staleness_mode: str = "dampened"   # "dampened" -> 1/(1+gap), "literal" -> gap
    decay_enabled: bool = True

    def validate(self) -> None:
        if not self.eta_min <= self.eta_init:
            raise ConfigError(f"eta_min ({self.eta_min}) must be <= eta_init ({self.eta_init})")
        if self.beta < 0:
            raise ConfigError("beta must be >= 0")
        if self.phi <= 0:
            raise ConfigError("phi must be > 0")
        if not 0 < self.eta_a <= 1:
            raise ConfigError("eta_a must be in (0, 1]")
        if not 0 < self.eta_server <= 1:
            raise ConfigError("eta_server must be in (0, 1]")
        if self.h_inter is not None and self.h_inter <= 0:
            raise ConfigError("h_inter must be > 0")
        if self.h_intra <= 0:
            raise ConfigError("h_intra must be > 0")
        if self.local_epochs < 1:
            raise ConfigError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.staleness_mode not in ("dampened", "literal"):
            raise ConfigError(f"unknown staleness_mode {self.staleness_mode!r}")

    def resolve_h_inter(self, n_clients: int, n_servers: int) -> "HyperParams":
        """Fill in the topology-dependent default h_inter = n_C / (5 n)."""
        if self.h_inter is not None:
            return self
        return replace(self, h_inter=n_clients / (5.0 * n_servers))
