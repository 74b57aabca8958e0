"""Experiment configuration: presets, YAML loading, dotted overrides.

A config is one flat dataclass plus two nested bundles (hyperparameters and
compute profile).  Presets are dictionaries applied under any explicit
fields, so every experiment is a small diff against a named preset.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import yaml

from .errors import ConfigError
from .hyperparams import HyperParams
from .models import LOGREG, MLP
from .simulation import LOCATIONS, ComputeProfile

ALGORITHMS = ("spyker", "sync-spyker", "fedavg", "fedasync", "hierfavg")
SINGLE_SERVER = ("fedavg", "fedasync")

DATA_ROOT_ENV = "SPYKERSIM_DATA"

# A YAML 1.2 float with an exponent.  PyYAML reads YAML 1.1, where an
# exponent float needs a dot and a signed exponent, so 1e8, 1.0e8 and -2E-3
# reach the config as strings.
_EXPONENT_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+")


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str = "spyker"
    preset: str = ""
    n_servers: int = 4
    n_clients: int = 40
    client_counts: tuple[int, ...] | None = None
    server_locations: tuple[str, ...] = LOCATIONS
    client_locations: tuple[str, ...] | None = None
    latency: str = "aws4"  # aws4 | uniform
    bandwidth_bps: float = 100e6

    dataset: str = "synthetic"  # synthetic | mnist
    n_samples: int = 4000
    input_dim: int = 20
    n_classes: int = 2
    separation: float = 3.0
    test_fraction: float = 0.25
    labels_per_client: int = 2
    model_kind: str = LOGREG
    hidden_dim: int = 0

    hyper: HyperParams = field(default_factory=HyperParams)
    compute: ComputeProfile = field(default_factory=ComputeProfile)

    seed: int = 0
    horizon_ms: float = 120_000.0
    target_accuracy: float | None = None
    max_updates: int | None = None
    eval_interval_ms: float = 1000.0
    eval_target: str = "age-weighted"  # age-weighted | mean
    sync_period: float | None = None  # sync-spyker; None -> hyper.h_intra
    cloud_period: int = 5
    selection_fraction: float = 1.0

    # -- derived ------------------------------------------------------------

    def resolved_client_counts(self) -> tuple[int, ...]:
        if self.client_counts is not None:
            return tuple(self.client_counts)
        base, extra = divmod(self.n_clients, self.n_servers)
        return tuple(base + (1 if s < extra else 0) for s in range(self.n_servers))

    def resolved_client_locations(self) -> tuple[str, ...]:
        if self.client_locations is not None:
            return tuple(self.client_locations)
        if self.n_servers == 1:
            # Keep the client population geo-distributed even when a single
            # server handles everyone.
            return tuple(LOCATIONS[i % len(LOCATIONS)] for i in range(self.n_clients))
        out = []
        for s, count in enumerate(self.resolved_client_counts()):
            out.extend([self.server_locations[s]] * count)
        return tuple(out)

    def resolved_hyper(self) -> HyperParams:
        return self.hyper.resolve_h_inter(self.n_clients, self.n_servers)

    def resolved_sync_period(self) -> float:
        return self.sync_period if self.sync_period is not None else self.hyper.h_intra

    # -- validation -----------------------------------------------------------

    def validate(self) -> "ExperimentConfig":
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.n_servers < 1:
            raise ConfigError("n_servers must be >= 1")
        if self.n_clients < 1:
            raise ConfigError("n_clients must be >= 1")
        if self.algorithm in SINGLE_SERVER and self.n_servers != 1:
            raise ConfigError(f"{self.algorithm} requires n_servers = 1, got {self.n_servers}")
        counts = self.resolved_client_counts()
        if len(counts) != self.n_servers:
            raise ConfigError(
                f"client_counts has {len(counts)} entries for {self.n_servers} servers"
            )
        if any(c < 1 for c in counts):
            raise ConfigError("every server needs at least one client")
        if sum(counts) != self.n_clients:
            raise ConfigError(f"client_counts sums to {sum(counts)}, expected {self.n_clients}")
        if len(self.server_locations) < self.n_servers:
            raise ConfigError("server_locations must cover every server")
        if len(self.resolved_client_locations()) < self.n_clients:
            raise ConfigError("client_locations must cover every client")
        for loc in tuple(self.server_locations) + self.resolved_client_locations():
            if loc not in LOCATIONS:
                raise ConfigError(f"unknown location {loc!r}; known: {LOCATIONS}")
        if self.latency not in ("aws4", "uniform"):
            raise ConfigError(f"latency must be 'aws4' or 'uniform', got {self.latency!r}")
        if self.bandwidth_bps <= 0:
            raise ConfigError("bandwidth_bps must be > 0")
        if self.dataset not in ("synthetic", "mnist"):
            raise ConfigError(f"dataset must be 'synthetic' or 'mnist', got {self.dataset!r}")
        if self.model_kind not in (LOGREG, MLP):
            raise ConfigError(f"model_kind must be {LOGREG!r} or {MLP!r}")
        if self.model_kind == MLP and self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be >= 1 for the mlp model")
        if not 0 < self.test_fraction < 1:
            raise ConfigError("test_fraction must be in (0, 1)")
        if self.eval_interval_ms <= 0:
            raise ConfigError("eval_interval_ms must be > 0")
        if self.horizon_ms <= 0:
            raise ConfigError("horizon_ms must be > 0")
        if self.target_accuracy is not None and not 0 < self.target_accuracy <= 1:
            raise ConfigError("target_accuracy must be in (0, 1]")
        if self.eval_target not in ("age-weighted", "mean"):
            raise ConfigError(f"unknown eval_target {self.eval_target!r}")
        if self.sync_period is not None and self.sync_period <= 0:
            raise ConfigError("sync_period must be > 0")
        if self.cloud_period < 1:
            raise ConfigError("cloud_period must be >= 1")
        if not 0 < self.selection_fraction <= 1:
            raise ConfigError("selection_fraction must be in (0, 1]")
        self.hyper.validate()
        return self


PRESETS: dict[str, dict] = {
    # Four colocated server/client groups, tiny logistic regression; a full
    # run stays under two minutes of wall time.
    "desk-synth": {
        "algorithm": "spyker",
        "n_servers": 4,
        "n_clients": 40,
        "dataset": "synthetic",
        "n_samples": 4000,
        "input_dim": 20,
        "n_classes": 2,
        "separation": 3.5,
        "labels_per_client": 2,
        "model_kind": LOGREG,
        "horizon_ms": 120_000.0,
        "eval_interval_ms": 250.0,
        "hyper": {
            "eta_init": 0.05,
            "h_intra": 350.0,
            "staleness_mode": "literal",
            "eta_server": 0.03,
        },
    },
    # 100 clients on a 10-class 784-dim task with a small MLP; uses real IDX
    # files when the data root is set, otherwise a seeded surrogate.
    "desk-mnist": {
        "algorithm": "spyker",
        "n_servers": 4,
        "n_clients": 100,
        "dataset": "mnist",
        "n_samples": 12_000,
        "input_dim": 784,
        "n_classes": 10,
        "separation": 5.0,
        "labels_per_client": 2,
        "model_kind": MLP,
        "hidden_dim": 64,
        "horizon_ms": 240_000.0,
        "eval_interval_ms": 2000.0,
        "hyper": {
            "eta_init": 0.3,
            "h_intra": 350.0,
            "staleness_mode": "literal",
            "eta_server": 0.01,
        },
    },
    # Full-scale parameter set; too slow for the test suite, kept for
    # longer studies.
    "reference": {
        "algorithm": "spyker",
        "n_servers": 4,
        "n_clients": 100,
        "dataset": "synthetic",
        "n_samples": 12_000,
        "input_dim": 32,
        "n_classes": 10,
        "labels_per_client": 2,
        "model_kind": LOGREG,
        "horizon_ms": 600_000.0,
        "hyper": {
            "eta_init": 0.5,
            "h_intra": 350.0,
            "staleness_mode": "literal",
            "eta_server": 0.03,
        },
    },
}


def _typed(hint, value, name: str):
    """``value`` checked against ``hint``, the declared type of field ``name``.

    Every config value passes through here once: an int or a YAML 1.2
    exponent string (``1e8``) given for a float field becomes a float, a list
    becomes a tuple, and a mapping given for a nested bundle builds that
    bundle.
    """
    args = get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        args = get_args(hint)
    if get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(_typed(args[0], v, name) for v in value)
    elif is_dataclass(hint) and isinstance(value, dict):
        return _build(hint, value, f"{name}.")
    elif hint is float and (
        type(value) is int or (isinstance(value, str) and _EXPONENT_FLOAT.fullmatch(value))
    ):
        return float(value)
    elif isinstance(value, hint) and (hint is bool or not isinstance(value, bool)):
        return value
    label = str(hint) if get_origin(hint) else hint.__name__
    raise ConfigError(f"{name} must be {label}, got {value!r}")


def _build(cls, raw: dict, prefix: str = ""):
    """An instance of the config dataclass ``cls`` from a mapping of its fields."""
    hints = get_type_hints(cls)
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(prefix + k for k in unknown)}")
    return cls(**{k: _typed(hints[k], v, prefix + k) for k, v in raw.items()})


def from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a plain mapping, expanding its preset first."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    raw = dict(raw)
    preset_name = raw.get("preset", "")
    merged: dict = {}
    if preset_name:
        if preset_name not in PRESETS:
            raise ConfigError(f"unknown preset {preset_name!r}; known: {sorted(PRESETS)}")
        merged.update(PRESETS[preset_name])
        # Nested bundles merge field-by-field.
        for key in ("hyper", "compute"):
            if key in merged and key in raw:
                base = dict(merged[key])
                base.update(raw[key] or {})
                raw[key] = base
    merged.update(raw)
    merged["preset"] = preset_name
    return _build(ExperimentConfig, merged).validate()


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as f:
            raw = yaml.safe_load(f) or {}
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: {e}") from None
    return from_dict(raw)


def apply_overrides(cfg: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply repeatable `key=value` pairs; nested fields use dots."""
    raw = to_dict(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, _, raw_value = item.partition("=")
        key = key.strip()
        try:
            value = yaml.safe_load(raw_value)
        except yaml.YAMLError:
            value = raw_value
        if key == "preset":
            # A preset fills fields under the explicit ones, so relabelling a
            # built config would leave the old preset's fields in place.
            raise ConfigError("preset cannot be overridden; set it in the --config file")
        if key in ("hyper", "compute"):
            raise ConfigError(f"override {key} one field at a time, as {key}.<field>=value")
        parts = key.split(".")
        if len(parts) == 2 and parts[0] in ("hyper", "compute"):
            target = raw[parts[0]]
        elif len(parts) == 1:
            target = raw
        else:
            raise ConfigError(f"cannot apply override path {key!r}")
        if parts[-1] not in target:
            raise ConfigError(f"unknown config field {key!r}")
        target[parts[-1]] = value
    return _build(ExperimentConfig, raw).validate()


def to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(to_dict(cfg), sort_keys=True, default=list)
    return hashlib.sha256(canon.encode()).hexdigest()
