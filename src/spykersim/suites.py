"""Prebuilt experiment batteries: latency, scalability, queues, fairness, bandwidth, decay.

Each function takes one base config, derives the per-run variants from it,
and returns a JSON-ready dict.  When out_dir is given, every underlying run
also writes its standard artifacts into a subdirectory.
``median_over_seeds`` reduces one battery's results over several seeds.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace
from statistics import median

import numpy as np

from .config import SINGLE_SERVER, ExperimentConfig
from .errors import ConfigError
from .experiment import RunResult, run_experiment, time_to_accuracy, updates_to_accuracy


def variant(cfg: ExperimentConfig, algorithm: str, n_clients: int | None = None) -> ExperimentConfig:
    """The base config re-targeted at another algorithm and client count."""
    out = replace(
        cfg,
        algorithm=algorithm,
        n_servers=1 if algorithm in SINGLE_SERVER else cfg.n_servers,
        n_clients=n_clients if n_clients is not None else cfg.n_clients,
        client_counts=None,
        client_locations=None,
    )
    return out.validate()


def _run(cfg: ExperimentConfig, out_dir: str | None, name: str) -> RunResult:
    sub = os.path.join(out_dir, name) if out_dir else None
    return run_experiment(cfg, sub)


UNREACHED = "unreached"


def latency_comparison(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Time to the target accuracy for spyker and fedasync under both latency maps."""
    target = cfg.target_accuracy or 0.9
    out: dict = {"target_accuracy": target}
    for latency in ("aws4", "uniform"):
        out[latency] = {}
        for alg in ("spyker", "fedasync"):
            run_cfg = variant(replace(cfg, latency=latency, target_accuracy=target), alg)
            res = _run(run_cfg, out_dir, f"{alg}-{latency}")
            out[latency][alg] = time_to_accuracy(res.rows, target)
    return out


def scalability_suite(
    cfg: ExperimentConfig,
    client_counts: tuple[int, ...] = (40, 80),
    algorithms: tuple[str, ...] = ("spyker", "fedavg", "fedasync"),
    target: float | None = None,
    out_dir: str | None = None,
) -> dict:
    """Time to a target accuracy as the client population grows.

    The first entry of client_counts is the base population; multipliers
    report how much longer (and how many more updates) every other
    population needs to reach the same target.  Runs that never reach it
    are marked "unreached" instead of a ratio; a base run that meets the
    target at time 0 leaves no multiplier defined and is a ConfigError.
    """
    if not client_counts:
        raise ValueError("client_counts must not be empty")
    target = target if target is not None else (cfg.target_accuracy or 0.9)
    table: dict = {"target_accuracy": target, "base_clients": client_counts[0], "clients": {}}
    for count in client_counts:
        row = {}
        for alg in algorithms:
            run_cfg = replace(variant(cfg, alg, count), target_accuracy=target)
            res = _run(run_cfg, out_dir, f"{alg}-{count}")
            row[alg] = {
                "time_to_target_ms": time_to_accuracy(res.rows, target),
                "updates_to_target": updates_to_accuracy(res.rows, target),
                "final_accuracy": res.summary["final_accuracy"],
                "updates": res.summary["updates"],
                "stop_reason": res.summary["stop_reason"],
            }
            if count == client_counts[0] and row[alg]["time_to_target_ms"] == 0:
                raise ConfigError(
                    f"{alg} with the base population of {count} clients meets target "
                    f"accuracy {target} at time 0, so no multiplier is defined; "
                    "raise the target"
                )
        table["clients"][str(count)] = row

    def ratio(value, base):
        if value is None or base is None:
            return UNREACHED
        return float(value) / float(base)

    base_row = table["clients"][str(client_counts[0])]
    table["multipliers"] = {
        alg: {
            str(count): {
                "time": ratio(
                    table["clients"][str(count)][alg]["time_to_target_ms"],
                    base_row[alg]["time_to_target_ms"],
                ),
                "updates": ratio(
                    table["clients"][str(count)][alg]["updates_to_target"],
                    base_row[alg]["updates_to_target"],
                ),
            }
            for count in client_counts
        }
        for alg in algorithms
    }
    return table


def queue_trace(
    cfg: ExperimentConfig,
    training_std_ms: float = 60.0,
    out_dir: str | None = None,
) -> dict:
    """Ingress queue pressure under heterogeneous client compute.

    Runs the multi-server protocol against the single-server asynchronous
    baseline on the same client population and reports per-eval queue
    lengths plus their peaks and means.
    """
    compute = replace(cfg.compute, training_std_ms=training_std_ms)
    out: dict = {"training_std_ms": training_std_ms}
    for alg in ("spyker", "fedasync"):
        run_cfg = replace(variant(cfg, alg), compute=compute, target_accuracy=None)
        res = _run(run_cfg, out_dir, alg)
        qcols = [c for c in res.rows[0] if c.startswith("queue_")]
        peaks = [max(row[c] for c in qcols) for row in res.rows]
        out[alg] = {
            "times_ms": [row["sim_time_ms"] for row in res.rows],
            "max_queue": [float(p) for p in peaks],
            "peak": float(max(peaks)),
            "mean": float(np.mean(peaks)),
        }
    spyker_mean, fedasync_mean = out["spyker"]["mean"], out["fedasync"]["mean"]
    out["mean_ratio"] = spyker_mean / fedasync_mean if fedasync_mean > 0 else 0.0
    peak_ratio = out["spyker"]["peak"] / out["fedasync"]["peak"] if out["fedasync"]["peak"] else 0.0
    out["peak_ratio"] = peak_ratio
    return out


def update_histogram(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Per-client update counts for one run, with dispersion statistics."""
    res = _run(cfg, out_dir, "histogram")
    counts = np.array(sorted(res.summary["client_updates"].values()))
    mean = float(counts.mean())
    return {
        "algorithm": cfg.algorithm,
        "decay_enabled": cfg.hyper.decay_enabled,
        "client_updates": res.summary["client_updates"],
        "sorted_counts": [int(c) for c in counts],
        "mean": mean,
        "std": float(counts.std()),
        "cv": float(counts.std() / mean) if mean > 0 else 0.0,
        "max_over_min": float(counts.max() / max(counts.min(), 1)),
    }


def bandwidth_report(
    cfg: ExperimentConfig,
    window_ms: float = 110_000.0,
    algorithms: tuple[str, ...] = ("spyker", "sync-spyker", "fedavg", "fedasync", "hierfavg"),
    out_dir: str | None = None,
) -> dict:
    """Bytes on the wire per algorithm over the window [0, window_ms]."""
    start = 0.0
    end = start + window_ms
    out: dict = {"window_start_ms": start, "window_end_ms": end}

    def bytes_at(rows: list[dict], t: float) -> tuple[float, float]:
        ss = sc = 0.0
        for row in rows:
            if row["sim_time_ms"] > t:
                break
            ss, sc = row["bytes_server_server"], row["bytes_server_client"]
        return ss, sc

    for alg in algorithms:
        run_cfg = replace(variant(cfg, alg), target_accuracy=None, max_updates=None)
        if run_cfg.horizon_ms < end:
            run_cfg = replace(run_cfg, horizon_ms=end)
        res = _run(run_cfg, out_dir, alg)
        ss0, sc0 = bytes_at(res.rows, start)
        ss1, sc1 = bytes_at(res.rows, end)
        out[alg] = {
            "server_server_bytes": ss1 - ss0,
            "server_client_bytes": sc1 - sc0,
            "total_bytes": (ss1 - ss0) + (sc1 - sc0),
        }
    return out


def decay_ablation(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Time-to-accuracy and update dispersion with the lr decay on and off."""
    out: dict = {"algorithm": cfg.algorithm}
    for label, enabled in (("decay_on", True), ("decay_off", False)):
        run_cfg = replace(cfg, hyper=replace(cfg.hyper, decay_enabled=enabled))
        res = _run(run_cfg, out_dir, label)
        counts = np.array(sorted(res.summary["client_updates"].values()))
        mean = float(counts.mean())
        out[label] = {
            "time_to_85_ms": res.summary["time_to_85_ms"],
            "time_to_90_ms": res.summary["time_to_90_ms"],
            "final_accuracy": res.summary["final_accuracy"],
            "best_accuracy": res.summary["best_accuracy"],
            "updates": res.summary["updates"],
            "update_cv": float(counts.std() / mean) if mean > 0 else 0.0,
        }
    return out


_DROPPED = object()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def median_over_seeds(results: list[dict]):
    """One battery's per-seed results reduced leaf by leaf.

    A leaf every seed agrees on is kept.  Otherwise a numeric leaf becomes
    the median over seeds, with None and "unreached" counted as +inf, and an
    infinite median is written back as that marker, so the result stays
    strict JSON; any other leaf (a string, a boolean, a list) is dropped.
    Mappings are reduced key by key.
    """
    first = results[0]
    if all(isinstance(r, dict) for r in results):
        reduced = {k: median_over_seeds([r[k] for r in results])
                   for k in first if all(k in r for r in results)}
        return {k: v for k, v in reduced.items() if v is not _DROPPED}
    if all(r == first for r in results):
        return first
    if all(_is_number(r) or r is None or r == UNREACHED for r in results):
        m = median(r if _is_number(r) else math.inf for r in results)
        return m if m != math.inf else next(r for r in results if not _is_number(r))
    return _DROPPED
