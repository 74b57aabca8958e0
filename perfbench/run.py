#!/usr/bin/env python3
"""spykersim desk-run benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One operation is one simulation run (``run_experiment`` with its artifacts).
A round is one pass over the workload's runs. For ``--seconds`` seconds the
benchmark repeats rounds that carry only two stopwatches (``--trace 0``),
or alternates such a round with a traced one (``--trace 1``: per-layer
metrics and the tracing overhead). Then it makes one checked round, with
probes that feed the output checks; every earlier round must reproduce its
trace hash, parameter digest and timeseries digest.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

# BLAS threads change model parameters (not the trace), so they are pinned
# before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference_digests.json"

FEDAVG_REPLAY_ROUNDS = 3


def _import_program():
    """Import spykersim from this checkout's ``src``, and nowhere else."""
    if not (SRC / "spykersim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no spykersim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spykersim

    if Path(spykersim.__file__).resolve().parent != SRC / "spykersim":
        sys.exit(f"perfbench: imported spykersim from {spykersim.__file__}, not {SRC}")


_import_program()

import numpy as np  # noqa: E402
from spykersim.experiment import run_experiment, time_to_accuracy  # noqa: E402
from spykersim.simulation import SERVER  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
from instrument import Probe, Stopwatch, Tracer, patched  # noqa: E402
from workloads import WORKLOADS, make_runs  # noqa: E402

perf = time.perf_counter


# -- one run ----------------------------------------------------------------------


def server_nodes(built) -> list:
    return list(built.servers) + ([built.cloud] if built.cloud is not None else [])


def digests(result, out_dir: Path) -> dict:
    h = hashlib.sha256()
    for node in server_nodes(result.built):
        h.update(np.ascontiguousarray(node.model.params, dtype="<f8").tobytes())
    return {
        "trace": result.trace_hash,
        "params": h.hexdigest(),
        "timeseries": hashlib.sha256((out_dir / "timeseries.csv").read_bytes()).hexdigest(),
    }


def execute(run, out_dir: Path, target: float):
    """One desk run; returns its record and the RunResult."""
    t0 = perf()
    result = run_experiment(run.cfg, str(out_dir))
    wall = perf() - t0
    s = result.summary
    record = {
        "label": run.label,
        "algorithm": run.cfg.algorithm,
        "wall_s": wall,
        "updates": s["updates"],
        "events": s["events"],
        "sim_time_ms": s["sim_time_ms"],
        "time_to_target_ms": time_to_accuracy(result.rows, target),
        "digests": digests(result, out_dir),
    }
    return record, result


def eval_params(built) -> np.ndarray:
    """The evaluated model: the age-weighted mean of the spyker servers'
    models, or the single global model of the other schemes."""
    alg = built.cfg.algorithm
    if alg == "hierfavg":
        return built.cloud.model.params
    if alg in ("fedavg", "fedasync"):
        return built.servers[0].model.params
    ages = np.array([s.age for s in built.servers], dtype=float)
    if built.cfg.eval_target == "mean" or ages.sum() <= 0:
        weights = np.full(len(ages), 1.0 / len(ages))
    else:
        weights = ages / ages.sum()
    return weights @ np.stack([s.model.params for s in built.servers])


def inspect_run(run, record, result, probe: Probe, target: float) -> tuple[list, dict]:
    """Output checks and simulated counts of one probed run."""
    built, cfg, summary = result.built, run.cfg, result.summary
    sim = built.sim
    servers = server_nodes(built)
    round_based = cfg.algorithm in ("fedavg", "hierfavg")
    facts = {
        "stop_reason": summary["stop_reason"],
        "params_finite": all(np.all(np.isfinite(n.model.params)) for n in servers),
        "token_counts": sorted(probe.token_counts),
        "update_counts": {
            s.node_id: (sum(s.u.values()), s.updates_absorbed, len(s.u) - 1 if round_based else 0)
            for s in built.servers
        },
    }
    errs = checks.check_properties(facts)

    d, c, h = cfg.input_dim, cfg.n_classes, cfg.hidden_dim
    expected_len = checks.n_params(cfg.model_kind, d, c, h)
    server_ids = {n.node_id for n in sim.nodes.values() if n.kind == SERVER}
    errs += checks.check_bytes(probe.sends, probe.deliveries, server_ids, expected_len, summary["bytes_by_class"])

    test = built.test
    acc = checks.accuracy(cfg.model_kind, eval_params(built), test.features, test.labels, d, c, h)
    errs += checks.check_accuracy(summary["final_accuracy"], acc, test.n_samples)

    if cfg.algorithm == "spyker":
        errs += checks.check_target(run.label, record["time_to_target_ms"], target)
    if cfg.algorithm == "fedavg":
        hp = cfg.resolved_hyper()
        seeds = [built.manifest.node_seeds[f"client-{cl.node_id}"] for cl in built.clients]
        replayed = checks.replay_fedavg(
            built.template.params, probe.shards, seeds, hp.eta_init, hp.local_epochs,
            hp.batch_size, FEDAVG_REPLAY_ROUNDS, d, c,
        )
        errs += checks.check_replay(probe.fedavg_params, replayed)

    counts = {
        "peak_queue": probe.peak_queue,
        "bytes_server_server": summary["bytes_by_class"]["server-server"],
        "bytes_server_client": summary["bytes_by_class"]["server-client"],
        "server_service_ms": probe.server_service_ms,
        "server_time_ms": len(server_ids) * sim.now,
        "server_model_exchanges": probe.server_model_exchanges,
    }
    return [f"{run.label}: {e}" for e in errs], counts


# -- rounds -------------------------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, horizon_ms: float | None = None):
        self.workload = WORKLOADS[workload]
        self.runs = make_runs(workload, seed, horizon_ms)
        self.out = OUT / workload / f"seed{seed}"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict = {}

    def _execute(self, run):
        self.attempted += 1
        try:
            return execute(run, self.out / run.label, self.workload.target_accuracy)
        except Exception as e:  # noqa: BLE001 - a failed run is counted, not fatal
            self.failed += 1
            self.errors.append(f"{run.label}: run failed: {type(e).__name__}: {e}")
            return None, None

    def checked_round(self) -> tuple[list, dict]:
        """One round under the probe: every output check, plus the simulated counts."""
        records, totals = [], {}
        probe = Probe(FEDAVG_REPLAY_ROUNDS)
        for run in self.runs:
            probe.reset()
            with patched(probe.patches(capture_fedavg=run.cfg.algorithm == "fedavg")):
                record, result = self._execute(run)
            if record is None:
                continue
            errs, counts = inspect_run(run, record, result, probe, self.workload.target_accuracy)
            self.errors += errs
            for k, v in counts.items():
                totals[k] = max(totals.get(k, 0), v) if k == "peak_queue" else totals.get(k, 0) + v
            records.append(record)
            del result
            probe.reset()
            gc.collect()
        self.reference = {r["label"]: r["digests"] for r in records}
        return records, totals

    def timed_round(self, patches, watch: Stopwatch | None = None) -> list | None:
        """One round of every run; None when a run failed, since its timing is partial.

        A calibration slice is timed before every run and after the last,
        and the stopwatch adds slices during long runs; each record gets the
        mean of the slices around and inside its run.
        """
        records = []
        before = calibration.slice_s()
        with patched(patches):
            for run in self.runs:
                record, result = self._execute(run)
                del result
                gc.collect()
                after = calibration.slice_s()
                times = watch.take() if watch is not None else {"paused_s": 0.0, "slices": []}
                if record is not None:
                    slices = [before, *times["slices"], after]
                    record["cal_s"] = sum(slices) / len(slices)
                    record["wall_s"] -= times["paused_s"]
                    if watch is not None:
                        record["setup_s"] = times["setup_s"]
                        record["sim_s"] = times["sim_s"] - times["paused_s"]
                    records.append(record)
                before = after
        return records if len(records) == len(self.runs) else None

    def check_repeats(self, rounds: list) -> None:
        """Every timed or traced round must reproduce the checked round's digests."""
        for records in rounds:
            for r in records:
                if r["label"] in self.reference:
                    self.errors += checks.check_repeat(r["label"], self.reference[r["label"]], r["digests"])


def scaled(record: dict, key: str) -> float:
    """A host time of one run at the reference speed of the calibration loop."""
    return record[key] * calibration.REFERENCE_S / record["cal_s"]


def round_wall(records: list) -> float:
    return sum(scaled(r, "wall_s") for r in records)


def end_to_end(rounds: list, checked: list, rss_mb: float) -> dict:
    spyker = [r["time_to_target_ms"] for r in checked if r["algorithm"] == "spyker"]
    m = {
        "wall_s": (statistics.median(round_wall(recs) for recs in rounds), "s"),
        "setup_s": (statistics.median(sum(scaled(r, "setup_s") for r in recs) for recs in rounds), "s"),
        "updates_per_s": (
            statistics.median(
                sum(r["updates"] for r in recs) / sum(scaled(r, "sim_s") for r in recs) for recs in rounds
            ),
            "1/s",
        ),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    if spyker and None not in spyker:
        m["sim_time_to_target_ms"] = (statistics.fmean(spyker), "sim-ms")
    return m


def per_layer(tracer: Tracer, n_traced: int, traced: list, untraced: list, counts: dict) -> dict:
    T, S, C = tracer.total, tracer.self_time, tracer.calls
    events = sum(r["events"] for recs in traced for r in recs)

    def per_call(name, scale):
        return T[name] / C[name] * scale if C[name] else 0.0

    m = {
        "models.train_calls": (C["models.local_training"] / n_traced, "count"),
        "models.train_us_per_call": (per_call("models.local_training", 1e6), "us"),
        "models.samples_per_s": (tracer.samples / T["models.local_training"], "1/s"),
    }
    for agg in ("spyker_client_merge", "server_merge", "fedavg_aggregate", "fedasync_merge"):
        name = f"aggregation.{agg}"
        m[f"{name}.calls"] = (C[name] / n_traced, "count")
        m[f"{name}.us_per_call"] = (per_call(name, 1e6), "us")
    handles = ("protocols.server_handle", "protocols.client_handle")
    m.update(
        {
            "data.eval_calls": (C["data.evaluate"] / n_traced, "count"),
            "data.eval_ms_per_call": (per_call("data.evaluate", 1e3), "ms"),
            "experiment.snapshot_self_ms": (S["experiment.eval_hook"] / n_traced * 1e3, "ms"),
            "experiment.write_run_ms": (T["experiment.write_run"] / n_traced * 1e3, "ms"),
            "data.synthetic_dataset_s": (T["data.synthetic_dataset"] / n_traced, "s"),
            "data.partition_noniid_s": (T["data.partition_noniid"] / n_traced, "s"),
            "simulation.events": (events / n_traced, "count"),
            "simulation.self_us_per_event": (S["simulation.run"] / events * 1e6, "us"),
            "simulation.trace_line_us_per_event": (T["simulation.trace_line"] / events * 1e6, "us"),
            "messages.helper_us_per_event": (
                (T["messages.payload_bytes"] + T["messages.describe"]) / events * 1e6,
                "us",
            ),
            "protocols.handle_self_us_per_msg": (
                sum(S[h] for h in handles) / sum(C[h] for h in handles) * 1e6,
                "us",
            ),
            "simulation.peak_queue": (counts["peak_queue"], "sim-count"),
            "messages.bytes_server_server": (counts["bytes_server_server"], "sim-B"),
            "messages.bytes_server_client": (counts["bytes_server_client"], "sim-B"),
            "protocols.server_busy_share": (counts["server_service_ms"] / counts["server_time_ms"], "sim-share"),
            "protocols.server_model_exchanges": (counts["server_model_exchanges"], "sim-count"),
        }
    )
    traced_wall = statistics.median(round_wall(recs) for recs in traced)
    untraced_wall = statistics.median(round_wall(recs) for recs in untraced)
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.overhead_share"] = ((traced_wall - untraced_wall) / untraced_wall, "share")
    return m


def reference_status(workload: str, seed: int, digests_by_label: dict) -> str:
    try:
        ref = json.loads(REFERENCE.read_text())["digests"][workload][str(seed)]
    except (OSError, KeyError, ValueError):
        return "absent"
    return "match" if ref == digests_by_label else "mismatch"


def blas_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")

    bench = Bench(args.workload, args.seed)
    untraced, traced = [], []
    tracer = Tracer() if args.trace else None
    t0 = perf()
    rounds = 0
    while perf() - t0 < args.seconds or rounds == 0:
        rounds += 1
        watch = Stopwatch()
        recs = bench.timed_round(watch.patches(), watch)
        if rounds == 1:
            # Peak memory of one round from a fresh process; later rounds
            # only add allocator fragmentation.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recs is not None:
            untraced.append(recs)
        if tracer is not None:
            recs = bench.timed_round(tracer.patches())
            tracer.recording = False
            if recs is not None:
                traced.append(recs)
    checked, counts = bench.checked_round()
    bench.check_repeats(untraced + traced)

    correct = not bench.errors and bool(untraced) and (tracer is None or bool(traced))
    if not correct:
        for e in bench.errors:
            print(f"CHECK FAILED: {e}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "config_seeds": sorted({r.cfg.seed for r in bench.runs}),
        "target_accuracy": bench.workload.target_accuracy,
        "blas": blas_info(),
        "rounds": rounds,
        "rounds_raw": [
            {k: [r[k] for r in recs] for k in ("wall_s", "setup_s", "sim_s", "cal_s", "updates")}
            for recs in untraced
        ],
        "traced_rounds_raw": [{k: [r[k] for r in recs] for k in ("wall_s", "cal_s")} for recs in traced],
        "reference_digests": reference_status(args.workload, args.seed, bench.reference),
        "digests": bench.reference,
        "runs": [{k: v for k, v in r.items() if k != "digests"} for r in checked],
        "errors": bench.errors,
    }
    metrics = {}
    if untraced and (tracer is None or traced):
        if tracer is None:
            metrics = end_to_end(untraced, checked, rss_mb)
        else:
            metrics = per_layer(tracer, len(traced), traced, untraced, counts)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    bench.out.mkdir(parents=True, exist_ok=True)
    name = "trace" if tracer is not None else "result"
    (bench.out / f"{name}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.save(str(bench.out / "spans.npz"))
    print(f"workload {args.workload}, seed {args.seed}: {len(checked)} runs checked, "
          f"{len(untraced)} timed rounds, {len(traced)} traced rounds, {bench.failed} failed runs")
    print(f"BLAS {report['blas']['name']} {report['blas']['version']}, threads pinned to {BLAS_THREADS}")
    print(f"reference digests: {report['reference_digests']}")
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v:.6g} {u}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
