"""Tests of the benchmark itself: a short smoke of every workload, and for
every output check a corrupted input that makes it fail.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run as bench
from instrument import Probe, Stopwatch, Tracer, patched
from workloads import WORKLOADS, make_runs

HERE = Path(bench.__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMOKE_HORIZON_MS = 2000.0


def only_target_misses(errors: list[str]) -> list[str]:
    """Short runs may stop before the target accuracy; every other check must pass."""
    return [e for e in errors if "target accuracy" not in e]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_each_workload(workload):
    b = bench.Bench(workload, seed=1, horizon_ms=SMOKE_HORIZON_MS)
    b.out = ROOT / "perfbench" / "out" / "tests" / workload
    watch = Stopwatch()
    timed = b.timed_round(watch.patches(), watch)
    checked, counts = b.checked_round()
    b.check_repeats([timed])
    assert only_target_misses(b.errors) == []
    assert b.failed == 0 and len(checked) == len(b.runs) and timed is not None
    metrics = bench.end_to_end([timed], checked, rss_mb=1.0)
    assert {m["name"] for m in SPEC["end_to_end"]} - {"sim_time_to_target_ms"} <= set(metrics)
    assert all(v > 0 for v, _ in metrics.values())
    assert counts["bytes_server_client"] > 0


def test_traced_round_reports_every_layer_metric_and_keeps_outputs():
    b = bench.Bench("synth-geo-5alg", seed=2, horizon_ms=SMOKE_HORIZON_MS)
    b.out = ROOT / "perfbench" / "out" / "tests" / "traced"
    untraced = b.timed_round(Stopwatch().patches())
    tracer = Tracer()
    traced = b.timed_round(tracer.patches())
    checked, counts = b.checked_round()
    # The traced round must reproduce the checked round's digests.
    b.check_repeats([untraced, traced])
    assert only_target_misses(b.errors) == []
    metrics = bench.per_layer(tracer, 1, [traced], [untraced], counts)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["aggregation.fedavg_aggregate.calls"][0] > 0
    assert metrics["simulation.events"][0] == sum(r["events"] for r in checked)
    assert len(tracer.span_id) > 0 and np.all(np.frombuffer(tracer.span_end) >= np.frombuffer(tracer.span_start))


def test_two_processes_give_identical_digests():
    results = []
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "synth-8srv-gossip", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.splitlines()[-1])["correct"] is True
        report = json.loads((HERE / "out" / "synth-8srv-gossip" / "seed0" / "result.json").read_text())
        results.append(report["digests"])
    assert results[0] == results[1]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-geo-5alg", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# -- corrupted inputs ---------------------------------------------------------------


@pytest.fixture(scope="module")
def fedavg_run(tmp_path_factory):
    run = next(r for r in make_runs("synth-geo-5alg", 3) if r.cfg.algorithm == "fedavg")
    run = replace(run, cfg=replace(run.cfg, horizon_ms=2000.0))
    probe = Probe(bench.FEDAVG_REPLAY_ROUNDS)
    with patched(probe.patches(capture_fedavg=True)):
        record, result = bench.execute(run, tmp_path_factory.mktemp("fedavg"), 0.75)
    return run, record, result, probe


def replay_of(run, result, probe):
    cfg, built = run.cfg, result.built
    hp = cfg.resolved_hyper()
    seeds = [built.manifest.node_seeds[f"client-{c.node_id}"] for c in built.clients]
    return checks.replay_fedavg(
        built.template.params, probe.shards, seeds, hp.eta_init, hp.local_epochs, hp.batch_size,
        bench.FEDAVG_REPLAY_ROUNDS, cfg.input_dim, cfg.n_classes,
    )


def test_replay_matches_and_a_perturbed_parameter_fails(fedavg_run):
    run, _, result, probe = fedavg_run
    replayed = replay_of(run, result, probe)
    assert checks.check_replay(probe.fedavg_params, replayed) == []
    bad = [p.copy() for p in probe.fedavg_params]
    bad[1][7] += 1e-6
    assert checks.check_replay(bad, replayed)
    assert checks.check_replay(probe.fedavg_params[:1], replayed)


def test_accuracy_recompute_and_a_shifted_accuracy_fails(fedavg_run):
    run, _, result, _ = fedavg_run
    cfg, test = run.cfg, result.built.test
    params = bench.eval_params(result.built)
    acc = checks.accuracy(cfg.model_kind, params, test.features, test.labels, cfg.input_dim, cfg.n_classes)
    reported = result.summary["final_accuracy"]
    assert checks.check_accuracy(reported, acc, test.n_samples) == []
    assert checks.check_accuracy(reported + 2.0 / test.n_samples, acc, test.n_samples)
    noisy = params + np.random.default_rng(0).normal(0.0, 10.0, params.shape)
    wrong = checks.accuracy(cfg.model_kind, noisy, test.features, test.labels, cfg.input_dim, cfg.n_classes)
    assert checks.check_accuracy(reported, wrong, test.n_samples)


def test_mlp_forward_pass_matches_the_documented_layout():
    rng = np.random.default_rng(4)
    d, h, c = 5, 3, 4
    W1, b1, W2, b2 = rng.normal(size=(d, h)), rng.normal(size=h), rng.normal(size=(h, c)), rng.normal(size=c)
    flat = np.concatenate([W1.ravel(), b1, W2.ravel(), b2])
    X = rng.normal(size=(7, d))
    assert checks.n_params(checks.MLP, d, c, h) == flat.size
    np.testing.assert_allclose(checks.logits(checks.MLP, flat, X, d, c, h), np.tanh(X @ W1 + b1) @ W2 + b2)


def byte_inputs(run, result, probe):
    built = result.built
    servers = {n.node_id for n in built.sim.nodes.values() if n.kind == "server"}
    n = checks.n_params(run.cfg.model_kind, run.cfg.input_dim, run.cfg.n_classes)
    return servers, n, result.summary["bytes_by_class"]


def test_byte_conservation_and_a_dropped_message_fails(fedavg_run):
    run, _, result, probe = fedavg_run
    servers, n, reported = byte_inputs(run, result, probe)
    assert checks.check_bytes(probe.sends, probe.deliveries, servers, n, reported) == []
    dropped = [s for i, s in enumerate(probe.sends) if i != 5]
    assert checks.check_bytes(dropped, probe.deliveries, servers, n, reported)
    assert checks.check_bytes(probe.sends, probe.deliveries, servers, n + 1, reported)
    lost = probe.deliveries[:3] + probe.deliveries[4:]
    assert checks.check_bytes(probe.sends, lost, servers, n, reported)


def test_property_checks_fail_on_corrupted_facts():
    good = {
        "stop_reason": "horizon",
        "params_finite": True,
        "token_counts": [1],
        "update_counts": {0: (10, 10, 0), 1: (12, 8, 4)},
    }
    assert checks.check_properties(good) == []
    for key, value in [
        ("stop_reason", "quiescent"),
        ("params_finite", False),
        ("token_counts", [1, 2]),
        ("token_counts", [0, 1]),
        ("update_counts", {0: (11, 10, 0)}),
        ("update_counts", {1: (13, 8, 4)}),
    ]:
        assert checks.check_properties({**good, key: value}), (key, value)
    assert checks.check_target("spyker-s1", None, 0.75)
    assert checks.check_target("spyker-s1", 1850.0, 0.75) == []


def test_repeat_check_flags_a_changed_digest():
    first = {"trace": "a" * 64, "params": "b" * 64, "timeseries": "c" * 64}
    assert checks.check_repeat("x", first, dict(first)) == []
    assert checks.check_repeat("x", first, {**first, "params": "d" * 64})
