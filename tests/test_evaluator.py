"""The run's evaluator: scoring on a worker thread or in the forked training
process, skipped repeats, BLAS pinning, and parameters that repeat across
processes and BLAS thread settings."""

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import Future
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import spykersim.blas as blas
import spykersim.experiment as experiment
import spykersim.workers as workers
import spykersim.models as models
from spykersim.config import ALGORITHMS, SINGLE_SERVER, apply_overrides, from_dict
from spykersim.data import evaluate, synthetic_dataset
from spykersim.experiment import build_experiment, run_experiment
from spykersim.simulation import RunManifest
from test_config_cli import TINY
from test_training_process import assert_reaped, forks, wait_for_state  # noqa: F401

SRC = Path(__file__).resolve().parent.parent / "src"
bundled_openblas = pytest.mark.skipif(
    blas._bundled_openblas() is None, reason="numpy has no bundled OpenBLAS thread control"
)


def tiny(algorithm: str, *extra: str):
    """The CLI tests' TINY config for one algorithm."""
    overrides = [TINY[i + 1] for i in range(0, len(TINY), 2)]
    overrides += [f"algorithm={algorithm}", f"n_servers={1 if algorithm in SINGLE_SERVER else 4}"]
    return apply_overrides(from_dict({"preset": "desk-synth"}), overrides + list(extra))


class SequentialEvaluator:
    """The reference: ``data.evaluate`` of a copy of the eval model, and the
    SHA-256 of its ``<f8`` bytes, on the calling thread at every evaluation."""

    def __init__(self, built, score):
        self.built = built

    def __call__(self):
        m = self.built.eval_model()
        params = m.params.copy()
        digest = hashlib.sha256(params.astype("<f8").tobytes()).digest()
        done = Future()
        done.set_result((evaluate(m.with_params(params), self.built.test), digest))
        return done


def sequential(monkeypatch, cfg):
    with monkeypatch.context() as m:
        m.setattr(workers, "_Evaluator", SequentialEvaluator)
        return run_experiment(cfg)


def assert_same_run(got, want):
    assert got.rows == want.rows
    assert got.summary == want.summary
    assert got.trace_hash == want.trace_hash
    assert got.model_hash == want.model_hash


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_rows_equal_sequential_evaluation(monkeypatch, algorithm):
    cfg = tiny(algorithm, "eval_interval_ms=100")
    got = run_experiment(cfg)
    assert all(isinstance(r["accuracy"], float) for r in got.rows)
    assert_same_run(got, sequential(monkeypatch, cfg))


def test_mnist_spyker_rows_equal_sequential_evaluation(monkeypatch):
    cfg = from_dict(
        {"preset": "desk-mnist", "seed": 3, "n_samples": 3000, "horizon_ms": 1000.0, "eval_interval_ms": 50.0}
    )
    got = run_experiment(cfg)
    assert len(got.rows) == 21
    assert len({r["accuracy"] for r in got.rows}) > 5
    assert_same_run(got, sequential(monkeypatch, cfg))


@pytest.mark.parametrize("kind, hidden", [(models.LOGREG, 0), (models.MLP, 16)])
def test_scoring_float32_blocks_equals_evaluate(kind, hidden):
    # MNIST-sized rows: more than two of the scorer's blocks, the last ragged.
    rows = workers.SCORE_BLOCK_BYTES // (8 * 784)
    test = synthetic_dataset(5, 2 * rows + rows // 3, 784, 10, 3.0)
    template = models.init_model(kind, 784, 10, hidden, np.random.default_rng(6))
    scorer = workers._Scorer(SimpleNamespace(template=template, test=test))
    assert test.features.dtype == np.float32 and scorer.xbuf.shape == (rows, 784)
    for seed in range(3):
        flat = np.random.default_rng(seed).normal(size=template.dim)
        model = template.with_params(flat)
        acc, digest = scorer(flat)
        assert acc == evaluate(model, test)
        assert digest == hashlib.sha256(flat.astype("<f8").tobytes()).digest()
        np.testing.assert_array_equal(scorer.pred, models.predict(model, test.features))


@pytest.mark.parametrize("kind, hidden", [(models.LOGREG, 0), (models.MLP, 16)])
def test_a_test_set_in_one_block_is_widened_once(kind, hidden):
    # Half a block of MNIST-sized rows: the first score widens the float32
    # set into the block, and every score multiplies from it.
    rows = workers.SCORE_BLOCK_BYTES // (8 * 784)
    test = synthetic_dataset(5, rows // 2, 784, 10, 3.0)
    template = models.init_model(kind, 784, 10, hidden, np.random.default_rng(6))
    scorer = workers._Scorer(SimpleNamespace(template=template, test=test))
    assert scorer.xbuf.shape == (rows // 2, 784)
    for seed in range(3):
        flat = np.random.default_rng(seed).normal(size=template.dim)
        model = template.with_params(flat)
        acc, digest = scorer(flat)
        assert scorer.xbuf is None and scorer.X.dtype == np.float64
        assert scorer.X.tobytes() == test.features.astype(np.float64).tobytes()
        assert acc == evaluate(model, test)
        assert digest == hashlib.sha256(flat.astype("<f8").tobytes()).digest()
        np.testing.assert_array_equal(scorer.pred, models.predict(model, test.features))


def test_fedavg_skips_unchanged_models(monkeypatch):
    # Counted in shared memory, since a forked run scores in its child.
    passes = multiprocessing.get_context("fork").Value("i", 0)
    forward = workers.predict_into

    def counted(*args):
        with passes.get_lock():
            passes.value += 1
        return forward(*args)

    monkeypatch.setattr(workers, "predict_into", counted)
    res = run_experiment(tiny("fedavg", "horizon_ms=3000", "eval_interval_ms=100"))
    # A FedAvg model changes once per round, and rounds are longer than the
    # evaluation interval.
    assert len(res.rows) == 31
    assert 1 < passes.value < len(res.rows) // 2


@pytest.mark.parametrize(
    "algorithm, target, rows, stop_ms, updates, trace",
    [
        ("spyker", 0.35, 22, 2100.0, 102, "adca5db92ed382ac"),
        ("fedavg", 0.8, 18, 1700.0, 24, "9f13268eb200ac01"),
    ],
)
def test_target_stops_at_the_same_row(monkeypatch, algorithm, target, rows, stop_ms, updates, trace):
    cfg = tiny(algorithm, "horizon_ms=6000", "eval_interval_ms=100", f"target_accuracy={target}")
    got = run_experiment(cfg)
    # The stop's row, time, update count and trace as measured with
    # scoring on the loop's own thread; the sequential run below agrees.
    assert got.summary["stop_reason"] == "target"
    assert (len(got.rows), got.summary["sim_time_ms"], got.summary["updates"]) == (rows, stop_ms, updates)
    assert got.trace_hash.startswith(trace)
    assert got.rows[-2]["accuracy"] < target <= got.rows[-1]["accuracy"]
    assert_same_run(got, sequential(monkeypatch, cfg))


@pytest.mark.parametrize("extra", [(), ("target_accuracy=0.99",)])
def test_worker_error_reaches_the_caller(monkeypatch, forks, extra):
    loop = os.getpid()
    failed_in_child = multiprocessing.get_context("fork").Value("i", 0)

    def broken(*args):
        if os.getpid() != loop:
            failed_in_child.value = 1
        raise FloatingPointError("forward pass failed in the worker")

    monkeypatch.setattr(workers, "predict_into", broken)
    before = threading.active_count()
    # The run scores in its forked training process where it can fork, and
    # on the eval thread with one CPU.
    for cpus in (workers._usable_cpus(), 1):
        with monkeypatch.context() as m:
            m.setattr(workers, "_usable_cpus", lambda: cpus)
            with pytest.raises(FloatingPointError, match="forward pass failed in the worker"):
                run_experiment(tiny("spyker", *extra))
        assert threading.active_count() == before
    assert_reaped(forks)
    # Read at once, a target run's first score may be run by the loop; the
    # other run reads every score after the child has failed the first.
    if forks and not extra:
        assert failed_in_child.value == 1


# -- scoring in the forked training process ----------------------------------------


forking = pytest.mark.skipif(
    not hasattr(os, "fork") or workers._usable_cpus() < 2,
    reason="logistic-regression runs fork no process without fork or a second CPU",
)


@pytest.fixture
def started_threads(monkeypatch):
    """The names of the threads started while a test runs."""
    names = []
    start = threading.Thread.start

    def recorded(self):
        names.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    return names


@forking
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_forked_runs_score_in_the_child(monkeypatch, forks, started_threads, algorithm):
    loop = os.getpid()
    in_child = multiprocessing.get_context("fork").Value("i", 0)
    forward = workers.predict_into

    def counted(*args):
        if os.getpid() != loop:
            with in_child.get_lock():
                in_child.value += 1
        return forward(*args)

    monkeypatch.setattr(workers, "predict_into", counted)
    cfg = tiny(algorithm, "eval_interval_ms=100")
    before = threading.active_count()
    got = run_experiment(cfg)
    assert len(got.rows) == 16 > workers.EVAL_SLOTS
    assert len(forks) == 1 and in_child.value > 0
    assert not [name for name in started_threads if name.startswith("spykersim-eval")]
    assert threading.active_count() == before
    assert_reaped(forks)
    assert_same_run(got, sequential(monkeypatch, cfg))


@forking
def test_a_score_that_fails_in_the_child_is_scored_again_by_its_reader(monkeypatch, forks):
    loop = os.getpid()
    failed_in_child = multiprocessing.get_context("fork").Value("i", 0)
    forward = workers.predict_into

    def fails_in_child(*args):
        if os.getpid() != loop:
            with failed_in_child.get_lock():
                failed_in_child.value += 1
            raise FloatingPointError("forward pass failed in the child")
        return forward(*args)

    monkeypatch.setattr(workers, "predict_into", fails_in_child)
    cfg = tiny("fedasync", "eval_interval_ms=100")
    got = run_experiment(cfg)
    assert len(forks) == 1 and failed_in_child.value > 0
    assert_reaped(forks)
    assert_same_run(got, sequential(monkeypatch, cfg))


@forking
def test_more_scores_than_eval_slots_resolve_while_the_child_is_busy(monkeypatch, forks):
    """With the child held in a training, every posted evaluation after the
    ring's first round reuses a slot whose score is still queued, which the
    loop then scores itself; the last round is scored by the child once it
    is free.  Each score is the reference accuracy and digest."""
    built = build_experiment(tiny("spyker"))
    gate = multiprocessing.get_context("fork").Event()
    loop = os.getpid()
    train = models.local_training

    def held(*args):
        if os.getpid() != loop:
            gate.wait(30)
        return train(*args)

    monkeypatch.setattr(models, "local_training", held)
    rng = np.random.default_rng(7)
    models_to_score = [
        built.template.params + rng.normal(0.0, 0.5, built.template.dim)
        for _ in range(3 * workers.EVAL_SLOTS)
    ]
    expected = [
        (evaluate(built.template.with_params(v), built.test),
         hashlib.sha256(v.astype("<f8").tobytes()).digest())
        for v in models_to_score
    ]
    n = len(built.clients)
    proc = workers.TrainingProcess(built.clients, workers._Scorer(built))
    try:
        client = built.clients[0]
        training = proc.submit(0, client._train, built.template.params, 0.1, 0)
        wait_for_state(proc, 0, workers.RUNNING)
        scores = [proc.score(partial(np.copyto, src=v)) for v in models_to_score]
        last_round = scores[-workers.EVAL_SLOTS:]
        assert all(s.done for s in scores[: -workers.EVAL_SLOTS])
        assert not any(s.done for s in last_round)
        gate.set()
        for k in range(workers.EVAL_SLOTS):
            wait_for_state(proc, n + k, workers.DONE)
        assert [s.result() for s in scores] == expected
        assert training.result().tobytes() == client._train(built.template.params, 0.1, 0).tobytes()
    finally:
        gate.set()
        proc.close()
    assert_reaped(forks)


@forking
@pytest.mark.parametrize("algorithm, target", [("spyker", 0.35), ("fedavg", 0.8)])
def test_target_stops_at_the_same_row_in_the_child_and_on_the_thread(
    monkeypatch, forks, algorithm, target
):
    cfg = tiny(algorithm, "horizon_ms=6000", "eval_interval_ms=100", f"target_accuracy={target}")
    forked = run_experiment(cfg)
    assert len(forks) == 1 and forked.summary["stop_reason"] == "target"
    with monkeypatch.context() as m:
        # With one CPU, training stays inline and the eval thread scores.
        m.setattr(workers, "_usable_cpus", lambda: 1)
        threaded = run_experiment(cfg)
    assert len(forks) == 1
    assert_same_run(forked, threaded)
    assert_reaped(forks)


@pytest.mark.parametrize(
    "kind, threads",
    [
        ("thread", ["spykersim-eval_0", "spykersim-train_0"]),
        pytest.param("process", [], marks=forking),
        ("inline", ["spykersim-eval_0"]),
    ],
)
def test_each_worker_starts_its_threads_and_stops_them(
    monkeypatch, forks, started_threads, kind, threads
):
    if kind == "thread":
        cfg = from_dict({"preset": "desk-mnist", "seed": 3, "n_samples": 3000, "horizon_ms": 500.0})
    else:
        cfg = tiny("spyker")
    if kind == "inline":
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
    before = threading.active_count()
    run_experiment(cfg)
    assert sorted(started_threads) == threads
    assert len(forks) == (kind == "process")
    assert threading.active_count() == before
    assert_reaped(forks)


def test_main_thread_error_stops_the_worker(monkeypatch):
    def broken(self, sim, src, msg):
        raise RuntimeError("handler failed")

    before = threading.active_count()
    monkeypatch.setattr(experiment.TrainingClient, "handle", broken)
    with pytest.raises(RuntimeError, match="handler failed"):
        run_experiment(tiny("fedasync"))
    assert threading.active_count() == before


# -- BLAS pinning ---------------------------------------------------------------


@bundled_openblas
def test_manifest_records_the_pinned_blas(tmp_path):
    res = run_experiment(tiny("spyker"), str(tmp_path))
    m = res.manifest
    assert m.blas_pinned is True and m.blas_threads == 1
    assert "OpenBLAS" in m.blas_library
    text = (tmp_path / "manifest.json").read_text()
    assert RunManifest.from_json(text) == m
    assert json.loads(text)["blas_threads"] == 1


@bundled_openblas
def test_pin_restores_the_thread_count():
    ctl = blas._bundled_openblas()
    old = ctl.get_threads()
    try:
        ctl.set_threads(2)
        with blas.one_blas_thread() as state:
            assert ctl.get_threads() == 1
            assert state.pinned
        assert ctl.get_threads() == 2
    finally:
        ctl.set_threads(old)


def test_missing_thread_control_warns_once_and_runs_unpinned(monkeypatch, tmp_path):
    monkeypatch.setattr(blas, "_bundled_openblas", lambda: None)
    with pytest.warns(UserWarning, match="not pinned") as caught:
        res = run_experiment(tiny("fedavg"), str(tmp_path))
    assert len([w for w in caught if "not pinned" in str(w.message)]) == 1
    assert res.summary["stop_reason"] == "horizon"
    m = RunManifest.from_json((tmp_path / "manifest.json").read_text())
    assert (m.blas_pinned, m.blas_threads) == (False, None)
    assert m.blas_library


def test_manifest_without_blas_fields_still_loads():
    old = '{"code_version": "0.1.0", "config_hash": "x", "master_seed": 1, "node_seeds": {}, "ring_order": [0]}'
    m = RunManifest.from_json(old)
    assert (m.blas_library, m.blas_threads, m.blas_pinned) == ("", None, False)
    assert m.numpy_simd == {}


def test_manifest_records_numpy_simd(tmp_path):
    res = run_experiment(tiny("fedasync"), str(tmp_path))
    assert res.manifest.numpy_simd == blas.numpy_simd()
    assert all(type(v) is bool for v in res.manifest.numpy_simd.values())
    assert RunManifest.from_json((tmp_path / "manifest.json").read_text()) == res.manifest


# -- across processes ---------------------------------------------------------------

# Runs every config but the last without artifacts, then the last one.
_CHILD = """
import hashlib, json, os, sys
from spykersim.config import from_dict
from spykersim.experiment import run_experiment
*before, cfg = [from_dict(raw) for raw in json.loads(sys.argv[2])]
for earlier in before:
    run_experiment(earlier)
forks = 0
fork = os.fork
def counted():
    global forks
    pid = fork()
    forks += pid > 0
    return pid
os.fork = counted
res = run_experiment(cfg, sys.argv[1])
h = hashlib.sha256()
for s in res.built.servers:
    h.update(s.model.params.tobytes())
print(h.hexdigest(), forks)
"""


def _child_run(
    out: Path, threads: str, hashseed: str, cfg: dict, before: tuple = (), **env_vars: str
) -> dict:
    """Run ``cfg`` in a fresh process, after the ``before`` configs, and read
    back its artifacts."""
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(OPENBLAS_NUM_THREADS=threads, PYTHONHASHSEED=hashseed, PYTHONPATH=str(SRC))
    env.update(env_vars)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(out), json.dumps([*before, cfg])],
        env=env, capture_output=True, text=True, check=True,
    )
    params, forks = done.stdout.split()
    return {
        "params": params,
        "forks": int(forks),
        "trace": (out / "trace-hash.txt").read_text(),
        "timeseries": (out / "timeseries.csv").read_bytes(),
        "model": (out / "model-hash.txt").read_text(),
        "manifest": json.loads((out / "manifest.json").read_text()),
    }


@bundled_openblas
@pytest.mark.parametrize(
    "cfg, forks",
    [
        pytest.param(
            {"preset": "desk-mnist", "seed": 3, "n_samples": 3000, "horizon_ms": 1000.0,
             "eval_interval_ms": 250.0},
            0, id="desk-mnist",
        ),
        # Trains and scores in the run's forked process.
        pytest.param(
            {"preset": "desk-synth", "seed": 3, "horizon_ms": 1000.0, "eval_interval_ms": 250.0},
            1, id="desk-synth", marks=forking,
        ),
    ],
)
def test_parameters_repeat_across_processes_and_blas_threads(tmp_path, cfg, forks):
    # At one BLAS thread per run, neither the thread setting nor the hash
    # seed of the process reaches the model. (Unpinned, the two desk-mnist
    # processes end with different parameters.)
    a = _child_run(tmp_path / "a", "1", "0", cfg)
    b = _child_run(tmp_path / "b", "2", "1", cfg)
    assert len(a["params"]) == 64 and len(a["model"]) == 65
    assert a["forks"] == forks
    assert a == b


@bundled_openblas
def test_a_run_on_a_reused_task_repeats_a_fresh_process(tmp_path):
    # The second run of a process rebuilds its task from the first run's
    # shards; its artifacts equal those of a process that runs it alone.
    spyker = {"preset": "desk-synth", "seed": 3, "horizon_ms": 1000.0, "eval_interval_ms": 250.0}
    fedavg = {**spyker, "algorithm": "fedavg", "n_servers": 1}
    alone = _child_run(tmp_path / "alone", "1", "0", fedavg)
    after = _child_run(tmp_path / "after", "1", "0", fedavg, before=(spyker,))
    assert alone == after
    for name in ("summary.json", "manifest.json"):
        assert (tmp_path / "alone" / name).read_bytes() == (tmp_path / "after" / name).read_bytes()


AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


@pytest.mark.skipif(
    not all(blas.numpy_simd().get(t) for t in AVX512_TARGETS),
    reason="numpy's AVX-512 loops are not active on this host",
)
def test_numpy_simd_off_changes_only_its_manifest_field(tmp_path):
    # numpy reads the variable when it loads, so each run is its own process.
    cfg = {"preset": "desk-synth", "seed": 3, "horizon_ms": 1000.0, "eval_interval_ms": 250.0}
    on = _child_run(tmp_path / "on", "1", "0", cfg)
    off = _child_run(
        tmp_path / "off", "1", "0", cfg, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_TARGETS)
    )
    simd = on["manifest"].pop("numpy_simd")
    assert off["manifest"].pop("numpy_simd") == {**simd, **dict.fromkeys(AVX512_TARGETS, False)}
    assert on["manifest"] == off["manifest"]
    assert on["trace"] == off["trace"]
