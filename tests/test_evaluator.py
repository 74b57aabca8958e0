"""The run's evaluator: worker-thread scoring, skipped repeats, BLAS pinning,
and parameters that repeat across processes and BLAS thread settings."""

import hashlib
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import Future
from pathlib import Path

import pytest

import spykersim.blas as blas
import spykersim.experiment as experiment
from spykersim.config import ALGORITHMS, apply_overrides, from_dict
from spykersim.data import evaluate
from spykersim.experiment import run_experiment
from spykersim.simulation import RunManifest
from test_config_cli import TINY

SRC = Path(__file__).resolve().parent.parent / "src"
bundled_openblas = pytest.mark.skipif(
    blas._bundled_openblas() is None, reason="numpy has no bundled OpenBLAS thread control"
)


def tiny(algorithm: str, *extra: str):
    """The CLI tests' TINY config for one algorithm."""
    overrides = [TINY[i + 1] for i in range(0, len(TINY), 2)]
    overrides += [f"algorithm={algorithm}", f"n_servers={1 if algorithm in ('fedavg', 'fedasync') else 4}"]
    return apply_overrides(from_dict({"preset": "desk-synth"}), overrides + list(extra))


class SequentialEvaluator:
    """The reference: ``data.evaluate`` of a copy of the eval model, and the
    SHA-256 of its ``<f8`` bytes, on the calling thread at every evaluation."""

    def __init__(self, built):
        self.built = built

    def __call__(self):
        m = self.built.eval_model()
        params = m.params.copy()
        digest = hashlib.sha256(params.astype("<f8").tobytes()).digest()
        done = Future()
        done.set_result((evaluate(m.with_params(params), self.built.test), digest))
        return done

    def close(self):
        pass


def sequential(monkeypatch, cfg):
    with monkeypatch.context() as m:
        m.setattr(experiment, "_Evaluator", SequentialEvaluator)
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


def test_fedavg_skips_unchanged_models(monkeypatch):
    passes = []
    forward = experiment.predict_into

    def counted(*args):
        passes.append(1)
        return forward(*args)

    monkeypatch.setattr(experiment, "predict_into", counted)
    res = run_experiment(tiny("fedavg", "horizon_ms=3000", "eval_interval_ms=100"))
    # A FedAvg model changes once per round, and rounds are longer than the
    # evaluation interval.
    assert len(res.rows) == 31
    assert 1 < len(passes) < len(res.rows) // 2


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
def test_worker_error_reaches_the_caller(monkeypatch, extra):
    def broken(*args):
        raise FloatingPointError("forward pass failed in the worker")

    monkeypatch.setattr(experiment, "predict_into", broken)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="forward pass failed in the worker"):
        run_experiment(tiny("spyker", *extra))
    assert threading.active_count() == before


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


# -- across processes ---------------------------------------------------------------

_CHILD = """
import hashlib, sys
from spykersim.config import from_dict
from spykersim.experiment import run_experiment
cfg = from_dict({"preset": "desk-mnist", "seed": 3, "n_samples": 3000, "horizon_ms": 1000.0,
                 "eval_interval_ms": 250.0})
res = run_experiment(cfg, sys.argv[1])
h = hashlib.sha256()
for s in res.built.servers:
    h.update(s.model.params.tobytes())
print(h.hexdigest())
"""


def _child_run(out: Path, threads: str, hashseed: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(OPENBLAS_NUM_THREADS=threads, PYTHONHASHSEED=hashseed, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(out)], env=env, capture_output=True, text=True, check=True
    )
    return {
        "params": done.stdout.strip(),
        "trace": (out / "trace-hash.txt").read_text(),
        "timeseries": (out / "timeseries.csv").read_bytes(),
        "model": (out / "model-hash.txt").read_text(),
    }


@bundled_openblas
def test_parameters_repeat_across_processes_and_blas_threads(tmp_path):
    # At one BLAS thread per run, neither the thread setting nor the hash
    # seed of the process reaches the model. (Unpinned, these two processes
    # end with different parameters.)
    a = _child_run(tmp_path / "a", "1", "0")
    b = _child_run(tmp_path / "b", "2", "1")
    assert len(a["params"]) == 64 and len(a["model"]) == 65
    assert a == b
