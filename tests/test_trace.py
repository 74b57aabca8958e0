"""The trace hash: streamed one line per event, tied to EventRecord.line, pinned."""

import hashlib

import pytest

import spykersim.experiment as experiment
from spykersim.config import ALGORITHMS, SINGLE_SERVER, from_dict
from spykersim.experiment import run_experiment


def tiny(algorithm):
    """desk-synth cut down as in the CLI tests: 8 clients, 1.5 s, no target."""
    raw = {
        "preset": "desk-synth",
        "algorithm": algorithm,
        "n_clients": 8,
        "n_samples": 400,
        "input_dim": 6,
        "separation": 3.0,
        "horizon_ms": 1500.0,
        "eval_interval_ms": 500.0,
        "hyper": {"batch_size": 8},
    }
    if algorithm in SINGLE_SERVER:
        raw["n_servers"] = 1
    return from_dict(raw)


# Trace hash and event count of tiny(algorithm), seed 0. Recorded when every
# trace line was still formatted by EventRecord.line; an engine change must
# reproduce them, not regenerate them.
GOLDEN = {
    "spyker": ("8db54a92a46f11e84bde2ff9abc2ccb36e6a505903e1b7331cc5b16d428102a8", 471),
    "sync-spyker": ("34340a77fbcdd9c765e67ebdceca28587f6064f6d8ccac8bc4cc40f35a02f075", 307),
    "fedavg": ("797e08ec5aac629fe55f28a6a11cbbb7eb253736bf64bdc5986cecd8659fa5c3", 87),
    "fedasync": ("527c1a1adfdbd1d6133bc7f30a6882a73e95c6873830f943125cf78b5edd16de", 147),
    "hierfavg": ("2b64a2b7b82af7c9bca0c7cc108575199c6f17e6d0b731a5e23dcf502de5db2d", 227),
}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_trace_hash_is_pinned(algorithm):
    res = run_experiment(tiny(algorithm))
    assert res.summary["stop_reason"] == "horizon"
    assert (res.trace_hash, res.summary["events"]) == GOLDEN[algorithm]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_streamed_hash_equals_the_record_stream(algorithm, monkeypatch):
    records = []
    build = experiment.build_experiment

    def hooked(cfg):
        built = build(cfg)
        built.sim.on_event = lambda sim, record: records.append(record)
        return built

    monkeypatch.setattr(experiment, "build_experiment", hooked)
    with_hook = run_experiment(tiny(algorithm))
    monkeypatch.undo()
    without_hook = run_experiment(tiny(algorithm))

    assert len(records) == with_hook.summary["events"] > 0
    stream = "".join(r.line() + "\n" for r in records).encode()
    assert with_hook.trace_hash == hashlib.sha256(stream).hexdigest()
    assert without_hook.trace_hash == with_hook.trace_hash
