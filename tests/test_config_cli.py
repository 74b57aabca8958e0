"""Config assembly, validation, overrides, and the command-line surface."""

import json

import pytest

from spykersim.config import (
    apply_overrides,
    config_hash,
    from_dict,
    load_config,
    to_dict,
)
from spykersim.cli import main
from spykersim.errors import ConfigError
from spykersim.experiment import read_summary
from spykersim.simulation import RunManifest

TINY = [
    "--override", "n_clients=8",
    "--override", "n_samples=400",
    "--override", "input_dim=6",
    "--override", "separation=3.0",
    "--override", "horizon_ms=1500",
    "--override", "eval_interval_ms=500",
    "--override", "hyper.batch_size=8",
]


# -- config building ----------------------------------------------------------


def test_preset_expands_under_explicit_fields():
    cfg = from_dict({"preset": "desk-synth"})
    assert cfg.n_servers == 4 and cfg.n_clients == 40
    assert cfg.model_kind == "logistic-regression"
    over = from_dict({"preset": "desk-synth", "n_clients": 12})
    assert over.n_clients == 12
    assert over.preset == "desk-synth"


def test_preset_hyper_merges_field_by_field():
    cfg = from_dict({"preset": "desk-synth", "hyper": {"eta_init": 0.11}})
    assert cfg.hyper.eta_init == 0.11
    # Untouched preset hyper fields survive the merge.
    assert cfg.hyper.staleness_mode == "literal"
    assert cfg.hyper.eta_server == 0.03


def test_unknown_preset_and_fields_are_rejected():
    with pytest.raises(ConfigError):
        from_dict({"preset": "desk-olympus"})
    with pytest.raises(ConfigError):
        from_dict({"n_cleints": 4})
    with pytest.raises(ConfigError):
        from_dict({"hyper": {"learning": 1.0}})


def test_dict_round_trip():
    cfg = from_dict({"preset": "desk-mnist", "seed": 9})
    assert from_dict(to_dict(cfg)) == cfg


def test_validation_rules():
    bad = [
        {"algorithm": "fedavg", "n_servers": 4},
        {"algorithm": "gossip"},
        {"n_clients": 8, "client_counts": [2, 2, 2, 3]},
        {"n_clients": 2, "n_servers": 4},
        {"server_locations": ["Paris", "Atlantis", "Sydney", "California"]},
        {"latency": "starlink"},
        {"model_kind": "mlp", "hidden_dim": 0},
        {"eval_target": "median"},
        {"target_accuracy": 1.5},
        {"hyper": {"h_intra": -1.0}},
        {"hyper": {"eta_server": 5.0}},
        {"n_clients": 8, "client_locations": ["Paris"] * 7},
        {"algorithm": "sync-spyker", "sync_period": -1},
    ]
    for raw in bad:
        with pytest.raises(ConfigError):
            from_dict(raw)


def test_config_hash_tracks_content():
    a = from_dict({"preset": "desk-synth"})
    b = from_dict({"preset": "desk-synth"})
    c = from_dict({"preset": "desk-synth", "seed": 1})
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_load_config_yaml(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("preset: desk-synth\nn_clients: 16\nhyper:\n  eta_init: 0.2\n")
    cfg = load_config(str(path))
    assert cfg.n_clients == 16 and cfg.hyper.eta_init == 0.2

    (tmp_path / "broken.yaml").write_text("preset: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "broken.yaml"))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.yaml"))


def test_overrides_flat_nested_and_typed():
    cfg = from_dict({"preset": "desk-synth"})
    cfg = apply_overrides(cfg, [
        "n_clients=16",
        "horizon_ms=9000.5",
        "latency=uniform",
        "hyper.eta_init=0.2",
        "compute.training_std_ms=60",
        "client_counts=[4, 4, 4, 4]",
    ])
    assert cfg.n_clients == 16
    assert cfg.horizon_ms == 9000.5
    assert cfg.latency == "uniform"
    assert cfg.hyper.eta_init == 0.2
    assert cfg.compute.training_std_ms == 60
    assert cfg.client_counts == (4, 4, 4, 4)


def test_override_error_paths():
    cfg = from_dict({"preset": "desk-synth"})
    for item in ("n_clients", "warp=9", "hyper.warp=9", "hyper.eta_init.x=1", "seed.x=1"):
        with pytest.raises(ConfigError):
            apply_overrides(cfg, [item])
    # Overrides re-validate the final state.
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["n_servers=0"])


# -- CLI ----------------------------------------------------------------------


def test_cli_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "--out-dir", str(out), "--seed", "7", *TINY])
    assert code == 0
    for name in ("manifest.json", "timeseries.csv", "summary.json", "trace-hash.txt"):
        assert (out / name).exists()
    manifest = RunManifest.from_json((out / "manifest.json").read_text())
    assert manifest.master_seed == 7
    summary = read_summary(str(out / "summary.json"))
    assert summary["seed"] == 7
    assert summary["config"]["n_clients"] == 8
    assert "accuracy=" in capsys.readouterr().out


def test_cli_config_file_plus_override(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(
        "preset: desk-synth\nn_clients: 8\nn_samples: 400\ninput_dim: 6\n"
        "horizon_ms: 1500\neval_interval_ms: 500\n"
    )
    out = tmp_path / "run"
    code = main(["run", "--config", str(path), "--out-dir", str(out),
                 "--override", "algorithm=fedasync", "--override", "n_servers=1"])
    assert code == 0
    assert read_summary(str(out / "summary.json"))["algorithm"] == "fedasync"


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["--help"]) == 0
    assert main(["warp-drive"]) == 1  # unknown subcommand is a usage error
    assert main(["run", "--override", "warp=9", "--out-dir", str(tmp_path)]) == 1
    assert main(["run", "--config", str(tmp_path / "none.yaml")]) == 1
    (tmp_path / "broken.yaml").write_text("a: [b\n")
    assert main(["run", "--config", str(tmp_path / "broken.yaml")]) == 1
    assert main(["run", "--out-dir", str(tmp_path / "r"), *TINY,
                 "--override", "hyper.eta_server=5.0"]) == 1
    capsys.readouterr()
    # A data root without the IDX files passes config checks but fails
    # when the task is loaded.
    empty = tmp_path / "no-data"
    empty.mkdir()
    monkeypatch.setenv("SPYKERSIM_DATA", str(empty))
    code = main(["run", "--out-dir", str(tmp_path / "r"), *TINY, "--override", "dataset=mnist"])
    assert code == 2
    assert "runtime error: FileNotFoundError" in capsys.readouterr().err


def test_cli_histogram(tmp_path):
    out = tmp_path / "hist"
    assert main(["histogram", "--out-dir", str(out), *TINY]) == 0
    payload = json.loads((out / "histogram.json").read_text())
    assert len(payload["client_updates"]) == 8
    assert payload["mean"] > 0


def test_cli_scalability(tmp_path):
    out = tmp_path / "scal"
    code = main(["scalability", "--out-dir", str(out), "--clients", "8", "12",
                 *TINY, "--override", "target_accuracy=0.7"])
    assert code == 0
    table = json.loads((out / "scalability.json").read_text())
    assert table["base_clients"] == 8
    assert set(table["clients"]) == {"8", "12"}
    for alg, cells in table["multipliers"].items():
        base = cells["8"]["time"]
        assert base == 1.0 or base == "unreached"


def test_cli_queues(tmp_path):
    out = tmp_path / "q"
    code = main(["queues", "--out-dir", str(out), "--training-std-ms", "40",
                 *TINY, "--override", "horizon_ms=1000"])
    assert code == 0
    payload = json.loads((out / "queues.json").read_text())
    assert payload["training_std_ms"] == 40
    assert payload["spyker"]["peak"] >= 0
    assert len(payload["fedasync"]["max_queue"]) == len(payload["fedasync"]["times_ms"])


def test_cli_bandwidth(tmp_path):
    out = tmp_path / "bw"
    code = main(["bandwidth", "--out-dir", str(out), "--window-ms", "1000",
                 *TINY, "--override", "horizon_ms=1000"])
    assert code == 0
    payload = json.loads((out / "bandwidth.json").read_text())
    for alg in ("spyker", "sync-spyker", "fedavg", "fedasync", "hierfavg"):
        assert payload[alg]["total_bytes"] > 0


def test_cli_ablate_decay(tmp_path):
    out = tmp_path / "ab"
    code = main(["ablate-decay", "--out-dir", str(out), *TINY,
                 "--override", "horizon_ms=1000"])
    assert code == 0
    payload = json.loads((out / "decay-ablation.json").read_text())
    assert payload["decay_on"]["updates"] > 0
    assert payload["decay_off"]["updates"] > 0
