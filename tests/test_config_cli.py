"""Config assembly, validation, overrides, and the command-line surface."""

import importlib.util
import json
import sys
import warnings
from pathlib import Path

import pytest

from spykersim.config import (
    ALGORITHMS,
    PRESETS,
    apply_overrides,
    config_hash,
    from_dict,
    load_config,
    to_dict,
)
from spykersim.cli import main
from spykersim.errors import ConfigError
from spykersim.suites import median_over_seeds, variant

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
        {"n_clients": "abc"},
        {"hyper": {"batch_size": 8.5}},
        {"hyper": {"decay_enabled": 1}},
        {"server_locations": "Paris"},
        # Only a YAML 1.2 exponent float is read from a string, and only
        # for a float field.
        {"bandwidth_bps": "1.5"},
        {"bandwidth_bps": "1e8x"},
        {"bandwidth_bps": "e8"},
        {"bandwidth_bps": "inf"},
        {"n_clients": "1e2"},
    ]
    for raw in bad:
        with pytest.raises(ConfigError):
            from_dict(raw)


def test_unbounded_literal_merge_warns():
    with pytest.warns(UserWarning, match=r"hyper.eta_server 0.03 x 80 clients on one server = 2.4"):
        from_dict({"preset": "desk-synth", "n_clients": 320})
    # Only the spyker merge uses the staleness mode.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        from_dict({"preset": "desk-synth", "n_clients": 320, "algorithm": "hierfavg"})
        from_dict({"preset": "desk-synth", "n_clients": 320, "hyper": {"staleness_mode": "dampened"}})


def test_presets_and_benchmark_workloads_do_not_warn(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        presets = [from_dict({"preset": name}) for name in PRESETS]
        for cfg in presets:
            for alg in ALGORITHMS:
                variant(cfg, alg)
        for name in workloads.WORKLOADS:
            for run in workloads.make_runs(name, 1):
                run.cfg.validate()


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


def test_overrides_flat_nested_and_typed(tmp_path):
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
    # An int given for a float field is stored as a float, so 500 and 500.0
    # give the same config and the same artifacts.
    as_int = apply_overrides(cfg, ["horizon_ms=500", "compute.agg_fast_ms=2"])
    as_float = apply_overrides(cfg, ["horizon_ms=500.0", "compute.agg_fast_ms=2.0"])
    assert as_int == as_float and config_hash(as_int) == config_hash(as_float)
    assert type(as_int.horizon_ms) is float and type(as_int.compute.agg_fast_ms) is float
    assert type(from_dict({"horizon_ms": 500}).horizon_ms) is float
    # YAML 1.2 exponent floats, which PyYAML reads as strings, are floats
    # through an override and through a config file alike.
    exp = apply_overrides(cfg, ["bandwidth_bps=1e8", "hyper.eta_min=2E-3", "horizon_ms=1.5e3"])
    assert (exp.bandwidth_bps, exp.hyper.eta_min, exp.horizon_ms) == (1e8, 2e-3, 1500.0)
    assert type(exp.bandwidth_bps) is float
    # A signed exponent float is read as a number and then range-checked.
    with pytest.raises(ConfigError, match="> 0"):
        apply_overrides(cfg, ["bandwidth_bps=-2E-3"])
    path = tmp_path / "exp.yaml"
    path.write_text("preset: desk-synth\nbandwidth_bps: 1.0e8\nhyper:\n  eta_min: 1e-6\n")
    loaded = load_config(str(path))
    assert loaded.bandwidth_bps == 1e8 and loaded.hyper.eta_min == 1e-6


def test_override_error_paths():
    cfg = from_dict({"preset": "desk-synth"})
    for item in ("n_clients", "warp=9", "hyper.warp=9", "hyper.eta_init.x=1", "seed.x=1",
                 "n_clients=abc", "hyper={eta_init: 0.1}", "preset=desk-mnist"):
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
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 7
    summary = json.loads((out / "summary.json").read_text())
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
    assert json.loads((out / "summary.json").read_text())["algorithm"] == "fedasync"


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["--help"]) == 0
    assert main(["warp-drive"]) == 1  # unknown subcommand is a usage error
    assert main(["run", "--override", "warp=9", "--out-dir", str(tmp_path)]) == 1
    assert main(["run", "--config", str(tmp_path / "none.yaml")]) == 1
    (tmp_path / "broken.yaml").write_text("a: [b\n")
    assert main(["run", "--config", str(tmp_path / "broken.yaml")]) == 1
    assert main(["run", "--out-dir", str(tmp_path / "r"), *TINY,
                 "--override", "hyper.eta_server=5.0"]) == 1
    for bad in ("preset=nonexistent", "n_clients=abc", "hyper={eta_init: 0.1}"):
        assert main(["run", "--out-dir", str(tmp_path / "r"), *TINY, "--override", bad]) == 1
    assert main(["run", "--out-dir", str(tmp_path / "r"), *TINY, "--seeds", "0"]) == 1
    err = capsys.readouterr().err
    assert "preset" in err and "n_clients" in err and "hyper.<field>" in err
    assert "--seeds" in err
    # A data root without the IDX files passes config checks but fails
    # when the task is loaded.
    empty = tmp_path / "no-data"
    empty.mkdir()
    monkeypatch.setenv("SPYKERSIM_DATA", str(empty))
    code = main(["run", "--out-dir", str(tmp_path / "r"), *TINY, "--override", "dataset=mnist"])
    assert code == 2
    assert "runtime error: FileNotFoundError" in capsys.readouterr().err


def test_cli_scalability_base_meeting_target_at_time_zero_is_config_error(tmp_path, capsys):
    # The 2-class initial model already scores above 0.2, so every base run
    # reaches the target at t=0 and no time multiplier is defined.
    code = main(["scalability", "--out-dir", str(tmp_path / "scal"), "--clients", "8", "12",
                 *TINY, "--override", "target_accuracy=0.2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "spyker with the base population of 8 clients" in err


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


@pytest.mark.parametrize("command", ["run", "latency"])
def test_cli_seeds_write_each_seed_and_the_median(tmp_path, capsys, command):
    out = tmp_path / command
    assert main([command, "--out-dir", str(out), "--seed", "3", "--seeds", "2", *TINY]) == 0
    assert "median over seeds 3..4:" in capsys.readouterr().out
    name = "summary.json" if command == "run" else "latency.json"
    per_seed = []
    for seed in (3, 4):
        # Each seed writes what a one-seed call with that seed writes.
        single = tmp_path / f"single{seed}"
        assert main([command, "--out-dir", str(single), "--seed", str(seed), *TINY]) == 0
        assert (out / f"seed{seed}" / name).read_bytes() == (single / name).read_bytes()
        per_seed.append(json.loads((single / name).read_text()))
    text = (out / "median.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    assert json.loads(text) == json.loads(json.dumps(median_over_seeds(per_seed)))
