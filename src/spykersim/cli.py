"""Command-line interface over the experiment runner and suites.

Exit codes: 0 on success, 1 for configuration problems (bad flags, bad YAML,
invalid field values), 2 for runtime failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .config import (
    ALGORITHMS,
    DATA_ROOT_ENV,
    ExperimentConfig,
    apply_overrides,
    from_dict,
    load_config,
)
from .errors import ConfigError
from .experiment import run_experiment
from .suites import (
    bandwidth_report,
    decay_ablation,
    latency_comparison,
    median_over_seeds,
    queue_trace,
    scalability_suite,
    update_histogram,
)


def _common_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", help="YAML config; defaults to the desk-synth preset")
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--seeds", type=int, default=1, metavar="N",
                   help="run N seeds from --seed on; medians go to <out-dir>/median.json")
    p.add_argument("--out-dir", default=None, help="artifact directory (default runs/<command>)")
    p.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config field override, repeatable (dots reach hyper.* and compute.*)",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spykersim",
        description="Discrete-event simulator for asynchronous multi-server federated training.",
        epilog=f"Set {DATA_ROOT_ENV} to a directory of IDX files to train on real images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()
    sub.add_parser("run", parents=[common], help="one experiment; writes the run artifacts")
    sub.add_parser("latency", parents=[common], help="time-to-accuracy, spyker vs fedasync")
    p = sub.add_parser("scalability", parents=[common], help="time-to-accuracy vs client count")
    p.add_argument("--clients", type=int, nargs="+", default=[40, 80])
    p = sub.add_parser("queues", parents=[common], help="queue pressure under heterogeneous compute")
    p.add_argument("--training-std-ms", type=float, default=60.0)
    sub.add_parser("histogram", parents=[common], help="per-client update distribution")
    p = sub.add_parser("bandwidth", parents=[common], help="bytes on the wire per algorithm")
    p.add_argument("--window-ms", type=float, default=110_000.0)
    sub.add_parser("ablate-decay", parents=[common], help="lr decay on/off comparison")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else from_dict({"preset": "desk-synth"})
    overrides = list(args.override)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    return apply_overrides(cfg, overrides)


def _write_json(out_dir: str, name: str, payload: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True, indent=2, allow_nan=False)
        f.write("\n")
    return path


def _ms(t) -> str:
    return f"{t:.0f} ms" if t is not None else "not reached"


def _study(args, cfg: ExperimentConfig, out: str) -> tuple[dict, str | None]:
    """One seed of the command's study, and the JSON file it writes next to its runs.

    The runs write their artifacts under out; `run` writes nothing else.
    """
    if args.command == "run":
        return run_experiment(cfg, out).summary, None
    if args.command == "latency":
        return latency_comparison(cfg, out_dir=out), "latency.json"
    if args.command == "scalability":
        return scalability_suite(cfg, tuple(args.clients), out_dir=out), "scalability.json"
    if args.command == "queues":
        return queue_trace(cfg, args.training_std_ms, out_dir=out), "queues.json"
    if args.command == "histogram":
        return update_histogram(cfg, out_dir=out), "histogram.json"
    if args.command == "bandwidth":
        return bandwidth_report(cfg, args.window_ms, out_dir=out), "bandwidth.json"
    return decay_ablation(cfg, out_dir=out), "decay-ablation.json"


def _show(command: str, res: dict, where: str) -> None:
    """Print one seed's result or the median, which lacks leaves the seeds disagree on."""
    if command == "run":
        print(
            f"{res['algorithm']}: accuracy={res['final_accuracy']:.4f} "
            f"updates={res['updates']} stop={res.get('stop_reason', 'mixed')} -> {where}"
        )
        return
    if command == "latency":
        for latency in ("aws4", "uniform"):
            sp, fa = res[latency]["spyker"], res[latency]["fedasync"]
            gain = f" ({(1 - sp / fa) * 100:.0f}% lower)" if sp is not None and fa else ""
            print(f"{latency}: spyker {_ms(sp)}, fedasync {_ms(fa)}{gain}")
    elif command == "scalability":
        for count, row in res["clients"].items():
            for alg, cell in row.items():
                print(f"{count} clients, {alg}: {_ms(cell['time_to_target_ms'])}")
    elif command == "queues":
        print(
            f"peak queue: spyker={res['spyker']['peak']:.0f} "
            f"fedasync={res['fedasync']['peak']:.0f} mean_ratio={res['mean_ratio']:.3f}"
        )
    elif command == "histogram":
        print(f"updates/client: mean={res['mean']:.1f} cv={res['cv']:.3f}")
    elif command == "bandwidth":
        for alg in ALGORITHMS:
            if alg in res:
                print(f"{alg}: {res[alg]['total_bytes'] / 1e6:.2f} MB")
    else:
        for label in ("decay_on", "decay_off"):
            t = res[label]["time_to_85_ms"]
            print(f"{label}: time_to_85={_ms(t)} cv={res[label]['update_cv']:.3f}")
    print(f"-> {where}")


def _dispatch(args) -> int:
    cfg = _load(args)
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    out = args.out_dir or os.path.join("runs", args.command)

    def one_seed(run_cfg: ExperimentConfig, run_out: str) -> dict:
        res, artifact = _study(args, run_cfg, run_out)
        _show(args.command, res, _write_json(run_out, artifact, res) if artifact else run_out)
        return res

    if args.seeds == 1:
        one_seed(cfg, out)
        return 0
    seeds = range(cfg.seed, cfg.seed + args.seeds)
    per_seed = [one_seed(replace(cfg, seed=s), os.path.join(out, f"seed{s}")) for s in seeds]
    med = median_over_seeds(per_seed)
    print(f"median over seeds {seeds[0]}..{seeds[-1]}:")
    _show(args.command, med, _write_json(out, "median.json", med))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help and 2 for usage errors; usage errors
        # are configuration problems under this tool's exit-code contract.
        return 0 if e.code == 0 else 1
    try:
        return _dispatch(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - contract maps any failure to 2
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
