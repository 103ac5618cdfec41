"""Command-line pipeline driver: demos -> prior -> reward -> evaluation.

Every subcommand reads one JSON config and writes its artifacts into the
--out directory. Exit codes: 0 on success, 1 on a domain error (the error
name goes to stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path
from typing import Any, Callable

from .bench import (
    BenchReport,
    RunConfig,
    ablate_reward,
    ablate_sampling,
    demo_prior,
    demo_reward_data,
    demo_reward_model,
    generate_demos,
    load_demos,
    run_benchmark,
    sweep_alpha,
    sweep_model_error,
    write_report,
)
from .errors import DataError
from .kde import load_prior, save_prior
from .records import Trajectory
from .reward import load_model, save_model

log = logging.getLogger("lookahead")

# evaluation command -> (protocol, stem of its .json and .csv report files)
EVALUATIONS = {
    "run": (run_benchmark, "report"),
    "sweep-alpha": (sweep_alpha, "alpha_sweep"),
    "ablate-sampling": (ablate_sampling, "sampling_ablation"),
    "ablate-reward": (ablate_reward, "reward_ablation"),
    "sweep-model-error": (sweep_model_error, "model_error_sweep"),
}
COMMANDS = ("gen-data", "fit-prior", "fit-reward", *EVALUATIONS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lookahead",
        description="Deterministic pipeline for search-corrected policy evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(COMMANDS))
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default="out", help="artifact directory (default ./out)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's base seed (demo seed for gen-data)")
        p.add_argument("--quiet", action="store_true", help="suppress progress logging")
    return parser


def _load_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    path = Path(args.config)
    if not path.is_file():
        parser.error(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        parser.error(f"config is not valid UTF-8 JSON: {exc}")
    try:
        config = RunConfig.from_dict(doc)
        if args.seed is not None:
            seed_field = "demo_seed" if args.command == "gen-data" else "base_seed"
            config = dataclasses.replace(config, **{seed_field: args.seed})
    except (KeyError, TypeError, ValueError) as exc:
        parser.error(f"invalid config: {exc}")
    return config


def _summary(report: BenchReport) -> str:
    parts = [f"{a.arm}[alpha={a.alpha:g},eps={a.epsilon:g}]={a.success_rate:.3f}"
             for a in report.arms]
    line = f"{report.kind}: " + " ".join(parts)
    if report.paired_diff is not None:
        line += f" paired_diff={report.paired_diff:+.3f}"
    return line


def _read(path: Path, load: Callable[[Path], Any], command: str) -> Any:
    """``load(path)``, once ``path`` exists; a missing file names the command that writes it."""
    if not path.is_file():
        raise DataError(f"missing {path}; run {command} first")
    return load(path)


def _read_demos(out: Path, config: RunConfig) -> list[Trajectory]:
    """The demos in ``out``; a demo of another task than the config's is a ValueError naming both."""
    path = out / "demos.jsonl"
    trajs = _read(path, load_demos, "gen-data")
    for traj in trajs:
        if traj.task_id != config.task.task_id:
            raise ValueError(f"{path} holds demos of task {traj.task_id!r}, "
                             f"but the config's task is {config.task.task_id!r}")
    return trajs


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(message)s", stream=sys.stderr)
    config = _load_config(parser, args)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:  # it, or a parent, is a file
        parser.error(f"--out {out} cannot be a directory: {exc.strerror}")

    try:
        if args.command == "gen-data":
            stats = generate_demos(config.task, config.demo_count, config.demo_seed,
                                   out / "demos.jsonl", out / "failures.jsonl")
            print(f"kept {stats['kept']}/{stats['attempted']} demos -> {out / 'demos.jsonl'}")
            return 0

        if args.command == "fit-prior":
            prior = demo_prior(_read_demos(out, config), chunk_len=config.policy.chunk_len,
                               bandwidth=config.prior_bandwidth)
            save_prior(prior, out / "prior.json")
            print(f"prior: {prior.n_points} points, dim={prior.dim}, "
                  f"bandwidth={prior.bandwidth:.6g} -> {out / 'prior.json'}")
            return 0

        if args.command == "fit-reward":
            model = demo_reward_model(_read_demos(out, config), config.reward_stride,
                                      config.ridge_lambda, task_kind=config.task.task_id)
            save_model(model, out / "reward.json")
            print(f"reward: {model.weights.size} weights, train_mse={model.train_mse:.6g} "
                  f"-> {out / 'reward.json'}")
            return 0

        # evaluation commands need both fitted artifacts
        prior = _read(out / "prior.json", load_prior, "fit-prior")
        model = _read(out / "reward.json", load_model, "fit-reward")

        protocol, stem = EVALUATIONS[args.command]
        # the reward ablation also scores with the labeled demo frames
        extra = ((demo_reward_data(_read_demos(out, config), config.reward_stride),)
                 if args.command == "ablate-reward" else ())
        report = protocol(config, prior, model, *extra)
        write_report(report, out / f"{stem}.json", out / f"{stem}.csv")
        print(_summary(report))
        return 0
    except (DataError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
