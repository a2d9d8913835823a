"""Command-line entry point.

Subcommands: ``run`` (execute an experiment sweep from a JSON config),
``gen-reqs`` (calibrated requirement suite for a landscape), ``rank``
(re-rank a finished sweep), ``synth`` (write a synthetic landscape CSV).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import landscape as landscape_mod
from . import harness, reqgen


def _cmd_run(args) -> int:
    try:
        config = harness.ExperimentConfig.from_json(args.config)
        # replace checks the overridden settings as the constructor does
        if args.jobs is not None:
            config = replace(config, jobs=args.jobs)
        if args.no_early_stop:
            config = replace(config, early_stop=False)
        result = harness.run_experiment(config)
    except harness.HarnessError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        harness.emit_trajectory_plots_data(result["out_dir"])
    except harness.HarnessError as exc:  # no run left a trajectory
        print(exc, file=sys.stderr)
    print(f"results written to {result['out_dir']}")
    for name, count in sorted(result["best_rank_counts"].items()):
        print(f"  {name}: rank-1 in {count} cells")
    if result["failures"]:
        print(f"{len(result['failures'])} run(s) failed; see manifest.json",
              file=sys.stderr)
        return 2
    return 0


def _cmd_gen_reqs(args) -> int:
    try:
        land = landscape_mod.load_csv(args.landscape)
        spec = reqgen.GenSpec(
            d_levels=tuple(float(x) for x in args.d.split(",")),
            types=args.types,
            seed=args.seed,
        )
        out_dir = args.out or (Path(args.landscape).stem + "_reqs")
        entries = reqgen.generate_suite(land, spec, out_dir=out_dir)
    except (OSError, ValueError, reqgen.CalibrationError) as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"{len(entries)} requirement(s) written to {out_dir}")
    return 0


def _cmd_rank(args) -> int:
    try:
        cells = harness.rank_results(args.results, test=args.test)
    except harness.HarnessError as exc:
        print(exc, file=sys.stderr)
        return 1
    for (land, req), rows in cells:
        print(f"{land} / {req}:")
        for tuner, mean, std, rank in rows:
            print(f"  {tuner}: {mean:.4f} +/- {std:.4f} (rank {rank})")
    return 0


def _cmd_synth(args) -> int:
    try:
        land = landscape_mod.synth(
            seed=args.seed,
            n_options=args.options,
            domain_sizes=args.domain_size,
            shape=args.shape,
        )
        landscape_mod.write_csv(land, args.out)
    except (OSError, landscape_mod.LandscapeError) as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"{land.space_size} configurations written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotune",
        description="Requirement-guided configuration tuning toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment sweep")
    p_run.add_argument("--config", required=True, help="experiment JSON file")
    p_run.add_argument("--jobs", type=int, default=None,
                       help="worker pool size")
    p_run.add_argument("--no-early-stop", action="store_true",
                       help="never stop a tuner on full satisfaction")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen-reqs", help="generate a requirement suite")
    p_gen.add_argument("--landscape", required=True, help="landscape CSV")
    p_gen.add_argument("--d", default="0.001,0.01,0.05,0.2,0.5,0.9",
                       help="comma-separated satisfiability levels")
    p_gen.add_argument("--types", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None, help="output directory")
    p_gen.set_defaults(func=_cmd_gen_reqs)

    p_rank = sub.add_parser("rank", help="re-rank a finished sweep")
    p_rank.add_argument("--results", required=True, help="results directory")
    p_rank.add_argument("--test", choices=("welch", "kruskal"),
                        default="welch")
    p_rank.set_defaults(func=_cmd_rank)

    p_synth = sub.add_parser("synth", help="write a synthetic landscape CSV")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--options", type=int, required=True)
    p_synth.add_argument("--domain-size", type=int, default=2)
    p_synth.add_argument("--shape", choices=landscape_mod.SHAPES,
                         default="rugged")
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
