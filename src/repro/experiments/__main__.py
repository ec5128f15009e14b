"""Command-line interface for the experiment harness.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run table1-approx thm11 [--full] [--seed N]
    python -m repro.experiments run table1-weighted --workers 4 --shard-size 64
    python -m repro.experiments run table1-weighted --target-ci 2.5
    python -m repro.experiments all [--full] [--markdown experiments.md]

``--workers N`` fans each sweep experiment's (family, size) cells over
``N`` processes (sweep ids: ``table1-approx``, ``table1-exact``,
``table1-weighted``, ``weighted-variants``, ``robustness``,
``scenarios-churn-shock``); every cell derives its own seed, so
measurement outputs are byte-identical at any worker count (the
``run_meta`` record each experiment's JSON carries — effective workers,
rng policy, sharding knobs, per-cell wall-clock — is the only artifact
field that reflects the invocation). ``--shard-size R`` additionally
splits each cell's replica ensemble into windows of ``R`` replicas that
the pool schedules as independent sub-tasks, so a single huge cell no
longer serializes the sweep; shard merging preserves byte-identity at
any ``(workers, shard-size)``. ``--target-ci H`` switches the
family-sweep experiments to adaptive ensemble sizing: each cell runs
replicas in shard-sized waves until the bootstrap CI half-width on its
mean convergence round drops to ``H`` (the configured repetition count
becomes a cap; ``run_meta.cell_timings`` records requested vs effective
repetitions). ``--rng counter`` switches the sweep experiments onto the
vectorized Philox counter stream layout (statistically equivalent,
same-seed deterministic, different sample paths from the default
``spawned`` layout); under it only the weighted kinds may shard — see
:mod:`repro.experiments.executor`. Requesting ``--workers`` (or
``--rng``/``--shard-size``/``--target-ci``) for an experiment that has
no such parameter prints a RuntimeWarning to stderr and falls back
instead of silently dropping the flag. Unknown experiment ids, and a
``--json``/``--markdown`` path whose directory is missing or not
writable, exit with status 2 before anything runs; a failed
reproduction exits with 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.experiments.registry import available_experiments, run_experiment
from repro.experiments.reporting import render_result, result_to_markdown
from repro.utils.serialization import write_csv, write_json

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables/figures/theorems of Adolphs & "
        "Berenbrink (PODC 2012).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiment ids")

    run_parser = subparsers.add_parser("run", help="run selected experiments")
    run_parser.add_argument("ids", nargs="+", help="experiment ids")
    _add_common(run_parser)

    all_parser = subparsers.add_parser("all", help="run every experiment")
    _add_common(all_parser)
    return parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--full",
        action="store_true",
        help="full sweep sizes (default: quick sweeps)",
    )
    parser.add_argument("--seed", type=int, default=20120716, help="base seed")
    parser.add_argument(
        "--markdown", type=Path, default=None, help="append markdown report here"
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write raw result data here"
    )
    parser.add_argument(
        "--csv",
        type=Path,
        default=None,
        help="directory for figure-style data series (one CSV per series, "
        "named <experiment_id>__<series>.csv)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan sweep cells over N processes (default: serial in-process; "
        "measurement results are identical at any worker count)",
    )
    parser.add_argument(
        "--rng",
        choices=("spawned", "counter"),
        default="spawned",
        help="per-replica RNG stream layout: 'spawned' (default; "
        "bit-identical to earlier releases) or 'counter' (vectorized "
        "Philox block draws; statistically equivalent and same-seed "
        "deterministic, but on different sample paths)",
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="R",
        help="replicas per executor shard: split each sweep cell's "
        "ensemble into R-replica windows scheduled as independent pool "
        "tasks (results stay byte-identical at any workers/shard-size "
        "combination); default: monolithic cells",
    )
    parser.add_argument(
        "--target-ci",
        type=float,
        default=None,
        metavar="H",
        help="adaptive ensemble sizing for family sweeps: run each "
        "cell's replicas in shard-sized waves until the bootstrap 95%% "
        "CI half-width on its mean convergence round is at most H "
        "(repetitions become a cap; effective sizes are recorded in "
        "run_meta.cell_timings)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="replay this saved workload trace file as the single cell "
        "of the workloads-traffic experiment (other experiments warn "
        "and ignore it)",
    )
    parser.add_argument(
        "--workload",
        default=None,
        metavar="NAME",
        help="narrow the workloads-traffic experiment to one cell of "
        "this generator (mmpp, diurnal, flash-crowd, adversarial, "
        "mmpp-flash; other experiments warn and ignore it)",
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", None) is not None and args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if getattr(args, "shard_size", None) is not None and args.shard_size < 1:
        parser.error(f"--shard-size must be >= 1, got {args.shard_size}")
    if getattr(args, "target_ci", None) is not None and not args.target_ci > 0:
        parser.error(f"--target-ci must be positive, got {args.target_ci}")
    if getattr(args, "seed", None) is not None and args.seed < 0:
        parser.error(
            f"--seed must be a non-negative integer, got {args.seed}"
        )
    if getattr(args, "trace", None) is not None and not args.trace.is_file():
        parser.error(f"--trace file not found: {args.trace}")
    for flag in ("json", "markdown"):
        path = getattr(args, flag, None)
        if path is not None and not (
            path.parent.is_dir() and os.access(path.parent, os.W_OK)
        ):
            parser.error(
                f"--{flag} directory {str(path.parent)!r} does not exist "
                "or is not writable"
            )
    if args.command == "list":
        for experiment_id in available_experiments():
            print(experiment_id)
        return 0

    known = available_experiments()
    ids = known if args.command == "all" else args.ids
    # Fail fast on any unknown id so a typo cannot abort a multi-id run
    # after earlier (possibly expensive) experiments already executed.
    unknown = [experiment_id for experiment_id in ids if experiment_id not in known]
    if unknown:
        print(
            f"error: unknown experiment(s) {unknown}; available: {known}",
            file=sys.stderr,
        )
        return 2
    quick = not args.full
    all_passed = True
    markdown_sections: list[str] = []
    json_data: dict = {}
    for experiment_id in ids:
        try:
            result = run_experiment(
                experiment_id,
                quick=quick,
                seed=args.seed,
                workers=args.workers,
                rng_policy=args.rng,
                shard_size=args.shard_size,
                target_ci=args.target_ci,
                trace=None if args.trace is None else str(args.trace),
                workload=args.workload,
            )
        except ReproError as error:
            # Any deliberate library error (unknown id, bad parameters,
            # executor misconfiguration) gets the clean-message contract;
            # genuine programming errors still traceback.
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(render_result(result))
        print()
        all_passed = all_passed and result.passed
        markdown_sections.append(result_to_markdown(result))
        json_data[experiment_id] = {"passed": result.passed, **result.data}
        if args.csv is not None and result.series:
            args.csv.mkdir(parents=True, exist_ok=True)
            for series_name, columns in result.series.items():
                headers = list(columns)
                rows = list(zip(*(columns[name] for name in headers)))
                # Namespace by experiment so two experiments exporting a
                # same-named series cannot overwrite each other under
                # ``all --csv``.
                write_csv(
                    args.csv / f"{experiment_id}__{series_name}.csv",
                    rows,
                    headers,
                )

    if args.markdown is not None:
        existing = (
            args.markdown.read_text(encoding="utf-8")
            if args.markdown.exists()
            else ""
        )
        args.markdown.write_text(
            existing + "\n".join(markdown_sections) + "\n", encoding="utf-8"
        )
    if args.json is not None:
        write_json(args.json, json_data)
    return 0 if all_passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
