"""Alternating paired runs of perfbench workloads on two checkouts.

Run from any directory::

    python benchmarks/pairs.py PARENT CHANGE --workload trace-replay-counter \
        --workload weighted-nash-counter --pairs 10 --seconds 20 --seed 1

``PARENT`` and ``CHANGE`` are two checkouts of this repository. Each
pair runs each checkout's own ``perfbench/run.py`` once, as a
subprocess, one after the other. The side that goes first alternates
from pair to pair: on a shared host the run that goes second can read
slower (``setup_s`` most of all), and a fixed order would book that on
one side.

``--workload`` repeats; the workloads run one after the other, each
with its own pairs. For every end-to-end metric in the change's
``BENCHMARK.json`` the script prints both sides' median and quartiles,
how many pairs the change won and a verdict (:func:`verdict`), then
whether every pair's output digests agree and how many checks failed.
It exits 1 on a digest mismatch or a failed check in any workload; the
verdicts do not change the exit code. It writes nothing; its name keeps
pytest from collecting it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One untraced ``perfbench/run.py`` run: its detail and result lines."""
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
        check=False,
    )
    if completed.returncode != 0:
        sys.exit(
            f"{checkout}: perfbench/run.py exited {completed.returncode}\n"
            f"{completed.stderr}"
        )
    detail, result = completed.stdout.strip().splitlines()[-2:]
    return {"detail": json.loads(detail), "result": json.loads(result)}


def verdict(parent: np.ndarray, change: np.ndarray, metric: dict) -> str:
    """Compare one metric's paired samples against its ``bound``.

    ``bound`` is a fraction of the parent's median. The verdicts, first
    match wins:

    * ``worse`` — the change's median is worse than the parent's by more
      than the bound;
    * ``gain`` — the change wins at least 9 of 10 pairs and its median is
      better than the parent's by more than the parent's IQR;
    * ``unresolved`` — the parent's IQR exceeds the bound and not every
      change run beats every parent run;
    * ``level`` — anything else.
    """
    sign = 1.0 if metric["better"] == "lower" else -1.0
    parent_median = np.median(parent)
    # Positive when the change's median is better than the parent's.
    gained = sign * (parent_median - np.median(change))
    scale = abs(parent_median) or 1.0
    q1, q3 = np.percentile(parent, [25, 75])
    if -gained > metric["bound"] * scale:
        return "worse"
    wins = np.sum(sign * (change - parent) < 0)
    if wins >= 0.9 * parent.size and gained > q3 - q1:
        return "gain"
    separated = np.max(sign * change) < np.min(sign * parent)
    if q3 - q1 > metric["bound"] * scale and not separated:
        return "unresolved"
    return "level"


def summarize(runs: dict[str, list[dict]], spec: dict) -> bool:
    """Print the metric table and the digest and check lines; returns
    whether every digest agrees and no check failed."""
    pairs = len(runs["change"])
    print(
        f"{'metric':<26} {'parent median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'ratio':>7} {'wins':>6} verdict"
    )
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {
            side: np.array(
                [run["result"]["metrics"][name]["value"] for run in side_runs]
            )
            for side, side_runs in runs.items()
        }
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = int(np.sum(sign * (values["change"] - values["parent"]) < 0))
        cells = []
        for side in ("parent", "change"):
            q1, median, q3 = np.percentile(values[side], [25, 50, 75])
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] {metric['unit']}")
        parent_median = np.median(values["parent"])
        ratio = np.median(values["change"]) / parent_median if parent_median else np.nan
        print(
            f"{name:<26} {cells[0]:>30} {cells[1]:>30} {ratio:>7.3f} "
            f"{wins:>3}/{pairs} {verdict(values['parent'], values['change'], metric)}"
        )
    digests = {
        side: [run["detail"]["digest"] for run in side_runs]
        for side, side_runs in runs.items()
    }
    same = digests["parent"] == digests["change"]
    print(
        f"digests: parent {sorted(set(digests['parent']))} change "
        f"{sorted(set(digests['change']))} -> {'equal' if same else 'MISMATCH'}"
    )
    failed = {
        side: sum(run["result"]["failed"] for run in side_runs)
        for side, side_runs in runs.items()
    }
    attempted = {
        side: sum(run["result"]["attempted"] for run in side_runs)
        for side, side_runs in runs.items()
    }
    print(
        f"failed checks: parent {failed['parent']}/{attempted['parent']} "
        f"change {failed['change']}/{attempted['change']}"
    )
    return same and not any(failed.values())


def run_pairs(
    checkouts: dict[str, Path], workload: str, pairs: int, seconds: float, seed: int
) -> dict[str, list[dict]]:
    """``pairs`` alternating runs of one workload on both checkouts."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(checkouts[side], workload, seconds, seed))
        wall = {
            side: runs[side][-1]["result"]["metrics"]["wall_norm_s"]["value"]
            for side in order
        }
        print(
            f"{workload} pair {pair + 1}/{pairs} ({order[0]} first): wall_norm_s "
            f"parent {wall['parent']:.4f} change {wall['change']:.4f}",
            file=sys.stderr,
            flush=True,
        )
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument(
        "--workload", action="append", required=True, help="repeat for several"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {checkout} has no perfbench/run.py")
    with open(checkouts["change"] / "BENCHMARK.json") as handle:
        spec = json.load(handle)

    ok = True
    for workload in args.workload:
        print(f"== {workload}", flush=True)
        runs = run_pairs(checkouts, workload, args.pairs, args.seconds, args.seed)
        ok = summarize(runs, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
