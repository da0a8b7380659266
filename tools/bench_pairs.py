"""Interleaved parent/change pairs of ``perfbench/run.py``, written as a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json \\
        --pairs algebra=501-510 --pairs chain=601-605 --pairs fiber=701-705 \\
        [--layers NAME,NAME] [--pytest NODEID] [--note TEXT]

``--parent`` and ``--change`` are two checkouts of the repository, each run
with its own ``src/`` and ``perfbench/``.  Pair k of a workload runs
``perfbench/run.py --workload <w> --seed <seed k> --seconds S --trace 0`` in
both checkouts, one process at a time; the parent runs first on even k.  The
run length S, the end-to-end metrics, their units, directions and bounds are
read from the change's ``BENCHMARK.json``.  Each metric gets, per side, the runs, their
median and quartiles (numpy.percentile 25/50/75, linear), the number of
pairs where the change is strictly better, and the ratio of the medians.

``--layers`` adds one ``--trace 1`` pair per workload, on its first seed,
and records the named per-layer metrics of each side (those the workload
reports).  ``--pytest`` times a test node in both checkouts, ``PYTEST_PAIRS``
interleaved pairs of ``python -m pytest --durations=0``, and records the
node's call seconds.  The file is rewritten after every pair, so an
interrupted run keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

COMMAND = "python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds} --trace {trace}"
SIDES = ("parent", "change")
PYTEST_PAIRS = 3


def _seeds(spec: str) -> tuple[str, list[int]]:
    workload, _, seeds = spec.partition("=")
    first, _, last = seeds.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=30 * seconds + 300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _pytest_call_seconds(checkout: Path, node: str) -> float:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0", node],
        cwd=checkout, capture_output=True, text=True, env=env, timeout=1800)
    if done.returncode != 0:
        raise RuntimeError(f"{node} failed in {checkout}:\n{done.stdout[-2000:]}")
    for line in done.stdout.splitlines():
        match = re.match(r"\s*([\d.]+)s call\s+(\S+)", line)
        if match and match.group(2) == node:
            return float(match.group(1))
    raise RuntimeError(f"no call duration for {node} in {checkout}")


def _ordered(k: int):
    return SIDES if k % 2 == 0 else SIDES[::-1]


def _summary(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": runs}


def _workload_entry(seeds, results, metrics) -> dict:
    entry = {"seeds": seeds,
             "self_checks_clean": {side: all(r["correct"] for r in results[side])
                                   for side in SIDES},
             "metrics": {}}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(runs["parent"], runs["change"]))
        parent, change = _summary(runs["parent"]), _summary(runs["change"])
        entry["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": parent, "change": change, "change_wins": wins, "pairs": len(seeds),
            "median_change_over_parent": (change["median"] / parent["median"]
                                          if parent["median"] else None)}
    return entry


def _commit(checkout: Path):
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=FIRST-LAST")
    p.add_argument("--layers", default="", help="comma-separated per-layer metric names")
    p.add_argument("--pytest", action="append", default=[], metavar="NODEID")
    p.add_argument("--note", default="", help="what the change does")
    args = p.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    plan = [_seeds(spec) for spec in args.pairs]
    layers = [name for name in args.layers.split(",") if name]

    record = {
        "change": args.note,
        "parent_commit": _commit(checkouts["parent"]),
        "command": COMMAND.format(seconds=f"{seconds:g}", trace=0),
        "protocol": ("interleaved parent/change pairs, "
                     + ", ".join(f"{len(s)} on {w} (seeds {s[0]}-{s[-1]})" for w, s in plan)
                     + "; the parent runs first on even pair index; each side from its own "
                       "copy of src/ and perfbench/; workloads in the order given"),
        "hardware": (f"{os.cpu_count()}-CPU {platform.machine()}, CPython "
                     f"{platform.python_version()}, numpy {np.__version__}, scipy "
                     f"{scipy.__version__}; perfbench pins BLAS/OpenMP to 1 thread"),
        "statistics": ("median and quartiles by linear interpolation (numpy.percentile "
                       "25/50/75) over the runs of each side; change_wins counts pairs "
                       "where the change is strictly better"),
        "workloads": {},
    }

    def save():
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for workload, seeds in plan:
        results = {side: [] for side in SIDES}
        for k, seed in enumerate(seeds):
            for side in _ordered(k):
                results[side].append(_run(checkouts[side], workload, seed, seconds, 0))
            record["workloads"][workload] = _workload_entry(seeds[:k + 1], results,
                                                            bench["end_to_end"])
            save()
            print(f"{workload} pair {k + 1}/{len(seeds)} (seed {seed}): verdict_ref "
                  f"{results['parent'][-1]['metrics']['verdict_ref']['value']:.4g} -> "
                  f"{results['change'][-1]['metrics']['verdict_ref']['value']:.4g}",
                  file=sys.stderr)

    if layers:
        record["layers"] = {"command": COMMAND.format(seconds=f"{seconds:g}", trace=1)}
        for workload, seeds in plan:
            traced = {side: _run(checkouts[side], workload, seeds[0], seconds, 1)
                      for side in SIDES}
            record["layers"][workload] = {
                "seed": seeds[0],
                "correct": {side: traced[side]["correct"] for side in SIDES},
                **{side: {name: traced[side]["metrics"][name]["value"] for name in layers
                          if name in traced[side]["metrics"]} for side in SIDES}}
            save()

    if args.pytest:
        record["pytest"] = {"command": "python -m pytest -q --durations=0 <node> (default BLAS "
                                       "threads), call seconds; interleaved as above"}
        for node in args.pytest:
            runs = {side: [] for side in SIDES}
            for k in range(PYTEST_PAIRS):
                for side in _ordered(k):
                    runs[side].append(_pytest_call_seconds(checkouts[side], node))
            record["pytest"][node] = {side: _summary(runs[side]) for side in SIDES}
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
