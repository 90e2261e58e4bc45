#!/usr/bin/env python3
"""Record parent-versus-change benchmark pairs into a BENCH_<n>.json file.

    git worktree add ../parent <parent commit>
    python tools/bench_record.py --parent ../parent --change . \\
        --workload stream --seeds 201-210 --seconds 30 --out BENCH_8.json
    python tools/bench_record.py --show BENCH_8.json

The parent must be the top of its own git checkout, as a worktree is:
its HEAD is the commit the file records, so a copy without .git, or one
inside another checkout, is refused before any run.

For each seed, runs the command BENCHMARK.json declares once in each
checkout (trace off), alternating which side goes first, and keeps the
JSON result line each run prints. The result line's times are scaled to a
reference speed by perfbench's calibration probe, so beside it each run
keeps, under ``as_timed``, the probe's scale and the metrics as timed,
both read from the run's full result in ``.perfbench/``. Per end-to-end
metric it then writes
both sides' medians and quartiles, change/parent as a ratio of medians,
and how many pairs the change won. A workload recorded again replaces
its old entry; the others stay, so a file is filled one workload at a
time. Numbers from one machine are only comparable as ratios, so each
workload also keeps the environment fingerprint of its first run.

``--show`` prints a recorded file, one line per workload and end-to-end
metric: both medians, change/parent, the same ratio as timed (``-`` for a
file recorded before runs kept it), the parent's interquartile range,
how many pairs the change won and a verdict against the metric's bound
in BENCHMARK.json (see :func:`verdict`). It runs nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 1


def seed_range(text: str) -> list[int]:
    """'201-205' -> [201, ..., 205]."""
    lo, hi = map(int, text.split("-"))
    return list(range(lo, hi + 1))


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> tuple[dict, dict, dict]:
    """The result line of one untraced run, its probe scale and metrics
    as timed, and its fingerprint."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(args)} exited "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((checkout / ".perfbench"
                       / f"{workload}-seed{seed}-trace0.json").read_text())
    timed = {"scale": full["scale_median"], "metrics": full["raw_metrics"]}
    fingerprint = full["fingerprint"]
    fingerprint.pop("seed", None)
    return line, timed, fingerprint


def require_checkout_top(parent: Path) -> None:
    """Exit unless parent is the top of its own git checkout."""
    top = subprocess.run(
        ["git", "-C", str(parent), "rev-parse", "--show-toplevel"],
        capture_output=True, text=True)
    if (top.returncode
            or Path(top.stdout.strip()).resolve() != parent.resolve()):
        raise SystemExit(f"--parent {parent} is not the top of a git "
                         "checkout; make it with git worktree add")


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: medians, quartiles, ratio and wins over the pairs."""
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        old = [r["parent"]["metrics"][name]["value"] for r in runs]
        new = [r["change"]["metrics"][name]["value"] for r in runs]
        higher = spec["better"] == "higher"
        wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        med_old, med_new = statistics.median(old), statistics.median(new)
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent_median": med_old,
            "change_median": med_new,
            "parent_quartiles": _quartiles(old),
            "change_quartiles": _quartiles(new),
            "ratio": med_new / med_old if med_old else None,
            "change_wins": wins,
            "pairs": len(runs),
        }
    return out


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _num(value: float) -> str:
    """Four significant digits, never in exponent form."""
    if not value:
        return "0"
    return f"{value:.{max(0, 3 - math.floor(math.log10(abs(value))))}f}"


def verdict(row: dict, bound: float, old: list, new: list) -> str:
    """How a change reads on one metric: "gain" when it ran at least ten
    pairs, won at least nine tenths of them and its median is better than
    the parent's by more than the parent's IQR; "worse" when its median is worse than the
    parent's by more than bound (a fraction of the parent's median);
    "unresolved" when the parent's IQR is wider than that bound and not
    every change run beats every parent run; else "within". old and new
    are the parent's and the change's runs."""
    higher = row["better"] == "higher"
    better_by = (row["change_median"] - row["parent_median"]) * (
        1 if higher else -1)
    q1, q3 = row["parent_quartiles"]
    allowed = bound * abs(row["parent_median"])
    if (row["pairs"] >= 10 and 10 * row["change_wins"] >= 9 * row["pairs"]
            and better_by > q3 - q1):
        return "gain"
    if -better_by > allowed:
        return "worse"
    beats_all = min(new) > max(old) if higher else max(new) < min(old)
    if q3 - q1 > allowed and not beats_all:
        return "unresolved"
    return "within"


def timed_ratio(runs: list[dict], metric: str) -> str:
    """change/parent of the medians as timed, or "-" when a run kept
    none."""
    if not all("as_timed" in r for r in runs):
        return "-"
    old, new = (statistics.median(r["as_timed"][side]["metrics"][metric]
                                  for r in runs)
                for side in ("parent", "change"))
    return f"{new / old:.3f}" if old else "-"


def show(doc: dict) -> str:
    """The table --show prints for a recorded file."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {spec["name"]: spec["bound"] for spec in bench["end_to_end"]}
    lines = [f"parent {doc['parent']}",
             "workload   metric                 unit   parent_median "
             "change_median  ratio  timed  parent_iqr  wins  verdict"]
    for workload, w in doc["workloads"].items():
        for metric, row in w["medians"].items():
            q1, q3 = row["parent_quartiles"]
            ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
            old, new = ([r[side]["metrics"][metric]["value"]
                         for r in w["runs"]] for side in ("parent", "change"))
            wins = f"{row['change_wins']}/{row['pairs']}"
            lines.append(
                f"{workload:<10} {metric:<22} {row['unit']:<6} "
                f"{_num(row['parent_median']):>13} "
                f"{_num(row['change_median']):>13} {ratio:>6} "
                f"{timed_ratio(w['runs'], metric):>6} "
                f"{_num(q3 - q1):>11}  {wins:<5} "
                f"{verdict(row, bounds[metric], old, new)}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--show", type=Path, metavar="BENCH_FILE",
                   help="print a recorded file's medians and run nothing")
    p.add_argument("--parent", type=Path)
    p.add_argument("--change", type=Path)
    p.add_argument("--workload")
    p.add_argument("--seeds", type=seed_range)
    p.add_argument("--seconds", type=float)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if args.show:
        print(show(json.loads(args.show.read_text())), end="")
        return 0
    missing = [f"--{name}" for name in ("parent", "change", "workload",
                                        "seeds", "seconds", "out")
               if getattr(args, name) is None]
    if missing:
        p.error(f"without --show, {', '.join(missing)} are required")

    require_checkout_top(args.parent)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_id = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=args.parent, capture_output=True,
        text=True, check=True).stdout.strip()
    runs, fingerprint = [], None
    for i, seed in enumerate(args.seeds):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": sides[0], "as_timed": {}}
        for side in sides:
            checkout = args.parent if side == "parent" else args.change
            pair[side], pair["as_timed"][side], fp = run_once(
                checkout, bench["command"], args.workload, seed, args.seconds)
            fingerprint = fingerprint or fp
        runs.append(pair)
        m = bench["end_to_end"][0]["name"]
        print(f"{args.workload} seed {seed}: {m} "
              f"{pair['parent']['metrics'][m]['value']:.1f} -> "
              f"{pair['change']['metrics'][m]['value']:.1f}", flush=True)

    doc = (json.loads(args.out.read_text()) if args.out.exists()
           else {"schema": SCHEMA, "parent": parent_id, "workloads": {}})
    if doc["parent"] != parent_id:
        raise SystemExit(f"{args.out} was recorded against {doc['parent']}")
    doc["workloads"][args.workload] = {
        "command": [*bench["command"], "--workload", args.workload,
                    "--seed", "<seed>", "--seconds", str(args.seconds),
                    "--trace", "0"],
        "seconds": args.seconds,
        "fingerprint": fingerprint,
        "runs": runs,
        "medians": summarize(runs, bench["end_to_end"]),
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
