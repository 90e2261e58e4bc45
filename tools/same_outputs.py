#!/usr/bin/env python3
"""Check that the CLI prints the same in a parent checkout as in this one.

    git worktree add ../parent <parent commit>
    python tools/same_outputs.py --parent ../parent

Runs the same commands in the parent and in this checkout, each from the
checkout's top with PYTHONPATH set to that checkout's src, in both
``--format`` values:

- ``letterseal demo`` for each protocol at seeds 0 and 5;
- ``letterseal attack`` for each attack at seeds 0-5;
- ``letterseal vectors --check`` on the checkout's shipped vector file;
- ``letterseal bench --iterations 100 --format json-lines``, compared
  without its timings (``untimed``): the ``state_size`` records, and the
  ``count_per_message`` and ``pinned`` fields of the ``op_cost`` records;
- in text format only, each refused command of REFUSED: a bad argument,
  which the parser refuses, and a vector file that does not exist. These
  print nothing to stdout, so their exit codes are what is compared.

The protocols and attacks are this checkout's. Prints one line per command
whose exit code or stdout differs, naming its first differing line, then a
count; exits 1 when any command differs, else 0. The parent must be the
top of its own git checkout, as tools/bench_record.py requires.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]

from bench_record import require_checkout_top  # noqa: E402
from letterseal.endpoint import DESIGNS  # noqa: E402
from letterseal.mske import attack_names  # noqa: E402

VECTORS = "src/letterseal/kat_vectors.txt"
BENCH = ("bench", "--iterations", "100", "--format", "json-lines")
# per bench record type, the fields that time nothing; other records drop
UNTIMED = {"state_size": ("point", "snapshot_bytes"),
           "op_cost": ("scenario", "op", "count_per_message", "pinned")}
REFUSED = (("demo", "--seed", "abc"), ("demo", "--seed", "-1"),
           ("demo", "--iterations", "0"), ("bench", "--iterations", "50"),
           ("attack", "no_such_attack"),
           ("vectors", "--check", "no-such-file.txt"))


def commands() -> list[tuple[str, ...]]:
    """The CLI arguments of every command compared."""
    out = []
    for fmt in ("text", "json-lines"):
        out += [("demo", "--protocol", protocol, "--seed", str(seed),
                 "--format", fmt) for protocol in DESIGNS for seed in (0, 5)]
        out += [("attack", name, "--seed", str(seed), "--format", fmt)
                for name in attack_names() for seed in range(6)]
        out.append(("vectors", "--check", VECTORS, "--format", fmt))
    return out + [BENCH] + [(*cmd, "--format", "text") for cmd in REFUSED]


def untimed(stdout: str) -> str:
    """BENCH's output with only the UNTIMED fields of each record, one
    record a line."""
    records = [json.loads(line) for line in stdout.splitlines()]
    return "".join(
        json.dumps({name: r[name] for name in ("type", *UNTIMED[r["type"]])})
        + "\n" for r in records if r["type"] in UNTIMED)


def run_all(checkout: Path, cmds: list[tuple[str, ...]]) -> dict:
    """command -> (exit code, stdout) of each command run in checkout."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    out = {}
    for cmd in cmds:
        proc = subprocess.run([sys.executable, "-m", "letterseal.cli", *cmd],
                              cwd=checkout, env=env, capture_output=True,
                              text=True)
        out[cmd] = (proc.returncode,
                    untimed(proc.stdout) if cmd == BENCH else proc.stdout)
    return out


def differences(parent: dict, change: dict) -> list[str]:
    """One line per command whose exit code or stdout differs."""
    lines = []
    for cmd, (old_code, old_out) in parent.items():
        new_code, new_out = change[cmd]
        what = ([f"exit {old_code} -> {new_code}"]
                if old_code != new_code else [])
        pairs = itertools.zip_longest(old_out.splitlines(),
                                      new_out.splitlines())
        for k, (old, new) in enumerate(pairs, start=1):
            if old != new:
                what.append(f"line {k}: {old!r} -> {new!r}")
                break
        if what:
            lines.append(f"letterseal {' '.join(cmd)}: {'; '.join(what)}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    args = p.parse_args(argv)
    require_checkout_top(args.parent)
    cmds = commands()
    lines = differences(run_all(args.parent, cmds), run_all(ROOT, cmds))
    for line in lines:
        print(line)
    print(f"{len(cmds)} commands, {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
