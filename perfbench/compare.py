"""Compare two benchmark results as ratios.

    python3 perfbench/compare.py .perfbench/stream-seed1-trace0.json other.json

Prints new/old for every metric both results carry, and warns when their
environment fingerprints differ: a ratio between two machines, Python
builds or library versions says nothing about the code.
"""

from __future__ import annotations

import json
import sys


def fingerprint_warnings(old: dict, new: dict) -> list[str]:
    return [f"WARNING: fingerprint differs in {key}: {old.get(key)!r} -> {new.get(key)!r}"
            for key in sorted(set(old) | set(new)) if old.get(key) != new.get(key)]


def ratio_lines(old: dict, new: dict) -> list[str]:
    lines = [f"{'metric':34s} {'old':>14s} {'new':>14s} {'new/old':>8s}"]
    for name, m in old.items():
        if name not in new:
            continue
        a, b = m["value"], new[name]["value"]
        ratio = f"{b / a:8.3f}" if a else "     n/a"
        lines.append(f"{name:34s} {a:14.4f} {b:14.4f} {ratio} {m['unit']}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(open(path).read()) for path in argv)
    lines = fingerprint_warnings(old["fingerprint"], new["fingerprint"])
    lines += ratio_lines(old["metrics"], new["metrics"])
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
