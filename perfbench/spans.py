"""Span recording around the benchmark's calls into each letterseal layer.

A span is one call the benchmark makes, with its name, start, end, parent span
and a group identifier shared by every span of one message, session or game.
Spans stay in memory; the run writes them out when it ends. A layer's self
time is its span's duration minus the time its child spans cover; children
exist only where the benchmark itself nests calls (game -> oracle, session ->
establish).
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class NullTracer:
    """Tracing off: each begin/end call costs one method call."""

    group = 0

    def begin(self, name: str) -> int:
        return -1

    def end(self, token: int) -> None:
        pass


class Tracer:
    """Tracing on: every span is kept as [name, start_ns, end_ns, parent, group]."""

    def __init__(self):
        self.group = 0
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.group])
        self._open.append(index)
        return index

    def end(self, token: int) -> None:
        self.spans[token][2] = perf_counter_ns()
        self._open.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, group in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent,
                                      "group": group}) + "\n")


def self_time_table(spans: list[list]) -> dict[str, dict[str, int]]:
    """Per span name: call count, total ns and self ns (total minus children)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _group in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    table: dict[str, dict[str, int]] = {}
    for index, (name, start, end, _parent, _group) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - child_ns[index]
    return table


def merge_tables(into: dict, table: dict) -> None:
    for name, row in table.items():
        acc = into.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        for key in acc:
            acc[key] += row[key]
