"""Every committed BENCH_*.json keeps the shape tools/bench_record.py writes.

A BENCH file holds measurements from one machine, readable only as
ratios, so this checks keys, units, metric names against BENCHMARK.json
and the file's own arithmetic, and asserts no timing. The recorder itself
is checked to refuse a parent it cannot name a commit for, and its
--show table is checked against one committed file.
"""

import importlib.util
import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
UNITS = {m["name"]: m["unit"]
         for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_schema(path):
    doc = json.loads(path.read_text())
    assert set(doc) == {"schema", "parent", "workloads"}
    assert doc["schema"] == 1
    assert re.fullmatch("[0-9a-f]{40}", doc["parent"])
    assert doc["workloads"] and set(doc["workloads"]) <= WORKLOADS
    for name, w in doc["workloads"].items():
        assert set(w) == {"command", "seconds", "fingerprint", "runs",
                          "medians"}
        command = BENCHMARK["command"]
        assert w["command"][:len(command)] == command
        assert w["command"][len(command):len(command) + 2] == [
            "--workload", name]
        assert w["fingerprint"]["workload"] == name
        runs = w["runs"]
        assert runs
        assert len({r["seed"] for r in runs}) == len(runs)
        # the side that runs first alternates from pair to pair
        assert [r["first"] for r in runs] == [
            ("parent", "change")[i % 2] for i in range(len(runs))]
        for run in runs:
            # as_timed is kept by files recorded since it was added
            assert set(run) - {"as_timed"} == {"seed", "first", "parent",
                                               "change"}
            for side in ("parent", "change"):
                line = run[side]
                assert set(line) == {"correct", "attempted", "failed",
                                     "metrics"}
                assert line["correct"] is True and line["failed"] == 0
                assert set(END_TO_END) <= set(line["metrics"])
                for metric, m in line["metrics"].items():
                    assert m["unit"] == UNITS[metric], metric
                if "as_timed" in run:
                    timed = run["as_timed"][side]
                    assert set(timed) == {"scale", "metrics"}
                    assert timed["scale"] > 0
                    assert set(timed["metrics"]) == set(END_TO_END)
        assert set(w["medians"]) == set(END_TO_END)
        for metric, row in w["medians"].items():
            spec = END_TO_END[metric]
            assert (row["unit"], row["better"]) == (spec["unit"],
                                                    spec["better"])
            assert row["pairs"] == len(runs)
            assert 0 <= row["change_wins"] <= len(runs)
            for side in ("parent", "change"):
                values = [r[side]["metrics"][metric]["value"] for r in runs]
                assert row[f"{side}_median"] == statistics.median(values)
                q1, q3 = row[f"{side}_quartiles"]
                assert min(values) <= q1 <= q3 <= max(values)


def _recorder():
    path = ROOT / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_recorder_refuses_a_parent_that_is_no_checkout(tmp_path, monkeypatch):
    tool = _recorder()
    runs = []
    monkeypatch.setattr(tool, "run_once", lambda *args: runs.append(args))
    with pytest.raises(SystemExit, match=re.escape(str(tmp_path))):
        tool.main(["--parent", str(tmp_path), "--change", str(ROOT),
                   "--workload", "stream", "--seeds", "1-2",
                   "--seconds", "1", "--out", str(tmp_path / "BENCH.json")])
    assert runs == []
    assert not (tmp_path / "BENCH.json").exists()


def test_show_prints_one_row_per_workload_and_metric(capsys):
    path = ROOT / "BENCH_23.json"
    assert _recorder().main(["--show", str(path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    doc = json.loads(path.read_text())
    assert len(rows) == 2 + sum(len(w["medians"])
                                for w in doc["workloads"].values())
    # the file predates as_timed, so its as-timed column reads "-"
    assert ["game", "vdr_first_msg_p50_us", "us", "609.1", "515.8", "0.847",
            "-", "10.39", "10/10", "gain"] in rows
    assert ["handshake", "peak_rss_mb", "MB", "32.85", "33.25", "1.012",
            "-", "0.1348", "0/3", "within"] in rows


def test_show_prints_the_as_timed_ratio_of_medians():
    tool = _recorder()

    def side(scaled, timed):
        return ({"metrics": {"round_s": {"value": scaled}}},
                {"scale": scaled / timed, "metrics": {"round_s": timed}})

    runs = []
    for old, new in ((1.0, 1.1), (2.0, 2.2), (3.0, 3.3)):
        (p, pt), (c, ct) = side(old, old * 2), side(new, new * 2.5)
        runs.append({"parent": p, "change": c,
                     "as_timed": {"parent": pt, "change": ct}})
    assert tool.timed_ratio(runs, "round_s") == "1.375"  # scaled: 1.100
    del runs[1]["as_timed"]
    assert tool.timed_ratio(runs, "round_s") == "-"


@pytest.mark.parametrize("parent,change,wins,expected", [
    ([100, 101, 99] * 4, [90, 91, 89] * 4, 11, "gain"),
    ([100, 101, 99], [90, 91, 89], 3, "within"),  # too few pairs to claim
    ([100, 101, 99], [99, 100, 98], 3, "within"),  # inside the parent's IQR
    ([100, 101, 99], [130, 131, 129], 0, "worse"),
    ([60, 100, 140], [90, 130, 110], 1, "unresolved"),
    ([40, 41, 160], [30, 35, 39], 3, "within"),  # wide, beaten every run
])
def test_verdict_reads_each_rule(parent, change, wins, expected):
    """A lower-is-better metric with a bound of 0.25 of the parent median."""
    tool = _recorder()
    row = {"better": "lower", "parent_median": statistics.median(parent),
           "change_median": statistics.median(change),
           "parent_quartiles": tool._quartiles(parent),
           "change_wins": wins, "pairs": len(parent)}
    assert tool.verdict(row, 0.25, parent, change) == expected
