"""tools/same_outputs.py: which CLI commands it compares, and how it reports
a difference, on canned outputs instead of runs."""

import importlib.util
import json
import re
import subprocess
from pathlib import Path

import pytest

from letterseal.endpoint import DESIGNS
from letterseal.mske import attack_names

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    path = ROOT / "tools" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_commands_cover_every_demo_attack_and_the_vectors_in_both_formats():
    cmds = _tool().commands()
    assert len(cmds) == len(set(cmds)) == 2 * (
        2 * len(DESIGNS) + 6 * len(attack_names()) + 1) + 1 + 6
    assert ("demo", "--seed", "-1", "--format", "text") in cmds
    assert ("bench", "--iterations", "100", "--format", "json-lines") in cmds
    for fmt in ("text", "json-lines"):
        assert ("vectors", "--check", "src/letterseal/kat_vectors.txt",
                "--format", fmt) in cmds
        assert ("attack", "fs_vdr", "--seed", "5", "--format", fmt) in cmds
        assert ("demo", "--protocol", "v1", "--seed", "0",
                "--format", fmt) in cmds


def _canned(tool, monkeypatch, tmp_path, change):
    """main() against a parent in tmp_path, with each checkout's outputs
    canned: the parent's as below, this checkout's with change applied."""
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    cmds = [("demo", "--seed", "0"), ("attack", "fs_vdr", "--seed", "1")]
    parent = {cmds[0]: (0, "registered alice\nok\n"),
              cmds[1]: (0, "attack fs_vdr\n  verdict: as expected\n")}
    monkeypatch.setattr(tool, "commands", lambda: cmds)
    monkeypatch.setattr(tool, "run_all", lambda checkout, _: (
        parent if checkout == tmp_path else change(dict(parent))))
    return tool.main(["--parent", str(tmp_path)])


def test_identical_outputs_exit_zero(monkeypatch, tmp_path, capsys):
    tool = _tool()
    assert _canned(tool, monkeypatch, tmp_path, lambda outs: outs) == 0
    assert capsys.readouterr().out == "2 commands, 0 differ\n"


def test_one_changed_line_is_named_and_exits_one(monkeypatch, tmp_path,
                                                 capsys):
    tool = _tool()

    def change(outs):
        outs[("attack", "fs_vdr", "--seed", "1")] = (
            1, "attack fs_vdr\n  verdict: UNEXPECTED\n")
        return outs

    assert _canned(tool, monkeypatch, tmp_path, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "letterseal attack fs_vdr --seed 1: exit 0 -> 1; "
        "line 2: '  verdict: as expected' -> '  verdict: UNEXPECTED'",
        "2 commands, 1 differ"]


def test_a_missing_or_extra_line_is_named():
    tool = _tool()
    cmd = ("demo",)
    assert tool.differences({cmd: (0, "a\nb\n")}, {cmd: (0, "a\n")}) == [
        "letterseal demo: line 2: 'b' -> None"]


def test_bench_is_compared_by_its_counts_and_sizes_alone():
    tool = _tool()

    def bench(unit_us, dh, size):
        records = [
            {"type": "bench_row", "scenario": "vdr-sym", "e2e_avg_us": unit_us},
            {"type": "op_cost", "scenario": "vdr-sym", "op": "DH",
             "count_per_message": dh, "unit_cost_us": unit_us, "pinned": 0},
            {"type": "state_size", "point": "1k same-epoch",
             "snapshot_bytes": size}]
        return tool.untimed("".join(json.dumps(r) + "\n" for r in records))

    assert bench(24.1, 0, 191) == bench(31.7, 0, 191) == (
        '{"type": "op_cost", "scenario": "vdr-sym", "op": "DH", '
        '"count_per_message": 0, "pinned": 0}\n'
        '{"type": "state_size", "point": "1k same-epoch", '
        '"snapshot_bytes": 191}\n')
    # a drifted op count or snapshot size is named by its line
    cmd, old = tool.BENCH, bench(24.1, 0, 224)
    for k, new in ((1, bench(31.7, 1, 224)), (2, bench(31.7, 0, 191))):
        assert tool.differences({cmd: (0, old)}, {cmd: (0, new)}) == [
            f"letterseal {' '.join(cmd)}: line {k}: "
            f"{old.splitlines()[k - 1]!r} -> {new.splitlines()[k - 1]!r}"]


def test_refuses_a_parent_that_is_no_checkout(tmp_path, monkeypatch):
    tool = _tool()
    runs = []
    monkeypatch.setattr(tool, "run_all", lambda *args: runs.append(args))
    with pytest.raises(SystemExit, match=re.escape(str(tmp_path))):
        tool.main(["--parent", str(tmp_path)])
    assert runs == []
