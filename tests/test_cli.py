"""Command line behavior, run in-process through main(argv).

The entry-point tests at the end run in a child interpreter instead: the
`[project.scripts]` target as the generated console script calls it,
`python -m letterseal.cli`, and the installed `letterseal` executable
wherever one is on PATH.
"""

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import letterseal
from letterseal.cli import _build_parser, main
from letterseal.mske import run_attack

from helpers import KAT_FILE

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_demo_vdr_walks_epochs(capsys):
    code, out, _ = run_cli(capsys, "demo", "--protocol", "vdr", "--seed", "5")
    assert code == 0
    lines = [l for l in out.splitlines() if "epoch=" in l]
    assert len(lines) == 6
    stages = [(l.split("epoch=")[1].split()[0], l.split("j=")[1].split()[0])
              for l in lines]
    assert stages == [("0", "0"), ("0", "1"), ("1", "0"),
                      ("1", "1"), ("2", "0"), ("2", "1")]
    assert all(l.endswith("roundtrip ok") for l in lines)


def test_demo_v2_counter_progression(capsys):
    code, out, _ = run_cli(capsys, "demo", "--protocol", "v2", "--seed", "5")
    assert code == 0
    ctrs = [l.split("ctr=")[1].split()[0]
            for l in out.splitlines() if "ctr=" in l]
    assert ctrs == ["0", "1", "2", "3", "4", "5"]


def test_demo_v1_runs(capsys):
    code, out, _ = run_cli(capsys, "demo", "--protocol", "v1",
                           "--iterations", "3", "--seed", "5")
    assert code == 0
    assert out.count("roundtrip ok") == 3


def test_demo_output_is_seed_stable(capsys):
    _, first, _ = run_cli(capsys, "demo", "--protocol", "vdr", "--seed", "9")
    _, second, _ = run_cli(capsys, "demo", "--protocol", "vdr", "--seed", "9")
    assert first == second


def test_demo_json_lines(capsys):
    code, out, _ = run_cli(capsys, "demo", "--protocol", "vdr", "--seed", "5",
                           "--format", "json-lines")
    assert code == 0
    records = [json.loads(l) for l in out.splitlines()]
    assert [r["type"] for r in records[:2]] == ["register", "register"]
    msgs = [r for r in records if r["type"] == "message"]
    assert [r["stage"] for r in msgs] == [
        [0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]]
    assert all(r["roundtrip"] == "ok" for r in msgs)


def refused(capsys, *argv):
    """main(argv) exits 2 through the parser; returns its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    return err


def test_demo_zero_messages_rejected(capsys):
    assert "at least one" in refused(capsys, "demo", "--iterations", "0")


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("LETTERSEAL_SEED", "9")
    _, via_env, _ = run_cli(capsys, "demo", "--protocol", "v2")
    monkeypatch.delenv("LETTERSEAL_SEED")
    _, via_flag, _ = run_cli(capsys, "demo", "--protocol", "v2", "--seed", "9")
    assert via_env == via_flag


def test_bad_seed_exits_2(capsys, monkeypatch):
    assert "u64" in refused(capsys, "demo", "--seed", "-1")
    monkeypatch.setenv("LETTERSEAL_SEED", "not-a-number")
    refused(capsys, "demo")


# label: (argv, $LETTERSEAL_SEED or None, the argument named, its message)
BAD_ARGUMENTS = {
    "seed not a number": (["demo", "--seed", "abc"], None, "--seed",
                          "invalid integer value: 'abc'"),
    "seed negative": (["demo", "--seed", "-1"], None, "--seed",
                      "seed must fit in u64, got -1"),
    "seed over u64": (["attack", "fs_v2", "--seed", str(2**64)], None,
                      "--seed", f"seed must fit in u64, got {2**64}"),
    "env seed": (["demo"], "bogus", "--seed",
                 "invalid integer value: 'bogus'"),
    "demo no messages": (["demo", "--iterations", "0"], None, "--iterations",
                         "demo needs at least one message"),
    "bench under floor": (["bench", "--iterations", "50"], None,
                          "--iterations", "bench needs --iterations >= 100"),
}


@pytest.mark.parametrize("label", BAD_ARGUMENTS)
def test_bad_argument_is_refused_by_the_parser(capsys, monkeypatch, label):
    argv, env, name, message = BAD_ARGUMENTS[label]
    if env is None:
        monkeypatch.delenv("LETTERSEAL_SEED", raising=False)
    else:
        monkeypatch.setenv("LETTERSEAL_SEED", env)
    err = refused(capsys, *argv)
    assert err.count("usage:") == 1 and err.startswith("usage: ")
    assert err.endswith(
        f"letterseal {argv[0]}: error: argument {name}: {message}\n")


def test_flag_seed_overrides_a_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("LETTERSEAL_SEED", "bogus")
    code, out, _ = run_cli(capsys, "demo", "--seed", "3", "--iterations", "1")
    assert code == 0 and out.endswith("roundtrip ok\n")


def test_attack_text_verdict(capsys):
    code, out, _ = run_cli(capsys, "attack", "kci_v2", "--seed", "3")
    assert code == 0
    assert "verdict: as expected" in out
    assert "succeeded:          yes  (expected yes)" in out
    assert "freshness violated: yes  (expected yes)" in out


def test_attack_all_names_exit_zero(capsys):
    for name in ("replay_v2", "replay_vdr", "kci_vdr_postratchet",
                 "fs_v2", "fs_vdr", "pcs_vdr"):
        code, out, _ = run_cli(capsys, "attack", name, "--seed", "1")
        assert code == 0, name


def test_attack_json_record(capsys):
    code, out, _ = run_cli(capsys, "attack", "replay_vdr", "--seed", "2",
                           "--format", "json-lines")
    assert code == 0
    rec = json.loads(out)
    assert rec["as_expected"] is True
    assert rec["details"]["duplicate_rejections"] == 2


def test_attack_counts_oracle_queries_as_trace_lines(capsys):
    lines = len(run_attack("replay_vdr", seed=0).trace.splitlines())
    assert lines == 8
    _, out, _ = run_cli(capsys, "attack", "replay_vdr", "--seed", "0",
                        "--format", "json-lines")
    assert json.loads(out)["queries"] == lines
    _, out, _ = run_cli(capsys, "attack", "replay_vdr", "--seed", "0")
    assert f"oracle queries:     {lines}\n" in out


def test_attack_output_is_seed_stable(capsys):
    _, a, _ = run_cli(capsys, "attack", "fs_v2", "--seed", "4",
                      "--format", "json-lines")
    _, b, _ = run_cli(capsys, "attack", "fs_v2", "--seed", "4",
                      "--format", "json-lines")
    assert a == b


def test_unknown_attack_is_usage_error(capsys):
    assert "invalid choice: 'noop'" in refused(capsys, "attack", "noop")


def test_readme_lists_every_subcommand():
    (sub,) = [action for action in _build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```", 2)[1]
    listed = {line.split()[1] for line in block.splitlines()
              if line.startswith("letterseal ")}
    assert listed == set(sub.choices)


def test_bench_json_lines(capsys):
    code, out, _ = run_cli(capsys, "bench", "--iterations", "100",
                           "--format", "json-lines")
    assert code == 0
    records = [json.loads(l) for l in out.splitlines()]
    rows = [r for r in records if r["type"] == "bench_row"]
    costs = [r for r in records if r["type"] == "op_cost"]
    assert len(rows) == 5 and len(costs) == 15
    assert all(r["count_per_message"] == r["pinned"] for r in costs)
    sizes = {r["point"]: r["snapshot_bytes"]
             for r in records if r["type"] == "state_size"}
    assert len(sizes) == 3
    assert sizes["1k same-epoch"] == sizes["10k same-epoch"]


def test_bench_text_report(capsys):
    code, out, _ = run_cli(capsys, "bench", "--iterations", "100",
                           "--format", "text")
    assert code == 0
    timings, costs, sizes = out.rstrip("\n").split("\n\n")
    assert timings.startswith("scenario     e2e_avg_us")
    assert len(timings.splitlines()) == 1 + 5
    assert costs.startswith("scenario     op    count")
    assert len(costs.splitlines()) == 1 + 15
    assert sizes.startswith("vdr state")
    assert len(sizes.splitlines()) == 1 + 3
    assert "(expected" not in out


def test_bench_iteration_floor(capsys):
    assert ">= 100" in refused(capsys, "bench", "--iterations", "50")


def test_vectors_check_passes_the_shipped_file(capsys):
    code, out, _ = run_cli(capsys, "vectors", "--check", str(KAT_FILE))
    assert code == 0
    assert out.count(" OK\n") == 12
    assert out.endswith("12 vectors, 0 mismatches\n")
    code, out, _ = run_cli(capsys, "vectors", "--check", str(KAT_FILE),
                           "--format", "json-lines")
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {
        "type": "vectors_checked", "total": 12, "mismatches": 0}


KAT_LINES = KAT_FILE.read_text().splitlines(keepends=True)
# label: (file content, or None for no file and "/" for a directory; error)
BAD_VECTOR_FILES = {
    "missing": (None, "No such file"),
    "directory": ("/", "Is a directory"),
    "empty": ("", "missing vectors: sha256_empty, sha256_abc, "),
    "subset": ("".join(KAT_LINES[:3]), "missing vectors: x25519_base_point"),
    "duplicate": ("".join([*KAT_LINES, KAT_LINES[0]]),
                  "repeated vectors: sha256_empty"),
    "malformed": ("bogus\n", "line 1: need name, inputs and output"),
    "unknown name": ("md5_legacy 616263 00\n",
                     "md5_legacy: no computer registered"),
    "short scalar": ("x25519_base_point 0102 00\n",
                     "x25519_base_point: GroupScalar must be 32 bytes"),
    "extra input": ("sha256_abc 61 62 00\n",
                    "sha256_abc: hash() takes 1 positional argument"),
    "low-order point": (f"x25519_rfc7748 {'09' * 32} {'00' * 32} 00\n",
                        "x25519_rfc7748: Error computing shared key"),
}


@pytest.mark.parametrize("label", BAD_VECTOR_FILES)
def test_vectors_bad_file_is_an_error_line(capsys, tmp_path, label):
    content, message = BAD_VECTOR_FILES[label]
    path = tmp_path / "vectors.txt"
    if content == "/":
        path.mkdir()
    elif content is not None:
        path.write_text(content)
    code, out, err = run_cli(capsys, "vectors", "--check", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_vectors_takes_no_seed(capsys, monkeypatch):
    monkeypatch.setenv("LETTERSEAL_SEED", "bogus")
    code, out, _ = run_cli(capsys, "vectors", "--check", str(KAT_FILE))
    assert code == 0 and "0 mismatches" in out
    for argv in (["--check", str(KAT_FILE), "--seed", "1"],
                 ["--out", "v.txt"], []):
        with pytest.raises(SystemExit) as exc:
            main(["vectors", *argv])
        assert exc.value.code == 2


def test_vectors_check_flags_corruption(capsys, tmp_path):
    lines = KAT_FILE.read_text().splitlines()
    first = lines[0].split()
    first[-1] = ("00" + first[-1][2:])
    if first[-1] == lines[0].split()[-1]:  # already started with 00
        first[-1] = "ff" + first[-1][2:]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join([" ".join(first), *lines[1:]]) + "\n")
    code, out, _ = run_cli(capsys, "vectors", "--check", str(bad))
    assert code == 1
    assert "MISMATCH" in out
    assert "1 mismatches" in out


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
CHILD_TIMEOUT_S = 60


def _load_toml(path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def _check_vectors_in_child(cmd, **kwargs):
    proc = subprocess.run([*cmd, "vectors", "--check", str(KAT_FILE.resolve())],
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, **kwargs)
    assert proc.returncode == 0, proc.stderr
    assert "0 mismatches" in proc.stdout


def test_console_script_installed(tmp_path):
    target = _load_toml(PYPROJECT)["project"]["scripts"]["letterseal"]
    assert target == "letterseal.cli:main"
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is main
    # The child imports letterseal from where this process did, and runs
    # in an empty directory so the source tree cannot leak in by accident.
    env = {**os.environ,
           "PYTHONPATH": str(Path(letterseal.__file__).resolve().parents[1])}
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    _check_vectors_in_child([sys.executable, "-c", wrapper],
                            env=env, cwd=tmp_path)
    _check_vectors_in_child([sys.executable, "-W", "error", "-m", module],
                            env=env, cwd=tmp_path)


def test_a_closed_pipe_ends_the_command_quietly(tmp_path):
    # the demo writes more than a pipe holds, so the child is still writing
    # when the read end closes after the first line
    env = {**os.environ,
           "PYTHONPATH": str(Path(letterseal.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "letterseal.cli", "demo", "--iterations",
         "4000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        cwd=tmp_path)
    assert proc.stdout.readline() == b"registered alice under kid 1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.skipif(shutil.which("letterseal") is None,
                    reason="letterseal console script not installed; "
                           "pip install -e .")
def test_console_script_on_path(tmp_path):
    _check_vectors_in_child([shutil.which("letterseal")], cwd=tmp_path)
