"""The benchmark's own checks: wrong outcomes must fail the run, inputs must
follow the seed, and the output must match BENCHMARK.json.

Run with: PYTHONPATH=src python -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import compare
import run
import workloads
from letterseal import LettersealError, ReplayRejected
from spans import NullTracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())

TINY = {
    "stream": {"pairs": 16, "messages_per_pair": 40},
    "handshake": {"users": 8, "sessions": 16},
    "game": {"stages": 60, "attack_seeds": 1, "fresh_samples": 6},
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    for name, sizes in TINY.items():
        monkeypatch.setitem(workloads.SIZES, name, sizes)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


def bench(capsys, workload, trace=0, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    return code, (json.loads(out[-1]) if out and out[-1].startswith("{") else None)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_clean_run_reports_every_declared_metric(capsys, workload, trace):
    code, result = bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_contract():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _wrapped(monkeypatch, name, make):
    monkeypatch.setattr(workloads, name, make(getattr(workloads, name)))


def _fails(capsys, workload):
    code, result = bench(capsys, workload)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    return result


def test_forged_envelope_reported_as_opened_fails(capsys, monkeypatch):
    def make(real):
        def opens_anything(session, env):
            try:
                return real(session, env)
            except LettersealError:
                return b"forged, yet opened"
        return opens_anything

    _wrapped(monkeypatch, "v1_decrypt", make)
    _fails(capsys, "stream")


def test_vdr_duplicate_reported_as_accepted_fails(capsys, monkeypatch):
    def make(real):
        def accepts_replays(st, env, rng):
            try:
                return real(st, env, rng)
            except ReplayRejected:
                return b"replayed, yet accepted"
        return accepts_replays

    _wrapped(monkeypatch, "vdr_decrypt", make)
    _fails(capsys, "stream")


def test_v2_duplicate_reported_as_rejected_fails(capsys, monkeypatch):
    def make(real):
        seen, sessions = set(), []  # sessions stay alive, so ids stay unique

        def rejects_replays(session, env):
            key = (id(session), env.salt, env.nonce_material)
            if key in seen:
                raise ReplayRejected("duplicate")
            seen.add(key)
            sessions.append(session)
            return real(session, env)
        return rejects_replays

    _wrapped(monkeypatch, "v2_decrypt", make)
    _fails(capsys, "stream")


def test_attack_verdict_off_expected_fails(capsys, monkeypatch):
    def make(real):
        def flipped(name, seed):
            report = real(name, seed)
            if name == "replay_vdr":
                report.succeeded = not report.succeeded
            return report
        return flipped

    _wrapped(monkeypatch, "run_attack", make)
    result = _fails(capsys, "game")
    # one replay_vdr run per round: the warm-up and the timed rounds
    assert result["failed"] == run.MIN_ROUNDS + 1


def test_pinned_count_drift_fails_loudly(capsys, monkeypatch):
    drifted = {**workloads.PINNED_COUNTS,
               "vdr-sym": {"DH": 1, "KDF": 2, "AEAD": 2}}
    monkeypatch.setattr(workloads, "PINNED_COUNTS", drifted)
    code, result = bench(capsys, "handshake")
    assert code == 1 and result is None


def test_single_step_flows_equal_pinned_counts():
    assert workloads.pinned_flow_counts(5) == workloads.PINNED_COUNTS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    tr = NullTracer()
    a = workloads.make_inputs(workload, 11, tr)
    assert a.key() == workloads.make_inputs(workload, 11, tr).key()
    assert a.key() != workloads.make_inputs(workload, 12, tr).key()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_counts_repeat_for_a_seed(workload):
    first, _ = run.run(workload, 4, 0, trace=True)
    again, _ = run.run(workload, 4, 0, trace=True)
    assert first["op_counts"] == again["op_counts"]
    assert first["counters"] == again["counters"]
    assert first["traced_rounds"] == again["traced_rounds"]


def test_checkout_without_source_exits_2(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code, result = bench(capsys, "stream")
    assert code == 2 and result is None


def test_compare_warns_on_fingerprint_change():
    old = {"nproc": 2, "python": "3.11.7", "openssl": "A"}
    new = {"nproc": 4, "python": "3.11.7", "openssl": "A"}
    warnings = compare.fingerprint_warnings(old, new)
    assert len(warnings) == 1 and "nproc" in warnings[0]
    assert compare.fingerprint_warnings(old, dict(old)) == []
