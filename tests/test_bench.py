"""Instrumented operation counts and the timing harness around them.

Wall-clock ratio requirements live in the acceptance suite; here we pin
the count table exactly and keep timing assertions to safe orderings.
"""

import pytest

from letterseal import crypto_suite as cs
from letterseal.bench import (
    MIN_ITERATIONS,
    PINNED_COUNTS,
    SCENARIOS,
    STATE_POINTS,
    _Driver,
    _trimmed_mean,
    headline_counts,
    op_cost_rows,
    primitive_costs,
    report_lines,
    run_bench,
    run_scenario,
    scenario_op_counts,
    state_sizes,
)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_headline_counts_match_pinned(scenario):
    assert headline_counts(scenario) == PINNED_COUNTS[scenario]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_headline_counts_stable_across_seeds(scenario):
    for seed in (1, 7, 42):
        assert headline_counts(scenario, seed) == PINNED_COUNTS[scenario]


# enc+dec DH/KDF/AEAD of every step, the vdr-init receiver's set-up included
STEP_TOTALS = {
    "v2-first": (2, 2, 2),
    "v2-ith": (0, 2, 2),
    "vdr-init": (5, 4, 2),
    "vdr-asym": (3, 4, 2),
    "vdr-sym": (0, 2, 2),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_consecutive_steps_count_alike(scenario):
    """A pair that stops alternating, loses its warm-up, or is reused where
    each step needs a new one shows up from the second step on."""
    driver = _Driver(scenario, seed=5, payload_len=64)
    for _ in range(3):
        sender, receiver = driver.step()
        with cs.count_ops() as counts:
            pt = receiver.open(sender.seal(driver.payload))
        assert pt == driver.payload
        assert (counts.dh, counts.kdf, counts.aead) == STEP_TOTALS[scenario]


def test_phase_counts_v2():
    enc, dec = scenario_op_counts("v2-first")
    assert (enc.dh, enc.kdf, enc.aead) == (1, 1, 1)
    assert (dec.dh, dec.kdf, dec.aead) == (1, 1, 1)
    enc, dec = scenario_op_counts("v2-ith")
    assert (enc.dh, enc.kdf, enc.aead) == (0, 1, 1)
    assert (dec.dh, dec.kdf, dec.aead) == (0, 1, 1)


def test_phase_counts_vdr_steady_state():
    enc, dec = scenario_op_counts("vdr-sym")
    assert (enc.dh, enc.kdf, enc.aead) == (0, 1, 1)
    assert (dec.dh, dec.kdf, dec.aead) == (0, 1, 1)


def test_phase_counts_vdr_reply_built_at_its_seal():
    # an open that starts an epoch draws the reply and builds nothing: its
    # keygen, exchange and root step run at the reply's first seal
    enc, dec = scenario_op_counts("vdr-asym")
    assert (enc.dh, enc.kdf, enc.aead) == (2, 2, 1)
    assert (dec.dh, dec.kdf, dec.aead) == (1, 2, 1)
    _, dec = scenario_op_counts("vdr-init")
    assert (dec.dh, dec.kdf, dec.aead) == (2, 2, 1)  # set-up, chain, open


def test_vdr_init_headline_is_enc_phase_only():
    enc, dec = scenario_op_counts("vdr-init")
    assert {"DH": enc.dh, "KDF": enc.kdf, "AEAD": enc.aead} \
        == PINNED_COUNTS["vdr-init"]
    assert dec.dh > 0  # the receiver pays its own lazy setup on top


def test_min_iterations_enforced():
    with pytest.raises(ValueError, match=str(MIN_ITERATIONS)):
        run_scenario("v2-ith", iterations=MIN_ITERATIONS - 1)


def test_trimmed_mean_small_runs_untouched():
    assert _trimmed_mean([1.0, 2.0, 3.0]) == 2.0


def test_trimmed_mean_drops_tails():
    values = [0.0] + [1.0] * 18 + [100.0]
    assert _trimmed_mean(values) == 1.0


def test_run_scenario_row_shape():
    row = run_scenario("vdr-sym", iterations=100, seed=3)
    assert row.scenario == "vdr-sym"
    assert row.iterations >= 100
    assert row.e2e_avg > 0 and row.enc_avg > 0 and row.dec_avg > 0
    assert row.stddev >= 0


def test_run_bench_report_structure():
    report = run_bench(iterations=100)
    assert set(report) == {"rows", "op_costs", "units", "state_bytes"}
    assert [r.scenario for r in report["rows"]] == list(SCENARIOS)
    assert set(report["op_costs"]) == set(SCENARIOS)
    for rows in report["op_costs"].values():
        assert [r.op for r in rows] == ["DH", "KDF", "AEAD"]
    assert set(report["units"]) == {"DH", "KDF-digest", "KDF-chain", "AEAD"}
    assert all(v > 0 for v in report["units"].values())

    by_name = {r.scenario: r for r in report["rows"]}
    # orderings with 10x-plus margins; exact ratios belong to acceptance
    assert by_name["vdr-init"].e2e_avg > by_name["vdr-sym"].e2e_avg
    assert by_name["v2-first"].e2e_avg > by_name["v2-ith"].e2e_avg

    text = "\n".join(line for _, line in report_lines(report))
    assert "expected" not in text  # no drift flags on a healthy build
    assert text.splitlines()[0].startswith("scenario")
    report["op_costs"]["v2-ith"][0].count_per_message = 9
    assert any(line.endswith("(expected 0)")
               for _, line in report_lines(report))
    assert "10k same-epoch" in text


def test_state_size_row_is_flat_within_an_epoch():
    sizes = state_sizes(seed=2)
    assert list(sizes) == [label for label, _, _ in STATE_POINTS]
    # no replay record: neither messages nor epoch turns grow the state
    assert len(set(sizes.values())) == 1


def test_op_cost_rows_pick_protocol_kdf_unit():
    units = {"DH": 10.0, "KDF-digest": 1.5, "KDF-chain": 2.5, "AEAD": 3.0}
    v2 = {r.op: r for r in op_cost_rows("v2-ith", units)}
    vdr = {r.op: r for r in op_cost_rows("vdr-sym", units)}
    assert v2["KDF"].unit_cost == 1.5
    assert vdr["KDF"].unit_cost == 2.5
    assert v2["DH"].count_per_message == 0
    assert vdr["AEAD"].count_per_message == 2


def test_primitive_costs_keys():
    units = primitive_costs(iterations=200)
    assert set(units) == {"DH", "KDF-digest", "KDF-chain", "AEAD"}
    assert units["DH"] > units["KDF-chain"]  # group op dwarfs one HMAC
