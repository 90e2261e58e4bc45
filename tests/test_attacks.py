"""Scripted adversaries: expected verdicts, report details, and the
computable-key closure they share."""

import pytest

import letterseal.crypto_suite as cs
import letterseal.mske.game as game_module
from letterseal.errors import UnknownAttack
from letterseal.linevdr import vdr_import_state
from letterseal.mske import (
    EXPECTED,
    AttackReport,
    KeyClosure,
    attack_names,
    run_attack,
)
from letterseal.mske.attacks import _closure, _flights, _game

SEEDS = (0, 1, 7, 13, 42)


def test_attack_names_cover_expected_table():
    names = attack_names()
    assert names == sorted(EXPECTED)
    assert len(names) == 7


def test_unknown_attack_rejected():
    with pytest.raises(UnknownAttack, match="nope"):
        run_attack("nope")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_attack_verdicts_match_expected(name, seed):
    rep = run_attack(name, seed)
    assert isinstance(rep, AttackReport)
    assert rep.name == name
    assert (rep.succeeded, rep.violated_freshness) == EXPECTED[name]
    assert rep.trace  # every attack leaves a replayable oracle log


def test_reports_are_seed_deterministic():
    a = run_attack("kci_v2", 3)
    b = run_attack("kci_v2", 3)
    assert (a.trace, a.details, a.succeeded) == (b.trace, b.details, b.succeeded)


def test_reports_render_their_trace_only_when_read(monkeypatch):
    """Building a report digests nothing; the first read of its trace
    renders every entry, digests included."""
    real = game_module._digest
    digested = []
    monkeypatch.setattr(game_module, "_digest",
                        lambda data: digested.append(data) or real(data))
    reports = [run_attack(name, seed)
               for name in attack_names() for seed in (0, 1, 2)]
    assert len(reports) == 21 and digested == []
    rep = reports[0]
    assert "queries" not in repr(rep)
    text = rep.trace
    assert len(text.splitlines()) == len(rep.queries) > 0
    assert digested and all(f"#{real(d)}" in text for d in digested)
    monkeypatch.undo()
    assert rep.trace == text


def test_kci_v2_details():
    rep = run_attack("kci_v2", 5)
    d = rep.details
    assert d["forged_stage_accepted"] is True
    assert d["forged_plaintext_decrypted"] is True
    assert d["guess"] == d["challenge_bit"]


def test_replay_v2_details():
    rep = run_attack("replay_v2", 5)
    d = rep.details
    assert d["duplicate_accepted"] is True
    assert d["guess"] == d["challenge_bit"]
    assert d["replay_events"] == 0  # the receiver never even noticed


def test_fs_v2_details():
    rep = run_attack("fs_v2", 5)
    d = rep.details
    assert d["recorded"] == 50
    assert d["decrypted_post_hoc"] == 50
    assert d["guess"] == d["challenge_bit"]


def test_replay_vdr_details():
    rep = run_attack("replay_vdr", 5)
    d = rep.details
    assert d["duplicate_rejections"] == 2
    assert d["first_delivery_accepted"] is True


def test_kci_vdr_postratchet_details():
    rep = run_attack("kci_vdr_postratchet", 5)
    d = rep.details
    assert d["epoch0_keys_match_truth"] is True
    assert d["epoch0_ciphertext_opens"] is True
    assert d["post_ratchet_stage_reached"] is False
    assert d["post_ratchet_true_key_leaked"] is False
    assert all(stage[0] == 0 for stage in d["closure_stages"])


def test_fs_vdr_details():
    rep = run_attack("fs_vdr", 5)
    d = rep.details
    assert d["decrypted"] == 0
    assert d["decrypt_attempts"] > 0
    assert d["consumed_keys_absent_from_snapshots"] is True


def test_pcs_vdr_details():
    rep = run_attack("pcs_vdr", 5)
    d = rep.details
    assert d["compromise_epoch"] == 1
    assert d["fallen_stages_decrypted"] == {
        "0,2": True, "1,0": True, "1,1": True, "2,0": True}
    assert d["healed_stages_excluded"] == {"3,0": True, "4,0": True}
    assert all(stage[0] < 3 for stage in d["closure_stages"])


# -- KeyClosure -------------------------------------------------------------

def _closure_over(seed, plan):
    """A ratchet game driven through plan by attacks._flights, and the
    closure over its wire, with no leak yet."""
    g = _game("vdr", seed)
    _flights(g, plan)
    return g, _closure(g)


def test_closure_empty_without_leaks():
    g, c = _closure_over(0, [(1, b"m0"), (1, b"m1")])
    c.run()
    assert c.stages() == []
    assert c.message_key((0, 0)) is None
    assert not c.holds_value(g.sessions[(2, 1)].key[(0, 0)])


def test_closure_initial_from_responder_secret():
    g, c = _closure_over(1, [(1, b"m0"), (1, b"m1"), (1, b"m2")])
    c.learn_scalar(g.oracle_rev_ltk(2))
    c.run()
    truth = g.sessions[(2, 1)].key
    assert c.stages() == [(0, 0), (0, 1), (0, 2)]
    for s in c.stages():
        assert c.message_key(s) == bytes(truth[s])


def test_closure_initial_from_initiator_pair():
    g, c = _closure_over(2, [(1, b"m0"), (1, b"m1")])
    c.learn_scalar(g.oracle_rev_ltk(1))
    c.run()
    assert c.stages() == []  # long-term key alone is not enough
    eph_coins = g.oracle_rev_rand(1, 1, (0, 0))
    c.learn_scalar(eph_coins[:32])
    c.run()
    truth = g.sessions[(2, 1)].key
    assert c.stages() == [(0, 0), (0, 1)]
    assert c.holds_value(truth[(0, 1)])


def test_closure_chain_extension_is_forward_only():
    g, c = _closure_over(3, [(1, b"m0"), (1, b"m1"), (1, b"m2")])
    # receiver chain position right after consuming (0,0)
    st = vdr_import_state(g.sessions[(2, 1)].state_snap[(0, 0)])
    c.learn_chain(st.i_r, st.j_r, st.ck_recv)
    c.run()
    truth = g.sessions[(2, 1)].key
    assert c.stages() == [(0, 1), (0, 2)]
    assert c.message_key((0, 0)) is None  # consumed before the leak
    for s in c.stages():
        assert c.message_key(s) == bytes(truth[s])


def test_closure_snapshot_transitions_skip_spent_chain():
    g, c = _closure_over(
        4, [(1, b"m 0,0"), (1, b"m 0,1"), (2, b"r 1,0"), (1, b"m 2,0")])
    snap = g.oracle_rev_state(2, 1, (1, 0))  # taken right after B's send
    c.learn_snapshot(snap)
    c.run()
    truth = g.sessions[(2, 1)].key
    # the long-term secret inside the snapshot rebuilds epoch 0; the live
    # ephemeral carries the root into epoch 2; epoch 1 was already spent
    assert c.stages() == [(0, 0), (0, 1), (2, 0)]
    assert c.message_key((1, 0)) is None
    for s in c.stages():
        assert c.message_key(s) == bytes(truth[s])


def test_closure_snapshot_hands_over_skipped_keys():
    g = _game("vdr", 5)
    raws = [g.oracle_send(1, 1, ("encrypt", 0, b"m%d" % j)) for j in range(3)]
    g.oracle_send(2, 1, raws[2])  # (0,2) first: (0,0) and (0,1) are cached
    c = _closure(g)  # the wire carried all three
    c.learn_snapshot(g.oracle_rev_state(2, 1, (0, 2)))
    truth = g.sessions[(1, 1)].key
    # the cached keys are held before any rule runs
    assert c.stages() == [(0, 0), (0, 1)]
    for s in c.stages():
        assert c.message_key(s) == bytes(truth[s])
    c.run()
    assert c.stages() == [(0, 0), (0, 1), (0, 2)]
    for s in c.stages():
        assert c.message_key(s) == bytes(truth[s])


def test_closure_spans_the_wire_not_only_what_receivers_hold():
    g = _game("vdr", 8)
    _flights(g, [(1, b"m 0,0")])
    g.oracle_send(1, 1, ("encrypt", 0, b"m 0,1"))  # never delivered
    c = _closure(g)
    c.learn_scalar(g.oracle_rev_ltk(2))
    c.run()
    assert (0, 1) not in g.sessions[(2, 1)].transcript
    assert c.message_key((0, 1)) == bytes(g.sessions[(1, 1)].key[(0, 1)])


def test_closure_transition_through_the_next_epochs_secret():
    g, c = _closure_over(6, [(1, b"m 0,0"), (1, b"m 0,1"), (2, b"r 1,0")])
    c.learn_scalar(g.oracle_rev_ltk(2))
    # the responder's epoch-1 ephemeral, drawn when it opened (0,0)
    c.learn_scalar(g.oracle_rev_rand(2, 1, (1, 0))[:32])
    c.run()
    truth = g.sessions[(2, 1)].key
    assert c.stages() == [(0, 0), (0, 1), (1, 0)]
    for s in c.stages():
        assert c.message_key(s) == bytes(truth[s])


def test_closure_refuses_a_nonce_only_draw_as_a_scalar():
    g, c = _closure_over(7, [(1, b"m 0,0"), (1, b"m 0,1")])
    draw = g.oracle_rev_rand(1, 1, (0, 1))  # no epoch turn: the nonce only
    assert len(draw) == 4
    with pytest.raises(ValueError, match="got 4"):
        c.learn_scalar(draw[:32])
    assert c.scalars == {}


def test_closure_builds_one_key_object_per_learned_scalar(monkeypatch):
    g, c = _closure_over(6, [(1, b"m 0,0"), (1, b"m 0,1"), (2, b"r 1,0"),
                             (1, b"m 2,0")])
    learned = [g.oracle_rev_ltk(2), g.oracle_rev_rand(2, 1, (1, 0))[:32]]
    real = cs.dh_private_key
    built = []
    monkeypatch.setattr(cs, "dh_private_key",
                        lambda secret: built.append(secret) or real(secret))
    for raw in learned:
        c.learn_scalar(raw)
    c.run()  # four exchanges: two for epoch 0, one per turn
    assert built == [cs.clamp_scalar(raw) for raw in learned]
    truth = g.sessions[(2, 1)].key
    assert c.stages() == [(0, 0), (0, 1), (1, 0), (2, 0)]
    for s in c.stages():
        assert c.message_key(s) == bytes(truth[s])


def test_closure_learn_chain_keeps_earliest_position():
    c = KeyClosure(bytes(32), bytes(32), [])
    c.learn_chain(0, 5, b"\x11" * 32)
    c.learn_chain(0, 2, b"\x22" * 32)
    assert c.chain[0] == (2, b"\x22" * 32)
    c.learn_chain(0, 9, b"\x33" * 32)
    assert c.chain[0] == (2, b"\x22" * 32)


def test_closure_adds_only_ratchet_envelopes():
    """Junk and a v2 envelope on the wire leave the closure as it was."""
    plan = [(1, b"m 0,0"), (1, b"m 0,1"), (2, b"r 1,0")]
    clean, c_clean = _closure_over(9, plan)
    g = _game("vdr", 9)
    _flights(g, plan)
    g.oracle_send(2, 1, b"\x99junk")
    v2 = _game("v2", 9)
    g.oracle_send(2, 1, v2.oracle_send(1, 1, ("encrypt", 0, b"v2")))
    raws = set(g.sessions[(2, 1)].transcript.values())
    assert b"\x99junk" in raws and len(raws) == len(plan) + 2
    c = _closure(g)
    for game, closure in ((clean, c_clean), (g, c)):
        closure.learn_scalar(game.oracle_rev_ltk(2))
        closure.learn_scalar(game.oracle_rev_rand(2, 1, (1, 0))[:32])
        closure.run()
    assert c.stages() == c_clean.stages() == [(0, 0), (0, 1), (1, 0)]
    assert c.mk == c_clean.mk
