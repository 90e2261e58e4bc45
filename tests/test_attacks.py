"""Scripted adversaries: expected verdicts, report details, and the
computable-key closure the game reads off its records."""

import dataclasses
import itertools
import random

import pytest

import letterseal.crypto_suite as cs
import letterseal.mske.attacks as attacks_module
import letterseal.mske.game as game_module
from letterseal.errors import StageNotAccepted, StageUnknown, UnknownAttack
from letterseal.linevdr import (
    ROLE_INITIATOR,
    ROLE_RESPONDER,
    vdr_import_state,
)
from letterseal.mske import (
    EXPECTED,
    AttackReport,
    Game,
    KeyClosure,
    attack_names,
    run_attack,
)
from letterseal.mske.attacks import _flights, _game
from letterseal.mske.freshness import fresh_v2, fresh_vdr
from letterseal.mske.game import REJECT
from letterseal.wire import decode_envelope, encode_envelope

import helpers
import truth_tables
from closure_saturating import SaturatingClosure

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
    d = run_attack("kci_v2", 5).details
    assert d["forged_stage_accepted"] is True
    assert d["forged_plaintext_decrypted"] is True
    assert d["guess"] == d["challenge_bit"]


def test_replay_v2_details():
    d = run_attack("replay_v2", 5).details
    assert d["duplicate_accepted"] is True
    assert d["guess"] == d["challenge_bit"]
    assert d["replay_events"] == 0  # the receiver never even noticed


def test_fs_v2_details():
    d = run_attack("fs_v2", 5).details
    assert d["recorded"] == 50
    assert d["decrypted_post_hoc"] == 50
    assert d["guess"] == d["challenge_bit"]


def test_replay_vdr_details():
    d = run_attack("replay_vdr", 5).details
    assert d["duplicate_rejections"] == 2
    assert d["first_delivery_accepted"] is True


def test_kci_vdr_postratchet_details():
    d = run_attack("kci_vdr_postratchet", 5).details
    assert d["epoch0_keys_match_truth"] is True
    assert d["epoch0_ciphertext_opens"] is True
    assert d["post_ratchet_stage_reached"] is False
    assert d["post_ratchet_true_key_leaked"] is False
    assert all(stage[0] == 0 for stage in d["closure_stages"])


def test_fs_vdr_details():
    d = run_attack("fs_vdr", 5).details
    assert d["decrypted"] == 0
    assert d["decrypt_attempts"] > 0
    assert d["consumed_keys_absent_from_snapshots"] is True


@pytest.mark.parametrize("seed", range(6))
def test_fs_vdr_imports_each_snapshot_once(monkeypatch, seed):
    """One import per revealed snapshot: no attempt is opened, and a
    refused one leaves the imported state as it was."""
    revealed, imported = [], []
    reveal = Game.oracle_rev_state
    monkeypatch.setattr(Game, "oracle_rev_state", lambda *args: revealed.append(
        reveal(*args)) or revealed[-1])
    real = attacks_module.vdr_import_state
    monkeypatch.setattr(attacks_module, "vdr_import_state",
                        lambda snap: imported.append(snap) or real(snap))
    rep = run_attack("fs_vdr", seed)
    assert len(revealed) == 2 and imported == revealed
    assert (rep.details["decrypt_attempts"], rep.details["decrypted"]) == (12, 0)
    if seed in helpers.ATTACK_TRACE_SEEDS:
        line = helpers._trace_line(f"fs_vdr@{seed}", "0,0", rep.trace)
        assert line in helpers.ATTACK_TRACE_FILE.read_text().splitlines()


def test_pcs_vdr_details():
    d = run_attack("pcs_vdr", 5).details
    assert d["compromise_epoch"] == 1
    assert d["fallen_stages_decrypted"] == {
        "0,2": True, "1,0": True, "1,1": True, "2,0": True}
    assert d["healed_stages_excluded"] == {"3,0": True, "4,0": True}
    assert all(stage[0] < 3 for stage in d["closure_stages"])


# -- KeyClosure -------------------------------------------------------------

def _true_stages(g, c):
    """The closure's stages, each key checked against the recorded one."""
    truth = {**g.sessions[(1, 1)].key, **g.sessions[(2, 1)].key}
    for s in c.stages():
        assert c.message_key(s) == bytes(truth[s]), s
    return c.stages()


def test_closure_empty_without_leaks():
    g = _game("vdr", 0, [(1, b"m0"), (1, b"m1")])
    c = g.closure()
    assert c.stages() == []
    assert c.message_key((0, 0)) is None
    assert not c.holds_value(g.sessions[(2, 1)].key[(0, 0)])


def test_closure_initial_from_responder_secret():
    g = _game("vdr", 1, [(1, b"m0"), (1, b"m1"), (1, b"m2")])
    g.oracle_rev_ltk(2)
    assert _true_stages(g, g.closure()) == [(0, 0), (0, 1), (0, 2)]


def test_closure_initial_from_initiator_pair():
    g = _game("vdr", 2, [(1, b"m0"), (1, b"m1")])
    g.oracle_rev_ltk(1)
    assert g.closure().stages() == []  # long-term key alone is not enough
    g.oracle_rev_rand(1, 1, (0, 0))  # the epoch-0 ephemeral's coins
    assert _true_stages(g, g.closure()) == [(0, 0), (0, 1)]


def test_closure_runs_no_exchange_for_a_root_it_cannot_reach():
    g = _game("vdr", 2, [(1, b"m0"), (1, b"m1")])
    g.oracle_rev_rand(1, 1, (0, 0))  # epoch 0's ephemeral, no long-term key
    with cs.count_ops() as counts:
        c = g.closure()
    # epoch 0 answers (a0, y) but not (x, y): neither exchange runs
    assert (c.stages(), counts.dh, counts.kdf) == ([], 0, 0)


def test_closure_chain_extension_is_forward_only():
    g = _game("vdr", 3, [(1, b"m0"), (1, b"m1"), (1, b"m2")])
    rec = g.sessions[(2, 1)]
    c = KeyClosure(bytes(32), bytes(32),
                   [decode_envelope(raw) for raw in rec.transcript.values()])
    # receiver chain position right after consuming (0,0)
    st = vdr_import_state(rec.state_snap[(0, 0)])
    c.learn_chain(st.i_r, st.j_r, st.ck_recv)
    assert _true_stages(g, c.run()) == [(0, 1), (0, 2)]
    assert c.message_key((0, 0)) is None  # consumed before the leak


def test_closure_snapshot_transitions_skip_spent_chain():
    g = _game("vdr", 4, [(1, b"m 0,0"), (1, b"m 0,1"), (2, b"r 1,0"),
                         (1, b"m 2,0")])
    g.oracle_rev_state(2, 1, (1, 0))  # taken right after B's send
    c = g.closure()
    # the live ephemeral carries the root into epoch 2; epoch 1 was already
    # spent, and epoch 0 needs a long-term secret, which no snapshot holds
    assert _true_stages(g, c) == [(2, 0)]
    assert c.message_key((1, 0)) is None


def test_closure_snapshot_hands_over_skipped_keys():
    g = _game("vdr", 5)
    raws = [g.oracle_send(1, 1, ("encrypt", 0, b"m%d" % j)) for j in range(3)]
    g.oracle_send(2, 1, raws[2])  # (0,2) first: (0,0) and (0,1) are cached
    c = KeyClosure(g.parties[1][1], g.parties[2][1],
                   [decode_envelope(raw) for raw in raws])
    c.learn_snapshot(g.oracle_rev_state(2, 1, (0, 2)))
    # the cached keys are held before any rule runs, and no rule adds the
    # consumed (0,2): epoch 0's root needs a long-term secret
    assert _true_stages(g, c) == [(0, 0), (0, 1)]
    assert _true_stages(g, c.run()) == [(0, 0), (0, 1)]
    assert g.closure().mk == c.mk  # the wire carried all three


def test_closure_spans_the_wire_not_only_what_receivers_hold():
    g = _game("vdr", 8, [(1, b"m 0,0")])
    g.oracle_send(1, 1, ("encrypt", 0, b"m 0,1"))  # never delivered
    g.oracle_rev_ltk(2)
    assert (0, 1) not in g.sessions[(2, 1)].transcript
    assert (g.closure().message_key((0, 1))
            == bytes(g.sessions[(1, 1)].key[(0, 1)]))


def test_closure_transition_through_the_next_epochs_secret():
    g = _game("vdr", 6, [(1, b"m 0,0"), (1, b"m 0,1"), (2, b"r 1,0")])
    g.oracle_rev_ltk(2)
    # the responder's epoch-1 ephemeral, drawn when it opened (0,0)
    g.oracle_rev_rand(2, 1, (1, 0))
    assert _true_stages(g, g.closure()) == [(0, 0), (0, 1), (1, 0)]


@pytest.mark.parametrize("seed", range(4))
def test_closure_reads_the_roles_off_the_sessions(seed):
    """Party 2 opening as initiator is the mirror of party 1 doing so: the
    responder's long-term key gives both epoch-0 keys either way."""
    mirrored = _game("vdr", seed, [(1, b"m0"), (1, b"m1")])
    mirrored.oracle_rev_ltk(2)
    swapped = Game("vdr", 2, seed)
    swapped.oracle_send(2, 1, (1, ROLE_INITIATOR))
    swapped.oracle_send(1, 1, (2, ROLE_RESPONDER))
    _flights(swapped, [(2, b"m0"), (2, b"m1")])
    swapped.oracle_rev_ltk(1)
    assert (_true_stages(swapped, swapped.closure())
            == _true_stages(mirrored, mirrored.closure()) == [(0, 0), (0, 1)])


def test_closure_refuses_sessions_of_two_pairs():
    g = Game("vdr", 3, 0)
    g.oracle_send(1, 1, (2, ROLE_INITIATOR))
    g.oracle_send(3, 1, (2, ROLE_INITIATOR))
    with pytest.raises(ValueError, match=r"\[\(1, 2\), \(3, 2\)\]"):
        g.closure()


def test_closure_refuses_a_nonce_only_draw_as_a_scalar():
    g = _game("vdr", 7, [(1, b"m 0,0"), (1, b"m 0,1")])
    draw = g.oracle_rev_rand(1, 1, (0, 1))  # no epoch turn: the nonce only
    assert len(draw) == 4
    assert g.closure().scalars == {}  # the game learns no scalar from it
    c = KeyClosure(bytes(32), bytes(32), [])
    with pytest.raises(ValueError, match="got 4"):
        c.learn_scalar(draw[:32])
    assert c.scalars == {}


def test_closure_builds_one_key_object_per_learned_scalar(monkeypatch):
    g = _game("vdr", 6, [(1, b"m 0,0"), (1, b"m 0,1"), (2, b"r 1,0"),
                         (1, b"m 2,0")])
    learned = [g.oracle_rev_ltk(2), g.oracle_rev_rand(2, 1, (1, 0))[:32]]
    built = helpers.count_key_objects(monkeypatch)
    c = g.closure()  # four exchanges: two for epoch 0, one per turn
    assert built == [cs.clamp_scalar(raw) for raw in learned]
    assert _true_stages(g, c) == [(0, 0), (0, 1), (1, 0), (2, 0)]
    # a revealed snapshot's ephemeral: built by the import, kept as is
    snapshot = g.oracle_rev_state(1, 1, (2, 0))
    built.clear()
    c = g.closure()
    # A sent (2,0) last
    eph = g.sessions[(1, 1)].ep.session.self_eph.secret
    assert eph in snapshot
    assert sorted(built) == sorted(
        [cs.clamp_scalar(raw) for raw in learned] + [eph])  # eph once
    assert sum(key.private_bytes_raw() == eph for key in c.scalars.values()) == 1


def test_closure_learn_chain_keeps_earliest_position():
    c = KeyClosure(bytes(32), bytes(32), [])
    c.learn_chain(0, 5, b"\x11" * 32)
    c.learn_chain(0, 2, b"\x22" * 32)
    assert c.chain[0] == (2, b"\x22" * 32)
    c.learn_chain(0, 9, b"\x33" * 32)
    assert c.chain[0] == (2, b"\x22" * 32)


# a public key whose secret no party holds, for forged epoch turns
JUNK_EPH = bytes(cs.dh_to_public(cs.clamp_scalar(b"\x07" * 32)))


def _turned(env, epoch, j_index):
    """env moved to (epoch, j_index) under the junk ephemeral."""
    nonce = epoch.to_bytes(4, "big") + env.nonce_material[4:]
    return dataclasses.replace(env, nonce_material=nonce, j_index=j_index,
                               eph_pub=JUNK_EPH)


def test_closure_adds_only_ratchet_envelopes():
    """Refused deliveries leave the closure as it was: junk and a v2
    envelope to B, a copy of (0,0) forged to index 50,000 to B, and a
    forgery at (1,5) under a junk ephemeral that A refuses before B's
    honest (1,0) reaches it."""
    plan = [(1, b"m 0,0"), (1, b"m 0,1"), (2, b"r 1,0")]
    # each reveal set and the stages its closure holds; A's snapshot after
    # (0,0) has spent that key and turns to (1,0) through A's ephemeral
    reveal_sets = (
        ([("ltk", 2), ("rand", 2, 1, (1, 0))], [(0, 0), (0, 1), (1, 0)]),
        ([("state", 1, 1, (0, 0))], [(0, 1), (1, 0)]))
    for seed, (reveals, held) in itertools.product(range(4), reveal_sets):
        clean, g = _game("vdr", seed, plan), _game("vdr", seed, plan[:2])
        e00 = decode_envelope(g.sessions[(1, 1)].transcript[(0, 0)])
        v2 = _game("v2", seed).oracle_send(1, 1, ("encrypt", 0, b"v2"))
        for raw in (b"\x99junk", v2,
                    encode_envelope(dataclasses.replace(e00, j_index=50000))):
            g.oracle_send(2, 1, raw)
        back = dataclasses.replace(e00, kid_sender=e00.kid_receiver,
                                   kid_receiver=e00.kid_sender)
        g.oracle_send(1, 1, encode_envelope(_turned(back, 1, 5)))
        _flights(g, plan[2:])
        refusals = [len(g.sessions[(u, 1)].reject_reason) for u in (1, 2)]
        assert refusals == [1, 3]
        assert g.sessions[(1, 1)].reject_reason[(1, 5)] == "AuthFailure"
        truth_tables.apply_reveals(clean, reveals)
        truth_tables.apply_reveals(g, reveals)
        c = g.closure()
        assert c.mk == clean.closure().mk, (seed, reveals)
        assert _true_stages(g, c) == held


def _refused_copies(env) -> tuple:
    """The refused copies of env the sweep below delivers: a flipped
    ciphertext bit, an index 40,000 ahead, a junk ephemeral one epoch
    ahead, and undecodable bytes."""
    flipped = bytes([env.ciphertext[0] ^ 1]) + env.ciphertext[1:]
    return (encode_envelope(dataclasses.replace(env, ciphertext=flipped)),
            encode_envelope(dataclasses.replace(env,
                                                j_index=env.j_index + 40000)),
            encode_envelope(_turned(env, env.i_index + 1, env.j_index)),
            b"\x99junk")


def _play(seed, pattern, refuse):
    """The game of an in-order sender pattern. With refuse, a refused copy
    goes before some deliveries, its kind picked by the delivery's
    position. Returns the game and how many deliveries each party got."""
    g, got = _game("vdr", seed), {1: 0, 2: 0}
    for d, sender in enumerate(pattern):
        raw = g.oracle_send(sender, 1, ("encrypt", 0, b"m%d" % d))
        peer = 2 if sender == 1 else 1
        pick = (seed + d) % 5  # the four copies, or none
        if refuse and pick < 4:
            g.oracle_send(peer, 1,
                          _refused_copies(decode_envelope(raw))[pick])
            got[peer] += 1
        g.oracle_send(peer, 1, raw)
        got[peer] += 1
    return g, got


def test_refused_deliveries_change_neither_closure_nor_outcome():
    """Seeded in-order sender patterns of 1-5 messages (A opens), some
    deliveries preceded by a refused copy: a flipped ciphertext bit, an
    index 40,000 ahead, a junk ephemeral one epoch ahead, or junk bytes.
    Under every single reveal, the closure is the one of the same game
    without the refused deliveries. Each delivery is recorded once, as a
    plaintext, a stage's refusal or a refusal beside a stage's outcome,
    and no accepted stage keeps a refusal as its outcome."""
    games = 0
    for seed in range(40):
        rng = random.Random(seed)
        pattern = (1, *(rng.choice((1, 2)) for _ in range(rng.randrange(5))))
        g, got = _play(seed, pattern, True)
        clean, _ = _play(seed, pattern, False)
        for u, rec in ((1, g.sessions[(1, 1)]), (2, g.sessions[(2, 1)])):
            assert rec.plaintexts == clean.sessions[(u, 1)].plaintexts
            assert len(rec.plaintexts) + len(rec.reject_reason) + len(
                rec.replay_events) == got[u], (pattern, u)
            assert all(rec.status[s] == REJECT for s in rec.reject_reason)
        for reveal in truth_tables.reveal_menu(clean):
            pair = [_play(seed, pattern, refuse)[0]
                    for refuse in (True, False)]
            for game in pair:
                truth_tables.apply_reveals(game, [reveal])
            assert pair[0].closure().mk == pair[1].closure().mk, (
                pattern, reveal)
            games += 1
    assert games == 745


# a stage that shares its envelope, and so its key, with a revealed stage
# of another session or stage is rated fresh; ROADMAP item 15 closes it
PARTNER_GAP = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 15: fresh_v2 does not look for a revealed key at a "
    "stage that holds the same envelope"))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", [
    "kci_v2", pytest.param("replay_v2", marks=PARTNER_GAP), "fs_v2",
    "replay_vdr", "kci_vdr_postratchet", "fs_vdr", "pcs_vdr"])
def test_no_fresh_tested_stage_is_held(monkeypatch, name, seed):
    """A script's tested stage that its report rates fresh (by its
    protocol's predicate) is one whose true key the closure of the script's
    game does not hold. replay_v2 tests stage 2, which re-opens stage 1's
    envelope after stage 1's key was revealed: fresh, and held."""
    seen = []
    real = attacks_module._report

    def keep(name, g, succeeded, tested, details):
        seen.append((g, tested))
        return real(name, g, succeeded, tested, details)

    monkeypatch.setattr(attacks_module, "_report", keep)
    rep = run_attack(name, seed)
    ((g, (u, s)),) = seen
    if not rep.violated_freshness:
        assert not g.held(u, 1, s), (name, seed)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("protocol", ["v1", "v2"])
def test_static_closure_holds_every_stage_under_each_reveal(protocol, seed):
    """A sends three messages. With no reveal the closure holds none of
    the 6 stages; either long-term key, or either party's state at stage
    1, gives the pair's one pms and so all 6, and fresh_v2 rates none of
    them fresh."""
    stages = [(u, s) for u in (1, 2) for s in (1, 2, 3)]
    plan = [(1, b"m%d" % k) for k in range(3)]
    g = _game(protocol, seed, plan)
    assert [g.held(u, 1, s) for u, s in stages] == [False] * 6
    for reveal in (("ltk", 1), ("ltk", 2), ("state", 1, 1, 1),
                   ("state", 2, 1, 1)):
        g = _game(protocol, seed, plan)
        truth_tables.apply_reveals(g, [reveal])
        assert [(g.held(u, 1, s), fresh_v2(g, (u, 1, s)))
                for u, s in stages] == [(True, False)] * 6, reveal


@PARTNER_GAP
@pytest.mark.parametrize("seed", range(4))
def test_partner_key_reveal_leaves_no_fresh_stage_held(seed):
    """A sends one message and B accepts it at stage 1; A's stage-1 key
    is revealed, and B's stage 1 holds the same envelope and key."""
    g = _game("v2", seed, [(1, b"m0")])
    g.oracle_rev_sesskey(1, 1, 1)
    if fresh_v2(g, (2, 1, 1)):
        assert not g.held(2, 1, 1)


def test_held_refuses_a_stage_with_no_key():
    g = _game("v2", 0, [(1, b"m0")])
    g.oracle_send(2, 1, b"\x99junk")
    with pytest.raises(StageNotAccepted, match="stage 2 of"):
        g.held(2, 1, 2)
    with pytest.raises(StageUnknown):
        g.held(2, 2, 1)


def _hand_fed(g, reveal):
    """The closure of one reveal whose answer is fed by hand, as the
    benchmark's game workload feeds it. That workload reveals only draws
    that open an epoch, so a nonce-only draw is skipped here."""
    wire = dict.fromkeys(raw for rec in g.sessions.values()
                         for raw in rec.transcript.values())
    c = KeyClosure(g.parties[1][1], g.parties[2][1],
                   [decode_envelope(raw) for raw in wire])
    (value,) = truth_tables.apply_reveals(g, [reveal])
    if reveal[0] == "sesskey":
        c.mk[reveal[-1]] = bytes(value)
    elif reveal[0] == "rand":
        if len(value) >= 32:
            c.learn_scalar(value[:32])
    elif reveal[0] == "state":
        c.learn_snapshot(value)
    else:
        c.learn_scalar(value)
    return c.run()


def test_closure_reads_each_reveal_as_fed_by_hand():
    """Every in-order sender pattern of 1-4 messages (A opens), each with
    every single reveal the game allows: the record gives the closure,
    learned scalars included, that the hand-fed answer gives."""
    patterns = [(1, *tail) for n in range(4)
                for tail in itertools.product((1, 2), repeat=n)]
    games = 0
    for seed, pattern in enumerate(patterns):
        plan = [(u, b"m%d" % k) for k, u in enumerate(pattern)]
        for reveal in truth_tables.reveal_menu(_game("vdr", seed, plan)):
            g = _game("vdr", seed, plan)
            by_hand, c = _hand_fed(g, reveal), g.closure()
            assert (c.mk, c.scalars.keys()) == (
                by_hand.mk, by_hand.scalars.keys()), (pattern, reveal)
            _true_stages(g, c)
            games += 1
    assert (len(patterns), games) == (15, 290)


def test_closure_matches_a_saturating_reference():
    """Every in-order sender pattern of 1-3 messages (A opens), each with
    every single reveal and every pair of reveals the game allows: the
    closure holds exactly the keys that the saturating reference, which
    skips no rule, computes."""
    patterns = [(1, *tail) for n in range(3)
                for tail in itertools.product((1, 2), repeat=n)]
    sets = 0
    for seed, pattern in enumerate(patterns):
        plan = [(u, b"m%d" % k) for k, u in enumerate(pattern)]
        menu = truth_tables.reveal_menu(_game("vdr", seed, plan))
        for reveals in itertools.chain(
                ([r] for r in menu), itertools.combinations(menu, 2)):
            g = _game("vdr", seed, plan)
            truth_tables.apply_reveals(g, reveals)
            assert g.closure().mk == SaturatingClosure(g).run(), (
                pattern, reveals)
            sets += 1
    assert (len(patterns), sets) == (7, 902)


def _snapshot_root_witness(seed):
    """A sends one message; A's state after it and A's long-term key are
    revealed. The snapshot gives rk_0 and the ephemeral eph_0, and with
    x the exchanges give ck_0 too, so B's (0,0) key is computable."""
    g = _game("vdr", seed, [(1, b"m0")])
    g.oracle_rev_state(1, 1, (0, 0))
    g.oracle_rev_ltk(1)
    return g


@pytest.mark.parametrize("seed", range(4))
def test_closure_derives_the_chain_of_a_revealed_root(seed):
    """The closure holds B's true (0,0) key, though the snapshot gave
    epoch 0's root."""
    assert _snapshot_root_witness(seed).held(2, 1, (0, 0))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 8: fresh_vdr does not count the ephemeral that a "
    "revealed snapshot holds"))
@pytest.mark.parametrize("seed", range(4))
def test_snapshot_root_witness_is_not_fresh_and_held(seed):
    g = _snapshot_root_witness(seed)
    if fresh_vdr(g, (2, 1, (0, 0))):
        assert not g.held(2, 1, (0, 0))
