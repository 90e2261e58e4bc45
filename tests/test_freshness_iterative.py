"""The iterative freshness predicates against their recursive definitions.

letterseal.mske evaluates the ratchet family with loops and one transcript
comparison per session pair; freshness_recursive.py keeps the definitions
in their recursive form. The two must agree on every truth-table trace,
on every stage of a long game with reveals, drops and forgeries, and the
iterative form must stay within the stack on chains of thousands of
stages.
"""

import dataclasses
import random

import pytest

import truth_tables
from freshness_recursive import RecursiveFreshness
from freshness_recursive import match_sessions as recursive_match
from letterseal.mske import (
    ACCEPT,
    PROTO_VDR,
    fresh_asym,
    fresh_ee,
    fresh_initial,
    fresh_st,
    fresh_sym,
    fresh_vdr,
    match_sessions,
    matching_sessions,
    valid_vdr,
)
from letterseal.mske.attacks import _game
from letterseal.wire import decode_envelope, encode_envelope

A, B = 1, 2


def _stages(g):
    seen = set()
    for rec in g.sessions.values():
        seen.update(rec.status)
        seen.update(rec.rand_log)
    return sorted(seen)


def _disagreements(g, stages):
    """Every predicate of the family at every (session, stage)."""
    oracle = RecursiveFreshness(g)
    bad = []
    for (u, i), rec in g.sessions.items():
        for s in stages:
            pairs = [
                ("fresh_vdr", fresh_vdr(g, (u, i, s)), oracle.fresh_vdr((u, i, s))),
                ("valid", valid_vdr(g, u, i, s), oracle.valid_vdr(u, i, s)),
                ("st", fresh_st(g, u, i, s), oracle.fresh_st(u, i, s)),
                ("sym", fresh_sym(g, u, i, s), oracle.fresh_sym(u, i, s)),
            ]
            if s[1] == 0:
                pairs += [
                    ("ee", fresh_ee(g, u, i, s), oracle.fresh_ee(u, i, s)),
                    ("asym", fresh_asym(g, u, i, s), oracle.fresh_asym(u, i, s)),
                ]
            for other in g.sessions.values():
                pairs.append(("match", match_sessions(rec, other, s),
                              recursive_match(rec, other, s)))
            if matching_sessions(g, rec, s) != oracle.matching_sessions(rec, s):
                bad.append(f"matching_sessions ({u},{i}) {s}")
            bad += [f"{name} ({u},{i}) {s}: {got} != {want}"
                    for name, got, want in pairs if got is not want]
        if fresh_initial(g, u, i) is not oracle.fresh_initial(u, i):
            bad.append(f"initial ({u},{i})")
    return bad


# -- the 56 truth-table traces ------------------------------------------------------

@pytest.mark.parametrize("row", truth_tables.VDR_ROWS, ids=lambda r: r.label)
def test_vdr_truth_table_traces_agree(row):
    g = truth_tables.build_vdr_game()
    truth_tables.apply_reveals(g, row.reveals)
    stages = _stages(g) + [(3, 1), (4, 0)]
    assert _disagreements(g, stages) == []


def _forged(raw):
    env = decode_envelope(raw)
    ct = bytes([env.ciphertext[0] ^ 1]) + env.ciphertext[1:]
    return encode_envelope(dataclasses.replace(env, ciphertext=ct))


def build_lossy_game(seed=0):
    """Epochs 0..4 where (0,1) and (3,0) are dropped and only a forged
    copy of (1,1) arrives, so the two transcripts part ways at several
    stages."""
    g = _game(PROTO_VDR, seed)
    plan = [(A, [True, False, True]), (B, [True, "forged", True]),
            (A, [True]), (B, [False, True]), (A, [True, True])]
    for sender, deliveries in plan:
        for k, delivery in enumerate(deliveries):
            raw = g.oracle_send(sender, 1, ("encrypt", 0, b"%d" % k))
            if delivery == "forged":
                g.oracle_send(3 - sender, 1, _forged(raw))
            elif delivery:
                g.oracle_send(3 - sender, 1, raw)
    return g


@pytest.mark.parametrize("build", [truth_tables.build_vdr_game,
                                   build_lossy_game])
def test_random_reveal_patterns_agree(build):
    """Seeded reveal sets, well beyond the hand-picked rows: every
    predicate at every stage must agree."""
    base = build()
    stages = _stages(base) + [(3, 1), (5, 0)]
    menu = truth_tables.reveal_menu(base)
    rnd = random.Random(7)
    for _ in range(120):
        g = build()
        truth_tables.apply_reveals(g, rnd.sample(menu, rnd.randrange(1, 7)))
        assert _disagreements(g, stages) == []


def _v2_matching_disagreements(g):
    stages = sorted({s for rec in g.sessions.values() for s in rec.status})
    return [(a.owner, a.index, b.owner, b.index, s)
            for a in g.sessions.values() for b in g.sessions.values()
            for s in stages + [stages[-1] + 1]
            if match_sessions(a, b, s) is not recursive_match(a, b, s)]


@pytest.mark.parametrize("row", truth_tables.V2_ROWS, ids=lambda r: r.label)
def test_v2_truth_table_traces_agree(row):
    g = truth_tables.build_v2_game()
    truth_tables.apply_reveals(g, row.reveals)
    assert _v2_matching_disagreements(g) == []


@pytest.mark.parametrize("row", truth_tables.V2_MATCH_ROWS,
                         ids=lambda r: r.label)
def test_v2_matching_traces_agree(row):
    assert _v2_matching_disagreements(row.build(0)) == []


# -- long games ----------------------------------------------------------------------

def long_game(seed, stages):
    """Alternating bursts (one of them a few hundred messages long), with
    dropped and forged deliveries and seeded reveals of every kind."""
    rnd = random.Random(seed)
    g = _game(PROTO_VDR, seed)
    sender, sent, long_burst = A, 0, True
    while sent < stages:
        n = rnd.randrange(300, 400) if long_burst else rnd.randrange(1, 16)
        long_burst = False
        receiver = B if sender == A else A
        for _ in range(min(n, stages - sent)):
            raw = g.oracle_send(sender, 1, ("encrypt", 0, b"m%d" % sent))
            sent += 1
            roll = rnd.random()
            if roll < 0.03:
                continue                                  # dropped
            if roll < 0.05:
                raw = _forged(raw)
            g.oracle_send(receiver, 1, raw)
        sender = receiver
    for (u, i), rec in g.sessions.items():
        accepted = [s for s, v in rec.status.items() if v == ACCEPT]
        for s in rnd.sample(accepted, 6):
            g.oracle_rev_state(u, i, s)
        for s in rnd.sample(accepted, 6):
            g.oracle_rev_sesskey(u, i, s)
        for s in rnd.sample(sorted(rec.rand_log), 4):
            g.oracle_rev_rand(u, i, s)
    if rnd.random() < 0.5:
        g.oracle_rev_ltk(rnd.choice((A, B)))
    return g


def test_long_game_agrees_with_recursive_form():
    g = long_game(11, 1500)
    stages = _stages(g)
    assert len(stages) >= 1500 and max(j for _, j in stages) >= 299
    verdicts = []
    oracle = RecursiveFreshness(g)
    for u in (A, B):
        for s in stages:
            got = fresh_vdr(g, (u, 1, s))
            assert got is oracle.fresh_vdr((u, 1, s)), (u, s)
            verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_long_chain_stays_off_the_stack():
    g = _game(PROTO_VDR, 5, [(A, b"%d" % k) for k in range(3001)])
    for stage in [(0, 1499), (0, 3000)]:
        assert fresh_vdr(g, (A, 1, stage)) is True
        assert fresh_vdr(g, (B, 1, stage)) is True
    g.oracle_rev_state(B, 1, (0, 2000))
    assert fresh_vdr(g, (A, 1, (0, 1499))) is True
    assert fresh_vdr(g, (A, 1, (0, 3000))) is False
