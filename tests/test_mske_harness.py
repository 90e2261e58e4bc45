"""Oracle semantics of the key-indistinguishability game harness.

Covers activation, send/deliver bookkeeping, the four reveal oracles,
Test-oracle bit dependence, and faithfulness: envelopes produced inside a
game must be byte-identical to driving the protocol libraries directly
with mirrored rng forks.
"""

import dataclasses

import pytest

import helpers
import letterseal.crypto_suite as cs
import letterseal.mske.game as game_module
from letterseal.endpoint import PROTO_V1
from letterseal.errors import NotInitialized, StageNotAccepted, StageUnknown
from letterseal.linev1 import v1_derive
from letterseal.linev2 import v2_encrypt, v2_establish, v2_snapshot_pms
from letterseal.linevdr import (
    ROLE_INITIATOR,
    ROLE_RESPONDER,
    vdr_encrypt,
    vdr_export_state,
    vdr_import_state,
    vdr_init_sender,
)
from letterseal.mske import ACCEPT, REJECT, Game, fresh_v2
from letterseal.mske.attacks import _flights, _game
from letterseal.wire import decode_envelope, encode_envelope

import truth_tables


def _played(protocol, seed, plan):
    """A game driven through plan by attacks._game, and the envelopes
    party 1's session sent or received, in order."""
    g = _game(protocol, seed, plan)
    return (g, *g.sessions[(1, 1)].transcript.values())


def v2_game(seed=0):
    return _played("v2", seed, [(1, b"hello"), (2, b"reply")])


def vdr_game(seed=0):
    return _played("vdr", seed, [(1, b"m0"), (2, b"r0")])


def _seed_with_bit(bit):
    for seed in range(64):
        if Game("v2", seed=seed).b == bit:
            return seed
    raise AssertionError("no seed found")  # pragma: no cover


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        Game("v9")


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be non-negative"):
        Game("vdr", seed=-1)


@pytest.mark.parametrize("n_parties", [0, 1, -1])
def test_game_with_fewer_than_two_parties_is_refused_before_any_draw(
        n_parties):
    # a session needs a peer, and closure() names an (initiator,
    # responder) pair
    for protocol in ("v1", "v2", "vdr"):
        with cs.Recorder() as seen, pytest.raises(
                ValueError, match=f"at least 2 parties, got {n_parties}$"):
            Game(protocol, n_parties)
        assert seen.draws == []


def test_v2_status_progression_and_key_agreement():
    g, e1, e2 = v2_game()
    p1 = g.sessions[(1, 1)]
    p2 = g.sessions[(2, 1)]
    # stages count both directions, in arrival order at each party
    assert p1.status == {1: ACCEPT, 2: ACCEPT}
    assert p2.status == {1: ACCEPT, 2: ACCEPT}
    assert p1.key[1] == p2.key[1]  # both sides derive from e1's salt
    assert p1.key[2] == p2.key[2]
    assert p1.key[1] != p1.key[2]
    assert p2.plaintexts[1] == b"hello"
    assert p1.plaintexts[2] == b"reply"
    assert p1.transcript[1] == e1
    assert p2.transcript[2] == e2


def test_vdr_stage_bookkeeping():
    g, e00, e10 = vdr_game()
    p1 = g.sessions[(1, 1)]
    p2 = g.sessions[(2, 1)]
    assert p1.status == {(0, 0): ACCEPT, (1, 0): ACCEPT}
    assert p2.status == {(0, 0): ACCEPT, (1, 0): ACCEPT}
    assert p1.key[(0, 0)] == p2.key[(0, 0)]
    assert p1.key[(1, 0)] == p2.key[(1, 0)]
    # initiator logged its epoch-0 ephemeral, responder its reply ephemeral
    assert (0, 0) in p1.rand_log
    assert (1, 0) in p2.rand_log
    assert p2.plaintexts[(0, 0)] == b"m0"
    assert p1.plaintexts[(1, 0)] == b"r0"


def test_game_held_ratchet_state_equals_its_snapshot_round_trip():
    g, _, _ = vdr_game()
    for rec in g.sessions.values():
        st = rec.ep.session
        clone = vdr_import_state(vdr_export_state(st))
        assert clone == st and repr(clone) == repr(st)


def test_no_game_state_holds_a_pending_reply_after_an_oracle_call():
    # each accepted stage is snapshotted, and the snapshot builds a
    # pending reply, so a RevState reads what the session will send with
    g = _game("vdr", 5)
    for u, v in ((1, 2), (1, 2), (2, 1), (1, 2), (2, 1)):
        raw = g.oracle_send(u, 1, ("encrypt", 0, b"m"))
        for delivered in (raw[:-1] + bytes([raw[-1] ^ 1]), raw):
            g.oracle_send(v, 1, delivered)  # rejected, then accepted
            assert [rec.ep.session.reply_secret for rec in g.sessions.values()
                    if rec.ep.session is not None] in ([None], [None, None])


@pytest.mark.parametrize("protocol", ["v1", "v2", "vdr"])
def test_message_keys_reach_only_a_recorder(protocol):
    g = _game(protocol, 4)
    ends = {1: g.sessions[(1, 1)], 2: g.sessions[(2, 1)]}
    for u, v in ((1, 2), (1, 2), (2, 1), (1, 2)):
        with cs.Recorder() as sealed:
            raw = g.oracle_send(u, 1, ("encrypt", 0, b"m"))
        with cs.Recorder() as opened:
            g.oracle_send(v, 1, raw)
        # one key per seal and per open, the same at both ends and the
        # key the game holds for that stage on each side
        (key,) = sealed.keys
        assert opened.keys == [key]
        stage = list(ends[u].key)[-1]
        assert ends[u].key[stage] == ends[v].key[stage] == key
        if protocol == "vdr":
            assert key != ends[u].ep.session.ck_send
    # a fresh envelope with a flipped tag bit fails on the tag alone
    raw = g.oracle_send(u, 1, ("encrypt", 0, b"forged"))
    forged = raw[:-1] + bytes([raw[-1] ^ 1])
    with cs.Recorder() as seen:
        g.oracle_send(v, 1, forged)
    assert seen.keys == []
    refusal = "MacFailure" if protocol == "v1" else "AuthFailure"
    assert list(ends[v].reject_reason.values()) == [refusal]
    # a counting scope alone: three counts, and no key anywhere in it
    a, b = ends[1].ep, ends[2].ep
    with cs.count_ops() as counts:
        assert b.open(a.seal(b"counted")) == b"counted"
    assert {name: type(value) for name, value in vars(counts).items()} == {
        "dh": int, "kdf": int, "aead": int}
    assert counts.aead == 2


@pytest.mark.parametrize("protocol", ["v1", "v2", "vdr"])
def test_game_builds_each_long_term_key_object_once(monkeypatch, protocol):
    built = helpers.count_key_objects(monkeypatch)
    g = _game(protocol, 3)
    long_term = {bytes(sk) for sk, _ in g.parties.values()}
    assert sorted(built) == sorted(long_term)  # the two keygens
    built.clear()
    _flights(g, [(1, b"m0")])
    if protocol == "vdr":  # the two ephemerals, each built once
        assert built == [bytes(g.sessions[(u, 1)].ep.session.self_eph.secret)
                         for u in (1, 2)]
    else:
        assert built == []
    _flights(g, [(2, b"r0"), (1, b"m1"), (2, b"r1")])
    assert long_term.isdisjoint(built)
    assert [bytes(g.oracle_rev_ltk(u)) for u in (1, 2)] == [
        bytes(sk) for sk, _ in g.parties.values()]


def test_first_send_must_activate():
    g = Game("v2")
    with pytest.raises(StageUnknown, match="activate"):
        g.oracle_send(1, 1, b"\x02junk")
    g.oracle_send(1, 1, (2, ROLE_INITIATOR))
    with pytest.raises(ValueError, match="unrecognized"):
        g.oracle_send(1, 1, 12345)


def test_rev_sesskey_semantics():
    g, _, _ = v2_game()
    with pytest.raises(StageNotAccepted):
        g.oracle_rev_sesskey(1, 1, 9)
    with pytest.raises(StageUnknown):
        g.oracle_rev_sesskey(3, 1, 1)
    k = g.oracle_rev_sesskey(1, 1, 1)
    assert k == g.sessions[(1, 1)].key[1]
    assert g.sessions[(1, 1)].rev_sesskey[1] is True


def test_rev_rand_and_rev_state_semantics():
    g, _, _ = v2_game()
    p2 = g.sessions[(2, 1)]
    with pytest.raises(StageUnknown):
        g.oracle_rev_rand(2, 1, 1)  # stage 1 was a delivery, no coins drawn
    r = g.oracle_rev_rand(2, 1, 2)
    assert r == p2.rand_log[2] and len(r) > 0
    snap = g.oracle_rev_state(2, 1, 1)
    assert snap == p2.state_snap[1]
    assert p2.rev_state[1] and p2.rev_rand[2]
    with pytest.raises(StageUnknown):
        g.oracle_rev_state(2, 1, 9)


def test_rev_ltk_returns_long_term_secret():
    g, _, _ = v2_game()
    sk = g.oracle_rev_ltk(2)
    assert sk == g.parties[2][0]
    assert g.rev_ltk == {1: False, 2: True}


@pytest.mark.parametrize("query", [
    lambda g: g.oracle_rev_ltk(3),
    lambda g: g.oracle_send(1, 2, (7, ROLE_INITIATOR)),
    lambda g: g.oracle_send(3, 1, (1, ROLE_RESPONDER)),
], ids=["rev_ltk", "activate with an unknown peer",
        "activate for an unknown owner"])
def test_unknown_party_is_refused_before_anything_changes(query):
    g, _, _ = v2_game()
    before = (dict(g.rev_ltk), dict(g.sessions), g.trace.export())
    with pytest.raises(StageUnknown, match=r"no party [37]"):
        query(g)
    assert (dict(g.rev_ltk), dict(g.sessions), g.trace.export()) == before


_ONE_WAY = [(1, b"m0"), (1, b"m1"), (1, b"m2")]
# the same reveals on a v1 and a v2 game; fresh_v2 judges both alike
_REVEALS = (lambda g: None, lambda g: g.oracle_rev_sesskey(2, 1, 2),
            lambda g: g.oracle_rev_state(1, 1, 1),
            lambda g: g.oracle_rev_ltk(2))


@pytest.mark.parametrize("seed", range(6))
def test_v1_game_records_its_keys_and_pms_and_judges_as_v2(seed):
    g, *_ = _played(PROTO_V1, seed, _ONE_WAY)
    pms = g.sessions[(1, 1)].ep.session.pms
    assert g.sessions[(2, 1)].ep.session.pms == pms
    for u in (1, 2):
        rec = g.sessions[(u, 1)]
        assert rec.status == {1: ACCEPT, 2: ACCEPT, 3: ACCEPT}
        assert rec.key == {s: v1_derive(pms, decode_envelope(raw).salt)[0]
                           for s, raw in rec.transcript.items()}
        assert [g.oracle_rev_state(u, 1, s) for s in rec.status] == [pms] * 3
    verdicts = {}
    for protocol in (PROTO_V1, "v2"):
        verdicts[protocol] = []
        for reveal in _REVEALS:
            g, *_ = _played(protocol, seed, _ONE_WAY)
            reveal(g)
            verdicts[protocol].append([fresh_v2(g, (u, 1, s))
                                       for u in (1, 2) for s in (1, 2, 3)])
    assert verdicts[PROTO_V1] == verdicts["v2"]
    assert verdicts["v2"][:3] == [[True] * 6, [True] * 4 + [False, True],
                                  [False] * 6]


def test_v2_state_snapshot_carries_pms():
    g, _, _ = v2_game()
    rec = g.sessions[(1, 1)]
    assert v2_snapshot_pms(rec.state_snap[1]) == rec.ep.session.pms


def test_test_oracle_real_key_when_b_zero():
    seed = _seed_with_bit(0)
    g, _, _ = v2_game(seed)
    k = g.oracle_test(1, 1, 1)
    assert k == g.sessions[(1, 1)].key[1]
    assert g.tested == (1, 1, 1)


def test_test_oracle_random_key_when_b_one():
    seed = _seed_with_bit(1)
    g, _, _ = v2_game(seed)
    k = g.oracle_test(1, 1, 1)
    assert k != g.sessions[(1, 1)].key[1]
    # the b=1 key comes off the challenger stream, right after the bit draw
    gr = cs.SeededRng(seed).fork(b"game")
    gr.token(1)
    assert k == cs.SymmetricKey(gr.token(32))


def test_test_oracle_refusals():
    g, _, _ = v2_game()
    assert g.oracle_test(1, 1, 99) is None   # not accepted: refuse
    assert g.tested is None                  # refusal does not bind the test
    assert g.oracle_test(1, 1, 1) is not None
    assert g.oracle_test(1, 1, 2) is None    # one Test per game
    assert g.tested == (1, 1, 1)


def test_v2_reject_recorded_for_garbage():
    g, e1, _ = v2_game()
    g.oracle_send(2, 1, b"\x99not an envelope")
    p2 = g.sessions[(2, 1)]
    assert p2.status[3] == REJECT
    assert p2.transcript[3] == b"\x99not an envelope"


def test_v2_duplicate_delivery_accepted_as_new_stage():
    # stateless decrypt means a replayed envelope just accepts again
    g, e1, _ = v2_game()
    g.oracle_send(2, 1, e1)
    p2 = g.sessions[(2, 1)]
    assert p2.status[3] == ACCEPT
    assert p2.plaintexts[3] == b"hello"
    assert p2.replay_events == []


def test_vdr_duplicate_delivery_logged_as_replay_event():
    g, e00, _ = vdr_game()
    g.oracle_send(2, 1, e00)
    p2 = g.sessions[(2, 1)]
    assert p2.status[(0, 0)] == ACCEPT  # verdict from the first delivery
    assert p2.replay_events == [((0, 0), "ReplayRejected")]


def test_vdr_headerless_deliveries_get_one_stage_each():
    g, _, _ = vdr_game()
    for _ in range(3):
        g.oracle_send(2, 1, b"\x99junk")
    p2 = g.sessions[(2, 1)]
    junk = [(1 << 32, n) for n in range(3)]
    assert [s for s in p2.status if s[0] == 1 << 32] == junk
    assert all(p2.status[s] == REJECT for s in junk)
    assert all(p2.transcript[s] == b"\x99junk" for s in junk)
    assert p2.replay_events == []


def test_vdr_headerless_stages_interleave_with_real_stages():
    g = _game("vdr", 2)
    foreign = _game("v2", 0).oracle_send(1, 1, ("encrypt", 0, b"v2 payload"))
    e00 = g.oracle_send(1, 1, ("encrypt", 0, b"m0"))
    e01 = g.oracle_send(1, 1, ("encrypt", 0, b"m1"))
    for m in (b"\x99junk", e00, b"", e00, foreign, e01, b"\x99junk"):
        g.oracle_send(2, 1, m)
    p2 = g.sessions[(2, 1)]
    no_header = 1 << 32
    assert list(p2.status) == [(no_header, 0), (0, 0), (no_header, 1),
                               (no_header, 2), (0, 1), (no_header, 3)]
    assert [p2.status[s] for s in p2.status] == [
        REJECT, ACCEPT, REJECT, REJECT, ACCEPT, REJECT]
    assert p2.reject_reason[(no_header, 2)] == "ParseError"
    assert p2.transcript[(no_header, 3)] == b"\x99junk"
    # the duplicate is a replay of (0,0), not a headerless stage
    assert p2.replay_events == [((0, 0), "ReplayRejected")]
    # a forged header at the top u32 epoch keeps its own stage and takes
    # no headerless number
    env = decode_envelope(e01)
    forged = dataclasses.replace(
        env, j_index=9, nonce_material=b"\xff" * 4 + env.nonce_material[4:])
    g.oracle_send(2, 1, encode_envelope(forged))
    g.oracle_send(2, 1, b"\x99junk")
    assert list(p2.status)[-2:] == [(0xFFFFFFFF, 9), (no_header, 4)]
    assert p2.reject_reason[(0xFFFFFFFF, 9)] == "AuthFailure"
    assert len(p2.replay_events) == 1


def test_vdr_forged_header_at_the_top_epoch_is_not_a_replay_of_junk():
    g, e00, _ = vdr_game()
    g.oracle_send(2, 1, b"\x99junk")
    env = decode_envelope(e00)
    forged = dataclasses.replace(
        env, j_index=0, nonce_material=b"\xff" * 4 + env.nonce_material[4:])
    g.oracle_send(2, 1, encode_envelope(forged))
    p2 = g.sessions[(2, 1)]
    assert list(p2.status)[-2:] == [(1 << 32, 0), (0xFFFFFFFF, 0)]
    assert p2.status[(0xFFFFFFFF, 0)] == REJECT
    assert p2.reject_reason[(0xFFFFFFFF, 0)] == "AuthFailure"
    assert p2.replay_events == []


def test_vdr_lazy_responder_init_paths():
    g = _game("vdr", 0)
    e00 = g.oracle_send(1, 1, ("encrypt", 0, b"m0"))
    e01 = g.oracle_send(1, 1, ("encrypt", 0, b"m1"))
    # a fresh responder session can lazily init from any epoch-0 envelope
    g.oracle_send(2, 2, (1, ROLE_RESPONDER))
    g.oracle_send(2, 2, e01)
    assert g.sessions[(2, 2)].status[(0, 1)] == ACCEPT
    g.oracle_send(2, 1, e00)
    reply = g.oracle_send(2, 1, ("encrypt", 0, b"r0"))
    # but not from a later-epoch one
    g.oracle_send(2, 3, (1, ROLE_RESPONDER))
    g.oracle_send(2, 3, reply)
    assert g.sessions[(2, 3)].status[(1, 0)] == REJECT
    # an initiator session that has not sent yet has no chain to open with
    g.oracle_send(1, 2, (2, ROLE_INITIATOR))
    g.oracle_send(1, 2, reply)
    assert g.sessions[(1, 2)].status[(1, 0)] == REJECT
    assert g.sessions[(1, 2)].reject_reason[(1, 0)] == "NotInitialized"


def test_envelope_of_another_family_is_rejected_as_a_parse_error():
    v2_env = _game("v2", 0).oracle_send(1, 1, ("encrypt", 0, b"v2 payload"))
    g = Game("vdr")
    g.oracle_send(2, 1, (1, ROLE_RESPONDER))
    g.oracle_send(2, 1, v2_env)
    rec = g.sessions[(2, 1)]
    assert rec.status == {(1 << 32, 0): REJECT}
    assert rec.reject_reason[(1 << 32, 0)] == "ParseError"
    assert rec.ep.session is None
    assert "stage=4294967296,0 reject" in g.trace


def test_vdr_initiator_draws_its_ephemeral_at_first_send():
    g = Game("vdr", seed=9)
    g.oracle_send(1, 1, (2, ROLE_INITIATOR))
    with pytest.raises(StageUnknown):
        g.oracle_rev_rand(1, 1, (0, 0))
    env = decode_envelope(g.oracle_send(1, 1, ("encrypt", 0, b"payload")))
    # the keygen draw of the epoch-0 ephemeral, then the nonce draw
    rand = g.oracle_rev_rand(1, 1, (0, 0))
    assert len(rand) == 36
    assert cs.dh_to_public(cs.clamp_scalar(rand[:32])) == env.eph_pub
    assert rand[32:] == env.nonce_material[4:]


def test_vdr_responder_cannot_send_before_its_first_open():
    g = Game("vdr")
    g.oracle_send(2, 1, (1, ROLE_RESPONDER))
    with pytest.raises(NotInitialized):
        g.oracle_send(2, 1, ("encrypt", 0, b"too early"))
    assert g.sessions[(2, 1)].status == {}


def test_vdr_two_sessions_per_party_agree_with_their_peers():
    g = Game("vdr", seed=3)
    pairs = [((1, 1), (2, 1)), ((1, 2), (2, 2))]
    for (u, i), (v, k) in pairs:
        g.oracle_send(u, i, (v, ROLE_INITIATOR))
        g.oracle_send(v, k, (u, ROLE_RESPONDER))
    # each party's two sessions take turns drawing from its one rng
    for sender_side in (0, 1, 0):
        for pair in pairs:
            (u, i), (v, k) = pair[sender_side], pair[1 - sender_side]
            for n in range(2):
                raw = g.oracle_send(u, i, ("encrypt", 0, b"msg %d" % n))
                g.oracle_send(v, k, raw)
    for a, b in pairs:
        ra, rb = g.sessions[a], g.sessions[b]
        assert set(ra.status) == set(rb.status) == {
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)}
        assert set(ra.status.values()) == set(rb.status.values()) == {ACCEPT}
        assert ra.key == rb.key
    assert g.sessions[(1, 1)].key[(0, 0)] != g.sessions[(1, 2)].key[(0, 0)]


def test_query_trace_records_oracles():
    g, _, _ = v2_game()
    g.oracle_rev_ltk(1)
    g.oracle_test(1, 1, 1)
    assert "RevLongTermKey u=1" in g.trace
    assert "Test u=1 i=1 s=1" in g.trace
    assert "Send u=1 i=1 activate" in g.trace
    text = g.trace.export()
    assert text.endswith("\n") and len(text.splitlines()) == len(g.trace.lines)


def test_attack_and_scripted_game_traces_match_the_frozen_file():
    assert helpers.attack_trace_text() == helpers.ATTACK_TRACE_FILE.read_text()


def test_trace_keeps_what_rev_rand_returned_before_the_stage_grew():
    g = helpers.scripted_game()
    rand = [line for line in g.trace.lines
            if line.startswith("RevRand u=2 i=1 s=1,0 ")]
    full = g.sessions[(2, 1)].rand_log[(1, 0)]
    assert len(full) == 36  # the reply ephemeral, then the nonce draw
    assert rand == [f"RevRand u=2 i=1 s=1,0 -> rand#{game_module._digest(r)}"
                    for r in (full[:32], full)]
    # the bytearray plaintext was changed after its Send
    assert f"pt#{game_module._digest(b'second')} " in g.trace


def test_trace_digests_nothing_until_read(monkeypatch):
    calls = []

    def counted(data):
        calls.append(len(data))
        return digest(data)

    digest = game_module._digest
    monkeypatch.setattr(game_module, "_digest", counted)
    # bursts of 4: epochs turn
    g = _game("vdr", 6, [(1 if n // 4 % 2 == 0 else 2, b"m%d" % n)
                         for n in range(200)])
    assert calls == []
    text = g.trace.export()
    # pt and env per encrypt, env per deliver: each entry renders once
    assert len(calls) == 3 * 200
    assert len(text.splitlines()) == 2 + 2 * 200
    # an entry added after a read renders nothing until the next read
    calls.clear()
    g.oracle_rev_state(2, 1, (0, 0))
    assert calls == []
    assert g.trace.lines[-1].startswith("RevState u=2 i=1 s=0,0 -> snap#")


def test_v2_envelopes_match_direct_library_use():
    g = _game("v2", 9)
    raw = g.oracle_send(1, 1, ("encrypt", 1, b"payload"))

    proto = cs.SeededRng(9).fork(b"protocol")
    rng1 = proto.fork(b"party-1")
    rng2 = proto.fork(b"party-2")
    sk1, pk1 = cs.dh_keygen(rng1)
    sk2, pk2 = cs.dh_keygen(rng2)
    sa = v2_establish(sk1, pk2, kid_self=1, kid_peer=2,
                      sid="party-1", rid="party-2")
    assert encode_envelope(v2_encrypt(sa, 1, b"payload", rng1)) == raw


def test_vdr_envelopes_match_direct_library_use():
    g = Game("vdr", seed=9)
    g.oracle_send(1, 1, (2, ROLE_INITIATOR))
    raw = g.oracle_send(1, 1, ("encrypt", 0, b"payload"))

    proto = cs.SeededRng(9).fork(b"protocol")
    rng1 = proto.fork(b"party-1")
    rng2 = proto.fork(b"party-2")
    sk1, pk1 = cs.dh_keygen(rng1)
    sk2, pk2 = cs.dh_keygen(rng2)
    st = vdr_init_sender(sk1, pk2, rng1, kid_self=1, kid_peer=2)
    assert encode_envelope(vdr_encrypt(st, 0, b"payload", rng1)) == raw


# -- hand-derived freshness verdicts ----------------------------------------

@pytest.mark.parametrize("row", truth_tables.V2_ROWS, ids=lambda r: r.label)
def test_v2_freshness_truth_table(row):
    assert truth_tables.check_row(row, "v2") == []


@pytest.mark.parametrize("row", truth_tables.V2_MATCH_ROWS, ids=lambda r: r.label)
def test_v2_matching_truth_table(row):
    assert truth_tables.check_match_row(row) == []


@pytest.mark.parametrize("row", truth_tables.VDR_ROWS, ids=lambda r: r.label)
def test_vdr_freshness_truth_table(row):
    assert truth_tables.check_row(row, "vdr") == []
