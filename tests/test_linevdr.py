import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import helpers
from letterseal import crypto_suite as cs
from letterseal.errors import (
    AuthFailure,
    CounterExhausted,
    DhError,
    NotInitialized,
    ParseError,
    ReplayRejected,
    SkipLimit,
    StaleEpoch,
)
from letterseal.linevdr import (
    MAX_SKIP,
    RatchetState,
    vdr_decrypt,
    vdr_encrypt,
    vdr_export_state,
    vdr_import_state,
    vdr_init_sender,
    vdr_lazy_init_receiver,
)
from letterseal.wire import decode_envelope, encode_envelope

REF = helpers.load_reference()


def pending_conversation(seed):
    """Initiator plus a responder that already consumed the first message
    and holds its reply pending: drawn, its chain not yet built."""
    sta, mats, a_rng, b_rng = helpers.vdr_pair(seed)
    opener = vdr_encrypt(sta, 0, b"opening flight", a_rng)
    stb = helpers.vdr_receiver(mats, opener)
    assert vdr_decrypt(stb, opener, b_rng) == b"opening flight"
    assert stb.reply_secret is not None and stb.ck_send is None
    return sta, stb, a_rng, b_rng


def fresh_conversation(seed):
    """pending_conversation with the responder's reply chain built, by an
    export: both parties hold every chain they can."""
    sta, stb, a_rng, b_rng = pending_conversation(seed)
    vdr_export_state(stb)
    return sta, stb, a_rng, b_rng


def test_epoch_walk_and_indices():
    sta, stb, a_rng, b_rng = fresh_conversation(301)
    assert (sta.i_s, sta.j_s) == (0, 1)
    assert (stb.i_s, stb.j_s) == (1, 0)
    e10 = vdr_encrypt(stb, 0, b"reply", b_rng)
    assert (e10.i_index, e10.j_index) == (1, 0)
    assert vdr_decrypt(sta, e10, a_rng) == b"reply"
    assert sta.i_s == 2  # receiving a new epoch arms the next one
    e20 = vdr_encrypt(sta, 0, b"third epoch", a_rng)
    assert (e20.i_index, e20.j_index) == (2, 0)
    assert vdr_decrypt(stb, e20, b_rng) == b"third epoch"


def test_multi_message_epochs():
    sta, stb, a_rng, b_rng = fresh_conversation(302)
    for j in range(1, 4):
        env = vdr_encrypt(sta, 0, b"epoch0 j%d" % j, a_rng)
        assert (env.i_index, env.j_index) == (0, j)
        assert vdr_decrypt(stb, env, b_rng) == b"epoch0 j%d" % j


def test_out_of_order_within_epoch_uses_cached_keys():
    sta, stb, a_rng, b_rng = fresh_conversation(303)
    envs = [vdr_encrypt(sta, 0, b"ooo %d" % j, a_rng) for j in range(1, 5)]
    last = envs[-1]
    assert vdr_decrypt(stb, last, b_rng) == b"ooo 4"
    assert set(stb.skipped) == {(0, 1), (0, 2), (0, 3)}
    for env, j in ((envs[1], 2), (envs[0], 1), (envs[2], 3)):
        assert vdr_decrypt(stb, env, b_rng) == b"ooo %d" % j
    assert not stb.skipped  # cached keys are single-use


def test_cross_epoch_catchup():
    # an entire missed epoch is recovered once the next epoch arrives
    sta, stb, a_rng, b_rng = fresh_conversation(304)
    e10 = vdr_encrypt(stb, 0, b"missed 0", b_rng)
    e11 = vdr_encrypt(stb, 0, b"missed 1", b_rng)
    assert vdr_decrypt(sta, e11, a_rng) == b"missed 1"
    assert (1, 0) in sta.skipped
    assert vdr_decrypt(sta, e10, a_rng) == b"missed 0"


def test_replay_rejected_for_live_and_cached_paths():
    sta, stb, a_rng, b_rng = fresh_conversation(305)
    env = vdr_encrypt(sta, 0, b"once only", a_rng)
    assert vdr_decrypt(stb, env, b_rng) == b"once only"
    with pytest.raises(ReplayRejected):
        vdr_decrypt(stb, env, b_rng)
    # a skipped-then-consumed stage is equally dead
    e2 = vdr_encrypt(sta, 0, b"skip a", a_rng)
    e3 = vdr_encrypt(sta, 0, b"skip b", a_rng)
    assert vdr_decrypt(stb, e3, b_rng) == b"skip b"
    assert vdr_decrypt(stb, e2, b_rng) == b"skip a"
    with pytest.raises(ReplayRejected):
        vdr_decrypt(stb, e2, b_rng)


def test_stale_epoch_without_cached_key():
    sta, stb, a_rng, b_rng = fresh_conversation(306)
    e01 = vdr_encrypt(sta, 0, b"left behind", a_rng)
    e10 = vdr_encrypt(stb, 0, b"advance", b_rng)
    assert vdr_decrypt(sta, e10, a_rng) == b"advance"
    e20 = vdr_encrypt(sta, 0, b"two ahead", a_rng)
    assert vdr_decrypt(stb, e20, b_rng) == b"two ahead"
    # stb's receive chain now sits at epoch 2; epoch 0 was fully consumed
    # except (0,1), which was never cached because it was never skipped over
    with pytest.raises(StaleEpoch):
        vdr_decrypt(stb, e01, b_rng)


def test_evicted_skip_key_leaves_stage_unreachable():
    # overflow the skip cache by one; the oldest cached key is dropped and
    # its stage lands behind the chain with nothing to open it
    sta, stb, a_rng, b_rng = fresh_conversation(307)
    envs = [vdr_encrypt(sta, 0, b"j=%d" % j, a_rng)
            for j in range(1, MAX_SKIP + 4)]
    # gap of exactly MAX_SKIP: caches keys for j=1..MAX_SKIP
    assert vdr_decrypt(stb, envs[MAX_SKIP], b_rng) == b"j=%d" % (MAX_SKIP + 1)
    assert len(stb.skipped) == MAX_SKIP
    # one more skip overflows the cache and drops (0,1)
    assert vdr_decrypt(stb, envs[MAX_SKIP + 2], b_rng) == b"j=%d" % (MAX_SKIP + 3)
    assert len(stb.skipped) == MAX_SKIP
    assert (0, 1) not in stb.skipped
    assert (0, MAX_SKIP + 2) in stb.skipped
    with pytest.raises(ReplayRejected):
        vdr_decrypt(stb, envs[0], b_rng)
    assert vdr_decrypt(stb, envs[1], b_rng) == b"j=2"


def test_skip_limit_boundary():
    sta, stb, a_rng, b_rng = fresh_conversation(308)
    # j_r sits at 1; a gap of exactly MAX_SKIP derivations is allowed
    for _ in range(MAX_SKIP):
        vdr_encrypt(sta, 0, b"burned", a_rng)
    at_limit = vdr_encrypt(sta, 0, b"at the limit", a_rng)
    assert at_limit.j_index - stb.j_r == MAX_SKIP
    assert vdr_decrypt(stb, at_limit, b_rng) == b"at the limit"
    sta2, stb2, a2_rng, b2_rng = fresh_conversation(309)
    for _ in range(MAX_SKIP + 1):
        vdr_encrypt(sta2, 0, b"burned", a2_rng)
    past_limit = vdr_encrypt(sta2, 0, b"past the limit", a2_rng)
    with pytest.raises(SkipLimit):
        vdr_decrypt(stb2, past_limit, b2_rng)


def test_auth_failure_leaves_state_untouched():
    sta, stb, a_rng, b_rng = fresh_conversation(310)
    env = vdr_encrypt(sta, 0, b"will be tampered", a_rng)
    ct = bytearray(env.ciphertext)
    ct[0] ^= 1
    before = vdr_export_state(stb)
    with pytest.raises(AuthFailure):
        vdr_decrypt(stb, dataclasses.replace(env, ciphertext=bytes(ct)), b_rng)
    assert vdr_export_state(stb) == before
    assert vdr_decrypt(stb, env, b_rng) == b"will be tampered"


def test_responder_cannot_send_before_first_decrypt():
    sta, mats, a_rng, b_rng = helpers.vdr_pair(311)
    opener = vdr_encrypt(sta, 0, b"hello", a_rng)
    stb = helpers.vdr_receiver(mats, opener)
    with pytest.raises(NotInitialized):
        vdr_encrypt(stb, 0, b"too soon", b_rng)


def test_send_index_stops_before_the_u32_limit():
    sta, stb, a_rng, b_rng = fresh_conversation(327)
    sta = dataclasses.replace(sta, j_s=0xFFFFFFFE)  # the last index to send
    last = vdr_encrypt(sta, 0, b"last", a_rng)
    assert last.j_index == 0xFFFFFFFE and sta.j_s == 0xFFFFFFFF
    before = vdr_export_state(sta)
    with cs.Recorder() as seen, pytest.raises(CounterExhausted):
        vdr_encrypt(sta, 0, b"one too many", a_rng)
    assert (seen.draws, vdr_export_state(sta)) == ([], before)


def test_lazy_receiver_requires_epoch_zero():
    sta, mats, a_rng, b_rng = helpers.vdr_pair(312)
    opener = vdr_encrypt(sta, 0, b"opening flight", a_rng)
    stb = helpers.vdr_receiver(mats, opener)
    vdr_decrypt(stb, opener, b_rng)
    e10 = vdr_encrypt(stb, 0, b"later epoch", b_rng)
    with pytest.raises(StaleEpoch):
        helpers.vdr_receiver(mats, e10)


def test_tampered_opening_flight_fails_cleanly():
    sta, mats, a_rng, b_rng = helpers.vdr_pair(313)
    opener = vdr_encrypt(sta, 0, b"hello", a_rng)
    eph = bytearray(opener.eph_pub)
    eph[0] ^= 1
    forged = dataclasses.replace(opener, eph_pub=bytes(eph))
    stb = helpers.vdr_receiver(mats, forged)
    with pytest.raises(AuthFailure):
        vdr_decrypt(stb, forged, b_rng)


def test_export_import_roundtrip_continues_identically():
    sta, stb, a_rng, b_rng = fresh_conversation(314)
    e1 = vdr_encrypt(sta, 0, b"skipme", a_rng)
    e2 = vdr_encrypt(sta, 0, b"current", a_rng)
    assert vdr_decrypt(stb, e2, b_rng) == b"current"  # leaves (0,1) skipped
    snap = vdr_export_state(stb)
    clone = vdr_import_state(snap)
    assert vdr_export_state(clone) == snap
    # both copies accept the skipped message, then agree on the next epoch
    assert vdr_decrypt(clone, e1, cs.SeededRng(0)) == b"skipme"
    assert vdr_decrypt(stb, e1, cs.SeededRng(0)) == b"skipme"
    assert vdr_export_state(clone) == vdr_export_state(stb)
    reply = vdr_encrypt(clone, 0, b"from the clone", cs.SeededRng(1))
    assert vdr_decrypt(sta, reply, a_rng) == b"from the clone"


def test_golden_snapshots_frozen():
    assert helpers.golden_snapshot_text() == helpers.SNAPSHOT_FILE.read_text()


def test_golden_snapshots_cover_optional_fields_cache_and_turns():
    snaps = {name: vdr_import_state(raw) for name, raw
             in helpers.parse_golden_file(helpers.SNAPSHOT_FILE).items()}
    fresh = snaps["initiator-unanswered"]
    assert fresh.ck_recv is None and fresh.peer_eph_pub is None
    assert fresh.ck_send is not None and fresh.self_eph is not None
    assert sorted(snaps["responder-skipped"].skipped) == [(0, 0), (0, 1)]
    assert (snaps["initiator-two-turns"].i_r,
            snaps["initiator-two-turns"].i_s) == (3, 4)


@pytest.mark.parametrize("name", sorted(
    helpers.parse_golden_file(helpers.SNAPSHOT_FILE)))
def test_golden_snapshot_import_export_round_trips(name):
    raw = helpers.parse_golden_file(helpers.SNAPSHOT_FILE)[name]
    assert vdr_export_state(vdr_import_state(raw)) == raw


def test_golden_snapshots_import_the_public_of_their_secret():
    # the snapshot stores the scalar alone, so no public can disagree with it
    for raw in helpers.parse_golden_file(helpers.SNAPSHOT_FILE).values():
        eph = vdr_import_state(raw).self_eph
        assert eph is not None
        assert eph.public == REF.x25519_public(eph.secret)


def test_snapshot_truncation_at_every_prefix():
    raw = helpers.parse_golden_file(helpers.SNAPSHOT_FILE)["responder-skipped"]
    for n in range(len(raw)):
        with pytest.raises(ParseError, match="^truncated while reading"):
            vdr_import_state(raw[:n])


def test_import_rejects_garbage():
    with pytest.raises(ParseError):
        vdr_import_state(b"not a snapshot")
    sta, _, _, _ = helpers.vdr_pair(315)
    snap = vdr_export_state(sta)
    with pytest.raises(ParseError):
        vdr_import_state(snap[:-4])
    assert vdr_import_state(snap) == sta


def test_ratchet_state_has_no_room_for_a_hook():
    # slotted: a stray attribute is refused, not silently kept
    sta, _, _, _ = helpers.vdr_pair(316)
    with pytest.raises(AttributeError):
        sta.observer = object()


def test_ratchet_state_stores_no_send_epoch():
    # i_s is read off the receive position, so nothing can set it apart
    assert "i_s" not in {f.name for f in dataclasses.fields(RatchetState)}
    sta, stb, a_rng, b_rng = pending_conversation(317)
    assert (sta.ck_recv, sta.i_r, sta.i_s) == (None, 0, 0)
    assert (stb.i_r, stb.i_s) == (0, 1)
    vdr_decrypt(sta, vdr_encrypt(stb, 0, b"reply", b_rng), a_rng)
    assert (sta.i_r, sta.i_s) == (1, 2)
    with pytest.raises(AttributeError):
        sta.i_s = 7


def test_message_key_differs_from_chain_key():
    sta, mats, a_rng, b_rng = helpers.vdr_pair(316)
    with cs.Recorder() as sent:
        env = vdr_encrypt(sta, 0, b"observed", a_rng)
    mk, = sent.keys
    assert bytes(mk) != bytes(sta.ck_send)
    stb = helpers.vdr_receiver(mats, env)
    with cs.Recorder() as received:
        assert vdr_decrypt(stb, env, b_rng) == b"observed"
    assert received.keys == [mk]


def test_seal_builds_a_12_byte_nonce_from_the_header(monkeypatch):
    sta, _, a_rng, _ = helpers.vdr_pair(317)
    seen = []
    seal = cs.aead_seal
    monkeypatch.setattr(cs, "aead_seal",
                        lambda k, n, m, ad: seen.append(n) or seal(k, n, m, ad))
    env = vdr_encrypt(sta, 0, b"nonce", a_rng)
    nonce, = seen
    assert type(nonce) is cs.AeadNonce and len(nonce) == 12
    assert nonce == env.nonce_material + bytes(4)


def test_ad_binds_ratchet_header():
    # a live-epoch open reads neither kid nor the ephemeral, so only the AD
    # refuses their rewrite; j_index also picks the message key
    sta, stb, a_rng, b_rng = fresh_conversation(317)
    env = vdr_encrypt(sta, 5, b"header bound", a_rng)
    assert env.i_index == stb.i_r
    before = vdr_export_state(stb)
    for change in (dict(kid_sender=99), dict(kid_receiver=98), dict(ctype=6),
                   dict(eph_pub=bytes([env.eph_pub[0] ^ 1]) + env.eph_pub[1:]),
                   dict(j_index=env.j_index + 1)):
        with cs.Recorder() as seen, pytest.raises(AuthFailure):
            vdr_decrypt(stb, dataclasses.replace(env, **change), b_rng)
        assert (seen.draws, vdr_export_state(stb)) == ([], before), change
    assert vdr_decrypt(stb, env, b_rng) == b"header bound"


def _conversation(switch_at=None):
    """Eight alternating two-message flights over one vdr_pair, A first;
    from the open of flight switch_at on, B's calls take another rng
    stream. Per flight: its envelopes, their ephemeral, and the sender's
    root and sending chain key after it."""
    sta, mats, a_rng, b_rng = helpers.vdr_pair(340)
    states, rngs = [sta, None], [a_rng, b_rng]
    flights = []
    for f in range(8):
        sender = states[f % 2]
        envs = [vdr_encrypt(sender, 0, b"flight %d" % f, rngs[f % 2])
                for _ in range(2)]
        if states[1] is None:
            states[1] = helpers.vdr_receiver(mats, envs[0])
        if f == switch_at:
            rngs[1] = cs.SeededRng(341)
        for env in envs:
            assert vdr_decrypt(states[1 - f % 2], env,
                               rngs[1 - f % 2]) == b"flight %d" % f
        flights.append({"envelopes": [encode_envelope(e) for e in envs],
                        "eph_pub": envs[0].eph_pub, "rk": sender.rk,
                        "ck_send": sender.ck_send})
    return flights


@pytest.mark.parametrize("k", range(3))
def test_fresh_randomness_enters_every_reply_epoch(k):
    # B draws its k-th flight's ephemeral at the open before it, so from
    # that flight on neither party's keys follow from the states before it
    same, forked = _conversation(), _conversation(switch_at=2 * k)
    assert same[:2 * k + 1] == forked[:2 * k + 1]
    for f in range(2 * k + 1, 8):
        for name in ("rk", "ck_send") + (("eph_pub",) if f % 2 else ()):
            assert same[f][name] != forked[f][name], (f, name)


# -- held ephemeral key pair ----------------------------------------------------


@pytest.mark.parametrize("tamper,error", [
    (lambda env: dataclasses.replace(
        env, ciphertext=bytes([env.ciphertext[0] ^ 1]) + env.ciphertext[1:]),
     AuthFailure),
    (lambda env: dataclasses.replace(env, eph_pub=bytes(32)), DhError),
])
def test_failed_turn_decrypt_leaves_state_untouched(tamper, error):
    # the ratchet DH runs before the tag check, on the held key object
    sta, stb, a_rng, b_rng = fresh_conversation(318)
    turn = vdr_encrypt(stb, 0, b"turns the epoch", b_rng)
    assert turn.i_index > sta.i_r
    eph = sta.self_eph
    assert eph is not None
    before = vdr_export_state(sta)
    with pytest.raises(error):
        vdr_decrypt(sta, tamper(turn), a_rng)
    assert vdr_export_state(sta) == before
    assert sta.self_eph is eph
    assert vdr_decrypt(sta, turn, a_rng) == b"turns the epoch"
    assert sta.self_eph is not eph


def test_held_key_tracks_secret_across_export_import(monkeypatch):
    built = helpers.count_key_objects(monkeypatch)
    live = list(fresh_conversation(319))      # never imported
    twin = list(fresh_conversation(319))      # exported and imported midway
    worlds = (live, twin)
    for turn in range(8):
        if turn == 4:
            for k in (0, 1):
                twin[k] = vdr_import_state(vdr_export_state(twin[k]))
                assert twin[k] == live[k]  # the key object is not compared
        s, r = (1, 0) if turn % 2 == 0 else (0, 1)
        text = b"turn %d" % turn
        for world in worlds:
            env = vdr_encrypt(world[s], 0, text, world[2 + s])
            assert env.eph_pub == world[s].self_eph.public
            assert env.i_index > world[r].i_r
            built.clear()
            with cs.count_ops() as counts:
                vdr_decrypt(world[r], env, world[2 + r])
            # the turn's exchange on the held key; the reply waits
            assert (counts.dh, built) == (1, [])
            assert world[r].self_eph is None
        for k in (0, 1):
            built.clear()
            assert vdr_export_state(twin[k]) == vdr_export_state(live[k])
            # the first export of the reply epoch builds its pair
            assert built == ([bytes(live[r].self_eph.secret)] * 2
                             if k == r else [])
    for st in live[:2]:
        assert repr(st.self_eph.secret.key) not in repr(st)


def test_ratchet_steps_build_each_key_object_once(monkeypatch):
    built = helpers.count_key_objects(monkeypatch)
    sta, mats, a_rng, b_rng = helpers.vdr_pair(320)
    # two long-term keygens and the ephemeral; the static exchange uses
    # the object A's keygen scalar holds
    assert len(built) == 3
    opener = vdr_encrypt(sta, 0, b"hello", a_rng)
    built.clear()
    stb = helpers.vdr_receiver(mats, opener)
    assert built == []  # B's keygen scalar holds its object, for two exchanges
    built.clear()
    assert vdr_decrypt(stb, opener, b_rng) == b"hello"
    assert built == []  # the reply waits for its first seal
    reply = vdr_encrypt(stb, 0, b"reply", b_rng)
    assert built == [bytes(stb.self_eph.secret)]  # the reply keygen only
    built.clear()
    assert vdr_decrypt(sta, reply, a_rng) == b"reply"
    assert built == []  # the turn reuses the held key
    snapshot = vdr_export_state(stb)
    built.clear()
    clone = vdr_import_state(snapshot)
    assert built == [bytes(stb.self_eph.secret)]  # the stored ephemeral's
    built.clear()
    env = vdr_encrypt(sta, 0, b"after import", a_rng)
    assert built == [bytes(sta.self_eph.secret)]  # its reply, at its seal
    built.clear()
    assert vdr_decrypt(clone, env, b_rng) == b"after import"
    assert built == []  # as a live turn
    vdr_export_state(clone)
    assert built == [bytes(clone.self_eph.secret)]  # the reply, at export


# (sender, party resumed before the flight or None); A sends first
_FLIGHTS = hs.lists(hs.tuples(hs.sampled_from((0, 1)),
                              hs.sampled_from((None, 0, 1))),
                    min_size=1, max_size=8)


@settings(max_examples=40, deadline=None)
@given(flights=_FLIGHTS, seed=hs.integers(0, 2**16))
def test_resumed_party_turns_as_one_never_exported(flights, seed):
    """Two worlds from one seed play the same sender pattern; in the
    second, a party may be exported and imported again before any
    flight. Every envelope and snapshot stays byte-identical, an import
    builds its stored ephemeral's object, an open builds none, and the
    export after an open that starts a reply epoch, in either world,
    builds one: the reply ephemeral's."""
    worlds = []
    for _ in range(2):
        sta, mats, a_rng, b_rng = helpers.vdr_pair(seed)
        worlds.append(([sta, None], (a_rng, b_rng), mats))
    resumed = worlds[1][0]
    with pytest.MonkeyPatch.context() as patch:
        built = helpers.count_key_objects(patch)
        for n, (sender, resume) in enumerate(flights):
            if n == 0:
                sender = 0
            if resume is not None and resumed[resume] is not None:
                built.clear()
                resumed[resume] = vdr_import_state(
                    vdr_export_state(resumed[resume]))
                assert built == [bytes(resumed[resume].self_eph.secret)]
            sent = []
            for states, rngs, mats in worlds:
                text = b"flight %d" % n
                env = vdr_encrypt(states[sender], 0, text, rngs[sender])
                sent.append(encode_envelope(env))
                if states[1] is None:
                    states[1] = helpers.vdr_receiver(mats, env)
                receiver = states[1 - sender]
                turns = (receiver.ck_send is None
                         or env.i_index > receiver.i_r)
                built.clear()
                assert vdr_decrypt(receiver, env, rngs[1 - sender]) == text
                assert built == []
                assert (receiver.reply_secret is not None) == turns
            assert sent[0] == sent[1]
            assert ([vdr_export_state(st) for st in worlds[0][0]]
                    == [vdr_export_state(st) for st in resumed])
            assert built == ([bytes(resumed[1 - sender].self_eph.secret)] * 2
                             if turns else [])


@pytest.mark.parametrize("first", ["seal", "export"])
def test_responder_that_only_receives_builds_no_reply(monkeypatch, first):
    built = helpers.count_key_objects(monkeypatch)
    sta, mats, a_rng, b_rng = helpers.vdr_pair(332)
    opener = vdr_encrypt(sta, 0, b"hello", a_rng)
    built.clear()
    with cs.count_ops() as counts:
        stb = helpers.vdr_receiver(mats, opener)
        assert vdr_decrypt(stb, opener, b_rng) == b"hello"
    # set-up's two exchanges alone: no keygen, no reply exchange or root,
    # and no key object, since B's keygen scalar holds its own
    assert (counts.dh, counts.kdf, built) == (2, 2, [])
    assert stb.self_eph is None and stb.ck_send is None
    built.clear()
    with cs.count_ops() as counts:
        if first == "seal":
            vdr_encrypt(stb, 0, b"reply", b_rng)
        else:
            vdr_export_state(stb)
    # one pair, counted as the keygen, and one exchange
    assert (counts.dh, built) == (2, [bytes(stb.self_eph.secret)])
    assert stb.reply_secret is None


_SENDERS = hs.lists(hs.sampled_from((0, 1)), min_size=1, max_size=10)


@settings(max_examples=40, deadline=None)
@given(senders=_SENDERS, seed=hs.integers(0, 2**16))
def test_reply_built_at_the_open_or_at_the_seal_seals_alike(senders, seed):
    """Two worlds from one seed play the same flights; the first exports
    each receiver after every open, so its replies are built at the open,
    and the second never exports, so each is built at its seal. Every
    envelope and every final snapshot is byte-identical."""
    worlds = []
    for export_each_open in (True, False):
        states, mats, a_rng, b_rng = helpers.vdr_pair(seed)
        states, rngs, sent = [states, None], (a_rng, b_rng), []
        for n, sender in enumerate(senders):
            sender = sender if n else 0  # A opens the conversation
            env = vdr_encrypt(states[sender], 0, b"flight %d" % n,
                              rngs[sender])
            sent.append(encode_envelope(env))
            if states[1] is None:
                states[1] = helpers.vdr_receiver(mats, env)
            receiver = states[1 - sender]
            assert vdr_decrypt(receiver, env, rngs[1 - sender]) \
                == b"flight %d" % n
            if export_each_open:
                vdr_export_state(receiver)
        worlds.append((sent, [vdr_export_state(st) for st in states]))
    assert worlds[0] == worlds[1]


def test_a_replaced_state_keeps_its_own_cache():
    # a responder at (0, 1) copied with dataclasses.replace; the copy
    # opens (0, 5) and caches (0, 1)-(0, 4) in a dict of its own, so the
    # original still exports the same snapshot, which still imports
    sta, mats, a_rng, b_rng = helpers.vdr_pair(7)
    envs = [vdr_encrypt(sta, 0, b"m%d" % j, a_rng) for j in range(6)]
    stb = helpers.vdr_receiver(mats, envs[0])
    assert vdr_decrypt(stb, envs[0], b_rng) == b"m0"
    assert (stb.i_r, stb.j_r) == (0, 1)
    before = vdr_export_state(stb)
    other = dataclasses.replace(stb)
    assert vdr_decrypt(other, envs[5], b_rng) == b"m5"
    assert sorted(other.skipped) == [(0, j) for j in range(1, 5)]
    assert vdr_import_state(vdr_export_state(stb)) == stb
    assert vdr_export_state(stb) == before and stb.skipped == {}


def _fields(st):
    """Every field of a state, its cache copied."""
    return {**{f.name: getattr(st, f.name)
               for f in dataclasses.fields(st)}, "skipped": dict(st.skipped)}


def test_turn_to_a_pending_reply_opens_as_on_the_built_twin():
    # B opens the opener and keeps its reply pending; its twin, a copy,
    # builds the same reply at its seal, A turns on it, and A's turn
    # reaches both
    sta, stb, a_rng, b_rng = pending_conversation(334)
    twin = dataclasses.replace(stb)
    twin_rng = cs.SeededRng(334)
    assert vdr_decrypt(sta, vdr_encrypt(twin, 0, b"reply", twin_rng),
                       a_rng) == b"reply"
    turn = vdr_encrypt(sta, 0, b"epoch 2", a_rng)
    assert (turn.i_index, stb.i_r, stb.i_s) == (2, 0, 1)
    flipped = dataclasses.replace(
        turn, ciphertext=bytes([turn.ciphertext[0] ^ 1]) + turn.ciphertext[1:])
    before = _fields(stb)
    with cs.Recorder() as seen:
        with pytest.raises(AuthFailure):
            vdr_decrypt(stb, flipped, b_rng)
        with pytest.raises(ValueError, match="ctype"):
            vdr_encrypt(stb, 256, b"refused", b_rng)
    assert _fields(stb) == before and seen.draws == []
    assert stb.self_eph is None  # no pair committed
    assert vdr_decrypt(stb, turn, cs.SeededRng(335)) == b"epoch 2"
    assert vdr_decrypt(twin, turn, cs.SeededRng(335)) == b"epoch 2"
    assert stb == twin and stb.reply_secret is not None
    assert vdr_export_state(stb) == vdr_export_state(twin)


# -- bounded state --------------------------------------------------------------

def _same_epoch_snapshot_len(messages):
    sta, stb, a_rng, b_rng = fresh_conversation(321)
    for _ in range(messages - 1):
        assert vdr_decrypt(stb, vdr_encrypt(sta, 0, b"m", a_rng), b_rng) == b"m"
    assert (stb.i_r, stb.j_r) == (0, messages)
    return len(vdr_export_state(stb))


def test_snapshot_size_does_not_grow_within_an_epoch():
    assert _same_epoch_snapshot_len(20_000) == _same_epoch_snapshot_len(1_000)


def test_snapshot_size_does_not_grow_with_epoch_turns():
    sta, stb, a_rng, b_rng = fresh_conversation(322)
    parties = [(sta, a_rng), (stb, b_rng)]
    base = None
    for turn in range(60):
        # b sends first: after two turns both parties hold every chain
        (s, s_rng), (r, r_rng) = parties[(turn + 1) % 2], parties[turn % 2]
        for _ in range(1 + turn % 4):
            env = vdr_encrypt(s, 0, b"turn %d" % turn, s_rng)
            assert vdr_decrypt(r, env, r_rng) == b"turn %d" % turn
        assert not r.skipped
        sizes = [len(vdr_export_state(st)) for st, _ in parties]
        if turn == 1:
            base = sizes
        elif turn > 1:
            assert sizes == base, turn
    assert sorted(st.i_r for st, _ in parties) == [59, 60]


def test_snapshot_with_a_full_cache_has_the_closed_form_size():
    # magic, flags, rk, two chains of a chain key and an ephemeral each,
    # three indices (no send epoch), two kids, cache count, then per cached
    # key its (i, j) and the key itself
    full = 4 + 1 + 5 * 32 + 12 + 8 + 2 + MAX_SKIP * (8 + 32)
    assert full == 187 + 40 * MAX_SKIP == 10_427
    sta, stb, a_rng, b_rng = fresh_conversation(327)
    # a reply first, so the jump that fills the cache also turns the epoch
    vdr_decrypt(sta, vdr_encrypt(stb, 0, b"reply", b_rng), a_rng)
    for jump in (MAX_SKIP, 5, MAX_SKIP):    # fill, then evict twice
        for _ in range(jump):
            vdr_encrypt(sta, 0, b"skipped", a_rng)
        assert vdr_decrypt(stb, vdr_encrypt(sta, 0, b"j", a_rng), b_rng) == b"j"
        assert len(stb.skipped) == MAX_SKIP
        assert len(vdr_export_state(stb)) == full


def _failed_decrypts():
    """label -> (receiver, rng, envelope, error), on a state that evicted
    a cached key and has turned its receive epoch since."""
    sta, stb, a_rng, b_rng = fresh_conversation(323)
    envs = [vdr_encrypt(sta, 0, b"j=%d" % j, a_rng)
            for j in range(1, MAX_SKIP + 5)]
    vdr_decrypt(stb, envs[MAX_SKIP], b_rng)
    vdr_decrypt(stb, envs[MAX_SKIP + 2], b_rng)       # evicts (0,1)
    vdr_decrypt(stb, envs[1], b_rng)                  # from the cache
    vdr_decrypt(sta, vdr_encrypt(stb, 0, b"turn", b_rng), a_rng)
    turn = vdr_encrypt(sta, 0, b"next epoch", a_rng)
    assert vdr_decrypt(stb, turn, b_rng) == b"next epoch"
    assert stb.skipped and (stb.i_r, stb.j_r) == (2, 1)
    later = vdr_encrypt(sta, 0, b"later", a_rng)
    bad_tag, cached_bad_tag = (
        dataclasses.replace(
            env, ciphertext=bytes([env.ciphertext[0] ^ 1]) + env.ciphertext[1:])
        for env in (later, envs[2]))
    assert (0, envs[2].j_index) in stb.skipped
    over_gap = dataclasses.replace(later, j_index=stb.j_r + MAX_SKIP + 1)
    low_order = dataclasses.replace(
        vdr_encrypt(stb, 0, b"turn", b_rng), eph_pub=bytes(32))
    # a responder set up from the opener that has not decrypted it yet
    # holds no ephemeral, so it cannot turn to epoch 2
    stc, mats, c_rng, d_rng = helpers.vdr_pair(3)
    opener = vdr_encrypt(stc, 0, b"opening flight", c_rng)
    lazy = helpers.vdr_receiver(mats, opener)
    live = helpers.vdr_receiver(mats, opener)
    vdr_decrypt(live, opener, d_rng)
    vdr_decrypt(stc, vdr_encrypt(live, 0, b"turn", d_rng), c_rng)
    epoch_2 = vdr_encrypt(stc, 0, b"epoch 2", c_rng)
    assert epoch_2.i_index == 2
    # an authentic turn to the top u32 epoch, whose reply epoch cannot fit
    ste, mats, e_rng, f_rng = helpers.vdr_pair(5)
    opener = vdr_encrypt(ste, 0, b"opening flight", e_rng)
    stf = helpers.vdr_receiver(mats, opener)
    vdr_decrypt(stf, opener, f_rng)
    vdr_decrypt(ste, vdr_encrypt(stf, 0, b"turn", f_rng), e_rng)
    ste = dataclasses.replace(ste, i_r=0xFFFFFFFE)  # send epoch 0xFFFFFFFF
    top_epoch = vdr_encrypt(ste, 0, b"top epoch", e_rng)
    assert top_epoch.i_index == 0xFFFFFFFF
    # an authentic envelope at the top u32 index, sealed by the reference
    # under the receive chain's key, as a revealed state lets anyone do:
    # the receive position past it cannot fit
    top = dataclasses.replace(stb, j_r=0xFFFFFFFF, skipped={})
    raw, _ = REF.vdr_seal(top.ck_recv, top.i_r, 0xFFFFFFFF, top.peer_eph_pub,
                          bytes(4), 0, b"top index", top.kid_peer,
                          top.kid_self)
    top_index = decode_envelope(raw)
    return {
        "bad tag": (stb, b_rng, bad_tag, AuthFailure),
        "bad tag at a cached stage": (stb, b_rng, cached_bad_tag, AuthFailure),
        "gap over MAX_SKIP": (stb, b_rng, over_gap, SkipLimit),
        "low-order eph_pub": (sta, a_rng, low_order, DhError),
        "replay": (stb, b_rng, turn, ReplayRejected),
        "replay of a cached stage": (stb, b_rng, envs[1], StaleEpoch),
        "stale evicted": (stb, b_rng, envs[0], StaleEpoch),
        "stale abandoned": (stb, b_rng, envs[MAX_SKIP + 3], StaleEpoch),
        "no local ephemeral": (lazy, d_rng, epoch_2, StaleEpoch),
        "turn to the top epoch": (stf, f_rng, top_epoch, StaleEpoch),
        "top receive index": (top, b_rng, top_index, CounterExhausted),
    }


@pytest.mark.parametrize("label", [
    "bad tag", "low-order eph_pub", "replay", "replay of a cached stage",
    "stale evicted", "stale abandoned", "no local ephemeral",
    "bad tag at a cached stage", "gap over MAX_SKIP",
    "turn to the top epoch", "top receive index"])
def test_failed_decrypt_leaves_snapshot_identical(label):
    st, rng, env, error = _failed_decrypts()[label]
    before, eph = vdr_export_state(st), st.self_eph
    with cs.Recorder() as seen, pytest.raises(error):
        vdr_decrypt(st, env, rng)
    assert vdr_export_state(st) == before
    assert st.self_eph is eph  # no pair built, none dropped
    assert seen.draws == []


def test_import_rejects_previous_snapshot_format():
    sta, stb, _, _ = fresh_conversation(324)
    snap = vdr_export_state(stb)
    assert snap[:4] == b"VDR6"
    for magic in (b"VDR1", b"VDR2", b"VDR3", b"VDR4", b"VDR5"):
        with pytest.raises(ParseError, match="bad magic"):
            vdr_import_state(magic + snap[4:])


def _with_skipped(st, n):
    """A copy of st holding n made-up skipped keys at (0, j < n), its
    receive chain moved past them as the walk that cached them would."""
    return dataclasses.replace(st, j_r=max(st.j_r, n), skipped={
        (0, j): cs.SymmetricKey(bytes([j % 256]) * 32) for j in range(n)})


def _caching(st, entries):
    """st's snapshot with its cache replaced by entries [(i, j, key)], in
    order, repeats included: bytes export never writes."""
    snap = vdr_export_state(dataclasses.replace(st, skipped={}))
    return snap[:-2] + len(entries).to_bytes(2, "big") + b"".join(
        i.to_bytes(4, "big") + j.to_bytes(4, "big") + key
        for i, j, key in entries)


def _malformed_snapshots():
    """label: (snapshot, what its ParseError says)"""
    _, stb, _, _ = fresh_conversation(325)
    snap = vdr_export_state(stb)
    key = bytes(32)
    return {
        "trailing byte": (snap + b"\x00", "1 trailing bytes"),
        "cached stage repeated": (
            _caching(stb, [(0, 0, key), (0, 0, key)]),
            r"stage \(0, 0\) twice"),
    }


@pytest.mark.parametrize("label", ["trailing byte", "cached stage repeated"])
def test_import_rejects_malformed_snapshot(label):
    snapshot, reason = _malformed_snapshots()[label]
    with pytest.raises(ParseError, match=reason):
        vdr_import_state(snapshot)


def test_import_refuses_a_cached_stage_that_would_open_twice():
    # B has opened m0; a cache entry for (0, 3) under its true key would
    # open m3 from the cache, and the walk to m5 would cache it again
    sta, mats, a_rng, b_rng = helpers.vdr_pair(3)
    envs = [vdr_encrypt(sta, 0, b"m%d" % n, a_rng) for n in range(8)]
    stb = helpers.vdr_receiver(mats, envs[0])
    assert vdr_decrypt(stb, envs[0], b_rng) == b"m0"
    assert (stb.i_r, stb.j_r, stb.skipped) == (0, 1, {})
    ck = stb.ck_recv
    for _ in range(3):  # the keys of (0, 1) and (0, 2), then of (0, 3)
        mk, ck = cs.kdf_chain(ck)
    with pytest.raises(ParseError, match=r"stage \(0, 3\), not behind"):
        vdr_import_state(_caching(stb, [(0, 3, mk)]))


@pytest.mark.parametrize("flags", range(4, 256), ids="0x{:02x}".format)
def test_import_refuses_an_unknown_flag_bit(flags):
    # bits 0 and 1 mark the two chains; the flags byte follows the magic
    snap = helpers.parse_golden_file(helpers.SNAPSHOT_FILE)["responder-skipped"]
    assert snap[4] == 0b11
    with pytest.raises(ParseError, match=f"^snapshot flags 0x{flags:02x} "):
        vdr_import_state(snap[:4] + bytes([flags]) + snap[5:])


# -- the state's rules ----------------------------------------------------------

# libsodium's blocklist of small-order X25519 encodings, bit 255 clear
_LOW_ORDER = [bytes.fromhex(h) for h in (
    "00" * 32, "01" + "00" * 31,
    "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
    "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
    "ec" + "ff" * 30 + "7f", "ed" + "ff" * 30 + "7f", "ee" + "ff" * 30 + "7f")]


_CHAINS = (("ck_send", "self_eph"),
           ("ck_recv", "peer_eph_pub"))  # flag bit k marks _CHAINS[k]


def _concatenated(fields):
    """A snapshot written out field by field, in the codec's order, from a
    state's fields (as _fields gives them), which need not make a state."""
    def u32(n):
        return n.to_bytes(4, "big")

    def written(name):  # the ephemeral's pair is written as its scalar
        value = fields[name]
        return value.secret if name == "self_eph" else value
    set_chains = [k for k, (ck, _) in enumerate(_CHAINS)
                  if fields[ck] is not None]
    return b"".join([
        b"VDR6", bytes([sum(1 << k for k in set_chains)]), fields["rk"],
        *[written(name) for k in set_chains for name in _CHAINS[k]],
        u32(fields["j_s"]), u32(fields["i_r"]), u32(fields["j_r"]),
        u32(fields["kid_self"]), u32(fields["kid_peer"]),
        len(fields["skipped"]).to_bytes(2, "big"),
        *[u32(i) + u32(j) + key for (i, j), key in fields["skipped"].items()]])


def _low_order_point(point, bit_255):
    """_LOW_ORDER[point] with bit 255, which X25519 drops, set to bit_255."""
    u = _LOW_ORDER[point]
    return cs.GroupElement(u[:31] + bytes([u[31] | bit_255 << 7]))


_NO_SEND = {"ck_send": None, "self_eph": None}
_NO_RECV = {"ck_recv": None, "peer_eph_pub": None}
_KEY = bytes(32)
_U32_FIELDS = ("kid_self", "kid_peer", "j_s", "i_r", "j_r")

# label -> (changes to a built responder's fields, what the refusal says,
# whether a snapshot can carry the changes). The responder holds both
# chains at j_s = 0 and (i_r, j_r) = (0, 1), with no cache; each case
# breaks one rule.
_STATE_RULES = {
    **{f"{name} of {n} bytes": (
        {name: bytes(n)}, f"RatchetState.{name} must be 32 bytes, got {n}",
        False)
       for name in ("rk", "ck_send", "ck_recv", "peer_eph_pub")
       for n in (5, 33)},
    **{f"reply_secret of {n} bytes": (
        {**_NO_SEND, "reply_secret": bytes(n)},
        f"RatchetState.reply_secret must be 32 bytes, got {n}", False)
       for n in (5, 33)},
    **{f"cached key of {n} bytes": (
        {"skipped": {(0, 0): bytes(n)}},
        rf"skipped key \(0, 0\) must be 32 bytes, got {n}", False)
       for n in (5, 33)},
    **{f"{name} = {value}": (
        {name: value}, f"^{name} out of u32 range: {value}$", False)
       for name in _U32_FIELDS for value in (-1, 2**32)},
    **{f"{name} unset": (  # at j_r = 0, as a state with no receive chain
        {name: None, "j_r": 0}, "sets a chain key without its ephemeral",
        False)
       for chain in _CHAINS for name in chain},
    "pending reply beside a sending chain": (
        {"reply_secret": _KEY}, "pending reply beside a sending chain", False),
    "pending reply without a receive chain": (
        {**_NO_SEND, **_NO_RECV, "j_r": 0, "reply_secret": _KEY},
        "pending reply .* without a receive chain", False),
    "send index without a sending chain": (
        {**_NO_SEND, "j_s": 3}, "no sending chain, yet its send index is 3",
        True),
    "receive position without a receive chain": (
        _NO_RECV, r"no receive chain, yet sits at \(0, 1\) with 0 cached",
        True),
    "sender that never received, at (5, 7) caching (3, 1)": (
        {**_NO_RECV, "i_r": 5, "j_r": 7, "skipped": {(3, 1): _KEY}},
        r"no receive chain, yet sits at \(5, 7\) with 1 cached keys", True),
    "receive chain at the top epoch": (
        {"i_r": 0xFFFFFFFF},
        "^receive epoch 4294967295 leaves no u32 reply epoch$", True),
    **{f"low-order peer ephemeral {point}-{bit_255}": (
        {"peer_eph_pub": _low_order_point(point, bit_255)},
        "^RatchetState.peer_eph_pub is a low-order point$", True)
       for point in range(len(_LOW_ORDER)) for bit_255 in (0, 1)},
    "skipped count over MAX_SKIP": (
        {"j_r": MAX_SKIP + 1,
         "skipped": dict.fromkeys([(0, j) for j in range(MAX_SKIP + 1)], _KEY)},
        f"^{MAX_SKIP + 1} skipped keys exceed MAX_SKIP={MAX_SKIP}$", True),
    "cached stage at the receive chain": (
        {"skipped": {(0, 1): _KEY}},
        r"stage \(0, 1\), not behind the receive chain at \(0, 1\)", True),
    "cached stage of a later epoch": (
        {"skipped": {(1, 0): _KEY}},
        r"stage \(1, 0\), not behind the receive chain at \(0, 1\)", True),
    "cached stage at epoch -1": (
        {"skipped": {(-1, 0): _KEY}}, r"stage \(-1, 0\), out of u32 range",
        False),
    "cached stage at index -1": (
        {"skipped": {(0, -1): _KEY}}, r"stage \(0, -1\), out of u32 range",
        False),
    "cached stage past the top index": (
        {"i_r": 1, "skipped": {(0, 2**32): _KEY}},
        r"stage \(0, 4294967296\), out of u32 range", False),
}


def _refused(label):
    """Building the label's fields raises a ValueError; where a snapshot
    can carry them, importing the snapshot written field by field raises a
    ParseError with the same message."""
    changes, message, carried = _STATE_RULES[label]
    _, stb, _, _ = fresh_conversation(329)
    assert (stb.j_s, stb.i_r, stb.j_r, stb.skipped) == (0, 0, 1, {})
    fields = {**_fields(stb), **changes}
    with pytest.raises(ValueError, match=message) as built:
        RatchetState(**fields)
    if carried:
        with pytest.raises(ParseError) as imported:
            vdr_import_state(_concatenated(fields))
        assert str(imported.value) == str(built.value)


@pytest.mark.parametrize("label", [
    *[f"{name} = {value}" for name in _U32_FIELDS for value in (-1, 2**32)],
    "send index without a sending chain",
    "receive position without a receive chain",
    "sender that never received, at (5, 7) caching (3, 1)",
    "skipped count over MAX_SKIP", "cached stage at the receive chain",
    "cached stage of a later epoch", "cached stage at epoch -1",
    "cached stage at index -1", "cached stage past the top index"])
def test_state_rule_refused_at_build_and_import(label):
    _refused(label)


# Each rule below has a test of its own; its cases are _STATE_RULES rows,
# refused the same two ways.

@pytest.mark.parametrize("name", ["rk", "ck_send", "ck_recv", "peer_eph_pub"])
def test_state_refuses_a_wrong_length_key(name):
    for n in (5, 33):
        _refused(f"{name} of {n} bytes")


def test_state_refuses_a_wrong_length_cached_key():
    for n in (5, 33):
        _refused(f"cached key of {n} bytes")


@pytest.mark.parametrize("name", [name for chain in _CHAINS for name in chain])
def test_state_refuses_half_a_chain(name):
    _refused(f"{name} unset")


def test_state_refuses_a_misplaced_pending_reply():
    for label in ("reply_secret of 5 bytes", "reply_secret of 33 bytes",
                  "pending reply beside a sending chain",
                  "pending reply without a receive chain"):
        _refused(label)


def test_import_refuses_a_receive_chain_at_the_top_epoch():
    # the send epoch is read off i_r, and i_r + 1 would not fit a u32
    _, stb, _, _ = fresh_conversation(324)
    last = dataclasses.replace(stb, i_r=0xFFFFFFFE)
    assert vdr_import_state(vdr_export_state(last)) == last
    _refused("receive chain at the top epoch")


@pytest.mark.parametrize("bit_255", [0, 1])
@pytest.mark.parametrize("point", range(len(_LOW_ORDER)))
def test_import_refuses_a_low_order_peer_ephemeral(point, bit_255):
    _, stb, _, _ = fresh_conversation(330)
    with pytest.raises(DhError):  # no exchange with it succeeds
        cs.dh(stb.self_eph.secret, _low_order_point(point, bit_255))
    _refused(f"low-order peer ephemeral {point}-{bit_255}")


def test_an_armed_responder_cannot_sit_at_the_top_epoch():
    # its seal would commit the pending reply, then find no u32 send epoch
    _, stb, _, _ = pending_conversation(331)
    assert dataclasses.replace(stb, i_r=0xFFFFFFFE).i_s == 0xFFFFFFFF
    with pytest.raises(ValueError, match="receive epoch 4294967295 leaves"):
        dataclasses.replace(stb, i_r=0xFFFFFFFF)


def test_set_up_refuses_a_kid_the_snapshot_cannot_write():
    # a state holding one would draw a nonce at its first seal before the
    # kid failed to pack, and could not be exported
    a_sk, a_pk, b_sk, b_pk, a_rng, _ = helpers.keypairs(332)
    with pytest.raises(ValueError, match="^kid_self out of u32 range"):
        vdr_init_sender(a_sk, b_pk, a_rng, kid_self=2**32, kid_peer=12)
    sta = vdr_init_sender(a_sk, b_pk, a_rng, kid_self=11, kid_peer=12)
    opener = vdr_encrypt(sta, 0, b"opening flight", a_rng)
    with pytest.raises(ValueError, match="^kid_peer out of u32 range"):
        vdr_lazy_init_receiver(b_sk, a_pk, opener, kid_self=12, kid_peer=-1)


_KEYS = hs.binary(min_size=32, max_size=32)
_U32 = hs.integers(-1, 2**32)  # now and then a value either side of a u32
_POSITION_0 = hs.sampled_from((0, 0, 0, 1))  # an unset chain's, mostly


@hs.composite
def _drawn_fields(draw):
    """A state's fields, near one the ratchet writes, now and then
    breaking a rule."""
    sending, receiving = draw(hs.booleans()), draw(hs.booleans())
    i_r = draw(_U32 if receiving else _POSITION_0)
    low_order = draw(hs.integers(0, 3)) == 0
    return {
        "rk": draw(_KEYS), "kid_self": draw(_U32), "kid_peer": draw(_U32),
        "ck_send": draw(_KEYS) if sending else None,
        "self_eph": (cs.key_pair(cs.GroupScalar(draw(_KEYS)))
                     if sending else None),
        "j_s": draw(_U32 if sending else _POSITION_0),
        "ck_recv": draw(_KEYS) if receiving else None,
        "peer_eph_pub": (draw(hs.sampled_from(_LOW_ORDER) if low_order
                              else _KEYS) if receiving else None),
        "i_r": i_r, "j_r": draw(_U32 if receiving else _POSITION_0),
        "reply_secret": (draw(hs.none() | _KEYS)
                         if receiving and not sending else None),
        "skipped": draw(hs.dictionaries(
            hs.tuples(hs.integers(-1, i_r), _U32), _KEYS,
            max_size=3 if receiving else 1)),
    }


@settings(max_examples=200, deadline=None)
@given(fields=_drawn_fields())
def test_a_state_is_refused_at_build_or_round_trips(fields):
    try:
        st = RatchetState(**fields)
    except ValueError:
        return
    snap = vdr_export_state(st)  # builds a pending reply first
    assert vdr_import_state(snap) == st
    assert vdr_export_state(vdr_import_state(snap)) == snap


# flag bit k unset: chain k, and its position at 0
_UNSET = ({**_NO_SEND, "j_s": 0},
          {**_NO_RECV, "i_r": 0, "j_r": 0, "skipped": {}})


@pytest.mark.parametrize("cached", [0, 3])
def test_export_of_every_flag_value_is_the_field_concatenation(cached):
    _, stb, _, _ = fresh_conversation(327)
    full = _with_skipped(stb, cached)
    for flags in range(4):
        st = dataclasses.replace(full, **{
            name: value for k, unset in enumerate(_UNSET)
            if not flags >> k & 1 for name, value in unset.items()})
        snap = vdr_export_state(st)
        assert snap == _concatenated(_fields(st))
        assert snap[4] == flags
        clone = vdr_import_state(snap)
        assert vdr_export_state(clone) == snap
        assert clone == st


def test_import_accepts_a_full_skip_cache():
    _, stb, _, _ = fresh_conversation(326)
    snap = vdr_export_state(_with_skipped(stb, MAX_SKIP))
    assert vdr_export_state(vdr_import_state(snap)) == snap


def test_reference_oracle_reproduces_golden_ratchet_lines():
    # Keys, roots, chains and envelopes all from the oracle. A party draws
    # an epoch's ephemeral before its first seal in that epoch: the
    # initiator at its first seal, the responder at the open that starts
    # its reply. Epoch 0's root is kdf_root over (x, B) and (a, B) under
    # the zero salt; epoch e's is kdf_root over (eph_e, eph_{e-1}) under
    # the root before it.
    root = REF.SeededStream(helpers.GOLDEN_SEED)
    rngs = {"a": root.fork(b"alice"), "b": root.fork(b"bob")}
    a_sk = rngs["a"].token(32)
    b_pub = REF.x25519_public(rngs["b"].token(32))
    kids = {"a": (11, 12), "b": (12, 11)}
    golden = helpers.parse_golden_file()
    script = helpers.GOLDEN_SCRIPTS["vdr"]
    assert script[0][2] == "a"
    epoch, last = -1, None
    for name, ctype, sender in script:
        if sender != last:  # a new epoch, and its sending chain
            eph = rngs[sender].token(32)
            if epoch < 0:
                rk, ck = REF.kdf_root(REF.x25519(eph, b_pub)
                                      + REF.x25519(a_sk, b_pub),
                                      REF.ZERO_SALT)
            else:
                rk, ck = REF.kdf_root(REF.x25519(eph, eph_pub), rk)
            epoch, index, last = epoch + 1, 0, sender
            eph_pub = REF.x25519_public(eph)
        sealed, ck = REF.vdr_seal(ck, epoch, index, eph_pub,
                                  rngs[sender].token(4), ctype,
                                  helpers.golden_payload(name), *kids[sender])
        index += 1
        assert sealed == golden[name], name
    assert len(script) == sum(name.startswith("vdr-") for name in golden)


def test_reference_oracle_reproduces_golden_snapshot_lines():
    # The golden snapshot flow from the oracle: A seals three messages of
    # epoch 0, B opens the third, caching the first two keys, then B, A and
    # B each seal once and the other opens. A seal draws 4 nonce bytes; the
    # open that starts an epoch draws the opener's reply ephemeral, clamped
    # as stored, and derives the next root from it and the epoch's.
    root = REF.SeededStream(helpers.GOLDEN_SEED)
    rngs = {"a": root.fork(b"alice"), "b": root.fork(b"bob")}
    a_sk, b_sk = REF.clamp(rngs["a"].token(32)), REF.clamp(rngs["b"].token(32))
    b_pub = REF.x25519_public(b_sk)
    ephs, pubs = [], []  # epoch -> its ephemeral and public key

    def draw_ephemeral(party):
        ephs.append(REF.clamp(rngs[party].token(32)))
        pubs.append(REF.x25519_public(ephs[-1]))

    draw_ephemeral("a")
    roots = [REF.kdf_root(REF.x25519(ephs[0], b_pub)
                          + REF.x25519(a_sk, b_pub), REF.ZERO_SALT)]
    for epoch, (sender, opener, seals) in enumerate(
            (("a", "b", 3), ("b", "a", 1), ("a", "b", 1), ("b", "a", 1))):
        for _ in range(seals):
            rngs[sender].token(4)
        draw_ephemeral(opener)
        roots.append(REF.kdf_root(REF.x25519(ephs[epoch + 1], pubs[epoch]),
                                  roots[epoch][0]))
    mks, ck_0 = [], roots[0][1]
    for _ in range(3):
        mk, ck_0 = REF.kdf_chain(ck_0)
        mks.append(mk)
    _, ck_3 = REF.kdf_chain(roots[3][1])
    assert helpers.parse_golden_file(helpers.SNAPSHOT_FILE) == {
        "initiator-unanswered": REF.vdr_snapshot(
            roots[0][0], (ck_0, ephs[0]), None, (3, 0, 0), (11, 12), []),
        "responder-skipped": REF.vdr_snapshot(
            roots[1][0], (roots[1][1], ephs[1]), (ck_0, pubs[0]),
            (0, 0, 3), (12, 11), [((0, 0), mks[0]), ((0, 1), mks[1])]),
        "initiator-two-turns": REF.vdr_snapshot(
            roots[4][0], (roots[4][1], ephs[4]), (ck_3, pubs[3]),
            (0, 3, 1), (11, 12), []),
    }


def test_no_snapshot_carries_a_long_term_key():
    a_sk, a_pk, b_sk, b_pk, _, _ = helpers.keypairs(331)
    sta, stb, a_rng, b_rng = fresh_conversation(331)
    snapshots = []
    # a turn each round; the skips fill the cache, then evict from it
    for jump in (0, MAX_SKIP, 5, MAX_SKIP):
        vdr_decrypt(sta, vdr_encrypt(stb, 0, b"turn", b_rng), a_rng)
        for _ in range(jump):
            vdr_encrypt(sta, 0, b"skipped", a_rng)
        assert vdr_decrypt(stb, vdr_encrypt(sta, 0, b"j", a_rng), b_rng) == b"j"
        snapshots += [vdr_export_state(st) for st in (sta, stb)]
    assert len(stb.skipped) == MAX_SKIP and sta.i_r == 7
    for key in (a_sk, a_pk, b_sk, b_pk):
        assert not any(bytes(key) in snap for snap in snapshots)
