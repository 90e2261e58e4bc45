import dataclasses

import pytest

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
    ROLE_INITIATOR,
    ROLE_RESPONDER,
    vdr_decrypt,
    vdr_encrypt,
    vdr_export_state,
    vdr_import_state,
)


def fresh_conversation(seed):
    """Initiator plus a responder that already consumed the first message."""
    sta, mats, a_rng, b_rng = helpers.vdr_pair(seed)
    opener = vdr_encrypt(sta, 0, b"opening flight", a_rng)
    stb = helpers.vdr_receiver(mats, opener)
    assert vdr_decrypt(stb, opener, b_rng) == b"opening flight"
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
    sta.j_s = 0xFFFFFFFE  # the last index that can be sent
    last = vdr_encrypt(sta, 0, b"last", a_rng)
    assert last.j_index == 0xFFFFFFFE and sta.j_s == 0xFFFFFFFF
    drawn, before = a_rng.mark(), vdr_export_state(sta)
    with pytest.raises(CounterExhausted):
        vdr_encrypt(sta, 0, b"one too many", a_rng)
    assert (a_rng.mark(), vdr_export_state(sta)) == (drawn, before)


def test_lazy_receiver_requires_epoch_zero():
    sta, stb, a_rng, b_rng = fresh_conversation(312)
    e10 = vdr_encrypt(stb, 0, b"later epoch", b_rng)
    with pytest.raises(StaleEpoch):
        helpers.vdr_receiver((stb.self_ltk, stb.peer_ltk_pub), e10)


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
    assert clone.role == ROLE_RESPONDER
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
    assert fresh.ck_send is not None and fresh.self_eph_pub is not None
    assert sorted(snaps["responder-skipped"].skipped) == [(0, 0), (0, 1)]
    assert (snaps["initiator-two-turns"].i_r,
            snaps["initiator-two-turns"].i_s) == (3, 4)


@pytest.mark.parametrize("name", sorted(
    helpers.parse_golden_file(helpers.SNAPSHOT_FILE)))
def test_golden_snapshot_import_export_round_trips(name):
    raw = helpers.parse_golden_file(helpers.SNAPSHOT_FILE)[name]
    assert vdr_export_state(vdr_import_state(raw)) == raw


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
    assert vdr_import_state(snap).role == ROLE_INITIATOR


def test_ratchet_state_has_no_room_for_a_hook():
    # slotted: a stray attribute is refused, not silently kept
    sta, _, _, _ = helpers.vdr_pair(316)
    with pytest.raises(AttributeError):
        sta.observer = object()


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
    sta, stb, a_rng, b_rng = fresh_conversation(317)
    env = vdr_encrypt(sta, 5, b"header bound", a_rng)
    for change in (dict(ctype=6), dict(kid_sender=99)):
        with pytest.raises(AuthFailure):
            vdr_decrypt(stb, dataclasses.replace(env, **change), b_rng)
    assert vdr_decrypt(stb, env, b_rng) == b"header bound"


# -- held ephemeral key object --------------------------------------------------

def _key_matches_secret(st):
    key = st.self_eph_key
    return key is None or key.private_bytes_raw() == st.self_eph_secret


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
    key = sta.self_eph_key
    assert key is not None
    before = vdr_export_state(sta)
    with pytest.raises(error):
        vdr_decrypt(sta, tamper(turn), a_rng)
    assert vdr_export_state(sta) == before
    assert sta.self_eph_key is key
    assert vdr_decrypt(sta, turn, a_rng) == b"turns the epoch"
    assert sta.self_eph_key is not key
    assert _key_matches_secret(sta)


def _turn_counts(receiver, env, rng):
    with cs.count_ops() as counts:
        vdr_decrypt(receiver, env, rng)
    return counts.dh


def test_held_key_tracks_secret_across_export_import():
    live = list(fresh_conversation(319))      # never exported
    twin = list(fresh_conversation(319))      # exported and imported midway
    worlds = (live, twin)
    for world in worlds:
        assert all(_key_matches_secret(st) for st in world[:2])
    for turn in range(8):
        if turn == 4:
            for k in (0, 1):
                twin[k] = vdr_import_state(vdr_export_state(twin[k]))
                assert twin[k].self_eph_key is None
        s, r = (1, 0) if turn % 2 == 0 else (0, 1)
        text = b"turn %d" % turn
        for world in worlds:
            env = vdr_encrypt(world[s], 0, text, world[2 + s])
            assert all(_key_matches_secret(st) for st in world[:2])
            assert env.i_index > world[r].i_r
            assert _turn_counts(world[r], env, world[2 + r]) == 3
            assert world[r].self_eph_key is not None
            assert all(_key_matches_secret(st) for st in world[:2])
        for k in (0, 1):
            assert vdr_export_state(twin[k]) == vdr_export_state(live[k])
    for st in live[:2]:
        assert "self_eph_key" not in repr(st)
        assert repr(st.self_eph_key) not in repr(st)
        assert vdr_export_state(st) == vdr_export_state(
            dataclasses.replace(st, self_eph_key=None))


def test_ratchet_steps_build_each_key_object_once(monkeypatch):
    built = []
    real = cs.dh_private_key

    def counting(secret):
        built.append(bytes(secret))
        return real(secret)

    monkeypatch.setattr(cs, "dh_private_key", counting)
    sta, mats, a_rng, b_rng = helpers.vdr_pair(320)
    assert len(built) == 4  # two long-term keygens, ephemeral, static
    opener = vdr_encrypt(sta, 0, b"hello", a_rng)
    built.clear()
    stb = helpers.vdr_receiver(mats, opener)
    assert built == [bytes(stb.self_ltk)]
    built.clear()
    assert vdr_decrypt(stb, opener, b_rng) == b"hello"
    assert built == [bytes(stb.self_eph_secret)]  # the reply keygen only
    reply = vdr_encrypt(stb, 0, b"reply", b_rng)
    built.clear()
    assert vdr_decrypt(sta, reply, a_rng) == b"reply"
    assert built == [bytes(sta.self_eph_secret)]  # turn reuses the held key
    clone = vdr_import_state(vdr_export_state(stb))
    env = vdr_encrypt(sta, 0, b"after import", a_rng)
    old_secret = bytes(clone.self_eph_secret)
    built.clear()
    assert vdr_decrypt(clone, env, b_rng) == b"after import"
    assert built == [old_secret, bytes(clone.self_eph_secret)]


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
    # magic, role and flags, rk and five optional chain and ephemeral
    # fields, four indices, two long-term keys, two kids, cache count, then
    # per cached key its (i, j) and the key itself
    full = 4 + 2 + 6 * 32 + 16 + 2 * 32 + 8 + 2 + MAX_SKIP * (8 + 32)
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
    ste.i_s = 0xFFFFFFFF
    top_epoch = vdr_encrypt(ste, 0, b"top epoch", e_rng)
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
    }


@pytest.mark.parametrize("label", [
    "bad tag", "low-order eph_pub", "replay", "replay of a cached stage",
    "stale evicted", "stale abandoned", "no local ephemeral",
    "bad tag at a cached stage", "gap over MAX_SKIP",
    "turn to the top epoch"])
def test_failed_decrypt_leaves_snapshot_identical(label):
    st, rng, env, error = _failed_decrypts()[label]
    before, draws = vdr_export_state(st), rng.mark()
    with pytest.raises(error):
        vdr_decrypt(st, env, rng)
    assert vdr_export_state(st) == before
    assert rng.mark() == draws


def test_import_rejects_previous_snapshot_format():
    sta, stb, _, _ = fresh_conversation(324)
    snap = vdr_export_state(stb)
    assert snap[:4] == b"VDR3"
    for magic in (b"VDR1", b"VDR2"):
        with pytest.raises(ParseError):
            vdr_import_state(magic + snap[4:])


def _with_skipped(st, n):
    """A copy of st holding n made-up skipped keys."""
    return dataclasses.replace(st, skipped={
        (0, j): cs.SymmetricKey(bytes([j % 256]) * 32) for j in range(n)})


def _malformed_snapshots():
    """label: (snapshot, what its ParseError says)"""
    sta, stb, _, _ = fresh_conversation(325)
    snap = vdr_export_state(stb)
    return {
        "role byte 7": (snap[:4] + b"\x07" + snap[5:], "role byte 7"),
        "unknown flag 0x80": (
            snap[:5] + bytes([snap[5] | 0x80]) + snap[6:], "unknown bit"),
        "skipped count over MAX_SKIP": (
            vdr_export_state(_with_skipped(stb, MAX_SKIP + 1)), "MAX_SKIP"),
        # an unanswered initiator's flags 0b01101 cut to 0b00101
        "send chain without its public ephemeral": (
            vdr_export_state(dataclasses.replace(sta, self_eph_pub=None)),
            "part of ck_send"),
        "receive chain without the peer's ephemeral": (
            vdr_export_state(dataclasses.replace(stb, peer_eph_pub=None)),
            "part of ck_recv"),
        "peer's ephemeral without a receive chain": (
            vdr_export_state(dataclasses.replace(stb, ck_recv=None)),
            "part of ck_recv"),
        "trailing byte": (snap + b"\x00", "1 trailing bytes"),
    }


@pytest.mark.parametrize("label", [
    "role byte 7", "unknown flag 0x80", "skipped count over MAX_SKIP",
    "send chain without its public ephemeral",
    "receive chain without the peer's ephemeral",
    "peer's ephemeral without a receive chain", "trailing byte"])
def test_import_rejects_malformed_snapshot(label):
    snapshot, reason = _malformed_snapshots()[label]
    with pytest.raises(ParseError, match=reason):
        vdr_import_state(snapshot)


_OPTIONAL = ("ck_send", "ck_recv", "self_eph_secret", "self_eph_pub",
             "peer_eph_pub")  # flag bit k marks _OPTIONAL[k]


def _concatenated(st):
    """A snapshot written out field by field, in the codec's order."""
    def u32(n):
        return n.to_bytes(4, "big")
    values = [getattr(st, name) for name in _OPTIONAL]
    flags = sum(1 << k for k, v in enumerate(values) if v is not None)
    return b"".join([
        b"VDR3", bytes([(ROLE_INITIATOR, ROLE_RESPONDER).index(st.role),
                        flags]), st.rk,
        *[v for v in values if v is not None],
        u32(st.i_s), u32(st.j_s), u32(st.i_r), u32(st.j_r),
        st.self_ltk, st.peer_ltk_pub, u32(st.kid_self), u32(st.kid_peer),
        len(st.skipped).to_bytes(2, "big"),
        *[u32(i) + u32(j) + key for (i, j), key in st.skipped.items()]])


@pytest.mark.parametrize("cached", [0, 3])
def test_export_of_every_flag_value_is_the_field_concatenation(cached):
    _, stb, _, _ = fresh_conversation(327)
    full = _with_skipped(stb, cached)
    assert all(getattr(full, name) is not None for name in _OPTIONAL)
    accepted = []
    for flags in range(1 << len(_OPTIONAL)):
        st = dataclasses.replace(full, **{
            name: None for k, name in enumerate(_OPTIONAL)
            if not flags >> k & 1})
        snap = vdr_export_state(st)
        assert snap == _concatenated(st)
        assert snap[5] == flags
        try:
            clone = vdr_import_state(snap)
        except ParseError:  # a chain set without all of its fields
            continue
        accepted.append(flags)
        assert vdr_export_state(clone) == snap
        assert clone == st
    assert accepted == [0b00000, 0b01101, 0b10010, 0b11111]


def test_import_accepts_a_full_skip_cache():
    _, stb, _, _ = fresh_conversation(326)
    snap = vdr_export_state(_with_skipped(stb, MAX_SKIP))
    assert vdr_export_state(vdr_import_state(snap)) == snap
