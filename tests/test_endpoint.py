"""Two-party endpoints: lazy set-up per protocol, the ratchet responder's
transactional first open, and per-party randomness."""

import copy
import dataclasses
import json

import pytest

import helpers
from letterseal import cli
from letterseal import crypto_suite as cs
from letterseal.endpoint import DESIGNS, Endpoint, endpoint_pair
from letterseal.directory_server import KeyDirectory
from letterseal.errors import (
    AuthFailure,
    DhError,
    KidMismatch,
    NotInitialized,
    ParseError,
)
from letterseal.linevdr import vdr_export_state
from letterseal.mske import Game
from letterseal.wire import encode_envelope

PROTOCOLS = tuple(DESIGNS)


def pair(protocol, seed):
    a_sk, a_pk, b_sk, b_pk, a_rng, b_rng = helpers.keypairs(seed)
    return endpoint_pair(protocol, (a_sk, a_pk), (b_sk, b_pk), a_rng, b_rng,
                         kids=(11, 12), names=("alice", "bob"))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_round_trips_both_directions(protocol):
    a, b = pair(protocol, 401)
    epochs = []
    # a -> b, b -> a twice over: on the ratchet each reply opens an epoch
    for turn in range(4):
        src, dst = (a, b) if turn % 2 == 0 else (b, a)
        for k in range(2):
            m = f"{src.name} turn {turn} msg {k}".encode()
            env = src.seal(m, ctype=k)
            assert env.ctype == k
            assert dst.open(env) == m
            epochs.append(getattr(env, "i_index", None))
    if protocol == "vdr":
        assert epochs == [0, 0, 1, 1, 2, 2, 3, 3]


def _next_draw(rng):
    """rng's next 32 bytes, drawn from a copy, so rng itself stays put."""
    return copy.copy(rng).token(32)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_set_up_from_the_keygen_scalar_equals_set_up_from_stored_bytes(
        monkeypatch, protocol):
    """The keygen's scalar holds its key object, so set-up builds none; a
    copy of its bytes holds nothing, so each set-up builds one. Both
    worlds seal, store and draw the same bytes."""
    built = helpers.count_key_objects(monkeypatch)
    worlds = []
    for stored in (False, True):
        a_sk, a_pk, b_sk, b_pk, a_rng, b_rng = helpers.keypairs(408)
        long_term = [bytes(a_sk), bytes(b_sk)]
        if stored:
            a_sk, b_sk = cs.GroupScalar(bytes(a_sk)), cs.GroupScalar(bytes(b_sk))
        a, b = endpoint_pair(protocol, (a_sk, a_pk), (b_sk, b_pk), a_rng,
                             b_rng, kids=(11, 12), names=("alice", "bob"))
        built.clear()
        envs = []
        for turn in range(4):
            src, dst = (a, b) if turn % 2 == 0 else (b, a)
            env = src.seal(b"turn %d" % turn)
            assert dst.open(env) == b"turn %d" % turn
            envs.append(encode_envelope(env))
        # A sets up at its first seal, B at its first open
        assert [s for s in built if s in long_term] == (
            long_term if stored else [])
        snapshot = DESIGNS[protocol].snapshot
        worlds.append((envs, [snapshot(ep.session) for ep in (a, b)],
                       [_next_draw(rng) for rng in (a_rng, b_rng)]))
    assert worlds[0] == worlds[1]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_refused_first_seal_draws_nothing(protocol):
    """A low-order peer public (the directory takes any 32 bytes) and a
    31-byte secret are refused at the initiator's set-up, before the
    ratchet draws its ephemeral, and no session is kept."""
    a_sk, _, _, b_pk, a_rng, _ = helpers.keypairs(409)
    for secret, peer in ((a_sk, cs.GroupElement(bytes(32))),
                         (bytes(a_sk)[:31], b_pk)):
        a = Endpoint(protocol, secret, peer, a_rng, 11, 12, "alice", "bob",
                     initiator=True)
        with cs.Recorder() as seen:
            with pytest.raises(DhError):
                a.seal(b"hi")
        assert seen.draws == [] and a.session is None


def test_each_party_draws_only_from_its_own_rng():
    a, b = pair("vdr", 402)
    for turn in range(4):
        src, dst = (a, b) if turn % 2 == 0 else (b, a)
        before = _next_draw(dst.rng)
        env = src.seal(b"x")
        assert _next_draw(dst.rng) == before  # sealing leaves the peer's rng
        before = _next_draw(src.rng)
        dst.open(env)
        assert _next_draw(src.rng) == before  # and so does opening


def test_ratchet_responder_keeps_no_state_after_a_forged_opener():
    a, b = pair("vdr", 403)
    opener = a.seal(b"opener")
    ct = bytes([opener.ciphertext[0] ^ 1]) + opener.ciphertext[1:]
    with pytest.raises(AuthFailure):
        b.open(dataclasses.replace(opener, ciphertext=ct))
    assert b.session is None
    assert b.open(opener) == b"opener"
    assert b.session is not None
    assert a.open(b.seal(b"reply")) == b"reply"


def test_ratchet_sides_refuse_to_start_out_of_turn():
    a, b = pair("vdr", 404)
    # an initiator's opener addressed from b's kid to a's, so it reaches set-up
    _, a_pk, b_sk, _, _, b_rng = helpers.keypairs(404)
    twin = Endpoint("vdr", b_sk, a_pk, b_rng, 12, 11, "bob", "alice",
                    initiator=True)
    with pytest.raises(NotInitialized):
        b.seal(b"responder first")
    with pytest.raises(NotInitialized):
        a.open(twin.seal(b"an initiator's opener"))
    assert a.session is None and b.session is None


@pytest.mark.parametrize("sender,receiver", [
    (s, r) for s in PROTOCOLS for r in PROTOCOLS if s != r])
def test_open_refuses_another_protocols_envelope(sender, receiver):
    src, _ = pair(sender, 407)
    _, dst = pair(receiver, 407)
    env = src.seal(b"foreign family")
    with cs.count_ops() as counts, cs.Recorder() as seen, pytest.raises(
            ParseError, match=type(env).__name__):
        dst.open(env)
    # refused before set-up: no session, no exchange, no draw
    assert dst.session is None
    assert counts.dh == 0
    assert seen.draws == []


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_session_refuses_an_envelope_its_peer_never_sent(protocol):
    """Mallory registers Alice's public key under a new kid, and knows no
    secret. Alice's envelope to Bob, delivered to Bob's session with
    Mallory, names Alice as its sender: refused before set-up. With the
    sender kid rewritten to Mallory's it fails v2's and the ratchet's AD,
    and v1, whose tag covers only the ciphertext, opens it as Mallory's."""
    a_sk, a_pk, b_sk, b_pk, a_rng, b_rng = helpers.keypairs(1)
    directory = KeyDirectory()
    alice = directory.register(a_pk, "alice")
    bob = directory.register(b_pk, "bob")
    mallory = directory.register(a_pk, "mallory")
    a = Endpoint(protocol, a_sk, directory.lookup(bob), a_rng, alice, bob,
                 "alice", "bob", initiator=True)
    b = Endpoint(protocol, b_sk, directory.lookup(mallory), b_rng, bob,
                 mallory, "bob", "mallory", initiator=False)
    env = a.seal(b"alice to bob")
    with cs.count_ops() as counts, pytest.raises(KidMismatch, match="kid 1 "):
        b.open(env)
    assert b.session is None and counts.dh == 0
    rewritten = dataclasses.replace(env, kid_sender=mallory)
    if protocol == "v1":
        assert b.open(rewritten) == b"alice to bob"
    else:
        with pytest.raises(AuthFailure):
            b.open(rewritten)


def test_static_protocols_start_from_either_side():
    for protocol in ("v1", "v2"):
        a, b = pair(protocol, 405)
        assert a.open(b.seal(b"responder first")) == b"responder first"


def _state(ep):
    """What a seal may change: the ratchet snapshot, or the static
    session's fields with v2's AD cache."""
    st = ep.session
    if st is None:
        return None
    if hasattr(st, "ck_send"):
        return vdr_export_state(st)
    return repr(st), dict(getattr(st, "ad_cache", {}))


@pytest.mark.parametrize("ctype", [256, -1])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_out_of_range_ctype_is_refused_before_anything_moves(protocol, ctype):
    a, b = pair(protocol, 408)
    for first_seal in (True, False):
        state = _state(a)
        with cs.Recorder() as seen, pytest.raises(ValueError, match="ctype"):
            a.seal(b"bad", ctype=ctype)
        # no draw, no chain step, no set-up, no AD cached
        assert seen.draws == []
        assert _state(a) == state
        if first_seal:
            assert a.session is None
        # the next valid seal still opens at the peer
        assert b.open(a.seal(b"next", ctype=255)) == b"next"


@pytest.mark.parametrize("bad", [2**32, -1])
@pytest.mark.parametrize("which", ["kid", "peer_kid"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_out_of_range_kid_is_refused_when_the_endpoint_is_built(
        protocol, which, bad):
    a_sk, _, _, b_pk, a_rng, _ = helpers.keypairs(409)
    kids = {"kid": 11, "peer_kid": 12, which: bad}
    before = _next_draw(a_rng)
    with pytest.raises(ValueError, match=f"^{which} out of u32 range"):
        Endpoint(protocol, a_sk, b_pk, a_rng, kids["kid"], kids["peer_kid"],
                 "alice", "bob", initiator=True)
    assert _next_draw(a_rng) == before


@pytest.mark.parametrize("bad,reason", [("a" * 70000, "is 70000 bytes, over"),
                                        ("\ud800", "does not encode")],
                         ids=["too long", "lone surrogate"])
@pytest.mark.parametrize("which", ["name", "peer_name"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_identity_string_that_does_not_fit_the_wire_is_refused_at_set_up(
        protocol, which, bad, reason):
    a_sk, _, _, b_pk, a_rng, _ = helpers.keypairs(410)
    names = {"name": "alice", "peer_name": "bob", which: bad}
    e = Endpoint(protocol, a_sk, b_pk, a_rng, 11, 12, names["name"],
                 names["peer_name"], initiator=True)
    if protocol != "v2":  # v1 and the ratchet put no name on the wire
        e.seal(b"x")
        assert e.session is not None
        return
    field = {"name": "sid", "peer_name": "rid"}[which]
    with cs.count_ops() as counts, pytest.raises(
            ValueError, match=f"^identity string {field} {reason}"):
        e.seal(b"x")
    assert counts.dh == 0 and e.session is None  # before the exchange


def test_unknown_protocol_rejected():
    a_sk, a_pk, b_sk, b_pk, a_rng, b_rng = helpers.keypairs(406)
    for make in (
            lambda: Endpoint("v3", a_sk, b_pk, a_rng, 1, 2, "alice", "bob",
                             True),
            lambda: endpoint_pair("v3", (a_sk, a_pk), (b_sk, b_pk), a_rng,
                                  b_rng, kids=(1, 2), names=("alice", "bob")),
            lambda: Game("v3")):
        with pytest.raises(ValueError, match="^unknown protocol 'v3'$"):
            make()


# what the demo prints of each design's first message
_FIRST_LABEL = {"v1": (0, "msg=0"), "v2": (0, "ctr=0"),
                "vdr": ((0, 0), "epoch=0 j=0")}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_each_row_names_its_envelope_and_labels_what_the_demo_prints(
        protocol, capsys):
    row = DESIGNS[protocol]
    a, b = pair(protocol, 409)
    env = a.seal(b"first")
    assert type(env) is row.envelope
    assert b.open(env) == b"first"
    stage, text = row.label(env, 0)
    assert (stage, text) == _FIRST_LABEL[protocol]
    for fmt in ("text", "json-lines"):
        assert cli.main(["demo", "--protocol", protocol, "--iterations", "1",
                         "--format", fmt]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert text in last if fmt == "text" else (
            f'"stage": {json.dumps(stage)}' in last)


def test_recorder_sees_each_ratchet_key_only_inside_its_scope():
    # no recorder open: the keys go nowhere and no scope is left behind
    a, b = pair("vdr", 404)
    b.open(a.seal(b"opener"))
    assert cs._counting == cs._recording == []

    # a recorder around each call sees the one key of that seal or open,
    # on either ratchet state and in both directions
    a, b = pair("vdr", 404)
    with cs.Recorder() as sent:
        env = a.seal(b"opener")
    with cs.Recorder() as opened:
        assert b.open(env) == b"opener"
    assert opened.keys == sent.keys and len(sent.keys) == 1
    with cs.Recorder() as replied:
        env = b.seal(b"reply")
    with cs.Recorder() as opened:
        assert a.open(env) == b"reply"
    assert opened.keys == replied.keys and len(replied.keys) == 1
    assert replied.keys != sent.keys
    assert cs._counting == cs._recording == []

