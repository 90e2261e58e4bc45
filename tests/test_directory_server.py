"""Key directory registry and the scheduling-only relay behaviors."""

import pytest

import letterseal.crypto_suite as cs
from letterseal.directory_server import (
    Drop,
    Honest,
    KeyDirectory,
    Relay,
    Reorder,
    Replay,
)
from letterseal.errors import KeyNotFound
from letterseal.linev2 import v2_decrypt, v2_encrypt
from letterseal.wire import decode_envelope, encode_envelope

import helpers


def _pub(n: int) -> cs.GroupElement:
    _, pub = cs.dh_keygen(cs.SeededRng(n))
    return pub


def test_register_assigns_sequential_kids():
    d = KeyDirectory()
    kids = [d.register(_pub(i), f"party-{i}") for i in range(5)]
    assert kids == [1, 2, 3, 4, 5]
    assert len(d) == 5


def test_lookup_and_owner_roundtrip():
    d = KeyDirectory()
    pub = _pub(7)
    kid = d.register(pub, "alice")
    assert d.lookup(kid) == pub
    assert isinstance(d.lookup(kid), cs.GroupElement)
    assert d.owner_of(kid) == "alice"


def test_unknown_kid_raises():
    d = KeyDirectory()
    d.register(_pub(0), "a")
    with pytest.raises(KeyNotFound, match="kid 99"):
        d.lookup(99)
    with pytest.raises(KeyNotFound):
        d.owner_of(99)


def test_thousand_registrations_stay_consistent():
    d = KeyDirectory()
    pubs = {}
    for i in range(1000):
        pub = _pub(i)
        pubs[d.register(pub, f"owner-{i}")] = pub
    assert len(d) == 1000
    assert sorted(pubs) == list(range(1, 1001))
    for kid in (1, 500, 1000):
        assert d.lookup(kid) == pubs[kid]
        assert d.owner_of(kid) == f"owner-{kid - 1}"


def test_honest_relay_passes_through():
    r = Relay()
    assert isinstance(r.behavior, Honest)
    assert r.relay(b"one") == [b"one"]
    assert r.relay(bytearray(b"two")) == [b"two"]


def test_replay_duplicates_chosen_ordinal():
    r = Relay(behavior=Replay(ordinal=1))
    assert r.relay(b"m0") == [b"m0"]
    assert r.relay(b"m1") == [b"m1", b"m1"]
    assert r.relay(b"m2") == [b"m2"]


def test_replay_copies_count():
    r = Relay(behavior=Replay(ordinal=0, copies=3))
    assert r.relay(b"m0") == [b"m0"] * 4


@pytest.mark.parametrize("kwargs,msg", [
    (dict(ordinal=-1), "ordinal"),
    (dict(ordinal=0, copies=0), "copies"),
    (dict(ordinal=0, copies=-2), "copies"),
])
def test_replay_refuses_a_negative_ordinal_or_no_copies(kwargs, msg):
    with pytest.raises(ValueError, match=f"^replay {msg} must be"):
        Replay(**kwargs)


def test_drop_swallows_listed_ordinals():
    r = Relay(behavior=Drop([0, 2]))
    assert r.relay(b"m0") == []
    assert r.relay(b"m1") == [b"m1"]
    assert r.relay(b"m2") == []
    assert r.relay(b"m3") == [b"m3"]


def test_drop_accepts_any_iterable():
    assert Drop(range(3)).ordinals == frozenset({0, 1, 2})


def test_drop_refuses_a_negative_ordinal():
    with pytest.raises(ValueError, match="^drop ordinals must be >= 0"):
        Drop([2, -1])


def test_reorder_emits_full_windows_reversed():
    r = Relay(behavior=Reorder(window=3))
    assert r.relay(b"a") == []
    assert r.relay(b"b") == []
    assert r.relay(b"c") == [b"c", b"b", b"a"]
    # next window starts clean
    assert r.relay(b"d") == []
    assert r.relay(b"e") == []
    assert r.relay(b"f") == [b"f", b"e", b"d"]


def test_reorder_flush_drains_partial_window():
    r = Relay(behavior=Reorder(window=4))
    r.relay(b"a")
    r.relay(b"b")
    assert r.flush() == [b"b", b"a"]
    assert r.flush() == []


def test_relay_counters_are_not_constructor_parameters():
    assert Relay(Reorder(2)).relay(b"m0") == []
    with pytest.raises(TypeError):
        Relay(Reorder(2), 5, [b"planted"])
    with pytest.raises(TypeError):
        Relay(Reorder(2), _window_buf=[b"planted"])


def test_reorder_window_must_be_positive():
    with pytest.raises(ValueError):
        Reorder(window=0)


def test_unknown_relay_behavior_is_refused():
    with pytest.raises(TypeError, match="unknown relay behavior: object"):
        Relay(behavior=object()).relay(b"m0")


def test_reordered_v2_traffic_still_decrypts():
    # stateless decrypt tolerates any delivery order
    sa, sb, a_rng, _ = helpers.v2_pair(41)
    relay = Relay(behavior=Reorder(window=5))
    sent = {}
    delivered = []
    for k in range(5):
        pt = b"msg %d" % k
        raw = encode_envelope(v2_encrypt(sa, 0, pt, a_rng))
        sent[raw] = pt
        delivered.extend(relay.relay(raw))
    assert len(delivered) == 5
    assert delivered != list(sent)
    for raw in delivered:
        assert v2_decrypt(sb, decode_envelope(raw)) == sent[raw]
