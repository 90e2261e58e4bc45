import hashlib
import hmac as hmaclib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from letterseal import crypto_suite as cs
from letterseal.errors import AuthFailure, DhError

KEY = cs.SymmetricKey(bytes(range(32)))
NONCE = cs.AeadNonce(bytes(12))
REF = helpers.load_reference()


# -- fixed-size byte types ---------------------------------------------------

@pytest.mark.parametrize("cls,size", [
    (cs.GroupScalar, 32), (cs.GroupElement, 32), (cs.SharedSecret, 32),
    (cs.SymmetricKey, 32), (cs.Digest, 32), (cs.AeadNonce, 12),
])
def test_fixed_bytes_sizes(cls, size):
    assert cls.SIZE == size
    value = cls(bytes(size))
    assert len(value) == size
    assert isinstance(value, bytes)
    with pytest.raises(ValueError):
        cls(bytes(size - 1))
    with pytest.raises(ValueError):
        cls(bytes(size + 1))
    # derived values skip the check, and keep the type
    assert type(cls.unchecked(bytes(size))) is cls
    assert cls.unchecked(bytes(size)) == value


def test_typed_bytes_carry_no_instance_dict():
    classes = cs._FixedBytes.__subclasses__()
    assert len(classes) == 6
    for cls in classes:
        for value in (cls(bytes(cls.SIZE)), cls.unchecked(bytes(cls.SIZE))):
            assert not hasattr(value, "__dict__"), cls.__name__
            with pytest.raises(AttributeError):
                value.note = 1


def test_fixed_bytes_accepts_bytearray():
    assert cs.SymmetricKey(bytearray(32)) == bytes(32)


# -- seeded rng ---------------------------------------------------------------

def test_rng_deterministic():
    a = cs.SeededRng(7)
    b = cs.SeededRng(7)
    assert [a.token(n) for n in (1, 16, 32, 33, 100)] == \
        [b.token(n) for n in (1, 16, 32, 33, 100)]
    assert cs.SeededRng(8).token(16) != cs.SeededRng(7).token(16)


def test_rng_accepts_bytes_seed():
    assert cs.SeededRng(b"label").token(8) == cs.SeededRng(b"label").token(8)
    assert cs.SeededRng(b"label").token(8) != cs.SeededRng(b"other").token(8)


@pytest.mark.parametrize("seed", [-1, -2**64])
def test_rng_refuses_a_negative_seed(seed):
    with pytest.raises(ValueError, match=f"non-negative, got {seed}$"):
        cs.SeededRng(seed)
    assert cs.SeededRng(0).token(8) == cs.SeededRng(b"\x00").token(8)


@pytest.mark.parametrize("n", [1, 15, 31, 32, 33, 63, 64, 4096, 65536])
def test_rng_token_prefix_consistency(n):
    # every draw must be a prefix of a wider draw from the same point,
    # so the short-output path and the block loop cannot diverge
    wide = cs.SeededRng(3).token(max(64, 2 * n))
    assert cs.SeededRng(3).token(n) == wide[:n]


def test_rng_fork_is_independent():
    root = cs.SeededRng(1)
    a = root.fork(b"a")
    b = root.fork(b"b")
    assert a.token(16) != b.token(16)
    # forking must not advance the parent stream
    forked = cs.SeededRng(1)
    forked.fork(b"a")
    forked.fork(b"b")
    assert forked.token(16) == cs.SeededRng(1).token(16)
    # fork identity depends on the seed and label, not the parent position
    late = cs.SeededRng(1)
    late.token(8)
    assert late.fork(b"a").token(16) == cs.SeededRng(1).fork(b"a").token(16)


def test_rng_keeps_no_history_and_only_a_recorder_keeps_draws():
    rng = cs.SeededRng(5)
    with cs.Recorder() as seen:
        first = rng.token(4)
        second = rng.token(40)  # two hash blocks, one draw
    assert seen.draws == [first, second] and seen.keys == []
    rng.token(1)  # no recorder open: kept nowhere
    assert seen.draws == [first, second]
    assert vars(rng).keys() == {"_state", "_counter"}  # a stream position
    assert not hasattr(rng, "log") and not hasattr(rng, "mark")


def test_rng_refuses_a_negative_length_and_draws_nothing():
    rng, twin = cs.SeededRng(9), cs.SeededRng(9)
    rng.token(8), twin.token(8)
    with cs.Recorder() as seen:
        for n in (-1, -40):
            with pytest.raises(ValueError, match="non-negative"):
                rng.token(n)
    assert seen.draws == []
    assert rng.token(16) == twin.token(16)


def test_nested_draw_recorders_both_see_each_draw():
    rng = cs.SeededRng(6)
    with cs.Recorder() as outer:
        a = rng.token(8)
        with cs.Recorder() as inner:
            b = rng.token(8)
    assert outer.draws == [a, b] and inner.draws == [b]


# -- diffie-hellman -----------------------------------------------------------

def test_dh_shared_secret_agrees():
    rng = cs.SeededRng(11)
    a_sk, a_pk = cs.dh_keygen(rng)
    b_sk, b_pk = cs.dh_keygen(rng)
    assert cs.dh(a_sk, b_pk) == cs.dh(b_sk, a_pk)
    assert isinstance(cs.dh(a_sk, b_pk), cs.SharedSecret)


def test_dh_to_public_matches_keygen():
    a_sk, a_pk = cs.dh_keygen(cs.SeededRng(12))
    assert cs.dh_to_public(a_sk) == a_pk


@pytest.mark.parametrize("seed", range(8))
def test_dh_agrees_with_independent_x25519(seed):
    rng = cs.SeededRng(1000 + seed)
    a_sk, a_pk = cs.dh_keygen(rng)
    b_sk, b_pk = cs.dh_keygen(rng)
    assert b_sk.key.private_bytes_raw() == b_sk
    assert REF.x25519_public(a_sk) == a_pk
    assert REF.x25519_public(b_sk) == b_pk
    expected = REF.x25519(b_sk, a_pk)
    assert cs.dh(b_sk, a_pk) == expected  # the keygen scalar's object
    assert cs.dh(cs.GroupScalar(bytes(b_sk)), a_pk) == expected  # stored
    assert cs.dh(a_sk, b_pk) == expected
    assert cs.dh(cs.GroupScalar(bytes(a_sk)), b_pk) == expected


def test_key_pair_reads_its_public_off_one_object(monkeypatch):
    secret, public = cs.dh_keygen(cs.SeededRng(26))
    built = helpers.count_key_objects(monkeypatch)
    pair = cs.key_pair(secret)
    assert built == [secret]  # a pair's scalar too builds a fresh object
    assert pair.secret.key is not secret.key
    assert pair == (secret, public)
    assert pair.secret.key.private_bytes_raw() == secret
    assert pair.public == REF.x25519_public(secret)
    again = cs.key_pair(secret)
    assert again == pair and again.secret.key is not pair.secret.key
    assert repr(pair.secret.key) not in repr(pair)
    with pytest.raises(AttributeError):
        pair.secret = cs.GroupScalar(bytes(32))


def test_key_pair_refuses_a_wrong_length_secret():
    for secret in (b"short", bytes(33)):
        with pytest.raises(ValueError, match="32 bytes"):
            cs.key_pair(secret)


def test_clamp_scalar_bits():
    raw = bytes([0xFF] * 32)
    clamped = cs.clamp_scalar(raw)
    assert clamped[0] & 0x07 == 0
    assert clamped[31] & 0x80 == 0
    assert clamped[31] & 0x40 == 0x40


@pytest.mark.parametrize("n", [0, 4, 31, 33])
def test_clamp_scalar_refuses_other_lengths(n):
    with pytest.raises(ValueError, match=f"got {n}$"):
        cs.clamp_scalar(bytes(n))


def test_dh_rejects_low_order_result():
    a_sk, _ = cs.dh_keygen(cs.SeededRng(13))
    for secret in (a_sk, cs.GroupScalar(bytes(a_sk))):
        with pytest.raises(DhError):
            cs.dh(secret, cs.GroupElement(bytes(32)))


def test_dh_refuses_an_all_zero_secret_from_the_backend(monkeypatch):
    """OpenSSL refuses a small-order peer inside exchange; a backend that
    returned the zero secret instead meets the check after it. The fake
    backend stands in for dh_private_key, the one place an object is
    built."""
    class ZeroExchange:
        def exchange(self, peer):
            return bytes(32)

    sk, pk = cs.dh_keygen(cs.SeededRng(14))
    monkeypatch.setattr(cs, "dh_private_key", lambda secret: ZeroExchange())
    with pytest.raises(DhError, match="^all-zero shared secret"):
        cs.dh(cs.GroupScalar(bytes(sk)), pk)


# -- derivations --------------------------------------------------------------

def test_digest_kdf_is_plain_hash_of_parts():
    secret, salt = b"s" * 32, b"salt"
    want = hashlib.sha256(secret + salt + b"Key").digest()
    out = cs.digest_kdf(secret, salt, b"Key")
    assert out == want
    assert type(out) is cs.Digest and len(out) == 32


def test_hash_matches_hashlib():
    out = cs.hash(b"abc")
    assert out == hashlib.sha256(b"abc").digest()
    assert type(out) is cs.Digest and len(out) == 32


def test_kdf_root_splits_and_varies():
    ikm = bytes(range(32))
    rk, ck = cs.kdf_root(ikm, cs.ZERO_SALT)
    assert type(rk) is type(ck) is cs.SymmetricKey
    assert len(rk) == len(ck) == 32
    assert rk != ck
    rk2, ck2 = cs.kdf_root(ikm, bytes([1]) * 32)
    assert (rk2, ck2) != (rk, ck)
    assert cs.kdf_root(ikm, cs.ZERO_SALT) == (rk, ck)
    with pytest.raises(ValueError, match="non-empty"):
        cs.kdf_root(b"", cs.ZERO_SALT)


def test_kdf_chain_matches_hmac_and_advances():
    ck = cs.SymmetricKey(b"\x07" * 32)
    mk, ck_next = cs.kdf_chain(ck)
    assert type(mk) is type(ck_next) is cs.SymmetricKey
    assert len(mk) == len(ck_next) == 32
    assert mk == hmaclib.new(ck, b"\x01", hashlib.sha256).digest()
    assert ck_next == hmaclib.new(ck, b"\x02", hashlib.sha256).digest()
    assert mk != ck_next != ck


# the pads are keyed once and copied per message, so a message must not
# see the one before it; lengths around the 64-byte block are drawn often
@settings(max_examples=200)
@given(key=st.one_of(st.binary(max_size=200),
                     st.sampled_from([0, 1, 32, 63, 64, 65, 128, 200])
                     .flatmap(lambda n: st.binary(min_size=n, max_size=n))),
       msgs=st.lists(st.binary(max_size=300), min_size=1, max_size=3))
def test_keyed_hmac_matches_stdlib(key, msgs):
    keyed = cs._hmac_key(key)
    for msg in msgs:
        assert cs._hmac(keyed, msg) == hmaclib.digest(key, msg, "sha256")


@pytest.mark.parametrize("n", [0, 1, 32, 64, 65, 100])
def test_kdf_root_matches_reference_for_salt_lengths(n):
    ikm = bytes(range(7, 39))
    salt = bytes((5 * i + n) % 256 for i in range(n))
    assert cs.kdf_root(ikm, salt) == REF.kdf_root(ikm, salt)


# -- aead and block modes ------------------------------------------------------

@settings(max_examples=40)
@given(pt=st.binary(max_size=256), ad=st.binary(max_size=64))
def test_aead_roundtrip(pt, ad):
    sealed = cs.aead_seal(KEY, NONCE, pt, ad)
    assert len(sealed) == len(pt) + 16
    assert cs.aead_open(KEY, NONCE, sealed, ad) == pt


@settings(max_examples=40)
@given(pt=st.binary(min_size=1, max_size=64), flip=st.integers(0, 79))
def test_aead_tamper_detected(pt, flip):
    sealed = bytearray(cs.aead_seal(KEY, NONCE, pt, b"ad"))
    sealed[flip % len(sealed)] ^= 0x01
    with pytest.raises(AuthFailure):
        cs.aead_open(KEY, NONCE, bytes(sealed), b"ad")


def test_aead_ad_mismatch_detected():
    sealed = cs.aead_seal(KEY, NONCE, b"msg", b"right")
    with pytest.raises(AuthFailure):
        cs.aead_open(KEY, NONCE, sealed, b"wrong")


def test_aead_open_rejects_short_input():
    with pytest.raises(AuthFailure):
        cs.aead_open(KEY, NONCE, b"\x00" * 15, b"")


@settings(max_examples=40)
@given(pt=st.binary(max_size=200))
def test_cbc_matches_reference_padded(pt):
    iv = bytes(range(16))
    ct = cs.cbc_encrypt(KEY, iv, pt)
    assert len(ct) % 16 == 0
    assert len(ct) >= len(pt) + 1  # always at least one pad byte
    assert ct == REF.aes256_cbc_encrypt(KEY, iv, pt)


def test_cbc_iv_length_checked():
    with pytest.raises(ValueError):
        cs.cbc_encrypt(KEY, bytes(8), b"x")


def test_ecb_single_block():
    out = cs.ecb_encrypt_block(KEY, bytes(16))
    assert len(out) == 16
    with pytest.raises(ValueError):
        cs.ecb_encrypt_block(KEY, bytes(15))


# -- operation counting --------------------------------------------------------

def test_count_ops_counts_each_kind():
    rng = cs.SeededRng(21)
    a_sk, a_pk = cs.dh_keygen(rng)
    b_sk, b_pk = cs.dh_keygen(rng)
    with cs.count_ops() as counts:
        cs.dh(a_sk, b_pk)
        cs.digest_kdf(b"s", b"t", b"Key")
        cs.kdf_root(bytes(32), cs.ZERO_SALT)
        cs.kdf_chain(cs.SymmetricKey(bytes(32)))
        cs.aead_seal(KEY, NONCE, b"m", b"")
        cs.aes_cbc(KEY, bytes(16))
    assert (counts.dh, counts.kdf, counts.aead) == (1, 3, 2)


def test_key_object_counts_like_its_scalar():
    rng = cs.SeededRng(23)
    with cs.count_ops() as counts:
        a_sk, _ = cs.dh_keygen(rng)
    assert counts.dh == 1
    _, b_pk = cs.dh_keygen(rng)
    with cs.count_ops() as counts:
        held = cs.dh_key(cs.GroupScalar(bytes(a_sk)))  # a build is no dh op
        cs.dh(held, b_pk)
        cs.dh(a_sk, b_pk)
    assert counts.dh == 2


@pytest.mark.parametrize("seed", range(6))
def test_dh_key_passes_an_object_through_and_builds_one_for_a_scalar(seed):
    """A pair's scalar comes back as itself, its object with it; stored
    bytes come back as a copy that holds a new object."""
    sk, pk = cs.dh_keygen(cs.SeededRng(seed))
    assert cs.dh_key(sk) is sk
    stored = cs.GroupScalar(bytes(sk))
    copy = cs.dh_key(stored)
    assert copy == sk and copy is not stored and copy.key is not sk.key
    assert not hasattr(stored, "__dict__")  # the input stays as it was
    assert cs.dh_key(copy) is copy and cs.dh_key(stored) is not copy
    assert copy.key.public_key().public_bytes_raw() == pk


def test_a_keygen_scalar_holds_its_object_and_its_bytes_hold_none(
        monkeypatch):
    sk, pk = cs.dh_keygen(cs.SeededRng(27))
    _, peer = cs.dh_keygen(cs.SeededRng(28))
    built = helpers.count_key_objects(monkeypatch)
    assert cs.dh_key(sk) is sk and sk.key.private_bytes_raw() == sk
    with cs.count_ops() as counts:
        shared = cs.dh(sk, peer)
    assert (counts.dh, built) == (1, [])  # the exchange builds nothing
    copies = (cs.GroupScalar(sk), cs.GroupScalar(bytes(sk)),
              cs.GroupScalar.unchecked(sk), cs.clamp_scalar(sk))
    for other in copies:
        assert other == sk and type(other) is cs.GroupScalar
        assert not hasattr(other, "__dict__")
        assert cs.dh(other, peer) == shared
    assert built == [bytes(sk)] * len(copies)  # one build per exchange


def test_count_ops_nested_scopes():
    with cs.count_ops() as outer:
        cs.dh_keygen(cs.SeededRng(22))  # keygen is one dh op
        with cs.count_ops() as inner:
            cs.digest_kdf(b"s", b"t", b"u")
    assert (outer.dh, outer.kdf) == (1, 1)
    assert (inner.dh, inner.kdf) == (0, 1)


def test_count_ops_scope_never_receives_draws():
    rng = cs.SeededRng(24)
    with cs.count_ops() as counts:
        with cs.Recorder() as seen:
            cs.dh_keygen(rng)
            rng.token(16)
        rng.token(4)  # with the counting scope alone
    assert len(seen.draws) == 2
    assert vars(counts) == {"dh": 1, "kdf": 0, "aead": 0}


def test_ops_outside_scope_not_counted():
    cs.digest_kdf(b"a", b"b", b"c")  # no scope open; must not leak anywhere
    with cs.count_ops() as counts:
        pass
    assert (counts.dh, counts.kdf, counts.aead) == (0, 0, 0)


def test_each_scope_sits_on_its_own_kinds_list_until_its_block_ends():
    rng = cs.SeededRng(25)
    with pytest.raises(DhError):
        with cs.count_ops() as counts, cs.Recorder() as seen:
            assert cs._counting == [counts] and cs._recording == [seen]
            cs.dh_keygen(rng)
            cs.dh(cs.GroupScalar(bytes(32)), cs.GroupElement(bytes(32)))
    assert cs._counting == cs._recording == []
    assert (counts.dh, len(seen.draws)) == (2, 1)
