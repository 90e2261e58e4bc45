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


@pytest.mark.parametrize("n", [1, 15, 31, 32, 33, 63, 64])
def test_rng_token_prefix_consistency(n):
    # every draw must be a prefix of the widest draw from the same point,
    # so the short-output path and the block loop cannot diverge
    assert cs.SeededRng(3).token(n) == cs.SeededRng(3).token(64)[:n]


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


def test_rng_counts_draws_and_only_a_recorder_keeps_them():
    rng = cs.SeededRng(5)
    m = rng.mark()
    with cs.Recorder() as seen:
        first = rng.token(4)
        second = rng.token(40)  # two hash blocks, one draw
    assert seen.draws == [first, second] and seen.keys == []
    assert rng.mark() == m + 2
    rng.token(1)  # no recorder open: counted, kept nowhere
    assert seen.draws == [first, second] and rng.mark() == m + 3
    assert not hasattr(rng, "log") and not hasattr(rng, "draws_since")


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
    b_sk, b_pk, b_key = cs.dh_keygen_with_key(rng)
    assert b_key.private_bytes_raw() == b_sk
    assert REF.x25519_public(a_sk) == a_pk
    assert REF.x25519_public(b_sk) == b_pk
    expected = REF.x25519(b_sk, a_pk)
    assert cs.dh(b_sk, a_pk) == expected
    assert cs.dh(b_key, a_pk) == expected
    assert cs.dh(a_sk, b_pk) == expected


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
    with pytest.raises(DhError):
        cs.dh(a_sk, cs.GroupElement(bytes(32)))
    with pytest.raises(DhError):
        cs.dh(cs.dh_private_key(a_sk), cs.GroupElement(bytes(32)))


# -- derivations --------------------------------------------------------------

def test_digest_kdf_is_plain_hash_of_parts():
    secret, salt = b"s" * 32, b"salt"
    want = hashlib.sha256(secret + salt + b"Key").digest()
    assert cs.digest_kdf(secret, salt, b"Key") == want
    assert isinstance(cs.digest_kdf(secret, salt, b"Key"), cs.Digest)


def test_hash_matches_hashlib():
    assert cs.hash(b"abc") == hashlib.sha256(b"abc").digest()


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
    assert (counts.dh, counts.kdf, counts.aead) == (1, 3, 1)


def test_key_object_counts_like_its_scalar():
    rng = cs.SeededRng(23)
    with cs.count_ops() as counts:
        a_sk, _, a_key = cs.dh_keygen_with_key(rng)
    assert counts.dh == 1
    _, b_pk = cs.dh_keygen(rng)
    with cs.count_ops() as counts:
        key = cs.dh_private_key(a_sk)  # building the object is no dh op
        cs.dh(key, b_pk)
        cs.dh(a_key, b_pk)
    assert counts.dh == 2


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
