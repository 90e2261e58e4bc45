#!/usr/bin/env python3
"""Independent reference oracle for the frozen known-answer vectors.

Every primitive here is implemented from the standard documents in plain
Python (SHA-256 per FIPS 180-4, HMAC per RFC 2104, HKDF per RFC 5869,
AES-256 per FIPS-197, GCM per SP 800-38D, CBC per SP 800-38A, X25519 per
RFC 7748), deliberately sharing no code with the package, which uses an
OpenSSL-backed library. On top of them sit whole envelopes of each
design (v1_seal, v2_seal, vdr_seal), the ratchet's state snapshot
(vdr_snapshot) and the package's seeded byte source (SeededStream), so the
tests can rebuild every golden envelope and snapshot byte for byte. The
script first proves the primitives against published standard vectors,
then derives the protocol vectors and writes them to
src/letterseal/kat_vectors.txt, the file the package ships and checks
itself against, in the line format

    name hex(input) [hex(input) ...] hex(output)

with "-" standing for an empty byte string. Run from the repository root:

    python tools/reference_kat.py
"""

import os
import struct
import sys

# ---------------------------------------------------------------------------
# SHA-256 (FIPS 180-4)
# ---------------------------------------------------------------------------

_K = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
]

_H0 = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
]


def _rotr(x, n):
    return ((x >> n) | (x << (32 - n))) & 0xFFFFFFFF


def sha256(data: bytes) -> bytes:
    bitlen = len(data) * 8
    data = data + b"\x80"
    while len(data) % 64 != 56:
        data += b"\x00"
    data += struct.pack(">Q", bitlen)

    h = list(_H0)
    for off in range(0, len(data), 64):
        w = list(struct.unpack(">16I", data[off:off + 64]))
        for t in range(16, 64):
            s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ (w[t - 15] >> 3)
            s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ (w[t - 2] >> 10)
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & 0xFFFFFFFF)
        a, b, c, d, e, f, g, hh = h
        for t in range(64):
            S1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            t1 = (hh + S1 + ch + _K[t] + w[t]) & 0xFFFFFFFF
            S0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            t2 = (S0 + maj) & 0xFFFFFFFF
            hh, g, f, e, d, c, b, a = (
                g, f, e, (d + t1) & 0xFFFFFFFF, c, b, a, (t1 + t2) & 0xFFFFFFFF,
            )
        h = [(x + y) & 0xFFFFFFFF for x, y in zip(h, [a, b, c, d, e, f, g, hh])]
    return struct.pack(">8I", *h)


# ---------------------------------------------------------------------------
# HMAC-SHA256 (RFC 2104) and HKDF-SHA256 (RFC 5869)
# ---------------------------------------------------------------------------

def hmac_sha256(key: bytes, msg: bytes) -> bytes:
    if len(key) > 64:
        key = sha256(key)
    key = key + b"\x00" * (64 - len(key))
    ipad = bytes(k ^ 0x36 for k in key)
    opad = bytes(k ^ 0x5C for k in key)
    return sha256(opad + sha256(ipad + msg))


def hkdf_sha256(salt: bytes, ikm: bytes, info: bytes, length: int) -> bytes:
    if not salt:
        salt = b"\x00" * 32
    prk = hmac_sha256(salt, ikm)
    okm = b""
    t = b""
    counter = 1
    while len(okm) < length:
        t = hmac_sha256(prk, t + info + bytes([counter]))
        okm += t
        counter += 1
    return okm[:length]


# ---------------------------------------------------------------------------
# AES-256 (FIPS-197), ECB single block, CBC with PKCS#7, GCM (SP 800-38D)
# ---------------------------------------------------------------------------

_SBOX = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36, 0x6c]


def _xtime(a):
    a <<= 1
    if a & 0x100:
        a ^= 0x11b
    return a & 0xFF


def _key_expansion(key: bytes):
    nk = 8
    nr = 14
    words = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (nr + 1)):
        temp = list(words[i - 1])
        if i % nk == 0:
            temp = temp[1:] + temp[:1]
            temp = [_SBOX[b] for b in temp]
            temp[0] ^= _RCON[i // nk - 1]
        elif i % nk == 4:
            temp = [_SBOX[b] for b in temp]
        words.append([w ^ t for w, t in zip(words[i - nk], temp)])
    return [bytes(b for c in range(4) for b in words[4 * r + c])
            for r in range(nr + 1)]


def aes256_encrypt_block(key: bytes, block: bytes) -> bytes:
    assert len(key) == 32 and len(block) == 16
    round_keys = _key_expansion(key)
    state = [list(block[i::4]) for i in range(4)]  # state[r][c]

    def add_round_key(rk):
        for c in range(4):
            for r in range(4):
                state[r][c] ^= rk[4 * c + r]

    def sub_bytes():
        for r in range(4):
            for c in range(4):
                state[r][c] = _SBOX[state[r][c]]

    def shift_rows():
        for r in range(1, 4):
            state[r] = state[r][r:] + state[r][:r]

    def mix_columns():
        for c in range(4):
            a = [state[r][c] for r in range(4)]
            state[0][c] = _xtime(a[0]) ^ _xtime(a[1]) ^ a[1] ^ a[2] ^ a[3]
            state[1][c] = a[0] ^ _xtime(a[1]) ^ _xtime(a[2]) ^ a[2] ^ a[3]
            state[2][c] = a[0] ^ a[1] ^ _xtime(a[2]) ^ _xtime(a[3]) ^ a[3]
            state[3][c] = _xtime(a[0]) ^ a[0] ^ a[1] ^ a[2] ^ _xtime(a[3])

    add_round_key(round_keys[0])
    for rnd in range(1, 14):
        sub_bytes()
        shift_rows()
        mix_columns()
        add_round_key(round_keys[rnd])
    sub_bytes()
    shift_rows()
    add_round_key(round_keys[14])
    return bytes(state[r][c] for c in range(4) for r in range(4))


def pkcs7_pad(data: bytes) -> bytes:
    n = 16 - len(data) % 16
    return data + bytes([n]) * n


def aes256_cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    return aes256_cbc_encrypt_blocks(key, iv, pkcs7_pad(plaintext))


def aes256_cbc_encrypt_blocks(key: bytes, iv: bytes, data: bytes) -> bytes:
    """CBC over block-aligned data, no padding added."""
    assert len(data) % 16 == 0
    out = b""
    prev = iv
    for off in range(0, len(data), 16):
        block = bytes(a ^ b for a, b in zip(data[off:off + 16], prev))
        prev = aes256_encrypt_block(key, block)
        out += prev
    return out


def _gf128_mult(x: int, y: int) -> int:
    R = 0xE1000000000000000000000000000000
    z = 0
    v = x
    for i in range(128):
        if (y >> (127 - i)) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ R
        else:
            v >>= 1
    return z


def _ghash(h: int, aad: bytes, ct: bytes) -> bytes:
    def blocks(data):
        for off in range(0, len(data), 16):
            yield data[off:off + 16].ljust(16, b"\x00")

    y = 0
    for blk in blocks(aad):
        y = _gf128_mult(y ^ int.from_bytes(blk, "big"), h)
    for blk in blocks(ct):
        y = _gf128_mult(y ^ int.from_bytes(blk, "big"), h)
    lens = struct.pack(">QQ", len(aad) * 8, len(ct) * 8)
    y = _gf128_mult(y ^ int.from_bytes(lens, "big"), h)
    return y.to_bytes(16, "big")


def aes256_gcm_encrypt(key: bytes, iv: bytes, plaintext: bytes, aad: bytes) -> bytes:
    assert len(iv) == 12, "only the 96-bit IV path is implemented"
    h = int.from_bytes(aes256_encrypt_block(key, b"\x00" * 16), "big")
    j0 = iv + b"\x00\x00\x00\x01"

    def inc32(block):
        ctr = (int.from_bytes(block[12:], "big") + 1) & 0xFFFFFFFF
        return block[:12] + ctr.to_bytes(4, "big")

    ct = b""
    cb = j0
    for off in range(0, len(plaintext), 16):
        cb = inc32(cb)
        ks = aes256_encrypt_block(key, cb)
        chunk = plaintext[off:off + 16]
        ct += bytes(a ^ b for a, b in zip(chunk, ks))
    s = _ghash(h, aad, ct)
    tag = bytes(a ^ b for a, b in zip(aes256_encrypt_block(key, j0), s))
    return ct + tag


# ---------------------------------------------------------------------------
# X25519 (RFC 7748)
# ---------------------------------------------------------------------------

_P25519 = 2 ** 255 - 19
_A24 = 121665


def clamp(k: bytes) -> bytes:
    """decodeScalar25519's bit clearing and setting, kept as bytes."""
    b = bytearray(k)
    b[0] &= 248
    b[31] &= 127
    b[31] |= 64
    return bytes(b)


def _decode_scalar(k: bytes) -> int:
    return int.from_bytes(clamp(k), "little")


def _decode_u(u: bytes) -> int:
    b = bytearray(u)
    b[31] &= 127
    return int.from_bytes(b, "little")


def x25519(scalar: bytes, u_point: bytes) -> bytes:
    k = _decode_scalar(scalar)
    x1 = _decode_u(u_point)
    x2, z2 = 1, 0
    x3, z3 = x1, 1
    swap = 0
    for t in reversed(range(255)):
        kt = (k >> t) & 1
        swap ^= kt
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = kt
        a = (x2 + z2) % _P25519
        aa = a * a % _P25519
        b = (x2 - z2) % _P25519
        bb = b * b % _P25519
        e = (aa - bb) % _P25519
        c = (x3 + z3) % _P25519
        d = (x3 - z3) % _P25519
        da = d * a % _P25519
        cb = c * b % _P25519
        x3 = (da + cb) % _P25519
        x3 = x3 * x3 % _P25519
        z3 = (da - cb) % _P25519
        z3 = z3 * z3 % _P25519
        z3 = z3 * x1 % _P25519
        x2 = aa * bb % _P25519
        z2 = e * (aa + _A24 * e) % _P25519
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    out = x2 * pow(z2, _P25519 - 2, _P25519) % _P25519
    return out.to_bytes(32, "little")


_BASEPOINT = b"\x09" + b"\x00" * 31


def x25519_public(scalar: bytes) -> bytes:
    return x25519(scalar, _BASEPOINT)


# ---------------------------------------------------------------------------
# Standards inputs, read by the self-checks and by the vectors
# ---------------------------------------------------------------------------

# GCM spec test case 16 (AES-256, 96-bit IV, with AAD)
GCM_KEY = bytes.fromhex(
    "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308")
GCM_IV = bytes.fromhex("cafebabefacedbaddecaf888")
GCM_PT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a"
    "86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525"
    "b16aedf5aa0de657ba637b39")
GCM_AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")

# NIST SP 800-38A F.2.5 CBC-AES256.Encrypt
CBC_KEY = bytes.fromhex(
    "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
CBC_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
CBC_PT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710")

# FIPS-197 appendix C.3 (AES-256)
AES_KEY = bytes(range(32))
AES_BLOCK = bytes.fromhex("00112233445566778899aabbccddeeff")

# RFC 7748 section 5.2, first vector
X25519_SCALAR = bytes.fromhex(
    "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
X25519_U = bytes.fromhex(
    "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")

# RFC 5869 test case 1
HKDF_IKM = b"\x0b" * 22
HKDF_SALT = bytes.fromhex("000102030405060708090a0b0c")


# ---------------------------------------------------------------------------
# Self-checks against published standard vectors
# ---------------------------------------------------------------------------

def _self_check():
    assert sha256(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    assert sha256(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")

    # RFC 4231 test case 1
    assert hmac_sha256(b"\x0b" * 20, b"Hi There").hex() == (
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")

    # RFC 5869 test case 1
    okm = hkdf_sha256(HKDF_SALT, HKDF_IKM,
                      bytes.fromhex("f0f1f2f3f4f5f6f7f8f9"), 42)
    assert okm.hex() == (
        "3cb25f25faacd57a90434f64d0362f2a"
        "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865")

    assert aes256_encrypt_block(AES_KEY, AES_BLOCK).hex() == (
        "8ea2b7ca516745bfeafc49904b496089")

    # the block-aligned prefix; the vector's last block is the padding's
    cbc_ct = aes256_cbc_encrypt(CBC_KEY, CBC_IV, CBC_PT)
    assert cbc_ct[:64].hex() == (
        "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
        "9cfc4e967edb808d679f777bc6702c7d"
        "39f23369a9d9bacfa530e26304231461"
        "b2eb05e2c39be9fcda6c19078c6a9d1b")

    out = aes256_gcm_encrypt(GCM_KEY, GCM_IV, GCM_PT, GCM_AAD)
    assert out[:-16].hex() == (
        "522dc1f099567d07f47f37a32a84427d"
        "643a8cdcbfe5c0c97598a2bd2555d1aa"
        "8cb08e48590dbb3da7b08b1056828838"
        "c5f61e6393ba7a0abcc9f662")
    assert out[-16:].hex() == "76fc6ece0f4e1768cddf8853bb2d551b"

    # RFC 7748 section 5.2 vectors
    assert x25519(X25519_SCALAR, X25519_U).hex() == (
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552")
    assert x25519(
        bytes.fromhex(
            "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d"),
        bytes.fromhex(
            "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493"),
    ).hex() == "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"

    # RFC 7748 section 6.1 Diffie-Hellman
    a_sk = bytes.fromhex(
        "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
    b_sk = bytes.fromhex(
        "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
    a_pk = x25519_public(a_sk)
    b_pk = x25519_public(b_sk)
    assert a_pk.hex() == (
        "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
    assert b_pk.hex() == (
        "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
    shared = x25519(a_sk, b_pk)
    assert shared == x25519(b_sk, a_pk)
    assert shared.hex() == (
        "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")


# ---------------------------------------------------------------------------
# Derived protocol vectors
# ---------------------------------------------------------------------------

ROOT_KDF_INFO = b"LINEvDR-root"
ZERO_SALT = b"\x00" * 32


def kdf_root(ikm: bytes, salt: bytes):
    okm = hkdf_sha256(salt, ikm, ROOT_KDF_INFO, 64)
    return okm[:32], okm[32:]


def kdf_chain(ck: bytes):
    return hmac_sha256(ck, b"\x01"), hmac_sha256(ck, b"\x02")


def fold(digest: bytes) -> bytes:
    """The two 16-byte halves of a digest, XORed into one block."""
    return bytes(a ^ b for a, b in zip(digest[:16], digest[16:]))


def v1_derive(pms: bytes, salt: bytes):
    k_e = sha256(pms + salt + b"Key")
    return k_e, fold(sha256(pms + salt + b"IV"))


def v1_tag(k_e: bytes, ciphertext: bytes) -> bytes:
    """AES-256 of the folded SHA-256 digest of the ciphertext."""
    return aes256_encrypt_block(k_e, fold(sha256(ciphertext)))


def v1_seal_blocks(pms: bytes, salt: bytes, ctype: int, data: bytes,
                   kid_s: int, kid_r: int) -> bytes:
    """Encoded v1 envelope whose CBC input is ``data`` exactly, padding
    included; a test can so seal a malformed padding under a valid tag.

    Layout: vers, ctype, salt, kid_s, kid_r, u32 length, C, tag."""
    k_e, iv = v1_derive(pms, salt)
    ct = aes256_cbc_encrypt_blocks(k_e, iv, data)
    return (bytes([1, ctype]) + salt + struct.pack(">III", kid_s, kid_r, len(ct))
            + ct + v1_tag(k_e, ct))


def v1_seal(pms: bytes, salt: bytes, ctype: int, m: bytes,
            kid_s: int, kid_r: int) -> bytes:
    """Encoded v1 envelope of plaintext ``m``, PKCS#7-padded."""
    return v1_seal_blocks(pms, salt, ctype, pkcs7_pad(m), kid_s, kid_r)


class SeededStream:
    """The package's seeded byte source, rebuilt from its definition:
    SHA-256 in counter mode over SHA-256("letterseal-rng" || seed). A draw
    takes whole 32-byte blocks, at least one, and keeps the first n bytes.
    """

    def __init__(self, seed):
        if isinstance(seed, int):
            seed = seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "big")
        self.state = sha256(b"letterseal-rng" + seed)
        self.counter = 0

    def token(self, n: int) -> bytes:
        out = b""
        while not out or len(out) < n:
            out += sha256(self.state + struct.pack(">Q", self.counter))
            self.counter += 1
        return out[:n]

    def fork(self, label: bytes) -> "SeededStream":
        return SeededStream(sha256(self.state + b"fork" + label))


def v2_derive(pms: bytes, salt: bytes):
    return sha256(pms + salt + b"Key")


def _nonce_material(counter: int, rand4: bytes) -> bytes:
    """A v2 or ratchet envelope's 8 nonce bytes; the AES-GCM nonce is
    these and four zero bytes."""
    assert len(rand4) == 4
    return struct.pack(">I", counter) + rand4


def v2_seal(pms: bytes, salt: bytes, ctr: int, rand4: bytes, ctype: int,
            m: bytes, kid_s: int, kid_r: int, sid: str, rid: str) -> bytes:
    """Encoded v2 envelope of plaintext ``m``.

    AD: rid and sid, each behind its u16 length, kid_s, kid_r, vers, ctype.
    Layout: vers, ctype, salt, sid and rid each behind its u16 length,
    kid_s, kid_r, nonce material, u32 length, C with its GCM tag."""
    sid_b, rid_b = sid.encode(), rid.encode()
    material = _nonce_material(ctr, rand4)
    ad = (struct.pack(">H", len(rid_b)) + rid_b + struct.pack(">H", len(sid_b))
          + sid_b + struct.pack(">IIBB", kid_s, kid_r, 2, ctype))
    ct = aes256_gcm_encrypt(v2_derive(pms, salt), material + bytes(4), m, ad)
    return (bytes([2, ctype]) + salt + struct.pack(">H", len(sid_b)) + sid_b
            + struct.pack(">H", len(rid_b)) + rid_b
            + struct.pack(">II", kid_s, kid_r) + material
            + struct.pack(">I", len(ct)) + ct)


def vdr_seal(ck: bytes, epoch: int, index: int, eph_pub: bytes,
             rand4: bytes, ctype: int, m: bytes, kid_s: int, kid_r: int):
    """Encoded ratchet envelope of plaintext ``m`` at stage (epoch, index),
    sealed under the message key of chain key ``ck``; returns it with the
    next chain key.

    AD: kid_s, kid_r, vers, ctype, eph_pub, index. Layout: vers, ctype,
    kid_s, kid_r, eph_pub, index, nonce material, u32 length, C with its
    GCM tag."""
    mk, next_ck = kdf_chain(ck)
    material = _nonce_material(epoch, rand4)
    ad = (struct.pack(">IIBB", kid_s, kid_r, 3, ctype) + eph_pub
          + struct.pack(">I", index))
    ct = aes256_gcm_encrypt(mk, material + bytes(4), m, ad)
    return (struct.pack(">BBII", 3, ctype, kid_s, kid_r) + eph_pub
            + struct.pack(">I", index) + material + struct.pack(">I", len(ct))
            + ct), next_ck


def vdr_snapshot(rk: bytes, sending, receiving, indices, kids,
                 skipped) -> bytes:
    """A ratchet state's VDR6 snapshot. sending is (ck_send, the own
    ephemeral's scalar) and receiving is (ck_recv, peer_eph_pub), each None
    where the chain is unset; flag bit 0 marks sending, bit 1 receiving.
    indices is (j_s, i_r, j_r): no send epoch, which is i_r + 1 with a
    receive chain and 0 without. kids is (kid_self, kid_peer), skipped is
    [((i, j), key)] in cache order.

    Layout: magic, flags, rk, the set chains, the indices, the kids, u16
    cache count, then (i, j) and the key per cached key."""
    chains = [chain for chain in (sending, receiving) if chain is not None]
    flags = (sending is not None) | (receiving is not None) << 1
    return (b"VDR6" + bytes([flags]) + rk
            + b"".join(field for chain in chains for field in chain)
            + struct.pack(">IIIIIH", *indices, *kids, len(skipped))
            + b"".join(struct.pack(">II", i, j) + key
                       for (i, j), key in skipped))


def build_vectors():
    vectors = []

    def add(name, inputs, output):
        vectors.append((name, inputs, output))

    add("sha256_empty", [b""], sha256(b""))
    add("sha256_abc", [b"abc"], sha256(b"abc"))

    add("x25519_rfc7748", [X25519_SCALAR, X25519_U],
        x25519(X25519_SCALAR, X25519_U))

    base_scalar = bytes(range(32))
    add("x25519_base_point", [base_scalar], x25519_public(base_scalar))

    rk, ck = kdf_root(HKDF_IKM, HKDF_SALT)
    add("hkdf_root_label", [HKDF_IKM, HKDF_SALT], rk + ck)

    mk, ck2 = kdf_chain(b"\x00" * 32)
    add("hmac_chain_zero", [b"\x00" * 32], mk + ck2)

    add("aes_gcm_nist", [GCM_KEY, GCM_IV, GCM_PT, GCM_AAD],
        aes256_gcm_encrypt(GCM_KEY, GCM_IV, GCM_PT, GCM_AAD))
    add("aes_ecb_fips197", [AES_KEY, AES_BLOCK],
        aes256_encrypt_block(AES_KEY, AES_BLOCK))
    add("aes_cbc_pkcs7", [CBC_KEY, CBC_IV, CBC_PT],
        aes256_cbc_encrypt(CBC_KEY, CBC_IV, CBC_PT))

    pms = bytes(range(32))
    salt8 = bytes.fromhex("0001020304050607")
    k_e, iv = v1_derive(pms, salt8)
    add("v1_derive", [pms, salt8], k_e + iv)

    salt16 = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    add("v2_derive", [pms, salt16], v2_derive(pms, salt16))

    a_scalar = b"\x01" * 32
    x_scalar = b"\x02" * 32
    y_scalar = b"\x03" * 32
    g_y = x25519_public(y_scalar)
    ikm = x25519(a_scalar, g_y) + x25519(x_scalar, g_y)
    rk0, ck00 = kdf_root(ikm, ZERO_SALT)
    add("vdr_rk0", [a_scalar, x_scalar, y_scalar], rk0 + ck00)

    return vectors


def format_vectors(vectors):
    lines = []
    for name, inputs, output in vectors:
        fields = [name]
        for inp in inputs:
            fields.append(inp.hex() if inp else "-")
        fields.append(output.hex())
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def main():
    _self_check()
    out_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "..", "src", "letterseal", "kat_vectors.txt")
    out_path = os.path.normpath(out_path)
    text = format_vectors(build_vectors())
    with open(out_path, "w") as fh:
        fh.write(text)
    sys.stdout.write(f"self-checks passed; wrote {out_path}\n")
    sys.stdout.write(text)


if __name__ == "__main__":
    main()
