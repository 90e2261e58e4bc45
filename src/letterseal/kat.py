"""Known-answer vector recomputation and file plumbing.

The frozen vector file under tests/data pins primitive and derivation
outputs to values produced by a standalone reference implementation built
straight from the standards documents, sharing no code with this package.
Recomputing every vector through the package's own (OpenSSL-backed)
primitives and comparing bit for bit proves the two stacks agree.

File format is line oriented, one vector per line:

    name hex(input) [hex(input) ...] hex(output)

"-" stands for the empty byte string; blank lines and lines starting with
"#" are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import crypto_suite as cs
from .linev1 import v1_derive
from .linev2 import v2_derive_key


@dataclass(frozen=True)
class KatVector:
    name: str
    inputs: tuple[bytes, ...]
    output: bytes


def _x25519(scalar: bytes, u: bytes) -> bytes:
    return cs.dh(cs.GroupScalar(scalar), cs.GroupElement(u))


def _x25519_public(scalar: bytes) -> bytes:
    return cs.dh_to_public(cs.GroupScalar(scalar))


def _kdf_root(ikm: bytes, salt: bytes) -> bytes:
    rk, ck = cs.kdf_root(ikm, salt)
    return rk + ck


def _kdf_chain(ck: bytes) -> bytes:
    mk, next_ck = cs.kdf_chain(cs.SymmetricKey(ck))
    return mk + next_ck


def _aead(key: bytes, nonce: bytes, pt: bytes, ad: bytes) -> bytes:
    return cs.aead_seal(cs.SymmetricKey(key), cs.AeadNonce(nonce), pt, ad)


def _ecb(key: bytes, block: bytes) -> bytes:
    return cs.ecb_encrypt_block(cs.SymmetricKey(key), block)


def _cbc(key: bytes, iv: bytes, pt: bytes) -> bytes:
    return cs.cbc_encrypt(cs.SymmetricKey(key), iv, pt)


def _v1(pms: bytes, salt: bytes) -> bytes:
    k_e, iv = v1_derive(cs.SharedSecret(pms), salt)
    return k_e + iv


def _v2(pms: bytes, salt: bytes) -> bytes:
    return v2_derive_key(cs.SharedSecret(pms), salt)


def _vdr_rk0(a_scalar: bytes, x_scalar: bytes, y_scalar: bytes) -> bytes:
    # opening-flight root: responder's long-term element keys both halves
    g_y = cs.dh_to_public(cs.GroupScalar(y_scalar))
    ikm = (cs.dh(cs.GroupScalar(a_scalar), g_y)
           + cs.dh(cs.GroupScalar(x_scalar), g_y))
    rk0, ck00 = cs.kdf_root(ikm, cs.ZERO_SALT)
    return rk0 + ck00


COMPUTERS = {
    "sha256_empty": cs.hash,
    "sha256_abc": cs.hash,
    "x25519_rfc7748": _x25519,
    "x25519_base_point": _x25519_public,
    "hkdf_root_label": _kdf_root,
    "hmac_chain_zero": _kdf_chain,
    "aes_gcm_nist": _aead,
    "aes_ecb_fips197": _ecb,
    "aes_cbc_pkcs7": _cbc,
    "v1_derive": _v1,
    "v2_derive": _v2,
    "vdr_rk0": _vdr_rk0,
}


def compute_output(name: str, inputs: tuple[bytes, ...]) -> bytes:
    try:
        fn = COMPUTERS[name]
    except KeyError:
        raise ValueError(f"no computer registered for vector {name!r}") from None
    return bytes(fn(*inputs))


def _hex(data: bytes) -> str:
    return data.hex() if data else "-"


def _unhex(field: str) -> bytes:
    return b"" if field == "-" else bytes.fromhex(field)


def parse_vectors(text: str) -> list[KatVector]:
    vectors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 3:
            raise ValueError(f"line {lineno}: need name, inputs and output")
        try:
            blobs = [_unhex(f) for f in fields[1:]]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        vectors.append(KatVector(name=fields[0],
                                 inputs=tuple(blobs[:-1]),
                                 output=blobs[-1]))
    return vectors


def format_vectors(vectors: list[KatVector]) -> str:
    lines = []
    for v in vectors:
        lines.append(" ".join([v.name, *(_hex(i) for i in v.inputs),
                               _hex(v.output)]))
    return "\n".join(lines) + "\n"


def check_vectors(vectors: list[KatVector]) -> list[tuple[str, bool]]:
    """Recompute each vector through the package; True means bit-exact."""
    results = []
    for v in vectors:
        got = compute_output(v.name, v.inputs)
        results.append((v.name, got == v.output))
    return results


def check_file(path: str | Path) -> list[tuple[str, bool]]:
    return check_vectors(parse_vectors(Path(path).read_text()))


def canonical_vectors() -> list[KatVector]:
    """The shipped vector set: standard-document inputs, package outputs."""
    rfc_scalar = bytes.fromhex(
        "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
    rfc_u = bytes.fromhex(
        "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")
    gcm_key = bytes.fromhex(
        "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308")
    gcm_iv = bytes.fromhex("cafebabefacedbaddecaf888")
    gcm_pt = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a"
        "86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525"
        "b16aedf5aa0de657ba637b39")
    gcm_aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
    cbc_key = bytes.fromhex(
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
    cbc_iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    cbc_pt = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710")
    pms = bytes(range(32))

    entries: list[tuple[str, tuple[bytes, ...]]] = [
        ("sha256_empty", (b"",)),
        ("sha256_abc", (b"abc",)),
        ("x25519_rfc7748", (rfc_scalar, rfc_u)),
        ("x25519_base_point", (bytes(range(32)),)),
        ("hkdf_root_label", (b"\x0b" * 22,
                             bytes.fromhex("000102030405060708090a0b0c"))),
        ("hmac_chain_zero", (b"\x00" * 32,)),
        ("aes_gcm_nist", (gcm_key, gcm_iv, gcm_pt, gcm_aad)),
        ("aes_ecb_fips197", (bytes(range(32)),
                             bytes.fromhex("00112233445566778899aabbccddeeff"))),
        ("aes_cbc_pkcs7", (cbc_key, cbc_iv, cbc_pt)),
        ("v1_derive", (pms, bytes.fromhex("0001020304050607"))),
        ("v2_derive", (pms, bytes.fromhex("000102030405060708090a0b0c0d0e0f"))),
        ("vdr_rk0", (b"\x01" * 32, b"\x02" * 32, b"\x03" * 32)),
    ]
    return [KatVector(name, inputs, compute_output(name, inputs))
            for name, inputs in entries]


def write_vectors(path: str | Path) -> int:
    """Emit the canonical vectors; returns the number written."""
    vectors = canonical_vectors()
    Path(path).write_text(format_vectors(vectors))
    return len(vectors)
