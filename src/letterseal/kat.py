"""Known-answer vectors: the shipped file and its recomputation.

kat_vectors.txt, shipped beside this module, pins primitive and
derivation outputs to values written by tools/reference_kat.py, a
standalone reference implementation built straight from the standards
documents and sharing no code with this package. That script is the
file's only writer; this module only reads it. Recomputing every vector
through the package's own (OpenSSL-backed) primitives and comparing bit
for bit proves the two stacks agree.

File format is line oriented, one vector per line:

    name hex(input) [hex(input) ...] hex(output)

"-" stands for the empty byte string; blank lines and lines starting with
"#" are skipped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import crypto_suite as cs
from .endpoint import PROTO_VDR, Endpoint, design
from .errors import LettersealError
from .linev1 import v1_derive
from .linev2 import v2_derive_key
from .wire import EnvelopeVDR

_VECTOR_FILE = Path(__file__).with_name("kat_vectors.txt")


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
    """rk_0 || ck_0 of the ratchet responder y's own set-up from initiator
    x's opening flight carrying g^a. The set-up reads only the flight's
    epoch and ephemeral, and draws nothing, so the endpoint has no rng."""
    g_x, g_a = map(cs.dh_to_public, map(cs.GroupScalar, (x_scalar, a_scalar)))
    responder = Endpoint(PROTO_VDR, cs.GroupScalar(y_scalar), g_x, None,
                         0, 0, "responder", "initiator", initiator=False)
    flight = EnvelopeVDR(ctype=0, ciphertext=bytes(16), eph_pub=g_a,
                         nonce_material=bytes(8), kid_sender=0,
                         kid_receiver=0, j_index=0)
    st = design(PROTO_VDR).setup(responder, flight)
    return st.rk + st.ck_recv


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


def check_vectors(vectors: list[KatVector]) -> list[tuple[str, bool]]:
    """Recompute each vector through the package; True means bit-exact.

    A vector that cannot be computed is a ValueError naming it. A set that
    does not hold every vector of COMPUTERS exactly once is a ValueError
    naming the missing and the repeated ones; it is raised after the
    recomputation, so a line that cannot be computed reports first."""
    results = []
    for v in vectors:
        try:
            got = compute_output(v.name, v.inputs)
        except (TypeError, ValueError, LettersealError) as exc:
            raise ValueError(f"{v.name}: {exc}") from exc
        results.append((v.name, got == v.output))
    counts = Counter(v.name for v in vectors)
    missing = [name for name in COMPUTERS if counts[name] == 0]
    repeated = [name for name in COMPUTERS if counts[name] > 1]
    if missing or repeated:
        raise ValueError("; ".join(
            f"{label} vectors: {', '.join(names)}"
            for label, names in (("missing", missing), ("repeated", repeated))
            if names))
    return results


def check_file(path: str | Path) -> list[tuple[str, bool]]:
    return check_vectors(parse_vectors(Path(path).read_text()))


def canonical_vectors() -> list[KatVector]:
    """The shipped vector set: standard-document inputs, reference outputs."""
    return parse_vectors(_VECTOR_FILE.read_text())
