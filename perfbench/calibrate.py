"""Machine-speed probe for a shared host.

Other tenants of a shared machine slow every instruction stream on it, by up
to 1.8x for seconds to minutes at a time; CPU time slows with wall time, so
there is no stolen time to subtract. The run therefore times this fixed
probe right before and right after each round and set-up, and scales their
timings by PROBE_REF_NS / probe time: "the time at the reference speed".

The probe calls hmac, struct and `cryptography` directly and never
letterseal, so a change to letterseal cannot move it, and it mixes the same
kinds of work as the message path: HMAC, AES-GCM, X25519, struct packing,
bytes joins and small objects.
"""

from __future__ import annotations

import hmac
import struct
from time import perf_counter_ns

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

# probe time on the reference machine (2 shared vCPUs, quiet host)
PROBE_REF_NS = 8_000_000

_SECRET = bytes(range(32))
_PEER = X25519PrivateKey.from_private_bytes(bytes(range(1, 33))).public_key() \
    .public_bytes_raw()
_KEY = bytes(32)
_NONCE = bytes(12)
_HEADER = struct.Struct(">BBII")


class _Record:
    __slots__ = ("tag", "total", "size")

    def __init__(self, tag, total, size):
        self.tag = tag
        self.total = total
        self.size = size


def probe_ns() -> int:
    """Wall time of the fixed probe work: per step an HMAC, an AES-GCM seal,
    an envelope-like pack and unpack and a small object; an X25519 exchange
    every 20 steps."""
    t0 = perf_counter_ns()
    table = {}
    for i in range(600):
        d = hmac.digest(_KEY, i.to_bytes(4, "big"), "sha256")
        sealed = AESGCM(_KEY).encrypt(_NONCE, d * 4, b"ad")
        raw = b"".join([_HEADER.pack(3, 0, i, i + 1), d[:8],
                        struct.pack(">I", len(sealed)), sealed])
        _, _, x, y = _HEADER.unpack_from(raw)
        rec = _Record(raw[10:18], x + y, len(raw))
        table[(i, rec.tag)] = (rec.total, rec.size, raw[-16:])
        if i % 20 == 0:
            X25519PrivateKey.from_private_bytes(_SECRET).exchange(
                X25519PublicKey.from_public_bytes(_PEER))
    return perf_counter_ns() - t0
