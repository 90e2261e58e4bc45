"""One party of a two-party conversation, for any of the three protocols.

An Endpoint hides which set-up call each protocol needs and when. v1 and
v2 establish on first use, as does the ratchet initiator. The ratchet
responder sets up from the first envelope it opens, and keeps that state
only once vdr_decrypt accepts the envelope; until then it cannot send. An
envelope of another protocol's family raises ParseError before any set-up.
Each party's rng feeds only that party's operations, so a scripted
conversation draws the same bytes whatever order the flights interleave in.

An Endpoint's ``secret`` is its party's long-term scalar or the key object
built from it; every protocol's set-up takes either. A party that opens
many sessions, as a game party does, holds its object and hands that to
each Endpoint, so no set-up builds it again. The Endpoint keeps no other
key object: its ratchet state holds its own ephemeral's, and nothing
caches an object by value.

An Endpoint holds no instrumentation: a caller that needs message keys or
rng draws, the key-indistinguishability game only, wraps seal or open in a
``with crypto_suite.Recorder()`` block. A ctype outside u8 is
refused before set-up, and the protocols' encrypt refuses it before any
draw or state change, so a refused seal leaves nothing behind.
"""

from __future__ import annotations

from . import crypto_suite as cs
from .errors import NotInitialized, ParseError
from .linev1 import v1_decrypt, v1_encrypt, v1_establish
from .linev2 import v2_decrypt, v2_encrypt, v2_establish
from .linevdr import (
    vdr_decrypt,
    vdr_encrypt,
    vdr_init_sender,
    vdr_lazy_init_receiver,
)
from .wire import EnvelopeV1, EnvelopeV2, EnvelopeVDR, _check_u8

# protocol -> (envelope family, static establish, encrypt, decrypt)
_PROTOCOLS = {
    "v1": (EnvelopeV1, v1_establish, v1_encrypt, v1_decrypt),
    "v2": (EnvelopeV2, v2_establish, v2_encrypt, v2_decrypt),
    "vdr": (EnvelopeVDR, None, vdr_encrypt, vdr_decrypt),
}


class Endpoint:
    """One party; ``session`` is None until its first successful use."""

    def __init__(self, protocol: str,
                 secret: cs.GroupScalar | cs.X25519PrivateKey,
                 peer_pub: cs.GroupElement, rng: cs.SeededRng,
                 kid: int, peer_kid: int, name: str, peer_name: str,
                 initiator: bool):
        if protocol not in _PROTOCOLS:
            raise ValueError(f"unknown protocol {protocol!r}")
        (self._envelope, self._establish, self._encrypt,
         self._decrypt) = _PROTOCOLS[protocol]
        self.secret, self.peer_pub, self.rng = secret, peer_pub, rng
        self.kid, self.peer_kid = kid, peer_kid
        self.name, self.peer_name = name, peer_name
        self.initiator = initiator
        self.session = None

    def _static_session(self):
        return self._establish(self.secret, self.peer_pub, kid_self=self.kid,
                               kid_peer=self.peer_kid, sid=self.name,
                               rid=self.peer_name)

    def seal(self, m: bytes, ctype: int = 0):
        st = self.session
        if st is None:
            _check_u8(ctype, "ctype")  # before a ratchet set-up draws
            if self._establish is not None:
                st = self._static_session()
            elif self.initiator:
                st = vdr_init_sender(self.secret, self.peer_pub, self.rng,
                                     kid_self=self.kid, kid_peer=self.peer_kid)
            else:
                raise NotInitialized(
                    "ratchet responder sends only after its first open")
            self.session = st
        return self._encrypt(st, ctype, m, self.rng)

    def open(self, env) -> bytes:
        if not isinstance(env, self._envelope):
            raise ParseError(f"expected {self._envelope.__name__}, "
                             f"got {type(env).__name__}")
        st = self.session
        if st is None:
            if self._establish is not None:
                st = self._static_session()
            elif not self.initiator:
                st = vdr_lazy_init_receiver(self.secret, self.peer_pub, env,
                                            kid_self=self.kid,
                                            kid_peer=self.peer_kid)
            else:
                raise NotInitialized("ratchet initiator has not sent yet")
        if self._establish is None:
            pt = self._decrypt(st, env, self.rng)
        else:
            pt = self._decrypt(st, env)
        self.session = st  # kept only once the first open succeeds
        return pt


def endpoint_pair(protocol: str, a_keys, b_keys, a_rng: cs.SeededRng,
                  b_rng: cs.SeededRng, kids: tuple[int, int],
                  names: tuple[str, str]) -> tuple[Endpoint, Endpoint]:
    """(initiator, responder) from each party's (secret, public) keys."""
    (a_sk, a_pk), (b_sk, b_pk) = a_keys, b_keys
    a = Endpoint(protocol, a_sk, b_pk, a_rng, kids[0], kids[1],
                 names[0], names[1], initiator=True)
    b = Endpoint(protocol, b_sk, a_pk, b_rng, kids[1], kids[0],
                 names[1], names[0], initiator=False)
    return a, b
