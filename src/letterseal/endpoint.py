"""The three designs, one row each, and one party of a conversation.

A row of DESIGNS holds every fact that sets one protocol apart. The
Endpoint, the game, the attack report, the demo and the bench read it, so
no other module compares a protocol name; design() is the one lookup.

An Endpoint runs its row's set-up when it first needs a session. v1 and
v2 establish on first use, as does the ratchet initiator. The ratchet
responder sets up from the first envelope it opens, and keeps that state
only once vdr_decrypt accepts the envelope; until then it cannot send. An
envelope of another protocol's family raises ParseError before any set-up,
and one whose kids do not name this session's peer as sender and its own
party as receiver raises KidMismatch before any set-up: the directory
takes any public key under a new kid, so a session that opened an envelope
its peer never sent would take another party's message as its peer's.
Each party's rng feeds only that party's operations, so a scripted
conversation draws the same bytes whatever order the flights interleave in.

An Endpoint's ``secret`` is its party's long-term scalar, the one form
of a secret every protocol's set-up takes. The scalar a keygen returned
holds its key object, so set-up from it builds none; a scalar rebuilt
from stored bytes builds one at each set-up. The Endpoint holds no
other key object (crypto_suite states the ownership rule).

An Endpoint holds no instrumentation: a caller that needs message keys or
rng draws, the key-indistinguishability game only, wraps seal or open in a
``with crypto_suite.Recorder()`` block. A kid outside u32 is refused
when the Endpoint is built. A v2 identity string that does not fit its
length prefix is refused by set-up, before the exchange. A ctype outside
u8 is refused before set-up, and the protocols' encrypt refuses it
before any draw or state change, so a refused seal leaves nothing
behind.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import crypto_suite as cs
from .errors import KidMismatch, NotInitialized, ParseError
from .linev1 import v1_decrypt, v1_derive, v1_encrypt, v1_establish
from .linev2 import (
    v2_decrypt,
    v2_derive_key,
    v2_encrypt,
    v2_establish,
    v2_export_state,
    v2_snapshot_pms,
)
from .linevdr import (
    vdr_decrypt,
    vdr_encrypt,
    vdr_export_state,
    vdr_init_sender,
    vdr_lazy_init_receiver,
)
from .wire import EnvelopeV1, EnvelopeV2, EnvelopeVDR, _check_u32, _check_u8

PROTO_V1 = "v1"
PROTO_V2 = "v2"
PROTO_VDR = "vdr"


class StaticKeys(NamedTuple):
    """The key schedule of a static design: one pms per pair of parties,
    and each stage's key derived from it and its envelope's salt."""
    pms: Callable        # the bytes RevState reveals -> the pms
    stage_key: Callable  # (pms, envelope) -> the envelope's stage key


class Design(NamedTuple):
    envelope: type       # the envelope family its sessions open
    setup: Callable      # (endpoint, envelope or None) -> session
    seal: Callable       # (session, ctype, m, rng) -> envelope
    open: Callable       # (session, envelope, rng) -> plaintext
    snapshot: Callable   # session -> the bytes RevState reveals
    duplex: bool         # one session carries both directions
    label: Callable      # (envelope, ordinal) -> the demo's (stage, text)
    kdf: str             # the primitive_costs key its stage keys use
    static_keys: StaticKeys | None  # the key closure's rule; None: ratchet


def _static(establish):
    """The set-up of a static protocol: the same session at either call."""
    return lambda ep, env: establish(ep.secret, ep.peer_pub, ep.kid,
                                     ep.peer_kid, ep.name, ep.peer_name)


def _vdr_setup(ep: Endpoint, env):
    """Initiator at its first seal, responder at its first open."""
    if env is None:
        if not ep.initiator:
            raise NotInitialized(
                "ratchet responder sends only after its first open")
        return vdr_init_sender(ep.secret, ep.peer_pub, ep.rng,
                               kid_self=ep.kid, kid_peer=ep.peer_kid)
    if ep.initiator:
        raise NotInitialized("ratchet initiator has not sent yet")
    return vdr_lazy_init_receiver(ep.secret, ep.peer_pub, env,
                                  kid_self=ep.kid, kid_peer=ep.peer_kid)


DESIGNS = {
    PROTO_V1: Design(EnvelopeV1, _static(v1_establish), v1_encrypt,
                     lambda st, env, rng: v1_decrypt(st, env),
                     lambda st: bytes(st.pms), False,
                     lambda env, k: (k, f"msg={k}"), "KDF-digest",
                     StaticKeys(cs.SharedSecret,
                                lambda pms, env: v1_derive(pms, env.salt)[0])),
    PROTO_V2: Design(EnvelopeV2, _static(v2_establish), v2_encrypt,
                     lambda st, env, rng: v2_decrypt(st, env),
                     v2_export_state, False,
                     lambda env, k: (env.counter, f"ctr={env.counter}"),
                     "KDF-digest",
                     StaticKeys(v2_snapshot_pms,
                                lambda pms, env: v2_derive_key(pms, env.salt))),
    PROTO_VDR: Design(EnvelopeVDR, _vdr_setup, vdr_encrypt, vdr_decrypt,
                      vdr_export_state, True,
                      lambda env, k: ((env.i_index, env.j_index),
                                      f"epoch={env.i_index} j={env.j_index}"),
                      "KDF-chain", None),
}


def design(name: str) -> Design:
    try:
        return DESIGNS[name]
    except KeyError:
        raise ValueError(f"unknown protocol {name!r}") from None


class Endpoint:
    """One party; ``session`` is None until its first successful use.
    ``secret`` is the party's long-term scalar: the one its keygen
    returned holds its key object, so no set-up builds one."""

    def __init__(self, protocol: str, secret: cs.GroupScalar,
                 peer_pub: cs.GroupElement, rng: cs.SeededRng,
                 kid: int, peer_kid: int, name: str, peer_name: str,
                 initiator: bool):
        row = design(protocol)
        _check_u32(kid, "kid")
        _check_u32(peer_kid, "peer_kid")
        self._envelope, self._setup = row.envelope, row.setup
        self._seal, self._open = row.seal, row.open
        self.secret, self.peer_pub, self.rng = secret, peer_pub, rng
        self.kid, self.peer_kid = kid, peer_kid
        self.name, self.peer_name = name, peer_name
        self.initiator = initiator
        self.session = None

    def seal(self, m: bytes, ctype: int = 0):
        st = self.session
        if st is None:
            _check_u8(ctype, "ctype")  # before a ratchet set-up draws
            st = self.session = self._setup(self, None)
        return self._seal(st, ctype, m, self.rng)

    def open(self, env) -> bytes:
        if not isinstance(env, self._envelope):
            raise ParseError(f"expected {self._envelope.__name__}, "
                             f"got {type(env).__name__}")
        if (env.kid_sender, env.kid_receiver) != (self.peer_kid, self.kid):
            raise KidMismatch(f"envelope from kid {env.kid_sender} to kid "
                              f"{env.kid_receiver}, this session is from kid "
                              f"{self.peer_kid} to kid {self.kid}")
        st = self.session or self._setup(self, env)
        pt = self._open(st, env, self.rng)
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
