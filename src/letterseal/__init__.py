"""Sealed-messaging protocol family with an adversarial test harness.

Three protocol generations (CBC-and-MAC, salted AES-GCM, and a double
ratchet), a seeded multi-stage key-exchange game with reveal oracles and
freshness predicates, scripted attack scenarios, known-answer vectors, and
a microbenchmark suite over the same code paths.
"""

from . import bench, kat, mske, wire
from .crypto_suite import (
    AeadNonce,
    Digest,
    GroupElement,
    GroupScalar,
    OpCounts,
    SeededRng,
    SharedSecret,
    SymmetricKey,
    ZERO_SALT,
    aead_open,
    aead_seal,
    count_ops,
    dh,
    dh_keygen,
    dh_to_public,
    digest_kdf,
    kdf_chain,
    kdf_root,
)
from .directory_server import (
    Drop,
    Honest,
    KeyDirectory,
    Relay,
    Reorder,
    Replay,
)
from .errors import (
    AuthFailure,
    CounterExhausted,
    DhError,
    KeyNotFound,
    KidMismatch,
    LettersealError,
    MacFailure,
    NotInitialized,
    PaddingError,
    ParseError,
    ReplayRejected,
    SkipLimit,
    StaleEpoch,
    StageNotAccepted,
    StageUnknown,
    UnknownAttack,
)
from .linev1 import SessionV1, v1_decrypt, v1_derive, v1_encrypt, v1_establish
from .linev2 import (
    SessionV2,
    build_ad_v2,
    v2_build_nonce,
    v2_decrypt,
    v2_derive_key,
    v2_encrypt,
    v2_establish,
)
from .linevdr import (
    MAX_SKIP,
    RatchetState,
    build_ad_vdr,
    vdr_decrypt,
    vdr_encrypt,
    vdr_export_state,
    vdr_import_state,
    vdr_init_sender,
    vdr_lazy_init_receiver,
)
from .wire import (
    EnvelopeV1,
    EnvelopeV2,
    EnvelopeVDR,
    decode_envelope,
    encode_envelope,
)

__version__ = "0.1.0"

__all__ = [
    "AeadNonce", "AuthFailure", "CounterExhausted", "DhError", "Digest",
    "Drop", "EnvelopeV1", "EnvelopeV2", "EnvelopeVDR", "GroupElement",
    "GroupScalar", "Honest", "KeyDirectory", "KeyNotFound", "KidMismatch",
    "LettersealError", "MAX_SKIP", "MacFailure", "NotInitialized", "OpCounts",
    "PaddingError", "ParseError", "RatchetState", "Relay", "Reorder",
    "Replay", "ReplayRejected", "SeededRng", "SessionV1", "SessionV2",
    "SharedSecret", "SkipLimit", "StageNotAccepted", "StageUnknown",
    "StaleEpoch", "SymmetricKey", "UnknownAttack", "ZERO_SALT", "aead_open",
    "aead_seal", "bench", "build_ad_v2", "build_ad_vdr", "count_ops",
    "decode_envelope", "dh", "dh_keygen", "dh_to_public", "digest_kdf",
    "encode_envelope", "kat", "kdf_chain", "kdf_root", "mske", "v1_decrypt",
    "v1_derive", "v1_encrypt", "v1_establish", "v2_build_nonce", "v2_decrypt",
    "v2_derive_key", "v2_encrypt", "v2_establish", "vdr_decrypt",
    "vdr_encrypt", "vdr_export_state", "vdr_import_state", "vdr_init_sender",
    "vdr_lazy_init_receiver", "wire",
]
