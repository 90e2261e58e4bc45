"""Exception hierarchy shared across the library."""


class LettersealError(Exception):
    """Base class for every error raised by this package."""


class DhError(LettersealError):
    """Diffie-Hellman failure: low-order peer point or all-zero shared output."""


class AuthFailure(LettersealError):
    """AEAD tag verification failed; no plaintext is released."""


class MacFailure(LettersealError):
    """Block-cipher MAC mismatch (v1 envelopes)."""


class PaddingError(LettersealError):
    """Malformed PKCS#7 padding after decryption."""


class KidMismatch(LettersealError):
    """Envelope was addressed to a different key id than this session's."""


class CounterExhausted(LettersealError):
    """The 32-bit send counter cannot be incremented further."""


class NotInitialized(LettersealError):
    """Ratchet operation requires a chain that has not been set up yet."""


class ReplayRejected(LettersealError):
    """No key left in the live receive chain: consumed or evicted."""


class SkipLimit(LettersealError):
    """In-chain gap exceeds the bounded skipped-key cache."""


class StaleEpoch(LettersealError):
    """Envelope references an epoch or index with no derivable key left."""


class ParseError(LettersealError):
    """Wire decoding failed; the message names the offending field."""


class KeyNotFound(LettersealError):
    """Directory lookup for an unknown key id."""


class StageNotAccepted(LettersealError):
    """Oracle addressed a stage that has not accepted."""


class StageUnknown(LettersealError):
    """Oracle addressed a stage with no recorded data."""


class UnknownAttack(LettersealError):
    """Attack name is not in the scripted scenario table."""
