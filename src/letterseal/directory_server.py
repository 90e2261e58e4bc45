"""In-process public-key directory and message relay.

The server side of the model: stores uploaded group elements, hands them
out by key id, and ferries opaque envelope bytes. Configurable misbehavior
(replay, drop, reorder) never alters bytes; the interesting attacks need
nothing stronger than scheduling control.

Key ids are assigned sequentially from 1, for test determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crypto_suite import GroupElement
from .errors import KeyNotFound


class KeyDirectory:
    """Append-only kid -> (public element, owner) registry."""

    def __init__(self):
        self._entries: dict[int, tuple[GroupElement, str]] = {}
        self._next_kid = 1

    def register(self, pub: GroupElement, owner: str) -> int:
        # accepts any 32-byte element; no proof of possession, like the original
        kid = self._next_kid
        self._next_kid += 1
        self._entries[kid] = (GroupElement(pub), owner)
        return kid

    def lookup(self, kid: int) -> GroupElement:
        try:
            return self._entries[kid][0]
        except KeyError:
            raise KeyNotFound(f"no key registered under kid {kid}") from None

    def owner_of(self, kid: int) -> str:
        try:
            return self._entries[kid][1]
        except KeyError:
            raise KeyNotFound(f"no key registered under kid {kid}") from None

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class Honest:
    pass


@dataclass(frozen=True)
class Replay:
    ordinal: int        # 0-based index of the message to duplicate
    copies: int = 1

    def __post_init__(self):
        if self.ordinal < 0:
            raise ValueError("replay ordinal must be >= 0")
        if self.copies < 1:
            raise ValueError("replay copies must be >= 1")


@dataclass(frozen=True)
class Drop:
    ordinals: frozenset[int]

    def __init__(self, ordinals):
        ordinals = frozenset(ordinals)
        if any(o < 0 for o in ordinals):
            raise ValueError("drop ordinals must be >= 0")
        object.__setattr__(self, "ordinals", ordinals)


@dataclass(frozen=True)
class Reorder:
    """Buffers messages and emits each full window reversed."""
    window: int

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("reorder window must be >= 1")


RelayBehavior = Honest | Replay | Drop | Reorder


@dataclass
class Relay:
    """FIFO relay over encoded envelopes with one configured behavior.

    relay() returns the deliveries this submission produced (possibly
    none while a reorder window fills); flush() drains a partial window.
    """

    behavior: RelayBehavior = field(default_factory=Honest)
    _ordinal: int = field(default=0, init=False)
    _window_buf: list[bytes] = field(default_factory=list, init=False)

    def relay(self, env_bytes: bytes) -> list[bytes]:
        env_bytes = bytes(env_bytes)
        ordinal = self._ordinal
        self._ordinal += 1
        b = self.behavior
        if isinstance(b, Honest):
            return [env_bytes]
        if isinstance(b, Replay):
            if ordinal == b.ordinal:
                return [env_bytes] * (1 + b.copies)
            return [env_bytes]
        if isinstance(b, Drop):
            return [] if ordinal in b.ordinals else [env_bytes]
        if isinstance(b, Reorder):
            self._window_buf.append(env_bytes)
            if len(self._window_buf) == b.window:
                out = list(reversed(self._window_buf))
                self._window_buf.clear()
                return out
            return []
        raise TypeError(f"unknown relay behavior: {type(b).__name__}")

    def flush(self) -> list[bytes]:
        out = list(reversed(self._window_buf))
        self._window_buf.clear()
        return out
