"""Freshness and matching predicates, evaluated post hoc over a game.

Every function here is pure: it reads recorded flags and transcripts and
returns a verdict, with no side effects on the game. The salted-hash
predicate is a flat conjunction; the ratchet family is defined recursively
over the stage lattice, with each sub-predicate separately callable so
truth tables can pin each clause on its own. The chain and epoch
recursions are evaluated as loops, and one evaluation compares the tested
session's transcript with each other session once, so a predicate costs
time linear in the conversation and no stack depth.
"""

from __future__ import annotations

from ..linevdr import ROLE_INITIATOR
from .game import ACCEPT, Game, SessionRecord


def _first_mismatch(a: SessionRecord, b: SessionRecord):
    """The earliest stage of a's transcript that b does not hold
    identically, or None if there is none."""
    if a.transcript == b.transcript:
        return None
    bad = [t for t, msg in a.transcript.items() if b.transcript.get(t) != msg]
    return min(bad) if bad else None


def match_sessions(a: SessionRecord, b: SessionRecord, s) -> bool:
    """Opposite roles, and a's transcript up to stage s is a prefix-subset
    of b's: every message a recorded at a stage <= s appears identically at
    the same stage in b. A session missing the final message still matches
    its peer; the peer that sent the dropped message does not match back."""
    if a.role == b.role:
        return False
    end = _first_mismatch(a, b)
    return end is None or s < end


def _partners(game: Game, rec: SessionRecord) -> list:
    """(session, first mismatch) for every session of the opposite role:
    it matches rec at exactly the stages below its first mismatch."""
    return [(r, _first_mismatch(rec, r)) for r in game.sessions.values()
            if r is not rec and r.role != rec.role]


def _matching(partners: list, s) -> list[SessionRecord]:
    return [r for r, end in partners if end is None or s < end]


def matching_sessions(game: Game, rec: SessionRecord, s) -> list[SessionRecord]:
    return _matching(_partners(game, rec), s)


# ---------------------------------------------------------------------------
# Salted-hash protocol predicate
# ---------------------------------------------------------------------------

def fresh_v2(game: Game, tested: tuple) -> bool:
    """False iff the owner's or partner's long-term key was revealed, the
    tested stage key was revealed, or any session between the tested pair
    (either direction) had its state revealed at any stage; the state holds
    the pre-master secret, which derives every stage key."""
    u, i, s = tested
    rec = game.sessions[(u, i)]
    if game.rev_ltk.get(u) or game.rev_ltk.get(rec.pid):
        return False
    if rec.rev_sesskey.get(s):
        return False
    for r in game.sessions.values():
        same_pair = ((r.owner == u and r.pid == rec.pid)
                     or (r.owner == rec.pid and r.pid == u))
        if same_pair and any(r.rev_state.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# Ratchet protocol predicate family
# ---------------------------------------------------------------------------

# Each public predicate finds the tested session's partners itself; the
# private forms take that list, so fresh_vdr builds it once for all of them.

def _valid(rec: SessionRecord, partners: list, s) -> bool:
    return (rec.status.get(s) == ACCEPT and not rec.rev_sesskey.get(s)
            and not any(r.rev_sesskey.get(s) for r in _matching(partners, s)))


def valid_vdr(game: Game, u: int, i: int, s) -> bool:
    """Tested stage accepted, its key unrevealed here and at every
    matching session."""
    rec = game.sessions[(u, i)]
    return _valid(rec, _partners(game, rec), s)


def fresh_ll(game: Game, u: int, i: int) -> bool:
    rec = game.sessions[(u, i)]
    return not game.rev_ltk.get(u) and not game.rev_ltk.get(rec.pid)


def _el(game: Game, rec: SessionRecord, partners: list) -> bool:
    if rec.role == ROLE_INITIATOR:
        return (not rec.rev_rand.get((0, 0))
                and not game.rev_ltk.get(rec.pid))
    return (all(not r.rev_rand.get((0, 0))
                for r in _matching(partners, (0, 0)))
            and not game.rev_ltk.get(rec.owner))


def fresh_el(game: Game, u: int, i: int) -> bool:
    """Initiator ephemeral and responder long-term key both unrevealed,
    viewed from whichever side is being tested."""
    rec = game.sessions[(u, i)]
    return _el(game, rec, _partners(game, rec))


def _initial(game: Game, rec: SessionRecord, partners: list) -> bool:
    return (fresh_ll(game, rec.owner, rec.index)
            or _el(game, rec, partners))


def fresh_initial(game: Game, u: int, i: int) -> bool:
    rec = game.sessions[(u, i)]
    return _initial(game, rec, _partners(game, rec))


def _state_clean(rec: SessionRecord, partners: list, s) -> bool:
    return not rec.rev_state.get(s) and not any(
        r.rev_state.get(s) for r in _matching(partners, s))


def fresh_st(game: Game, u: int, i: int, s) -> bool:
    rec = game.sessions[(u, i)]
    return _state_clean(rec, _partners(game, rec), s)


def _ephemerals_clean(rec: SessionRecord, partners: list, x: int) -> bool:
    b = 1 if ((rec.role == ROLE_INITIATOR) ^ (x % 2 == 0)) else 0
    if rec.rev_rand.get((x - b, 0)):
        return False
    other = (x - (1 - b), 0)
    return not any(r.rev_rand.get(other)
                   for r in _matching(partners, (x, 0)))


def fresh_ee(game: Game, u: int, i: int, s) -> bool:
    """Neither epoch ephemeral revealed. The selector picks which of the
    two adjacent epochs is 'ours': b = (role == initiator) xor (x even);
    we check our rand at [x-b, 0] and the partner's at [x-(1-b), 0]."""
    rec = game.sessions[(u, i)]
    return _ephemerals_clean(rec, _partners(game, rec), s[0])


def _asym_from(game: Game, rec: SessionRecord, partners: list, x: int) -> bool:
    # fresh_asym(x) = ee(x) or (st(x-1, 0) and (fresh_asym(x-1) if x > 1
    # else fresh_initial)), unrolled down the epochs
    while not _ephemerals_clean(rec, partners, x):
        if not _state_clean(rec, partners, (x - 1, 0)):
            return False
        if x <= 1:
            return _initial(game, rec, partners)
        x -= 1
    return True


def fresh_asym(game: Game, u: int, i: int, s) -> bool:
    """Fresh ephemerals this epoch, or a clean prior stage chained down to
    a fresh base."""
    rec = game.sessions[(u, i)]
    return _asym_from(game, rec, _partners(game, rec), s[0])


def _sym(game: Game, rec: SessionRecord, partners: list, s) -> bool:
    x, y = s
    if not all(_state_clean(rec, partners, (x, k)) for k in range(y)):
        return False
    if x >= 1:
        return _asym_from(game, rec, partners, x)
    return _initial(game, rec, partners)


def fresh_sym(game: Game, u: int, i: int, s) -> bool:
    """Every earlier stage of the chain clean (fresh_sym(x, y) =
    st(x, y-1) and fresh_sym(x, y-1)), down to a fresh epoch start."""
    rec = game.sessions[(u, i)]
    return _sym(game, rec, _partners(game, rec), s)


def fresh_vdr(game: Game, tested: tuple) -> bool:
    """Valid, and fresh_sym: at an epoch start its state loop is empty,
    so it is fresh_asym there, and fresh_initial at (0, 0)."""
    u, i, s = tested
    rec = game.sessions[(u, i)]
    partners = _partners(game, rec)
    return _valid(rec, partners, s) and _sym(game, rec, partners, s)
