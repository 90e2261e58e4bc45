"""Hand-derived freshness verdicts over scripted oracle traces.

Each row fixes one reveal pattern against one conversation and pins the
verdict of the top-level predicate plus whichever sub-predicates the row
was designed to exercise. Expected values were worked out on paper from
the predicate definitions before being frozen here; the tests assert
100% agreement, so a predicate regression and a table typo are equally
loud.

Row.expect entries are (predicate, stage, want); stage None means the
tested stage. Sub-predicate names: valid, ll, el, initial, st, ee,
asym, sym.
"""

import dataclasses
from typing import Callable, NamedTuple

from letterseal.linevdr import ROLE_INITIATOR, ROLE_RESPONDER
from letterseal.mske import (
    Game,
    PROTO_V2,
    PROTO_VDR,
    fresh_asym,
    fresh_ee,
    fresh_el,
    fresh_initial,
    fresh_ll,
    fresh_st,
    fresh_sym,
    fresh_v2,
    fresh_vdr,
    match_sessions,
    valid_vdr,
)
from letterseal.mske.attacks import _flights, _game
from letterseal.wire import decode_envelope, encode_envelope


class Row(NamedTuple):
    label: str
    reveals: tuple
    tested: tuple                 # (u, i, s)
    expect: tuple                 # of (predicate, stage | None, want)


class MatchRow(NamedTuple):
    label: str
    build: Callable[[int], Game]
    a: tuple                      # (u, i) whose transcript must embed in b's
    b: tuple
    stage: object
    want: bool


# ---------------------------------------------------------------------------
# Conversation scripts
# ---------------------------------------------------------------------------

def build_v2_game(seed: int = 0) -> Game:
    """Three parties. Main pair trades three messages; party 3 holds a
    side conversation with party 1 so bystander reveals have a target.

    Stages: (1,1) 1=send 2=recv 3=send; (2,1) mirrored; (1,2) and (3,1)
    one message."""
    g = Game(PROTO_V2, n_parties=3, seed=seed)
    g.oracle_send(1, 1, (2, ROLE_INITIATOR))
    g.oracle_send(2, 1, (1, ROLE_RESPONDER))
    _flights(g, [(1, b"table v2 one"), (2, b"table v2 two"),
                 (1, b"table v2 three")])
    g.oracle_send(1, 2, (3, ROLE_INITIATOR))
    g.oracle_send(3, 1, (1, ROLE_RESPONDER))
    g.oracle_send(3, 1, g.oracle_send(1, 2, ("encrypt", 0, b"table v2 side")))
    return g


def build_v2_dropped(seed: int = 0) -> Game:
    """Same main pair, but the final message is never delivered."""
    g = _game(PROTO_V2, seed, [(1, b"table v2 one"), (2, b"table v2 two")])
    g.oracle_send(1, 1, ("encrypt", 0, b"table v2 three"))  # dropped
    return g


def build_v2_tampered(seed: int = 0) -> Game:
    """The first message is re-encoded with a flipped ciphertext byte
    before delivery, so the recipient records a reject with the altered
    bytes in its transcript slot."""
    g = _game(PROTO_V2, seed)
    env = decode_envelope(g.oracle_send(1, 1, ("encrypt", 0, b"table v2 one")))
    ct = bytearray(env.ciphertext)
    ct[0] ^= 0x01
    forged = dataclasses.replace(env, ciphertext=bytes(ct))
    g.oracle_send(2, 1, encode_envelope(forged))
    return g


def build_v2_same_role(seed: int = 0) -> Game:
    """Both sessions activated as initiators; roles alone must unmatch."""
    g = Game(PROTO_V2, n_parties=2, seed=seed)
    g.oracle_send(1, 1, (2, ROLE_INITIATOR))
    g.oracle_send(2, 1, (1, ROLE_INITIATOR))
    _flights(g, [(1, b"table v2 one")])
    return g


def build_vdr_game(seed: int = 0) -> Game:
    """Two parties walking epochs 0..3 with two messages in each of the
    first two epochs.

    Stages on (1,1): send (0,0) (0,1), recv (1,0) (1,1), send (2,0),
    recv (3,0); mirrored on (2,1). Ephemeral randomness sits at (0,0)
    and (2,0) for party 1, (1,0) and (3,0) for party 2."""
    return _game(PROTO_VDR, seed, [
        (1, b"table epoch0 j0"), (1, b"table epoch0 j1"),
        (2, b"table epoch1 j0"), (2, b"table epoch1 j1"),
        (1, b"table epoch2 j0"), (2, b"table epoch3 j0")])


_REVEALS = {"ltk": Game.oracle_rev_ltk, "sesskey": Game.oracle_rev_sesskey,
            "rand": Game.oracle_rev_rand, "state": Game.oracle_rev_state}


def reveal_menu(g: Game) -> list:
    """Every single reveal g allows, in apply_reveals' form."""
    menu = [("ltk", u) for u in g.parties]
    for (u, i), rec in g.sessions.items():
        menu += [("state", u, i, s) for s in rec.state_snap]
        menu += [("sesskey", u, i, s) for s in rec.key]
        menu += [("rand", u, i, s) for s in rec.rand_log]
    return menu


def apply_reveals(g: Game, reveals) -> list:
    """Each reveal is (kind, u) for "ltk", else (kind, u, i, s); returns
    the oracles' answers."""
    return [_REVEALS[kind](g, *args) for kind, *args in reveals]


_PREDICATES = {
    "fresh_v2": lambda g, u, i, s: fresh_v2(g, (u, i, s)),
    "fresh_vdr": lambda g, u, i, s: fresh_vdr(g, (u, i, s)),
    "valid": lambda g, u, i, s: valid_vdr(g, u, i, s),
    "ll": lambda g, u, i, s: fresh_ll(g, u, i),
    "el": lambda g, u, i, s: fresh_el(g, u, i),
    "initial": lambda g, u, i, s: fresh_initial(g, u, i),
    "st": lambda g, u, i, s: fresh_st(g, u, i, s),
    "ee": lambda g, u, i, s: fresh_ee(g, u, i, s),
    "asym": lambda g, u, i, s: fresh_asym(g, u, i, s),
    "sym": lambda g, u, i, s: fresh_sym(g, u, i, s),
}


def evaluate(g: Game, tested: tuple, predicate: str, stage) -> bool:
    u, i, s = tested
    if stage is not None:
        s = stage
    return _PREDICATES[predicate](g, u, i, s)


def check_row(row: Row, protocol: str, seed: int = 0) -> list[str]:
    """Returns one line per disagreement; empty means full agreement."""
    g = build_v2_game(seed) if protocol == PROTO_V2 else build_vdr_game(seed)
    apply_reveals(g, row.reveals)
    bad = []
    for predicate, stage, want in row.expect:
        got = evaluate(g, row.tested, predicate, stage)
        if got is not want:
            at = row.tested[2] if stage is None else stage
            bad.append(f"{row.label}: {predicate}@{at} got {got} want {want}")
    return bad


def check_match_row(row: MatchRow, seed: int = 0) -> list[str]:
    g = row.build(seed)
    a = g.sessions[row.a]
    b = g.sessions[row.b]
    got = match_sessions(a, b, row.stage)
    if got is not row.want:
        return [f"{row.label}: match got {got} want {row.want}"]
    return []


# ---------------------------------------------------------------------------
# Flat-predicate rows. The predicate is a single conjunction: no long-term
# key reveal on either side of the tested pair, the tested stage's own key
# unrevealed, and no state reveal anywhere between the pair. Randomness
# reveals and the partner's key reveals are deliberately outside it.
# ---------------------------------------------------------------------------

V2_ROWS = (
    Row("clean", (), (1, 1, 2), (("fresh_v2", None, True),)),
    Row("ltk-owner", (("ltk", 1),), (1, 1, 2), (("fresh_v2", None, False),)),
    Row("ltk-peer", (("ltk", 2),), (1, 1, 2), (("fresh_v2", None, False),)),
    Row("ltk-both", (("ltk", 1), ("ltk", 2)), (1, 1, 2),
        (("fresh_v2", None, False),)),
    Row("ltk-bystander", (("ltk", 3),), (1, 1, 2), (("fresh_v2", None, True),)),
    Row("sesskey-tested", (("sesskey", 1, 1, 2),), (1, 1, 2),
        (("fresh_v2", None, False),)),
    Row("sesskey-other-stage", (("sesskey", 1, 1, 1),), (1, 1, 2),
        (("fresh_v2", None, True),)),
    Row("sesskey-partner-only", (("sesskey", 2, 1, 2),), (1, 1, 2),
        (("fresh_v2", None, True),)),
    Row("sesskey-partner-and-own", (("sesskey", 2, 1, 2), ("sesskey", 1, 1, 2)),
        (1, 1, 2), (("fresh_v2", None, False),)),
    Row("state-own-earlier", (("state", 1, 1, 1),), (1, 1, 2),
        (("fresh_v2", None, False),)),
    Row("state-own-later", (("state", 1, 1, 3),), (1, 1, 2),
        (("fresh_v2", None, False),)),
    Row("state-partner", (("state", 2, 1, 1),), (1, 1, 2),
        (("fresh_v2", None, False),)),
    Row("state-partner-later", (("state", 2, 1, 3),), (1, 1, 2),
        (("fresh_v2", None, False),)),
    Row("state-other-pair", (("state", 1, 2, 1),), (1, 1, 2),
        (("fresh_v2", None, True),)),
    Row("state-third-party", (("state", 3, 1, 1),), (1, 1, 2),
        (("fresh_v2", None, True),)),
    Row("rand-ignored", (("rand", 1, 1, 1),), (1, 1, 2),
        (("fresh_v2", None, True),)),
    Row("rand-plus-partner-key", (("rand", 1, 1, 1), ("sesskey", 2, 1, 1)),
        (1, 1, 2), (("fresh_v2", None, True),)),
    Row("ltk-beats-clean-state", (("ltk", 1), ("state", 1, 2, 1)), (1, 1, 2),
        (("fresh_v2", None, False),)),
    Row("responder-view-clean", (), (2, 1, 1), (("fresh_v2", None, True),)),
    Row("responder-view-state", (("state", 1, 1, 2),), (2, 1, 3),
        (("fresh_v2", None, False),)),
    Row("side-pair-unaffected", (("ltk", 2),), (1, 2, 1),
        (("fresh_v2", None, True),)),
    Row("side-pair-own-peer", (("ltk", 3),), (1, 2, 1),
        (("fresh_v2", None, False),)),
)

V2_MATCH_ROWS = (
    MatchRow("full-both-ways-fwd", build_v2_game, (1, 1), (2, 1), 3, True),
    MatchRow("full-both-ways-rev", build_v2_game, (2, 1), (1, 1), 3, True),
    MatchRow("dropped-final-receiver-still-matches", build_v2_dropped,
             (2, 1), (1, 1), 3, True),
    MatchRow("dropped-final-sender-does-not", build_v2_dropped,
             (1, 1), (2, 1), 3, False),
    MatchRow("dropped-final-sender-earlier-stage", build_v2_dropped,
             (1, 1), (2, 1), 2, True),
    MatchRow("tampered-first-no-match", build_v2_tampered,
             (2, 1), (1, 1), 1, False),
    MatchRow("same-role-never-matches", build_v2_same_role,
             (1, 1), (2, 1), 1, False),
)

# ---------------------------------------------------------------------------
# Ratchet-predicate rows. Tested stages: (0,0) initial, (x,0) asymmetric,
# (x,y>0) symmetric. Party 1 initiates; its ephemerals live at even
# epochs, party 2's at odd ones.
# ---------------------------------------------------------------------------

VDR_ROWS = (
    Row("initial-clean", (), (1, 1, (0, 0)),
        (("fresh_vdr", None, True), ("valid", None, True),
         ("ll", None, True), ("el", None, True), ("initial", None, True))),
    Row("initial-both-ltk", (("ltk", 1), ("ltk", 2)), (1, 1, (0, 0)),
        (("fresh_vdr", None, False), ("ll", None, False),
         ("el", None, False), ("initial", None, False))),
    Row("initial-own-ltk", (("ltk", 1),), (1, 1, (0, 0)),
        (("fresh_vdr", None, True), ("ll", None, False), ("el", None, True))),
    Row("initial-peer-ltk", (("ltk", 2),), (1, 1, (0, 0)),
        (("fresh_vdr", None, False), ("ll", None, False),
         ("el", None, False))),
    Row("initial-responder-view-peer-ltk", (("ltk", 1),), (2, 1, (0, 0)),
        (("fresh_vdr", None, True), ("ll", None, False), ("el", None, True))),
    Row("initial-responder-view-own-ltk", (("ltk", 2),), (2, 1, (0, 0)),
        (("fresh_vdr", None, False), ("el", None, False))),
    Row("initial-eph-plus-peer-ltk", (("rand", 1, 1, (0, 0)), ("ltk", 2)),
        (1, 1, (0, 0)),
        (("fresh_vdr", None, False), ("ll", None, False),
         ("el", None, False))),
    Row("initial-eph-only", (("rand", 1, 1, (0, 0)),), (1, 1, (0, 0)),
        (("fresh_vdr", None, True), ("ll", None, True), ("el", None, False))),
    Row("valid-sesskey-tested", (("sesskey", 1, 1, (0, 0)),), (1, 1, (0, 0)),
        (("fresh_vdr", None, False), ("valid", None, False))),
    Row("valid-sesskey-matching", (("sesskey", 2, 1, (0, 0)),), (1, 1, (0, 0)),
        (("fresh_vdr", None, False), ("valid", None, False))),
    Row("valid-sesskey-sibling", (("sesskey", 1, 1, (0, 1)),), (1, 1, (0, 0)),
        (("fresh_vdr", None, True), ("valid", None, True))),
    Row("valid-unaccepted-stage", (), (1, 1, (3, 1)),
        (("fresh_vdr", None, False), ("valid", None, False))),
    Row("asym1-clean", (), (1, 1, (1, 0)),
        (("fresh_vdr", None, True), ("ee", None, True), ("asym", None, True))),
    Row("asym1-both-ephs-root-carries",
        (("rand", 1, 1, (0, 0)), ("rand", 2, 1, (1, 0))), (1, 1, (1, 0)),
        (("fresh_vdr", None, True), ("ee", None, False),
         ("st", (0, 0), True), ("initial", None, True),
         ("asym", None, True))),
    Row("asym1-ephs-plus-own-state",
        (("rand", 1, 1, (0, 0)), ("rand", 2, 1, (1, 0)),
         ("state", 1, 1, (0, 0))), (1, 1, (1, 0)),
        (("fresh_vdr", None, False), ("ee", None, False),
         ("st", (0, 0), False), ("asym", None, False))),
    Row("asym1-ephs-plus-matching-state",
        (("rand", 1, 1, (0, 0)), ("rand", 2, 1, (1, 0)),
         ("state", 2, 1, (0, 0))), (1, 1, (1, 0)),
        (("fresh_vdr", None, False), ("st", (0, 0), False))),
    Row("asym1-state-healed-by-ephs", (("state", 1, 1, (0, 0)),),
        (1, 1, (1, 0)),
        (("fresh_vdr", None, True), ("ee", None, True),
         ("st", (0, 0), False))),
    Row("asym1-partner-eph-only", (("rand", 2, 1, (1, 0)),), (1, 1, (1, 0)),
        (("fresh_vdr", None, True), ("ee", None, False),
         ("st", (0, 0), True))),
    Row("sym-clean", (), (1, 1, (1, 1)),
        (("fresh_vdr", None, True), ("sym", None, True))),
    Row("sym-prev-state", (("state", 1, 1, (1, 0)),), (1, 1, (1, 1)),
        (("fresh_vdr", None, False), ("st", (1, 0), False),
         ("sym", None, False))),
    Row("sym-prev-state-matching", (("state", 2, 1, (1, 0)),), (1, 1, (1, 1)),
        (("fresh_vdr", None, False), ("st", (1, 0), False))),
    Row("sym-prev-key-harmless", (("sesskey", 1, 1, (1, 0)),), (1, 1, (1, 1)),
        (("fresh_vdr", None, True), ("valid", None, True),
         ("sym", None, True))),
    Row("asym2-ltk-both-healed", (("ltk", 1), ("ltk", 2)), (1, 1, (2, 0)),
        (("fresh_vdr", None, True), ("ee", None, True),
         ("ll", None, False))),
    Row("asym2-chain-break",
        (("rand", 1, 1, (2, 0)), ("rand", 2, 1, (1, 0)),
         ("state", 1, 1, (1, 0))), (1, 1, (2, 0)),
        (("fresh_vdr", None, False), ("ee", None, False),
         ("st", (1, 0), False), ("asym", None, False))),
    Row("asym2-ephs-only-recurses",
        (("rand", 1, 1, (2, 0)), ("rand", 2, 1, (1, 0))), (1, 1, (2, 0)),
        (("fresh_vdr", None, True), ("ee", None, False),
         ("ee", (1, 0), False), ("st", (1, 0), True),
         ("asym", (1, 0), True), ("asym", None, True))),
    Row("asym3-responder-view-clean", (), (2, 1, (3, 0)),
        (("fresh_vdr", None, True), ("ee", None, True))),
    Row("asym3-responder-own-eph",
        (("rand", 2, 1, (3, 0)), ("rand", 1, 1, (2, 0)),
         ("state", 2, 1, (2, 0))), (2, 1, (3, 0)),
        (("fresh_vdr", None, False), ("ee", None, False),
         ("st", (2, 0), False))),
)
