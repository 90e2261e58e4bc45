"""Adversarial key-exchange harness: game, predicates, scripted attacks."""

from ..endpoint import PROTO_V2, PROTO_VDR
from .attacks import EXPECTED, AttackReport, attack_names, run_attack
from .freshness import (
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
    matching_sessions,
    valid_vdr,
)
from .game import ACCEPT, REJECT, Game, KeyClosure, QueryTrace, SessionRecord

__all__ = [
    "ACCEPT",
    "AttackReport",
    "EXPECTED",
    "Game",
    "KeyClosure",
    "PROTO_V2",
    "PROTO_VDR",
    "QueryTrace",
    "REJECT",
    "SessionRecord",
    "attack_names",
    "fresh_asym",
    "fresh_ee",
    "fresh_el",
    "fresh_initial",
    "fresh_ll",
    "fresh_st",
    "fresh_sym",
    "fresh_v2",
    "fresh_vdr",
    "match_sessions",
    "matching_sessions",
    "run_attack",
    "valid_vdr",
]
