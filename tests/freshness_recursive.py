"""The ratchet freshness family in its recursive form, kept as a test oracle.

These are the definitions as written over the stage lattice: one call per
index, and a transcript scan for every matching query. letterseal.mske
evaluates the same predicates iteratively, with the matching prefixes
computed once per session pair; the tests require the two to agree.

Results are memoized per oracle instance. The predicates are pure
functions of the game, so the memo changes no verdict; it keeps a
long chain evaluated stage by stage, in increasing order, at a shallow
recursion depth and at a quadratic rather than cubic cost.
"""

from letterseal.linevdr import ROLE_INITIATOR
from letterseal.mske import ACCEPT


def match_sessions(a, b, s) -> bool:
    if a.role == b.role:
        return False
    for t, msg in a.transcript.items():
        if t <= s and b.transcript.get(t) != msg:
            return False
    return True


class RecursiveFreshness:
    def __init__(self, game):
        self.game = game
        self._memo = {}

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def matching_sessions(self, rec, s):
        return self._cached(
            ("match", rec.owner, rec.index, s),
            lambda: [r for r in self.game.sessions.values()
                     if r is not rec and match_sessions(rec, r, s)])

    def valid_vdr(self, u, i, s) -> bool:
        rec = self.game.sessions[(u, i)]
        if rec.status.get(s) != ACCEPT:
            return False
        if rec.rev_sesskey.get(s):
            return False
        return all(not r.rev_sesskey.get(s)
                   for r in self.matching_sessions(rec, s))

    def fresh_ll(self, u, i) -> bool:
        rec = self.game.sessions[(u, i)]
        return not self.game.rev_ltk.get(u) and not self.game.rev_ltk.get(rec.pid)

    def fresh_el(self, u, i) -> bool:
        rec = self.game.sessions[(u, i)]
        if rec.role == ROLE_INITIATOR:
            return (not rec.rev_rand.get((0, 0))
                    and not self.game.rev_ltk.get(rec.pid))
        return (all(not r.rev_rand.get((0, 0))
                    for r in self.matching_sessions(rec, (0, 0)))
                and not self.game.rev_ltk.get(u))

    def fresh_initial(self, u, i) -> bool:
        return self.fresh_ll(u, i) or self.fresh_el(u, i)

    def fresh_st(self, u, i, s) -> bool:
        rec = self.game.sessions[(u, i)]
        if rec.rev_state.get(s):
            return False
        return all(not r.rev_state.get(s)
                   for r in self.matching_sessions(rec, s))

    def fresh_ee(self, u, i, s) -> bool:
        x = s[0]
        rec = self.game.sessions[(u, i)]
        b = 1 if ((rec.role == ROLE_INITIATOR) ^ (x % 2 == 0)) else 0
        if rec.rev_rand.get((x - b, 0)):
            return False
        other = (x - (1 - b), 0)
        return all(not r.rev_rand.get(other)
                   for r in self.matching_sessions(rec, (x, 0)))

    def fresh_asym(self, u, i, s) -> bool:
        def compute():
            x = s[0]
            if self.fresh_ee(u, i, (x, 0)):
                return True
            prior = (self.fresh_asym(u, i, (x - 1, 0)) if x > 1
                     else self.fresh_initial(u, i))
            return self.fresh_st(u, i, (x - 1, 0)) and prior
        return self._cached(("asym", u, i, s[0]), compute)

    def fresh_sym(self, u, i, s) -> bool:
        def compute():
            x, y = s
            if y == 0:
                return (self.fresh_asym(u, i, s) if x >= 1
                        else self.fresh_initial(u, i))
            return (self.fresh_st(u, i, (x, y - 1))
                    and self.fresh_sym(u, i, (x, y - 1)))
        return self._cached(("sym", u, i, s), compute)

    def fresh_vdr(self, tested) -> bool:
        u, i, s = tested
        if not self.valid_vdr(u, i, s):
            return False
        x, y = s
        if (x, y) == (0, 0):
            return self.fresh_initial(u, i)
        if y == 0:
            return self.fresh_asym(u, i, s)
        return self.fresh_sym(u, i, s)
