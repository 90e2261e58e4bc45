"""Differential test of the ratchet's replay rule against a set model.

The reference model is the set-based rule: every stage that has ever
opened goes into a set, and a stage found in that set is refused before
anything else is looked at, with ReplayRejected in the receiver's live
epoch and StaleEpoch in an earlier one. The ratchet itself keeps no such
set: it refuses what its live receive chain and skipped-key cache can no
longer open. Both are driven through the same seeded schedules (late,
repeated and forged deliveries, reordering across epoch turns, gaps that
overflow the cache, and snapshot export/import) and must agree on every
delivery: the same plaintext or the same error class. No stage may open
twice.
"""

import dataclasses
import random
from collections import Counter

import pytest

import helpers
from letterseal.errors import LettersealError, ReplayRejected, StaleEpoch
from letterseal.linevdr import (
    MAX_SKIP,
    vdr_decrypt,
    vdr_encrypt,
    vdr_export_state,
    vdr_import_state,
)


class SetModel:
    """One party under the set rule: the consumed set, in front of a
    ratchet state of its own that only sees stages not in the set."""

    def __init__(self, st, rng):
        self.st, self.rng, self.consumed = st, rng, set()

    def decrypt(self, env):
        stage = (env.i_index, env.j_index)
        if stage in self.consumed:
            error = ReplayRejected if env.i_index == self.st.i_r else StaleEpoch
            raise error(f"message key for {stage} already consumed")
        pt = vdr_decrypt(self.st, env, self.rng)
        self.consumed.add(stage)
        return pt


def _world(seed):
    """Initiator and responder after the opening flight, as [state, rng]."""
    sta, mats, a_rng, b_rng = helpers.vdr_pair(seed)
    opener = vdr_encrypt(sta, 0, b"opening flight", a_rng)
    stb = helpers.vdr_receiver(mats, opener)
    assert vdr_decrypt(stb, opener, b_rng) == b"opening flight"
    return [[sta, a_rng], [stb, b_rng]]


def _outcome(fn):
    try:
        return "ok", fn()
    except LettersealError as exc:
        return type(exc).__name__, None


def _category(st, env, evicted):
    stage = (env.i_index, env.j_index)
    if stage in evicted:
        return "evicted"
    if stage in st.skipped:
        return "cached"
    if env.i_index < st.i_r:
        return "old epoch"
    return "live" if env.i_index == st.i_r else "new epoch"


def run_schedule(seed, actions):
    """Drive the ratchet and the set model through one seeded schedule;
    returns a Counter of (category, outcome) over every delivery, plus
    ("repeat", outcome) for each delivery of a stage that already opened."""
    rnd = random.Random(seed)
    real = _world(seed)
    model = [SetModel(st, rng) for st, rng in _world(seed)]
    outbox = ([], [])
    cursor = [0, 0]
    evicted = (set(), set())    # stages the MAX_SKIP bound dropped, per party
    tally = Counter()
    for _ in range(actions):
        p = rnd.randrange(2)
        roll = rnd.random()
        if roll < 0.3:
            n = rnd.choice((1, 1, 2, 3, 5, 8)) if rnd.random() < 0.95 \
                else rnd.randrange(MAX_SKIP // 2, MAX_SKIP + 40)
            for _ in range(n):
                text = b"%d from %d" % (len(outbox[p]), p)
                env = vdr_encrypt(real[p][0], 0, text, real[p][1])
                assert vdr_encrypt(model[p].st, 0, text, model[p].rng) == env
                outbox[p].append((env, text))
        elif roll < 0.95 and outbox[p]:
            box = outbox[p]
            pick = rnd.random()
            if pick < 0.5 and cursor[p] < len(box):
                k = cursor[p]           # in order
            elif pick < 0.6:
                k = len(box) - 1        # newest: a forward jump
            else:
                k = rnd.randrange(len(box))  # late, repeated or early
            cursor[p] = max(cursor[p], k + 1)
            env, text = box[k]
            if rnd.random() < 0.08:     # forged copy
                ct = bytes([env.ciphertext[0] ^ 1]) + env.ciphertext[1:]
                env, text = dataclasses.replace(env, ciphertext=ct), None
            r = 1 - p
            stage = (env.i_index, env.j_index)
            category = _category(real[r][0], env, evicted[r])
            repeat = stage in model[r].consumed
            cached = set(real[r][0].skipped)
            got = _outcome(lambda: vdr_decrypt(real[r][0], env, real[r][1]))
            want = _outcome(lambda: model[r].decrypt(env))
            assert got == want, (seed, category, stage)
            assert got[0] != "ok" or (got[1] == text and not repeat)
            evicted[r].update(cached - set(real[r][0].skipped) - {stage})
            tally[category, got[0]] += 1
            if repeat:
                tally["repeat", got[0]] += 1
            assert vdr_export_state(real[r][0]) == vdr_export_state(model[r].st)
        else:
            real[p][0] = vdr_import_state(vdr_export_state(real[p][0]))
            model[p].st = vdr_import_state(vdr_export_state(model[p].st))
    return tally


SEEDS = range(16)


@pytest.mark.parametrize("seed", SEEDS)
def test_ratchet_agrees_with_set_model(seed):
    run_schedule(seed, actions=300)


def test_schedules_reach_every_outcome_class():
    """The seeds above cover each way a stage can be refused or opened,
    and a repeated stage is refused in its own epoch and in a later one."""
    total = Counter()
    for seed in SEEDS[:6]:
        total += run_schedule(seed, actions=300)
    for key in [("live", "ok"), ("new epoch", "ok"), ("cached", "ok"),
                ("live", "ReplayRejected"), ("old epoch", "StaleEpoch"),
                ("evicted", "ReplayRejected"), ("evicted", "StaleEpoch"),
                ("live", "SkipLimit"), ("live", "AuthFailure"),
                ("repeat", "ReplayRejected"), ("repeat", "StaleEpoch")]:
        assert total[key] > 0, (key, total)
