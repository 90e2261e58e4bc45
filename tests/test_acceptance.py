"""Acceptance gate: one test per numbered criterion.

Each test prints a single `acceptance N <label>: PASS|FAIL` line in
addition to its pytest outcome, so the suite's verdict survives in plain
logs. Criteria are deliberately end to end; unit-level coverage lives in
the per-module files.
"""

import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from letterseal.bench import (
    PINNED_COUNTS,
    SCENARIOS,
    headline_counts,
    run_bench,
    run_scenario,
)
from letterseal.kat import check_file
from letterseal.linev1 import v1_decrypt, v1_encrypt
from letterseal.linev2 import v2_decrypt, v2_encrypt
from letterseal.linevdr import vdr_decrypt, vdr_encrypt
from letterseal.mske import run_attack
from letterseal.wire import (
    EnvelopeV1,
    EnvelopeV2,
    EnvelopeVDR,
    decode_envelope,
    encode_envelope,
)

import helpers
import truth_tables

N_GAMES = 100
REPO_ROOT = Path(__file__).resolve().parent.parent


def _verdict(n: int, label: str, ok: bool) -> None:
    print(f"acceptance {n} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({label}) failed"


# -- 1: round-trip correctness ------------------------------------------------

def test_criterion_1_roundtrip_correctness():
    rnd = random.Random(0xC1)
    t0 = time.monotonic()
    ok = True

    sa, sb, a_rng, b_rng = helpers.v1_pair(101)
    for k in range(1000):
        pt = rnd.randbytes(rnd.randint(0, 64 * 1024))
        if k % 2:
            ok &= v1_decrypt(sa, v1_encrypt(sb, k % 3, pt, b_rng)) == pt
        else:
            ok &= v1_decrypt(sb, v1_encrypt(sa, k % 3, pt, a_rng)) == pt

    sa, sb, a_rng, b_rng = helpers.v2_pair(102)
    for k in range(1000):
        pt = rnd.randbytes(rnd.randint(0, 64 * 1024))
        if k % 2:
            ok &= v2_decrypt(sa, v2_encrypt(sb, k % 3, pt, b_rng)) == pt
        else:
            ok &= v2_decrypt(sb, v2_encrypt(sa, k % 3, pt, a_rng)) == pt

    sta, mats, a_rng, b_rng = helpers.vdr_pair(103)
    opener = vdr_encrypt(sta, 0, b"open", a_rng)
    stb = helpers.vdr_receiver(mats, opener)
    ok &= vdr_decrypt(stb, opener, b_rng) == b"open"
    for k in range(1000):
        pt = rnd.randbytes(rnd.randint(0, 64 * 1024))
        if (k // 7) % 2 == 0:  # switch sender every 7 messages: epoch turns
            ok &= vdr_decrypt(stb, vdr_encrypt(sta, 0, pt, a_rng), b_rng) == pt
        else:
            ok &= vdr_decrypt(sta, vdr_encrypt(stb, 0, pt, b_rng), a_rng) == pt

    elapsed = time.monotonic() - t0
    _verdict(1, f"3x1000 randomized round trips in {elapsed:.1f}s (< 10s)",
             ok and elapsed < 10.0)


# -- 2: independent-oracle KATs ----------------------------------------------

def test_criterion_2_known_answer_vectors():
    results = check_file(helpers.KAT_FILE)
    bitexact = len(results) == 12 and all(ok for _n, ok in results)
    _verdict(2, "frozen vectors recompute bit-exact", bitexact)


# -- 3: key-compromise impersonation on the static protocol -------------------

def test_criterion_3_kci_v2_advantage_one():
    wins = 0
    violated = 0
    for seed in range(N_GAMES):
        rep = run_attack("kci_v2", seed)
        d = rep.details
        if (rep.succeeded and d["forged_stage_accepted"]
                and d["guess"] == d["challenge_bit"]):
            wins += 1
        violated += rep.violated_freshness
    _verdict(3, f"kci_v2 guessed b in {wins}/{N_GAMES}, "
                f"freshness violated in {violated}/{N_GAMES}",
             wins == N_GAMES and violated == N_GAMES)


# -- 4: replay asymmetry -------------------------------------------------------

def test_criterion_4_replay_asymmetry():
    v2_accepts = sum(
        run_attack("replay_v2", s).details["duplicate_accepted"]
        for s in range(N_GAMES))
    vdr_rejects = 0
    for s in range(N_GAMES):
        rep = run_attack("replay_vdr", s)
        d = rep.details
        if (not rep.succeeded and d["duplicate_rejections"] == 2
                and d["first_delivery_accepted"]):
            vdr_rejects += 1
    _verdict(4, f"v2 accepted duplicates {v2_accepts}/{N_GAMES}, "
                f"ratchet rejected both duplicates {vdr_rejects}/{N_GAMES}",
             v2_accepts == N_GAMES and vdr_rejects == N_GAMES)


# -- 5: forward secrecy --------------------------------------------------------

def test_criterion_5_forward_secrecy_witness():
    v2_total = 0
    for s in range(N_GAMES):
        d = run_attack("fs_v2", s).details
        v2_total += (d["recorded"] == 50 and d["decrypted_post_hoc"] == 50)
    vdr_total = 0
    for s in range(N_GAMES):
        d = run_attack("fs_vdr", s).details
        vdr_total += (d["decrypted"] == 0 and d["decrypt_attempts"] > 0
                      and d["consumed_keys_absent_from_snapshots"])
    _verdict(5, f"post-hoc reveal opened 50/50 recorded v2 ciphertexts "
                f"({v2_total}/{N_GAMES} games), ratchet snapshots opened none "
                f"({vdr_total}/{N_GAMES} games)",
             v2_total == N_GAMES and vdr_total == N_GAMES)


# -- 6: post-compromise security ------------------------------------------------

def test_criterion_6_post_compromise_healing():
    healed_runs = 0
    fallen_runs = 0
    for s in range(N_GAMES):
        d = run_attack("pcs_vdr", s).details
        x = d["compromise_epoch"]
        beyond = [stage for stage in d["closure_stages"] if stage[0] >= x + 2]
        if all(d["healed_stages_excluded"].values()) and not beyond:
            healed_runs += 1
        if all(d["fallen_stages_decrypted"].values()):
            fallen_runs += 1
    _verdict(6, f"closure excluded epoch-(x+2) keys in {healed_runs}/{N_GAMES} "
                f"runs while decrypting the compromised window in "
                f"{fallen_runs}/{N_GAMES}",
             healed_runs == N_GAMES and fallen_runs == N_GAMES)


# -- 7: predicate truth tables ---------------------------------------------------

def test_criterion_7_truth_tables():
    disagreements: list[str] = []
    for row in truth_tables.V2_ROWS:
        disagreements += truth_tables.check_row(row, "v2")
    for row in truth_tables.V2_MATCH_ROWS:
        disagreements += truth_tables.check_match_row(row)
    for row in truth_tables.VDR_ROWS:
        disagreements += truth_tables.check_row(row, "vdr")
    n_v2 = len(truth_tables.V2_ROWS) + len(truth_tables.V2_MATCH_ROWS)
    n_vdr = len(truth_tables.VDR_ROWS)
    ok = not disagreements and n_v2 >= 20 and n_vdr >= 20
    _verdict(7, f"{n_v2} static-protocol and {n_vdr} ratchet traces, "
                f"{len(disagreements)} disagreements", ok)
    assert not disagreements, "\n".join(disagreements)


# -- 8: benchmark structure --------------------------------------------------------

def test_criterion_8_benchmark_structure():
    counts_ok = all(headline_counts(s) == PINNED_COUNTS[s] for s in SCENARIOS)

    v2_ratios = []
    vdr_ratios = []
    for run in range(5):
        rows = {s: run_scenario(s, iterations=300, seed=run)
                for s in ("v2-first", "v2-ith", "vdr-init", "vdr-sym")}
        v2_ratios.append(rows["v2-first"].e2e_avg / rows["v2-ith"].e2e_avg)
        vdr_ratios.append(rows["vdr-init"].e2e_avg / rows["vdr-sym"].e2e_avg)
    v2_ratio = statistics.median(v2_ratios)
    vdr_ratio = statistics.median(vdr_ratios)

    t0 = time.monotonic()
    run_bench(iterations=100)
    runtime = time.monotonic() - t0

    _verdict(8, f"op counts pinned, v2-first/v2-ith {v2_ratio:.1f}x and "
                f"vdr-init/vdr-sym {vdr_ratio:.1f}x (>= 10x), full run "
                f"{runtime:.1f}s (< 120s)",
             counts_ok and v2_ratio >= 10.0 and vdr_ratio >= 10.0
             and runtime < 120.0)


# -- 9: wire stability ----------------------------------------------------------

_IDENT_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789._:-é"


def _random_identity(rnd: random.Random) -> str:
    return "".join(rnd.choice(_IDENT_ALPHABET)
                   for _ in range(rnd.randint(0, 24)))


def _random_envelope(rnd: random.Random):
    kid_s = rnd.randrange(2**32)
    kid_r = rnd.randrange(2**32)
    ctype = rnd.randrange(256)
    fam = rnd.randrange(3)
    if fam == 0:
        return EnvelopeV1(ctype=ctype, salt=rnd.randbytes(8),
                          ciphertext=rnd.randbytes(16 * rnd.randint(1, 8)),
                          tag=rnd.randbytes(16),
                          kid_sender=kid_s, kid_receiver=kid_r)
    if fam == 1:
        return EnvelopeV2(ctype=ctype, salt=rnd.randbytes(16),
                          ciphertext=rnd.randbytes(rnd.randint(16, 160)),
                          nonce_material=rnd.randbytes(8),
                          kid_sender=kid_s, kid_receiver=kid_r,
                          sid=_random_identity(rnd),
                          rid=_random_identity(rnd))
    return EnvelopeVDR(ctype=ctype,
                       ciphertext=rnd.randbytes(rnd.randint(16, 160)),
                       nonce_material=rnd.randbytes(8),
                       kid_sender=kid_s, kid_receiver=kid_r,
                       eph_pub=rnd.randbytes(32),
                       j_index=rnd.randrange(2**32))


def test_criterion_9_wire_stability():
    rnd = random.Random(0xC9)
    inverse_ok = True
    for _ in range(10_000):
        env = _random_envelope(rnd)
        raw = encode_envelope(env)
        back = decode_envelope(raw)
        inverse_ok &= back == env and encode_envelope(back) == raw

    frozen = helpers.GOLDEN_FILE.read_text()
    goldens_ok = helpers.golden_text() == helpers.golden_text() == frozen

    # a bytecode-optimized interpreter must produce the same fixture bytes
    script = ("import sys; sys.path.insert(0, 'tests'); "
              "import helpers; sys.stdout.write(helpers.golden_text())")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, cwd=REPO_ROOT)
    optimized_ok = proc.returncode == 0 and proc.stdout == frozen

    _verdict(9, "10^4 envelope codec inversions and stable golden fixtures",
             inverse_ok and goldens_ok and optimized_ok)
