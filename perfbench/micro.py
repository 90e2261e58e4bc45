"""Primitive micro rows: the unit costs behind the op counts.

Each row times one call per sample after a warm-up, and reports the median
and p99 with the sample count. No trimming: a p99 exists to show the stalls
a trimmed mean would drop.
"""

from __future__ import annotations

from time import perf_counter_ns as clock

from letterseal import (
    AeadNonce,
    SeededRng,
    SymmetricKey,
    aead_open,
    aead_seal,
    dh,
    dh_keygen,
    dh_to_public,
    digest_kdf,
    kdf_chain,
    kdf_root,
)
from letterseal.crypto_suite import cbc_encrypt

WARMUP = 20
AEAD_SIZES = (0, 64, 1024, 16384, 65536)


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _row(fn, samples: int) -> dict:
    for _ in range(WARMUP):
        fn()
    times = []
    for _ in range(samples):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    times.sort()
    return {"p50_us": percentile(times, 50) / 1e3,
            "p99_us": percentile(times, 99) / 1e3, "n": samples}


def micro_rows(seed: int, samples: int = 1000) -> dict[str, dict]:
    """Rows keyed by per-layer metric name, e.g. crypto_suite.dh_us."""
    rng = SeededRng(seed).fork(b"perfbench-micro")
    sk, _ = dh_keygen(rng)
    _, pk = dh_keygen(rng)
    key = SymmetricKey(rng.token(32))
    nonce = AeadNonce(rng.token(12))
    iv = rng.token(16)
    secret, salt = rng.token(32), rng.token(16)
    ikm = rng.token(32) + rng.token(32)
    dh_samples = max(100, samples // 4)
    rows = {
        "crypto_suite.dh_us": _row(lambda: dh(sk, pk), dh_samples),
        "crypto_suite.dh_keyobj_us": _row(lambda: dh_to_public(sk), dh_samples),
        "crypto_suite.dh_keygen_us": _row(lambda: dh_keygen(rng), dh_samples),
        "crypto_suite.kdf_chain_us": _row(lambda: kdf_chain(key), samples),
        "crypto_suite.kdf_root_us": _row(lambda: kdf_root(ikm, key), samples),
        "crypto_suite.digest_kdf_us": _row(
            lambda: digest_kdf(secret, salt, b"Key"), samples),
        "crypto_suite.rng_token_us": _row(lambda: rng.token(20), samples),
    }
    payloads = {n: rng.token(n) if n else b"" for n in AEAD_SIZES}
    for n in AEAD_SIZES:
        rows[f"crypto_suite.aead_seal_us.{n}"] = _row(
            lambda p=payloads[n]: aead_seal(key, nonce, p, b"ad"), samples)
    for n in (64, 65536):
        sealed = aead_seal(key, nonce, payloads[n], b"ad")
        rows[f"crypto_suite.aead_open_us.{n}"] = _row(
            lambda c=sealed: aead_open(key, nonce, c, b"ad"), samples)
        rows[f"crypto_suite.cbc_encrypt_us.{n}"] = _row(
            lambda p=payloads[n]: cbc_encrypt(key, iv, p), samples)
    return rows
