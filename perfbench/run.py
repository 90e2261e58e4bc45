"""Seeded end-to-end and per-layer benchmark of letterseal.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ./src. The
workloads (stream, handshake, game) are described in perfbench/README.md.

--trace 0 measures the end-to-end metrics with tracing off, with times
scaled to a reference machine speed (see calibrate.py). --trace 1
alternates untraced and traced rounds and reports the per-layer metrics,
a self-time table and the tracing overhead. Both print each metric by name
with its unit, and end with one JSON line:
{"correct", "attempted", "failed", "metrics"}. The full result, with the
environment fingerprint and sample counts, and with --trace 1 the spans of
the first traced round, goes under .perfbench/. Any wrong outcome makes the
exit code 1; a set-up gate that fails (KAT, pinned op counts) exits 1
without a result line, and a checkout without ./src exits 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

from calibrate import PROBE_REF_NS, probe_ns

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 9
MIN_ROUNDS = 3

# name -> unit; every workload reports every metric. Latencies cover the
# ratchet alone, the one protocol on all three workloads: a median over
# the v1/v2/vdr mix would sit on the boundary between their cost modes.
END_TO_END = {
    "msgs_per_s": "msg/s",
    "vdr_msg_p50_us": "us",
    "vdr_msg_p99_us": "us",
    "vdr_first_msg_p50_us": "us",
    "goodput_mib_s": "MiB/s",
    "round_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

MODULES = ("linev1", "linev2", "linevdr", "wire", "directory_server", "mske",
           "bench")
PER_ROUND_COUNTS = (
    "linevdr.skip_inserts", "linevdr.skip_hits", "linevdr.skip_evictions",
    "linevdr.reject.replay", "linevdr.reject.stale",
    "linevdr.reject.skip_limit", "linevdr.reject.auth",
    "directory_server.relay.delivered", "directory_server.relay.dropped",
    "directory_server.relay.duplicated", "mske.queries_per_game",
)
MAX_COUNTS = ("directory_server.relay.queue_max",)
PER_LAYER = {
    "crypto_suite.dh_per_msg": "count",
    "crypto_suite.kdf_per_msg": "count",
    "crypto_suite.aead_per_msg": "count",
    **{name: "us" for name in (
        "crypto_suite.dh_us", "crypto_suite.dh_keyobj_us",
        "crypto_suite.dh_keygen_us", "crypto_suite.kdf_chain_us",
        "crypto_suite.kdf_root_us", "crypto_suite.digest_kdf_us",
        "crypto_suite.rng_token_us",
        *(f"crypto_suite.aead_seal_us.{n}" for n in (0, 64, 1024, 16384, 65536)),
        "crypto_suite.aead_open_us.64", "crypto_suite.aead_open_us.65536",
        "crypto_suite.cbc_encrypt_us.64", "crypto_suite.cbc_encrypt_us.65536")},
    "kat.check_ms": "ms",
    **{f"{m}.self_pct": "%" for m in MODULES},
    **{name: "count" for name in PER_ROUND_COUNTS + MAX_COUNTS},
    "linevdr.skip_useful_ratio": "ratio",
    "linevdr.state_bytes": "B",
    "wire.overhead_bytes.v1": "B",
    "wire.overhead_bytes.v2": "B",
    "wire.overhead_bytes.vdr": "B",
    "mske.snapshot_bytes": "B",
    "trace.overhead_pct": "%",
}


def load_package() -> None:
    """Import letterseal from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import letterseal

    if not Path(letterseal.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"letterseal imported from {letterseal.__file__}, not {src}")


def fingerprint(workload: str, seed: int, sizes: dict) -> dict:
    import cryptography
    from cryptography.hazmat.backends.openssl import backend

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "openssl": backend.openssl_version_text(),
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
    }


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("stream", "handshake", "game"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def _timed(fn):
    """fn's value, its wall ns, and the reference-speed scale around it."""
    before = probe_ns()
    t0 = perf_counter_ns()
    value = fn()
    elapsed = perf_counter_ns() - t0
    return value, elapsed, 2 * PROBE_REF_NS / (before + probe_ns())


def _setup(workload: str, seed: int, tracer):
    """KAT gate, pinned op-count check, keys, directory and inputs."""
    from workloads import check_pinned_counts, kat_gate, make_inputs

    kat_gate(tracer)
    pins = check_pinned_counts(seed)
    return make_inputs(workload, seed, tracer), pins


def _round(runner, inputs, tracer, outcomes, stats=None):
    gc.collect()
    res, _, res.scale = _timed(lambda: runner(inputs, tracer, outcomes, stats))
    return res


def _end_to_end(rounds, setups, peak_rss_mb: float,
                scaled: bool = True) -> tuple[dict, dict]:
    """End-to-end metrics at the reference speed, or as timed if not scaled."""
    from micro import percentile

    def k(r) -> float:
        return r.scale if scaled else 1.0

    def over_rounds(series: str, q: float) -> float:
        # the median over rounds of each round's percentile: a slow spell
        # moves only the rounds it falls in
        return statistics.median(
            percentile(sorted(getattr(r, series)["vdr"]), q) * k(r)
            for r in rounds) / 1e3

    metrics = {
        "msgs_per_s": statistics.median(
            r.messages * 1e9 / (r.work_ns * k(r)) for r in rounds),
        "vdr_msg_p50_us": over_rounds("msg_ns", 50),
        "vdr_msg_p99_us": over_rounds("msg_ns", 99),
        "vdr_first_msg_p50_us": over_rounds("first_ns", 50),
        "goodput_mib_s": statistics.median(
            r.payload_bytes * 1e9 / (r.work_ns * k(r)) / 2**20 for r in rounds),
        "round_s": statistics.median(r.wall_ns * k(r) for r in rounds) / 1e9,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(
            ns * (scale if scaled else 1.0) for ns, scale in setups) / 1e9,
    }
    msgs = sum(len(r.msg_ns["vdr"]) for r in rounds)
    samples = {
        "msgs_per_s": len(rounds), "goodput_mib_s": len(rounds),
        "round_s": len(rounds), "vdr_msg_p50_us": msgs, "vdr_msg_p99_us": msgs,
        "vdr_first_msg_p50_us": sum(len(r.first_ns["vdr"]) for r in rounds),
        "peak_rss_mb": 1, "setup_s": len(setups),
    }
    return metrics, samples


def _per_layer(traced, untraced, table, setup_table, stats, ops, micro) -> dict:
    n = len(traced)
    messages = sum(r.messages for r in traced)
    wall = sum(r.wall_ns for r in traced)
    metrics = {
        "crypto_suite.dh_per_msg": ops["dh"] / messages,
        "crypto_suite.kdf_per_msg": ops["kdf"] / messages,
        "crypto_suite.aead_per_msg": ops["aead"] / messages,
        **{name: row["p50_us"] for name, row in micro.items()},
        "kat.check_ms": setup_table["kat.check"]["total_ns"] / 1e6,
    }
    module_self = Counter()
    for name, row in table.items():
        module_self[name.split(".")[0]] += row["self_ns"]
    # time outside every span is the benchmark's own loop
    module_self["bench"] += wall - sum(
        row["self_ns"] for row in table.values())
    for m in MODULES:
        metrics[f"{m}.self_pct"] = 100.0 * module_self[m] / wall
    for name in PER_ROUND_COUNTS:
        metrics[name] = stats[name] / n
    for name in MAX_COUNTS:
        metrics[name] = stats[name]
    inserts = stats["linevdr.skip_inserts"]
    metrics["linevdr.skip_useful_ratio"] = (
        stats["linevdr.skip_hits"] / inserts if inserts else 0.0)
    metrics["linevdr.state_bytes"] = stats["linevdr.state_bytes_max"]
    for proto in ("v1", "v2", "vdr"):
        count = stats["wire.envelopes." + proto]
        metrics[f"wire.overhead_bytes.{proto}"] = (
            stats["wire.overhead_total." + proto] / count if count else 0.0)
    metrics["mske.snapshot_bytes"] = stats["mske.snapshot_bytes"] / n
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(r.wall_ns * r.scale for r in traced)
        / statistics.median(r.wall_ns * r.scale for r in untraced) - 1.0)
    return metrics


def _table_lines(table: dict, rounds: int, wall_ns: int) -> list[str]:
    lines = [f"{'span':34s} {'calls/round':>11s} {'mean_us':>10s} "
             f"{'self_ms/round':>13s} {'self_%':>7s}"]
    for name in sorted(table):
        row = table[name]
        lines.append(
            f"{name:34s} {row['calls'] / rounds:11.1f} "
            f"{row['total_ns'] / row['calls'] / 1e3:10.2f} "
            f"{row['self_ns'] / rounds / 1e6:13.3f} "
            f"{100.0 * row['self_ns'] / wall_ns:7.2f}")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    """One benchmark run; returns the full result and the exit code."""
    # modules that import letterseal load after load_package() put ./src first
    from micro import micro_rows, percentile
    from spans import NullTracer, Tracer, merge_tables, self_time_table
    from workloads import RUNNERS, Outcomes

    from letterseal import count_ops

    setups, inputs = [], None
    setup_tracer = Tracer() if trace else NullTracer()
    for k in range(SETUP_REPEATS):
        inputs = None  # let the previous inputs go before building new ones
        tracer = setup_tracer if k == SETUP_REPEATS - 1 else NullTracer()
        (inputs, pins), elapsed, scale = _timed(
            lambda: _setup(workload, seed, tracer))
        setups.append((elapsed, scale))

    runner = RUNNERS[workload]
    outcomes = Outcomes()
    off = NullTracer()
    _round(runner, inputs, off, outcomes)  # warm-up: caches and lazy set-up
    # every round does the same work, so set-up and one round reach the
    # workload's peak; later the kept latency samples would add to it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced, traced = [], []
    table, stats, ops, spans = {}, Counter(), Counter(), None
    deadline = perf_counter() + seconds
    while True:
        untraced.append(_round(runner, inputs, off, outcomes))
        if trace:
            tracer = Tracer()
            with count_ops() as counts:
                traced.append(_round(runner, inputs, tracer, outcomes, stats))
            ops.update(dh=counts.dh, kdf=counts.kdf, aead=counts.aead)
            merge_tables(table, self_time_table(tracer.spans))
            if spans is None:
                spans = tracer
        done = len(traced) if trace else len(untraced)
        if done >= MIN_ROUNDS and perf_counter() >= deadline:
            break

    result = {
        "fingerprint": fingerprint(workload, seed, inputs.sizes),
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "error_rate": outcomes.error_rate,
        "wrong_outcomes": outcomes.wrong,
        "pinned_flow_counts": pins,
    }
    lines = []
    if trace:
        micro = micro_rows(seed)
        setup_table = self_time_table(setup_tracer.spans)
        metrics = _per_layer(traced, untraced, table, setup_table, stats, ops, micro)
        units = PER_LAYER
        wall = sum(r.wall_ns for r in traced)
        lines += _table_lines(table, len(traced), wall)
        lines += ["", "set-up spans (last set-up):"]
        lines += _table_lines(setup_table, 1, sum(
            row["self_ns"] for row in setup_table.values()))
        lines += ["", f"{'micro row':34s} {'p50_us':>10s} {'p99_us':>10s} {'n':>6s}"]
        lines += [f"{name:34s} {row['p50_us']:10.3f} {row['p99_us']:10.3f} "
                  f"{row['n']:6d}" for name, row in micro.items()]
        result.update(layer_table=table, setup_table=setup_table, micro=micro,
                      op_counts=dict(ops), traced_rounds=len(traced),
                      counters=dict(stats))
        samples = {}
    else:
        metrics, samples = _end_to_end(untraced, setups, peak_rss_mb)
        raw, _ = _end_to_end(untraced, setups, peak_rss_mb, scaled=False)
        result["raw_metrics"] = raw
        result["scale_median"] = statistics.median(r.scale for r in untraced)
        lines.append(f"times at the reference speed; this run's machine ran at "
                     f"{1 / result['scale_median']:.3f}x the probe's reference time")
        by_protocol = {p: sorted(ns * r.scale for r in untraced for ns in r.msg_ns[p])
                       for p in ("v1", "v2", "vdr")}
        lines.append("message p50 by protocol at the reference speed: " + ", ".join(
            f"{p} {percentile(v, 50) / 1e3:.1f} us (n={len(v)})"
            for p, v in by_protocol.items() if v))
        units = END_TO_END
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name],
                                **({"n": samples[name]} if name in samples else {})}
                         for name in units}
    lines.append("")
    for name, m in result["metrics"].items():
        n = f"  (n={m['n']})" if "n" in m else ""
        if name in result.get("raw_metrics", {}):
            n += f"  as timed: {result['raw_metrics'][name]:.4f}"
        lines.append(f"{name:34s} {m['value']:14.4f} {m['unit']}{n}")
    lines.append(f"{'error_rate':34s} {outcomes.error_rate:14.6f} ratio"
                 f"  ({outcomes.failed}/{outcomes.attempted})")
    for what in outcomes.wrong:
        lines.append(f"WRONG OUTCOME: {what}")
    result["lines"] = lines

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1))
    if spans is not None:
        spans.write_jsonl(stem.with_suffix(".spans.jsonl"))
    return result, 0 if outcomes.failed == 0 else 1


def main(argv=None) -> int:
    args = _args(argv)
    try:
        load_package()
    except ImportError as exc:
        print(f"perfbench: cannot import letterseal from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    try:
        result, code = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:  # a set-up gate failed
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    fp = result["fingerprint"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={fp['nproc']} python={fp['python']} "
          f"cryptography={fp['cryptography']} openssl={fp['openssl']!r} "
          f"sizes={json.dumps(fp['sizes'])}")
    print("\n".join(result["lines"]))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
