#!/usr/bin/env python3
"""Compare a bench JSON record against its committed baseline.

Understands five record families, selected by the record's "bench" field:
  hotpath         — bench_hotpath (BENCH_hotpath.json baseline)
  erasure_kernel  — bench_erasure_kernel (BENCH_erasure.json baseline)
  shard           — bench_shard (BENCH_shard.json baseline)
  obs             — bench_obs (BENCH_obs.json baseline)
  wire            — bench_wire (BENCH_wire.json baseline)

Only machine-portable *ratio* metrics are compared (speedups of one kernel
over another on the same machine in the same run); absolute MB/s, events/s,
and wall-clock numbers vary across runner hardware and are recorded purely
as trajectory data.

Policy: a metric fails when it regresses more than TOLERANCE below the
committed baseline AND also falls below its hard acceptance floor (the
floors the benches themselves enforce). The floor override keeps noisy
shared runners from flagging a run that still meets the PR's acceptance
criteria.

Usage: check_bench_regression.py BASELINE.json CURRENT.json
Exit status: 0 ok, 1 regression, 2 usage/parse error.
"""

import json
import sys

TOLERANCE = 0.30

# bench name -> [(json path, hard acceptance floor or None[, min hw threads])]
# A third tuple element gates the metric on parallel hardware: when either
# record's machine has fewer hardware threads, the comparison is skipped —
# a 1-core runner measures handoff overhead, not scaling, and its ~0.9x
# "speedup" would poison the trajectory either as baseline or as current.
METRIC_SETS = {
    "hotpath": [
        ("sha256.speedup_one_shot", 4.0),
        ("sha256.speedup_hash_many", None),
        ("sha256_wide.speedup_wide", 1.5),
        ("hmac.speedup", None),
        ("vote_combine.speedup", None),
        ("event_queue.speedup", 5.0),
        ("gf256.avx2_vs_ssse3", 1.5),
    ],
    "erasure_kernel": [
        ("acceptance.speedup", 10.0),
        ("parallel.speedup_w4", 2.0, 4),
        # GFNI vs AVX2 on the same machine in the same run; null (skipped)
        # where the ISA is absent.
        ("gfni.vs_avx2", None),
    ],
    "shard": [
        # Simulated-time ratios (deterministic, machine-portable). The
        # loopback kreq/s in the same record are single-host wall clock and
        # deliberately not gated.
        ("scaling.sim_speedup_s2", 1.5),
        ("scaling.sim_speedup_s4", 3.0),
    ],
    "obs": [
        # 50 ns/op record ceiling expressed as a floor: 20 Mops/thread. The
        # bench also enforces this itself unless run with --no-acceptance.
        ("record.histogram_Mops", 20.0),
        ("record.counter_Mops", 20.0),
        # Per-thread-shard registry vs one shared fetch_add histogram; only a
        # scaling statement with real parallelism underneath.
        ("contention.shard_speedup", 1.5, 4),
    ],
    "wire": [
        # Exact arithmetic, not a timing: one serialization fanned to 15
        # peer queues. Any copy-per-peer regression drops this to ~1.
        ("zero_copy.fanout_per_copy", 15.0),
        # Loopback cluster at --io-threads 4 vs 1; single-host wall clock,
        # only meaningful with >= 4 hardware threads.
        ("io_threads.speedup_io4", 1.5, 4),
    ],
}


def hw_threads(record):
    """Hardware-thread count a record was produced on (None when unrecorded)."""
    for path in ("hw_threads", "parallel.hw_threads"):
        n = lookup(record, path)
        if n is not None:
            return n
    return None


def lookup(record, dotted):
    node = record
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            baseline = json.load(f)
        with open(argv[2]) as f:
            current = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    bench = current.get("bench")
    if bench != baseline.get("bench"):
        print(f"error: bench mismatch (baseline={baseline.get('bench')} current={bench})",
              file=sys.stderr)
        return 2
    metrics = METRIC_SETS.get(bench)
    if metrics is None:
        print(f"error: unknown bench record '{bench}'", file=sys.stderr)
        return 2

    failures = []
    print(f"bench: {bench}")
    print(f"{'metric':<28} {'baseline':>10} {'current':>10} {'min ok':>10}  verdict")
    for entry in metrics:
        path, floor = entry[0], entry[1]
        min_hw = entry[2] if len(entry) > 2 else None
        base = lookup(baseline, path)
        cur = lookup(current, path)
        if base is None or cur is None:
            # Kernel not available on one of the machines (e.g. no AVX2), or
            # a section the current invocation skipped: nothing portable to
            # compare.
            print(f"{path:<28} {'-':>10} {'-':>10} {'-':>10}  skipped")
            continue
        if min_hw is not None:
            cores = [hw_threads(baseline), hw_threads(current)]
            if any(c is None or c < min_hw for c in cores):
                print(f"{path:<28} {base:>10.2f} {cur:>10.2f} {'-':>10}  "
                      f"skipped (< {min_hw} hw threads)")
                continue
        min_ok = base * (1.0 - TOLERANCE)
        ok = cur >= min_ok or (floor is not None and cur >= floor)
        verdict = "ok" if ok else "REGRESSION"
        if not ok:
            failures.append(path)
        print(f"{path:<28} {base:>10.2f} {cur:>10.2f} {min_ok:>10.2f}  {verdict}")

    if failures:
        print(f"\nFAILED: {len(failures)} metric(s) regressed >{TOLERANCE:.0%} "
              f"below the committed trajectory: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("\nall tracked metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
