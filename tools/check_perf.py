#!/usr/bin/env python3
"""Perf regression gate (run by the CI perf job).

Compares a fresh BENCH_exec.json (written by bench_breakdown into its
working directory) against the committed baseline
bench/baselines/exec_baseline.json. The guarded number is
``compiled_ns_per_msg`` — the *uninstrumented* compiled-tier cost per
message through the fig5 chain, the proxy for obs-off fig5 throughput
(throughput = 1e9 / ns_per_msg). The gate fails when fresh throughput
falls more than --max-regress (default 20%) below the baseline; the
generous threshold absorbs shared-runner noise while still catching the
kill-switch requirement breaking (observability or control-loop overhead
leaking into the obs-off hot path).

The same gate guards BENCH_burst.json (written by bench_burst) against
bench/baselines/burst_baseline.json — there ``compiled_ns_per_msg`` is the
default-burst-size 1-worker in-pool executor cost. Pass ``--min-speedup``
to additionally require the fresh file's ``burst_speedup`` (scalar ns/msg
over default-burst ns/msg, measured on the same host in the same run, so
immune to runner-speed variance) to stay above a floor.

A third mode gates BENCH_alloc.json (written by bench_alloc): pass
``--max-allocs`` to require the fresh file's ``allocs_per_msg`` (heap
allocations per message on the arena-backed engine burst path, counted by
the operator-new hooks) to stay at or below the bound. The zero-allocation
invariant is deterministic — not timing-dependent — so CI pins it at 0.
No baseline file is involved in this mode.

The baseline mode also gates BENCH_obs.json (written by bench_obs) against
bench/baselines/obs_baseline.json — there ``compiled_ns_per_msg`` is the
*obs-on* default-burst 1-worker executor cost (metrics + sampled tracing
enabled), and ``burst_speedup`` is obs-on scalar over obs-on burst. Pass
``--max-obs-overhead`` to additionally require ``obs_overhead_frac`` (median
over interleaved rep pairs in one pool of obs-on burst over obs-off burst,
minus one, same host same run) to stay at or
below the bound — the always-on telemetry contract of
docs/OBSERVABILITY.md "Burst-mode telemetry". Run the same file through
``--max-allocs 0`` to pin the zero-allocation invariant with telemetry on.

A fourth mode gates BENCH_reconfig.json (written by bench_reconfig): pass
``--min-blackout-improvement`` to require the fresh file's
``blackout_improvement`` (pause-drain blackout p99 over live-migration
blackout p99, both measured in the same run on the same host, so immune to
runner-speed variance) to stay above a floor, and ``dropped`` to be exactly
zero — the zero-drop contract of docs/RECONFIG.md is binary. When a
--baseline pointing at reconfig_baseline.json is also given, the absolute
``live_blackout_p99_ns`` is additionally held within --max-regress of the
baseline (use a generous factor: blackout is a tail latency on a shared
runner, far noisier than throughput).

A fifth mode gates BENCH_cache.json (written by bench_cache): pass
``--min-cache-speedup`` to require the fresh file's ``cached_hit_speedup``
(miss-path p50 over hit-path p50 at the gate skew, same host same run, so
runner-speed-immune) to stay above the floor, plus the bounds committed in
bench/baselines/cache_baseline.json: ``hit_rate`` at or above the
baseline's ``min_hit_rate`` (the ARC hit rate at skew 1.1 is
workload-determined, not timing-determined, so the floor is tight) and
``cached_hit_ns_per_msg`` at or below ``max_cached_hit_ns`` (absolute, so
deliberately generous). Run the same file through ``--max-allocs 0`` to
pin the hits-allocate-nothing invariant.

Usage: check_perf.py FRESH_JSON [--baseline PATH] [--max-regress FRACTION]
                     [--min-speedup RATIO] [--max-allocs N]
                     [--max-obs-overhead FRACTION]
                     [--min-blackout-improvement RATIO]
                     [--min-cache-speedup RATIO]
Exits 0 when within bounds, 1 with a one-line verdict otherwise.
"""

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO / "bench" / "baselines" / "exec_baseline.json"


def load(path):
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"check_perf: cannot read {path}: {e}")
    ns = data.get("compiled_ns_per_msg")
    if not isinstance(ns, (int, float)) or ns <= 0:
        sys.exit(f"check_perf: {path}: missing/invalid compiled_ns_per_msg")
    return data, float(ns)


def check_reconfig(args):
    try:
        fresh = json.loads(Path(args.fresh).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"check_perf: cannot read {args.fresh}: {e}")
    improvement = fresh.get("blackout_improvement")
    live_p99 = fresh.get("live_blackout_p99_ns")
    dropped = fresh.get("dropped")
    for name, value in (("blackout_improvement", improvement),
                        ("live_blackout_p99_ns", live_p99),
                        ("dropped", dropped)):
        if not isinstance(value, (int, float)):
            print(f"check_perf: FAIL — fresh file has no {name} field")
            return 1
    print(f"live blackout p99: {live_p99 / 1e6:.2f} ms, "
          f"pause-drain p99: "
          f"{fresh.get('pause_drain_blackout_p99_ns', 0) / 1e6:.2f} ms, "
          f"improvement {improvement:.1f}x "
          f"[sha {fresh.get('git_sha', '?')}]")
    if dropped != 0:
        print(f"check_perf: FAIL — {dropped} messages dropped during "
              f"reconfiguration (zero-drop contract, docs/RECONFIG.md)")
        return 1
    if improvement < args.min_blackout_improvement:
        print(f"check_perf: FAIL — blackout improvement {improvement:.1f}x "
              f"below {args.min_blackout_improvement:g}x floor")
        return 1
    if args.baseline and Path(args.baseline).exists():
        try:
            base = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as e:
            sys.exit(f"check_perf: cannot read {args.baseline}: {e}")
        base_p99 = base.get("live_blackout_p99_ns")
        if isinstance(base_p99, (int, float)) and base_p99 > 0:
            growth = live_p99 / base_p99 - 1.0
            print(f"baseline live p99: {base_p99 / 1e6:.2f} ms "
                  f"[sha {base.get('git_sha', '?')}] — "
                  f"fresh is {growth * +100:+.0f}%")
            if growth > args.max_regress:
                print(f"check_perf: FAIL — live blackout p99 grew "
                      f"{growth * 100:.0f}% over baseline "
                      f"(> {args.max_regress * 100:.0f}% allowed)")
                return 1
    print(f"check_perf: OK — zero drops, blackout improvement "
          f"{improvement:.1f}x (floor {args.min_blackout_improvement:g}x)")
    return 0


def check_cache(args):
    try:
        fresh = json.loads(Path(args.fresh).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"check_perf: cannot read {args.fresh}: {e}")
    try:
        base = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"check_perf: cannot read {args.baseline}: {e}")
    hit_rate = fresh.get("hit_rate")
    hit_ns = fresh.get("cached_hit_ns_per_msg")
    speedup = fresh.get("cached_hit_speedup")
    for name, value in (("hit_rate", hit_rate),
                        ("cached_hit_ns_per_msg", hit_ns),
                        ("cached_hit_speedup", speedup)):
        if not isinstance(value, (int, float)):
            print(f"check_perf: FAIL — fresh file has no {name} field")
            return 1
    min_hit_rate = base.get("min_hit_rate", 0.0)
    max_hit_ns = base.get("max_cached_hit_ns", float("inf"))
    print(f"hit rate: {hit_rate * 100:.1f}% (floor {min_hit_rate * 100:.0f}%), "
          f"cached hit: {hit_ns:.0f} ns/msg (ceiling {max_hit_ns:g}), "
          f"speedup {speedup:.1f}x [sha {fresh.get('git_sha', '?')}]")
    if hit_rate < min_hit_rate:
        print(f"check_perf: FAIL — hit rate {hit_rate * 100:.1f}% at the gate "
              f"skew below the {min_hit_rate * 100:.0f}% floor "
              f"(cache admission/eviction regressed)")
        return 1
    if hit_ns > max_hit_ns:
        print(f"check_perf: FAIL — cached hit costs {hit_ns:.0f} ns/msg "
              f"(> {max_hit_ns:g} allowed)")
        return 1
    if speedup < args.min_cache_speedup:
        print(f"check_perf: FAIL — cached hit only {speedup:.1f}x faster than "
              f"the full chain (floor {args.min_cache_speedup:g}x)")
        return 1
    print(f"check_perf: OK — cache gate holds (hit rate, hit cost, "
          f"{speedup:.1f}x >= {args.min_cache_speedup:g}x speedup)")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("fresh", help="BENCH_exec.json from this build")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument("--max-regress", type=float, default=0.20,
                        help="allowed fractional throughput drop (0.20 = 20%%)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="require fresh burst_speedup >= this ratio")
    parser.add_argument("--max-allocs", type=float, default=None,
                        help="gate a BENCH_alloc.json: require allocs_per_msg "
                             "<= this bound (no baseline used)")
    parser.add_argument("--max-obs-overhead", type=float, default=None,
                        help="require fresh obs_overhead_frac (obs-on over "
                             "obs-off burst cost, minus one) <= this bound")
    parser.add_argument("--min-blackout-improvement", type=float, default=None,
                        help="gate a BENCH_reconfig.json: require "
                             "blackout_improvement >= this ratio and zero "
                             "drops; with --baseline also bound "
                             "live_blackout_p99_ns regression")
    parser.add_argument("--min-cache-speedup", type=float, default=None,
                        help="gate a BENCH_cache.json: require "
                             "cached_hit_speedup >= this ratio plus the "
                             "hit-rate floor and hit-cost ceiling from the "
                             "--baseline file")
    args = parser.parse_args()

    if args.min_blackout_improvement is not None:
        return check_reconfig(args)

    if args.min_cache_speedup is not None:
        return check_cache(args)

    if args.max_allocs is not None:
        try:
            data = json.loads(Path(args.fresh).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as e:
            sys.exit(f"check_perf: cannot read {args.fresh}: {e}")
        allocs = data.get("allocs_per_msg")
        if not isinstance(allocs, (int, float)):
            print("check_perf: FAIL — fresh file has no allocs_per_msg field")
            return 1
        legacy = data.get("legacy_allocs_per_msg")
        legacy_txt = f" (legacy path: {legacy:.2f})" if isinstance(
            legacy, (int, float)) else ""
        print(f"allocs/msg: {allocs:.4f}{legacy_txt} "
              f"[sha {data.get('git_sha', '?')}]")
        if allocs > args.max_allocs:
            print(f"check_perf: FAIL — {allocs:.4f} allocations/msg on the "
                  f"arena burst path (> {args.max_allocs:g} allowed)")
            return 1
        print(f"check_perf: OK — arena burst path allocates "
              f"{allocs:.4f}/msg (limit {args.max_allocs:g})")
        return 0

    base_data, base_ns = load(args.baseline)
    fresh_data, fresh_ns = load(args.fresh)

    base_mrps = 1e3 / base_ns   # messages per microsecond -> Mmsg/s at 1e3/ns
    fresh_mrps = 1e3 / fresh_ns
    # Throughput ratio; ns-per-msg is inversely proportional.
    drop = 1.0 - base_ns / fresh_ns
    print(f"baseline: {base_ns:.1f} ns/msg ({base_mrps:.2f} Mmsg/s) "
          f"[sha {base_data.get('git_sha', '?')}]")
    print(f"fresh:    {fresh_ns:.1f} ns/msg ({fresh_mrps:.2f} Mmsg/s) "
          f"[sha {fresh_data.get('git_sha', '?')}]")
    if drop > args.max_regress:
        print(f"check_perf: FAIL — obs-off compiled throughput regressed "
              f"{drop * 100:.1f}% (> {args.max_regress * 100:.0f}% allowed)")
        return 1
    if args.min_speedup is not None:
        speedup = fresh_data.get("burst_speedup")
        if not isinstance(speedup, (int, float)):
            print("check_perf: FAIL — fresh file has no burst_speedup field")
            return 1
        print(f"burst_speedup: {speedup:.2f}x (floor {args.min_speedup:.2f}x)")
        if speedup < args.min_speedup:
            print(f"check_perf: FAIL — burst speedup {speedup:.2f}x below "
                  f"{args.min_speedup:.2f}x floor")
            return 1
    if args.max_obs_overhead is not None:
        overhead = fresh_data.get("obs_overhead_frac")
        if not isinstance(overhead, (int, float)):
            print("check_perf: FAIL — fresh file has no obs_overhead_frac "
                  "field")
            return 1
        print(f"obs_overhead_frac: {overhead * 100:.1f}% "
              f"(limit {args.max_obs_overhead * 100:.0f}%)")
        if overhead > args.max_obs_overhead:
            print(f"check_perf: FAIL — telemetry-on burst overhead "
                  f"{overhead * 100:.1f}% exceeds "
                  f"{args.max_obs_overhead * 100:.0f}% bound")
            return 1
    verb = "regressed" if drop > 0 else "improved"
    print(f"check_perf: OK — throughput {verb} {abs(drop) * 100:.1f}% "
          f"(limit {args.max_regress * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
