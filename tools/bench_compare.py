#!/usr/bin/env python3
"""Diff a fresh benchmark output against the committed baseline.

    tools/bench_compare.py BENCH_fmmfft.json fresh.json [--tolerance 0.15]
    tools/bench_compare.py BENCH_native.json fresh_native.json

Two tracks, selected by the baseline's schema field:

* fmmfft.bench.v1 (simulated): fails (exit 1) when any config's
  fmmfft/baseline makespan regressed by more than the tolerance, when a
  baseline config disappeared, or on a schema mismatch. The simulated
  timings are deterministic, so the tolerance only absorbs intentional
  small model recalibrations; refresh the baseline for anything larger:

      build/bench/bench_runner BENCH_fmmfft.json

* fmmfft.bench.native.v1 (wall clock): throughput deltas are REPORT-ONLY —
  native numbers depend on the host, so a slow machine must not fail CI.
  Hard failures are reserved for correctness: schema mismatch, a baseline
  bench missing from the fresh run, or a non-positive/non-finite metric.
  EXCEPTION: rows with metric "bytes" are the traffic ledger's measured
  algorithmic bytes moved — deterministic, machine-independent — and are
  hard-gated: a fresh run moving >10% more bytes than the baseline fails.
  Refresh with:

      build/bench/bench_native BENCH_native.json

Both tracks gate bytes moved: the simulated track's per-config "traffic"
object (total bytes + comm bytes from the scheduled ops' exact counts) and
the native track's "bytes" rows fail on a >10% increase, so a PR cannot
silently regress memory traffic even when the makespan stays flat.
"""

import argparse
import json
import math
import sys

SCHEMA = "fmmfft.bench.v1"
SCHEMA_NATIVE = "fmmfft.bench.native.v1"
# Per-config scalar metrics gated on relative increase (higher = worse).
GATED = ["fmmfft_seconds", "baseline_seconds"]
# Per-config traffic sub-object metrics gated on relative byte increase.
GATED_TRAFFIC = ["bytes", "comm_bytes"]
# Bytes are algorithmic (deterministic), so the gate is tight and fixed —
# independent of the wall-clock --tolerance.
TRAFFIC_TOLERANCE = 0.10
# Sanity floor: the analyzer's critical path must stay a complete account.
MIN_COVERAGE = 0.95


def load_raw(path, schema):
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") != schema:
        sys.exit(f"{path}: schema {data.get('schema')!r} != expected {schema!r}")
    return data


def load(path):
    return {c["name"]: c for c in load_raw(path, SCHEMA)["configs"]}


def compare_native(baseline_path, fresh_path):
    base = {b["name"]: b for b in load_raw(baseline_path, SCHEMA_NATIVE)["benches"]}
    fresh = {b["name"]: b for b in load_raw(fresh_path, SCHEMA_NATIVE)["benches"]}

    failures = []
    width = max((len(n) for n in base), default=10)
    print(f"{'bench':<{width}}  {'metric':<14} {'baseline':>10} {'fresh':>10} {'delta':>8}")
    for name, b in base.items():
        f = fresh.get(name)
        if f is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        if f["metric"] != b["metric"]:
            failures.append(f"{name}: metric {f['metric']!r} != baseline {b['metric']!r}")
            continue
        if not (math.isfinite(f["value"]) and f["value"] > 0):
            failures.append(f"{name}: non-positive or non-finite value {f['value']!r}")
            continue
        # seconds: lower is better; every throughput metric: higher is better.
        better_low = b["metric"] in ("seconds", "bytes")
        rel = (f["value"] - b["value"]) / b["value"] if b["value"] > 0 else 0.0
        shown = rel if not better_low else -rel
        print(f"{name:<{width}}  {b['metric']:<14} {b['value']:>10.3f} {f['value']:>10.3f} "
              f"{shown:>+7.1%}")
        # Ledger bytes are deterministic, so unlike wall rows they hard-gate.
        if b["metric"] == "bytes" and rel > TRAFFIC_TOLERANCE:
            failures.append(
                f"{name}: bytes moved regressed {rel:+.1%} "
                f"({b['value']:.0f} -> {f['value']:.0f}, gate {TRAFFIC_TOLERANCE:.0%})")
    for name in fresh.keys() - base.keys():
        print(f"note: new bench {name} (not in baseline; commit a refresh to track it)")

    print_bytes_trend(base, fresh)
    print_precision_split(base, fresh)

    if failures:
        print(f"\nNATIVE BENCH FAILED ({len(failures)} failure(s)):")
        for msg in failures:
            print(f"  {msg}")
        sys.exit(1)
    print(f"\nnative bench OK ({len(base)} benches present; wall deltas report-only)")


def print_bytes_trend(base, fresh):
    """Bytes-moved trend per traffic key (metric "bytes" rows).

    These rows are the memory-traffic ledger's deterministic counts, so the
    trend is a property of the code, not the host. The +10% hard gate is
    relative to the *committed* baseline: when a key decreases, committing
    the fresh run ratchets the gate down to the improved level, making the
    reduction permanent.
    """
    keys = sorted(n for n, b in base.items() if b["metric"] == "bytes")
    if not keys:
        return
    print("\nbytes-moved trend (deterministic ledger rows, vs committed baseline):")
    improved = []
    for name in keys:
        b, f = base[name], fresh.get(name)
        if f is None or f["metric"] != "bytes":
            continue
        rel = (f["value"] - b["value"]) / b["value"] if b["value"] > 0 else 0.0
        if rel < -0.005:
            marker = "improved"
            improved.append(name)
        elif rel > TRAFFIC_TOLERANCE:
            marker = "REGRESSED"
        else:
            marker = "flat"
        print(f"  {name:<28} {b['value']:>14.0f} -> {f['value']:>14.0f}  {rel:+7.1%}  {marker}")
    if improved:
        print(f"  hint: bytes decreased on {', '.join(improved)}; commit the fresh run "
              f"as BENCH_native.json to ratchet the {TRAFFIC_TOLERANCE:.0%} gate down.")


def print_precision_split(base, fresh):
    """Per-precision comm-byte split for the mixed-precision runs.

    Every `<stem>_comm_f32` / `<stem>_comm_f64` pair of "bytes" rows (the
    fp32 FMM halo/allgather payload vs the shell-width all-to-all under
    FMMFFT_PRECISION=mixed) yields one row with the fp32 share of the comm
    volume. Report-only and graceful: stems missing a key on either side —
    e.g. a baseline predating the mixed rows — are simply skipped; the
    hard gates above already police the individual rows.
    """
    def stems(src):
        return {n[: -len("_comm_f32")] for n in src
                if n.endswith("_comm_f32") and n[: -len("_comm_f32")] + "_comm_f64" in src}

    common = sorted(stems(base) | stems(fresh))
    if not common:
        return
    print("\nper-precision comm split (mixed runs, report-only):")
    for stem in common:
        row = [stem]
        for src, tag in ((base, "baseline"), (fresh, "fresh")):
            lo = src.get(stem + "_comm_f32")
            hi = src.get(stem + "_comm_f64")
            if lo is None or hi is None:
                row.append(f"{tag} n/a")
                continue
            total = lo["value"] + hi["value"]
            share = lo["value"] / total if total > 0 else 0.0
            row.append(f"{tag} f32 {lo['value']:.0f}B / f64 {hi['value']:.0f}B "
                       f"({share:.0%} narrow)")
        print("  " + "  ".join(row))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="max allowed relative increase (default 0.15)")
    args = ap.parse_args()

    # Dispatch on the baseline's schema so one entry point serves both the
    # simulated gate and the native report-only track.
    with open(args.baseline) as f:
        schema = json.load(f).get("schema")
    if schema == SCHEMA_NATIVE:
        compare_native(args.baseline, args.fresh)
        return

    base = load(args.baseline)
    fresh = load(args.fresh)

    failures = []
    rows = []
    for name, b in base.items():
        f = fresh.get(name)
        if f is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        for metric in GATED:
            old, new = b[metric], f[metric]
            rel = (new - old) / old if old > 0 else 0.0
            rows.append((name, metric, old, new, rel))
            if rel > args.tolerance:
                failures.append(
                    f"{name}: {metric} regressed {rel:+.1%} "
                    f"({old * 1e3:.3f} ms -> {new * 1e3:.3f} ms)")
        cov = f.get("critical", {}).get("coverage", 0.0)
        if cov < MIN_COVERAGE:
            failures.append(f"{name}: critical-path coverage {cov:.3f} < {MIN_COVERAGE}")
        # Bytes-moved gate: the traffic object is exact op accounting, so any
        # increase beyond the fixed tolerance is a real algorithmic change.
        bt, ft = b.get("traffic"), f.get("traffic")
        if bt is not None:
            if ft is None:
                failures.append(f"{name}: traffic object missing from fresh run")
            else:
                for metric in GATED_TRAFFIC:
                    old, new = bt[metric], ft[metric]
                    rel = (new - old) / old if old > 0 else 0.0
                    rows.append((name, "traffic." + metric, old / 1e9, new / 1e9, rel))
                    if rel > TRAFFIC_TOLERANCE:
                        failures.append(
                            f"{name}: traffic.{metric} regressed {rel:+.1%} "
                            f"({old:.0f} -> {new:.0f} bytes, "
                            f"gate {TRAFFIC_TOLERANCE:.0%})")

    for name in fresh.keys() - base.keys():
        print(f"note: new config {name} (not in baseline; commit a refresh to gate it)")

    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'config':<{width}}  {'metric':<17} {'baseline':>12} {'fresh':>12} {'delta':>8}")
    for name, metric, old, new, rel in rows:
        if metric.startswith("traffic."):
            print(f"{name:<{width}}  {metric:<17} {old:>10.3f}GB {new:>10.3f}GB "
                  f"{rel:>+7.1%}")
        else:
            print(f"{name:<{width}}  {metric:<17} {old * 1e3:>10.3f}ms {new * 1e3:>10.3f}ms "
                  f"{rel:>+7.1%}")

    if failures:
        print(f"\nREGRESSION ({len(failures)} failure(s), tolerance {args.tolerance:.0%}):")
        for msg in failures:
            print(f"  {msg}")
        sys.exit(1)
    print(f"\nbench compare OK ({len(base)} configs within {args.tolerance:.0%})")


if __name__ == "__main__":
    main()
