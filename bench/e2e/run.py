#!/usr/bin/env python3
"""Native end-to-end benchmark of the FMM-FFT library: the one command.

    python3 bench/e2e/run.py                      # all six workloads, untraced
    python3 bench/e2e/run.py --trace 1            # all six, traced (per-layer)
    python3 bench/e2e/run.py --workload fmm1d_n18 --seed 3 --seconds 10 --trace 0

It builds bench/e2e (CMake, into .bench_build/ at the repository root), runs
each workload in a fresh process with every FMMFFT_* variable cleared and
FMMFFT_NUM_THREADS pinned to min(4, nproc), prints every metric by name with
its unit, and writes the records to .bench_out/. The metric names, units and
bounds come from BENCHMARK.json at the repository root.

With --workload, the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics untraced,
the per-layer metrics traced. The exit code is non-zero when a build or a
run fails, or when an output is wrong.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "fmmfft_e2e"
RUN_TIMEOUT_S = 170


def threads():
    return min(4, len(os.sched_getaffinity(0)))


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure and build the benchmark (about a second when up to date).

    CMake's output goes to stderr only when a step fails."""
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "-j", str(threads()), "--target", "fmmfft_e2e"]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            raise SystemExit(f"run.py: build failed: {' '.join(cmd)}")


def bench_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("FMMFFT_")}
    env["FMMFFT_NUM_THREADS"] = str(threads())
    return env


def run_workload(name, seed, seconds, trace_file=None, binary=BINARY, extra=()):
    """One workload in a fresh process; returns the binary's JSON record."""
    cmd = [str(binary), "--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    cmd += list(extra)
    r = subprocess.run(cmd, env=bench_env(), stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    if r.returncode != 0 or not r.stdout.strip():
        raise SystemExit(f"run.py: {name} exited with {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def problems(rec):
    """Why the record's outputs are wrong; empty when they are right."""
    m = rec["metrics"]
    out = []
    if rec["failed"]:
        out.append(f"{rec['failed']} failed calls {rec['failures']}")
    if not m["rel_l2_err"] <= rec["eps"]:
        out.append(f"rel_l2_err {m['rel_l2_err']:.3g} above eps {rec['eps']:.3g}")
    return out


def metric_lines(rec, metrics):
    return [f"  {m['name']:<24} {rec['metrics'][m['name']]:>16.6g} {m['unit']}"
            for m in metrics]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="one workload (default: all, each in its own process)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per workload (default: BENCHMARK.json run_seconds "
                         "untraced, 3 traced)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    args = ap.parse_args()
    traced = args.trace == 1
    s = spec()
    names = [w["name"] for w in s["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"run.py: unknown workload {args.workload}; choose from {names}")
    seconds = args.seconds or (3 if traced else s["run_seconds"])
    build()
    OUT.mkdir(exist_ok=True)

    def run_one(name):
        return run_workload(name, args.seed, seconds,
                            OUT / f"{name}.trace.json" if traced else None)

    if args.workload is not None:
        rec = run_one(args.workload)
        metrics = s["per_layer"] if traced else s["end_to_end"]
        bad = problems(rec)
        print(f"{rec['workload']} (seed {args.seed}, {seconds:g} s, {rec['threads']} threads)")
        print("\n".join(metric_lines(rec, metrics)))
        for b in bad:
            print(f"  INCORRECT: {b}")
        print(json.dumps({
            "correct": not bad,
            "attempted": int(rec["attempted"]),
            "failed": int(rec["failed"]),
            "metrics": {m["name"]: {"value": rec["metrics"][m["name"]], "unit": m["unit"]}
                        for m in metrics},
        }))
        return 0 if not bad else 1

    records, failures = {}, []
    for name in names:
        rec = run_one(name)
        records[name] = rec
        print(f"{name} (seed {args.seed}, {seconds:g} s, {rec['threads']} threads, "
              f"{int(rec['attempted'])} calls)")
        # Untraced records carry the diagnostics among the per-layer metrics.
        print("\n".join(metric_lines(rec, [m for m in s["end_to_end"] + s["per_layer"]
                                           if m["name"] in rec["metrics"]])))
        for b in problems(rec):
            failures.append(f"{name}: {b}")
            print(f"  INCORRECT: {b}")
        sys.stdout.flush()

    # Report-only: the paper's headline ratio natively, beside its §5
    # simulated value for the same (N, G, plan) on 4×P100 NVLink.
    base, fmm = records["fft1d_3a2a_n18_g4"], records["dfmm1d_n18_g4"]
    native = base["metrics"]["latency_ms_p50"] / fmm["metrics"]["latency_ms_p50"]
    print("derived (not gated)")
    print(f"  {'speedup_native':<24} {native:>16.6g} fft1d_3a2a_n18_g4 p50 / dfmm1d_n18_g4 p50")
    print(f"  {'speedup_model_p100':<24} {fmm['model_p100_speedup']:>16.6g} "
          f"baseline1d_schedule / fmmfft_schedule on p100_nvlink(4)")

    path = OUT / ("results_trace.json" if traced else "results.json")
    with open(path, "w") as f:
        json.dump({"seed": args.seed, "seconds": seconds, "traced": traced,
                   "speedup_native": native,
                   "speedup_model_p100": fmm["model_p100_speedup"],
                   "records": records}, f, indent=1)
    print(f"wrote {path.relative_to(ROOT)}")
    for b in failures:
        print(f"INCORRECT: {b}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
