#!/usr/bin/env python3
"""Compare two checkouts, or one checkout with itself, on the end-to-end benchmark.

    python3 bench/e2e/compare.py --parent /path/to/parent --change .
    python3 bench/e2e/compare.py --self
    python3 bench/e2e/compare.py --self --seed 1000 --workloads fmm1d_n18

Each run is `python3 bench/e2e/run.py --workload W --seed S --seconds T
--trace 0` inside the checkout, a fresh process. Run i uses seed
--seed + i, so --seed picks a hold-out seed range that no development run
used. Bounds and metric directions come from this checkout's BENCHMARK.json.

Parent/change: --runs pairs per workload (default 10), alternating which
side runs first. One row per (workload, end-to-end metric) with each
side's median and quartiles, the change's wins (ties count for neither)
and a verdict:
  gain          the change wins at least 90% of the pairs and the medians
                differ by more than the parent's interquartile range
  unresolved    a side's IQR / median exceeds the bound, unless every
                change run reads better than every parent run
  regression    the change's median is worse than the parent's by more
                than the bound
  within bound  otherwise
Exit code 1 when any row is a regression.

--self: two sets of --runs runs of one checkout (default: this one), every
workload in the first set before the second. For every (workload, metric)
each set's IQR / median and the shift of the second median against the
first must stay within the bound, the rule under which a parent/change row
is neither unresolved nor a regression; '*' marks a spread at or above a
third of the bound. Exit code 1 when any pair is out of bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "bench/e2e/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise SystemExit(f"compare.py: {workload} seed {seed} failed in {checkout}")
    res = json.loads(r.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(v):
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / med


def worse_share(new, old, better):
    """How much worse `new` is than `old`, as a share of `old` (negative: better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(parent, change, metric):
    better, bound = metric["better"], metric["bound"]
    runs = len(parent)
    wins = sum(beats(c, p, better) for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    if wins >= 0.9 * runs and beats(c_med, p_med, better) and abs(c_med - p_med) > p_q3 - p_q1:
        return wins, "gain"
    separated = all(beats(c, p, better) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not separated:
        return wins, "unresolved"
    if worse_share(c_med, p_med, better) > bound:
        return wins, "regression"
    return wins, "within bound"


def fmt(v):
    q1, med, q3 = quartiles(v)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def compare_pairs(args, spec, workloads):
    bad = False
    print(f"{'workload':<20} {'metric':<18} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'wins':>5}  verdict")
    for w in workloads:
        parent, change = [], []
        for i in range(args.runs):
            seed = args.seed + i
            order = [("p", args.parent), ("c", args.change)]
            if i % 2:
                order.reverse()
            got = {side: run_once(path, w, seed, args.seconds) for side, path in order}
            parent.append(got["p"])
            change.append(got["c"])
        for m in spec["end_to_end"]:
            p = [r[m["name"]] for r in parent]
            c = [r[m["name"]] for r in change]
            wins, v = verdict(p, c, m)
            bad |= v == "regression"
            print(f"{w:<20} {m['name']:<18} {fmt(p):<30} {fmt(c):<30} "
                  f"{wins:>2}/{args.runs}  {v}")
        sys.stdout.flush()
    return bad


def compare_self(args, spec, workloads):
    sets = [{w: [run_once(args.self, w, args.seed + i, args.seconds) for i in range(args.runs)]
             for w in workloads} for _ in range(2)]
    bad = False
    print(f"{'workload':<20} {'metric':<18} {'bound':>6} {'set 1 median':>13} "
          f"{'spread':>8} {'set 2 median':>13} {'spread':>8} {'shift':>8}  ok")
    for w in workloads:
        for m in spec["end_to_end"]:
            a = [r[m["name"]] for r in sets[0][w]]
            b = [r[m["name"]] for r in sets[1][w]]
            sa, sb = spread(a), spread(b)
            shift = worse_share(statistics.median(b), statistics.median(a), m["better"])
            ok = shift <= m["bound"] and max(sa, sb) <= m["bound"]
            bad |= not ok
            mark = "*" if max(sa, sb) >= m["bound"] / 3 else " "
            print(f"{w:<20} {m['name']:<18} {m['bound']:>6.2f} {statistics.median(a):>13.5g} "
                  f"{sa:>8.4f} {statistics.median(b):>13.5g} {sb:>8.4f} {shift:>+8.4f}  "
                  f"{'yes' if ok else 'NO'}{mark}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seed": args.seed, "runs": args.runs, "seconds": args.seconds,
                       "sets": sets}, f, indent=1)
    return bad


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--self", nargs="?", const=str(ROOT),
                    help="two sets of runs of one checkout (default: this one)")
    ap.add_argument("--runs", type=int, default=10, help="pairs, or runs per set (default 10)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run (default 1)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(names),
                    help="comma-separated subset (default: all)")
    ap.add_argument("--json", help="--self: write every run's metrics here")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(names)
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)}")
    if args.self is not None:
        return 1 if compare_self(args, spec, workloads) else 0
    if not (args.parent and args.change):
        ap.error("give --parent and --change, or --self")
    return 1 if compare_pairs(args, spec, workloads) else 0


if __name__ == "__main__":
    sys.exit(main())
