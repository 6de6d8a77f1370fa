#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark binary: every workload, traced, 0.2 s each.

    python3 bench/e2e/smoke.py .bench_build/fmmfft_e2e

bench/e2e/CMakeLists.txt registers it as the ctest bench_e2e_smoke. It
fails on a malformed record, a failed call (a throw, a non-finite output,
an output, traced or not, that differs from the first one for its input),
an error above the workload's eps, or a trace whose layer spans cover less
than 95% of a call.
"""

import sys
import tempfile
from pathlib import Path

import run


def check(rec, spec):
    errs = list(run.problems(rec))
    for key, kind in (("schema", str), ("workload", str), ("attempted", (int, float)),
                      ("failed", (int, float)), ("eps", float), ("metrics", dict)):
        if not isinstance(rec.get(key), kind):
            errs.append(f"record field {key!r} missing or not {kind}")
    if rec.get("schema") != "fmmfft.e2e.v2":
        errs.append(f"schema {rec.get('schema')!r}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not isinstance(rec["metrics"].get(m["name"]), (int, float)):
            errs.append(f"metric {m['name']} missing or not a number")
    if rec["metrics"]["failed_frac"] != 0:
        errs.append(f"failed_frac {rec['metrics']['failed_frac']}")
    if not rec["metrics"]["trace.coverage"] >= 0.95:
        errs.append(f"trace.coverage {rec['metrics']['trace.coverage']:.3f} < 0.95")
    return errs


def main():
    binary = Path(sys.argv[1]).resolve()
    spec = run.spec()
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for w in spec["workloads"]:
            rec = run.run_workload(w["name"], 1, 0.2, Path(tmp) / "trace.json", binary,
                                   extra=("--min-samples", "5"))
            errs = check(rec, spec)
            print(f"{w['name']}: {'ok' if not errs else '; '.join(errs)}")
            failures += errs
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
