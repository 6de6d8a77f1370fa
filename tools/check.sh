#!/usr/bin/env bash
# Tier-1 gate: configure + build (warnings surfaced), ctest under an outer
# timeout with the runtime health watchdog armed (a hung test trips the
# in-process watchdog and leaves a *.postmortem.json next to the other
# artifacts), a smoke test
# that the observability exporters produce loadable JSON, a traffic-ledger
# smoke test (measured bytes must match the §5 model exactly, including the
# A2A payload), a benchmark regression check against the committed
# BENCH_fmmfft.json baseline (including the bytes-moved gate), and a
# native-throughput check against BENCH_native.json (wall times
# report-only; schema/coverage/bytes failures are hard).
#
#   tools/check.sh [build-dir]     (default: build)
#
# Set CHECK_ARTIFACTS_DIR to keep the traffic report and roofline
# calibration JSON (CI uploads them as workflow artifacts).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD=${1:-build}

echo "== configure =="
cmake -B "$BUILD" -S . -DCMAKE_CXX_FLAGS="-Wall -Wextra" >/dev/null

echo "== build =="
BUILD_LOG=$(mktemp)
trap 'rm -f "$BUILD_LOG"' EXIT
cmake --build "$BUILD" -j 2>&1 | tee "$BUILD_LOG" | grep -E "error|warning" || true
if grep -qE "(error|Error)" "$BUILD_LOG"; then
  echo "BUILD FAILED"
  exit 1
fi
WARNINGS=$(grep -c "warning" "$BUILD_LOG" || true)
echo "build OK (${WARNINGS} warnings)"

echo "== ctest (watchdog-armed) =="
# The suite runs with the runtime health layer armed: a test that stops
# making progress trips the in-process watchdog after FMMFFT_WATCHDOG_MS
# and writes a postmortem dump (stuck task, stage/device, blocking chain)
# into the artifacts dir, while the outer `timeout` guarantees CI itself
# never wedges. CTEST_TIMEOUT caps the whole suite, not one test.
CTEST_TIMEOUT=${CTEST_TIMEOUT:-1800}
POSTMORTEM_DIR=${CHECK_ARTIFACTS_DIR:-$BUILD}
mkdir -p "$POSTMORTEM_DIR"
FMMFFT_WATCHDOG_MS=${FMMFFT_WATCHDOG_MS:-60000} \
  FMMFFT_POSTMORTEM="$POSTMORTEM_DIR/ctest.postmortem.json" \
  timeout "$CTEST_TIMEOUT" \
  ctest --test-dir "$BUILD" -j "$(nproc)" --output-on-failure | tail -3

echo "== e2e benchmark smoke test =="
# The native end-to-end benchmark (bench/e2e) configured standalone, the way
# bench/e2e/run.py builds it, into the build tree. Its smoke test checks the
# benchmark's determinism, accuracy and trace-coverage assertions; it runs
# alone, after the parallel suite, so its 15 s timeout is not shared with
# the tier-1 tests.
if ! { cmake -S bench/e2e -B "$BUILD/e2e" && \
       cmake --build "$BUILD/e2e" --target fmmfft_e2e -j; } >"$BUILD_LOG" 2>&1; then
  cat "$BUILD_LOG"
  echo "E2E BUILD FAILED"
  exit 1
fi
ctest --test-dir "$BUILD/e2e" -R bench_e2e_smoke --output-on-failure | tail -3

echo "== trace smoke test =="
TRACE=$(mktemp --suffix=.json)
METRICS=$(mktemp --suffix=.json)
LEDGER=$(mktemp --suffix=.json)
trap 'rm -f "$BUILD_LOG" "$TRACE" "$METRICS" "$LEDGER"' EXIT
# Explicit plan with L > B so every FMM stage (including the per-level
# M2M/M2L/L2L) appears in the trace. All three at-exit dumps are armed from
# the environment.
FMMFFT_TRACE="$TRACE" FMMFFT_METRICS="$METRICS" FMMFFT_TRAFFIC="$LEDGER" FMMFFT_PRECISION=fp64 \
  "$BUILD/examples/fmmfft_cli" --log2n 14 --devices 2 --p 64 --ml 8 --b 2 --q 18 >/dev/null

for f in "$TRACE" "$METRICS" "$LEDGER"; do
  [ -s "$f" ] || { echo "SMOKE FAILED: $f is empty"; exit 1; }
done
if command -v python3 >/dev/null; then
  python3 - "$TRACE" "$METRICS" "$LEDGER" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
metrics = json.load(open(sys.argv[2]))
ledger = json.load(open(sys.argv[3]))
names = {e["name"] for e in trace}
need = {"S2M", "M2M", "S2T", "M2L", "M2L-B", "REDUCE", "L2L", "L2T",
        "2DFFT-P", "2DFFT-M", "POST", "xfer:A2A-2D", "xfer:COMM-S"}
missing = need - names
assert not missing, f"trace missing spans: {missing}"
assert metrics["counters"]["fmm.flops"] > 0
assert ledger["schema"] == "fmmfft.traffic.v1", ledger.get("schema")
fmm = [s for n, s in ledger["scopes"].items() if n.startswith("fmm.")]
assert fmm, "traffic JSON has no fmm.* scopes"
assert sum(s["bytes_read"] + s["bytes_written"] for s in fmm) > 0, "fmm.* moved no bytes"
assert sum(s["flops"] for s in fmm) > 0, "fmm.* did no flops"
print(f"trace OK: {len(trace)} events, {len(metrics['counters'])} counters, "
      f"{len(ledger['scopes'])} traffic scopes")
EOF
else
  echo "python3 not found; skipped JSON validation (files are non-empty)"
fi

echo "== traffic ledger smoke test =="
TRAFFIC=$(mktemp --suffix=.json)
trap 'rm -f "$BUILD_LOG" "$TRACE" "$METRICS" "$LEDGER" "$TRAFFIC"' EXIT
TRAFFIC_LOG=$(mktemp)
trap 'rm -f "$BUILD_LOG" "$TRACE" "$METRICS" "$LEDGER" "$TRAFFIC" "$TRAFFIC_LOG"' EXIT
# Pinned fp64: this is the shell-width reference the mixed smoke below
# halves against, and it must stay fp64 even on CI's mixed-precision leg.
FMMFFT_PRECISION=fp64 \
  "$BUILD/examples/fmmfft_cli" --log2n 14 --devices 2 --p 64 --ml 8 --b 2 --q 18 \
  --traffic "$TRAFFIC" | tee "$TRAFFIC_LOG" | grep -E "traffic check" || true
grep -q "traffic check: OK" "$TRAFFIC_LOG" || {
  echo "TRAFFIC SMOKE FAILED: measured bytes deviate from the §5 model"
  cat "$TRAFFIC_LOG"
  exit 1
}
if command -v python3 >/dev/null; then
  python3 - "$TRAFFIC" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
assert t["schema"] == "fmmfft.traffic.v1", t.get("schema")
scopes = t["scopes"]
need = {"fft", "post", "fmm.S2M", "fmm.M2M", "fmm.S2T", "fmm.M2L", "fmm.M2L-B",
        "fmm.REDUCE", "fmm.L2L", "fmm.L2T", "a2a.pack", "a2a.unpack",
        "comm.A2A-2D", "comm.COMM-S", "comm.COMM-MB"}
missing = need - scopes.keys()
assert not missing, f"traffic JSON missing scopes: {missing}"
# The headline exact check: A2A fabric payload == (G-1)/G * N * 16 bytes.
n, g = 1 << 14, 2
a2a = scopes["comm.A2A-2D"]["comm_bytes"]
model = (g - 1) / g * n * 2 * 8
assert a2a == model, f"A2A payload {a2a} != model {model}"
# Fused all-to-all ratchet: pack is the gather's read side, unpack the
# scatter's write side — exactly one read + one write per element. The
# staged path's extra copies (4x) would double these; fail if they return.
n16 = n * 2 * 8
pk, up = scopes["a2a.pack"], scopes["a2a.unpack"]
assert pk["bytes_read"] == n16 and pk["bytes_written"] == 0, pk
assert up["bytes_written"] == n16 and up["bytes_read"] == 0, up
assert t["total"]["bytes_read"] > 0 and t["total"]["flops"] > 0
print(f"traffic OK: {len(scopes)} scopes, A2A payload matches model exactly, "
      f"fused pack/unpack at 2x payload")
EOF
else
  echo "python3 not found; skipped traffic JSON validation (file is non-empty)"
  [ -s "$TRAFFIC" ] || { echo "TRAFFIC SMOKE FAILED: $TRAFFIC is empty"; exit 1; }
fi
if [ -n "${CHECK_ARTIFACTS_DIR:-}" ]; then
  mkdir -p "$CHECK_ARTIFACTS_DIR"
  cp "$TRAFFIC" "$CHECK_ARTIFACTS_DIR/traffic.json"
  cp "$TRAFFIC_LOG" "$CHECK_ARTIFACTS_DIR/traffic_report.txt"
fi

echo "== mixed-precision traffic smoke test =="
# Same shape under FMMFFT_PRECISION=mixed: the traffic-vs-model check must
# stay exact at the fp32 translation width, the FMM comm scopes must carry
# the ".f32" per-precision keys at exactly half the fp64 payload, and the
# shell-width all-to-all must be untouched.
TRAFFIC_MX=$(mktemp --suffix=.json)
TRAFFIC_MX_LOG=$(mktemp)
trap 'rm -f "$BUILD_LOG" "$TRACE" "$METRICS" "$LEDGER" "$TRAFFIC" "$TRAFFIC_LOG" "$TRAFFIC_MX" "$TRAFFIC_MX_LOG"' EXIT
FMMFFT_PRECISION=mixed \
  "$BUILD/examples/fmmfft_cli" --log2n 14 --devices 2 --p 64 --ml 8 --b 2 --q 18 \
  --traffic "$TRAFFIC_MX" | tee "$TRAFFIC_MX_LOG" | grep -E "traffic check" || true
grep -q "traffic check: OK" "$TRAFFIC_MX_LOG" || {
  echo "MIXED TRAFFIC SMOKE FAILED: measured bytes deviate from the §5 model"
  cat "$TRAFFIC_MX_LOG"
  exit 1
}
if command -v python3 >/dev/null; then
  python3 - "$TRAFFIC" "$TRAFFIC_MX" <<'EOF'
import json, sys
fp64 = json.load(open(sys.argv[1]))["scopes"]
mx = json.load(open(sys.argv[2]))["scopes"]
need = {"comm.COMM-S.f32", "comm.COMM-MB.f32", "fmm.S2M.f32", "fmm.M2L.f32"}
missing = need - mx.keys()
assert not missing, f"mixed traffic JSON missing per-precision scopes: {missing}"
comm64 = sum(t["comm_bytes"] for n, t in fp64.items()
             if n.startswith("comm.COMM-"))
comm32 = sum(t["comm_bytes"] for n, t in mx.items()
             if n.startswith("comm.COMM-"))
assert comm32 * 2 == comm64, f"mixed FMM comm {comm32} != half of fp64 {comm64}"
assert mx["comm.A2A-2D"]["comm_bytes"] == fp64["comm.A2A-2D"]["comm_bytes"]
print(f"mixed traffic OK: FMM comm halved exactly ({comm64:.0f} -> {comm32:.0f} "
      f"bytes), A2A at shell width")
EOF
else
  echo "python3 not found; skipped mixed traffic validation (file is non-empty)"
  [ -s "$TRAFFIC_MX" ] || { echo "MIXED TRAFFIC SMOKE FAILED: $TRAFFIC_MX is empty"; exit 1; }
fi

echo "== 3D decomposition traffic smoke test =="
# Pencil vs slab on the same 32x32x16 transform, 4 devices: both must pass
# the exact ledger-vs-model check, and the wire payloads must match the
# closed forms — slab ships (G-1)/G of the array once; the pencil's two
# sub-communicator hops ship (pc-1)/pc then (pr-1)/pr of it. The per-device
# scaling ((pc-1)·N/(G·pc) per row hop vs (G-1)·N/G² for the slab) is what
# makes the pencil's messages fewer and larger.
TRAFFIC_3DP=$(mktemp --suffix=.json)
TRAFFIC_3DS=$(mktemp --suffix=.json)
TRAFFIC_3D_LOG=$(mktemp)
trap 'rm -f "$BUILD_LOG" "$TRACE" "$METRICS" "$LEDGER" "$TRAFFIC" "$TRAFFIC_LOG" "$TRAFFIC_MX" "$TRAFFIC_MX_LOG" "$TRAFFIC_3DP" "$TRAFFIC_3DS" "$TRAFFIC_3D_LOG"' EXIT
FMMFFT_PRECISION=fp64 \
  "$BUILD/examples/fmmfft_cli" --fft3d 32x32x16 --devices 4 --decomp pencil --grid 2x2 \
  --traffic "$TRAFFIC_3DP" | tee "$TRAFFIC_3D_LOG" | grep -E "traffic check|decomp" || true
grep -q "traffic check: OK" "$TRAFFIC_3D_LOG" || {
  echo "3D PENCIL TRAFFIC SMOKE FAILED"; cat "$TRAFFIC_3D_LOG"; exit 1
}
FMMFFT_PRECISION=fp64 \
  "$BUILD/examples/fmmfft_cli" --fft3d 32x32x16 --devices 4 --decomp slab \
  --traffic "$TRAFFIC_3DS" | tee "$TRAFFIC_3D_LOG" | grep -E "traffic check|decomp" || true
grep -q "traffic check: OK" "$TRAFFIC_3D_LOG" || {
  echo "3D SLAB TRAFFIC SMOKE FAILED"; cat "$TRAFFIC_3D_LOG"; exit 1
}
if command -v python3 >/dev/null; then
  python3 - "$TRAFFIC_3DP" "$TRAFFIC_3DS" <<'EOF'
import json, sys
pencil = json.load(open(sys.argv[1]))["scopes"]
slab = json.load(open(sys.argv[2]))["scopes"]
n, g, pr, pc, eb = 32 * 32 * 16, 4, 2, 2, 16
row = pencil["comm.A2A-ROW"]["comm_bytes"]
col = pencil["comm.A2A-COL"]["comm_bytes"]
one = slab["comm.A2A-3D"]["comm_bytes"]
assert row == (pc - 1) / pc * n * eb, (row, "row")
assert col == (pr - 1) / pr * n * eb, (col, "col")
assert one == (g - 1) / g * n * eb, (one, "slab")
assert "comm.A2A-ROW" not in slab and "comm.A2A-3D" not in pencil
# Per-device, per-phase scaling: each row hop ships (pc-1)·N/(G·pc) elements
# in pc-1 messages of N/(G·pc) — larger than the slab's G-1 messages of
# N/G² whenever pc < G.
assert abs(row / g - (pc - 1) * n / (g * pc) * eb) < 1e-9
assert abs(one / g - (g - 1) * n / (g * g) * eb) < 1e-9
msg_pencil, msg_slab = n / (g * pc) * eb, n / (g * g) * eb
assert msg_pencil > msg_slab
print(f"3D traffic OK: slab {one:.0f}B one hop; pencil {row:.0f}+{col:.0f}B over "
      f"two hops, per-message {msg_pencil:.0f}B vs slab {msg_slab:.0f}B")
EOF
else
  echo "python3 not found; skipped 3D traffic validation (files are non-empty)"
  [ -s "$TRAFFIC_3DP" ] && [ -s "$TRAFFIC_3DS" ] || { echo "3D TRAFFIC SMOKE FAILED: empty"; exit 1; }
fi

echo "== bench regression gate =="
FRESH=$(mktemp --suffix=.json)
trap 'rm -f "$BUILD_LOG" "$TRACE" "$METRICS" "$LEDGER" "$FRESH"' EXIT
"$BUILD/bench/bench_runner" "$FRESH" >/dev/null
if command -v python3 >/dev/null; then
  python3 tools/bench_compare.py BENCH_fmmfft.json "$FRESH" --tolerance 0.15
else
  echo "python3 not found; skipped bench comparison (runner output is non-empty)"
  [ -s "$FRESH" ] || { echo "BENCH FAILED: $FRESH is empty"; exit 1; }
fi

echo "== native bench (wall times report-only) =="
NATIVE=$(mktemp --suffix=.json)
trap 'rm -f "$BUILD_LOG" "$TRACE" "$METRICS" "$LEDGER" "$FRESH" "$NATIVE"' EXIT
"$BUILD/bench/bench_native" "$NATIVE" >/dev/null
if [ -n "${CHECK_ARTIFACTS_DIR:-}" ]; then
  mkdir -p "$CHECK_ARTIFACTS_DIR"
  # The fresh native JSON carries the machine's STREAM/FMA calibration.
  cp "$NATIVE" "$CHECK_ARTIFACTS_DIR/bench_native_calibration.json"
fi
if command -v python3 >/dev/null; then
  python3 tools/bench_compare.py BENCH_native.json "$NATIVE"
else
  echo "python3 not found; skipped native comparison (runner output is non-empty)"
  [ -s "$NATIVE" ] || { echo "NATIVE BENCH FAILED: $NATIVE is empty"; exit 1; }
fi

echo "== all checks passed =="
