// Memory-traffic ledger: per-scope byte and flop accounting for the real
// host execution, the measurement side of ROADMAP item 4 ("count words
// moved per flop, then stop moving them").
//
// The ledger records *algorithmic* (compulsory) traffic — operand bytes a
// kernel must read and results it must write, counted from problem shapes
// at the instrumented call sites — not hardware cache-line traffic. That
// makes the totals deterministic: independent of thread count, chunking and
// executor mode, so they can be hand-counted in tests, diffed against the
// §5 model predictions (obs/compare.hpp), and hard-gated in CI
// (tools/bench_compare.py) even though wall times cannot. Cache reuse shows
// up as the gap between these bytes and the achieved/calibrated bandwidth,
// which is exactly the number an optimisation wants to move.
//
// Discipline mirrors obs.hpp's tracer/metrics hooks: everything is compiled
// in but each disabled hook costs one relaxed atomic load and a branch, with
// no allocation. Enable programmatically (obs::enable_traffic) or with
// FMMFFT_TRAFFIC=<path>, which arms an at-exit JSON dump of the ledger.
//
// Scope-name conventions (reporting relies on them):
//   fmm.S2M, fmm.M2M, ...   FMM stage tensor traffic (level suffixes folded)
//   fft                     Stockham / Bluestein passes over the data
//   transpose               permute_mp / transpose_blocked
//   a2a.pack, a2a.unpack    fused all-to-all: pack = the strided gather's
//                           reads, unpack = the scatter's writes (one read
//                           + one write per element, no staging copies)
//   a2a.row.pack/.unpack    the pencil decomposition's row-phase messages
//   a2a.col.pack/.unpack    ... and column-phase messages, same discipline
//                           (each phase reads + writes every element once,
//                           so a two-phase exchange moves 2× the one-phase
//                           ledger bytes by construction)
//   comm.<tag>              fabric payload bytes (comm_bytes, not rd/wr)
//   post                    §4.9 post-processing sweep
//   halo.cyclic             single-address-space halo copies (G = 1)
//   blas.*                  AUX: GEMM/GEMV operand traffic. Excluded from
//                           the primary total — the FMM stages already count
//                           the same tensors, blas.* is the per-kernel view.
//   exec.<stage>            AUX: task-graph busy seconds per stage (async
//                           executor); carries seconds, not bytes.
// Driver-level input loads (memcpy of the caller's input onto a device)
// and operator-table reads (twiddles, chirp, S2T/M2L tables, §5.3 rule) are
// deliberately not counted.
#pragma once

#include <atomic>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace fmmfft::obs {

namespace detail {
// Defined in traffic.cpp; referencing it from the hook macros pulls the
// environment initializer into any binary using them (same self-
// registration trick as obs.cpp).
extern std::atomic<bool> g_traffic_enabled;
}  // namespace detail

inline bool traffic_enabled() {
  return detail::g_traffic_enabled.load(std::memory_order_relaxed);
}
void enable_traffic(bool on = true);

/// Number of butterfly stages of the pow2 Stockham schedule for n = 2^k
/// (one radix-2 stage when k is odd, radix-4 otherwise). Shared between the
/// FFT's traffic accounting and the model cross-check so the two cannot
/// drift apart.
inline index_t stockham_stages(index_t log2n) { return (log2n + 1) / 2; }
/// Data passes of one pow2 Stockham transform: each stage reads and writes
/// the full line once (ping-pong), plus one copy back when the stage count
/// is odd.
inline index_t stockham_passes(index_t log2n) {
  const index_t s = stockham_stages(log2n);
  return s + s % 2;
}

/// Accumulated traffic of one scope (or a total over scopes).
struct TrafficTotals {
  double bytes_read = 0;     ///< operand bytes the kernels must load
  double bytes_written = 0;  ///< result bytes the kernels must store
  double comm_bytes = 0;     ///< fabric payload bytes (inter-device)
  double flops = 0;
  double seconds = 0;  ///< busy seconds, where a timed lane covers the scope
  double calls = 0;    ///< hook invocations (informational; NOT
                       ///< deterministic across executor modes)

  double bytes_moved() const { return bytes_read + bytes_written + comm_bytes; }
  /// flops per byte moved; 0 when nothing moved.
  double arithmetic_intensity() const {
    const double b = bytes_moved();
    return b > 0 ? flops / b : 0.0;
  }
  /// Words moved per flop, the ROADMAP item-4 metric (default word = f64).
  double words_per_flop(double word_bytes = 8.0) const {
    return flops > 0 ? bytes_moved() / (word_bytes * flops) : 0.0;
  }
  TrafficTotals& operator+=(const TrafficTotals& o);
};

/// Measured machine roofline from the STREAM-style self-calibration: what
/// this host actually sustains, the denominator for achieved-bandwidth
/// fractions in the ledger report.
struct MachineRoofline {
  int threads = 0;           ///< pool worker threads used
  double copy_bps = 0;       ///< STREAM copy  b[i] = a[i]          (bytes/s)
  double scale_bps = 0;      ///< STREAM scale b[i] = s*a[i]        (bytes/s)
  double triad_bps = 0;      ///< STREAM triad c[i] = a[i]+s*b[i]   (bytes/s)
  double fma_flops = 0;      ///< unrolled FMA loop compute anchor  (flop/s)
  /// Bandwidth roof used for achieved-fraction reporting (triad).
  double roof_bps() const { return triad_bps; }
};

/// Run the copy/scale/triad sweep on `threads` pool workers (0 = current
/// pool width) over arrays of `elems` doubles (default 2^22: 32 MiB,
/// past any host L2/L3), best of `reps`.
MachineRoofline calibrate_roofline(int threads = 0, index_t elems = index_t(1) << 22,
                                   int reps = 3);
/// Calibrate per thread count: serial and full pool (plus midpoints when
/// the pool is wide), ascending. The measured roofline the analyzer and
/// bench reports anchor against is the widest entry.
std::vector<MachineRoofline> calibrate_roofline_sweep(index_t elems = index_t(1) << 22,
                                                      int reps = 3);
/// {"schema": "fmmfft.calibration.v1", "results": [...]} JSON.
void write_calibration_json(std::ostream& os, const std::vector<MachineRoofline>& sweep);

/// Process-wide traffic ledger. Scopes are created on first lookup and
/// never destroyed before exit, so hook sites may cache references.
class TrafficLedger {
 public:
  static constexpr int kStripes = 16;

  /// One named accounting scope. Counters are striped across cache lines so
  /// concurrent parallel_for workers / executor tasks don't serialize.
  class Scope {
   public:
    void add(double rd, double wr, double comm, double fl) {
      Cell& c = cells_[stripe()];
      if (rd != 0) c.rd.fetch_add(rd, std::memory_order_relaxed);
      if (wr != 0) c.wr.fetch_add(wr, std::memory_order_relaxed);
      if (comm != 0) c.comm.fetch_add(comm, std::memory_order_relaxed);
      if (fl != 0) c.flops.fetch_add(fl, std::memory_order_relaxed);
      c.calls.fetch_add(1.0, std::memory_order_relaxed);
    }
    void add_seconds(double s) {
      cells_[stripe()].seconds.fetch_add(s, std::memory_order_relaxed);
    }
    TrafficTotals totals() const;
    void reset();

   private:
    static int stripe();
    struct alignas(64) Cell {
      std::atomic<double> rd{0.0}, wr{0.0}, comm{0.0}, flops{0.0}, seconds{0.0}, calls{0.0};
    };
    Cell cells_[kStripes];
  };

  static TrafficLedger& global();

  /// Registry lookup (created on first use, pointer-stable). Hook macros
  /// cache the reference in a magic static per call site.
  Scope& scope(const std::string& name);

  // Dynamic-name slow paths (fabric tags, per-stage FMM names).
  void add_rw(const std::string& name, double rd, double wr, double fl = 0.0);
  void add_comm(const std::string& name, double bytes);
  void add_seconds(const std::string& name, double s);

  /// Per-scope totals by name (zero-valued scopes included).
  std::map<std::string, TrafficTotals> snapshot() const;
  /// Grand total. `primary_only` excludes the aux scopes (blas.*, exec.*)
  /// whose bytes/seconds would double-count the stage-level rows.
  TrafficTotals total(bool primary_only = true) const;
  /// True for scopes excluded from the primary total.
  static bool is_aux(const std::string& name);

  void reset();  ///< zero all values, keep the scopes registered

  /// Human-readable per-scope table: bytes moved, AI, words/flop, and —
  /// where busy seconds are known (async executor stages, `cal` given) —
  /// achieved GB/s and the fraction of the calibrated triad roof.
  std::string report(const MachineRoofline* cal = nullptr) const;
  /// {"schema": "fmmfft.traffic.v1", "scopes": {...}, "total": {...},
  ///  "aux_total": {...}, "calibration": {...}?} JSON.
  void write_json(std::ostream& os, const MachineRoofline* cal = nullptr) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Scope> scopes_;
};

/// Read FMMFFT_TRAFFIC and arm the at-exit ledger dump when set. Runs
/// automatically at startup from traffic.cpp's initializer.
void init_traffic_from_env();
/// Write the current ledger as JSON to `path` (explicit counterpart of the
/// env-driven at-exit dump).
bool write_traffic_file(const std::string& path);

}  // namespace fmmfft::obs

// ---------------------------------------------------------------------------
// Hook macros — the only things hot paths touch. `name` must be a string
// literal (the registry lookup happens once per call site); dynamic names go
// through TrafficLedger::add_rw / add_comm.

#ifdef FMMFFT_OBS_DISABLE
#define FMMFFT_TRAFFIC_RW(name, rd, wr, flops) ((void)0)
#define FMMFFT_TRAFFIC_COMM(name, bytes) ((void)0)
#else
/// Record `rd` bytes read, `wr` bytes written and `flops` flops in `name`.
#define FMMFFT_TRAFFIC_RW(name, rd, wr, flops)                                       \
  do {                                                                               \
    if (::fmmfft::obs::traffic_enabled()) {                                          \
      static ::fmmfft::obs::TrafficLedger::Scope& fmmfft_obs_traffic =               \
          ::fmmfft::obs::TrafficLedger::global().scope(name);                        \
      fmmfft_obs_traffic.add(static_cast<double>(rd), static_cast<double>(wr), 0.0,  \
                             static_cast<double>(flops));                            \
    }                                                                                \
  } while (0)
/// Record `bytes` of fabric payload in `name`.
#define FMMFFT_TRAFFIC_COMM(name, bytes)                                             \
  do {                                                                               \
    if (::fmmfft::obs::traffic_enabled()) {                                          \
      static ::fmmfft::obs::TrafficLedger::Scope& fmmfft_obs_traffic =               \
          ::fmmfft::obs::TrafficLedger::global().scope(name);                        \
      fmmfft_obs_traffic.add(0.0, 0.0, static_cast<double>(bytes), 0.0);             \
    }                                                                                \
  } while (0)
#endif
