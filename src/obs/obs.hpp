// Runtime observability: one per-thread event log and a metrics registry.
//
// The repo *predicts* per-stage flop/byte/comm counts (src/model/counts.*)
// and *simulates* their timing (src/sim/schedule.*); this subsystem observes
// what the real host execution actually does. Two independent facilities
// share one on/off discipline:
//
//  * Event rings — each recording thread appends to its own wrapping ring
//    of kLaneCapacity seqlocked events, listed in the process-wide Recorder.
//    Spans (`FMMFFT_SPAN("M2L")`, an open and a close event) and the health
//    layer's flight events (obs/health.hpp) share the ring. Readers decode
//    the same rings: the Chrome/Perfetto trace export (obs/trace_writer.hpp),
//    the health layer's span sampler, postmortems and the fatal-signal dump.
//  * Metrics — named counters / gauges / histograms (flops, bytes moved,
//    GEMM calls, kernel-equivalent launches, fabric transfers), dumpable as
//    JSON and diffable against the §5 model (obs/compare.hpp).
//
// Everything is compiled in but runs as a no-op unless enabled: the
// disabled fast path of every hook is one relaxed atomic load and a branch,
// with no allocation (tests/test_obs.cpp asserts this; the cost is measured
// by bench/micro_benchmarks.cpp). Enabling is programmatic
// (obs::enable_tracing / obs::enable_metrics) or via the environment:
// FMMFFT_TRACE=<path> and FMMFFT_METRICS=<path> enable the respective
// facility at startup and write the JSON files at process exit.
// Defining FMMFFT_OBS_DISABLE removes the hooks entirely at compile time.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace fmmfft::obs {

namespace detail {
/// The recording gate: one bit per consumer of the event rings. Spans record
/// while tracing or sampling is on, flight events while the flight recorder
/// is. Defined in obs.cpp; referencing it from the macros pulls obs.cpp (and
/// its environment-variable initializer) into any binary using the hooks.
enum : unsigned { kTrace = 1, kFlight = 2, kSample = 4, kSpans = kTrace | kSample };
extern std::atomic<unsigned> g_gate;
extern std::atomic<bool> g_metrics_enabled;
void set_gate(unsigned bits, bool on);
std::uint64_t now_ns();  ///< steady-clock ns since the process epoch
}  // namespace detail

inline bool tracing_enabled() {
  return detail::g_gate.load(std::memory_order_relaxed) & detail::kTrace;
}
inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

void enable_tracing(bool on = true);
void enable_metrics(bool on = true);
void enable();   ///< both facilities
void disable();  ///< tracing, metrics and the traffic ledger
/// Drop all recorded events and zero every metric. Registered counters stay
/// alive (hook sites hold references), only their values reset.
void reset();

// ---------------------------------------------------------------------------
// Event rings

/// Ring event kinds. Values are stable (they appear in postmortems).
enum class Ev : std::uint8_t {
  Mark = 0,        ///< free-form marker (tag)
  GraphStart = 1,  ///< a = task count
  GraphEnd = 2,    ///< a = tasks completed
  TaskStart = 3,   ///< a = task id, lane = graph lane, tag = span prefix
  TaskEnd = 4,     ///< a = task id
  TaskFail = 5,    ///< a = task id (body threw)
  Comm = 7,        ///< fabric transfer: a = chunk/elems id, tag = link tag
  Fault = 8,       ///< injected fault triggered: a = task id
  SpanOpen = 9,    ///< a = nesting depth, tag = span name
  SpanClose = 10,  ///< a = nesting depth
};
const char* ev_name(Ev kind);

/// One decoded ring event. `tag` is a bounded, always NUL-terminated copy.
struct RingEvent {
  static constexpr int kTagCap = 40;
  std::uint64_t seq = 0;   ///< 1-based event number on its ring
  std::uint64_t t_ns = 0;  ///< steady-clock ns since the process epoch
  std::uint32_t a = 0;
  int lane = 0;  ///< flight events: the task-graph lane
  Ev kind = Ev::Mark;
  int ring = 0;  ///< recording thread's ring id (its trace lane)
  char tag[kTagCap] = {};
};

/// One completed span, paired from its ring's open and close events. `lane`
/// is the recording thread's ring id; `depth` is the nesting level within
/// the lane (0 = outermost).
struct SpanEvent {
  static constexpr int kNameCap = RingEvent::kTagCap;
  char name[kNameCap];
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int lane = 0;
  int depth = 0;
};

namespace detail {
/// Append one event to the calling thread's ring, allocating the ring on
/// the thread's first record.
void record(Ev kind, std::uint32_t a, int lane, const char* tag);
/// Record a span's open event; returns its depth on the calling thread.
int open_span(const char* name);
void close_span(int depth);
}  // namespace detail

/// RAII span scope. With spans off, construction and destruction cost one
/// relaxed load and a branch and never allocate. The close is recorded iff
/// the open was, whatever the gate reads by then.
class SpanScope {
 public:
  explicit SpanScope(const char* name) {
    if (detail::g_gate.load(std::memory_order_relaxed) & detail::kSpans)
      depth_ = detail::open_span(name);
  }
  /// Dynamic-suffix form for tagged spans ("COMM-M7", fabric tags). The
  /// string is copied into the event, never retained.
  SpanScope(const char* prefix, const std::string& suffix) {
    if (!(detail::g_gate.load(std::memory_order_relaxed) & detail::kSpans)) return;
    char buf[SpanEvent::kNameCap];
    std::snprintf(buf, sizeof buf, "%s%s", prefix, suffix.c_str());
    depth_ = detail::open_span(buf);
  }
  ~SpanScope() {
    if (depth_ >= 0) detail::close_span(depth_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int depth_ = -1;  ///< -1: the open was not recorded
};

/// Process-wide event log: one single-writer ring per recording thread, in a
/// fixed array of atomic ring pointers. Rings live for the process lifetime
/// and wrap, so the most recent kLaneCapacity events per thread survive.
/// Every slot is a seqlock of relaxed atomics, so readers never block a
/// writer, and visit() takes no lock and allocates nothing. clear() only
/// raises each ring's floor: readers skip older events (the sampler, which
/// needs the open spans, looks below it).
class Recorder {
 public:
  static Recorder& global();

  /// Completed spans since the last clear(), ordered by (lane, start time).
  /// A span whose open event was overwritten or cleared is left out.
  std::vector<SpanEvent> snapshot() const;
  /// Every event since the last clear(), ordered by (ring, seq).
  std::vector<RingEvent> events() const;
  /// Calls fn(event, ctx) for each event events() would return.
  /// Async-signal-safe: the fatal-signal dump walks the rings through it.
  void visit(void (*fn)(const RingEvent&, void*), void* ctx) const;
  /// Per ring, the innermost span open on its thread ("" when none is, or
  /// when the open event was overwritten): what the span sampler counts.
  std::vector<std::string> open_spans() const;
  /// Events ever recorded, including overwritten and cleared ones.
  std::uint64_t recorded() const;
  /// Events overwritten, or refused for lack of a ring, since the last clear().
  std::uint64_t dropped() const;
  int lanes() const;  ///< rings in the registry
  void clear();

  /// chrome://tracing JSON of snapshot() (obs::TraceWriter format; pid 0,
  /// one tid per lane, timestamps relative to the process epoch).
  void write_chrome_trace(std::ostream& os) const;

  static constexpr std::size_t kLaneCapacity = std::size_t(1) << 15;

  struct Ring;  ///< defined in obs.cpp; threads cache a Ring* in TLS

 private:
  friend void detail::record(Ev, std::uint32_t, int, const char*);
  Ring* thread_ring();

  static constexpr int kMaxRings = 128;  ///< threads past this record nothing

  std::atomic<Ring*> rings_[kMaxRings] = {};
  std::atomic<int> claimed_{0};  ///< rings handed out, or refused past kMaxRings
  std::atomic<std::uint64_t> refused_{0}, refused_floor_{0};
};

// ---------------------------------------------------------------------------
// Metrics

/// Monotonic double counter, striped across cache lines so concurrent
/// parallel_for workers don't serialize on one atomic.
class Counter {
 public:
  static constexpr int kStripes = 16;

  void add(double v);
  void increment() { add(1.0); }
  double value() const;
  void reset();

 private:
  struct alignas(64) Cell {
    std::atomic<double> v{0.0};
  };
  Cell cells_[kStripes];
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Power-of-two bucketed histogram of non-negative samples: bucket k counts
/// samples in [2^(k-1), 2^k) (bucket 0: [0, 1)).
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  void observe(double v);
  std::uint64_t count() const;
  double sum() const;
  std::uint64_t bucket(int k) const { return buckets_[k].load(std::memory_order_relaxed); }
  /// Estimated p-th percentile (p in [0, 100]), linearly interpolated within
  /// the containing bucket; 0 when the histogram is empty. Resolution is the
  /// bucket width, i.e. a factor of 2.
  double percentile(double p) const;

 private:
  friend class Metrics;
  void reset();
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<double> sum_{0.0};
};

/// Process-wide metrics registry. Instruments are created on first lookup
/// and never destroyed before exit, so hook sites may cache references.
class Metrics {
 public:
  static Metrics& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Counter values by name (zero-valued counters included).
  std::map<std::string, double> counters_snapshot() const;
  /// Sum of all counters whose name starts with `prefix`.
  double counters_with_prefix(const std::string& prefix) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} JSON.
  void write_json(std::ostream& os) const;

  void reset();  ///< zero all values, keep the instruments registered

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

// ---------------------------------------------------------------------------
// File output

/// Read FMMFFT_TRACE / FMMFFT_METRICS and arm the at-exit dump for any that
/// are set. Runs automatically at startup from obs.cpp's initializer;
/// calling it again is harmless.
void init_from_env();

/// Write the recorded spans / current metrics as JSON to `path` (the
/// explicit counterparts of the env-driven at-exit dump).
bool write_trace_file(const std::string& path);
bool write_metrics_file(const std::string& path);

}  // namespace fmmfft::obs

// ---------------------------------------------------------------------------
// Hook macros — the only things hot paths touch.

#ifdef FMMFFT_OBS_DISABLE
#define FMMFFT_SPAN(...) ((void)0)
#define FMMFFT_COUNT(name, delta) ((void)0)
#define FMMFFT_HIST(name, value) ((void)0)
#else
#define FMMFFT_OBS_CONCAT2(a, b) a##b
#define FMMFFT_OBS_CONCAT(a, b) FMMFFT_OBS_CONCAT2(a, b)
/// Open a span covering the rest of the enclosing scope.
/// FMMFFT_SPAN("name") or FMMFFT_SPAN("prefix", std::string_suffix).
#define FMMFFT_SPAN(...) \
  ::fmmfft::obs::SpanScope FMMFFT_OBS_CONCAT(fmmfft_obs_span_, __LINE__)(__VA_ARGS__)
/// Add `delta` to the counter named by the string literal `name`. The
/// registry lookup happens once per call site (magic static).
#define FMMFFT_COUNT(name, delta)                                                   \
  do {                                                                              \
    if (::fmmfft::obs::metrics_enabled()) {                                         \
      static ::fmmfft::obs::Counter& fmmfft_obs_counter =                           \
          ::fmmfft::obs::Metrics::global().counter(name);                           \
      fmmfft_obs_counter.add(static_cast<double>(delta));                           \
    }                                                                               \
  } while (0)
/// Observe `value` in the histogram named by the string literal `name`
/// (power-of-two buckets; p50/p95/p99 appear in the metrics JSON).
#define FMMFFT_HIST(name, value)                                                    \
  do {                                                                              \
    if (::fmmfft::obs::metrics_enabled()) {                                         \
      static ::fmmfft::obs::Histogram& fmmfft_obs_hist =                            \
          ::fmmfft::obs::Metrics::global().histogram(name);                         \
      fmmfft_obs_hist.observe(static_cast<double>(value));                          \
    }                                                                               \
  } while (0)
#endif
