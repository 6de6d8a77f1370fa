#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>

#include "obs/env.hpp"
#include "obs/health.hpp"
#include "obs/trace_writer.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::obs {

namespace detail {

std::atomic<unsigned> g_gate{0};
std::atomic<bool> g_metrics_enabled{false};

void set_gate(unsigned bits, bool on) {
  if (on)
    g_gate.fetch_or(bits, std::memory_order_relaxed);
  else
    g_gate.fetch_and(~bits, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - epoch).count());
}

}  // namespace detail

void enable_tracing(bool on) { detail::set_gate(detail::kTrace, on); }
void enable_metrics(bool on) {
  if (on) Metrics::global();
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}
void enable() {
  enable_tracing(true);
  enable_metrics(true);
}
void disable() {
  enable_tracing(false);
  enable_metrics(false);
  enable_traffic(false);
}
void reset() {
  Recorder::global().clear();
  Metrics::global().reset();
  TrafficLedger::global().reset();
}

// ---------------------------------------------------------------------------
// Event rings

const char* ev_name(Ev kind) {
  switch (kind) {
    case Ev::Mark: return "mark";
    case Ev::GraphStart: return "graph_start";
    case Ev::GraphEnd: return "graph_end";
    case Ev::TaskStart: return "task_start";
    case Ev::TaskEnd: return "task_end";
    case Ev::TaskFail: return "task_fail";
    case Ev::Comm: return "comm";
    case Ev::Fault: return "fault";
    case Ev::SpanOpen: return "span_open";
    case Ev::SpanClose: return "span_close";
  }
  return "?";
}

namespace {
constexpr std::uint64_t kCap = Recorder::kLaneCapacity;
constexpr int kTagWords = RingEvent::kTagCap / 8;
}  // namespace

/// Only the owning thread writes `head` and the slots; only clear() writes
/// `floor`. A slot's `seq` is 0 while its owner rewrites it and the event
/// number + 1 once it is consistent.
struct Recorder::Ring {
  struct alignas(64) Slot {  // one cache line
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> t_ns{0};
    std::atomic<std::uint64_t> meta{0};  // kind << 56 | lane << 32 | a
    std::atomic<std::uint64_t> tag[kTagWords] = {};
  };
  explicit Ring(int id_) : id(id_) {}
  int id;
  std::atomic<std::uint64_t> head{0};   // events ever written
  std::atomic<std::uint64_t> floor{0};  // first event readers report
  Slot slots[kCap];

  /// Decode event n into `out`; false if it was overwritten or is mid-write.
  bool decode(std::uint64_t n, RingEvent& out) const {
    const Slot& s = slots[n % kCap];
    if (s.seq.load(std::memory_order_acquire) != n + 1) return false;
    const std::uint64_t t = s.t_ns.load(std::memory_order_relaxed);
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    std::uint64_t tag[kTagWords];
    for (int i = 0; i < kTagWords; ++i) tag[i] = s.tag[i].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != n + 1) return false;
    out.seq = n + 1;
    out.t_ns = t;
    out.kind = static_cast<Ev>(meta >> 56);
    out.lane = static_cast<int>((meta >> 32) & 0xFFFFFF);
    out.a = static_cast<std::uint32_t>(meta);
    out.ring = id;
    std::memcpy(out.tag, tag, sizeof tag);
    out.tag[RingEvent::kTagCap - 1] = '\0';
    return true;
  }
  /// Oldest event still held at or after `from`.
  std::uint64_t low(std::uint64_t head_now, std::uint64_t from) const {
    return std::max(from, head_now > kCap ? head_now - kCap : 0);
  }
};

Recorder& Recorder::global() {
  static constinit Recorder r;  // constant-initialized: no guard, signal-safe
  return r;
}

namespace {
thread_local Recorder::Ring* tls_ring = nullptr;
thread_local bool tls_refused = false;
thread_local int tls_depth = 0;
}  // namespace

Recorder::Ring* Recorder::thread_ring() {
  if (tls_ring || tls_refused) return tls_ring;
  const int id = claimed_.fetch_add(1, std::memory_order_relaxed);
  if (id >= kMaxRings) {
    // Sharing a ring would break the single-writer seqlock.
    tls_refused = true;
    return nullptr;
  }
  // Leaked deliberately: rings outlive their threads for postmortems and
  // the signal dump.
  tls_ring = new Ring(id);
  rings_[id].store(tls_ring, std::memory_order_release);
  return tls_ring;
}

namespace detail {

void record(Ev kind, std::uint32_t a, int lane, const char* tag) {
  Recorder& rec = Recorder::global();
  Recorder::Ring* ring = rec.thread_ring();
  if (!ring) {
    rec.refused_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  char buf[RingEvent::kTagCap] = {};
  if (tag) std::strncpy(buf, tag, sizeof buf - 1);
  std::uint64_t words[kTagWords];
  std::memcpy(words, buf, sizeof buf);
  const std::uint64_t n = ring->head.load(std::memory_order_relaxed);
  Recorder::Ring::Slot& s = ring->slots[n % kCap];
  s.seq.store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);  // invalidate first
  s.t_ns.store(now_ns(), std::memory_order_relaxed);
  s.meta.store(std::uint64_t(kind) << 56 | (std::uint64_t(lane) & 0xFFFFFF) << 32 | a,
               std::memory_order_relaxed);
  for (int i = 0; i < kTagWords; ++i) s.tag[i].store(words[i], std::memory_order_relaxed);
  s.seq.store(n + 1, std::memory_order_release);
  ring->head.store(n + 1, std::memory_order_release);
}

int open_span(const char* name) {
  const int depth = tls_depth++;
  record(Ev::SpanOpen, std::uint32_t(depth), 0, name);
  return depth;
}

void close_span(int depth) {
  tls_depth = depth;
  record(Ev::SpanClose, std::uint32_t(depth), 0, nullptr);
}

}  // namespace detail

void Recorder::visit(void (*fn)(const RingEvent&, void*), void* ctx) const {
  const int n = lanes();
  for (int i = 0; i < n; ++i) {
    const Ring* ring = rings_[i].load(std::memory_order_acquire);
    if (!ring) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    for (std::uint64_t e = ring->low(head, ring->floor.load(std::memory_order_acquire));
         e < head; ++e) {
      RingEvent ev;
      if (ring->decode(e, ev)) fn(ev, ctx);
    }
  }
}

std::vector<RingEvent> Recorder::events() const {
  std::vector<RingEvent> out;
  visit([](const RingEvent& ev, void* v) { static_cast<std::vector<RingEvent>*>(v)->push_back(ev); },
        &out);
  return out;
}

std::vector<SpanEvent> Recorder::snapshot() const {
  // Pair each close with its ring's open at the same depth; a close whose
  // open is gone is skipped, and spans still open are not reported.
  struct Pairing {
    std::vector<SpanEvent> spans, open;
  } p;
  visit(
      [](const RingEvent& ev, void* v) {
        auto& p = *static_cast<Pairing*>(v);
        if (!p.open.empty() && p.open.back().lane != ev.ring) p.open.clear();
        if (ev.kind == Ev::SpanOpen) {
          SpanEvent s;
          std::memcpy(s.name, ev.tag, sizeof s.name);
          s.start_ns = ev.t_ns;
          s.lane = ev.ring;
          s.depth = int(ev.a);
          p.open.push_back(s);
        } else if (ev.kind == Ev::SpanClose) {
          while (!p.open.empty() && p.open.back().depth > int(ev.a)) p.open.pop_back();
          if (p.open.empty() || p.open.back().depth != int(ev.a)) return;
          p.spans.push_back(p.open.back());
          p.spans.back().end_ns = ev.t_ns;
          p.open.pop_back();
        }
      },
      &p);
  std::sort(p.spans.begin(), p.spans.end(), [](const SpanEvent& a, const SpanEvent& b) {
    return a.lane != b.lane ? a.lane < b.lane : a.start_ns < b.start_ns;
  });
  return p.spans;
}

std::vector<std::string> Recorder::open_spans() const {
  // Walking back from head, the first span event decides: an open is the
  // innermost open span; a close at depth d leaves depths < d open, and the
  // newest open at depth d - 1 is the innermost.
  std::vector<std::string> out;
  const int n = lanes();
  for (int i = 0; i < n; ++i) {
    const Ring* ring = rings_[i].load(std::memory_order_acquire);
    if (!ring) continue;
    std::string& name = out.emplace_back();
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t lo = ring->low(head, 0);
    long long want = -1;
    RingEvent ev;
    for (std::uint64_t e = head; e-- > lo && ring->decode(e, ev);) {
      if (ev.kind == Ev::SpanClose && want < 0) {
        if (ev.a == 0) break;
        want = ev.a - 1;
      } else if (ev.kind == Ev::SpanOpen && (want < 0 || ev.a == want)) {
        name = ev.tag;
        break;
      }
    }
  }
  return out;
}

std::uint64_t Recorder::recorded() const {
  std::uint64_t total = 0;
  for (int i = 0; i < lanes(); ++i)
    if (const Ring* ring = rings_[i].load(std::memory_order_acquire))
      total += ring->head.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Recorder::dropped() const {
  std::uint64_t d = refused_.load(std::memory_order_relaxed) -
                    refused_floor_.load(std::memory_order_relaxed);
  for (int i = 0; i < lanes(); ++i)
    if (const Ring* ring = rings_[i].load(std::memory_order_acquire)) {
      const std::uint64_t gone = ring->low(ring->head.load(std::memory_order_relaxed), 0);
      const std::uint64_t floor = ring->floor.load(std::memory_order_relaxed);
      d += gone > floor ? gone - floor : 0;
    }
  return d;
}

int Recorder::lanes() const {
  return std::min(claimed_.load(std::memory_order_relaxed), kMaxRings);
}

void Recorder::clear() {
  refused_floor_.store(refused_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  for (int i = 0; i < lanes(); ++i)
    if (Ring* ring = rings_[i].load(std::memory_order_acquire))
      ring->floor.store(ring->head.load(std::memory_order_acquire), std::memory_order_release);
}

void Recorder::write_chrome_trace(std::ostream& os) const {
  TraceWriter tw(os);
  for (const SpanEvent& ev : snapshot())
    tw.complete_event(ev.name, double(ev.start_ns) * 1e-3,
                      double(ev.end_ns - ev.start_ns) * 1e-3, 0,
                      "lane" + std::to_string(ev.lane));
  tw.finish();
}

// ---------------------------------------------------------------------------
// Metrics

namespace {
/// Stripe assignment: threads pick distinct cells round-robin.
int stripe_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned idx = next.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(idx % unsigned(Counter::kStripes));
}
}  // namespace

void Counter::add(double v) {
  cells_[stripe_index()].v.fetch_add(v, std::memory_order_relaxed);
}

double Counter::value() const {
  double s = 0;
  for (const Cell& c : cells_) s += c.v.load(std::memory_order_relaxed);
  return s;
}

void Counter::reset() {
  for (Cell& c : cells_) c.v.store(0.0, std::memory_order_relaxed);
}

void Histogram::observe(double v) {
  // NaN carries no rank information and would poison sum(); drop it. +inf
  // must not reach ilogb (ilogb(inf) == INT_MAX, and 1 + INT_MAX is signed
  // overflow): clamp everything at or above the top bucket's lower edge
  // first. Negative values (clock skew artifacts) land in bucket 0.
  if (std::isnan(v)) return;
  int k = 0;
  if (v >= std::ldexp(1.0, kBuckets - 2)) {
    k = kBuckets - 1;
  } else if (v >= 1.0) {
    k = std::min(kBuckets - 1, 1 + std::ilogb(v));
  }
  buckets_[k].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(std::isinf(v) ? std::ldexp(1.0, kBuckets - 1) : v,
                 std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::percentile(double p) const {
  // Snapshot once so the estimate is consistent under concurrent observe().
  std::uint64_t snap[kBuckets];
  std::uint64_t total = 0;
  for (int k = 0; k < kBuckets; ++k) total += snap[k] = buckets_[k].load(std::memory_order_relaxed);
  if (total == 0 || std::isnan(p)) return 0.0;
  const double rank = std::min(std::max(p, 0.0), 100.0) / 100.0 * double(total);
  double cum = 0;
  for (int k = 0; k < kBuckets; ++k) {
    if (snap[k] == 0) continue;
    const double next = cum + double(snap[k]);
    if (next >= rank) {
      const double lo = k == 0 ? 0.0 : std::ldexp(1.0, k - 1);
      const double hi = std::ldexp(1.0, k);
      const double frac = (rank - cum) / double(snap[k]);
      return lo + frac * (hi - lo);
    }
    cum = next;
  }
  return std::ldexp(1.0, kBuckets - 1);  // unreachable: rank <= total
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Metrics& Metrics::global() {
  static Metrics m;
  return m;
}

Counter& Metrics::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_[name];
}

Gauge& Metrics::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return gauges_[name];
}

Histogram& Metrics::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return histograms_[name];
}

std::map<std::string, double> Metrics::counters_snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) out[name] = c.value();
  return out;
}

double Metrics::counters_with_prefix(const std::string& prefix) const {
  std::lock_guard<std::mutex> lk(mu_);
  double s = 0;
  for (const auto& [name, c] : counters_)
    if (name.rfind(prefix, 0) == 0) s += c.value();
  return s;
}

void Metrics::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  JsonWriter jw(os);
  jw.begin_object();
  jw.key("counters");
  jw.begin_object();
  for (const auto& [name, c] : counters_) jw.kv(name, c.value());
  jw.end_object();
  jw.key("gauges");
  jw.begin_object();
  for (const auto& [name, g] : gauges_) jw.kv(name, g.value());
  jw.end_object();
  jw.key("histograms");
  jw.begin_object();
  for (const auto& [name, h] : histograms_) {
    jw.key(name);
    jw.begin_object();
    jw.kv("count", double(h.count()));
    jw.kv("sum", h.sum());
    jw.kv("p50", h.percentile(50));
    jw.kv("p95", h.percentile(95));
    jw.kv("p99", h.percentile(99));
    jw.key("buckets");
    jw.begin_array();
    for (int k = 0; k < Histogram::kBuckets; ++k) {
      const std::uint64_t n = h.bucket(k);
      if (n == 0) continue;
      jw.begin_array();
      jw.value(k == 0 ? 0.0 : std::ldexp(1.0, k - 1));  // bucket lower bound
      jw.value(double(n));
      jw.end_array();
    }
    jw.end_array();
    jw.end_object();
  }
  jw.end_object();
  jw.end_object();
}

void Metrics::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

// ---------------------------------------------------------------------------
// Environment-driven setup and at-exit dump

bool write_trace_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  Recorder::global().write_chrome_trace(os);
  return bool(os);
}

bool write_metrics_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  Metrics::global().write_json(os);
  os << "\n";
  return bool(os);
}

namespace {

std::string g_trace_path, g_metrics_path;

void dump_at_exit() {
  if (!g_trace_path.empty() && !write_trace_file(g_trace_path))
    std::fprintf(stderr, "fmmfft: could not write FMMFFT_TRACE=%s\n", g_trace_path.c_str());
  if (!g_metrics_path.empty() && !write_metrics_file(g_metrics_path))
    std::fprintf(stderr, "fmmfft: could not write FMMFFT_METRICS=%s\n", g_metrics_path.c_str());
}

}  // namespace

void init_from_env() {
  static bool done = false;
  if (done) return;
  done = true;
  const char* trace = env::get("FMMFFT_TRACE");
  const char* metrics = env::get("FMMFFT_METRICS");
  if (!trace && !metrics) return;
  // Construct the metrics registry *before* registering the atexit dump so
  // it is destroyed after the dump runs.
  Metrics::global();
  if (trace && *trace) {
    g_trace_path = trace;
    enable_tracing(true);
  }
  if (metrics && *metrics) {
    g_metrics_path = metrics;
    enable_metrics(true);
  }
  std::atexit(dump_at_exit);
}

namespace {
// Any TU that uses the hook macros references detail::g_gate, which
// pulls this object file — and with it this initializer — into the link.
// The health knobs are read here too, so every such binary honours them.
[[maybe_unused]] const bool g_env_initialized = [] {
  init_from_env();
  health::init_from_env();
  return true;
}();
}  // namespace

}  // namespace fmmfft::obs
