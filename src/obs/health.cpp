#include "obs/health.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/env.hpp"
#include "obs/obs.hpp"
#include "obs/trace_writer.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::obs::health {

namespace detail {
std::atomic<bool> g_flight_enabled{false};
std::atomic<bool> g_sampling_enabled{false};
}  // namespace detail

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
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Flight recorder
//
// Per-thread rings in a fixed lock-free registry (atomic pointers, no
// container), so both the concurrent snapshot and the signal-handler dump
// can walk them without taking any lock or touching the heap. Each slot is
// a single-producer seqlock of relaxed atomics: `seq` is 0 while the owner
// rewrites the slot and event-number+1 once the slot is consistent.

namespace {

constexpr int kMaxRings = 128;

struct FlightRing {
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> t_ns{0};
    std::atomic<std::uint64_t> meta{0};  // kind<<56 | lane<<32 | a
    std::atomic<std::uint64_t> tag0{0}, tag1{0};
  };
  explicit FlightRing(int id_) : id(id_) {}
  int id;
  std::atomic<std::uint64_t> head{0};  // events ever written here
  Slot slots[kFlightCapacity];
};

std::atomic<FlightRing*> g_rings[kMaxRings] = {};
std::atomic<int> g_ring_count{0};
std::atomic<std::uint64_t> g_ring_overflow{0};
thread_local FlightRing* tls_ring = nullptr;
thread_local bool tls_ring_denied = false;

FlightRing* flight_ring() {
  if (tls_ring) return tls_ring;
  if (tls_ring_denied) return nullptr;
  const int idx = g_ring_count.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kMaxRings) {
    // Threads beyond the registry record nothing (sharing a ring would
    // break the single-producer seqlock).
    tls_ring_denied = true;
    g_ring_overflow.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // Leaked deliberately: rings must outlive any dump, including the at-exit
  // and signal paths.
  auto* ring = new FlightRing(idx);
  g_rings[idx].store(ring, std::memory_order_release);
  return tls_ring = ring;
}

std::uint64_t pack_meta(Ev kind, int lane, std::uint32_t a) {
  return (std::uint64_t(static_cast<std::uint8_t>(kind)) << 56) |
         ((std::uint64_t(lane) & 0xFFFFFF) << 32) | a;
}

void pack_tag(const char* tag, std::uint64_t& t0, std::uint64_t& t1) {
  char buf[kFlightTagCap] = {};
  if (tag) std::strncpy(buf, tag, sizeof buf - 1);
  std::memcpy(&t0, buf, 8);
  std::memcpy(&t1, buf + 8, 8);
}

}  // namespace

namespace detail {

void flight_record(Ev kind, std::uint32_t a, int lane, const char* tag) {
  FlightRing* ring = flight_ring();
  if (!ring) return;
  const std::uint64_t n = ring->head.load(std::memory_order_relaxed);
  FlightRing::Slot& s = ring->slots[n % kFlightCapacity];
  std::uint64_t t0, t1;
  pack_tag(tag, t0, t1);
  s.seq.store(0, std::memory_order_release);  // invalidate while rewriting
  s.t_ns.store(obs::detail::now_ns(), std::memory_order_relaxed);
  s.meta.store(pack_meta(kind, lane, a), std::memory_order_relaxed);
  s.tag0.store(t0, std::memory_order_relaxed);
  s.tag1.store(t1, std::memory_order_relaxed);
  s.seq.store(n + 1, std::memory_order_release);
  ring->head.store(n + 1, std::memory_order_release);
}

}  // namespace detail

void enable_flight(bool on) {
  detail::g_flight_enabled.store(on, std::memory_order_relaxed);
}

namespace {

bool decode_slot(const FlightRing& ring, std::uint64_t n, FlightEvent& out) {
  const FlightRing::Slot& s = ring.slots[n % kFlightCapacity];
  const std::uint64_t seq1 = s.seq.load(std::memory_order_acquire);
  if (seq1 != n + 1) return false;  // overwritten or mid-write
  const std::uint64_t t = s.t_ns.load(std::memory_order_relaxed);
  const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
  const std::uint64_t t0 = s.tag0.load(std::memory_order_relaxed);
  const std::uint64_t t1 = s.tag1.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (s.seq.load(std::memory_order_relaxed) != n + 1) return false;
  out.seq = n + 1;
  out.t_ns = t;
  out.kind = static_cast<Ev>(meta >> 56);
  out.lane = static_cast<int>((meta >> 32) & 0xFFFFFF);
  out.a = static_cast<std::uint32_t>(meta & 0xFFFFFFFFu);
  out.ring = ring.id;
  std::memcpy(out.tag, &t0, 8);
  std::memcpy(out.tag + 8, &t1, 8);
  out.tag[kFlightTagCap] = '\0';
  return true;
}

}  // namespace

std::vector<FlightEvent> flight_snapshot() {
  std::vector<FlightEvent> out;
  const int n = std::min(g_ring_count.load(std::memory_order_relaxed), kMaxRings);
  for (int i = 0; i < n; ++i) {
    const FlightRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (!ring) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t lo = head > kFlightCapacity ? head - kFlightCapacity : 0;
    for (std::uint64_t e = lo; e < head; ++e) {
      FlightEvent ev;
      if (decode_slot(*ring, e, ev)) out.push_back(ev);
    }
  }
  return out;
}

std::uint64_t flight_recorded() {
  std::uint64_t total = 0;
  const int n = std::min(g_ring_count.load(std::memory_order_relaxed), kMaxRings);
  for (int i = 0; i < n; ++i)
    if (const FlightRing* ring = g_rings[i].load(std::memory_order_acquire))
      total += ring->head.load(std::memory_order_relaxed);
  return total;
}

void flight_clear() {
  const int n = std::min(g_ring_count.load(std::memory_order_relaxed), kMaxRings);
  for (int i = 0; i < n; ++i)
    if (FlightRing* ring = g_rings[i].load(std::memory_order_acquire)) {
      // Invalidate every slot, then rewind. Slot order matters: a concurrent
      // reader must never see stale payload under a fresh head.
      for (auto& s : ring->slots) s.seq.store(0, std::memory_order_release);
      ring->head.store(0, std::memory_order_release);
    }
}

// ---------------------------------------------------------------------------
// Watchdog

namespace {

struct SourceTrack {
  Source* src = nullptr;
  std::uint64_t last_progress = 0;
  std::uint64_t last_change_ns = 0;
  bool fired = false;  ///< one verdict per stall episode
};

struct Watchdog {
  std::mutex mu;  // sources + tracking; held while inspecting a source
  std::condition_variable cv;
  std::vector<SourceTrack> tracks;
  std::thread thread;
  bool running = false;
  std::atomic<std::uint64_t> deadline_ms{0};
  std::atomic<std::uint64_t> fires{0};
  std::mutex verdict_mu;
  std::string verdict;
};

Watchdog& dog() {
  static Watchdog* w = new Watchdog;  // leaked: sources may outlive main
  return *w;
}

void watchdog_fire(Watchdog& w, SourceTrack& t, std::uint64_t now,
                   std::uint64_t deadline) {
  t.fired = true;
  w.fires.fetch_add(1, std::memory_order_relaxed);
  std::ostringstream os;
  os << "watchdog: source '" << t.src->source_name() << "' made no progress for "
     << (now - t.last_change_ns) / 1000000 << " ms (deadline " << deadline
     << " ms)\n" << t.src->describe_stall();
  const std::string verdict = os.str();
  {
    std::lock_guard<std::mutex> lk(w.verdict_mu);
    w.verdict = verdict;
  }
  FMMFFT_COUNT("health.watchdog.fired", 1);
  std::fprintf(stderr, "fmmfft: %s\n", verdict.c_str());
  const std::string path = emit_postmortem("watchdog", verdict);
  if (!path.empty())
    std::fprintf(stderr, "fmmfft: postmortem written to %s\n", path.c_str());
}

void watchdog_loop() {
  Watchdog& w = dog();
  std::unique_lock<std::mutex> lk(w.mu);
  for (;;) {
    const std::uint64_t deadline = w.deadline_ms.load(std::memory_order_relaxed);
    if (deadline == 0) return;
    // Poll a few times per deadline so detection latency stays well under 2x.
    const auto poll = std::chrono::milliseconds(
        std::max<std::uint64_t>(1, std::min<std::uint64_t>(deadline / 4, 250)));
    w.cv.wait_for(lk, poll);
    if (w.deadline_ms.load(std::memory_order_relaxed) == 0) return;
    const std::uint64_t now = obs::detail::now_ns();
    for (SourceTrack& t : w.tracks) {
      const std::uint64_t p = t.src->progress();
      if (p != t.last_progress) {
        t.last_progress = p;
        t.last_change_ns = now;
        t.fired = false;
      } else if (!t.fired && now - t.last_change_ns > deadline * 1000000ull) {
        watchdog_fire(w, t, now, deadline);
      }
    }
  }
}

}  // namespace

void register_source(Source* s) {
  Watchdog& w = dog();
  std::lock_guard<std::mutex> lk(w.mu);
  w.tracks.push_back({s, s->progress(), obs::detail::now_ns(), false});
}

void unregister_source(Source* s) {
  Watchdog& w = dog();
  std::lock_guard<std::mutex> lk(w.mu);  // blocks while an inspection runs
  w.tracks.erase(std::remove_if(w.tracks.begin(), w.tracks.end(),
                                [s](const SourceTrack& t) { return t.src == s; }),
                 w.tracks.end());
}

void enable_watchdog(std::uint64_t deadline_ms) {
  Watchdog& w = dog();
  std::thread finished;
  {
    std::lock_guard<std::mutex> lk(w.mu);
    w.deadline_ms.store(deadline_ms, std::memory_order_relaxed);
    if (deadline_ms > 0) {
      // A deadline verdict without history is useless: arm the recorder and
      // the dump path along with the detector.
      enable_flight(true);
      arm_postmortem(true);
      // Restart tracking so a source idle since long ago isn't an instant fire.
      const std::uint64_t now = obs::detail::now_ns();
      for (SourceTrack& t : w.tracks) {
        t.last_progress = t.src->progress();
        t.last_change_ns = now;
        t.fired = false;
      }
      if (!w.running) {
        w.running = true;
        w.thread = std::thread(watchdog_loop);
      }
    } else if (w.running) {
      w.running = false;
      finished = std::move(w.thread);
    }
  }
  w.cv.notify_all();
  if (finished.joinable()) finished.join();
}

bool watchdog_enabled() {
  return dog().deadline_ms.load(std::memory_order_relaxed) > 0;
}

std::uint64_t watchdog_deadline_ms() {
  return dog().deadline_ms.load(std::memory_order_relaxed);
}

std::uint64_t watchdog_fires() { return dog().fires.load(std::memory_order_relaxed); }

std::string last_verdict() {
  Watchdog& w = dog();
  std::lock_guard<std::mutex> lk(w.verdict_mu);
  return w.verdict;
}

// ---------------------------------------------------------------------------
// Span sampler

namespace {

constexpr int kMaxSlots = 128;
constexpr int kSpanDepthMax = 12;
constexpr int kSpanWords = 5;  // 40 chars, matches SpanEvent::kNameCap

struct SpanSlot {
  std::atomic<std::uint32_t> ver{0};
  std::atomic<int> depth{0};
  std::atomic<std::uint64_t> words[kSpanDepthMax][kSpanWords] = {};
  int own_depth = 0;  ///< owner-thread logical depth (may exceed kSpanDepthMax)
};

std::atomic<SpanSlot*> g_slots[kMaxSlots] = {};
std::atomic<int> g_slot_count{0};
thread_local SpanSlot* tls_slot = nullptr;
thread_local bool tls_slot_denied = false;

SpanSlot* span_slot() {
  if (tls_slot) return tls_slot;
  if (tls_slot_denied) return nullptr;
  const int idx = g_slot_count.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kMaxSlots) {
    tls_slot_denied = true;
    return nullptr;
  }
  auto* slot = new SpanSlot;  // leaked: must outlive the sampler thread
  g_slots[idx].store(slot, std::memory_order_release);
  return tls_slot = slot;
}

struct Sampler {
  std::mutex mu;  // counts + thread management
  std::condition_variable cv;
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t samples = 0;
  std::thread thread;
  bool running = false;
  std::atomic<double> hz{0.0};
};

Sampler& sampler() {
  static Sampler* s = new Sampler;
  return *s;
}

/// Read slot's innermost open span name; "" when idle, nullopt-style false
/// on persistent tearing (counted as idle).
bool read_innermost(const SpanSlot& slot, char (&buf)[8 * kSpanWords + 1]) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::uint32_t v1 = slot.ver.load(std::memory_order_acquire);
    if (v1 % 2) continue;
    const int d = slot.depth.load(std::memory_order_relaxed);
    if (d <= 0) {
      buf[0] = '\0';
      return true;
    }
    const int top = std::min(d, kSpanDepthMax) - 1;
    std::uint64_t words[kSpanWords];
    for (int i = 0; i < kSpanWords; ++i)
      words[i] = slot.words[top][i].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.ver.load(std::memory_order_relaxed) != v1) continue;
    std::memcpy(buf, words, sizeof words);
    buf[8 * kSpanWords] = '\0';
    return true;
  }
  return false;
}

void sampler_loop() {
  Sampler& s = sampler();
  std::unique_lock<std::mutex> lk(s.mu);
  for (;;) {
    const double hz = s.hz.load(std::memory_order_relaxed);
    if (hz <= 0) return;
    const auto period = std::chrono::microseconds(
        std::max<long>(1000, std::min<long>(long(1e6 / hz), 1000000)));
    s.cv.wait_for(lk, period);
    if (s.hz.load(std::memory_order_relaxed) <= 0) return;
    const int n = std::min(g_slot_count.load(std::memory_order_relaxed), kMaxSlots);
    for (int i = 0; i < n; ++i) {
      const SpanSlot* slot = g_slots[i].load(std::memory_order_acquire);
      if (!slot) continue;
      char name[8 * kSpanWords + 1];
      if (!read_innermost(*slot, name) || !name[0])
        ++s.counts["(idle)"];
      else
        ++s.counts[name];
      ++s.samples;
    }
  }
}

}  // namespace

namespace detail {

void span_push(const char* name) {
  SpanSlot* slot = span_slot();
  if (!slot) return;
  const int d = slot->own_depth++;
  if (d >= kSpanDepthMax) {
    slot->depth.store(slot->own_depth, std::memory_order_release);
    return;
  }
  char buf[8 * kSpanWords] = {};
  std::strncpy(buf, name, sizeof buf - 1);
  std::uint64_t words[kSpanWords];
  std::memcpy(words, buf, sizeof buf);
  slot->ver.fetch_add(1, std::memory_order_release);
  for (int i = 0; i < kSpanWords; ++i)
    slot->words[d][i].store(words[i], std::memory_order_relaxed);
  slot->depth.store(slot->own_depth, std::memory_order_relaxed);
  slot->ver.fetch_add(1, std::memory_order_release);
}

void span_pop() {
  SpanSlot* slot = tls_slot;
  if (!slot || slot->own_depth <= 0) return;
  slot->depth.store(--slot->own_depth, std::memory_order_release);
}

}  // namespace detail

void enable_sampler(double hz) {
  Sampler& s = sampler();
  std::thread finished;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.hz.store(hz > 0 ? hz : 0.0, std::memory_order_relaxed);
    if (hz > 0) {
      detail::g_sampling_enabled.store(true, std::memory_order_relaxed);
      obs::detail::update_span_hooks();
      if (!s.running) {
        s.running = true;
        s.thread = std::thread(sampler_loop);
      }
    } else {
      detail::g_sampling_enabled.store(false, std::memory_order_relaxed);
      obs::detail::update_span_hooks();
      if (s.running) {
        s.running = false;
        finished = std::move(s.thread);
      }
    }
  }
  s.cv.notify_all();
  if (finished.joinable()) finished.join();
}

bool sampler_enabled() { return sampler().hz.load(std::memory_order_relaxed) > 0; }

std::map<std::string, std::uint64_t> sampler_snapshot() {
  Sampler& s = sampler();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.counts;
}

std::uint64_t sampler_samples() {
  Sampler& s = sampler();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.samples;
}

void sampler_clear() {
  Sampler& s = sampler();
  std::lock_guard<std::mutex> lk(s.mu);
  s.counts.clear();
  s.samples = 0;
}

// ---------------------------------------------------------------------------
// Postmortem

namespace {

std::mutex g_pm_mu;
std::string g_pm_path;  // "" = default
std::atomic<bool> g_pm_armed{false};
// Signal-handler copy of the resolved path: plain chars, set before any
// handler can run, read-only afterwards.
char g_sig_path[1024] = "fmmfft.postmortem.json";

void write_flight_json(JsonWriter& jw) {
  jw.key("flight");
  jw.begin_object();
  jw.kv("recorded", double(flight_recorded()));
  jw.kv("rings", double(std::min(g_ring_count.load(std::memory_order_relaxed), kMaxRings)));
  jw.kv("ring_overflow", double(g_ring_overflow.load(std::memory_order_relaxed)));
  jw.key("events");
  jw.begin_array();
  for (const FlightEvent& ev : flight_snapshot()) {
    jw.begin_object();
    jw.kv("ring", double(ev.ring));
    jw.kv("seq", double(ev.seq));
    jw.kv("t_ns", double(ev.t_ns));
    jw.kv("kind", ev_name(ev.kind));
    jw.kv("a", double(ev.a));
    jw.kv("lane", double(ev.lane));
    jw.kv("tag", ev.tag);
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();
}

}  // namespace

std::string postmortem_path() {
  std::lock_guard<std::mutex> lk(g_pm_mu);
  return g_pm_path.empty() ? "fmmfft.postmortem.json" : g_pm_path;
}

void set_postmortem_path(const std::string& path) {
  std::lock_guard<std::mutex> lk(g_pm_mu);
  g_pm_path = path;
  if (!path.empty()) {
    std::strncpy(g_sig_path, path.c_str(), sizeof g_sig_path - 1);
    g_sig_path[sizeof g_sig_path - 1] = '\0';
  }
}

bool postmortem_armed() { return g_pm_armed.load(std::memory_order_relaxed); }
void arm_postmortem(bool on) { g_pm_armed.store(on, std::memory_order_relaxed); }

bool write_postmortem(const std::string& path, const std::string& cause,
                      const std::string& verdict) {
  std::ofstream os(path);
  if (!os) return false;
  JsonWriter jw(os);
  jw.begin_object();
  jw.kv("schema", "fmmfft.postmortem.v1");
  jw.kv("cause", cause);
  jw.kv("verdict", verdict);
  jw.kv("t_ns", double(obs::detail::now_ns()));
  jw.key("watchdog");
  jw.begin_object();
  jw.kv("deadline_ms", double(watchdog_deadline_ms()));
  jw.kv("fires", double(watchdog_fires()));
  jw.end_object();
  write_flight_json(jw);
  jw.key("sampler");
  jw.begin_object();
  jw.kv("samples", double(sampler_samples()));
  jw.key("spans");
  jw.begin_object();
  for (const auto& [name, count] : sampler_snapshot()) jw.kv(name, double(count));
  jw.end_object();
  jw.end_object();
  {
    std::ostringstream metrics;
    Metrics::global().write_json(metrics);
    jw.key("metrics");
    jw.raw_value(metrics.str());
  }
  {
    std::ostringstream traffic;
    TrafficLedger::global().write_json(traffic);
    jw.key("traffic");
    jw.raw_value(traffic.str());
  }
  jw.end_object();
  os << "\n";
  return bool(os);
}

std::string emit_postmortem(const std::string& cause, const std::string& verdict) {
  if (!postmortem_armed()) return "";
  const std::string path = postmortem_path();
  return write_postmortem(path, cause, verdict) ? path : "";
}

// ---------------------------------------------------------------------------
// Fatal-signal path: write(2) + hand-rolled formatting only. No allocation,
// no locks, no stdio — the flight rings are plain atomics, so walking them
// here is legal where the map-backed registries are not.

namespace detail {
namespace {

struct SigWriter {
  int fd;
  void str(const char* s) {
    std::size_t n = 0;
    while (s[n]) ++n;
    raw(s, n);
  }
  void raw(const char* s, std::size_t n) {
    std::size_t off = 0;
    while (off < n) {
      const ssize_t w = ::write(fd, s + off, n - off);
      if (w <= 0) return;
      off += std::size_t(w);
    }
  }
  void u64(std::uint64_t v) {
    char buf[24];
    int i = sizeof buf;
    do {
      buf[--i] = char('0' + v % 10);
      v /= 10;
    } while (v);
    raw(buf + i, sizeof buf - i);
  }
  /// Quoted JSON string; non-printable / quote / backslash become '.'.
  void qstr(const char* s) {
    str("\"");
    for (; *s; ++s) {
      const char c = (*s < 0x20 || *s == '"' || *s == '\\') ? '.' : *s;
      raw(&c, 1);
    }
    str("\"");
  }
};

}  // namespace

void write_signal_dump(int sig) {
  const int fd = ::open(g_sig_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  SigWriter w{fd};
  w.str("{\"schema\":\"fmmfft.postmortem.v1\",\"cause\":\"signal\",\"signal\":");
  w.u64(std::uint64_t(sig));
  w.str(",\"verdict\":");
  w.qstr(sig == SIGSEGV ? "fatal signal SIGSEGV"
         : sig == SIGABRT ? "fatal signal SIGABRT"
                          : "fatal signal");
  w.str(",\"flight\":{\"recorded\":");
  w.u64(flight_recorded());
  w.str(",\"events\":[");
  bool first = true;
  const int n = std::min(g_ring_count.load(std::memory_order_relaxed), kMaxRings);
  for (int i = 0; i < n; ++i) {
    const FlightRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (!ring) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t lo = head > kFlightCapacity ? head - kFlightCapacity : 0;
    for (std::uint64_t e = lo; e < head; ++e) {
      FlightEvent ev;
      if (!decode_slot(*ring, e, ev)) continue;
      if (!first) w.str(",");
      first = false;
      w.str("{\"ring\":");
      w.u64(std::uint64_t(ev.ring));
      w.str(",\"seq\":");
      w.u64(ev.seq);
      w.str(",\"t_ns\":");
      w.u64(ev.t_ns);
      w.str(",\"kind\":");
      w.qstr(ev_name(ev.kind));
      w.str(",\"a\":");
      w.u64(ev.a);
      w.str(",\"lane\":");
      w.u64(std::uint64_t(ev.lane));
      w.str(",\"tag\":");
      w.qstr(ev.tag);
      w.str("}");
    }
  }
  w.str("]}}\n");
  ::close(fd);
}

}  // namespace detail

namespace {

void crash_handler(int sig) {
  // Disposition already reset by SA_RESETHAND; dump, then let the default
  // action terminate the process with the original signal.
  detail::write_signal_dump(sig);
  ::raise(sig);
}

}  // namespace

void install_crash_handlers() {
  obs::detail::now_ns();  // initialize the epoch outside any handler
  {
    std::lock_guard<std::mutex> lk(g_pm_mu);
    const std::string& p = g_pm_path;
    if (!p.empty()) {
      std::strncpy(g_sig_path, p.c_str(), sizeof g_sig_path - 1);
      g_sig_path[sizeof g_sig_path - 1] = '\0';
    }
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = crash_handler;
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
}

// ---------------------------------------------------------------------------
// Environment-driven setup

void init_from_env() {
  static bool done = false;
  if (done) return;
  done = true;
  if (env::get_int("FMMFFT_FLIGHT", 0) > 0) enable_flight(true);
  const long long watchdog_ms = env::get_int("FMMFFT_WATCHDOG_MS", 0);
  const double sample_hz = env::get_double("FMMFFT_SAMPLE_HZ", 0.0);
  const char* pm = env::get("FMMFFT_POSTMORTEM");
  if (pm && *pm) {
    set_postmortem_path(pm);
    arm_postmortem(true);
    enable_flight(true);
    install_crash_handlers();
  }
  if (watchdog_ms > 0) enable_watchdog(std::uint64_t(watchdog_ms));
  if (sample_hz > 0) enable_sampler(sample_hz);
}

namespace {
// Any TU using the FMMFFT_FLIGHT hook references detail::g_flight_enabled,
// which pulls this object file — and this initializer — into the link.
[[maybe_unused]] const bool g_health_initialized = [] {
  init_from_env();
  return true;
}();
}  // namespace

}  // namespace fmmfft::obs::health
