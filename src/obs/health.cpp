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

// ---------------------------------------------------------------------------
// Flight recorder: a view of the obs event rings

void enable_flight(bool on) { obs::detail::set_gate(obs::detail::kFlight, on); }
std::vector<RingEvent> flight_snapshot() { return Recorder::global().events(); }
std::uint64_t flight_recorded() { return Recorder::global().recorded(); }
void flight_clear() { Recorder::global().clear(); }

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
    for (const std::string& name : Recorder::global().open_spans()) {
      ++s.counts[name.empty() ? "(idle)" : name];
      ++s.samples;
    }
  }
}

}  // namespace

void enable_sampler(double hz) {
  Sampler& s = sampler();
  std::thread finished;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.hz.store(hz > 0 ? hz : 0.0, std::memory_order_relaxed);
    obs::detail::set_gate(obs::detail::kSample, hz > 0);
    if (hz > 0) {
      if (!s.running) {
        s.running = true;
        s.thread = std::thread(sampler_loop);
      }
    } else {
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
/// "" = default. A function static, not a namespace-scope string: obs.cpp's
/// initializer sets it from FMMFFT_POSTMORTEM, possibly before this file's
/// dynamic initializers run.
std::string& pm_path() {
  static std::string path;
  return path;
}
std::atomic<bool> g_pm_armed{false};
// Signal-handler copy of the resolved path: plain chars, set before any
// handler can run, read-only afterwards.
char g_sig_path[1024] = "fmmfft.postmortem.json";

void write_flight_json(JsonWriter& jw) {
  const Recorder& rec = Recorder::global();
  jw.key("flight");
  jw.begin_object();
  jw.kv("recorded", double(rec.recorded()));
  jw.kv("rings", double(rec.lanes()));
  jw.kv("ring_overflow", double(rec.dropped()));
  jw.key("events");
  jw.begin_array();
  for (const RingEvent& ev : rec.events()) {
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
  return pm_path().empty() ? "fmmfft.postmortem.json" : pm_path();
}

void set_postmortem_path(const std::string& path) {
  std::lock_guard<std::mutex> lk(g_pm_mu);
  pm_path() = path;
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
// no locks, no stdio — the event rings are plain atomics, so walking them
// here is legal where the map-backed registries are not.

namespace detail {
namespace {

/// Buffered on the stack: a full ring is tens of thousands of events.
struct SigWriter {
  int fd;
  char buf[4096];
  std::size_t len = 0;
  void str(const char* s) {
    std::size_t n = 0;
    while (s[n]) ++n;
    raw(s, n);
  }
  void raw(const char* s, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (len == sizeof buf) flush();
      buf[len++] = s[i];
    }
  }
  void flush() {
    for (std::size_t off = 0; off < len;) {
      const ssize_t w = ::write(fd, buf + off, len - off);
      if (w <= 0) break;
      off += std::size_t(w);
    }
    len = 0;
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
  SigWriter w{fd, {}};
  w.str("{\"schema\":\"fmmfft.postmortem.v1\",\"cause\":\"signal\",\"signal\":");
  w.u64(std::uint64_t(sig));
  w.str(",\"verdict\":");
  w.qstr(sig == SIGSEGV ? "fatal signal SIGSEGV"
         : sig == SIGABRT ? "fatal signal SIGABRT"
                          : "fatal signal");
  w.str(",\"flight\":{\"recorded\":");
  w.u64(Recorder::global().recorded());
  w.str(",\"events\":[");
  struct Ctx {
    SigWriter& w;
    bool first = true;
  } ctx{w};
  Recorder::global().visit(
      [](const RingEvent& ev, void* p) {
        auto& c = *static_cast<Ctx*>(p);
        c.w.str(c.first ? "{\"ring\":" : ",{\"ring\":");
        c.first = false;
        c.w.u64(std::uint64_t(ev.ring));
        c.w.str(",\"seq\":");
        c.w.u64(ev.seq);
        c.w.str(",\"t_ns\":");
        c.w.u64(ev.t_ns);
        c.w.str(",\"kind\":");
        c.w.qstr(ev_name(ev.kind));
        c.w.str(",\"a\":");
        c.w.u64(ev.a);
        c.w.str(",\"lane\":");
        c.w.u64(std::uint64_t(ev.lane));
        c.w.str(",\"tag\":");
        c.w.qstr(ev.tag);
        c.w.str("}");
      },
      &ctx);
  w.str("]}}\n");
  w.flush();
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
    const std::string& p = pm_path();
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

}  // namespace fmmfft::obs::health
