// Tests for the observability subsystem: span recording and nesting across
// threads, striped-counter arithmetic under parallel_for, JSON validity of
// both exporters, the zero-allocation disabled path, and the
// model-vs-measured cross-check on a real distributed run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "dist/dfmmfft.hpp"
#include "json_validator.hpp"
#include "obs/compare.hpp"
#include "obs/health.hpp"
#include "obs/obs.hpp"
#include "obs/trace_writer.hpp"

// Global allocation counter for the disabled-path test. Counting every
// operator new in the binary is fine; the test only compares deltas.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

// GCC pairs new/delete at call sites and flags free() here even though the
// replaced operator new above allocates with malloc; the pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t sz) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace fmmfft::obs {
namespace {

using fmmfft::testing::JsonValidator;

/// RAII: enable the requested facilities on a clean slate, disable + wipe on
/// exit so tests don't leak state into each other.
struct ObsSession {
  explicit ObsSession(bool trace, bool metrics) {
    disable();
    reset();
    if (trace) enable_tracing(true);
    if (metrics) enable_metrics(true);
  }
  ~ObsSession() {
    disable();
    reset();
  }
};

TEST(Span, NestingDepthAndContainment) {
  ObsSession s(true, false);
  {
    FMMFFT_SPAN("outer");
    { FMMFFT_SPAN("inner"); }
    { FMMFFT_SPAN("prefix:", std::string("tag")); }
  }
  auto evs = Recorder::global().snapshot();
  ASSERT_EQ(evs.size(), 3u);
  // snapshot sorts by (lane, start): outer first.
  EXPECT_STREQ(evs[0].name, "outer");
  EXPECT_EQ(evs[0].depth, 0);
  EXPECT_STREQ(evs[1].name, "inner");
  EXPECT_EQ(evs[1].depth, 1);
  EXPECT_STREQ(evs[2].name, "prefix:tag");
  EXPECT_EQ(evs[2].depth, 1);
  for (int i = 1; i <= 2; ++i) {
    EXPECT_GE(evs[i].start_ns, evs[0].start_ns);
    EXPECT_LE(evs[i].end_ns, evs[0].end_ns);
  }
  EXPECT_EQ(Recorder::global().dropped(), 0u);
}

TEST(Span, ThreadsGetDistinctLanesAndStaySorted) {
  ObsSession s(true, false);
  constexpr int kThreads = 4, kSpans = 100;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) { FMMFFT_SPAN("w"); }
    });
  for (auto& t : ts) t.join();
  auto evs = Recorder::global().snapshot();
  EXPECT_EQ(evs.size(), std::size_t(kThreads * kSpans));
  // Per lane: exactly kSpans events, starts non-decreasing, no overlap of
  // same-depth spans (they are sequential on one thread).
  std::map<int, std::vector<SpanEvent>> by_lane;
  for (const auto& e : evs) by_lane[e.lane].push_back(e);
  for (const auto& [lane, l] : by_lane) {
    EXPECT_EQ(l.size(), std::size_t(kSpans)) << "lane " << lane;
    for (std::size_t i = 1; i < l.size(); ++i) {
      EXPECT_GE(l[i].start_ns, l[i - 1].start_ns);
      EXPECT_GE(l[i].start_ns, l[i - 1].end_ns);  // sequential, depth 0
    }
  }
}

TEST(Span, LongNamesAreTruncatedNotOverflowed) {
  ObsSession s(true, false);
  const std::string big(100, 'x');
  { FMMFFT_SPAN("p:", big); }
  auto evs = Recorder::global().snapshot();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(std::string(evs[0].name).size(), std::size_t(SpanEvent::kNameCap - 1));
}

TEST(Span, ClearDuringRecordKeepsNoOldSpans) {
  // clear() must not race a recording thread: after clear-then-snapshot, at
  // most one span per writer starts before the clear (the one straddling it).
  ObsSession s(true, false);
  std::atomic<bool> stop{false};
  std::thread writer([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      FMMFFT_SPAN("churn");
    }
  });
  int bad_rounds = 0;
  std::size_t worst = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::uint64_t t_clear = detail::now_ns();
    Recorder::global().clear();
    std::size_t old = 0;
    for (const SpanEvent& e : Recorder::global().snapshot()) old += e.start_ns < t_clear;
    if (old > 1) {
      ++bad_rounds;
      worst = std::max(worst, old);
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(bad_rounds, 0) << "a round kept up to " << worst << " pre-clear spans";
}

TEST(Span, SharesItsThreadsRingWithFlightEvents) {
  ObsSession s(true, false);
  const bool flight_was_on = health::flight_enabled();
  health::enable_flight(true);
  {
    FMMFFT_SPAN("ring-span");
    FMMFFT_FLIGHT(Mark, 5, 0, "ring-mark");
  }
  health::enable_flight(flight_was_on);
  const auto spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  std::vector<RingEvent> mine;
  for (const RingEvent& ev : Recorder::global().events())
    if (ev.ring == spans[0].lane) mine.push_back(ev);
  // Open, mark, close: one ring, in recording order.
  ASSERT_EQ(mine.size(), 3u);
  EXPECT_EQ(mine[0].kind, Ev::SpanOpen);
  EXPECT_STREQ(mine[0].tag, "ring-span");
  EXPECT_EQ(mine[1].kind, Ev::Mark);
  EXPECT_STREQ(mine[1].tag, "ring-mark");
  EXPECT_EQ(mine[2].kind, Ev::SpanClose);
  EXPECT_EQ(mine[0].t_ns, spans[0].start_ns);
  EXPECT_EQ(mine[2].t_ns, spans[0].end_ns);
}

TEST(Counter, ParallelForArithmetic) {
  ObsSession s(false, true);
  const index_t n = 200000;
  parallel_for(
      n,
      [](index_t b, index_t e) {
        for (index_t i = b; i < e; ++i) FMMFFT_COUNT("test.iters", 1);
      },
      /*grain=*/64);
  EXPECT_DOUBLE_EQ(Metrics::global().counter("test.iters").value(), double(n));

  // Direct striped-counter hammering from raw threads.
  Counter c;
  std::vector<std::thread> ts;
  for (int t = 0; t < 8; ++t)
    ts.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add(1.0);
    });
  for (auto& t : ts) t.join();
  EXPECT_DOUBLE_EQ(c.value(), 80000.0);
  c.reset();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(Metrics, PrefixSumAndReset) {
  ObsSession s(false, true);
  Metrics::global().counter("a.x").add(1);
  Metrics::global().counter("a.y").add(2);
  Metrics::global().counter("b.z").add(4);
  EXPECT_DOUBLE_EQ(Metrics::global().counters_with_prefix("a."), 3.0);
  EXPECT_DOUBLE_EQ(Metrics::global().counters_with_prefix(""), 7.0);
  Metrics::global().reset();
  EXPECT_DOUBLE_EQ(Metrics::global().counters_with_prefix(""), 0.0);
  // Instruments survive a reset; references stay valid.
  EXPECT_DOUBLE_EQ(Metrics::global().counter("a.x").value(), 0.0);
}

TEST(Metrics, HistogramBuckets) {
  Histogram h;
  h.observe(0.5);   // bucket 0: [0, 1)
  h.observe(1.0);   // bucket 1: [1, 2)
  h.observe(3.0);   // bucket 2: [2, 4)
  h.observe(1024);  // bucket 11: [1024, 2048)
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1028.5);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(11), 1u);
}

TEST(Metrics, HistogramPercentiles) {
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);

  // 100 identical samples land in bucket 1 = [1, 2): percentiles interpolate
  // linearly across that bucket.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(1.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 1.5);
  EXPECT_DOUBLE_EQ(h.percentile(95), 1.95);
  EXPECT_DOUBLE_EQ(h.percentile(99), 1.99);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 2.0);

  // Two buckets, 50/50 split: the median sits exactly at the boundary and
  // the tail percentiles walk into the upper bucket [4, 8).
  Histogram h2;
  for (int i = 0; i < 50; ++i) h2.observe(1.0);  // bucket 1: [1, 2)
  for (int i = 0; i < 50; ++i) h2.observe(4.0);  // bucket 3: [4, 8)
  EXPECT_DOUBLE_EQ(h2.percentile(50), 2.0);
  EXPECT_DOUBLE_EQ(h2.percentile(75), 6.0);
  EXPECT_DOUBLE_EQ(h2.percentile(99), 4.0 + 0.98 * 4.0);

  // The JSON export carries the percentile summary.
  ObsSession s(false, true);
  for (int i = 0; i < 4; ++i) Metrics::global().histogram("pct.h").observe(1.0);
  std::ostringstream os;
  Metrics::global().write_json(os);
  EXPECT_TRUE(JsonValidator(os.str()).valid()) << os.str();
  EXPECT_NE(os.str().find("\"p50\""), std::string::npos);
  EXPECT_NE(os.str().find("\"p95\""), std::string::npos);
  EXPECT_NE(os.str().find("\"p99\""), std::string::npos);
}

TEST(Metrics, HistogramDegenerateInputsStayFinite) {
  // Empty histogram: every percentile is 0, never NaN.
  Histogram empty;
  for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_TRUE(std::isfinite(empty.percentile(p))) << p;
    EXPECT_DOUBLE_EQ(empty.percentile(p), 0.0);
  }

  // Single sample: percentiles interpolate within one bucket, all finite.
  Histogram one;
  one.observe(3.0);
  EXPECT_EQ(one.count(), 1u);
  for (double p : {0.0, 50.0, 99.0, 100.0}) EXPECT_TRUE(std::isfinite(one.percentile(p))) << p;
  EXPECT_GE(one.percentile(50), 2.0);
  EXPECT_LE(one.percentile(50), 4.0);

  // NaN observations are dropped; infinities clamp to the top bucket
  // instead of overflowing ilogb into UB, and the sum stays finite.
  Histogram weird;
  weird.observe(std::nan(""));
  EXPECT_EQ(weird.count(), 0u);
  weird.observe(std::numeric_limits<double>::infinity());
  weird.observe(-1.0);  // negative: below-one bucket
  EXPECT_EQ(weird.count(), 2u);
  EXPECT_TRUE(std::isfinite(weird.sum()));
  EXPECT_TRUE(std::isfinite(weird.percentile(99)));
  EXPECT_TRUE(std::isfinite(weird.percentile(std::nan(""))));

  // The JSON emitter stays loadable with a registered-but-empty histogram.
  ObsSession s(false, true);
  Metrics::global().histogram("empty.h");
  Metrics::global().histogram("single.h").observe(1.0);
  std::ostringstream os;
  Metrics::global().write_json(os);
  EXPECT_TRUE(JsonValidator(os.str()).valid()) << os.str();
  EXPECT_EQ(os.str().find("nan"), std::string::npos);
  EXPECT_EQ(os.str().find("inf"), std::string::npos);
}

TEST(Json, ExportersEmitValidJson) {
  ObsSession s(true, true);
  {
    FMMFFT_SPAN("needs \"escaping\"\n");
    FMMFFT_COUNT("json.count", 3.5);
  }
  Metrics::global().gauge("json.gauge").set(-2.25);
  Metrics::global().histogram("json.hist").observe(7);

  std::ostringstream trace;
  Recorder::global().write_chrome_trace(trace);
  EXPECT_TRUE(JsonValidator(trace.str()).valid()) << trace.str();
  EXPECT_NE(trace.str().find("\"ph\": \"X\""), std::string::npos);

  std::ostringstream metrics;
  Metrics::global().write_json(metrics);
  EXPECT_TRUE(JsonValidator(metrics.str()).valid()) << metrics.str();
  EXPECT_NE(metrics.str().find("json.count"), std::string::npos);
  EXPECT_NE(metrics.str().find("json.gauge"), std::string::npos);
  EXPECT_NE(metrics.str().find("json.hist"), std::string::npos);
}

TEST(Json, ControlCharsAndNonAsciiBytesInLabels) {
  ObsSession s(true, false);
  {
    // Control characters must come out as \u00XX escapes; bytes >= 0x80
    // (e.g. UTF-8 multibyte sequences) must pass through untouched.
    FMMFFT_SPAN("ctl:", std::string("\x01\x02\x1f bell\x07"));
    FMMFFT_SPAN("utf8:", std::string("\xc3\xa9\xe2\x86\x92"));  // é→
  }
  std::ostringstream os;
  Recorder::global().write_chrome_trace(os);
  const std::string t = os.str();
  EXPECT_TRUE(JsonValidator(t).valid()) << t;
  EXPECT_NE(t.find("\\u0001"), std::string::npos);
  EXPECT_NE(t.find("\\u0002"), std::string::npos);
  EXPECT_NE(t.find("\\u001f"), std::string::npos);
  EXPECT_NE(t.find("\\u0007"), std::string::npos);
  EXPECT_NE(t.find("\xc3\xa9"), std::string::npos);
  // No raw control byte may survive into the output.
  for (const char c : t) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
}

TEST(Json, EmptyTraceDumpIsAnEmptyArray) {
  ObsSession s(true, false);
  std::ostringstream os;
  Recorder::global().write_chrome_trace(os);
  EXPECT_EQ(os.str(), "[]");
  EXPECT_TRUE(JsonValidator(os.str()).valid());
}

TEST(Json, ConcurrentRecordWhileDumpStaysValid) {
  ObsSession s(true, false);
  std::atomic<bool> stop{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < 3; ++t)
    ts.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        FMMFFT_SPAN("churn");
      }
    });
  // Dump repeatedly while the writers churn and their rings wrap: every
  // dump must be valid JSON, and every snapshot self-consistent (completed
  // spans only, ordered by start within each lane).
  for (int i = 0; i < 20; ++i) {
    std::ostringstream os;
    Recorder::global().write_chrome_trace(os);
    EXPECT_TRUE(JsonValidator(os.str()).valid()) << os.str();
    const auto evs = Recorder::global().snapshot();
    for (std::size_t k = 0; k < evs.size(); ++k) {
      EXPECT_GE(evs[k].end_ns, evs[k].start_ns);
      if (k == 0) continue;
      EXPECT_GE(evs[k].lane, evs[k - 1].lane);
      if (evs[k].lane == evs[k - 1].lane) {
        EXPECT_GE(evs[k].start_ns, evs[k - 1].start_ns);
      }
    }
  }
  stop.store(true);
  for (auto& t : ts) t.join();
}

TEST(Disabled, HooksDoNotAllocate) {
  disable();
  health::enable_flight(false);
  reset();
  // Warm up: make sure any lazy TLS setup behind the hooks has happened.
  { FMMFFT_SPAN("warm"); }
  FMMFFT_COUNT("warm", 1);
  FMMFFT_FLIGHT(Mark, 0, 0, "warm");
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    FMMFFT_SPAN("disabled");
    FMMFFT_SPAN("disabled:", std::string());  // suffix form short-circuits too
    FMMFFT_COUNT("disabled.count", i);
    FMMFFT_FLIGHT(Mark, i, 0, "disabled");
  }
  EXPECT_EQ(g_allocs.load(), before);
}

TEST(Compare, ModelMatchesMeasuredOnDistributedRun) {
  ObsSession s(false, true);
  const fmm::Params prm{1 << 14, 64, 8, 2, 18};
  const int g = 2;
  using In = std::complex<double>;
  std::vector<In> x(std::size_t(prm.n)), y(x.size());
  fill_uniform(x.data(), prm.n, 7);
  dist::DistFmmFft<In> plan(prm, g);
  plan.execute(x.data(), y.data());

  // The plan honors the ambient FMMFFT_PRECISION (CI runs a mixed leg),
  // so hand the model the matching translation width.
  const double tb = fmm::translation_real_bytes(fmm::default_precision(), sizeof(double));
  const auto report = compare_with_model(prm, /*components=*/2, g, sizeof(double), 1, tb);
  EXPECT_TRUE(report.all_ok()) << report.to_string();
  ASSERT_GE(report.checks.size(), 8u);

  std::ostringstream os;
  report.write_json(os);
  EXPECT_TRUE(JsonValidator(os.str()).valid()) << os.str();

  // A second run doubles every counter; runs=2 must still agree.
  plan.fabric().reset();
  plan.execute(x.data(), y.data());
  EXPECT_TRUE(compare_with_model(prm, 2, g, sizeof(double), /*runs=*/2, tb).all_ok());
}

}  // namespace
}  // namespace fmmfft::obs
