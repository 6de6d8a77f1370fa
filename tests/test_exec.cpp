// Tests for the exec:: task-graph executor and the bit-identity guarantee
// of the distributed drivers' graphs: dependency semantics (diamond),
// ordered per-lane FIFO, exception propagation with cancellation, the
// Serial-mode calling-thread drain, and byte-for-byte serial-vs-async
// agreement of DistFmmFft / Dist2dFft / DistFft1d at g = 1, 2, 4.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <complex>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "dist/dfft.hpp"
#include "dist/dfmmfft.hpp"
#include "exec/executor.hpp"

namespace fmmfft::exec {
namespace {

using Cd = std::complex<double>;

TEST(TaskGraph, DiamondDependencies) {
  // A -> {B, C} -> D: D sees both updates, and run_seq respects the edges.
  TaskGraph g(1);
  int x = 0, y = 0, z = 0;
  const TaskId a = g.submit("A", {0, false, "t"}, [&] { x = 1; });
  const TaskId bb = g.submit("B", {0, false, "t"}, [&] { y = x + 1; }, {a});
  const TaskId cc = g.submit("C", {0, false, "t"}, [&] { z = x + 2; }, {a});
  const TaskId d = g.submit("D", {0, false, "t"}, [&] { x = y + z; }, {bb, cc});
  ThreadPool pool(4);
  g.run(pool);
  EXPECT_EQ(x, 5);
  const auto& rec = g.records();
  EXPECT_LT(rec[(std::size_t)a].run_seq, rec[(std::size_t)bb].run_seq);
  EXPECT_LT(rec[(std::size_t)a].run_seq, rec[(std::size_t)cc].run_seq);
  EXPECT_GT(rec[(std::size_t)d].run_seq, rec[(std::size_t)bb].run_seq);
  EXPECT_GT(rec[(std::size_t)d].run_seq, rec[(std::size_t)cc].run_seq);
  for (const auto& r : rec) {
    EXPECT_GE(r.worker, 0);
    EXPECT_LE(r.start_ns, r.end_ns);
    EXPECT_GT(r.end_ns, 0u);
  }
}

TEST(TaskGraph, OrderedLaneIsFifo) {
  // Ordered tasks on one lane run in submission order even with many
  // workers; a second lane's tasks interleave freely but stay FIFO too.
  TaskGraph g(2);
  std::vector<int> lane0, lane1;
  for (int i = 0; i < 16; ++i) {
    g.submit("l0", {0, true, "t"}, [&lane0, i] { lane0.push_back(i); });
    g.submit("l1", {1, true, "t"}, [&lane1, i] { lane1.push_back(i); });
  }
  ThreadPool pool(4);
  g.run(pool);
  ASSERT_EQ(lane0.size(), 16u);
  ASSERT_EQ(lane1.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(lane0[(std::size_t)i], i);
    EXPECT_EQ(lane1[(std::size_t)i], i);
  }
}

TEST(TaskGraph, UnorderedTasksAllRun) {
  TaskGraph g(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i)
    g.submit("u", {0, false, "t"}, [&count] { count.fetch_add(1); });
  ThreadPool pool(4);
  g.run(pool);
  EXPECT_EQ(count.load(), 64);
  EXPECT_EQ(g.size(), 64);
}

TEST(TaskGraph, ExceptionPropagatesAndCancels) {
  // The thrower's exception surfaces from run(); its dependents never run.
  TaskGraph g(1);
  bool ran_after = false;
  const TaskId boom =
      g.submit("boom", {0, true, "t"}, [] { throw std::runtime_error("task failed"); });
  const TaskId after =
      g.submit("after", {0, true, "t"}, [&ran_after] { ran_after = true; }, {boom});
  ThreadPool pool(2);
  // The rethrown error carries the failing task's span/stage/lane labels on
  // top of the original message.
  try {
    g.run(pool);
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'t:boom'"), std::string::npos) << what;
    EXPECT_NE(what.find("stage 't'"), std::string::npos) << what;
    EXPECT_NE(what.find("lane 0"), std::string::npos) << what;
    EXPECT_NE(what.find("task failed"), std::string::npos) << what;
  }
  EXPECT_FALSE(ran_after);
  EXPECT_EQ(g.records()[(std::size_t)after].run_seq, -1);
}

TEST(TaskGraph, RejectsForwardAndSelfDeps) {
  TaskGraph g(1);
  EXPECT_THROW(g.submit("bad", {0, false, "t"}, [] {}, {0}), Error);  // self/forward id
  const TaskId a = g.submit("a", {0, false, "t"}, [] {});
  EXPECT_THROW(g.submit("bad2", {0, false, "t"}, [] {}, {a + 7}), Error);
}

TEST(TaskGraph, RunIsSingleUse) {
  TaskGraph g(1);
  g.submit("a", {0, false, "t"}, [] {});
  ThreadPool pool(1);
  g.run(pool);
  EXPECT_THROW(g.run(pool), Error);
}

TEST(TaskGraph, SpanNamesCarryStagePrefix) {
  TaskGraph g(1);
  const TaskId a = g.submit("load d0", {0, true, "fmm"}, [] {});
  const TaskId bb = g.submit("bare", {0, true, ""}, [] {});
  EXPECT_EQ(g.records()[(std::size_t)a].span, "fmm:load d0");
  EXPECT_EQ(g.records()[(std::size_t)bb].span, "bare");
}

TEST(TaskGraph, SerialModeDrainsOnCallingThreadAndKeepsThePool) {
  // Serial mode drains the graph on the calling thread alone, in dependency
  // order, as a plain loop rather than a pool task: a task body's own
  // parallel_for still splits across the pool's workers.
  ScopedMode sm(Mode::Serial);
  ASSERT_TRUE(drains_inline());
  auto& pool = ThreadPool::global();
  const std::thread::id caller = std::this_thread::get_id();
  TaskGraph g(2);
  std::vector<std::thread::id> ran_on;
  auto body = [&] { ran_on.push_back(std::this_thread::get_id()); };
  std::mutex mu;
  std::set<int> chunk_workers;
  bool nested_in_task = true;
  const TaskId a = g.submit("a", {0, true, "t"}, body);
  const TaskId bb = g.submit("b", {1, false, "t"}, body, {a});
  const TaskId cc = g.submit("c", {1, false, "t"}, [&] {
    body();
    nested_in_task = ThreadPool::in_task();
    // Each chunk waits until a second thread has taken one, so a pool of
    // two or more workers must run the chunks on more than one thread.
    std::atomic<int> arrived{0};
    parallel_for(
        index_t(8),
        [&](index_t, index_t) {
          arrived.fetch_add(1);
          const auto t0 = std::chrono::steady_clock::now();
          while (pool.workers() > 1 && arrived.load() < 2 &&
                 std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10))
            std::this_thread::yield();
          std::lock_guard<std::mutex> lk(mu);
          chunk_workers.insert(ThreadPool::current_worker());
        },
        /*grain=*/1);
  });
  const TaskId d = g.submit("d", {0, true, "t"}, body, {bb, cc});
  g.run();

  ASSERT_EQ(ran_on.size(), 4u);
  for (const std::thread::id& t : ran_on) EXPECT_EQ(t, caller);
  const auto& rec = g.records();
  for (const TaskRecord& r : rec) EXPECT_EQ(r.worker, 0);
  EXPECT_LT(rec[(std::size_t)a].run_seq, rec[(std::size_t)bb].run_seq);
  EXPECT_LT(rec[(std::size_t)bb].run_seq, rec[(std::size_t)d].run_seq);
  EXPECT_LT(rec[(std::size_t)cc].run_seq, rec[(std::size_t)d].run_seq);
  EXPECT_FALSE(nested_in_task);
  if (pool.workers() > 1) {
    EXPECT_GE(chunk_workers.size(), 2u);
  }
}

TEST(Mode, ScopedOverrideRestores) {
  const Mode outer = mode();
  {
    ScopedMode sm(Mode::Serial);
    EXPECT_EQ(mode(), Mode::Serial);
    {
      ScopedMode sm2(Mode::Async);
      EXPECT_EQ(mode(), Mode::Async);
    }
    EXPECT_EQ(mode(), Mode::Serial);
  }
  EXPECT_EQ(mode(), outer);
}

TEST(DeviceLanes, NumberingIsDisjoint) {
  DeviceLanes lanes(4);
  EXPECT_EQ(lanes.count(), 4 + 16);
  std::vector<bool> seen((std::size_t)lanes.count(), false);
  for (int d = 0; d < 4; ++d) {
    ASSERT_FALSE(seen[(std::size_t)lanes.compute(d)]);
    seen[(std::size_t)lanes.compute(d)] = true;
  }
  for (int s = 0; s < 4; ++s)
    for (int d = 0; d < 4; ++d) {
      ASSERT_FALSE(seen[(std::size_t)lanes.copy(s, d)]);
      seen[(std::size_t)lanes.copy(s, d)] = true;
    }
}

// -- Serial-vs-async bit-identity -------------------------------------------

TEST(Dist2dFftAsync, BitIdenticalToSerial) {
  const index_t m = 64, p = 16;
  for (int g : {1, 2, 4}) {
    std::vector<Cd> x((std::size_t)(m * p)), serial(x.size()), async(x.size());
    fill_uniform(x.data(), m * p, 70 + g);
    dist::Dist2dFft<double> plan_s(m, p, g);
    dist::Dist2dFft<double> plan_a(m, p, g);
    {
      ScopedMode sm(Mode::Serial);
      plan_s.execute(x.data(), serial.data());
    }
    {
      ScopedMode sm(Mode::Async);
      plan_a.execute(x.data(), async.data());
    }
    EXPECT_EQ(std::memcmp(serial.data(), async.data(), sizeof(Cd) * serial.size()), 0)
        << "Dist2dFft serial vs async differ at g=" << g;
    // Chunked copies move exactly the bytes of the single-message path.
    EXPECT_DOUBLE_EQ(plan_a.fabric().bytes_with_tag("A2A-2D"),
                     plan_s.fabric().bytes_with_tag("A2A-2D"));
  }
}

TEST(DistFft1dAsync, BitIdenticalToSerial) {
  const index_t n = 1 << 14;
  for (int g : {1, 2, 4}) {
    std::vector<Cd> x((std::size_t)n), serial(x.size()), async(x.size());
    fill_uniform(x.data(), n, 90 + g);
    dist::DistFft1d<double> plan_s(n, g);
    dist::DistFft1d<double> plan_a(n, g);
    {
      ScopedMode sm(Mode::Serial);
      plan_s.execute(x.data(), serial.data());
    }
    {
      ScopedMode sm(Mode::Async);
      plan_a.execute(x.data(), async.data());
    }
    EXPECT_EQ(std::memcmp(serial.data(), async.data(), sizeof(Cd) * serial.size()), 0)
        << "DistFft1d serial vs async differ at g=" << g;
    // Chunked copies move exactly the bytes of the single-message path.
    for (const char* tag : {"A2A-1", "A2A-2", "A2A-3"})
      EXPECT_DOUBLE_EQ(plan_a.fabric().bytes_with_tag(tag), plan_s.fabric().bytes_with_tag(tag))
          << tag << " at g=" << g;
  }
}

TEST(DistFmmFftAsync, BitIdenticalToSerial) {
  fmm::Params prm{1 << 14, 64, 4, 3, 18};
  for (int g : {1, 2, 4}) {
    std::vector<Cd> x((std::size_t)prm.n), serial(x.size()), async(x.size());
    fill_uniform(x.data(), prm.n, 100 + g);
    dist::DistFmmFft<Cd> plan(prm, g);
    {
      ScopedMode sm(Mode::Serial);
      plan.execute(x.data(), serial.data());
    }
    const double serial_bytes = plan.fabric().total_bytes();
    plan.fabric().reset();
    {
      ScopedMode sm(Mode::Async);
      plan.execute(x.data(), async.data());
    }
    EXPECT_EQ(std::memcmp(serial.data(), async.data(), sizeof(Cd) * serial.size()), 0)
        << "DistFmmFft serial vs async differ at g=" << g;
    EXPECT_DOUBLE_EQ(plan.fabric().total_bytes(), serial_bytes) << "g=" << g;
    // Per-engine stage stats keep the serial order on every lane.
    for (int r = 0; r < g; ++r) {
      const auto& st = plan.engine_stats(r);
      ASSERT_FALSE(st.empty());
      EXPECT_EQ(st.front().name, "S2M");
      EXPECT_EQ(st.back().name, "L2T");
    }
  }
}

TEST(DistFmmFftAsync, RealInputBitIdenticalToSerial) {
  fmm::Params prm{1 << 14, 64, 8, 2, 14};
  const int g = 4;
  std::vector<double> x((std::size_t)prm.n);
  fill_uniform(x.data(), prm.n, 9);
  std::vector<Cd> serial((std::size_t)prm.n), async(serial.size());
  dist::DistFmmFft<double> plan(prm, g);
  {
    ScopedMode sm(Mode::Serial);
    plan.execute(x.data(), serial.data());
  }
  {
    ScopedMode sm(Mode::Async);
    plan.execute(x.data(), async.data());
  }
  EXPECT_EQ(std::memcmp(serial.data(), async.data(), sizeof(Cd) * serial.size()), 0);
}

}  // namespace
}  // namespace fmmfft::exec
