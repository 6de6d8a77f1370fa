// Dependency-driven task executor for the native distributed drivers.
//
// The native twin of sim::Schedule: where the simulator *models* a
// multi-device execution as ops with dependency edges timed under an
// architecture (src/sim/schedule.hpp), TaskGraph *executes* one on the host.
// Tasks bind to lanes — per-device ordered queues that serialize like CUDA
// streams (DeviceLanes numbers one compute lane per device plus one copy
// lane per directed device pair, mirroring the simulator's resources) — and
// carry explicit cross-lane dependency edges. Each of the four distributed
// drivers (DistFmmFft, DistFft1d, Dist2dFft, Dist3dFft) describes its stages
// once, as one graph from the caller's input to the caller's output (no
// data moves on the calling thread before or after it), and run() executes
// it one of two ways:
//
//  * Async (the default) drains ready tasks on the existing
//    fmmfft::ThreadPool, so device compute overlaps fabric copies exactly
//    where the schedule builders (dist/schedules.cpp) model overlap;
//  * Serial (FMMFFT_EXEC=serial, or ScopedMode for in-process A/B) drains
//    the same graph on the calling thread alone, as a plain loop rather
//    than a pool task, so each stage body's own parallel_for still uses the
//    pool.
//
// Graph builders derive their task granularity from drains_inline(): when
// the graph drains on one thread they submit one task per (phase, device)
// and one per exchange; otherwise they pipeline chunks and per-message
// copies.
//
// Determinism / bit-identity argument:
//  * tasks submitted `ordered` on the same lane execute in submission
//    order, one at a time — the per-device arithmetic order is fixed by the
//    graph, whichever thread runs it;
//  * `unordered` tasks are used only for data-parallel work on disjoint
//    ranges (independent FFT lines, pack/unpack of disjoint chunks), whose
//    results do not depend on execution order or chunking;
//  * a task body's parallel_for splits only work whose result does not
//    depend on the split (the library's worker-count invariance), and
//    degrades to an inline loop inside a pool task (ThreadPool::in_task()).
// Outputs are therefore bit-identical across modes and worker counts;
// tests/test_exec.cpp enforces this byte-for-byte.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/threadpool.hpp"
#include "obs/health.hpp"

namespace fmmfft::exec {

using TaskId = int;

/// Fault injection for watchdog drills and tests: the next graph task with
/// this id sleeps `ms` milliseconds inside its body (after its TaskStart
/// flight event), then disarms.
void inject_stall(TaskId id, int ms);

enum class Mode { Serial, Async };

/// Process default from FMMFFT_EXEC ("serial" -> Serial; default Async).
Mode default_mode();
/// Mode in effect on the calling thread (default_mode unless overridden).
Mode mode();

/// True when TaskGraph::run(pool) drains the graph on the calling thread
/// alone: Serial mode, a one-worker pool, or a call from inside a pool
/// task. Graph builders then submit one task per (phase, device) and per
/// exchange instead of pipelined chunks.
bool drains_inline(const ThreadPool& pool = ThreadPool::global());

/// RAII thread-local mode override for in-process A/B comparisons.
class ScopedMode {
 public:
  explicit ScopedMode(Mode m);
  ~ScopedMode();
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;

 private:
  Mode prev_;
};

/// Lane numbering convention for a G-device graph: one compute lane per
/// device and one copy lane per directed device pair (the simulator's
/// NVLink-style dedicated links).
struct DeviceLanes {
  int g = 1;
  explicit DeviceLanes(int g_) : g(g_) {}
  int compute(int d) const { return d; }
  int copy(int src, int dst) const { return g + src * g + dst; }
  int count() const { return g + g * g; }
};

/// Post-run record of one task's completion (the graph's "future" side:
/// who ran it, when, and in which global completion order).
struct TaskRecord {
  std::string span;   ///< obs span name ("<stage>:<label>")
  std::string stage;  ///< coarse attribution tag ("fmm", "post", "fft", "a2a")
  int lane = 0;
  bool ordered = true;
  std::uint64_t start_ns = 0;  ///< steady-clock ns (0 if never ran)
  std::uint64_t end_ns = 0;
  int worker = -1;    ///< ThreadPool::current_worker() that executed it
  int run_seq = -1;   ///< global completion order (-1 if cancelled)
};

class TaskGraph : public obs::health::Source {
 public:
  explicit TaskGraph(int lanes);

  struct Options {
    int lane = 0;
    bool ordered = true;     ///< FIFO after the previous ordered task on lane
    const char* stage = "";  ///< obs attribution tag
  };

  /// Add a task running `fn` after every task in `deps` (ids must already
  /// exist, so submission order is a topological order). Ordered tasks also
  /// wait for the previous ordered task on their lane.
  TaskId submit(std::string label, const Options& opt, std::function<void()> fn,
                std::vector<TaskId> deps = {});

  /// Execute the whole graph on `pool` — or, in Serial mode, on the calling
  /// thread alone — blocking until every task completed (or the graph was
  /// cancelled by a failure). The first task exception is rethrown; tasks
  /// not yet started when a failure hits never run.
  void run(ThreadPool& pool = ThreadPool::global());

  int size() const { return static_cast<int>(tasks_.size()); }
  int lanes() const { return static_cast<int>(lane_tail_.size()); }

  /// Per-task completion records; valid after run() returned.
  const std::vector<TaskRecord>& records() const { return records_; }

  /// Name the lanes after the device convention ("compute d0", "copy 0->1")
  /// so watchdog verdicts and exception messages attribute work to devices.
  void name_lanes(const DeviceLanes& lanes);
  /// Attribution label for one lane ("lane 3" when unnamed).
  std::string lane_name(int lane) const;

  // obs::health::Source — the graph registers itself for the duration of
  // run() while the watchdog is enabled. progress() advances on every task
  // start/finish; describe_stall() walks the graph state to name the stuck
  // task, its stage/device lane, and the unfinished dependency chain.
  const char* source_name() const override { return "exec.TaskGraph"; }
  std::uint64_t progress() const override {
    return progress_.load(std::memory_order_relaxed);
  }
  std::string describe_stall() const override;

 private:
  struct Task {
    std::function<void()> fn;
    std::vector<TaskId> succ;
    std::vector<TaskId> deps;  ///< retained for stall/failure attribution
    int unmet = 0;
  };

  void worker_loop();

  std::vector<Task> tasks_;
  std::vector<TaskRecord> records_;
  std::vector<TaskId> lane_tail_;  // last ordered task per lane (-1 = none)
  std::vector<std::string> lane_names_;

  std::atomic<std::uint64_t> progress_{0};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<TaskId> ready_;  // FIFO via head_
  std::size_t head_ = 0;
  int done_ = 0;
  int seq_ = 0;
  bool failed_ = false;
  bool ran_ = false;
  std::exception_ptr error_;
};

}  // namespace fmmfft::exec
