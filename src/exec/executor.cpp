#include "exec/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "obs/env.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::exec {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

Mode& tl_mode() {
  thread_local Mode m = default_mode();
  return m;
}

// Armed stall fault (-1 = none). Disarms after one trigger.
std::atomic<TaskId> g_stall_task{-1};
std::atomic<int> g_stall_ms{750};

}  // namespace

void inject_stall(TaskId id, int ms) {
  g_stall_ms.store(ms, std::memory_order_relaxed);
  g_stall_task.store(id, std::memory_order_relaxed);
}

Mode default_mode() {
  static const Mode m = [] {
    const char* v = obs::env::get("FMMFFT_EXEC");
    return v && std::strcmp(v, "serial") == 0 ? Mode::Serial : Mode::Async;
  }();
  return m;
}

Mode mode() { return tl_mode(); }

bool drains_inline(const ThreadPool& pool) {
  return mode() == Mode::Serial || pool.workers() == 1 || ThreadPool::in_task();
}

ScopedMode::ScopedMode(Mode m) : prev_(tl_mode()) { tl_mode() = m; }
ScopedMode::~ScopedMode() { tl_mode() = prev_; }

TaskGraph::TaskGraph(int lanes) {
  FMMFFT_CHECK(lanes >= 1);
  lane_tail_.assign(static_cast<std::size_t>(lanes), -1);
}

TaskId TaskGraph::submit(std::string label, const Options& opt, std::function<void()> fn,
                         std::vector<TaskId> deps) {
  FMMFFT_CHECK(!ran_);
  FMMFFT_CHECK(opt.lane >= 0 && opt.lane < lanes());
  const TaskId id = static_cast<TaskId>(tasks_.size());
  if (opt.ordered && lane_tail_[(std::size_t)opt.lane] >= 0)
    deps.push_back(lane_tail_[(std::size_t)opt.lane]);
  // Dedupe so each edge decrements `unmet` exactly once.
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  for (TaskId d : deps) FMMFFT_CHECK_MSG(d >= 0 && d < id, "deps must precede the task");

  Task t;
  t.fn = std::move(fn);
  t.unmet = static_cast<int>(deps.size());
  for (TaskId d : deps) tasks_[(std::size_t)d].succ.push_back(id);
  t.deps = std::move(deps);
  tasks_.push_back(std::move(t));

  TaskRecord rec;
  rec.stage = opt.stage;
  rec.span = rec.stage.empty() ? label : rec.stage + ":" + label;
  rec.lane = opt.lane;
  rec.ordered = opt.ordered;
  records_.push_back(std::move(rec));

  if (opt.ordered) lane_tail_[(std::size_t)opt.lane] = id;
  return id;
}

void TaskGraph::worker_loop() {
  const int total = static_cast<int>(tasks_.size());
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] { return head_ < ready_.size() || done_ == total || failed_; });
    if (failed_ || done_ == total) return;
    const TaskId id = ready_[head_++];
    Task& t = tasks_[(std::size_t)id];
    TaskRecord& rec = records_[(std::size_t)id];
    // Start fields are written under mu_ so describe_stall() reads them
    // race-free from the watchdog thread mid-run.
    rec.worker = ThreadPool::current_worker();
    rec.start_ns = now_ns();
    lk.unlock();

    progress_.fetch_add(1, std::memory_order_relaxed);
    FMMFFT_FLIGHT(TaskStart, id, rec.lane, rec.span.c_str());
    if (g_stall_task.load(std::memory_order_relaxed) == id &&
        g_stall_task.exchange(-1, std::memory_order_relaxed) == id) {
      FMMFFT_FLIGHT(Fault, id, rec.lane, "inject_stall");
      std::this_thread::sleep_for(
          std::chrono::milliseconds(g_stall_ms.load(std::memory_order_relaxed)));
    }
    bool ok = true;
    std::exception_ptr err;
    {
      obs::SpanScope span(rec.span.c_str());
      FMMFFT_COUNT("exec.tasks_run", 1);
      try {
        t.fn();
      } catch (const std::exception& e) {
        ok = false;
        std::ostringstream os;
        os << "task " << id << " '" << rec.span << "' (stage '" << rec.stage << "', "
           << lane_name(rec.lane) << ", worker " << rec.worker << ") failed: " << e.what();
        err = std::make_exception_ptr(Error(os.str()));
      } catch (...) {
        ok = false;
        std::ostringstream os;
        os << "task " << id << " '" << rec.span << "' (stage '" << rec.stage << "', "
           << lane_name(rec.lane) << ", worker " << rec.worker
           << ") failed: unknown exception";
        err = std::make_exception_ptr(Error(os.str()));
      }
    }
    obs::health::flight(ok ? obs::health::Ev::TaskEnd : obs::health::Ev::TaskFail,
                        static_cast<std::uint32_t>(id), rec.lane, rec.stage.c_str());
    progress_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t end = now_ns();

    lk.lock();
    rec.end_ns = end;
    if (!ok) {
      failed_ = true;
      if (!error_) error_ = err;
      cv_.notify_all();
      return;
    }
    rec.run_seq = seq_++;
    ++done_;
    bool wake = done_ == total;
    for (TaskId s : t.succ)
      if (--tasks_[(std::size_t)s].unmet == 0) {
        ready_.push_back(s);
        wake = true;
      }
    if (wake) cv_.notify_all();
  }
}

void TaskGraph::run(ThreadPool& pool) {
  FMMFFT_CHECK_MSG(!ran_, "TaskGraph::run may be called once");
  ran_ = true;
  if (tasks_.empty()) return;
  ready_.reserve(tasks_.size());
  for (TaskId id = 0; id < size(); ++id)
    if (tasks_[(std::size_t)id].unmet == 0) ready_.push_back(id);

  FMMFFT_SPAN("exec:graph");
  FMMFFT_COUNT("exec.graphs", 1);
  FMMFFT_COUNT("exec.tasks", tasks_.size());
  FMMFFT_FLIGHT(GraphStart, tasks_.size(), 0, "exec:graph");
  if (obs::metrics_enabled())
    for (const TaskRecord& r : records_)
      if (!r.stage.empty()) obs::Metrics::global().counter("exec.stage." + r.stage).increment();

  // Monitor this run while the watchdog is live; unregistration blocks on
  // any in-flight inspection, so the guard may not outlive the graph.
  struct SourceGuard {
    explicit SourceGuard(TaskGraph* g) {
      if (obs::health::watchdog_enabled()) {
        src = g;
        obs::health::register_source(src);
      }
    }
    ~SourceGuard() {
      if (src) obs::health::unregister_source(src);
    }
    obs::health::Source* src = nullptr;
  } guard(this);

  // Each chunk is one graph-drain worker; the pool's chunk dispatch hands
  // every chunk to a distinct thread when enough workers are idle. A single
  // chunk runs as a plain loop on this thread, not as a pool task, so in
  // Serial mode the task bodies' own parallel_for still uses the pool.
  const index_t workers =
      drains_inline(pool)
          ? 1
          : std::min<index_t>(pool.workers(), static_cast<index_t>(tasks_.size()));
  const std::function<void(index_t)> drain = [this](index_t) { worker_loop(); };
  pool.run_chunks(workers, drain);
  FMMFFT_FLIGHT(GraphEnd, done_, 0, error_ ? "failed" : "ok");
  if (error_) {
    // Forensic dump before the rethrow unwinds the graph (gated on the
    // health layer being armed, so plain library users see no files).
    std::string what = "unknown exception";
    try {
      std::rethrow_exception(error_);
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
    obs::health::emit_postmortem("task_exception", what);
    std::rethrow_exception(error_);
  }
  FMMFFT_CHECK_MSG(done_ == size(), "graph drained without completing every task");
  if (obs::traffic_enabled()) {
    // Busy seconds per stage tag: the denominator for the ledger's achieved
    // per-stage bandwidth (aux scope — time, not bytes).
    auto& ledger = obs::TrafficLedger::global();
    for (const TaskRecord& r : records_)
      if (r.end_ns > r.start_ns)
        ledger.add_seconds("exec." + (r.stage.empty() ? std::string("(untagged)") : r.stage),
                           double(r.end_ns - r.start_ns) * 1e-9);
  }
}

void TaskGraph::name_lanes(const DeviceLanes& lanes) {
  lane_names_.assign(static_cast<std::size_t>(this->lanes()), std::string());
  for (int d = 0; d < lanes.g; ++d)
    if (lanes.compute(d) < this->lanes())
      lane_names_[(std::size_t)lanes.compute(d)] = "compute d" + std::to_string(d);
  for (int s = 0; s < lanes.g; ++s)
    for (int d = 0; d < lanes.g; ++d)
      if (lanes.copy(s, d) < this->lanes())
        lane_names_[(std::size_t)lanes.copy(s, d)] =
            "copy " + std::to_string(s) + "->" + std::to_string(d);
}

std::string TaskGraph::lane_name(int lane) const {
  if (lane >= 0 && lane < static_cast<int>(lane_names_.size()) &&
      !lane_names_[(std::size_t)lane].empty())
    return lane_names_[(std::size_t)lane];
  return "lane " + std::to_string(lane);
}

std::string TaskGraph::describe_stall() const {
  std::ostringstream os;
  // Workers only hold mu_ for queue pops and bookkeeping, so a few short
  // try_lock retries normally succeed; if the mutex stays busy the graph is
  // *making* progress and a minimal report is the right answer.
  std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
  for (int i = 0; i < 200 && !lk.try_lock(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (!lk.owns_lock()) {
    os << "  graph mutex busy (progress counter " << progress() << "); "
       << size() << " tasks submitted";
    return os.str();
  }

  const int total = size();
  const std::uint64_t now = now_ns();
  os << "  graph: " << done_ << "/" << total << " tasks done, ready-queue depth "
     << (ready_.size() - head_) << (failed_ ? ", FAILED" : "");

  // The oldest running task is the stall suspect: everything behind it in
  // the dependency order is waiting on it.
  TaskId stuck = -1;
  for (TaskId id = 0; id < total; ++id) {
    const TaskRecord& r = records_[(std::size_t)id];
    if (r.start_ns == 0 || r.end_ns != 0) continue;
    os << "\n  running: task " << id << " '" << r.span << "' (stage '" << r.stage
       << "', " << lane_name(r.lane) << ", worker " << r.worker << ", "
       << (now - r.start_ns) / 1000000 << " ms)";
    if (stuck < 0 || r.start_ns < records_[(std::size_t)stuck].start_ns) stuck = id;
  }

  if (stuck >= 0) {
    const TaskRecord& r = records_[(std::size_t)stuck];
    os << "\n  stuck: task " << stuck << " '" << r.span << "' (stage '" << r.stage
       << "', " << lane_name(r.lane) << ")";
    // Chain of unfinished work blocked behind the stuck task.
    os << "\n  blocked chain:";
    TaskId cur = stuck;
    for (int hop = 0; hop < 8; ++hop) {
      TaskId next = -1;
      for (TaskId s : tasks_[(std::size_t)cur].succ)
        if (records_[(std::size_t)s].end_ns == 0) {
          next = s;
          break;
        }
      if (next < 0) break;
      const TaskRecord& nr = records_[(std::size_t)next];
      os << "\n    task " << next << " '" << nr.span << "' (stage '" << nr.stage
         << "', " << lane_name(nr.lane) << ") waits on task " << cur;
      cur = next;
    }
    if (cur == stuck) os << " (none: the stuck task is a sink)";
  } else if (done_ < total) {
    // Nothing is running: walk an unstarted task's dependencies down to the
    // unfinished root that should have been scheduled.
    TaskId leaf = -1;
    for (TaskId id = 0; id < total && leaf < 0; ++id)
      if (records_[(std::size_t)id].start_ns == 0 && tasks_[(std::size_t)id].unmet > 0)
        leaf = id;
    if (leaf >= 0) {
      os << "\n  no task running; dependency chain from task " << leaf << " '"
         << records_[(std::size_t)leaf].span << "':";
      TaskId cur = leaf;
      for (int hop = 0; hop < 8; ++hop) {
        TaskId next = -1;
        for (TaskId d : tasks_[(std::size_t)cur].deps)
          if (records_[(std::size_t)d].end_ns == 0) {
            next = d;
            break;
          }
        if (next < 0) break;
        const TaskRecord& nr = records_[(std::size_t)next];
        os << "\n    waits on task " << next << " '" << nr.span << "' (stage '"
           << nr.stage << "', " << lane_name(nr.lane) << ")";
        cur = next;
      }
    }
  }
  return os.str();
}

}  // namespace fmmfft::exec
