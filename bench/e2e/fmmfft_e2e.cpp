// Native end-to-end benchmark of the FMM-FFT library: one workload per
// process, driven as a closed loop by one client thread (the next transform
// is issued only when the previous one returned, as a solver calls an FFT).
//
//   fmmfft_e2e --workload NAME --seed S --seconds T [--trace FILE]
//              [--min-samples N]
//
// The last line of stdout is one JSON record (schema fmmfft.e2e.v2).
// bench/e2e/run.py builds and drives this binary; bench/e2e/README.md
// defines the workloads, the metrics and their bounds.
//
// Untraced, the record carries the end-to-end metrics and diagnostics. With
// --trace the process also runs a traced window: real execute calls in
// serial exec mode with the library's own obs spans, counters and traffic
// ledger enabled. Each call's spans on the calling thread are attributed to
// per-layer keys (layer_of); the last traced call is written to FILE as
// Chrome-trace JSON.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "core/fmmfft.hpp"
#include "dist/dfft.hpp"
#include "dist/dfft3d.hpp"
#include "dist/dfmmfft.hpp"
#include "dist/schedules.hpp"
#include "exec/executor.hpp"
#include "fft/fft.hpp"
#include "fmm/accuracy.hpp"
#include "fmm/engine.hpp"
#include "model/arch.hpp"
#include "obs/obs.hpp"
#include "obs/trace_writer.hpp"
#include "obs/traffic.hpp"

namespace {

using namespace fmmfft;
using c64 = std::complex<double>;
using Clock = std::chrono::steady_clock;

constexpr int kInputs = 4;  // call i uses input i mod 4

// Noise guard (see Triad): a window is measured again, at most kMaxRetries
// times, when the triad rate before and after it differs by more than
// kDriftLimit. On a shared 4-vCPU VM the rate of an otherwise idle
// benchmark already moves by 0.1-0.5 between windows (bench/e2e/README.md),
// so the limit only catches gross interference. A retry starts only if it
// ends within kRetryFactor × --seconds of process start, which bounds a run
// that retries at about twice the time of one that does not.
constexpr double kDriftLimit = 0.5;
constexpr int kMaxRetries = 2;
constexpr double kRetryFactor = 2.75;

// setup_s: the window is cut into kSetupBatches chunks, and after each chunk
// the plan is constructed at least kSetupMinReps times and until
// kSetupShare / kSetupBatches of the window's seconds passed. Construction
// speed on a shared host shifts between regimes lasting a fraction of a
// second, so samples spread over the whole window give a steadier median
// than one burst.
constexpr int kSetupBatches = 10;
constexpr int kSetupMinReps = 2;
constexpr double kSetupShare = 0.1;
// Constructions per median in the traced setup breakdown.
constexpr int kBreakdownReps = 10;

// The harness's span around each execute call; its lane is the caller's.
constexpr const char* kCallSpan = "e2e-call";

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double rss_mib() {
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return double(resident) * double(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Quantile with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double rel_l2(const c64* y, const c64* ref, index_t n) {
  double num = 0, den = 0;
  for (index_t i = 0; i < n; ++i) {
    num += std::norm(y[i] - ref[i]);
    den += std::norm(ref[i]);
  }
  return std::sqrt(num / den);
}

bool all_finite(const c64* y, index_t n) {
  for (index_t i = 0; i < n; ++i)
    if (!std::isfinite(y[i].real()) || !std::isfinite(y[i].imag())) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Noise guard: a frozen STREAM triad a = b + s·c over three arrays of 2^22
// doubles (32 MiB each), split across the benchmark's thread count. It
// lives here rather than in src/obs so that no library change can move the
// yardstick; a drift between the rates measured before and after a window
// means something else loaded the machine meanwhile. A rate is the median
// of the sweeps run in `sample_s`; on virtual machines fresh pages run
// slowly for a while after first touch, so the constructor sweeps for twice
// that before any rate counts.

class Triad {
 public:
  Triad(int threads, double sample_s)
      : threads_(std::max(1, threads)), sample_s_(sample_s), a_(kN), b_(kN, 1.0), c_(kN, 2.0) {
    const auto t0 = Clock::now();
    while (seconds_since(t0) < 2 * sample_s_) sweep_gbps();
  }

  double gbps() {
    std::vector<double> r;
    const auto t0 = Clock::now();
    do r.push_back(sweep_gbps());
    while (seconds_since(t0) < sample_s_);
    return quantile(r, 0.5);
  }

 private:
  double sweep_gbps() {
    const auto t0 = Clock::now();
    std::vector<std::thread> ts;
    for (int t = 0; t < threads_; ++t)
      ts.emplace_back([this, t] {
        const std::size_t lo = kN * std::size_t(t) / std::size_t(threads_);
        const std::size_t hi = kN * std::size_t(t + 1) / std::size_t(threads_);
        for (std::size_t i = lo; i < hi; ++i) a_[i] = b_[i] + 3.0 * c_[i];
      });
    for (auto& t : ts) t.join();
    return 3.0 * 8.0 * double(kN) / seconds_since(t0) / 1e9;
  }

  static constexpr std::size_t kN = std::size_t(1) << 22;
  int threads_;
  double sample_s_;
  std::vector<double> a_, b_, c_;
};

// ---------------------------------------------------------------------------
// Span attribution. The library marks its stages with FMMFFT_SPAN; a traced
// call's time on the calling thread goes to the per-layer key of the
// innermost enclosing span that has one. Spans without a key (FMM,
// parallel_for, pf-chunk, GEMM, ...) pass their time to their parent, except
// that a parallel_for inside which a fabric transfer happens (on any lane)
// is that transfer's collective. Time no keyed span covers is the input
// load before the first keyed span, the output store after the last one,
// and unattributed time in between.

const char* layer_of(const char* span) {
  static const std::map<std::string, const char*> exact = {
      {"S2M", "fmm.s2m_ms"},         {"M2M", "fmm.m2m_ms"},       {"S2T", "fmm.s2t_ms"},
      {"M2L", "fmm.m2l_ms"},         {"M2L-B", "fmm.m2l_base_ms"}, {"REDUCE", "fmm.reduce_ms"},
      {"L2L", "fmm.l2l_ms"},         {"L2T", "fmm.l2t_ms"},       {"HALO-S", "fmm.halo_ms"},
      {"HALO-M", "fmm.halo_ms"},     {"POST", "core.post_ms"},    {"FFT-2D", "fft2d.other_ms"},
      {"FFT", "fft.ms"},             {"FFT-batched", "fft.ms"},   {"FFT-strided", "fft.ms"},
      {"2DFFT-P", "fft.ms"},         {"2DFFT-M", "fft.ms"},       {"DFFT-M", "fft.ms"},
      {"DFFT-P", "fft.ms"},          {"3DFFT-0", "fft.ms"},       {"3DFFT-1", "fft.ms"},
      {"3DFFT-2", "fft.ms"},         {"DFFT-TW", "dist.twiddle_ms"},
  };
  // Fabric transfers by tag, first match wins.
  static const std::pair<const char*, const char*> xfer[] = {
      {"xfer:A2A", "dist.a2a_ms"},
      {"xfer:COMM-MB", "dist.allgather_ms"},
      {"xfer:COMM-", "dist.halo_ms"},
  };
  if (auto it = exact.find(span); it != exact.end()) return it->second;
  for (const auto& [prefix, key] : xfer)
    if (std::strncmp(span, prefix, std::strlen(prefix)) == 0) return key;
  return nullptr;
}

bool is_blas(const char* span) {
  return !std::strcmp(span, "GEMM") || !std::strcmp(span, "BatchedGEMM") ||
         !std::strcmp(span, "GEMV");
}

/// One traced call's per-layer milliseconds, from a snapshot holding only
/// that call's spans. Also "_call_ms" (the call span), "_blas_ms" (time in
/// BLAS calls), "_fmm_ms" (the FMM compute stages) and "_coverage".
std::map<std::string, double> attribute(std::vector<obs::SpanEvent> ev) {
  const auto root = std::find_if(ev.begin(), ev.end(), [](const obs::SpanEvent& e) {
    return !std::strcmp(e.name, kCallSpan);
  });
  if (root == ev.end()) throw std::runtime_error("traced call recorded no call span");
  const obs::SpanEvent call = *root;

  // Transfer starts on every lane, for the parallel_for rule.
  std::vector<std::pair<std::uint64_t, const char*>> xfers;
  for (const auto& e : ev)
    if (!std::strncmp(e.name, "xfer:", 5)) xfers.push_back({e.start_ns, layer_of(e.name)});
  std::sort(xfers.begin(), xfers.end());
  auto xfer_within = [&](std::uint64_t t0, std::uint64_t t1) -> const char* {
    auto it = std::lower_bound(xfers.begin(), xfers.end(),
                               std::pair<std::uint64_t, const char*>{t0, nullptr});
    return it != xfers.end() && it->first <= t1 ? it->second : nullptr;
  };

  std::vector<obs::SpanEvent> lane;
  for (const auto& e : ev)
    if (e.lane == call.lane && e.depth > call.depth) lane.push_back(e);
  std::sort(lane.begin(), lane.end(), [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.depth < b.depth;
  });

  std::map<std::string, double> ms;
  double unkeyed_ns = 0, blas_ns = 0;
  std::uint64_t first = call.end_ns, last = call.start_ns;  // keyed extent
  struct Frame {
    std::uint64_t end;
    const char* key;
    double child_ns = 0, dur_ns = 0;
  };
  std::vector<Frame> stack{{call.end_ns, nullptr, 0, double(call.end_ns - call.start_ns)}};
  auto close = [&] {
    const Frame& f = stack.back();
    const double self = f.dur_ns - f.child_ns;
    if (f.key)
      ms[f.key] += 1e-6 * self;
    else
      unkeyed_ns += self;
    stack.pop_back();
  };
  for (const auto& e : lane) {
    while (stack.size() > 1 && stack.back().end <= e.start_ns) close();
    const char* key = layer_of(e.name);
    if (!key && !std::strcmp(e.name, "parallel_for")) key = xfer_within(e.start_ns, e.end_ns);
    if (!key) key = stack.back().key;
    const double dur = double(e.end_ns - e.start_ns);
    stack.back().child_ns += dur;
    stack.push_back({e.end_ns, key, 0, dur});
    if (key) {
      first = std::min(first, e.start_ns);
      last = std::max(last, e.end_ns);
    }
    if (is_blas(e.name)) blas_ns += dur;
  }
  while (!stack.empty()) close();

  const double call_ns = double(call.end_ns - call.start_ns);
  const double load_ns = first < last ? double(first - call.start_ns) : call_ns;
  const double store_ns = first < last ? double(call.end_ns - last) : 0.0;
  const double rest_ns = unkeyed_ns - load_ns - store_ns;
  ms["host.load_ms"] = 1e-6 * load_ns;
  ms["host.store_ms"] = 1e-6 * store_ns;
  ms["trace.unattributed_ms"] = 1e-6 * rest_ns;
  ms["_coverage"] = 1.0 - rest_ns / call_ns;
  ms["_call_ms"] = 1e-6 * call_ns;
  ms["_blas_ms"] = 1e-6 * blas_ns;
  double fmm_ms = 0;
  for (const auto& [k, v] : ms)
    if (k.rfind("fmm.", 0) == 0 && k != "fmm.halo_ms") fmm_ms += v;
  ms["_fmm_ms"] = fmm_ms;
  return ms;
}

// ---------------------------------------------------------------------------
// Workloads.

class Plan {
 public:
  Plan() = default;
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;
  virtual ~Plan() = default;
  virtual void execute(const c64* in, c64* out) = 0;
};

template <typename T>
class PlanOf final : public Plan {
 public:
  template <typename... A>
  explicit PlanOf(A&&... a) : t_(std::forward<A>(a)...) {}
  void execute(const c64* in, c64* out) override { t_.execute(in, out); }

 private:
  T t_;
};

struct Workload {
  std::string name;
  index_t n;       // points per transform
  double eps;      // rel_l2_err the output must stay within
  index_t side3d;  // cube side for the 3D workload, 0 otherwise
  /// Plan construction, the setup_s interval (suggest_params + constructor).
  std::function<std::unique_ptr<Plan>()> build;
  /// One construction of the plan's FMM engines alone, and of its Plan1Ds, in seconds.
  std::function<double()> engines_ctor_s, fft_plans_ctor_s;
  /// §5 simulated speedup of the three-all-to-all baseline over the
  /// FMM-FFT on 4×P100 NVLink for this plan; empty when not applicable.
  std::function<double()> model_speedup;
};

/// Seconds `make` takes; what it returns is destroyed after the clock stops.
template <typename F>
double time_ctor(F&& make) {
  const auto t0 = Clock::now();
  auto made = make();
  return seconds_since(t0);
}

double plans_ctor_s(const std::vector<index_t>& sizes) {
  return time_ctor([&] {
    std::vector<std::unique_ptr<fft::Plan1D<double>>> plans;
    for (index_t s : sizes) plans.push_back(std::make_unique<fft::Plan1D<double>>(s));
    return plans;
  });
}

template <typename ER>
double engines_ctor_s(const fmm::Params& prm, int g) {
  return time_ctor([&] {
    std::vector<std::unique_ptr<fmm::Engine<ER>>> es;
    for (int r = 0; r < g; ++r) es.push_back(std::make_unique<fmm::Engine<ER>>(prm, 2, g, r));
    return es;
  });
}

Workload fmm1d(const std::string& name, int log2n, double eps, fmm::Precision prec) {
  const index_t n = index_t(1) << log2n;
  const fmm::Params prm = fmm::suggest_params(n, eps, 1, prec);
  return {name, n, eps, 0,
          [=]() -> std::unique_ptr<Plan> {
            return std::make_unique<PlanOf<core::FmmFft<c64>>>(
                fmm::suggest_params(n, eps, 1, prec), /*fuse_post=*/true, prec);
          },
          [=] {
            return prec == fmm::Precision::Mixed ? engines_ctor_s<float>(prm, 1)
                                                 : engines_ctor_s<double>(prm, 1);
          },
          [=] { return plans_ctor_s({prm.p, prm.m()}); },
          {}};
}

std::vector<Workload> workloads() {
  constexpr int kG = 4;
  const index_t n18 = index_t(1) << 18;
  const fmm::Params dprm = fmm::suggest_params(n18, 1e-12, kG);
  const index_t m1d = index_t(1) << 9;  // DistFft1d's balanced factors of 2^18
  return {
      fmm1d("fmm1d_n18", 18, 1e-12, fmm::Precision::Fp64),
      fmm1d("fmm1d_n18_mixed", 18, 1e-6, fmm::Precision::Mixed),
      fmm1d("fmm1d_n14", 14, 1e-12, fmm::Precision::Fp64),
      {"dfmm1d_n18_g4", n18, 1e-12, 0,
       [=]() -> std::unique_ptr<Plan> {
         return std::make_unique<PlanOf<dist::DistFmmFft<c64>>>(
             fmm::suggest_params(n18, 1e-12, kG), kG, fmm::Precision::Fp64);
       },
       [=] { return engines_ctor_s<double>(dprm, kG); },
       [=] { return plans_ctor_s({dprm.m(), dprm.p}); },
       [=] {
         const model::Workload w{n18, /*is_complex=*/true, /*is_double=*/true};
         const auto arch = model::p100_nvlink(kG);
         return dist::baseline1d_schedule(n18, w, kG).simulate(arch).total_seconds /
                dist::fmmfft_schedule(dprm, w, kG).simulate(arch).total_seconds;
       }},
      {"fft1d_3a2a_n18_g4", n18, 1e-12, 0,
       [=]() -> std::unique_ptr<Plan> {
         return std::make_unique<PlanOf<dist::DistFft1d<double>>>(n18, kG);
       },
       [] { return 0.0; }, [=] { return plans_ctor_s({m1d, n18 / m1d}); }, {}},
      {"fft3d_pencil_g8", 64 * 64 * 64, 1e-12, 64,
       []() -> std::unique_ptr<Plan> {
         return std::make_unique<PlanOf<dist::Dist3dFft<double>>>(
             64, 64, 64, 8, model::Decomp::Pencil, model::GridShape{2, 4});
       },
       [] { return 0.0; }, [] { return plans_ctor_s({64, 64, 64}); }, {}},
  };
}

using cld = std::complex<long double>;

/// In-place radix-2 DIT FFT of one power-of-two line in long double;
/// w[k] = exp(-2πik/n) for k < n/2.
void fft_line_ld(cld* x, index_t n, const std::vector<cld>& w) {
  for (index_t i = 1, j = 0; i < n; ++i) {
    index_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (index_t len = 2; len <= n; len <<= 1)
    for (index_t i = 0; i < n; i += len)
      for (index_t k = 0; k < len / 2; ++k) {
        const cld u = x[i + k], v = x[i + k + len / 2] * w[std::size_t(k * (n / len))];
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
      }
}

/// Reference transform. 1D: fft::fft of size N in fp64. 3D: a long-double
/// FFT along each axis, reordered to Dist3dFft's output layout
/// y[i2 + n2·(i1 + n1·i0)] — fft::Plan3D runs the same fp64 line kernels
/// as Dist3dFft and agrees with it bit for bit, so it would measure no error.
void reference(const Workload& w, const c64* in, c64* ref) {
  if (w.side3d == 0) {
    std::copy(in, in + w.n, ref);
    fft::fft(ref, w.n, fft::Direction::Forward);
    return;
  }
  const index_t s = w.side3d;
  const auto len = static_cast<std::size_t>(s);
  std::vector<cld> x(in, in + w.n), line(len), tw(len / 2);
  for (index_t k = 0; k < s / 2; ++k) {
    const long double ang = -2.0L * pi_v<long double> * (long double)k / (long double)s;
    tw[std::size_t(k)] = cld(std::cos(ang), std::sin(ang));
  }
  for (index_t stride : {index_t(1), s, s * s})
    for (index_t base = 0; base < w.n; ++base) {
      if ((base / stride) % s != 0) continue;  // one line per start with axis index 0
      for (index_t k = 0; k < s; ++k) line[std::size_t(k)] = x[std::size_t(base + k * stride)];
      fft_line_ld(line.data(), s, tw);
      for (index_t k = 0; k < s; ++k) x[std::size_t(base + k * stride)] = line[std::size_t(k)];
    }
  for (index_t i2 = 0; i2 < s; ++i2)
    for (index_t i1 = 0; i1 < s; ++i1)
      for (index_t i0 = 0; i0 < s; ++i0) {
        const cld v = x[std::size_t(i0 + s * (i1 + s * i2))];
        ref[i2 + s * (i1 + s * i0)] = c64(double(v.real()), double(v.imag()));
      }
}

// ---------------------------------------------------------------------------
// The closed loop.

struct Failures {
  long throws = 0, nonfinite = 0, nondeterministic = 0, probe_above_eps = 0;
  long total() const { return throws + nonfinite + nondeterministic + probe_above_eps; }
};

class Loop {
 public:
  /// Allocates (and touches) every output buffer, so that the RSS growth
  /// measured across plan construction is the plan's alone.
  Loop(const std::vector<std::vector<c64>>& inputs, index_t n)
      : inputs_(inputs),
        n_(n),
        out_(std::size_t(n)),
        first_(kInputs, std::vector<c64>(std::size_t(n))) {}

  void bind(Plan& plan) { plan_ = &plan; }

  /// Accuracy probes: one call per input, before any timing. Their outputs
  /// become the determinism references for every later call.
  void probe(const std::vector<std::vector<c64>>& refs, double eps, double& first_call_ms,
             double& worst_err) {
    worst_err = 0;
    for (int i = 0; i < kInputs; ++i) {
      c64* y = first_[std::size_t(i)].data();
      const double s = timed(i, y);
      if (i == 0) first_call_ms = 1e3 * s;
      const double err = rel_l2(y, refs[std::size_t(i)].data(), n_);
      worst_err = std::max(worst_err, err);
      if (!all_finite(y, n_)) ++fail_.nonfinite;
      if (!(err <= eps)) ++fail_.probe_above_eps;
    }
  }

  /// The next call, on input calls mod 4; its wall time in seconds, or -1
  /// when it threw. The output check runs outside the timed interval.
  double call() {
    const int i = int(calls_ % kInputs);
    const double s = timed(i, out_.data());
    if (s >= 0) check(i);
    return s;
  }

  /// Calls until `seconds` elapsed and at least `min_calls` ran; returns
  /// the wall time of each call that did not throw.
  std::vector<double> run(double seconds, long min_calls) {
    std::vector<double> lat;
    const auto t0 = Clock::now();
    for (long n = 0; seconds_since(t0) < seconds || n < min_calls; ++n)
      if (const double s = call(); s >= 0) lat.push_back(s);
    return lat;
  }

  long attempted() const { return calls_; }
  const Failures& failures() const { return fail_; }

 private:
  /// One execute on input i inside the call span; -1 when it threw.
  double timed(int i, c64* y) {
    ++calls_;
    try {
      const auto t0 = Clock::now();
      {
        FMMFFT_SPAN(kCallSpan);
        plan_->execute(inputs_[std::size_t(i)].data(), y);
      }
      return seconds_since(t0);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "execute threw: %s\n", e.what());
      ++fail_.throws;
      return -1;
    }
  }

  void check(int i) {
    if (!all_finite(out_.data(), n_))
      ++fail_.nonfinite;
    else if (std::memcmp(out_.data(), first_[std::size_t(i)].data(),
                         sizeof(c64) * std::size_t(n_)) != 0)
      ++fail_.nondeterministic;
  }

  Plan* plan_ = nullptr;
  const std::vector<std::vector<c64>>& inputs_;
  index_t n_;
  std::vector<c64> out_;
  std::vector<std::vector<c64>> first_;
  long calls_ = 0;
  Failures fail_;
};

struct Window {
  std::vector<double> lat;    // seconds per call
  std::vector<double> setup;  // seconds per plan construction
  double triad_gbps = 0;      // before the window
  double drift = 0;           // |after − before| / before
};

/// One measured window with the setup batches spread through it (see
/// kSetupBatches), bracketed by the noise guard; re-measured while the
/// triad rate drifts past kDriftLimit and the retry fits before
/// `deadline_s` (seconds since `process_t0`). Keeps the attempt with the
/// least drift.
Window guarded_window(Loop& loop, const Workload& w, Triad& triad, double seconds,
                      long min_calls, Clock::time_point process_t0, double deadline_s,
                      int& retries) {
  const double chunk_s = seconds / kSetupBatches;
  const long chunk_calls = (min_calls + kSetupBatches - 1) / kSetupBatches;
  Window best;
  for (int attempt = 0;; ++attempt) {
    Window x;
    x.triad_gbps = triad.gbps();
    for (int b = 0; b < kSetupBatches; ++b) {
      for (double s : loop.run(chunk_s, chunk_calls)) x.lat.push_back(s);
      const auto t0 = Clock::now();
      for (int r = 0; r < kSetupMinReps || seconds_since(t0) < kSetupShare * chunk_s; ++r)
        x.setup.push_back(time_ctor(w.build));
    }
    x.drift = std::fabs(triad.gbps() - x.triad_gbps) / x.triad_gbps;
    if (attempt == 0 || x.drift < best.drift) best = std::move(x);
    const bool fits = seconds_since(process_t0) + 1.1 * seconds + 0.5 < deadline_s;
    if (best.drift <= kDriftLimit || attempt == kMaxRetries || !fits) return best;
    ++retries;
  }
}

/// Median of `reps` calls of `fn` after one discarded call (first-use
/// effects).
double median_of(const std::function<double()>& fn, int reps) {
  fn();
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) s.push_back(fn());
  return quantile(s, 0.5);
}

/// Per-layer metrics from a traced window: real calls in serial exec mode,
/// so every stage runs on the calling thread, with the library's spans,
/// counters and traffic ledger on. Counts are per call; times are medians
/// over calls of each call's total. The last call's spans go to
/// `trace_path` as Chrome-trace JSON.
std::map<std::string, double> traced_layers(Loop& loop, double seconds, long min_calls,
                                            const std::string& trace_path) {
  exec::ScopedMode serial(exec::Mode::Serial);
  obs::Recorder& rec = obs::Recorder::global();
  obs::reset();
  obs::enable_tracing(true);
  obs::enable_metrics(true);
  obs::enable_traffic(true);
  std::map<std::string, std::vector<double>> per_key;
  long calls = 0;
  for (const auto t0 = Clock::now(); seconds_since(t0) < seconds || calls < min_calls; ++calls) {
    rec.clear();
    loop.call();
    if (rec.dropped() > 0) throw std::runtime_error("a trace lane overflowed during one call");
    for (const auto& [k, v] : attribute(rec.snapshot())) per_key[k].push_back(v);
  }
  obs::disable();
  {
    std::ofstream os(trace_path);
    rec.write_chrome_trace(os);
  }

  const auto& metrics = obs::Metrics::global();
  const auto counters = metrics.counters_snapshot();
  auto per_call = [&](const std::string& name) {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second / double(calls);
  };
  auto med = [&](const std::string& key) {
    auto it = per_key.find(key);
    if (it == per_key.end()) return 0.0;
    it->second.resize(std::size_t(calls), 0.0);  // calls without the key add 0
    return quantile(it->second, 0.5);
  };
  auto rate = [](double work, double ms) { return ms > 0 ? work / (ms * 1e-3) : 0.0; };

  std::map<std::string, double> m;
  for (const char* key :
       {"fmm.s2m_ms", "fmm.m2m_ms", "fmm.s2t_ms", "fmm.m2l_ms", "fmm.m2l_base_ms",
        "fmm.reduce_ms", "fmm.l2l_ms", "fmm.l2t_ms", "fmm.halo_ms", "fft.ms", "fft2d.other_ms",
        "core.post_ms", "host.load_ms", "host.store_ms", "dist.a2a_ms", "dist.halo_ms",
        "dist.allgather_ms", "dist.twiddle_ms", "trace.unattributed_ms"})
    m[key] = med(key);
  m["fmm.flops"] = per_call("fmm.flops");
  m["fmm.gflops"] = rate(m["fmm.flops"], med("_fmm_ms")) / 1e9;
  m["blas.bgemm_gflops"] = rate(per_call("blas.flops"), med("_blas_ms")) / 1e9;
  m["fft.mpts_s"] = rate(per_call("fft.points"), m["fft.ms"]) / 1e6;
  m["dist.comm_bytes"] = per_call("fabric.bytes");
  m["dist.a2a_bytes"] = metrics.counters_with_prefix("fabric.bytes.A2A") / double(calls);
  m["dist.messages"] = per_call("fabric.sends");
  m["mem.bytes_moved"] = obs::TrafficLedger::global().total().bytes_moved() / double(calls);
  m["mem.gbps"] = rate(m["mem.bytes_moved"], med("_call_ms")) / 1e9;
  m["trace.coverage"] = med("_coverage");
  m["_call_ms"] = med("_call_ms");
  return m;
}

/// 1 when a default-mode call runs the exec task graph, 0 otherwise; read
/// from the library's exec.graphs counter over one call.
double runs_async(Loop& loop) {
  obs::Metrics::global().reset();
  obs::enable_metrics(true);
  loop.call();
  obs::enable_metrics(false);
  return obs::Metrics::global().counter("exec.graphs").value() > 0 ? 1.0 : 0.0;
}

struct Args {
  std::string workload, trace;
  unsigned long long seed = 1;
  double seconds = 10;
  long min_samples = 100;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v;
    else if (k == "--min-samples") a.min_samples = std::stol(v);
    else throw std::invalid_argument("unknown option " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0) || a.min_samples < 1)
    throw std::invalid_argument("--seconds and --min-samples must be positive");
  return a;
}

int run(const Args& args) {
  const auto process_t0 = Clock::now();
  std::vector<Workload> all = workloads();
  auto wit = std::find_if(all.begin(), all.end(),
                          [&](const Workload& w) { return w.name == args.workload; });
  if (wit == all.end()) throw std::invalid_argument("unknown workload " + args.workload);
  const Workload& w = *wit;
  const bool traced = !args.trace.empty();
  const int threads = ThreadPool::default_workers();

  std::vector<std::vector<c64>> inputs, refs;
  for (int i = 0; i < kInputs; ++i) {
    inputs.emplace_back(std::size_t(w.n));
    fill_uniform(inputs.back().data(), w.n, args.seed + std::uint64_t(i));
    refs.emplace_back(std::size_t(w.n));
    reference(w, inputs.back().data(), refs.back().data());
  }
  Triad triad(threads, std::min(0.25, args.seconds / 16));
  parallel_for(threads, [](index_t, index_t) {}, 1);  // start the pool

  Loop loop(inputs, w.n);
  const double rss0 = rss_mib();
  std::unique_ptr<Plan> plan = w.build();
  loop.bind(*plan);
  double first_call_ms = 0, err = 0;
  loop.probe(refs, w.eps, first_call_ms, err);
  // RSS is read after a fixed number of calls, not a fixed time: the dist
  // plans' sim::Fabric appends every message to a transfer log that is
  // never cleared, so their RSS grows with the call count.
  loop.run(0, std::min<long>(20, args.min_samples));
  const double plan_mem_mb = rss_mib() - rss0;
  loop.run(std::min(2.0, 0.25 * args.seconds), 0);

  // Traced, the untraced window shrinks to 40% of --seconds, leaving 20%
  // for the serial-mode window and 40% for the traced one.
  time_ctor(w.build);  // discarded: first-use effects
  int retries = 0;
  const Window win = guarded_window(loop, w, triad, traced ? 0.4 * args.seconds : args.seconds,
                                    args.min_samples, process_t0, kRetryFactor * args.seconds,
                                    retries);
  const std::vector<double>& lat = win.lat;
  double lat_sum = 0;
  for (double s : lat) lat_sum += s;
  const double p50_ms = 1e3 * quantile(lat, 0.5);
  const double setup_s = quantile(win.setup, 0.5);

  std::map<std::string, double> m;
  m["latency_ms_p50"] = p50_ms;
  m["throughput_mpts_s"] = double(w.n) * double(lat.size()) / lat_sum / 1e6;
  m["setup_s"] = setup_s;
  m["plan_mem_mb"] = plan_mem_mb;
  m["rel_l2_err"] = err;
  m["latency_ms_p25"] = 1e3 * quantile(lat, 0.25);
  m["latency_ms_p75"] = 1e3 * quantile(lat, 0.75);
  m["latency_ms_p90"] = 1e3 * quantile(lat, 0.90);
  m["first_call_ms"] = first_call_ms;
  m["samples"] = double(lat.size());
  m["setup_samples"] = double(win.setup.size());
  m["calib.triad_gbps"] = win.triad_gbps;
  m["calib.drift"] = win.drift;
  m["retries"] = retries;

  if (traced) {
    m["exec.async"] = runs_async(loop);
    std::vector<double> serial;
    {
      exec::ScopedMode mode(exec::Mode::Serial);
      serial = loop.run(0.2 * args.seconds, args.min_samples);
    }
    const double serial_p50_ms = 1e3 * quantile(serial, 0.5);
    m["exec.async_speedup"] = serial_p50_ms / p50_ms;

    for (auto& [k, v] : traced_layers(loop, 0.4 * args.seconds, args.min_samples, args.trace))
      m[k] = v;
    // Both windows run in serial exec mode, so the ratio is the tracing cost.
    m["trace.overhead_frac"] = m["_call_ms"] / serial_p50_ms - 1.0;
    m["mem.stream_frac"] = m["mem.gbps"] / win.triad_gbps;

    const double engines_ms = 1e3 * median_of(w.engines_ctor_s, kBreakdownReps);
    const double plans_ms = 1e3 * median_of(w.fft_plans_ctor_s, kBreakdownReps);
    m["setup.engine_ms"] = engines_ms;
    m["setup.fft_plan_ms"] = plans_ms;
    m["setup.other_ms"] = 1e3 * setup_s - engines_ms - plans_ms;
  }

  const Failures& f = loop.failures();
  m["failed_frac"] = double(f.total()) / double(loop.attempted());

  obs::JsonWriter jw(std::cout);
  jw.begin_object();
  jw.kv("schema", "fmmfft.e2e.v2");
  jw.kv("workload", w.name);
  jw.kv("seed", double(args.seed));
  jw.kv("seconds", args.seconds);
  jw.kv("threads", threads);
  jw.kv("n", double(w.n));
  jw.kv("eps", w.eps);
  jw.key("traced");
  jw.value(traced);
  jw.kv("attempted", double(loop.attempted()));
  jw.kv("failed", double(f.total()));
  jw.key("failures");
  jw.begin_object();
  jw.kv("throws", double(f.throws));
  jw.kv("nonfinite", double(f.nonfinite));
  jw.kv("nondeterministic", double(f.nondeterministic));
  jw.kv("probe_above_eps", double(f.probe_above_eps));
  jw.end_object();
  if (w.model_speedup) jw.kv("model_p100_speedup", w.model_speedup());
  jw.key("metrics");
  jw.begin_object();
  for (const auto& [k, v] : m)
    if (k[0] != '_') jw.kv(k, v);
  jw.end_object();
  jw.end_object();
  std::cout << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fmmfft_e2e: %s\n", e.what());
    return 1;
  }
}
