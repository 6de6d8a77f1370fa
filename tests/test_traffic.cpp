// Tests for the memory-traffic ledger: exact hand-counted bytes/flops on a
// small GEMM, a Stockham FFT, and a distributed all-to-all; serial-vs-async
// executor identity of the algorithmic totals; the traffic-vs-model
// cross-check on a real distributed run; the zero-allocation disabled path;
// and finite STREAM/FMA roofline calibration.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "blas/blas.hpp"
#include "common/rng.hpp"
#include "dist/collectives.hpp"
#include "dist/dfmmfft.hpp"
#include "exec/executor.hpp"
#include "fft/fft.hpp"
#include "json_validator.hpp"
#include "obs/compare.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"
#include "oracles.hpp"

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

/// RAII: clean ledger with collection on, wipe + disable on exit.
struct TrafficSession {
  TrafficSession() {
    disable();
    reset();
    enable_traffic(true);
  }
  ~TrafficSession() {
    disable();
    reset();
  }
};

TEST(Ledger, GemmBytesHandCounted) {
  TrafficSession s;
  const index_t m = 4, n = 4, k = 4;
  std::vector<double> a(std::size_t(m * k), 1.0), b(std::size_t(k * n), 2.0),
      c(std::size_t(m * n), 0.0);
  blas::gemm<double>(blas::Op::N, blas::Op::N, m, n, k, 1.0, a.data(), m, b.data(), k, 0.0,
                     c.data(), m);
  const auto snap = TrafficLedger::global().snapshot();
  ASSERT_TRUE(snap.count("blas.gemm"));
  const auto& t = snap.at("blas.gemm");
  // beta = 0: reads A (4x4) and B (4x4), writes C (4x4), 2mnk flops.
  EXPECT_DOUBLE_EQ(t.bytes_read, 32 * 8.0);
  EXPECT_DOUBLE_EQ(t.bytes_written, 16 * 8.0);
  EXPECT_DOUBLE_EQ(t.flops, 128.0);
  EXPECT_DOUBLE_EQ(t.calls, 1.0);

  // blas.* is an aux scope (its operand traffic double-counts the FMM stage
  // accounting): excluded from the primary total.
  EXPECT_TRUE(TrafficLedger::is_aux("blas.gemm"));
  EXPECT_DOUBLE_EQ(TrafficLedger::global().total(/*primary_only=*/true).bytes_moved(), 0.0);
  EXPECT_DOUBLE_EQ(TrafficLedger::global().total(false).bytes_moved(), 48 * 8.0);
}

TEST(Ledger, StockhamFftBytesHandCounted) {
  TrafficSession s;
  // n = 8: 2 radix-4 stages, even, no copy-back -> 2 passes. Each pass reads
  // and writes all 8 complex elements (16 B each in double).
  {
    fft::Plan1D<double> plan(8);
    std::vector<std::complex<double>> x(8, {1.0, 0.0});
    plan.execute(x.data(), fft::Direction::Forward);
  }
  auto snap = TrafficLedger::global().snapshot();
  ASSERT_TRUE(snap.count("fft"));
  EXPECT_DOUBLE_EQ(snap.at("fft").bytes_read, 2 * 8 * 16.0);
  EXPECT_DOUBLE_EQ(snap.at("fft").bytes_written, 2 * 8 * 16.0);
  EXPECT_DOUBLE_EQ(snap.at("fft").flops, fft::fft_flops(8));

  // n = 2: a single stage, odd, so the ping-pong ends in scratch and a
  // copy-back pass rides along -> 2 passes over 2 elements.
  TrafficLedger::global().reset();
  {
    fft::Plan1D<double> plan(2);
    std::vector<std::complex<double>> x(2, {1.0, 0.0});
    plan.execute(x.data(), fft::Direction::Forward);
  }
  snap = TrafficLedger::global().snapshot();
  EXPECT_DOUBLE_EQ(snap.at("fft").bytes_read, 2 * 2 * 16.0);
  EXPECT_DOUBLE_EQ(snap.at("fft").bytes_written, 2 * 2 * 16.0);
}

TEST(Ledger, AllToAllBytesHandCounted) {
  TrafficSession s;
  // m = p = 4 over g = 2: each ordered pair exchanges (m/g)(p/g) = 4
  // doubles; 4 pairs total, 2 of them off-device.
  const index_t m = 4, p = 4;
  sim::Fabric fabric(2);
  std::vector<double> buf_in(16), buf_out(16);
  for (int i = 0; i < 16; ++i) buf_in[(std::size_t)i] = double(i);
  const std::vector<double*> in = {buf_in.data(), buf_in.data() + 8};
  const std::vector<double*> out = {buf_out.data(), buf_out.data() + 8};
  dist::exchange_permute_mp(in, out, m, p, "A2A-T").run(fabric);

  const auto snap = TrafficLedger::global().snapshot();
  // Fused path: pack is the strided gather's read side, unpack the
  // scatter's write side — one read + one write per element, 4 pairs x 4
  // doubles each. The staged path's extra copy (pack-write + unpack-read)
  // is gone: those columns are exactly zero.
  EXPECT_DOUBLE_EQ(snap.at("a2a.pack").bytes_read, 4 * 4 * 8.0);
  EXPECT_DOUBLE_EQ(snap.at("a2a.pack").bytes_written, 0.0);
  EXPECT_DOUBLE_EQ(snap.at("a2a.unpack").bytes_read, 0.0);
  EXPECT_DOUBLE_EQ(snap.at("a2a.unpack").bytes_written, 4 * 4 * 8.0);
  // Fabric payload counts off-device sends only: 2 pairs x 4 doubles, which
  // is the (G-1)/G share of the 16-element permutation.
  EXPECT_DOUBLE_EQ(snap.at("comm.A2A-T").comm_bytes, 2 * 4 * 8.0);

  // Permutation correctness unaffected by the accounting.
  EXPECT_DOUBLE_EQ(buf_out[1], buf_in[4]);
}

TEST(Ledger, FusedAllToAllHalvesStagedBytes) {
  // The staged reference moves every element four times (pack rd+wr,
  // unpack rd+wr); the fused path moves it twice. Same fabric payload,
  // bit-identical outputs.
  const index_t m = 16, p = 8;
  const int g = 4;
  std::vector<double> buf_in(std::size_t(m * p)), out_fused(buf_in.size()),
      out_staged(buf_in.size());
  for (std::size_t i = 0; i < buf_in.size(); ++i) buf_in[i] = double(i) * 0.5;
  const index_t slab = m * p / g;
  std::vector<double*> in, of, os;
  for (int r = 0; r < g; ++r) {
    in.push_back(buf_in.data() + r * slab);
    of.push_back(out_fused.data() + r * slab);
    os.push_back(out_staged.data() + r * slab);
  }

  double fused_moved = 0, staged_moved = 0, fused_comm = 0, staged_comm = 0;
  {
    TrafficSession s;
    sim::Fabric fabric(g);
    dist::exchange_permute_mp(in, of, m, p, "A2A-T").run(fabric);
    const auto snap = TrafficLedger::global().snapshot();
    fused_moved = snap.at("a2a.pack").bytes_moved() + snap.at("a2a.unpack").bytes_moved();
    fused_comm = snap.at("comm.A2A-T").comm_bytes;
  }
  {
    TrafficSession s;
    sim::Fabric fabric(g);
    dist::all_to_all_permute_mp_staged(fabric, in, os, m, p, "A2A-T");
    const auto snap = TrafficLedger::global().snapshot();
    staged_moved = snap.at("a2a.pack").bytes_moved() + snap.at("a2a.unpack").bytes_moved();
    staged_comm = snap.at("comm.A2A-T").comm_bytes;
  }
  EXPECT_DOUBLE_EQ(fused_moved, 2.0 * double(m) * double(p) * 8.0);
  EXPECT_DOUBLE_EQ(staged_moved, 4.0 * double(m) * double(p) * 8.0);
  EXPECT_DOUBLE_EQ(fused_moved, 0.5 * staged_moved);
  EXPECT_DOUBLE_EQ(fused_comm, staged_comm);  // §5.2 message payload unchanged
  EXPECT_EQ(out_fused, out_staged);
}

TEST(Ledger, SerialAndAsyncTotalsAreIdentical) {
  // The ledger records algorithmic traffic, so totals must be a pure
  // function of the problem — bit-identical across executor modes (exec.*
  // scopes carry wall seconds and are excluded).
  const fmm::Params prm{1 << 14, 64, 8, 2, 18};
  using In = std::complex<double>;
  std::vector<In> x(std::size_t(prm.n)), y(x.size());
  fill_uniform(x.data(), prm.n, 11);

  auto run = [&](exec::Mode mode) {
    TrafficSession s;
    exec::ScopedMode sm(mode);
    dist::DistFmmFft<In> plan(prm, 2);
    plan.execute(x.data(), y.data());
    std::map<std::string, TrafficTotals> snap;
    for (auto& [name, t] : TrafficLedger::global().snapshot())
      if (name.rfind("exec.", 0) != 0) snap.emplace(name, t);
    return snap;
  };
  const auto serial = run(exec::Mode::Serial);
  const auto async = run(exec::Mode::Async);

  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), async.size());
  for (const auto& [name, t] : serial) {
    ASSERT_TRUE(async.count(name)) << name;
    const auto& u = async.at(name);
    EXPECT_EQ(t.bytes_read, u.bytes_read) << name;
    EXPECT_EQ(t.bytes_written, u.bytes_written) << name;
    EXPECT_EQ(t.comm_bytes, u.comm_bytes) << name;
    EXPECT_EQ(t.flops, u.flops) << name;
  }
}

TEST(Ledger, TrafficMatchesModelOnDistributedRun) {
  TrafficSession s;
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
  const auto report = compare_traffic_with_model(prm, /*components=*/2, g, sizeof(double), 1, tb);
  EXPECT_TRUE(report.all_ok()) << report.to_string();
  ASSERT_GE(report.checks.size(), 8u);

  // Ledger JSON is loadable and carries the expected schema.
  std::ostringstream os;
  TrafficLedger::global().write_json(os);
  EXPECT_TRUE(JsonValidator(os.str()).valid()) << os.str();
  EXPECT_NE(os.str().find("\"fmmfft.traffic.v1\""), std::string::npos);

  // A second run doubles every count; runs=2 must still agree exactly.
  plan.execute(x.data(), y.data());
  EXPECT_TRUE(compare_traffic_with_model(prm, 2, g, sizeof(double), /*runs=*/2, tb).all_ok());

  // FMMFFT_DECOMP/FMMFFT_GRID choose only the 3D FFT's decomposition: under
  // a pencil request the 2D stage still ships the one-phase A2A-2D payload
  // and nothing on the row/column sub-communicators.
  setenv("FMMFFT_DECOMP", "pencil", 1);
  setenv("FMMFFT_GRID", "2x2", 1);
  {
    TrafficSession s4;
    dist::DistFmmFft<In> plan4(prm, 4);
    plan4.execute(x.data(), y.data());
    const auto four = compare_traffic_with_model(prm, 2, 4, sizeof(double), 1, tb);
    EXPECT_TRUE(four.all_ok()) << four.to_string();
    const auto snap4 = TrafficLedger::global().snapshot();
    for (const char* scope : {"comm.A2A-ROW", "comm.A2A-COL"})
      EXPECT_EQ(snap4.count(scope) ? snap4.at(scope).comm_bytes : 0.0, 0.0) << scope;
  }
  unsetenv("FMMFFT_DECOMP");
  unsetenv("FMMFFT_GRID");
}

TEST(Ledger, MixedTrafficMatchesModelAndHalvesCommBytes) {
  // Mixed precision must stay exact against the model with trans_bytes = 4
  // and ship exactly half the fp64 run's FMM comm payload; the all-to-all
  // (shell width) is untouched. Per-precision ".f32" scope keys make the
  // two byte populations separately visible.
  const fmm::Params prm{1 << 14, 64, 8, 2, 18};
  const int g = 2;
  using In = std::complex<double>;
  std::vector<In> x(std::size_t(prm.n)), y(x.size());
  fill_uniform(x.data(), prm.n, 7);

  struct Sums {
    double fmm_comm = 0, a2a = 0;
    bool any_f32 = false;
  };
  auto run = [&](fmm::Precision prec, double trans_bytes) {
    TrafficSession s;
    dist::DistFmmFft<In> plan(prm, g, prec);
    plan.execute(x.data(), y.data());
    EXPECT_TRUE(compare_traffic_with_model(prm, 2, g, sizeof(double), 1, trans_bytes).all_ok());
    Sums sums;
    for (const auto& [name, t] : TrafficLedger::global().snapshot()) {
      if (name.rfind("comm.COMM-", 0) == 0) sums.fmm_comm += t.comm_bytes;
      if (name.rfind("comm.A2A-2D", 0) == 0) sums.a2a += t.comm_bytes;
      // A session reset zeroes scopes but keeps their names, so a ".f32"
      // scope left by an earlier mixed run counts only if it saw bytes.
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".f32") == 0 &&
          t.bytes_moved() > 0)
        sums.any_f32 = true;
    }
    return sums;
  };

  const Sums fp64 = run(fmm::Precision::Fp64, 0);
  const Sums mixed = run(fmm::Precision::Mixed, 4.0);
  ASSERT_GT(fp64.fmm_comm, 0.0);
  EXPECT_FALSE(fp64.any_f32);
  EXPECT_TRUE(mixed.any_f32);
  EXPECT_EQ(mixed.fmm_comm, fp64.fmm_comm / 2);  // exact byte counts
  EXPECT_EQ(mixed.a2a, fp64.a2a);                // shell width untouched
}

TEST(Disabled, TrafficHooksDoNotAllocate) {
  disable();
  reset();
  // Warm up: materialize the scope node and the call-site reference cache
  // while enabled, so the disabled loop measures only the steady state.
  enable_traffic(true);
  FMMFFT_TRAFFIC_RW("warm.rw", 1, 1, 1);
  FMMFFT_TRAFFIC_COMM("warm.comm", 1);
  enable_traffic(false);

  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    FMMFFT_TRAFFIC_RW("warm.rw", 64, 64, 128);
    FMMFFT_TRAFFIC_COMM("warm.comm", 64);
    FMMFFT_TRAFFIC_RW("never.materialized", 64, 64, 128);
  }
  EXPECT_EQ(g_allocs.load(), before);
  // The disabled hooks recorded nothing beyond the two warm-up adds.
  EXPECT_DOUBLE_EQ(TrafficLedger::global().total(false).bytes_moved(), 3.0);
  reset();
}

TEST(Disabled, CollectivesSteadyStateDoesNotAllocate) {
  // With observability off (the disabled-observability bench rows), a
  // steady-state all-to-all must allocate nothing: the fused path writes
  // straight into the destination slabs, the staged reference leases its
  // stage from the thread-local ScratchArena, and the fabric ledger's
  // vector keeps its capacity across reset(). Serial-forced so
  // parallel_for takes its direct-call path (no std::function).
  disable();
  reset();
  ThreadPool::ScopedSerial serial;
  const index_t m = 16, p = 8;
  const int g = 4;
  std::vector<double> buf_in(std::size_t(m * p), 1.0), buf_out(buf_in.size());
  const index_t slab = m * p / g;
  std::vector<double*> in, out;
  for (int r = 0; r < g; ++r) {
    in.push_back(buf_in.data() + r * slab);
    out.push_back(buf_out.data() + r * slab);
  }
  sim::Fabric fabric(g);
  // Warm-up: grow the ledger vector, fault in the arena slabs.
  dist::exchange_permute_mp(in, out, m, p, "A2A-T").run(fabric);
  dist::all_to_all_permute_mp_staged(fabric, in, out, m, p, "A2A-T");
  fabric.reset();

  const std::uint64_t before = g_allocs.load();
  for (int rep = 0; rep < 100; ++rep) {
    dist::exchange_permute_mp(in, out, m, p, "A2A-T").run(fabric);
    dist::all_to_all_permute_mp_staged(fabric, in, out, m, p, "A2A-T");
    fabric.reset();
  }
  EXPECT_EQ(g_allocs.load(), before);
}

TEST(Calibration, RooflineRatesAreFiniteAndPositive) {
  // Tiny arrays / one rep: validity, not measurement quality.
  const auto r = calibrate_roofline(/*threads=*/1, /*elems=*/index_t(1) << 14, /*reps=*/1);
  EXPECT_EQ(r.threads, 1);
  for (double v : {r.copy_bps, r.scale_bps, r.triad_bps, r.fma_flops, r.roof_bps()}) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 0.0);
  }

  const auto sweep = calibrate_roofline_sweep(index_t(1) << 14, 1);
  ASSERT_GE(sweep.size(), 1u);
  std::ostringstream os;
  write_calibration_json(os, sweep);
  EXPECT_TRUE(JsonValidator(os.str()).valid()) << os.str();
  EXPECT_NE(os.str().find("\"fmmfft.calibration.v1\""), std::string::npos);
}

}  // namespace
}  // namespace fmmfft::obs
