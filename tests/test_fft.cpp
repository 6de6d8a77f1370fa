// Unit and property tests for the FFT substrate: Stockham vs direct DFT,
// Bluestein sizes, round trips, batched/strided layouts, and classic FFT
// identities (linearity, Parseval, shift, impulse).
#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <thread>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "fft/fft.hpp"

namespace fmmfft::fft {
namespace {

template <typename T>
using Cx = std::complex<T>;

template <typename T>
std::vector<Cx<T>> random_signal(index_t n, std::uint64_t seed) {
  std::vector<Cx<T>> v(static_cast<std::size_t>(n));
  fill_uniform(v.data(), n, seed);
  return v;
}

class FftSizes : public ::testing::TestWithParam<int> {};

TEST_P(FftSizes, ForwardMatchesReferenceDouble) {
  const index_t n = GetParam();
  auto x = random_signal<double>(n, n);
  std::vector<Cx<double>> ref(n);
  dft_reference(x.data(), ref.data(), n);
  fft(x.data(), n, Direction::Forward);
  EXPECT_LT(rel_l2_error(x.data(), ref.data(), n), 1e-12) << "n=" << n;
}

TEST_P(FftSizes, ForwardMatchesReferenceFloat) {
  const index_t n = GetParam();
  auto x = random_signal<float>(n, n + 1);
  std::vector<Cx<float>> ref(n);
  dft_reference(x.data(), ref.data(), n);
  fft(x.data(), n, Direction::Forward);
  EXPECT_LT(rel_l2_error(x.data(), ref.data(), n), 2e-5) << "n=" << n;
}

TEST_P(FftSizes, RoundTripIsIdentity) {
  const index_t n = GetParam();
  auto x = random_signal<double>(n, 2 * n);
  auto orig = x;
  Plan1D<double> plan(n);
  plan.execute(x.data(), Direction::Forward);
  plan.execute(x.data(), Direction::Inverse);
  normalize(x.data(), n, n);
  EXPECT_LT(rel_l2_error(x.data(), orig.data(), n), 1e-13) << "n=" << n;
}

// Every power of two through 2^12 — both radix-4 stage counts (even log2)
// and the radix-2 cleanup path (odd log2) at every depth.
INSTANTIATE_TEST_SUITE_P(Pow2, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                                           4096));
INSTANTIATE_TEST_SUITE_P(Bluestein, FftSizes,
                         ::testing::Values(3, 5, 6, 7, 12, 15, 17, 100, 243, 1000));

TEST(Fft, LargePow2MatchesReference) {
  // 2^13 (odd log2: radix-2 cleanup + six radix-4 stages) and 2^14 (seven
  // radix-4 stages) against the direct DFT; double only — the O(n^2)
  // reference dominates the runtime.
  for (index_t n : {index_t(8192), index_t(16384)}) {
    auto x = random_signal<double>(n, 77 + n);
    std::vector<Cx<double>> ref(static_cast<std::size_t>(n));
    dft_reference(x.data(), ref.data(), n);
    fft(x.data(), n, Direction::Forward);
    EXPECT_LT(rel_l2_error(x.data(), ref.data(), n), 1e-11) << "n=" << n;
  }
}

TEST(Fft, ImpulseGivesAllOnes) {
  const index_t n = 64;
  std::vector<Cx<double>> x(n, Cx<double>(0));
  x[0] = Cx<double>(1, 0);
  fft(x.data(), n);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), 1.0, 1e-14);
    EXPECT_NEAR(x[i].imag(), 0.0, 1e-14);
  }
}

TEST(Fft, ShiftedImpulseGivesTwiddleRamp) {
  const index_t n = 32, shift = 5;
  std::vector<Cx<double>> x(n, Cx<double>(0));
  x[shift] = Cx<double>(1, 0);
  fft(x.data(), n);
  for (index_t i = 0; i < n; ++i) {
    double ang = -2.0 * pi_v<double> * double(i * shift) / double(n);
    EXPECT_NEAR(x[i].real(), std::cos(ang), 1e-13);
    EXPECT_NEAR(x[i].imag(), std::sin(ang), 1e-13);
  }
}

TEST(Fft, Linearity) {
  const index_t n = 128;
  auto a = random_signal<double>(n, 1);
  auto b = random_signal<double>(n, 2);
  std::vector<Cx<double>> sum(n);
  for (index_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  Plan1D<double> plan(n);
  plan.execute(a.data(), Direction::Forward);
  plan.execute(b.data(), Direction::Forward);
  plan.execute(sum.data(), Direction::Forward);
  std::vector<Cx<double>> combo(n);
  for (index_t i = 0; i < n; ++i) combo[i] = 2.0 * a[i] + 3.0 * b[i];
  EXPECT_LT(rel_l2_error(sum.data(), combo.data(), n), 1e-13);
}

TEST(Fft, ParsevalEnergyConservation) {
  const index_t n = 512;
  auto x = random_signal<double>(n, 3);
  double et = 0;
  for (auto& z : x) et += std::norm(z);
  fft(x.data(), n);
  double ef = 0;
  for (auto& z : x) ef += std::norm(z);
  EXPECT_NEAR(ef, et * n, et * n * 1e-12);
}

TEST(Fft, RealInputConjugateSymmetry) {
  const index_t n = 256;
  std::vector<Cx<double>> x(n);
  Rng rng(7);
  for (auto& z : x) z = Cx<double>(rng.uniform_sym(), 0.0);
  fft(x.data(), n);
  for (index_t k = 1; k < n; ++k) {
    EXPECT_NEAR(x[k].real(), x[n - k].real(), 1e-11);
    EXPECT_NEAR(x[k].imag(), -x[n - k].imag(), 1e-11);
  }
}

TEST(Fft, BatchedMatchesIndividual) {
  const index_t n = 64, count = 9;
  auto data = random_signal<double>(n * count, 4);
  auto expect = data;
  Plan1D<double> plan(n);
  plan.execute_batched(data.data(), count, Direction::Forward);
  for (index_t g = 0; g < count; ++g) plan.execute(expect.data() + g * n, Direction::Forward);
  EXPECT_EQ(data, expect);
}

TEST(Fft, StridedAdvancedLayout) {
  // Transform along the slow dimension of an 8×16 column-major array:
  // 8 batches, stride 8, dist 1 — equivalent to transpose+batched+transpose.
  const index_t n0 = 8, n1 = 16;
  auto data = random_signal<double>(n0 * n1, 5);
  auto expect = data;
  Plan1D<double> plan(n1);
  plan.execute_strided(data.data(), n0, /*stride=*/n0, /*dist=*/1, Direction::Forward);
  for (index_t i = 0; i < n0; ++i) {
    std::vector<Cx<double>> line(n1);
    for (index_t j = 0; j < n1; ++j) line[j] = expect[i + j * n0];
    plan.execute(line.data(), Direction::Forward);
    for (index_t j = 0; j < n1; ++j)
      EXPECT_EQ(data[i + j * n0], line[j]) << "i=" << i << " j=" << j;
  }
}

TEST(Fft, StridedWithUnitStrideUsesDist) {
  const index_t n = 32, count = 4;
  auto data = random_signal<double>(n * count, 6);
  auto expect = data;
  Plan1D<double> plan(n);
  plan.execute_strided(data.data(), count, 1, n, Direction::Forward);
  plan.execute_batched(expect.data(), count, Direction::Forward);
  EXPECT_EQ(data, expect);
}

TEST(Fft, PlanReuseIsConsistent) {
  const index_t n = 128;
  Plan1D<double> plan(n);
  auto x = random_signal<double>(n, 12);
  auto y = x;
  plan.execute(x.data(), Direction::Forward);
  plan.execute(y.data(), Direction::Forward);
  EXPECT_EQ(x, y);
  EXPECT_EQ(plan.size(), n);
}

TEST(Fft, SharedPlanConcurrentExecuteIsRaceFree) {
  // Regression: scratch used to live inside the plan, so concurrent
  // execute() on one shared plan was a data race that silently corrupted
  // results. Scratch is now a thread-local arena lease — hammer one plan
  // from many threads and check every transform against the reference.
  const index_t n = 256;
  const int kThreads = 8, kReps = 16;
  Plan1D<double> plan(n);
  auto x = random_signal<double>(n, 21);
  std::vector<Cx<double>> ref(static_cast<std::size_t>(n));
  dft_reference(x.data(), ref.data(), n);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int r = 0; r < kReps; ++r) {
        auto mine = x;
        plan.execute(mine.data(), Direction::Forward);
        if (rel_l2_error(mine.data(), ref.data(), n) > 1e-12) failures++;
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Fft, BatchedIsBitIdenticalSerialVsPool) {
  // Pool-chunked batches must produce exactly the serial result: each
  // batch is transformed by one task with a fixed arithmetic order.
  const index_t n = 512, count = 64;
  auto pool_run = random_signal<double>(n * count, 22);
  auto serial_run = pool_run;
  Plan1D<double> plan(n);
  plan.execute_batched(pool_run.data(), count, Direction::Forward);
  {
    ThreadPool::ScopedSerial serial;
    plan.execute_batched(serial_run.data(), count, Direction::Forward);
  }
  EXPECT_EQ(pool_run, serial_run);
}

TEST(Fft, PlanCacheReturnsSharedPlans) {
  const auto before = plan_cache_stats();
  auto p1 = cached_plan1d<double>(3072);  // unlikely to be cached by other tests
  const auto after_miss = plan_cache_stats();
  auto p2 = cached_plan1d<double>(3072);
  const auto after_hit = plan_cache_stats();
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(p1->size(), 3072);
  EXPECT_EQ(after_miss.misses, before.misses + 1);
  EXPECT_EQ(after_hit.hits, after_miss.hits + 1);
  // One-shot fft() goes through the cache: a repeat at the same size must
  // be a hit, not a rebuild.
  std::vector<Cx<double>> x(64, Cx<double>(1, 0));
  fft(x.data(), 64);
  const auto s1 = plan_cache_stats();
  fft(x.data(), 64);
  const auto s2 = plan_cache_stats();
  EXPECT_EQ(s2.hits, s1.hits + 1);
  EXPECT_EQ(s2.misses, s1.misses);
}

TEST(Fft, FlopModel) {
  EXPECT_EQ(fft_flops(1), 0.0);
  EXPECT_NEAR(fft_flops(1024), 5.0 * 1024 * 10, 1e-9);
}

TEST(Fft, ThrowsOnInvalidSize) {
  EXPECT_THROW(Plan1D<double>(0), Error);
  EXPECT_THROW(Plan1D<double>(-4), Error);
}

}  // namespace
}  // namespace fmmfft::fft
