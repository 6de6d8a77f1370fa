// End-to-end validation of the FMM-FFT: the dense factorization identity,
// the full approximate pipeline against the exact FFT across the admissible
// parameter grid and all four precisions, and the paper's headline accuracy
// bounds (§6.1: < 4e-7 rel l2 in single-complex, < 2e-14 in double-complex).
#include <gtest/gtest.h>

#include <complex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "core/fmmfft.hpp"
#include "core/reference.hpp"
#include "fmm/accuracy.hpp"
#include "fft/fft.hpp"

namespace fmmfft::core {
namespace {

using Cd = std::complex<double>;
using Cf = std::complex<float>;

// CI runs one leg of the suite under FMMFFT_PRECISION=mixed; plans built
// with the ambient default then land at the §6.1 single-precision envelope
// instead of the fp64 one, so the precision-generic tests pick their bound
// from the active policy.
bool ambient_mixed() { return fmm::default_precision() == fmm::Precision::Mixed; }

TEST(Factorization, DenseIdentityIsExact) {
  // F_N = (I_P⊗F_M) Π_{M,P} (I_M⊗F_P) Π_{P,M} H Π_{M,P} to machine eps.
  for (auto [n, p] : {std::pair<index_t, index_t>{64, 4}, {256, 8}, {1024, 32}, {4096, 64}}) {
    fmm::Params prm{n, p, std::max<index_t>(1, n / p / 4), 2, 8};
    std::vector<Cd> x(static_cast<std::size_t>(n)), got(x.size()), expect(x.size());
    fill_uniform(x.data(), n, n + p);
    fmmfft_dense_reference(prm, x.data(), got.data());
    exact_fft(n, x.data(), expect.data());
    EXPECT_LT(rel_l2_error(got.data(), expect.data(), n), 1e-12) << "n=" << n << " p=" << p;
  }
}

struct Case {
  index_t n, p, ml;
  int b, q;
};

class FullPipeline : public ::testing::TestWithParam<Case> {};

TEST_P(FullPipeline, DoubleComplexMeetsPaperBound) {
  const auto c = GetParam();
  fmm::Params prm{c.n, c.p, c.ml, c.b, c.q};
  std::vector<Cd> x(static_cast<std::size_t>(c.n)), got(x.size()), expect(x.size());
  fill_uniform(x.data(), c.n, 1234);
  FmmFft<Cd> plan(prm);
  plan.execute(x.data(), got.data());
  exact_fft(c.n, x.data(), expect.data());
  // Paper §6.1: all reported double-complex runs achieve < 2e-14 rel l2;
  // under the ambient mixed policy the fp32 translation bound applies.
  EXPECT_LT(rel_l2_error(got.data(), expect.data(), c.n), ambient_mixed() ? 4e-7 : 2e-14)
      << prm.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, FullPipeline,
    ::testing::Values(Case{1 << 12, 32, 8, 2, 18},   // L=B? M=128,ML=8 -> L=4
                      Case{1 << 12, 32, 4, 3, 18},
                      Case{1 << 14, 64, 8, 2, 18},
                      Case{1 << 14, 32, 16, 3, 18},
                      Case{1 << 16, 256, 8, 2, 18},
                      Case{1 << 16, 64, 32, 3, 18},
                      Case{1 << 18, 256, 16, 3, 18},
                      Case{1 << 14, 64, 4, 4, 18},   // deeper base level
                      Case{1 << 16, 128, 4, 5, 18}));

TEST(FullPipeline, SerialAndPoolRunsAreBitIdentical) {
  // The parallelized kernels (sharded GEMM, batch-parallel FFT, striped
  // transpose) keep a fixed arithmetic order per output element, so a full
  // fmmfft run must not change with the worker count. ScopedSerial forces
  // the 1-thread execution path inside one process; CI additionally runs
  // the suite under FMMFFT_NUM_THREADS=1 and =4.
  fmm::Params prm{1 << 14, 64, 8, 2, 14};
  const index_t n = prm.n;
  std::vector<Cd> x(static_cast<std::size_t>(n)), pool_out(x.size()), serial_out(x.size());
  fill_uniform(x.data(), n, 4321);
  FmmFft<Cd> plan(prm);
  plan.execute(x.data(), pool_out.data());
  {
    ThreadPool::ScopedSerial serial;
    plan.execute(x.data(), serial_out.data());
  }
  EXPECT_EQ(pool_out, serial_out);
}

TEST(FullPipeline, MixedPrecisionMeetsFp32Envelope) {
  // Mixed under an fp64 shell: the fp32 translation pipeline must land
  // inside the paper's single-precision bound, actually diverge from the
  // fp64 result (the narrow path is engaged), and report its policy.
  fmm::Params prm{1 << 14, 64, 8, 2, 14};
  const index_t n = prm.n;
  std::vector<Cd> x(static_cast<std::size_t>(n)), expect(x.size());
  fill_uniform(x.data(), n, 515);
  exact_fft(n, x.data(), expect.data());

  FmmFft<Cd> plan64(prm, /*fuse_post=*/true, fmm::Precision::Fp64);
  FmmFft<Cd> planmx(prm, /*fuse_post=*/true, fmm::Precision::Mixed);
  EXPECT_EQ(plan64.precision(), fmm::Precision::Fp64);
  EXPECT_EQ(planmx.precision(), fmm::Precision::Mixed);
  std::vector<Cd> got64(x.size()), gotmx(x.size());
  plan64.execute(x.data(), got64.data());
  planmx.execute(x.data(), gotmx.data());
  EXPECT_LT(rel_l2_error(got64.data(), expect.data(), n),
            fmm::predict_rel_error(prm.q, /*is_double=*/true));
  EXPECT_LT(rel_l2_error(gotmx.data(), expect.data(), n), 4e-7);  // §6.1 f32 bound
  EXPECT_NE(got64, gotmx);
}

TEST(FullPipeline, MixedSerialAndPoolRunsAreBitIdentical) {
  // The worker-count invariant must survive the fp32 engine and the
  // elementwise demoting load.
  fmm::Params prm{1 << 14, 64, 8, 2, 14};
  const index_t n = prm.n;
  std::vector<Cd> x(static_cast<std::size_t>(n)), pool_out(x.size()), serial_out(x.size());
  fill_uniform(x.data(), n, 4321);
  FmmFft<Cd> plan(prm, /*fuse_post=*/true, fmm::Precision::Mixed);
  plan.execute(x.data(), pool_out.data());
  {
    ThreadPool::ScopedSerial serial;
    plan.execute(x.data(), serial_out.data());
  }
  EXPECT_EQ(pool_out, serial_out);
}

TEST(FullPipeline, MixedCollapsesToNativeUnderF32Shell) {
  // With an fp32 shell there is nothing to narrow: Mixed must take the
  // same engine and produce bit-identical output to the default plan.
  fmm::Params prm{1 << 14, 64, 8, 2, 10};
  const index_t n = prm.n;
  std::vector<Cf> x(static_cast<std::size_t>(n)), a(x.size()), b(x.size());
  fill_uniform(x.data(), n, 77);
  FmmFft<Cf> native(prm);
  FmmFft<Cf> mixed(prm, /*fuse_post=*/true, fmm::Precision::Mixed);
  native.execute(x.data(), a.data());
  mixed.execute(x.data(), b.data());
  EXPECT_EQ(a, b);
}

TEST(FullPipeline, SingleComplexMeetsPaperBound) {
  fmm::Params prm{1 << 16, 128, 16, 3, 8};  // Q=8: the paper's f32 tuning
  const index_t n = prm.n;
  std::vector<Cf> x(static_cast<std::size_t>(n));
  std::vector<Cf> got(x.size());
  fill_uniform(x.data(), n, 99);
  FmmFft<Cf> plan(prm);
  plan.execute(x.data(), got.data());
  std::vector<Cd> xd(x.size()), expect(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) xd[i] = Cd(x[i].real(), x[i].imag());
  exact_fft(n, xd.data(), expect.data());
  std::vector<Cd> gotd(got.size());
  for (std::size_t i = 0; i < got.size(); ++i) gotd[i] = Cd(got[i].real(), got[i].imag());
  // Paper §6.1: < 4e-7 relative l2 error in single-complex.
  EXPECT_LT(rel_l2_error(gotd.data(), expect.data(), n), 4e-7);
}

TEST(FullPipeline, RealInputMatchesComplexifiedFft) {
  fmm::Params prm{1 << 14, 64, 8, 2, 18};
  const index_t n = prm.n;
  std::vector<double> x(static_cast<std::size_t>(n));
  fill_uniform(x.data(), n, 31);
  std::vector<Cd> got(static_cast<std::size_t>(n));
  FmmFft<double> plan(prm);
  plan.execute(x.data(), got.data());
  std::vector<Cd> xc(x.size()), expect(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) xc[i] = Cd(x[i], 0);
  exact_fft(n, xc.data(), expect.data());
  EXPECT_LT(rel_l2_error(got.data(), expect.data(), n), ambient_mixed() ? 4e-7 : 2e-14);
}

TEST(FullPipeline, RealFloatInput) {
  fmm::Params prm{1 << 14, 64, 8, 2, 8};
  const index_t n = prm.n;
  std::vector<float> x(static_cast<std::size_t>(n));
  fill_uniform(x.data(), n, 32);
  std::vector<Cf> got(static_cast<std::size_t>(n));
  FmmFft<float> plan(prm);
  plan.execute(x.data(), got.data());
  std::vector<Cd> xc(x.size()), expect(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) xc[i] = Cd(x[i], 0);
  std::vector<Cd> gotd(got.size());
  exact_fft(n, xc.data(), expect.data());
  for (std::size_t i = 0; i < got.size(); ++i) gotd[i] = Cd(got[i].real(), got[i].imag());
  EXPECT_LT(rel_l2_error(gotd.data(), expect.data(), n), 4e-7);
}

TEST(FullPipeline, UnfusedPostGivesIdenticalResults) {
  fmm::Params prm{1 << 12, 32, 8, 2, 18};
  const index_t n = prm.n;
  std::vector<Cd> x(static_cast<std::size_t>(n)), a(x.size()), b(x.size());
  fill_uniform(x.data(), n, 7);
  FmmFft<Cd> fused(prm, /*fuse_post=*/true);
  FmmFft<Cd> unfused(prm, /*fuse_post=*/false);
  fused.execute(x.data(), a.data());
  unfused.execute(x.data(), b.data());
  EXPECT_EQ(a, b);
}

TEST(FullPipeline, LinearityOfWholeTransform) {
  fmm::Params prm{1 << 12, 32, 8, 2, 18};
  const index_t n = prm.n;
  std::vector<Cd> u(static_cast<std::size_t>(n)), v(u.size()), w(u.size());
  fill_uniform(u.data(), n, 11);
  fill_uniform(v.data(), n, 12);
  for (std::size_t i = 0; i < u.size(); ++i) w[i] = 3.0 * u[i] - Cd(0, 2) * v[i];
  FmmFft<Cd> plan(prm);
  std::vector<Cd> fu(u.size()), fv(u.size()), fw(u.size());
  plan.execute(u.data(), fu.data());
  plan.execute(v.data(), fv.data());
  plan.execute(w.data(), fw.data());
  std::vector<Cd> combo(u.size());
  for (std::size_t i = 0; i < u.size(); ++i) combo[i] = 3.0 * fu[i] - Cd(0, 2) * fv[i];
  EXPECT_LT(rel_l2_error(fw.data(), combo.data(), n), ambient_mixed() ? 1e-6 : 1e-12);
}

TEST(FullPipeline, ParsevalHolds) {
  fmm::Params prm{1 << 14, 64, 8, 2, 18};
  const index_t n = prm.n;
  std::vector<Cd> x(static_cast<std::size_t>(n)), y(x.size());
  fill_uniform(x.data(), n, 13);
  double ein = 0;
  for (auto& z : x) ein += std::norm(z);
  FmmFft<Cd> plan(prm);
  plan.execute(x.data(), y.data());
  double eout = 0;
  for (auto& z : y) eout += std::norm(z);
  EXPECT_NEAR(eout, ein * n, ein * n * (ambient_mixed() ? 2e-6 : 1e-10));
}

TEST(FullPipeline, PlanReuseAcrossInputs) {
  fmm::Params prm{1 << 12, 32, 8, 2, 18};
  const index_t n = prm.n;
  FmmFft<Cd> plan(prm);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<Cd> x(static_cast<std::size_t>(n)), got(x.size()), expect(x.size());
    fill_uniform(x.data(), n, 100 + trial);
    plan.execute(x.data(), got.data());
    exact_fft(n, x.data(), expect.data());
    EXPECT_LT(rel_l2_error(got.data(), expect.data(), n), ambient_mixed() ? 4e-7 : 2e-14)
        << "trial " << trial;
  }
}

TEST(FullPipeline, ProfileIsPopulated) {
  fmm::Params prm{1 << 14, 64, 8, 2, 16};
  const index_t n = prm.n;
  std::vector<Cd> x(static_cast<std::size_t>(n)), y(x.size());
  fill_uniform(x.data(), n, 3);
  FmmFft<Cd> plan(prm);
  plan.execute(x.data(), y.data());
  const auto& prof = plan.profile();
  EXPECT_FALSE(prof.fmm_stages.empty());
  EXPECT_GT(prof.fmm_flops(), 0.0);
  EXPECT_GT(prof.total_seconds, 0.0);
  EXPECT_GE(prof.total_seconds, prof.fft_seconds);
  EXPECT_GT(prof.kernel_launches(), 0);
  EXPECT_EQ(plan.params().n, n);
}

TEST(FullPipeline, RejectsInvalidPlanNamingTheRule) {
  // The plan is validated before any member is built from it, so P = 0 is
  // reported as the plan's rule rather than by the first FFT plan sized
  // from it.
  try {
    FmmFft<Cd> plan(fmm::Params{1 << 12, 0, 8, 2, 18});
    ADD_FAILURE() << "P = 0 accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("P must be a power of two"), std::string::npos)
        << e.what();
  }
}

TEST(ErrorSweep, OddEvenAccuracyImprovesWithQ) {
  // Fig. 9 (bottom): error decays with Q down to machine precision.
  fmm::Params base{1 << 12, 32, 8, 2, 2};
  const index_t n = base.n;
  std::vector<Cd> x(static_cast<std::size_t>(n)), expect(x.size());
  fill_uniform(x.data(), n, 55);
  exact_fft(n, x.data(), expect.data());
  double e4 = 0, e10 = 0, e18 = 0;
  for (int q : {4, 10, 18}) {
    fmm::Params prm = base;
    prm.q = q;
    FmmFft<Cd> plan(prm);
    std::vector<Cd> got(x.size());
    plan.execute(x.data(), got.data());
    double err = rel_l2_error(got.data(), expect.data(), n);
    if (q == 4) e4 = err;
    if (q == 10) e10 = err;
    if (q == 18) e18 = err;
  }
  EXPECT_GT(e4, e10);
  if (ambient_mixed()) {
    // Q=10 already sits at the fp32 translation floor, so the Q=10 vs
    // Q=18 ordering is noise; both must just stay inside the envelope.
    EXPECT_LT(e10, 4e-7);
    EXPECT_LT(e18, 4e-7);
  } else {
    EXPECT_GT(e10, e18);
    EXPECT_LT(e18, 1e-13);
  }
}

}  // namespace
}  // namespace fmmfft::core
