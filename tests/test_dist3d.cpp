// Tests for the distributed 3D FFT: slab and pencil decompositions against
// the single-node reference transform and against each other (bit-identity
// across decompositions, processor grids, executor modes and a G = 1 run),
// fabric payload volumes per exchange phase, ledger-vs-model traffic
// exactness, the FMMFFT_DECOMP/FMMFFT_GRID environment knobs, and the
// autotuner's recorded decision.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "dist/dfft3d.hpp"
#include "exec/executor.hpp"
#include "fft/plan3d.hpp"
#include "obs/compare.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::dist {
namespace {

using Cd = std::complex<double>;
using Cf = std::complex<float>;

/// RAII: clean traffic ledger with collection on, wipe + disable on exit.
struct TrafficSession {
  TrafficSession() {
    obs::disable();
    obs::reset();
    obs::enable_traffic(true);
  }
  ~TrafficSession() {
    obs::disable();
    obs::reset();
  }
};

/// Run one transform with the given decomposition and return the output in
/// the driver's reversed layout y[i2 + n2·(i1 + n1·i0)].
template <typename T>
std::vector<std::complex<T>> run3d(index_t n0, index_t n1, index_t n2, int g,
                                   model::Decomp decomp, model::GridShape grid = {}) {
  const index_t n = n0 * n1 * n2;
  std::vector<std::complex<T>> x(static_cast<std::size_t>(n)), y(x.size());
  fill_uniform(x.data(), n, 1234);  // same seed everywhere: same input
  Dist3dFft<T> fft(n0, n1, n2, g, decomp, grid);
  fft.execute(x.data(), y.data());
  return y;
}

/// Reference via the single-node Plan3D (natural layout), remapped to the
/// driver's reversed output order.
template <typename T>
std::vector<std::complex<T>> reference3d(index_t n0, index_t n1, index_t n2) {
  const index_t n = n0 * n1 * n2;
  std::vector<std::complex<T>> x(static_cast<std::size_t>(n));
  fill_uniform(x.data(), n, 1234);
  fft::Plan3D<T> plan(n0, n1, n2);
  plan.execute(x.data(), fft::Direction::Forward);
  std::vector<std::complex<T>> rev(x.size());
  for (index_t i2 = 0; i2 < n2; ++i2)
    for (index_t i1 = 0; i1 < n1; ++i1)
      for (index_t i0 = 0; i0 < n0; ++i0)
        rev[(std::size_t)(i2 + n2 * (i1 + n1 * i0))] =
            x[(std::size_t)(i0 + n0 * (i1 + n1 * i2))];
  return rev;
}

TEST(Dist3d, SlabMatchesReferenceTransform) {
  const index_t n0 = 16, n1 = 8, n2 = 8;
  const auto ref = reference3d<double>(n0, n1, n2);
  for (int g : {1, 2, 4}) {
    const auto y = run3d<double>(n0, n1, n2, g, model::Decomp::Slab);
    EXPECT_LT(rel_l2_error(y.data(), ref.data(), n0 * n1 * n2), 1e-13) << "g=" << g;
  }
}

TEST(Dist3d, PencilGridsBitIdenticalToSlabAndG1) {
  // The tentpole invariant: every decomposition runs the same per-line
  // transforms over the same line values, so outputs agree bit-for-bit —
  // across grids, against the slab path, and against a single device.
  const index_t n0 = 16, n1 = 16, n2 = 8;
  const auto g1 = run3d<double>(n0, n1, n2, 1, model::Decomp::Slab);
  const auto slab4 = run3d<double>(n0, n1, n2, 4, model::Decomp::Slab);
  ASSERT_EQ(g1.size(), slab4.size());
  EXPECT_EQ(0, std::memcmp(g1.data(), slab4.data(), g1.size() * sizeof(Cd)));
  for (model::GridShape grid : {model::GridShape{1, 4}, {2, 2}, {4, 1}}) {
    const auto p4 = run3d<double>(n0, n1, n2, 4, model::Decomp::Pencil, grid);
    EXPECT_EQ(0, std::memcmp(g1.data(), p4.data(), g1.size() * sizeof(Cd)))
        << "grid " << grid.pr << "x" << grid.pc;
  }
}

TEST(Dist3d, SixteenDevicesBitIdentical) {
  const index_t n0 = 16, n1 = 16, n2 = 16;
  const auto g1 = run3d<double>(n0, n1, n2, 1, model::Decomp::Slab);
  const auto slab = run3d<double>(n0, n1, n2, 16, model::Decomp::Slab);
  const auto pencil = run3d<double>(n0, n1, n2, 16, model::Decomp::Pencil, {4, 4});
  EXPECT_EQ(0, std::memcmp(g1.data(), slab.data(), g1.size() * sizeof(Cd)));
  EXPECT_EQ(0, std::memcmp(g1.data(), pencil.data(), g1.size() * sizeof(Cd)));
}

TEST(Dist3d, SerialAndAsyncBitIdenticalBothDecomps) {
  const index_t n0 = 16, n1 = 16, n2 = 8;
  for (model::Decomp d : {model::Decomp::Slab, model::Decomp::Pencil}) {
    const model::GridShape grid = d == model::Decomp::Pencil ? model::GridShape{2, 2}
                                                             : model::GridShape{};
    std::vector<Cd> serial, async;
    {
      exec::ScopedMode sm(exec::Mode::Serial);
      serial = run3d<double>(n0, n1, n2, 4, d, grid);
    }
    {
      exec::ScopedMode sm(exec::Mode::Async);
      async = run3d<double>(n0, n1, n2, 4, d, grid);
    }
    EXPECT_EQ(0, std::memcmp(serial.data(), async.data(), serial.size() * sizeof(Cd)))
        << model::to_string(d);
  }
}

TEST(Dist3d, InPlaceEqualsOutOfPlaceBothDecomps) {
  // in == out: the last exchange's writes into the output wait on the
  // loads that read the input lines they overwrite.
  const index_t n0 = 16, n1 = 16, n2 = 8, n = n0 * n1 * n2;
  std::vector<Cd> x(static_cast<std::size_t>(n)), y(x.size());
  fill_uniform(x.data(), n, 1234);
  for (exec::Mode mode : {exec::Mode::Serial, exec::Mode::Async}) {
    exec::ScopedMode sm(mode);
    for (model::Decomp d : {model::Decomp::Slab, model::Decomp::Pencil}) {
      const model::GridShape grid = d == model::Decomp::Pencil ? model::GridShape{2, 2}
                                                               : model::GridShape{};
      Dist3dFft<double> fft(n0, n1, n2, 4, d, grid);
      fft.execute(x.data(), y.data());
      std::vector<Cd> z = x;
      fft.execute(z.data(), z.data());
      EXPECT_EQ(0, std::memcmp(z.data(), y.data(), y.size() * sizeof(Cd)))
          << model::to_string(d) << (mode == exec::Mode::Serial ? " serial" : " async");
    }
  }
}

TEST(Dist3d, FloatLegBitIdenticalAndAccurate) {
  const index_t n0 = 16, n1 = 16, n2 = 8;
  const auto ref = reference3d<float>(n0, n1, n2);
  const auto g1 = run3d<float>(n0, n1, n2, 1, model::Decomp::Slab);
  const auto slab = run3d<float>(n0, n1, n2, 4, model::Decomp::Slab);
  const auto pencil = run3d<float>(n0, n1, n2, 4, model::Decomp::Pencil, {2, 2});
  EXPECT_EQ(0, std::memcmp(g1.data(), slab.data(), g1.size() * sizeof(Cf)));
  EXPECT_EQ(0, std::memcmp(g1.data(), pencil.data(), g1.size() * sizeof(Cf)));
  EXPECT_LT(rel_l2_error(pencil.data(), ref.data(), n0 * n1 * n2), 1e-5);
}

TEST(Dist3d, FabricPayloadsPerPhase) {
  // Pencil: row phase ships (pc-1)/pc·N elements in total, column phase
  // (pr-1)/pr·N; each device sends exactly its share of both. Slab: one
  // (G-1)/G·N exchange. The per-device pencil payload is the
  // N/√G-per-phase scaling the decomposition exists for.
  const index_t n0 = 16, n1 = 16, n2 = 8;
  const double n = double(n0 * n1 * n2);
  const int g = 4, pr = 2, pc = 2;
  std::vector<Cd> x(static_cast<std::size_t>(n0 * n1 * n2)), y(x.size());
  fill_uniform(x.data(), n0 * n1 * n2, 7);

  Dist3dFft<double> pencil(n0, n1, n2, g, model::Decomp::Pencil, {pr, pc});
  pencil.execute(x.data(), y.data());
  const double row = double(pc - 1) / pc * n * sizeof(Cd);
  const double col = double(pr - 1) / pr * n * sizeof(Cd);
  EXPECT_DOUBLE_EQ(pencil.fabric().bytes_with_tag("A2A-ROW"), row);
  EXPECT_DOUBLE_EQ(pencil.fabric().bytes_with_tag("A2A-COL"), col);
  EXPECT_DOUBLE_EQ(pencil.fabric().total_bytes(), row + col);
  for (int d = 0; d < g; ++d)
    EXPECT_DOUBLE_EQ(pencil.fabric().bytes_sent_by(d), (row + col) / g) << "d=" << d;

  Dist3dFft<double> slab(n0, n1, n2, g, model::Decomp::Slab);
  slab.execute(x.data(), y.data());
  const double one = double(g - 1) / g * n * sizeof(Cd);
  EXPECT_DOUBLE_EQ(slab.fabric().bytes_with_tag("A2A-3D"), one);
  EXPECT_DOUBLE_EQ(slab.fabric().total_bytes(), one);
  // Per device and per phase the pencil message volume is strictly smaller.
  EXPECT_LT(row / g, one / g);
  EXPECT_LT(col / g, one / g);
}

TEST(Dist3d, TrafficExactToModelBothDecomps) {
  const index_t n0 = 16, n1 = 16, n2 = 8;
  std::vector<Cd> x(static_cast<std::size_t>(n0 * n1 * n2)), y(x.size());
  fill_uniform(x.data(), n0 * n1 * n2, 3);
  {
    TrafficSession s;
    exec::ScopedMode sm(exec::Mode::Serial);
    Dist3dFft<double> slab(n0, n1, n2, 4, model::Decomp::Slab);
    slab.execute(x.data(), y.data());
    const auto rep = obs::compare_fft3d_traffic(n0, n1, n2, 4, sizeof(double), 1);
    EXPECT_TRUE(rep.all_ok()) << rep.to_string();
  }
  {
    TrafficSession s;
    exec::ScopedMode sm(exec::Mode::Serial);
    Dist3dFft<double> pencil(n0, n1, n2, 4, model::Decomp::Pencil, {2, 2});
    pencil.execute(x.data(), y.data());
    const auto rep = obs::compare_fft3d_traffic(n0, n1, n2, 4, sizeof(double), 1, 2, 2);
    EXPECT_TRUE(rep.all_ok()) << rep.to_string();
  }
  {
    // The ledger totals are executor-invariant: the graph drained on the
    // pool must account byte-for-byte what the serial drain does.
    TrafficSession s;
    exec::ScopedMode sm(exec::Mode::Async);
    Dist3dFft<double> pencil(n0, n1, n2, 4, model::Decomp::Pencil, {2, 2});
    pencil.execute(x.data(), y.data());
    const auto rep = obs::compare_fft3d_traffic(n0, n1, n2, 4, sizeof(double), 1, 2, 2);
    EXPECT_TRUE(rep.all_ok()) << rep.to_string();
  }
}

TEST(Dist3d, EnvKnobsSelectDecomposition) {
  const index_t n0 = 16, n1 = 16, n2 = 8;
  setenv("FMMFFT_DECOMP", "pencil", 1);
  setenv("FMMFFT_GRID", "1x4", 1);
  {
    Dist3dFft<double> fft(n0, n1, n2, 4);
    EXPECT_EQ(fft.decomp(), model::Decomp::Pencil);
    EXPECT_EQ(fft.grid().pr, 1);
    EXPECT_EQ(fft.grid().pc, 4);
  }
  setenv("FMMFFT_DECOMP", "slab", 1);
  {
    Dist3dFft<double> fft(n0, n1, n2, 4);
    EXPECT_EQ(fft.decomp(), model::Decomp::Slab);
  }
  unsetenv("FMMFFT_DECOMP");
  unsetenv("FMMFFT_GRID");
  // An explicit constructor argument outranks the environment.
  setenv("FMMFFT_DECOMP", "slab", 1);
  {
    Dist3dFft<double> fft(n0, n1, n2, 4, model::Decomp::Pencil, {2, 2});
    EXPECT_EQ(fft.decomp(), model::Decomp::Pencil);
  }
  unsetenv("FMMFFT_DECOMP");
}

TEST(Dist3d, ForcedInfeasibleDecompositionThrows) {
  // Slab needs G | n2; pencil needs the grid to divide the pencil extents.
  EXPECT_THROW((Dist3dFft<double>(16, 16, 8, 16, model::Decomp::Slab)), Error);
  EXPECT_THROW((Dist3dFft<double>(16, 16, 8, 16, model::Decomp::Pencil, {16, 1})), Error);
  EXPECT_THROW((Dist3dFft<double>(16, 16, 8, 6, model::Decomp::Pencil, {2, 2})), Error);
  EXPECT_THROW((Dist3dFft<double>(17, 16, 8, 1, model::Decomp::Slab)), Error);  // pow2 only
}

TEST(Dist3d, ArgumentsCheckedBeforeAnyMemberIsBuilt) {
  // The driver names its own rule, not that of a member built from a bad
  // argument (an FFT plan's size > 0, the fabric's num_devices >= 1).
  auto error_of = [](index_t n0, int g) {
    try {
      Dist3dFft<double> fft(n0, 16, 16, g);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_NE(error_of(0, 1).find("3D FFT extents must be powers of two"), std::string::npos);
  EXPECT_NE(error_of(16, 0).find("need at least one device"), std::string::npos);
}

TEST(Dist3d, AutoDecisionRecordedInMetrics) {
  obs::disable();
  obs::reset();
  obs::enable_metrics(true);
  Dist3dFft<double> fft(16, 16, 16, 16);  // Auto: model decides
  EXPECT_TRUE(fft.decision().model_decided);
  auto& m = obs::Metrics::global();
  EXPECT_EQ(m.gauge("decomp.auto.pencil").value(),
            fft.decomp() == model::Decomp::Pencil ? 1.0 : 0.0);
  if (fft.decomp() == model::Decomp::Pencil) {
    EXPECT_EQ(m.gauge("decomp.auto.pr").value(), double(fft.grid().pr));
    EXPECT_EQ(m.gauge("decomp.auto.pc").value(), double(fft.grid().pc));
  }
  EXPECT_GT(m.gauge("decomp.auto.slab_seconds").value(), 0.0);
  EXPECT_GT(m.gauge("decomp.auto.pencil_seconds").value(), 0.0);
  obs::disable();
  obs::reset();
}

TEST(Dist3d, AutoPencilBeatsSlabAtSixteenDevices) {
  // Beyond the modeled crossover the tuner must pick the two-phase path.
  Dist3dFft<double> fft(64, 64, 64, 16);
  EXPECT_TRUE(fft.decision().model_decided);
  EXPECT_EQ(fft.decomp(), model::Decomp::Pencil);
  EXPECT_LT(fft.decision().pencil_seconds, fft.decision().slab_seconds);
}

}  // namespace
}  // namespace fmmfft::dist
