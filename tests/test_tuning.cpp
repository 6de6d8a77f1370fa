// Tests for the slab-vs-pencil decomposition tuner.
#include <gtest/gtest.h>

#include <cmath>

#include "model/counts.hpp"
#include "model/tuning.hpp"

namespace fmmfft::model {
namespace {

TEST(Decomp, ParseRoundTrip) {
  EXPECT_EQ(parse_decomp("auto"), Decomp::Auto);
  EXPECT_EQ(parse_decomp("slab"), Decomp::Slab);
  EXPECT_EQ(parse_decomp("pencil"), Decomp::Pencil);
  EXPECT_THROW(parse_decomp("brick"), Error);
  EXPECT_STREQ(to_string(Decomp::Pencil), "pencil");
}

TEST(Decomp, ParseGrid) {
  EXPECT_EQ(parse_grid("2x4"), (GridShape{2, 4}));
  EXPECT_EQ(parse_grid("16X1"), (GridShape{16, 1}));
  EXPECT_THROW(parse_grid("2x"), Error);
  EXPECT_THROW(parse_grid("x4"), Error);
  EXPECT_THROW(parse_grid("0x4"), Error);
  EXPECT_THROW(parse_grid("2x4x8"), Error);
  EXPECT_THROW(parse_grid("grid"), Error);
}

TEST(Decomp, DefaultGrid3dRespectsDivisibility) {
  // 16 devices on a 64^3 grid: 4x4 divides everything.
  EXPECT_EQ(default_grid3d(16, 64, 64, 64), (GridShape{4, 4}));
  // n2 = 8 forces pr <= 8; squarest feasible for g = 32 on 16x64x8 needs
  // pr | 8 and pc | 16: 4x8 works (pr=4 ≤ 8, pc=8 ≤ 16, n1 % both == 0).
  const GridShape gs = default_grid3d(32, 16, 64, 8);
  EXPECT_TRUE(pencil_feasible_3d(16, 64, 8, gs));
  // Infeasible everywhere -> unspecified.
  EXPECT_FALSE(default_grid3d(16, 2, 2, 2).specified());
}

TEST(Decomp, ChooseForcedAndInfeasibleThrows) {
  const Workload w{64 * 64 * 64, true, true};
  const auto arch = p100_nvlink(8);
  auto d = choose_decomp(Decomp::Pencil, {2, 4}, 64, 64, 64, 8, w, arch);
  EXPECT_EQ(d.chosen, Decomp::Pencil);
  EXPECT_EQ(d.grid, (GridShape{2, 4}));
  EXPECT_FALSE(d.model_decided);
  // Forcing an infeasible layout is a hard error, not a silent fallback.
  EXPECT_THROW(choose_decomp(Decomp::Pencil, {3, 3}, 64, 64, 64, 8, w, arch), Error);
  EXPECT_THROW(choose_decomp(Decomp::Slab, {}, 64, 64, 63, 8, w, arch), Error);
}

TEST(Decomp, AutoPicksPencilBeyondCrossover) {
  // In 3D a 1x2 "pencil" at G = 2 moves the same exchange bytes as the slab
  // but folds the local i0<->i1 reorientation into its row hop, so the
  // model prices it strictly cheaper — no tie to break. At G = 16 the 4x4
  // grid wins outright.
  const Workload w{64 * 64 * 64, true, true};
  auto d2 = choose_decomp(Decomp::Auto, {}, 64, 64, 64, 2, w, p100_nvlink(2));
  EXPECT_TRUE(d2.model_decided);
  EXPECT_EQ(d2.chosen, Decomp::Pencil);
  EXPECT_EQ(d2.grid, (GridShape{1, 2}));
  EXPECT_LT(d2.pencil_seconds, d2.slab_seconds);
  auto d16 = choose_decomp(Decomp::Auto, {}, 64, 64, 64, 16, w, p100_nvlink(16));
  EXPECT_EQ(d16.chosen, Decomp::Pencil);
  EXPECT_EQ(d16.grid, (GridShape{4, 4}));
  EXPECT_LT(d16.pencil_seconds, d16.slab_seconds);
}

TEST(Decomp, AutoFallsBackWhenOnlyOneFeasible) {
  const Workload w{16 * 64 * 8, true, true};
  // g = 32 > n2 = 8: slab infeasible, pencil must carry it.
  auto d = choose_decomp(Decomp::Auto, {}, 16, 64, 8, 32, w, p100_nvlink(32));
  EXPECT_EQ(d.chosen, Decomp::Pencil);
  EXPECT_FALSE(d.slab_feasible);
  // Nothing feasible at all -> hard error.
  EXPECT_THROW(choose_decomp(Decomp::Auto, {}, 2, 2, 2, 16, w, p100_nvlink(16)), Error);
}

TEST(Decomp, PencilTradesMessageCountForBytes) {
  // The pencil exchange's per-device volume is 2·(√G-1)/√G·N/G — up to 2×
  // the slab's (G-1)/G·N/G, each element moving twice. What it buys is the
  // partner count: 2(√G-1) messages of N/(G·√G) elements instead of G-1
  // messages of N/G² — so on a latency-bearing link the two-phase exchange
  // is modeled faster once G outgrows the crossover.
  const double n = 1 << 24, eb = 16.0;
  for (int g : {4, 16, 64}) {
    const int s = int(std::sqrt(double(g)));
    const double slab = slab_a2a_bytes_per_device(n, eb, g);
    const double pencil = pencil_a2a_bytes_per_device(n, eb, s, s);
    EXPECT_DOUBLE_EQ(pencil, 2.0 * double(s - 1) / double(s) * n / double(g) * eb)
        << "g=" << g;
    EXPECT_LE(pencil, 2.0 * slab * double(g) / double(g - 1)) << "g=" << g;
    // Latency-dominated regime: (G-1) serialized launches lose to 2(√G-1).
    ArchParams arch = p100_nvlink(g);
    arch.link_latency = 1e-3;  // exaggerate so bandwidth terms vanish
    EXPECT_LT(pencil_a2a_seconds(n, eb, s, s, arch), slab_a2a_seconds(n, eb, arch))
        << "g=" << g;
  }
}

}  // namespace
}  // namespace fmmfft::model
