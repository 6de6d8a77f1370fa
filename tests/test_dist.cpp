// Tests for the distributed layer: collectives over the fabric, the
// three-transpose baseline 1D FFT, the one-transpose 2D FFT, and the
// distributed FMM-FFT — all validated against exact references and against
// the single-node pipeline, plus §5.2 communication-volume checks.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/math.hpp"
#include "common/permute.hpp"
#include "common/rng.hpp"
#include "core/fmmfft.hpp"
#include "core/reference.hpp"
#include "dist/collectives.hpp"
#include "dist/dfft.hpp"
#include "dist/dfmmfft.hpp"
#include "exec/executor.hpp"
#include "model/counts.hpp"

namespace fmmfft::dist {
namespace {

using Cd = std::complex<double>;

// CI runs one leg of the suite under FMMFFT_PRECISION=mixed; plans built
// with the ambient default then carry the fp32 translation envelope and
// ship ".f32"-keyed halo payloads at half width.
bool ambient_mixed() { return fmm::default_precision() == fmm::Precision::Mixed; }

TEST(Collectives, AllToAllMatchesPermuteMP) {
  const index_t m = 16, p = 8;
  for (int g : {1, 2, 4, 8}) {
    sim::Fabric fabric(g);
    std::vector<double> x(m * p), expect(m * p);
    fill_uniform(x.data(), m * p, g);
    permute_mp(x.data(), expect.data(), m, p);
    const index_t slab = m * p / g;
    std::vector<Buffer<double>> ain, aout;
    std::vector<double*> in, out;
    for (int r = 0; r < g; ++r) {
      ain.emplace_back(slab);
      aout.emplace_back(slab);
      std::copy_n(x.data() + r * slab, slab, ain.back().data());
    }
    for (int r = 0; r < g; ++r) {
      in.push_back(ain[(std::size_t)r].data());
      out.push_back(aout[(std::size_t)r].data());
    }
    all_to_all_permute_mp(fabric, in, out, m, p, "t");
    for (int r = 0; r < g; ++r)
      for (index_t i = 0; i < slab; ++i)
        EXPECT_EQ(out[(std::size_t)r][i], expect[(std::size_t)(r * slab + i)])
            << "g=" << g << " r=" << r << " i=" << i;
    // Traffic: every ordered pair exchanges slab/g elements.
    EXPECT_DOUBLE_EQ(fabric.total_bytes(), double(g) * (g - 1) * (slab / g) * sizeof(double));
  }
}

TEST(Collectives, FusedMatchesStagedBitIdentical) {
  // The fused zero-copy all-to-all must reproduce the staged
  // pack/copy/unpack reference bit-for-bit at every device count, with
  // identical fabric accounting (same per-pair payloads, same tags).
  for (int g : {1, 2, 4}) {
    for (auto [m, p] : {std::pair<index_t, index_t>{16, 8}, {8, 16}, {64, 4}, {4, 64}}) {
      sim::Fabric fab_fused(g), fab_staged(g);
      std::vector<double> x(std::size_t(m * p));
      fill_uniform(x.data(), m * p, 31 + g);
      const index_t slab = m * p / g;
      std::vector<double> yf(x.size(), -1.0), ys(x.size(), -2.0);
      std::vector<double*> in, of, os;
      for (int r = 0; r < g; ++r) {
        in.push_back(x.data() + r * slab);
        of.push_back(yf.data() + r * slab);
        os.push_back(ys.data() + r * slab);
      }
      all_to_all_permute_mp(fab_fused, in, of, m, p, "A2A-EQ");
      all_to_all_permute_mp_staged(fab_staged, in, os, m, p, "A2A-EQ");
      EXPECT_EQ(yf, ys) << "g=" << g << " m=" << m << " p=" << p;
      // Same messages on the wire: pair-by-pair byte totals agree.
      EXPECT_DOUBLE_EQ(fab_fused.total_bytes(), fab_staged.total_bytes());
      for (int r = 0; r < g; ++r)
        EXPECT_DOUBLE_EQ(fab_fused.bytes_sent_by(r), fab_staged.bytes_sent_by(r));
      EXPECT_DOUBLE_EQ(fab_fused.bytes_with_tag("A2A-EQ"), fab_staged.bytes_with_tag("A2A-EQ"));
    }
  }
}

TEST(Collectives, GridTwoPhaseMatchesOnePhaseBitIdentical) {
  // The factorized row+column exchange is the same Π_{M,P} permutation as
  // the one-phase fused path (both are pure copies), so outputs must agree
  // bit-for-bit at every grid shape, with the documented per-phase payload
  // split: row (pc-1)/pc·N elements, column (pr-1)/pr·N.
  const index_t m = 32, p = 16;
  struct Case {
    int g;
    ProcGrid grid;
  };
  for (const auto& c : {Case{4, {1, 4}}, Case{4, {2, 2}}, Case{4, {4, 1}}, Case{8, {2, 4}},
                        Case{8, {4, 2}}, Case{16, {4, 4}}}) {
    const int g = c.g;
    sim::Fabric fab_one(g), fab_two(g);
    std::vector<double> x(std::size_t(m * p));
    fill_uniform(x.data(), m * p, 40 + g + c.grid.pr);
    const index_t slab = m * p / g;
    std::vector<double> y1(x.size(), -1.0), y2(x.size(), -2.0), wk(x.size(), 0.0);
    std::vector<double*> in, o1, o2, w;
    for (int r = 0; r < g; ++r) {
      in.push_back(x.data() + r * slab);
      o1.push_back(y1.data() + r * slab);
      o2.push_back(y2.data() + r * slab);
      w.push_back(wk.data() + r * slab);
    }
    all_to_all_permute_mp(fab_one, in, o1, m, p, "A2A-2D");
    exchange_pencil2d_row(in, w, m, p, c.grid).run(fab_two);
    exchange_pencil2d_col(w, o2, m, p, c.grid).run(fab_two);
    EXPECT_EQ(y1, y2) << "g=" << g << " grid=" << c.grid.pr << "x" << c.grid.pc;
    const double n = double(m * p);
    EXPECT_DOUBLE_EQ(fab_two.bytes_with_tag("A2A-ROW"),
                     double(c.grid.pc - 1) / c.grid.pc * n * sizeof(double));
    EXPECT_DOUBLE_EQ(fab_two.bytes_with_tag("A2A-COL"),
                     double(c.grid.pr - 1) / c.grid.pr * n * sizeof(double));
    // Every device sends the same share of each phase (symmetric grids and
    // uniform blocks), and nothing else crosses the fabric.
    EXPECT_DOUBLE_EQ(fab_two.total_bytes(), fab_two.bytes_with_tag("A2A-ROW") +
                                                fab_two.bytes_with_tag("A2A-COL"));
    for (int r = 0; r < g; ++r)
      EXPECT_DOUBLE_EQ(fab_two.bytes_sent_by(r), fab_two.total_bytes() / g) << "r=" << r;
  }
}

TEST(Collectives, HaloExchangeRing) {
  const int g = 4;
  const index_t h = 3;
  sim::Fabric fabric(g);
  // interior[r] = r*100 + k
  std::vector<std::vector<double>> interior((std::size_t)g, std::vector<double>(10));
  std::vector<std::vector<double>> lo((std::size_t)g, std::vector<double>(h)),
      hi((std::size_t)g, std::vector<double>(h));
  std::vector<const double*> lo_src, hi_src;
  std::vector<double*> lo_dst, hi_dst;
  for (int r = 0; r < g; ++r) {
    std::iota(interior[(std::size_t)r].begin(), interior[(std::size_t)r].end(), r * 100.0);
    lo_src.push_back(interior[(std::size_t)r].data());
    hi_src.push_back(interior[(std::size_t)r].data() + 10 - h);
    lo_dst.push_back(lo[(std::size_t)r].data());
    hi_dst.push_back(hi[(std::size_t)r].data());
  }
  exchange_halo_ring(lo_src, hi_src, lo_dst, hi_dst, h, "halo").run(fabric);
  for (int r = 0; r < g; ++r) {
    const int left = (r + g - 1) % g, right = (r + 1) % g;
    for (index_t k = 0; k < h; ++k) {
      EXPECT_EQ(lo[(std::size_t)r][(std::size_t)k], left * 100.0 + 7 + k);
      EXPECT_EQ(hi[(std::size_t)r][(std::size_t)k], right * 100.0 + k);
    }
  }
  EXPECT_DOUBLE_EQ(fabric.total_bytes(), g * 2.0 * h * sizeof(double));
}

TEST(Collectives, Allgather) {
  const int g = 4;
  const index_t slab = 5;
  sim::Fabric fabric(g);
  std::vector<std::vector<double>> src((std::size_t)g, std::vector<double>(slab)),
      dst((std::size_t)g, std::vector<double>(slab * g));
  std::vector<const double*> sp;
  std::vector<double*> dp;
  for (int r = 0; r < g; ++r) {
    std::iota(src[(std::size_t)r].begin(), src[(std::size_t)r].end(), r * 10.0);
    sp.push_back(src[(std::size_t)r].data());
    dp.push_back(dst[(std::size_t)r].data());
  }
  exchange_allgather(sp, dp, slab, "ag").run(fabric);
  for (int r = 0; r < g; ++r)
    for (int rr = 0; rr < g; ++rr)
      for (index_t k = 0; k < slab; ++k)
        EXPECT_EQ(dst[(std::size_t)r][(std::size_t)(rr * slab + k)], rr * 10.0 + k);
  EXPECT_DOUBLE_EQ(fabric.total_bytes(), g * (g - 1.0) * slab * sizeof(double));
}

// Every exchange builder, executed three ways on the same input: Exchange::run
// (the serial drivers), Exchange::submit + TaskGraph::run (the async
// drivers), and an independent oracle — the staged all-to-all for the
// Π_{M,P} builders, the x→z pencil index map for the 3D pencil pair. All
// three must agree byte for byte, and run and submit must put the same
// bytes on every (src, dst) link.
enum class Builder { OnePhase, Pencil2d, Pencil3d };

struct ExchangeCase {
  Builder builder;
  int g;
  ProcGrid grid;
  index_t chunks;
};

std::vector<ExchangeCase> exchange_cases() {
  std::vector<ExchangeCase> cases;
  for (int g : {1, 2, 4, 8}) {
    std::vector<ProcGrid> grids{{1, g}};
    if (g == 4) grids.push_back({2, 2});
    if (g == 8) grids.push_back({2, 4});
    std::vector<index_t> chunk_counts{1, 2};
    if (g > 2) chunk_counts.push_back(g);
    for (index_t chunks : chunk_counts) {
      cases.push_back({Builder::OnePhase, g, {1, g}, chunks});
      for (const ProcGrid& grid : grids) {
        cases.push_back({Builder::Pencil2d, g, grid, chunks});
        cases.push_back({Builder::Pencil3d, g, grid, chunks});
      }
    }
  }
  return cases;
}

std::string exchange_case_name(const ::testing::TestParamInfo<ExchangeCase>& info) {
  const ExchangeCase& c = info.param;
  const char* kind = c.builder == Builder::OnePhase   ? "onephase"
                     : c.builder == Builder::Pencil2d ? "pencil2d"
                                                      : "pencil3d";
  std::string name = std::string(kind) + "_g" + std::to_string(c.g);
  if (c.builder != Builder::OnePhase)
    name += "_" + std::to_string(c.grid.pr) + "x" + std::to_string(c.grid.pc);
  return name + "_c" + std::to_string(c.chunks);
}

template <typename T>
std::vector<T*> slab_ptrs(std::vector<T>& v, int g) {
  std::vector<T*> s;
  for (int r = 0; r < g; ++r) s.push_back(v.data() + r * (index_t(v.size()) / g));
  return s;
}

template <typename T>
void check_exchange_paths(const ExchangeCase& c) {
  const int g = c.g;
  const index_t m = 32, p = 16;           // Π_{M,P}: G | M and G | P up to G = 8
  const index_t n0 = 16, n1 = 8, n2 = 8;  // 3D: pc | n0, n1 and pr | n1, n2
  const index_t n = c.builder == Builder::Pencil3d ? n0 * n1 * n2 : m * p;
  std::vector<T> x((std::size_t)n), expect((std::size_t)n, T(-3));
  fill_uniform(x.data(), n, 70 + g + index_t(c.chunks));
  auto in = slab_ptrs(x, g);
  // The case's exchange phases, in order, into `out` (via `work`).
  auto phases = [&](std::vector<T>& work, std::vector<T>& out) -> std::vector<Exchange<T>> {
    auto w = slab_ptrs(work, g), o = slab_ptrs(out, g);
    switch (c.builder) {
      case Builder::OnePhase:
        return {exchange_permute_mp(in, o, m, p, "A2A-X", c.chunks)};
      case Builder::Pencil2d:
        return {exchange_pencil2d_row(in, w, m, p, c.grid, c.chunks),
                exchange_pencil2d_col(w, o, m, p, c.grid)};
      case Builder::Pencil3d:
        return {exchange_pencil3d_row(in, w, n0, n1, n2, c.grid, c.chunks),
                exchange_pencil3d_col(w, o, n0, n1, n2, c.grid)};
    }
    return {};
  };

  // (1) run.
  sim::Fabric f_run(g);
  std::vector<T> w_run((std::size_t)n), y_run((std::size_t)n, T(-1));
  for (const auto& phase : phases(w_run, y_run)) phase.run(f_run);

  // (2) submit + TaskGraph::run, gated like the drivers: the first phase on
  // per-(device, chunk) producers, a later one on a per-device join.
  sim::Fabric f_sub(g);
  std::vector<T> w_sub((std::size_t)n), y_sub((std::size_t)n, T(-2));
  exec::DeviceLanes lanes(g);
  exec::TaskGraph graph(lanes.count());
  std::vector<std::vector<exec::TaskId>> produced((std::size_t)g);
  for (int r = 0; r < g; ++r)
    for (index_t k = 0; k < c.chunks; ++k)
      produced[(std::size_t)r].push_back(
          graph.submit("produce", {lanes.compute(r), /*ordered=*/false, "fft"}, [] {}));
  std::vector<exec::TaskId> join;
  for (const auto& phase : phases(w_sub, y_sub)) {
    const auto tasks =
        join.empty()
            ? phase.submit(graph, lanes, f_sub,
                           [&](int r, int k) { return produced[(std::size_t)r][(std::size_t)k]; })
            : phase.submit(graph, lanes, f_sub, [&](int r, int) { return join[(std::size_t)r]; });
    join.resize((std::size_t)g);
    for (int r = 0; r < g; ++r)
      join[(std::size_t)r] = graph.submit("join", {lanes.compute(r), /*ordered=*/false, "sync"},
                                          [] {}, tasks.arrived[(std::size_t)r]);
  }
  graph.run();

  // (3) oracle.
  sim::Fabric f_stg(g);
  if (c.builder == Builder::Pencil3d) {
    // x-pencil (i,j): x[i0 + n0·(i1l + n1/pc·i2l)]; z-pencil (ii,jj):
    // z[i2 + n2·(i1l + n1/pr·i0l)].
    const int pr = c.grid.pr, pc = c.grid.pc;
    const index_t n0pc = n0 / pc, n1pc = n1 / pc, n1pr = n1 / pr, n2pr = n2 / pr;
    auto xs = slab_ptrs(x, g), zs = slab_ptrs(expect, g);
    for (index_t i2 = 0; i2 < n2; ++i2)
      for (index_t i1 = 0; i1 < n1; ++i1)
        for (index_t i0 = 0; i0 < n0; ++i0) {
          const int src = c.grid.device(int(i2 / n2pr), int(i1 / n1pc));
          const int dst = c.grid.device(int(i1 / n1pr), int(i0 / n0pc));
          zs[(std::size_t)dst][i2 + n2 * (i1 % n1pr + n1pr * (i0 % n0pc))] =
              xs[(std::size_t)src][i0 + n0 * (i1 % n1pc + n1pc * (i2 % n2pr))];
        }
  } else {
    all_to_all_permute_mp_staged(f_stg, in, slab_ptrs(expect, g), m, p, "A2A-X");
  }

  EXPECT_EQ(0, std::memcmp(y_run.data(), expect.data(), expect.size() * sizeof(T)));
  EXPECT_EQ(0, std::memcmp(y_sub.data(), expect.data(), expect.size() * sizeof(T)));
  EXPECT_EQ(f_run.transfers(), f_sub.transfers());
  EXPECT_EQ(f_run.bytes_by_tag(), f_sub.bytes_by_tag());
  for (int s = 0; s < g; ++s)
    for (int d = 0; d < g; ++d) {
      EXPECT_EQ(f_run.bytes_between(s, d), f_sub.bytes_between(s, d)) << s << "->" << d;
      if (c.builder == Builder::OnePhase) {
        EXPECT_EQ(f_run.bytes_between(s, d), f_stg.bytes_between(s, d)) << s << "->" << d;
      }
    }
}

class ExchangePaths : public ::testing::TestWithParam<ExchangeCase> {};

TEST_P(ExchangePaths, RunSubmitAndOracleAgree) {
  {
    SCOPED_TRACE("c64");
    check_exchange_paths<std::complex<double>>(GetParam());
  }
  {
    SCOPED_TRACE("c32");
    check_exchange_paths<std::complex<float>>(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Builders, ExchangePaths, ::testing::ValuesIn(exchange_cases()),
                         exchange_case_name);

TEST(Collectives, SendExchangesRunAndSubmitAgree) {
  // The halo ring and the allgather move contiguous sends on the link
  // lanes; submitted, they must land exactly what run lands.
  for (int g : {1, 2, 4}) {
    const index_t h = 3, len = 10, slab = 5;
    auto execute = [&](bool async, sim::Fabric& fabric) {
      std::vector<double> interior((std::size_t)(g * len)), halo((std::size_t)(2 * g * h), -1.0);
      std::vector<double> gsrc((std::size_t)(g * slab)), gdst((std::size_t)(g * g * slab), -1.0);
      std::iota(interior.begin(), interior.end(), 0.0);
      std::iota(gsrc.begin(), gsrc.end(), 1000.0);
      std::vector<const double*> lo_src, hi_src, gs;
      std::vector<double*> lo_dst, hi_dst, gd;
      for (int r = 0; r < g; ++r) {
        lo_src.push_back(interior.data() + r * len);
        hi_src.push_back(interior.data() + r * len + len - h);
        lo_dst.push_back(halo.data() + 2 * r * h);
        hi_dst.push_back(halo.data() + 2 * r * h + h);
        gs.push_back(gsrc.data() + r * slab);
        gd.push_back(gdst.data() + r * g * slab);
      }
      const auto ring = exchange_halo_ring(lo_src, hi_src, lo_dst, hi_dst, h, "COMM-T");
      const auto gather = exchange_allgather(gs, gd, slab, "COMM-G");
      if (async) {
        exec::DeviceLanes lanes(g);
        exec::TaskGraph graph(lanes.count());
        const exec::TaskId start = graph.submit("start", {0, /*ordered=*/true, "fmm"}, [] {});
        const auto a = ring.submit(graph, lanes, fabric, [&](int, int) { return start; });
        gather.submit(graph, lanes, fabric, [&](int, int) { return start; });
        EXPECT_EQ(int(a.arrived[0].size()), 2);
        graph.run();
      } else {
        ring.run(fabric);
        gather.run(fabric);
      }
      halo.insert(halo.end(), gdst.begin(), gdst.end());
      return halo;
    };
    sim::Fabric f_run(g), f_sub(g);
    EXPECT_EQ(execute(false, f_run), execute(true, f_sub)) << "g=" << g;
    EXPECT_EQ(f_run.transfers(), f_sub.transfers());
    EXPECT_EQ(f_run.bytes_by_tag(), f_sub.bytes_by_tag());
    for (int s = 0; s < g; ++s)
      for (int d = 0; d < g; ++d) EXPECT_EQ(f_run.bytes_between(s, d), f_sub.bytes_between(s, d));
  }
}

TEST(Collectives, AliasedBuffersThrow) {
  // Scatters read the senders' slabs while writing the receivers', so the
  // builders reject overlapping input and output slabs in every build.
  const index_t m = 16, p = 8;
  const int g = 2;
  std::vector<double> a(std::size_t(m * p)), b(std::size_t(m * p));
  const index_t slab = m * p / g;
  std::vector<double*> in{a.data(), a.data() + slab}, out{b.data(), b.data() + slab};
  sim::Fabric fabric(g);
  EXPECT_THROW(all_to_all_permute_mp(fabric, in, in, m, p, "t"), Error);
  std::vector<double*> crossed{a.data() + slab, b.data()};  // out[0] is in[1]
  EXPECT_THROW(all_to_all_permute_mp(fabric, in, crossed, m, p, "t"), Error);
  std::vector<double*> straddle{a.data() + slab / 2, b.data() + slab};  // partial overlap
  EXPECT_THROW(all_to_all_permute_mp(fabric, in, straddle, m, p, "t"), Error);
  EXPECT_THROW(exchange_pencil2d_row(in, in, m, p, ProcGrid{1, 2}), Error);
  EXPECT_THROW(exchange_pencil2d_col(in, in, m, p, ProcGrid{2, 1}), Error);
  EXPECT_THROW(exchange_pencil3d_row(in, in, 8, 4, 4, ProcGrid{1, 2}), Error);
  EXPECT_THROW(exchange_pencil3d_col(in, in, 8, 4, 4, ProcGrid{2, 1}), Error);
  EXPECT_EQ(fabric.transfers(), 0u);
  all_to_all_permute_mp(fabric, in, out, m, p, "t");
  EXPECT_EQ(fabric.transfers(), std::size_t(g * (g - 1)));
}

class Baseline1dSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(Baseline1dSizes, MatchesExactFft) {
  auto [lg_n, g] = GetParam();
  const index_t n = index_t(1) << lg_n;
  std::vector<Cd> x(static_cast<std::size_t>(n)), got(x.size()), expect(x.size());
  fill_uniform(x.data(), n, lg_n * 10 + g);
  DistFft1d<double> fftd(n, g);
  fftd.execute(x.data(), got.data());
  core::exact_fft(n, x.data(), expect.data());
  EXPECT_LT(rel_l2_error(got.data(), expect.data(), n), 1e-12)
      << "n=" << n << " g=" << g << " M=" << fftd.factor_m() << " P=" << fftd.factor_p();
}

INSTANTIATE_TEST_SUITE_P(Grid, Baseline1dSizes,
                         ::testing::Values(std::pair{8, 1}, std::pair{10, 2}, std::pair{12, 2},
                                           std::pair{12, 4}, std::pair{14, 8},
                                           std::pair{16, 4}, std::pair{13, 2},
                                           std::pair{15, 8}));

TEST(Baseline1d, ThreeAllToAllsOfExpectedVolume) {
  const index_t n = 1 << 12;
  const int g = 4;
  std::vector<Cd> x(static_cast<std::size_t>(n)), y(x.size());
  fill_uniform(x.data(), n, 3);
  DistFft1d<double> fftd(n, g);
  fftd.execute(x.data(), y.data());
  const auto& fab = fftd.fabric();
  // Each all-to-all moves g(g-1) * N/g^2 elements.
  const double per_a2a = g * (g - 1.0) * double(n) / (g * g) * sizeof(Cd);
  EXPECT_DOUBLE_EQ(fab.bytes_with_tag("A2A-1"), per_a2a);
  EXPECT_DOUBLE_EQ(fab.bytes_with_tag("A2A-2"), per_a2a);
  EXPECT_DOUBLE_EQ(fab.bytes_with_tag("A2A-3"), per_a2a);
  EXPECT_DOUBLE_EQ(fab.total_bytes(), 3 * per_a2a);
}

TEST(Dist2d, MatchesSerial2dFft) {
  const index_t m = 64, p = 32;
  for (int g : {1, 2, 4}) {
    std::vector<Cd> x(static_cast<std::size_t>(m * p)), got(x.size());
    fill_uniform(x.data(), m * p, 17 + g);
    Dist2dFft<double> fftd(m, p, g);
    got = x;
    fftd.execute(x.data(), got.data());
    // Reference: same operation on one device via the serial path —
    // p-major layout means dim0 of the 2D array is p.
    std::vector<Cd> ref = x;
    fft::Plan1D<double> fp(p), fm(m);
    fp.execute_batched(ref.data(), m, fft::Direction::Forward);
    std::vector<Cd> tmp(ref.size());
    permute_mp(ref.data(), tmp.data(), m, p);
    fm.execute_batched(tmp.data(), p, fft::Direction::Forward);
    EXPECT_LT(rel_l2_error(got.data(), tmp.data(), m * p), 1e-13) << "g=" << g;
  }
}

TEST(Dist2d, SingleAllToAll) {
  const index_t m = 64, p = 32;
  const int g = 4;
  std::vector<Cd> x(static_cast<std::size_t>(m * p)), y(x.size());
  fill_uniform(x.data(), m * p, 5);
  Dist2dFft<double> fftd(m, p, g);
  fftd.execute(x.data(), y.data());
  EXPECT_DOUBLE_EQ(fftd.fabric().bytes_with_tag("A2A-2D"),
                   g * (g - 1.0) * double(m * p) / (g * g) * sizeof(Cd));
  EXPECT_DOUBLE_EQ(fftd.fabric().total_bytes(), fftd.fabric().bytes_with_tag("A2A-2D"));
}

TEST(Dist2d, PencilBitIdenticalToSlabAllGridsAndModes) {
  // Same FFT lines, same per-line plans — only the exchange factorizes, and
  // it factorizes into pure copies. Slab and every pencil grid must agree
  // bit-for-bit under both executors.
  const index_t m = 64, p = 32;
  const int g = 4;
  std::vector<Cd> x(static_cast<std::size_t>(m * p));
  fill_uniform(x.data(), m * p, 23);
  auto run = [&](model::Decomp d, model::GridShape grid, exec::Mode mode) {
    std::vector<Cd> y(x.size());
    exec::ScopedMode sm(mode);
    Dist2dFft<double> fftd(m, p, g, d, grid);
    fftd.execute(x.data(), y.data());
    return y;
  };
  const auto slab = run(model::Decomp::Slab, {}, exec::Mode::Serial);
  for (model::GridShape grid : {model::GridShape{1, 4}, {2, 2}, {4, 1}}) {
    for (exec::Mode mode : {exec::Mode::Serial, exec::Mode::Async}) {
      const auto y = run(model::Decomp::Pencil, grid, mode);
      EXPECT_EQ(0, std::memcmp(slab.data(), y.data(), slab.size() * sizeof(Cd)))
          << grid.pr << "x" << grid.pc << " mode=" << int(mode);
    }
  }
  EXPECT_EQ(slab, run(model::Decomp::Slab, {}, exec::Mode::Async));
}

TEST(Dist2d, PencilTwoPhaseVolumes) {
  const index_t m = 64, p = 32;
  const int g = 4, pr = 2, pc = 2;
  std::vector<Cd> x(static_cast<std::size_t>(m * p)), y(x.size());
  fill_uniform(x.data(), m * p, 9);
  Dist2dFft<double> fftd(m, p, g, model::Decomp::Pencil, {pr, pc});
  EXPECT_EQ(fftd.decomp(), model::Decomp::Pencil);
  fftd.execute(x.data(), y.data());
  const double n = double(m * p);
  EXPECT_DOUBLE_EQ(fftd.fabric().bytes_with_tag("A2A-ROW"),
                   double(pc - 1) / pc * n * sizeof(Cd));
  EXPECT_DOUBLE_EQ(fftd.fabric().bytes_with_tag("A2A-COL"),
                   double(pr - 1) / pr * n * sizeof(Cd));
  EXPECT_DOUBLE_EQ(fftd.fabric().bytes_with_tag("A2A-2D"), 0.0);
}

TEST(Dist2d, PencilFloatLegMatchesSlab) {
  const index_t m = 32, p = 16;
  std::vector<std::complex<float>> x(static_cast<std::size_t>(m * p)), ys(x.size()),
      yp(x.size());
  fill_uniform(x.data(), m * p, 55);
  Dist2dFft<float> slab(m, p, 4, model::Decomp::Slab);
  Dist2dFft<float> pencil(m, p, 4, model::Decomp::Pencil, {2, 2});
  slab.execute(x.data(), ys.data());
  pencil.execute(x.data(), yp.data());
  EXPECT_EQ(0, std::memcmp(ys.data(), yp.data(), ys.size() * sizeof(ys[0])));
}

struct DistCase {
  index_t n, p, ml;
  int b, q, g;
};

class DistFmmFftGrid : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistFmmFftGrid, MatchesExactFftAndSingleNode) {
  const auto c = GetParam();
  fmm::Params prm{c.n, c.p, c.ml, c.b, c.q};
  std::vector<Cd> x(static_cast<std::size_t>(c.n)), got(x.size()), expect(x.size()),
      single(x.size());
  fill_uniform(x.data(), c.n, 1000 + c.g);

  DistFmmFft<Cd> dplan(prm, c.g);
  dplan.execute(x.data(), got.data());

  core::exact_fft(c.n, x.data(), expect.data());
  EXPECT_LT(rel_l2_error(got.data(), expect.data(), c.n), ambient_mixed() ? 4e-7 : 2e-14)
      << prm.to_string() << " g=" << c.g;

  core::FmmFft<Cd> splan(prm);
  splan.execute(x.data(), single.data());
  EXPECT_LT(rel_l2_error(got.data(), single.data(), c.n), ambient_mixed() ? 1e-7 : 1e-14)
      << "distributed vs single-node, g=" << c.g;
}

INSTANTIATE_TEST_SUITE_P(Grid, DistFmmFftGrid,
                         ::testing::Values(DistCase{1 << 12, 32, 4, 2, 18, 2},
                                           DistCase{1 << 14, 64, 8, 2, 18, 2},
                                           DistCase{1 << 14, 64, 4, 3, 18, 4},
                                           DistCase{1 << 16, 64, 8, 3, 18, 8},
                                           DistCase{1 << 16, 256, 8, 3, 18, 4},
                                           DistCase{1 << 14, 64, 8, 2, 18, 1}));

TEST(DistFmmFft, MixedMatchesExactAndSingleNodeMixed) {
  // Mixed across devices: fp32 engines and fp32 halo payloads under the
  // fp64 shell must stay inside the single-precision bound and agree with
  // the single-node mixed pipeline to fp32 roundoff.
  fmm::Params prm{1 << 14, 64, 8, 2, 14};
  std::vector<Cd> x(static_cast<std::size_t>(prm.n)), got(x.size()), expect(x.size()),
      single(x.size());
  fill_uniform(x.data(), prm.n, 606);

  DistFmmFft<Cd> dplan(prm, 2, fmm::Precision::Mixed);
  EXPECT_EQ(dplan.precision(), fmm::Precision::Mixed);
  dplan.execute(x.data(), got.data());

  core::exact_fft(prm.n, x.data(), expect.data());
  EXPECT_LT(rel_l2_error(got.data(), expect.data(), prm.n), 4e-7);

  core::FmmFft<Cd> splan(prm, /*fuse_post=*/true, fmm::Precision::Mixed);
  splan.execute(x.data(), single.data());
  EXPECT_LT(rel_l2_error(got.data(), single.data(), prm.n), 1e-7);
}

TEST(DistFmmFft, MixedSerialAndAsyncAreBitIdentical) {
  // The executor-mode invariant must survive the templated fp32 stage
  // tasks and comm lambdas.
  fmm::Params prm{1 << 14, 64, 8, 2, 14};
  std::vector<Cd> x(static_cast<std::size_t>(prm.n));
  fill_uniform(x.data(), prm.n, 99);
  auto run = [&](exec::Mode mode) {
    std::vector<Cd> y(x.size());
    exec::ScopedMode sm(mode);
    DistFmmFft<Cd> plan(prm, 2, fmm::Precision::Mixed);
    plan.execute(x.data(), y.data());
    return y;
  };
  EXPECT_EQ(run(exec::Mode::Serial), run(exec::Mode::Async));
}

TEST(DistFmmFft, RealInputAcrossDevices) {
  fmm::Params prm{1 << 14, 64, 8, 2, 18};
  const index_t n = prm.n;
  std::vector<double> x(static_cast<std::size_t>(n));
  fill_uniform(x.data(), n, 8);
  std::vector<Cd> got(static_cast<std::size_t>(n)), xc(got.size()), expect(got.size());
  DistFmmFft<double> plan(prm, 4);
  plan.execute(x.data(), got.data());
  for (std::size_t i = 0; i < x.size(); ++i) xc[i] = Cd(x[i], 0);
  core::exact_fft(n, xc.data(), expect.data());
  EXPECT_LT(rel_l2_error(got.data(), expect.data(), n), ambient_mixed() ? 4e-7 : 2e-14);
}

TEST(DistFmmFft, CommVolumeMatchesPaperModel) {
  // §5.2: per-process sends — S halo 2C(P-1)ML (we send full CP boxes),
  // M^l halos 4C(L-B)(P-1)Q, base gather 2^B·C(P-1)Q·(G-1)/G, plus the one
  // 2D-FFT all-to-all. Fabric bytes must match within the p=0-slice slack.
  fmm::Params prm{1 << 18, 64, 16, 3, 12};  // M=4096, L=8, B=3
  const int g = 4, c = 2;
  std::vector<Cd> x(static_cast<std::size_t>(prm.n)), y(x.size());
  fill_uniform(x.data(), prm.n, 2);
  DistFmmFft<Cd> plan(prm, g);
  plan.execute(x.data(), y.data());
  const auto& fab = plan.fabric();

  // Under the ambient mixed policy the FMM halos ship fp32 words while the
  // 2D-FFT all-to-all stays at the fp64 shell width; the §5.2 word counts
  // are identical either way. (The fabric's per-tag totals key by plain
  // tag at any width; only the metric/traffic keys carry the ".f32" suffix.)
  const double rb = ambient_mixed() ? sizeof(float) : sizeof(double);
  // Our implementation sends full C·P boxes (the paper counts C·(P-1)).
  const double s_expect = g * 2.0 * c * prm.p * prm.ml * rb;
  EXPECT_DOUBLE_EQ(fab.bytes_with_tag("COMM-S"), s_expect);

  double m_expect = 0;
  for (int lev = prm.b + 1; lev <= prm.l(); ++lev)
    m_expect += g * 2.0 * (2.0 * c * (prm.p - 1) * prm.q) * rb;
  double m_got = 0;
  for (int lev = prm.b + 1; lev <= prm.l(); ++lev)
    m_got += fab.bytes_with_tag("COMM-M" + std::to_string(lev));
  EXPECT_DOUBLE_EQ(m_got, m_expect);

  const double mb_expect =
      g * (g - 1.0) * (c * (prm.p - 1.0) * prm.q * (double(prm.boxes(prm.b)) / g)) * rb;
  EXPECT_DOUBLE_EQ(fab.bytes_with_tag("COMM-MB"), mb_expect);

  const double a2a = g * (g - 1.0) * double(prm.n) / (g * g) * sizeof(Cd);
  EXPECT_DOUBLE_EQ(fab.bytes_with_tag("A2A-2D"), a2a);

  // FMM comm is already below the single transpose at this modest N; the
  // asymptotic claim is checked at paper scale in the model test below.
  EXPECT_LT(fab.total_bytes() - a2a, 0.60 * a2a);
}

TEST(DistFmmFft, FmmCommMuchSmallerThanBaselineComm) {
  // The central claim: ~1 transpose instead of 3 (asymptotically; the FMM
  // halo volume is O(P·Q·L), independent of N).
  fmm::Params prm{1 << 18, 64, 16, 3, 12};
  const int g = 4;
  std::vector<Cd> x(static_cast<std::size_t>(prm.n)), y(x.size());
  fill_uniform(x.data(), prm.n, 4);
  DistFmmFft<Cd> plan(prm, g);
  plan.execute(x.data(), y.data());
  DistFft1d<double> base(prm.n, g);
  base.execute(x.data(), y.data());
  const double fmm_bytes = plan.fabric().total_bytes();
  const double base_bytes = base.fabric().total_bytes();
  EXPECT_LT(fmm_bytes, 0.55 * base_bytes);
  EXPECT_GT(fmm_bytes, 0.30 * base_bytes);  // at least the one transpose
}

TEST(DistFmmFft, CommAdvantageApproachesThreeXAtPaperScale) {
  // At N = 2^27 (no execution, model counts only) the FMM-FFT's total
  // communication approaches 1/3 of the baseline's three transposes.
  fmm::Params prm{index_t(1) << 27, 256, 64, 3, 16};
  const int g = 8, c = 2;
  const double rb = 8.0;
  const double fmm_halo = model::paper_fmm_comm(prm, c, g).total() * rb;
  const double transpose = double(prm.n) / g * (g - 1.0) / g * 16.0;  // per device
  EXPECT_LT(fmm_halo / transpose, 0.02);
  const double ratio = (fmm_halo + transpose) / (3.0 * transpose);
  EXPECT_NEAR(ratio, 1.0 / 3.0, 0.01);
}

TEST(DistFmmFft, EngineStatsExposedPerDevice) {
  fmm::Params prm{1 << 12, 32, 4, 2, 12};
  std::vector<Cd> x(static_cast<std::size_t>(prm.n)), y(x.size());
  fill_uniform(x.data(), prm.n, 6);
  DistFmmFft<Cd> plan(prm, 2);
  plan.execute(x.data(), y.data());
  for (int r = 0; r < 2; ++r) {
    const auto& st = plan.engine_stats(r);
    EXPECT_FALSE(st.empty());
    double flops = 0;
    for (const auto& s : st) flops += s.flops;
    EXPECT_GT(flops, 0);
  }
}

TEST(DistFabric, RepeatedExecutesScaleLedgerExactly) {
  // The fabric keeps running totals, not a per-message log: k executes of
  // one plan report exactly k times one execute's per-tag bytes and
  // message count.
  const int k = 5;
  auto check = [&](const sim::Fabric& fabric, auto&& execute) {
    execute();
    const auto once = fabric.bytes_by_tag();
    const std::size_t msgs = fabric.transfers();
    ASSERT_FALSE(once.empty());
    for (int i = 1; i < k; ++i) execute();
    auto after = fabric.bytes_by_tag();
    EXPECT_EQ(after.size(), once.size());
    double total = 0;
    for (const auto& [tag, bytes] : once) {
      EXPECT_EQ(after[tag], k * bytes) << tag;
      total += bytes;
    }
    EXPECT_EQ(fabric.transfers(), k * msgs);
    EXPECT_EQ(fabric.total_bytes(), k * total);
  };
  const fmm::Params prm{1 << 12, 32, 4, 2, 12};
  std::vector<Cd> x(static_cast<std::size_t>(prm.n)), y(x.size());
  fill_uniform(x.data(), prm.n, 12);
  for (exec::Mode mode : {exec::Mode::Serial, exec::Mode::Async}) {
    exec::ScopedMode sm(mode);
    DistFmmFft<Cd> fmm(prm, 4);
    check(fmm.fabric(), [&] { fmm.execute(x.data(), y.data()); });
  }
  DistFft1d<double> base(prm.n, 4);
  check(base.fabric(), [&] { base.execute(x.data(), y.data()); });
}

TEST(DistFmmFft, RejectsInvalidDeviceCounts) {
  fmm::Params prm{1 << 12, 32, 8, 2, 12};  // 2^B = 4
  EXPECT_THROW((DistFmmFft<Cd>(prm, 8)), Error);  // 2^B < G
  EXPECT_THROW((DistFft1d<double>(1 << 12, 128)), Error);
}

}  // namespace
}  // namespace fmmfft::dist
