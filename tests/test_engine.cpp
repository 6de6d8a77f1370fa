// Integration tests for the batched FMM engine: the P-1 interleaved FMMs
// (plus post-processing) must match the dense Ĥ_{M,P} application to the
// accuracy implied by the Chebyshev order Q.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/reference.hpp"
#include "fmm/engine.hpp"
#include "fmm/operators.hpp"

namespace fmmfft::fmm {
namespace {

using Cx = std::complex<double>;

/// Run the engine on complex input and emulate POST, returning Ĥx.
std::vector<Cx> engine_apply_hhat(const Params& prm, const std::vector<Cx>& x) {
  Engine<double> eng(prm, 2);
  std::memcpy(eng.source_box(0), x.data(), sizeof(Cx) * x.size());
  eng.run_single_node();
  const double* t = eng.target_box(0);
  const double* r = eng.reduction();
  std::vector<Cx> y(x.size());
  const index_t p_total = prm.p, m = prm.m();
  for (index_t mg = 0; mg < m; ++mg)
    for (index_t p = 0; p < p_total; ++p) {
      Cx tv(t[2 * (p + p_total * mg)], t[2 * (p + p_total * mg) + 1]);
      if (p == 0) {
        y[(std::size_t)(p + p_total * mg)] = tv;
      } else {
        Cx rp(r[2 * (p - 1)], r[2 * (p - 1) + 1]);
        y[(std::size_t)(p + p_total * mg)] = rho(p, p_total, m) * (tv + Cx(0, 1) * rp);
      }
    }
  return y;
}

struct Case {
  index_t n, p, ml;
  int b, q;
  double tol;
};

class EngineVsDense : public ::testing::TestWithParam<Case> {};

TEST_P(EngineVsDense, MatchesDenseHhat) {
  const auto c = GetParam();
  Params prm{c.n, c.p, c.ml, c.b, c.q};
  prm.validate();
  std::vector<Cx> x(static_cast<std::size_t>(c.n));
  fill_uniform(x.data(), c.n, 77);
  auto got = engine_apply_hhat(prm, x);
  std::vector<Cx> expect(x.size());
  core::apply_hhat_dense(prm, x.data(), expect.data());
  EXPECT_LT(rel_l2_error(got.data(), expect.data(), c.n), c.tol) << prm.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, EngineVsDense,
    ::testing::Values(
        // L == B: near field + base-level M2L only (no tree traversal).
        Case{1 << 10, 32, 8, 2, 8, 1e-6},
        Case{1 << 10, 32, 4, 3, 10, 1e-8},
        // Deep trees exercising M2M/M2L-l/L2L.
        Case{1 << 12, 32, 4, 2, 12, 1e-9},
        Case{1 << 12, 32, 2, 3, 12, 1e-9},
        Case{1 << 14, 64, 8, 2, 14, 1e-11},
        Case{1 << 14, 64, 4, 4, 14, 1e-11},
        // Larger P (more FMMs, smaller M).
        Case{1 << 14, 256, 4, 2, 12, 1e-9},
        // M_L = 1: every point its own leaf.
        Case{1 << 10, 64, 1, 2, 6, 5e-4},
        // Base level deeper than 2 with all-pairs M2L over 16 boxes.
        Case{1 << 14, 64, 4, 4, 10, 1e-7}));

TEST(Engine, RealInputMatchesComplexReal) {
  // C = 1 pipeline must agree with the real part flowing through C = 2.
  Params prm{1 << 12, 32, 4, 2, 12};
  std::vector<double> xr(1 << 12);
  fill_uniform(xr.data(), xr.size(), 5);
  std::vector<Cx> xc(xr.size());
  for (std::size_t i = 0; i < xr.size(); ++i) xc[i] = Cx(xr[i], 0.0);

  Engine<double> eng(prm, 1);
  std::memcpy(eng.source_box(0), xr.data(), sizeof(double) * xr.size());
  eng.run_single_node();

  Engine<double> eng2(prm, 2);
  std::memcpy(eng2.source_box(0), xc.data(), sizeof(Cx) * xc.size());
  eng2.run_single_node();

  const double* t1 = eng.target_box(0);
  const double* t2 = eng2.target_box(0);
  const index_t n = prm.n;
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(t1[i], t2[2 * i], 1e-12);         // real parts agree
    EXPECT_NEAR(t2[2 * i + 1], 0.0, 1e-12);       // imag stays zero
  }
  const double* r1 = eng.reduction();
  const double* r2 = eng2.reduction();
  for (index_t p = 0; p < prm.p - 1; ++p) EXPECT_NEAR(r1[p], r2[2 * p], 1e-10);
}

TEST(Engine, ReductionEqualsSourceSums) {
  // §4.8: the base multipoles preserve column sums, so r_{p-1} = sum_m,b S.
  Params prm{1 << 12, 64, 4, 2, 10};
  std::vector<Cx> x(static_cast<std::size_t>(prm.n));
  fill_uniform(x.data(), prm.n, 9);
  Engine<double> eng(prm, 2);
  std::memcpy(eng.source_box(0), x.data(), sizeof(Cx) * x.size());
  eng.run_single_node();
  const double* r = eng.reduction();
  const index_t m = prm.m();
  for (index_t p = 1; p < prm.p; ++p) {
    Cx sum = 0;
    for (index_t k = 0; k < m; ++k) sum += x[(std::size_t)(p + k * prm.p)];
    EXPECT_NEAR(r[2 * (p - 1)], sum.real(), 1e-9 * m) << "p=" << p;
    EXPECT_NEAR(r[2 * (p - 1) + 1], sum.imag(), 1e-9 * m);
  }
}

TEST(Engine, ErrorDecreasesWithQ) {
  Params base{1 << 12, 32, 8, 2, 4};
  std::vector<Cx> x(static_cast<std::size_t>(base.n));
  fill_uniform(x.data(), base.n, 12);
  std::vector<Cx> expect(x.size());
  core::apply_hhat_dense(base, x.data(), expect.data());
  double prev = 1e9;
  for (int q : {4, 8, 12, 16}) {
    Params prm = base;
    prm.q = q;
    auto got = engine_apply_hhat(prm, x);
    double err = rel_l2_error(got.data(), expect.data(), prm.n);
    EXPECT_LT(err, prev) << "q=" << q;
    prev = err;
  }
  EXPECT_LT(prev, 1e-12);
}

TEST(Engine, LinearityOfHhat) {
  Params prm{1 << 10, 32, 4, 2, 10};
  std::vector<Cx> a(static_cast<std::size_t>(prm.n)), b(a.size()), sum(a.size());
  fill_uniform(a.data(), prm.n, 21);
  fill_uniform(b.data(), prm.n, 22);
  for (std::size_t i = 0; i < a.size(); ++i) sum[i] = a[i] + 2.0 * b[i];
  auto ya = engine_apply_hhat(prm, a);
  auto yb = engine_apply_hhat(prm, b);
  auto ys = engine_apply_hhat(prm, sum);
  std::vector<Cx> combo(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) combo[i] = ya[i] + 2.0 * yb[i];
  EXPECT_LT(rel_l2_error(ys.data(), combo.data(), prm.n), 1e-11);
}

TEST(Engine, StatsRecordExpectedLaunchCensus) {
  // Fig. 2 accounting: S2M 1, M2M L-B, S2T 1, M2L-l (L-B), M2L-B 1,
  // REDUCE 1, L2L L-B, L2T 1 compute launches.
  Params prm{1 << 14, 64, 4, 2, 8};  // M=256, L=6, B=2
  Engine<double> eng(prm, 2);
  std::vector<Cx> x(static_cast<std::size_t>(prm.n));
  fill_uniform(x.data(), prm.n, 1);
  std::memcpy(eng.source_box(0), x.data(), sizeof(Cx) * x.size());
  eng.run_single_node();
  int s2m = 0, m2m = 0, s2t = 0, m2ll = 0, m2lb = 0, red = 0, l2l = 0, l2t = 0;
  for (const auto& st : eng.stats()) {
    if (st.name == "S2M") ++s2m;
    else if (st.name.rfind("M2M-", 0) == 0) ++m2m;
    else if (st.name == "S2T") ++s2t;
    else if (st.name == "M2L-B") ++m2lb;
    else if (st.name.rfind("M2L-", 0) == 0) ++m2ll;
    else if (st.name == "REDUCE") ++red;
    else if (st.name.rfind("L2L-", 0) == 0) ++l2l;
    else if (st.name == "L2T") ++l2t;
  }
  const int depth = prm.l() - prm.b;  // 4
  EXPECT_EQ(s2m, 1);
  EXPECT_EQ(m2m, depth);
  EXPECT_EQ(s2t, 1);
  EXPECT_EQ(m2ll, depth);
  EXPECT_EQ(m2lb, 1);
  EXPECT_EQ(red, 1);
  EXPECT_EQ(l2l, depth);
  EXPECT_EQ(l2t, 1);
}

TEST(Engine, StatsFlopFormulas) {
  // Exact per-stage flop counts (§5.1 with the engine's conventions).
  Params prm{1 << 12, 32, 8, 2, 8};  // M=128, L=4
  const int c = 2;
  Engine<double> eng(prm, c);
  std::vector<Cx> x(static_cast<std::size_t>(prm.n));
  fill_uniform(x.data(), prm.n, 2);
  std::memcpy(eng.source_box(0), x.data(), sizeof(Cx) * x.size());
  eng.run_single_node();
  const double cpm = c * (prm.p - 1), cp = c * prm.p;
  for (const auto& st : eng.stats()) {
    if (st.name == "S2M") {
      EXPECT_DOUBLE_EQ(st.flops, 2.0 * cpm * prm.q * prm.ml * prm.leaves());
    }
    if (st.name == "S2T") {
      EXPECT_DOUBLE_EQ(st.flops, 6.0 * prm.ml * prm.ml * cp * prm.leaves());
    }
    if (st.name == "M2L-B") {
      EXPECT_DOUBLE_EQ(st.flops,
                       2.0 * (prm.boxes(prm.b) - 3) * prm.q * prm.q * cpm * prm.boxes(prm.b));
    }
  }
}

// -- Kernel identity ---------------------------------------------------------
// S2T and the M2L stages promise BIT-identical outputs to plain scalar loops
// that add in the documented per-element order, from the public operator
// tables cast to the working type:
//   S2T    T row i += S2T(j - i) ∘ S row j, j ascending over [-M_L, 2·M_L);
//   M2L-ℓ  separation-major in level_separations() order for the box's
//          parity, j-minor;
//   M2L-B  s ascending over [2, 2^B - 2], j-minor.
// The oracles below are those loops over the engine's public tensor
// accessors, so they depend on neither its table layout nor its tile. Two
// engines get identical tensor state — sources with halos, every multipole
// level with halo boxes, the global base buffer — then one runs the kernels
// and the other the oracles; every output tensor must memcmp equal.

template <typename T>
std::vector<T> cast_table(const std::vector<double>& tab) {
  return std::vector<T>(tab.begin(), tab.end());
}

template <typename T>
void s2t_oracle(Engine<T>& e) {
  const Params& prm = e.params();
  const index_t ml = prm.ml, cp = e.cp();
  const auto tab = cast_table<T>(s2t_table(prm, e.components()));
  for (index_t b = 0; b < e.local_leaves(); ++b) {
    const T* sb = e.source_box(b);
    T* tb = e.target_box(b);
    for (index_t i = 0; i < ml; ++i)
      for (index_t j = -ml; j < 2 * ml; ++j)
        for (index_t pc = 0; pc < cp; ++pc)
          tb[i * cp + pc] += tab[std::size_t((j - i + 2 * ml - 1) * cp + pc)] * sb[j * cp + pc];
  }
}

/// L^level box b += M2L slab `tab` applied to the multipoles at `msrc`.
template <typename T>
void m2l_box_oracle(Engine<T>& e, T* ldst, const T* msrc, const std::vector<T>& tab) {
  const index_t q = e.params().q, cpm = e.cpm();
  for (index_t i = 0; i < q; ++i)
    for (index_t j = 0; j < q; ++j)
      for (index_t pc = 0; pc < cpm; ++pc)
        ldst[i * cpm + pc] += tab[std::size_t((i + q * j) * cpm + pc)] * msrc[j * cpm + pc];
}

template <typename T>
void m2l_level_oracle(Engine<T>& e, int level) {
  const Params& prm = e.params();
  std::vector<std::vector<T>> tabs;
  for (index_t s : level_separations())
    tabs.push_back(cast_table<T>(m2l_table(prm, level, s, e.components())));
  for (index_t b = 0; b < e.local_boxes(level); ++b) {
    const bool odd = (e.box_offset(level) + b) % 2 != 0;
    for (std::size_t k = 0; k < tabs.size(); ++k) {
      const index_t s = level_separations()[k];
      if (separation_applies(s, odd))
        m2l_box_oracle(e, e.local_box(level, b), e.multipole_box(level, b + s), tabs[k]);
    }
  }
}

template <typename T>
void m2l_base_oracle(Engine<T>& e) {
  const Params& prm = e.params();
  const index_t nb_global = prm.boxes(prm.b), off = e.box_offset(prm.b);
  for (index_t s = 2; s <= nb_global - 2; ++s) {
    const auto tab = cast_table<T>(m2l_table(prm, prm.b, s, e.components()));
    for (index_t b = 0; b < e.local_boxes(prm.b); ++b)
      m2l_box_oracle(e, e.local_box(prm.b, b), e.multipole_box(prm.b, mod(off + b + s, nb_global)),
                     tab);
  }
}

template <typename T>
void prime_pair(Engine<T>& ea, Engine<T>& eb) {
  const Params& prm = ea.params();
  const index_t se = ea.source_box_elems(), ee = ea.expansion_box_elems();
  for (index_t b = -1; b <= ea.local_leaves(); ++b) {
    const std::uint64_t seed = 900 + std::uint64_t(b + 1);
    fill_uniform(ea.source_box(b), se, seed);
    fill_uniform(eb.source_box(b), se, seed);
  }
  ea.zero();
  eb.zero();
  for (int lev = prm.b; lev <= prm.l(); ++lev) {
    const index_t b_lo = lev == prm.b ? 0 : -2;
    const index_t b_hi = lev == prm.b ? prm.boxes(prm.b) : ea.local_boxes(lev) + 2;
    for (index_t b = b_lo; b < b_hi; ++b) {
      const std::uint64_t seed = 5000 * std::uint64_t(lev) + std::uint64_t(b + 2);
      fill_uniform(ea.multipole_box(lev, b), ee, seed);
      fill_uniform(eb.multipole_box(lev, b), ee, seed);
    }
  }
}

template <typename T>
void expect_kernels_match(const Params& prm, index_t g, index_t rank, int c) {
  Engine<T> ea(prm, c, g, rank), eb(prm, c, g, rank);
  prime_pair(ea, eb);
  ea.s2t();
  s2t_oracle(eb);
  const std::string label = prm.to_string() + " c=" + std::to_string(c) +
                            (sizeof(T) == 4 ? " f32" : " f64") + " g=" + std::to_string(g) +
                            " rank=" + std::to_string(rank);
  const std::size_t tbytes = sizeof(T) * std::size_t(ea.source_box_elems() * ea.local_leaves());
  EXPECT_EQ(0, std::memcmp(ea.target_box(0), eb.target_box(0), tbytes)) << label << " (S2T)";
  for (int lev = prm.l(); lev > prm.b; --lev) {
    ea.m2l_level(lev);
    m2l_level_oracle(eb, lev);
  }
  ea.m2l_base();
  m2l_base_oracle(eb);
  for (int lev = prm.b; lev <= prm.l(); ++lev) {
    const std::size_t lbytes =
        sizeof(T) * std::size_t(ea.expansion_box_elems() * ea.local_boxes(lev));
    EXPECT_EQ(0, std::memcmp(ea.local_box(lev, 0), eb.local_box(lev, 0), lbytes))
        << label << " (M2L level " << lev << ")";
  }
}

/// Both precisions and both component counts.
void expect_kernels_match_all(const Params& prm, index_t g = 1, index_t rank = 0) {
  for (int c : {1, 2}) {
    expect_kernels_match<double>(prm, g, rank, c);
    expect_kernels_match<float>(prm, g, rank, c);
  }
}

TEST(EngineKernelIdentity, FusedMatchesReferenceAcrossConfigs) {
  // Deep tree with the small precomputed base (the e2e CD shape, scaled).
  expect_kernels_match_all(Params{1 << 14, 64, 4, 2, 10});
  // Big base: 2^B = 64 boxes, 61 separations — the LRU-backed sweep.
  expect_kernels_match_all(Params{1 << 14, 64, 4, 6, 10});
  // P = 32 gives 31 (real) and 62 (complex) M2L columns: every column
  // step-down and single lanes. M_L in {64, 16, 2} and Q in {17, 10, 14}
  // reach every row block (16/8/4/2/1).
  expect_kernels_match_all(Params{1 << 15, 32, 64, 2, 17});
  expect_kernels_match_all(Params{1 << 13, 32, 16, 2, 10});
  expect_kernels_match_all(Params{1 << 10, 32, 2, 3, 14});
}

TEST(EngineKernelIdentity, FusedMatchesReferenceOnDeviceSlabs) {
  // Per-device slabs shift box offsets and parities; every rank must match.
  const Params prm{index_t(1) << 16, 64, 8, 3, 14};
  for (index_t g : {index_t(1), index_t(2), index_t(4)})
    for (index_t rank = 0; rank < g; ++rank) expect_kernels_match<double>(prm, g, rank, 2);
  expect_kernels_match_all(prm, 4, 3);
}

TEST(EngineKernelIdentity, BaseSeparationsBeyondLruCapacity) {
  // 2^B = 512 base boxes -> 509 separations, more than the operator LRU can
  // pin at once: m2l_base builds each slab on the fly and sweeps it on its
  // own, and must still match the oracle bit for bit. P = 4 gives S2T and
  // M2L widths below one vector; Q = 4 one 4-row block.
  expect_kernels_match_all(Params{4096, 4, 2, 9, 4});
}

TEST(Engine, RejectsInvalidConfigs) {
  Params prm{1 << 12, 32, 8, 2, 8};
  EXPECT_THROW(Engine<double>(prm, 3), Error);            // bad component count
  EXPECT_THROW(Engine<double>(prm, 2, 2, 2), Error);      // rank >= g
  Params bad = prm;
  bad.b = 9;
  EXPECT_THROW(Engine<double>(bad, 2), Error);            // B > L
}

}  // namespace
}  // namespace fmmfft::fmm
