// Unit tests for the common substrate: tensors, permutations, buffers,
// math helpers, RNG determinism.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/aligned.hpp"
#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/math.hpp"
#include "common/permute.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/tensor.hpp"
#include "common/types.hpp"
#include "oracles.hpp"

namespace fmmfft {
namespace {

TEST(Types, ComponentsAndTraits) {
  EXPECT_EQ(components_v<float>, 1);
  EXPECT_EQ(components_v<double>, 1);
  EXPECT_EQ(components_v<std::complex<float>>, 2);
  EXPECT_EQ(components_v<std::complex<double>>, 2);
  EXPECT_TRUE((std::is_same_v<real_of_t<std::complex<double>>, double>));
  EXPECT_TRUE((std::is_same_v<real_of_t<float>, float>));
}

TEST(Types, ScalarTags) {
  EXPECT_EQ(scalar_of<float>(), Scalar::F32);
  EXPECT_EQ(scalar_of<std::complex<double>>(), Scalar::C64);
  EXPECT_EQ(bytes_of(Scalar::C32), 8u);
  EXPECT_EQ(bytes_of(Scalar::F64), 8u);
  EXPECT_TRUE(is_complex_scalar(Scalar::C64));
  EXPECT_FALSE(is_complex_scalar(Scalar::F32));
  EXPECT_TRUE(is_double_scalar(Scalar::F64));
  EXPECT_STREQ(to_string(Scalar::C64), "complex<double>");
}

TEST(Math, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(6));
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(1024), 10);
  EXPECT_EQ(ilog2(1023), 9);
  EXPECT_EQ(ilog2_exact(1 << 20), 20);
}

TEST(Math, CeilDivAndMod) {
  EXPECT_EQ(ceil_div(7, 2), 4);
  EXPECT_EQ(ceil_div(8, 2), 4);
  EXPECT_EQ(mod(-1, 8), 7);
  EXPECT_EQ(mod(-9, 8), 7);
  EXPECT_EQ(mod(9, 8), 1);
}

TEST(Math, RelL2Error) {
  std::vector<double> a{1, 2, 3}, b{1, 2, 3};
  EXPECT_EQ(rel_l2_error(a.data(), b.data(), 3), 0.0);
  a[0] = 1.1;
  EXPECT_NEAR(rel_l2_error(a.data(), b.data(), 3), 0.1 / std::sqrt(14.0), 1e-12);
  std::vector<std::complex<double>> ca{{1, 1}}, cb{{1, 1}};
  EXPECT_EQ(rel_l2_error(ca.data(), cb.data(), 1), 0.0);
}

TEST(Error, ChecksThrow) {
  EXPECT_THROW(FMMFFT_CHECK(false), Error);
  EXPECT_NO_THROW(FMMFFT_CHECK(true));
  try {
    FMMFFT_CHECK_MSG(1 == 2, "context " << 42);
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Buffer, ZeroInitAndMove) {
  Buffer<double> b(17);
  for (index_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], 0.0);
  b[3] = 5;
  Buffer<double> c = std::move(b);
  EXPECT_EQ(c.size(), 17);
  EXPECT_EQ(c[3], 5.0);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c.data()) % kAlignment, 0u);
}

TEST(Buffer, FillAndIterate) {
  Buffer<float> b(8);
  b.fill(2.5f);
  float s = std::accumulate(b.begin(), b.end(), 0.0f);
  EXPECT_EQ(s, 20.0f);
  EXPECT_TRUE(Buffer<float>().empty());
}

TEST(Tensor, CompactStrides) {
  Buffer<double> storage(2 * 3 * 4);
  Tensor3<double> t(storage.data(), {2, 3, 4});
  EXPECT_EQ(t.size(), 24);
  EXPECT_EQ(t.ld(0), 1);
  EXPECT_EQ(t.ld(1), 2);
  EXPECT_EQ(t.ld(2), 6);
  t(1, 2, 3) = 7.0;
  EXPECT_EQ(storage[1 + 2 * 2 + 3 * 6], 7.0);
}

TEST(Tensor, SliceSlowestMode) {
  Buffer<int> storage(6 * 5);
  Tensor2<int> t(storage.data(), {6, 5});
  t(2, 3) = 11;
  auto s = t.slice(3);
  EXPECT_EQ(s.dim(0), 6);
  EXPECT_EQ(s(2), 11);
}

TEST(Tensor, NegativeHaloOffset) {
  // Halo regions index one box before the start on the slowest mode.
  Buffer<double> storage(4 * 6);
  Tensor2<double> t(storage.data() + 4, {4, 4});  // one halo box each side
  t(0, -1) = 1.5;                                  // legal: lands in storage[0]
  EXPECT_EQ(storage[0], 1.5);
  t(3, 4) = 2.5;
  EXPECT_EQ(storage[4 * 5 + 3], 2.5);
}

TEST(Permute, MPDefinition) {
  // (Pi_{M,P} x)[m + p*M] = x[p + m*P]
  const index_t M = 4, P = 3;
  std::vector<int> x(M * P), y(M * P);
  std::iota(x.begin(), x.end(), 0);
  permute_mp(x.data(), y.data(), M, P);
  for (index_t p = 0; p < P; ++p)
    for (index_t m = 0; m < M; ++m) EXPECT_EQ(y[m + p * M], x[p + m * P]);
}

TEST(Permute, PMIsInverse) {
  const index_t M = 8, P = 5;
  std::vector<double> x(M * P), y(M * P), z(M * P);
  fill_uniform(x.data(), M * P, 42);
  permute_mp(x.data(), y.data(), M, P);
  permute_mp(y.data(), z.data(), P, M);
  EXPECT_EQ(x, z);
}

TEST(Permute, TransposeMatchesPermute) {
  const index_t M = 13, P = 7;
  std::vector<double> x(M * P), y(M * P), z(M * P);
  fill_uniform(x.data(), M * P, 7);
  permute_mp(x.data(), y.data(), M, P);
  // x viewed as P×M column-major; its transpose is the M-major layout.
  transpose_blocked(x.data(), z.data(), P, M);
  EXPECT_EQ(y, z);
}

// Index-exact oracle for y[j + i*cols] = x[i + j*rows].
template <typename T>
std::vector<T> transpose_oracle(const std::vector<T>& x, index_t rows, index_t cols) {
  std::vector<T> y(x.size());
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i < rows; ++i) y[(std::size_t)(j + i * cols)] = x[(std::size_t)(i + j * rows)];
  return y;
}

TEST(Permute, TransposeExhaustiveShapes) {
  // Square, rectangular, odd, prime, sub-tile, tile-straddling, and
  // degenerate shapes — the cache-oblivious kernel, the 32×32 reference
  // and permute_mp must all agree with the index-exact oracle.
  const index_t shapes[][2] = {{1, 1},   {1, 17},  {17, 1},  {2, 2},    {7, 7},
                               {13, 13}, {31, 37}, {64, 64}, {96, 64},  {64, 96},
                               {127, 3}, {3, 127}, {101, 97}, {256, 33}, {33, 256}};
  for (const auto& s : shapes) {
    const index_t r = s[0], c = s[1];
    std::vector<double> x(std::size_t(r * c));
    fill_uniform(x.data(), r * c, int(r * 1000 + c));
    const auto want = transpose_oracle(x, r, c);
    std::vector<double> y(x.size(), -1.0), yref(x.size(), -2.0), ymp(x.size(), -3.0);
    transpose_blocked(x.data(), y.data(), r, c);
    transpose_blocked_ref(x.data(), yref.data(), r, c);
    permute_mp(x.data(), ymp.data(), /*m_dim=*/c, /*p_dim=*/r);
    EXPECT_EQ(y, want) << "blocked " << r << "x" << c;
    EXPECT_EQ(yref, want) << "ref " << r << "x" << c;
    EXPECT_EQ(ymp, want) << "permute_mp " << r << "x" << c;
  }
}

TEST(Permute, TransposeExhaustiveShapesComplex) {
  // The c64 tile side differs from double's budget arithmetic only via
  // sizeof; check the type the FFT paths actually move.
  using Cx = std::complex<double>;
  for (index_t r : {5, 32, 33, 100}) {
    for (index_t c : {3, 32, 65, 128}) {
      std::vector<Cx> x(std::size_t(r * c));
      fill_uniform(x.data(), r * c, int(r + c));
      const auto want = transpose_oracle(x, r, c);
      std::vector<Cx> y(x.size());
      transpose_blocked(x.data(), y.data(), r, c);
      EXPECT_EQ(y, want) << r << "x" << c;
    }
  }
}

TEST(Permute, TransposeExhaustiveShapesF32) {
  // fp32 doubles the tile side vs fp64 under the same budget — cover the
  // width the mixed-precision FMM pipeline moves, sub-tile to straddling.
  for (index_t r : {1, 7, 33, 64, 129}) {
    for (index_t c : {3, 32, 65, 128}) {
      std::vector<float> x(std::size_t(r * c));
      fill_uniform(x.data(), r * c, std::uint64_t(2 * r + c));
      const auto want = transpose_oracle(x, r, c);
      std::vector<float> y(x.size(), -1.0f), yref(x.size(), -2.0f);
      transpose_blocked(x.data(), y.data(), r, c);
      transpose_blocked_ref(x.data(), yref.data(), r, c);
      EXPECT_EQ(y, want) << "blocked f32 " << r << "x" << c;
      EXPECT_EQ(yref, want) << "ref f32 " << r << "x" << c;
    }
  }
}

TEST(Permute, TransposeInplaceAndStridedC32) {
  // c32 shares fp64's 8-byte element budget; check the strided fused-A2A
  // kernel at that width.
  using Cx = std::complex<float>;
  const index_t ldx = 21, ldy = 17, nr = 12, nc = 15;
  std::vector<Cx> x(std::size_t(ldx * nc));
  fill_uniform(x.data(), ldx * nc, 11);
  std::vector<Cx> y(std::size_t(ldy * nr), Cx(0)), want(y.size(), Cx(0));
  for (index_t j = 0; j < nc; ++j)
    for (index_t i = 0; i < nr; ++i)
      want[(std::size_t)(j + i * ldy)] = x[(std::size_t)(i + j * ldx)];
  detail::transpose_strided_serial(x.data(), ldx, y.data(), ldy, nr, nc);
  EXPECT_EQ(y, want);
}

TEST(Permute, TransposeStridedSubmatrix) {
  // The strided kernel under the fused all-to-all: transpose an interior
  // nr×nc window of a larger matrix with independent source/destination
  // leading dimensions.
  const index_t ldx = 37, ldy = 29, nr = 20, nc = 24;
  std::vector<double> x(std::size_t(ldx * nc));
  fill_uniform(x.data(), ldx * nc, 5);
  std::vector<double> y(std::size_t(ldy * nr), 0.0), want(y.size(), 0.0);
  for (index_t j = 0; j < nc; ++j)
    for (index_t i = 0; i < nr; ++i)
      want[(std::size_t)(j + i * ldy)] = x[(std::size_t)(i + j * ldx)];
  detail::transpose_strided_serial(x.data(), ldx, y.data(), ldy, nr, nc);
  EXPECT_EQ(y, want);
}

TEST(Rng, DeterministicAndInRange) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(5);
  for (int i = 0; i < 1000; ++i) {
    double v = c.uniform_sym();
    EXPECT_GE(v, -1.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, FillUniformComplex) {
  std::vector<std::complex<float>> v(64);
  fill_uniform(v.data(), 64, 9);
  bool nonzero = false;
  for (auto& z : v) {
    EXPECT_LE(std::abs(z.real()), 1.0f);
    EXPECT_LE(std::abs(z.imag()), 1.0f);
    if (z != std::complex<float>(0)) nonzero = true;
  }
  EXPECT_TRUE(nonzero);
}

TEST(ScratchArena, ReusesAlignedBlocksAcrossLeases) {
  auto& arena = ScratchArena::local();
  const std::size_t cached_before = arena.cached_blocks();
  const void* first;
  {
    ScratchBlock<double> blk(1000);
    first = blk.data();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(blk.data()) % kAlignment, 0u);
    EXPECT_EQ(blk.size(), 1000);
    for (index_t i = 0; i < blk.size(); ++i) blk[i] = double(i);
    EXPECT_EQ(blk[999], 999.0);
  }
  EXPECT_GE(arena.cached_blocks(), cached_before);  // released back, not freed
  {
    // Same size checks the block back out instead of allocating.
    ScratchBlock<double> blk(1000);
    EXPECT_EQ(blk.data(), first);
  }
}

TEST(ScratchArena, NestedLeasesAreDistinct) {
  ScratchBlock<int> a(64);
  ScratchBlock<int> b(64);
  EXPECT_NE(a.data(), b.data());
}

TEST(ScratchArena, CacheStaysBounded) {
  // Leasing more distinct sizes than the cache capacity must evict rather
  // than grow without bound.
  for (int round = 0; round < 3; ++round)
    for (index_t n = 1; n <= 64; ++n) ScratchBlock<double> blk(n * 1024);
  EXPECT_LE(ScratchArena::local().cached_blocks(), ScratchArena::kMaxCached);
}

TEST(Table, PrintsAllCells) {
  Table t({"a", "bb"});
  t.row().col(1).col(2.5, 1);
  t.row().col("x").col_sci(1234.5);
  std::ostringstream os;
  t.print(os);
  std::string s = os.str();
  EXPECT_NE(s.find("bb"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
  EXPECT_NE(s.find("1.23e+03"), std::string::npos);
}

}  // namespace
}  // namespace fmmfft
