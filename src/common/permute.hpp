// Block-to-cyclic permutations Π_{M,P} from the radix-split and FMM-FFT
// factorizations (§3):
//
//   Π_{M,P} ê_{p + m·P} = ê_{m + p·M},   0 ≤ p < P, 0 ≤ m < M
//
// i.e. as an action on a length-N vector, (Π_{M,P} x)[m + p·M] = x[p + m·P]:
// a "gather by stride P" that converts p-major interleaved data into
// m-major blocked data. In the distributed setting this permutation *is*
// the all-to-all transpose.
//
// All layout changes route through one cache-oblivious strided transpose
// kernel (`detail::transpose_strided_serial`): the matrix is split
// recursively along its longer axis until a tile fits a fixed byte budget,
// and the base tile runs write-sequential (inner loop along a destination
// row). The recursion keeps both footprints cache-resident at every level
// without tuning a blocking factor, which is what lifts it over the flat
// 32×32 blocked reference on large power-of-two shapes where that loop's
// strided stream aliases in the cache. The same kernel, with independent
// source and destination leading dimensions, is what the fused all-to-all
// pack/unpack in dist/collectives.hpp scatters through.
#pragma once

#include <cstring>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "common/types.hpp"
#include "obs/traffic.hpp"

namespace fmmfft {

namespace detail {

/// Byte budget of the base-case tile (staged twice: tile buffer + the
/// source/destination lines it touches stay comfortably inside L1).
inline constexpr std::size_t kTransposeTileBytes = 16384;

/// Largest power-of-two tile side whose square fits the byte budget.
template <typename T>
constexpr index_t transpose_tile_side() {
  index_t side = 4;
  while (2 * side * 2 * side * sizeof(T) <= kTransposeTileBytes) side *= 2;
  return side;
}

/// Base case: y[j + i·ldy] = x[i + j·ldx] for a tile of nr×nc (nr, nc ≤
/// tile side), traversed write-sequential: the inner loop walks a full
/// destination row, so stores stream into whole cache lines while the
/// strided loads stay inside the L1-resident tile the recursion carved
/// out. On the seed host this orientation benches ~2× over the
/// read-sequential one (and over staging the tile through a bounce
/// buffer): strided loads hide behind the prefetcher, strided stores
/// serialize on read-for-ownership of partially-written lines.
template <typename T>
void transpose_tile(const T* x, index_t ldx, T* y, index_t ldy, index_t nr, index_t nc) {
  for (index_t i = 0; i < nr; ++i) {
    T* dst = y + i * ldy;
    const T* src = x + i;
    for (index_t j = 0; j < nc; ++j) dst[j] = src[j * ldx];
  }
}

/// Cache-oblivious strided transpose: y[j + i·ldy] = x[i + j·ldx] for
/// i ∈ [0, nr), j ∈ [0, nc). Recursively halves the longer axis until the
/// tile fits the budget. Pure copies: the result is bit-identical for any
/// split, so callers may parallelize over disjoint sub-blocks freely.
template <typename T>
void transpose_strided_serial(const T* x, index_t ldx, T* y, index_t ldy, index_t nr,
                              index_t nc) {
  constexpr index_t side = transpose_tile_side<T>();
  if (nr <= side && nc <= side) {
    transpose_tile(x, ldx, y, ldy, nr, nc);
    return;
  }
  if (nr >= nc) {
    const index_t h = nr / 2;
    transpose_strided_serial(x, ldx, y, ldy, h, nc);
    transpose_strided_serial(x + h, ldx, y + h * ldy, ldy, nr - h, nc);
  } else {
    const index_t h = nc / 2;
    transpose_strided_serial(x, ldx, y, ldy, nr, h);
    transpose_strided_serial(x + h * ldx, ldx, y + h, ldy, nr, nc - h);
  }
}

}  // namespace detail

/// Cache-oblivious blocked transpose of an r×c column-major matrix into a
/// c×r one: y[j + i·cols] = x[i + j·rows]. permute_mp(x, y, M, P) == this
/// with rows = P, cols = M. The longer axis is striped across the global
/// pool; stripes write disjoint ranges of y and the kernel is a pure copy,
/// so the result is independent of the worker count.
template <typename T>
void transpose_blocked(const T* x, T* y, index_t rows, index_t cols) {
  FMMFFT_CHECK(x != y);
  if (rows <= 0 || cols <= 0) return;
  FMMFFT_TRAFFIC_RW("transpose", double(rows) * double(cols) * sizeof(T),
                    double(rows) * double(cols) * sizeof(T), 0);
  if (rows == 1 || cols == 1) {  // degenerate: the transpose is the identity copy
    std::memcpy(y, x, sizeof(T) * static_cast<std::size_t>(rows * cols));
    return;
  }
  // Grain: at least ~2^16 elements of work per chunk.
  if (rows >= cols) {
    const index_t grain = std::max<index_t>(1, (index_t(1) << 16) / cols);
    parallel_for(
        rows,
        [&](index_t i0, index_t i1) {
          detail::transpose_strided_serial(x + i0, rows, y + i0 * cols, cols, i1 - i0, cols);
        },
        grain);
  } else {
    const index_t grain = std::max<index_t>(1, (index_t(1) << 16) / rows);
    parallel_for(
        cols,
        [&](index_t j0, index_t j1) {
          detail::transpose_strided_serial(x + j0 * rows, rows, y + j0, cols, rows, j1 - j0);
        },
        grain);
  }
}

/// y := Π_{M,P} x (out-of-place). y[m + p*M] = x[p + m*P]. N = M*P.
/// Routed through the cache-oblivious transpose: x viewed as a P×M
/// column-major matrix, transposed into the M-major layout.
template <typename T>
void permute_mp(const T* x, T* y, index_t m_dim, index_t p_dim) {
  transpose_blocked(x, y, p_dim, m_dim);
}

}  // namespace fmmfft
