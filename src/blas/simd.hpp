// Portable vector-extension substrate shared by the hot kernels.
//
// One ISA dispatch (AVX-512 / AVX / SSE2 / NEON / VSX, scalar fallback)
// serves both the register-tiled GEMM microkernel (src/blas/gemm.cpp) and
// the FMM's S2T/M2L accumulate tile (mul_add_tiles, used by
// src/fmm/engine.cpp). The types are GCC/Clang `vector_size` vectors, so
// every per-lane operation is an exactly-rounded IEEE op: vectorized loops
// are value-identical to their scalar counterparts element by element,
// which is what lets the engine promise bit-identical outputs regardless of
// the ISA the TU was built for.
//
// The accumulate tile holds a block of target rows in vector registers for
// a whole sweep over the source rows: each target element is loaded and
// stored once, and each source row costs one vector load shared by the
// block plus one table load, one multiply and one add per target row. The
// block height follows the register file — kTileRows = 16 where the ISA
// has 32 vector registers (AVX-512, AArch64), 8 otherwise — leaving room
// for the source vector and the product; an AVX2 build at 16 rows spills.
// Leftover rows run in blocks of 8/4/2/1. The operator tables it reads are
// vector-major (pack_table), so one vector column of a table is contiguous.
//
// Each translation unit that includes this header gets the widest vector
// its own compile flags allow — the blas/fft libraries build with
// `-march=native -ffp-contract=fast` (contraction is confined to the GEMM
// microkernel's accumulate, same order at any width), the fmm library with
// `-march=native -ffp-contract=off` (its tile promises bit-identity with
// the unfused scalar multiply-add loop).
#pragma once

#include "common/types.hpp"

#if !defined(FMMFFT_NO_SIMD) && (defined(__GNUC__) || defined(__clang__)) &&                   \
    (defined(__AVX512F__) || defined(__AVX__) || defined(__SSE2__) || defined(__ARM_NEON) ||   \
     defined(__VSX__) || defined(__ALTIVEC__))
#define FMMFFT_SIMD 1
#if defined(__AVX512F__)
#define FMMFFT_SIMD_BYTES 64
#elif defined(__AVX__)
#define FMMFFT_SIMD_BYTES 32
#else
#define FMMFFT_SIMD_BYTES 16
#endif
#else
#define FMMFFT_SIMD 0
#define FMMFFT_SIMD_BYTES 0
#endif

namespace fmmfft::simd {

#if FMMFFT_SIMD

// GEMM-tile vectors: the microkernel caps float lanes at its MR = 8 tile
// height, so on AVX-512 floats drop to 32-byte vectors while doubles use
// the full 64 bytes (8 lanes == MR). The `_u` twins (alignment = element
// size) store to C rows whose pitch is not vector-aligned.
typedef double vdouble_t __attribute__((vector_size(FMMFFT_SIMD_BYTES)));
typedef double vdouble_u_t __attribute__((vector_size(FMMFFT_SIMD_BYTES), aligned(8)));
#define FMMFFT_SIMD_GEMM_BYTES_F (FMMFFT_SIMD_BYTES > 32 ? 32 : FMMFFT_SIMD_BYTES)
typedef float vfloat_gemm_t __attribute__((vector_size(FMMFFT_SIMD_GEMM_BYTES_F)));
typedef float vfloat_gemm_u_t __attribute__((vector_size(FMMFFT_SIMD_GEMM_BYTES_F), aligned(4)));

template <typename T>
struct GemmVec;
template <>
struct GemmVec<float> {
  using vec = vfloat_gemm_t;
  using vec_u = vfloat_gemm_u_t;
};
template <>
struct GemmVec<double> {
  using vec = vdouble_t;
  using vec_u = vdouble_u_t;
};

inline const char* width_label() {
  switch (FMMFFT_SIMD_BYTES) {
    case 64: return "vec512";
    case 32: return "vec256";
    default: return "vec128";
  }
}

#else  // scalar fallback

inline const char* width_label() { return "scalar"; }

#endif

/// Lanes of T in one native vector (1 in the scalar build).
template <typename T>
inline constexpr index_t kLanes = FMMFFT_SIMD ? index_t(FMMFFT_SIMD_BYTES / sizeof(T)) : 1;

/// Target rows one accumulate tile keeps in registers (see the header).
#if defined(__AVX512F__) || defined(__aarch64__)
inline constexpr index_t kTileRows = 16;
#else
inline constexpr index_t kTileRows = 8;
#endif

/// Width of the column chunk that starts where `rem` columns are left:
/// native vectors, then the 32- and 16-byte step-downs, then single lanes.
/// Walking a row with it from column 0 cuts it into the tile's chunks.
template <typename T>
constexpr index_t column_width(index_t rem) {
  for (index_t w = kLanes<T>; w > 1 && w * index_t(sizeof(T)) >= 16; w /= 2)
    if (w <= rem) return w;
  return 1;
}

/// Packs the row-major nk × width table `src` into `dst` (nk·width
/// elements) in the vector-major layout the accumulate tile reads: the
/// chunk of w = column_width columns from column c holds its nk rows
/// contiguously, so element (k, c + l) sits at nk·c + k·w + l. Within a
/// full-width chunk that is ((pc / VL)·nk + k)·VL + pc % VL; the tail
/// chunks are as narrow as their columns, so nothing is padded.
template <typename T>
void pack_table(const double* src, index_t nk, index_t width, T* dst) {
  for (index_t c = 0, w = 0; c < width; c += w) {
    w = column_width<T>(width - c);
    for (index_t k = 0; k < nk; ++k)
      for (index_t l = 0; l < w; ++l) *dst++ = static_cast<T>(src[k * width + c + l]);
  }
}

/// One term of an accumulate sweep: source rows src + j·ld, and a packed
/// table (pack_table).
template <typename T>
struct TileTerm {
  const T* src;
  const T* tab;
};

/// Geometry shared by the terms of a sweep: target row i times a term's
/// source row j reads table row k0 + Step·i + j·tab_ld.
struct TileShape {
  index_t rows;    ///< target rows, at dst + i·ld
  index_t ld;      ///< row pitch of the target and of every source
  index_t nj;      ///< source rows per term
  index_t nk;      ///< table rows
  index_t k0;      ///< table row of target row 0 and source row 0
  index_t tab_ld;  ///< table rows between source rows j and j + 1
};

namespace detail {

/// R target rows × Bytes of columns: load once, accumulate every term's
/// source rows, store once. `toff` is the table offset of row k0 + Step·i0
/// in this column chunk.
template <int Step, int Bytes, index_t R, typename T>
inline void tile(T* dst, const TileShape& sh, const TileTerm<T>* terms, index_t nterms,
                 index_t c, index_t toff) {
  constexpr index_t W = Bytes / index_t(sizeof(T));
  const index_t tstep = sh.tab_ld * W;
  if constexpr (W == 1) {
    T acc[R];
    for (index_t r = 0; r < R; ++r) acc[r] = dst[r * sh.ld];
    for (index_t t = 0; t < nterms; ++t) {
      const T* src = terms[t].src + c;
      const T* tab = terms[t].tab + toff;
      for (index_t j = 0; j < sh.nj; ++j, src += sh.ld, tab += tstep)
        for (index_t r = 0; r < R; ++r) acc[r] += tab[Step * r] * *src;
    }
    for (index_t r = 0; r < R; ++r) dst[r * sh.ld] = acc[r];
  } else {
#if FMMFFT_SIMD
    // Declared here from the byte width: GCC drops a vector typedef's
    // aligned() attribute when the type is passed as a template argument,
    // and these rows are only element-aligned.
    typedef T V __attribute__((vector_size(Bytes), aligned(sizeof(T))));
    V acc[R];
#pragma GCC unroll 16
    for (index_t r = 0; r < R; ++r) acc[r] = *reinterpret_cast<const V*>(dst + r * sh.ld);
    for (index_t t = 0; t < nterms; ++t) {
      const T* src = terms[t].src + c;
      const T* tab = terms[t].tab + toff;
      for (index_t j = 0; j < sh.nj; ++j, src += sh.ld, tab += tstep) {
        const V x = *reinterpret_cast<const V*>(src);
#pragma GCC unroll 16
        for (index_t r = 0; r < R; ++r)
          acc[r] += *reinterpret_cast<const V*>(tab + Step * W * r) * x;
      }
    }
#pragma GCC unroll 16
    for (index_t r = 0; r < R; ++r) *reinterpret_cast<V*>(dst + r * sh.ld) = acc[r];
#endif
  }
}

/// Blocks of R rows from row i on, then the leftover rows in blocks of
/// R/2, R/4, ..., 1.
template <int Step, int Bytes, index_t R = kTileRows, typename T>
inline void tile_rows(T* dst, const TileShape& sh, const TileTerm<T>* terms, index_t nterms,
                      index_t c, index_t i = 0) {
  constexpr index_t W = Bytes / index_t(sizeof(T));
  for (; i + R <= sh.rows; i += R)
    tile<Step, Bytes, R>(dst + i * sh.ld + c, sh, terms, nterms, c,
                         sh.nk * c + (sh.k0 + Step * i) * W);
  if constexpr (R > 1) tile_rows<Step, Bytes, R / 2>(dst, sh, terms, nterms, c, i);
}

}  // namespace detail

/// For target rows i in [0, sh.rows) of dst and the column chunk [c, c + w)
/// of a column_width walk:
///   dst[i·ld + c'] += Σ_term Σ_j tab(k0 + Step·i + j·tab_ld, c') · src[j·ld + c']
/// per element term-major then j-ascending, each product rounded and then
/// added — bit for bit the plain scalar loop in that order when the TU is
/// compiled with contraction off.
template <int Step, typename T>
inline void mul_add_tiles(T* dst, const TileShape& sh, const TileTerm<T>* terms, index_t nterms,
                          index_t c, [[maybe_unused]] index_t w) {
#if FMMFFT_SIMD
  const index_t bytes = w * index_t(sizeof(T));
  if (bytes == FMMFFT_SIMD_BYTES)
    return detail::tile_rows<Step, FMMFFT_SIMD_BYTES>(dst, sh, terms, nterms, c);
  if constexpr (FMMFFT_SIMD_BYTES > 32) {
    if (bytes == 32) return detail::tile_rows<Step, 32>(dst, sh, terms, nterms, c);
  }
  if constexpr (FMMFFT_SIMD_BYTES > 16) {
    if (bytes == 16) return detail::tile_rows<Step, 16>(dst, sh, terms, nterms, c);
  }
#endif
  detail::tile_rows<Step, int(sizeof(T))>(dst, sh, terms, nterms, c);
}

}  // namespace fmmfft::simd
