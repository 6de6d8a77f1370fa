// Reference implementations the tests hold the fast kernels to: the
// pre-fusion blocked transpose and the staged pack/copy/unpack all-to-all.
// Each is the simple data path its fused counterpart in src/ replaced, so
// bit-identity against it checks the layout, not the arithmetic.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "obs/traffic.hpp"
#include "sim/fabric.hpp"

namespace fmmfft {

/// Reference blocked transpose: simple 32×32 blocking with a strided write
/// stream. The equivalence oracle for the cache-oblivious transpose_blocked.
template <typename T>
void transpose_blocked_ref(const T* x, T* y, index_t rows, index_t cols) {
  FMMFFT_CHECK(x != y);
  FMMFFT_TRAFFIC_RW("transpose", double(rows) * double(cols) * sizeof(T),
                    double(rows) * double(cols) * sizeof(T), 0);
  constexpr index_t kB = 32;
  for (index_t j0 = 0; j0 < cols; j0 += kB) {
    const index_t j1 = std::min(j0 + kB, cols);
    for (index_t i0 = 0; i0 < rows; i0 += kB) {
      const index_t i1 = std::min(i0 + kB, rows);
      for (index_t j = j0; j < j1; ++j)
        for (index_t i = i0; i < i1; ++i) y[j + i * cols] = x[i + j * rows];
    }
  }
}

namespace dist {

/// Staged reference all-to-all: pack into a send buffer, fabric copy,
/// unpack. The bit-identity oracle for the fused Π_{M,P} exchange. Staging
/// lives in the calling thread's ScratchArena, so steady-state calls
/// allocate nothing.
template <typename T>
void all_to_all_permute_mp_staged(sim::Fabric& fabric, const std::vector<T*>& in,
                                  const std::vector<T*>& out, index_t m, index_t p,
                                  const std::string& tag) {
  const int g = fabric.num_devices();
  FMMFFT_CHECK((index_t)in.size() == g && (index_t)out.size() == g);
  FMMFFT_CHECK(m % g == 0 && p % g == 0);
  const index_t mg = m / g, pg = p / g;
  ScratchBlock<T> stage_src(mg * pg), stage_dst(mg * pg);
  for (int r = 0; r < g; ++r) {        // sender: owns m-range [r*mg, ...)
    for (int rr = 0; rr < g; ++rr) {   // receiver: owns p-range [rr*pg, ...)
      // Pack elements (p, m) with p in rr's range from r's input slab.
      // Input slab local index of global n = p + m*P is n - r*mg*p_total.
      index_t k = 0;
      FMMFFT_TRAFFIC_RW("a2a.pack", double(mg) * double(pg) * sizeof(T),
                        double(mg) * double(pg) * sizeof(T), 0);
      for (index_t pm = 0; pm < mg; ++pm)       // local m offset
        for (index_t pp = 0; pp < pg; ++pp)     // local p offset
          stage_src[k++] = in[(std::size_t)r][(rr * pg + pp) + pm * p];
      fabric.send(r, rr, stage_src.data(), stage_dst.data(), mg * pg, tag);
      // Unpack into rr's output slab: local index of j = m + p*M is
      // j - rr*pg*m_total.
      k = 0;
      FMMFFT_TRAFFIC_RW("a2a.unpack", double(mg) * double(pg) * sizeof(T),
                        double(mg) * double(pg) * sizeof(T), 0);
      for (index_t pm = 0; pm < mg; ++pm)
        for (index_t pp = 0; pp < pg; ++pp)
          out[(std::size_t)rr][(r * mg + pm) + pp * m] = stage_dst[k++];
    }
  }
}

}  // namespace dist
}  // namespace fmmfft
