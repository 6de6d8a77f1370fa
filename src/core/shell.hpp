// The FMM-FFT's shell around the FMM engine, written once for the
// single-node (core::FmmFft) and distributed (dist::DistFmmFft) drivers:
// the ρ_p table, LOAD of an input slab into an engine's S tensor, and POST,
// the post-processing pass that feeds the 2D FFT (§4.9 line 15).
#pragma once

#include <complex>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/threadpool.hpp"
#include "common/types.hpp"
#include "fmm/engine.hpp"
#include "fmm/operators.hpp"
#include "fmm/params.hpp"

namespace fmmfft::core {

/// ρ_p at index p for p = 1..P-1, rounded to the shell precision Real.
/// Index 0 is unused: C_0 = I is not scaled.
template <typename Real>
std::vector<std::complex<Real>> rho_table(const fmm::Params& prm) {
  std::vector<std::complex<Real>> rho(static_cast<std::size_t>(prm.p));
  for (index_t p = 1; p < prm.p; ++p) {
    const auto r = fmm::rho(p, prm.p, prm.m());
    rho[(std::size_t)p] = std::complex<Real>(Real(r.real()), Real(r.imag()));
  }
  return rho;
}

/// LOAD `n` input elements into the engine's interior S tensor. The
/// natural-order input is exactly the p-major S tensor (n = p + P·(m +
/// M_L·b)); flattened complex components interleave as pc = c + C·p. A
/// same-width engine takes a raw memcpy, a narrower one an elementwise
/// demote.
template <typename InT, typename ER>
void load_source(fmm::Engine<ER>& engine, const InT* in, index_t n) {
  using Real = real_of_t<InT>;
  if constexpr (std::is_same_v<ER, Real>) {
    std::memcpy(engine.source_box(0), in, sizeof(InT) * static_cast<std::size_t>(n));
  } else {
    const Real* src = reinterpret_cast<const Real*>(in);
    ER* dst = engine.source_box(0);
    parallel_for(
        index_t(components_v<InT>) * n,
        [&](index_t lo, index_t hi) {
          for (index_t i = lo; i < hi; ++i) dst[i] = ER(src[i]);
        },
        /*grain=*/4096);
  }
}

/// POST over `rows` rows of P elements: element i = p + P·mg of the FMM
/// output T becomes out[i] = T for p = 0 (C_0 = I) and ρ_p·(T + i·r_p)
/// otherwise, r being the engine's reduction. T and r are read at the engine
/// width ER and widened scalar by scalar, so the ρ multiply runs at the
/// shell width. Rows are independent elementwise work, so the parallel_for
/// split is bit-identical to the serial sweep (and it degrades to the plain
/// loop inside an executor task).
template <typename InT, typename ER>
void post_rows(const ER* t, const ER* r, const std::vector<std::complex<real_of_t<InT>>>& rho,
               index_t p_total, index_t rows, std::complex<real_of_t<InT>>* out) {
  using Real = real_of_t<InT>;
  using Out = std::complex<Real>;
  parallel_for(
      rows,
      [&](index_t mg_lo, index_t mg_hi) {
        for (index_t mg = mg_lo; mg < mg_hi; ++mg) {
          const index_t row = p_total * mg;
          if constexpr (components_v<InT> == 2) {
            out[row] = Out(Real(t[2 * row]), Real(t[2 * row + 1]));
            for (index_t p = 1; p < p_total; ++p) {
              const Out v{Real(t[2 * (row + p)]), Real(t[2 * (row + p) + 1])};
              const Out rp{Real(r[2 * (p - 1)]), Real(r[2 * (p - 1) + 1])};
              out[row + p] = rho[(std::size_t)p] * (v + Out(0, 1) * rp);
            }
          } else {
            out[row] = Out(Real(t[row]), 0);
            for (index_t p = 1; p < p_total; ++p)  // v + i·r_p
              out[row + p] = rho[(std::size_t)p] * Out(Real(t[row + p]), Real(r[p - 1]));
          }
        }
      },
      /*grain=*/16);
}

}  // namespace fmmfft::core
