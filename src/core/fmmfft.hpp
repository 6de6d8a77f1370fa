// Single-address-space FMM-FFT (Algorithm 1): the paper's primary
// contribution, composed from the FMM engine and the FFT substrate.
//
//   F_N x = F_{M,P} · Ĥ_{M,P} x
//
// Ĥ is the P-1 interleaved periodic FMMs evaluated by fmm::Engine; F_{M,P}
// is the M×P 2D FFT evaluated as M size-P FFTs, the Π_{M,P} permutation,
// and P size-M FFTs. The post-processing T ← ρ_p(T + i·r_p) is fused into
// the load that feeds the 2D FFT (the paper fuses it into the cuFFTXT
// load callback); an unfused path exists for the ablation benchmark.
#pragma once

#include <complex>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "fft/fft.hpp"
#include "fmm/engine.hpp"
#include "fmm/params.hpp"
#include "fmm/precision.hpp"

namespace fmmfft::core {

/// Aggregated per-stage timing/ops of one execution, for the component
/// benches (Figs. 2, 4, 5, 6).
struct ExecutionProfile {
  std::vector<fmm::StageStats> fmm_stages;  ///< per kernel launch, in order
  double post_seconds = 0;
  double fft_seconds = 0;
  double total_seconds = 0;
  double fmm_seconds() const {
    double s = 0;
    for (const auto& st : fmm_stages) s += st.seconds;
    return s;
  }
  double fmm_flops() const {
    double s = 0;
    for (const auto& st : fmm_stages) s += st.flops;
    return s;
  }
  index_t kernel_launches() const {
    index_t s = 0;
    for (const auto& st : fmm_stages)
      if (st.kernel != fmm::KernelClass::Copy) s += st.launches;
    return s;
  }
};

/// In-order 1D FFT of size N via the FMM-FFT factorization. InT is the
/// input scalar: float/double (the paper's C = 1) or complex of either
/// (C = 2). Output is always complex.
template <typename InT>
class FmmFft {
 public:
  using Real = real_of_t<InT>;
  using Out = std::complex<Real>;

  /// `prec` selects the FMM translation width (fmm/precision.hpp): Fp64
  /// runs the engine in the shell precision (the pre-existing pipeline,
  /// bit for bit); Mixed runs it in fp32 under an fp64 shell, converting
  /// at the load and POST boundaries only. Under an fp32 shell Mixed
  /// collapses to the native fp32 pipeline. Defaults to FMMFFT_PRECISION.
  explicit FmmFft(const fmm::Params& prm, bool fuse_post = true,
                  fmm::Precision prec = fmm::default_precision());
  ~FmmFft();
  FmmFft(FmmFft&&) noexcept;
  FmmFft& operator=(FmmFft&&) noexcept;

  const fmm::Params& params() const;
  /// The precision policy this plan was built with.
  fmm::Precision precision() const;

  /// Compute output = F_N · input. Both length N; `input` may alias
  /// `output`: LOAD reads all of it before anything writes `output`.
  void execute(const InT* input, Out* output);

  /// Profile of the most recent execute().
  const ExecutionProfile& profile() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fmmfft::core
