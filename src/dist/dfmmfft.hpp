// Distributed FMM-FFT (Algorithm 1 across G simulated devices).
//
// Each device runs one fmm::Engine on its slab of leaf boxes; the halo
// exchanges (COMM S, COMM Mℓ), the base-level allgather (COMM M_B) and the
// 2D FFT's single all-to-all go through the fabric ledger. Numerical
// results are exact (identical to the single-node pipeline up to floating
// point associativity); timing comes from the schedule in
// dist/schedules.hpp simulated under an architecture model.
#pragma once

#include <complex>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/types.hpp"
#include "core/fmmfft.hpp"
#include "dist/dfft.hpp"
#include "fmm/engine.hpp"
#include "fmm/params.hpp"
#include "fmm/precision.hpp"
#include "sim/fabric.hpp"

namespace fmmfft::dist {

template <typename InT>
class DistFmmFft {
 public:
  using Real = real_of_t<InT>;
  using Out = std::complex<Real>;

  /// `prec` as in core::FmmFft: Mixed runs every engine (and with it the
  /// COMM-S/COMM-Mℓ/COMM-MB payloads) in fp32 under an fp64 shell; the 2D
  /// FFT, its all-to-all and the output stay at the shell width.
  DistFmmFft(const fmm::Params& prm, int g,
             fmm::Precision prec = fmm::default_precision());

  const fmm::Params& params() const { return prm_; }
  int num_devices() const { return g_; }
  fmm::Precision precision() const { return prec_; }

  /// Host-staged execute: out = F_N · in, both length N. Driver choice via
  /// exec::resolve_mode on the per-device slab size (N/G): explicit
  /// Serial/Async (FMMFFT_EXEC or exec::ScopedMode) pass through, Auto —
  /// the default — picks Serial below the work floor where the graph's
  /// overhead outweighs overlap. Both paths produce bit-identical output
  /// at any worker count.
  void execute(const InT* in, Out* out);

  const sim::Fabric& fabric() const { return fabric_; }
  sim::Fabric& fabric() { return fabric_; }

  /// The 2D-FFT stage driver (to inspect its slab/pencil decomposition).
  const Dist2dFft<Real>& fft2d() const { return fft2d_; }

  /// Stats of device `r`'s engine for the most recent execute().
  const std::vector<fmm::StageStats>& engine_stats(int r) const {
    return engines32_.empty() ? engines_[(std::size_t)r]->stats()
                              : engines32_[(std::size_t)r]->stats();
  }

 private:
  // The whole FMM side is templated on the engine real ER: Real for the
  // plain pipeline, float for Mixed-under-fp64. The shell (slabs, 2D FFT,
  // output) is always Real.
  template <typename ER>
  std::vector<std::unique_ptr<fmm::Engine<ER>>>& eset() {
    if constexpr (std::is_same_v<ER, Real>)
      return engines_;
    else
      return engines32_;
  }
  template <typename ER>
  void execute_serial_t(const InT* in, Out* out);
  template <typename ER>
  void execute_async_t(const InT* in, Out* out);
  /// POST for device r (§4.9 line 15): one pass from the engine's T tensor
  /// into the 2D-FFT slab, widening to the shell precision on load.
  template <typename ER>
  void post_slab_t(int r);

  fmm::Params prm_;
  int g_;
  int c_;
  fmm::Precision prec_;
  sim::Fabric fabric_;
  std::vector<std::unique_ptr<fmm::Engine<Real>>> engines_;
  std::vector<std::unique_ptr<fmm::Engine<float>>> engines32_;  // Mixed only
  Dist2dFft<Real> fft2d_;
  std::vector<Buffer<Out>> slabs_;  // post-processed data fed to the 2D FFT
  std::vector<Out> rho_;
};

}  // namespace fmmfft::dist
