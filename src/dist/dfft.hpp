// Distributed FFTs over the simulated multi-device fabric.
//
//  * DistFft1d — the industry-standard baseline the paper measures against
//    (the cuFFTXT stand-in): radix-P split with THREE all-to-all
//    transposes (§3):
//      Π_{M,P} · (I_M⊗F_P) · Π_{P,M} · T_{P,M} · (I_P⊗F_M) · Π_{M,P}
//  * Dist2dFft — the M×P 2D FFT used as the second stage of the FMM-FFT
//    (and as Fig. 3's "2D cuFFTXT" budget bar): ONE all-to-all.
//
// Data is host-staged: execute() takes the full input/output arrays and
// scatters/gathers to per-device slabs internally; slab residency and all
// inter-device traffic go through the fabric ledger.
#pragma once

#include <complex>
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "dist/decomp.hpp"
#include "dist/procgrid.hpp"
#include "exec/executor.hpp"
#include "fft/fft.hpp"
#include "sim/fabric.hpp"

namespace fmmfft::dist {

/// Baseline in-order distributed 1D FFT with three all-to-all transposes.
template <typename T>
class DistFft1d {
 public:
  /// n must be a power of two; factors are chosen balanced (M ≈ P ≈ √N).
  /// g devices must divide both factors.
  DistFft1d(index_t n, int g);

  index_t size() const { return n_; }
  index_t factor_m() const { return m_; }
  index_t factor_p() const { return p_; }

  void execute(const std::complex<T>* in, std::complex<T>* out);

  const sim::Fabric& fabric() const { return fabric_; }
  sim::Fabric& fabric() { return fabric_; }

 private:
  index_t n_, m_, p_;
  int g_;
  sim::Fabric fabric_;
  fft::Plan1D<T> plan_m_, plan_p_;
  std::vector<Buffer<std::complex<T>>> slab_a_, slab_b_;
  Buffer<std::complex<T>> twiddle_;  // per-slab twiddle factors, slab-major
};

/// Distributed M×P 2D FFT in the FMM-FFT's p-major layout: input element
/// (p, m) at position p + m·P, block partitioned over m; output in order.
///
/// The single Π_{M,P} exchange runs in either decomposition: slab (the
/// one-phase G-wide all-to-all, tag A2A-2D) or pencil (the factorized
/// two-phase form over a pr×pc grid — row phase A2A-ROW, column phase
/// A2A-COL — each confined to a √G-ish sub-communicator). Both move the
/// same element values with pure copies, so results are bit-identical.
template <typename T>
class Dist2dFft {
 public:
  /// `decomp`/`grid` default to the environment / cost-model resolution
  /// (dist::resolve_decomp_2d: ctor argument > FMMFFT_DECOMP > model).
  Dist2dFft(index_t m, index_t p, int g, model::Decomp decomp = model::Decomp::Auto,
            model::GridShape grid = {});

  void execute(const std::complex<T>* in, std::complex<T>* out);

  /// In-place variant over externally owned per-device slabs of N/G
  /// elements (used by the distributed FMM-FFT to avoid staging). Driver
  /// choice via exec::resolve_mode on the per-device slab size: explicit
  /// Serial/Async pass through, Auto (the default) applies the work floor.
  void execute_slabs(const std::vector<std::complex<T>*>& slabs, sim::Fabric& fabric);

  /// Async building block: submit the whole 2D FFT as tasks on `graph` —
  /// per-device row-FFT chunks, the single all-to-all as per-(pair, chunk)
  /// fused scatter (pack) + link accounting (copy) tasks — in pencil mode
  /// its row phase, a per-device join and its column phase — then
  /// column-FFT chunks and the slab write-back, so copies overlap
  /// neighbouring FFT chunks as dist::dist2dfft_schedule models.
  /// `ready[r]` (optional) gates device r's first task; returns the
  /// per-device terminal task (slab writes complete when it finishes).
  std::vector<exec::TaskId> submit_slabs(exec::TaskGraph& graph,
                                         const exec::DeviceLanes& lanes,
                                         const std::vector<std::complex<T>*>& slabs,
                                         sim::Fabric& fabric,
                                         const std::vector<exec::TaskId>& ready = {});

  const sim::Fabric& fabric() const { return fabric_; }
  model::Decomp decomp() const { return decomp_; }
  const ProcGrid& grid() const { return grid_; }
  const model::DecompDecision& decision() const { return decision_; }

 private:
  void execute_slabs_serial(const std::vector<std::complex<T>*>& slabs, sim::Fabric& fabric);

  index_t m_, p_;
  int g_;
  model::Decomp decomp_ = model::Decomp::Slab;
  ProcGrid grid_;
  model::DecompDecision decision_;
  sim::Fabric fabric_;
  fft::Plan1D<T> plan_m_, plan_p_;
  std::vector<Buffer<std::complex<T>>> scratch_;
  std::vector<Buffer<std::complex<T>>> work_;  ///< pencil intermediate (N/G each)
};

}  // namespace fmmfft::dist
