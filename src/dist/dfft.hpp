// Distributed FFTs over the simulated multi-device fabric.
//
//  * DistFft1d — the industry-standard baseline the paper measures against
//    (the cuFFTXT stand-in): radix-P split with THREE all-to-all
//    transposes (§3):
//      Π_{M,P} · (I_M⊗F_P) · Π_{P,M} · T_{P,M} · (I_P⊗F_M) · Π_{M,P}
//  * Dist2dFft — the M×P 2D FFT used as the second stage of the FMM-FFT
//    (and as Fig. 3's "2D cuFFTXT" budget bar): ONE all-to-all.
//
// execute() takes the full input/output arrays and runs one task graph
// from input to output. DistFft1d's first exchange reads the caller's input
// slabs; Dist2dFft's per-device load tasks fill the input slabs it owns
// (the distributed FMM-FFT's POST fills them instead, in its own graph).
// The last exchange scatters straight into the caller's output and any FFT
// pass after it runs there. Writes into `out` wait on every task that
// reads the slab of `in` they overwrite, so in == out is safe. All
// inter-device traffic goes through the fabric ledger.
#pragma once

#include <complex>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
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

  /// out = F_N · in (in == out allowed). Builds the three-exchange task
  /// graph and runs it in the exec mode in effect; both modes produce
  /// bit-identical output at any worker count.
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
/// Its one Π_{M,P} exchange is the one-phase G-wide all-to-all (tag
/// A2A-2D); FMMFFT_DECOMP/FMMFFT_GRID govern only Dist3dFft.
template <typename T>
class Dist2dFft {
 public:
  /// G devices must divide both dimensions.
  Dist2dFft(index_t m, index_t p, int g);

  /// out = the 2D FFT of in (in == out allowed): per-device load tasks
  /// fill the input slabs, then the submit graph runs in the exec mode in
  /// effect.
  void execute(const std::complex<T>* in, std::complex<T>* out);

  /// Device r's input slab of N/G elements, which the 2D FFT owns.
  std::complex<T>* slab(int r) { return slabs_[(std::size_t)r].data(); }

  /// Submit the whole 2D FFT as tasks on `graph`: per-device row-FFT
  /// chunks in the input slabs, device r's gated on `filled[r]`; the single
  /// all-to-all as per-(pair, chunk) fused scatter (pack) + link accounting
  /// (copy) tasks into `out`'s slabs, each message also gated on
  /// `out_free[dst]`; a per-device join, then column-FFT chunks in `out`.
  /// Copies overlap neighbouring FFT chunks as dist::dist2dfft_schedule
  /// models. A graph that drains on one thread gets one chunk per phase and
  /// device and one task for the exchange. `out` holds the result once the
  /// graph has run.
  void submit(exec::TaskGraph& graph, const exec::DeviceLanes& lanes, std::complex<T>* out,
              sim::Fabric& fabric, const std::vector<exec::TaskId>& filled,
              const std::vector<exec::TaskId>& out_free);

  const sim::Fabric& fabric() const { return fabric_; }

 private:
  index_t m_, p_;
  int g_;
  sim::Fabric fabric_;
  fft::Plan1D<T> plan_m_, plan_p_;
  std::vector<Buffer<std::complex<T>>> slabs_;
};

}  // namespace fmmfft::dist
