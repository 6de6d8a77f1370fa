// Distributed n0×n1×n2 3D FFT over the simulated fabric, in either of two
// decompositions (ROADMAP item 2):
//
//  * Slab — 1D partition over the slowest axis i2. Three batched FFT
//    phases with a local per-plane reorientation and ONE G-wide all-to-all
//    (the §5 one-phase transpose, tag A2A-3D). Stops scaling at G > n2.
//  * Pencil — pr×pc processor grid (AccFFT / Dalcin). Device (i, j) first
//    holds x-pencils (all i0), exchanges within its pc-member grid *row*
//    into y-pencils (all i1, tag A2A-ROW), then within its pr-member grid
//    *column* into z-pencils (all i2, tag A2A-COL). Each phase's payload
//    per device is N/√G-ish (N/(G·pc) + N/(G·pr) elements) instead of the
//    slab's N/G · (G-1)/G in one shot, and scales to G up to n·/pc · n·/pr.
//
// The decomposition is chosen per instance: constructor argument, else
// FMMFFT_DECOMP/FMMFFT_GRID, else the model::choose_decomp cost model.
// Both paths run the same per-line FFT plans over the same line values, so
// their outputs are bit-identical to each other, in either exec mode, and
// to a G=1 run (the tests' memcmp oracle).
//
// One task graph runs from input to output: per-device tasks load the
// natural-order input (i0 fastest) into slabs or x-pencils, and the last
// exchange scatters straight into the output, in the fully reversed order
// out[i2 + n2·(i1 + n1·i0)] — the layout all decompositions share without
// a fourth exchange — where the last FFT pass runs.
#pragma once

#include <complex>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "dist/decomp.hpp"
#include "dist/procgrid.hpp"
#include "exec/executor.hpp"
#include "fft/fft.hpp"
#include "sim/fabric.hpp"

namespace fmmfft::dist {

template <typename T>
class Dist3dFft {
 public:
  /// Requires pow-2 extents. `decomp`/`grid` default to the environment /
  /// cost-model resolution (dist::resolve_decomp_3d).
  Dist3dFft(index_t n0, index_t n1, index_t n2, int g,
            model::Decomp decomp = model::Decomp::Auto, model::GridShape grid = {});

  /// in: natural order x[i0 + n0·(i1 + n1·i2)]; out: reversed order
  /// y[i2 + n2·(i1 + n1·i0)] (in == out allowed). Builds the layout's task
  /// graph (submit_slab or submit_pencil) and runs it in the exec mode in
  /// effect.
  void execute(const std::complex<T>* in, std::complex<T>* out);

  index_t n0() const { return n0_; }
  index_t n1() const { return n1_; }
  index_t n2() const { return n2_; }
  model::Decomp decomp() const { return decomp_; }
  const ProcGrid& grid() const { return grid_; }
  const model::DecompDecision& decision() const { return decision_; }
  const sim::Fabric& fabric() const { return fabric_; }
  sim::Fabric& fabric() { return fabric_; }

 private:
  /// Task graphs from `in` to `out`, mirroring Dist2dFft::submit: per-device
  /// compute lanes run the loads, FFT chunks and fused pack scatters,
  /// per-link copy lanes carry the fabric accounting, and exchange chunks
  /// overlap neighbouring FFT chunks.
  void submit_slab(exec::TaskGraph& graph, const exec::DeviceLanes& lanes,
                   const std::complex<T>* in, std::complex<T>* out);
  void submit_pencil(exec::TaskGraph& graph, const exec::DeviceLanes& lanes,
                     const std::complex<T>* in, std::complex<T>* out);

  index_t n0_, n1_, n2_;
  int g_;
  model::Decomp decomp_ = model::Decomp::Slab;
  ProcGrid grid_;
  model::DecompDecision decision_;
  sim::Fabric fabric_;
  fft::Plan1D<T> plan0_, plan1_, plan2_;
  // Pencils/slabs of N/G elements per device: A holds the loaded input
  // orientation, B the middle one; the last exchange writes the output.
  std::vector<Buffer<std::complex<T>>> buf_a_, buf_b_;
};

}  // namespace fmmfft::dist
