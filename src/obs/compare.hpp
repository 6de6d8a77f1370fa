// Model-vs-measured cross-validation: diff the counters accumulated by the
// obs hooks during real host execution against the §5 predictions in
// src/model/counts.*. Observability that doubles as a continuous check of
// the operation-count model the paper's whole argument (and this repo's
// timing substitution) rests on.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "fmm/params.hpp"

namespace fmmfft::obs {

/// One measured-vs-predicted comparison.
struct ModelCheck {
  std::string name;
  double measured = 0;
  double predicted = 0;
  double tolerance = 0;  ///< max acceptable relative deviation

  /// |measured - predicted| / max(|predicted|, 1): relative where the
  /// prediction is meaningful, absolute near zero.
  double rel_dev() const;
  bool ok() const { return rel_dev() <= tolerance; }
};

struct ModelReport {
  std::vector<ModelCheck> checks;
  bool all_ok() const;
  /// Fixed-width human-readable table.
  std::string to_string() const;
  /// {"all_ok": ..., "checks": [{name, measured, predicted, rel_dev,
  ///  tolerance, ok}, ...]}
  void write_json(std::ostream& os) const;
};

/// Compare Metrics::global() against the model for `runs` executions of an
/// FMM-FFT with parameters `prm` on `g` devices (`components` = C,
/// `real_bytes` = sizeof the working real scalar). Call after the runs, on
/// metrics collected with obs::enable_metrics() on and no other transforms
/// in between (obs::reset() gives a clean slate).
///
/// `trans_bytes` is the byte width of the FMM translation pipeline's real
/// scalar when it differs from the shell's (mixed precision: 4 under an
/// 8-byte shell). 0 — the default — means "same as real_bytes". The FMM
/// stage bytes and the COMM-* halo payloads are predicted at trans_bytes;
/// the A2A payload, FFT and POST volumes at real_bytes. The per-precision
/// ".f32" key suffixes the hooks emit are prefix-summed transparently.
///
/// Checked, each against an exact accounting (tolerance ~1e-9, pure
/// floating-point summation noise):
///  * fmm.flops / fmm.mem_bytes / fmm.launches vs model::exact_fmm_counts
///  * fft.flops vs the 5·N·log2(N) total of the 2D-FFT stage
///  * fabric COMM-* bytes vs model::exact_fmm_comm
///  * fabric A2A-2D bytes vs the single-transpose payload
/// Plus the paper's §5.2 closed form vs the same fabric bytes at the
/// documented loose tolerance (the p = 0 slice and local-slab conventions
/// differ; see model::exact_fmm_comm).
ModelReport compare_with_model(const fmm::Params& prm, int components, index_t g,
                               double real_bytes, int runs = 1, double trans_bytes = 0);

/// Compare TrafficLedger::global() against the §5 model for `runs`
/// distributed FMM-FFT executions (any G >= 1, serial or async executor —
/// the ledger records algorithmic traffic, so the totals are identical).
/// Requires traffic collected with obs::enable_traffic() on and a clean
/// ledger (obs::reset()). `trans_bytes` as in compare_with_model.
/// All checks are exact (~1e-9):
///  * comm.A2A-2D payload vs the (G-1)/G·N single-transpose volume
///  * comm.COMM-S / COMM-M* / COMM-MB vs model::exact_fmm_comm
///  * fmm.* bytes (read+written) and flops vs model::exact_fmm_counts
///  * fft bytes vs the Stockham pass count of the 2D stage (pow2 P, M)
///  * post bytes vs the single-sweep volume: the C-component T tensor read
///    at the translation width plus the complex FFT input written at the
///    shell width
ModelReport compare_traffic_with_model(const fmm::Params& prm, int components, index_t g,
                                       double real_bytes, int runs = 1,
                                       double trans_bytes = 0);

/// Traffic cross-validation for `runs` executions of a distributed
/// n0×n1×n2 3D FFT (dist::Dist3dFft) on g devices. `pr` = 0 checks the
/// slab path (comm.A2A-3D payload exact at (G-1)/G·N elements, plus the
/// local reorientation's transpose bytes at 2·N); pr > 0 checks the
/// pr×pc pencil path (comm.A2A-ROW/COL at (pc-1)/pc·N and (pr-1)/pr·N,
/// plus the a2a.row.*/a2a.col.* pack+unpack ledger bytes at 2·N each —
/// every element read once and written once per phase). Both variants
/// check the three FFT phases' Stockham pass bytes (pow2 extents). All
/// exact to ~1e-9.
ModelReport compare_fft3d_traffic(index_t n0, index_t n1, index_t n2, index_t g,
                                  double real_bytes, int runs = 1, int pr = 0, int pc = 0);

}  // namespace fmmfft::obs
