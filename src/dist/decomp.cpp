#include "dist/decomp.hpp"

#include "model/arch.hpp"
#include "model/counts.hpp"
#include "obs/env.hpp"
#include "obs/obs.hpp"

namespace fmmfft::dist {
namespace {

/// Layer in the env knobs: an explicit constructor argument wins, otherwise
/// FMMFFT_DECOMP / FMMFFT_GRID, otherwise Auto / unspecified.
model::Decomp env_decomp(model::Decomp requested) {
  if (requested != model::Decomp::Auto) return requested;
  const char* v = obs::env::get("FMMFFT_DECOMP");
  return v && *v ? model::parse_decomp(v) : model::Decomp::Auto;
}

model::GridShape env_grid(model::GridShape requested) {
  if (requested.specified()) return requested;
  const char* v = obs::env::get("FMMFFT_GRID");
  return v && *v ? model::parse_grid(v) : model::GridShape{};
}

}  // namespace

DecompChoice resolve_decomp_3d(int g, index_t n0, index_t n1, index_t n2,
                               model::Decomp requested, model::GridShape requested_grid) {
  // The canonical modeling system for autotuned decisions (the simulator's
  // default P100/NVLink fabric). The decision only depends on relative
  // slab-vs-pencil exchange shape, not absolute wall times.
  const model::Workload w{n0 * n1 * n2, /*is_complex=*/true, /*is_double=*/true};
  const model::DecompDecision decision =
      model::choose_decomp(env_decomp(requested), env_grid(requested_grid), n0, n1, n2, g, w,
                           model::p100_nvlink(g));
  DecompChoice out;
  out.decision = decision;
  out.decomp = decision.chosen;
  if (decision.chosen == model::Decomp::Pencil)
    out.grid = ProcGrid{decision.grid.pr, decision.grid.pc};
  if (decision.model_decided && obs::metrics_enabled()) {
    auto& m = obs::Metrics::global();
    m.gauge("decomp.auto.pencil").set(decision.chosen == model::Decomp::Pencil ? 1.0 : 0.0);
    m.gauge("decomp.auto.pr").set(double(decision.grid.pr));
    m.gauge("decomp.auto.pc").set(double(decision.grid.pc));
    m.gauge("decomp.auto.slab_seconds").set(decision.slab_seconds);
    m.gauge("decomp.auto.pencil_seconds").set(decision.pencil_seconds);
  }
  return out;
}

}  // namespace fmmfft::dist
