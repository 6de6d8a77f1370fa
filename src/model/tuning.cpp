#include "model/tuning.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "common/error.hpp"

namespace fmmfft::model {

const char* to_string(Decomp d) {
  switch (d) {
    case Decomp::Auto: return "auto";
    case Decomp::Slab: return "slab";
    case Decomp::Pencil: return "pencil";
  }
  return "?";
}

Decomp parse_decomp(const std::string& text) {
  if (text == "auto") return Decomp::Auto;
  if (text == "slab") return Decomp::Slab;
  if (text == "pencil") return Decomp::Pencil;
  throw Error("unknown decomposition '" + text + "' (want auto|slab|pencil)");
}

GridShape parse_grid(const std::string& text) {
  const auto x = text.find_first_of("xX");
  GridShape grid;
  if (x != std::string::npos) {
    std::istringstream rs(text.substr(0, x)), cs(text.substr(x + 1));
    rs >> grid.pr;
    cs >> grid.pc;
    if (rs.fail() || cs.fail() || !rs.eof() || !cs.eof()) grid = {};
  }
  FMMFFT_CHECK_MSG(grid.pr > 0 && grid.pc > 0,
                   "malformed processor grid '" << text << "' (want PRxPC, e.g. 2x4)");
  return grid;
}

bool slab_feasible_3d(index_t n0, index_t n1, index_t n2, int g) {
  return g >= 1 && n2 % g == 0 && (n0 * n1) % g == 0;
}

bool pencil_feasible_3d(index_t n0, index_t n1, index_t n2, const GridShape& grid) {
  if (!grid.specified()) return false;
  // x-pencils need pc|n1 and pr|n2, y-pencils pc|n0, z-pencils pr|n1.
  return n1 % grid.pc == 0 && n2 % grid.pr == 0 && n0 % grid.pc == 0 && n1 % grid.pr == 0;
}

GridShape default_grid3d(int g, index_t n0, index_t n1, index_t n2) {
  if (g < 1) return {};
  // Squarest feasible factorization first (both sub-communicators near √G),
  // preferring pr ≤ pc at equal aspect, then progressively flatter grids.
  std::vector<GridShape> candidates;
  for (int pr = 1; pr <= g; ++pr)
    if (g % pr == 0) candidates.push_back({pr, g / pr});
  std::stable_sort(candidates.begin(), candidates.end(), [](GridShape a, GridShape b) {
    const int da = std::abs(a.pr - a.pc), db = std::abs(b.pr - b.pc);
    if (da != db) return da < db;
    return a.pr < b.pr;
  });
  for (const GridShape& grid : candidates)
    if (pencil_feasible_3d(n0, n1, n2, grid)) return grid;
  return {};
}

namespace {

DecompDecision decide(Decomp requested, DecompDecision d) {
  switch (requested) {
    case Decomp::Slab:
      FMMFFT_CHECK_MSG(d.slab_feasible, "FMMFFT_DECOMP=slab requested but the slab layout "
                                        "does not divide this transform across the devices");
      d.chosen = Decomp::Slab;
      return d;
    case Decomp::Pencil:
      FMMFFT_CHECK_MSG(d.pencil_feasible,
                       "FMMFFT_DECOMP=pencil requested but no processor grid divides this "
                       "transform (pass --grid/FMMFFT_GRID with divisible factors)");
      d.chosen = Decomp::Pencil;
      return d;
    case Decomp::Auto:
      FMMFFT_CHECK_MSG(d.slab_feasible || d.pencil_feasible,
                       "neither slab nor pencil decomposition divides this transform");
      d.model_decided = true;
      // Ties go to slab: the one-phase exchange moves half the bytes.
      d.chosen = !d.slab_feasible ? Decomp::Pencil
                 : !d.pencil_feasible
                     ? Decomp::Slab
                     : (d.pencil_seconds < d.slab_seconds ? Decomp::Pencil : Decomp::Slab);
      return d;
  }
  throw Error("unreachable decomposition request");
}

GridShape resolve_grid(GridShape requested_grid, int g, GridShape fallback) {
  if (!requested_grid.specified()) return fallback;
  FMMFFT_CHECK_MSG(requested_grid.devices() == g,
                   "processor grid " << requested_grid.pr << "x" << requested_grid.pc
                                     << " does not match the device count " << g);
  return requested_grid;
}

}  // namespace

DecompDecision choose_decomp(Decomp requested, GridShape requested_grid, index_t n0,
                             index_t n1, index_t n2, int g, const Workload& w,
                             const ArchParams& arch) {
  ArchParams a = arch;
  a.num_devices = g;
  DecompDecision d;
  d.slab_feasible = slab_feasible_3d(n0, n1, n2, g);
  d.grid = resolve_grid(requested_grid, g, default_grid3d(g, n0, n1, n2));
  d.pencil_feasible = pencil_feasible_3d(n0, n1, n2, d.grid);
  if (d.slab_feasible) d.slab_seconds = fft3d_slab_seconds(n0, n1, n2, w, a, true);
  if (d.pencil_feasible)
    d.pencil_seconds = fft3d_pencil_seconds(n0, n1, n2, d.grid.pr, d.grid.pc, w, a, true);
  return decide(requested, d);
}

}  // namespace fmmfft::model
