// Slab-vs-pencil decomposition autotuning for the distributed 3D FFT. It
// consults `choose_decomp` when the caller (or FMMFFT_DECOMP) says `auto`:
// the §5 model prices the slab transform, with its one G-wide exchange,
// against the pencil transform, with its two row/column sub-communicator
// exchanges, and the cheaper one wins. The 2D FFT always runs the one-phase
// slab exchange.
#pragma once

#include <string>

#include "common/types.hpp"
#include "model/arch.hpp"
#include "model/counts.hpp"

namespace fmmfft::model {

/// How a distributed 3D transform splits its data across G devices.
enum class Decomp {
  Auto,    ///< let the cost model decide (FMMFFT_DECOMP=auto)
  Slab,    ///< 1D device partition, one G-wide all-to-all
  Pencil,  ///< pr×pc device grid, row + column sub-communicator all-to-alls
};

const char* to_string(Decomp d);
/// Parse "auto" | "slab" | "pencil" (the FMMFFT_DECOMP values). Throws on
/// anything else.
Decomp parse_decomp(const std::string& text);

/// A pr×pc processor grid (G = pr·pc). {0, 0} means "unspecified".
struct GridShape {
  int pr = 0;
  int pc = 0;
  int devices() const { return pr * pc; }
  bool specified() const { return pr > 0 && pc > 0; }
  auto operator<=>(const GridShape&) const = default;
};

/// Parse "PRxPC" (e.g. "2x4") as used by FMMFFT_GRID / --grid. Throws on
/// malformed input or non-positive factors.
GridShape parse_grid(const std::string& text);

/// The most square factorization pr·pc = g feasible for an n0×n1×n2
/// transform (pencil phases want both sub-communicators near √G; falls back
/// over squarer→flatter factorizations, pr ≤ pc at equal aspect; returns
/// {0, 0} when no factorization divides the extents).
GridShape default_grid3d(int g, index_t n0, index_t n1, index_t n2);

/// Divisibility preconditions of the two data layouts.
bool slab_feasible_3d(index_t n0, index_t n1, index_t n2, int g);
bool pencil_feasible_3d(index_t n0, index_t n1, index_t n2, const GridShape& grid);

/// Outcome of an autotuned (or forced) 3D decomposition decision.
struct DecompDecision {
  Decomp chosen = Decomp::Slab;  ///< never Auto on output
  GridShape grid;                ///< the pencil grid (valid iff chosen == Pencil
                                 ///< or pencil was feasible)
  double slab_seconds = 0;    ///< modeled wall time of the whole transform
  double pencil_seconds = 0;  ///< in each decomposition
  bool slab_feasible = false;
  bool pencil_feasible = false;
  bool model_decided = false;  ///< true when `requested` was Auto
};

/// Decide slab vs pencil for an n0×n1×n2 transform on g devices. `requested`
/// other than Auto forces that decomposition (throws if infeasible);
/// Auto prices both (ties go to slab — fewer bytes moved) using `w`/`arch`.
/// An unspecified `requested_grid` defaults to default_grid3d.
DecompDecision choose_decomp(Decomp requested, GridShape requested_grid, index_t n0,
                             index_t n1, index_t n2, int g, const Workload& w,
                             const ArchParams& arch);

}  // namespace fmmfft::model
