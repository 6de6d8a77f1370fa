// Batched periodic 1D FMM engine for the FMM-FFT (§4, Algorithm 1).
//
// One Engine instance evaluates the P-1 interleaved cotangent-kernel FMMs
// on the slab of leaf boxes owned by one processing element. All stages
// operate on real, component-flattened tensors (pc = c + C·p fastest), so
// complex transforms reuse the real kernels with effective batch C·P.
//
// The engine performs *local compute only*: halo regions and the gathered
// base-level multipoles are inputs that the caller fills — cyclically for a
// single address space (helpers below) or via fabric communication in the
// distributed driver. This keeps one code path for both settings.
//
// Tensor inventory per engine (nb = 2^L/G local leaf boxes, cp = C·P,
// cpm = C·(P-1)):
//   S   cp  × M_L × (nb+2)       source, ±1 leaf-box halo
//   T   cp  × M_L × nb           target
//   M^ℓ cpm × Q × (2^ℓ/G + 4)    multipoles, ±2 box halo, B < ℓ <= L
//   M^B cpm × Q × 2^B            base multipoles, *global* (allgathered)
//   L^ℓ cpm × Q × (2^ℓ/G)        locals, B <= ℓ <= L
//   r   cpm                      reduction of the constant +i term
#pragma once

#include <array>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "fmm/params.hpp"

namespace fmmfft::fmm {

/// What executed a stage — used by the performance model to pick the
/// per-class efficiency (§6.2) and by the Fig. 2/Fig. 4 kernel census.
enum class KernelClass { BatchedGemm, Custom, Gemv, Copy };

inline const char* to_string(KernelClass k) {
  switch (k) {
    case KernelClass::BatchedGemm: return "B-GEMM";
    case KernelClass::Custom: return "custom";
    case KernelClass::Gemv: return "GEMV";
    case KernelClass::Copy: return "copy";
  }
  return "?";
}

/// Exact operation counts for one executed stage (one kernel launch).
struct StageStats {
  std::string name;          ///< e.g. "S2M", "M2L-7", "M2L-B"
  KernelClass kernel;
  double flops = 0;          ///< floating point operations performed
  double mem_bytes = 0;      ///< tensor bytes read + written (§5.3 rules:
                             ///< S2T/M2L operator entries generated on the
                             ///< fly are *not* counted)
  index_t launches = 1;
  double seconds = 0;        ///< native wall time of this launch
  // Read/write split of mem_bytes for the traffic ledger. Appended after
  // `seconds` (call sites brace-init the fields above positionally) and
  // filled by named assignment; zero means "split unknown", in which case
  // the ledger halves mem_bytes.
  double bytes_read = 0;
  double bytes_written = 0;
};

template <typename T>
class Engine {
  static_assert(is_real_scalar_v<T>, "Engine works on component-flattened real data");

 public:
  /// `components` is the paper's C: 1 for real input, 2 for complex.
  /// `g` devices, this engine owning slab `rank`.
  Engine(const Params& prm, int components, index_t g = 1, index_t rank = 0);

  const Params& params() const { return prm_; }
  int components() const { return c_; }
  index_t cp() const { return cp_; }
  index_t cpm() const { return cpm_; }
  index_t local_leaves() const { return nb_leaf_; }
  index_t local_boxes(int level) const { return prm_.boxes(level) / g_; }
  index_t box_offset(int level) const { return rank_ * local_boxes(level); }

  /// Pointer to S at logical box b (b = -1 and b = nb are the halo boxes).
  T* source_box(index_t b);
  const T* source_box(index_t b) const { return const_cast<Engine*>(this)->source_box(b); }
  /// Pointer to T at local box b in [0, nb).
  T* target_box(index_t b);
  const T* target_box(index_t b) const { return const_cast<Engine*>(this)->target_box(b); }
  /// Multipoles at `level`: interior box b (halo boxes at b = -2..-1 and
  /// nb..nb+1 for B < level <= L). For level == B this addresses the
  /// *global* buffer, so b is a global box index.
  T* multipole_box(int level, index_t b);
  const T* multipole_box(int level, index_t b) const {
    return const_cast<Engine*>(this)->multipole_box(level, b);
  }
  /// Locals at `level`, local box b in [0, 2^level/g).
  T* local_box(int level, index_t b);
  const T* local_box(int level, index_t b) const {
    return const_cast<Engine*>(this)->local_box(level, b);
  }
  const T* reduction() const { return r_.data(); }

  index_t source_box_elems() const { return cp_ * prm_.ml; }
  index_t expansion_box_elems() const { return cpm_ * prm_.q; }

  // -- Stage execution (local compute; halos must be filled) ---------------
  void zero();          ///< zero T and every L^ℓ (S2T then copies the p=0 slice S -> T)
  void s2m();
  void m2m(int level);  ///< build level from level+1 (level in [B, L-1])
  void s2t();
  void m2l_level(int level);  ///< cousin M2L at level in [B+1, L]
  void m2l_base();
  // S2T and both M2L stages add into T / L^ℓ in a fixed per-element order
  // (S2T: source row j ascending; M2L-ℓ: separation-major, j-minor; M2L-B:
  // s ascending, j-minor), so their outputs equal plain scalar loops in
  // that order bit for bit; tests/test_engine.cpp keeps those loops.
  void reduce();
  void l2l(int level);  ///< push level to level+1 (level in [B, L-1])
  void l2t();

  // -- Single-address-space halo fills (G == 1 or tests) -------------------
  void fill_source_halo_cyclic();
  void fill_multipole_halo_cyclic(int level);

  /// Full local pipeline with cyclic halos; valid only when g == 1.
  void run_single_node();

  /// Per-launch operation counts recorded since the last reset. Read
  /// between graph executions, never concurrently with stage calls.
  const std::vector<StageStats>& stats() const { return stats_; }
  void reset_stats() {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.clear();
  }

 private:
  /// M2L operator slab for (level, s), from the precomputed cache or (for
  /// large base levels where caching all 2^B-3 slabs would be prohibitive)
  /// built on the fly.
  const T* m2l_operator(int level, index_t s);
  /// Append one stage's counts; safe from concurrent executor tasks
  /// (distinct engines never contend, but the stats vector is also read by
  /// driver-level aggregation while other engines still run).
  /// `bytes_read`/`bytes_written` split st.mem_bytes for the traffic
  /// ledger; pass 0/0 when only the sum is known (the ledger halves it).
  void record_stage(StageStats st, double seconds, double bytes_read = 0,
                    double bytes_written = 0);

  Params prm_;
  int c_;
  index_t g_, rank_;
  index_t cp_, cpm_, nb_leaf_;

  // Operators cast to working precision. The S2T table and every M2L slab
  // (cache and LRU) are vector-major (simd::pack_table): the rows of one
  // vector-wide column chunk are contiguous, and the tail chunks are as
  // narrow as their columns, so a table holds exactly rows × width values.
  Buffer<T> s2m_op_;   // Q × M_L
  Buffer<T> m2m_op_;   // Q × 2Q
  Buffer<T> s2t_tab_;  // (4·M_L - 1) rows × cp columns, k = j - i + 2·M_L - 1
  Buffer<T> ones_q_;   // length Q·2^B of ones, for the reduction GEMV
  std::map<std::pair<int, index_t>, Buffer<T>> m2l_cache_;  // (level, s): Q² rows × cpm
  // Keyed LRU for operator slabs outside the precomputed cache (base levels
  // with 2^B too large to cache exhaustively): front = most recent. As long
  // as the base level's 2^B - 3 slabs fit the capacity, every slab is built
  // exactly once per plan instead of once per m2l_base call.
  using M2lKey = std::pair<int, index_t>;
  using M2lLru = std::list<std::pair<M2lKey, Buffer<T>>>;
  static constexpr std::size_t kM2lLruCapacity = 256;
  M2lLru m2l_lru_;
  std::map<M2lKey, typename M2lLru::iterator> m2l_lru_pos_;
  // Hot-path operator pointers resolved once at ctor time (map lookups are
  // off the per-call path). m2l_level_ops_[lev - B - 1][k] follows the
  // level_separations() order; m2l_base_ops_[s - 2] is null for base
  // separations too numerous to cache (built on first use into the LRU).
  std::vector<std::array<const T*, 4>> m2l_level_ops_;
  std::vector<const T*> m2l_base_ops_;

  // Tensors.
  Buffer<T> s_, t_;
  std::vector<Buffer<T>> mult_;   // index ℓ-B; [0] is the global base buffer
  std::vector<Buffer<T>> local_;  // index ℓ-B
  Buffer<T> r_;

  std::mutex stats_mu_;
  std::vector<StageStats> stats_;
};

}  // namespace fmmfft::fmm
