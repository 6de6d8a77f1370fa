#include "fmm/engine.hpp"

#include <algorithm>
#include <cstring>

#include "blas/blas.hpp"
#include "blas/simd.hpp"
#include "common/error.hpp"
#include "common/math.hpp"
#include "common/threadpool.hpp"
#include "common/timer.hpp"
#include "fmm/operators.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::fmm {
namespace {

template <typename T>
Buffer<T> cast_buffer(const std::vector<double>& src) {
  Buffer<T> dst(static_cast<index_t>(src.size()));
  for (index_t i = 0; i < dst.size(); ++i) dst[i] = static_cast<T>(src[(std::size_t)i]);
  return dst;
}

/// Cast a row-major table of `width` columns (S2T, M2L) into the layout the
/// accumulate tile reads (simd::pack_table).
template <typename T>
Buffer<T> cast_tile_table(const std::vector<double>& src, index_t width) {
  Buffer<T> dst(static_cast<index_t>(src.size()));
  simd::pack_table(src.data(), dst.size() / width, width, dst.data());
  return dst;
}

/// Ledger scope for a non-Copy stage: fold the per-level "-<digits>"
/// suffix ("M2M-7" -> "fmm.M2M") so launches of one kernel aggregate;
/// "M2L-B" keeps its suffix (distinct operator and traffic shape).
std::string traffic_scope(const std::string& name) {
  std::string base = name;
  const auto dash = base.rfind('-');
  if (dash != std::string::npos && dash + 1 < base.size()) {
    bool digits = true;
    for (std::size_t i = dash + 1; i < base.size(); ++i)
      digits = digits && base[i] >= '0' && base[i] <= '9';
    if (digits) base.resize(dash);
  }
  return "fmm." + base;
}

/// Feed one executed stage's exact counts into the metrics registry.
/// Halo-fill copies are tracked separately so fmm.flops / fmm.mem_bytes /
/// fmm.launches stay launch-for-launch comparable with
/// model::exact_fmm_counts (which has no Copy entries).
///
/// `f32` engines (the native fp32 shell, and the mixed-precision
/// translation pipeline under an fp64 shell) append ".f32" to their ledger
/// scopes: the bytes in one scope are then always at one element width, so
/// the §5 cross-check and the per-precision traffic reports stay exact
/// when two widths coexist in a run. Prefix sums ("fmm.") aggregate both.
void count_stage(const StageStats& st, bool f32) {
  if (obs::traffic_enabled()) {
    const char* suffix = f32 ? ".f32" : "";
    // Copy stages go to halo.cyclic (payload read once, written once) so
    // the fmm.* scopes stay compute-only, matching exact_fmm_counts.
    if (st.kernel == KernelClass::Copy) {
      obs::TrafficLedger::global().add_rw(std::string("halo.cyclic") + suffix, st.mem_bytes,
                                          st.mem_bytes, 0.0);
    } else {
      double rd = st.bytes_read, wr = st.bytes_written;
      if (rd == 0 && wr == 0) rd = wr = st.mem_bytes / 2;
      obs::TrafficLedger::global().add_rw(traffic_scope(st.name) + suffix, rd, wr, st.flops);
    }
  }
  if (!obs::metrics_enabled()) return;
  if (st.kernel == KernelClass::Copy) {
    FMMFFT_COUNT("fmm.halo_bytes", st.mem_bytes);
    return;
  }
  FMMFFT_COUNT("fmm.flops", st.flops);
  FMMFFT_COUNT("fmm.mem_bytes", st.mem_bytes);
  FMMFFT_COUNT("fmm.launches", st.launches);
  FMMFFT_HIST("fmm.launch_us", st.seconds * 1e6);
}

}  // namespace

template <typename T>
Engine<T>::Engine(const Params& prm, int components, index_t g, index_t rank)
    : prm_(prm), c_(components), g_(g), rank_(rank) {
  prm_.validate_distributed(g);
  FMMFFT_CHECK(components == 1 || components == 2);
  FMMFFT_CHECK(rank >= 0 && rank < g);

  cp_ = c_ * prm_.p;
  cpm_ = c_ * (prm_.p - 1);
  nb_leaf_ = prm_.leaves() / g_;

  s2m_op_ = cast_buffer<T>(s2m_matrix(prm_.q, prm_.ml));
  m2m_op_ = cast_buffer<T>(m2m_matrix(prm_.q));
  s2t_tab_ = cast_tile_table<T>(s2t_table(prm_, c_), cp_);
  ones_q_ = Buffer<T>(prm_.q * prm_.boxes(prm_.b));
  ones_q_.fill(T(1));

  // Precompute the M2L operator slabs: the four cousin separations per
  // non-base level, and the base-level all-pairs slabs when 2^B is small
  // enough to cache (otherwise m2l_operator builds them per call).
  for (int lev = prm_.b + 1; lev <= prm_.l(); ++lev)
    for (index_t sep : level_separations())
      m2l_cache_.emplace(std::make_pair(lev, sep),
                         cast_tile_table<T>(m2l_table(prm_, lev, sep, c_), cpm_));
  const index_t base_boxes = prm_.boxes(prm_.b);
  if (base_boxes <= 32) {
    for (index_t sep = 2; sep <= base_boxes - 2; ++sep)
      m2l_cache_.emplace(std::make_pair(prm_.b, sep),
                         cast_tile_table<T>(m2l_table(prm_, prm_.b, sep, c_), cpm_));
  }
  // Larger base levels build their slabs on first use into the keyed LRU
  // (m2l_operator), so repeated executes of one plan pay the build once.
  // Resolve operator slab pointers once, after the cache stops growing:
  // std::map nodes are pointer-stable, so these stay valid for the engine's
  // lifetime and the per-call path never touches the map.
  m2l_level_ops_.resize(static_cast<std::size_t>(prm_.l() - prm_.b));
  for (int lev = prm_.b + 1; lev <= prm_.l(); ++lev) {
    auto& ops = m2l_level_ops_[(std::size_t)(lev - prm_.b - 1)];
    const auto seps = level_separations();
    for (std::size_t k = 0; k < seps.size(); ++k)
      ops[k] = m2l_cache_.at({lev, seps[k]}).data();
  }
  if (base_boxes >= 4) {
    m2l_base_ops_.assign(static_cast<std::size_t>(base_boxes - 3), nullptr);
    for (index_t sep = 2; sep <= base_boxes - 2; ++sep) {
      auto it = m2l_cache_.find({prm_.b, sep});
      if (it != m2l_cache_.end()) m2l_base_ops_[(std::size_t)(sep - 2)] = it->second.data();
    }
  }

  s_ = Buffer<T>(cp_ * prm_.ml * (nb_leaf_ + 2));
  t_ = Buffer<T>(cp_ * prm_.ml * nb_leaf_);
  r_ = Buffer<T>(cpm_);

  const int l = prm_.l();
  mult_.resize(static_cast<std::size_t>(l - prm_.b + 1));
  local_.resize(static_cast<std::size_t>(l - prm_.b + 1));
  for (int lev = prm_.b; lev <= l; ++lev) {
    const index_t nbl = local_boxes(lev);
    if (lev == prm_.b)
      mult_[0] = Buffer<T>(cpm_ * prm_.q * prm_.boxes(prm_.b));  // global
    else
      mult_[(std::size_t)(lev - prm_.b)] = Buffer<T>(cpm_ * prm_.q * (nbl + 4));
    local_[(std::size_t)(lev - prm_.b)] = Buffer<T>(cpm_ * prm_.q * nbl);
  }
}

template <typename T>
void Engine<T>::record_stage(StageStats st, double seconds, double bytes_read,
                             double bytes_written) {
  st.seconds = seconds;
  st.bytes_read = bytes_read;
  st.bytes_written = bytes_written;
  count_stage(st, sizeof(T) == 4);
  std::lock_guard<std::mutex> lk(stats_mu_);
  stats_.push_back(std::move(st));
}

template <typename T>
T* Engine<T>::source_box(index_t b) {
  FMMFFT_ASSERT(b >= -1 && b <= nb_leaf_);
  return s_.data() + cp_ * prm_.ml * (b + 1);
}

template <typename T>
T* Engine<T>::target_box(index_t b) {
  FMMFFT_ASSERT(b >= 0 && b < nb_leaf_);
  return t_.data() + cp_ * prm_.ml * b;
}

template <typename T>
T* Engine<T>::multipole_box(int level, index_t b) {
  auto& buf = mult_[(std::size_t)(level - prm_.b)];
  if (level == prm_.b) {
    FMMFFT_ASSERT(b >= 0 && b < prm_.boxes(prm_.b));
    return buf.data() + expansion_box_elems() * b;  // global indexing
  }
  FMMFFT_ASSERT(b >= -2 && b < local_boxes(level) + 2);
  return buf.data() + expansion_box_elems() * (b + 2);
}

template <typename T>
T* Engine<T>::local_box(int level, index_t b) {
  FMMFFT_ASSERT(b >= 0 && b < local_boxes(level));
  return local_[(std::size_t)(level - prm_.b)].data() + expansion_box_elems() * b;
}

template <typename T>
void Engine<T>::zero() {
  t_.fill(T(0));
  for (auto& l : local_) l.fill(T(0));
}

template <typename T>
void Engine<T>::s2m() {
  FMMFFT_SPAN("S2M");
  WallTimer stage_timer_;
  // M^L_{(p-1)qb} = S2M_qm S_pmb, skipping the p=0 slice (row offset c_).
  const index_t q = prm_.q, ml = prm_.ml;
  // Leaf multipoles live in the interior of M^L, or directly in this
  // rank's slab of the global base buffer when L == B.
  T* dst = prm_.l() == prm_.b ? multipole_box(prm_.b, box_offset(prm_.b))
                              : multipole_box(prm_.l(), 0);
  blas::gemm_strided_batched<T>(blas::Op::N, blas::Op::T, cpm_, q, ml, T(1),
                                source_box(0) + c_, cp_, cp_ * ml, s2m_op_.data(), q, 0, T(0),
                                dst, cpm_, cpm_ * q, nb_leaf_);
  record_stage({"S2M", KernelClass::BatchedGemm,
                2.0 * double(cpm_) * double(q) * double(ml) * double(nb_leaf_),
                double(sizeof(T)) * (double(cpm_ * ml * nb_leaf_) +
                                     double(cpm_ * q * nb_leaf_) + double(q * ml)),
                1},
               stage_timer_.seconds(),
               double(sizeof(T)) * (double(cpm_ * ml * nb_leaf_) + double(q * ml)),
               double(sizeof(T)) * double(cpm_ * q * nb_leaf_));
}

template <typename T>
void Engine<T>::m2m(int level) {
  FMMFFT_SPAN("M2M");
  WallTimer stage_timer_;
  FMMFFT_CHECK(level >= prm_.b && level < prm_.l());
  const index_t q = prm_.q, nbl = local_boxes(level);
  T* dst = level == prm_.b ? multipole_box(prm_.b, box_offset(prm_.b)) : multipole_box(level, 0);
  blas::gemm_strided_batched<T>(blas::Op::N, blas::Op::T, cpm_, q, 2 * q, T(1),
                                multipole_box(level + 1, 0), cpm_, 2 * cpm_ * q,
                                m2m_op_.data(), q, 0, T(0), dst, cpm_, cpm_ * q, nbl);
  record_stage({"M2M-" + std::to_string(level), KernelClass::BatchedGemm,
                4.0 * double(cpm_) * double(q) * double(q) * double(nbl),
                double(sizeof(T)) * (double(2 * cpm_ * q * nbl) +
                                     double(cpm_ * q * nbl) + double(2 * q * q)),
                1},
               stage_timer_.seconds(),
               double(sizeof(T)) * (double(2 * cpm_ * q * nbl) + double(2 * q * q)),
               double(sizeof(T)) * double(cpm_ * q * nbl));
}

template <typename T>
void Engine<T>::s2t() {
  FMMFFT_SPAN("S2T");
  WallTimer stage_timer_;
  // T_pib += S2T_{p(j-i)} S_pjb over the three-box neighbourhood j in
  // [-M_L, 2·M_L), j ascending; the p=0 table slice is the identity,
  // performing the C_0 = I copy in the same sweep. Table row k = j - i +
  // 2·M_L - 1 falls as i rises, so the tile walks it with Step -1 from
  // k0 = M_L - 1 (target row 0, source row -M_L).
  const index_t ml = prm_.ml;
  const simd::TileShape sh{
      .rows = ml, .ld = cp_, .nj = 3 * ml, .nk = 4 * ml - 1, .k0 = ml - 1, .tab_ld = 1};
  // Boxes are independent targets: share them across the pool. Within a
  // worker's range the vector column is the outer loop, so its 4·M_L-1
  // table rows stay L1-resident across the boxes.
  parallel_for(
      nb_leaf_,
      [&](index_t b_lo, index_t b_hi) {
        for (index_t c = 0, w = 0; c < cp_; c += w) {
          w = simd::column_width<T>(cp_ - c);
          for (index_t b = b_lo; b < b_hi; ++b) {
            const simd::TileTerm<T> term{source_box(b - 1), s2t_tab_.data()};
            simd::mul_add_tiles<-1>(target_box(b), sh, &term, 1, c, w);
          }
        }
      },
      /*grain=*/1);
  record_stage({"S2T", KernelClass::Custom,
                2.0 * 3.0 * double(ml) * double(ml) * double(cp_) * double(nb_leaf_),
                double(sizeof(T)) * (double(cp_ * ml * (nb_leaf_ + 2)) +
                                     2.0 * double(cp_ * ml * nb_leaf_)),
                1},
               stage_timer_.seconds(),
               double(sizeof(T)) *
                   (double(cp_ * ml * (nb_leaf_ + 2)) + double(cp_ * ml * nb_leaf_)),
               double(sizeof(T)) * double(cp_ * ml * nb_leaf_));
}

template <typename T>
const T* Engine<T>::m2l_operator(int level, index_t s) {
  auto it = m2l_cache_.find({level, s});
  if (it != m2l_cache_.end()) return it->second.data();
  // Keyed LRU for slabs too numerous to precompute. Slabs stay pinned while
  // they remain within capacity, so m2l_base can resolve every separation's
  // pointer up front and fuse the separation loop per box.
  const M2lKey key{level, s};
  auto pos = m2l_lru_pos_.find(key);
  if (pos != m2l_lru_pos_.end()) {
    m2l_lru_.splice(m2l_lru_.begin(), m2l_lru_, pos->second);
    return m2l_lru_.front().second.data();
  }
  FMMFFT_COUNT("fmm.m2l_slab_builds", 1);
  m2l_lru_.emplace_front(key, cast_tile_table<T>(m2l_table(prm_, level, s, c_), cpm_));
  m2l_lru_pos_[key] = m2l_lru_.begin();
  if (m2l_lru_.size() > kM2lLruCapacity) {
    m2l_lru_pos_.erase(m2l_lru_.back().first);
    m2l_lru_.pop_back();
  }
  return m2l_lru_.front().second.data();
}

template <typename T>
void Engine<T>::m2l_level(int level) {
  FMMFFT_SPAN("M2L");
  WallTimer stage_timer_;
  FMMFFT_CHECK(level > prm_.b && level <= prm_.l());
  const index_t q = prm_.q, nbl = local_boxes(level), off = box_offset(level);
  const auto& seps = level_separations();
  const auto& ops = m2l_level_ops_[(std::size_t)(level - prm_.b - 1)];
  const simd::TileShape sh{.rows = q, .ld = cpm_, .nj = q, .nk = q * q, .k0 = 0, .tab_ld = q};
  // L_i += Σ_j M2L_s(i + Q·j) ∘ M^ℓ row j of box b + s, over the box's three
  // cousin separations. All three accumulate in one register residency of
  // the L rows; per L element the additions run separation-major in
  // level_separations() order restricted to the box's parity, j-minor.
  parallel_for(
      nbl,
      [&](index_t b_lo, index_t b_hi) {
        for (index_t c = 0, w = 0; c < cpm_; c += w) {
          w = simd::column_width<T>(cpm_ - c);
          for (index_t b = b_lo; b < b_hi; ++b) {
            const bool odd = (off + b) % 2 != 0;
            std::array<simd::TileTerm<T>, kNumCousins> terms;
            index_t nterms = 0;
            for (std::size_t kk = 0; kk < seps.size(); ++kk)
              if (separation_applies(seps[kk], odd))
                terms[(std::size_t)nterms++] = {multipole_box(level, b + seps[kk]), ops[kk]};
            simd::mul_add_tiles<1>(local_box(level, b), sh, terms.data(), nterms, c, w);
          }
        }
      },
      /*grain=*/1);
  // 3 cousins per box regardless of parity.
  // Mops: M^l read once (with halo) and L^l accumulated (read + write) —
  // the interaction-list reuse a tiled kernel achieves (§5.3 conventions).
  record_stage({"M2L-" + std::to_string(level), KernelClass::Custom,
                2.0 * 3.0 * double(q) * double(q) * double(cpm_) * double(nbl),
                double(sizeof(T)) * (2.0 * double(cpm_ * q * nbl) +
                                     double(cpm_ * q * (nbl + 4))),
                1},
               stage_timer_.seconds(),
               double(sizeof(T)) *
                   (double(cpm_ * q * nbl) + double(cpm_ * q * (nbl + 4))),
               double(sizeof(T)) * double(cpm_ * q * nbl));
}

template <typename T>
void Engine<T>::m2l_base() {
  FMMFFT_SPAN("M2L-B");
  WallTimer stage_timer_;
  const index_t q = prm_.q, nbl = local_boxes(prm_.b), off = box_offset(prm_.b);
  const index_t nb_global = prm_.boxes(prm_.b);
  const index_t nsep = std::max<index_t>(nb_global - 3, 0);  // s in [2, 2^B-2]
  const simd::TileShape sh{.rows = q, .ld = cpm_, .nj = q, .nk = q * q, .k0 = 0, .tab_ld = q};
  // One separation over boxes [b_lo, b_hi): column-outer, so the slab's
  // active vector column stays L1-resident across the boxes. Boxes and
  // columns are disjoint targets, so running separations in ascending order
  // keeps each L element's additions s-ascending, j-minor.
  auto sweep = [&](index_t b_lo, index_t b_hi, index_t s, const T* tab) {
    for (index_t c = 0, w = 0; c < cpm_; c += w) {
      w = simd::column_width<T>(cpm_ - c);
      for (index_t b = b_lo; b < b_hi; ++b) {
        const simd::TileTerm<T> term{multipole_box(prm_.b, mod(off + b + s, nb_global)), tab};
        simd::mul_add_tiles<1>(local_box(prm_.b, b), sh, &term, 1, c, w);
      }
    }
  };
  auto slab = [&](index_t s) {
    const T* tab = m2l_base_ops_.empty() ? nullptr : m2l_base_ops_[(std::size_t)(s - 2)];
    return tab ? tab : m2l_operator(prm_.b, s);
  };
  // Resolve every separation's operator slab up front (precomputed cache or
  // LRU) so one parallel_for sweeps them all, separation-major. When the
  // slabs outnumber the LRU capacity they cannot all stay pinned: then each
  // separation builds its slab on the fly and sweeps the boxes on its own.
  if (std::size_t(nsep) <= kM2lLruCapacity) {
    std::vector<const T*> ops((std::size_t)nsep);
    for (index_t s = 2; s <= nb_global - 2; ++s) ops[(std::size_t)(s - 2)] = slab(s);
    parallel_for(
        nbl,
        [&](index_t b_lo, index_t b_hi) {
          for (index_t s = 2; s <= nb_global - 2; ++s)
            sweep(b_lo, b_hi, s, ops[(std::size_t)(s - 2)]);
        },
        /*grain=*/1);
  } else {
    for (index_t s = 2; s <= nb_global - 2; ++s) {
      const T* tab = slab(s);
      parallel_for(
          nbl, [&](index_t b_lo, index_t b_hi) { sweep(b_lo, b_hi, s, tab); }, /*grain=*/1);
    }
  }
  // Mops: the gathered global M^B streams once, L^B accumulates.
  const double nsrc = double(nb_global - 3);
  record_stage({"M2L-B", KernelClass::Custom,
                2.0 * nsrc * double(q) * double(q) * double(cpm_) * double(nbl),
                double(sizeof(T)) * (2.0 * double(cpm_ * q * nbl) +
                                     double(cpm_ * q * nb_global)),
                1},
               stage_timer_.seconds(),
               double(sizeof(T)) *
                   (double(cpm_ * q * nbl) + double(cpm_ * q * nb_global)),
               double(sizeof(T)) * double(cpm_ * q * nbl));
}

template <typename T>
void Engine<T>::reduce() {
  FMMFFT_SPAN("REDUCE");
  WallTimer stage_timer_;
  // r_{p-1} = sum_{q,b} M^B_{(p-1)qb}: the S2M/M2M columns sum to one, so
  // base-level multipoles preserve the source sums (§4.8). One GEMV on the
  // *global* base buffer — identical on every rank after the allgather.
  const index_t cols = prm_.q * prm_.boxes(prm_.b);
  blas::gemv<T>(blas::Op::N, cpm_, cols, T(1), multipole_box(prm_.b, 0), cpm_, ones_q_.data(),
                1, T(0), r_.data(), 1);
  record_stage({"REDUCE", KernelClass::Gemv, 2.0 * double(cpm_) * double(cols),
                double(sizeof(T)) * (double(cpm_ * cols) + double(cpm_)), 1},
               stage_timer_.seconds(), double(sizeof(T)) * double(cpm_ * cols),
               double(sizeof(T)) * double(cpm_));
}

template <typename T>
void Engine<T>::l2l(int level) {
  FMMFFT_SPAN("L2L");
  WallTimer stage_timer_;
  FMMFFT_CHECK(level >= prm_.b && level < prm_.l());
  const index_t q = prm_.q, nbl = local_boxes(level);
  blas::gemm_strided_batched<T>(blas::Op::N, blas::Op::N, cpm_, 2 * q, q, T(1),
                                local_box(level, 0), cpm_, cpm_ * q, m2m_op_.data(), q, 0, T(1),
                                local_box(level + 1, 0), cpm_, 2 * cpm_ * q, nbl);
  record_stage({"L2L-" + std::to_string(level), KernelClass::BatchedGemm,
                4.0 * double(cpm_) * double(q) * double(q) * double(nbl),
                double(sizeof(T)) * (double(cpm_ * q * nbl) + double(2 * q * q) +
                                     2.0 * double(2 * cpm_ * q * nbl)),
                1},
               stage_timer_.seconds(),
               double(sizeof(T)) * (double(cpm_ * q * nbl) + double(2 * q * q) +
                                    double(2 * cpm_ * q * nbl)),
               double(sizeof(T)) * double(2 * cpm_ * q * nbl));
}

template <typename T>
void Engine<T>::l2t() {
  FMMFFT_SPAN("L2T");
  WallTimer stage_timer_;
  const index_t q = prm_.q, ml = prm_.ml;
  blas::gemm_strided_batched<T>(blas::Op::N, blas::Op::N, cpm_, ml, q, T(1),
                                local_box(prm_.l(), 0), cpm_, cpm_ * q, s2m_op_.data(), q, 0,
                                T(1), target_box(0) + c_, cp_, cp_ * ml, nb_leaf_);
  record_stage({"L2T", KernelClass::BatchedGemm,
                2.0 * double(cpm_) * double(ml) * double(q) * double(nb_leaf_),
                double(sizeof(T)) * (double(cpm_ * q * nb_leaf_) + double(q * ml) +
                                     2.0 * double(cpm_ * ml * nb_leaf_)),
                1},
               stage_timer_.seconds(),
               double(sizeof(T)) * (double(cpm_ * q * nb_leaf_) + double(q * ml) +
                                    double(cpm_ * ml * nb_leaf_)),
               double(sizeof(T)) * double(cpm_ * ml * nb_leaf_));
}

template <typename T>
void Engine<T>::fill_source_halo_cyclic() {
  FMMFFT_SPAN("HALO-S");
  WallTimer stage_timer_;
  const index_t be = source_box_elems();
  std::memcpy(source_box(-1), source_box(nb_leaf_ - 1), sizeof(T) * be);
  std::memcpy(source_box(nb_leaf_), source_box(0), sizeof(T) * be);
  record_stage({"COMM-S", KernelClass::Copy, 0.0, double(sizeof(T)) * 2 * be, 1},
               stage_timer_.seconds());
}

template <typename T>
void Engine<T>::fill_multipole_halo_cyclic(int level) {
  FMMFFT_SPAN("HALO-M");
  WallTimer stage_timer_;
  FMMFFT_CHECK(level > prm_.b && level <= prm_.l());
  const index_t nbl = local_boxes(level), ee = expansion_box_elems();
  std::memcpy(multipole_box(level, -2), multipole_box(level, nbl - 2), sizeof(T) * 2 * ee);
  std::memcpy(multipole_box(level, nbl), multipole_box(level, 0), sizeof(T) * 2 * ee);
  record_stage({"COMM-M" + std::to_string(level), KernelClass::Copy, 0.0,
                double(sizeof(T)) * 4 * ee, 1},
               stage_timer_.seconds());
}

template <typename T>
void Engine<T>::run_single_node() {
  FMMFFT_CHECK_MSG(g_ == 1, "run_single_node requires G == 1");
  zero();
  s2m();
  fill_source_halo_cyclic();
  s2t();
  for (int lev = prm_.l() - 1; lev >= prm_.b; --lev) m2m(lev);
  for (int lev = prm_.l(); lev > prm_.b; --lev) {
    fill_multipole_halo_cyclic(lev);
    m2l_level(lev);
  }
  m2l_base();
  reduce();
  for (int lev = prm_.b; lev < prm_.l(); ++lev) l2l(lev);
  l2t();
}

template class Engine<float>;
template class Engine<double>;

}  // namespace fmmfft::fmm
