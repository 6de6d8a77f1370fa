#include "dist/dfft.hpp"

#include <cstring>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/math.hpp"
#include "dist/collectives.hpp"
#include "obs/health.hpp"
#include "obs/obs.hpp"

namespace fmmfft::dist {
template <typename T>
DistFft1d<T>::DistFft1d(index_t n, int g)
    : n_(n),
      m_(index_t(1) << ((ilog2_exact(n) + 1) / 2)),
      p_(n / m_),
      g_(g),
      fabric_(g),
      plan_m_(m_),
      plan_p_(p_),
      twiddle_(n) {
  FMMFFT_CHECK_MSG(is_pow2(n) && n >= 4, "N must be a power of two >= 4");
  FMMFFT_CHECK_MSG(g >= 1 && m_ % g == 0 && p_ % g == 0,
                   "G must divide both FFT factors (N=" << n << ", G=" << g << ")");
  const index_t slab = n_ / g_;
  for (int r = 0; r < g_; ++r) {
    slab_a_.emplace_back(slab);
    slab_b_.emplace_back(slab);
  }
  // Twiddle diag [T_{P,M}]_ii = w_N^{(i mod M) * floor(i / M)}.
  for (index_t i = 0; i < n_; ++i) {
    const long double ang = -2.0L * pi_v<long double> *
                            (long double)((__int128)(i % m_) * (i / m_) % n_) / (long double)n_;
    twiddle_[i] = std::complex<T>((T)std::cos(ang), (T)std::sin(ang));
  }
}

template <typename T>
void DistFft1d<T>::execute(const std::complex<T>* in, std::complex<T>* out) {
  using Cx = std::complex<T>;
  const index_t slab = n_ / g_;
  auto a = buffer_ptrs(slab_a_);
  auto b = buffer_ptrs(slab_b_);

  // Device-resident input: scatter is a local placement, not traffic.
  for (int r = 0; r < g_; ++r) std::memcpy(a[(std::size_t)r], in + r * slab, sizeof(Cx) * slab);

  // (1) Transpose P-major -> M-major (all-to-all #1).
  exchange_permute_mp(a, b, m_, p_, "A2A-1").run(fabric_);
  // (2) P local FFTs of size M (P/G per device, contiguous blocks).
  {
    FMMFFT_SPAN("DFFT-M");
    for (int r = 0; r < g_; ++r)
      plan_m_.execute_batched(b[(std::size_t)r], p_ / g_, fft::Direction::Forward);
  }
  // (3) Twiddle scale.
  {
    FMMFFT_SPAN("DFFT-TW");
    for (int r = 0; r < g_; ++r)
      for (index_t i = 0; i < slab; ++i) b[(std::size_t)r][i] *= twiddle_[r * slab + i];
  }
  // (4) Transpose M-major -> P-major (all-to-all #2).
  exchange_permute_mp(b, a, p_, m_, "A2A-2").run(fabric_);
  // (5) M local FFTs of size P.
  {
    FMMFFT_SPAN("DFFT-P");
    for (int r = 0; r < g_; ++r)
      plan_p_.execute_batched(a[(std::size_t)r], m_ / g_, fft::Direction::Forward);
  }
  // (6) Transpose P-major -> M-major (all-to-all #3): in-order output.
  exchange_permute_mp(a, b, m_, p_, "A2A-3").run(fabric_);

  for (int r = 0; r < g_; ++r) std::memcpy(out + r * slab, b[(std::size_t)r], sizeof(Cx) * slab);
}

template <typename T>
Dist2dFft<T>::Dist2dFft(index_t m, index_t p, int g, model::Decomp decomp,
                        model::GridShape grid)
    : m_(m), p_(p), g_(g), fabric_(g), plan_m_(m), plan_p_(p) {
  FMMFFT_CHECK_MSG(m % g == 0 && p % g == 0, "G must divide both 2D FFT dimensions");
  const DecompChoice choice = resolve_decomp_2d(g, m, p, decomp, grid);
  decomp_ = choice.decomp;
  grid_ = choice.grid;
  decision_ = choice.decision;
  for (int r = 0; r < g_; ++r) scratch_.emplace_back(m_ * p_ / g_);
  if (decomp_ == model::Decomp::Pencil)
    for (int r = 0; r < g_; ++r) work_.emplace_back(m_ * p_ / g_);
}

template <typename T>
void Dist2dFft<T>::execute_slabs(const std::vector<std::complex<T>*>& slabs,
                                 sim::Fabric& fabric) {
  // Per-device slab of the m×p grid decides Auto, as in DistFmmFft.
  if (exec::resolve_mode(m_ * p_ / g_) == exec::Mode::Serial) {
    execute_slabs_serial(slabs, fabric);
    return;
  }
  exec::DeviceLanes lanes(g_);
  exec::TaskGraph graph(lanes.count());
  graph.name_lanes(lanes);
  submit_slabs(graph, lanes, slabs, fabric);
  graph.run();
}

template <typename T>
void Dist2dFft<T>::execute_slabs_serial(const std::vector<std::complex<T>*>& slabs,
                                        sim::Fabric& fabric) {
  using Cx = std::complex<T>;
  const index_t slab = m_ * p_ / g_;
  obs::health::PhaseSource hb("dist.2dfft.serial");
  // (a) M local FFTs of size P on the p-major data (M/G per device).
  {
    FMMFFT_SPAN("2DFFT-P");
    for (int r = 0; r < g_; ++r) {
      hb.phase("fft-p", r);
      plan_p_.execute_batched(slabs[(std::size_t)r], m_ / g_, fft::Direction::Forward);
    }
  }
  // (b) Π_{M,P} all-to-all — the FMM-FFT's single transpose, one-phase or
  // factorized through the row/column sub-communicators.
  hb.phase("a2a");
  auto sc = buffer_ptrs(scratch_);
  if (decomp_ == model::Decomp::Pencil) {
    auto wk = buffer_ptrs(work_);
    exchange_pencil2d_row(slabs, wk, m_, p_, grid_).run(fabric);
    exchange_pencil2d_col(wk, sc, m_, p_, grid_).run(fabric);
  } else {
    exchange_permute_mp(slabs, sc, m_, p_, "A2A-2D").run(fabric);
  }
  // (c) P local FFTs of size M (P/G per device).
  {
    FMMFFT_SPAN("2DFFT-M");
    for (int r = 0; r < g_; ++r) {
      hb.phase("fft-m", r);
      plan_m_.execute_batched(sc[(std::size_t)r], p_ / g_, fft::Direction::Forward);
    }
  }
  for (int r = 0; r < g_; ++r) {
    hb.phase("writeback", r);
    std::memcpy(slabs[(std::size_t)r], sc[(std::size_t)r], sizeof(Cx) * slab);
  }
}

template <typename T>
std::vector<exec::TaskId> Dist2dFft<T>::submit_slabs(exec::TaskGraph& graph,
                                                     const exec::DeviceLanes& lanes,
                                                     const std::vector<std::complex<T>*>& slabs,
                                                     sim::Fabric& fabric,
                                                     const std::vector<exec::TaskId>& ready) {
  using Cx = std::complex<T>;
  FMMFFT_CHECK((index_t)slabs.size() == g_);
  FMMFFT_CHECK(ready.empty() || (int)ready.size() == g_);
  const index_t mg = m_ / g_, pg = p_ / g_, slab = m_ * p_ / g_;
  // Same chunk granularity the simulated schedule pipelines with
  // (schedules.cpp chunk_count): enough chunks that a copy can start while
  // the remaining row FFTs still run, floored by the rows themselves.
  const index_t nc = std::min<index_t>(std::max<index_t>(2, g_), mg);
  auto sc = buffer_ptrs(scratch_);

  // (a) Row FFTs, one task per chunk of contiguous p-major rows. Rows are
  // independent lines, so chunks are unordered: order cannot change bits.
  std::vector<std::vector<exec::TaskId>> fftp((std::size_t)g_);
  for (int r = 0; r < g_; ++r)
    for (index_t c = 0; c < nc; ++c) {
      const auto [lo, hi] = chunk_range(mg, nc, c);
      if (lo >= hi) break;
      std::vector<exec::TaskId> deps;
      if (!ready.empty()) deps.push_back(ready[(std::size_t)r]);
      Cx* base = slabs[(std::size_t)r] + lo * p_;
      const index_t rows = hi - lo;
      fftp[(std::size_t)r].push_back(graph.submit(
          "fftp d" + std::to_string(r) + " c" + std::to_string(c),
          {lanes.compute(r), /*ordered=*/false, "fft"},
          [this, base, rows] {
            FMMFFT_SPAN("2DFFT-P");
            plan_p_.execute_batched(base, rows, fft::Direction::Forward);
          },
          std::move(deps)));
    }
  auto row_fft = [&](int s, int c) { return fftp[(std::size_t)s][(std::size_t)c]; };

  // (b) The single all-to-all, chunk-pipelined and fused: each pair's
  // chunk scatters straight into the receiver's scratch slab as soon as
  // the row FFT that produced its rows is done, and chunks overlap freely
  // (disjoint receiver regions). Pencil mode runs the row phase the same
  // way into the work buffers, joins per intermediate device, then runs
  // the column phase into the scratch slabs. a2a.reads[r] ends up holding
  // the tasks that read slabs[r].
  typename Exchange<Cx>::Tasks a2a;
  std::string join_label = "a2a-join d";
  if (decomp_ == model::Decomp::Pencil) {
    auto wk = buffer_ptrs(work_);
    auto row = exchange_pencil2d_row(slabs, wk, m_, p_, grid_, nc).submit(graph, lanes, fabric,
                                                                          row_fft);
    std::vector<exec::TaskId> row_join((std::size_t)g_);
    for (int t = 0; t < g_; ++t)
      row_join[(std::size_t)t] =
          graph.submit("row-join d" + std::to_string(t),
                       {lanes.compute(t), /*ordered=*/false, "sync"}, [] {},
                       row.arrived[(std::size_t)t]);
    a2a = exchange_pencil2d_col(wk, sc, m_, p_, grid_)
              .submit(graph, lanes, fabric, [&](int t, int) { return row_join[(std::size_t)t]; });
    a2a.reads = std::move(row.reads);
    join_label = "col-join d";
  } else {
    a2a = exchange_permute_mp(slabs, sc, m_, p_, "A2A-2D", nc).submit(graph, lanes, fabric,
                                                                      row_fft);
  }

  // (c) Column FFTs per device once every fragment of its scratch slab has
  // arrived (join meta-task), then the slab write-back — which must also
  // wait for every pack that still reads this device's slab (WAR hazard).
  std::vector<exec::TaskId> terminal((std::size_t)g_);
  for (int r = 0; r < g_; ++r) {
    const exec::TaskId join =
        graph.submit(join_label + std::to_string(r),
                     {lanes.compute(r), /*ordered=*/false, "sync"}, [] {},
                     a2a.arrived[(std::size_t)r]);
    std::vector<exec::TaskId> fftm;
    for (index_t c = 0; c < nc; ++c) {
      const auto [lo, hi] = chunk_range(pg, nc, c);
      if (lo >= hi) break;
      Cx* base = sc[(std::size_t)r] + lo * m_;
      const index_t rows = hi - lo;
      fftm.push_back(graph.submit(
          "fftm d" + std::to_string(r) + " c" + std::to_string(c),
          {lanes.compute(r), /*ordered=*/false, "fft"},
          [this, base, rows] {
            FMMFFT_SPAN("2DFFT-M");
            plan_m_.execute_batched(base, rows, fft::Direction::Forward);
          },
          {join}));
    }
    std::vector<exec::TaskId> deps = fftm;
    deps.insert(deps.end(), a2a.reads[(std::size_t)r].begin(), a2a.reads[(std::size_t)r].end());
    Cx* dst = slabs[(std::size_t)r];
    const Cx* src = sc[(std::size_t)r];
    terminal[(std::size_t)r] = graph.submit(
        "writeback d" + std::to_string(r), {lanes.compute(r), /*ordered=*/true, "fft"},
        [dst, src, slab] { std::memcpy(dst, src, sizeof(Cx) * (std::size_t)slab); },
        std::move(deps));
  }
  return terminal;
}

template <typename T>
void Dist2dFft<T>::execute(const std::complex<T>* in, std::complex<T>* out) {
  using Cx = std::complex<T>;
  const index_t slab = m_ * p_ / g_;
  std::vector<Buffer<Cx>> local;
  std::vector<Cx*> lp;
  for (int r = 0; r < g_; ++r) {
    local.emplace_back(slab);
    std::memcpy(local.back().data(), in + r * slab, sizeof(Cx) * slab);
  }
  for (auto& l : local) lp.push_back(l.data());
  execute_slabs(lp, fabric_);
  for (int r = 0; r < g_; ++r) std::memcpy(out + r * slab, lp[(std::size_t)r], sizeof(Cx) * slab);
}

template class DistFft1d<float>;
template class DistFft1d<double>;
template class Dist2dFft<float>;
template class Dist2dFft<double>;

}  // namespace fmmfft::dist
