#include "dist/dfft.hpp"

#include <cstring>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/math.hpp"
#include "dist/collectives.hpp"
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
Dist2dFft<T>::Dist2dFft(index_t m, index_t p, int g)
    : m_(m), p_(p), g_(g), fabric_(g), plan_m_(m), plan_p_(p) {
  FMMFFT_CHECK_MSG(m % g == 0 && p % g == 0, "G must divide both 2D FFT dimensions");
  for (int r = 0; r < g_; ++r) scratch_.emplace_back(m_ * p_ / g_);
}

template <typename T>
void Dist2dFft<T>::execute_slabs(const std::vector<std::complex<T>*>& slabs,
                                 sim::Fabric& fabric) {
  exec::DeviceLanes lanes(g_);
  exec::TaskGraph graph(lanes.count());
  graph.name_lanes(lanes);
  submit_slabs(graph, lanes, slabs, fabric);
  graph.run();
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
  const index_t nc = phase_chunks(g_, mg);
  auto sc = buffer_ptrs(scratch_);

  // (a) Row FFTs over chunks of each device's contiguous p-major rows.
  std::vector<std::vector<exec::TaskId>> fftp((std::size_t)g_);
  for (int r = 0; r < g_; ++r) {
    std::vector<exec::TaskId> deps;
    if (!ready.empty()) deps.push_back(ready[(std::size_t)r]);
    Cx* rows = slabs[(std::size_t)r];
    fftp[(std::size_t)r] = submit_phase(graph, lanes, r, "fftp", "fft", mg, nc, deps,
                                        [this, rows](index_t lo, index_t hi) {
                                          FMMFFT_SPAN("2DFFT-P");
                                          plan_p_.execute_batched(rows + lo * p_, hi - lo,
                                                                  fft::Direction::Forward);
                                        });
  }

  // (b) The single all-to-all, chunk-pipelined and fused: each pair's
  // chunk scatters straight into the receiver's scratch slab as soon as
  // the row FFT that produced its rows is done, and chunks overlap freely
  // (disjoint receiver regions). a2a.reads[r] holds the tasks that read
  // slabs[r].
  const auto a2a = exchange_permute_mp(slabs, sc, m_, p_, "A2A-2D", nc)
                       .submit(graph, lanes, fabric, [&](int s, int c) {
                         return fftp[(std::size_t)s][(std::size_t)c];
                       });

  // (c) Column FFTs per device once every fragment of its scratch slab has
  // arrived, then the slab write-back — which must also wait for every pack
  // that still reads this device's slab (WAR hazard).
  std::vector<exec::TaskId> terminal((std::size_t)g_);
  for (int r = 0; r < g_; ++r) {
    const exec::TaskId join =
        submit_join(graph, lanes, r, "a2a-join", a2a.arrived[(std::size_t)r]);
    Cx* cols = sc[(std::size_t)r];
    auto deps = submit_phase(graph, lanes, r, "fftm", "fft", pg, nc, {join},
                             [this, cols](index_t lo, index_t hi) {
                               FMMFFT_SPAN("2DFFT-M");
                               plan_m_.execute_batched(cols + lo * m_, hi - lo,
                                                       fft::Direction::Forward);
                             });
    deps.insert(deps.end(), a2a.reads[(std::size_t)r].begin(), a2a.reads[(std::size_t)r].end());
    Cx* dst = slabs[(std::size_t)r];
    terminal[(std::size_t)r] = graph.submit(
        "writeback d" + std::to_string(r), {lanes.compute(r), /*ordered=*/true, "fft"},
        [dst, cols, slab] { std::memcpy(dst, cols, sizeof(Cx) * (std::size_t)slab); },
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
