#include "dist/dfft.hpp"

#include <cstring>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/math.hpp"
#include "dist/collectives.hpp"
#include "obs/obs.hpp"

namespace fmmfft::dist {
namespace {

// Both drivers check an M×P split over G devices before any member is built
// from it: the fabric and the FFT plans would report their own rules
// instead, and `% g` would divide by zero.
void check_split(index_t m, index_t p, int g) {
  FMMFFT_CHECK_MSG(m >= 1 && p >= 1, "FFT dimensions must be positive, got " << m << "x" << p);
  FMMFFT_CHECK_MSG(g >= 1, "need at least one device, got G=" << g);
  FMMFFT_CHECK_MSG(m % g == 0 && p % g == 0,
                   "G must divide both FFT dimensions (" << m << "x" << p << ", G=" << g << ")");
}

// M of the balanced split N = M·P (M ≥ P), once N and the split over G
// are checked.
index_t checked_factor_m(index_t n, int g) {
  FMMFFT_CHECK_MSG(is_pow2(n) && n >= 4, "N must be a power of two >= 4");
  const index_t m = index_t(1) << ((ilog2_exact(n) + 1) / 2);
  check_split(m, n / m, g);
  return m;
}

}  // namespace

template <typename T>
DistFft1d<T>::DistFft1d(index_t n, int g)
    : n_(n),
      m_(checked_factor_m(n, g)),
      p_(n / m_),
      g_(g),
      fabric_(g),
      plan_m_(m_),
      plan_p_(p_),
      twiddle_(n) {
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

// Π_{M,P} · (I_M⊗F_P) · Π_{P,M} · T_{P,M} · (I_P⊗F_M) · Π_{M,P} as one graph:
// A2A-1 reads the caller's input slabs, each later exchange is chunked on
// the FFT phase that produces its payload, so copies overlap the remaining
// chunks, and A2A-3 scatters straight into `out`.
template <typename T>
void DistFft1d<T>::execute(const std::complex<T>* in, std::complex<T>* out) {
  using Cx = std::complex<T>;
  const index_t slab = n_ / g_, mg = m_ / g_, pg = p_ / g_;
  const index_t ncm = phase_chunks(g_, pg), ncp = phase_chunks(g_, mg);
  auto a = buffer_ptrs(slab_a_);
  auto b = buffer_ptrs(slab_b_);
  std::vector<const Cx*> x;
  std::vector<Cx*> y;
  for (int r = 0; r < g_; ++r) {
    x.push_back(in + r * slab);
    y.push_back(out + r * slab);
  }
  exec::DeviceLanes lanes(g_);
  exec::TaskGraph graph(lanes.count());
  graph.name_lanes(lanes);

  // (1) P-major -> M-major (A2A-1) from the device-resident input, then per
  // device P/G FFTs of size M, each chunk scaling its rows by their slice
  // of the twiddle diagonal. A2A-3 writes `out`, which may be `in`, so its
  // receiver r waits until A2A-1 has finished reading input slab r.
  const auto a2a1 = exchange_permute_mp(x, b, m_, p_, "A2A-1")
                        .submit(graph, lanes, fabric_, [](int, int) { return kNoGate; });
  std::vector<std::vector<exec::TaskId>> fftm((std::size_t)g_);
  std::vector<exec::TaskId> war((std::size_t)g_);
  for (int r = 0; r < g_; ++r) {
    const exec::TaskId join =
        submit_join(graph, lanes, r, "a2a1-join", a2a1.arrived[(std::size_t)r]);
    Cx* rows = b[(std::size_t)r];
    const Cx* tw = twiddle_.data() + r * slab;
    fftm[(std::size_t)r] = submit_phase(
        graph, lanes, r, "fftm", "fft", pg, ncm, {join}, [this, rows, tw](index_t lo, index_t hi) {
          {
            FMMFFT_SPAN("DFFT-M");
            plan_m_.execute_batched(rows + lo * m_, hi - lo, fft::Direction::Forward);
          }
          FMMFFT_SPAN("DFFT-TW");
          for (index_t i = lo * m_; i < hi * m_; ++i) rows[i] *= tw[i];
        });
    war[(std::size_t)r] = submit_join(graph, lanes, r, "a2a1-read", a2a1.reads[(std::size_t)r]);
  }

  // (2) M-major -> P-major (A2A-2), then M/G FFTs of size P per device.
  const auto a2a2 = exchange_permute_mp(b, a, p_, m_, "A2A-2", ncm)
                        .submit(graph, lanes, fabric_, [&](int s, int c) {
                          return fftm[(std::size_t)s][(std::size_t)c];
                        });
  std::vector<std::vector<exec::TaskId>> fftp((std::size_t)g_);
  for (int r = 0; r < g_; ++r) {
    const exec::TaskId join =
        submit_join(graph, lanes, r, "a2a2-join", a2a2.arrived[(std::size_t)r]);
    Cx* rows = a[(std::size_t)r];
    fftp[(std::size_t)r] = submit_phase(graph, lanes, r, "fftp", "fft", mg, ncp, {join},
                                        [this, rows](index_t lo, index_t hi) {
                                          FMMFFT_SPAN("DFFT-P");
                                          plan_p_.execute_batched(rows + lo * p_, hi - lo,
                                                                  fft::Direction::Forward);
                                        });
  }

  // (3) P-major -> M-major (A2A-3) into the caller's output: in order.
  exchange_permute_mp(a, y, m_, p_, "A2A-3", ncp)
      .submit(graph, lanes, fabric_,
              [&](int s, int c) { return fftp[(std::size_t)s][(std::size_t)c]; }, war);
  graph.run();
}

template <typename T>
Dist2dFft<T>::Dist2dFft(index_t m, index_t p, int g)
    : m_((check_split(m, p, g), m)), p_(p), g_(g), fabric_(g), plan_m_(m), plan_p_(p) {
  for (int r = 0; r < g_; ++r) slabs_.emplace_back(m_ * p_ / g_);
}

template <typename T>
void Dist2dFft<T>::submit(exec::TaskGraph& graph, const exec::DeviceLanes& lanes,
                          std::complex<T>* out, sim::Fabric& fabric,
                          const std::vector<exec::TaskId>& filled,
                          const std::vector<exec::TaskId>& out_free) {
  using Cx = std::complex<T>;
  FMMFFT_CHECK((int)filled.size() == g_ && (int)out_free.size() == g_);
  const index_t mg = m_ / g_, pg = p_ / g_, slab = m_ * p_ / g_;
  const index_t nc = phase_chunks(g_, mg);
  auto in = buffer_ptrs(slabs_);
  std::vector<Cx*> y;
  for (int r = 0; r < g_; ++r) y.push_back(out + r * slab);

  // (a) Row FFTs over chunks of each device's contiguous p-major rows.
  std::vector<std::vector<exec::TaskId>> fftp((std::size_t)g_);
  for (int r = 0; r < g_; ++r) {
    Cx* rows = in[(std::size_t)r];
    fftp[(std::size_t)r] = submit_phase(graph, lanes, r, "fftp", "fft", mg, nc,
                                        {filled[(std::size_t)r]},
                                        [this, rows](index_t lo, index_t hi) {
                                          FMMFFT_SPAN("2DFFT-P");
                                          plan_p_.execute_batched(rows + lo * p_, hi - lo,
                                                                  fft::Direction::Forward);
                                        });
  }

  // (b) The single all-to-all, chunk-pipelined and fused: each pair's
  // chunk scatters straight into the receiver's slab of `out` as soon as
  // the row FFT that produced its rows is done and the receiver's slab is
  // free, and chunks overlap freely (disjoint receiver regions).
  const auto a2a = exchange_permute_mp(in, y, m_, p_, "A2A-2D", nc)
                       .submit(graph, lanes, fabric,
                               [&](int s, int c) { return fftp[(std::size_t)s][(std::size_t)c]; },
                               out_free);

  // (c) Column FFTs per device in `out` once every fragment has arrived.
  for (int r = 0; r < g_; ++r) {
    const exec::TaskId join =
        submit_join(graph, lanes, r, "a2a-join", a2a.arrived[(std::size_t)r]);
    Cx* cols = y[(std::size_t)r];
    submit_phase(graph, lanes, r, "fftm", "fft", pg, nc, {join},
                 [this, cols](index_t lo, index_t hi) {
                   FMMFFT_SPAN("2DFFT-M");
                   plan_m_.execute_batched(cols + lo * m_, hi - lo, fft::Direction::Forward);
                 });
  }
}

// Per-device tasks load the input slabs; out's slab r is free once load r
// has read in's slab r, so in == out is safe.
template <typename T>
void Dist2dFft<T>::execute(const std::complex<T>* in, std::complex<T>* out) {
  const index_t elems = m_ * p_ / g_;
  exec::DeviceLanes lanes(g_);
  exec::TaskGraph graph(lanes.count());
  graph.name_lanes(lanes);
  std::vector<exec::TaskId> load;
  for (int r = 0; r < g_; ++r)
    load.push_back(graph.submit("load d" + std::to_string(r),
                                {lanes.compute(r), /*ordered=*/true, "fft"},
                                [dst = slab(r), src = in + r * elems, elems] {
                                  std::memcpy(dst, src, sizeof(*src) * (std::size_t)elems);
                                }));
  submit(graph, lanes, out, fabric_, load, load);
  graph.run();
}

template class DistFft1d<float>;
template class DistFft1d<double>;
template class Dist2dFft<float>;
template class Dist2dFft<double>;

}  // namespace fmmfft::dist
