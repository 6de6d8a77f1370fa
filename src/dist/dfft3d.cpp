#include "dist/dfft3d.hpp"

#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/math.hpp"
#include "dist/collectives.hpp"
#include "obs/obs.hpp"

namespace fmmfft::dist {
namespace {

// Checked before any member is built from them: the FFT plans would reject
// a zero extent and the fabric a zero G with their own rules.
void check_3d(index_t n0, index_t n1, index_t n2, int g) {
  FMMFFT_CHECK_MSG(is_pow2(n0) && is_pow2(n1) && is_pow2(n2),
                   "3D FFT extents must be powers of two");
  FMMFFT_CHECK_MSG(g >= 1, "need at least one device, got G=" << g);
}

}  // namespace

template <typename T>
Dist3dFft<T>::Dist3dFft(index_t n0, index_t n1, index_t n2, int g, model::Decomp decomp,
                        model::GridShape grid)
    : n0_((check_3d(n0, n1, n2, g), n0)),
      n1_(n1),
      n2_(n2),
      g_(g),
      fabric_(g),
      plan0_(n0),
      plan1_(n1),
      plan2_(n2) {
  const DecompChoice choice = resolve_decomp_3d(g, n0, n1, n2, decomp, grid);
  decomp_ = choice.decomp;
  grid_ = choice.grid;
  decision_ = choice.decision;
  const index_t local = n0_ * n1_ * n2_ / g_;
  for (int r = 0; r < g_; ++r) {
    buf_a_.emplace_back(local);
    buf_b_.emplace_back(local);
  }
}

// ---------------------------------------------------------------------------
// Host staging. Residency placement, not fabric traffic.

template <typename T>
void Dist3dFft<T>::scatter(const std::complex<T>* in) {
  using Cx = std::complex<T>;
  if (decomp_ == model::Decomp::Slab) {
    const index_t slab = n0_ * n1_ * n2_ / g_;
    for (int r = 0; r < g_; ++r)
      std::memcpy(buf_a_[(std::size_t)r].data(), in + r * slab, sizeof(Cx) * slab);
    return;
  }
  // x-pencils: device (i, j) holds all i0, i1-block j, i2-block i.
  const index_t n1pc = n1_ / grid_.pc, n2pr = n2_ / grid_.pr;
  for (int d = 0; d < g_; ++d) {
    const int i = grid_.row_of(d), j = grid_.col_of(d);
    Cx* dst = buf_a_[(std::size_t)d].data();
    for (index_t i2 = 0; i2 < n2pr; ++i2)
      for (index_t i1 = 0; i1 < n1pc; ++i1)
        std::memcpy(dst + n0_ * (i1 + n1pc * i2),
                    in + n0_ * ((j * n1pc + i1) + n1_ * (i * n2pr + i2)),
                    sizeof(Cx) * (std::size_t)n0_);
  }
}

template <typename T>
void Dist3dFft<T>::gather(std::complex<T>* out) const {
  using Cx = std::complex<T>;
  if (decomp_ == model::Decomp::Slab) {
    // After the global exchange device r owns the μ = i1 + n1·i0 range
    // [r·(n0·n1/G), ...) in z[i2 + n2·μ] order — one contiguous block.
    const index_t slab = n0_ * n1_ * n2_ / g_;
    for (int r = 0; r < g_; ++r)
      std::memcpy(out + r * slab, buf_a_[(std::size_t)r].data(), sizeof(Cx) * slab);
    return;
  }
  // z-pencils: device (ii, jj) holds all i2, i1-block ii, i0-block jj.
  const index_t n0pc = n0_ / grid_.pc, n1pr = n1_ / grid_.pr;
  for (int d = 0; d < g_; ++d) {
    const int ii = grid_.row_of(d), jj = grid_.col_of(d);
    const Cx* src = buf_a_[(std::size_t)d].data();
    for (index_t i0 = 0; i0 < n0pc; ++i0)
      for (index_t i1 = 0; i1 < n1pr; ++i1)
        std::memcpy(out + n2_ * ((ii * n1pr + i1) + n1_ * (jj * n0pc + i0)),
                    src + n2_ * (i1 + n1pr * i0), sizeof(Cx) * (std::size_t)n2_);
  }
}

// ---------------------------------------------------------------------------
// Task graphs.

template <typename T>
std::vector<exec::TaskId> Dist3dFft<T>::submit_slab(exec::TaskGraph& graph,
                                                    const exec::DeviceLanes& lanes) {
  using Cx = std::complex<T>;
  auto a = buffer_ptrs(buf_a_);
  auto b = buffer_ptrs(buf_b_);
  const index_t n2g = n2_ / g_, plane = n0_ * n1_, pg01 = plane / g_;
  const index_t nc = phase_chunks(g_, n2g);

  // fft0 → reorient → fft1 over chunks of each device's local i2 planes,
  // chained chunk by chunk.
  std::vector<std::vector<exec::TaskId>> fft1((std::size_t)g_), trans((std::size_t)g_);
  for (int r = 0; r < g_; ++r) {
    Cx* ap = a[(std::size_t)r];
    Cx* bp = b[(std::size_t)r];
    const auto f0 = submit_phase(graph, lanes, r, "fft0", "fft", n2g, nc, {},
                                 [this, ap, plane](index_t lo, index_t hi) {
                                   FMMFFT_SPAN("3DFFT-0");
                                   plan0_.execute_batched(ap + lo * plane, (hi - lo) * n1_,
                                                          fft::Direction::Forward);
                                 });
    trans[(std::size_t)r] = submit_phase(
        graph, lanes, r, "t01", "transpose", n2g, nc, {},
        [this, ap, bp, plane](index_t lo, index_t hi) {
          // Local reorientation to i1-fastest, one plane at a time.
          FMMFFT_SPAN("3DFFT-T01");
          for (index_t t = lo; t < hi; ++t)
            transpose_blocked(ap + t * plane, bp + t * plane, n0_, n1_);
        },
        f0);
    fft1[(std::size_t)r] = submit_phase(graph, lanes, r, "fft1", "fft", n2g, nc, {},
                                        [this, bp, plane](index_t lo, index_t hi) {
                                          FMMFFT_SPAN("3DFFT-1");
                                          plan1_.execute_batched(bp + lo * plane,
                                                                 (hi - lo) * n0_,
                                                                 fft::Direction::Forward);
                                        },
                                        trans[(std::size_t)r]);
  }

  // WAR gate: a pack scattering into device rr's A slab must wait until
  // rr's reorientation chunks have finished reading it.
  std::vector<exec::TaskId> war((std::size_t)g_);
  for (int r = 0; r < g_; ++r)
    war[(std::size_t)r] = submit_join(graph, lanes, r, "t01-done", trans[(std::size_t)r]);

  // The one G-wide exchange, chunk-pipelined exactly like Dist2dFft: a
  // chunk's fused scatter waits only on the fft1 chunk that produced its
  // planes (plus the receiver's WAR gate); the pair's link lane carries
  // the accounting task.
  const auto a2a = exchange_permute_mp(b, a, n2_, plane, "A2A-3D", nc)
                       .submit(graph, lanes, fabric_,
                               [&](int r, int c) { return fft1[(std::size_t)r][(std::size_t)c]; },
                               war);

  // fft2 per device once its whole z slab has arrived.
  std::vector<exec::TaskId> terminal((std::size_t)g_);
  for (int r = 0; r < g_; ++r) {
    const exec::TaskId join =
        submit_join(graph, lanes, r, "a2a-join", a2a.arrived[(std::size_t)r]);
    Cx* ap = a[(std::size_t)r];
    auto fft2 = submit_phase(graph, lanes, r, "fft2", "fft", pg01, nc, {join},
                             [this, ap](index_t lo, index_t hi) {
                               FMMFFT_SPAN("3DFFT-2");
                               plan2_.execute_batched(ap + lo * n2_, hi - lo,
                                                      fft::Direction::Forward);
                             });
    terminal[(std::size_t)r] = submit_join(graph, lanes, r, "done", std::move(fft2));
  }
  return terminal;
}

template <typename T>
std::vector<exec::TaskId> Dist3dFft<T>::submit_pencil(exec::TaskGraph& graph,
                                                      const exec::DeviceLanes& lanes) {
  using Cx = std::complex<T>;
  auto a = buffer_ptrs(buf_a_);
  auto b = buffer_ptrs(buf_b_);
  const int pr = grid_.pr, pc = grid_.pc;
  const index_t n0pc = n0_ / pc, n1pc = n1_ / pc, n1pr = n1_ / pr, n2pr = n2_ / pr;
  const index_t nc = phase_chunks(g_, n2pr);

  // (a) fft0 chunks over local i2 planes of the x-pencils.
  std::vector<std::vector<exec::TaskId>> fft0((std::size_t)g_);
  for (int d = 0; d < g_; ++d) {
    Cx* ad = a[(std::size_t)d];
    fft0[(std::size_t)d] = submit_phase(graph, lanes, d, "fft0", "fft", n2pr, nc, {},
                                        [this, ad, n1pc](index_t lo, index_t hi) {
                                          FMMFFT_SPAN("3DFFT-0");
                                          plan0_.execute_batched(ad + lo * n0_ * n1pc,
                                                                 (hi - lo) * n1pc,
                                                                 fft::Direction::Forward);
                                        });
  }

  // (b) Row-phase packs, chunked over the same i2 planes so a pair's first
  // chunks ship while the sender's remaining fft0 chunks still run.
  const auto row = exchange_pencil3d_row(a, b, n0_, n1_, n2_, grid_, nc)
                       .submit(graph, lanes, fabric_, [&](int s, int c) {
                         return fft0[(std::size_t)s][(std::size_t)c];
                       });

  // (c) fft1 chunks on the y-pencils once every row fragment arrived, plus
  // the WAR gate for the column phase scattering back into the A buffers.
  std::vector<exec::TaskId> fft1_join((std::size_t)g_), war((std::size_t)g_);
  for (int d = 0; d < g_; ++d) {
    const exec::TaskId row_join =
        submit_join(graph, lanes, d, "row-join", row.arrived[(std::size_t)d]);
    Cx* bd = b[(std::size_t)d];
    auto fft1 = submit_phase(graph, lanes, d, "fft1", "fft", n0pc * n2pr, nc, {row_join},
                             [this, bd](index_t lo, index_t hi) {
                               FMMFFT_SPAN("3DFFT-1");
                               plan1_.execute_batched(bd + lo * n1_, hi - lo,
                                                      fft::Direction::Forward);
                             });
    fft1_join[(std::size_t)d] = submit_join(graph, lanes, d, "fft1-join", std::move(fft1));
    war[(std::size_t)d] =
        submit_join(graph, lanes, d, "row-read-done", row.reads[(std::size_t)d]);
  }

  // (d) Column-phase packs: one fused pair message (i,jj) → (ii,jj); the
  // column transpose reads i0-strided lines of the whole y-pencil, so it
  // waits on the sender's fft1 join and the receiver's WAR gate.
  const auto col = exchange_pencil3d_col(b, a, n0_, n1_, n2_, grid_)
                       .submit(graph, lanes, fabric_,
                               [&](int t, int) { return fft1_join[(std::size_t)t]; }, war);

  // (e) fft2 chunks on the z-pencils.
  std::vector<exec::TaskId> terminal((std::size_t)g_);
  for (int d = 0; d < g_; ++d) {
    const exec::TaskId join =
        submit_join(graph, lanes, d, "col-join", col.arrived[(std::size_t)d]);
    Cx* ad = a[(std::size_t)d];
    auto fft2 = submit_phase(graph, lanes, d, "fft2", "fft", n0pc * n1pr, nc, {join},
                             [this, ad](index_t lo, index_t hi) {
                               FMMFFT_SPAN("3DFFT-2");
                               plan2_.execute_batched(ad + lo * n2_, hi - lo,
                                                      fft::Direction::Forward);
                             });
    terminal[(std::size_t)d] = submit_join(graph, lanes, d, "done", std::move(fft2));
  }
  return terminal;
}

template <typename T>
void Dist3dFft<T>::execute(const std::complex<T>* in, std::complex<T>* out) {
  scatter(in);
  exec::DeviceLanes lanes(g_);
  exec::TaskGraph graph(lanes.count());
  graph.name_lanes(lanes);
  if (decomp_ == model::Decomp::Slab)
    submit_slab(graph, lanes);
  else
    submit_pencil(graph, lanes);
  graph.run();
  gather(out);
}

template class Dist3dFft<float>;
template class Dist3dFft<double>;

}  // namespace fmmfft::dist
