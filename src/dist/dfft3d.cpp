#include "dist/dfft3d.hpp"

#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/math.hpp"
#include "dist/collectives.hpp"
#include "obs/obs.hpp"

namespace fmmfft::dist {
template <typename T>
Dist3dFft<T>::Dist3dFft(index_t n0, index_t n1, index_t n2, int g, model::Decomp decomp,
                        model::GridShape grid)
    : n0_(n0), n1_(n1), n2_(n2), g_(g), fabric_(g), plan0_(n0), plan1_(n1), plan2_(n2) {
  FMMFFT_CHECK_MSG(is_pow2(n0) && is_pow2(n1) && is_pow2(n2),
                   "3D FFT extents must be powers of two");
  FMMFFT_CHECK_MSG(g >= 1, "need at least one device");
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
// Host staging. Residency placement, not fabric traffic (as in DistFft1d).

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

  // Per-chunk fft0 → reorient → fft1 over each device's local i2 planes.
  std::vector<std::vector<exec::TaskId>> fft1((std::size_t)g_), trans((std::size_t)g_);
  for (int r = 0; r < g_; ++r)
    for (index_t c = 0; c < nc; ++c) {
      const auto [lo, hi] = chunk_range(n2g, nc, c);
      if (lo >= hi) break;
      Cx* ap = a[(std::size_t)r] + lo * plane;
      Cx* bp = b[(std::size_t)r] + lo * plane;
      const index_t planes = hi - lo;
      const exec::TaskId f0 = graph.submit(
          "fft0 d" + std::to_string(r) + " c" + std::to_string(c),
          {lanes.compute(r), /*ordered=*/false, "fft"},
          [this, ap, planes] {
            FMMFFT_SPAN("3DFFT-0");
            plan0_.execute_batched(ap, planes * n1_, fft::Direction::Forward);
          },
          {});
      const exec::TaskId tr = graph.submit(
          "t01 d" + std::to_string(r) + " c" + std::to_string(c),
          {lanes.compute(r), /*ordered=*/false, "transpose"},
          [this, ap, bp, planes, plane] {
            // Local reorientation to i1-fastest, one plane at a time.
            FMMFFT_SPAN("3DFFT-T01");
            for (index_t t = 0; t < planes; ++t)
              transpose_blocked(ap + t * plane, bp + t * plane, n0_, n1_);
          },
          {f0});
      trans[(std::size_t)r].push_back(tr);
      fft1[(std::size_t)r].push_back(graph.submit(
          "fft1 d" + std::to_string(r) + " c" + std::to_string(c),
          {lanes.compute(r), /*ordered=*/false, "fft"},
          [this, bp, planes] {
            FMMFFT_SPAN("3DFFT-1");
            plan1_.execute_batched(bp, planes * n0_, fft::Direction::Forward);
          },
          {tr}));
    }

  // WAR gate: a pack scattering into device rr's A slab must wait until
  // rr's reorientation chunks have finished reading it.
  std::vector<exec::TaskId> war((std::size_t)g_);
  for (int r = 0; r < g_; ++r)
    war[(std::size_t)r] =
        graph.submit("t01-done d" + std::to_string(r),
                     {lanes.compute(r), /*ordered=*/false, "sync"}, [] {},
                     trans[(std::size_t)r]);

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
        graph.submit("a2a-join d" + std::to_string(r),
                     {lanes.compute(r), /*ordered=*/false, "sync"}, [] {},
                     a2a.arrived[(std::size_t)r]);
    std::vector<exec::TaskId> fft2;
    for (index_t c = 0; c < nc; ++c) {
      const auto [lo, hi] = chunk_range(pg01, nc, c);
      if (lo >= hi) break;
      Cx* base = a[(std::size_t)r] + lo * n2_;
      const index_t lines = hi - lo;
      fft2.push_back(graph.submit(
          "fft2 d" + std::to_string(r) + " c" + std::to_string(c),
          {lanes.compute(r), /*ordered=*/false, "fft"},
          [this, base, lines] {
            FMMFFT_SPAN("3DFFT-2");
            plan2_.execute_batched(base, lines, fft::Direction::Forward);
          },
          {join}));
    }
    terminal[(std::size_t)r] =
        graph.submit("done d" + std::to_string(r),
                     {lanes.compute(r), /*ordered=*/false, "sync"}, [] {}, std::move(fft2));
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
  for (int d = 0; d < g_; ++d)
    for (index_t c = 0; c < nc; ++c) {
      const auto [lo, hi] = chunk_range(n2pr, nc, c);
      if (lo >= hi) break;
      Cx* base = a[(std::size_t)d] + lo * n0_ * n1pc;
      const index_t planes = hi - lo;
      fft0[(std::size_t)d].push_back(graph.submit(
          "fft0 d" + std::to_string(d) + " c" + std::to_string(c),
          {lanes.compute(d), /*ordered=*/false, "fft"},
          [this, base, planes, n1pc] {
            FMMFFT_SPAN("3DFFT-0");
            plan0_.execute_batched(base, planes * n1pc, fft::Direction::Forward);
          },
          {}));
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
  const index_t lines1 = n0pc * n2pr;
  for (int d = 0; d < g_; ++d) {
    const exec::TaskId row_join =
        graph.submit("row-join d" + std::to_string(d),
                     {lanes.compute(d), /*ordered=*/false, "sync"}, [] {},
                     row.arrived[(std::size_t)d]);
    std::vector<exec::TaskId> fft1;
    for (index_t c = 0; c < nc; ++c) {
      const auto [lo, hi] = chunk_range(lines1, nc, c);
      if (lo >= hi) break;
      Cx* base = b[(std::size_t)d] + lo * n1_;
      const index_t lines = hi - lo;
      fft1.push_back(graph.submit(
          "fft1 d" + std::to_string(d) + " c" + std::to_string(c),
          {lanes.compute(d), /*ordered=*/false, "fft"},
          [this, base, lines] {
            FMMFFT_SPAN("3DFFT-1");
            plan1_.execute_batched(base, lines, fft::Direction::Forward);
          },
          {row_join}));
    }
    fft1_join[(std::size_t)d] =
        graph.submit("fft1-join d" + std::to_string(d),
                     {lanes.compute(d), /*ordered=*/false, "sync"}, [] {}, std::move(fft1));
    war[(std::size_t)d] = graph.submit("row-read-done d" + std::to_string(d),
                                       {lanes.compute(d), /*ordered=*/false, "sync"}, [] {},
                                       row.reads[(std::size_t)d]);
  }

  // (d) Column-phase packs: one fused pair message (i,jj) → (ii,jj); the
  // column transpose reads i0-strided lines of the whole y-pencil, so it
  // waits on the sender's fft1 join and the receiver's WAR gate.
  const auto col = exchange_pencil3d_col(b, a, n0_, n1_, n2_, grid_)
                       .submit(graph, lanes, fabric_,
                               [&](int t, int) { return fft1_join[(std::size_t)t]; }, war);

  // (e) fft2 chunks on the z-pencils.
  std::vector<exec::TaskId> terminal((std::size_t)g_);
  const index_t lines2 = n0pc * n1pr;
  for (int d = 0; d < g_; ++d) {
    const exec::TaskId join =
        graph.submit("col-join d" + std::to_string(d),
                     {lanes.compute(d), /*ordered=*/false, "sync"}, [] {},
                     col.arrived[(std::size_t)d]);
    std::vector<exec::TaskId> fft2;
    for (index_t c = 0; c < nc; ++c) {
      const auto [lo, hi] = chunk_range(lines2, nc, c);
      if (lo >= hi) break;
      Cx* base = a[(std::size_t)d] + lo * n2_;
      const index_t lines = hi - lo;
      fft2.push_back(graph.submit(
          "fft2 d" + std::to_string(d) + " c" + std::to_string(c),
          {lanes.compute(d), /*ordered=*/false, "fft"},
          [this, base, lines] {
            FMMFFT_SPAN("3DFFT-2");
            plan2_.execute_batched(base, lines, fft::Direction::Forward);
          },
          {join}));
    }
    terminal[(std::size_t)d] =
        graph.submit("done d" + std::to_string(d),
                     {lanes.compute(d), /*ordered=*/false, "sync"}, [] {}, std::move(fft2));
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
