#include "dist/dfft3d.hpp"

#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/threadpool.hpp"
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
// Task graphs, input to output. Each device's first task loads its slab or
// x-pencils from `in` (residency placement, not fabric traffic); the last
// exchange scatters into `out` and the last FFT pass runs there. Writes
// into `out` wait on every load that reads the region they overwrite, so
// in == out is safe.

template <typename T>
void Dist3dFft<T>::submit_slab(exec::TaskGraph& graph, const exec::DeviceLanes& lanes,
                               const std::complex<T>* in, std::complex<T>* out) {
  using Cx = std::complex<T>;
  auto a = buffer_ptrs(buf_a_);
  auto b = buffer_ptrs(buf_b_);
  const index_t n2g = n2_ / g_, plane = n0_ * n1_, pg01 = plane / g_, slab = plane * n2g;
  const index_t nc = phase_chunks(g_, n2g);

  // load → fft0 → reorient → fft1 over chunks of each device's local i2
  // planes, chained chunk by chunk.
  std::vector<exec::TaskId> load((std::size_t)g_);
  std::vector<std::vector<exec::TaskId>> fft1((std::size_t)g_);
  std::vector<Cx*> z;
  for (int r = 0; r < g_; ++r) {
    Cx* ap = a[(std::size_t)r];
    Cx* bp = b[(std::size_t)r];
    z.push_back(out + r * slab);
    load[(std::size_t)r] = graph.submit(
        "load d" + std::to_string(r), {lanes.compute(r), /*ordered=*/true, "fft"},
        [ap, src = in + r * slab, slab] { std::memcpy(ap, src, sizeof(Cx) * (std::size_t)slab); });
    const auto f0 = submit_phase(graph, lanes, r, "fft0", "fft", n2g, nc, {load[(std::size_t)r]},
                                 [this, ap, plane](index_t lo, index_t hi) {
                                   FMMFFT_SPAN("3DFFT-0");
                                   plan0_.execute_batched(ap + lo * plane, (hi - lo) * n1_,
                                                          fft::Direction::Forward);
                                 });
    const auto trans = submit_phase(
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
                                        trans);
  }

  // The one G-wide exchange into `out`, chunk-pipelined exactly like
  // Dist2dFft: a chunk's fused scatter waits on the fft1 chunk that
  // produced its planes and on the receiver's load, the one task reading
  // that slab of `in`; the pair's link lane carries the accounting task.
  // Device r then owns the μ = i1 + n1·i0 range [r·(n0·n1/G), ...) in
  // z[i2 + n2·μ] order: one contiguous slab of `out`.
  const auto a2a = exchange_permute_mp(b, z, n2_, plane, "A2A-3D", nc)
                       .submit(graph, lanes, fabric_,
                               [&](int r, int c) { return fft1[(std::size_t)r][(std::size_t)c]; },
                               load);

  // fft2 per device in `out` once its whole z slab has arrived.
  for (int r = 0; r < g_; ++r) {
    const exec::TaskId join =
        submit_join(graph, lanes, r, "a2a-join", a2a.arrived[(std::size_t)r]);
    submit_phase(graph, lanes, r, "fft2", "fft", pg01, nc, {join},
                 [this, zr = z[(std::size_t)r]](index_t lo, index_t hi) {
                   FMMFFT_SPAN("3DFFT-2");
                   plan2_.execute_batched(zr + lo * n2_, hi - lo, fft::Direction::Forward);
                 });
  }
}

template <typename T>
void Dist3dFft<T>::submit_pencil(exec::TaskGraph& graph, const exec::DeviceLanes& lanes,
                                 const std::complex<T>* in, std::complex<T>* out) {
  using Cx = std::complex<T>;
  auto a = buffer_ptrs(buf_a_);
  auto b = buffer_ptrs(buf_b_);
  const int pr = grid_.pr, pc = grid_.pc;
  const index_t n0pc = n0_ / pc, n1pc = n1_ / pc, n1pr = n1_ / pr, n2pr = n2_ / pr;
  const index_t nc = phase_chunks(g_, n2pr);

  // (a) Load the x-pencils (device (i, j) holds all i0 of i1-block j,
  // i2-block i) line by line, then fft0 chunks over their local i2 planes.
  std::vector<exec::TaskId> load((std::size_t)g_);
  std::vector<std::vector<exec::TaskId>> fft0((std::size_t)g_);
  for (int d = 0; d < g_; ++d) {
    Cx* ad = a[(std::size_t)d];
    const Cx* src = in + n0_ * (grid_.col_of(d) * n1pc + n1_ * grid_.row_of(d) * n2pr);
    load[(std::size_t)d] = graph.submit(
        "load d" + std::to_string(d), {lanes.compute(d), /*ordered=*/true, "fft"},
        [this, ad, src, n1pc, n2pr] {
          for (index_t i2 = 0; i2 < n2pr; ++i2)
            for (index_t i1 = 0; i1 < n1pc; ++i1)
              std::memcpy(ad + n0_ * (i1 + n1pc * i2), src + n0_ * (i1 + n1_ * i2),
                          sizeof(Cx) * (std::size_t)n0_);
        });
    fft0[(std::size_t)d] = submit_phase(graph, lanes, d, "fft0", "fft", n2pr, nc,
                                        {load[(std::size_t)d]},
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

  // (c) fft1 chunks on the y-pencils once every row fragment arrived.
  std::vector<exec::TaskId> fft1_join((std::size_t)g_);
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
  }

  // (d) Column-phase packs: one fused pair message (i,jj) → (ii,jj) that
  // writes its z-pencil lines straight into `out`. The column transpose
  // reads i0-strided lines of the whole y-pencil, so it waits on the
  // sender's fft1 join, and the lines it writes may be any load's input
  // lines, so it also waits on a join of every load.
  const exec::TaskId loaded = submit_join(graph, lanes, 0, "load-join", load);
  const auto col = exchange_pencil3d_col(b, out, n0_, n1_, n2_, grid_)
                       .submit(graph, lanes, fabric_,
                               [&](int t, int) { return fft1_join[(std::size_t)t]; },
                               std::vector<exec::TaskId>((std::size_t)g_, loaded));

  // (e) fft2 chunks on the z-pencils in `out`: device (ii, jj)'s are n1/pr
  // contiguous lines per local i0, n1·n2 apart. The chunks split the local
  // i0 blocks, and each chunk's blocks split across the pool (a plain loop
  // inside a pool task), so a graph drained on one thread still runs the
  // small per-block batches in parallel.
  for (int d = 0; d < g_; ++d) {
    const exec::TaskId join =
        submit_join(graph, lanes, d, "col-join", col.arrived[(std::size_t)d]);
    Cx* zd = out + n2_ * (grid_.row_of(d) * n1pr + n1_ * grid_.col_of(d) * n0pc);
    submit_phase(graph, lanes, d, "fft2", "fft", n0pc, nc, {join},
                 [this, zd, n1pr](index_t lo, index_t hi) {
                   FMMFFT_SPAN("3DFFT-2");
                   parallel_for(
                       hi - lo,
                       [&](index_t b0, index_t b1) {
                         for (index_t i0 = lo + b0; i0 < lo + b1; ++i0)
                           plan2_.execute_batched(zd + i0 * n1_ * n2_, n1pr,
                                                  fft::Direction::Forward);
                       },
                       /*grain=*/1);
                 });
  }
}

template <typename T>
void Dist3dFft<T>::execute(const std::complex<T>* in, std::complex<T>* out) {
  exec::DeviceLanes lanes(g_);
  exec::TaskGraph graph(lanes.count());
  graph.name_lanes(lanes);
  if (decomp_ == model::Decomp::Slab)
    submit_slab(graph, lanes, in, out);
  else
    submit_pencil(graph, lanes, in, out);
  graph.run();
}

template class Dist3dFft<float>;
template class Dist3dFft<double>;

}  // namespace fmmfft::dist
