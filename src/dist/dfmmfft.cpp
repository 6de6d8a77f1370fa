#include "dist/dfmmfft.hpp"

#include <string>

#include "common/error.hpp"
#include "core/shell.hpp"
#include "dist/collectives.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::dist {

// prm is validated before any member is built from it: fft2d_ divides by P.
template <typename InT>
DistFmmFft<InT>::DistFmmFft(const fmm::Params& prm, int g, fmm::Precision prec)
    : prm_((prm.validate_distributed(g), prm)),
      g_(g),
      c_(components_v<InT>),
      prec_(prec),
      fabric_(g),
      fft2d_(prm.m(), prm.p, g),
      rho_(core::rho_table<Real>(prm)) {
  const bool mixed = prec_ == fmm::Precision::Mixed && sizeof(Real) == 8;
  for (int r = 0; r < g_; ++r) {
    if (mixed)
      engines32_.push_back(std::make_unique<fmm::Engine<float>>(prm_, c_, g_, r));
    else
      engines_.push_back(std::make_unique<fmm::Engine<Real>>(prm_, c_, g_, r));
  }
}

template <typename InT>
template <typename ER>
void DistFmmFft<InT>::post_slab_t(int r) {
  // POST fused with the 2D-FFT load (§4.9 line 15): slab element
  // n = p + P·mg with mg in rank r's range, into the 2D FFT's input slab.
  FMMFFT_SPAN("POST");
  const index_t slab_n = prm_.n / g_;
  // Streams T once (c_ engine reals per element) and writes the complex
  // shell-width slab; the tiny rho/reduction tables are excluded like the
  // FMM operator tables.
  FMMFFT_TRAFFIC_RW("post", double(c_) * double(slab_n) * sizeof(ER),
                    2.0 * double(slab_n) * sizeof(Real), 0);
  const auto& e = *eset<ER>()[(std::size_t)r];
  core::post_rows<InT>(e.target_box(0), e.reduction(), rho_, prm_.p, slab_n / prm_.p,
                       fft2d_.slab(r));
}

namespace detail {

template <typename ER>
using Engines = std::vector<std::unique_ptr<fmm::Engine<ER>>>;

/// Cyclic halo of `width` boxes on each side of every engine's `nb`
/// interior boxes; box(e, k) addresses box k of engine e.
template <typename ER, typename Box>
Exchange<ER> halo_ring(const Engines<ER>& es, index_t nb, index_t width, index_t elems, Box box,
                       const std::string& tag) {
  std::vector<const ER*> lo_src, hi_src;
  std::vector<ER*> lo_dst, hi_dst;
  for (auto& e : es) {
    lo_src.push_back(box(*e, 0));
    hi_src.push_back(box(*e, nb - width));
    lo_dst.push_back(box(*e, -width));
    hi_dst.push_back(box(*e, nb));
  }
  return exchange_halo_ring(lo_src, hi_src, lo_dst, hi_dst, elems, tag);
}

/// COMM S: one leaf box to each neighbour, cyclic (§4.2).
template <typename ER>
Exchange<ER> source_halos(const Engines<ER>& es) {
  return halo_ring(es, es[0]->local_leaves(), 1, es[0]->source_box_elems(),
                   [](fmm::Engine<ER>& e, index_t k) { return e.source_box(k); }, "COMM-S");
}

/// COMM Mℓ: two expansion boxes of level ℓ to each neighbour (§4.2).
template <typename ER>
Exchange<ER> multipole_halos(const Engines<ER>& es, int level) {
  return halo_ring(es, es[0]->local_boxes(level), 2, 2 * es[0]->expansion_box_elems(),
                   [level](fmm::Engine<ER>& e, index_t k) { return e.multipole_box(level, k); },
                   "COMM-M" + std::to_string(level));
}

/// COMM M_B: allgather of the base-level multipoles (§4.7); each engine's
/// own slab already sits in place in its full base level.
template <typename ER>
Exchange<ER> base_allgather(const Engines<ER>& es, int base) {
  std::vector<const ER*> src;
  std::vector<ER*> dst;
  for (auto& e : es) {
    src.push_back(e->multipole_box(base, e->box_offset(base)));
    dst.push_back(e->multipole_box(base, 0));
  }
  return exchange_allgather(src, dst, es[0]->local_boxes(base) * es[0]->expansion_box_elems(),
                            "COMM-MB");
}

}  // namespace detail

template <typename InT>
void DistFmmFft<InT>::execute(const InT* in, Out* out) {
  if (!engines32_.empty())
    execute_t<float>(in, out);
  else
    execute_t<Real>(in, out);
}

template <typename InT>
template <typename ER>
void DistFmmFft<InT>::execute_t(const InT* in, Out* out) {
  // The native twin of dist::fmmfft_schedule: every engine stage becomes an
  // ordered task on its device's compute lane (so each engine executes its
  // stages in Algorithm 1's order — the bit-identity invariant), and every
  // exchange is submitted gated only by the tasks that produced its
  // payload. On the pool, device compute then overlaps both neighbouring
  // devices' stages and in-flight copies.
  const index_t slab_n = prm_.n / g_;
  const int l = prm_.l(), b = prm_.b;
  auto& es = eset<ER>();
  exec::DeviceLanes lanes(g_);
  exec::TaskGraph graph(lanes.count());
  graph.name_lanes(lanes);
  auto dev = [](const std::string& what, int r) { return what + " d" + std::to_string(r); };

  // LOAD: slab r is engine r's S interior.
  std::vector<exec::TaskId> load((std::size_t)g_);
  for (int r = 0; r < g_; ++r) {
    auto* e = es[(std::size_t)r].get();
    const InT* src = in + r * slab_n;
    load[(std::size_t)r] = graph.submit(
        dev("load", r), {lanes.compute(r), /*ordered=*/true, "fmm"}, [e, src, slab_n] {
          e->reset_stats();
          e->zero();
          core::load_source(*e, src, slab_n);
        });
  }

  // COMM-S rides the link lanes while S2M runs: the halo boxes it writes
  // are disjoint from the interior S2M reads.
  const auto s_arrive = detail::source_halos(es).submit(
      graph, lanes, fabric_, [&](int r, int) { return load[(std::size_t)r]; });

  std::vector<exec::TaskId> s2m_id((std::size_t)g_);
  for (int r = 0; r < g_; ++r) {
    auto* e = es[(std::size_t)r].get();
    s2m_id[(std::size_t)r] = graph.submit(dev("s2m", r), {lanes.compute(r), /*ordered=*/true, "fmm"},
                                          [e] { e->s2m(); });
  }
  for (int r = 0; r < g_; ++r) {
    auto* e = es[(std::size_t)r].get();
    graph.submit(dev("s2t", r), {lanes.compute(r), /*ordered=*/true, "fmm"}, [e] { e->s2t(); },
                 s_arrive.arrived[(std::size_t)r]);
  }

  // M2M up-sweep; remember which task last wrote each multipole level so
  // the level's halo exchange can start the moment that level is built.
  std::vector<std::vector<exec::TaskId>> m2m_at((std::size_t)g_);  // per device, level l-1..b
  for (int lev = l - 1; lev >= b; --lev)
    for (int r = 0; r < g_; ++r) {
      auto* e = es[(std::size_t)r].get();
      m2m_at[(std::size_t)r].push_back(graph.submit(
          dev("m2m-" + std::to_string(lev), r), {lanes.compute(r), /*ordered=*/true, "fmm"},
          [e, lev] { e->m2m(lev); }));
    }
  auto level_writer = [&](int r, int lev) -> exec::TaskId {
    // Writer of M^lev on device r: S2M for the leaf level, else the M2M
    // that built lev (stored at index l-1-lev).
    if (lev == l) return s2m_id[(std::size_t)r];
    return m2m_at[(std::size_t)r][(std::size_t)(l - 1 - lev)];
  };

  // COMM-M per level, then the level's M2L once both halves arrived.
  for (int lev = l; lev > b; --lev) {
    const auto m_arrive = detail::multipole_halos(es, lev).submit(
        graph, lanes, fabric_, [&](int r, int) { return level_writer(r, lev); });
    for (int r = 0; r < g_; ++r) {
      auto* e = es[(std::size_t)r].get();
      graph.submit(dev("m2l-" + std::to_string(lev), r),
                   {lanes.compute(r), /*ordered=*/true, "fmm"}, [e, lev] { e->m2l_level(lev); },
                   m_arrive.arrived[(std::size_t)r]);
    }
  }

  // COMM-MB allgather (self-slab is already in place), then base M2L.
  const auto g_arrive = detail::base_allgather(es, b).submit(
      graph, lanes, fabric_, [&](int r, int) { return level_writer(r, b); });
  for (int r = 0; r < g_; ++r) {
    auto* e = es[(std::size_t)r].get();
    graph.submit(dev("m2l-b", r), {lanes.compute(r), /*ordered=*/true, "fmm"},
                 [e] { e->m2l_base(); }, g_arrive.arrived[(std::size_t)r]);
    graph.submit(dev("reduce", r), {lanes.compute(r), /*ordered=*/true, "fmm"},
                 [e] { e->reduce(); });
  }
  for (int lev = b; lev < l; ++lev)
    for (int r = 0; r < g_; ++r) {
      auto* e = es[(std::size_t)r].get();
      graph.submit(dev("l2l-" + std::to_string(lev), r),
                   {lanes.compute(r), /*ordered=*/true, "fmm"}, [e, lev] { e->l2l(lev); });
    }
  // POST writes device r's input slab of the distributed 2D FFT, which
  // rides the same graph and writes `out`. Its writes into out's slab r
  // wait on r's LOAD, the only task that reads that slab of `in`, so
  // in == out is safe.
  std::vector<exec::TaskId> post((std::size_t)g_);
  for (int r = 0; r < g_; ++r) {
    auto* e = es[(std::size_t)r].get();
    graph.submit(dev("l2t", r), {lanes.compute(r), /*ordered=*/true, "fmm"}, [e] { e->l2t(); });
    post[(std::size_t)r] = graph.submit(dev("post", r), {lanes.compute(r), /*ordered=*/true, "post"},
                                        [this, r] { post_slab_t<ER>(r); });
  }
  fft2d_.submit(graph, lanes, out, fabric_, post, load);
  graph.run();
}

template class DistFmmFft<float>;
template class DistFmmFft<double>;
template class DistFmmFft<std::complex<float>>;
template class DistFmmFft<std::complex<double>>;

}  // namespace fmmfft::dist
