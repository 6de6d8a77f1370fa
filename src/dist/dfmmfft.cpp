#include "dist/dfmmfft.hpp"

#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "dist/collectives.hpp"
#include "fmm/operators.hpp"
#include "obs/health.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::dist {

template <typename InT>
DistFmmFft<InT>::DistFmmFft(const fmm::Params& prm, int g, fmm::Precision prec)
    : prm_(prm),
      g_(g),
      c_(components_v<InT>),
      prec_(prec),
      fabric_(g),
      fft2d_(prm.m(), prm.p, g),
      rho_(static_cast<std::size_t>(prm.p)) {
  prm_.validate_distributed(g);
  const bool mixed = prec_ == fmm::Precision::Mixed && sizeof(Real) == 8;
  for (int r = 0; r < g_; ++r) {
    if (mixed)
      engines32_.push_back(std::make_unique<fmm::Engine<float>>(prm_, c_, g_, r));
    else
      engines_.push_back(std::make_unique<fmm::Engine<Real>>(prm_, c_, g_, r));
    slabs_.emplace_back(prm_.n / g_);
  }
  for (index_t p = 1; p < prm_.p; ++p) {
    auto r = fmm::rho(p, prm_.p, prm_.m());
    rho_[(std::size_t)p] = Out(Real(r.real()), Real(r.imag()));
  }
}

template <typename InT>
template <typename ER>
void DistFmmFft<InT>::post_slab_t(int r) {
  // POST fused with the 2D-FFT load (§4.9 line 15): slab element
  // n = p + P·mg with mg in rank r's range. Rows are independent
  // elementwise work, so the parallel_for split is bit-identical (and it
  // degrades to the plain loop inside an executor task). The T tensor is
  // read at the engine width ER and widened scalar-by-scalar; the rho
  // rotation and the slab it writes stay at the shell width.
  FMMFFT_SPAN("POST");
  const index_t slab_n = prm_.n / g_;
  // Streams T once (c_ engine reals per element) and writes the complex
  // shell-width slab; the tiny rho/reduction tables are excluded like the
  // FMM operator tables.
  FMMFFT_TRAFFIC_RW("post", double(c_) * double(slab_n) * sizeof(ER),
                    2.0 * double(slab_n) * sizeof(Real), 0);
  const index_t p_total = prm_.p;
  auto& es = eset<ER>();
  const ER* t = es[(std::size_t)r]->target_box(0);
  const ER* rr = es[(std::size_t)r]->reduction();
  Out* s = slabs_[(std::size_t)r].data();
  const index_t m_loc = slab_n / p_total;
  parallel_for(
      m_loc,
      [&](index_t mg_lo, index_t mg_hi) {
        for (index_t mg = mg_lo; mg < mg_hi; ++mg)
          for (index_t p = 0; p < p_total; ++p) {
            const index_t i = p + p_total * mg;
            Out tv;
            if (c_ == 2)
              tv = Out(Real(t[2 * i]), Real(t[2 * i + 1]));
            else
              tv = Out(Real(t[i]), 0);
            if (p == 0) {
              s[i] = tv;
            } else {
              const Out rp = c_ == 2 ? Out(Real(rr[2 * (p - 1)]), Real(rr[2 * (p - 1) + 1]))
                                     : Out(0, Real(rr[p - 1]));
              // For c == 1 rp already carries the i·r_p rotation.
              s[i] = rho_[(std::size_t)p] * (c_ == 2 ? tv + Out(0, 1) * rp : tv + rp);
            }
          }
      },
      /*grain=*/16);
}

namespace detail {

/// Device-resident load of slab r: same-width engines memcpy (the
/// bit-identity path); a narrower engine demotes elementwise.
template <typename InT, typename ER>
void load_slab(fmm::Engine<ER>& e, const InT* src, index_t slab_n) {
  using Real = real_of_t<InT>;
  if constexpr (std::is_same_v<ER, Real>) {
    std::memcpy(e.source_box(0), src, sizeof(InT) * static_cast<std::size_t>(slab_n));
  } else {
    constexpr index_t kC = components_v<InT>;
    const Real* s = reinterpret_cast<const Real*>(src);
    ER* d = e.source_box(0);
    for (index_t i = 0; i < kC * slab_n; ++i) d[i] = ER(s[i]);
  }
}

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
  // Auto mode keys off the per-device slab: below the floor the task
  // graph's submit/run overhead beats the compute/copy overlap it buys.
  const bool serial = exec::resolve_mode(prm_.n / g_) == exec::Mode::Serial;
  if (!engines32_.empty()) {
    if (serial)
      execute_serial_t<float>(in, out);
    else
      execute_async_t<float>(in, out);
  } else {
    if (serial)
      execute_serial_t<Real>(in, out);
    else
      execute_async_t<Real>(in, out);
  }
}

template <typename InT>
template <typename ER>
void DistFmmFft<InT>::execute_serial_t(const InT* in, Out* out) {
  const index_t slab_n = prm_.n / g_;
  const int l = prm_.l(), b = prm_.b;
  auto& es = eset<ER>();
  // Per-(stage, device) heartbeats: a stall inside one engine call is
  // attributed to that exact stage loop by the watchdog.
  obs::health::PhaseSource hb("dist.FmmFft.serial");

  // Device-resident load: natural-order slab r is exactly engine r's
  // S-tensor interior.
  for (int r = 0; r < g_; ++r) {
    hb.phase("load", r);
    es[(std::size_t)r]->reset_stats();
    es[(std::size_t)r]->zero();
    detail::load_slab(*es[(std::size_t)r], in + r * slab_n, slab_n);
  }

  // Algorithm 1. Stage loops run over all devices (they execute these in
  // parallel on real hardware; execute_async does so here too — this path
  // is the strictly-ordered reference for A/B and bit-identity checks).
  {
    FMMFFT_SPAN("FMM");
    for (int r = 0; r < g_; ++r) {
      hb.phase("s2m", r);
      es[(std::size_t)r]->s2m();
    }
    hb.phase("halo-s");
    detail::source_halos(es).run(fabric_);
    for (int r = 0; r < g_; ++r) {
      hb.phase("s2t", r);
      es[(std::size_t)r]->s2t();
    }
    for (int lev = l - 1; lev >= b; --lev)
      for (int r = 0; r < g_; ++r) {
        hb.phase("m2m", r);
        es[(std::size_t)r]->m2m(lev);
      }
    for (int lev = l; lev > b; --lev) {
      hb.phase("halo-m");
      detail::multipole_halos(es, lev).run(fabric_);
      for (int r = 0; r < g_; ++r) {
        hb.phase("m2l", r);
        es[(std::size_t)r]->m2l_level(lev);
      }
    }
    hb.phase("allgather");
    detail::base_allgather(es, b).run(fabric_);
    for (int r = 0; r < g_; ++r) {
      hb.phase("m2l_base", r);
      es[(std::size_t)r]->m2l_base();
    }
    for (int r = 0; r < g_; ++r) {
      hb.phase("reduce", r);
      es[(std::size_t)r]->reduce();
    }
    for (int lev = b; lev < l; ++lev)
      for (int r = 0; r < g_; ++r) {
        hb.phase("l2l", r);
        es[(std::size_t)r]->l2l(lev);
      }
    for (int r = 0; r < g_; ++r) {
      hb.phase("l2t", r);
      es[(std::size_t)r]->l2t();
    }
  }

  for (int r = 0; r < g_; ++r) {
    hb.phase("post", r);
    post_slab_t<ER>(r);
  }

  // Distributed 2D FFT (one all-to-all), output in order.
  {
    FMMFFT_SPAN("FFT-2D");
    hb.phase("fft2d");
    auto sp = buffer_ptrs(slabs_);
    fft2d_.execute_slabs(sp, fabric_);
    for (int r = 0; r < g_; ++r) {
      hb.phase("writeback", r);
      std::memcpy(out + r * slab_n, sp[(std::size_t)r],
                  sizeof(Out) * static_cast<std::size_t>(slab_n));
    }
  }
}

template <typename InT>
template <typename ER>
void DistFmmFft<InT>::execute_async_t(const InT* in, Out* out) {
  // The native twin of dist::fmmfft_schedule: every engine stage becomes an
  // ordered task on its device's compute lane (so each engine executes
  // stages in exactly execute_serial's order — the bit-identity invariant),
  // and every fabric copy becomes a task on the directed pair's link lane,
  // gated only by the task that produced its payload. Device compute then
  // overlaps both neighbouring devices' stages and in-flight copies.
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
          detail::load_slab(*e, src, slab_n);
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
  std::vector<exec::TaskId> post((std::size_t)g_);
  for (int r = 0; r < g_; ++r) {
    auto* e = es[(std::size_t)r].get();
    graph.submit(dev("l2t", r), {lanes.compute(r), /*ordered=*/true, "fmm"}, [e] { e->l2t(); });
    post[(std::size_t)r] = graph.submit(dev("post", r), {lanes.compute(r), /*ordered=*/true, "post"},
                                        [this, r] { post_slab_t<ER>(r); });
  }

  // Distributed 2D FFT rides the same graph; each device's slab store waits
  // only for that device's write-back.
  auto sp = buffer_ptrs(slabs_);
  const std::vector<exec::TaskId> terminal = fft2d_.submit_slabs(graph, lanes, sp, fabric_, post);
  for (int r = 0; r < g_; ++r) {
    Out* dst = out + r * slab_n;
    const Out* src = sp[(std::size_t)r];
    graph.submit(dev("store", r), {lanes.compute(r), /*ordered=*/true, "fft"},
                 [dst, src, slab_n] {
                   std::memcpy(dst, src, sizeof(Out) * static_cast<std::size_t>(slab_n));
                 },
                 {terminal[(std::size_t)r]});
  }

  graph.run();
}

template class DistFmmFft<float>;
template class DistFmmFft<double>;
template class DistFmmFft<std::complex<float>>;
template class DistFmmFft<std::complex<double>>;

}  // namespace fmmfft::dist
