#include "core/fmmfft.hpp"

#include <cstring>
#include <type_traits>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/permute.hpp"
#include "common/threadpool.hpp"
#include "common/timer.hpp"
#include "fmm/operators.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::core {

template <typename InT>
struct FmmFft<InT>::Impl {
  static constexpr int kC = components_v<InT>;
  using Real = real_of_t<InT>;
  using Out = std::complex<Real>;

  fmm::Params prm;
  bool fuse_post;
  fmm::Precision prec;
  // Exactly one engine is live: `engine` when the translation pipeline runs
  // at the shell width, `engine32` when Mixed narrows it to fp32 under an
  // fp64 shell. (Under an fp32 shell Mixed is the native pipeline already,
  // so `engine` is used there too.)
  std::unique_ptr<fmm::Engine<Real>> engine;
  std::unique_ptr<fmm::Engine<float>> engine32;
  fft::Plan1D<Real> plan_p;  // M transforms of size P
  fft::Plan1D<Real> plan_m;  // P transforms of size M
  Buffer<Out> scratch;       // permutation / unfused-post staging
  std::vector<Out> rho;      // rho_p for p = 1..P-1 (index p)
  ExecutionProfile prof;

  bool mixed() const { return prec == fmm::Precision::Mixed && sizeof(Real) == 8; }

  // p is validated before any member is built from it: plan_m divides by P.
  explicit Impl(const fmm::Params& p, bool fuse, fmm::Precision pr)
      : prm((p.validate(), p)),
        fuse_post(fuse),
        prec(pr),
        plan_p(p.p),
        plan_m(p.m()),
        scratch(p.n),
        rho(static_cast<std::size_t>(p.p)) {
    if (mixed())
      engine32 = std::make_unique<fmm::Engine<float>>(p, kC);
    else
      engine = std::make_unique<fmm::Engine<Real>>(p, kC);
    for (index_t pp = 1; pp < prm.p; ++pp) {
      auto r = fmm::rho(pp, prm.p, prm.m());
      rho[(std::size_t)pp] = Out(Real(r.real()), Real(r.imag()));
    }
  }

  /// Read the post-processed element n = p + P·mg of the FMM output:
  /// T for p = 0 (C_0 = I), rho_p·(T + i·r_p) otherwise. ER is the engine
  /// real: the widening to the shell Real happens on the loaded scalars, so
  /// the rho multiply accumulates at full shell precision.
  template <typename ER>
  Out post_value(const ER* t, const ER* r, index_t p, index_t mg) const {
    if constexpr (kC == 2) {
      const Real re = Real(t[2 * (p + prm.p * mg)]);
      const Real im = Real(t[2 * (p + prm.p * mg) + 1]);
      if (p == 0) return Out(re, im);
      const Out rp(Real(r[2 * (p - 1)]), Real(r[2 * (p - 1) + 1]));
      return rho[(std::size_t)p] * (Out(re, im) + Out(0, 1) * rp);
    } else {
      const Real v = Real(t[p + prm.p * mg]);
      if (p == 0) return Out(v, 0);
      return rho[(std::size_t)p] * Out(v, Real(r[p - 1]));  // v + i·r_p
    }
  }

  template <typename ER>
  void execute_with(fmm::Engine<ER>& eng, const InT* input, Out* output) {
    prof = ExecutionProfile{};
    WallTimer total;

    // Load: the natural-order input vector is exactly the p-major S tensor
    // (n = p + P·(m + M_L·b)); flattened complex components interleave as
    // pc = c + C·p. Same-width engines take the raw memcpy (bit-identical
    // to the pre-mixed pipeline); a narrower engine demotes elementwise.
    if constexpr (std::is_same_v<ER, Real>) {
      std::memcpy(eng.source_box(0), input, sizeof(InT) * static_cast<std::size_t>(prm.n));
    } else {
      const Real* src = reinterpret_cast<const Real*>(input);
      ER* dst = eng.source_box(0);
      parallel_for(
          index_t(kC) * prm.n,
          [&](index_t lo, index_t hi) {
            for (index_t i = lo; i < hi; ++i) dst[i] = ER(src[i]);
          },
          /*grain=*/4096);
    }

    eng.reset_stats();
    eng.run_single_node();
    prof.fmm_stages = eng.stats();

    // Post-process (§4.9 line 15) fused with the load feeding the 2D FFT —
    // one pass from T to the FFT buffer, the CPU analogue of the cuFFTXT
    // load-callback fusion. The unfused ablation stages through `scratch`
    // and pays one extra round trip of T-sized data.
    WallTimer post_t;
    const index_t mtot = prm.m();
    {
      FMMFFT_SPAN("POST");
      const ER* t = eng.target_box(0);
      const ER* r = eng.reduction();
      Out* stage = fuse_post ? output : scratch.data();
      // Streams T once at the engine width and writes the complex FFT input
      // at the shell width; the unfused ablation pays one extra round trip
      // of the staged output. The tiny rho/reduction tables are excluded
      // like the FMM operator tables.
      FMMFFT_TRAFFIC_RW("post",
                        double(kC) * double(prm.n) * sizeof(ER) +
                            (fuse_post ? 0.0 : 2.0 * double(prm.n) * sizeof(Real)),
                        (2.0 * double(prm.n) + (fuse_post ? 0.0 : 2.0 * double(prm.n))) *
                            sizeof(Real),
                        0);
      // Rows are independent elementwise work, so splitting them across the
      // pool is bit-identical to the serial sweep.
      parallel_for(
          mtot,
          [&](index_t mg_lo, index_t mg_hi) {
            for (index_t mg = mg_lo; mg < mg_hi; ++mg)
              for (index_t p = 0; p < prm.p; ++p)
                stage[p + prm.p * mg] = post_value(t, r, p, mg);
          },
          /*grain=*/16);
      if (!fuse_post) std::memcpy(output, scratch.data(), sizeof(Out) * (std::size_t)prm.n);
    }
    prof.post_seconds = post_t.seconds();

    // 2D FFT F_{M,P}: M size-P FFTs on contiguous blocks, the Π_{M,P}
    // all-to-all permutation, then P size-M FFTs. Output is in order.
    WallTimer fft_t;
    {
      FMMFFT_SPAN("FFT-2D");
      plan_p.execute_batched(output, mtot, fft::Direction::Forward);
      permute_mp(output, scratch.data(), mtot, prm.p);
      plan_m.execute_batched(scratch.data(), prm.p, fft::Direction::Forward);
      std::memcpy(output, scratch.data(), sizeof(Out) * (std::size_t)prm.n);
    }
    prof.fft_seconds = fft_t.seconds();

    prof.total_seconds = total.seconds();
  }

  void execute(const InT* input, Out* output) {
    if (engine32)
      execute_with(*engine32, input, output);
    else
      execute_with(*engine, input, output);
  }
};

template <typename InT>
FmmFft<InT>::FmmFft(const fmm::Params& prm, bool fuse_post, fmm::Precision prec)
    : impl_(std::make_unique<Impl>(prm, fuse_post, prec)) {}
template <typename InT>
FmmFft<InT>::~FmmFft() = default;
template <typename InT>
FmmFft<InT>::FmmFft(FmmFft&&) noexcept = default;
template <typename InT>
FmmFft<InT>& FmmFft<InT>::operator=(FmmFft&&) noexcept = default;

template <typename InT>
const fmm::Params& FmmFft<InT>::params() const {
  return impl_->prm;
}

template <typename InT>
fmm::Precision FmmFft<InT>::precision() const {
  return impl_->prec;
}

template <typename InT>
void FmmFft<InT>::execute(const InT* input, Out* output) {
  impl_->execute(input, output);
}

template <typename InT>
const ExecutionProfile& FmmFft<InT>::profile() const {
  return impl_->prof;
}

template class FmmFft<float>;
template class FmmFft<double>;
template class FmmFft<std::complex<float>>;
template class FmmFft<std::complex<double>>;

}  // namespace fmmfft::core
