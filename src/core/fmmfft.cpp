#include "core/fmmfft.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/permute.hpp"
#include "common/timer.hpp"
#include "core/shell.hpp"
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
  Buffer<Out> scratch;       // POST output and size-P FFTs, permuted into `output`
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
        rho(rho_table<Real>(p)) {
    if (mixed())
      engine32 = std::make_unique<fmm::Engine<float>>(p, kC);
    else
      engine = std::make_unique<fmm::Engine<Real>>(p, kC);
  }

  template <typename ER>
  void execute_with(fmm::Engine<ER>& eng, const InT* input, Out* output) {
    prof = ExecutionProfile{};
    WallTimer total;

    load_source(eng, input, prm.n);
    eng.reset_stats();
    eng.run_single_node();
    prof.fmm_stages = eng.stats();

    // Post-process (§4.9 line 15) fused with the load feeding the 2D FFT —
    // one pass from T into `scratch`, the CPU analogue of the cuFFTXT
    // load-callback fusion. The unfused ablation stages through `output`
    // and pays one extra round trip of T-sized data.
    WallTimer post_t;
    const index_t mtot = prm.m();
    {
      FMMFFT_SPAN("POST");
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
      post_rows<InT>(eng.target_box(0), eng.reduction(), rho, prm.p, mtot,
                     fuse_post ? scratch.data() : output);
      if (!fuse_post) std::memcpy(scratch.data(), output, sizeof(Out) * (std::size_t)prm.n);
    }
    prof.post_seconds = post_t.seconds();

    // 2D FFT F_{M,P}: M size-P FFTs on contiguous blocks in `scratch`, the
    // Π_{M,P} permutation into `output`, then P size-M FFTs there. Output is
    // in order.
    WallTimer fft_t;
    {
      FMMFFT_SPAN("FFT-2D");
      plan_p.execute_batched(scratch.data(), mtot, fft::Direction::Forward);
      permute_mp(scratch.data(), output, mtot, prm.p);
      plan_m.execute_batched(output, prm.p, fft::Direction::Forward);
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
