// Stockham autosort FFT with Bluestein fallback for non-pow2 sizes.
//
// Power-of-two transforms run radix-4 Stockham stages (one radix-2 cleanup
// stage first when log2(n) is odd): a radix-4 pass does the work of two
// radix-2 passes with 3/4 of the twiddle multiplies and half the sweeps
// over the data. Butterflies use explicit real/imaginary arithmetic —
// std::complex operator* compiles to a __muldc3 libcall (inf/NaN recovery
// branches) on GCC/Clang, which would dominate the inner loop.
//
// Plans are thread-safe: per-execution scratch comes from the thread-local
// ScratchArena, so any number of threads may execute one shared plan —
// which the pool-parallel execute_batched/execute_strided paths rely on.
#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <list>
#include <mutex>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/math.hpp"
#include "common/threadpool.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::fft {
namespace {

template <typename T>
using Cx = std::complex<T>;

/// Complex multiply without the __muldc3 libcall.
template <typename T>
inline Cx<T> cmul(Cx<T> a, Cx<T> b) {
  return Cx<T>(a.real() * b.real() - a.imag() * b.imag(),
               a.real() * b.imag() + a.imag() * b.real());
}

/// Twiddle tables for the mixed radix-4/radix-2 Stockham schedule of a pow2
/// transform. When log2(n) is odd the first stage is radix-2 (storing
/// exp(-2πi·p/len) for p < len/2); every other stage is radix-4, storing
/// the interleaved triplet (w^p, w^2p, w^3p), w = exp(-2πi/len), p < len/4.
template <typename T>
struct Twiddles {
  struct Stage {
    int radix;
    index_t len;  ///< current transform length when this stage runs
    index_t off;  ///< offset into w
  };
  std::vector<Cx<T>, AlignedAllocator<Cx<T>>> w;
  std::vector<Stage> stages;

  explicit Twiddles(index_t n) {
    index_t len = n;
    index_t total = 0;
    if (len >= 2 && ilog2_exact(n) % 2 == 1) {
      stages.push_back({2, len, total});
      total += len / 2;
      len /= 2;
    }
    for (; len >= 4; len /= 4) {
      stages.push_back({4, len, total});
      total += 3 * (len / 4);
    }
    FMMFFT_CHECK(len == 1 || n == 1);
    w.resize(static_cast<std::size_t>(total));
    for (const Stage& st : stages) {
      const long double theta = 2.0L * pi_v<long double> / (long double)st.len;
      auto tw = [&](index_t p) {
        return Cx<T>((T)std::cos((long double)p * theta),
                     (T)-std::sin((long double)p * theta));
      };
      if (st.radix == 2) {
        for (index_t p = 0; p < st.len / 2; ++p) w[(std::size_t)(st.off + p)] = tw(p);
      } else {
        for (index_t p = 0; p < st.len / 4; ++p) {
          w[(std::size_t)(st.off + 3 * p)] = tw(p);
          w[(std::size_t)(st.off + 3 * p + 1)] = tw(2 * p);
          w[(std::size_t)(st.off + 3 * p + 2)] = tw(3 * p);
        }
      }
    }
  }
};

/// One pow2 Stockham transform: ping-pongs between data and scratch,
/// leaving the result in data. `Inv` selects the conjugated twiddles.
template <typename T, bool Inv>
void stockham_pow2(Cx<T>* data, Cx<T>* scratch, index_t n, const Twiddles<T>& tw) {
  if (n == 1) return;
  Cx<T>* src = data;
  Cx<T>* dst = scratch;
  index_t s = 1;
  for (const auto& st : tw.stages) {
    const Cx<T>* wstage = tw.w.data() + st.off;
    if (st.radix == 2) {
      const index_t m = st.len / 2;
      for (index_t p = 0; p < m; ++p) {
        Cx<T> wp = wstage[p];
        if constexpr (Inv) wp = std::conj(wp);
        Cx<T>* d0 = dst + s * (2 * p);
        Cx<T>* d1 = dst + s * (2 * p + 1);
        const Cx<T>* s0 = src + s * p;
        const Cx<T>* s1 = src + s * (p + m);
        for (index_t q = 0; q < s; ++q) {
          const Cx<T> a = s0[q];
          const Cx<T> b = s1[q];
          d0[q] = a + b;
          d1[q] = cmul(a - b, wp);
        }
      }
      s *= 2;
    } else {
      // Radix-4 DIF butterfly, algebraically two radix-2 stages fused:
      //   dst[4p+0] = (a+c) + (b+d)
      //   dst[4p+1] = w^p  ·((a−c) ∓ i(b−d))   (− forward / + inverse)
      //   dst[4p+2] = w^2p·((a+c) − (b+d))
      //   dst[4p+3] = w^3p·((a−c) ± i(b−d))
      const index_t m = st.len / 4;
      for (index_t p = 0; p < m; ++p) {
        Cx<T> w1 = wstage[3 * p], w2 = wstage[3 * p + 1], w3 = wstage[3 * p + 2];
        if constexpr (Inv) {
          w1 = std::conj(w1);
          w2 = std::conj(w2);
          w3 = std::conj(w3);
        }
        Cx<T>* d0 = dst + s * (4 * p);
        Cx<T>* d1 = dst + s * (4 * p + 1);
        Cx<T>* d2 = dst + s * (4 * p + 2);
        Cx<T>* d3 = dst + s * (4 * p + 3);
        const Cx<T>* s0 = src + s * p;
        const Cx<T>* s1 = src + s * (p + m);
        const Cx<T>* s2 = src + s * (p + 2 * m);
        const Cx<T>* s3 = src + s * (p + 3 * m);
        for (index_t q = 0; q < s; ++q) {
          const Cx<T> a = s0[q], b = s1[q], c = s2[q], d = s3[q];
          const Cx<T> t0 = a + c;
          const Cx<T> t1 = a - c;
          const Cx<T> t2 = b + d;
          const Cx<T> bd = b - d;
          // ∓i·(b−d): rotate by −90° forward, +90° inverse.
          const Cx<T> t3 = Inv ? Cx<T>(-bd.imag(), bd.real()) : Cx<T>(bd.imag(), -bd.real());
          d0[q] = t0 + t2;
          d1[q] = cmul(t1 + t3, w1);
          d2[q] = cmul(t0 - t2, w2);
          d3[q] = cmul(t1 - t3, w3);
        }
      }
      s *= 4;
    }
    std::swap(src, dst);
  }
  if (src != data) std::copy_n(src, n, data);
}

}  // namespace

template <typename T>
void dft_reference(const Cx<T>* x, Cx<T>* y, index_t n, Direction dir) {
  FMMFFT_CHECK(x != y);
  const long double sgn = dir == Direction::Forward ? -1.0L : 1.0L;
  for (index_t i = 0; i < n; ++i) {
    std::complex<long double> s = 0;
    for (index_t j = 0; j < n; ++j) {
      // Reduce i*j mod n before the trig call to keep the argument small.
      long double ang = sgn * 2.0L * pi_v<long double> *
                        (long double)((__int128)i * j % n) / (long double)n;
      s += std::complex<long double>(x[j]) *
           std::complex<long double>(std::cos(ang), std::sin(ang));
    }
    y[i] = Cx<T>((T)s.real(), (T)s.imag());
  }
}

// ---------------------------------------------------------------------------
// Plan1D

template <typename T>
struct Plan1D<T>::Impl {
  index_t n;
  bool pow2;
  Twiddles<T> tw;                               // for n (pow2) or m (Bluestein)

  // Bluestein state (pow2 == false): transform size m >= 2n-1, chirp c,
  // and the precomputed forward-FFT of the chirp filter for each direction.
  index_t m = 0;
  Buffer<Cx<T>> chirp_fwd, chirp_inv;           // c[k], per direction
  Buffer<Cx<T>> filter_fft_fwd, filter_fft_inv; // FFT(b), per direction

  static index_t next_pow2(index_t v) {
    index_t p = 1;
    while (p < v) p *= 2;
    return p;
  }

  explicit Impl(index_t n_)
      : n(n_), pow2(is_pow2(n_)), tw(pow2 ? n_ : next_pow2(2 * n_ - 1)) {
    FMMFFT_CHECK_MSG(n >= 1, "FFT size must be positive");
    if (!pow2) {
      m = next_pow2(2 * n - 1);
      chirp_fwd = Buffer<Cx<T>>(n);
      chirp_inv = Buffer<Cx<T>>(n);
      filter_fft_fwd = Buffer<Cx<T>>(m);
      filter_fft_inv = Buffer<Cx<T>>(m);
      ScratchBlock<Cx<T>> scratch(m);
      for (int d = 0; d < 2; ++d) {
        const long double sgn = d == 0 ? -1.0L : 1.0L;
        auto& c = d == 0 ? chirp_fwd : chirp_inv;
        auto& bf = d == 0 ? filter_fft_fwd : filter_fft_inv;
        for (index_t k = 0; k < n; ++k) {
          // k^2 mod 2n keeps the phase argument small for huge k.
          long double ang =
              sgn * pi_v<long double> * (long double)((__int128)k * k % (2 * n)) / (long double)n;
          c[k] = Cx<T>((T)std::cos(ang), (T)std::sin(ang));
        }
        bf.fill(Cx<T>(0));
        for (index_t k = 0; k < n; ++k) {
          bf[k] = std::conj(c[k]);
          if (k > 0) bf[m - k] = std::conj(c[k]);
        }
        stockham_pow2<T, false>(bf.data(), scratch.data(), m, tw);
      }
    }
  }

  /// Transform one contiguous line in place. const and thread-safe: all
  /// mutable state is leased from the calling thread's ScratchArena.
  void run_one(Cx<T>* data, Direction dir) const {
    if (pow2) {
      ScratchBlock<Cx<T>> scratch(n);
      if (dir == Direction::Forward)
        stockham_pow2<T, false>(data, scratch.data(), n, tw);
      else
        stockham_pow2<T, true>(data, scratch.data(), n, tw);
      return;
    }
    // Bluestein: y[k] = c[k] * IFFT( FFT(x.*c) .* FFT(b) )[k] / m
    const auto& c = dir == Direction::Forward ? chirp_fwd : chirp_inv;
    const auto& bf = dir == Direction::Forward ? filter_fft_fwd : filter_fft_inv;
    ScratchBlock<Cx<T>> work(m);
    ScratchBlock<Cx<T>> scratch(m);
    for (index_t k = 0; k < n; ++k) work[k] = cmul(data[k], c[k]);
    for (index_t k = n; k < m; ++k) work[k] = Cx<T>(0);
    stockham_pow2<T, false>(work.data(), scratch.data(), m, tw);
    for (index_t k = 0; k < m; ++k) work[k] = cmul(work[k], bf[k]);
    stockham_pow2<T, true>(work.data(), scratch.data(), m, tw);
    const T inv_m = T(1) / T(m);
    for (index_t k = 0; k < n; ++k) data[k] = cmul(work[k], c[k]) * inv_m;
  }

  /// Grain for batch parallelism: amortize chunk dispatch over at least
  /// ~2^14 points' worth of transforms so tiny-n batches don't drown in
  /// scheduling overhead.
  index_t batch_grain() const {
    return std::max<index_t>(1, (index_t(1) << 14) / std::max<index_t>(1, n));
  }
};

template <typename T>
Plan1D<T>::Plan1D(index_t n) : impl_(std::make_unique<Impl>(n)) {}
template <typename T>
Plan1D<T>::~Plan1D() = default;
template <typename T>
Plan1D<T>::Plan1D(Plan1D&&) noexcept = default;
template <typename T>
Plan1D<T>& Plan1D<T>::operator=(Plan1D&&) noexcept = default;

template <typename T>
index_t Plan1D<T>::size() const {
  return impl_->n;
}

namespace {

/// One hook for all plan entry points. The flop counter records the model
/// count 5·n·log2(n) per transform (what the §5 analysis uses), not the
/// larger operation count of the Bluestein fallback for non-pow2 sizes.
/// `gather_scatter` marks the strided path's extra copy through the line
/// buffer. Traffic counts data passes only; twiddle/chirp/filter table
/// reads are excluded (§5.3 convention, same as the FMM operator tables).
inline void count_transforms(index_t n, bool pow2, index_t bluestein_m, double cx_bytes,
                             index_t count, bool gather_scatter = false) {
  FMMFFT_COUNT("fft.transforms", count);
  FMMFFT_COUNT("fft.launches", 1);
  FMMFFT_COUNT("fft.points", double(n) * double(count));
  FMMFFT_COUNT("fft.flops", fft_flops(n) * double(count));
  if (obs::traffic_enabled()) {
    double rd_cx, wr_cx;  // complex elements per transform
    if (pow2) {
      // Each Stockham stage ping-pongs the whole line; odd stage counts add
      // the copy back into data (see stockham_passes).
      const double p = double(obs::stockham_passes(ilog2_exact(n)));
      rd_cx = wr_cx = p * double(n);
    } else {
      // Bluestein: chirp-modulate into work (rd n, wr m), two size-m
      // Stockham transforms, the pointwise filter pass (rd m, wr m), and
      // the demodulated writeback (rd n, wr n).
      const double p = double(obs::stockham_passes(ilog2_exact(bluestein_m)));
      rd_cx = (2.0 * p + 1.0) * double(bluestein_m) + 2.0 * double(n);
      wr_cx = (2.0 * p + 2.0) * double(bluestein_m) + double(n);
    }
    if (gather_scatter) {  // strided gather into the line buffer + scatter
      rd_cx += 2.0 * double(n);
      wr_cx += 2.0 * double(n);
    }
    obs::TrafficLedger::global().add_rw("fft", rd_cx * double(count) * cx_bytes,
                                        wr_cx * double(count) * cx_bytes,
                                        fft_flops(n) * double(count));
  }
}

}  // namespace

template <typename T>
void Plan1D<T>::execute(Cx<T>* data, Direction dir) const {
  FMMFFT_SPAN("FFT");
  count_transforms(impl_->n, impl_->pow2, impl_->m, 2.0 * sizeof(T), 1);
  impl_->run_one(data, dir);
}

template <typename T>
void Plan1D<T>::execute_batched(Cx<T>* data, index_t count, Direction dir) const {
  FMMFFT_SPAN("FFT-batched");
  count_transforms(impl_->n, impl_->pow2, impl_->m, 2.0 * sizeof(T), count);
  const Impl& impl = *impl_;
  parallel_for(
      count,
      [&](index_t b, index_t e) {
        for (index_t g = b; g < e; ++g) impl.run_one(data + g * impl.n, dir);
      },
      impl.batch_grain());
}

template <typename T>
void Plan1D<T>::execute_strided(Cx<T>* data, index_t count, index_t stride, index_t dist,
                                Direction dir) const {
  FMMFFT_SPAN("FFT-strided");
  count_transforms(impl_->n, impl_->pow2, impl_->m, 2.0 * sizeof(T), count,
                   /*gather_scatter=*/stride != 1);
  const Impl& impl = *impl_;
  const index_t n = impl.n;
  if (stride == 1) {
    parallel_for(
        count,
        [&](index_t b, index_t e) {
          for (index_t g = b; g < e; ++g) impl.run_one(data + g * dist, dir);
        },
        impl.batch_grain());
    return;
  }
  // Gather each strided batch into contiguous scratch, transform, scatter.
  // The line buffer is an arena lease per chunk, not a per-call heap
  // allocation (and per-thread, so chunks never share it).
  parallel_for(
      count,
      [&](index_t b, index_t e) {
        ScratchBlock<Cx<T>> line(n);
        for (index_t g = b; g < e; ++g) {
          Cx<T>* base = data + g * dist;
          for (index_t j = 0; j < n; ++j) line[j] = base[j * stride];
          impl.run_one(line.data(), dir);
          for (index_t j = 0; j < n; ++j) base[j * stride] = line[j];
        }
      },
      impl.batch_grain());
}

// ---------------------------------------------------------------------------
// Plan cache

namespace {

std::mutex& plan_cache_mu() {
  static std::mutex mu;
  return mu;
}

PlanCacheStats& plan_cache_stats_locked() {
  static PlanCacheStats stats;
  return stats;
}

/// LRU map n -> shared plan, one per element type. Small and linear-scanned:
/// a run touches a handful of distinct sizes (N, M, P, Bluestein m).
template <typename T>
struct PlanCache {
  static constexpr std::size_t kCapacity = 32;
  struct Entry {
    index_t n;
    std::uint64_t tick;
    std::shared_ptr<const Plan1D<T>> plan;
  };
  std::vector<Entry> entries;
  std::uint64_t tick = 0;

  static PlanCache& instance() {
    static PlanCache cache;
    return cache;
  }
};

}  // namespace

template <typename T>
std::shared_ptr<const Plan1D<T>> cached_plan1d(index_t n) {
  auto& cache = PlanCache<T>::instance();
  std::lock_guard<std::mutex> lk(plan_cache_mu());
  for (auto& e : cache.entries) {
    if (e.n == n) {
      e.tick = ++cache.tick;
      plan_cache_stats_locked().hits++;
      return e.plan;
    }
  }
  plan_cache_stats_locked().misses++;
  auto plan = std::make_shared<const Plan1D<T>>(n);
  if (cache.entries.size() >= PlanCache<T>::kCapacity) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < cache.entries.size(); ++i)
      if (cache.entries[i].tick < cache.entries[victim].tick) victim = i;
    cache.entries[victim] = cache.entries.back();
    cache.entries.pop_back();
    plan_cache_stats_locked().evictions++;
  }
  cache.entries.push_back({n, ++cache.tick, plan});
  return plan;
}

PlanCacheStats plan_cache_stats() {
  std::lock_guard<std::mutex> lk(plan_cache_mu());
  return plan_cache_stats_locked();
}

// ---------------------------------------------------------------------------

template <typename T>
void fft(Cx<T>* data, index_t n, Direction dir) {
  cached_plan1d<T>(n)->execute(data, dir);
}

template <typename T>
void normalize(Cx<T>* data, index_t n, index_t transform_size) {
  const T s = T(1) / T(transform_size);
  for (index_t i = 0; i < n; ++i) data[i] *= s;
}

#define FMMFFT_INSTANTIATE_FFT(T)                                                   \
  template void dft_reference<T>(const Cx<T>*, Cx<T>*, index_t, Direction);          \
  template class Plan1D<T>;                                                          \
  template std::shared_ptr<const Plan1D<T>> cached_plan1d<T>(index_t);               \
  template void fft<T>(Cx<T>*, index_t, Direction);                                  \
  template void normalize<T>(Cx<T>*, index_t, index_t);

FMMFFT_INSTANTIATE_FFT(float)
FMMFFT_INSTANTIATE_FFT(double)

}  // namespace fmmfft::fft
