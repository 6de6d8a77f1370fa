// FFT substrate — the library's stand-in for cuFFT.
//
// Complex-to-complex transforms only (the FMM-FFT needs exactly that: the
// post-processed FMM output is complex even for real input). Power-of-two
// sizes run a cache-friendly iterative Stockham autosort (no bit reversal)
// with radix-4 stages (plus one radix-2 cleanup stage when log2 n is odd);
// other sizes fall back to Bluestein's chirp-z algorithm built on the
// power-of-two path. Transforms are unnormalized, matching cuFFT/FFTW
// conventions: ifft(fft(x)) == n * x.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"

namespace fmmfft::fft {

enum class Direction { Forward, Inverse };

/// Direct O(n^2) DFT, long-double accumulated: the accuracy reference.
template <typename T>
void dft_reference(const std::complex<T>* x, std::complex<T>* y, index_t n,
                   Direction dir = Direction::Forward);

/// Plan for 1D transforms of a fixed size (any n >= 1). Holds twiddle
/// tables; plan once, execute many times. Thread-safe: per-execution
/// scratch comes from a thread-local arena, so any number of threads may
/// call execute() on one shared plan concurrently (on disjoint data).
/// Batched entry points parallelize across batches internally.
template <typename T>
class Plan1D {
 public:
  explicit Plan1D(index_t n);
  ~Plan1D();
  Plan1D(Plan1D&&) noexcept;
  Plan1D& operator=(Plan1D&&) noexcept;

  index_t size() const;

  /// In-place transform of `data` (length n).
  void execute(std::complex<T>* data, Direction dir) const;

  /// `count` independent transforms on contiguous batches:
  /// batch g occupies data[g*n .. g*n + n).
  void execute_batched(std::complex<T>* data, index_t count, Direction dir) const;

  /// `count` transforms with cuFFT-style advanced layout: element j of
  /// batch g lives at data[g*dist + j*stride].
  void execute_strided(std::complex<T>* data, index_t count, index_t stride, index_t dist,
                       Direction dir) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Process-wide LRU plan cache. Returns a shared immutable plan for size
/// n, constructing it on first use; repeated fft()/per-call-plan
/// paths stop rebuilding twiddle tables. Thread-safe.
template <typename T>
std::shared_ptr<const Plan1D<T>> cached_plan1d(index_t n);

/// Cumulative cache statistics (for tests and diagnostics).
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};
PlanCacheStats plan_cache_stats();

/// One-shot convenience transforms (plan internally, served from the
/// process-wide plan cache).
template <typename T>
void fft(std::complex<T>* data, index_t n, Direction dir = Direction::Forward);

/// Scale data by 1/n (apply after an Inverse transform to invert Forward).
template <typename T>
void normalize(std::complex<T>* data, index_t n, index_t transform_size);

/// Flop count model for a complex transform of size n (5 n log2 n).
inline double fft_flops(index_t n) {
  double lg = n > 1 ? std::log2(double(n)) : 0.0;
  return 5.0 * double(n) * lg;
}

}  // namespace fmmfft::fft
