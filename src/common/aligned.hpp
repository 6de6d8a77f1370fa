// Cache-line/SIMD aligned heap buffers. The BLAS and FFT substrates assume
// 64-byte alignment of all operand storage.
//
// Large buffers are zero-initialized with a parallel_for stripe across the
// pool so pages are first-touched by the threads that will compute on them
// (first-touch NUMA placement: on multi-socket hosts the kernel backs a
// page on the touching core's node). Small buffers initialize inline — the
// fork/join would cost more than the placement is worth.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "common/types.hpp"

namespace fmmfft {

inline constexpr std::size_t kAlignment = 64;

/// std-compatible aligned allocator (64-byte).
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = ::operator new[](n * sizeof(T), std::align_val_t(kAlignment));
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete[](p, std::align_val_t(kAlignment));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// Element count above which Buffer zero-init runs as a parallel
/// first-touch stripe (~1 MiB of payload).
template <typename T>
constexpr index_t buffer_parallel_touch_threshold() {
  return index_t((std::size_t(1) << 20) / sizeof(T));
}

namespace detail {

/// Value-initialize n elements at p. Zero is all-zero bytes for arithmetic
/// and std::complex elements, so those take one memset: the library's
/// optimized fill, rather than an element loop whose speed varied with
/// code and data placement between otherwise identical builds.
template <typename T>
void zero_fill(T* p, index_t n) {
  if constexpr (std::is_arithmetic_v<T> || is_complex_v<T>)
    std::memset(static_cast<void*>(p), 0, static_cast<std::size_t>(n) * sizeof(T));
  else
    std::uninitialized_value_construct_n(p, static_cast<std::size_t>(n));
}

}  // namespace detail

/// Fixed-size aligned buffer of trivially-copyable scalars, zero-initialized.
/// Movable, non-copyable: the library treats buffers as owned workspaces.
template <typename T>
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(index_t n) : n_(n) {
    FMMFFT_CHECK(n >= 0);
    if (n > 0) {
      T* p = static_cast<T*>(::operator new[](static_cast<std::size_t>(n) * sizeof(T),
                                              std::align_val_t(kAlignment)));
      data_.reset(p);
      if (n >= buffer_parallel_touch_threshold<T>()) {
        // First-touch: stripe the zero-init across the pool, page-granular
        // grain so no page is split between touching threads. Degrades to
        // the inline loop when nested or serial-forced (parallel_for).
        const index_t grain = std::max<index_t>(1, index_t(4096 / sizeof(T)));
        parallel_for(
            n,
            [p](index_t b, index_t e) { detail::zero_fill(p + b, e - b); }, grain);
      } else {
        detail::zero_fill(p, n);
      }
    }
  }

  Buffer(Buffer&&) noexcept = default;
  Buffer& operator=(Buffer&&) noexcept = default;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  index_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }
  T& operator[](index_t i) {
    FMMFFT_ASSERT(i >= 0 && i < n_);
    return data_.get()[i];
  }
  const T& operator[](index_t i) const {
    FMMFFT_ASSERT(i >= 0 && i < n_);
    return data_.get()[i];
  }
  T* begin() { return data_.get(); }
  T* end() { return data_.get() + n_; }
  const T* begin() const { return data_.get(); }
  const T* end() const { return data_.get() + n_; }

  void fill(const T& v) {
    for (index_t i = 0; i < n_; ++i) data_.get()[i] = v;
  }

 private:
  struct Deleter {
    void operator()(T* p) const { ::operator delete[](p, std::align_val_t(kAlignment)); }
  };
  std::unique_ptr<T[], Deleter> data_;
  index_t n_ = 0;
};

}  // namespace fmmfft
