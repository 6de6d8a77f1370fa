// Thread-local pooled scratch arena.
//
// Hot paths (FFT plan execution, strided gathers) need short-lived aligned
// workspaces. Allocating per call is too slow, and storing scratch inside a
// plan makes concurrent execute() on one shared plan a data race — the bug
// the batch-parallel execution paths would otherwise hit. ScratchBlock<T>
// leases a 64-byte-aligned block from a per-thread free list: checkout and
// release are O(free-list length) with no locking, blocks are reused across
// calls, and each thread's blocks are its own, so shared plans become
// safely executable from any number of threads.
//
// Blocks are NOT zero-initialized (unlike Buffer): a scratch lease is for
// code that fully writes before it reads.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace fmmfft {

/// Per-thread free list of aligned raw blocks. Access via ScratchArena::local().
class ScratchArena {
 public:
  static ScratchArena& local() {
    thread_local ScratchArena arena;
    return arena;
  }

  ~ScratchArena() {
    for (const Slab& s : free_) ::operator delete[](s.p, std::align_val_t(kAlignment));
  }

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Smallest cached block with capacity >= bytes, or a fresh allocation
  /// (rounded up to a power of two so sizes re-cluster into few classes).
  void* checkout(std::size_t bytes, std::size_t* capacity) {
    FMMFFT_CHECK(bytes > 0);
    std::size_t best = free_.size();
    for (std::size_t i = 0; i < free_.size(); ++i)
      if (free_[i].cap >= bytes && (best == free_.size() || free_[i].cap < free_[best].cap))
        best = i;
    if (best != free_.size()) {
      Slab s = free_[best];
      free_[best] = free_.back();
      free_.pop_back();
      *capacity = s.cap;
      return s.p;
    }
    std::size_t cap = kMinBlock;
    while (cap < bytes) cap *= 2;
    *capacity = cap;
    void* p = ::operator new[](cap, std::align_val_t(kAlignment));
    // First-touch every page on the checking-out thread: scratch is leased
    // and reused by this thread only (the arena is thread-local), so its
    // pages belong on this thread's NUMA node. One write per 4 KiB page;
    // paid once per fresh slab, amortized over every later lease.
    auto* bytes_p = static_cast<unsigned char*>(p);
    for (std::size_t off = 0; off < cap; off += 4096) bytes_p[off] = 0;
    return p;
  }

  void release(void* p, std::size_t capacity) {
    if (free_.size() >= kMaxCached) {
      // Evict the smallest cached slab: large FFT scratch is the expensive
      // thing to reallocate, so keep big blocks warm.
      std::size_t victim = 0;
      for (std::size_t i = 1; i < free_.size(); ++i)
        if (free_[i].cap < free_[victim].cap) victim = i;
      ::operator delete[](free_[victim].p, std::align_val_t(kAlignment));
      free_[victim] = free_.back();
      free_.pop_back();
    }
    free_.push_back({p, capacity});
  }

  std::size_t cached_blocks() const { return free_.size(); }
  std::size_t cached_bytes() const {
    std::size_t total = 0;
    for (const Slab& s : free_) total += s.cap;
    return total;
  }

  static constexpr std::size_t kMinBlock = 256;
  static constexpr std::size_t kMaxCached = 16;

 private:
  ScratchArena() = default;
  struct Slab {
    void* p;
    std::size_t cap;
  };
  std::vector<Slab> free_;
};

/// RAII lease of n elements of trivially-destructible T from the calling
/// thread's arena. Contents are uninitialized. Must be released on the
/// thread that checked it out (enforced by construction: the lease is a
/// scoped stack object, and worker chunks run entirely on one thread).
template <typename T>
class ScratchBlock {
 public:
  explicit ScratchBlock(index_t n) : n_(n) {
    static_assert(std::is_trivially_destructible_v<T>, "scratch blocks skip destructors");
    FMMFFT_CHECK(n > 0);
    p_ = static_cast<T*>(
        ScratchArena::local().checkout(static_cast<std::size_t>(n) * sizeof(T), &cap_));
  }
  ~ScratchBlock() { ScratchArena::local().release(p_, cap_); }

  ScratchBlock(const ScratchBlock&) = delete;
  ScratchBlock& operator=(const ScratchBlock&) = delete;

  T* data() { return p_; }
  const T* data() const { return p_; }
  index_t size() const { return n_; }
  T& operator[](index_t i) {
    FMMFFT_ASSERT(i >= 0 && i < n_);
    return p_[i];
  }

 private:
  T* p_;
  std::size_t cap_ = 0;
  index_t n_;
};

/// Standard allocator leasing from the calling thread's arena, for
/// short-lived containers on hot paths: once the arena is warm, steady-state
/// use allocates nothing. Each lease carries its slab capacity in a
/// kAlignment-byte header, so the container may free it on any thread (the
/// slab then joins that thread's arena).
template <typename T>
struct ScratchAllocator {
  static_assert(alignof(T) <= kAlignment);
  using value_type = T;

  ScratchAllocator() = default;
  template <typename U>
  ScratchAllocator(const ScratchAllocator<U>&) {}

  T* allocate(std::size_t n) {
    std::size_t cap = 0;
    auto* p = static_cast<unsigned char*>(
        ScratchArena::local().checkout(kAlignment + n * sizeof(T), &cap));
    *reinterpret_cast<std::size_t*>(p) = cap;
    return reinterpret_cast<T*>(p + kAlignment);
  }
  void deallocate(T* q, std::size_t) {
    auto* p = reinterpret_cast<unsigned char*>(q) - kAlignment;
    ScratchArena::local().release(p, *reinterpret_cast<std::size_t*>(p));
  }
  template <typename U>
  bool operator==(const ScratchAllocator<U>&) const {
    return true;
  }
};

}  // namespace fmmfft
