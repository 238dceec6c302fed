#ifndef JURYOPT_UTIL_SCRATCH_ARENA_H_
#define JURYOPT_UTIL_SCRATCH_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace jury {

/// \brief A pool of recycled scratch-buffer *capacity*, one level below the
/// plan context's instance arena.
///
/// Evaluation sessions stage their batched move scans in per-session
/// vectors (the MV backend's SoA pmf staging, the bucket backend's
/// candidate staging rows). The vectors are resized and fully rewritten on
/// every scan, so their *contents* never outlive a call — but their
/// *capacity* is re-allocated for every session, i.e. for every request,
/// even when a long-lived `PoolPlanContext` answers a stream of
/// identically-sized solves. The arena closes that gap: sessions `Adopt`
/// an empty vector with warmed capacity at construction and `Donate` the
/// capacity back at destruction, so a serving loop allocates its staging
/// buffers once per concurrency level instead of once per request.
///
/// Adoption never changes observable values — an adopted vector is empty
/// and the session resizes/overwrites it exactly as it would a fresh one —
/// so pooled and unpooled solves are bit-identical by construction.
///
/// Thread-safe: sessions from concurrent solves (and their per-thread
/// clones) share one arena; the lock is held only for the free-list
/// pop/push. Buffers donated by a clone on a scheduler thread are adopted
/// by whatever session constructs next, on any thread.
class ScratchArena {
 public:
  struct Stats {
    /// `Adopt` calls that found pooled capacity to hand out.
    std::uint64_t reuses = 0;
    /// `Adopt` calls that found the pool empty (the session allocates).
    std::uint64_t misses = 0;
    /// Buffers returned by `Donate` and retained for reuse.
    std::uint64_t donations = 0;
    /// Buffers dropped by `Donate` because the pool was at capacity.
    std::uint64_t discards = 0;
    /// Buffers currently retained, across all element types.
    std::size_t retained = 0;
  };

  /// `max_retained` bounds each element type's free list — beyond it,
  /// donated buffers are freed instead of retained, so a concurrency
  /// spike cannot pin its high-water memory forever.
  explicit ScratchArena(std::size_t max_retained = 64)
      : max_retained_(max_retained) {}

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Swaps a pooled (empty, capacity-warmed) buffer into `*buffer` when one
  /// is available. `*buffer` must be empty — adoption is for
  /// freshly-constructed members, never for live data.
  void Adopt(std::vector<double>* buffer) { AdoptImpl(&doubles_, buffer); }
  void Adopt(std::vector<std::size_t>* buffer) { AdoptImpl(&sizes_, buffer); }
  void Adopt(std::vector<std::int64_t>* buffer) { AdoptImpl(&ints_, buffer); }

  /// Clears `*buffer` and moves its capacity into the pool (or frees it
  /// when the pool is full). The vector is left empty either way.
  void Donate(std::vector<double>* buffer) { DonateImpl(&doubles_, buffer); }
  void Donate(std::vector<std::size_t>* buffer) { DonateImpl(&sizes_, buffer); }
  void Donate(std::vector<std::int64_t>* buffer) {
    DonateImpl(&ints_, buffer);
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = stats_;
    out.retained = doubles_.size() + sizes_.size() + ints_.size();
    return out;
  }

 private:
  template <typename T>
  void AdoptImpl(std::vector<std::vector<T>>* pool, std::vector<T>* buffer) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (pool->empty()) {
      ++stats_.misses;
      return;
    }
    *buffer = std::move(pool->back());
    pool->pop_back();
    ++stats_.reuses;
  }

  template <typename T>
  void DonateImpl(std::vector<std::vector<T>>* pool, std::vector<T>* buffer) {
    if (buffer->capacity() == 0) return;
    std::vector<T> donated;
    donated.swap(*buffer);
    donated.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    if (pool->size() >= max_retained_) {
      ++stats_.discards;
      return;  // `donated` frees on scope exit
    }
    pool->push_back(std::move(donated));
    ++stats_.donations;
  }

  const std::size_t max_retained_;
  mutable std::mutex mutex_;
  std::vector<std::vector<double>> doubles_;
  std::vector<std::vector<std::size_t>> sizes_;
  std::vector<std::vector<std::int64_t>> ints_;
  Stats stats_;
};

/// \brief Ambient per-thread arena binding: the solve entry point scopes
/// its context's arena, and every session constructed on this thread
/// during the solve adopts from it (sessions capture the pointer, so
/// their clones on other scheduler threads donate back to the same
/// arena).
class ScopedThreadScratchArena {
 public:
  explicit ScopedThreadScratchArena(ScratchArena* arena);
  ~ScopedThreadScratchArena();

  ScopedThreadScratchArena(const ScopedThreadScratchArena&) = delete;
  ScopedThreadScratchArena& operator=(const ScopedThreadScratchArena&) =
      delete;

 private:
  ScratchArena* previous_;
};

/// The arena scoped onto the calling thread (nullptr outside any scope).
ScratchArena* CurrentThreadScratchArena();

}  // namespace jury

#endif  // JURYOPT_UTIL_SCRATCH_ARENA_H_
