// PerThread<Buffer>: one owner's per-thread buffers, the registry under
// obs::Log, obs::Tracer and obs::FlightRecorder. A thread finds its
// buffer through a thread-local cache of (owner id, buffer) entries, most
// recently used first:
//   * hit (the hot path): a scan plus move-to-front — no lock, no atomic
//     read-modify-write, no allocation;
//   * miss: under the owner's lock, reuse the slot this thread registered
//     before (matched by a per-thread serial), else register a new one.
//     A thread touching more than kCacheSize owners loses cache entries
//     but never gets a second buffer (or tid) for one owner.
// Owner ids and thread serials are never reused: a new owner built at a
// dead owner's address never hits the dead one's entries (they are aged
// out, never dereferenced), and short-lived workers stay separate even
// when the OS recycles their std::thread::id.
//
// Tids follow registration order from 1. for_each() visits every buffer
// under the registration lock; whether that may race the recording
// threads is the owner's contract (Tracer and Log export after the join,
// FlightRecorder takes a per-ring mutex).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace ran::obs {

template <typename Buffer>
class PerThread {
 public:
  static constexpr std::size_t kCacheSize = 64;

  /// The calling thread's buffer. `init(buffer)` runs once, under the
  /// registration lock, when this thread registers with this owner.
  template <typename Init>
  Buffer& local(Init&& init) {
    auto& cache = thread_cache();
    auto& entries = cache.entries;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].first != id_) continue;
      if (i != 0) std::swap(entries[0], entries[i]);
      return *entries[0].second;
    }
    if (cache.serial == 0) cache.serial = next_id();
    Buffer* buffer = nullptr;
    {
      const std::lock_guard lock{mutex_};
      for (const auto& slot : slots_)
        if (slot->thread == cache.serial) buffer = &slot->buffer;
      if (buffer == nullptr) {
        slots_.push_back(std::make_unique<Slot>());
        slots_.back()->thread = cache.serial;
        buffer = &slots_.back()->buffer;
        init(*buffer);
      }
    }
    if (entries.size() >= kCacheSize) entries.pop_back();
    entries.insert(entries.begin(), {id_, buffer});
    return *buffer;
  }
  Buffer& local() {
    return local([](Buffer&) {});
  }

  /// Calls visit(tid, buffer) for every registered buffer in tid order,
  /// holding the registration lock.
  template <typename Visit>
  void for_each(Visit&& visit) {
    const std::lock_guard lock{mutex_};
    for (std::size_t i = 0; i < slots_.size(); ++i)
      visit(static_cast<std::uint32_t>(i + 1), slots_[i]->buffer);
  }
  template <typename Visit>
  void for_each(Visit&& visit) const {
    const std::lock_guard lock{mutex_};
    for (std::size_t i = 0; i < slots_.size(); ++i)
      visit(static_cast<std::uint32_t>(i + 1),
            std::as_const(slots_[i]->buffer));
  }

 private:
  struct Slot {
    std::uint64_t thread = 0;  ///< serial of the registering thread
    Buffer buffer;
  };
  struct ThreadCache {
    std::uint64_t serial = 0;  ///< 0 until the thread's first miss
    std::vector<std::pair<std::uint64_t, Buffer*>> entries;
  };

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }
  static ThreadCache& thread_cache() {
    thread_local ThreadCache cache;
    return cache;
  }

  const std::uint64_t id_ = next_id();
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace ran::obs
