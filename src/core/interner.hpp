// String interning for the dense graph kernels: CO keys (and any other
// repeated analysis string) map to dense uint32 ids, with the bytes held
// in an append-only arena. A CsrGraph indexes by these ids instead of
// std::string nodes, so adjacency scans touch 4-byte ids rather than
// heap-allocated keys, and id -> key resolution is a single array load.
//
// Determinism contract: ids are assigned in first-intern order, so two
// runs that intern the same keys in the same order agree on every id.
// The graph kernels intern in sorted-CO-key order per region, so CSR ids
// and row order follow sorted CO keys and every kernel's output order is
// a function of the keys alone.
// Interner is NOT thread-safe; each analysis shard owns its own (or
// interns before fanning out).
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ran::core {

class Interner {
 public:
  static constexpr std::uint32_t kInvalidId =
      std::numeric_limits<std::uint32_t>::max();

  /// Returns the id of `key`, interning a copy into the arena on first
  /// sight. Ids are dense: 0, 1, 2, ... in first-intern order.
  std::uint32_t intern(std::string_view key);

  /// The id of `key` if already interned, kInvalidId otherwise.
  [[nodiscard]] std::uint32_t find(std::string_view key) const;

  /// The interned bytes of an id. Valid for the interner's lifetime.
  [[nodiscard]] std::string_view view(std::uint32_t id) const {
    return views_[id];
  }

  [[nodiscard]] std::size_t size() const { return views_.size(); }
  [[nodiscard]] bool empty() const { return views_.empty(); }

  /// Arena bytes held (for resource accounting).
  [[nodiscard]] std::uint64_t arena_bytes() const { return arena_bytes_; }

 private:
  /// Copies `key` into the arena and returns a stable view of the copy.
  std::string_view store(std::string_view key);

  static constexpr std::size_t kBlockSize = 1 << 14;
  std::vector<std::vector<char>> blocks_;
  std::uint64_t arena_bytes_ = 0;
  std::vector<std::string_view> views_;  ///< id -> arena bytes
  std::unordered_map<std::string_view, std::uint32_t> index_;
};

}  // namespace ran::core
