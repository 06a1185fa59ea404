// Open-addressing hash tables over packed integer keys, for the
// corpus-scale passes of the inference pipelines.
//
// One design serves every such table: a power-of-two array of slots,
// a Fibonacci-style mix of the key into a start index, linear probing,
// and growth by doubling past a 10/16 load factor. A key of all zero
// bits marks an empty slot, so keys must be nonzero; packed responding
// hop addresses always are (a responding hop is never 0.0.0.0).
//
// A Slot type supplies its key and whatever it aggregates per key:
//
//   struct Slot {
//     using Key = ...;                        // equality-comparable;
//                                             // Key{} means empty
//     static std::uint64_t hash(const Key&);  // pre-mix hash
//     Key key() const;
//     void claim(const Key&);                 // store the key
//     ...payload...
//   };
//
// Iteration order is the hash layout; consumers that need a stable
// order sort what they extract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ran::core {

template <typename Slot>
class FlatTable {
 public:
  using Key = typename Slot::Key;

  explicit FlatTable(int capacity_log2 = 4)
      : log2_(capacity_log2), slots_(std::size_t{1} << capacity_log2) {}

  /// The slot holding `key`, claimed on first sight (its payload is then
  /// value-initialized). Valid until the next upsert.
  Slot& upsert(const Key& key) {
    Slot* slot = probe(key);
    if (vacant(*slot)) {
      if ((used_ + 1) * 16 > slots_.size() * 10) {
        grow();
        slot = probe(key);
      }
      ++used_;
      slot->claim(key);
    }
    return *slot;
  }

  /// The slot holding `key`; null when absent.
  [[nodiscard]] const Slot* find(const Key& key) const {
    const Slot* slot = probe(key);
    return vacant(*slot) ? nullptr : slot;
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return find(key) != nullptr;
  }

  [[nodiscard]] std::size_t size() const { return used_; }

  /// Calls fn(slot) for every occupied slot, in table order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& slot : slots_)
      if (!vacant(slot)) fn(slot);
  }

 private:
  static bool vacant(const Slot& slot) { return slot.key() == Key{}; }

  [[nodiscard]] std::size_t start(const Key& key) const {
    return static_cast<std::size_t>(
        (Slot::hash(key) * 0x9E3779B97F4A7C15ull) >> (64 - log2_));
  }

  Slot* probe(const Key& key) {
    return const_cast<Slot*>(std::as_const(*this).probe(key));
  }
  const Slot* probe(const Key& key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = start(key) & mask;
    while (!vacant(slots_[i]) && !(slots_[i].key() == key))
      i = (i + 1) & mask;
    return &slots_[i];
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    ++log2_;
    slots_.assign(std::size_t{1} << log2_, Slot{});
    for (const auto& slot : old)
      if (!vacant(slot)) *probe(slot.key()) = slot;
  }

  int log2_;
  std::size_t used_ = 0;
  std::vector<Slot> slots_;
};

/// Slot of a set of nonzero 64-bit keys.
struct KeySlot {
  using Key = std::uint64_t;
  Key bits = 0;

  static std::uint64_t hash(Key k) { return k; }
  [[nodiscard]] Key key() const { return bits; }
  void claim(Key k) { bits = k; }
};
using FlatKeySet = FlatTable<KeySlot>;

/// Slot of a map from a nonzero 32-bit key (an IPv4 address) to a 32-bit
/// value.
struct U32MapSlot {
  using Key = std::uint32_t;
  Key bits = 0;
  std::uint32_t value = 0;

  static std::uint64_t hash(Key k) { return k; }
  [[nodiscard]] Key key() const { return bits; }
  void claim(Key k) { bits = k; }
};
using FlatU32Map = FlatTable<U32MapSlot>;

}  // namespace ran::core
