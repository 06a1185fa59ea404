#include "corpus_index.hpp"

#include <algorithm>
#include <tuple>

#include "flat_table.hpp"

namespace ran::infer {

namespace {

/// One unique directed pair, keyed by (a << 32) | b.
struct PairSlot {
  using Key = std::uint64_t;
  Key ab = 0;
  std::uint32_t count = 0;
  std::uint32_t transit_count = 0;
  std::uint32_t first_trace = 0;
  std::uint32_t last_trace = 0;
  std::uint32_t last_transit_seq = 0;

  static std::uint64_t hash(Key k) { return k; }
  [[nodiscard]] Key key() const { return ab; }
  void claim(Key k) { ab = k; }
};

/// One unique triplet, keyed by ((a << 32) | b) plus c in a separate
/// word; the first word is never zero for a valid entry (a responds).
struct TripletKey {
  std::uint64_t ab = 0;
  std::uint32_t c = 0;
  bool operator==(const TripletKey&) const = default;
};

struct TripletSlot {
  using Key = TripletKey;
  TripletKey abc;
  std::uint32_t count = 0;
  std::uint32_t last_seq = 0;

  static std::uint64_t hash(const Key& k) {
    return k.ab ^ (std::uint64_t{k.c} * 0xC2B2AE3D27D4EB4Full);
  }
  [[nodiscard]] const Key& key() const { return abc; }
  void claim(const Key& k) { abc = k; }
};

[[nodiscard]] std::vector<PairRecord> extract_pairs(
    const core::FlatTable<PairSlot>& table) {
  std::vector<PairRecord> out;
  out.reserve(table.size());
  table.for_each([&out](const PairSlot& slot) {
    PairRecord record;
    record.a = net::IPv4Address{static_cast<std::uint32_t>(slot.ab >> 32)};
    record.b =
        net::IPv4Address{static_cast<std::uint32_t>(slot.ab & 0xFFFFFFFFull)};
    record.count = slot.count;
    record.transit_count = slot.transit_count;
    record.first_trace = slot.first_trace;
    record.last_trace = slot.last_trace;
    record.last_transit_seq = slot.last_transit_seq;
    out.push_back(record);
  });
  std::sort(out.begin(), out.end(),
            [](const PairRecord& x, const PairRecord& y) {
              return std::pair{x.a, x.b} < std::pair{y.a, y.b};
            });
  return out;
}

[[nodiscard]] std::vector<TripletRecord> extract_triplets(
    const core::FlatTable<TripletSlot>& table) {
  std::vector<TripletRecord> out;
  out.reserve(table.size());
  table.for_each([&out](const TripletSlot& slot) {
    TripletRecord record;
    record.a =
        net::IPv4Address{static_cast<std::uint32_t>(slot.abc.ab >> 32)};
    record.b = net::IPv4Address{
        static_cast<std::uint32_t>(slot.abc.ab & 0xFFFFFFFFull)};
    record.c = net::IPv4Address{slot.abc.c};
    record.count = slot.count;
    record.last_seq = slot.last_seq;
    out.push_back(record);
  });
  std::sort(out.begin(), out.end(),
            [](const TripletRecord& x, const TripletRecord& y) {
              return std::tuple{x.a, x.b, x.c} < std::tuple{y.a, y.b, y.c};
            });
  return out;
}

}  // namespace

CorpusIndex CorpusIndex::build(const TraceCorpus& corpus) {
  CorpusIndex index;
  index.trace_count_ = corpus.traces.size();
  core::FlatTable<PairSlot> pairs{15};
  core::FlatTable<TripletSlot> triplets{16};
  std::uint32_t pair_seq = 0;
  std::uint32_t triplet_seq = 0;
  for (std::size_t t = 0; t < corpus.traces.size(); ++t) {
    const auto& trace = corpus.traces[t];
    const auto& hops = trace.hops;
    index.hop_count_ += hops.size();
    const auto trace_id = static_cast<std::uint32_t>(t);
    bool r_prev2 = false;
    bool r_prev = !hops.empty() && hops[0].responded();
    for (std::size_t i = 1; i < hops.size(); ++i) {
      const bool r_cur = hops[i].responded();
      if (r_prev && r_cur) {
        const auto a = hops[i - 1].addr;
        const auto b = hops[i].addr;
        if (a != b) {
          auto& slot =
              pairs.upsert((std::uint64_t{a.value()} << 32) | b.value());
          if (slot.count++ == 0) slot.first_trace = trace_id;
          slot.last_trace = trace_id;
          ++pair_seq;
          if (!(trace.reached && b == trace.dst)) {
            ++slot.transit_count;
            slot.last_transit_seq = pair_seq;
          }
          ++index.pair_occurrences_;
        }
      }
      if (r_prev2 && r_prev && r_cur) {
        auto& slot = triplets.upsert(
            {(std::uint64_t{hops[i - 2].addr.value()} << 32) |
                 hops[i - 1].addr.value(),
             hops[i].addr.value()});
        ++slot.count;
        slot.last_seq = ++triplet_seq;
      }
      r_prev2 = r_prev;
      r_prev = r_cur;
    }
  }
  index.pairs_ = extract_pairs(pairs);
  index.triplets_ = extract_triplets(triplets);
  return index;
}

}  // namespace ran::infer
