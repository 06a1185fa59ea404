// One-pass trace-corpus index shared by the inference kernels.
//
// B.1's point-to-point votes, B.2's adjacency extraction and §5.2.5's
// entry triplets all need the corpus's consecutive hop pairs or
// triplets. Rather than each rescanning ~2M raw hop pairs, they share
// one pass that reduces the corpus to its *unique* observations:
//
//   * pairs():    unique directed responding hop pairs (x != y) with
//                 occurrence counts, transit-only counts (terminal
//                 destination echoes excluded, see consecutive_pairs),
//                 and first/last supporting trace indices — everything
//                 B.1 pass 3 and B.2 need;
//   * triplets(): unique consecutive responding hop triplets with
//                 occurrence counts — everything §5.2.5 needs.
//
// Both tables are core::FlatTables during the scan (packed integer
// keys, linear probing; see flat_table.hpp) and are exported as vectors
// sorted by address key. Consumers iterate in that order and break ties by corpus
// order (first/last trace index, last-occurrence sequence numbers), so
// stats, provenance and exports depend only on the corpus — never on
// hash layout or thread count. The golden fixtures pin the result.
#pragma once

#include <cstdint>
#include <vector>

#include "observations.hpp"

namespace ran::infer {

/// One unique directed responding hop pair of the corpus.
struct PairRecord {
  net::IPv4Address a;
  net::IPv4Address b;
  std::uint32_t count = 0;          ///< occurrences (all)
  std::uint32_t transit_count = 0;  ///< occurrences excluding destination
                                    ///< echoes (reached && b == dst)
  std::uint32_t first_trace = 0;    ///< corpus index of first occurrence
  std::uint32_t last_trace = 0;     ///< corpus index of last occurrence
  /// Corpus-order sequence number (1-based) of the last *transit*
  /// occurrence; 0 when every occurrence was a destination echo. Lets
  /// consumers let the latest occurrence win a tie (last writer wins).
  std::uint32_t last_transit_seq = 0;
};

/// One unique consecutive responding hop triplet of the corpus.
struct TripletRecord {
  net::IPv4Address a;
  net::IPv4Address b;
  net::IPv4Address c;
  std::uint32_t count = 0;
  /// Corpus-order sequence number (1-based) of the *last* occurrence —
  /// lets consumers let the latest occurrence win (last writer wins).
  std::uint32_t last_seq = 0;
};

class CorpusIndex {
 public:
  /// Scans the corpus once and builds both tables.
  [[nodiscard]] static CorpusIndex build(const TraceCorpus& corpus);

  /// Unique pairs, sorted by (a, b).
  [[nodiscard]] const std::vector<PairRecord>& pairs() const {
    return pairs_;
  }
  /// Unique triplets, sorted by (a, b, c).
  [[nodiscard]] const std::vector<TripletRecord>& triplets() const {
    return triplets_;
  }

  [[nodiscard]] std::size_t trace_count() const { return trace_count_; }
  [[nodiscard]] std::size_t hop_count() const { return hop_count_; }
  /// Total responding-pair occurrences folded into pairs().
  [[nodiscard]] std::uint64_t pair_occurrences() const {
    return pair_occurrences_;
  }

 private:
  std::vector<PairRecord> pairs_;
  std::vector<TripletRecord> triplets_;
  std::size_t trace_count_ = 0;
  std::size_t hop_count_ = 0;
  std::uint64_t pair_occurrences_ = 0;
};

}  // namespace ran::infer
