#include "pruning.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "corpus_index.hpp"
#include "interner.hpp"
#include "netbase/strings.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "probe/campaign.hpp"

namespace ran::infer {

void PruningStats::publish(obs::Registry& registry,
                           const std::string& prefix) const {
  registry.counter(prefix + ".ip_adj.initial").inc(ip_adj_initial);
  registry.counter(prefix + ".ip_adj.mpls").inc(ip_adj_mpls);
  registry.counter(prefix + ".ip_adj.backbone").inc(ip_adj_backbone);
  registry.counter(prefix + ".ip_adj.cross_region").inc(ip_adj_cross_region);
  registry.counter(prefix + ".ip_adj.single").inc(ip_adj_single);
  registry.counter(prefix + ".co_adj.initial").inc(co_adj_initial);
  registry.counter(prefix + ".co_adj.mpls").inc(co_adj_mpls);
  registry.counter(prefix + ".co_adj.backbone").inc(co_adj_backbone);
  registry.counter(prefix + ".co_adj.cross_region").inc(co_adj_cross_region);
  registry.counter(prefix + ".co_adj.single").inc(co_adj_single);
}

AddressPairSet::AddressPairSet(
    std::initializer_list<std::pair<net::IPv4Address, net::IPv4Address>>
        pairs) {
  for (const auto& [a, b] : pairs) insert(a, b);
}

AddressPairSet separated_pairs(const TraceCorpus& followups) {
  AddressPairSet out;
  std::vector<net::IPv4Address> hops;  // responding hops, in order
  for (const auto& trace : followups.traces) {
    hops.clear();
    for (const auto& hop : trace.hops)
      if (hop.responded()) hops.push_back(hop.addr);
    for (std::size_t i = 0; i < hops.size(); ++i)
      for (std::size_t j = i + 2; j < hops.size(); ++j)
        if (hops[i] != hops[j]) out.insert(hops[i], hops[j]);
  }
  return out;
}

namespace {

constexpr auto kNoTrace = std::numeric_limits<std::size_t>::max();

/// One CO adjacency aggregated from its address-level observations.
struct CoAdj {
  int traces = 0;  ///< total observations
  bool backbone = false;
  bool cross_region = false;
  bool mpls = false;
  std::string region;
  std::size_t first_trace = kNoTrace;  ///< earliest non-tunnel support
  std::size_t last_trace = kNoTrace;   ///< latest non-tunnel support
};

/// Address-level MPLS separation evidence plus the CO-level relaxation
/// for endpoints whose mapping did NOT come from their own rDNS (§5.1):
/// loopback/LAN repliers never reappear in follow-up traces, so their
/// separation evidence is lifted to (CO, exact far-end address). COs are
/// interned, so both lifted sets hold packed integer keys.
struct MplsSeparation {
  const AddressPairSet* raw = nullptr;
  core::Interner cos;        ///< CO keys of mapped separated endpoints
  core::FlatKeySet from_co;  ///< (CO id << 32) | far-end address
  core::FlatKeySet to_co;    ///< (near-end address << 32) | CO id

  [[nodiscard]] bool separated(net::IPv4Address from, net::IPv4Address to,
                               const CoAnnotation& a,
                               const CoAnnotation& b) const {
    if (raw->contains(from, to)) return true;
    if (!a.from_rdns) {
      const auto id = cos.find(a.co_key);
      if (id != core::Interner::kInvalidId &&
          from_co.contains((std::uint64_t{id} << 32) | to.value()))
        return true;
    }
    if (!b.from_rdns) {
      const auto id = cos.find(b.co_key);
      if (id != core::Interner::kInvalidId &&
          to_co.contains((std::uint64_t{from.value()} << 32) | id))
        return true;
    }
    return false;
  }
};

[[nodiscard]] MplsSeparation lift_separations(
    const AddressPairSet& mpls_separated, const CoMap& co_map) {
  MplsSeparation sep;
  sep.raw = &mpls_separated;
  mpls_separated.for_each([&](net::IPv4Address a, net::IPv4Address b) {
    if (const auto* ca = co_map.get(a))
      sep.from_co.upsert((std::uint64_t{sep.cos.intern(ca->co_key)} << 32) |
                         b.value());
    if (const auto* cb = co_map.get(b))
      sep.to_co.upsert((std::uint64_t{a.value()} << 32) |
                       sep.cos.intern(cb->co_key));
  });
  return sep;
}

[[nodiscard]] std::string trace_id_of(const TraceCorpus& corpus,
                                      std::size_t index) {
  if (index == kNoTrace) return {};
  const auto& trace = corpus.traces[index];
  return "(" + trace.vp + "," + trace.dst.to_string() + ")";
}

/// Classifies one CO adjacency: provenance support + decision record,
/// per-rule stats, and — when kept — the edge in its region's graph.
/// The serial loop and every parallel shard funnel through this, so
/// their transcripts agree by construction.
void classify_co_adj(const std::pair<std::string, std::string>& pair,
                     const CoAdj& adj, const TraceCorpus& corpus,
                     PruningStats& stats, obs::ProvenanceLog* provenance,
                     std::map<std::string, RegionalGraph>& regions) {
  if (provenance != nullptr)
    provenance->add_support(pair.first, pair.second,
                            static_cast<std::uint64_t>(adj.traces),
                            trace_id_of(corpus, adj.first_trace),
                            trace_id_of(corpus, adj.last_trace));
  if (adj.mpls) {
    ++stats.co_adj_mpls;
    if (provenance != nullptr)
      provenance->record(pair.first, pair.second, "prune.mpls", false,
                         "every address-level adjacency spans an MPLS "
                         "tunnel (follow-up traces separate the pair)");
    return;
  }
  if (adj.backbone) {
    ++stats.co_adj_backbone;
    if (provenance != nullptr)
      provenance->record(pair.first, pair.second, "prune.backbone",
                         false,
                         "an endpoint sits in the backbone mesh; "
                         "re-added as an entry in s5.2.5");
    return;  // re-added as entries in §5.2.5
  }
  if (adj.cross_region) {
    ++stats.co_adj_cross_region;
    if (provenance != nullptr)
      provenance->record(pair.first, pair.second, "prune.cross_region",
                         false,
                         "endpoints map to different regions (likely "
                         "stale rDNS, B.2)");
    return;  // likely stale rDNS (B.2); entries come back in §5.2.5
  }
  if (adj.traces <= 1) {
    ++stats.co_adj_single;  // anomalous single-trace edge
    if (provenance != nullptr)
      provenance->record(
          pair.first, pair.second, "prune.single", false,
          net::format("only %d observation(s); anomalous hop discipline "
                      "of s5.2.1",
                      adj.traces));
    return;
  }
  if (provenance != nullptr)
    provenance->record(
        pair.first, pair.second, "prune.kept", true,
        net::format("%d observations, intra-region (%s)", adj.traces,
                    adj.region.c_str()));
  auto& graph = regions[adj.region];
  graph.region = adj.region;
  graph.add_edge(pair.first, pair.second, adj.traces);
}

}  // namespace

AdjacencyResult build_and_prune(
    const TraceCorpus& corpus, const CorpusIndex& index, const CoMap& co_map,
    const AddressPairSet& mpls_separated, obs::ProvenanceLog* provenance,
    obs::Log* log, int threads) {
  AdjacencyResult result;
  auto& stats = result.stats;
  const auto sep = lift_separations(mpls_separated, co_map);

  // One linear pass over the corpus's unique pairs, sorted by (a, b)
  // address key: two CoMap lookups per *unique* pair instead of two per
  // hop pair. Each CO adjacency's first/last supporting trace is the
  // min/max corpus index over its address pairs, and co_adjs iterates in
  // sorted CO-key order — the order the golden fixtures pin.
  std::map<std::pair<std::string, std::string>, CoAdj> co_adjs;
  for (const auto& record : index.pairs()) {
    const auto* ca = co_map.get(record.a);
    if (ca == nullptr) continue;
    const auto* cb = co_map.get(record.b);
    if (cb == nullptr) continue;
    ++stats.ip_adj_initial;
    const bool mpls = sep.separated(record.a, record.b, *ca, *cb);
    const bool backbone = ca->backbone || cb->backbone;
    // Table 4 IP column: single-observation adjacencies that survive
    // the MPLS, backbone and cross-region rules.
    if (record.count == 1 && !mpls && !backbone &&
        ca->region == cb->region)
      ++stats.ip_adj_single;
    if (ca->co_key == cb->co_key) continue;  // intra-CO hop
    const bool cross_region = !backbone && ca->region != cb->region;
    if (mpls) ++stats.ip_adj_mpls;
    else if (backbone) ++stats.ip_adj_backbone;
    else if (cross_region) ++stats.ip_adj_cross_region;

    auto& co = co_adjs[{ca->co_key, cb->co_key}];
    if (!mpls) {
      co.traces += static_cast<int>(record.count);
      co.first_trace = std::min(co.first_trace,
                                std::size_t{record.first_trace});
      if (co.last_trace == kNoTrace || record.last_trace > co.last_trace)
        co.last_trace = record.last_trace;
    }
    // The CO pair is false only when every address-level adjacency
    // between the COs is tunnel-spanning.
    co.mpls = (co.mpls || mpls) && co.traces == 0;
    co.backbone = co.backbone || backbone;
    co.cross_region = co.cross_region || cross_region;
    if (!ca->backbone) co.region = ca->region;
    else if (!cb->backbone) co.region = cb->region;
  }
  stats.co_adj_initial = co_adjs.size();

  threads = probe::resolve_threads(threads);
  if (threads <= 1) {
    for (const auto& [pair, adj] : co_adjs)
      classify_co_adj(pair, adj, corpus, stats, provenance, result.regions);
  } else {
    // Partition by region and classify per region in parallel. Every CO
    // pair appears exactly once in co_adjs, so the shards' provenance
    // edge keys are disjoint and merging them in sorted region order
    // reproduces the serial transcript byte for byte (ProvenanceLog
    // serializes its maps by key, not insertion order).
    using Entry = std::pair<const std::pair<std::string, std::string>,
                            CoAdj>;
    std::map<std::string, std::vector<const Entry*>> by_region;
    for (const auto& entry : co_adjs)
      by_region[entry.second.region].push_back(&entry);
    std::vector<const std::vector<const Entry*>*> partitions;
    partitions.reserve(by_region.size());
    for (const auto& [region, entries] : by_region)
      partitions.push_back(&entries);

    struct Shard {
      PruningStats stats;
      obs::ProvenanceLog provenance;
      std::map<std::string, RegionalGraph> regions;
    };
    std::vector<Shard> shards(partitions.size());
    probe::parallel_for(partitions.size(), threads, [&](std::size_t p) {
      auto& shard = shards[p];
      auto* shard_provenance =
          provenance != nullptr ? &shard.provenance : nullptr;
      for (const auto* entry : *partitions[p])
        classify_co_adj(entry->first, entry->second, corpus, shard.stats,
                        shard_provenance, shard.regions);
    });
    for (auto& shard : shards) {
      stats.co_adj_mpls += shard.stats.co_adj_mpls;
      stats.co_adj_backbone += shard.stats.co_adj_backbone;
      stats.co_adj_cross_region += shard.stats.co_adj_cross_region;
      stats.co_adj_single += shard.stats.co_adj_single;
      if (provenance != nullptr) provenance->merge(shard.provenance);
      for (auto& [region, graph] : shard.regions)
        result.regions[region] = std::move(graph);
    }
  }

  if (log != nullptr) {
    const std::size_t pruned = stats.co_adj_mpls + stats.co_adj_backbone +
                               stats.co_adj_cross_region +
                               stats.co_adj_single;
    if (stats.co_adj_initial > 0 && pruned == stats.co_adj_initial)
      log->warn("b2.prune",
                net::format("pruning removed all %zu CO adjacencies; no "
                            "regional graph survives",
                            stats.co_adj_initial));
    else if (log->enabled(obs::LogLevel::kInfo))
      log->info("b2.prune",
                net::format("pruned %zu of %zu CO adjacencies "
                            "(mpls %zu, backbone %zu, cross-region %zu, "
                            "single %zu); %zu region(s) survive",
                            pruned, stats.co_adj_initial, stats.co_adj_mpls,
                            stats.co_adj_backbone, stats.co_adj_cross_region,
                            stats.co_adj_single, result.regions.size()));
  }
  return result;
}

}  // namespace ran::infer
