#include "latency_study.hpp"

#include <algorithm>
#include <limits>

#include "flat_table.hpp"
#include "interner.hpp"
#include "netbase/stats.hpp"
#include "probe/campaign.hpp"

namespace ran::infer {

std::vector<EdgeCoTarget> edge_co_targets(const CableStudy& study) {
  // One representative mapped address per inferred EdgeCO.
  std::map<std::string, EdgeCoTarget> chosen;
  for (const auto& [name, graph] : study.regions()) {
    const auto edges = graph.edge_cos();
    for (const auto& [addr, annotation] : study.mapping.map.entries()) {
      if (annotation.region != name) continue;
      if (!edges.contains(annotation.co_key)) continue;
      auto& slot = chosen[annotation.co_key];
      if (!slot.addr.is_unspecified()) continue;
      slot.co_key = annotation.co_key;
      slot.region = name;
      if (annotation.city != nullptr)
        slot.state = std::string{annotation.city->state};
      slot.addr = addr;
    }
  }
  std::vector<EdgeCoTarget> out;
  out.reserve(chosen.size());
  for (auto& [key, target] : chosen)
    if (!target.addr.is_unspecified()) out.push_back(std::move(target));
  return out;
}

double EdgeCoCloudRtt::nearest() const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [provider, rtt] : best_by_provider)
    best = std::min(best, rtt);
  return best;
}

std::vector<EdgeCoCloudRtt> cloud_latency_campaign(
    const sim::World& world, std::span<const vp::ExternalVp> cloud_vms,
    std::span<const EdgeCoTarget> targets, int pings) {
  std::vector<EdgeCoCloudRtt> out;
  out.reserve(targets.size());
  for (const auto& target : targets) {
    EdgeCoCloudRtt row;
    row.target = target;
    for (const auto& vm : cloud_vms) {
      const auto slash = vm.name.find('/');
      const std::string provider = vm.name.substr(0, slash);
      const auto rtt = world.min_rtt(vm.source(), target.addr, pings);
      if (!rtt) continue;
      const auto it = row.best_by_provider.find(provider);
      if (it == row.best_by_provider.end() || *rtt < it->second)
        row.best_by_provider[provider] = *rtt;
    }
    if (!row.best_by_provider.empty()) out.push_back(std::move(row));
  }
  return out;
}

std::map<std::string, std::map<std::string, double>> state_medians(
    std::span<const EdgeCoCloudRtt> rtts,
    std::span<const std::string> states) {
  std::map<std::string, std::map<std::string, std::vector<double>>> samples;
  for (const auto& row : rtts) {
    if (std::find(states.begin(), states.end(), row.target.state) ==
        states.end())
      continue;
    for (const auto& [provider, rtt] : row.best_by_provider)
      samples[provider][row.target.state].push_back(rtt);
  }
  std::map<std::string, std::map<std::string, double>> out;
  for (const auto& [provider, by_state] : samples)
    for (const auto& [state, values] : by_state)
      out[provider][state] = net::median(values);
  return out;
}

std::map<std::string, double> agg_to_edge_rtts(const CableStudy& study,
                                               int threads) {
  // Resolve every mapped address once: its region (interned, so equal
  // ids mean equal region strings), its CO, and whether that CO is an
  // AggCO of its region's graph. The per-hop loop below then reads only
  // this table.
  struct Mapped {
    std::uint32_t region = 0;
    std::uint32_t co = 0;
    bool agg = false;
  };
  core::Interner regions;
  core::Interner cos;
  std::vector<Mapped> mapped;
  core::FlatU32Map index_of{12};  // address -> index into `mapped`
  for (const auto& [addr, annotation] : study.mapping.map.entries()) {
    Mapped entry;
    entry.region = regions.intern(annotation.region);
    entry.co = cos.intern(annotation.co_key);
    const auto graph = study.regions().find(annotation.region);
    entry.agg = graph != study.regions().end() &&
                graph->second.agg_cos.contains(annotation.co_key);
    index_of.upsert(addr.value()).value =
        static_cast<std::uint32_t>(mapped.size());
    mapped.push_back(entry);
  }

  // Each worker keeps its own per-CO minimum; every candidate difference
  // is the same double whichever worker sees it, so merging by min is
  // exact at any thread count.
  constexpr double kNone = std::numeric_limits<double>::infinity();
  struct Worker {
    std::vector<double> best;
    std::vector<std::pair<const Mapped*, double>> hops;
  };
  std::vector<Worker> workers(
      static_cast<std::size_t>(probe::resolve_threads(threads)));
  for (auto& worker : workers) worker.best.assign(cos.size(), kNone);
  const auto& traces = study.corpus().traces;
  probe::parallel_for_indexed(
      traces.size(), static_cast<int>(workers.size()),
      [&](int id, std::size_t t) {
        auto& worker = workers[static_cast<std::size_t>(id)];
        // Mapped responding hops in order.
        auto& hops = worker.hops;
        hops.clear();
        for (const auto& hop : traces[t].hops) {
          if (!hop.responded()) continue;
          if (const auto* slot = index_of.find(hop.addr.value()))
            hops.emplace_back(&mapped[slot->value], hop.rtt_ms);
        }
        for (std::size_t i = 0; i < hops.size(); ++i) {
          const auto* agg = hops[i].first;
          if (!agg->agg) continue;
          for (std::size_t j = i + 1; j < hops.size(); ++j) {
            const auto* edge = hops[j].first;
            if (edge->region != agg->region || edge->agg) continue;
            const double diff = hops[j].second - hops[i].second;
            if (diff <= 0) continue;
            auto& best = worker.best[edge->co];
            best = std::min(best, diff);
          }
        }
      });

  std::map<std::string, double> out;
  for (std::uint32_t co = 0; co < cos.size(); ++co) {
    double best = kNone;
    for (const auto& worker : workers) best = std::min(best, worker.best[co]);
    if (best != kNone) out.emplace(std::string{cos.view(co)}, best);
  }
  return out;
}

}  // namespace ran::infer
