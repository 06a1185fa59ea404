#include "manifest.hpp"

#include <fstream>

#include "netbase/json.hpp"

namespace ran::obs {

void RunManifest::set_config(const std::string& key,
                             const std::string& value) {
  config_[key] = Scalar{Scalar::Kind::kString, value, 0, 0, 0.0, false};
}

void RunManifest::set_config(const std::string& key, std::int64_t value) {
  config_[key] = Scalar{Scalar::Kind::kInt, {}, 0, value, 0.0, false};
}

void RunManifest::set_config(const std::string& key, double value) {
  config_[key] = Scalar{Scalar::Kind::kDouble, {}, 0, 0, value, false};
}

void RunManifest::set_config(const std::string& key, bool value) {
  config_[key] = Scalar{Scalar::Kind::kBool, {}, 0, 0, 0.0, value};
}

void RunManifest::add_summary(const std::string& section,
                              const std::string& key, std::uint64_t value) {
  summary_[section][key] = Scalar{Scalar::Kind::kUint, {}, value, 0, 0.0,
                                  false};
}

void RunManifest::add_summary(const std::string& section,
                              const std::string& key, double value) {
  summary_[section][key] = Scalar{Scalar::Kind::kDouble, {}, 0, 0, value,
                                  false};
}

void RunManifest::add_summary(const std::string& section,
                              const std::string& key,
                              const std::string& value) {
  summary_[section][key] = Scalar{Scalar::Kind::kString, value, 0, 0, 0.0,
                                  false};
}

void RunManifest::capture(const Registry& registry) {
  metrics_ = registry.snapshot();
  captured_ = true;
}

void RunManifest::capture_provenance(const ProvenanceLog& log) {
  provenance_rules_ = log.rule_counts();
  provenance_edges_ = log.edges().size();
  provenance_decision_cap_ = log.decision_cap();
  provenance_dropped_decisions_ = log.dropped_decisions();
  provenance_captured_ = true;
}

void RunManifest::capture_resources(const ResourceProfiler& profiler) {
  resources_ = profiler.snapshot();
  resources_captured_ = true;
}

namespace {

void write_scalar(net::JsonWriter& json, const RunManifest::Scalar& v) {
  using Kind = RunManifest::Scalar::Kind;
  switch (v.kind) {
    case Kind::kString: json.value(v.s); break;
    case Kind::kUint: json.value(v.u); break;
    case Kind::kInt: json.value(v.i); break;
    case Kind::kDouble: json.value(v.d); break;
    case Kind::kBool: json.value(v.b); break;
  }
}

void write_stage(net::JsonWriter& json, const StageSnapshot& stage,
                 bool include_timings) {
  json.begin_object();
  json.key("name").value(stage.name);
  json.key("items").value(stage.items);
  if (include_timings) json.key("wall_ms").value(stage.wall_ms);
  if (!stage.children.empty()) {
    json.key("children").begin_array();
    for (const auto& child : stage.children)
      write_stage(json, child, include_timings);
    json.end_array();
  }
  json.end_object();
}

}  // namespace

std::string RunManifest::to_json(const ManifestOptions& options) const {
  net::JsonWriter json;
  json.begin_object();
  json.key("name").value(name_);

  json.key("config").begin_object();
  for (const auto& [key, value] : config_) {
    json.key(key);
    write_scalar(json, value);
  }
  json.end_object();

  json.key("summary").begin_object();
  for (const auto& [section, entries] : summary_) {
    json.key(section).begin_object();
    for (const auto& [key, value] : entries) {
      json.key(key);
      write_scalar(json, value);
    }
    json.end_object();
  }
  json.end_object();

  json.key("metrics").begin_object();
  json.key("counters").begin_object();
  for (const auto& [name, value] : metrics_.counters)
    json.key(name).value(value);
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [name, value] : metrics_.gauges)
    json.key(name).value(value);
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& [name, hist] : metrics_.histograms) {
    json.key(name).begin_object();
    json.key("count").value(hist.count);
    json.key("sum").value(hist.sum);
    json.key("mean").value(hist.mean());
    json.key("p50").value(hist.percentile(0.50));
    json.key("p90").value(hist.percentile(0.90));
    json.key("p99").value(hist.percentile(0.99));
    json.key("buckets").begin_array();
    for (const auto& [lower, count] : hist.buckets)
      json.begin_array().value(lower).value(count).end_array();
    json.end_array();
    json.end_object();
  }
  json.end_object();
  json.end_object();

  if (provenance_captured_) {
    json.key("provenance").begin_object();
    json.key("decision_cap").value(provenance_decision_cap_);
    json.key("dropped_decisions").value(provenance_dropped_decisions_);
    json.key("edges").value(provenance_edges_);
    json.key("rules").begin_object();
    for (const auto& [rule, counts] : provenance_rules_) {
      json.key(rule).begin_object();
      json.key("kept").value(counts.kept);
      json.key("removed").value(counts.removed);
      json.end_object();
    }
    json.end_object();
    json.end_object();
  }

  if (captured_) {
    json.key("stages");
    write_stage(json, metrics_.stages, options.include_timings);
  }

  if (resources_captured_) {
    json.key("resources").begin_object();
    json.key("nonvoluntary_ctxt_switches")
        .value(resources_.nonvoluntary_ctxt);
    json.key("vm_peak_kb").value(resources_.vm_peak_kb);
    json.key("vm_rss_kb").value(resources_.vm_rss_kb);
    json.key("voluntary_ctxt_switches").value(resources_.voluntary_ctxt);
    json.key("stages").begin_array();
    for (const auto& stage : resources_.stages) {
      json.begin_object();
      json.key("name").value(stage.name);
      json.key("rss_begin_kb").value(stage.rss_begin_kb);
      json.key("rss_end_kb").value(stage.rss_end_kb);
      json.key("delta_kb").value(stage.delta_kb);
      json.key("voluntary_ctxt").value(stage.voluntary_ctxt_delta);
      json.key("nonvoluntary_ctxt").value(stage.nonvoluntary_ctxt_delta);
      json.end_object();
    }
    json.end_array();
    json.key("structures").begin_object();
    for (const auto& [name, bytes] : resources_.structure_bytes)
      json.key(name).value(bytes);
    json.end_object();
    json.end_object();
  }

  if (options.include_timings) {
    json.key("volatile").begin_object();
    json.key("counters").begin_object();
    for (const auto& [name, value] : metrics_.volatile_counters)
      json.key(name).value(value);
    json.end_object();
    json.key("gauges").begin_object();
    for (const auto& [name, value] : metrics_.volatile_gauges)
      json.key(name).value(value);
    json.end_object();
    json.key("histograms").begin_object();
    for (const auto& [name, hist] : metrics_.volatile_histograms) {
      json.key(name).begin_object();
      json.key("count").value(hist.count);
      json.key("sum").value(hist.sum);
      json.key("mean").value(hist.mean());
      json.key("p50").value(hist.percentile(0.50));
      json.key("p90").value(hist.percentile(0.90));
      json.key("p99").value(hist.percentile(0.99));
      json.end_object();
    }
    json.end_object();
    json.end_object();
  }

  json.end_object();
  return json.str();
}

bool RunManifest::write_file(const std::string& path,
                             const ManifestOptions& options) const {
  std::ofstream os{path};
  if (!os) return false;
  os << to_json(options) << '\n';
  return os.good();
}

}  // namespace ran::obs
