#include "diff.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <regex>

#include "netbase/strings.hpp"

namespace ran::obs {

namespace {

using net::JsonValue;

/// Renders a scalar for the report. Containers never reach this: the
/// walk recurses into them and only compares leaves.
std::string render(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return v.b ? "true" : "false";
    case JsonValue::Kind::kNumber: return v.str;  // raw source token
    case JsonValue::Kind::kString: return "\"" + v.str + "\"";
    case JsonValue::Kind::kArray: return "<array>";
    case JsonValue::Kind::kObject: return "<object>";
  }
  return "<?>";
}

/// Leaf name of a dotted path ("stages.children[2].wall_ms" -> "wall_ms").
std::string_view leaf_of(std::string_view path) {
  const auto dot = path.rfind('.');
  return dot == std::string_view::npos ? path : path.substr(dot + 1);
}

bool is_volatile_path(std::string_view path) {
  return path.rfind("volatile.", 0) == 0 ||
         path.rfind("resources.", 0) == 0 || leaf_of(path) == "wall_ms";
}

class ManifestDiffer {
 public:
  explicit ManifestDiffer(const DiffOptions& options) : options_(options) {}

  DiffReport run(const JsonValue& before, const JsonValue& after) {
    walk("", &before, &after);
    return std::move(report_);
  }

 private:
  void record(const std::string& path, DiffEntry::Kind kind,
              std::string left, std::string right, bool within) {
    if (kind == DiffEntry::Kind::kDeterministic)
      ++report_.deterministic_differences;
    else if (!within)
      ++report_.volatile_out_of_tolerance;
    report_.differences.push_back(
        DiffEntry{path, kind, std::move(left), std::move(right), within});
  }

  void diff_leaf(const std::string& path, const JsonValue& a,
                 const JsonValue& b) {
    ++report_.paths_compared;
    const bool vol = is_volatile_path(path);
    if (vol && a.is_number() && b.is_number()) {
      const double diff = std::abs(a.num - b.num);
      const double bound =
          options_.abs_tolerance +
          options_.rel_tolerance * std::max(std::abs(a.num), std::abs(b.num));
      if (a.str != b.str)
        record(path, DiffEntry::Kind::kVolatile, render(a), render(b),
               diff <= bound);
      return;
    }
    // Exact: kind plus payload, numbers by raw token so that even
    // value-equal re-renderings ("1e3" vs "1000") count as drift in a
    // deterministic artifact.
    const bool equal =
        a.kind == b.kind &&
        (a.kind == JsonValue::Kind::kNull ||
         (a.kind == JsonValue::Kind::kBool && a.b == b.b) ||
         (a.kind != JsonValue::Kind::kBool && a.str == b.str));
    if (!equal)
      record(path,
             vol ? DiffEntry::Kind::kVolatile
                 : DiffEntry::Kind::kDeterministic,
             render(a), render(b), /*within=*/false);
  }

  void absent(const std::string& path, const JsonValue* a,
              const JsonValue* b) {
    ++report_.paths_compared;
    // A section present on one side only is structural drift regardless
    // of namespace — tolerance applies to values, not to shape.
    record(path, DiffEntry::Kind::kDeterministic,
           a != nullptr ? render(*a) : "<absent>",
           b != nullptr ? render(*b) : "<absent>", /*within=*/false);
  }

  void walk(const std::string& path, const JsonValue* a,
            const JsonValue* b) {
    if (a == nullptr || b == nullptr) {
      absent(path, a, b);
      return;
    }
    if (a->is_object() && b->is_object()) {
      // Union of keys, each side in document order (manifests emit
      // sorted keys, so this stays deterministic).
      std::map<std::string, std::pair<const JsonValue*, const JsonValue*>>
          members;
      for (const auto& [key, value] : a->object)
        members[key].first = &value;
      for (const auto& [key, value] : b->object)
        members[key].second = &value;
      for (const auto& [key, sides] : members)
        walk(path.empty() ? key : path + "." + key, sides.first,
             sides.second);
      return;
    }
    if (a->is_array() && b->is_array()) {
      const std::size_t n = std::max(a->array.size(), b->array.size());
      for (std::size_t i = 0; i < n; ++i)
        walk(net::format("%s[%zu]", path.c_str(), i),
             i < a->array.size() ? &a->array[i] : nullptr,
             i < b->array.size() ? &b->array[i] : nullptr);
      return;
    }
    diff_leaf(path, *a, *b);
  }

  DiffOptions options_;
  DiffReport report_;
};

}  // namespace

DiffReport diff_manifests(const JsonValue& before, const JsonValue& after,
                          const DiffOptions& options) {
  return ManifestDiffer{options}.run(before, after);
}

DiffReport diff_bench(const JsonValue& before, const JsonValue& after,
                      const BenchDiffOptions& options) {
  DiffReport report;
  // Timings from another CPU count or build type say nothing about a
  // change, so a host-class mismatch stops the comparison here.
  for (const char* field : {"num_cpus", "build_type", "library_build_type"}) {
    const auto side = [field](const JsonValue& doc) {
      const auto* context = doc.find("context");
      const auto* value = context != nullptr ? context->find(field) : nullptr;
      return value != nullptr ? render(*value) : std::string{"<absent>"};
    };
    auto left = side(before);
    auto right = side(after);
    if (left == right) continue;
    ++report.host_class_differences;
    report.differences.push_back(
        DiffEntry{std::string{"context."} + field, DiffEntry::Kind::kHostClass,
                  std::move(left), std::move(right), false});
  }
  if (!report.comparable()) return report;
  std::optional<std::regex> filter;
  if (!options.name_filter.empty())
    filter.emplace(options.name_filter, std::regex::ECMAScript);
  const auto collect = [&](const JsonValue& doc) {
    std::map<std::string, const JsonValue*> out;
    if (const auto* benches = doc.find("benchmarks");
        benches != nullptr && benches->is_array())
      for (const auto& bench : benches->array)
        if (const auto* name = bench.find("name");
            name != nullptr && name->is_string())
          if (!filter || std::regex_search(name->str, *filter))
            out[name->str] = &bench;
    return out;
  };
  const auto lhs = collect(before);
  const auto rhs = collect(after);

  std::map<std::string, std::pair<const JsonValue*, const JsonValue*>> all;
  for (const auto& [name, bench] : lhs) all[name].first = bench;
  for (const auto& [name, bench] : rhs) all[name].second = bench;

  for (const auto& [name, sides] : all) {
    ++report.paths_compared;
    if (sides.first == nullptr || sides.second == nullptr) {
      ++report.deterministic_differences;
      report.differences.push_back(DiffEntry{
          name, DiffEntry::Kind::kDeterministic,
          sides.first != nullptr ? "<present>" : "<absent>",
          sides.second != nullptr ? "<present>" : "<absent>",
          /*within_tolerance=*/false});
      continue;
    }
    const auto* t0 = sides.first->find("real_time");
    const auto* t1 = sides.second->find("real_time");
    if (t0 == nullptr || t1 == nullptr || !t0->is_number() ||
        !t1->is_number())
      continue;
    if (t0->str == t1->str) continue;
    const bool within =
        t1->num <= t0->num * (1.0 + options.slowdown_threshold);
    if (!within) ++report.volatile_out_of_tolerance;
    report.differences.push_back(DiffEntry{name + ".real_time",
                                           DiffEntry::Kind::kVolatile,
                                           t0->str, t1->str, within});
  }
  return report;
}

std::string DiffReport::text() const {
  std::string out =
      comparable()
          ? net::format(
                "%llu paths compared, %llu deterministic difference(s), "
                "%llu volatile value(s) out of tolerance -> %s\n",
                static_cast<unsigned long long>(paths_compared),
                static_cast<unsigned long long>(deterministic_differences),
                static_cast<unsigned long long>(volatile_out_of_tolerance),
                gate_ok() ? "OK" : "FAIL")
          : net::format("%llu host-class field(s) differ, timings not "
                        "compared -> INCOMPARABLE\n",
                        static_cast<unsigned long long>(
                            host_class_differences));
  for (const auto& entry : differences) {
    const char* tag =
        entry.kind == DiffEntry::Kind::kHostClass ? "HOST-CLASS   "
        : entry.kind == DiffEntry::Kind::kDeterministic
            ? "DETERMINISTIC"
            : (entry.within_tolerance ? "volatile     " : "VOLATILE-OOT ");
    out += net::format("  [%s] %s: %s -> %s\n", tag, entry.path.c_str(),
                       entry.left.c_str(), entry.right.c_str());
  }
  return out;
}

std::string DiffReport::to_json() const {
  net::JsonWriter json;
  json.begin_object();
  json.key("gate_ok").value(gate_ok());
  json.key("comparable").value(comparable());
  json.key("paths_compared").value(paths_compared);
  json.key("deterministic_differences").value(deterministic_differences);
  json.key("volatile_out_of_tolerance").value(volatile_out_of_tolerance);
  json.key("differences").begin_array();
  for (const auto& entry : differences) {
    json.begin_object();
    json.key("path").value(entry.path);
    json.key("kind").value(
        entry.kind == DiffEntry::Kind::kHostClass       ? "host_class"
        : entry.kind == DiffEntry::Kind::kDeterministic ? "deterministic"
                                                        : "volatile");
    json.key("left").value(entry.left);
    json.key("right").value(entry.right);
    if (entry.kind == DiffEntry::Kind::kVolatile)
      json.key("within_tolerance").value(entry.within_tolerance);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace ran::obs
