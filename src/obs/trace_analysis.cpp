#include "trace_analysis.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "netbase/json.hpp"
#include "netbase/report.hpp"

namespace ran::obs {

namespace {

/// Missing/non-numeric fields read as 0 — the tracer always emits the
/// fields we ask for, and hand-built traces get forgiving defaults.
std::uint64_t num_field(const net::JsonValue& event, std::string_view key) {
  const auto* v = event.find(key);
  if (v == nullptr || !v->is_number() || v->num < 0) return 0;
  return static_cast<std::uint64_t>(v->num);
}

std::string str_field(const net::JsonValue& event, std::string_view key) {
  const auto* v = event.find(key);
  return v != nullptr && v->is_string() ? v->str : std::string{};
}

}  // namespace

bool TraceAnalysis::load_file(const std::string& path, std::string* error) {
  std::ifstream is{path};
  if (!is) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  if (!load_json(buffer.str(), error)) {
    if (error != nullptr) *error = path + ": " + *error;
    return false;
  }
  return true;
}

bool TraceAnalysis::load_json(std::string_view text, std::string* error) {
  const auto doc = net::parse_json(text, error);
  if (!doc) return false;
  const auto* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    if (error != nullptr) *error = "no traceEvents array";
    return false;
  }
  const auto file = static_cast<std::uint32_t>(file_wall_us_.size());

  // Per-thread open-span stacks. Events inside one tid appear in
  // chronological (seq) order in the document — the tracer's merge is
  // (ts, tid, seq) — so B/E pairing by nesting is a plain stack walk.
  struct OpenSpan {
    std::string name;
    std::string category;
    std::uint64_t ts_us = 0;
    std::uint64_t child_us = 0;
  };
  struct ThreadState {
    std::vector<OpenSpan> stack;
    ThreadStats stats;
    bool seen = false;
  };
  std::map<std::uint32_t, ThreadState> by_tid;

  std::uint64_t file_min = 0;
  std::uint64_t file_max = 0;
  bool any_event = false;

  // The root thread for critical-path attribution: earliest first event,
  // ties to the lowest tid. Only the first loaded file contributes.
  std::uint32_t root_tid = 0;
  bool have_root = false;
  if (file == 0) {
    std::map<std::uint32_t, std::uint64_t> first_ts;
    for (const auto& event : events->array) {
      if (!event.is_object()) continue;
      const auto tid = static_cast<std::uint32_t>(num_field(event, "tid"));
      first_ts.emplace(tid, num_field(event, "ts"));
    }
    std::uint64_t best_ts = 0;
    for (const auto& [tid, ts] : first_ts)  // tid-ascending: ties keep low
      if (!have_root || ts < best_ts) {
        have_root = true;
        root_tid = tid;
        best_ts = ts;
      }
  }
  std::uint64_t root_prev_ts = 0;
  bool root_started = false;
  std::vector<std::string> root_stack;

  for (const auto& event : events->array) {
    if (!event.is_object()) continue;
    const auto phase_str = str_field(event, "ph");
    if (phase_str.empty()) continue;
    const char phase = phase_str[0];
    const auto name = str_field(event, "name");
    const auto category = str_field(event, "cat");
    const auto ts = num_field(event, "ts");
    const auto tid = static_cast<std::uint32_t>(num_field(event, "tid"));

    auto& thread = by_tid[tid];
    if (!thread.seen) {
      thread.seen = true;
      thread.stats.file = file;
      thread.stats.tid = tid;
      thread.stats.first_ts_us = ts;
      thread.stats.last_ts_us = ts;
    }
    thread.stats.events += 1;
    thread.stats.first_ts_us = std::min(thread.stats.first_ts_us, ts);
    thread.stats.last_ts_us = std::max(thread.stats.last_ts_us, ts);
    if (!any_event) {
      any_event = true;
      file_min = ts;
      file_max = ts;
    }
    file_min = std::min(file_min, ts);
    file_max = std::max(file_max, ts);
    events_ += 1;

    // Critical path: wall time on the root thread belongs to whichever
    // span is innermost when it elapses ("(idle)" outside all spans).
    if (have_root && tid == root_tid && (phase == 'B' || phase == 'E')) {
      if (root_started && ts > root_prev_ts)
        critical_us_[root_stack.empty() ? "(idle)" : root_stack.back()] +=
            ts - root_prev_ts;
      root_started = true;
      root_prev_ts = ts;
      if (phase == 'B') root_stack.push_back(name);
      else if (!root_stack.empty()) root_stack.pop_back();
    }

    switch (phase) {
      case 'B': {
        thread.stack.push_back(OpenSpan{name, category, ts, 0});
        if (category == "campaign") thread.stats.campaign_spans += 1;
        break;
      }
      case 'E': {
        if (thread.stack.empty()) {
          unmatched_ends_ += 1;
          break;
        }
        OpenSpan open = std::move(thread.stack.back());
        thread.stack.pop_back();
        const std::uint64_t dur = ts >= open.ts_us ? ts - open.ts_us : 0;
        auto& agg = spans_[open.name];
        if (agg.count == 0) agg.category = open.category;
        agg.count += 1;
        agg.total_us += dur;
        agg.self_us += dur >= open.child_us ? dur - open.child_us : 0;
        if (thread.stack.empty())
          thread.stats.busy_us += dur;
        else
          thread.stack.back().child_us += dur;
        break;
      }
      case 'C': {
        const auto* args = event.find("args");
        auto& [samples, count] = counter_samples_[name];
        samples[(static_cast<std::uint64_t>(file) << 32) | tid] =
            args != nullptr ? num_field(*args, "value") : 0;
        count += 1;
        break;
      }
      case 'i': {
        instants_[name] += 1;
        break;
      }
      default: break;
    }
  }

  for (auto& [tid, thread] : by_tid) {
    unclosed_spans_ += thread.stack.size();
    threads_.push_back(thread.stats);
  }
  std::sort(threads_.begin(), threads_.end(),
            [](const ThreadStats& a, const ThreadStats& b) {
              return a.file != b.file ? a.file < b.file : a.tid < b.tid;
            });
  file_wall_us_.push_back(any_event ? file_max - file_min : 0);
  return true;
}

std::uint64_t TraceAnalysis::wall_us() const {
  std::uint64_t wall = 0;
  for (const auto w : file_wall_us_) wall = std::max(wall, w);
  return wall;
}

int TraceAnalysis::worker_thread_count() const {
  int workers = 0;
  for (const auto& thread : threads_)
    workers += thread.campaign_spans > 0;
  return workers > 0 ? workers : static_cast<int>(threads_.size());
}

std::map<std::string, TraceAnalysis::CounterStats>
TraceAnalysis::counters() const {
  std::map<std::string, CounterStats> out;
  for (const auto& [name, entry] : counter_samples_) {
    CounterStats stats;
    stats.events = entry.second;
    for (const auto& [thread_key, last] : entry.first) stats.final += last;
    out.emplace(name, stats);
  }
  return out;
}

std::vector<TraceAnalysis::CriticalSegment> TraceAnalysis::critical_path()
    const {
  std::vector<CriticalSegment> out;
  out.reserve(critical_us_.size());
  for (const auto& [name, us] : critical_us_)
    out.push_back(CriticalSegment{name, us});
  // Descending by time; name breaks ties so the ranking is total.
  std::sort(out.begin(), out.end(),
            [](const CriticalSegment& a, const CriticalSegment& b) {
              return a.us != b.us ? a.us > b.us : a.name < b.name;
            });
  return out;
}

std::string TraceAnalysis::canonical_json() const {
  // Scheduling-invariant structure only: what was traced, never when or
  // for how long.
  net::JsonWriter json;
  json.begin_object();
  json.key("canonical").value("ran.trace_analysis.v1");
  json.key("files").value(static_cast<std::uint64_t>(file_wall_us_.size()));
  json.key("spans").begin_object();
  for (const auto& [name, agg] : spans_) json.key(name).value(agg.count);
  json.end_object();
  json.key("instants").begin_object();
  for (const auto& [name, count] : instants_) json.key(name).value(count);
  json.end_object();
  json.key("counters").begin_object();
  for (const auto& [name, entry] : counter_samples_)
    json.key(name).value(entry.second);
  json.end_object();
  json.end_object();
  return json.str();
}

std::string TraceAnalysis::report_json() const {
  net::JsonWriter json;
  json.begin_object();
  json.key("report").value("ran.trace_analysis.report.v1");
  json.key("files").value(static_cast<std::uint64_t>(file_wall_us_.size()));
  json.key("events").value(events_);
  json.key("wall_us").value(wall_us());
  json.key("worker_threads")
      .value(static_cast<std::int64_t>(worker_thread_count()));

  json.key("spans").begin_object();
  for (const auto& [name, agg] : spans_) {
    json.key(name).begin_object();
    json.key("category").value(agg.category);
    json.key("count").value(agg.count);
    json.key("total_us").value(agg.total_us);
    json.key("self_us").value(agg.self_us);
    json.end_object();
  }
  json.end_object();

  json.key("critical_path").begin_array();
  for (const auto& segment : critical_path()) {
    json.begin_object();
    json.key("name").value(segment.name);
    json.key("us").value(segment.us);
    json.end_object();
  }
  json.end_array();

  json.key("threads").begin_array();
  for (const auto& thread : threads_) {
    const auto wall = file_wall_us_[thread.file];
    json.begin_object();
    json.key("file").value(static_cast<std::uint64_t>(thread.file));
    json.key("tid").value(static_cast<std::uint64_t>(thread.tid));
    json.key("events").value(thread.events);
    json.key("busy_us").value(thread.busy_us);
    json.key("utilization")
        .value(wall == 0 ? 0.0
                         : static_cast<double>(thread.busy_us) /
                               static_cast<double>(wall));
    json.end_object();
  }
  json.end_array();

  json.key("counters").begin_object();
  for (const auto& [name, stats] : counters()) {
    json.key(name).begin_object();
    json.key("events").value(stats.events);
    json.key("final").value(stats.final);
    json.end_object();
  }
  json.end_object();

  json.key("instants").begin_object();
  for (const auto& [name, count] : instants_) json.key(name).value(count);
  json.end_object();

  json.key("unmatched_ends").value(unmatched_ends_);
  json.key("unclosed_spans").value(unclosed_spans_);
  json.end_object();
  return json.str();
}

std::string TraceAnalysis::report_text(std::size_t top_n) const {
  std::ostringstream os;
  os << "trace analysis: " << file_wall_us_.size() << " file(s), "
     << events_ << " events, wall "
     << static_cast<double>(wall_us()) / 1000.0 << " ms, "
     << threads_.size() << " thread(s)\n";
  if (unmatched_ends_ > 0 || unclosed_spans_ > 0)
    os << "  (warning: " << unmatched_ends_ << " unmatched ends, "
       << unclosed_spans_ << " unclosed spans)\n";

  // Spans ranked by self time: where the run actually spent itself.
  std::vector<std::pair<std::string, const SpanStats*>> ranked;
  ranked.reserve(spans_.size());
  for (const auto& [name, agg] : spans_) ranked.emplace_back(name, &agg);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second->self_us != b.second->self_us
               ? a.second->self_us > b.second->self_us
               : a.first < b.first;
  });
  net::TextTable span_table{
      {"span", "cat", "count", "total_ms", "self_ms"}};
  for (std::size_t i = 0; i < ranked.size() && i < top_n; ++i)
    span_table.add_row(
        {ranked[i].first, ranked[i].second->category,
         std::to_string(ranked[i].second->count),
         net::fmt_double(static_cast<double>(ranked[i].second->total_us) /
                         1000.0),
         net::fmt_double(static_cast<double>(ranked[i].second->self_us) /
                         1000.0)});
  os << "\nspans by self time (top " << std::min(top_n, ranked.size())
     << " of " << ranked.size() << ")\n"
     << span_table.to_string();

  const auto critical = critical_path();
  if (!critical.empty()) {
    std::uint64_t critical_total = 0;
    for (const auto& segment : critical) critical_total += segment.us;
    net::TextTable crit_table{{"segment", "ms", "share"}};
    for (std::size_t i = 0; i < critical.size() && i < top_n; ++i)
      crit_table.add_row(
          {critical[i].name,
           net::fmt_double(static_cast<double>(critical[i].us) / 1000.0),
           net::fmt_percent(critical_total == 0
                                ? 0.0
                                : static_cast<double>(critical[i].us) /
                                      static_cast<double>(critical_total))});
    os << "\ncritical path (root thread, innermost-span attribution)\n"
       << crit_table.to_string();
  }

  net::TextTable thread_table{
      {"file", "tid", "events", "busy_ms", "utilization"}};
  for (const auto& thread : threads_) {
    const auto wall = file_wall_us_[thread.file];
    thread_table.add_row(
        {std::to_string(thread.file), std::to_string(thread.tid),
         std::to_string(thread.events),
         net::fmt_double(static_cast<double>(thread.busy_us) / 1000.0),
         net::fmt_percent(wall == 0 ? 0.0
                                    : static_cast<double>(thread.busy_us) /
                                          static_cast<double>(wall))});
  }
  os << "\nper-thread utilization\n" << thread_table.to_string();

  const auto counter_stats = counters();
  if (!counter_stats.empty()) {
    net::TextTable counter_table{{"counter", "events", "final"}};
    for (const auto& [name, stats] : counter_stats)
      counter_table.add_row({name, std::to_string(stats.events),
                             std::to_string(stats.final)});
    os << "\ncounters\n" << counter_table.to_string();
  }
  return os.str();
}

std::vector<TraceAnalysis::StageComparison> TraceAnalysis::compare(
    const TraceAnalysis& base, const TraceAnalysis& other) {
  std::vector<StageComparison> out;
  const auto workers = other.worker_thread_count();
  const auto add = [&out, workers](const std::string& name,
                                   std::uint64_t base_us,
                                   std::uint64_t other_us) {
    StageComparison row;
    row.name = name;
    row.base_us = base_us;
    row.other_us = other_us;
    row.speedup = other_us == 0 ? 0.0
                                : static_cast<double>(base_us) /
                                      static_cast<double>(other_us);
    row.efficiency = workers <= 0 ? 0.0 : row.speedup / workers;
    out.push_back(std::move(row));
  };
  add("[wall]", base.wall_us(), other.wall_us());
  for (const auto& [name, agg] : base.spans_) {
    if (agg.category != "stage") continue;
    const auto it = other.spans_.find(name);
    if (it == other.spans_.end() || it->second.category != "stage")
      continue;
    add(name, agg.total_us, it->second.total_us);
  }
  return out;
}

}  // namespace ran::obs
