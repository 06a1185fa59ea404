#include "trace.hpp"

#include <algorithm>
#include <fstream>

#include "netbase/json.hpp"

namespace ran::obs {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

void Tracer::record(char phase, std::string_view name,
                    const char* category, std::uint64_t value) {
  auto& events = buffers_.local();
  TraceEvent event;
  event.phase = phase;
  event.ts_us = now_us();
  event.seq = events.size();
  event.value = value;
  event.name.assign(name);
  event.category = category;
  events.push_back(std::move(event));
}

void Tracer::begin(std::string_view name, const char* category) {
  record('B', name, category);
}

void Tracer::end(std::string_view name) { record('E', name, ""); }

void Tracer::instant(std::string_view name, const char* category) {
  record('i', name, category);
}

void Tracer::counter(std::string_view name, std::uint64_t value,
                     const char* category) {
  record('C', name, category, value);
}

void Tracer::reset() {
  buffers_.for_each([](std::uint32_t, Events& events) { events.clear(); });
  epoch_ = std::chrono::steady_clock::now();
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  buffers_.for_each(
      [&n](std::uint32_t, const Events& events) { n += events.size(); });
  return n;
}

std::string Tracer::to_chrome_json() const {
  struct Row {
    const TraceEvent* event;
    std::uint32_t tid;
  };
  std::vector<Row> rows;
  buffers_.for_each([&rows](std::uint32_t tid, const Events& events) {
    for (const auto& event : events) rows.push_back({&event, tid});
  });
  // Deterministic merge: identical buffer contents always produce
  // identical bytes, whatever order threads registered or finished in.
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.event->ts_us != b.event->ts_us)
      return a.event->ts_us < b.event->ts_us;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.event->seq < b.event->seq;
  });

  std::string out;
  out.reserve(rows.size() * 96 + 64);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& row : rows) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    out += net::json_escape(row.event->name);
    out += "\",\"cat\":\"";
    out += net::json_escape(row.event->category);
    out += "\",\"ph\":\"";
    out += row.event->phase;
    out += "\",\"ts\":";
    out += std::to_string(row.event->ts_us);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(row.tid);
    if (row.event->phase == 'C') {
      out += ",\"args\":{\"value\":";
      out += std::to_string(row.event->value);
      out += '}';
    }
    out += '}';
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool Tracer::write_file(const std::string& path) const {
  std::ofstream os{path};
  if (!os) return false;
  os << to_chrome_json() << '\n';
  return os.good();
}

}  // namespace ran::obs
