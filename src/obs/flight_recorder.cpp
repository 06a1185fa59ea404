#include "flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "netbase/json.hpp"

namespace ran::obs {

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(std::move(config)),
      epoch_(std::chrono::steady_clock::now()) {
  if (config_.capacity == 0) config_.capacity = 1;
}

std::uint64_t FlightRecorder::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void FlightRecorder::record(std::uint64_t rid, std::string_view request,
                            std::string_view op, std::string_view reason,
                            std::uint64_t latency_us, bool is_error) {
  auto& ring = rings_.local([this](Ring& fresh) {
    fresh.slots.resize(config_.capacity);
    for (auto& slot : fresh.slots) {
      slot.request.reserve(config_.max_request_chars);
      slot.op.reserve(16);
      slot.reason.reserve(16);
    }
  });
  if (request.size() > config_.max_request_chars)
    request = request.substr(0, config_.max_request_chars);
  {
    // Uncontended except while a dump copies this ring: the owner thread
    // is the only other party that ever takes this mutex.
    const std::lock_guard lock{ring.mutex};
    FlightRecord& slot = ring.slots[ring.next];
    slot.rid = rid;
    slot.ts_us = now_us();
    slot.latency_us = latency_us;
    slot.request.assign(request);
    slot.op.assign(op);
    slot.reason.assign(reason);
    ring.next = (ring.next + 1) % config_.capacity;
    if (ring.filled < config_.capacity) ++ring.filled;
  }
  total_.fetch_add(1, std::memory_order_relaxed);
  if (is_error) note_error();
}

void FlightRecorder::note_error() {
  if (config_.burst_threshold == 0 || config_.burst_path.empty()) return;
  const std::uint64_t now_ms = now_us() / 1000;
  const std::uint64_t window = now_ms / config_.burst_window_ms;
  std::uint64_t start = window_index_.load(std::memory_order_relaxed);
  if (start != window) {
    // First error of a new window resets the count; a racing loser just
    // adds its error to the fresh window, which only makes the trigger
    // marginally more eager — never silent.
    if (window_index_.compare_exchange_strong(start, window,
                                                 std::memory_order_relaxed))
      window_errors_.store(0, std::memory_order_relaxed);
  }
  const auto errors =
      window_errors_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (errors < config_.burst_threshold) return;
  // Dump at most once per window.
  std::uint64_t last = last_burst_window_.load(std::memory_order_relaxed);
  if (last == window ||
      !last_burst_window_.compare_exchange_strong(last, window,
                                                  std::memory_order_relaxed))
    return;
  if (dump_file(config_.burst_path))
    burst_dumps_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<FlightRecord> FlightRecorder::last_records() const {
  std::vector<FlightRecord> records;
  rings_.for_each([&records](std::uint32_t tid, const Ring& ring) {
    const std::lock_guard lock{ring.mutex};
    records.reserve(records.size() + ring.filled);
    for (std::size_t i = 0; i < ring.filled; ++i) {
      records.push_back(ring.slots[i]);
      records.back().tid = tid;
    }
  });
  std::sort(records.begin(), records.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.rid < b.rid;
            });
  if (records.size() > config_.capacity)
    records.erase(records.begin(),
                  records.end() - static_cast<std::ptrdiff_t>(config_.capacity));
  return records;
}

std::string FlightRecorder::to_jsonl(bool include_volatile) const {
  const auto records = last_records();
  std::string out;
  out.reserve(records.size() * 96);
  for (const auto& record : records) {
    out += "{";
    if (include_volatile) {
      out += "\"latency_us\":";
      out += std::to_string(record.latency_us);
      out += ',';
    }
    out += "\"op\":\"";
    out += net::json_escape(record.op);
    out += "\",\"reason\":\"";
    out += net::json_escape(record.reason);
    out += "\",\"request\":\"";
    out += net::json_escape(record.request);
    out += "\",\"rid\":";
    out += std::to_string(record.rid);
    if (include_volatile) {
      out += ",\"tid\":";
      out += std::to_string(record.tid);
      out += ",\"ts_us\":";
      out += std::to_string(record.ts_us);
    }
    out += "}\n";
  }
  return out;
}

bool FlightRecorder::dump_file(const std::string& path,
                               bool include_volatile) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os{tmp, std::ios::binary | std::ios::trunc};
    if (!os) return false;
    os << to_jsonl(include_volatile);
    if (!os.good()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace ran::obs
