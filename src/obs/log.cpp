#include "log.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <unordered_map>

#include "netbase/json.hpp"

namespace ran::obs {

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "info";
}

struct Log::ThreadBuffer {
  std::vector<LogRecord> records;
  /// Site states this thread has used, by site pointer.
  std::unordered_map<const char*, SiteState*> sites;
};

Log::Log(LogConfig config)
    : config_(std::move(config)), epoch_(std::chrono::steady_clock::now()) {}

Log::~Log() {
  if (!config_.jsonl_path.empty()) flush();
}

Log::SiteState& Log::site_state(ThreadBuffer& buffer, const char* site) {
  SiteState*& cached = buffer.sites[site];
  if (cached != nullptr) return *cached;
  const std::lock_guard lock{sites_mutex_};
  // Intern by text, not pointer: two literals with equal spelling (or the
  // same literal deduplicated differently across TUs) share one cap.
  for (const auto& existing : sites_)
    if (std::strcmp(existing->site, site) == 0) {
      cached = existing.get();
      return *cached;
    }
  sites_.push_back(std::make_unique<SiteState>());
  cached = sites_.back().get();
  cached->site = site;
  return *cached;
}

void Log::log(LogLevel level, const char* site, std::string_view message) {
  if (!enabled(level)) return;
  counts_by_level_[static_cast<int>(level)].fetch_add(
      1, std::memory_order_relaxed);
  auto& buffer = buffers_.local();
  auto& state = site_state(buffer, site);
  const auto admitted =
      state.accepted.fetch_add(1, std::memory_order_relaxed);
  if (config_.per_site_limit != 0 && admitted >= config_.per_site_limit) {
    state.suppressed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (config_.stderr_sink && level >= config_.stderr_level) {
    // One fprintf per record keeps concurrent lines whole (stdio locks
    // the stream); warn/error volume is capped by the site limit anyway.
    std::fprintf(stderr, "[%s] %s: %.*s\n",
                 std::string{to_string(level)}.c_str(), site,
                 static_cast<int>(message.size()), message.data());
  }
  if (!buffer.records.empty()) {
    auto& last = buffer.records.back();
    if (last.level == level && std::strcmp(last.site, site) == 0 &&
        last.message == message) {
      ++last.repeats;  // consecutive dedup (per thread)
      return;
    }
  }
  LogRecord record;
  record.level = level;
  record.ts_us = now_us();
  record.seq = buffer.records.size();
  record.site = site;
  record.message.assign(message);
  buffer.records.push_back(std::move(record));
}

std::uint64_t Log::count(LogLevel level) const {
  return counts_by_level_[static_cast<int>(level)].load(
      std::memory_order_relaxed);
}

std::uint64_t Log::suppressed(std::string_view site) const {
  const std::lock_guard lock{sites_mutex_};
  std::uint64_t total = 0;
  for (const auto& state : sites_)
    if (site == state->site)
      total += state->suppressed.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Log::suppressed_total() const {
  const std::lock_guard lock{sites_mutex_};
  std::uint64_t total = 0;
  for (const auto& state : sites_)
    total += state->suppressed.load(std::memory_order_relaxed);
  return total;
}

std::vector<LogRecord> Log::merged() const {
  std::vector<LogRecord> out;
  buffers_.for_each([&out](std::uint32_t tid, const ThreadBuffer& buffer) {
    for (const auto& record : buffer.records) {
      out.push_back(record);
      out.back().tid = tid;
    }
  });
  // Deterministic merge: identical buffer contents always produce
  // identical order, whatever order threads registered or finished in.
  std::sort(out.begin(), out.end(),
            [](const LogRecord& a, const LogRecord& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.seq < b.seq;
            });
  return out;
}

std::string Log::to_jsonl() const {
  std::string out;
  const auto records = merged();
  out.reserve(records.size() * 96 + 64);
  for (const auto& record : records) {
    out += "{\"ts_us\":";
    out += std::to_string(record.ts_us);
    out += ",\"tid\":";
    out += std::to_string(record.tid);
    out += ",\"level\":\"";
    out += to_string(record.level);
    out += "\",\"site\":\"";
    out += net::json_escape(record.site);
    out += "\",\"msg\":\"";
    out += net::json_escape(record.message);
    out += '"';
    if (record.repeats > 1) {
      out += ",\"repeats\":";
      out += std::to_string(record.repeats);
    }
    out += "}\n";
  }
  // Trailing suppression summary, one line per rate-limited site, in
  // site order (deterministic given the same accounting).
  std::map<std::string_view, std::uint64_t> suppressed_by_site;
  {
    const std::lock_guard lock{sites_mutex_};
    for (const auto& state : sites_) {
      const auto n = state->suppressed.load(std::memory_order_relaxed);
      if (n > 0) suppressed_by_site[state->site] += n;
    }
  }
  for (const auto& [site, n] : suppressed_by_site) {
    out += "{\"level\":\"info\",\"site\":\"";
    out += net::json_escape(site);
    out += "\",\"msg\":\"rate limit: ";
    out += std::to_string(n);
    out += " record(s) suppressed\",\"suppressed\":";
    out += std::to_string(n);
    out += "}\n";
  }
  return out;
}

std::string Log::canonical_text() const {
  // The deterministic multiset view: (level, site, message) sorted, with
  // repeats aggregated across threads and timestamps/tids dropped. Below
  // the per-site cap this is a pure function of the work performed.
  std::map<std::tuple<int, std::string, std::string>, std::uint64_t> agg;
  for (const auto& record : merged())
    agg[{static_cast<int>(record.level), record.site, record.message}] +=
        record.repeats;
  std::string out;
  for (const auto& [key, repeats] : agg) {
    const auto& [level, site, message] = key;
    out += to_string(static_cast<LogLevel>(level));
    out += ' ';
    out += site;
    out += ": ";
    out += message;
    if (repeats > 1) {
      out += " (x";
      out += std::to_string(repeats);
      out += ')';
    }
    out += '\n';
  }
  return out;
}

bool Log::flush() {
  if (config_.jsonl_path.empty()) return true;
  std::ofstream os{config_.jsonl_path};
  if (!os) return false;
  os << to_jsonl();
  return os.good();
}

}  // namespace ran::obs
