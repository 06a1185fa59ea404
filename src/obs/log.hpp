// Structured logging: the operator-facing channel next to the metrics
// registry (what happened, counted) and the tracer (when it happened).
// A log record says WHY — "dropped 3 malformed trace blocks", "region
// desertsw: ring completion found no second AggCO" — with a level, a
// stable site id, and a human message.
//
// Each thread appends to its own obs::PerThread buffer (per_thread.hpp)
// without synchronization, and buffers are merged in a fixed
// (ts, tid, seq) order so the same buffer contents always serialize to
// the same bytes. On top of that the log adds:
//   * per-site rate limiting — a global (cross-thread) cap on records
//     kept per site id; excess records are counted, not stored, so a hot
//     mis-parse loop cannot grow memory or drown the file sink;
//   * consecutive dedup — a thread repeating the same (site, level,
//     message) collapses into one record with a repeat count;
//   * two sinks: a JSONL file written at flush()/destruction (merged
//     deterministically) and an immediate stderr text sink for records
//     at/above its threshold (warn by default).
//
// Determinism contract: timestamps and thread ids are wall-clock /
// scheduling artifacts, so the JSONL stream is VOLATILE observability
// (never part of a manifest). What IS deterministic is the multiset of
// (level, site, message) records below the rate cap: a pure function of
// the work performed, exposed via canonical_text() and byte-stable at
// any thread count (the test_log_diff golden).
//
// Cost model: a null Log* is the off switch — instrumented code performs
// one pointer test. enabled() lets hot paths skip message formatting.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "per_thread.hpp"

namespace ran::obs {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

[[nodiscard]] std::string_view to_string(LogLevel level);

/// One recorded log line.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  std::uint64_t ts_us = 0;       ///< microseconds since the log's epoch
  std::uint32_t tid = 0;         ///< registration-order thread id
  std::uint64_t seq = 0;         ///< per-thread sequence (merge tie-break)
  const char* site = "";         ///< static-lifetime site id ("ingest.drop")
  std::string message;
  std::uint64_t repeats = 1;     ///< consecutive identical records folded in
};

struct LogConfig {
  /// Records below this level are dropped at the call site.
  LogLevel min_level = LogLevel::kInfo;
  /// Records at/above this level also go to stderr immediately (text).
  LogLevel stderr_level = LogLevel::kWarn;
  /// Set false to silence the stderr sink entirely (tests, benches).
  bool stderr_sink = true;
  /// JSONL file written by flush() / the destructor; empty = no file.
  std::string jsonl_path;
  /// Global cap on records *kept* per site id (suppressed ones are still
  /// counted exactly); 0 = unlimited.
  std::uint64_t per_site_limit = 64;
};

class Log {
 public:
  explicit Log(LogConfig config = {});
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;
  /// Flushes the JSONL sink (best-effort) on destruction.
  ~Log();

  [[nodiscard]] const LogConfig& config() const { return config_; }

  /// True when `level` passes the min-level filter — test before paying
  /// for message formatting on hot paths.
  [[nodiscard]] bool enabled(LogLevel level) const {
    return level >= config_.min_level;
  }

  /// Records one message under a static-lifetime site id. Thread-safe,
  /// lock-free after the calling thread's first record.
  void log(LogLevel level, const char* site, std::string_view message);
  void debug(const char* site, std::string_view message) {
    log(LogLevel::kDebug, site, message);
  }
  void info(const char* site, std::string_view message) {
    log(LogLevel::kInfo, site, message);
  }
  void warn(const char* site, std::string_view message) {
    log(LogLevel::kWarn, site, message);
  }
  void error(const char* site, std::string_view message) {
    log(LogLevel::kError, site, message);
  }

  /// Exact number of records accepted at `level` (including rate-limited
  /// ones, which are counted before the cap applies).
  [[nodiscard]] std::uint64_t count(LogLevel level) const;
  /// Exact number of records the per-site cap suppressed, per site /
  /// total. Export-time use; must not race recording threads.
  [[nodiscard]] std::uint64_t suppressed(std::string_view site) const;
  [[nodiscard]] std::uint64_t suppressed_total() const;

  /// Every kept record merged in (ts, tid, seq) order: the same buffer
  /// contents always produce the same sequence. Call after worker
  /// threads have joined.
  [[nodiscard]] std::vector<LogRecord> merged() const;

  /// The merged stream as JSON lines (one object per record, trailing
  /// per-site suppression records at the end). The volatile export.
  [[nodiscard]] std::string to_jsonl() const;

  /// The deterministic view: kept records sorted by (level, site,
  /// message) with repeats aggregated, timestamps and thread ids
  /// omitted. Below the rate cap this is a pure function of the work
  /// performed — byte-stable at any thread count.
  [[nodiscard]] std::string canonical_text() const;

  /// Writes to_jsonl() to config().jsonl_path (no-op without a path).
  /// False when the file cannot be written.
  bool flush();

 private:
  struct ThreadBuffer;  ///< records + site cache; defined in log.cpp
  struct SiteState {
    const char* site = "";
    /// Records accepted for this site across all threads (exact; adds
    /// commute, so relaxed atomics suffice).
    std::atomic<std::uint64_t> accepted{0};
    /// Records dropped by the per-site cap (exact).
    std::atomic<std::uint64_t> suppressed{0};
  };

  /// The interned state for a site id (registered under sites_mutex_ on
  /// a thread's first use of the site, cached in its buffer afterwards).
  SiteState& site_state(ThreadBuffer& buffer, const char* site);
  [[nodiscard]] std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  LogConfig config_;
  std::chrono::steady_clock::time_point epoch_;
  PerThread<ThreadBuffer> buffers_;
  /// Site ids are interned by text under the lock on first use; the hot
  /// path then runs on cached pointers and relaxed atomics only.
  mutable std::mutex sites_mutex_;
  std::vector<std::unique_ptr<SiteState>> sites_;
  std::atomic<std::uint64_t> counts_by_level_[4] = {};
};

}  // namespace ran::obs
