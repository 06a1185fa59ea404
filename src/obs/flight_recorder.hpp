// FlightRecorder: the serving layer's black box. Every answered request
// leaves one fixed-size record (request id, request line, op, reason,
// latency) in the handling thread's own ring buffer; a dump merges the
// rings and reproduces the last-N requests the daemon saw — the thing an
// operator needs when a long-lived `ran_serve` misbehaves and the
// interesting traffic is already gone from any log.
//
// Concurrency model: rings are obs::PerThread buffers (per_thread.hpp),
// but unlike Tracer/Log, which export after the join, the recorder must
// dump LIVE (SIGUSR1, the admin `dump` op, an error-burst trigger fire
// while workers keep serving), so each ring carries its own mutex. The
// hot path locks only the calling thread's mutex — uncontended except
// during the rare instant a dump copies that ring, so recording stays
// contention-free between workers and never blocks on another thread's
// work. Rings are fixed-size at registration; recording never allocates
// after a thread's first record (request strings are copied into
// preallocated slots, truncated to max_request_chars).
//
// Determinism contract: the canonical dump (include_volatile=false) is
// the global last-N records ordered by request id, each serialized as
// {"op","reason","request","rid"} — a pure function of the request
// sequence, byte-stable at any worker-thread count. Each thread's ring
// holds its own last-N, and a record inside the global last-N by rid
// can have at most N-1 globally-later records, hence at most N-1 later
// records on its own thread — so it is still in that ring, and the
// merged view always contains the exact global last-N. Timestamps,
// thread ids, and latencies are wall-clock artifacts and only appear in
// the volatile JSONL form.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "per_thread.hpp"

namespace ran::obs {

/// One captured request.
struct FlightRecord {
  std::uint64_t rid = 0;         ///< the engine's monotonic request id
  std::uint64_t ts_us = 0;       ///< microseconds since the recorder epoch
  std::uint32_t tid = 0;         ///< registration-order thread id
  std::uint64_t latency_us = 0;  ///< answer latency (volatile)
  std::string request;           ///< request line, truncated
  std::string op;                ///< resolved op ("" when unparseable)
  std::string reason;            ///< "ok" or the QueryReason slug
};

struct FlightRecorderConfig {
  /// The "last N": dump size and per-thread ring capacity.
  std::size_t capacity = 256;
  /// Request lines are truncated to this many bytes in the record.
  std::size_t max_request_chars = 200;
  /// Error-burst auto-dump: when more than `burst_threshold` error-class
  /// records land within one `burst_window_ms` window, the recorder
  /// writes one volatile JSONL dump to `burst_path` (at most one per
  /// window, so a sustained error storm cannot turn into an I/O storm).
  /// 0 or an empty path disables the trigger.
  std::uint64_t burst_threshold = 0;
  std::uint64_t burst_window_ms = 1000;
  std::string burst_path;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  [[nodiscard]] const FlightRecorderConfig& config() const { return config_; }

  /// Captures one request into the calling thread's ring. `is_error`
  /// feeds the burst window. Thread-safe; may be called concurrently
  /// with dumps.
  void record(std::uint64_t rid, std::string_view request,
              std::string_view op, std::string_view reason,
              std::uint64_t latency_us, bool is_error);

  /// The global last-N records in ascending rid order (see the
  /// determinism contract above). Safe while recording continues.
  [[nodiscard]] std::vector<FlightRecord> last_records() const;

  /// last_records() as JSON lines, one object per record with sorted
  /// keys. include_volatile=false drops ts/tid/latency — the byte-stable
  /// canonical form the determinism tests compare.
  [[nodiscard]] std::string to_jsonl(bool include_volatile = true) const;

  /// Writes to_jsonl(include_volatile) to `path` atomically (temp file +
  /// rename, so a reader never sees a half-written dump). False when the
  /// file cannot be written.
  bool dump_file(const std::string& path, bool include_volatile = true) const;

  /// Total records ever captured (exact; adds commute).
  [[nodiscard]] std::uint64_t record_count() const {
    return total_.load(std::memory_order_relaxed);
  }
  /// Error-burst dumps triggered so far.
  [[nodiscard]] std::uint64_t burst_dumps() const {
    return burst_dumps_.load(std::memory_order_relaxed);
  }

 private:
  struct Ring {
    mutable std::mutex mutex;  ///< taken by the owner per record and by dumps
    std::vector<FlightRecord> slots;  ///< capacity slots, preallocated
    std::size_t next = 0;             ///< ring cursor
    std::uint64_t filled = 0;         ///< records written (caps at capacity)
  };

  void note_error();
  [[nodiscard]] std::uint64_t now_us() const;

  FlightRecorderConfig config_;
  std::chrono::steady_clock::time_point epoch_;
  PerThread<Ring> rings_;
  std::atomic<std::uint64_t> total_{0};

  /// Error-burst window (1-slot sliding): current window ordinal + error
  /// count, plus the window a dump already fired in.
  std::atomic<std::uint64_t> window_index_{0};
  std::atomic<std::uint64_t> window_errors_{0};
  std::atomic<std::uint64_t> last_burst_window_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> burst_dumps_{0};
};

}  // namespace ran::obs
