// The loopback load generator: one thread drives a few JSON-lines
// connections to a running server with plain non-blocking POSIX sockets.
// Two disciplines:
//
//   * closed loop — each connection keeps a fixed number of requests
//     outstanding and sends the next one when a reply arrives, so the
//     rate is whatever the server sustains (saturation throughput);
//   * open loop — requests leave on a precomputed Poisson schedule
//     whatever the server does, and each one is timed from the moment it
//     was due (OpenLoopRecord), so stalls are charged to every request
//     they delay and the generator's own lateness is reported.
//
// Requests are answered in order per connection, so replies are matched
// to requests by a per-connection FIFO.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"

namespace ranbench {

/// Called for every reply: the index into the request mix it answers and
/// the reply line (no newline).
using ReplyFn = std::function<void(std::size_t request, std::string_view)>;

struct ClosedLoopResult {
  /// Completion rate (requests per second) of each full block of
  /// completions after the first.
  std::vector<double> block_qps;
  std::size_t sent = 0;
  std::size_t completed = 0;
  std::size_t missing = 0;  ///< still unanswered after the drain period
};

struct OpenLoopResult {
  std::vector<OpenLoopRecord> records;  ///< answered requests only
  std::size_t missing = 0;  ///< scheduled but unanswered at the deadline
};

class LoopbackLoad {
 public:
  /// Opens `connections` connections to 127.0.0.1:port.
  LoopbackLoad(std::uint16_t port, int connections);
  LoopbackLoad(const LoopbackLoad&) = delete;
  LoopbackLoad& operator=(const LoopbackLoad&) = delete;
  ~LoopbackLoad();

  /// False when any connection failed to open.
  [[nodiscard]] bool ok() const { return ok_; }

  /// Closed loop for `duration_s`, `depth` requests in flight per
  /// connection, throughput timed over blocks of `block` completions. Requests
  /// cycle through `mix` starting at `*cursor` (advanced in place).
  [[nodiscard]] ClosedLoopResult closed_loop(
      const std::vector<std::string>& mix, std::size_t* cursor, int depth,
      double duration_s, std::size_t block, const ReplyFn& on_reply);

  /// Open loop over `schedule_us` (offsets from the phase start), one
  /// request per entry, connections taken in turn. Waits up to `drain_s`
  /// after the last scheduled send for outstanding replies.
  [[nodiscard]] OpenLoopResult open_loop(const std::vector<std::string>& mix,
                                         std::size_t* cursor,
                                         const std::vector<double>& schedule_us,
                                         double drain_s,
                                         const ReplyFn& on_reply);

 private:
  struct Pending {
    std::size_t request = 0;
    std::size_t record = 0;  ///< open loop: index into the records
  };
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::deque<Pending> pending;
  };

  void enqueue(Conn& conn, const std::string& line, Pending pending);
  /// Writes as much buffered output as the socket takes; false on error.
  bool flush(Conn& conn);
  /// Waits up to `timeout_us` for input, then hands every complete reply
  /// line to `on_line(conn, pending, line)`. False on a socket error.
  bool pump(double timeout_us,
            const std::function<void(Conn&, const Pending&,
                                     std::string_view)>& on_line);
  [[nodiscard]] std::size_t outstanding() const;

  std::vector<Conn> conns_;
  bool ok_ = true;
};

/// Microseconds on the steady clock (an arbitrary fixed origin).
[[nodiscard]] double now_us();

}  // namespace ranbench
