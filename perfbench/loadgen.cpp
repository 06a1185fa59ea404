#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <ctime>

namespace ranbench {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

LoopbackLoad::LoopbackLoad(std::uint16_t port, int connections) {
  conns_.resize(static_cast<std::size_t>(std::max(1, connections)));
  for (auto& conn : conns_) {
    conn.fd = connect_loopback(port);
    if (conn.fd < 0) ok_ = false;
  }
}

LoopbackLoad::~LoopbackLoad() {
  for (auto& conn : conns_)
    if (conn.fd >= 0) ::close(conn.fd);
}

void LoopbackLoad::enqueue(Conn& conn, const std::string& line,
                           Pending pending) {
  conn.out.append(line);
  conn.out.push_back('\n');
  conn.pending.push_back(pending);
}

bool LoopbackLoad::flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const auto n = ::send(conn.fd, conn.out.data() + conn.out_off,
                          conn.out.size() - conn.out_off,
                          MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  conn.out.clear();
  conn.out_off = 0;
  return true;
}

std::size_t LoopbackLoad::outstanding() const {
  std::size_t total = 0;
  for (const auto& conn : conns_) total += conn.pending.size();
  return total;
}

bool LoopbackLoad::pump(
    double timeout_us,
    const std::function<void(Conn&, const Pending&, std::string_view)>&
        on_line) {
  std::vector<pollfd> fds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    fds[i].fd = conns_[i].fd;
    fds[i].events = static_cast<short>(
        POLLIN | (conns_[i].out_off < conns_[i].out.size() ? POLLOUT : 0));
  }
  const double wait = std::max(0.0, timeout_us);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(wait / 1e6);
  ts.tv_nsec = static_cast<long>(std::fmod(wait, 1e6) * 1e3);
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0) return errno == EINTR;
  char chunk[65536];
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& conn = conns_[i];
    if ((fds[i].revents & POLLOUT) != 0 && !flush(conn)) return false;
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const auto n = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n == 0) return false;  // the server hung up
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return false;
    }
    conn.in.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    while (true) {
      const auto newline = conn.in.find('\n', start);
      if (newline == std::string::npos) break;
      const std::string_view line{conn.in.data() + start, newline - start};
      start = newline + 1;
      if (conn.pending.empty()) return false;  // a reply nobody asked for
      const Pending pending = conn.pending.front();
      conn.pending.pop_front();
      on_line(conn, pending, line);
    }
    conn.in.erase(0, start);
  }
  return true;
}

ClosedLoopResult LoopbackLoad::closed_loop(const std::vector<std::string>& mix,
                                           std::size_t* cursor, int depth,
                                           double duration_s,
                                           std::size_t block,
                                           const ReplyFn& on_reply) {
  ClosedLoopResult result;
  if (!ok_ || mix.empty()) return result;
  const auto next_request = [&] {
    const std::size_t request = *cursor;
    *cursor = (*cursor + 1) % mix.size();
    return request;
  };

  const double start = now_us();
  const double end = start + duration_s * 1e6;
  for (auto& conn : conns_) {
    for (int i = 0; i < depth; ++i) {
      const auto request = next_request();
      enqueue(conn, mix[request], {request, 0});
      ++result.sent;
    }
    if (!flush(conn)) ok_ = false;
  }
  bool issuing = true;
  double block_start = start;
  std::size_t in_block = 0;
  const auto on_line = [&](Conn& conn, const Pending& pending,
                           std::string_view line) {
    ++result.completed;
    on_reply(pending.request, line);
    if (!issuing) return;
    if (++in_block == block) {
      const double t = now_us();
      result.block_qps.push_back(static_cast<double>(block) /
                                 ((t - block_start) / 1e6));
      block_start = t;
      in_block = 0;
    }
    const auto request = next_request();
    enqueue(conn, mix[request], {request, 0});
    ++result.sent;
  };
  while (ok_) {
    const double t = now_us();
    if (t >= end) break;
    if (!pump(0.0, on_line)) ok_ = false;
    for (auto& conn : conns_)
      if (!conn.out.empty() && !flush(conn)) ok_ = false;
  }
  issuing = false;
  const double drain_end = now_us() + 2e6;
  while (ok_ && outstanding() > 0 && now_us() < drain_end)
    if (!pump(10000.0, on_line)) ok_ = false;
  result.missing = result.sent - result.completed;
  // The first block includes the ramp to full depth.
  if (!result.block_qps.empty()) result.block_qps.erase(result.block_qps.begin());
  return result;
}

OpenLoopResult LoopbackLoad::open_loop(const std::vector<std::string>& mix,
                                       std::size_t* cursor,
                                       const std::vector<double>& schedule_us,
                                       double drain_s,
                                       const ReplyFn& on_reply) {
  OpenLoopResult result;
  if (!ok_ || mix.empty() || schedule_us.empty()) return result;
  std::vector<OpenLoopRecord> records(schedule_us.size());
  std::vector<char> answered(schedule_us.size(), 0);
  const auto on_line = [&](Conn&, const Pending& pending,
                           std::string_view line) {
    records[pending.record].done_us = now_us();
    answered[pending.record] = 1;
    on_reply(pending.request, line);
  };

  const double start = now_us();
  const double deadline = start + schedule_us.back() + drain_s * 1e6;
  std::size_t next = 0;
  while (ok_) {
    double t = now_us();
    while (next < schedule_us.size() && start + schedule_us[next] <= t) {
      Conn& conn = conns_[next % conns_.size()];
      const std::size_t request = *cursor;
      *cursor = (*cursor + 1) % mix.size();
      records[next].scheduled_us = start + schedule_us[next];
      records[next].sent_us = t;
      enqueue(conn, mix[request], {request, next});
      if (!flush(conn)) ok_ = false;
      ++next;
      t = now_us();
    }
    if (next == schedule_us.size() && outstanding() == 0) break;
    if (t >= deadline) break;
    if (!pump(0.0, on_line)) ok_ = false;
  }
  // Unanswered and never-sent (the run aborted) requests are missing.
  for (std::size_t i = 0; i < records.size(); ++i)
    if (answered[i] != 0) result.records.push_back(records[i]);
  result.missing = schedule_us.size() - result.records.size();
  return result;
}

}  // namespace ranbench
