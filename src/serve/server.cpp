#include "server.hpp"

#include <chrono>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace ran::serve {

namespace {

/// Poll tick: how often blocked accept/read loops re-check stopping_.
constexpr int kTickMs = 100;

infer::QueryEngineConfig engine_config(const ServerConfig& config,
                                       const infer::ServeHealth* health) {
  infer::QueryEngineConfig engine;
  engine.max_request_bytes = config.max_request_bytes;
  engine.metrics = config.metrics;
  engine.recorder = config.recorder;
  engine.health = health;
  engine.error_window_s = config.error_window_s;
  return engine;
}

}  // namespace

Server::Server(const infer::SnapshotHub& hub, ServerConfig config)
    : hub_(hub),
      config_(config),
      engine_(hub, engine_config(config_, &health_)) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  if (started_) return true;
  listener_ = net::TcpListener::bind_local(config_.port, error);
  if (!listener_.has_value()) return false;
  port_ = listener_->port();
  started_ = true;
  stopping_.store(false, std::memory_order_relaxed);
  const int workers = std::max(1, config_.worker_threads);
  health_.total_workers = static_cast<std::uint32_t>(workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  acceptor_ = std::thread([this] { accept_loop(); });
  if (config_.log != nullptr)
    config_.log->info("serve", "listening on 127.0.0.1:" +
                                   std::to_string(port_) + " with " +
                                   std::to_string(workers) + " workers");
  return true;
}

void Server::stop() {
  if (!started_) return;
  {
    // Set the flag under the queue lock: a worker that has just found the
    // wait predicate false still holds the lock, so it cannot miss the
    // notification below and sleep forever.
    const std::lock_guard lock{queue_mutex_};
    stopping_.store(true, std::memory_order_relaxed);
  }
  queue_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& worker : workers_)
    if (worker.joinable()) worker.join();
  workers_.clear();
  {
    const std::lock_guard lock{queue_mutex_};
    pending_.clear();  // connections never picked up: close them
  }
  if (listener_.has_value()) listener_->close();
  listener_.reset();
  started_ = false;
  if (config_.log != nullptr) config_.log->info("serve", "stopped");
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    auto stream = listener_->accept(kTickMs);
    if (!stream.valid()) continue;
    if (config_.metrics != nullptr)
      config_.metrics->volatile_counter("serve.connections").inc();
    {
      const std::lock_guard lock{queue_mutex_};
      pending_.push_back(std::move(stream));
      health_.queue_depth.store(static_cast<std::uint32_t>(pending_.size()),
                                std::memory_order_relaxed);
    }
    queue_cv_.notify_one();
  }
}

void Server::worker_loop() {
  while (true) {
    net::TcpStream stream;
    {
      std::unique_lock lock{queue_mutex_};
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_relaxed) ||
               !pending_.empty();
      });
      if (stopping_.load(std::memory_order_relaxed)) return;
      stream = std::move(pending_.front());
      pending_.pop_front();
      health_.queue_depth.store(static_cast<std::uint32_t>(pending_.size()),
                                std::memory_order_relaxed);
    }
    health_.busy_workers.fetch_add(1, std::memory_order_relaxed);
    serve_connection(std::move(stream));
    health_.busy_workers.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::serve_connection(net::TcpStream stream) {
  using Clock = std::chrono::steady_clock;
  std::string buffer;
  char chunk[4096];
  // A request that overflows the bound still needs its newline found, so
  // the buffer may briefly exceed max_request_bytes by one chunk.
  const std::size_t hard_cap = config_.max_request_bytes + sizeof(chunk);
  auto partial_since = Clock::now();
  bool partial = false;

  while (!stopping_.load(std::memory_order_relaxed)) {
    // Drain every complete line already buffered. Per-request latency
    // lands in the engine's per-op serve.latency_us.<op> histograms.
    std::size_t start = 0;
    while (true) {
      const auto newline = buffer.find('\n', start);
      if (newline == std::string::npos) break;
      std::string_view line{buffer.data() + start, newline - start};
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      std::string reply = engine_.answer(line);
      reply.push_back('\n');
      if (!stream.send_all(reply)) return;
      start = newline + 1;
    }
    buffer.erase(0, start);
    partial = !buffer.empty();
    if (!partial) partial_since = Clock::now();

    if (buffer.size() > config_.max_request_bytes) {
      // The line under construction already blew the bound — reply once
      // and drop the connection rather than buffer without limit.
      auto reply = engine_.error_reply(infer::QueryReason::kTooLarge,
                                       "request exceeds the size bound",
                                       buffer);
      reply.push_back('\n');
      (void)stream.send_all(reply);
      return;
    }

    std::size_t n = 0;
    const auto result =
        stream.read_some(chunk, sizeof(chunk), kTickMs, &n);
    switch (result) {
      case net::TcpStream::ReadResult::kData:
        if (buffer.size() + n > hard_cap) n = hard_cap - buffer.size();
        buffer.append(chunk, n);
        if (!partial) partial_since = Clock::now();
        break;
      case net::TcpStream::ReadResult::kTimeout:
        if (partial &&
            Clock::now() - partial_since >
                std::chrono::milliseconds(config_.request_timeout_ms)) {
          auto reply = engine_.error_reply(
              infer::QueryReason::kTimeout,
              "request not completed within the deadline", buffer);
          reply.push_back('\n');
          (void)stream.send_all(reply);
          return;
        }
        break;
      case net::TcpStream::ReadResult::kClosed:
      case net::TcpStream::ReadResult::kError:
        return;
    }
  }
}

}  // namespace ran::serve
