#include "net/socket_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace dtdbd::net {

namespace {

// Read/write chunk. One read may deliver several back-to-back frames; they
// are all parsed immediately, so the connection's inbuf never accumulates
// more than one partial frame plus this slack.
constexpr size_t kIoChunkBytes = 16 * 1024;

// epoll_event.data.u64 tags. Connection ids count up from 1, so the two
// non-connection fds live at the top of the u64 space where no id can
// ever collide with them.
constexpr uint64_t kWakeTag = UINT64_MAX;
constexpr uint64_t kListenTag = UINT64_MAX - 1;

// Clamp an arbitrary (possibly out-of-range) request header version into
// the range this endpoint speaks, for encoding best-effort error replies
// to peers whose version we rejected.
uint16_t ClampVersion(uint16_t version) {
  if (version < kMinProtocolVersion) return kMinProtocolVersion;
  if (version > kProtocolVersion) return kProtocolVersion;
  return version;
}

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

}  // namespace

void SocketServer::CompletionSink::Push(Completion completion) {
  std::lock_guard<std::mutex> lock(mu);
  if (dead) return;  // teardown already happened; drop, never touch the fd
  ready.push_back(std::move(completion));
  // Nonblocking wake; a full pipe already guarantees a pending wakeup.
  const char byte = 'c';
  (void)!::write(wake_fd, &byte, 1);
}

SocketServer::SocketServer(serve::Server* server, SocketServerOptions options)
    : server_(server), options_(std::move(options)) {
  DTDBD_CHECK(server_ != nullptr);
  DTDBD_CHECK_GT(options_.max_connections, 0);
  DTDBD_CHECK_GT(options_.max_inflight_per_connection, 0);
  DTDBD_CHECK_GT(options_.idle_timeout_ms, 0);
}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    DTDBD_CHECK(!started_) << "SocketServer::Start called twice";
    started_ = true;
  }
  // htons would silently truncate: 70000 binds 4464 and -1 binds 65535.
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument("port " + std::to_string(options_.port) +
                                   " is outside [0, 65535]");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::IoError("socket() failed: " +
                           std::string(std::strerror(errno)));
  }
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    CloseFd(&listen_fd_);
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Status::IoError(
        "bind(" + options_.bind_address + ":" +
        std::to_string(options_.port) +
        ") failed: " + std::strerror(errno));
    CloseFd(&listen_fd_);
    return status;
  }
  if (::listen(listen_fd_, 128) != 0) {
    const Status status =
        Status::IoError("listen() failed: " + std::string(std::strerror(errno)));
    CloseFd(&listen_fd_);
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    const Status status = Status::IoError("getsockname() failed");
    CloseFd(&listen_fd_);
    return status;
  }
  port_ = ntohs(addr.sin_port);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    CloseFd(&listen_fd_);
    return Status::IoError("pipe2() failed: " +
                           std::string(std::strerror(errno)));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    const Status status = Status::IoError(
        "epoll_create1() failed: " + std::string(std::strerror(errno)));
    CloseFd(&wake_read_fd_);
    CloseFd(&wake_write_fd_);
    CloseFd(&listen_fd_);
    return status;
  }
  // Level-triggered throughout: readiness is re-reported every wait until
  // consumed, so a handler that stops early (e.g. close_after_flush) never
  // strands buffered bytes the way edge-triggered would.
  if (!EpollUpdate(EPOLL_CTL_ADD, wake_read_fd_, EPOLLIN, kWakeTag) ||
      !EpollUpdate(EPOLL_CTL_ADD, listen_fd_, EPOLLIN, kListenTag)) {
    CloseFd(&epoll_fd_);
    CloseFd(&wake_read_fd_);
    CloseFd(&wake_write_fd_);
    CloseFd(&listen_fd_);
    return Status::IoError("epoll_ctl(ADD) failed at startup");
  }

  sink_ = std::make_shared<CompletionSink>();
  sink_->wake_fd = wake_write_fd_;

  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::Ok();
}

int64_t SocketServer::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SocketServer::Wake() {
  if (sink_ == nullptr) return;
  // Route through the sink lock so a wake can never race the pipe teardown.
  std::lock_guard<std::mutex> lock(sink_->mu);
  if (sink_->dead) return;
  const char byte = 'w';
  (void)!::write(sink_->wake_fd, &byte, 1);
}

NetStats SocketServer::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

bool SocketServer::EpollUpdate(int op, int fd, uint32_t events,
                               uint64_t tag) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.u64 = tag;
  if (::epoll_ctl(epoll_fd_, op, fd, &ev) != 0) {
    DTDBD_LOG(Warning) << "epoll_ctl(op=" << op << ", fd=" << fd
                       << ") failed: " << std::strerror(errno);
    return false;
  }
  return true;
}

void SocketServer::HandleAccept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // EMFILE/ENFILE/ECONNABORTED and friends: log and let the loop retry
      // on the next poll round rather than spinning.
      DTDBD_LOG(Warning) << "accept4 failed: " << std::strerror(errno);
      return;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (static_cast<int>(conns_.size()) >= options_.max_connections) {
      // Over the cap: answer one UNAVAILABLE frame best-effort and close.
      // The peer gets a typed reason instead of a silent RST or an unbounded
      // backlog wait. No request header has been read yet, so the peer's
      // version is unknown — encode at the minimum version, which every
      // client this endpoint tolerates can parse.
      const std::string frame = EncodeResponseFrame(
          /*request_id=*/0, WireCode::kUnavailable, 0, nullptr,
          "connection limit reached (" +
              std::to_string(options_.max_connections) + ")",
          kMinProtocolVersion);
      {
        // Count before close(2) so a peer that sees the EOF cannot observe
        // a Stats() snapshot missing its own rejection.
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.rejected_max_conns;
      }
      (void)!::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    Connection conn;
    conn.fd = fd;
    conn.id = next_conn_id_++;
    conn.last_activity_ms = NowMs();
    conn.epoll_events = EPOLLIN;
    if (!EpollUpdate(EPOLL_CTL_ADD, fd, EPOLLIN, conn.id)) {
      ::close(fd);
      continue;
    }
    conns_.emplace(conn.id, std::move(conn));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.accepted;
    stats_.open_connections = static_cast<int64_t>(conns_.size());
  }
}

void SocketServer::CloseConnection(uint64_t conn_id, CloseReason reason) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  // Account BEFORE close(2): a peer that observes our EOF and immediately
  // queries Stats() must already see this close counted.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    switch (reason) {
      case CloseReason::kPeer: ++stats_.closed_by_peer; break;
      case CloseReason::kIdle: ++stats_.closed_idle; break;
      case CloseReason::kProtocol: ++stats_.closed_protocol; break;
      case CloseReason::kOverflow: ++stats_.closed_outbox_overflow; break;
      case CloseReason::kDrain: break;  // orderly teardown, not an anomaly
    }
    stats_.open_connections = static_cast<int64_t>(conns_.size()) - 1;
  }
  CloseFd(&it->second.fd);
  conns_.erase(it);
}

void SocketServer::QueueResponse(Connection* conn, std::string frame) {
  conn->outbox_bytes += frame.size();
  conn->outbox.push_back(std::move(frame));
}

void SocketServer::SubmitRequest(Connection* conn, const FrameHeader& header,
                                 serve::InferenceRequest request) {
  ++conn->inflight;
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests_submitted;
  }
  // The callback runs on a worker thread (or inline right here for an
  // immediate rejection — the sink makes both re-entrancy-safe). Encoding
  // happens on the callback's thread, keeping serialization off the IO
  // thread's critical path.
  // The response is encoded under the version the REQUEST header named, so
  // a v1 client on a shared server never receives v2 bytes.
  server_->SubmitAsync(
      std::move(request), header.deadline_nanos,
      [sink = sink_, conn_id = conn->id, request_id = header.request_id,
       version = header.version, hint = options_.retry_after_ms_hint](
          StatusOr<serve::Prediction> result) {
        std::string frame;
        if (result.ok()) {
          frame = EncodeResponseFrame(request_id, WireCode::kOk, 0,
                                      &result.value(), "", version);
        } else {
          const WireCode code = WireCodeForStatus(result.status());
          frame = EncodeResponseFrame(
              request_id, code,
              code == WireCode::kRetryLater ? hint : 0, nullptr,
              result.status().message(), version);
        }
        sink->Push(Completion{conn_id, std::move(frame)});
      });
}

void SocketServer::AnswerHealthRequest(Connection* conn,
                                       const FrameHeader& header) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.health_requests;
  }
  const serve::HealthReport report = server_->Health();
  WireHealth health;
  health.cache_enabled = report.cache_enabled;
  health.degraded = report.degraded;
  health.cache_bytes_limit = report.cache_bytes_limit;
  health.cache_hits = report.cache_hits;
  health.cache_misses = report.cache_misses;
  health.cache_evicted = report.cache_evicted;
  health.cache_bytes = report.cache_bytes;
  health.deduped = report.deduped;
  health.served_ok = report.served_ok;
  health.queue_depth = report.queue_depth;
  health.quality_degraded = report.quality_degraded;
  health.feedback_recorded = report.feedback_recorded;
  health.models.reserve(report.models.size());
  for (const serve::ModelHealth& m : report.models) {
    WireModelHealth wm;
    wm.name = m.name;
    wm.cache_enabled = m.cache.enabled;
    wm.hits = m.cache.hits;
    wm.misses = m.cache.misses;
    wm.inserted = m.cache.inserted;
    wm.evicted = m.cache.evicted;
    wm.invalidated = m.cache.invalidated;
    wm.bytes = m.cache.bytes;
    wm.entries = m.cache.entries;
    wm.deduped = m.cache.deduped;
    wm.quality_degraded = m.quality.quality_degraded;
    wm.quality_auc_valid = m.quality.auc_valid;
    wm.bias_spread_valid = m.quality.bias_spread_valid;
    wm.feedback_total = m.quality.feedback_total;
    wm.quality_window_samples = m.quality.window_samples;
    wm.quality_auc = m.quality.auc;
    wm.bias_spread = m.quality.bias_spread;
    health.models.push_back(std::move(wm));
  }
  QueueResponse(conn, EncodeHealthResponseFrame(header.request_id, health,
                                                header.version));
}

bool SocketServer::ParseFrames(Connection* conn) {
  for (;;) {
    if (!conn->have_header) {
      if (conn->inbuf.size() < kFrameHeaderSize) return true;
      DecodeFrameHeader(conn->inbuf.data(), &conn->header);
      bool trusted_framing = false;
      const Status header_ok = ValidateHeader(
          conn->header, options_.max_frame_bytes, &trusted_framing);
      if (!header_ok.ok()) {
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.bad_frames;
        }
        if (!trusted_framing) {
          // Bad magic / hostile length: the stream cannot be re-framed, so
          // nothing we send is guaranteed to be parsed — close immediately.
          CloseConnection(conn->id, CloseReason::kProtocol);
          return false;
        }
        // Framing intact (e.g. clean version mismatch): answer a typed
        // error frame, then close once it flushes — the peer learns why.
        // The peer's version may be the very thing that was rejected, so
        // clamp it into the supported range for the reply.
        QueueResponse(conn,
                      EncodeResponseFrame(conn->header.request_id,
                                          WireCode::kBadFrame, 0, nullptr,
                                          header_ok.message(),
                                          ClampVersion(conn->header.version)));
        conn->close_after_flush = true;
        return true;
      }
      // Health frames are v2+: a v1 header naming type 3 falls through to
      // the generic unexpected-type rejection below.
      const bool health_request =
          conn->header.type == FrameType::kHealthRequest &&
          conn->header.version >= 2;
      if (conn->header.type != FrameType::kRequest && !health_request) {
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.bad_frames;
        }
        QueueResponse(conn, EncodeResponseFrame(
                                conn->header.request_id, WireCode::kBadFrame,
                                0, nullptr, "expected a request frame",
                                conn->header.version));
        conn->close_after_flush = true;
        return true;
      }
      conn->have_header = true;
      conn->inbuf.erase(conn->inbuf.begin(),
                        conn->inbuf.begin() + kFrameHeaderSize);
    }
    if (conn->inbuf.size() < conn->header.payload_len) return true;

    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.frames_received;
    }
    if (conn->header.type == FrameType::kHealthRequest) {
      if (conn->header.payload_len != 0) {
        // The stream is still framed by the (nonzero) length prefix, so the
        // connection survives — but a health request carries no payload.
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.bad_frames;
        QueueResponse(conn,
                      EncodeResponseFrame(conn->header.request_id,
                                          WireCode::kBadFrame, 0, nullptr,
                                          "health request must carry no "
                                          "payload",
                                          conn->header.version));
      } else {
        AnswerHealthRequest(conn, conn->header);
      }
      conn->inbuf.erase(conn->inbuf.begin(),
                        conn->inbuf.begin() + conn->header.payload_len);
      conn->have_header = false;
      continue;
    }
    serve::InferenceRequest request;
    const Status decoded =
        DecodeRequestPayload(conn->inbuf.data(), conn->header.payload_len,
                             &request, conn->header.version);
    if (!decoded.ok()) {
      // Garbage payload under a valid header: the length prefix still
      // frames the stream, so the connection survives the error.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.bad_frames;
      }
      QueueResponse(conn, EncodeResponseFrame(conn->header.request_id,
                                              WireCode::kBadFrame, 0, nullptr,
                                              decoded.message(),
                                              conn->header.version));
    } else if (draining_) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.drain_rejected;
      }
      QueueResponse(conn,
                    EncodeResponseFrame(conn->header.request_id,
                                        WireCode::kUnavailable, 0, nullptr,
                                        "server is draining",
                                        conn->header.version));
    } else if (conn->inflight >= options_.max_inflight_per_connection) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.inflight_rejected;
      }
      QueueResponse(conn, EncodeResponseFrame(
                              conn->header.request_id, WireCode::kRetryLater,
                              options_.retry_after_ms_hint, nullptr,
                              "per-connection in-flight limit (" +
                                  std::to_string(
                                      options_.max_inflight_per_connection) +
                                  ") reached",
                              conn->header.version));
    } else {
      SubmitRequest(conn, conn->header, std::move(request));
    }
    conn->inbuf.erase(conn->inbuf.begin(),
                      conn->inbuf.begin() + conn->header.payload_len);
    conn->have_header = false;
  }
}

bool SocketServer::HandleReadable(Connection* conn) {
  uint8_t chunk[kIoChunkBytes];
  for (;;) {
    const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
    if (n > 0) {
      conn->last_activity_ms = NowMs();
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.bytes_read += n;
      }
      conn->inbuf.insert(conn->inbuf.end(), chunk, chunk + n);
      if (!ParseFrames(conn)) return false;  // closed on protocol error
      if (conn->close_after_flush) return true;  // stop reading a doomed conn
      continue;
    }
    if (n == 0) {
      // Peer closed. Any in-flight completion for this connection will find
      // it gone and be counted responses_dropped_disconnect.
      CloseConnection(conn->id, CloseReason::kPeer);
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    CloseConnection(conn->id, CloseReason::kPeer);
    return false;
  }
}

bool SocketServer::HandleWritable(Connection* conn) {
  while (!conn->outbox.empty()) {
    const std::string& front = conn->outbox.front();
    const ssize_t n =
        ::send(conn->fd, front.data() + conn->outbox_offset,
               front.size() - conn->outbox_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->last_activity_ms = NowMs();
      conn->outbox_offset += static_cast<size_t>(n);
      conn->outbox_bytes -= static_cast<size_t>(n);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.bytes_written += n;
      }
      if (conn->outbox_offset == front.size()) {
        conn->outbox.pop_front();
        conn->outbox_offset = 0;
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.responses_sent;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    // EPIPE/ECONNRESET: the reader vanished; MSG_NOSIGNAL turned the would-
    // be SIGPIPE into this errno.
    CloseConnection(conn->id, CloseReason::kPeer);
    return false;
  }
  if (conn->close_after_flush) {
    CloseConnection(conn->id, CloseReason::kProtocol);
    return false;
  }
  return true;
}

void SocketServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(sink_->mu);
    batch.swap(sink_->ready);
  }
  for (Completion& completion : batch) {
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.responses_dropped_disconnect;
      continue;
    }
    Connection& conn = it->second;
    --conn.inflight;
    // A completion IS activity. Without this refresh, a response that took
    // longer than idle_timeout_ms to produce (a dedup follower fanned out
    // behind a slow leader, a deep queue) drops inflight to 0 while
    // last_activity_ms still reads from the request's arrival — and the
    // idle sweep later this same round closes the connection with the
    // response sitting unflushed in the outbox.
    conn.last_activity_ms = NowMs();
    QueueResponse(&conn, std::move(completion.frame));
    if (conn.outbox_bytes > options_.max_outbox_bytes) {
      // The peer stopped reading while piling on requests; buffering more
      // would let one connection eat the process heap.
      CloseConnection(conn.id, CloseReason::kOverflow);
    }
  }
}

void SocketServer::IoLoop() {
  bool listen_open = true;
  std::vector<epoll_event> events(64);
  for (;;) {
    bool draining;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      draining = draining_;
      if (stop_) break;
    }
    if (draining && listen_open) {
      // close(2) removes the fd from the epoll interest set automatically.
      CloseFd(&listen_fd_);
      listen_open = false;
    }

    // Reconcile each connection's registered interest set with what its
    // state machine currently wants. Level-triggered epoll makes this the
    // only bookkeeping: a MOD fires only when the desired set changed
    // (outbox drained, teardown started), not every round like poll's
    // rebuilt pollfd array.
    const int64_t now = NowMs();
    int64_t timeout_ms = 100;
    for (auto& [id, conn] : conns_) {
      uint32_t want = 0;
      // A connection being torn down after a protocol error only flushes;
      // everyone else keeps reading (frames pipeline freely).
      if (!conn.close_after_flush) want |= EPOLLIN;
      if (!conn.outbox.empty()) want |= EPOLLOUT;
      if (want != conn.epoll_events &&
          EpollUpdate(EPOLL_CTL_MOD, conn.fd, want, id)) {
        conn.epoll_events = want;
      }
      if (conn.inflight == 0) {
        const int64_t deadline =
            conn.last_activity_ms + options_.idle_timeout_ms;
        timeout_ms = std::min(timeout_ms, std::max<int64_t>(deadline - now, 1));
      }
    }

    const int ready = ::epoll_wait(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()),
                                   static_cast<int>(timeout_ms));
    if (ready < 0 && errno != EINTR) {
      DTDBD_LOG(Error) << "epoll_wait failed: " << std::strerror(errno);
      break;
    }

    if (ready > 0) {
      // First pass: service the wake pipe and the listener before any
      // connection work, preserving the poll loop's ordering (completions
      // are routed before connection events are handled).
      bool accept_ready = false;
      for (int i = 0; i < ready; ++i) {
        const uint64_t tag = events[i].data.u64;
        if (tag == kWakeTag && (events[i].events & EPOLLIN)) {
          uint8_t sink_bytes[256];
          while (::read(wake_read_fd_, sink_bytes, sizeof(sink_bytes)) > 0) {
          }
        } else if (tag == kListenTag && (events[i].events & EPOLLIN)) {
          accept_ready = true;
        }
      }
      if (accept_ready && listen_open) HandleAccept();
      DrainCompletions();
      for (int i = 0; i < ready; ++i) {
        const uint64_t tag = events[i].data.u64;
        if (tag == kWakeTag || tag == kListenTag) continue;
        auto it = conns_.find(tag);
        if (it == conns_.end()) continue;  // closed earlier this round
        const uint32_t revents = events[i].events;
        if (revents & (EPOLLERR | EPOLLHUP)) {
          // EPOLLHUP with readable data still pending is handled by the
          // read path (read() returns the data, then 0); a bare error means
          // the peer is gone.
          if (!(revents & EPOLLIN)) {
            CloseConnection(tag, CloseReason::kPeer);
            continue;
          }
        }
        if (revents & EPOLLIN) {
          if (!HandleReadable(&it->second)) continue;
        }
        if (revents & EPOLLOUT) {
          if (!HandleWritable(&it->second)) continue;
        }
      }
      // A full event buffer means more readiness may be pending; grow so a
      // busy fleet is not drip-fed 64 events a round. Level-triggered epoll
      // re-reports whatever this round missed, so this is throughput tuning,
      // not correctness.
      if (ready == static_cast<int>(events.size())) {
        events.resize(events.size() * 2);
      }
    } else {
      // Timeout round: still route completions so responses are not gated
      // on socket readiness.
      DrainCompletions();
    }

    // Idle sweep + drain progress. Collect ids first: CloseConnection
    // mutates conns_.
    std::vector<std::pair<uint64_t, CloseReason>> to_close;
    const int64_t sweep_now = NowMs();
    for (auto& [id, conn] : conns_) {
      if (conn.close_after_flush && conn.outbox.empty()) {
        // Outbox already flushed (or nothing ever queued), so no POLLOUT
        // will fire to finish the teardown — do it here.
        to_close.emplace_back(id, CloseReason::kProtocol);
      } else if (draining && conn.inflight == 0 && conn.outbox.empty()) {
        to_close.emplace_back(id, CloseReason::kDrain);
      } else if (conn.inflight == 0 &&
                 sweep_now - conn.last_activity_ms >
                     options_.idle_timeout_ms) {
        to_close.emplace_back(id, CloseReason::kIdle);
      }
    }
    for (const auto& [id, reason] : to_close) CloseConnection(id, reason);

    if (draining && conns_.empty() &&
        outstanding_.load(std::memory_order_acquire) == 0) {
      std::lock_guard<std::mutex> lock(state_mu_);
      drained_ = true;
      state_cv_.notify_all();
    }
  }

  // Force-exit: close every remaining fd exactly once.
  for (auto& [id, conn] : conns_) CloseFd(&conn.fd);
  conns_.clear();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.open_connections = 0;
  }
  CloseFd(&listen_fd_);
  listen_open = false;
}

void SocketServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!started_ || stopped_) {
      stopped_ = true;
      return;
    }
    draining_ = true;
  }
  if (io_thread_.joinable()) {
    Wake();
    {
      // Drain: wait for every submitted request to be answered and every
      // connection to quiesce, bounded by drain_timeout_ms. `drained_` is
      // reported by the IO thread — only it may look at conns_.
      std::unique_lock<std::mutex> lock(state_mu_);
      state_cv_.wait_for(lock,
                         std::chrono::milliseconds(options_.drain_timeout_ms),
                         [this] { return drained_; });
      stop_ = true;
    }
    Wake();
    io_thread_.join();
  }
  if (sink_ != nullptr) {
    // Completions that arrive after this point (e.g. the inner server
    // failing leftover work at ITS Stop()) are dropped at the sink.
    std::lock_guard<std::mutex> lock(sink_->mu);
    sink_->dead = true;
    sink_->wake_fd = -1;
  }
  CloseFd(&wake_read_fd_);
  CloseFd(&wake_write_fd_);
  CloseFd(&epoll_fd_);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stopped_ = true;
  }
}

}  // namespace dtdbd::net
