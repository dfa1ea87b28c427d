// Socket front end for serve::Server: an epoll-driven (level-triggered)
// acceptor/IO thread speaking the length-prefixed protocol of
// net/protocol.h, feeding the existing bounded queue through
// Server::SubmitAsync.
//
// Threading model. ONE IO thread owns every fd (listener, self-wake pipe,
// all connections) and is the only thread that reads, writes, or closes a
// socket — so a slow or hostile client can never block a serving worker by
// construction; the worst it can do is hold its own connection until a
// timeout reclaims it. Worker threads finish a request by encoding the
// response frame and pushing it into a CompletionSink (mutex + wake pipe);
// the IO thread drains the sink and routes each frame to its connection's
// write queue by connection id. The sink is shared_ptr-owned so a
// completion that races a teardown lands in a flagged-dead sink and is
// dropped instead of touching freed memory.
//
// Connection hardening (the point of this layer — see DESIGN.md §10):
//   - Bounded buffers. A frame header is validated BEFORE any payload byte
//     is buffered, so the read buffer never holds more than one partial
//     frame (≤ header + max_frame_bytes); the write queue is capped at
//     max_outbox_bytes and a client that stops reading past the cap is
//     closed, not buffered forever.
//   - Idle / slow-client timeouts. A connection that makes no byte progress
//     for idle_timeout_ms with nothing in flight is closed — a half-sent
//     header (slow-loris) cannot hold an fd open indefinitely, and since
//     workers never touch sockets it could never hold a worker at all.
//   - max_inflight_per_connection. Requests beyond the cap are answered
//     RETRY_LATER immediately; one greedy connection cannot monopolize the
//     queue's admission budget.
//   - Nonblocking I/O done right: EINTR retried, short reads/writes resumed
//     from the exact offset, writes use send(MSG_NOSIGNAL) so a vanished
//     reader yields EPIPE instead of killing the process, every fd is
//     CLOEXEC, and every close path runs through one CloseConnection so
//     teardown can never leak an fd.
//   - Overload is protocol-visible: Status codes map to typed error frames
//     (kResourceExhausted -> RETRY_LATER with a retry-after hint,
//     kDeadlineExceeded, kInvalidArgument, kUnavailable); malformed bytes
//     get BAD_FRAME and — when the length prefix is still trustworthy — the
//     connection survives.
//
// Graceful drain (Stop(), also the destructor): stop accepting, answer new
// frames UNAVAILABLE, let in-flight requests finish and flush their
// responses, close each connection once quiet, and give up after
// drain_timeout_ms by force-closing whatever remains. The owner stops the
// SocketServer BEFORE the serve::Server so every accepted request still has
// workers to answer it; anything still queued when the inner server stops
// resolves kUnavailable and flows back over the wire the same way.
#ifndef DTDBD_NET_SOCKET_SERVER_H_
#define DTDBD_NET_SOCKET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"
#include "serve/server.h"

namespace dtdbd::net {

struct SocketServerOptions {
  std::string bind_address = "127.0.0.1";
  // 0 = bind an ephemeral port; the chosen port is available via port().
  // Start() rejects a value outside [0, 65535] with kInvalidArgument.
  int port = 0;
  // Connections past this limit are answered one UNAVAILABLE frame and
  // closed at accept.
  int max_connections = 64;
  // Requests on one connection past this limit (submitted, not yet
  // answered) get RETRY_LATER instead of entering the queue.
  int max_inflight_per_connection = 32;
  // A connection with no byte progress and nothing in flight for this long
  // is closed (slow-loris / abandoned peers).
  int64_t idle_timeout_ms = 5'000;
  // Stop(): how long to wait for in-flight requests to finish and responses
  // to flush before force-closing survivors.
  int64_t drain_timeout_ms = 5'000;
  // Hard ceiling on a frame's payload_len; larger headers are a protocol
  // error and close the connection before a payload byte is read.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Advertised in RETRY_LATER responses so clients back off a sane amount.
  uint32_t retry_after_ms_hint = 50;
  // Per-connection write-queue cap; exceeding it closes the connection.
  size_t max_outbox_bytes = 4u << 20;
};

// Cumulative counters since Start(); all transitions counted exactly once.
struct NetStats {
  int64_t accepted = 0;
  int64_t rejected_max_conns = 0;
  int64_t frames_received = 0;       // complete, framing-valid frames
  int64_t requests_submitted = 0;    // handed to serve::Server
  int64_t health_requests = 0;       // kHealthRequest frames answered inline
  int64_t responses_sent = 0;        // frames fully flushed to the socket
  int64_t bad_frames = 0;            // malformed bytes answered BAD_FRAME
  int64_t inflight_rejected = 0;     // RETRY_LATER from the per-conn cap
  int64_t drain_rejected = 0;        // UNAVAILABLE because draining
  int64_t closed_by_peer = 0;
  int64_t closed_idle = 0;           // idle / slow-loris timeout
  int64_t closed_protocol = 0;       // unrecoverable framing error
  int64_t closed_outbox_overflow = 0;
  int64_t responses_dropped_disconnect = 0;  // peer vanished mid-request
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t open_connections = 0;      // gauge, not cumulative
};

class SocketServer {
 public:
  // `server` must outlive this object and must not be Stop()ed until this
  // object has been Stop()ed (drain needs live workers).
  SocketServer(serve::Server* server, SocketServerOptions options);
  ~SocketServer();  // Stop()s

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Binds, listens, and starts the IO thread. Call exactly once.
  Status Start();

  // The bound port (after Start()); useful with options.port == 0.
  int port() const { return port_; }

  NetStats Stats() const;

  // Graceful drain as documented above. Idempotent, called by ~SocketServer.
  void Stop();

 private:
  struct Completion {
    uint64_t conn_id = 0;
    std::string frame;  // fully encoded response frame
  };
  // Shared with worker-thread callbacks; outlives the server via shared_ptr
  // so late completions after a teardown are dropped, never use-after-free.
  struct CompletionSink {
    std::mutex mu;
    bool dead = false;
    int wake_fd = -1;
    std::vector<Completion> ready;
    void Push(Completion completion);
  };
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    std::vector<uint8_t> inbuf;  // bytes of the current (partial) frame
    bool have_header = false;
    FrameHeader header;
    std::deque<std::string> outbox;
    size_t outbox_offset = 0;  // bytes of outbox.front() already written
    size_t outbox_bytes = 0;
    int inflight = 0;
    int64_t last_activity_ms = 0;
    bool close_after_flush = false;  // flush outbox, then close
    uint32_t epoll_events = 0;  // interest set currently registered
  };

  void IoLoop();
  int64_t NowMs() const;
  void Wake();
  void HandleAccept();
  // Returns false when the connection was closed during the call.
  bool HandleReadable(Connection* conn);
  bool HandleWritable(Connection* conn);
  // Parses complete frames out of conn->inbuf; false = connection closed.
  bool ParseFrames(Connection* conn);
  void SubmitRequest(Connection* conn, const FrameHeader& header,
                     serve::InferenceRequest request);
  // Answers a kHealthRequest inline on the IO thread (Health() only takes
  // the serving mutexes briefly; no forward runs under them).
  void AnswerHealthRequest(Connection* conn, const FrameHeader& header);
  void QueueResponse(Connection* conn, std::string frame);
  void DrainCompletions();
  enum class CloseReason { kPeer, kIdle, kProtocol, kOverflow, kDrain };
  void CloseConnection(uint64_t conn_id, CloseReason reason);
  // epoll_ctl wrapper; false (with a log line) on failure. `tag` lands in
  // epoll_event.data.u64 and routes events back to their connection.
  bool EpollUpdate(int op, int fd, uint32_t events, uint64_t tag);

  serve::Server* const server_;
  const SocketServerOptions options_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  int port_ = 0;
  uint64_t next_conn_id_ = 1;
  std::map<uint64_t, Connection> conns_;  // owned by the IO thread
  std::shared_ptr<CompletionSink> sink_;

  mutable std::mutex state_mu_;
  std::condition_variable state_cv_;
  bool started_ = false;
  bool draining_ = false;  // set by Stop(); read by the IO thread
  bool drained_ = false;   // set by the IO thread once fully quiesced
  bool stop_ = false;      // force-exit the IO loop
  bool stopped_ = false;   // Stop() finished (idempotence)
  // Requests submitted whose completion the IO thread has not yet routed.
  std::atomic<int64_t> outstanding_{0};

  mutable std::mutex stats_mu_;
  NetStats stats_;

  std::thread io_thread_;
};

}  // namespace dtdbd::net

#endif  // DTDBD_NET_SOCKET_SERVER_H_
