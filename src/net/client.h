// Minimal blocking client for the serving wire protocol — the test and
// load-generator counterpart of SocketServer. Deliberately simple: one
// connection per object, blocking I/O with EINTR/short-read handling, and a
// raw-bytes escape hatch (SendBytes/ShutdownWrite) so fuzz tests can inflict
// truncated, oversized, and garbage frames without a second code path.
//
// Pipelining is allowed: Send() any number of requests, then Receive()
// responses; request ids correlate them (the server answers in completion
// order, not send order, once requests overlap).
#ifndef DTDBD_NET_CLIENT_H_
#define DTDBD_NET_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/protocol.h"
#include "serve/validation.h"

namespace dtdbd::net {

class Client {
 public:
  Client() = default;
  ~Client();  // closes

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  // Blocking TCP connect to host:port.
  Status Connect(const std::string& host, int port);
  bool connected() const { return fd_ >= 0; }
  void Close();

  // Encodes and writes one request frame (blocking until fully written).
  // kInvalidArgument, with nothing written, when the model name is longer
  // than the wire's u16 length field can carry.
  Status Send(uint64_t request_id, int64_t deadline_nanos,
              const serve::InferenceRequest& request);

  // Reads exactly one response frame (blocking). kUnavailable on a clean
  // server-side close, kIoError on anything torn. `timeout_ms` <= 0 blocks
  // indefinitely; otherwise kDeadlineExceeded when no full frame arrives in
  // time (SO_RCVTIMEO granularity).
  Status Receive(WireResponse* response, int64_t timeout_ms = 0);

  // Convenience: Send + Receive and require the response to echo
  // request_id (valid under no pipelining).
  Status Call(uint64_t request_id, int64_t deadline_nanos,
              const serve::InferenceRequest& request, WireResponse* response);

  // Health introspection. Sends a kHealthRequest and blocks for the
  // matching kHealthResponse — valid under no pipelining, like Call(). The
  // server may answer a typed error frame instead (e.g. BAD_FRAME); that
  // surfaces as the mapped Status, not a decode failure.
  Status GetHealth(uint64_t request_id, WireHealth* health,
                   int64_t timeout_ms = 0);

  // Raw escape hatches for malformed-frame tests.
  Status SendBytes(const std::string& bytes);
  // Half-close the write side (the server sees EOF but can still respond).
  void ShutdownWrite();

 private:
  int fd_ = -1;
};

}  // namespace dtdbd::net

#endif  // DTDBD_NET_CLIENT_H_
