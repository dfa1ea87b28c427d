#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <vector>

namespace dtdbd::net {

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::Connect(const std::string& host, int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return Status::IoError("socket() failed: " +
                           std::string(std::strerror(errno)));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const Status status =
        Status::IoError("connect(" + host + ":" + std::to_string(port) +
                        ") failed: " + std::strerror(errno));
    Close();
    return status;
  }
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::Ok();
}

Status Client::SendBytes(const std::string& bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("send failed: " +
                             std::string(std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

void Client::ShutdownWrite() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

Status Client::Send(uint64_t request_id, int64_t deadline_nanos,
                    const serve::InferenceRequest& request) {
  if (request.model_name.size() > UINT16_MAX) {
    return Status::InvalidArgument(
        "model name of " + std::to_string(request.model_name.size()) +
        " bytes exceeds the wire limit of " + std::to_string(UINT16_MAX));
  }
  return SendBytes(EncodeRequestFrame(request_id, deadline_nanos, request));
}

namespace {

// Reads exactly `len` bytes. kUnavailable on clean EOF at a frame boundary
// (`at_boundary`), kIoError on EOF mid-frame or any hard error,
// kDeadlineExceeded on an SO_RCVTIMEO-driven timeout.
Status ReadExact(int fd, uint8_t* out, size_t len, bool at_boundary) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, out + got, len - got);
    if (n == 0) {
      if (at_boundary && got == 0) {
        return Status::Unavailable("server closed the connection");
      }
      return Status::IoError("connection closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("timed out waiting for response");
      }
      return Status::IoError("read failed: " +
                             std::string(std::strerror(errno)));
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

Status Client::Receive(WireResponse* response, int64_t timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  timeval tv;
  tv.tv_sec = timeout_ms > 0 ? timeout_ms / 1000 : 0;
  tv.tv_usec = timeout_ms > 0 ? (timeout_ms % 1000) * 1000 : 0;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  uint8_t header_bytes[kFrameHeaderSize];
  DTDBD_RETURN_IF_ERROR(
      ReadExact(fd_, header_bytes, kFrameHeaderSize, /*at_boundary=*/true));
  FrameHeader header;
  DecodeFrameHeader(header_bytes, &header);
  bool trusted = false;
  DTDBD_RETURN_IF_ERROR(
      ValidateHeader(header, kDefaultMaxFrameBytes, &trusted));
  if (header.type != FrameType::kResponse) {
    return Status::InvalidArgument("expected a response frame");
  }
  std::vector<uint8_t> payload(header.payload_len);
  DTDBD_RETURN_IF_ERROR(
      ReadExact(fd_, payload.data(), payload.size(), /*at_boundary=*/false));
  response->request_id = header.request_id;
  return DecodeResponsePayload(payload.data(), payload.size(), response);
}

Status Client::GetHealth(uint64_t request_id, WireHealth* health,
                         int64_t timeout_ms) {
  DTDBD_RETURN_IF_ERROR(SendBytes(EncodeHealthRequestFrame(request_id)));

  timeval tv;
  tv.tv_sec = timeout_ms > 0 ? timeout_ms / 1000 : 0;
  tv.tv_usec = timeout_ms > 0 ? (timeout_ms % 1000) * 1000 : 0;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  uint8_t header_bytes[kFrameHeaderSize];
  DTDBD_RETURN_IF_ERROR(
      ReadExact(fd_, header_bytes, kFrameHeaderSize, /*at_boundary=*/true));
  FrameHeader header;
  DecodeFrameHeader(header_bytes, &header);
  bool trusted = false;
  DTDBD_RETURN_IF_ERROR(
      ValidateHeader(header, kDefaultMaxFrameBytes, &trusted));
  std::vector<uint8_t> payload(header.payload_len);
  DTDBD_RETURN_IF_ERROR(
      ReadExact(fd_, payload.data(), payload.size(), /*at_boundary=*/false));
  if (header.request_id != request_id) {
    return Status::Internal("health response id " +
                            std::to_string(header.request_id) +
                            " does not match request id " +
                            std::to_string(request_id));
  }
  if (header.type == FrameType::kResponse) {
    // A server that rejects the health request answers a typed error
    // response; surface its message as the call's failure.
    WireResponse response;
    DTDBD_RETURN_IF_ERROR(
        DecodeResponsePayload(payload.data(), payload.size(), &response));
    return Status::FailedPrecondition("server rejected health request: " +
                                 std::string(WireCodeName(response.code)) +
                                 (response.message.empty()
                                      ? ""
                                      : " (" + response.message + ")"));
  }
  if (header.type != FrameType::kHealthResponse) {
    return Status::InvalidArgument("expected a health response frame");
  }
  return DecodeHealthResponsePayload(payload.data(), payload.size(), health);
}

Status Client::Call(uint64_t request_id, int64_t deadline_nanos,
                    const serve::InferenceRequest& request,
                    WireResponse* response) {
  DTDBD_RETURN_IF_ERROR(Send(request_id, deadline_nanos, request));
  DTDBD_RETURN_IF_ERROR(Receive(response));
  if (response->request_id != request_id) {
    return Status::Internal("response id " +
                            std::to_string(response->request_id) +
                            " does not match request id " +
                            std::to_string(request_id));
  }
  return Status::Ok();
}

}  // namespace dtdbd::net
