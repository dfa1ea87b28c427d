// Socket front end: protocol codec round trips, the malformed-frame
// taxonomy (the server never crashes, never leaks an fd, and always answers
// a well-formed error frame or closes cleanly), protocol-level overload
// control (RETRY_LATER with a retry-after hint, DEADLINE_EXCEEDED,
// INVALID_ARGUMENT, UNAVAILABLE), connection limits, graceful drain, and
// the Knob table: strict flag / env resolution of every serving row.
#include "net/socket_server.h"

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "data/generator.h"
#include "models/model.h"
#include "net/client.h"
#include "net/protocol.h"
#include "scoped_env.h"
#include "serve/server.h"
#include "serve/session.h"
#include "text/frozen_encoder.h"
#include "train/fault_injector.h"

namespace dtdbd {

// Names a Knob row by its flag in test names (not by its address).
void PrintTo(const Knob* knob, std::ostream* os) { *os << "--" << knob->flag; }

}  // namespace dtdbd

namespace dtdbd::net {
namespace {

// Open-fd census via /proc/self/fd; the readdir fd itself is excluded so
// the count is stable across calls.
int CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count - 1;  // the DIR* fd counts itself once
}

class NetTest : public ::testing::Test {
 protected:
  NetTest() {
    dataset_ = data::GenerateCorpus(data::MicroConfig(17));
    encoder_ = std::make_unique<text::FrozenEncoder>(dataset_.vocab->size(),
                                                     16, 5);
    config_.vocab_size = dataset_.vocab->size();
    config_.num_domains = dataset_.num_domains();
    config_.encoder = encoder_.get();
    config_.embed_dim = 12;
    config_.hidden_dim = 16;
    config_.conv_channels = 8;
    config_.rnn_hidden = 8;
    config_.num_experts = 3;
    config_.seed = 3;
    limits_.vocab_size = config_.vocab_size;
    limits_.num_domains = config_.num_domains;
    limits_.seq_len = dataset_.seq_len;
  }

  serve::InferenceRequest RequestFor(size_t i) const {
    const data::NewsSample& sample = dataset_.samples[i];
    serve::InferenceRequest request;
    request.tokens = sample.tokens;
    request.domain = sample.domain;
    request.style = sample.style;
    request.emotion = sample.emotion;
    return request;
  }

  std::unique_ptr<serve::Server> MakeServer(serve::ServerOptions options) {
    if (!options.model_factory) {
      options.model_factory = [this] {
        return models::CreateModel("MDFEND", config_);
      };
    }
    return std::make_unique<serve::Server>(
        std::make_unique<serve::InferenceSession>(
            models::CreateModel("MDFEND", config_), limits_,
            /*model_version=*/1),
        std::move(options));
  }

  serve::ServerOptions QuietOptions() {
    serve::ServerOptions options;
    options.num_workers = 1;
    options.watchdog_period_nanos = 0;
    options.reload_backoff_initial_nanos = 100'000;
    return options;
  }

  SocketServerOptions NetOptions() {
    SocketServerOptions options;
    options.idle_timeout_ms = 60'000;  // tests that want idle set their own
    return options;
  }

  Client ConnectedClient(const SocketServer& net) {
    Client client;
    const Status connected = client.Connect("127.0.0.1", net.port());
    EXPECT_TRUE(connected.ok()) << connected.ToString();
    return client;
  }

  data::NewsDataset dataset_;
  std::unique_ptr<text::FrozenEncoder> encoder_;
  models::ModelConfig config_;
  serve::RequestLimits limits_;
};

// ----- Protocol codec -----

TEST_F(NetTest, RequestFrameRoundTrips) {
  const serve::InferenceRequest request = RequestFor(0);
  const std::string frame = EncodeRequestFrame(42, 123456789, request);
  ASSERT_GE(frame.size(), kFrameHeaderSize);

  FrameHeader header;
  DecodeFrameHeader(reinterpret_cast<const uint8_t*>(frame.data()), &header);
  bool trusted = false;
  EXPECT_TRUE(ValidateHeader(header, kDefaultMaxFrameBytes, &trusted).ok());
  EXPECT_TRUE(trusted);
  EXPECT_EQ(header.type, FrameType::kRequest);
  EXPECT_EQ(header.request_id, 42u);
  EXPECT_EQ(header.deadline_nanos, 123456789);
  EXPECT_EQ(header.payload_len, frame.size() - kFrameHeaderSize);

  serve::InferenceRequest decoded;
  const Status ok = DecodeRequestPayload(
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize,
      header.payload_len, &decoded);
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_EQ(decoded.tokens, request.tokens);
  EXPECT_EQ(decoded.domain, request.domain);
  EXPECT_EQ(decoded.style, request.style);
  EXPECT_EQ(decoded.emotion, request.emotion);
}

TEST_F(NetTest, ResponseFrameRoundTripsBitwise) {
  serve::Prediction prediction;
  prediction.p_fake = 0.37251f;
  prediction.label = 1;
  prediction.model_version = 7;
  const std::string frame =
      EncodeResponseFrame(99, WireCode::kOk, 0, &prediction, "");

  FrameHeader header;
  DecodeFrameHeader(reinterpret_cast<const uint8_t*>(frame.data()), &header);
  EXPECT_EQ(header.type, FrameType::kResponse);
  WireResponse response;
  const Status ok = DecodeResponsePayload(
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize,
      header.payload_len, &response);
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_EQ(response.code, WireCode::kOk);
  // Bitwise, not approximate: the wire must carry the exact float.
  EXPECT_EQ(std::memcmp(&response.prediction.p_fake, &prediction.p_fake,
                        sizeof(float)),
            0);
  EXPECT_EQ(response.prediction.label, 1);
  EXPECT_EQ(response.prediction.model_version, 7);
}

// Lowercase hex, one space between bytes, for readable golden diffs.
std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    if (!out.empty()) out += ' ';
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

// The wire layout pinned byte for byte: round trips cannot see a field that
// moves, because the encoder and decoder would move together.
TEST(WireGoldenTest, FramesMatchPinnedBytes) {
  serve::InferenceRequest request;
  request.domain = 3;
  request.tokens = {7, -1};
  request.style = {0.5f};
  request.emotion = {-2.0f, 1.0f};
  request.model_name = "ab";
  serve::Prediction prediction;
  prediction.p_fake = 0.25f;
  prediction.label = 1;
  prediction.model_version = 7;
  prediction.canary = true;
  prediction.model_name = "b";

  // Header: magic, version, type, request_id, deadline, payload_len,
  // reserved. Then the payload, one field per group.
  const struct {
    const char* label;
    std::string frame;
    const char* want;
  } cases[] = {
      {"request with a model name",
       EncodeRequestFrame(42, 123456789, request),
       "44 54 44 42 02 00 01 00 2a 00 00 00 00 00 00 00 "
       "15 cd 5b 07 00 00 00 00 28 00 00 00 00 00 00 00 "
       "03 00 00 00 02 00 00 00 01 00 00 00 02 00 00 00 "
       "07 00 00 00 ff ff ff ff 00 00 00 3f 00 00 00 c0 00 00 80 3f "
       "02 00 61 62"},
      {"response with canary flag, message and model name",
       EncodeResponseFrame(99, WireCode::kOk, 5, &prediction, "hi"),
       "44 54 44 42 02 00 02 00 63 00 00 00 00 00 00 00 "
       "00 00 00 00 00 00 00 00 21 00 00 00 00 00 00 00 "
       "00 00 01 00 05 00 00 00 00 00 80 3e 01 00 00 00 "
       "07 00 00 00 00 00 00 00 02 00 00 00 68 69 01 00 62"},
      {"health request",
       EncodeHealthRequestFrame(5),
       "44 54 44 42 02 00 03 00 05 00 00 00 00 00 00 00 "
       "00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(Hex(c.frame), c.want) << c.label;
  }
}

TEST_F(NetTest, StatusMapsToWireCodes) {
  EXPECT_EQ(WireCodeForStatus(Status::Ok()), WireCode::kOk);
  EXPECT_EQ(WireCodeForStatus(Status::InvalidArgument("x")),
            WireCode::kInvalidArgument);
  EXPECT_EQ(WireCodeForStatus(Status::ResourceExhausted("x")),
            WireCode::kRetryLater);
  EXPECT_EQ(WireCodeForStatus(Status::DeadlineExceeded("x")),
            WireCode::kDeadlineExceeded);
  EXPECT_EQ(WireCodeForStatus(Status::Unavailable("x")),
            WireCode::kUnavailable);
  EXPECT_EQ(WireCodeForStatus(Status::Internal("x")), WireCode::kInternal);
  EXPECT_EQ(WireCodeForStatus(Status::IoError("x")), WireCode::kInternal);
}

// ----- Happy path: wire answers match in-process answers bitwise -----

TEST_F(NetTest, ServedOverSocketBitwiseEqualsInProcessSubmit) {
  auto server = MakeServer(QuietOptions());
  SocketServer net(server.get(), NetOptions());
  ASSERT_TRUE(net.Start().ok());
  ASSERT_GT(net.port(), 0);

  Client client = ConnectedClient(net);
  for (size_t i = 0; i < 16; ++i) {
    const serve::InferenceRequest request = RequestFor(i);
    const StatusOr<serve::Prediction> direct = server->Predict(request);
    ASSERT_TRUE(direct.ok());

    WireResponse response;
    const Status called = client.Call(i + 1, 0, request, &response);
    ASSERT_TRUE(called.ok()) << called.ToString();
    ASSERT_EQ(response.code, WireCode::kOk) << response.message;
    EXPECT_EQ(response.prediction.p_fake, direct.value().p_fake)
        << "wire answer differs from in-process answer at sample " << i;
    EXPECT_EQ(response.prediction.label, direct.value().label);
    EXPECT_EQ(response.prediction.model_version,
              direct.value().model_version);
  }
  // A model name the u16 length field cannot carry is refused before any
  // byte is written, never truncated into a name the caller did not send.
  serve::InferenceRequest long_name = RequestFor(0);
  long_name.model_name.assign(size_t{UINT16_MAX} + 1, 'm');
  EXPECT_EQ(client.Send(17, 0, long_name).code(),
            StatusCode::kInvalidArgument);

  // The IO thread bumps responses_sent after the write lands in the kernel,
  // so the client can observe the last response a beat before the counter;
  // poll until it settles.
  NetStats stats = net.Stats();
  for (int spin = 0; spin < 200 && stats.responses_sent < 16; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stats = net.Stats();
  }
  EXPECT_EQ(stats.accepted, 1);
  EXPECT_EQ(stats.requests_submitted, 16);
  EXPECT_EQ(stats.responses_sent, 16);
  EXPECT_EQ(stats.bad_frames, 0);

  net.Stop();
  server->Stop();
}

// ----- Malformed-frame taxonomy -----

// Every row sends hostile bytes and states what a hardened server owes us:
// either a well-formed BAD_FRAME error frame or a clean close — never a
// crash, never a leaked fd, and never a wedged server (a follow-up request
// on a fresh connection must still be served).
TEST_F(NetTest, MalformedFrameTaxonomyNeverCrashesOrLeaksFds) {
  auto server = MakeServer(QuietOptions());
  SocketServerOptions net_options = NetOptions();
  net_options.max_frame_bytes = 4096;
  net_options.idle_timeout_ms = 300;  // the stalled-reader row relies on it
  SocketServer net(server.get(), net_options);
  ASSERT_TRUE(net.Start().ok());

  // Let the fd census settle AFTER the server exists: the baseline includes
  // the listener, wake pipe, and the worker/watchdog-free server.
  const int fds_baseline = CountOpenFds();
  ASSERT_GT(fds_baseline, 0);

  const std::string good_frame = EncodeRequestFrame(1, 0, RequestFor(0));
  // A bare header naming `version`; its framing is intact.
  const auto header_at_version = [](uint16_t version) {
    FrameHeader h;
    h.version = version;
    h.request_id = 6;
    h.payload_len = 0;
    std::string bytes(kFrameHeaderSize, '\0');
    EncodeFrameHeader(h, reinterpret_cast<uint8_t*>(bytes.data()));
    return bytes;
  };

  enum class Expect { kBadFrameThenClose, kCleanClose, kBadFrameConnSurvives };
  struct Case {
    const char* label;
    std::function<std::string()> bytes;
    Expect expect;
  };
  const std::vector<Case> cases = {
      {"truncated header (disconnect after 16 bytes)",
       [&] { return good_frame.substr(0, 16); },
       Expect::kCleanClose},
      {"disconnect after N payload bytes",
       [&] { return good_frame.substr(0, kFrameHeaderSize + 8); },
       Expect::kCleanClose},
      {"length > max frame",
       [&] {
         FrameHeader h;
         h.request_id = 5;
         h.payload_len = 64 * 1024 * 1024;  // way past max_frame_bytes
         std::string bytes(kFrameHeaderSize, '\0');
         EncodeFrameHeader(h, reinterpret_cast<uint8_t*>(bytes.data()));
         return bytes;
       },
       Expect::kCleanClose},
      {"bad magic",
       [&] {
         std::string bytes = good_frame;
         bytes[0] = 'X';
         return bytes;
       },
       Expect::kCleanClose},
      {"version mismatch (0)", [&] { return header_at_version(0); },
       Expect::kBadFrameThenClose},
      {"version mismatch (1)", [&] { return header_at_version(1); },
       Expect::kBadFrameThenClose},
      {"version mismatch (current + 9)",
       [&] { return header_at_version(kProtocolVersion + 9); },
       Expect::kBadFrameThenClose},
      {"garbage payload (counts disagree with length)",
       [&] {
         // Valid header for a 16-byte payload whose advertised counts
         // require far more bytes than arrive.
         FrameHeader h;
         h.request_id = 7;
         h.payload_len = 16;
         std::string bytes(kFrameHeaderSize + 16, '\0');
         EncodeFrameHeader(h, reinterpret_cast<uint8_t*>(bytes.data()));
         bytes[kFrameHeaderSize + 4] = 77;  // num_tokens = 77, bytes absent
         return bytes;
       },
       Expect::kBadFrameConnSurvives},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    const int64_t bad_frames_before = net.Stats().bad_frames;
    Client client = ConnectedClient(net);
    ASSERT_TRUE(client.SendBytes(c.bytes()).ok());
    switch (c.expect) {
      case Expect::kCleanClose: {
        // Nothing more will come from us; the server must drop the
        // connection without a response (and without crashing).
        client.ShutdownWrite();
        WireResponse response;
        const Status received = client.Receive(&response, 5000);
        EXPECT_FALSE(received.ok());
        EXPECT_NE(received.code(), StatusCode::kDeadlineExceeded)
            << "server neither answered nor closed";
        break;
      }
      case Expect::kBadFrameThenClose: {
        WireResponse response;
        const Status received = client.Receive(&response, 5000);
        ASSERT_TRUE(received.ok()) << received.ToString();
        EXPECT_EQ(response.code, WireCode::kBadFrame);
        // ... and then a clean close.
        const Status eof = client.Receive(&response, 5000);
        EXPECT_EQ(eof.code(), StatusCode::kUnavailable) << eof.ToString();
        EXPECT_EQ(net.Stats().bad_frames - bad_frames_before, 1);
        break;
      }
      case Expect::kBadFrameConnSurvives: {
        WireResponse response;
        const Status received = client.Receive(&response, 5000);
        ASSERT_TRUE(received.ok()) << received.ToString();
        EXPECT_EQ(response.code, WireCode::kBadFrame);
        EXPECT_EQ(net.Stats().bad_frames - bad_frames_before, 1);
        // The framing was intact, so the SAME connection still serves.
        const Status follow_up = client.Call(8, 0, RequestFor(1), &response);
        ASSERT_TRUE(follow_up.ok()) << follow_up.ToString();
        EXPECT_EQ(response.code, WireCode::kOk);
        break;
      }
    }
    client.Close();

    // The server is alive and whole: a fresh connection gets served.
    Client probe = ConnectedClient(net);
    WireResponse response;
    const Status probed = probe.Call(99, 0, RequestFor(0), &response);
    ASSERT_TRUE(probed.ok()) << probed.ToString();
    EXPECT_EQ(response.code, WireCode::kOk);
    probe.Close();
  }

  // Stalled reader / slow-loris: a half-sent header parks until the idle
  // timeout reclaims the connection.
  {
    SCOPED_TRACE("stalled reader hits the idle timeout");
    Client loris = ConnectedClient(net);
    ASSERT_TRUE(loris.SendBytes(good_frame.substr(0, 7)).ok());
    WireResponse response;
    const Status received = loris.Receive(&response, 5000);
    EXPECT_EQ(received.code(), StatusCode::kUnavailable)
        << "expected the idle timeout to close the connection: "
        << received.ToString();
    loris.Close();
  }

  // No fd may linger once every client is gone (poll until the IO thread
  // has processed the hangups).
  int fds_now = -1;
  for (int spin = 0; spin < 200; ++spin) {
    fds_now = CountOpenFds();
    if (fds_now == fds_baseline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fds_now, fds_baseline) << "fd leak after hostile traffic";

  const NetStats stats = net.Stats();
  EXPECT_GT(stats.bad_frames, 0);
  EXPECT_GT(stats.closed_protocol, 0);
  EXPECT_GT(stats.closed_idle, 0);

  net.Stop();
  server->Stop();
}

// ----- Protocol-level overload control -----

TEST_F(NetTest, QueueFullMapsToRetryLaterWithHint) {
  train::FaultInjector injector(7);
  injector.set_slow_load_nanos(400'000'000);  // pin the lone worker
  serve::ServerOptions options = QuietOptions();
  options.max_queue_depth = 1;
  options.reload_max_attempts = 1;
  options.fault_injector = &injector;
  auto server = MakeServer(options);
  SocketServerOptions net_options = NetOptions();
  net_options.retry_after_ms_hint = 25;
  SocketServer net(server.get(), net_options);
  ASSERT_TRUE(net.Start().ok());

  // Occupy the worker behind a slow (failing) reload, then fill the queue.
  auto reload = server->ReloadFromCheckpoint("/nonexistent/ckpt.bin");
  Client client = ConnectedClient(net);
  ASSERT_TRUE(client.Send(1, 0, RequestFor(0)).ok());  // fills depth-1 queue
  ASSERT_TRUE(client.Send(2, 0, RequestFor(1)).ok());  // over: shed at once

  // The rejection arrives immediately, long before the queued request.
  WireResponse response;
  ASSERT_TRUE(client.Receive(&response, 5000).ok());
  EXPECT_EQ(response.request_id, 2u);
  EXPECT_EQ(response.code, WireCode::kRetryLater);
  EXPECT_EQ(response.retry_after_ms, 25u);

  // After the reload gives up, the admitted request is served normally.
  ASSERT_TRUE(client.Receive(&response, 5000).ok());
  EXPECT_EQ(response.request_id, 1u);
  EXPECT_EQ(response.code, WireCode::kOk) << response.message;
  EXPECT_FALSE(reload.get().ok());

  net.Stop();
  server->Stop();
}

// Overload through pipelining: two connections each write 64 frames before
// reading a byte, against a depth-4 queue behind a pinned worker. Whatever
// the interleaving, every id gets exactly one reply, the only codes are OK
// and RETRY_LATER, and the OK replies are exactly the admitted requests.
TEST_F(NetTest, PipelinedOverloadAnswersEveryFrameExactlyOnce) {
  constexpr uint64_t kConnections = 2;
  constexpr uint64_t kFramesPerConnection = 64;
  train::FaultInjector injector(7);
  injector.set_slow_load_nanos(400'000'000);  // pin the lone worker
  serve::ServerOptions options = QuietOptions();
  options.max_queue_depth = 4;
  options.reload_max_attempts = 1;
  options.fault_injector = &injector;
  auto server = MakeServer(options);
  SocketServerOptions net_options = NetOptions();
  net_options.max_inflight_per_connection = 1024;
  SocketServer net(server.get(), net_options);
  ASSERT_TRUE(net.Start().ok());
  serve::InferenceSession reference(models::CreateModel("MDFEND", config_),
                                    limits_, /*model_version=*/1);

  auto reload = server->ReloadFromCheckpoint("/nonexistent/ckpt.bin");
  std::vector<Client> clients;
  for (uint64_t c = 0; c < kConnections; ++c) {
    clients.push_back(ConnectedClient(net));
  }
  // Ids are 1-based within a connection; sample c * 64 + id - 1 keeps every
  // request's content distinct, so none is answered from the cache.
  const auto sample_for = [&](uint64_t c, uint64_t id) {
    return static_cast<size_t>(c * kFramesPerConnection + id - 1);
  };
  for (uint64_t c = 0; c < kConnections; ++c) {
    for (uint64_t id = 1; id <= kFramesPerConnection; ++id) {
      ASSERT_TRUE(clients[c].Send(id, 0, RequestFor(sample_for(c, id))).ok());
    }
  }

  int64_t ok = 0;
  int64_t retry_later = 0;
  for (uint64_t c = 0; c < kConnections; ++c) {
    std::vector<int> answers(kFramesPerConnection + 1, 0);
    for (uint64_t n = 0; n < kFramesPerConnection; ++n) {
      WireResponse response;
      const Status received = clients[c].Receive(&response, 5000);
      ASSERT_TRUE(received.ok()) << "connection " << c << " got " << n
                                 << " replies: " << received.ToString();
      ASSERT_GE(response.request_id, 1u);
      ASSERT_LE(response.request_id, kFramesPerConnection);
      ++answers[response.request_id];
      if (response.code == WireCode::kRetryLater) {
        ++retry_later;
        continue;
      }
      ASSERT_EQ(response.code, WireCode::kOk) << response.message;
      ++ok;
      const StatusOr<serve::Prediction> direct =
          reference.Predict(RequestFor(sample_for(c, response.request_id)));
      ASSERT_TRUE(direct.ok());
      EXPECT_EQ(std::memcmp(&response.prediction.p_fake,
                            &direct.value().p_fake, sizeof(float)),
                0)
          << "connection " << c << " id " << response.request_id;
      EXPECT_EQ(response.prediction.label, direct.value().label);
    }
    for (uint64_t id = 1; id <= kFramesPerConnection; ++id) {
      EXPECT_EQ(answers[id], 1) << "connection " << c << " id " << id;
    }
  }
  EXPECT_FALSE(reload.get().ok());
  EXPECT_GT(retry_later, 0);  // the depth-4 queue really overflowed

  net.Stop();
  server->Stop();
  const serve::HealthReport health = server->Health();
  EXPECT_EQ(ok, health.admitted);
  EXPECT_EQ(ok, health.served_ok);
  EXPECT_EQ(retry_later, health.rejected_queue_full);
  EXPECT_EQ(net.Stats().bad_frames, 0);
  EXPECT_EQ(net.Stats().inflight_rejected, 0);
}

TEST_F(NetTest, ExpiredDeadlineMapsToDeadlineExceeded) {
  train::FaultInjector injector(7);
  injector.set_slow_load_nanos(200'000'000);
  serve::ServerOptions options = QuietOptions();
  options.reload_max_attempts = 1;
  options.fault_injector = &injector;
  auto server = MakeServer(options);
  SocketServer net(server.get(), NetOptions());
  ASSERT_TRUE(net.Start().ok());

  auto reload = server->ReloadFromCheckpoint("/nonexistent/ckpt.bin");
  Client client = ConnectedClient(net);
  // deadline 1 ns after the epoch: expired long ago by the server's clock.
  ASSERT_TRUE(client.Send(3, 1, RequestFor(0)).ok());
  WireResponse response;
  ASSERT_TRUE(client.Receive(&response, 5000).ok());
  EXPECT_EQ(response.request_id, 3u);
  EXPECT_EQ(response.code, WireCode::kDeadlineExceeded);
  EXPECT_FALSE(reload.get().ok());

  net.Stop();
  server->Stop();
}

TEST_F(NetTest, SemanticallyInvalidRequestMapsToInvalidArgument) {
  auto server = MakeServer(QuietOptions());
  SocketServer net(server.get(), NetOptions());
  ASSERT_TRUE(net.Start().ok());

  Client client = ConnectedClient(net);
  serve::InferenceRequest bad = RequestFor(0);
  bad.domain = limits_.num_domains + 3;  // wire-decodable, semantically bad
  WireResponse response;
  ASSERT_TRUE(client.Call(4, 0, bad, &response).ok());
  EXPECT_EQ(response.code, WireCode::kInvalidArgument);
  EXPECT_FALSE(response.message.empty());

  net.Stop();
  server->Stop();
}

TEST_F(NetTest, ConnectionLimitAnswersUnavailableAndCloses) {
  auto server = MakeServer(QuietOptions());
  SocketServerOptions net_options = NetOptions();
  net_options.max_connections = 2;
  SocketServer net(server.get(), net_options);
  ASSERT_TRUE(net.Start().ok());

  Client a = ConnectedClient(net);
  Client b = ConnectedClient(net);
  WireResponse response;
  // Round-trips pin both connections into the server's census before the
  // third arrives.
  ASSERT_TRUE(a.Call(1, 0, RequestFor(0), &response).ok());
  ASSERT_TRUE(b.Call(2, 0, RequestFor(1), &response).ok());

  Client c = ConnectedClient(net);
  const Status received = c.Receive(&response, 5000);
  ASSERT_TRUE(received.ok()) << received.ToString();
  EXPECT_EQ(response.code, WireCode::kUnavailable);
  EXPECT_EQ(response.request_id, 0u);  // no request of ours was involved
  const Status eof = c.Receive(&response, 5000);
  EXPECT_EQ(eof.code(), StatusCode::kUnavailable);

  EXPECT_EQ(net.Stats().rejected_max_conns, 1);

  net.Stop();
  server->Stop();
}

TEST_F(NetTest, PerConnectionInflightCapAnswersRetryLater) {
  train::FaultInjector injector(7);
  injector.set_slow_load_nanos(400'000'000);
  serve::ServerOptions options = QuietOptions();
  options.reload_max_attempts = 1;
  options.fault_injector = &injector;
  auto server = MakeServer(options);
  SocketServerOptions net_options = NetOptions();
  net_options.max_inflight_per_connection = 1;
  SocketServer net(server.get(), net_options);
  ASSERT_TRUE(net.Start().ok());

  auto reload = server->ReloadFromCheckpoint("/nonexistent/ckpt.bin");
  Client client = ConnectedClient(net);
  ASSERT_TRUE(client.Send(1, 0, RequestFor(0)).ok());  // in flight
  ASSERT_TRUE(client.Send(2, 0, RequestFor(1)).ok());  // over the cap

  WireResponse response;
  ASSERT_TRUE(client.Receive(&response, 5000).ok());
  EXPECT_EQ(response.request_id, 2u);
  EXPECT_EQ(response.code, WireCode::kRetryLater);
  ASSERT_TRUE(client.Receive(&response, 5000).ok());
  EXPECT_EQ(response.request_id, 1u);
  EXPECT_EQ(response.code, WireCode::kOk) << response.message;
  EXPECT_FALSE(reload.get().ok());
  EXPECT_EQ(net.Stats().inflight_rejected, 1);

  net.Stop();
  server->Stop();
}

// ----- Graceful drain -----

TEST_F(NetTest, StopFlushesInFlightResponsesBeforeClosing) {
  train::FaultInjector injector(7);
  injector.set_slow_load_nanos(300'000'000);
  serve::ServerOptions options = QuietOptions();
  options.reload_max_attempts = 1;
  options.fault_injector = &injector;
  auto server = MakeServer(options);
  SocketServer net(server.get(), NetOptions());
  ASSERT_TRUE(net.Start().ok());

  // Park a request behind the slow reload, then Stop() while it is queued.
  auto reload = server->ReloadFromCheckpoint("/nonexistent/ckpt.bin");
  Client client = ConnectedClient(net);
  ASSERT_TRUE(client.Send(11, 0, RequestFor(0)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // submit lands

  std::thread stopper([&net] { net.Stop(); });
  // Drain must deliver the response before the close.
  WireResponse response;
  const Status received = client.Receive(&response, 10'000);
  ASSERT_TRUE(received.ok()) << received.ToString();
  EXPECT_EQ(response.request_id, 11u);
  EXPECT_EQ(response.code, WireCode::kOk) << response.message;
  const Status eof = client.Receive(&response, 10'000);
  EXPECT_EQ(eof.code(), StatusCode::kUnavailable);
  stopper.join();
  EXPECT_FALSE(reload.get().ok());

  // Post-drain connects are refused outright (listener is closed).
  Client late;
  EXPECT_FALSE(late.Connect("127.0.0.1", net.port()).ok());

  server->Stop();
}

// ----- Start() rejects a port htons would truncate -----

TEST_F(NetTest, StartRejectsOutOfRangePortWithoutLeakingFds) {
  auto server = MakeServer(QuietOptions());
  const int fds_baseline = CountOpenFds();
  for (const int port : {70000, -1}) {
    SCOPED_TRACE(port);
    SocketServerOptions options = NetOptions();
    options.port = port;
    SocketServer net(server.get(), options);
    EXPECT_EQ(net.Start().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(CountOpenFds(), fds_baseline);
  }
  server->Stop();
}

// ----- The Knob table: every production flag / env row -----

// Resolves `knob` against a command line holding `args`.
int64_t ResolveWithArgs(const Knob& knob, std::vector<std::string> args) {
  args.insert(args.begin(), "net_test");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const FlagParser flags(static_cast<int>(argv.size()), argv.data());
  return ResolveKnob(knob, &flags);
}

class KnobTableTest : public ::testing::TestWithParam<const Knob*> {};

TEST_P(KnobTableTest, ResolvesStrictly) {
  const Knob& knob = *GetParam();
  const ::dtdbd::testing::ScopedEnv env_guard(knob.env, nullptr);
  const auto with_flag = [&knob](const std::string& value) {
    return ResolveWithArgs(knob, {"--" + std::string(knob.flag) + "=" + value});
  };

  // Absent -> fallback, with or without a parser.
  EXPECT_EQ(ResolveKnob(knob, nullptr), knob.fallback);
  EXPECT_EQ(ResolveWithArgs(knob, {}), knob.fallback);

  // Valid flags, both range ends included (cache's 0 and port's 65535).
  EXPECT_EQ(with_flag(std::to_string(knob.min)), knob.min);
  EXPECT_EQ(with_flag(std::to_string(knob.max)), knob.max);
  const int64_t flag_value = knob.min + 1;
  EXPECT_EQ(with_flag(std::to_string(flag_value)), flag_value);
  EXPECT_EQ(ResolveWithArgs(knob, {"--" + std::string(knob.flag),
                                   std::to_string(flag_value)}),
            flag_value);

  // Every bad string pins the fallback rather than a prefix or a clamp.
  std::vector<std::string> bad = {"-1", "abc", "4x", " 4", "4 ", "2.5",
                                  "+1", "",    "0x10", "1e6",
                                  "99999999999999999999"};
  if (knob.min == 1) bad.push_back("0");
  if (knob.max < std::numeric_limits<int64_t>::max()) {
    bad.push_back(std::to_string(knob.max + 1));
  }
  for (const std::string& value : bad) {
    SCOPED_TRACE("'" + value + "'");
    EXPECT_EQ(with_flag(value), knob.fallback);
  }
  if (knob.env == nullptr) return;

  // The env twin: fallback for an absent flag, beaten by a valid flag, and
  // never reached from an invalid one.
  const int64_t env_value = knob.min + 2;
  setenv(knob.env, std::to_string(env_value).c_str(), 1);
  EXPECT_EQ(ResolveKnob(knob, nullptr), env_value);
  EXPECT_EQ(ResolveWithArgs(knob, {}), env_value);
  EXPECT_EQ(with_flag(std::to_string(flag_value)), flag_value);
  for (const std::string& value : bad) {
    SCOPED_TRACE("flag '" + value + "'");
    EXPECT_EQ(with_flag(value), knob.fallback);
  }
  // An invalid env value falls back too.
  for (const std::string& value : bad) {
    SCOPED_TRACE("env '" + value + "'");
    setenv(knob.env, value.c_str(), 1);
    EXPECT_EQ(ResolveKnob(knob, nullptr), knob.fallback);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProductionRows, KnobTableTest,
    ::testing::Values(&serve::kServeWorkersKnob, &serve::kCacheBytesKnob,
                      &serve::kFeedbackRingKnob, &serve::kDriftWindowKnob,
                      &serve::kQualitySlackKnob),
    [](const ::testing::TestParamInfo<const Knob*>& info) {
      std::string name = info.param->flag;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ----- Health frames and the prediction cache over the wire -----

TEST_F(NetTest, HealthFramesRoundTripCacheCountersOverTheWire) {
  serve::ServerOptions serve_options = QuietOptions();
  serve_options.cache_bytes = 1 << 20;
  auto server = MakeServer(std::move(serve_options));
  SocketServer net(server.get(), NetOptions());
  ASSERT_TRUE(net.Start().ok());

  // Traffic that exercises the cache: the same request twice — the second
  // Call is a hit and must still be bitwise identical on the wire.
  Client client = ConnectedClient(net);
  const serve::InferenceRequest request = RequestFor(0);
  WireResponse first, second;
  ASSERT_TRUE(client.Call(1, 0, request, &first).ok());
  ASSERT_TRUE(client.Call(2, 0, request, &second).ok());
  ASSERT_EQ(first.code, WireCode::kOk);
  ASSERT_EQ(second.code, WireCode::kOk);
  EXPECT_EQ(std::memcmp(&first.prediction.p_fake, &second.prediction.p_fake,
                        sizeof(float)),
            0);

  // The wire-visible health report must mirror the in-process one.
  WireHealth health;
  const Status got = client.GetHealth(77, &health);
  ASSERT_TRUE(got.ok()) << got.ToString();
  const serve::HealthReport direct = server->Health();
  EXPECT_TRUE(health.cache_enabled);
  EXPECT_EQ(health.cache_bytes_limit, 1 << 20);
  EXPECT_EQ(health.cache_hits, direct.cache_hits);
  EXPECT_EQ(health.cache_hits, 1);
  EXPECT_EQ(health.cache_misses, direct.cache_misses);
  EXPECT_EQ(health.cache_bytes, direct.cache_bytes);
  EXPECT_GT(health.cache_bytes, 0);
  EXPECT_EQ(health.served_ok, 2);
  EXPECT_EQ(health.deduped, direct.deduped);
  ASSERT_EQ(health.models.size(), 1u);
  EXPECT_EQ(health.models[0].name, direct.default_model);
  EXPECT_TRUE(health.models[0].cache_enabled);
  EXPECT_EQ(health.models[0].hits, 1);
  EXPECT_EQ(health.models[0].inserted, 1);
  EXPECT_EQ(health.models[0].entries, 1);

  // A health request carrying a payload is malformed: BAD_FRAME, and the
  // connection survives to serve the next (valid) health request.
  std::string bad = EncodeHealthRequestFrame(79);
  bad[24] = 4;  // payload_len LE at offset 24: claim 4 payload bytes
  bad.append(4, '\0');
  ASSERT_TRUE(client.SendBytes(bad).ok());
  WireResponse rejected;
  ASSERT_TRUE(client.Receive(&rejected).ok());
  EXPECT_EQ(rejected.code, WireCode::kBadFrame);
  WireHealth again;
  EXPECT_TRUE(client.GetHealth(80, &again).ok());

  const NetStats stats = net.Stats();
  EXPECT_EQ(stats.health_requests, 2);
  EXPECT_EQ(stats.bad_frames, 1);

  net.Stop();
  server->Stop();
}

// ----- Idle sweep vs slow responses (the satellite-3 regression) -----

TEST_F(NetTest, IdleSweepSparesConnectionAwaitingSlowResponse) {
  // A forward slower than idle_timeout_ms: when the completion finally
  // lands it drops inflight to 0, and before the fix the sweep in that
  // same round read last_activity from the REQUEST's arrival and closed
  // the connection with the response still unflushed in the outbox. The
  // completion must count as activity.
  train::FaultInjector injector(0);
  injector.set_slow_predict_nanos(400'000'000);  // 400 ms >> idle timeout
  serve::ServerOptions serve_options = QuietOptions();
  serve_options.fault_injector = &injector;
  auto server = MakeServer(std::move(serve_options));
  SocketServerOptions net_options = NetOptions();
  net_options.idle_timeout_ms = 150;
  SocketServer net(server.get(), net_options);
  ASSERT_TRUE(net.Start().ok());

  Client client = ConnectedClient(net);
  ASSERT_TRUE(client.Send(1, 0, RequestFor(0)).ok());
  WireResponse response;
  const Status received = client.Receive(&response, /*timeout_ms=*/10'000);
  ASSERT_TRUE(received.ok()) << received.ToString();
  EXPECT_EQ(response.code, WireCode::kOk);
  EXPECT_EQ(net.Stats().closed_idle, 0);

  // The sweep itself still works: the now-quiet connection is reaped once
  // it has been idle past the timeout with nothing in flight.
  Status closed = Status::Ok();
  for (int spin = 0; spin < 100; ++spin) {
    WireResponse ignored;
    closed = client.Receive(&ignored, /*timeout_ms=*/100);
    if (closed.code() != StatusCode::kDeadlineExceeded) break;
  }
  EXPECT_EQ(closed.code(), StatusCode::kUnavailable) << closed.ToString();
  EXPECT_EQ(net.Stats().closed_idle, 1);

  net.Stop();
  server->Stop();
}

// ----- In-flight dedup across distinct connections -----

TEST_F(NetTest, DedupFansIdenticalFramesToDistinctConnections) {
  // Two connections submit the SAME content while a third pins the single
  // worker: one forward must answer both, and each peer receives a frame
  // carrying bitwise-identical prediction bytes.
  train::FaultInjector injector(0);
  injector.set_slow_predict_nanos(250'000'000);
  serve::ServerOptions serve_options = QuietOptions();
  serve_options.cache_bytes = 1 << 20;
  serve_options.max_batch = 1;
  serve_options.fault_injector = &injector;
  auto server = MakeServer(std::move(serve_options));
  SocketServer net(server.get(), NetOptions());
  ASSERT_TRUE(net.Start().ok());

  Client pin = ConnectedClient(net);
  ASSERT_TRUE(pin.Send(1, 0, RequestFor(5)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Client a = ConnectedClient(net);
  Client b = ConnectedClient(net);
  ASSERT_TRUE(a.Send(2, 0, RequestFor(0)).ok());
  ASSERT_TRUE(b.Send(3, 0, RequestFor(0)).ok());

  WireResponse pin_response, a_response, b_response;
  ASSERT_TRUE(pin.Receive(&pin_response, 10'000).ok());
  ASSERT_TRUE(a.Receive(&a_response, 10'000).ok());
  ASSERT_TRUE(b.Receive(&b_response, 10'000).ok());
  ASSERT_EQ(a_response.code, WireCode::kOk) << a_response.message;
  ASSERT_EQ(b_response.code, WireCode::kOk) << b_response.message;
  EXPECT_EQ(std::memcmp(&a_response.prediction.p_fake,
                        &b_response.prediction.p_fake, sizeof(float)),
            0);
  EXPECT_EQ(a_response.prediction.model_version,
            b_response.prediction.model_version);

  // Race-immune accounting: whichever of the pair arrived second was
  // absorbed — attached to the in-flight group, or served from the cache
  // the leader had just populated. Never a second forward.
  const serve::HealthReport health = server->Health();
  EXPECT_EQ(health.deduped + health.cache_hits, 1);
  EXPECT_EQ(health.batches_run, 2);  // the pin and the leader
  EXPECT_EQ(health.served_ok, 3);

  net.Stop();
  server->Stop();
}

}  // namespace
}  // namespace dtdbd::net
