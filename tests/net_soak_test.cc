// Fault-injected network soak (the acceptance bar for the socket front
// end): >= 10k requests from >= 8 concurrent socket clients against a
// THREE-model fleet behind one socket front end, while a FaultInjector
// interleaves truncated frames, oversized frames, garbage payloads,
// mid-frame disconnects, and slow-loris stalls. Invariants:
//   - zero crashes, zero fd leaks (/proc/self/fd census before construction
//     vs after full teardown),
//   - every accepted request is answered exactly once with its own id,
//   - every OK answer is bitwise identical to the in-process Submit() answer
//     for the same input AND the same named model (the §9.4 parity contract
//     over the wire, extended per model); clients that name no model
//     reproduce the default model's answers bitwise,
//   - unknown model names map to the typed NOT_FOUND wire code and the
//     connection survives,
//   - typed outcomes only: OK / DEADLINE_EXCEEDED / INVALID_ARGUMENT /
//     BAD_FRAME / NOT_FOUND on the well-behaved connections, and the
//     hostile connections die cleanly (idle sweep or immediate close).
// Worker count comes from DTDBD_SERVE_WORKERS so the CI matrix exercises
// the single-worker and multi-worker interleavings.
#include <dirent.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "models/model.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/socket_server.h"
#include "serve/server.h"
#include "serve/session.h"
#include "text/frozen_encoder.h"
#include "train/fault_injector.h"

namespace dtdbd::net {
namespace {

constexpr int kClients = 10;           // >= 8 required by the soak bar
constexpr int kRequestsPerClient = 1200;

int CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count - 1;  // the DIR* fd counts itself once
}

// A syntactically valid frame whose payload cannot be decoded (advertised
// counts disagree with payload_len). The framing stays trusted, so the
// server owes a BAD_FRAME response and the connection survives.
std::string GarbageFrameBytes(uint64_t request_id) {
  FrameHeader header;
  header.request_id = request_id;
  header.payload_len = 16;
  std::string bytes(kFrameHeaderSize + 16, '\0');
  EncodeFrameHeader(header, reinterpret_cast<uint8_t*>(bytes.data()));
  bytes[kFrameHeaderSize + 4] = 99;  // num_tokens = 99, but no bytes follow
  return bytes;
}

std::string OversizedHeaderBytes() {
  FrameHeader header;
  header.request_id = 1;
  header.payload_len = 512u * 1024 * 1024;
  std::string bytes(kFrameHeaderSize, '\0');
  EncodeFrameHeader(header, reinterpret_cast<uint8_t*>(bytes.data()));
  return bytes;
}

struct SoakTotals {
  std::atomic<int64_t> main_frames{0};  // framed requests on main conns
  std::atomic<int64_t> ok{0};
  std::atomic<int64_t> deadline{0};
  std::atomic<int64_t> invalid{0};
  std::atomic<int64_t> bad_frame{0};
  std::atomic<int64_t> not_found{0};  // unknown-model probes
  std::atomic<int64_t> default_ok{0};  // OK answers to empty-name clients
  std::atomic<int64_t> hostile_conns{0};
  std::atomic<int64_t> failures{0};  // any broken invariant (details via gtest)
};

// Fleet members behind the one front end. Index 0 is the default model
// (what empty names route to).
constexpr const char* kFleet[] = {"", "m1", "m2"};
constexpr uint64_t kFleetSeeds[] = {3, 5, 7};

TEST(NetSoakTest, FaultInjectedStormNoCrashNoLeakExactlyOnceBitwise) {
  const int fds_before = CountOpenFds();
  ASSERT_GT(fds_before, 0);

  {
    data::NewsDataset dataset = data::GenerateCorpus(data::MicroConfig(17));
    text::FrozenEncoder encoder(dataset.vocab->size(), 16, 5);
    models::ModelConfig config;
    config.vocab_size = dataset.vocab->size();
    config.num_domains = dataset.num_domains();
    config.encoder = &encoder;
    config.embed_dim = 12;
    config.hidden_dim = 16;
    config.conv_channels = 8;
    config.rnn_hidden = 8;
    config.num_experts = 3;
    config.seed = 3;
    serve::RequestLimits limits;
    limits.vocab_size = config.vocab_size;
    limits.num_domains = config.num_domains;
    limits.seq_len = dataset.seq_len;

    serve::ServerOptions options;
    options.num_workers = 0;  // resolve from DTDBD_SERVE_WORKERS (CI matrix)
    options.max_batch = 4;
    options.max_queue_depth = 4096;  // the storm must not shed on depth
    options.watchdog_period_nanos = 0;
    auto make_session = [&](uint64_t seed) {
      models::ModelConfig c = config;
      c.seed = seed;
      return std::make_unique<serve::InferenceSession>(
          models::CreateModel("MDFEND", c), limits, /*model_version=*/1);
    };
    auto server = std::make_unique<serve::Server>(
        make_session(kFleetSeeds[0]), options);
    ASSERT_TRUE(server->AddModel("m1", make_session(kFleetSeeds[1])).ok());
    ASSERT_TRUE(server->AddModel("m2", make_session(kFleetSeeds[2])).ok());

    SocketServerOptions net_options;
    net_options.max_connections = 128;   // 10 main + transient hostiles
    net_options.idle_timeout_ms = 400;   // reclaims the slow-loris stalls
    SocketServer net(server.get(), net_options);
    ASSERT_TRUE(net.Start().ok());
    ASSERT_GT(net.port(), 0);

    // In-process references, computed through the same server before the
    // storm — one per (model, sample): wire answers must reproduce the
    // named model's answer bitwise.
    std::vector<serve::InferenceRequest> requests;
    std::vector<serve::Prediction> expected[3];
    for (const data::NewsSample& sample : dataset.samples) {
      serve::InferenceRequest request;
      request.tokens = sample.tokens;
      request.domain = sample.domain;
      request.style = sample.style;
      request.emotion = sample.emotion;
      for (int m = 0; m < 3; ++m) {
        request.model_name = kFleet[m];
        const StatusOr<serve::Prediction> reference = server->Predict(request);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();
        expected[m].push_back(reference.value());
      }
      request.model_name.clear();
      requests.push_back(std::move(request));
    }

    train::FaultInjector injector(23);
    injector.set_net_fault_probability(0.08);
    SoakTotals totals;
    std::vector<Client> stalled;  // slow-loris conns, reclaimed by the sweep
    std::mutex stalled_mu;

    const int port = net.port();
    auto client_thread = [&](int client_index) {
      Client client;
      // Every third client names no model, so all its traffic must land
      // on the default model.
      const bool default_client = client_index % 3 == 2;
      Status connected = client.Connect("127.0.0.1", port);
      if (!connected.ok()) {
        ADD_FAILURE() << "client " << client_index << " connect: "
                      << connected.ToString();
        totals.failures.fetch_add(1);
        return;
      }
      std::set<uint64_t> answered_ids;  // exactly-once: no id answered twice
      int my_stalls = 0;
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const uint64_t id =
            static_cast<uint64_t>(client_index) * 1'000'000 + i + 1;
        const size_t sample = (client_index * 31 + i) % requests.size();
        const train::FaultInjector::NetFault fault = injector.NextNetFault();

        // Hostile traffic rides on throwaway connections so the main
        // connection's exactly-once ledger stays interpretable.
        if (fault == train::FaultInjector::NetFault::kTruncatedFrame ||
            fault == train::FaultInjector::NetFault::kOversizedFrame ||
            fault == train::FaultInjector::NetFault::kMidFrameDisconnect ||
            (fault == train::FaultInjector::NetFault::kStalledReader &&
             my_stalls < 6)) {
          Client hostile;
          if (hostile.Connect("127.0.0.1", port).ok()) {
            totals.hostile_conns.fetch_add(1);
            const std::string good =
                EncodeRequestFrame(id, 0, requests[sample]);
            switch (fault) {
              case train::FaultInjector::NetFault::kTruncatedFrame:
                (void)hostile.SendBytes(good.substr(0, 20));
                hostile.Close();
                break;
              case train::FaultInjector::NetFault::kOversizedFrame:
                (void)hostile.SendBytes(OversizedHeaderBytes());
                hostile.Close();
                break;
              case train::FaultInjector::NetFault::kMidFrameDisconnect:
                (void)hostile.SendBytes(good.substr(0, kFrameHeaderSize + 4));
                hostile.Close();
                break;
              default: {  // kStalledReader: half a header, then silence
                (void)hostile.SendBytes(good.substr(0, 7));
                ++my_stalls;
                std::lock_guard<std::mutex> lock(stalled_mu);
                stalled.push_back(std::move(hostile));
                break;
              }
            }
          }
          continue;
        }

        // Fleet routing: the other clients spread traffic across the three
        // models; empty-name clients always get index 0.
        const int model = default_client ? 0 : (client_index + i) % 3;
        serve::InferenceRequest routed = requests[sample];
        routed.model_name = kFleet[model];

        WireResponse response;
        Status outcome;
        WireCode want = WireCode::kOk;
        if (fault == train::FaultInjector::NetFault::kGarbageFrame) {
          want = WireCode::kBadFrame;
          Status sent = client.SendBytes(GarbageFrameBytes(id));
          outcome = sent.ok() ? client.Receive(&response, 30'000) : sent;
        } else if (i % 37 == 0) {
          want = WireCode::kDeadlineExceeded;  // expired before it was sent
          Status sent = client.Send(id, /*deadline_nanos=*/1, routed);
          outcome = sent.ok() ? client.Receive(&response, 30'000) : sent;
        } else if (i % 41 == 0) {
          want = WireCode::kInvalidArgument;  // decodes fine, validates badly
          serve::InferenceRequest bad = routed;
          bad.domain = limits.num_domains + 7;
          outcome = client.Call(id, 0, bad, &response);
        } else if (!default_client && i % 53 == 0) {
          want = WireCode::kNotFound;  // unknown model, typed rejection
          serve::InferenceRequest ghost = routed;
          ghost.model_name = "no-such-model";
          outcome = client.Call(id, 0, ghost, &response);
        } else {
          outcome = client.Call(id, 0, routed, &response);
        }
        totals.main_frames.fetch_add(1);

        if (!outcome.ok()) {
          ADD_FAILURE() << "client " << client_index << " request " << id
                        << ": " << outcome.ToString();
          totals.failures.fetch_add(1);
          return;  // the connection is unusable; fail loudly, stop this one
        }
        if (response.request_id != id || !answered_ids.insert(id).second) {
          ADD_FAILURE() << "client " << client_index
                        << ": duplicate or mismatched id " << response.request_id
                        << " (wanted " << id << ")";
          totals.failures.fetch_add(1);
          return;
        }
        if (response.code != want) {
          ADD_FAILURE() << "client " << client_index << " request " << id
                        << ": code " << WireCodeName(response.code)
                        << " wanted " << WireCodeName(want) << " ("
                        << response.message << ")";
          totals.failures.fetch_add(1);
          continue;
        }
        switch (response.code) {
          case WireCode::kOk: {
            totals.ok.fetch_add(1);
            if (default_client) totals.default_ok.fetch_add(1);
            const serve::Prediction& ref = expected[model][sample];
            if (std::memcmp(&response.prediction.p_fake, &ref.p_fake,
                            sizeof(float)) != 0 ||
                response.prediction.label != ref.label ||
                response.prediction.model_version != ref.model_version) {
              ADD_FAILURE() << "client " << client_index << " request " << id
                            << ": wire answer differs bitwise from in-process"
                            << " Submit for sample " << sample << " on model "
                            << (kFleet[model][0] ? kFleet[model] : "default");
              totals.failures.fetch_add(1);
            }
            // Responses echo the routed model; an empty name resolves to
            // "default".
            const std::string& got_name = response.prediction.model_name;
            if (got_name != (model == 0 ? "default" : kFleet[model])) {
              ADD_FAILURE() << "client " << client_index << " request " << id
                            << ": response named model '" << got_name << "'";
              totals.failures.fetch_add(1);
            }
            break;
          }
          case WireCode::kDeadlineExceeded:
            totals.deadline.fetch_add(1);
            break;
          case WireCode::kInvalidArgument:
            totals.invalid.fetch_add(1);
            break;
          case WireCode::kBadFrame:
            totals.bad_frame.fetch_add(1);
            break;
          case WireCode::kNotFound:
            totals.not_found.fetch_add(1);
            break;
          default:
            break;
        }
      }
      client.Close();
    };

    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) threads.emplace_back(client_thread, c);
    for (std::thread& t : threads) t.join();

    // The soak only counts if the storm was actually big and hostile.
    EXPECT_GE(totals.main_frames.load(), 10'000)
        << "storm too small to satisfy the soak bar";
    EXPECT_GT(totals.ok.load(), 0);
    EXPECT_GT(totals.default_ok.load(), 0);  // empty-name clients were served
    EXPECT_GT(totals.deadline.load(), 0);
    EXPECT_GT(totals.invalid.load(), 0);
    EXPECT_GT(totals.bad_frame.load(), 0);
    EXPECT_GT(totals.not_found.load(), 0);  // unknown-model probes answered
    EXPECT_GT(totals.hostile_conns.load(), 0);
    EXPECT_GT(injector.injected_net_faults(), 0);
    EXPECT_EQ(totals.failures.load(), 0);
    // Exactly-once, globally: every framed request on a main connection got
    // exactly one answer (per-client ledgers already rejected duplicates).
    EXPECT_EQ(totals.ok.load() + totals.deadline.load() +
                  totals.invalid.load() + totals.bad_frame.load() +
                  totals.not_found.load(),
              totals.main_frames.load());
    // Per-model ledgers: all three fleet members actually served traffic.
    {
      const serve::HealthReport health = server->Health();
      EXPECT_EQ(health.num_models, 3);
      ASSERT_EQ(health.models.size(), 3u);
      for (const serve::ModelHealth& m : health.models) {
        EXPECT_GT(m.served_ok, 0) << "model '" << m.name << "' idle";
      }
    }

    // The idle sweep must reclaim the slow-loris connections: each stalled
    // client sees a clean close, not a hang.
    {
      std::lock_guard<std::mutex> lock(stalled_mu);
      EXPECT_GT(stalled.size(), 0u);
      for (Client& loris : stalled) {
        WireResponse response;
        const Status eof = loris.Receive(&response, 10'000);
        EXPECT_EQ(eof.code(), StatusCode::kUnavailable)
            << "slow-loris connection not reclaimed: " << eof.ToString();
        loris.Close();
      }
      stalled.clear();
    }

    // The IO thread counts a response after its send() returns, so a client
    // can read its last reply a beat before the count; poll until it settles.
    NetStats stats = net.Stats();
    for (int spin = 0;
         spin < 200 && stats.responses_sent < totals.main_frames.load();
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      stats = net.Stats();
    }
    EXPECT_GE(stats.accepted, kClients);
    EXPECT_GT(stats.bad_frames, 0);
    EXPECT_GT(stats.closed_idle, 0);
    EXPECT_GE(stats.responses_sent, totals.main_frames.load());
    // Net and serve ledgers agree once the in-process reference Predicts
    // (three per sample — one per fleet model — before the storm) are
    // discounted.
    EXPECT_EQ(stats.requests_submitted,
              server->Health().submitted -
                  3 * static_cast<int64_t>(dataset.samples.size()));

    net.Stop();
    server->Stop();
    EXPECT_EQ(net.Stats().open_connections, 0);
  }

  // Everything — listener, wake pipe, every client and server socket — must
  // be gone. Poll briefly: fd release can trail the joins by a beat.
  int fds_after = -1;
  for (int spin = 0; spin < 200; ++spin) {
    fds_after = CountOpenFds();
    if (fds_after == fds_before) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fds_after, fds_before) << "fd leak across the soak";
}

}  // namespace
}  // namespace dtdbd::net
