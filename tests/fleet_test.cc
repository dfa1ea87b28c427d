// Fleet serving tests (DESIGN.md §11): named-model routing with a
// fleet-of-one default that stays bitwise identical to the pre-fleet
// server over BOTH the in-process Submit path and the socket path, the
// deterministic canary hash slice, the windowed auto-rollback monitor
// (ManualClock + FaultInjector-degraded candidate, zero dropped in-flight
// requests), off-path shadow scoring that leaves primary responses
// bitwise untouched, per-model HealthReport isolation, and the
// mid-window-registration watchdog guard.
#include "serve/fleet.h"

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "health_sums.h"
#include "models/model.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/socket_server.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/validation.h"
#include "tensor/optim.h"
#include "tensor/tensor.h"
#include "text/frozen_encoder.h"
#include "train/checkpoint.h"
#include "train/fault_injector.h"

namespace dtdbd::serve {
namespace {

class FleetTest : public ::testing::Test {
 protected:
  FleetTest() {
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

  models::ModelConfig ConfigWithSeed(uint64_t seed) const {
    models::ModelConfig c = config_;
    c.seed = seed;
    return c;
  }

  InferenceRequest RequestFor(const data::NewsSample& sample) const {
    InferenceRequest request;
    request.tokens = sample.tokens;
    request.domain = sample.domain;
    request.style = sample.style;
    request.emotion = sample.emotion;
    return request;
  }

  InferenceRequest ValidRequest() const {
    return RequestFor(dataset_.samples[0]);
  }

  std::unique_ptr<InferenceSession> MakeSession(uint64_t seed,
                                                int64_t version = 1) const {
    return std::make_unique<InferenceSession>(
        models::CreateModel("MDFEND", ConfigWithSeed(seed)), limits_,
        version);
  }

  std::function<std::unique_ptr<models::FakeNewsModel>()> Factory(
      uint64_t seed) const {
    return [this, seed] {
      return models::CreateModel("MDFEND", ConfigWithSeed(seed));
    };
  }

  // Writes a servable v2 checkpoint holding fresh seed-`seed` weights.
  std::string WriteCheckpoint(uint64_t seed,
                              const std::string& filename) const {
    auto model = models::CreateModel("MDFEND", ConfigWithSeed(seed));
    std::vector<tensor::Tensor> trainable;
    for (auto& p : model->Parameters()) {
      if (p.requires_grad()) trainable.push_back(p);
    }
    tensor::Adam adam(trainable, 1e-3f, 0.9f, 0.999f, 1e-8f, 0.0f);
    data::DataLoader loader(&dataset_, 8, /*shuffle=*/false, 0);
    std::vector<Rng*> rngs;
    model->CollectRngs(&rngs);
    const train::CheckpointState state = train::CaptureState(
        "supervised", 0, model->NamedParameters(), adam, rngs, loader);
    const std::string path = ::testing::TempDir() + filename;
    const Status saved = train::SaveCheckpoint(state, path);
    EXPECT_TRUE(saved.ok()) << saved.ToString();
    return path;
  }

  ServerOptions BaseOptions(uint64_t factory_seed = 3) {
    ServerOptions options;
    options.watchdog_period_nanos = 0;
    options.reload_backoff_initial_nanos = 100'000;
    options.model_factory = Factory(factory_seed);
    return options;
  }

  static bool BitwiseEqual(const Prediction& a, const Prediction& b) {
    return std::memcmp(&a.p_fake, &b.p_fake, sizeof(float)) == 0 &&
           a.label == b.label && a.model_version == b.model_version;
  }

  data::NewsDataset dataset_;
  std::unique_ptr<text::FrozenEncoder> encoder_;
  models::ModelConfig config_;
  RequestLimits limits_;
};

// ----- Routing primitives (pure functions) -----

TEST_F(FleetTest, RouteHashIsDeterministicContentHash) {
  const InferenceRequest a = ValidRequest();
  InferenceRequest b = a;
  EXPECT_EQ(RouteHash(a), RouteHash(b));  // pure function of content

  // Features are deliberately excluded: a redelivery with perturbed floats
  // stays in the same slice.
  b.style[0] += 0.25f;
  b.emotion[1] -= 0.5f;
  EXPECT_EQ(RouteHash(a), RouteHash(b));

  // Content changes move the hash.
  InferenceRequest c = a;
  c.tokens[0] = c.tokens[0] == 1 ? 2 : 1;
  EXPECT_NE(RouteHash(a), RouteHash(c));
  InferenceRequest d = a;
  d.domain = (d.domain + 1) % limits_.num_domains;
  EXPECT_NE(RouteHash(a), RouteHash(d));
}

TEST_F(FleetTest, InCanarySliceRespectsPercentBoundsAndClamps) {
  int in_at_25 = 0;
  for (uint64_t h = 0; h < 1000; ++h) {
    EXPECT_FALSE(InCanarySlice(h, 0));
    EXPECT_TRUE(InCanarySlice(h, 100));
    // Clamping: out-of-range percents behave like the nearest bound.
    EXPECT_FALSE(InCanarySlice(h, -5));
    EXPECT_TRUE(InCanarySlice(h, 150));
    // Monotone: widening the slice never evicts a member.
    if (InCanarySlice(h, 25)) {
      ++in_at_25;
      EXPECT_TRUE(InCanarySlice(h, 60));
    }
  }
  EXPECT_GT(in_at_25, 0);
  EXPECT_LT(in_at_25, 1000);
}

TEST_F(FleetTest, EvaluateCanaryWindowFlagsErrorAndLatencyRegressions) {
  CanaryOptions options;
  options.max_error_rate_increase = 0.05;

  CanaryWindowStats clean;
  clean.canary_served = 64;
  clean.canary_errors = 1;  // ~1.6%, inside the slack
  clean.primary_served = 64;
  EXPECT_FALSE(EvaluateCanaryWindow(clean, options).regression);

  CanaryWindowStats erroring = clean;
  erroring.canary_errors = 16;  // 25% over a clean primary
  const CanaryVerdict bad = EvaluateCanaryWindow(erroring, options);
  EXPECT_TRUE(bad.regression);
  EXPECT_FALSE(bad.reason.empty());

  // An equally-erroring primary absorbs the slack: no regression.
  CanaryWindowStats both = erroring;
  both.primary_errors = 16;
  EXPECT_FALSE(EvaluateCanaryWindow(both, options).regression);

  // Latency check: disabled at ratio <= 0, gated on primary samples.
  CanaryWindowStats slow = clean;
  slow.canary_errors = 0;
  slow.canary_compute_nanos = 64 * 1'000'000;   // 1 ms/elem
  slow.primary_compute_nanos = 64 * 100'000;    // 0.1 ms/elem
  EXPECT_FALSE(EvaluateCanaryWindow(slow, options).regression);
  options.max_latency_ratio = 2.0;
  EXPECT_TRUE(EvaluateCanaryWindow(slow, options).regression);
  options.min_primary_samples = 1000;  // not enough primary evidence
  EXPECT_FALSE(EvaluateCanaryWindow(slow, options).regression);
}

TEST_F(FleetTest, FleetRegistryValidatesNamesAndResolvesDefault) {
  ModelFleet fleet("main");
  EXPECT_EQ(fleet.Add("", MakeSession(3), nullptr).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.Add("main", nullptr, nullptr).status().code(),
            StatusCode::kInvalidArgument);

  const auto added = fleet.Add("main", MakeSession(3), nullptr);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_TRUE(added.value()->is_default);
  EXPECT_EQ(added.value()->version.load(), 1);
  EXPECT_EQ(fleet.Add("main", MakeSession(5), nullptr).status().code(),
            StatusCode::kFailedPrecondition);

  const auto other = fleet.Add("other", MakeSession(5), nullptr);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other.value()->is_default);

  EXPECT_EQ(fleet.Resolve(""), added.value());  // empty -> default
  EXPECT_EQ(fleet.Resolve("main"), added.value());
  EXPECT_EQ(fleet.Resolve("other"), other.value());
  EXPECT_EQ(fleet.Resolve("missing"), nullptr);
  EXPECT_EQ(fleet.default_model(), "main");
}

// ----- Fleet-of-one parity (the refactor's acceptance bar) -----

TEST_F(FleetTest, FleetOfOneMatchesStandaloneSessionBitwiseOverBothPaths) {
  ServerOptions options = BaseOptions();
  options.num_workers = 2;
  options.max_batch = 4;
  Server server(MakeSession(3), options);
  auto reference = MakeSession(3);

  net::SocketServer net(&server, net::SocketServerOptions{});
  ASSERT_TRUE(net.Start().ok());
  net::Client v2;
  net::Client v1;
  v1.set_protocol_version(net::kMinProtocolVersion);
  ASSERT_TRUE(v2.Connect("127.0.0.1", net.port()).ok());
  ASSERT_TRUE(v1.Connect("127.0.0.1", net.port()).ok());

  for (size_t i = 0; i < 48; ++i) {
    const InferenceRequest request = RequestFor(dataset_.samples[i]);
    const auto want = reference->Predict(request);
    ASSERT_TRUE(want.ok());

    // In-process Submit path.
    const auto got = server.Predict(request);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(BitwiseEqual(got.value(), want.value())) << "sample " << i;
    EXPECT_EQ(got.value().model_name, kDefaultModelName);
    EXPECT_FALSE(got.value().canary);

    // Socket path, current protocol (v2) and pre-fleet protocol (v1): a
    // v1 frame has no model-name field and must route to the default.
    net::WireResponse over_v2;
    net::WireResponse over_v1;
    ASSERT_TRUE(v2.Call(i + 1, 0, request, &over_v2).ok());
    ASSERT_TRUE(v1.Call(i + 1, 0, request, &over_v1).ok());
    ASSERT_EQ(over_v2.code, net::WireCode::kOk);
    ASSERT_EQ(over_v1.code, net::WireCode::kOk);
    EXPECT_TRUE(BitwiseEqual(over_v2.prediction, want.value()));
    EXPECT_TRUE(BitwiseEqual(over_v1.prediction, want.value()));
    EXPECT_EQ(over_v2.prediction.model_name, kDefaultModelName);
    EXPECT_TRUE(over_v1.prediction.model_name.empty());  // no v2 field
  }
  v1.Close();
  v2.Close();
  net.Stop();
  server.Stop();
}

// ----- Named routing -----

TEST_F(FleetTest, NamedRoutingServesEachModelAndRejectsUnknown) {
  Server server(MakeSession(3), BaseOptions());
  ASSERT_TRUE(server.AddModel("b", MakeSession(5), Factory(5)).ok());
  ASSERT_TRUE(server.AddModel("c", MakeSession(7), Factory(7)).ok());
  EXPECT_EQ(server.AddModel("b", MakeSession(5)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.AddModel("", MakeSession(5)).code(),
            StatusCode::kInvalidArgument);

  auto ref_default = MakeSession(3);
  auto ref_b = MakeSession(5);
  auto ref_c = MakeSession(7);
  for (size_t i = 0; i < 24; ++i) {
    InferenceRequest request = RequestFor(dataset_.samples[i]);
    struct Route {
      const char* name;
      InferenceSession* reference;
      const char* served_as;
    };
    const Route routes[] = {{"", ref_default.get(), kDefaultModelName},
                            {"default", ref_default.get(), kDefaultModelName},
                            {"b", ref_b.get(), "b"},
                            {"c", ref_c.get(), "c"}};
    for (const Route& route : routes) {
      request.model_name = route.name;
      const auto got = server.Predict(request);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const auto want = route.reference->Predict(request);
      ASSERT_TRUE(want.ok());
      EXPECT_TRUE(BitwiseEqual(got.value(), want.value()))
          << "sample " << i << " via '" << route.name << "'";
      EXPECT_EQ(got.value().model_name, route.served_as);
    }
  }

  // Unknown names are a typed, immediate rejection — not a queue entry.
  InferenceRequest unknown = ValidRequest();
  unknown.model_name = "no-such-model";
  const auto rejected = server.Predict(unknown);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotFound);

  const HealthReport health = server.Health();
  EXPECT_EQ(health.num_models, 3);
  EXPECT_EQ(health.default_model, kDefaultModelName);
  EXPECT_EQ(health.rejected_unknown_model, 1);
  ASSERT_EQ(health.models.size(), 3u);
  // Per-model ledgers: each model saw exactly its own traffic.
  for (const ModelHealth& m : health.models) {
    if (m.name == kDefaultModelName) {
      EXPECT_TRUE(m.is_default);
      EXPECT_EQ(m.served_ok, 48);  // "" and "default" both land here
    } else {
      EXPECT_FALSE(m.is_default);
      EXPECT_EQ(m.served_ok, 24);
    }
    EXPECT_EQ(m.version, 1);
    EXPECT_FALSE(m.latency_no_samples);
    EXPECT_GT(m.latency_samples, 0);
  }
  ExpectTotalsAreModelSums(health);
  server.Stop();
}

TEST_F(FleetTest, ReloadNamedModelLeavesSiblingsUntouched) {
  const std::string path = WriteCheckpoint(9, "fleet_reload_b.ckpt");
  Server server(MakeSession(3), BaseOptions());
  ASSERT_TRUE(server.AddModel("b", MakeSession(5), Factory(5)).ok());

  const Status reloaded = server.ReloadModelFromCheckpoint("b", path).get();
  ASSERT_TRUE(reloaded.ok()) << reloaded.ToString();

  // Named model swapped and bumped; the default untouched.
  InferenceRequest request = ValidRequest();
  request.model_name = "b";
  const auto via_b = server.Predict(request);
  ASSERT_TRUE(via_b.ok());
  EXPECT_EQ(via_b.value().model_version, 2);
  const auto want = MakeSession(9, 2)->Predict(request);
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(BitwiseEqual(via_b.value(), want.value()));

  request.model_name = "";
  EXPECT_EQ(server.Predict(request).value().model_version, 1);
  EXPECT_EQ(server.model_version(), 1);  // pre-fleet accessor: default model

  // Unknown names fail the control path with the same typed error.
  EXPECT_EQ(server.ReloadModelFromCheckpoint("nope", path).get().code(),
            StatusCode::kNotFound);
  const HealthReport health = server.Health();
  EXPECT_EQ(health.reload_successes, 1);
  ExpectTotalsAreModelSums(health);
  server.Stop();
}

// ----- Canary -----

TEST_F(FleetTest, CanarySliceRoutesDeterministicallyAndStampsResponses) {
  // Candidate weights == primary weights (same seed), so BOTH variants must
  // reproduce the standalone reference bitwise; only version/flag differ.
  const std::string path = WriteCheckpoint(3, "fleet_canary_same.ckpt");
  Server server(MakeSession(3), BaseOptions());
  CanaryOptions canary;
  canary.percent = 50;
  canary.window = 1'000'000;  // never evaluated in this test
  ASSERT_TRUE(server.StartCanary("", path, canary).get().ok());

  auto reference = MakeSession(3);
  int canary_served = 0;
  for (size_t i = 0; i < 64; ++i) {
    const InferenceRequest request = RequestFor(dataset_.samples[i]);
    const bool expect_canary = InCanarySlice(RouteHash(request), 50);
    const auto got = server.Predict(request);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().canary, expect_canary) << "sample " << i;
    EXPECT_EQ(got.value().model_version, expect_canary ? 2 : 1);
    const auto want = reference->Predict(request);
    EXPECT_EQ(std::memcmp(&got.value().p_fake, &want.value().p_fake,
                          sizeof(float)),
              0);
    EXPECT_EQ(got.value().label, want.value().label);
    canary_served += expect_canary ? 1 : 0;
  }
  EXPECT_GT(canary_served, 0);
  EXPECT_LT(canary_served, 64);

  const HealthReport health = server.Health();
  ASSERT_EQ(health.models.size(), 1u);
  EXPECT_TRUE(health.models[0].canary.active);
  EXPECT_EQ(health.models[0].canary.percent, 50);
  EXPECT_EQ(health.models[0].canary.candidate_version, 2);
  EXPECT_EQ(health.models[0].canary.started, 1);
  server.Stop();
}

TEST_F(FleetTest, CanaryRegressionAutoRollsBackWithZeroDroppedRequests) {
  // ManualClock-driven: deadlines can't interfere, and the (disabled by
  // default) latency check stays quiet — the injected prediction failures
  // alone must trip the monitor. The slow-load makes the canary install
  // barrier measurably long, so the burst overlaps real fleet churn.
  const std::string path = WriteCheckpoint(3, "fleet_canary_regress.ckpt");
  ManualClock clock;
  train::FaultInjector injector(7);
  injector.set_slow_load_nanos(2'000'000);  // 2 ms stall inside the barrier
  injector.set_canary_predict_failure_probability(1.0);

  ServerOptions options = BaseOptions();
  options.clock = &clock;
  options.fault_injector = &injector;
  options.num_workers = 2;
  options.max_batch = 4;
  options.max_queue_depth = 1024;
  Server server(MakeSession(3), options);

  CanaryOptions canary;
  canary.percent = 100;  // every request hits the doomed candidate
  canary.window = 4;
  canary.max_error_rate_increase = 0.05;
  std::future<Status> started = server.StartCanary("", path, canary);

  // Submit the whole burst while the slow canary load holds the barrier:
  // some requests will be served by the canary (and fail with the injected
  // kInternal), the rest must fall back to the primary after the rollback.
  constexpr int kBurst = 48;
  std::vector<std::future<StatusOr<Prediction>>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(server.Submit(RequestFor(dataset_.samples[i % 64])));
  }
  ASSERT_TRUE(started.get().ok());

  // Zero dropped in-flight requests: every future resolves, and only with
  // OK (primary) or the injected kInternal (canary) — never kUnavailable,
  // never silently.
  int ok = 0;
  int injected = 0;
  for (auto& f : futures) {
    const StatusOr<Prediction> result = f.get();
    if (result.ok()) {
      ++ok;
      EXPECT_FALSE(result.value().canary);
      EXPECT_EQ(result.value().model_version, 1);  // last-good primary
    } else {
      ASSERT_EQ(result.status().code(), StatusCode::kInternal)
          << result.status().ToString();
      ++injected;
    }
  }
  EXPECT_EQ(ok + injected, kBurst);
  EXPECT_GE(injected, canary.window);  // at least one full window failed
  EXPECT_GT(ok, 0);                    // rollback rerouted the tail
  EXPECT_GT(injector.injected_canary_failures(), 0);

  // The monitor must have rolled back to last-good exactly once.
  HealthReport health = server.Health();
  ASSERT_EQ(health.models.size(), 1u);
  EXPECT_FALSE(health.models[0].canary.active);
  EXPECT_FALSE(health.models[0].canary.draining);
  EXPECT_EQ(health.models[0].canary.rollbacks, 1);
  EXPECT_GE(health.models[0].canary.windows_evaluated, 1);
  EXPECT_NE(health.models[0].canary.last_event.find("auto-rollback"),
            std::string::npos)
      << health.models[0].canary.last_event;
  EXPECT_EQ(health.models[0].version, 1);
  EXPECT_FALSE(health.models[0].degraded);
  EXPECT_EQ(health.internal_errors, injected);
  ExpectTotalsAreModelSums(health);

  // Post-rollback the model serves cleanly on the last-good primary.
  const auto after = server.Predict(ValidRequest());
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().canary);
  EXPECT_EQ(after.value().model_version, 1);

  // A regressed-and-rolled-back canary cannot be promoted (nothing there).
  EXPECT_EQ(server.PromoteCanary("").get().code(),
            StatusCode::kFailedPrecondition);
  server.Stop();
}

TEST_F(FleetTest, PromoteInstallsCandidateAndCancelDiscards) {
  const std::string path = WriteCheckpoint(5, "fleet_canary_promote.ckpt");
  Server server(MakeSession(3), BaseOptions());

  CanaryOptions quiet;
  quiet.percent = 1;  // minimal slice (0 is rejected), then promote
  ASSERT_TRUE(server.StartCanary("", path, quiet).get().ok());
  const Status promoted = server.PromoteCanary("").get();
  ASSERT_TRUE(promoted.ok()) << promoted.ToString();

  const InferenceRequest request = ValidRequest();
  const auto got = server.Predict(request);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().model_version, 2);
  EXPECT_FALSE(got.value().canary);  // it IS the primary now
  const auto want = MakeSession(5, 2)->Predict(request);
  EXPECT_TRUE(BitwiseEqual(got.value(), want.value()));
  EXPECT_EQ(server.model_version(), 2);

  // Second round: start and cancel — primary stays the promoted one.
  ASSERT_TRUE(server.StartCanary("", WriteCheckpoint(7, "fleet_cx.ckpt"))
                  .get()
                  .ok());
  ASSERT_TRUE(server.CancelCanary("").get().ok());
  EXPECT_EQ(server.Predict(request).value().model_version, 2);
  EXPECT_EQ(server.CancelCanary("").get().code(),
            StatusCode::kFailedPrecondition);

  const HealthReport health = server.Health();
  EXPECT_EQ(health.models[0].canary.started, 2);
  EXPECT_EQ(health.models[0].canary.promotions, 1);
  EXPECT_EQ(health.models[0].canary.cancels, 1);
  EXPECT_EQ(health.models[0].canary.rollbacks, 0);
  server.Stop();
}

// ----- Cache invalidation races (DESIGN.md §12) -----

TEST_F(FleetTest, ReloadInvalidatesCacheAndGatedRequestServesNewVersion) {
  // The race this pins: request X is cached at v1 and a reload barrier is
  // already queued when X is submitted again. Admission must bypass the
  // cache while any control job is pending, so X queues BEHIND the barrier
  // and is served by v2 — never the stale v1 entry, never anything torn.
  const std::string path = WriteCheckpoint(9, "fleet_cache_reload.ckpt");
  train::FaultInjector injector(7);
  injector.set_slow_load_nanos(50'000'000);  // hold the barrier open 50 ms
  ServerOptions options = BaseOptions();
  options.cache_bytes = 1 << 20;
  options.num_workers = 1;  // strict FIFO: barrier, then the gated request
  options.fault_injector = &injector;
  Server server(MakeSession(3), options);

  // Prime: X cached at v1, replay hits.
  const InferenceRequest request = ValidRequest();
  const auto v1 = server.Predict(request);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1.value().model_version, 1);
  ASSERT_TRUE(BitwiseEqual(server.Predict(request).value(), v1.value()));
  EXPECT_EQ(server.Health().cache_hits, 1);

  // The race window: the reload control job is enqueued (and its slow load
  // holds the quiescent barrier) when the hit-eligible X arrives.
  std::future<Status> reload = server.ReloadFromCheckpoint(path);
  auto gated = server.Submit(request);
  ASSERT_TRUE(reload.get().ok());
  const auto after = gated.get();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().model_version, 2);
  const auto want = MakeSession(9, 2)->Predict(request);
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(BitwiseEqual(after.value(), want.value()));

  const HealthReport health = server.Health();
  ASSERT_EQ(health.models.size(), 1u);
  EXPECT_GE(health.models[0].cache.invalidated, 1);  // v1 entry dropped
  EXPECT_EQ(health.cache_hits, 1);  // the gated X was NOT a hit

  // The gated X bypassed the cache layer entirely, so its v2 answer was
  // (conservatively) not inserted. The next replay is a clean miss that
  // refills under v2; the one after replays the new version's bits.
  ASSERT_TRUE(BitwiseEqual(server.Predict(request).value(), want.value()));
  ASSERT_TRUE(BitwiseEqual(server.Predict(request).value(), want.value()));
  EXPECT_EQ(server.Health().cache_hits, 2);
  server.Stop();
}

TEST_F(FleetTest, PromoteInvalidatesCacheAndGatedRequestServesPromotedBits) {
  // Same race through the canary path: X lives in the PRIMARY slice (so it
  // is cache-eligible while the canary runs), is cached at v1, and is
  // re-submitted right as the promote barrier is enqueued. Whether X lands
  // before the barrier pops (bypass: control pending) or after it finishes
  // (miss: the clear already ran), it must be served by the promoted v2 —
  // a stale v1 hit is the bug.
  const std::string path = WriteCheckpoint(5, "fleet_cache_promote.ckpt");
  train::FaultInjector injector(7);
  injector.set_slow_load_nanos(20'000'000);
  ServerOptions options = BaseOptions();
  options.cache_bytes = 1 << 20;
  options.num_workers = 1;
  options.fault_injector = &injector;
  Server server(MakeSession(3), options);

  CanaryOptions canary;
  canary.percent = 25;
  canary.window = 1'000'000;  // never auto-evaluated here
  ASSERT_TRUE(server.StartCanary("", path, canary).get().ok());

  size_t primary_index = dataset_.samples.size();
  for (size_t i = 0; i < dataset_.samples.size(); ++i) {
    if (!InCanarySlice(RouteHash(RequestFor(dataset_.samples[i])),
                       canary.percent)) {
      primary_index = i;
      break;
    }
  }
  ASSERT_LT(primary_index, dataset_.samples.size());
  const InferenceRequest request = RequestFor(dataset_.samples[primary_index]);

  const auto v1 = server.Predict(request);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1.value().model_version, 1);
  EXPECT_FALSE(v1.value().canary);
  ASSERT_TRUE(BitwiseEqual(server.Predict(request).value(), v1.value()));
  EXPECT_EQ(server.Health().cache_hits, 1);

  std::future<Status> promoted = server.PromoteCanary("");
  auto gated = server.Submit(request);
  ASSERT_TRUE(promoted.get().ok());
  const auto after = gated.get();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().model_version, 2);
  EXPECT_FALSE(after.value().canary);  // it IS the primary now
  const auto want = MakeSession(5, 2)->Predict(request);
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(BitwiseEqual(after.value(), want.value()));

  const HealthReport health = server.Health();
  ASSERT_EQ(health.models.size(), 1u);
  EXPECT_GE(health.models[0].cache.invalidated, 1);
  EXPECT_EQ(health.cache_hits, 1);

  // Refill under the promoted version, then a hit with v2 bits. Both legal
  // schedules for the gated submit X leave the cache holding v2 bits here:
  // if X bypassed (control pending) the first predict below misses and
  // refills (total hits 2); if X landed after the barrier it already
  // refilled and the first predict below hits too (total hits 3). Either
  // way every answer above was bitwise v2 — only the hit count forks.
  ASSERT_TRUE(BitwiseEqual(server.Predict(request).value(), want.value()));
  ASSERT_TRUE(BitwiseEqual(server.Predict(request).value(), want.value()));
  const int64_t hits = server.Health().cache_hits;
  EXPECT_GE(hits, 2);
  EXPECT_LE(hits, 3);
  server.Stop();
}

// ----- Shadow -----

TEST_F(FleetTest, ShadowLeavesPrimaryBitwiseIdenticalAndRecordsDeltas) {
  const std::string path = WriteCheckpoint(11, "fleet_shadow.ckpt");
  ServerOptions options = BaseOptions();
  options.num_workers = 2;
  options.max_batch = 4;
  Server with_shadow(MakeSession(3), options);
  Server without_shadow(MakeSession(3), BaseOptions());
  ASSERT_TRUE(with_shadow.StartShadow("", path).get().ok());

  constexpr int kRequests = 48;
  for (int i = 0; i < kRequests; ++i) {
    const InferenceRequest request = RequestFor(dataset_.samples[i]);
    const auto shadowed = with_shadow.Predict(request);
    const auto plain = without_shadow.Predict(request);
    ASSERT_TRUE(shadowed.ok());
    ASSERT_TRUE(plain.ok());
    // The §11.3 contract: shadow scoring is OFF the response path, so the
    // served answer is bitwise the no-shadow answer.
    EXPECT_TRUE(BitwiseEqual(shadowed.value(), plain.value()))
        << "sample " << i;
  }

  // The shadow forward runs AFTER the primary reply is sent (that is the
  // point), so the final request's delta may still be merging — poll.
  HealthReport health = with_shadow.Health();
  for (int spin = 0; spin < 500 && health.models[0].shadow.scored < kRequests;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    health = with_shadow.Health();
  }
  ASSERT_EQ(health.models.size(), 1u);
  EXPECT_TRUE(health.models[0].shadow.active);
  EXPECT_EQ(health.models[0].shadow.scored, kRequests);
  EXPECT_EQ(health.models[0].shadow.shadow_errors, 0);
  // Different weights genuinely disagree; the telemetry must show it.
  EXPECT_GT(health.models[0].shadow.mean_abs_delta, 0.0);
  EXPECT_GE(health.models[0].shadow.max_abs_delta,
            health.models[0].shadow.mean_abs_delta);

  ASSERT_TRUE(with_shadow.StopShadow("").get().ok());
  EXPECT_FALSE(with_shadow.Health().models[0].shadow.active);
  // StopShadow is idempotent.
  EXPECT_TRUE(with_shadow.StopShadow("").get().ok());
  with_shadow.Stop();
  without_shadow.Stop();
}

// ----- Health / watchdog -----

TEST_F(FleetTest, WatchdogSurvivesModelsRegisteredMidWindow) {
  ServerOptions options = BaseOptions();
  options.watchdog_period_nanos = 1'000'000;  // 1 ms — tick hard
  Server server(MakeSession(3), options);

  // Register models while the watchdog snapshots concurrently. The guard
  // under test: every report is internally consistent (models[] matches
  // num_models, no half-registered entry), mid-registration or not.
  std::thread registrar([&] {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(server
                      .AddModel("mid_" + std::to_string(i),
                                MakeSession(20 + i), Factory(20 + i))
                      .ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int spin = 0; spin < 200; ++spin) {
    const HealthReport report = server.LastWatchdogReport();
    EXPECT_EQ(static_cast<int64_t>(report.models.size()), report.num_models);
    for (const ModelHealth& m : report.models) {
      EXPECT_FALSE(m.name.empty());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  registrar.join();

  // Registration is visible by the next tick at the latest.
  HealthReport final_report;
  for (int spin = 0; spin < 1000; ++spin) {
    final_report = server.LastWatchdogReport();
    if (final_report.num_models == 9) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(final_report.num_models, 9);
  EXPECT_GT(final_report.watchdog_ticks, 0);
  ExpectTotalsAreModelSums(final_report);
  server.Stop();
}

// ----- Socket-path fleet routing -----

TEST_F(FleetTest, SocketRoutesNamedModelsAcrossProtocolVersions) {
  const std::string shadow_path =
      WriteCheckpoint(11, "fleet_socket_shadow.ckpt");
  ServerOptions options = BaseOptions();
  options.num_workers = 2;
  Server server(MakeSession(3), options);
  ASSERT_TRUE(server.AddModel("b", MakeSession(5), Factory(5)).ok());
  ASSERT_TRUE(server.AddModel("c", MakeSession(7), Factory(7)).ok());

  net::SocketServer net(&server, net::SocketServerOptions{});
  ASSERT_TRUE(net.Start().ok());
  auto ref_default = MakeSession(3);
  auto ref_b = MakeSession(5);
  auto ref_c = MakeSession(7);

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());
  for (size_t i = 0; i < 16; ++i) {
    InferenceRequest request = RequestFor(dataset_.samples[i]);

    // v2 with an explicit name routes there and echoes the name.
    request.model_name = "b";
    net::WireResponse response;
    ASSERT_TRUE(client.Call(2 * i + 1, 0, request, &response).ok());
    ASSERT_EQ(response.code, net::WireCode::kOk);
    EXPECT_EQ(response.prediction.model_name, "b");
    EXPECT_TRUE(
        BitwiseEqual(response.prediction, ref_b->Predict(request).value()));

    // Unknown name maps to the NOT_FOUND wire code; connection survives.
    request.model_name = "ghost";
    ASSERT_TRUE(client.Call(2 * i + 2, 0, request, &response).ok());
    EXPECT_EQ(response.code, net::WireCode::kNotFound);
  }

  // Shadow-score the default model from here on. A v1 client on the same
  // server cannot name a model and lands on the default — the pre-fleet
  // wire contract, bit for bit, shadow or not — while v2 traffic to "c"
  // interleaves and must not reach the default model's shadow.
  ASSERT_TRUE(server.StartShadow("", shadow_path).get().ok());
  net::Client v1;
  v1.set_protocol_version(net::kMinProtocolVersion);
  ASSERT_TRUE(v1.Connect("127.0.0.1", net.port()).ok());
  constexpr int64_t kDefaultRequests = 16;
  for (int64_t i = 0; i < kDefaultRequests; ++i) {
    InferenceRequest request = RequestFor(dataset_.samples[i]);
    request.model_name = "b";  // v1 encoding cannot carry this; it drops
    net::WireResponse response;
    ASSERT_TRUE(v1.Call(i + 1, 0, request, &response).ok());
    ASSERT_EQ(response.code, net::WireCode::kOk);
    EXPECT_TRUE(BitwiseEqual(response.prediction,
                             ref_default->Predict(request).value()));
    EXPECT_TRUE(response.prediction.model_name.empty());

    request.model_name = "c";
    ASSERT_TRUE(client.Call(100 + i, 0, request, &response).ok());
    ASSERT_EQ(response.code, net::WireCode::kOk);
    EXPECT_TRUE(
        BitwiseEqual(response.prediction, ref_c->Predict(request).value()));
  }
  const net::NetStats stats = net.Stats();
  EXPECT_EQ(stats.bad_frames, 0);

  v1.Close();
  client.Close();
  net.Stop();
  server.Stop();
  // Drained: every shadow forward has merged its delta.
  const HealthReport health = server.Health();
  ASSERT_EQ(health.models.size(), 3u);
  EXPECT_TRUE(health.models[0].shadow.active);
  EXPECT_EQ(health.models[0].shadow.scored, kDefaultRequests);
  EXPECT_EQ(health.models[0].shadow.shadow_errors, 0);
  EXPECT_EQ(health.models[2].shadow.scored, 0);
  ExpectTotalsAreModelSums(health);
}

}  // namespace
}  // namespace dtdbd::serve
