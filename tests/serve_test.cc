#include "serve/server.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "data/generator.h"
#include "dtdbd/trainer.h"
#include "models/model.h"
#include "scoped_env.h"
#include "serve/session.h"
#include "serve/validation.h"
#include "tensor/ops.h"
#include "tensor/optim.h"
#include "tensor/registry.h"
#include "tensor/tensor.h"
#include "text/features.h"
#include "text/frozen_encoder.h"
#include "train/checkpoint.h"
#include "train/fault_injector.h"

namespace dtdbd::serve {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() {
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

  std::unique_ptr<InferenceSession> MakeSession(const std::string& name,
                                                uint64_t seed,
                                                int64_t version = 1) const {
    return std::make_unique<InferenceSession>(
        models::CreateModel(name, ConfigWithSeed(seed)), limits_, version);
  }

  // Writes a servable checkpoint whose parameters come from a fresh
  // seed-`seed` model (a stand-in for "newly trained weights").
  std::string WriteCheckpoint(const std::string& name, uint64_t seed,
                              const std::string& filename) const {
    auto model = models::CreateModel(name, ConfigWithSeed(seed));
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
    options.watchdog_period_nanos = 0;  // most tests poll Health() directly
    options.reload_backoff_initial_nanos = 100'000;  // keep retries fast
    options.model_factory = [this, factory_seed] {
      return models::CreateModel("MDFEND", ConfigWithSeed(factory_seed));
    };
    return options;
  }

  data::NewsDataset dataset_;
  std::unique_ptr<text::FrozenEncoder> encoder_;
  models::ModelConfig config_;
  RequestLimits limits_;
};

// ----- Validation taxonomy -----

TEST_F(ServeTest, ValidRequestPasses) {
  EXPECT_TRUE(ValidateRequest(ValidRequest(), limits_).ok());
  // Short sequences and absent features are legal (padded / zero-filled).
  InferenceRequest r = ValidRequest();
  r.tokens.resize(3);
  r.style.clear();
  r.emotion.clear();
  EXPECT_TRUE(ValidateRequest(r, limits_).ok());
}

TEST_F(ServeTest, ValidationRejectsEachMalformation) {
  struct Case {
    const char* label;
    std::function<void(InferenceRequest*)> corrupt;
  };
  const std::vector<Case> cases = {
      {"empty tokens", [](InferenceRequest* r) { r->tokens.clear(); }},
      {"over length",
       [this](InferenceRequest* r) {
         r->tokens.assign(static_cast<size_t>(limits_.seq_len) + 1, 1);
       }},
      {"token too large",
       [this](InferenceRequest* r) { r->tokens[0] = limits_.vocab_size; }},
      {"negative token", [](InferenceRequest* r) { r->tokens[0] = -1; }},
      {"domain too large",
       [this](InferenceRequest* r) { r->domain = limits_.num_domains; }},
      {"negative domain", [](InferenceRequest* r) { r->domain = -1; }},
      {"style wrong dim", [](InferenceRequest* r) { r->style.push_back(0); }},
      {"style NaN",
       [](InferenceRequest* r) {
         r->style[2] = std::numeric_limits<float>::quiet_NaN();
       }},
      {"emotion inf",
       [](InferenceRequest* r) {
         r->emotion[0] = std::numeric_limits<float>::infinity();
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    InferenceRequest r = ValidRequest();
    c.corrupt(&r);
    const Status status = ValidateRequest(r, limits_);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(status.message().empty());
  }
}

TEST_F(ServeTest, UnconfiguredLimitsAreFailedPrecondition) {
  EXPECT_EQ(ValidateRequest(ValidRequest(), RequestLimits{}).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ServeTest, SessionReturnsTypedErrorNotCrashOnHostileTokens) {
  auto session = MakeSession("MDFEND", 3);
  InferenceRequest r = ValidRequest();
  r.tokens[0] = limits_.vocab_size + 12345;  // would be UB at the gather
  const auto result = session->Predict(r);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, CreateModelOrRejectsUnknownName) {
  EXPECT_TRUE(models::CreateModelOr("MDFEND", config_).ok());
  const auto bad = models::CreateModelOr("NoSuchModel", config_);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// ----- Bitwise parity with the offline evaluator -----

TEST_F(ServeTest, SessionMatchesOfflineEvaluatorBitwise) {
  // PredictFakeProbability runs batched (64) forwards over the same model
  // instance the session owns; per-row eval kernels must agree exactly.
  for (const char* name : {"MDFEND", "TextCNN", "BERT", "M3FEND"}) {
    SCOPED_TRACE(name);
    auto session = MakeSession(name, 3);
    data::NewsDataset subset = dataset_;
    subset.samples.resize(96);
    const std::vector<float> reference =
        PredictFakeProbability(session->model(), subset, 64);
    ASSERT_EQ(reference.size(), subset.samples.size());
    for (size_t i = 0; i < subset.samples.size(); ++i) {
      const auto result = session->Predict(RequestFor(subset.samples[i]));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result.value().p_fake, reference[i]) << "sample " << i;
    }
  }
}

// ----- No-graph fast path -----

TEST_F(ServeTest, ServingRecordsZeroGraphNodes) {
  auto session = MakeSession("MDFEND", 3);
  tensor::SetOpProfiling(true);
  tensor::ResetOpStats();
  ASSERT_TRUE(session->Predict(ValidRequest()).ok());
  const tensor::OpStats serving = tensor::TotalOpStats();
  EXPECT_GT(serving.nodes, 0u);           // ops did run...
  EXPECT_EQ(serving.graph_recorded, 0u);  // ...but none joined the graph

  // The same model in a training forward does record graph nodes.
  tensor::ResetOpStats();
  const data::Batch batch = data::MakeBatch(dataset_, {0, 1, 2, 3});
  session->model()->Forward(batch, /*training=*/true);
  EXPECT_GT(tensor::TotalOpStats().graph_recorded, 0u);
  tensor::SetOpProfiling(false);
}

TEST_F(ServeTest, NoGradGuardIsReentrant) {
  EXPECT_TRUE(tensor::GradEnabled());
  {
    tensor::NoGradGuard outer;
    EXPECT_FALSE(tensor::GradEnabled());
    {
      tensor::NoGradGuard inner;
      EXPECT_FALSE(tensor::GradEnabled());
    }
    // Inner guard must restore "disabled", not blindly re-enable.
    EXPECT_FALSE(tensor::GradEnabled());
  }
  EXPECT_TRUE(tensor::GradEnabled());
}

TEST_F(ServeTest, DropoutEvalIsTrueIdentity) {
  Rng rng(5);
  tensor::Tensor x =
      tensor::Tensor::FromData({2, 3}, {1.f, -2.f, 3.f, 0.f, 4.f, -5.f});
  const tensor::Tensor y = tensor::Dropout(x, 0.5, &rng, /*training=*/false);
  // Identity: the exact same storage comes back, not a scaled/masked copy.
  EXPECT_EQ(y.data().data(), x.data().data());
  // And the RNG stream was not consumed (bitwise-resume contract).
  Rng fresh(5);
  EXPECT_EQ(rng.Next(), fresh.Next());
  // p == 0 in training mode is equally free.
  const tensor::Tensor z = tensor::Dropout(x, 0.0, &rng, /*training=*/true);
  EXPECT_EQ(z.data().data(), x.data().data());
}

// ----- Server: queueing, deadlines, admission -----

TEST_F(ServeTest, ServerServesLikeSession) {
  auto reference = MakeSession("MDFEND", 3);
  Server server(MakeSession("MDFEND", 3), BaseOptions());
  for (int i = 0; i < 8; ++i) {
    const InferenceRequest request = RequestFor(dataset_.samples[i]);
    const auto served = server.Predict(request);
    const auto expected = reference->Predict(request);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served.value().p_fake, expected.value().p_fake);
    EXPECT_EQ(served.value().model_version, 1);
  }
  const HealthReport health = server.Health();
  EXPECT_EQ(health.submitted, 8);
  EXPECT_EQ(health.served_ok, 8);
  EXPECT_EQ(health.invalid_requests, 0);
  EXPECT_GT(health.latency_samples, 0);
  EXPECT_GE(health.p99_latency_ms, health.p50_latency_ms);
}

TEST_F(ServeTest, ServerCountsInvalidRequests) {
  Server server(MakeSession("MDFEND", 3), BaseOptions());
  InferenceRequest bad = ValidRequest();
  bad.tokens[0] = -7;
  const auto result = server.Predict(bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Health().invalid_requests, 1);
  EXPECT_EQ(server.Health().served_ok, 0);
}

TEST_F(ServeTest, ExpiredDeadlineIsShedWithTypedStatus) {
  ManualClock clock;
  clock.Set(1'000'000);
  ServerOptions options = BaseOptions();
  options.clock = &clock;
  Server server(MakeSession("MDFEND", 3), options);
  // Already past its deadline when the worker dequeues it.
  auto shed = server.Submit(ValidRequest(), /*deadline_nanos=*/500'000);
  const auto result = shed.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // A deadline still in the future is served normally.
  EXPECT_TRUE(server.Submit(ValidRequest(), 2'000'000).get().ok());
  const HealthReport health = server.Health();
  EXPECT_EQ(health.shed_deadline, 1);
  EXPECT_EQ(health.served_ok, 1);
}

TEST_F(ServeTest, ShedIsCountedBeforeItsReplyLeaves) {
  // Counters commit before replies: a shed request's own callback already
  // finds itself counted, in its model's ledger and in the fleet total
  // summed from it. (A shed reply leaves with no server lock held, so the
  // callback may take the Health() snapshot.)
  ManualClock clock;
  clock.Set(1'000'000);
  ServerOptions options = BaseOptions();
  options.clock = &clock;
  Server server(MakeSession("MDFEND", 3), options);
  std::promise<HealthReport> seen;
  server.SubmitAsync(ValidRequest(), /*deadline_nanos=*/500'000,
                     [&server, &seen](StatusOr<Prediction> result) {
                       EXPECT_EQ(result.status().code(),
                                 StatusCode::kDeadlineExceeded);
                       seen.set_value(server.Health());
                     });
  const HealthReport health = seen.get_future().get();
  EXPECT_EQ(health.shed_deadline, 1);
  ASSERT_EQ(health.models.size(), 1u);
  EXPECT_EQ(health.models[0].shed_deadline, 1);
}

TEST_F(ServeTest, AdmissionControlRejectsWhenQueueFull) {
  train::FaultInjector injector(7);
  injector.set_slow_load_nanos(200'000'000);  // pin the worker for 200 ms
  ServerOptions options = BaseOptions();
  options.max_queue_depth = 2;
  options.reload_max_attempts = 1;
  options.fault_injector = &injector;
  Server server(MakeSession("MDFEND", 3), options);

  // The reload (a control job, immune to the depth limit) occupies the
  // worker; inference requests pile up behind it.
  auto reload = server.ReloadFromCheckpoint("/nonexistent/checkpoint.bin");
  auto first = server.Submit(ValidRequest());
  auto second = server.Submit(ValidRequest());
  auto rejected = server.Submit(ValidRequest());
  const auto rejection = rejected.get();  // resolved immediately
  ASSERT_FALSE(rejection.ok());
  EXPECT_EQ(rejection.status().code(), StatusCode::kResourceExhausted);

  // Queued work survives the overload and the failed reload.
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().ok());
  EXPECT_FALSE(reload.get().ok());
  const HealthReport health = server.Health();
  EXPECT_EQ(health.rejected_queue_full, 1);
  EXPECT_EQ(health.served_ok, 2);
  EXPECT_TRUE(health.degraded);
}

TEST_F(ServeTest, StopFailsPendingWithUnavailable) {
  train::FaultInjector injector(7);
  injector.set_slow_load_nanos(100'000'000);
  ServerOptions options = BaseOptions();
  options.reload_max_attempts = 1;
  options.fault_injector = &injector;
  Server server(MakeSession("MDFEND", 3), options);
  auto reload = server.ReloadFromCheckpoint("/nonexistent/checkpoint.bin");
  auto pending = server.Submit(ValidRequest());
  server.Stop();
  const auto result = pending.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  // Post-stop submissions are rejected up front.
  const auto after = server.Submit(ValidRequest()).get();
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(reload.get().ok());
}

TEST_F(ServeTest, StopRepliesToDrainedRequestsOutsideTheServerLock) {
  // A request dropped by Stop() hears back with no server lock held, like
  // every other reply, so its callback may take the Health() snapshot.
  train::FaultInjector injector(7);
  injector.set_slow_load_nanos(100'000'000);  // pin the worker for 100 ms
  ServerOptions options = BaseOptions();
  options.num_workers = 1;
  options.reload_max_attempts = 1;
  options.fault_injector = &injector;
  Server server(MakeSession("MDFEND", 3), options);
  auto reload = server.ReloadFromCheckpoint("/nonexistent/checkpoint.bin");
  std::promise<HealthReport> seen;
  server.SubmitAsync(ValidRequest(), /*deadline_nanos=*/0,
                     [&server, &seen](StatusOr<Prediction> result) {
                       EXPECT_EQ(result.status().code(),
                                 StatusCode::kUnavailable);
                       seen.set_value(server.Health());
                     });
  std::promise<void> stopped;
  std::thread stopper([&server, &stopped] {
    server.Stop();
    stopped.set_value();
  });
  if (stopped.get_future().wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    // A deadlocked server can be neither stopped nor destroyed.
    std::fprintf(stderr, "Stop() deadlocked replying to a drained request\n");
    std::_Exit(1);
  }
  stopper.join();
  EXPECT_EQ(seen.get_future().get().queue_depth, 0);
  EXPECT_FALSE(reload.get().ok());
}

// ----- Hot-reload state machine -----

TEST_F(ServeTest, HotReloadSwapsModelAndBumpsVersion) {
  const std::string path =
      WriteCheckpoint("MDFEND", /*seed=*/99, "reload_good.ckpt");
  Server server(MakeSession("MDFEND", 3), BaseOptions());
  const InferenceRequest request = ValidRequest();
  const float before = server.Predict(request).value().p_fake;

  const Status reloaded = server.ReloadFromCheckpoint(path).get();
  ASSERT_TRUE(reloaded.ok()) << reloaded.ToString();
  EXPECT_EQ(server.model_version(), 2);
  EXPECT_FALSE(server.degraded());

  const Prediction after = server.Predict(request).value();
  EXPECT_EQ(after.model_version, 2);
  EXPECT_NE(after.p_fake, before);
  // The swapped-in weights serve exactly like a fresh seed-99 model.
  const auto reference = MakeSession("MDFEND", 99, 2)->Predict(request);
  EXPECT_EQ(after.p_fake, reference.value().p_fake);
}

TEST_F(ServeTest, ReloadRetriesThroughTransientFailure) {
  const std::string path =
      WriteCheckpoint("MDFEND", /*seed=*/99, "reload_retry.ckpt");
  train::FaultInjector injector(7);
  injector.ScheduleLoadFailures(1);  // first attempt fails, second succeeds
  ServerOptions options = BaseOptions();
  options.reload_max_attempts = 3;
  options.fault_injector = &injector;
  Server server(MakeSession("MDFEND", 3), options);
  ASSERT_TRUE(server.ReloadFromCheckpoint(path).get().ok());
  EXPECT_EQ(injector.injected_load_failures(), 1);
  EXPECT_FALSE(server.degraded());
  const HealthReport health = server.Health();
  EXPECT_EQ(health.reload_attempts, 2);
  EXPECT_EQ(health.reload_failures, 1);
  EXPECT_EQ(health.reload_successes, 1);
  EXPECT_EQ(server.model_version(), 2);
}

TEST_F(ServeTest, ExhaustedReloadDegradesButKeepsServing) {
  const std::string path =
      WriteCheckpoint("MDFEND", /*seed=*/99, "reload_degraded.ckpt");
  train::FaultInjector injector(7);
  injector.ScheduleLoadFailures(3);  // every attempt fails
  ServerOptions options = BaseOptions();
  options.reload_max_attempts = 3;
  options.fault_injector = &injector;
  Server server(MakeSession("MDFEND", 3), options);

  const InferenceRequest request = ValidRequest();
  const float before = server.Predict(request).value().p_fake;
  const Status failed = server.ReloadFromCheckpoint(path).get();
  ASSERT_FALSE(failed.ok());

  // Degraded, on the last-good model, and still answering correctly.
  EXPECT_TRUE(server.degraded());
  EXPECT_EQ(server.model_version(), 1);
  HealthReport health = server.Health();
  EXPECT_TRUE(health.degraded);
  EXPECT_NE(health.last_reload_error.find("injected"), std::string::npos);
  EXPECT_EQ(health.reload_failures, 3);
  const auto still = server.Predict(request);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still.value().p_fake, before);
  EXPECT_EQ(still.value().model_version, 1);

  // A later successful reload clears the degraded state.
  ASSERT_TRUE(server.ReloadFromCheckpoint(path).get().ok());
  EXPECT_FALSE(server.degraded());
  EXPECT_EQ(server.model_version(), 2);
  EXPECT_TRUE(server.Health().last_reload_error.empty());
}

TEST_F(ServeTest, ReloadRejectsMismatchedCheckpoint) {
  // A checkpoint from a different architecture must not half-overwrite the
  // live model: the restore happens into a throwaway instance.
  const std::string path =
      WriteCheckpoint("TextCNN", /*seed=*/5, "reload_mismatch.ckpt");
  Server server(MakeSession("MDFEND", 3), BaseOptions());
  const InferenceRequest request = ValidRequest();
  const float before = server.Predict(request).value().p_fake;
  EXPECT_FALSE(server.ReloadFromCheckpoint(path).get().ok());
  EXPECT_TRUE(server.degraded());
  EXPECT_EQ(server.model_version(), 1);
  EXPECT_EQ(server.Predict(request).value().p_fake, before);
}

TEST_F(ServeTest, ReloadWithoutFactoryIsFailedPrecondition) {
  ServerOptions options = BaseOptions();
  options.model_factory = nullptr;
  options.reload_max_attempts = 1;
  Server server(MakeSession("MDFEND", 3), options);
  const Status status = server.ReloadFromCheckpoint("/anything").get();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

// ----- Micro-batching: bitwise parity -----

TEST_F(ServeTest, PredictBatchMatchesBatchOfOneBitwiseAcrossZooAndThreads) {
  // The batching contract from DESIGN.md §9.5: for EVERY model in the zoo,
  // each element of a batch-of-N forward is bitwise identical to the
  // batch-of-one answer and to the offline evaluator, at every kernel
  // thread count. The reference is computed once at 1 thread; every other
  // configuration must reproduce it exactly.
  constexpr size_t kBatch = 24;
  std::vector<InferenceRequest> requests;
  std::vector<const InferenceRequest*> pointers;
  for (size_t i = 0; i < kBatch; ++i) {
    requests.push_back(RequestFor(dataset_.samples[i]));
  }
  for (const InferenceRequest& r : requests) pointers.push_back(&r);

  data::NewsDataset subset = dataset_;
  subset.samples.resize(kBatch);

  for (const std::string& name : models::AllModelNames()) {
    SCOPED_TRACE(name);
    auto session = MakeSession(name, 3);
    const std::vector<float> reference =
        PredictFakeProbability(session->model(), subset, 64);
    ASSERT_EQ(reference.size(), kBatch);

    for (const int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      KernelPool pool(threads);
      ScopedKernelPool scope(&pool);
      const auto batched = session->PredictBatch(pointers);
      ASSERT_EQ(batched.size(), kBatch);
      for (size_t i = 0; i < kBatch; ++i) {
        ASSERT_TRUE(batched[i].ok()) << batched[i].status().ToString();
        EXPECT_EQ(batched[i].value().p_fake, reference[i]) << "sample " << i;
        const auto single = session->Predict(requests[i]);
        ASSERT_TRUE(single.ok());
        EXPECT_EQ(batched[i].value().p_fake, single.value().p_fake)
            << "sample " << i;
      }
    }
  }
}

TEST_F(ServeTest, PredictBatchIsolatesPerElementFailures) {
  auto session = MakeSession("MDFEND", 3);
  std::vector<InferenceRequest> requests;
  for (int i = 0; i < 5; ++i) {
    requests.push_back(RequestFor(dataset_.samples[static_cast<size_t>(i)]));
  }
  requests[1].tokens[0] = -9;                     // invalid
  requests[3].domain = limits_.num_domains + 4;   // invalid
  std::vector<const InferenceRequest*> pointers;
  for (const InferenceRequest& r : requests) pointers.push_back(&r);

  const auto results = session->PredictBatch(pointers);
  ASSERT_EQ(results.size(), requests.size());
  for (const size_t bad : {size_t{1}, size_t{3}}) {
    ASSERT_FALSE(results[bad].ok());
    EXPECT_EQ(results[bad].status().code(), StatusCode::kInvalidArgument);
  }
  for (const size_t good : {size_t{0}, size_t{2}, size_t{4}}) {
    ASSERT_TRUE(results[good].ok()) << results[good].status().ToString();
    EXPECT_EQ(results[good].value().p_fake,
              session->Predict(requests[good]).value().p_fake);
  }
}

TEST_F(ServeTest, BatchedMultiWorkerServerMatchesSessionBitwise) {
  // Concurrent clients against a 2-worker batching server: every answer
  // must equal the serial single-request reference, and the batching
  // telemetry must be internally consistent.
  constexpr int kClients = 8;
  constexpr int kPerClient = 25;
  auto reference = MakeSession("MDFEND", 3);
  std::vector<float> expected;
  for (int i = 0; i < kClients * kPerClient; ++i) {
    const auto r = reference->Predict(RequestFor(
        dataset_.samples[static_cast<size_t>(i) % dataset_.samples.size()]));
    ASSERT_TRUE(r.ok());
    expected.push_back(r.value().p_fake);
  }

  ServerOptions options = BaseOptions();
  options.num_workers = 2;
  options.max_batch = 8;
  options.max_queue_depth = 128;
  Server server(MakeSession("MDFEND", 3), options);
  EXPECT_EQ(server.num_workers(), 2);
  EXPECT_EQ(server.max_batch(), 8);

  std::atomic<int> next{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= kClients * kPerClient) return;
        const auto served = server.Predict(RequestFor(
            dataset_.samples[static_cast<size_t>(i) %
                             dataset_.samples.size()]));
        if (!served.ok() ||
            served.value().p_fake != expected[static_cast<size_t>(i)]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const HealthReport health = server.Health();
  EXPECT_EQ(health.served_ok, kClients * kPerClient);
  EXPECT_EQ(health.num_workers, 2);
  EXPECT_EQ(health.max_batch, 8);
  ASSERT_EQ(health.batch_size_histogram.size(), 9u);
  int64_t hist_batches = 0, hist_elements = 0;
  for (size_t s = 1; s < health.batch_size_histogram.size(); ++s) {
    hist_batches += health.batch_size_histogram[s];
    hist_elements += health.batch_size_histogram[s] * static_cast<int64_t>(s);
  }
  EXPECT_EQ(hist_batches, health.batches_run);
  // Requests answered from the prediction cache or fanned from a dedup
  // group never run a forward, so they are absent from the histogram by
  // design. With caching off (the default) both subtrahends are zero and
  // this is the exact pre-cache assertion.
  EXPECT_EQ(hist_elements,
            kClients * kPerClient - health.cache_hits - health.deduped);
  EXPECT_GE(health.avg_batch_size, 1.0);
  EXPECT_GE(health.compute_ms_total, 0.0);
  EXPECT_GE(health.queue_wait_ms_total, 0.0);
}

// ----- Micro-batching: deadlines and shutdown -----

TEST_F(ServeTest, SingleRequestIsNeverHeldForBatchFill) {
  // Fill window is zero: with max_batch=16 and no other traffic, a lone
  // request runs immediately as a batch of one rather than waiting for
  // companions that will never arrive.
  ServerOptions options = BaseOptions();
  options.num_workers = 1;
  options.max_batch = 16;
  Server server(MakeSession("MDFEND", 3), options);
  auto pending = server.Submit(ValidRequest());
  ASSERT_EQ(pending.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_TRUE(pending.get().ok());
  const HealthReport health = server.Health();
  EXPECT_EQ(health.batches_run, 1);
  ASSERT_GT(health.batch_size_histogram.size(), 1u);
  EXPECT_EQ(health.batch_size_histogram[1], 1);
}

TEST_F(ServeTest, ExpiredElementIsShedFromCoalescedBatchAtDequeue) {
  // Pin the single worker with a slow reload so three requests queue up,
  // one already past its deadline. When the worker drains them it must
  // coalesce all three, shed the expired element, and serve the two live
  // ones in ONE batch — proving the deadline check happens per element at
  // dequeue and batching never delays it.
  ManualClock clock;
  clock.Set(1'000'000);
  train::FaultInjector injector(7);
  injector.set_slow_load_nanos(200'000'000);
  ServerOptions options = BaseOptions();
  options.clock = &clock;
  options.num_workers = 1;
  options.max_batch = 16;
  options.reload_max_attempts = 1;
  options.fault_injector = &injector;
  Server server(MakeSession("MDFEND", 3), options);

  auto reload = server.ReloadFromCheckpoint("/nonexistent/checkpoint.bin");
  auto expired = server.Submit(ValidRequest(), /*deadline_nanos=*/500'000);
  auto live_a = server.Submit(ValidRequest(), /*deadline_nanos=*/0);
  auto live_b = server.Submit(ValidRequest(), /*deadline_nanos=*/0);

  const auto shed = expired.get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(live_a.get().ok());
  EXPECT_TRUE(live_b.get().ok());
  EXPECT_FALSE(reload.get().ok());

  const HealthReport health = server.Health();
  EXPECT_EQ(health.shed_deadline, 1);
  EXPECT_EQ(health.served_ok, 2);
  EXPECT_EQ(health.batches_run, 1);
  ASSERT_GT(health.batch_size_histogram.size(), 2u);
  EXPECT_EQ(health.batch_size_histogram[2], 1);
}

TEST_F(ServeTest, StopFailsQueuedUncoalescedRequestsUnderMultiWorker) {
  // Regression: with N workers, requests queued behind a reload barrier
  // have not been coalesced into any batch when Stop() lands. Every one of
  // them must resolve kUnavailable — none may hang or be dropped.
  train::FaultInjector injector(7);
  injector.set_slow_load_nanos(200'000'000);
  ServerOptions options = BaseOptions();
  options.num_workers = 4;
  options.max_batch = 4;
  options.reload_max_attempts = 1;
  options.fault_injector = &injector;
  Server server(MakeSession("MDFEND", 3), options);

  auto reload = server.ReloadFromCheckpoint("/nonexistent/checkpoint.bin");
  std::vector<std::future<StatusOr<Prediction>>> pending;
  for (int i = 0; i < 6; ++i) {
    pending.push_back(server.Submit(ValidRequest()));
  }
  server.Stop();
  for (auto& f : pending) {
    const auto result = f.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_FALSE(reload.get().ok());
  EXPECT_EQ(server.Health().served_ok, 0);
}

// ----- Serving workers: options, then the DTDBD_SERVE_WORKERS row -----

// Resolves the --serve-workers row against a command line holding `args`.
int64_t ResolveServeWorkersWith(std::vector<std::string> args) {
  args.insert(args.begin(), "serve_test");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const FlagParser flags(static_cast<int>(argv.size()), argv.data());
  return ResolveKnob(kServeWorkersKnob, &flags);
}

TEST_F(ServeTest, ServeWorkersFromEnvParsesStrictly) {
  ::dtdbd::testing::ScopedEnv guard("DTDBD_SERVE_WORKERS", nullptr);
  EXPECT_EQ(ResolveKnob(kServeWorkersKnob, nullptr), 1);
  setenv("DTDBD_SERVE_WORKERS", "3", 1);
  EXPECT_EQ(ResolveKnob(kServeWorkersKnob, nullptr), 3);
  for (const char* bad : {"0", "-2", "abc", "4x", " 4", "2.5", ""}) {
    setenv("DTDBD_SERVE_WORKERS", bad, 1);
    EXPECT_EQ(ResolveKnob(kServeWorkersKnob, nullptr), 1) << "'" << bad << "'";
  }
}

TEST_F(ServeTest, ResolveServeWorkersPrefersFlagThenEnv) {
  ::dtdbd::testing::ScopedEnv guard("DTDBD_SERVE_WORKERS", nullptr);
  EXPECT_EQ(ResolveServeWorkersWith({}), 1);
  EXPECT_EQ(ResolveServeWorkersWith({"--serve-workers=4"}), 4);
  setenv("DTDBD_SERVE_WORKERS", "2", 1);
  EXPECT_EQ(ResolveServeWorkersWith({}), 2);                     // env fallback
  EXPECT_EQ(ResolveServeWorkersWith({"--serve-workers=4"}), 4);  // flag wins
  // A present-but-invalid flag pins to the safe default of 1; it does NOT
  // silently fall through to the env.
  EXPECT_EQ(ResolveServeWorkersWith({"--serve-workers=zero"}), 1);
  EXPECT_EQ(ResolveServeWorkersWith({"--serve-workers=0"}), 1);
  EXPECT_EQ(ResolveServeWorkersWith({"--serve-workers=-1"}), 1);
}

TEST_F(ServeTest, ServerResolvesWorkerCountFromOptionsThenEnv) {
  ::dtdbd::testing::ScopedEnv guard("DTDBD_SERVE_WORKERS", "3");
  {
    ServerOptions options = BaseOptions();
    options.num_workers = 0;  // resolve from env
    Server server(MakeSession("MDFEND", 3), options);
    EXPECT_EQ(server.num_workers(), 3);
    EXPECT_EQ(server.Health().num_workers, 3);
  }
  {
    ServerOptions options = BaseOptions();
    options.num_workers = 2;  // explicit option beats env
    Server server(MakeSession("MDFEND", 3), options);
    EXPECT_EQ(server.num_workers(), 2);
  }
  setenv("DTDBD_SERVE_WORKERS", "bogus", 1);
  {
    Server server(MakeSession("MDFEND", 3), BaseOptions());
    EXPECT_EQ(server.num_workers(), 1);  // invalid env -> warn + 1
  }
}

// ----- Watchdog -----

TEST_F(ServeTest, WatchdogSnapshotsHealth) {
  ServerOptions options = BaseOptions();
  options.watchdog_period_nanos = 1'000'000;  // 1 ms
  Server server(MakeSession("MDFEND", 3), options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server.Predict(ValidRequest()).ok());
  }
  HealthReport report;
  for (int spin = 0; spin < 2000; ++spin) {
    report = server.LastWatchdogReport();
    if (report.watchdog_ticks >= 2 && report.served_ok >= 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(report.watchdog_ticks, 2);
  EXPECT_EQ(report.served_ok, 4);
  EXPECT_EQ(report.max_queue_depth, server.Health().max_queue_depth);
  EXPECT_LE(report.queue_depth, report.max_queue_depth);
}

TEST_F(ServeTest, EmptyLatencyWindowIsFlaggedNotSilentZero) {
  // A server that has served nothing must say so explicitly instead of
  // reporting a suspiciously excellent p99 of 0.0 ms, and the queue-wait /
  // compute averages must be exactly 0.0 (never NaN from a 0/0).
  Server server(MakeSession("MDFEND", 3), BaseOptions());
  const HealthReport before = server.Health();
  EXPECT_TRUE(before.latency_no_samples);
  EXPECT_EQ(before.latency_samples, 0);
  EXPECT_EQ(before.p50_latency_ms, 0.0);
  EXPECT_EQ(before.p99_latency_ms, 0.0);
  EXPECT_FALSE(std::isnan(before.avg_queue_wait_ms));
  EXPECT_FALSE(std::isnan(before.avg_compute_ms));
  EXPECT_FALSE(std::isnan(before.avg_batch_size));
  EXPECT_EQ(before.avg_queue_wait_ms, 0.0);
  EXPECT_EQ(before.avg_compute_ms, 0.0);

  ASSERT_TRUE(server.Predict(ValidRequest()).ok());
  const HealthReport after = server.Health();
  EXPECT_FALSE(after.latency_no_samples);
  EXPECT_EQ(after.latency_samples, 1);
  EXPECT_GE(after.avg_queue_wait_ms, 0.0);
  EXPECT_GT(after.avg_compute_ms, 0.0);
}

TEST_F(ServeTest, LatencyPercentilesUseNearestRankNeverPastTheWindow) {
  // Nearest-rank: the q-th percentile is the ceil(q*count)-th smallest
  // sample. The old rounding formula `q*(count-1)+0.5` indexed past the
  // filled window for small counts (p99 of a 2-sample window read slot 2
  // of {0,1}) and could land p99 on a LOWER slot than p50; this pins the
  // fixed behaviour over the degenerate sizes that exposed it.
  struct Case {
    const char* label;
    std::vector<int64_t> ring;  // nanoseconds
    int64_t count;
    double want_p50_ms;
    double want_p99_ms;
  };
  const std::vector<Case> cases = {
      // count <= 0 leaves the outputs untouched (the latency_no_samples
      // flag owns that case); the sentinel must survive.
      {"empty", {}, 0, -1.0, -1.0},
      {"single sample is both percentiles", {7'000'000}, 1, 7.0, 7.0},
      // ceil(.5*2)=1st, ceil(.99*2)=2nd — in range, and p99 >= p50.
      {"two samples", {20'000'000, 10'000'000}, 2, 10.0, 20.0},
      {"hundred samples", {}, 100, 50.0, 99.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    std::vector<int64_t> ring = c.ring;
    if (c.count == 100) {  // 1..100 ms, shuffled order must not matter
      for (int64_t i = 100; i >= 1; --i) ring.push_back(i * 1'000'000);
    }
    double p50 = -1.0, p99 = -1.0;
    LatencyPercentiles(ring, c.count, &p50, &p99);
    EXPECT_EQ(p50, c.want_p50_ms);
    EXPECT_EQ(p99, c.want_p99_ms);
    EXPECT_LE(p50, p99);
  }
  // A count larger than the ring (cannot happen via the server's own
  // bookkeeping, but the helper is exposed) clamps to the ring size.
  double p50 = 0.0, p99 = 0.0;
  LatencyPercentiles({3'000'000}, 5, &p50, &p99);
  EXPECT_EQ(p50, 3.0);
  EXPECT_EQ(p99, 3.0);
}

TEST_F(ServeTest, WatchdogReportBeforeAnyTrafficCarriesNoSamplesFlag) {
  ServerOptions options = BaseOptions();
  options.watchdog_period_nanos = 1'000'000;  // 1 ms
  Server server(MakeSession("MDFEND", 3), options);
  HealthReport report;
  for (int spin = 0; spin < 2000; ++spin) {
    report = server.LastWatchdogReport();
    if (report.watchdog_ticks >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(report.watchdog_ticks, 1);
  // The watchdog observed an idle server: zeros are flagged, not asserted
  // as real latencies.
  EXPECT_TRUE(report.latency_no_samples);
  EXPECT_FALSE(std::isnan(report.avg_queue_wait_ms));
  EXPECT_FALSE(std::isnan(report.avg_compute_ms));
}

}  // namespace
}  // namespace dtdbd::serve
