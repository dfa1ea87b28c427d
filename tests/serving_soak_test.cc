// Serving soak: >= 11k requests through the Server under fault injection —
// malformed inputs, deadline pressure, and mid-run hot-reloads (including
// injected load failures) — swept over serving workers {1, 4} x kernel
// thread counts {1, 2, 4, 8} with micro-batching enabled (max_batch 8).
// The contract under test: zero crashes, every request answered with OK or
// a typed error, and every OK answer bitwise identical to the offline
// evaluator (PredictFakeProbability) for the model version that served it —
// no matter which worker served it or how large a batch it rode in.
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "dtdbd/trainer.h"
#include "health_sums.h"
#include "models/model.h"
#include "scoped_env.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tensor/optim.h"
#include "text/frozen_encoder.h"
#include "train/checkpoint.h"
#include "train/fault_injector.h"

namespace dtdbd::serve {
namespace {

constexpr uint64_t kServingSeed = 3;   // the deployed model
constexpr uint64_t kReloadSeed = 99;   // the "newly trained" weights

class ServingSoakTest : public ::testing::Test {
 protected:
  ServingSoakTest() {
    dataset_ = data::GenerateCorpus(data::MicroConfig(23));
    // Keep the request pool small so references stay cheap but still cover
    // every domain and both labels.
    dataset_.samples.resize(64);
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

  std::string WriteReloadCheckpoint() const {
    auto model = models::CreateModel("MDFEND", ConfigWithSeed(kReloadSeed));
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
    const std::string path = ::testing::TempDir() + "soak_reload.ckpt";
    const Status saved = train::SaveCheckpoint(state, path);
    EXPECT_TRUE(saved.ok()) << saved.ToString();
    return path;
  }

  data::NewsDataset dataset_;
  std::unique_ptr<text::FrozenEncoder> encoder_;
  models::ModelConfig config_;
  RequestLimits limits_;
};

// Applies one FaultInjector-chosen malformation to a copy of a good request.
InferenceRequest Corrupt(InferenceRequest request,
                         train::FaultInjector::RequestFault fault,
                         const RequestLimits& limits) {
  using Fault = train::FaultInjector::RequestFault;
  switch (fault) {
    case Fault::kEmptyTokens:
      request.tokens.clear();
      break;
    case Fault::kOverLength:
      request.tokens.assign(static_cast<size_t>(limits.seq_len) * 2, 1);
      break;
    case Fault::kTokenTooLarge:
      request.tokens[0] = limits.vocab_size + 7;
      break;
    case Fault::kNegativeToken:
      request.tokens[0] = -3;
      break;
    case Fault::kBadDomain:
      request.domain = limits.num_domains + 1;
      break;
    case Fault::kNonFiniteStyle:
      request.style[1] = std::numeric_limits<float>::quiet_NaN();
      break;
    case Fault::kNonFiniteEmotion:
      request.emotion[4] = std::numeric_limits<float>::infinity();
      break;
    case Fault::kNone:
      break;
  }
  return request;
}

TEST_F(ServingSoakTest, ElevenThousandFaultyRequestsAcrossWorkersAndThreads) {
  const std::string checkpoint = WriteReloadCheckpoint();

  // Offline references, computed once at 1 thread; every served answer at
  // every thread count must match these bitwise. Versions 2+ all carry the
  // reload checkpoint's weights.
  std::vector<std::vector<float>> reference_by_params(2);
  {
    auto v1 = models::CreateModel("MDFEND", ConfigWithSeed(kServingSeed));
    auto v2 = models::CreateModel("MDFEND", ConfigWithSeed(kReloadSeed));
    reference_by_params[0] = PredictFakeProbability(v1.get(), dataset_, 64);
    reference_by_params[1] = PredictFakeProbability(v2.get(), dataset_, 64);
  }
  const auto reference_for = [&](int64_t version, size_t sample) {
    return version <= 1 ? reference_by_params[0][sample]
                        : reference_by_params[1][sample];
  };

  constexpr int kClientThreads = 4;
  constexpr int kRequestsPerClient = 350;
  // 2 worker counts x 4 thread counts x 4 clients x 350 = 11200 requests.
  int64_t total_ok = 0, total_invalid = 0, total_shed = 0, total_rejected = 0;
  int64_t total_requests = 0;

  for (const int num_workers : {1, 4}) {
  for (const int num_threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(num_workers) +
                 " threads=" + std::to_string(num_threads));
    // Each worker's KernelPool is sized by DTDBD_NUM_THREADS.
    const ::dtdbd::testing::ScopedEnv threads_env(
        "DTDBD_NUM_THREADS", std::to_string(num_threads).c_str());

    train::FaultInjector injector(static_cast<uint64_t>(num_threads) * 31 +
                                  static_cast<uint64_t>(num_workers));
    injector.set_request_fault_probability(0.15);
    ServerOptions options;
    options.num_workers = num_workers;
    options.max_batch = 8;  // exercise coalescing in every config
    options.max_queue_depth = 256;
    options.watchdog_period_nanos = 2'000'000;
    options.reload_max_attempts = 2;
    options.reload_backoff_initial_nanos = 100'000;
    options.fault_injector = &injector;
    options.model_factory = [this] {
      return models::CreateModel("MDFEND", ConfigWithSeed(kReloadSeed));
    };
    auto server = std::make_unique<Server>(
        std::make_unique<InferenceSession>(
            models::CreateModel("MDFEND", ConfigWithSeed(kServingSeed)),
            limits_, /*model_version=*/1),
        std::move(options));

    struct Outcome {
      size_t sample;
      bool corrupted;
      bool tight_deadline;
      std::future<StatusOr<Prediction>> future;
    };
    std::vector<std::vector<Outcome>> outcomes(kClientThreads);
    std::atomic<bool> clients_done{false};

    std::vector<std::thread> clients;
    for (int c = 0; c < kClientThreads; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(static_cast<uint64_t>(c) * 977 + num_threads);
        auto& mine = outcomes[static_cast<size_t>(c)];
        mine.reserve(kRequestsPerClient);
        for (int i = 0; i < kRequestsPerClient; ++i) {
          const size_t sample = static_cast<size_t>(
              rng.UniformInt(static_cast<int64_t>(dataset_.samples.size())));
          const auto fault = injector.NextRequestFault();
          const bool corrupted =
              fault != train::FaultInjector::RequestFault::kNone;
          InferenceRequest request =
              Corrupt(RequestFor(dataset_.samples[sample]), fault, limits_);
          // Deadline pressure: ~5% of requests are already expired.
          const bool tight = rng.Bernoulli(0.05);
          const int64_t deadline =
              tight ? 1 : 0;  // 1 ns after the epoch = long expired
          mine.push_back(Outcome{sample, corrupted, tight,
                                 server->Submit(std::move(request), deadline)});
        }
      });
    }

    // Ops thread: mid-run hot-reloads, some forced to fail (and therefore to
    // degrade), interleaved with the request storm.
    std::thread ops([&] {
      std::vector<std::future<Status>> reloads;
      for (int r = 0; r < 6; ++r) {
        if (r % 2 == 1) injector.ScheduleLoadFailures(2);  // both attempts
        reloads.push_back(server->ReloadFromCheckpoint(checkpoint));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (clients_done.load()) break;
      }
      for (auto& f : reloads) (void)f.get();  // each resolves, ok or not
    });

    for (auto& t : clients) t.join();
    clients_done.store(true);
    ops.join();

    int64_t ok = 0, invalid = 0, shed = 0, rejected = 0;
    for (auto& per_client : outcomes) {
      for (Outcome& o : per_client) {
        StatusOr<Prediction> result = o.future.get();
        ++total_requests;
        if (result.ok()) {
          ++ok;
          ASSERT_FALSE(o.corrupted)
              << "malformed request was served as OK (sample " << o.sample
              << ")";
          const Prediction& p = result.value();
          ASSERT_EQ(p.p_fake, reference_for(p.model_version, o.sample))
              << "bitwise mismatch at sample " << o.sample << " version "
              << p.model_version << " threads " << num_threads;
          continue;
        }
        switch (result.status().code()) {
          case StatusCode::kInvalidArgument:
            ++invalid;
            EXPECT_TRUE(o.corrupted) << result.status().ToString();
            break;
          case StatusCode::kDeadlineExceeded:
            ++shed;
            EXPECT_TRUE(o.tight_deadline) << result.status().ToString();
            break;
          case StatusCode::kResourceExhausted:
            ++rejected;
            break;
          default:
            FAIL() << "unexpected status: " << result.status().ToString();
        }
      }
    }
    EXPECT_GT(ok, 0);
    EXPECT_GT(invalid, 0);  // fault probability 0.15 over 2800 requests

    const HealthReport health = server->Health();
    EXPECT_EQ(health.submitted, kClientThreads * kRequestsPerClient);
    EXPECT_EQ(health.served_ok, ok);
    EXPECT_EQ(health.invalid_requests, invalid);
    EXPECT_EQ(health.shed_deadline, shed);
    EXPECT_EQ(health.rejected_queue_full, rejected);
    EXPECT_GT(health.reload_attempts, 0);
    EXPECT_GT(health.reload_successes, 0);
    EXPECT_GT(health.watchdog_ticks, 0);
    EXPECT_GE(server->model_version(), 2);

    // Batching telemetry must account for exactly the dequeued elements:
    // every non-shed request rode in some batch of size 1..max_batch.
    EXPECT_EQ(health.num_workers, num_workers);
    EXPECT_EQ(health.max_batch, 8);
    ASSERT_EQ(health.batch_size_histogram.size(), 9u);
    int64_t hist_batches = 0, hist_elements = 0;
    for (size_t s = 1; s < health.batch_size_histogram.size(); ++s) {
      hist_batches += health.batch_size_histogram[s];
      hist_elements +=
          health.batch_size_histogram[s] * static_cast<int64_t>(s);
    }
    EXPECT_EQ(hist_batches, health.batches_run);
    if (health.cache_enabled) {
      // Cache hits and dedup fan-outs are answered without riding a
      // batch. A follower shed at fan-out is counted in both `deduped`
      // and `shed`, so the element count is bracketed, not pinned.
      EXPECT_GE(hist_elements,
                ok + invalid - health.cache_hits - health.deduped);
      EXPECT_LE(hist_elements, ok + invalid);
    } else {
      EXPECT_EQ(hist_elements, ok + invalid);
    }
    EXPECT_GT(health.batches_run, 0);
    EXPECT_GE(health.avg_batch_size, 1.0);
    ExpectTotalsAreModelSums(health);

    server->Stop();
    total_ok += ok;
    total_invalid += invalid;
    total_shed += shed;
    total_rejected += rejected;
  }
  }

  EXPECT_GE(total_requests, 11'000);
  EXPECT_EQ(total_requests,
            total_ok + total_invalid + total_shed + total_rejected);
}

}  // namespace
}  // namespace dtdbd::serve
