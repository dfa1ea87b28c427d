// Fault-injected drift soak (DESIGN.md §13, EXPERIMENTS.md): a >=10.5k
// request stream whose domain mix, fake ratios, and domain coverage shift
// on a schedule (including a domain the served model never trained on),
// with ~8% feedback faults (label flips, drops, delays). Proves the full
// drift-robustness loop end to end:
//   - a quality-regressing canary (untrained weights: error-clean but
//     chance-level ranking) is auto-rolled-back by the labeled-feedback
//     gate with ZERO dropped in-flight requests;
//   - the primary's typed degraded-quality flag raises when the unseen
//     domain floods the window and clears after adaptation, both
//     deterministically;
//   - the online-adaptation loop (fine-tune on the recent labeled window,
//     publish through the atomic checkpoint + hot-reload path) recovers
//     AUC where a frozen control does not.
// The whole trajectory is a pure function of the seeds: responses are
// bitwise identical at any worker count and with the cache on or off, so
// every assertion here holds across the CI serving matrix.
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "drift/adapt.h"
#include "drift/drift.h"
#include "dtdbd/trainer.h"
#include "metrics/metrics.h"
#include "health_sums.h"
#include "models/model.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/socket_server.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tensor/optim.h"
#include "tensor/serialize.h"
#include "text/frozen_encoder.h"
#include "train/checkpoint.h"
#include "train/fault_injector.h"

namespace dtdbd {
namespace {

constexpr int kUnseenDomain = 2;

class DriftSoakTest : public ::testing::Test {
 protected:
  DriftSoakTest() {
    corpus_ = data::GenerateCorpus(data::MicroConfig(29));
    train_set_ = drift::WithoutDomains(corpus_, {kUnseenDomain});
    encoder_ =
        std::make_unique<text::FrozenEncoder>(corpus_.vocab->size(), 16, 5);
    config_.vocab_size = corpus_.vocab->size();
    config_.num_domains = corpus_.num_domains();
    config_.encoder = encoder_.get();
    config_.embed_dim = 12;
    config_.hidden_dim = 16;
    config_.conv_channels = 8;
    config_.rnn_hidden = 8;
    config_.num_experts = 3;
    config_.seed = 3;
    limits_.vocab_size = config_.vocab_size;
    limits_.num_domains = config_.num_domains;
    limits_.seq_len = corpus_.seq_len;
  }

  models::ModelConfig ConfigWithSeed(uint64_t seed) const {
    models::ModelConfig c = config_;
    c.seed = seed;
    return c;
  }

  std::function<std::unique_ptr<models::FakeNewsModel>()> Factory(
      uint64_t seed) const {
    return [this, seed] {
      return models::CreateModel("MDFEND", ConfigWithSeed(seed));
    };
  }

  // Trains the base model on the unseen-domain-free corpus and persists it
  // through the standard atomic checkpoint path.
  std::string TrainBaseCheckpoint(const std::string& filename) const {
    auto model = models::CreateModel("MDFEND", ConfigWithSeed(3));
    TrainOptions options;
    options.epochs = 12;
    options.batch_size = 16;
    options.lr = 1e-3f;
    options.seed = 5;
    options.checkpoint_path = ::testing::TempDir() + filename;
    const TrainResult result =
        TrainSupervised(model.get(), train_set_, nullptr, options);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    return options.checkpoint_path;
  }

  // Fresh (never trained) weights as a servable checkpoint: the "bad
  // candidate" — it answers every request cleanly, it just cannot rank.
  std::string WriteUntrainedCheckpoint(uint64_t seed,
                                       const std::string& filename) const {
    auto model = models::CreateModel("MDFEND", ConfigWithSeed(seed));
    std::vector<tensor::Tensor> trainable;
    for (auto& p : model->Parameters()) {
      if (p.requires_grad()) trainable.push_back(p);
    }
    tensor::Adam adam(trainable, 1e-3f, 0.9f, 0.999f, 1e-8f, 0.0f);
    data::DataLoader loader(&corpus_, 8, /*shuffle=*/false, 0);
    std::vector<Rng*> rngs;
    model->CollectRngs(&rngs);
    const train::CheckpointState state = train::CaptureState(
        "supervised", 0, model->NamedParameters(), adam, rngs, loader);
    const std::string path = ::testing::TempDir() + filename;
    const Status saved = train::SaveCheckpoint(state, path);
    EXPECT_TRUE(saved.ok()) << saved.ToString();
    return path;
  }

  std::unique_ptr<models::FakeNewsModel> ModelFromCheckpoint(
      const std::string& path) const {
    auto model = models::CreateModel("MDFEND", ConfigWithSeed(3));
    auto state = train::LoadCheckpoint(path);
    EXPECT_TRUE(state.ok()) << state.status().ToString();
    std::map<std::string, tensor::Tensor> named = model->NamedParameters();
    const Status restored = tensor::RestoreInto(state.value().model, &named);
    EXPECT_TRUE(restored.ok()) << restored.ToString();
    return model;
  }

  data::NewsDataset DomainSubset(int domain) const {
    data::NewsDataset subset;
    subset.vocab = corpus_.vocab;
    subset.domain_names = corpus_.domain_names;
    subset.seq_len = corpus_.seq_len;
    for (const data::NewsSample& s : corpus_.samples) {
      if (s.domain == domain) subset.samples.push_back(s);
    }
    return subset;
  }

  static double AucOn(models::FakeNewsModel* model,
                      const data::NewsDataset& dataset) {
    const std::vector<float> probs = PredictFakeProbability(model, dataset);
    std::vector<int> labels;
    labels.reserve(dataset.samples.size());
    for (const data::NewsSample& s : dataset.samples) {
      labels.push_back(s.label);
    }
    return metrics::Auc(probs, labels);
  }

  // The soak's three-phase trace: stationary -> mix + fake-ratio shift ->
  // unseen-domain flood.
  drift::DriftTraceConfig SoakTrace(int64_t total, uint64_t seed) const {
    drift::DriftTraceConfig trace;
    trace.seed = seed;
    drift::DriftPhase p0;
    p0.start_index = 0;
    p0.domain_weights = {1.0, 1.0, 0.0};
    drift::DriftPhase p1;
    p1.start_index = total / 3;
    p1.domain_weights = {0.3, 1.0, 0.0};
    p1.fake_ratio = {-1.0, 0.85, -1.0};
    drift::DriftPhase p2;
    p2.start_index = 2 * total / 3;
    p2.domain_weights = {0.2, 0.2, 1.0};
    trace.phases = {p0, p1, p2};
    return trace;
  }

  data::NewsDataset corpus_;
  data::NewsDataset train_set_;
  std::unique_ptr<text::FrozenEncoder> encoder_;
  models::ModelConfig config_;
  serve::RequestLimits limits_;
};

// A feedback delivery pipeline with injected faults: flips mislabel, drops
// never deliver, delays re-queue until 64 later deliveries have happened.
// Deliveries feed both the server's monitor and (primary traffic only) the
// online adapter — faults poison both consumers identically, as they would
// in production where the label source is shared.
struct FeedbackPipeline {
  serve::Server* server = nullptr;
  drift::OnlineAdapter* adapter = nullptr;
  train::FaultInjector* injector = nullptr;
  int64_t delivered = 0;
  int64_t dropped = 0;
  int64_t flipped = 0;
  int64_t delayed = 0;

  struct Pending {
    serve::Feedback feedback;
    serve::InferenceRequest request;
    int64_t due = 0;
  };
  std::vector<Pending> pending;

  void Deliver(const serve::Feedback& feedback,
               const serve::InferenceRequest& request) {
    const Status status = server->RecordFeedback(feedback);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ++delivered;
    if (adapter != nullptr && !feedback.canary) {
      adapter->Ingest(request, feedback.label);
    }
  }

  void Observe(const drift::LabeledRequest& labeled,
               const serve::Prediction& prediction) {
    serve::Feedback feedback;
    feedback.domain = labeled.domain;
    feedback.p_fake = prediction.p_fake;
    feedback.label = labeled.label;
    feedback.canary = prediction.canary;
    using Fault = train::FaultInjector::FeedbackFault;
    const Fault fault =
        injector != nullptr ? injector->NextFeedbackFault() : Fault::kNone;
    if (fault == Fault::kDropFeedback) {
      ++dropped;
      return;
    }
    if (fault == Fault::kDelayFeedback) {
      ++delayed;
      pending.push_back({feedback, labeled.request, delivered + 64});
      return;
    }
    if (fault == Fault::kFlipLabel) {
      feedback.label = 1 - feedback.label;
      ++flipped;
    }
    Deliver(feedback, labeled.request);
    Flush();
  }

  void Flush(bool all = false) {
    for (size_t i = 0; i < pending.size();) {
      if (all || pending[i].due <= delivered) {
        const Pending p = pending[i];
        pending.erase(pending.begin() + static_cast<int64_t>(i));
        Deliver(p.feedback, p.request);
      } else {
        ++i;
      }
    }
  }
};

TEST_F(DriftSoakTest, FaultInjectedDriftSoakWithRollbackAndAdaptation) {
  constexpr int64_t kTotal = 10'512;  // chunk-aligned, >= the 10k floor
  constexpr int64_t kChunk = 8;
  const int64_t phase2_start = 2 * kTotal / 3;  // 7008
  const std::string base = TrainBaseCheckpoint("drift_soak_base.ckpt");
  const std::string doomed =
      WriteUntrainedCheckpoint(31, "drift_soak_doomed.ckpt");

  // Offline frozen baseline, BEFORE any serving: the gap between trained
  // and unseen domains is what the drift machinery must detect.
  const auto frozen = ModelFromCheckpoint(base);
  const double frozen_ab_auc = AucOn(frozen.get(), train_set_);
  const double frozen_c_auc = AucOn(frozen.get(), DomainSubset(kUnseenDomain));
  std::cerr << "[soak] frozen AUC: trained domains " << frozen_ab_auc
            << ", unseen domain " << frozen_c_auc << "\n";
  ASSERT_GT(frozen_ab_auc, 0.85);
  ASSERT_LT(frozen_c_auc, frozen_ab_auc - 0.1)
      << "corpus no longer exhibits an unseen-domain gap";

  serve::ServerOptions options;
  options.watchdog_period_nanos = 0;
  options.reload_backoff_initial_nanos = 100'000;
  options.model_factory = Factory(3);
  options.max_batch = 8;
  options.max_queue_depth = 4096;
  options.feedback_ring = 512;
  options.drift_window = 256;
  options.min_quality_samples = 64;
  options.min_domain_quality_samples = 16;
  // Midpoint of the measured frozen gap: healthy windows sit above it,
  // unseen-domain-flooded windows below.
  options.primary_min_auc = (frozen_ab_auc + frozen_c_auc) / 2.0;
  serve::Server server(std::make_unique<serve::InferenceSession>(
                           ModelFromCheckpoint(base), limits_, 1),
                       options);

  train::FaultInjector injector(7);
  injector.set_feedback_fault_probability(0.08);

  drift::OnlineAdapterOptions adapter_options;
  adapter_options.window = 512;
  adapter_options.min_samples = 256;
  adapter_options.epochs = 6;
  adapter_options.batch_size = 16;
  adapter_options.lr = 1e-3f;
  adapter_options.seed = 21;
  adapter_options.checkpoint_dir = ::testing::TempDir();
  drift::OnlineAdapter adapter(Factory(3), &corpus_, adapter_options);
  ASSERT_TRUE(adapter.WarmStart(base).ok());

  auto stream = drift::DriftStream::Create(&corpus_, SoakTrace(kTotal, 99));
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();

  FeedbackPipeline pipeline;
  pipeline.server = &server;
  pipeline.adapter = &adapter;
  pipeline.injector = &injector;

  int64_t ok_responses = 0;
  int64_t canary_responses = 0;
  bool canary_started = false;
  bool canary_rolled_back = false;
  int64_t first_degraded_index = -1;
  int64_t adapted_at_index = -1;

  for (int64_t index = 0; index < kTotal; index += kChunk) {
    if (!canary_started && index >= 5'000) {
      // Mid-drift canary of untrained weights: 30% slice, judged ONLY by
      // the labeled-feedback quality gate (the huge served-traffic window
      // keeps the error-rate monitor out of the way; the candidate is
      // error-clean anyway).
      serve::CanaryOptions canary;
      canary.percent = 30;
      canary.window = 1 << 20;
      canary.quality_window = 96;
      canary.max_auc_regression = 0.1;
      canary.min_quality_samples = 48;
      canary.min_domain_quality_samples = 16;
      ASSERT_TRUE(server.StartCanary("", doomed, canary).get().ok());
      canary_started = true;
    }
    if (adapted_at_index < 0 && first_degraded_index >= 0 &&
        index >= phase2_start + 1'200) {
      // React to the raised flag: fine-tune on the recent labeled window
      // and publish through the standard checkpoint + hot-reload path.
      const auto published = adapter.AdaptOnce("drift_soak_adapted.ckpt");
      ASSERT_TRUE(published.ok()) << published.status().ToString();
      ASSERT_TRUE(server.ReloadFromCheckpoint(published.value()).get().ok());
      // The reload barrier clears the stale window AND the flag: scores of
      // the replaced weights say nothing about the new ones.
      EXPECT_FALSE(server.Health().quality_degraded);
      adapted_at_index = index;
      std::cerr << "[soak] adapted + hot-reloaded at request " << index
                << " (window size " << adapter.size() << ")\n";
    }

    std::vector<drift::LabeledRequest> chunk;
    std::vector<std::future<StatusOr<serve::Prediction>>> futures;
    for (int64_t i = 0; i < kChunk; ++i) {
      chunk.push_back(stream.value().Next());
      futures.push_back(server.Submit(chunk.back().request));
    }
    for (int64_t i = 0; i < kChunk; ++i) {
      StatusOr<serve::Prediction> result = futures[static_cast<size_t>(i)].get();
      // ZERO dropped / failed in-flight requests across canary install,
      // rollback, and the adaptation reload.
      ASSERT_TRUE(result.ok())
          << "request " << index + i << ": " << result.status().ToString();
      ++ok_responses;
      if (result.value().canary) ++canary_responses;
      pipeline.Observe(chunk[static_cast<size_t>(i)], result.value());
    }

    if (canary_started && !canary_rolled_back) {
      const serve::HealthReport health = server.Health();
      if (health.models[0].canary.rollbacks > 0) {
        canary_rolled_back = true;
        std::cerr << "[soak] canary rolled back by request " << index + kChunk
                  << ": " << health.models[0].canary.last_event << "\n";
        EXPECT_LT(index, phase2_start)
            << "quality rollback should fire well before the phase shift";
      }
    }
    if (first_degraded_index < 0 && index >= phase2_start &&
        server.Health().quality_degraded) {
      first_degraded_index = index;
      std::cerr << "[soak] degraded-quality flag raised at request " << index
                << "\n";
    }
  }
  pipeline.Flush(/*all=*/true);

  EXPECT_EQ(ok_responses, kTotal);
  EXPECT_GT(canary_responses, 0);
  EXPECT_TRUE(canary_rolled_back);
  ASSERT_GE(first_degraded_index, phase2_start);
  ASSERT_GE(adapted_at_index, 0) << "adaptation never triggered";
  EXPECT_GT(injector.injected_feedback_faults(), 0);
  EXPECT_GT(pipeline.flipped, 0);
  EXPECT_GT(pipeline.dropped, 0);
  EXPECT_GT(pipeline.delayed, 0);

  const serve::HealthReport final_health = server.Health();
  std::cerr << "[soak] final windowed AUC " << final_health.models[0].quality.auc
            << " over " << final_health.models[0].quality.window_samples
            << " samples; feedback_recorded " << final_health.feedback_recorded
            << " (flipped " << pipeline.flipped << ", dropped "
            << pipeline.dropped << ", delayed " << pipeline.delayed << ")\n";
  ASSERT_EQ(final_health.models.size(), 1u);
  // The flag cleared at the adaptation reload and must STAY clear: the
  // adapted primary handles the post-shift mix.
  EXPECT_FALSE(final_health.quality_degraded);
  EXPECT_FALSE(final_health.models[0].quality.quality_degraded);
  EXPECT_TRUE(final_health.models[0].quality.auc_valid);
  EXPECT_GT(final_health.models[0].quality.auc, options.primary_min_auc);
  EXPECT_EQ(final_health.models[0].canary.rollbacks, 1);
  EXPECT_EQ(final_health.models[0].quality.quality_rollbacks, 1);
  EXPECT_FALSE(final_health.models[0].canary.active);
  EXPECT_EQ(final_health.feedback_recorded, pipeline.delivered);
  EXPECT_EQ(final_health.invalid_requests, 0);
  EXPECT_EQ(final_health.internal_errors, 0);
  serve::ExpectTotalsAreModelSums(final_health);

  // Adaptation recovery vs the frozen control, judged offline on the full
  // unseen-domain set: the fine-tuned replica must beat the frozen weights
  // by a real margin.
  const double adapted_c_auc =
      AucOn(adapter.model(), DomainSubset(kUnseenDomain));
  std::cerr << "[soak] unseen-domain AUC: frozen " << frozen_c_auc
            << " -> adapted " << adapted_c_auc << "\n";
  EXPECT_GT(adapted_c_auc, frozen_c_auc + 0.1);
  EXPECT_GT(adapted_c_auc, 0.75);

  server.Stop();
}

TEST_F(DriftSoakTest, SoakTrajectoryIsDeterministicUnderFixedSeed) {
  // Two independent servers, streams, and injectors built from the same
  // seeds must produce bitwise-identical responses and identical quality
  // telemetry — at ANY worker count / cache setting, which is how the CI
  // matrix runs this binary.
  const std::string base = TrainBaseCheckpoint("drift_det_base.ckpt");
  constexpr int64_t kRequests = 600;

  const auto run = [&](std::vector<float>* scores, int64_t* delivered,
                       double* final_auc) {
    serve::ServerOptions options;
    options.watchdog_period_nanos = 0;
    options.reload_backoff_initial_nanos = 100'000;
    options.model_factory = Factory(3);
    options.max_batch = 8;
    options.feedback_ring = 256;
    options.drift_window = 128;
    serve::Server server(std::make_unique<serve::InferenceSession>(
                             ModelFromCheckpoint(base), limits_, 1),
                         options);
    train::FaultInjector injector(13);
    injector.set_feedback_fault_probability(0.08);
    auto stream =
        drift::DriftStream::Create(&corpus_, SoakTrace(kRequests, 41));
    ASSERT_TRUE(stream.ok());
    FeedbackPipeline pipeline;
    pipeline.server = &server;
    pipeline.injector = &injector;
    for (int64_t index = 0; index < kRequests; index += 8) {
      std::vector<drift::LabeledRequest> chunk;
      std::vector<std::future<StatusOr<serve::Prediction>>> futures;
      for (int64_t i = 0; i < 8; ++i) {
        chunk.push_back(stream.value().Next());
        futures.push_back(server.Submit(chunk.back().request));
      }
      for (int64_t i = 0; i < 8; ++i) {
        StatusOr<serve::Prediction> result =
            futures[static_cast<size_t>(i)].get();
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        scores->push_back(result.value().p_fake);
        pipeline.Observe(chunk[static_cast<size_t>(i)], result.value());
      }
    }
    const serve::HealthReport health = server.Health();
    *delivered = health.feedback_recorded;
    *final_auc = health.models[0].quality.auc;
    server.Stop();
  };

  std::vector<float> scores_a, scores_b;
  int64_t delivered_a = 0, delivered_b = 0;
  double auc_a = 0.0, auc_b = 0.0;
  run(&scores_a, &delivered_a, &auc_a);
  run(&scores_b, &delivered_b, &auc_b);
  ASSERT_EQ(scores_a.size(), scores_b.size());
  for (size_t i = 0; i < scores_a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&scores_a[i], &scores_b[i], sizeof(float)), 0)
        << "response " << i << " diverged";
  }
  EXPECT_EQ(delivered_a, delivered_b);
  EXPECT_EQ(std::memcmp(&auc_a, &auc_b, sizeof(double)), 0);
  EXPECT_GT(delivered_a, 0);
}

TEST_F(DriftSoakTest, SocketPathCarriesDriftTrafficAndQualityHealth) {
  const std::string base = TrainBaseCheckpoint("drift_sock_base.ckpt");
  serve::ServerOptions options;
  options.watchdog_period_nanos = 0;
  options.reload_backoff_initial_nanos = 100'000;
  options.model_factory = Factory(3);
  options.feedback_ring = 128;
  options.drift_window = 64;
  options.primary_min_auc = 0.6;
  options.min_quality_samples = 32;
  serve::Server server(std::make_unique<serve::InferenceSession>(
                           ModelFromCheckpoint(base), limits_, 1),
                       options);
  net::SocketServerOptions net_options;
  net_options.idle_timeout_ms = 60'000;
  net::SocketServer net(&server, net_options);
  ASSERT_TRUE(net.Start().ok());
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());

  // A drift stream over the TRAINED domains drives the SOCKET path;
  // feedback closes the loop in-process (labels never ride the request
  // wire). The unseen domain stays out so the only degradation below is
  // the deliberate one.
  drift::DriftTraceConfig trace;
  trace.seed = 77;
  drift::DriftPhase p0;
  p0.start_index = 0;
  p0.domain_weights = {1.0, 1.0, 0.0};
  drift::DriftPhase p1;
  p1.start_index = 150;
  p1.domain_weights = {0.4, 1.0, 0.0};
  p1.fake_ratio = {-1.0, 0.8, -1.0};
  trace.phases = {p0, p1};
  auto stream = drift::DriftStream::Create(&corpus_, trace);
  ASSERT_TRUE(stream.ok());
  for (int64_t i = 0; i < 300; ++i) {
    const drift::LabeledRequest labeled = stream.value().Next();
    net::WireResponse response;
    const Status called = client.Call(static_cast<uint64_t>(i + 1), 0,
                                      labeled.request, &response);
    ASSERT_TRUE(called.ok()) << called.ToString();
    ASSERT_EQ(response.code, net::WireCode::kOk) << "request " << i;
    serve::Feedback feedback;
    feedback.domain = labeled.domain;
    feedback.p_fake = response.prediction.p_fake;
    feedback.label = labeled.label;
    ASSERT_TRUE(server.RecordFeedback(feedback).ok());
  }

  // The v2 health frame must mirror the in-process quality section.
  net::WireHealth health;
  ASSERT_TRUE(client.GetHealth(9'001, &health).ok());
  const serve::HealthReport direct = server.Health();
  EXPECT_EQ(health.feedback_recorded, direct.feedback_recorded);
  EXPECT_EQ(health.feedback_recorded, 300);
  EXPECT_EQ(health.quality_degraded, direct.quality_degraded);
  EXPECT_FALSE(health.quality_degraded);  // trained model, trained domains
  ASSERT_EQ(health.models.size(), 1u);
  EXPECT_EQ(health.models[0].feedback_total,
            direct.models[0].quality.feedback_total);
  EXPECT_EQ(health.models[0].quality_window_samples,
            direct.models[0].quality.window_samples);
  EXPECT_TRUE(health.models[0].quality_auc_valid);
  EXPECT_EQ(std::memcmp(&health.models[0].quality_auc,
                        &direct.models[0].quality.auc, sizeof(double)),
            0);

  // Degrade on purpose: inverted labels crater the windowed AUC, and the
  // raised flag must be visible END TO END through the wire.
  for (int64_t i = 0; i < 64; ++i) {
    serve::Feedback feedback;
    feedback.domain = static_cast<int>(i % 2);
    feedback.p_fake = i % 2 == 0 ? 0.9f : 0.1f;
    feedback.label = i % 2 == 0 ? 0 : 1;
    ASSERT_TRUE(server.RecordFeedback(feedback).ok());
  }
  net::WireHealth degraded;
  ASSERT_TRUE(client.GetHealth(9'002, &degraded).ok());
  EXPECT_TRUE(degraded.quality_degraded);
  ASSERT_EQ(degraded.models.size(), 1u);
  EXPECT_TRUE(degraded.models[0].quality_degraded);

  net.Stop();
  server.Stop();
}

}  // namespace
}  // namespace dtdbd
