// Drift-robustness layer unit tests (DESIGN.md §13): the windowed
// QualityMonitor's degenerate-window conventions, the quality gate of
// EvaluateCanaryWindow (a single-class or under-sampled window must NEVER
// trigger a rollback), the labeled-feedback path (typed rejection
// taxonomy, degraded-flag raise/clear, quality-triggered auto-rollback,
// window clearing across reload/promote barriers), the deterministic
// DriftStream schedule incl. unseen-domain injection, the constructor's
// rejection of non-positive quality capacities, the FeedbackFault sampler,
// the OnlineAdapter publish path, and the v2 health frame's quality fields.
// The --drift-window / --quality-slack / --feedback-ring rows are pinned by
// the Knob table test in net_test.
#include "drift/drift.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "drift/adapt.h"
#include "models/model.h"
#include "net/protocol.h"
#include "serve/fleet.h"
#include "serve/quality.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/validation.h"
#include "tensor/optim.h"
#include "text/frozen_encoder.h"
#include "train/checkpoint.h"
#include "train/fault_injector.h"

namespace dtdbd::serve {
namespace {

// ----- QualityMonitor -----

TEST(QualityMonitorTest, DisabledAndEmptyWindowsAreDegenerate) {
  QualityMonitor disabled(0);
  disabled.Observe(0.9f, 1, 0);  // dropped: capacity 0 records nothing
  EXPECT_EQ(disabled.size(), 0);
  QualityWindowSnapshot snapshot = disabled.Snapshot(0, 1);
  EXPECT_EQ(snapshot.samples, 0);
  EXPECT_FALSE(snapshot.auc_valid);
  EXPECT_FALSE(snapshot.bias_spread_valid);
  EXPECT_TRUE(snapshot.domains.empty());

  QualityMonitor empty(8);
  snapshot = empty.Snapshot(0, 1);
  EXPECT_EQ(snapshot.samples, 0);
  EXPECT_FALSE(snapshot.auc_valid);
}

TEST(QualityMonitorTest, SingleClassWindowHasNoAuc) {
  QualityMonitor monitor(8);
  for (int i = 0; i < 6; ++i) monitor.Observe(0.8f, 1, 0);
  const QualityWindowSnapshot snapshot = monitor.Snapshot(0, 1);
  EXPECT_EQ(snapshot.samples, 6);
  EXPECT_FALSE(snapshot.auc_valid);
  EXPECT_EQ(snapshot.auc, 0.0);  // metrics:: degenerate convention
  EXPECT_DOUBLE_EQ(snapshot.accuracy, 1.0);  // accuracy is still defined
  ASSERT_EQ(snapshot.domains.size(), 1u);
  EXPECT_FALSE(snapshot.domains[0].auc_valid);
}

TEST(QualityMonitorTest, SeparableWindowScoresPerfectAuc) {
  QualityMonitor monitor(16);
  for (int i = 0; i < 4; ++i) {
    monitor.Observe(0.9f, 1, 0);
    monitor.Observe(0.1f, 0, 1);
  }
  const QualityWindowSnapshot snapshot = monitor.Snapshot(0, 1);
  EXPECT_EQ(snapshot.samples, 8);
  ASSERT_TRUE(snapshot.auc_valid);
  EXPECT_DOUBLE_EQ(snapshot.auc, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.accuracy, 1.0);
  // Each domain saw only one class: per-domain AUC stays undefined, so the
  // bias spread (a difference of per-domain AUCs) must stay invalid too.
  EXPECT_FALSE(snapshot.bias_spread_valid);
}

TEST(QualityMonitorTest, RingEvictsOldestAndWindowLimitsTake) {
  QualityMonitor monitor(4);
  // Four inverted observations, then four perfect ones: the ring holds
  // only the perfect tail.
  for (int i = 0; i < 4; ++i) monitor.Observe(i % 2 ? 0.1f : 0.9f,
                                              i % 2 ? 1 : 0, 0);
  for (int i = 0; i < 4; ++i) monitor.Observe(i % 2 ? 0.9f : 0.1f,
                                              i % 2 ? 1 : 0, 0);
  EXPECT_EQ(monitor.size(), 4);
  EXPECT_EQ(monitor.total_observed(), 8);
  const QualityWindowSnapshot all = monitor.Snapshot(0, 1);
  ASSERT_TRUE(all.auc_valid);
  EXPECT_DOUBLE_EQ(all.auc, 1.0);
  // A window narrower than the buffer takes only the most recent slots.
  const QualityWindowSnapshot two = monitor.Snapshot(2, 1);
  EXPECT_EQ(two.samples, 2);
}

TEST(QualityMonitorTest, BiasSpreadNeedsTwoQualifyingDomains) {
  QualityMonitor monitor(32);
  // Domain 0: perfect (AUC 1). Domain 1: inverted (AUC 0). Domain 2: only
  // 2 samples — under the min_domain_samples floor, must not qualify.
  for (int i = 0; i < 4; ++i) {
    monitor.Observe(0.9f, 1, 0);
    monitor.Observe(0.1f, 0, 0);
    monitor.Observe(0.1f, 1, 1);
    monitor.Observe(0.9f, 0, 1);
  }
  monitor.Observe(0.9f, 1, 2);
  monitor.Observe(0.1f, 0, 2);
  const QualityWindowSnapshot snapshot = monitor.Snapshot(0, 4);
  ASSERT_TRUE(snapshot.bias_spread_valid);
  EXPECT_DOUBLE_EQ(snapshot.bias_spread, 1.0);
  ASSERT_EQ(snapshot.domains.size(), 3u);
  EXPECT_EQ(snapshot.domains[2].samples, 2);
  EXPECT_TRUE(snapshot.domains[2].auc_valid);  // defined, just unqualifying

  // Raise the floor above every domain: no spread.
  const QualityWindowSnapshot strict = monitor.Snapshot(0, 100);
  EXPECT_FALSE(strict.bias_spread_valid);
}

TEST(QualityMonitorTest, ClearDropsWindowButKeepsTotalObserved) {
  QualityMonitor monitor(8);
  monitor.Observe(0.9f, 1, 0);
  monitor.Observe(0.1f, 0, 0);
  monitor.Clear();
  EXPECT_EQ(monitor.size(), 0);
  EXPECT_EQ(monitor.total_observed(), 2);
  EXPECT_FALSE(monitor.Snapshot(0, 1).auc_valid);
}

// ----- EvaluateCanaryWindow quality gate -----

QualityWindowSnapshot SnapshotWithAuc(double auc, int64_t samples) {
  QualityWindowSnapshot snapshot;
  snapshot.samples = samples;
  snapshot.auc = auc;
  snapshot.auc_valid = true;
  return snapshot;
}

TEST(CanaryQualityGateTest, DisabledGateIgnoresQuality) {
  CanaryWindowStats window;
  window.canary_quality = SnapshotWithAuc(0.1, 100);
  window.primary_quality = SnapshotWithAuc(0.9, 100);
  CanaryOptions options;  // quality_window defaults to 0 = off
  const CanaryVerdict verdict = EvaluateCanaryWindow(window, options);
  EXPECT_FALSE(verdict.regression);
}

TEST(CanaryQualityGateTest, QualityOnlyEvaluationFiresWithoutServedTraffic) {
  CanaryWindowStats window;  // canary_served == 0: gates 1+2 are skipped
  window.canary_quality = SnapshotWithAuc(0.60, 64);
  window.primary_quality = SnapshotWithAuc(0.90, 64);
  CanaryOptions options;
  options.quality_window = 32;
  options.max_auc_regression = 0.05;
  options.min_quality_samples = 32;
  const CanaryVerdict verdict = EvaluateCanaryWindow(window, options);
  EXPECT_TRUE(verdict.regression);
  EXPECT_TRUE(verdict.quality);
  EXPECT_NE(verdict.reason.find("AUC"), std::string::npos) << verdict.reason;
}

TEST(CanaryQualityGateTest, DegenerateWindowsNeverTrigger) {
  CanaryOptions options;
  options.quality_window = 32;
  options.min_quality_samples = 32;
  // Single-class canary window: AUC undefined -> no verdict, even though
  // the numeric field holds the 0.0 placeholder that would "regress".
  CanaryWindowStats window;
  window.canary_quality.samples = 64;  // auc_valid stays false
  window.primary_quality = SnapshotWithAuc(0.9, 64);
  EXPECT_FALSE(EvaluateCanaryWindow(window, options).regression);

  // Under the min-samples floor on either side: no verdict.
  window.canary_quality = SnapshotWithAuc(0.1, 31);
  EXPECT_FALSE(EvaluateCanaryWindow(window, options).regression);
  window.canary_quality = SnapshotWithAuc(0.1, 64);
  window.primary_quality = SnapshotWithAuc(0.9, 31);
  EXPECT_FALSE(EvaluateCanaryWindow(window, options).regression);

  // Within slack: no verdict.
  window.canary_quality = SnapshotWithAuc(0.88, 64);
  window.primary_quality = SnapshotWithAuc(0.90, 64);
  EXPECT_FALSE(EvaluateCanaryWindow(window, options).regression);
}

TEST(CanaryQualityGateTest, PerDomainRegressionFiresDespiteHealthyPool) {
  CanaryOptions options;
  options.quality_window = 16;
  options.max_auc_regression = 0.05;
  options.min_quality_samples = 16;
  options.min_domain_quality_samples = 8;

  const auto domain = [](int id, double auc, int64_t samples) {
    DomainQuality dq;
    dq.domain = id;
    dq.auc = auc;
    dq.auc_valid = true;
    dq.samples = samples;
    return dq;
  };
  CanaryWindowStats window;
  window.canary_quality = SnapshotWithAuc(0.89, 64);  // pooled: inside slack
  window.primary_quality = SnapshotWithAuc(0.90, 64);
  window.canary_quality.domains = {domain(0, 0.95, 32), domain(1, 0.40, 32)};
  window.primary_quality.domains = {domain(0, 0.90, 32), domain(1, 0.90, 32)};
  const CanaryVerdict verdict = EvaluateCanaryWindow(window, options);
  EXPECT_TRUE(verdict.regression);
  EXPECT_TRUE(verdict.quality);
  EXPECT_NE(verdict.reason.find("domain 1"), std::string::npos)
      << verdict.reason;

  // The same delta on an under-sampled domain proves nothing.
  window.canary_quality.domains = {domain(1, 0.40, 7)};
  EXPECT_FALSE(EvaluateCanaryWindow(window, options).regression);
  // ...or when the PRIMARY side of that domain is under-sampled (the
  // unseen-domain bucket: primary has barely seen it either).
  window.canary_quality.domains = {domain(1, 0.40, 32)};
  window.primary_quality.domains = {domain(1, 0.90, 7)};
  EXPECT_FALSE(EvaluateCanaryWindow(window, options).regression);
}

// ----- FeedbackFault sampler -----

TEST(FeedbackFaultTest, DeterministicUnderSeedAndCounted) {
  train::FaultInjector a(42);
  train::FaultInjector b(42);
  a.set_feedback_fault_probability(0.3);
  b.set_feedback_fault_probability(0.3);
  int64_t fired = 0;
  for (int i = 0; i < 500; ++i) {
    const auto fa = a.NextFeedbackFault();
    ASSERT_EQ(fa, b.NextFeedbackFault()) << "diverged at draw " << i;
    if (fa != train::FaultInjector::FeedbackFault::kNone) ++fired;
  }
  EXPECT_EQ(a.injected_feedback_faults(), fired);
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 500);

  train::FaultInjector off(42);  // probability defaults to 0: never fires
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(off.NextFeedbackFault(),
              train::FaultInjector::FeedbackFault::kNone);
  }
  EXPECT_EQ(off.injected_feedback_faults(), 0);
}

// ----- Server feedback path -----

class DriftServeTest : public ::testing::Test {
 protected:
  DriftServeTest() {
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

  // label-consistent (score 0.9 for fake, 0.1 for real) or inverted
  // feedback for the default model.
  static Feedback GoodFeedback(int label, int domain, bool canary = false) {
    Feedback fb;
    fb.domain = domain;
    fb.label = label;
    fb.p_fake = label == data::kFake ? 0.9f : 0.1f;
    fb.canary = canary;
    return fb;
  }
  static Feedback BadFeedback(int label, int domain, bool canary = false) {
    Feedback fb = GoodFeedback(label, domain, canary);
    fb.p_fake = 1.0f - fb.p_fake;
    return fb;
  }

  data::NewsDataset dataset_;
  std::unique_ptr<text::FrozenEncoder> encoder_;
  models::ModelConfig config_;
  RequestLimits limits_;
};

TEST_F(DriftServeTest, NonPositiveQualityCapacitiesFailTheConstructor) {
  ServerOptions ring = BaseOptions();
  ring.feedback_ring = 0;
  EXPECT_DEATH({ Server server(MakeSession(3), ring); }, "feedback_ring");
  ServerOptions window = BaseOptions();
  window.drift_window = 0;
  EXPECT_DEATH({ Server server(MakeSession(3), window); }, "drift_window");
}

TEST_F(DriftServeTest, RecordFeedbackRejectionTaxonomy) {
  Server server(MakeSession(3), BaseOptions());
  Feedback fb = GoodFeedback(data::kFake, 0);

  Feedback bad_label = fb;
  bad_label.label = 2;
  EXPECT_EQ(server.RecordFeedback(bad_label).code(),
            StatusCode::kInvalidArgument);
  bad_label.label = -1;
  EXPECT_EQ(server.RecordFeedback(bad_label).code(),
            StatusCode::kInvalidArgument);

  Feedback bad_score = fb;
  bad_score.p_fake = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(server.RecordFeedback(bad_score).code(),
            StatusCode::kInvalidArgument);
  bad_score.p_fake = 1.5f;
  EXPECT_EQ(server.RecordFeedback(bad_score).code(),
            StatusCode::kInvalidArgument);
  bad_score.p_fake = -0.1f;
  EXPECT_EQ(server.RecordFeedback(bad_score).code(),
            StatusCode::kInvalidArgument);

  Feedback bad_domain = fb;
  bad_domain.domain = -1;
  EXPECT_EQ(server.RecordFeedback(bad_domain).code(),
            StatusCode::kInvalidArgument);

  Feedback unknown = fb;
  unknown.model_name = "nonesuch";
  EXPECT_EQ(server.RecordFeedback(unknown).code(), StatusCode::kNotFound);

  // None of the rejects may have touched the monitors.
  HealthReport health = server.Health();
  EXPECT_EQ(health.feedback_recorded, 0);
  ASSERT_EQ(health.models.size(), 1u);
  EXPECT_EQ(health.models[0].quality.feedback_total, 0);
  EXPECT_EQ(health.models[0].quality.window_samples, 0);

  ASSERT_TRUE(server.RecordFeedback(fb).ok());
  health = server.Health();
  EXPECT_EQ(health.feedback_recorded, 1);
  EXPECT_EQ(health.models[0].quality.feedback_total, 1);
  EXPECT_EQ(health.models[0].quality.window_samples, 1);
  EXPECT_FALSE(health.models[0].quality.auc_valid);  // single class so far

  server.Stop();
  EXPECT_EQ(server.RecordFeedback(fb).code(), StatusCode::kUnavailable);
}

TEST_F(DriftServeTest, DegradedQualityFlagRaisesAndClearsDeterministically) {
  ServerOptions options = BaseOptions();
  options.feedback_ring = 64;
  options.drift_window = 32;
  options.primary_min_auc = 0.7;
  options.min_quality_samples = 16;
  Server server(MakeSession(3), options);

  const auto feed = [&](bool good, int n) {
    for (int i = 0; i < n; ++i) {
      const int label = i % 2;
      const Feedback fb =
          good ? GoodFeedback(label, i % 3) : BadFeedback(label, i % 3);
      ASSERT_TRUE(server.RecordFeedback(fb).ok());
    }
  };

  feed(/*good=*/true, 32);
  HealthReport health = server.Health();
  EXPECT_FALSE(health.quality_degraded);
  ASSERT_EQ(health.models.size(), 1u);
  EXPECT_TRUE(health.models[0].quality.auc_valid);
  EXPECT_DOUBLE_EQ(health.models[0].quality.auc, 1.0);

  // 32 inverted feedbacks fill the whole evaluation window: AUC drops to
  // 0 and the flag must raise — deterministically, no thread involved.
  feed(/*good=*/false, 32);
  health = server.Health();
  EXPECT_TRUE(health.quality_degraded);
  EXPECT_TRUE(health.models[0].quality.quality_degraded);
  EXPECT_DOUBLE_EQ(health.models[0].quality.auc, 0.0);

  // Recovery clears it the same way.
  feed(/*good=*/true, 32);
  health = server.Health();
  EXPECT_FALSE(health.quality_degraded);
  EXPECT_FALSE(health.models[0].quality.quality_degraded);
}

TEST_F(DriftServeTest, SingleClassFeedbackNeverMovesTheDegradedFlag) {
  ServerOptions options = BaseOptions();
  options.feedback_ring = 64;
  options.drift_window = 16;
  options.primary_min_auc = 0.7;
  options.min_quality_samples = 8;
  Server server(MakeSession(3), options);
  // All-fake, all mis-scored: accuracy 0, but AUC is UNDEFINED — the
  // degraded flag must not move (metrics 0.0+warning convention lifted to
  // the flag decision).
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(server.RecordFeedback(BadFeedback(data::kFake, 0)).ok());
  }
  const HealthReport health = server.Health();
  EXPECT_FALSE(health.quality_degraded);
  EXPECT_FALSE(health.models[0].quality.auc_valid);
  server.Stop();
}

TEST_F(DriftServeTest, QualityRegressingCanaryRollsBackOnFeedback) {
  const std::string path = WriteCheckpoint(11, "drift_canary_quality.ckpt");
  ServerOptions options = BaseOptions();
  options.feedback_ring = 128;
  options.drift_window = 64;
  Server server(MakeSession(3), options);

  CanaryOptions canary;
  canary.percent = 1;  // the gate under test is feedback-driven, not traffic
  canary.window = 1 << 20;  // keep the served-traffic monitor out of the way
  canary.quality_window = 16;
  canary.max_auc_regression = 0.05;
  canary.min_quality_samples = 8;
  canary.min_domain_quality_samples = 4;
  ASSERT_TRUE(server.StartCanary("", path, canary).get().ok());

  // Primary baseline: a healthy labeled window.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(server.RecordFeedback(GoodFeedback(i % 2, i % 3)).ok());
  }
  // Canary feedback arrives inverted: at the 16th observation the gate
  // evaluates, sees AUC 0 vs 1, and must enqueue the rollback.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        server.RecordFeedback(BadFeedback(i % 2, i % 3, /*canary=*/true))
            .ok());
  }
  // The rollback runs as a front-of-queue barrier job; drain it by waiting
  // for the canary to disappear from health.
  HealthReport health;
  for (int spin = 0; spin < 2000; ++spin) {
    health = server.Health();
    if (!health.models[0].canary.active &&
        !health.models[0].canary.draining) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(health.models[0].canary.active);
  EXPECT_EQ(health.models[0].canary.rollbacks, 1);
  EXPECT_EQ(health.models[0].quality.quality_rollbacks, 1);
  EXPECT_GE(health.models[0].quality.quality_evals, 1);
  EXPECT_NE(health.models[0].canary.last_event.find("AUC"),
            std::string::npos)
      << health.models[0].canary.last_event;
  EXPECT_EQ(health.models[0].version, 1);  // last-good primary kept

  // Post-rollback, canary feedback is still accepted (the ring simply
  // accumulates for a future canary) and serving works on the primary.
  EXPECT_TRUE(
      server.RecordFeedback(GoodFeedback(0, 0, /*canary=*/true)).ok());
  server.Stop();
}

TEST_F(DriftServeTest, SingleClassCanaryFeedbackNeverRollsBack) {
  const std::string path = WriteCheckpoint(13, "drift_canary_degen.ckpt");
  ServerOptions options = BaseOptions();
  options.feedback_ring = 128;
  options.drift_window = 64;
  Server server(MakeSession(3), options);
  CanaryOptions canary;
  canary.percent = 1;
  canary.window = 1 << 20;
  canary.quality_window = 8;
  canary.min_quality_samples = 4;
  ASSERT_TRUE(server.StartCanary("", path, canary).get().ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(server.RecordFeedback(GoodFeedback(i % 2, i % 3)).ok());
  }
  // 32 single-class canary feedbacks cross the evaluation threshold four
  // times; every evaluation sees an undefined AUC and must stay silent.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        server.RecordFeedback(BadFeedback(data::kFake, 0, /*canary=*/true))
            .ok());
  }
  const HealthReport health = server.Health();
  EXPECT_TRUE(health.models[0].canary.active);
  EXPECT_EQ(health.models[0].canary.rollbacks, 0);
  EXPECT_EQ(health.models[0].quality.quality_rollbacks, 0);
  EXPECT_GE(health.models[0].quality.quality_evals, 4);
  server.Stop();
}

TEST_F(DriftServeTest, QualityWindowsClearAcrossReloadAndPromoteBarriers) {
  const std::string path = WriteCheckpoint(5, "drift_barrier.ckpt");
  ServerOptions options = BaseOptions();
  options.feedback_ring = 64;
  options.drift_window = 32;
  options.primary_min_auc = 0.7;
  options.min_quality_samples = 8;
  Server server(MakeSession(3), options);

  // Degrade the primary, then reload: the new weights must start with a
  // clean window and a cleared flag — yesterday's scores say nothing
  // about the model installed today.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(server.RecordFeedback(BadFeedback(i % 2, 0)).ok());
  }
  ASSERT_TRUE(server.Health().quality_degraded);
  ASSERT_TRUE(server.ReloadFromCheckpoint(path).get().ok());
  HealthReport health = server.Health();
  EXPECT_FALSE(health.quality_degraded);
  EXPECT_EQ(health.models[0].quality.window_samples, 0);

  // Same across a promote: the candidate's own feedback history does not
  // carry into its life as primary.
  const std::string path2 = WriteCheckpoint(7, "drift_barrier2.ckpt");
  CanaryOptions canary;
  canary.percent = 1;
  ASSERT_TRUE(server.StartCanary("", path2, canary).get().ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        server.RecordFeedback(GoodFeedback(i % 2, 0, /*canary=*/true)).ok());
  }
  ASSERT_TRUE(server.PromoteCanary("").get().ok());
  health = server.Health();
  EXPECT_EQ(health.models[0].quality.window_samples, 0);
  EXPECT_FALSE(health.quality_degraded);
  server.Stop();
}

}  // namespace
}  // namespace dtdbd::serve

namespace dtdbd::drift {
namespace {

// ----- DriftStream -----

class DriftStreamTest : public ::testing::Test {
 protected:
  DriftStreamTest() { dataset_ = data::GenerateCorpus(data::MicroConfig(17)); }

  DriftTraceConfig ThreePhaseConfig() const {
    // Phase 0: domains A+B only. Phase 1: mix shifts toward B and the fake
    // ratio in B drifts up. Phase 2: unseen domain C floods in.
    DriftTraceConfig config;
    config.seed = 99;
    DriftPhase p0;
    p0.start_index = 0;
    p0.domain_weights = {1.0, 1.0, 0.0};
    DriftPhase p1;
    p1.start_index = 100;
    p1.domain_weights = {0.2, 1.0, 0.0};
    p1.fake_ratio = {-1.0, 0.9, -1.0};
    DriftPhase p2;
    p2.start_index = 200;
    p2.domain_weights = {0.1, 0.1, 1.0};
    config.phases = {p0, p1, p2};
    return config;
  }

  data::NewsDataset dataset_;
};

TEST_F(DriftStreamTest, DeterministicUnderFixedSeed) {
  auto a = DriftStream::Create(&dataset_, ThreePhaseConfig());
  auto b = DriftStream::Create(&dataset_, ThreePhaseConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 300; ++i) {
    const LabeledRequest ra = a.value().Next();
    const LabeledRequest rb = b.value().Next();
    ASSERT_EQ(ra.request.tokens, rb.request.tokens) << "draw " << i;
    ASSERT_EQ(ra.domain, rb.domain);
    ASSERT_EQ(ra.label, rb.label);
    ASSERT_EQ(ra.index, i);
    ASSERT_EQ(ra.phase, rb.phase);
  }
}

TEST_F(DriftStreamTest, PhaseScheduleGovernsMixAndRatios) {
  auto stream = DriftStream::Create(&dataset_, ThreePhaseConfig());
  ASSERT_TRUE(stream.ok());
  int phase1_b_total = 0;
  int phase1_b_fake = 0;
  int phase2_c = 0;
  int phase2_total = 0;
  for (int i = 0; i < 600; ++i) {
    const LabeledRequest r = stream.value().Next();
    if (r.index < 100) {
      EXPECT_EQ(r.phase, 0);
      EXPECT_NE(r.domain, 2);  // C has zero weight in phase 0
    } else if (r.index < 200) {
      EXPECT_EQ(r.phase, 1);
      EXPECT_NE(r.domain, 2);
      if (r.domain == 1) {
        ++phase1_b_total;
        if (r.label == data::kFake) ++phase1_b_fake;
      }
    } else {
      EXPECT_EQ(r.phase, 2);
      ++phase2_total;
      if (r.domain == 2) ++phase2_c;
    }
    // The request mirrors the sampled corpus row, so it is always valid
    // against the limits the corpus implies.
    serve::RequestLimits limits;
    limits.vocab_size = dataset_.vocab->size();
    limits.num_domains = dataset_.num_domains();
    limits.seq_len = dataset_.seq_len;
    ASSERT_TRUE(serve::ValidateRequest(r.request, limits).ok());
  }
  // Corpus marginal for B is 0.25 fake; the drifted phase asks for 0.9.
  EXPECT_GT(phase1_b_total, 0);
  EXPECT_GT(static_cast<double>(phase1_b_fake) / phase1_b_total, 0.7);
  // The unseen domain dominates its phase (weight 1.0 vs 0.1 + 0.1).
  EXPECT_GT(static_cast<double>(phase2_c) / phase2_total, 0.6);
}

TEST_F(DriftStreamTest, CreateRejectsMalformedSchedules) {
  const auto expect_invalid = [&](DriftTraceConfig config,
                                  const std::string& what) {
    const auto result = DriftStream::Create(&dataset_, std::move(config));
    ASSERT_FALSE(result.ok()) << what;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << what;
  };

  expect_invalid({}, "no phases");

  DriftTraceConfig late_start = ThreePhaseConfig();
  late_start.phases[0].start_index = 5;
  expect_invalid(late_start, "phase 0 must start at 0");

  DriftTraceConfig unordered = ThreePhaseConfig();
  unordered.phases[2].start_index = 100;
  expect_invalid(unordered, "start indices must strictly increase");

  DriftTraceConfig wrong_weights = ThreePhaseConfig();
  wrong_weights.phases[1].domain_weights = {1.0, 1.0};
  expect_invalid(wrong_weights, "weight count must match domains");

  DriftTraceConfig negative_weight = ThreePhaseConfig();
  negative_weight.phases[0].domain_weights = {1.0, -0.5, 0.0};
  expect_invalid(negative_weight, "weights must be non-negative");

  DriftTraceConfig all_zero = ThreePhaseConfig();
  all_zero.phases[0].domain_weights = {0.0, 0.0, 0.0};
  expect_invalid(all_zero, "at least one positive weight");

  DriftTraceConfig ratio_range = ThreePhaseConfig();
  ratio_range.phases[1].fake_ratio = {-1.0, 1.5, -1.0};
  expect_invalid(ratio_range, "ratio must be <= 1");

  DriftTraceConfig ratio_count = ThreePhaseConfig();
  ratio_count.phases[1].fake_ratio = {0.5};
  expect_invalid(ratio_count, "ratio count must match domains");

  const auto no_dataset = DriftStream::Create(nullptr, ThreePhaseConfig());
  EXPECT_EQ(no_dataset.status().code(), StatusCode::kInvalidArgument);

  // Unreachable cell: demand fakes from a domain whose pool has none.
  data::NewsDataset real_only = WithoutDomains(dataset_, {});
  real_only.samples.erase(
      std::remove_if(real_only.samples.begin(), real_only.samples.end(),
                     [](const data::NewsSample& s) {
                       return s.domain == 0 && s.label == data::kFake;
                     }),
      real_only.samples.end());
  DriftTraceConfig demand_fakes;
  demand_fakes.seed = 1;
  DriftPhase phase;
  phase.start_index = 0;
  phase.domain_weights = {1.0, 0.0, 0.0};
  phase.fake_ratio = {1.0, -1.0, -1.0};
  demand_fakes.phases = {phase};
  const auto unreachable = DriftStream::Create(&real_only, demand_fakes);
  ASSERT_FALSE(unreachable.ok());
  EXPECT_EQ(unreachable.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DriftStreamTest, WithoutDomainsKeepsNamesDropsSamples) {
  const data::NewsDataset filtered = WithoutDomains(dataset_, {2});
  EXPECT_EQ(filtered.num_domains(), dataset_.num_domains());
  EXPECT_EQ(filtered.seq_len, dataset_.seq_len);
  EXPECT_LT(filtered.size(), dataset_.size());
  for (const data::NewsSample& s : filtered.samples) {
    EXPECT_NE(s.domain, 2);
  }
  // The excluded domain's id remains VALID for serving — that is the whole
  // point: an unseen domain is a gap in training, not in the schema.
  EXPECT_EQ(filtered.DomainStats().size(), dataset_.DomainStats().size());
}

// ----- OnlineAdapter -----

TEST_F(DriftStreamTest, AdapterRefusesThinWindowsAndPublishesCheckpoints) {
  auto encoder = std::make_unique<text::FrozenEncoder>(
      dataset_.vocab->size(), 16, 5);
  models::ModelConfig config;
  config.vocab_size = dataset_.vocab->size();
  config.num_domains = dataset_.num_domains();
  config.encoder = encoder.get();
  config.embed_dim = 12;
  config.hidden_dim = 16;
  config.conv_channels = 8;
  config.rnn_hidden = 8;
  config.num_experts = 3;
  config.seed = 3;

  OnlineAdapterOptions options;
  options.window = 64;
  options.min_samples = 16;
  options.epochs = 1;
  options.batch_size = 8;
  options.seed = 21;
  options.checkpoint_dir = ::testing::TempDir();
  OnlineAdapter adapter(
      [&config] { return models::CreateModel("MDFEND", config); }, &dataset_,
      options);

  EXPECT_EQ(adapter.AdaptOnce("adapter_thin.ckpt").status().code(),
            StatusCode::kFailedPrecondition);

  DriftTraceConfig trace = ThreePhaseConfig();
  auto stream = DriftStream::Create(&dataset_, trace);
  ASSERT_TRUE(stream.ok());
  for (int i = 0; i < 32; ++i) {
    const LabeledRequest r = stream.value().Next();
    adapter.Ingest(r.request, r.label);
  }
  EXPECT_EQ(adapter.size(), 32);
  const auto published = adapter.AdaptOnce("adapter_pub.ckpt");
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(adapter.adaptations(), 1);

  // The published checkpoint must be servable through the standard path.
  auto loaded = train::LoadCheckpoint(published.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().kind, "supervised");
}

}  // namespace
}  // namespace dtdbd::drift

namespace dtdbd::net {
namespace {

// ----- v2 health frame quality fields -----

WireHealth QualityHealthFixture() {
  WireHealth health;
  health.cache_enabled = true;
  health.degraded = false;
  health.quality_degraded = true;
  health.served_ok = 41;
  health.feedback_recorded = 29;
  WireModelHealth m;
  m.name = "default";
  m.cache_enabled = true;
  m.hits = 3;
  m.quality_degraded = true;
  m.quality_auc_valid = true;
  m.bias_spread_valid = true;
  m.feedback_total = 29;
  m.quality_window_samples = 17;
  m.quality_auc = 0.8125;
  m.bias_spread = 0.25;
  health.models.push_back(m);
  return health;
}

Status DecodeFrame(const std::string& frame, size_t drop_tail,
                   WireHealth* out) {
  return DecodeHealthResponsePayload(
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize,
      frame.size() - kFrameHeaderSize - drop_tail, out);
}

TEST(DriftHealthFrameTest, QualityFieldsRoundTrip) {
  const std::string frame =
      EncodeHealthResponseFrame(7, QualityHealthFixture());
  WireHealth decoded;
  const Status status = DecodeFrame(frame, 0, &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(decoded.quality_degraded);
  EXPECT_EQ(decoded.feedback_recorded, 29);
  ASSERT_EQ(decoded.models.size(), 1u);
  EXPECT_TRUE(decoded.models[0].quality_degraded);
  EXPECT_TRUE(decoded.models[0].quality_auc_valid);
  EXPECT_TRUE(decoded.models[0].bias_spread_valid);
  EXPECT_EQ(decoded.models[0].feedback_total, 29);
  EXPECT_EQ(decoded.models[0].quality_window_samples, 17);
  EXPECT_DOUBLE_EQ(decoded.models[0].quality_auc, 0.8125);
  EXPECT_DOUBLE_EQ(decoded.models[0].bias_spread, 0.25);

  // Truncation inside the quality/reserved tail is a typed decode error,
  // not a partial model record.
  WireHealth ignored;
  EXPECT_EQ(DecodeFrame(frame, 8, &ignored).code(),
            StatusCode::kInvalidArgument);
}

// Three health-frame fields are reserved: byte 3 of the fixed part, bit 3
// of each model's quality_flags, and the trailing per-model i64. The
// encoder writes them as 0; an older server may have sent them non-zero.
// Such a frame must still decode, and re-encoding the result must give
// back the clean frame byte for byte: the reserved fields are dropped and
// every other field survives.
TEST(DriftHealthFrameTest, ReservedFieldsIgnoredOnDecode) {
  const WireHealth health = QualityHealthFixture();
  const std::string clean = EncodeHealthResponseFrame(7, health);
  // Payload offsets: 80-byte fixed part, then the model record's u16
  // name_len, name, u8 cache_enabled, u8 quality_flags, ..., i64 reserved.
  const size_t fixed_reserved = kFrameHeaderSize + 3;
  const size_t quality_flags =
      kFrameHeaderSize + 80 + 2 + health.models[0].name.size() + 1;
  const size_t model_reserved = clean.size() - 8;
  EXPECT_EQ(clean[fixed_reserved], 0);
  EXPECT_EQ(clean[quality_flags] & 8, 0);
  EXPECT_EQ(clean.substr(model_reserved), std::string(8, '\0'));

  std::string old_server = clean;
  old_server[fixed_reserved] = 1;
  old_server[quality_flags] = static_cast<char>(clean[quality_flags] | 8);
  old_server.replace(model_reserved, 8, "\x40\xe2\x01\0\0\0\0\0", 8);

  WireHealth decoded;
  const Status status = DecodeFrame(old_server, 0, &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(EncodeHealthResponseFrame(7, decoded), clean);

  WireHealth ignored;
  EXPECT_EQ(DecodeFrame(old_server, 8, &ignored).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dtdbd::net
