#include "dtdbd/dtdbd.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

#include "tensor/ops.h"

#include "data/generator.h"
#include "dtdbd/dat.h"
#include "dtdbd/distill.h"
#include "dtdbd/momentum.h"
#include "dtdbd/trainer.h"
#include "text/frozen_encoder.h"

namespace dtdbd {
namespace {

using tensor::Tensor;

TEST(MomentumAdjusterTest, FirstUpdateIsNoOp) {
  MomentumWeightAdjuster adj(0.8, 0.5);
  EXPECT_DOUBLE_EQ(adj.Update(0.8, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(adj.w_add(), 0.5);
  EXPECT_DOUBLE_EQ(adj.w_dkd(), 0.5);
}

TEST(MomentumAdjusterTest, BiasImprovementRaisesWAdd) {
  MomentumWeightAdjuster adj(0.5, 0.5);
  adj.Update(0.8, 1.0);
  // Bias fell by 0.4, F1 flat: signal = (dBias - dF1) = -0.4.
  const double w = adj.Update(0.8, 0.6);
  // w = 0.5*0.5 - 0.5*(-0.4) = 0.45.
  EXPECT_NEAR(w, 0.45, 1e-12);
}

TEST(MomentumAdjusterTest, F1ImprovementAlsoRaisesWAdd) {
  MomentumWeightAdjuster adj(0.5, 0.5);
  adj.Update(0.8, 1.0);
  const double w = adj.Update(0.9, 1.0);  // dF1 = +0.1
  // w = 0.25 - 0.5*(0 - 0.1) = 0.30.
  EXPECT_NEAR(w, 0.30, 1e-12);
}

TEST(MomentumAdjusterTest, BiasRegressionLowersWAdd) {
  MomentumWeightAdjuster adj(0.5, 0.5);
  adj.Update(0.8, 1.0);
  const double w = adj.Update(0.8, 1.6);  // bias worse by 0.6
  // raw: 0.25 - 0.5*0.6 = -0.05 -> clamped to floor.
  EXPECT_DOUBLE_EQ(w, 0.05);
}

TEST(MomentumAdjusterTest, WeightsStayInBounds) {
  MomentumWeightAdjuster adj(0.0, 0.5, 0.1);
  adj.Update(0.5, 1.0);
  for (int i = 0; i < 20; ++i) {
    const double w = adj.Update(0.5 + 0.01 * i, 1.0 - 0.05 * i);
    EXPECT_GE(w, 0.1);
    EXPECT_LE(w, 0.9);
    EXPECT_NEAR(adj.w_add() + adj.w_dkd(), 1.0, 1e-12);
  }
}

TEST(MomentumAdjusterTest, SignalClampedAgainstNoiseSpikes) {
  MomentumWeightAdjuster adj(0.9, 0.5);
  adj.Update(0.8, 1.0);
  // A wild +5.0 bias spike is clamped to +1 before the update.
  const double w = adj.Update(0.8, 6.0);
  EXPECT_NEAR(w, 0.9 * 0.5 - 0.1 * 1.0, 1e-12);
}

TEST(MomentumAdjusterDeathTest, InvalidArgs) {
  EXPECT_DEATH(MomentumWeightAdjuster(1.0, 0.5), "");
  EXPECT_DEATH(MomentumWeightAdjuster(0.5, 0.01, 0.2), "");
}

TEST(DistillLossTest, AddZeroForIdenticalFeatures) {
  Tensor f = Tensor::FromData({4, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 0, 2});
  Tensor loss = AdversarialDebiasDistillLoss(f, f.Clone(), 2.0f);
  EXPECT_NEAR(loss.item(), 0.0f, 1e-5f);
}

TEST(DistillLossTest, AddInvariantToFeatureScale) {
  // The correlation-matrix rows are standardized, so a uniformly scaled
  // student should match the teacher exactly.
  Tensor t = Tensor::FromData({3, 2}, {0, 0, 1, 0, 0, 2});
  Tensor s = tensor::ScalarMul(t.Clone(), 5.0f);
  EXPECT_NEAR(AdversarialDebiasDistillLoss(t, s, 1.0f).item(), 0.0f, 1e-5f);
}

TEST(DistillLossTest, AddPositiveForDifferentStructure) {
  // With 3 points every row of the correlation matrix has only two free
  // entries, and row standardization makes any two such rows equivalent —
  // so 4 points with genuinely different geometry are needed here.
  Tensor t = Tensor::FromData({4, 2}, {0, 0, 1, 0, 0, 1, 5, 5});
  Tensor s = Tensor::FromData({4, 2}, {0, 0, 1, 0, 2, 0, 3, 0});
  EXPECT_GT(AdversarialDebiasDistillLoss(t, s, 1.0f).item(), 1e-4f);
}

TEST(DistillLossTest, AddAllowsDifferentFeatureWidths) {
  Tensor t = Tensor::FromData({3, 4},
                              {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2});
  Tensor s = Tensor::FromData({3, 2}, {0, 0, 1, 1, 2, 2});
  Tensor loss = AdversarialDebiasDistillLoss(t, s, 1.0f);
  EXPECT_TRUE(std::isfinite(loss.item()));
}

TEST(DistillLossTest, DkdZeroForIdenticalLogits) {
  Tensor logits = Tensor::FromData({2, 2}, {3, -1, 0, 2});
  EXPECT_NEAR(DomainKnowledgeDistillLoss(logits, logits.Clone(), 2.0f).item(),
              0.0f, 1e-6f);
}

TEST(DistillLossTest, StudentGradientFlows) {
  Tensor t = Tensor::FromData({3, 2}, {0, 0, 1, 0, 0, 1});
  Tensor s = Tensor::FromData({3, 2}, {0.1f, 0, 0.5f, 0.2f, 0, 0.9f}, true);
  Tensor loss = AdversarialDebiasDistillLoss(t, s, 1.0f);
  loss.Backward();
  float norm = 0.0f;
  for (float g : s.grad()) norm += std::abs(g);
  EXPECT_GT(norm, 0.0f);
}

class DtdbdEndToEndTest : public ::testing::Test {
 protected:
  DtdbdEndToEndTest() {
    data::CorpusConfig corpus = data::MicroConfig(21);
    dataset_ = data::GenerateCorpus(corpus);
    Rng rng(5);
    splits_ = data::StratifiedSplit(dataset_, 0.7, 0.15, &rng);
    encoder_ = std::make_unique<text::FrozenEncoder>(dataset_.vocab->size(),
                                                     24, 77);
    config_.vocab_size = dataset_.vocab->size();
    config_.num_domains = dataset_.num_domains();
    config_.encoder = encoder_.get();
    config_.embed_dim = 12;
    config_.hidden_dim = 24;
    config_.conv_channels = 12;
    config_.rnn_hidden = 8;
    config_.seed = 13;
  }

  data::NewsDataset dataset_;
  data::DatasetSplits splits_;
  std::unique_ptr<text::FrozenEncoder> encoder_;
  models::ModelConfig config_;
};

TEST_F(DtdbdEndToEndTest, DatWrapperAddsDomainHead) {
  DatWrapper wrapper(models::CreateModel("TextCNN-S", config_), config_);
  data::Batch batch = data::MakeBatch(splits_.train, {0, 1, 2, 3});
  models::ModelOutput out = wrapper.Forward(batch, true);
  ASSERT_TRUE(out.domain_logits.defined());
  EXPECT_EQ(out.domain_logits.shape(),
            (tensor::Shape{4, config_.num_domains}));
  EXPECT_EQ(wrapper.name(), "TextCNN-S+DAT");
  EXPECT_GT(wrapper.ParameterCount(),
            wrapper.base()->ParameterCount());
}

TEST_F(DtdbdEndToEndTest, SupervisedTrainingReducesLoss) {
  auto model = models::CreateModel("TextCNN-S", config_);
  TrainOptions opts;
  opts.epochs = 4;
  opts.seed = 3;
  TrainResult result =
      TrainSupervised(model.get(), splits_.train, nullptr, opts);
  ASSERT_EQ(result.train_loss_per_epoch.size(), 4u);
  EXPECT_LT(result.train_loss_per_epoch.back(),
            result.train_loss_per_epoch.front());
}

TEST_F(DtdbdEndToEndTest, TrainingBeatsChance) {
  // The shared micro corpus is too small to train reliably; use a larger
  // single-purpose corpus here (the point is learnability, not speed).
  data::CorpusConfig corpus = data::MicroConfig(77);
  corpus.scale = 3.0;
  data::NewsDataset dataset = data::GenerateCorpus(corpus);
  Rng rng(9);
  data::DatasetSplits splits = data::StratifiedSplit(dataset, 0.75, 0.05,
                                                     &rng);
  auto model = models::CreateModel("TextCNN-S", config_);
  TrainOptions opts;
  opts.epochs = 10;
  opts.lr = 2e-3f;
  TrainSupervised(model.get(), splits.train, nullptr, opts);
  auto report = EvaluateModel(model.get(), splits.test);
  // A random binary classifier sits near 0.5 macro F1.
  EXPECT_GT(report.f1, 0.65);
}

TEST_F(DtdbdEndToEndTest, PredictShapesAndDeterminism) {
  auto model = models::CreateModel("TextCNN-S", config_);
  auto preds = Predict(model.get(), splits_.test);
  EXPECT_EQ(static_cast<int64_t>(preds.size()), splits_.test.size());
  auto probs1 = PredictFakeProbability(model.get(), splits_.test);
  auto probs2 = PredictFakeProbability(model.get(), splits_.test);
  EXPECT_EQ(probs1, probs2);
  for (float p : probs1) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST_F(DtdbdEndToEndTest, ExtractFeaturesShape) {
  auto model = models::CreateModel("TextCNN-S", config_);
  auto feats = ExtractFeatures(model.get(), splits_.val);
  EXPECT_EQ(static_cast<int64_t>(feats.size()),
            splits_.val.size() * model->feature_dim());
}

TEST_F(DtdbdEndToEndTest, FullPipelineRunsAndKeepsTeachersFrozen) {
  // Unbiased teacher via DAT-IE.
  DatIeOptions dat;
  dat.train.epochs = 2;
  auto unbiased = TrainUnbiasedTeacher("TextCNN-S", config_, splits_.train,
                                       nullptr, dat);
  // Clean teacher.
  auto clean = models::CreateModel("MDFEND", config_);
  TrainOptions topts;
  topts.epochs = 2;
  TrainSupervised(clean.get(), splits_.train, nullptr, topts);
  const auto clean_params_before = clean->NamedParameters();
  std::map<std::string, std::vector<float>> snapshot;
  for (const auto& [k, v] : clean_params_before) snapshot[k] = v.data();

  auto student = models::CreateModel("TextCNN-S", config_);
  DtdbdOptions dopts;
  dopts.epochs = 3;
  DtdbdResult result = TrainDtdbd(student.get(), unbiased.get(), clean.get(),
                                  splits_.train, splits_.val, dopts);
  EXPECT_EQ(result.val_reports.size(), 3u);
  EXPECT_EQ(result.w_add_per_epoch.size(), 3u);
  EXPECT_DOUBLE_EQ(result.w_add_per_epoch[0], dopts.w_add_init);

  // Teacher parameters must be untouched by distillation.
  for (const auto& [k, v] : clean->NamedParameters()) {
    EXPECT_EQ(v.data(), snapshot.at(k)) << k;
    EXPECT_FALSE(v.requires_grad());
  }
}

// TrainDtdbd computes each teacher's outputs once, over train in index
// order at the distillation batch size, and gathers rows per step. That is
// exact only if every row of a frozen teacher's eval forward is independent
// of the batch it sits in; check it for each teacher the trainer accepts,
// on shuffled batches of another size, at 1 and 4 kernel threads.
TEST_F(DtdbdEndToEndTest, TeacherTableRowsMatchForwardBitwise) {
  TrainOptions topts;
  topts.epochs = 1;
  DatIeOptions dat;
  dat.train.epochs = 1;
  std::vector<std::unique_ptr<models::FakeNewsModel>> teachers;
  teachers.push_back(
      TrainUnbiasedTeacher("TextCNN-S", config_, splits_.train, nullptr, dat));
  for (const char* clean : {"MDFEND", "M3FEND"}) {
    teachers.push_back(models::CreateModel(clean, config_));
    TrainSupervised(teachers.back().get(), splits_.train, nullptr, topts);
  }
  const int64_t table_batch = DtdbdOptions().batch_size;
  auto expect_bitwise = [](const Tensor& gathered, const Tensor& forward,
                           const std::string& what) {
    ASSERT_EQ(gathered.shape(), forward.shape()) << what;
    EXPECT_EQ(std::memcmp(gathered.data().data(), forward.data().data(),
                          gathered.numel() * sizeof(float)),
              0)
        << what;
  };
  for (int threads : {1, 4}) {
    KernelPool pool(threads);
    ScopedKernelPool scope(&pool);
    for (const auto& teacher : teachers) {
      teacher->Freeze();
      const std::vector<float> features =
          ExtractFeatures(teacher.get(), splits_.train, table_batch);
      const std::vector<float> logits =
          ExtractLogits(teacher.get(), splits_.train, table_batch);
      data::DataLoader loader(&splits_.train, 24, /*shuffle=*/true, 3);
      loader.NewEpoch();
      for (int64_t b = 0; b < loader.num_batches(); ++b) {
        const std::vector<int64_t> indices = loader.BatchIndices(b);
        tensor::NoGradGuard no_grad;
        const models::ModelOutput out = teacher->Forward(
            data::MakeBatch(splits_.train, indices), /*training=*/false);
        const std::string what = teacher->name() + " threads=" +
                                 std::to_string(threads) +
                                 " batch=" + std::to_string(b);
        expect_bitwise(
            GatherRows(features, teacher->feature_dim(), indices),
            out.features, what + " features");
        expect_bitwise(GatherRows(logits, 2, indices), out.logits,
                       what + " logits");
      }
    }
  }
}

TEST_F(DtdbdEndToEndTest, AblationFlagsRespected) {
  DatIeOptions dat;
  dat.train.epochs = 1;
  auto unbiased = TrainUnbiasedTeacher("TextCNN-S", config_, splits_.train,
                                       nullptr, dat);
  auto student = models::CreateModel("TextCNN-S", config_);
  // ADD-only (no clean teacher needed).
  DtdbdOptions dopts;
  dopts.epochs = 1;
  dopts.use_dkd = false;
  DtdbdResult result = TrainDtdbd(student.get(), unbiased.get(), nullptr,
                                  splits_.train, splits_.val, dopts);
  EXPECT_EQ(result.train_loss_per_epoch.size(), 1u);
}

// A teacher whose training failed must not look trained: a resume from a
// checkpoint that does not exist reaches the caller as a non-ok status.
TEST_F(DtdbdEndToEndTest, UnbiasedTeacherSurfacesTrainingFailure) {
  DatIeOptions dat;
  dat.train.epochs = 1;
  dat.train.resume_from = ::testing::TempDir() + "/no_such_teacher.ckpt";
  TrainResult result;
  auto teacher = TrainUnbiasedTeacher("TextCNN-S", config_, splits_.train,
                                      nullptr, dat, &result);
  ASSERT_NE(teacher, nullptr);
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(result.train_loss_per_epoch.empty());
}

TEST_F(DtdbdEndToEndTest, MissingTeacherIsFatal) {
  auto student = models::CreateModel("TextCNN-S", config_);
  DtdbdOptions dopts;
  EXPECT_DEATH(TrainDtdbd(student.get(), nullptr, nullptr, splits_.train,
                          splits_.val, dopts),
               "unbiased teacher");
}

}  // namespace
}  // namespace dtdbd
