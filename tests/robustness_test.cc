// Edge-case and failure-injection tests across modules: numerical
// stability at extreme inputs, truncated/corrupt files, boundary shapes.
#include <cmath>
#include <cstdio>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generator.h"
#include "eval/tsne.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace dtdbd {
namespace {

using tensor::Tensor;

TEST(NumericalStabilityTest, SoftmaxWithHugeLogits) {
  Tensor x = Tensor::FromData({1, 3}, {1e4f, -1e4f, 0.0f});
  Tensor p = tensor::Softmax(x);
  EXPECT_NEAR(p.at(0), 1.0f, 1e-6f);
  EXPECT_NEAR(p.at(1), 0.0f, 1e-6f);
  for (float v : p.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(NumericalStabilityTest, LogSoftmaxWithHugeLogits) {
  Tensor x = Tensor::FromData({1, 2}, {5e4f, -5e4f});
  Tensor lp = tensor::LogSoftmax(x);
  EXPECT_TRUE(std::isfinite(lp.at(0)));
  EXPECT_NEAR(lp.at(0), 0.0f, 1e-4f);
}

TEST(NumericalStabilityTest, CrossEntropyExtremeConfidentWrong) {
  Tensor logits = Tensor::FromData({1, 2}, {100.0f, -100.0f}, true);
  Tensor loss = tensor::CrossEntropyLoss(logits, {1});
  EXPECT_TRUE(std::isfinite(loss.item()));
  EXPECT_GT(loss.item(), 50.0f);
  loss.Backward();
  for (float g : logits.grad()) EXPECT_TRUE(std::isfinite(g));
}

TEST(NumericalStabilityTest, DistillKlTinyTemperature) {
  Tensor t = Tensor::FromData({2, 2}, {3, -3, 1, -1});
  Tensor s = Tensor::FromData({2, 2}, {-3, 3, -1, 1}, true);
  Tensor loss = tensor::DistillKlLoss(t, s, 0.1f);
  EXPECT_TRUE(std::isfinite(loss.item()));
  loss.Backward();
  for (float g : s.grad()) EXPECT_TRUE(std::isfinite(g));
}

TEST(NumericalStabilityTest, LayerNormConstantRow) {
  // Zero variance row: eps must keep the output finite.
  Tensor x = Tensor::Full({1, 4}, 3.0f, true);
  Tensor gamma = Tensor::Full({4}, 1.0f);
  Tensor beta = Tensor::Zeros({4});
  Tensor y = tensor::LayerNormOp(x, gamma, beta);
  for (float v : y.data()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_NEAR(v, 0.0f, 1e-3f);
  }
  tensor::Sum(y).Backward();
  for (float g : x.grad()) EXPECT_TRUE(std::isfinite(g));
}

TEST(BoundaryShapeTest, ConvKernelEqualsSequenceLength) {
  Tensor x = Tensor::FromData({1, 3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor w = Tensor::Zeros({1, 6});
  Tensor b = Tensor::Zeros({1});
  Tensor y = tensor::Conv1dSeq(x, w, b, 3);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 1, 1}));
}

TEST(BoundaryShapeTest, SingleSampleBatchThroughDistillation) {
  // PairwiseSquaredDistances on a 1-row batch is a 1x1 zero matrix; the
  // losses must stay finite.
  Tensor t = Tensor::FromData({1, 4}, {1, 2, 3, 4});
  Tensor s = Tensor::FromData({1, 4}, {4, 3, 2, 1}, true);
  Tensor m_t = tensor::PairwiseSquaredDistances(t);
  Tensor m_s = tensor::PairwiseSquaredDistances(s);
  EXPECT_FLOAT_EQ(m_t.at(0), 0.0f);
  Tensor loss = tensor::DistillKlLoss(m_t, m_s, 2.0f);
  EXPECT_TRUE(std::isfinite(loss.item()));
}

TEST(BoundaryShapeTest, BatchSizeOneEverywhere) {
  Tensor x = Tensor::FromData({1, 2}, {0.3f, -0.3f}, true);
  Tensor sm = tensor::Softmax(x);
  EXPECT_NEAR(sm.at(0) + sm.at(1), 1.0f, 1e-6f);
  Tensor ce = tensor::CrossEntropyLoss(x, {0});
  EXPECT_TRUE(std::isfinite(ce.item()));
}

TEST(SerializeRobustnessTest, TruncatedFileRejected) {
  const std::string path = ::testing::TempDir() + "/trunc.bin";
  std::map<std::string, Tensor> params;
  params["w"] = Tensor::FromData({64}, std::vector<float>(64, 1.0f));
  ASSERT_TRUE(tensor::SaveTensors(params, path).ok());
  // Truncate the file in the middle of the payload.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  }
  auto loaded = tensor::LoadTensors(path);
  EXPECT_FALSE(loaded.ok());
}

TEST(SerializeRobustnessTest, GarbageMagicRejected) {
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "not a tensor file at all";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  auto loaded = tensor::LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(GeneratorEdgeTest, TinyScaleKeepsEveryCellPopulated) {
  // Even at an absurdly small scale every (domain, label) cell keeps at
  // least 8 samples so metrics never divide by zero.
  data::NewsDataset ds =
      data::GenerateCorpus(data::Weibo21Config(0.001, 3));
  auto stats = ds.DomainStats();
  for (const auto& s : stats) {
    EXPECT_GE(s.fake, 8);
    EXPECT_GE(s.total - s.fake, 8);
  }
}

TEST(GeneratorEdgeTest, ZeroAmbiguityAndFullAmbiguity) {
  data::CorpusConfig config = data::MicroConfig(9);
  config.ambiguous_frac = 0.0;
  data::NewsDataset none = data::GenerateCorpus(config);
  config.ambiguous_frac = 1.0;
  config.seed = 9;  // same seed, different regime
  data::NewsDataset all = data::GenerateCorpus(config);
  // With full ambiguity no veracity cues exist at all.
  auto count_cues = [](const data::NewsDataset& ds) {
    int64_t cues = 0;
    for (const auto& s : ds.samples) {
      for (int id : s.tokens) {
        const auto kind = ds.vocab->KindOf(id);
        if (kind == text::TokenKind::kFakeCue ||
            kind == text::TokenKind::kRealCue) {
          ++cues;
        }
      }
    }
    return cues;
  };
  EXPECT_EQ(count_cues(all), 0);
  EXPECT_GT(count_cues(none), 0);
}

TEST(TsneEdgeTest, MinimalPointCount) {
  // Smallest n the implementation accepts with a tiny perplexity.
  Rng rng(5);
  std::vector<float> x;
  for (int i = 0; i < 7 * 3; ++i) {
    x.push_back(static_cast<float>(rng.Normal(0.0, 1.0)));
  }
  eval::TsneOptions opts;
  opts.perplexity = 2.0;
  opts.iterations = 50;
  auto y = eval::RunTsne(x, 7, 3, opts);
  ASSERT_EQ(y.size(), 14u);
  for (double v : y) EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace dtdbd
