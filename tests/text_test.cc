#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "text/features.h"
#include "text/frozen_encoder.h"
#include "text/vocab.h"

namespace dtdbd::text {
namespace {

Vocab::Config SmallConfig() {
  Vocab::Config c;
  c.num_domains = 3;
  c.fake_cues = 4;
  c.real_cues = 4;
  c.topic_tokens_per_domain = 5;
  c.style_tokens = 3;
  c.emotion_tokens = 3;
  c.noise_tokens = 6;
  return c;
}

TEST(VocabTest, SizeIsSumOfBlocks) {
  Vocab vocab(SmallConfig());
  EXPECT_EQ(vocab.size(), 1 + 4 + 4 + 3 * 5 + 3 + 3 + 3 + 3 + 6);
}

TEST(VocabTest, KindRoundTrips) {
  Vocab vocab(SmallConfig());
  EXPECT_EQ(vocab.KindOf(vocab.pad_id()), TokenKind::kPad);
  EXPECT_EQ(vocab.KindOf(vocab.FakeCue(0)), TokenKind::kFakeCue);
  EXPECT_EQ(vocab.KindOf(vocab.FakeCue(3)), TokenKind::kFakeCue);
  EXPECT_EQ(vocab.KindOf(vocab.RealCue(0)), TokenKind::kRealCue);
  EXPECT_EQ(vocab.KindOf(vocab.Topic(0, 0)), TokenKind::kTopic);
  EXPECT_EQ(vocab.KindOf(vocab.Topic(2, 4)), TokenKind::kTopic);
  EXPECT_EQ(vocab.KindOf(vocab.Sensational(1)),
            TokenKind::kSensationalStyle);
  EXPECT_EQ(vocab.KindOf(vocab.Neutral(2)), TokenKind::kNeutralStyle);
  EXPECT_EQ(vocab.KindOf(vocab.PositiveEmotion(0)),
            TokenKind::kPositiveEmotion);
  EXPECT_EQ(vocab.KindOf(vocab.NegativeEmotion(0)),
            TokenKind::kNegativeEmotion);
  EXPECT_EQ(vocab.KindOf(vocab.Noise(5)), TokenKind::kNoise);
}

TEST(VocabTest, TopicDomainRoundTrips) {
  Vocab vocab(SmallConfig());
  for (int d = 0; d < 3; ++d) {
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(vocab.TopicDomainOf(vocab.Topic(d, i)), d);
    }
  }
}

TEST(VocabTest, AllIdsDistinct) {
  Vocab vocab(SmallConfig());
  std::vector<int> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(vocab.FakeCue(i));
  for (int i = 0; i < 4; ++i) ids.push_back(vocab.RealCue(i));
  for (int d = 0; d < 3; ++d) {
    for (int i = 0; i < 5; ++i) ids.push_back(vocab.Topic(d, i));
  }
  for (int i = 0; i < 3; ++i) ids.push_back(vocab.Sensational(i));
  for (int i = 0; i < 3; ++i) ids.push_back(vocab.Neutral(i));
  for (int i = 0; i < 3; ++i) ids.push_back(vocab.PositiveEmotion(i));
  for (int i = 0; i < 3; ++i) ids.push_back(vocab.NegativeEmotion(i));
  for (int i = 0; i < 6; ++i) ids.push_back(vocab.Noise(i));
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  EXPECT_EQ(static_cast<int>(ids.size()) + 1, vocab.size());
}

TEST(VocabTest, TokenNames) {
  Vocab vocab(SmallConfig());
  EXPECT_EQ(vocab.TokenName(vocab.pad_id()), "<pad>");
  EXPECT_EQ(vocab.TokenName(vocab.FakeCue(2)), "fake_cue_2");
  EXPECT_EQ(vocab.TokenName(vocab.Topic(1, 3)), "topic_d1_3");
}

TEST(VocabDeathTest, OutOfRange) {
  Vocab vocab(SmallConfig());
  EXPECT_DEATH(vocab.FakeCue(4), "");
  EXPECT_DEATH(vocab.Topic(3, 0), "");
  EXPECT_DEATH(vocab.KindOf(vocab.size()), "");
}

TEST(FeaturesTest, StyleCountsSensationalRate) {
  Vocab vocab(SmallConfig());
  std::vector<int> tokens = {vocab.Sensational(0), vocab.Sensational(1),
                             vocab.Neutral(0), vocab.Noise(0)};
  auto f = StyleFeatures(vocab, tokens);
  ASSERT_EQ(static_cast<int>(f.size()), kStyleFeatureDim);
  EXPECT_FLOAT_EQ(f[0], 0.5f);   // sensational rate
  EXPECT_FLOAT_EQ(f[1], 0.25f);  // neutral rate
  EXPECT_FLOAT_EQ(f[4], 0.0f);   // no padding
}

TEST(FeaturesTest, EmotionPolarity) {
  Vocab vocab(SmallConfig());
  std::vector<int> all_neg = {vocab.NegativeEmotion(0),
                              vocab.NegativeEmotion(1)};
  auto f = EmotionFeatures(vocab, all_neg);
  EXPECT_FLOAT_EQ(f[0], 0.0f);
  EXPECT_FLOAT_EQ(f[1], 1.0f);
  EXPECT_FLOAT_EQ(f[3], -1.0f);  // fully negative polarity balance

  std::vector<int> balanced = {vocab.PositiveEmotion(0),
                               vocab.NegativeEmotion(0)};
  EXPECT_FLOAT_EQ(EmotionFeatures(vocab, balanced)[3], 0.0f);
}

TEST(FeaturesTest, EmptyOrAllPadIsZero) {
  Vocab vocab(SmallConfig());
  std::vector<int> pads(4, vocab.pad_id());
  auto style = StyleFeatures(vocab, pads);
  for (int i = 0; i < kStyleFeatureDim; ++i) {
    if (i == 4) continue;  // padding ratio = 1
    EXPECT_FLOAT_EQ(style[i], 0.0f);
  }
  EXPECT_FLOAT_EQ(style[4], 1.0f);
}

TEST(FrozenEncoderTest, DeterministicAcrossInstances) {
  Vocab vocab(SmallConfig());
  FrozenEncoder a(vocab.size(), 8, 99);
  FrozenEncoder b(vocab.size(), 8, 99);
  std::vector<int> ids = {1, 5, 3, 2};
  auto ya = a.Encode(ids, 1, 4);
  auto yb = b.Encode(ids, 1, 4);
  EXPECT_EQ(ya.data(), yb.data());
}

TEST(FrozenEncoderTest, DifferentSeedsDiffer) {
  Vocab vocab(SmallConfig());
  FrozenEncoder a(vocab.size(), 8, 1);
  FrozenEncoder b(vocab.size(), 8, 2);
  std::vector<int> ids = {1, 5, 3, 2};
  EXPECT_NE(a.Encode(ids, 1, 4).data(), b.Encode(ids, 1, 4).data());
}

TEST(FrozenEncoderTest, OutputDetachedAndBounded) {
  Vocab vocab(SmallConfig());
  FrozenEncoder enc(vocab.size(), 8, 3);
  auto y = enc.Encode({1, 2, 3, 4, 5, 6}, 2, 3);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 3, 8}));
  EXPECT_FALSE(y.requires_grad());
  for (float v : y.data()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(FrozenEncoderTest, ContextSensitivity) {
  // The same token id should encode differently next to different
  // neighbors (the encoder is mildly contextual, like BERT activations).
  Vocab vocab(SmallConfig());
  FrozenEncoder enc(vocab.size(), 8, 4);
  auto a = enc.Encode({5, 1, 6}, 1, 3);
  auto b = enc.Encode({7, 1, 8}, 1, 3);
  float diff = 0.0f;
  for (int j = 0; j < 8; ++j) {
    diff += std::abs(a.at(8 + j) - b.at(8 + j));  // middle token features
  }
  EXPECT_GT(diff, 1e-4f);
}

// FNV-1a (64-bit) over the output's float bit patterns, byte-wise.
uint64_t OutputBitsHash(const tensor::Tensor& t) {
  uint64_t h = 1469598103934665603ULL;
  for (float v : t.data()) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 4; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// Golden encoder output: recorded on the scalar encoder before the mix
// gained a vector path. Any change that moves one output bit, with SIMD on
// or with DTDBD_NO_SIMD=1, changes these hashes.
TEST(FrozenEncoderTest, GoldenOutputHash) {
  Vocab vocab(SmallConfig());
  std::vector<int> ids(4 * 9);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<int>((i * 7 + 3) % static_cast<size_t>(vocab.size()));
  }
  FrozenEncoder wide(vocab.size(), 32, 2024);
  FrozenEncoder narrow(vocab.size(), 8, 2024);
  EXPECT_EQ(OutputBitsHash(wide.Encode(ids, 4, 9)), 0xffa83f46016a0fcfULL);
  EXPECT_EQ(OutputBitsHash(narrow.Encode(ids, 4, 9)), 0x7dacd0a9ab7f1c13ULL);
  // Length-1 sequences have no neighbours (count == 0 path).
  EXPECT_EQ(OutputBitsHash(wide.Encode({1, 2, 3}, 3, 1)), 0xfab0e89e8131991aULL);
}

}  // namespace
}  // namespace dtdbd::text
