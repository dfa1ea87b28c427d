#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/generator.h"

namespace dtdbd::data {
namespace {

TEST(GeneratorTest, MicroCorpusExactCounts) {
  NewsDataset ds = GenerateCorpus(MicroConfig(1));
  auto stats = ds.DomainStats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].total, 160);
  EXPECT_EQ(stats[0].fake, 120);
  EXPECT_EQ(stats[1].total, 160);
  EXPECT_EQ(stats[1].fake, 40);
  EXPECT_EQ(stats[2].total, 160);
  EXPECT_EQ(stats[2].fake, 80);
}

TEST(GeneratorTest, Weibo21FullScaleMatchesPaperTableIV) {
  NewsDataset ds = GenerateCorpus(Weibo21Config(1.0, 7));
  ASSERT_EQ(ds.num_domains(), 9);
  auto stats = ds.DomainStats();
  // Paper Table IV counts, exactly.
  const int64_t fake[] = {93, 222, 248, 591, 546, 515, 362, 440, 1471};
  const int64_t total[] = {236, 343, 491, 776, 852, 1000, 1321, 1440, 2669};
  for (int d = 0; d < 9; ++d) {
    EXPECT_EQ(stats[d].fake, fake[d]) << ds.domain_names[d];
    EXPECT_EQ(stats[d].total, total[d]) << ds.domain_names[d];
  }
  EXPECT_EQ(ds.size(), 9128);
}

TEST(GeneratorTest, EnglishFullScaleMatchesPaperTableV) {
  NewsDataset ds = GenerateCorpus(EnglishConfig(1.0, 7));
  ASSERT_EQ(ds.num_domains(), 3);
  auto stats = ds.DomainStats();
  EXPECT_EQ(stats[0].fake, 5067);
  EXPECT_EQ(stats[0].total, 21871);
  EXPECT_EQ(stats[1].fake, 379);
  EXPECT_EQ(stats[1].total, 826);
  EXPECT_EQ(stats[2].fake, 1317);
  EXPECT_EQ(stats[2].total, 6067);
  EXPECT_EQ(ds.size(), 28764);
}

TEST(GeneratorTest, ScaleShrinksProportionally) {
  NewsDataset ds = GenerateCorpus(Weibo21Config(0.5, 7));
  auto stats = ds.DomainStats();
  EXPECT_NEAR(static_cast<double>(stats[8].fake), 1471 * 0.5, 2.0);
}

TEST(GeneratorTest, DeterministicForSeed) {
  NewsDataset a = GenerateCorpus(MicroConfig(5));
  NewsDataset b = GenerateCorpus(MicroConfig(5));
  ASSERT_EQ(a.size(), b.size());
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.samples[i].tokens, b.samples[i].tokens);
    EXPECT_EQ(a.samples[i].label, b.samples[i].label);
  }
}

TEST(GeneratorTest, TokensWithinVocabAndPadded) {
  NewsDataset ds = GenerateCorpus(MicroConfig(2));
  for (const auto& s : ds.samples) {
    ASSERT_EQ(static_cast<int>(s.tokens.size()), ds.seq_len);
    for (int id : s.tokens) {
      EXPECT_GE(id, 0);
      EXPECT_LT(id, ds.vocab->size());
    }
    ASSERT_EQ(static_cast<int>(s.style.size()), text::kStyleFeatureDim);
    ASSERT_EQ(static_cast<int>(s.emotion.size()), text::kEmotionFeatureDim);
  }
}

// Property over seeds: fake items carry more fake cues than real items on
// average (the learnable signal), and topic tokens concentrate on the
// sample's own domain (the spurious signal).
class GeneratorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorPropertyTest, CueAndTopicStatistics) {
  CorpusConfig config = MicroConfig(GetParam());
  NewsDataset ds = GenerateCorpus(config);
  double fake_cue_in_fake = 0.0, fake_cue_in_real = 0.0;
  int64_t fake_n = 0, real_n = 0;
  double own_topic = 0.0, other_topic = 0.0;
  for (const auto& s : ds.samples) {
    int fake_cues = 0;
    for (int id : s.tokens) {
      const auto kind = ds.vocab->KindOf(id);
      if (kind == text::TokenKind::kFakeCue) ++fake_cues;
      if (kind == text::TokenKind::kTopic) {
        if (ds.vocab->TopicDomainOf(id) == s.domain) {
          own_topic += 1.0;
        } else {
          other_topic += 1.0;
        }
      }
    }
    if (s.label == kFake) {
      fake_cue_in_fake += fake_cues;
      ++fake_n;
    } else {
      fake_cue_in_real += fake_cues;
      ++real_n;
    }
  }
  EXPECT_GT(fake_cue_in_fake / fake_n, 2.0 * fake_cue_in_real / real_n);
  EXPECT_GT(own_topic, 2.0 * other_topic);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST(SplitTest, PreservesMarginalsAndPartitions) {
  NewsDataset ds = GenerateCorpus(MicroConfig(3));
  Rng rng(4);
  DatasetSplits splits = StratifiedSplit(ds, 0.6, 0.2, &rng);
  EXPECT_EQ(splits.train.size() + splits.val.size() + splits.test.size(),
            ds.size());
  // Stratification: domain 0 is 75% fake in every split.
  for (const NewsDataset* part :
       {&splits.train, &splits.val, &splits.test}) {
    auto stats = part->DomainStats();
    const double rate =
        static_cast<double>(stats[0].fake) / stats[0].total;
    EXPECT_NEAR(rate, 0.75, 0.05);
  }
  // Rough sizes.
  EXPECT_NEAR(static_cast<double>(splits.train.size()) / ds.size(), 0.6,
              0.03);
  EXPECT_NEAR(static_cast<double>(splits.val.size()) / ds.size(), 0.2, 0.03);
}

TEST(BatchTest, MakeBatchContents) {
  NewsDataset ds = GenerateCorpus(MicroConfig(6));
  Batch batch = MakeBatch(ds, {0, 5, 7});
  EXPECT_EQ(batch.batch_size, 3);
  EXPECT_EQ(batch.seq_len, ds.seq_len);
  EXPECT_EQ(static_cast<int64_t>(batch.tokens.size()), 3 * ds.seq_len);
  EXPECT_EQ(batch.labels[1], ds.samples[5].label);
  EXPECT_EQ(batch.domains[2], ds.samples[7].domain);
  EXPECT_EQ(batch.style.shape(),
            (tensor::Shape{3, text::kStyleFeatureDim}));
  EXPECT_FLOAT_EQ(batch.style.at(text::kStyleFeatureDim),
                  ds.samples[5].style[0]);
}

TEST(DataLoaderTest, CoversAllSamplesOncePerEpoch) {
  NewsDataset ds = GenerateCorpus(MicroConfig(8));
  DataLoader loader(&ds, 32, /*shuffle=*/true, 5);
  std::multiset<int> label_counts;
  int64_t seen = 0;
  for (int64_t b = 0; b < loader.num_batches(); ++b) {
    seen += loader.GetBatch(b).batch_size;
  }
  EXPECT_EQ(seen, ds.size());
}

TEST(DataLoaderTest, ShuffleChangesOrderDeterministically) {
  NewsDataset ds = GenerateCorpus(MicroConfig(9));
  DataLoader a(&ds, 16, true, 42);
  DataLoader b(&ds, 16, true, 42);
  EXPECT_EQ(a.GetBatch(0).labels, b.GetBatch(0).labels);
  DataLoader c(&ds, 16, true, 43);
  // Different seed: overwhelmingly likely to produce a different first batch.
  EXPECT_NE(a.GetBatch(0).tokens, c.GetBatch(0).tokens);
}

TEST(DataLoaderTest, GetBatchIsMakeBatchOfBatchIndices) {
  NewsDataset ds = GenerateCorpus(MicroConfig(11));
  DataLoader loader(&ds, 13, /*shuffle=*/true, 4);
  loader.NewEpoch();
  for (int64_t b = 0; b < loader.num_batches(); ++b) {
    const Batch got = loader.GetBatch(b);
    const Batch want = MakeBatch(ds, loader.BatchIndices(b));
    EXPECT_EQ(got.batch_size, want.batch_size);
    EXPECT_EQ(got.seq_len, want.seq_len);
    EXPECT_EQ(got.tokens, want.tokens);
    EXPECT_EQ(got.labels, want.labels);
    EXPECT_EQ(got.domains, want.domains);
    EXPECT_EQ(got.style.shape(), want.style.shape());
    EXPECT_EQ(got.style.data(), want.style.data());
    EXPECT_EQ(got.emotion.shape(), want.emotion.shape());
    EXPECT_EQ(got.emotion.data(), want.emotion.data());
  }
}

TEST(DataLoaderTest, NoShuffleIsIdentityOrder) {
  NewsDataset ds = GenerateCorpus(MicroConfig(10));
  DataLoader loader(&ds, 7, false, 0);
  Batch batch = loader.GetBatch(0);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(batch.labels[i], ds.samples[i].label);
  }
}

}  // namespace
}  // namespace dtdbd::data
