// Multi-domain news dataset containers, stratified splitting, and
// mini-batch loading.
#ifndef DTDBD_DATA_DATASET_H_
#define DTDBD_DATA_DATASET_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "tensor/tensor.h"
#include "text/features.h"
#include "text/vocab.h"

namespace dtdbd::data {

// Label convention follows the paper: 0 = real, 1 = fake.
inline constexpr int kReal = 0;
inline constexpr int kFake = 1;

struct NewsSample {
  std::vector<int> tokens;     // fixed length seq_len, PAD-padded
  int domain = 0;
  int label = kReal;
  std::vector<float> style;    // text::kStyleFeatureDim
  std::vector<float> emotion;  // text::kEmotionFeatureDim
};

struct NewsDataset {
  std::shared_ptr<const text::Vocab> vocab;
  std::vector<std::string> domain_names;
  int seq_len = 0;
  std::vector<NewsSample> samples;

  int num_domains() const { return static_cast<int>(domain_names.size()); }
  int64_t size() const { return static_cast<int64_t>(samples.size()); }

  // Per-domain (total, fake) counts.
  struct DomainStat {
    int64_t total = 0;
    int64_t fake = 0;
  };
  std::vector<DomainStat> DomainStats() const;
};

struct DatasetSplits {
  NewsDataset train;
  NewsDataset val;
  NewsDataset test;
};

// Splits stratified by (domain, label) so every split preserves the
// domain/fake marginals that drive the bias phenomenon.
DatasetSplits StratifiedSplit(const NewsDataset& dataset, double train_frac,
                              double val_frac, Rng* rng);

// A materialized mini-batch. Token ids are row-major [batch_size, seq_len];
// the style/emotion views are ready-made feature tensors.
struct Batch {
  int64_t batch_size = 0;
  int64_t seq_len = 0;
  std::vector<int> tokens;
  std::vector<int> labels;
  std::vector<int> domains;
  tensor::Tensor style;    // [B, kStyleFeatureDim]
  tensor::Tensor emotion;  // [B, kEmotionFeatureDim]
};

// Builds a batch from explicit sample indices.
Batch MakeBatch(const NewsDataset& dataset,
                const std::vector<int64_t>& indices);

// Epoch-oriented shuffling batch iterator.
class DataLoader {
 public:
  // Full iteration state. The shuffle is in-place Fisher-Yates, so the next
  // epoch's order depends on both the RNG state and the current permutation;
  // checkpoints must capture both to replay the exact same batch sequence.
  struct State {
    Rng::State rng;
    std::vector<int64_t> order;
  };

  // The dataset must outlive the loader.
  DataLoader(const NewsDataset* dataset, int64_t batch_size, bool shuffle,
             uint64_t seed);

  // Reshuffles (when enabled); call once per epoch.
  void NewEpoch();

  State GetState() const;
  // Restores a captured state; fails if `state.order` is not a permutation
  // of this loader's dataset indices (checkpoint from a different dataset).
  Status SetState(const State& state);

  int64_t num_batches() const;
  // Dataset indices of batch `index` in this epoch's order.
  std::vector<int64_t> BatchIndices(int64_t index) const;
  // MakeBatch(dataset, BatchIndices(index)).
  Batch GetBatch(int64_t index) const;

 private:
  const NewsDataset* dataset_;
  int64_t batch_size_;
  bool shuffle_;
  Rng rng_;
  std::vector<int64_t> order_;
};

}  // namespace dtdbd::data

#endif  // DTDBD_DATA_DATASET_H_
