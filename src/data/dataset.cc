#include "data/dataset.h"

#include <algorithm>
#include <map>
#include <numeric>

namespace dtdbd::data {

std::vector<NewsDataset::DomainStat> NewsDataset::DomainStats() const {
  std::vector<DomainStat> stats(num_domains());
  for (const auto& s : samples) {
    DTDBD_CHECK_GE(s.domain, 0);
    DTDBD_CHECK_LT(s.domain, num_domains());
    ++stats[s.domain].total;
    if (s.label == kFake) ++stats[s.domain].fake;
  }
  return stats;
}

DatasetSplits StratifiedSplit(const NewsDataset& dataset, double train_frac,
                              double val_frac, Rng* rng) {
  DTDBD_CHECK(rng != nullptr);
  DTDBD_CHECK_GT(train_frac, 0.0);
  DTDBD_CHECK_GE(val_frac, 0.0);
  DTDBD_CHECK_LT(train_frac + val_frac, 1.0 + 1e-9);

  auto clone_meta = [&dataset]() {
    NewsDataset d;
    d.vocab = dataset.vocab;
    d.domain_names = dataset.domain_names;
    d.seq_len = dataset.seq_len;
    return d;
  };
  DatasetSplits splits{clone_meta(), clone_meta(), clone_meta()};

  // Group indices by (domain, label) and split each group proportionally.
  std::map<std::pair<int, int>, std::vector<int64_t>> groups;
  for (int64_t i = 0; i < dataset.size(); ++i) {
    const auto& s = dataset.samples[i];
    groups[{s.domain, s.label}].push_back(i);
  }
  for (auto& [key, indices] : groups) {
    rng->Shuffle(&indices);
    const int64_t n = static_cast<int64_t>(indices.size());
    const int64_t n_train = static_cast<int64_t>(n * train_frac);
    const int64_t n_val = static_cast<int64_t>(n * val_frac);
    for (int64_t i = 0; i < n; ++i) {
      const NewsSample& s = dataset.samples[indices[i]];
      if (i < n_train) {
        splits.train.samples.push_back(s);
      } else if (i < n_train + n_val) {
        splits.val.samples.push_back(s);
      } else {
        splits.test.samples.push_back(s);
      }
    }
  }
  return splits;
}

Batch MakeBatch(const NewsDataset& dataset,
                const std::vector<int64_t>& indices) {
  DTDBD_CHECK(!indices.empty());
  Batch batch;
  batch.batch_size = static_cast<int64_t>(indices.size());
  batch.seq_len = dataset.seq_len;
  batch.tokens.reserve(batch.batch_size * batch.seq_len);
  std::vector<float> style;
  std::vector<float> emotion;
  for (int64_t idx : indices) {
    DTDBD_CHECK_GE(idx, 0);
    DTDBD_CHECK_LT(idx, dataset.size());
    const NewsSample& s = dataset.samples[idx];
    DTDBD_CHECK_EQ(static_cast<int64_t>(s.tokens.size()), dataset.seq_len);
    batch.tokens.insert(batch.tokens.end(), s.tokens.begin(), s.tokens.end());
    batch.labels.push_back(s.label);
    batch.domains.push_back(s.domain);
    style.insert(style.end(), s.style.begin(), s.style.end());
    emotion.insert(emotion.end(), s.emotion.begin(), s.emotion.end());
  }
  batch.style = tensor::Tensor::FromData(
      {batch.batch_size, text::kStyleFeatureDim}, std::move(style));
  batch.emotion = tensor::Tensor::FromData(
      {batch.batch_size, text::kEmotionFeatureDim}, std::move(emotion));
  return batch;
}

DataLoader::DataLoader(const NewsDataset* dataset, int64_t batch_size,
                       bool shuffle, uint64_t seed)
    : dataset_(dataset),
      batch_size_(batch_size),
      shuffle_(shuffle),
      rng_(seed) {
  DTDBD_CHECK(dataset_ != nullptr);
  DTDBD_CHECK_GT(batch_size_, 0);
  order_.resize(dataset_->size());
  std::iota(order_.begin(), order_.end(), 0);
  if (shuffle_) rng_.Shuffle(&order_);
}

void DataLoader::NewEpoch() {
  if (shuffle_) rng_.Shuffle(&order_);
}

DataLoader::State DataLoader::GetState() const {
  return State{rng_.GetState(), order_};
}

Status DataLoader::SetState(const State& state) {
  if (static_cast<int64_t>(state.order.size()) != dataset_->size()) {
    return Status::InvalidArgument(
        "loader state holds " + std::to_string(state.order.size()) +
        " indices, dataset has " + std::to_string(dataset_->size()));
  }
  std::vector<bool> seen(state.order.size(), false);
  for (int64_t idx : state.order) {
    if (idx < 0 || idx >= dataset_->size() || seen[idx]) {
      return Status::InvalidArgument("loader state is not a permutation");
    }
    seen[idx] = true;
  }
  rng_.SetState(state.rng);
  order_ = state.order;
  return Status::Ok();
}

int64_t DataLoader::num_batches() const {
  return (dataset_->size() + batch_size_ - 1) / batch_size_;
}

std::vector<int64_t> DataLoader::BatchIndices(int64_t index) const {
  DTDBD_CHECK_GE(index, 0);
  DTDBD_CHECK_LT(index, num_batches());
  const int64_t begin = index * batch_size_;
  const int64_t end = std::min(begin + batch_size_, dataset_->size());
  return std::vector<int64_t>(order_.begin() + begin, order_.begin() + end);
}

Batch DataLoader::GetBatch(int64_t index) const {
  return MakeBatch(*dataset_, BatchIndices(index));
}

}  // namespace dtdbd::data
