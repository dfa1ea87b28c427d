#include "dtdbd/trainer.h"

#include "common/logging.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/optim.h"
#include "train/loop.h"

namespace dtdbd {

using tensor::Tensor;

namespace {

// Runs `model` in eval mode without autograd over `dataset` in index order,
// handing each batch and its output to `sink`. Callers have already
// rejected a null model, an empty dataset and a non-positive batch_size.
template <typename Sink>
void ForEachEvalBatch(models::FakeNewsModel* model,
                      const data::NewsDataset& dataset, int64_t batch_size,
                      Sink sink) {
  tensor::NoGradGuard no_grad;
  data::DataLoader loader(&dataset, batch_size, /*shuffle=*/false, 0);
  for (int64_t b = 0; b < loader.num_batches(); ++b) {
    const data::Batch batch = loader.GetBatch(b);
    sink(batch, model->Forward(batch, /*training=*/false));
  }
}

// One output field of `model` over `dataset`, row-major [N, width].
std::vector<float> StackOutputRows(models::FakeNewsModel* model,
                                   const data::NewsDataset& dataset,
                                   int64_t batch_size,
                                   Tensor models::ModelOutput::*field,
                                   int64_t width) {
  DTDBD_CHECK(model != nullptr);
  if (dataset.size() == 0 || batch_size <= 0) return {};
  std::vector<float> rows;
  rows.reserve(dataset.size() * width);
  ForEachEvalBatch(model, dataset, batch_size,
                   [&](const data::Batch&, const models::ModelOutput& out) {
                     const Tensor& t = out.*field;
                     DTDBD_CHECK_EQ(t.dim(1), width);
                     rows.insert(rows.end(), t.data().begin(),
                                 t.data().end());
                   });
  return rows;
}

}  // namespace

std::vector<Tensor> TrainableParams(models::FakeNewsModel* model) {
  std::vector<Tensor> params;
  for (auto& p : model->Parameters()) {
    if (p.requires_grad()) params.push_back(p);
  }
  DTDBD_CHECK(!params.empty()) << model->name() << " has no trainable params";
  return params;
}

TrainResult TrainSupervised(models::FakeNewsModel* model,
                            const data::NewsDataset& train,
                            const data::NewsDataset* val,
                            const TrainOptions& options) {
  DTDBD_CHECK(model != nullptr);
  tensor::Adam optimizer(TrainableParams(model), options.lr, 0.9f, 0.999f,
                         1e-8f, options.weight_decay);
  data::DataLoader loader(&train, options.batch_size, /*shuffle=*/true,
                          options.seed);
  std::vector<Rng*> rngs;
  model->CollectRngs(&rngs);

  TrainResult result;
  train::LoopHooks hooks;
  // Eq. 11 for DAT-IE when both domain weights are positive.
  hooks.batch_loss = [&](const std::vector<int64_t>& indices) {
    const data::Batch batch = data::MakeBatch(train, indices);
    models::ModelOutput out = model->Forward(batch, /*training=*/true);
    Tensor loss = tensor::CrossEntropyLoss(out.logits, batch.labels);
    if (out.domain_logits.defined() && options.domain_loss_weight > 0.0f) {
      Tensor domain_ce =
          tensor::CrossEntropyLoss(out.domain_logits, batch.domains);
      loss = tensor::Add(
          loss, tensor::ScalarMul(domain_ce, options.domain_loss_weight));
      if (options.entropy_loss_weight > 0.0f) {
        Tensor ie = tensor::NegativeEntropyLoss(out.domain_logits);
        loss = tensor::Add(
            loss, tensor::ScalarMul(ie, options.entropy_loss_weight));
      }
    }
    return train::BatchLoss{loss, {}};
  };
  hooks.epoch_end = [&](int epoch, double loss, const std::vector<double>&) {
    result.train_loss_per_epoch.push_back(loss);
    if (val != nullptr) {
      result.val_reports.push_back(EvaluateModel(model, *val));
    }
    if (options.verbose) {
      DTDBD_LOG(Info) << model->name() << " epoch " << epoch
                      << " loss=" << loss
                      << (val != nullptr
                              ? " val " + result.val_reports.back().Summary()
                              : "");
    }
  };
  result.status = train::RunTrainingLoop(
      train::MakeLoopSpec("supervised", model->name(), options),
      model->NamedParameters(), &optimizer, rngs, &loader, hooks);
  return result;
}

std::vector<int> Predict(models::FakeNewsModel* model,
                         const data::NewsDataset& dataset,
                         int64_t batch_size) {
  const std::vector<float> probs =
      PredictFakeProbability(model, dataset, batch_size);
  std::vector<int> preds(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    preds[i] = probs[i] >= 0.5f ? data::kFake : data::kReal;
  }
  return preds;
}

metrics::EvalReport EvaluateModel(models::FakeNewsModel* model,
                                  const data::NewsDataset& dataset,
                                  int64_t batch_size) {
  if (dataset.size() == 0 || batch_size <= 0) return metrics::EvalReport{};
  // One forward pass yields both the scores (for AUC) and the thresholded
  // predictions (for the confusion metrics).
  const std::vector<float> probs =
      PredictFakeProbability(model, dataset, batch_size);
  std::vector<int> preds(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    preds[i] = probs[i] >= 0.5f ? data::kFake : data::kReal;
  }
  std::vector<int> labels, domains;
  labels.reserve(dataset.size());
  domains.reserve(dataset.size());
  for (const auto& s : dataset.samples) {
    labels.push_back(s.label);
    domains.push_back(s.domain);
  }
  return metrics::Evaluate(preds, labels, domains, dataset.num_domains(),
                           probs);
}

std::vector<float> PredictFakeProbability(models::FakeNewsModel* model,
                                          const data::NewsDataset& dataset,
                                          int64_t batch_size) {
  DTDBD_CHECK(model != nullptr);
  if (dataset.size() == 0 || batch_size <= 0) return {};
  std::vector<float> probs;
  probs.reserve(dataset.size());
  ForEachEvalBatch(model, dataset, batch_size,
                   [&](const data::Batch& batch,
                       const models::ModelOutput& out) {
                     Tensor p = tensor::Softmax(out.logits);
                     for (int64_t i = 0; i < batch.batch_size; ++i) {
                       probs.push_back(p.at(i * 2 + data::kFake));
                     }
                   });
  return probs;
}

std::vector<float> ExtractFeatures(models::FakeNewsModel* model,
                                   const data::NewsDataset& dataset,
                                   int64_t batch_size) {
  DTDBD_CHECK(model != nullptr);
  return StackOutputRows(model, dataset, batch_size,
                         &models::ModelOutput::features,
                         model->feature_dim());
}

std::vector<float> ExtractLogits(models::FakeNewsModel* model,
                                 const data::NewsDataset& dataset,
                                 int64_t batch_size) {
  return StackOutputRows(model, dataset, batch_size,
                         &models::ModelOutput::logits, /*width=*/2);
}

Tensor GatherRows(const std::vector<float>& table, int64_t width,
                  const std::vector<int64_t>& indices) {
  DTDBD_CHECK_GT(width, 0);
  DTDBD_CHECK_EQ(static_cast<int64_t>(table.size()) % width, 0);
  const int64_t n = static_cast<int64_t>(table.size()) / width;
  std::vector<float> rows;
  rows.reserve(indices.size() * width);
  for (int64_t idx : indices) {
    DTDBD_CHECK_GE(idx, 0);
    DTDBD_CHECK_LT(idx, n);
    rows.insert(rows.end(), table.begin() + idx * width,
                table.begin() + (idx + 1) * width);
  }
  return Tensor::FromData({static_cast<int64_t>(indices.size()), width},
                          std::move(rows));
}

}  // namespace dtdbd
