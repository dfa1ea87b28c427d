#include "dtdbd/trainer.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/optim.h"
#include "train/checkpoint.h"

namespace dtdbd {

using tensor::Tensor;

namespace {

// Only trainable parameters go to the optimizer (frozen encoders and
// teachers keep requires_grad = false and are skipped upstream).
std::vector<Tensor> TrainableParams(models::FakeNewsModel* model) {
  std::vector<Tensor> params;
  for (auto& p : model->Parameters()) {
    if (p.requires_grad()) params.push_back(p);
  }
  DTDBD_CHECK(!params.empty()) << model->name() << " has no trainable params";
  return params;
}

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

TrainResult TrainSupervised(models::FakeNewsModel* model,
                            const data::NewsDataset& train,
                            const data::NewsDataset* val,
                            const TrainOptions& options) {
  DTDBD_CHECK(model != nullptr);
  DTDBD_CHECK_GT(train.size(), 0);
  DTDBD_CHECK_GT(options.batch_size, 0);
  TrainResult result;
  tensor::Adam optimizer(TrainableParams(model), options.lr, 0.9f, 0.999f,
                         1e-8f, options.weight_decay);
  data::DataLoader loader(&train, options.batch_size, /*shuffle=*/true,
                          options.seed);
  std::map<std::string, Tensor> named = model->NamedParameters();
  std::vector<Rng*> rngs;
  model->CollectRngs(&rngs);

  int epoch = 0;
  if (!options.resume_from.empty()) {
    auto loaded = train::LoadCheckpoint(options.resume_from);
    if (!loaded.ok()) {
      result.status = loaded.status();
      return result;
    }
    const train::CheckpointState& state = loaded.value();
    if (state.kind != "supervised") {
      result.status = Status::InvalidArgument(
          "cannot resume supervised training from a '" + state.kind +
          "' checkpoint");
      return result;
    }
    result.status =
        train::ApplyToTraining(state, &named, &optimizer, rngs, &loader);
    if (!result.status.ok()) return result;
    epoch = static_cast<int>(state.epochs_done);
    if (options.verbose) {
      DTDBD_LOG(Info) << model->name() << " resumed at epoch " << epoch
                      << " from " << options.resume_from;
    }
  }

  train::TrainingGuard guard(options.guard);
  // Rollback target for divergence recovery; refreshed at epoch boundaries.
  train::CheckpointState last_good =
      train::CaptureState("supervised", epoch, named, optimizer, rngs, loader);
  int64_t global_step = static_cast<int64_t>(epoch) * loader.num_batches();

  while (epoch < options.epochs) {
    loader.NewEpoch();
    double epoch_loss = 0.0;
    bool redo_epoch = false;
    for (int64_t b = 0; b < loader.num_batches(); ++b, ++global_step) {
      if (options.fault_injector != nullptr &&
          options.fault_injector->ShouldAbort(global_step)) {
        result.status =
            Status::Internal("simulated crash (fault injector) at step " +
                             std::to_string(global_step));
        return result;
      }
      const data::Batch batch = loader.GetBatch(b);
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
      optimizer.ZeroGrad();
      loss.Backward();
      if (options.fault_injector != nullptr) {
        options.fault_injector->MaybeCorruptGradients(global_step,
                                                      optimizer.params());
      }
      const auto verdict = guard.Inspect(loss.item(), optimizer.params());
      if (verdict == train::TrainingGuard::Verdict::kOk) {
        tensor::ClipGradNorm(optimizer.params(), options.grad_clip);
        optimizer.Step();
        epoch_loss += loss.item();
      } else if (verdict == train::TrainingGuard::Verdict::kSkip) {
        DTDBD_LOG(Warning) << model->name() << " skipped non-finite step "
                           << global_step;
      } else if (verdict == train::TrainingGuard::Verdict::kRollback) {
        Status s =
            train::ApplyToTraining(last_good, &named, &optimizer, rngs, &loader);
        DTDBD_CHECK(s.ok()) << s.ToString();
        optimizer.set_lr(optimizer.lr() * options.guard.rollback_lr_decay);
        guard.OnRollback();
        DTDBD_LOG(Warning) << model->name() << " rolled back to epoch "
                           << last_good.epochs_done << ", lr reduced to "
                           << optimizer.lr();
        epoch = static_cast<int>(last_good.epochs_done);
        redo_epoch = true;
        break;
      } else {  // kGiveUp
        result.status = Status::Internal(
            "training diverged: " + std::to_string(guard.skipped_steps()) +
            " non-finite steps, rollback budget exhausted");
        return result;
      }
    }
    if (redo_epoch) continue;
    epoch_loss /= static_cast<double>(loader.num_batches());
    result.train_loss_per_epoch.push_back(epoch_loss);
    if (val != nullptr) {
      result.val_reports.push_back(EvaluateModel(model, *val));
    }
    if (options.verbose) {
      DTDBD_LOG(Info) << model->name() << " epoch " << epoch
                      << " loss=" << epoch_loss
                      << (val != nullptr
                              ? " val " + result.val_reports.back().Summary()
                              : "");
    }
    ++epoch;
    last_good = train::CaptureState("supervised", epoch, named, optimizer,
                                    rngs, loader);
    if (!options.checkpoint_path.empty() && options.checkpoint_every > 0 &&
        (epoch % options.checkpoint_every == 0 || epoch == options.epochs)) {
      Status s = train::SaveCheckpoint(last_good, options.checkpoint_path);
      if (!s.ok()) {
        DTDBD_LOG(Error) << "checkpoint save failed: " << s.ToString();
      }
    }
  }
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
