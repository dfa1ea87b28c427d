// Generic supervised training and evaluation over FakeNewsModel.
//
// Handles every baseline of the paper's tables: models that expose a
// domain head (EANN, EDDFN, DAT wrappers) automatically get the domain
// cross-entropy term; gradient reversal inside the model turns it into
// adversarial training.
//
// TrainSupervised supplies the objective to the fault-tolerant epoch loop
// shared with TrainDtdbd (train/loop.h: per-epoch checkpoints, bitwise
// resume, NaN-step skip, rollback with a reduced learning rate).
#ifndef DTDBD_DTDBD_TRAINER_H_
#define DTDBD_DTDBD_TRAINER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "metrics/metrics.h"
#include "models/model.h"
#include "train/fault_injector.h"
#include "train/guard.h"

namespace dtdbd {

struct TrainOptions {
  int epochs = 3;
  int64_t batch_size = 32;
  float lr = 1e-3f;
  float weight_decay = 0.0f;
  float grad_clip = 5.0f;
  // Weight on the domain-classification loss when the model emits domain
  // logits (alpha in DTDBD Eq. 11; EANN/EDDFN adversarial weight).
  float domain_loss_weight = 0.0f;
  // Weight on the information-entropy term (beta in Eq. 11). The paper
  // sets beta = 0.2 * alpha for DAT-IE; 0 recovers plain DAT.
  float entropy_loss_weight = 0.0f;
  uint64_t seed = 1234;
  bool verbose = false;

  // --- Fault tolerance (src/train/) ---
  // When non-empty, an atomic checkpoint is written here after every epoch.
  std::string checkpoint_path;
  // When non-empty, the full training state (parameters, Adam moments,
  // RNG streams, loader order, epoch counter) is restored from this file
  // before the first step; the resumed trajectory is bitwise identical to
  // an uninterrupted run. On failure the result carries a non-ok status
  // and no training happens.
  std::string resume_from;
  train::GuardOptions guard;
  // Test hook for fault-injection tests; not owned. May be null.
  train::FaultInjector* fault_injector = nullptr;
};

struct TrainResult {
  // Non-ok when resume failed, the guard gave up on a diverged run, or a
  // fault injector simulated a crash. Histories cover completed epochs.
  Status status = Status::Ok();
  std::vector<double> train_loss_per_epoch;
  std::vector<metrics::EvalReport> val_reports;  // empty if no val set
};

// The parameters of `model` that require grad (frozen ones are skipped).
std::vector<tensor::Tensor> TrainableParams(models::FakeNewsModel* model);

// Trains `model` with Adam on cross-entropy (+ optional domain terms).
// `val` may be null.
TrainResult TrainSupervised(models::FakeNewsModel* model,
                            const data::NewsDataset& train,
                            const data::NewsDataset* val,
                            const TrainOptions& options);

// Argmax predictions over a dataset (no grad, eval mode). An empty dataset
// or non-positive batch_size yields an empty result.
std::vector<int> Predict(models::FakeNewsModel* model,
                         const data::NewsDataset& dataset,
                         int64_t batch_size = 64);

// Convenience: Predict + metrics::Evaluate. An empty dataset or
// non-positive batch_size yields a default (all-zero) report.
metrics::EvalReport EvaluateModel(models::FakeNewsModel* model,
                                  const data::NewsDataset& dataset,
                                  int64_t batch_size = 64);

// P(fake) for each sample (softmax of logits), eval mode. An empty dataset
// or non-positive batch_size yields an empty result.
std::vector<float> PredictFakeProbability(models::FakeNewsModel* model,
                                          const data::NewsDataset& dataset,
                                          int64_t batch_size = 64);

// Intermediate features for each sample, row-major [N, feature_dim], eval
// mode; used by the t-SNE visualization (Fig. 2), analysis tools, and
// DTDBD's unbiased-teacher table. An empty dataset or non-positive
// batch_size yields an empty result.
std::vector<float> ExtractFeatures(models::FakeNewsModel* model,
                                   const data::NewsDataset& dataset,
                                   int64_t batch_size = 64);

// Class logits for each sample, row-major [N, 2], eval mode; DTDBD's
// clean-teacher table. Empty under the same conditions as ExtractFeatures.
std::vector<float> ExtractLogits(models::FakeNewsModel* model,
                                 const data::NewsDataset& dataset,
                                 int64_t batch_size = 64);

// Rows `indices` of a row-major [N, width] table such as ExtractFeatures
// returns, in the given order, as a [indices.size(), width] tensor.
tensor::Tensor GatherRows(const std::vector<float>& table, int64_t width,
                          const std::vector<int64_t>& indices);

}  // namespace dtdbd

#endif  // DTDBD_DTDBD_TRAINER_H_
