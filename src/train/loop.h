// The fault-tolerant epoch loop shared by every trainer. As in the paper's
// Algorithm 1, the teachers and the student differ only in the per-batch
// objective (Eq. 11, Eq. 13); the loop owns resume, the guard's
// skip/rollback/give-up policy, the fault injector's hooks and the
// per-epoch checkpoint (DESIGN §7). It never sees a model.
#ifndef DTDBD_TRAIN_LOOP_H_
#define DTDBD_TRAIN_LOOP_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "tensor/optim.h"
#include "tensor/tensor.h"
#include "train/checkpoint.h"
#include "train/fault_injector.h"
#include "train/guard.h"

namespace dtdbd::train {

struct LoopSpec {
  std::string kind;  // checkpoint kind; resume refuses any other
  std::string name;  // prefix of the loop's log lines
  int epochs = 0;
  float grad_clip = 0.0f;
  bool verbose = false;
  std::string checkpoint_path;  // non-empty: checkpoint after every epoch
  std::string resume_from;      // non-empty: resume from this checkpoint
  GuardOptions guard;
  FaultInjector* fault_injector = nullptr;  // test hook, not owned
};

// The loop fields of a trainer's options struct, which carry the same names.
template <typename Options>
LoopSpec MakeLoopSpec(std::string kind, std::string name, const Options& o) {
  return {std::move(kind), std::move(name), o.epochs,
          o.grad_clip,     o.verbose,       o.checkpoint_path,
          o.resume_from,   o.guard,         o.fault_injector};
}

// One batch's objective. `loss` is backpropagated; `parts` are optional
// scalars (e.g. the terms of a weighted sum) that the loop sums like the
// loss over the epoch's applied steps.
struct BatchLoss {
  tensor::Tensor loss;
  std::vector<double> parts;
};

struct LoopHooks {
  // The objective over the training rows `indices` (one loader batch).
  std::function<BatchLoss(const std::vector<int64_t>& indices)> batch_loss;
  // After each completed epoch (0-based), with the epoch's summed loss and
  // parts, each divided by the number of batches.
  std::function<void(int epoch, double mean_loss,
                     const std::vector<double>& mean_parts)>
      epoch_end;
  // Optional state outside the training objects that rides in every
  // snapshot (DTDBD's DAA carry-over); restored on resume and on rollback.
  std::function<DaaSnapshot()> capture_daa;
  std::function<void(const DaaSnapshot&)> restore_daa;
};

// Trains epochs [resumed epoch, spec.epochs) over `loader`'s shuffled
// batches; the loader must have at least one batch. `named` and `rngs` are
// the trained model's NamedParameters() and CollectRngs(); `optimizer`
// holds its trainable parameters. Returns non-ok when resume failed, the
// guard gave up, or the fault injector simulated a crash; epochs completed
// before that have reached `epoch_end`.
Status RunTrainingLoop(const LoopSpec& spec,
                       std::map<std::string, tensor::Tensor> named,
                       tensor::Adam* optimizer, const std::vector<Rng*>& rngs,
                       data::DataLoader* loader, const LoopHooks& hooks);

}  // namespace dtdbd::train

#endif  // DTDBD_TRAIN_LOOP_H_
