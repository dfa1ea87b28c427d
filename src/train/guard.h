// Divergence detection and recovery policy for training loops.
//
// After every backward pass the training loop (train/loop.h) asks the
// guard, which is always on, to inspect the loss and gradients. A
// non-finite value marks the step as poisoned: the step is skipped
// (gradients dropped, parameters untouched). After `max_consecutive_bad`
// poisoned steps in a row the guard asks for a roll back to the last good
// checkpoint with a reduced learning rate; after `max_rollbacks` rollbacks
// it gives up and the loop returns a non-ok status.
#ifndef DTDBD_TRAIN_GUARD_H_
#define DTDBD_TRAIN_GUARD_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace dtdbd::train {

struct GuardOptions {
  int max_consecutive_bad = 3;
  float rollback_lr_decay = 0.5f;
  int max_rollbacks = 2;
};

// True when the loss and every parameter gradient are finite.
bool AllFinite(float loss, const std::vector<tensor::Tensor>& params);

class TrainingGuard {
 public:
  enum class Verdict {
    kOk,        // step is clean, apply it
    kSkip,      // poisoned step: drop gradients, continue
    kRollback,  // too many consecutive bad steps: restore last checkpoint
    kGiveUp,    // rollback budget exhausted: abort training
  };

  explicit TrainingGuard(const GuardOptions& options);

  // Inspects one step's loss/gradients and advances the policy state.
  Verdict Inspect(float loss, const std::vector<tensor::Tensor>& params);

  // Must be called by the trainer after it restored the checkpoint the
  // guard asked for; resets the consecutive-bad counter.
  void OnRollback();

  int64_t skipped_steps() const { return skipped_steps_; }

 private:
  GuardOptions options_;
  int consecutive_bad_ = 0;
  int64_t skipped_steps_ = 0;
  int rollbacks_ = 0;
};

}  // namespace dtdbd::train

#endif  // DTDBD_TRAIN_GUARD_H_
