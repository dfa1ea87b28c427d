#include "train/guard.h"

#include <cmath>

#include "common/check.h"

namespace dtdbd::train {

bool AllFinite(float loss, const std::vector<tensor::Tensor>& params) {
  if (!std::isfinite(loss)) return false;
  for (const auto& p : params) {
    for (float g : p.grad()) {
      if (!std::isfinite(g)) return false;
    }
  }
  return true;
}

TrainingGuard::TrainingGuard(const GuardOptions& options) : options_(options) {
  DTDBD_CHECK_GT(options.max_consecutive_bad, 0);
  DTDBD_CHECK_GT(options.rollback_lr_decay, 0.0f);
  DTDBD_CHECK_LE(options.rollback_lr_decay, 1.0f);
  DTDBD_CHECK_GE(options.max_rollbacks, 0);
}

TrainingGuard::Verdict TrainingGuard::Inspect(
    float loss, const std::vector<tensor::Tensor>& params) {
  if (AllFinite(loss, params)) {
    consecutive_bad_ = 0;
    return Verdict::kOk;
  }
  ++consecutive_bad_;
  ++skipped_steps_;
  if (consecutive_bad_ >= options_.max_consecutive_bad) {
    if (rollbacks_ >= options_.max_rollbacks) return Verdict::kGiveUp;
    return Verdict::kRollback;
  }
  return Verdict::kSkip;
}

void TrainingGuard::OnRollback() {
  consecutive_bad_ = 0;
  ++rollbacks_;
}

}  // namespace dtdbd::train
