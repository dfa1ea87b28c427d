// Domain adversarial training (DAT) and the paper's improved DAT-IE.
//
// DatWrapper attaches a domain-discriminator head behind a gradient
// reversal layer to any FakeNewsModel, turning it into a DANN-style
// domain-adversarial learner. Training it with TrainOptions
// {domain_loss_weight = alpha, entropy_loss_weight = beta} optimizes the
// paper's Eq. 11:
//   L_DAT-IE = L_CE(y) + alpha * L_CE(domain) + beta * L_IE,
// with beta = 0.2 * alpha recommended; beta = 0 recovers plain DAT
// (Table IX compares the two). The trained wrapper *is* DTDBD's unbiased
// teacher.
#ifndef DTDBD_DTDBD_DAT_H_
#define DTDBD_DTDBD_DAT_H_

#include <memory>
#include <string>

#include "dtdbd/trainer.h"
#include "models/model.h"
#include "nn/linear.h"

namespace dtdbd {

class DatWrapper : public models::FakeNewsModel {
 public:
  // Takes ownership of the base student-architecture model.
  DatWrapper(std::unique_ptr<models::FakeNewsModel> base,
             const models::ModelConfig& config);

  models::ModelOutput Forward(const data::Batch& batch,
                              bool training) override;
  const std::string& name() const override { return name_; }
  int64_t feature_dim() const override { return base_->feature_dim(); }

  void CollectRngs(std::vector<Rng*>* rngs) override {
    rngs->push_back(&rng_);
    base_->CollectRngs(rngs);
  }

  models::FakeNewsModel* base() { return base_.get(); }

 private:
  std::string name_;
  float lambda_;
  Rng rng_;
  std::unique_ptr<models::FakeNewsModel> base_;
  std::unique_ptr<nn::Mlp> domain_head_;
};

// Options for training an unbiased teacher (paper Sec. V-B).
struct DatIeOptions {
  TrainOptions train;
  // Domain adversarial weight. At this repo's scaled-down dimensions the
  // discriminator needs a strong-ish pull to actually scrub the domain
  // shortcut (see EXPERIMENTS.md); combine with
  // ModelConfig::adversarial_lambda ~ 1.5 for the unbiased teacher.
  float alpha = 2.5f;
  // beta = beta_ratio * alpha; the paper fixes beta_ratio = 0.2. Set to 0
  // for plain DAT.
  float beta_ratio = 0.2f;
};

// Builds a DatWrapper around a freshly created `arch_name` model and trains
// it with the DAT-IE objective. The returned model is ready to serve as
// DTDBD's unbiased teacher (caller should Freeze() it before distillation)
// only if training succeeded: when `result` is non-null it receives the
// TrainResult, whose status is non-ok when resume failed or the guard gave
// up, and a caller that distils from the teacher must check it.
std::unique_ptr<DatWrapper> TrainUnbiasedTeacher(
    const std::string& arch_name, const models::ModelConfig& config,
    const data::NewsDataset& train, const data::NewsDataset* val,
    const DatIeOptions& options, TrainResult* result = nullptr);

}  // namespace dtdbd

#endif  // DTDBD_DTDBD_DAT_H_
