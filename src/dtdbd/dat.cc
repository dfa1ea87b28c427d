#include "dtdbd/dat.h"

#include <utility>

#include "tensor/ops.h"

namespace dtdbd {

DatWrapper::DatWrapper(std::unique_ptr<models::FakeNewsModel> base,
                       const models::ModelConfig& config)
    : lambda_(config.adversarial_lambda),
      rng_(config.seed ^ 0x9E3779B9u),
      base_(std::move(base)) {
  DTDBD_CHECK(base_ != nullptr);
  DTDBD_CHECK_GT(config.num_domains, 0);
  name_ = base_->name() + "+DAT";
  RegisterChild("base", base_.get());
  domain_head_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{base_->feature_dim(), config.hidden_dim,
                           config.num_domains},
      config.dropout, &rng_);
  RegisterChild("domain_head", domain_head_.get());
}

models::ModelOutput DatWrapper::Forward(const data::Batch& batch,
                                        bool training) {
  models::ModelOutput out = base_->Forward(batch, training);
  tensor::Tensor reversed = tensor::GradReverse(out.features, lambda_);
  out.domain_logits = domain_head_->Forward(reversed, training, &rng_);
  return out;
}

std::unique_ptr<DatWrapper> TrainUnbiasedTeacher(
    const std::string& arch_name, const models::ModelConfig& config,
    const data::NewsDataset& train, const data::NewsDataset* val,
    const DatIeOptions& options, TrainResult* result) {
  auto wrapper = std::make_unique<DatWrapper>(
      models::CreateModel(arch_name, config), config);
  TrainOptions train_options = options.train;
  train_options.domain_loss_weight = options.alpha;
  train_options.entropy_loss_weight = options.beta_ratio * options.alpha;
  TrainResult trained = TrainSupervised(wrapper.get(), train, val,
                                        train_options);
  if (result != nullptr) *result = std::move(trained);
  return wrapper;
}

}  // namespace dtdbd
