#include "nn/conv.h"

#include "tensor/init.h"
#include "tensor/ops.h"

namespace dtdbd::nn {

using tensor::Tensor;

Conv1dBank::Conv1dBank(int64_t embed_dim, int64_t channels,
                       std::vector<int64_t> kernel_widths, Rng* rng)
    : embed_dim_(embed_dim),
      channels_(channels),
      kernel_widths_(std::move(kernel_widths)) {
  DTDBD_CHECK(!kernel_widths_.empty());
  for (size_t i = 0; i < kernel_widths_.size(); ++i) {
    const int64_t k = kernel_widths_[i];
    DTDBD_CHECK_GT(k, 0);
    weights_.push_back(RegisterParam(
        "conv" + std::to_string(k) + ".weight",
        tensor::XavierInit({channels_, k * embed_dim_}, k * embed_dim_,
                           channels_, rng)));
    biases_.push_back(RegisterParam("conv" + std::to_string(k) + ".bias",
                                    Tensor::Zeros({channels_}, true)));
  }
}

Tensor Conv1dBank::Forward(const Tensor& x) const {
  DTDBD_CHECK_EQ(x.ndim(), 3);
  DTDBD_CHECK_EQ(x.dim(2), embed_dim_);
  std::vector<Tensor> pooled;
  for (size_t i = 0; i < kernel_widths_.size(); ++i) {
    // Fused conv+ReLU+max-over-time: one [B, C] node per kernel width.
    pooled.push_back(tensor::Conv1dSeqReluMax(x, weights_[i], biases_[i],
                                              kernel_widths_[i]));
  }
  return tensor::ConcatLastDim(pooled);
}

int64_t Conv1dBank::output_dim() const {
  return channels_ * static_cast<int64_t>(kernel_widths_.size());
}

}  // namespace dtdbd::nn
