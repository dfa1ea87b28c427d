// FrozenEncoder: a deterministic stand-in for the paper's frozen BERT.
//
// The paper uses a frozen pre-trained BERT (layer-11 activations) purely as
// a fixed token-to-vector feature map under trainable heads. This class
// plays that role with a seeded random embedding table followed by one
// fixed random mixing layer over a local context window, giving mildly
// contextual, information-preserving token features. No parameter is ever
// trained (all tensors have requires_grad = false), matching the frozen
// setting; see DESIGN.md §1 for the substitution rationale. The kernel is
// the registered tensor op FrozenEncode (tensor/ops.h), so per-op profiling
// sees it and its vector path (the mix and an 8-lane tanh, both bitwise
// equal to the scalar chain) builds without FMA contraction. The half of
// the mix that depends on the token alone is computed once per vocabulary
// entry at construction (FrozenTokenMix); Encode only supplies the frozen
// tensors.
#ifndef DTDBD_TEXT_FROZEN_ENCODER_H_
#define DTDBD_TEXT_FROZEN_ENCODER_H_

#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace dtdbd::text {

class FrozenEncoder {
 public:
  // vocab_size tokens mapped to `dim`-dimensional features.
  FrozenEncoder(int vocab_size, int64_t dim, uint64_t seed);

  FrozenEncoder(const FrozenEncoder&) = delete;
  FrozenEncoder& operator=(const FrozenEncoder&) = delete;

  // ids row-major [batch, time] -> features [batch, time, dim]. The output
  // is detached (no autograd history), like a frozen upstream model.
  tensor::Tensor Encode(const std::vector<int>& ids, int64_t batch,
                        int64_t time) const;

  int64_t dim() const { return dim_; }

 private:
  int64_t dim_;
  tensor::Tensor table_;   // [V, dim], frozen
  tensor::Tensor mix_w_;   // [2*dim, dim], frozen context mixer
  tensor::Tensor token_mix_;  // [V, dim]: mix_b + the token half of the mix
};

}  // namespace dtdbd::text

#endif  // DTDBD_TEXT_FROZEN_ENCODER_H_
