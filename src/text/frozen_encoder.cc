#include "text/frozen_encoder.h"

#include "tensor/init.h"
#include "tensor/ops.h"

namespace dtdbd::text {

using tensor::Tensor;

FrozenEncoder::FrozenEncoder(int vocab_size, int64_t dim, uint64_t seed)
    : dim_(dim) {
  Rng rng(seed);
  table_ = tensor::NormalInit({vocab_size, dim}, 0.5f, &rng,
                              /*requires_grad=*/false);
  mix_w_ = tensor::XavierInit({2 * dim, dim}, 2 * dim, dim, &rng,
                              /*requires_grad=*/false);
  const Tensor mix_b =
      tensor::UniformInit({dim}, 0.1f, &rng, /*requires_grad=*/false);
  token_mix_ = tensor::FrozenTokenMix(table_, mix_w_, mix_b);
}

Tensor FrozenEncoder::Encode(const std::vector<int>& ids, int64_t batch,
                             int64_t time) const {
  return tensor::FrozenEncode(table_, token_mix_, mix_w_, ids, batch, time);
}

}  // namespace dtdbd::text
