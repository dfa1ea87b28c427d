// Test oracles for the fused ops: the unfused compositions of public
// primitives that each fused op must match bitwise, loss and gradients, at
// every thread count (fused_ops_test) and that the backend-consistency
// suite runs to cover the primitive ops they record.
#ifndef DTDBD_TESTS_FUSED_ORACLES_H_
#define DTDBD_TESTS_FUSED_ORACLES_H_

#include <algorithm>
#include <vector>

#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace dtdbd::testing {

// Oracle for LinearRelu.
inline tensor::Tensor LinearReluOracle(const tensor::Tensor& x,
                                       const tensor::Tensor& w,
                                       const tensor::Tensor& bias) {
  return tensor::Relu(tensor::AddBias(tensor::MatMul(x, w), bias));
}

// Oracle for Conv1dSeqReluMax.
inline tensor::Tensor Conv1dSeqReluMaxOracle(const tensor::Tensor& x,
                                             const tensor::Tensor& weight,
                                             const tensor::Tensor& bias,
                                             int64_t kernel_width) {
  return tensor::MaxOverTime(
      tensor::Relu(tensor::Conv1dSeq(x, weight, bias, kernel_width)));
}

// Oracle for FrozenEncode over FrozenTokenMix's table: each position's
// pre-activation as one chain, mix_b[j] + sum_k cat[k] * mix_w[k][j] over
// ascending k in [0, 2D) with cat = [e_t ; ctx_t], then the Tanh op (the
// library's one tanh).
inline tensor::Tensor FrozenEncodeOracle(const tensor::Tensor& table,
                                         const tensor::Tensor& mix_w,
                                         const tensor::Tensor& mix_b,
                                         const std::vector<int>& ids,
                                         int64_t batch, int64_t time) {
  const int64_t d = table.dim(1);
  const std::vector<float> tab = table.ToVector();
  const std::vector<float> w = mix_w.ToVector();
  const std::vector<float> b = mix_b.ToVector();
  std::vector<float> pre(static_cast<size_t>(batch * time * d));
  std::vector<float> cat(static_cast<size_t>(2 * d));
  for (int64_t bi = 0; bi < batch; ++bi) {
    for (int64_t ti = 0; ti < time; ++ti) {
      const auto row = [&](int64_t tn) {
        return tab.begin() + ids[static_cast<size_t>(bi * time + tn)] * d;
      };
      std::copy_n(row(ti), d, cat.begin());
      std::fill_n(cat.begin() + d, d, 0.0f);
      int count = 0;
      for (int64_t tn : {ti - 1, ti + 1}) {
        if (tn < 0 || tn >= time) continue;
        for (int64_t j = 0; j < d; ++j) cat[d + j] += row(tn)[j];
        ++count;
      }
      if (count > 0) {
        const float inv = 1.0f / static_cast<float>(count);
        for (int64_t j = 0; j < d; ++j) cat[d + j] *= inv;
      }
      float* out = pre.data() + (bi * time + ti) * d;
      std::copy_n(b.begin(), d, out);
      for (int64_t k = 0; k < 2 * d; ++k) {
        for (int64_t j = 0; j < d; ++j) out[j] += cat[k] * w[k * d + j];
      }
    }
  }
  return tensor::Tanh(
      tensor::Tensor::FromData({batch, time, d}, std::move(pre)));
}

// Oracle for MatVecOverTime: x[B,T,N] flattened to rows, times v as [N,1].
inline tensor::Tensor MatVecOverTimeOracle(const tensor::Tensor& x,
                                           const tensor::Tensor& v) {
  const int64_t b = x.dim(0), t = x.dim(1), n = x.dim(2);
  const tensor::Tensor v2 = v.ndim() == 2 ? v : tensor::Reshape(v, {n, 1});
  return tensor::Reshape(
      tensor::MatMul(tensor::Reshape(x, {b * t, n}), v2), {b, t});
}

// Oracle for CrossEntropyLoss (the SoftmaxCrossEntropy node).
inline tensor::Tensor CrossEntropyOracle(const tensor::Tensor& logits,
                                         const std::vector<int>& labels) {
  return tensor::NllLoss(tensor::LogSoftmax(logits), labels);
}

// Oracle for DistillKlLoss (the SoftmaxKl node). The teacher enters
// detached, as in the fused op.
inline tensor::Tensor DistillKlOracle(const tensor::Tensor& teacher,
                                      const tensor::Tensor& student,
                                      float tau) {
  const float inv_tau = 1.0f / tau;
  return tensor::KlFromLogProbs(
      tensor::LogSoftmax(tensor::ScalarMul(teacher.Detach(), inv_tau)),
      tensor::LogSoftmax(tensor::ScalarMul(student, inv_tau)), tau);
}

}  // namespace dtdbd::testing

#endif  // DTDBD_TESTS_FUSED_ORACLES_H_
