// Test oracles for the fused ops: the unfused compositions of public
// primitives that each fused op must match bitwise, loss and gradients, at
// every thread count (fused_ops_test) and that the backend-consistency
// suite runs to cover the primitive ops they record.
#ifndef DTDBD_TESTS_FUSED_ORACLES_H_
#define DTDBD_TESTS_FUSED_ORACLES_H_

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

// Oracle for Conv1dSeqRelu.
inline tensor::Tensor Conv1dSeqReluOracle(const tensor::Tensor& x,
                                          const tensor::Tensor& weight,
                                          const tensor::Tensor& bias,
                                          int64_t kernel_width) {
  return tensor::Relu(tensor::Conv1dSeq(x, weight, bias, kernel_width));
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
