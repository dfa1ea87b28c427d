// Loss functions. All return scalar tensors (mean over the batch) and are
// differentiable with respect to their logits arguments.
//
// CrossEntropyLoss and DistillKlLoss record a single fused graph node
// (SoftmaxCrossEntropy / SoftmaxKl) that computes the softmax once and
// applies the closed-form backward. Each is pinned bitwise, loss and
// gradients, to a reference composition of primitive ops built from
// NllLoss and KlFromLogProbs below (tests/fused_oracles.h).
#ifndef DTDBD_TENSOR_LOSS_H_
#define DTDBD_TENSOR_LOSS_H_

#include <vector>

#include "tensor/tensor.h"

namespace dtdbd::tensor {

// Softmax cross entropy: logits [B,C], labels[i] in [0,C).
Tensor CrossEntropyLoss(const Tensor& logits, const std::vector<int>& labels);

// Temperature-scaled distillation KL (Hinton 2015; DTDBD Eq. 6 and 12):
//   tau^2 * mean_rows KL( softmax(teacher/tau) || softmax(student/tau) ).
// The teacher side is treated as a constant (no gradient flows to it even if
// it requires grad), matching the frozen-teacher setting.
Tensor DistillKlLoss(const Tensor& teacher_logits, const Tensor& student_logits,
                     float tau);

// Oracle for CrossEntropyLoss: mean negative log-likelihood of row-wise
// log-probabilities logp [B,C]. NllLoss(LogSoftmax(logits), labels) is
// bitwise equal to CrossEntropyLoss(logits, labels), loss and gradient.
Tensor NllLoss(const Tensor& logp, const std::vector<int>& labels);

// Oracle for DistillKlLoss: tau^2 * mean_rows KL(exp(lt) || exp(ls)) over
// two same-shape log-probability tensors. Only ls receives gradient.
//   KlFromLogProbs(LogSoftmax(ScalarMul(teacher.Detach(), 1/tau)),
//                  LogSoftmax(ScalarMul(student, 1/tau)), tau)
// is bitwise equal to DistillKlLoss(teacher, student, tau).
Tensor KlFromLogProbs(const Tensor& lt, const Tensor& ls, float tau);

// Negative entropy of softmax(logits), averaged over rows (DTDBD Eq. 10):
//   mean_rows sum_c p_c log p_c.
// Minimizing this maximizes the entropy of the domain classifier output,
// which is the information-entropy term of the DAT-IE loss.
Tensor NegativeEntropyLoss(const Tensor& logits);

}  // namespace dtdbd::tensor

#endif  // DTDBD_TENSOR_LOSS_H_
