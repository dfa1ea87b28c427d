#include "tensor/loss.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/registry.h"

namespace dtdbd::tensor {

namespace {

using internal::Node;

constexpr int64_t kGrain = 4096;

int64_t GrainForRows(int64_t work_per_row) {
  return std::max<int64_t>(1, kGrain / std::max<int64_t>(1, work_per_row));
}

// [B,C] scores with one label in [0,C) per row.
void CheckLabels(const Tensor& scores, const std::vector<int>& labels) {
  DTDBD_CHECK_EQ(scores.ndim(), 2);
  const int64_t b = scores.dim(0), c = scores.dim(1);
  DTDBD_CHECK_EQ(static_cast<int64_t>(labels.size()), b);
  for (int64_t i = 0; i < b; ++i) {
    DTDBD_CHECK_GE(labels[static_cast<size_t>(i)], 0);
    DTDBD_CHECK_LT(labels[static_cast<size_t>(i)], c);
  }
}

// Row-wise softmax with temperature, sharded over rows; also fills log
// probabilities if log_out != nullptr. The temperature is applied as a
// multiplication by 1/tau, after which each row runs the exact LogSoftmax
// kernel arithmetic on the scaled logits — that is what keeps the fused
// losses bitwise identical to their unfused LogSoftmax(ScalarMul(...))
// reference compositions.
void SoftmaxRows(const float* in, float* out, float* log_out, int64_t rows,
                 int64_t cols, float inv_tau) {
  ParallelFor(rows, GrainForRows(cols), [&](int64_t rs, int64_t re) {
    for (int64_t r = rs; r < re; ++r) {
      const float* x = in + r * cols;
      float mx = x[0] * inv_tau;
      for (int64_t j = 1; j < cols; ++j) mx = std::max(mx, x[j] * inv_tau);
      float sum = 0.0f;
      for (int64_t j = 0; j < cols; ++j) {
        sum += std::exp(x[j] * inv_tau - mx);
      }
      const float lse = mx + std::log(sum);
      for (int64_t j = 0; j < cols; ++j) {
        const float lp = x[j] * inv_tau - lse;
        out[r * cols + j] = std::exp(lp);
        if (log_out != nullptr) log_out[r * cols + j] = lp;
      }
    }
  });
}

// ----- SoftmaxCrossEntropy (fused LogSoftmax + NllLoss) -----

struct CrossEntropyState {
  std::vector<float> probs;
  std::vector<int> labels;
};

void SoftmaxCrossEntropyBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const int64_t c = in->shape[1];
  const int64_t b = in->shape[0];
  const auto* st = static_cast<const CrossEntropyState*>(self->saved.get());
  const float g = self->grad[0] / static_cast<float>(b);
  const float* probs = st->probs.data();
  const int* labels = st->labels.data();
  float* gi = in->grad.data();
  // Closed form g * (p - onehot), evaluated as (g*p) then "- g" on the
  // label element so every term lands on the same bits as the unfused
  // NllLoss -> LogSoftmax backward chain.
  ParallelFor(b, GrainForRows(c), [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) {
      const int64_t lab = labels[i];
      const float* pr = probs + i * c;
      float* gr = gi + i * c;
      for (int64_t j = 0; j < c; ++j) {
        const float t = g * pr[j];
        gr[j] += (j == lab) ? t - g : t;
      }
    }
  });
}

const Op* const kSoftmaxCrossEntropy = OpRegistry::Get().Register(
    {"SoftmaxCrossEntropy", 1, &SoftmaxCrossEntropyBackward});

// ----- NllLoss (the oracle half of CrossEntropyLoss) -----

struct NllState {
  std::vector<int> labels;
};

void NllBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const int64_t c = in->shape[1];
  const int64_t b = in->shape[0];
  const auto* st = static_cast<const NllState*>(self->saved.get());
  const float g = self->grad[0] / static_cast<float>(b);
  for (int64_t i = 0; i < b; ++i) {
    in->grad[i * c + st->labels[static_cast<size_t>(i)]] -= g;
  }
}

const Op* const kNllLoss =
    OpRegistry::Get().Register({"NllLoss", 1, &NllBackward});

// ----- SoftmaxKl (fused temperature softmax + KL) -----

struct DistillKlState {
  std::vector<float> pt;
  std::vector<float> ps;
  float tau;
};

void SoftmaxKlBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const int64_t c = in->shape.back();
  const int64_t b = c > 0 ? in->numel / c : 0;
  const auto* st = static_cast<const DistillKlState*>(self->saved.get());
  const float inv_tau = 1.0f / st->tau;
  const float c0 = self->grad[0] * st->tau * st->tau / static_cast<float>(b);
  const float* pt = st->pt.data();
  const float* ps = st->ps.data();
  float* gi = in->grad.data();
  // Per row, mirror the unfused KlFromLogProbs -> LogSoftmax -> ScalarMul
  // backward chain term by term so gradients land on the same bits:
  //   gl_j  = -(c0 * pt_j)           (KL grad wrt student log-probs)
  //   gsum  = sum_j gl_j             (LogSoftmax row sum, ascending)
  //   dx_j += (gl_j - ps_j * gsum) * inv_tau
  ParallelFor(b, GrainForRows(c), [&](int64_t s, int64_t e) {
    for (int64_t r = s; r < e; ++r) {
      const float* ptr = pt + r * c;
      const float* psr = ps + r * c;
      float* gr = gi + r * c;
      float gsum = 0.0f;
      for (int64_t j = 0; j < c; ++j) gsum += -(c0 * ptr[j]);
      for (int64_t j = 0; j < c; ++j) {
        const float gl = -(c0 * ptr[j]);
        gr[j] += (gl - psr[j] * gsum) * inv_tau;
      }
    }
  });
}

const Op* const kSoftmaxKl =
    OpRegistry::Get().Register({"SoftmaxKl", 1, &SoftmaxKlBackward});

// ----- KlFromLogProbs (the oracle half of DistillKlLoss) -----

struct KlFromLogProbsState {
  std::vector<float> pt;  // exp(teacher log-probs)
  float tau;
};

void KlFromLogProbsBackward(Node* self) {
  // Gradient flows only to the student log-probs (input 1); the teacher
  // side always enters detached.
  Node* ls = self->inputs[1].get();
  if (!ls->requires_grad) return;
  const auto* st =
      static_cast<const KlFromLogProbsState*>(self->saved.get());
  const int64_t c = ls->shape.back();
  const int64_t b = c > 0 ? ls->numel / c : 0;
  const float c0 = self->grad[0] * st->tau * st->tau / static_cast<float>(b);
  const float* pt = st->pt.data();
  float* gi = ls->grad.data();
  ParallelFor(ls->numel, kGrain, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) gi[i] += -(c0 * pt[i]);
  });
}

const Op* const kKlFromLogProbs = OpRegistry::Get().Register(
    {"KlFromLogProbs", 2, &KlFromLogProbsBackward});

// ----- NegativeEntropyLoss -----

struct NegativeEntropyState {
  std::vector<float> probs;
  std::vector<float> logp;
};

void NegativeEntropyBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const int64_t c = in->shape.back();
  const int64_t b = c > 0 ? in->numel / c : 0;
  const auto* st = static_cast<const NegativeEntropyState*>(self->saved.get());
  const float g = self->grad[0] / static_cast<float>(b);
  const float* probs = st->probs.data();
  const float* logp = st->logp.data();
  float* gi = in->grad.data();
  // L_row = sum_c p_c log p_c; dL/dx_j = p_j (log p_j - L_row).
  ParallelFor(b, GrainForRows(c), [&](int64_t s, int64_t e) {
    for (int64_t r = s; r < e; ++r) {
      float row_ne = 0.0f;
      for (int64_t j = 0; j < c; ++j) {
        row_ne += probs[r * c + j] * logp[r * c + j];
      }
      for (int64_t j = 0; j < c; ++j) {
        gi[r * c + j] += g * probs[r * c + j] * (logp[r * c + j] - row_ne);
      }
    }
  });
}

const Op* const kNegativeEntropyLoss = OpRegistry::Get().Register(
    {"NegativeEntropyLoss", 1, &NegativeEntropyBackward});

}  // namespace

Tensor CrossEntropyLoss(const Tensor& logits_in,
                        const std::vector<int>& labels) {
  CheckLabels(logits_in, labels);
  const int64_t b = logits_in.dim(0), c = logits_in.dim(1);
  Tensor logits = Contiguous(logits_in);
  ScopedOpTimer timer(kSoftmaxCrossEntropy);
  auto state = std::make_shared<CrossEntropyState>();
  state->probs.resize(static_cast<size_t>(logits.numel()));
  state->labels = labels;
  std::vector<float> logp(static_cast<size_t>(logits.numel()));
  SoftmaxRows(logits.data().data(), state->probs.data(), logp.data(), b, c,
              /*inv_tau=*/1.0f);
  float loss = 0.0f;
  for (int64_t i = 0; i < b; ++i) {
    loss -= logp[static_cast<size_t>(i * c + labels[static_cast<size_t>(i)])];
  }
  loss /= static_cast<float>(b);
  return MakeOp(kSoftmaxCrossEntropy, {1}, {loss}, {logits}, state);
}

Tensor DistillKlLoss(const Tensor& teacher_logits,
                     const Tensor& student_logits_in, float tau) {
  DTDBD_CHECK_GT(tau, 0.0f);
  DTDBD_CHECK(teacher_logits.shape() == student_logits_in.shape())
      << "DistillKlLoss: teacher " << ShapeToString(teacher_logits.shape())
      << " vs student " << ShapeToString(student_logits_in.shape());
  const float inv_tau = 1.0f / tau;
  Tensor teacher = Contiguous(teacher_logits);
  Tensor student = Contiguous(student_logits_in);
  const int64_t c = teacher.shape().back();
  const int64_t b = c > 0 ? teacher.numel() / c : 0;
  ScopedOpTimer timer(kSoftmaxKl);
  auto state = std::make_shared<DistillKlState>();
  state->tau = tau;
  state->pt.resize(static_cast<size_t>(teacher.numel()));
  state->ps.resize(static_cast<size_t>(student.numel()));
  std::vector<float> log_pt(static_cast<size_t>(teacher.numel()));
  std::vector<float> log_ps(static_cast<size_t>(student.numel()));
  SoftmaxRows(teacher.data().data(), state->pt.data(), log_pt.data(), b, c,
              inv_tau);
  SoftmaxRows(student.data().data(), state->ps.data(), log_ps.data(), b, c,
              inv_tau);
  float loss = 0.0f;
  for (int64_t i = 0; i < b * c; ++i) {
    const size_t si = static_cast<size_t>(i);
    if (state->pt[si] > 0.0f) {
      loss += state->pt[si] * (log_pt[si] - log_ps[si]);
    }
  }
  loss = loss * tau * tau / static_cast<float>(b);
  // Only the student receives gradient: the teacher is knowledge, not a
  // trainee (paper: teacher weights are frozen during distillation).
  return MakeOp(kSoftmaxKl, {1}, {loss}, {student}, state);
}

Tensor NllLoss(const Tensor& logp_in, const std::vector<int>& labels) {
  CheckLabels(logp_in, labels);
  Tensor logp = Contiguous(logp_in);
  const int64_t b = logp.dim(0), c = logp.dim(1);
  ScopedOpTimer timer(kNllLoss);
  auto state = std::make_shared<NllState>();
  state->labels = labels;
  const float* lp = logp.data().data();
  float loss = 0.0f;
  for (int64_t i = 0; i < b; ++i) {
    loss -= lp[i * c + labels[static_cast<size_t>(i)]];
  }
  loss /= static_cast<float>(b);
  return MakeOp(kNllLoss, {1}, {loss}, {logp}, state);
}

Tensor KlFromLogProbs(const Tensor& lt_in, const Tensor& ls_in, float tau) {
  DTDBD_CHECK_GT(tau, 0.0f);
  DTDBD_CHECK(lt_in.shape() == ls_in.shape())
      << "KlFromLogProbs: teacher " << ShapeToString(lt_in.shape())
      << " vs student " << ShapeToString(ls_in.shape());
  Tensor lt = Contiguous(lt_in);
  Tensor ls = Contiguous(ls_in);
  const int64_t c = lt.shape().back();
  const int64_t b = c > 0 ? lt.numel() / c : 0;
  ScopedOpTimer timer(kKlFromLogProbs);
  auto state = std::make_shared<KlFromLogProbsState>();
  state->tau = tau;
  state->pt.resize(static_cast<size_t>(lt.numel()));
  const float* plt = lt.data().data();
  const float* pls = ls.data().data();
  float* ppt = state->pt.data();
  float loss = 0.0f;
  for (int64_t i = 0; i < b * c; ++i) {
    const float pt = std::exp(plt[i]);
    ppt[i] = pt;
    if (pt > 0.0f) loss += pt * (plt[i] - pls[i]);
  }
  loss = loss * tau * tau / static_cast<float>(b);
  return MakeOp(kKlFromLogProbs, {1}, {loss}, {lt, ls}, state);
}

Tensor NegativeEntropyLoss(const Tensor& logits_in) {
  DTDBD_CHECK_GE(logits_in.ndim(), 1);
  Tensor logits = Contiguous(logits_in);
  const int64_t c = logits.shape().back();
  const int64_t b = c > 0 ? logits.numel() / c : 0;
  ScopedOpTimer timer(kNegativeEntropyLoss);
  auto state = std::make_shared<NegativeEntropyState>();
  state->probs.resize(static_cast<size_t>(logits.numel()));
  state->logp.resize(static_cast<size_t>(logits.numel()));
  SoftmaxRows(logits.data().data(), state->probs.data(), state->logp.data(),
              b, c, /*inv_tau=*/1.0f);
  float loss = 0.0f;
  for (int64_t i = 0; i < b * c; ++i) {
    const size_t si = static_cast<size_t>(i);
    loss += state->probs[si] * state->logp[si];
  }
  loss /= static_cast<float>(b);
  return MakeOp(kNegativeEntropyLoss, {1}, {loss}, {logits}, state);
}

}  // namespace dtdbd::tensor
