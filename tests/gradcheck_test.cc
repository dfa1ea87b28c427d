// Property-style finite-difference gradient checks over the op library,
// parameterized so every differentiable op gets the same treatment.
#include <functional>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gradcheck.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace dtdbd::tensor {
namespace {

using dtdbd::testing::ExpectGradMatchesNumeric;

struct GradCase {
  std::string name;
  Shape input_shape;
  // Builds a scalar loss from the (leaf) input tensor.
  std::function<Tensor(const Tensor&)> forward;
};

// Without this, gtest prints the case as raw bytes, which include heap
// addresses, so the registered test names would change from run to run.
void PrintTo(const GradCase& c, std::ostream* os) { *os << c.name; }

// A fixed "other operand" so binary ops are exercised with non-trivial
// partners.
Tensor Partner(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(NumElements(shape));
  for (auto& v : data) v = static_cast<float>(rng.Normal(0.0, 1.0));
  return Tensor::FromData(shape, std::move(data));
}

class OpGradTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(OpGradTest, MatchesNumericGradient) {
  const GradCase& c = GetParam();
  Rng rng(7);
  std::vector<float> data(NumElements(c.input_shape));
  for (auto& v : data) v = static_cast<float>(rng.Normal(0.0, 1.0));
  Tensor x = Tensor::FromData(c.input_shape, std::move(data), true);
  ExpectGradMatchesNumeric(x, [&]() { return c.forward(x); });
}

std::vector<GradCase> MakeCases() {
  std::vector<GradCase> cases;
  auto scalarize = [](Tensor t) { return Mean(Square(t)); };

  cases.push_back({"Add", {3, 4},
                   [scalarize](const Tensor& x) {
                     return scalarize(Add(x, Partner({3, 4}, 1)));
                   }});
  cases.push_back({"Sub", {3, 4},
                   [scalarize](const Tensor& x) {
                     return scalarize(Sub(Partner({3, 4}, 2), x));
                   }});
  cases.push_back({"Mul", {3, 4},
                   [scalarize](const Tensor& x) {
                     return scalarize(Mul(x, Partner({3, 4}, 3)));
                   }});
  cases.push_back({"AddBiasInput", {4, 3},
                   [scalarize](const Tensor& x) {
                     return scalarize(AddBias(x, Partner({3}, 4)));
                   }});
  cases.push_back({"Relu", {12},
                   [scalarize](const Tensor& x) {
                     return scalarize(Relu(x));
                   }});
  cases.push_back({"Tanh", {8},
                   [scalarize](const Tensor& x) {
                     return scalarize(Tanh(x));
                   }});
  cases.push_back({"Sigmoid", {8},
                   [scalarize](const Tensor& x) {
                     return scalarize(Sigmoid(x));
                   }});
  cases.push_back({"MatMulLhs", {3, 4},
                   [scalarize](const Tensor& x) {
                     return scalarize(MatMul(x, Partner({4, 2}, 5)));
                   }});
  cases.push_back({"MatMulRhs", {4, 2},
                   [scalarize](const Tensor& x) {
                     return scalarize(MatMul(Partner({3, 4}, 6), x));
                   }});
  cases.push_back({"Transpose2d", {3, 5},
                   [scalarize](const Tensor& x) {
                     return scalarize(Transpose2d(x));
                   }});
  cases.push_back({"MeanOverTime", {2, 3, 4},
                   [scalarize](const Tensor& x) {
                     return scalarize(MeanOverTime(x));
                   }});
  cases.push_back({"MaxOverTime", {2, 3, 4},
                   [scalarize](const Tensor& x) {
                     return scalarize(MaxOverTime(x));
                   }});
  cases.push_back({"Reshape", {2, 6},
                   [scalarize](const Tensor& x) {
                     return scalarize(Reshape(x, {3, 4}));
                   }});
  cases.push_back({"ConcatLastDim", {3, 2},
                   [scalarize](const Tensor& x) {
                     return scalarize(ConcatLastDim({x, Partner({3, 3}, 7)}));
                   }});
  cases.push_back({"SliceLastDim", {3, 5},
                   [scalarize](const Tensor& x) {
                     return scalarize(SliceLastDim(x, 1, 3));
                   }});
  cases.push_back({"SliceTime", {2, 4, 3},
                   [scalarize](const Tensor& x) {
                     return scalarize(SliceTime(x, 2));
                   }});
  cases.push_back({"StackTime", {3, 4},
                   [scalarize](const Tensor& x) {
                     return scalarize(StackTime({x, Partner({3, 4}, 8), x}));
                   }});
  cases.push_back({"Softmax", {3, 5},
                   [scalarize](const Tensor& x) {
                     return scalarize(Softmax(x));
                   }});
  cases.push_back({"LogSoftmax", {3, 5},
                   [scalarize](const Tensor& x) {
                     return scalarize(LogSoftmax(x));
                   }});
  cases.push_back({"EmbeddingGather", {4, 3},
                   [scalarize](const Tensor& x) {
                     return scalarize(EmbeddingGather(x, {0, 2, 1, 3, 3, 0},
                                                      2, 3));
                   }});
  cases.push_back({"Conv1dSeqInput", {2, 5, 3},
                   [scalarize](const Tensor& x) {
                     return scalarize(
                         Conv1dSeq(x, Partner({2, 6}, 9), Partner({2}, 10), 2));
                   }});
  cases.push_back({"Conv1dSeqWeight", {2, 6},
                   [scalarize](const Tensor& x) {
                     return scalarize(Conv1dSeq(Partner({2, 5, 3}, 11), x,
                                                Partner({2}, 12), 2));
                   }});
  cases.push_back({"Conv1dSeqBias", {2},
                   [scalarize](const Tensor& x) {
                     return scalarize(Conv1dSeq(Partner({2, 5, 3}, 13),
                                                Partner({2, 6}, 14), x, 2));
                   }});
  // GradReverse is deliberately NOT gradient-checked: it lies to autograd
  // by construction (identity forward, -lambda * g backward), which is the
  // whole point of domain adversarial training. Its backward behaviour is
  // asserted directly in ops_test.cc.
  cases.push_back({"PairwiseSquaredDistances", {4, 3},
                   [scalarize](const Tensor& x) {
                     return scalarize(PairwiseSquaredDistances(x));
                   }});
  cases.push_back({"LayerNormInput", {3, 6},
                   [scalarize](const Tensor& x) {
                     return scalarize(LayerNormOp(x, Partner({6}, 15),
                                                  Partner({6}, 16)));
                   }});
  cases.push_back({"WeightedSumOverTimeX", {2, 3, 4},
                   [scalarize](const Tensor& x) {
                     return scalarize(
                         WeightedSumOverTime(x, Partner({2, 3}, 17)));
                   }});
  cases.push_back({"WeightedSumOverTimeW", {2, 3},
                   [scalarize](const Tensor& x) {
                     return scalarize(
                         WeightedSumOverTime(Partner({2, 3, 4}, 18), x));
                   }});
  cases.push_back({"CrossEntropyLoss", {4, 3},
                   [](const Tensor& x) {
                     return CrossEntropyLoss(x, {0, 2, 1, 2});
                   }});
  cases.push_back({"DistillKlStudent", {4, 3},
                   [](const Tensor& x) {
                     return DistillKlLoss(Partner({4, 3}, 19), x, 2.0f);
                   }});
  cases.push_back({"NegativeEntropy", {4, 3},
                   [](const Tensor& x) { return NegativeEntropyLoss(x); }});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpGradTest, ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<GradCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace dtdbd::tensor
