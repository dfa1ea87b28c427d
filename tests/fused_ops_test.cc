// Fused-op parity suite: each fused op (LinearRelu, Conv1dSeqReluMax,
// MatVecOverTime, SoftmaxCrossEntropy, SoftmaxKl) must produce BITWISE
// identical losses AND gradients to the unfused composition it replaces —
// at every thread count. The compositions are the oracles in
// fused_oracles.h; fusion changes a training run's speed and graph size,
// never its numbers.
//
// Comparison graphs keep at most two gradient contributions per compared
// leaf element: with float accumulation, (0+a)+b == (0+b)+a bitwise, but
// three-way sums are order-sensitive and would make the bitwise assertion
// depend on traversal order rather than kernel math.
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/init.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/registry.h"
#include "tensor/tensor.h"
#include "fused_oracles.h"
#include "gradcheck.h"

namespace dtdbd::tensor {
namespace {

using ::dtdbd::testing::Conv1dSeqReluMaxOracle;
using ::dtdbd::testing::CrossEntropyOracle;
using ::dtdbd::testing::DistillKlOracle;
using ::dtdbd::testing::LinearReluOracle;
using ::dtdbd::testing::MatVecOverTimeOracle;

Tensor Rand(const Shape& shape, uint64_t seed, bool requires_grad = true) {
  Rng rng(seed);
  return NormalInit(shape, 1.0f, &rng, requires_grad);
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct Run {
  std::vector<float> loss;
  std::vector<std::vector<float>> grads;
  std::string dump;
};

// Builds a scalar loss from fresh leaves, runs backward, and returns the
// loss plus every leaf gradient. A builder takes `fused`: true builds the
// graph with the fused op, false with its oracle.
struct Graph {
  std::vector<Tensor> leaves;
  Tensor loss;
};
using Builder = std::function<Graph(bool fused)>;

Run Execute(const Builder& build, bool fused) {
  Graph g = build(fused);
  Run r;
  r.dump = DumpGraph(g.loss);
  g.loss.Backward();
  r.loss = g.loss.ToVector();
  for (Tensor& leaf : g.leaves) r.grads.push_back(leaf.grad());
  return r;
}

void ExpectRunsBitwiseEqual(const Run& a, const Run& b, const char* what) {
  EXPECT_TRUE(BitwiseEqual(a.loss, b.loss)) << what << ": loss differs";
  ASSERT_EQ(a.grads.size(), b.grads.size()) << what;
  for (size_t i = 0; i < a.grads.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(a.grads[i], b.grads[i]))
        << what << ": grad of leaf " << i << " differs";
  }
}

// Runs the oracle single-threaded, then sweeps the fused graph over thread
// counts and asserts bitwise parity with it. `fused_op` must appear in the
// fused dump and not the oracle one, proving the two graphs differ.
void CheckFusedParity(const Builder& build, const char* fused_op) {
  const Run unfused = Execute(build, /*fused=*/false);
  EXPECT_EQ(unfused.dump.find(std::string("= ") + fused_op + "("),
            std::string::npos)
      << fused_op << " recorded by its oracle";
  KernelPool pool1(1), pool2(2), pool4(4), pool8(8);
  for (const KernelPool* pool : {&pool1, &pool2, &pool4, &pool8}) {
    ScopedKernelPool scope(pool);
    const Run fused = Execute(build, /*fused=*/true);
    EXPECT_NE(fused.dump.find(std::string("= ") + fused_op + "("),
              std::string::npos)
        << fused_op << " not recorded by the fused graph";
    SCOPED_TRACE(std::string(fused_op) + " threads=" +
                 std::to_string(pool->nthreads()));
    ExpectRunsBitwiseEqual(unfused, fused, fused_op);
  }
}

TEST(FusedOpsTest, LinearReluMatchesUnfusedBitwise) {
  CheckFusedParity(
      [](bool fused) {
        Tensor x = Rand({48, 32}, 1);
        Tensor w = Rand({32, 40}, 2);
        Tensor b = Rand({40}, 3);
        return Graph{{x, w, b}, Sum(fused ? LinearRelu(x, w, b)
                                          : LinearReluOracle(x, w, b))};
      },
      "LinearRelu");
}

TEST(FusedOpsTest, Conv1dSeqReluMaxMatchesUnfusedBitwise) {
  CheckFusedParity(
      [](bool fused) {
        Tensor x = Rand({5, 20, 48}, 4);
        Tensor w = Rand({24, 3 * 48}, 5);
        Tensor b = Rand({24}, 6);
        return Graph{{x, w, b},
                     Sum(fused ? Conv1dSeqReluMax(x, w, b, 3)
                               : Conv1dSeqReluMaxOracle(x, w, b, 3))};
      },
      "Conv1dSeqReluMax");
}

// The pooling's edge cases against the oracle: ties (sequence 0 repeats
// one token, so every position ties; sequence 1 has period 2), columns
// with no positive pre-activation (a bias of -100: pooled 0, argmax 0,
// ReLU mask 0 at the argmax), and upstream grads of +-0, +-Inf and NaN,
// which the mask turns into NaN where it is 0.
TEST(FusedOpsTest, Conv1dSeqReluMaxEdgeCasesMatchUnfusedBitwise) {
  CheckFusedParity(
      [](bool fused) {
        const int64_t b = 3, t = 9, e = 5, c = 20, k = 2;
        std::vector<float> xv = Rand({b, t, e}, 40, false).ToVector();
        for (int64_t ti = 0; ti < t; ++ti) {
          for (int64_t j = 0; j < e; ++j) {
            xv[ti * e + j] = xv[j];                           // sequence 0
            xv[(t + ti) * e + j] = xv[(t + ti % 2) * e + j];  // sequence 1
          }
        }
        std::vector<float> bv = Rand({c}, 41, false).ToVector();
        for (int64_t ci = 0; ci < c; ci += 4) bv[ci] = -100.0f;
        const float inf = std::numeric_limits<float>::infinity();
        const float specials[] = {0.0f, -0.0f, inf, -inf,
                                  std::numeric_limits<float>::quiet_NaN()};
        std::vector<float> up = Rand({b, c}, 42, false).ToVector();
        for (size_t i = 0; i < up.size(); i += 2) {
          up[i] = specials[(i / 2) % std::size(specials)];
        }
        Tensor x = Tensor::FromData({b, t, e}, std::move(xv), true);
        Tensor w = Rand({c, k * e}, 43);
        Tensor bias = Tensor::FromData({c}, std::move(bv), true);
        Tensor y = fused ? Conv1dSeqReluMax(x, w, bias, k)
                         : Conv1dSeqReluMaxOracle(x, w, bias, k);
        return Graph{{x, w, bias},
                     Sum(Mul(y, Tensor::FromData({b, c}, std::move(up))))};
      },
      "Conv1dSeqReluMax");
}

TEST(FusedOpsTest, MatVecOverTimeMatchesUnfusedBitwise) {
  CheckFusedParity(
      [](bool fused) {
        Tensor x = Rand({6, 18, 40}, 7);
        Tensor v = Rand({40, 1}, 8);
        return Graph{{x, v}, Sum(fused ? MatVecOverTime(x, v)
                                       : MatVecOverTimeOracle(x, v))};
      },
      "MatVecOverTime");
}

// Full attention chain: fused score, softmax, batched-GEMM pooling. The
// sequence leaf gets exactly two gradient contributions (score branch and
// pooling branch), which is still bitwise order-safe.
TEST(FusedOpsTest, AttentionChainMatchesUnfusedBitwise) {
  CheckFusedParity(
      [](bool fused) {
        Tensor x = Rand({6, 18, 40}, 9);
        Tensor v = Rand({40, 1}, 10);
        Tensor weights = Softmax(fused ? MatVecOverTime(x, v)
                                       : MatVecOverTimeOracle(x, v));
        return Graph{{x, v}, Sum(WeightedSumOverTime(x, weights))};
      },
      "MatVecOverTime");
}

TEST(FusedOpsTest, SoftmaxCrossEntropyMatchesUnfusedBitwise) {
  CheckFusedParity(
      [](bool fused) {
        Tensor logits = Rand({30, 4}, 11);
        std::vector<int> labels(30);
        for (int i = 0; i < 30; ++i) labels[i] = i % 4;
        return Graph{{logits}, fused ? CrossEntropyLoss(logits, labels)
                                     : CrossEntropyOracle(logits, labels)};
      },
      "SoftmaxCrossEntropy");
}

TEST(FusedOpsTest, SoftmaxKlMatchesUnfusedBitwise) {
  for (float tau : {1.0f, 2.0f}) {
    SCOPED_TRACE("tau=" + std::to_string(tau));
    CheckFusedParity(
        [tau](bool fused) {
          Tensor teacher = Rand({30, 4}, 12, /*requires_grad=*/false);
          Tensor student = Rand({30, 4}, 13);
          return Graph{{student},
                       fused ? DistillKlLoss(teacher, student, tau)
                             : DistillKlOracle(teacher, student, tau)};
        },
        "SoftmaxKl");
  }
}

// The teacher is a constant in the fused op and its oracle: even when it
// requires grad, no gradient may flow into it.
TEST(FusedOpsTest, SoftmaxKlTeacherGetsNoGradient) {
  for (bool fused : {false, true}) {
    Tensor teacher = Rand({8, 4}, 14, /*requires_grad=*/true);
    Tensor student = Rand({8, 4}, 15);
    Tensor loss = fused ? DistillKlLoss(teacher, student, 2.0f)
                        : DistillKlOracle(teacher, student, 2.0f);
    loss.Backward();
    for (float g : teacher.grad()) {
      EXPECT_EQ(g, 0.0f) << (fused ? "fused" : "unfused");
    }
    bool any_nonzero = false;
    for (float g : student.grad()) any_nonzero = any_nonzero || g != 0.0f;
    EXPECT_TRUE(any_nonzero) << (fused ? "fused" : "unfused");
  }
}

// ----- Numeric gradient checks of the fused kernels themselves -----

TEST(FusedOpsTest, LinearReluGradcheck) {
  Tensor x = Rand({5, 6}, 20);
  Tensor w = Rand({6, 7}, 21);
  // Bias offset keeps pre-activations away from the ReLU kink, where
  // central differences are invalid.
  Tensor b = Tensor::Full({7}, 0.35f, /*requires_grad=*/true);
  const auto forward = [&] { return Sum(LinearRelu(x, w, b)); };
  ::dtdbd::testing::ExpectGradMatchesNumeric(x, forward);
  ::dtdbd::testing::ExpectGradMatchesNumeric(w, forward);
  ::dtdbd::testing::ExpectGradMatchesNumeric(b, forward);
}

TEST(FusedOpsTest, Conv1dSeqReluMaxGradcheck) {
  Tensor x = Rand({2, 7, 5}, 22);
  Tensor w = Rand({4, 2 * 5}, 23);
  Tensor b = Tensor::Full({4}, 0.4f, /*requires_grad=*/true);
  const auto forward = [&] { return Sum(Conv1dSeqReluMax(x, w, b, 2)); };
  ::dtdbd::testing::ExpectGradMatchesNumeric(x, forward);
  ::dtdbd::testing::ExpectGradMatchesNumeric(w, forward);
  ::dtdbd::testing::ExpectGradMatchesNumeric(b, forward);
}

TEST(FusedOpsTest, MatVecOverTimeGradcheck) {
  Tensor x = Rand({3, 5, 6}, 24);
  Tensor v = Rand({6, 1}, 25);
  const auto forward = [&] { return Sum(Square(MatVecOverTime(x, v))); };
  ::dtdbd::testing::ExpectGradMatchesNumeric(x, forward);
  ::dtdbd::testing::ExpectGradMatchesNumeric(v, forward);
}

TEST(FusedOpsTest, SoftmaxCrossEntropyGradcheck) {
  Tensor logits = Rand({6, 4}, 26);
  std::vector<int> labels = {0, 1, 2, 3, 1, 2};
  const auto forward = [&] { return CrossEntropyLoss(logits, labels); };
  ::dtdbd::testing::ExpectGradMatchesNumeric(logits, forward);
}

TEST(FusedOpsTest, SoftmaxKlGradcheck) {
  Tensor teacher = Rand({6, 4}, 27, /*requires_grad=*/false);
  Tensor student = Rand({6, 4}, 28);
  const auto forward = [&] { return DistillKlLoss(teacher, student, 2.0f); };
  ::dtdbd::testing::ExpectGradMatchesNumeric(student, forward);
}

// Fusion reduces the node count of a linear+loss step below its oracle
// graph's; the graph counters (MakeOp/MakeView instrumentation) see it.
TEST(FusedOpsTest, FusionShrinksRecordedGraph) {
  const auto count_nodes = [](bool fused) {
    SetOpProfiling(true);
    ResetOpStats();
    Tensor x = Rand({16, 24}, 30);
    Tensor w = Rand({24, 12}, 31);
    Tensor b = Rand({12}, 32);
    Tensor h = fused ? LinearRelu(x, w, b) : LinearReluOracle(x, w, b);
    Tensor logits = AddBias(MatMul(h, Rand({12, 2}, 33)), Rand({2}, 34));
    std::vector<int> labels(16, 1);
    Tensor loss = fused ? CrossEntropyLoss(logits, labels)
                        : CrossEntropyOracle(logits, labels);
    loss.Backward();
    const OpStats total = TotalOpStats();
    SetOpProfiling(false);
    return total;
  };
  const OpStats fused = count_nodes(true);
  const OpStats unfused = count_nodes(false);
  EXPECT_LT(fused.nodes, unfused.nodes);
  EXPECT_LE(fused.allocs, unfused.allocs);
  EXPECT_GT(fused.nodes, 0u);
}

}  // namespace
}  // namespace dtdbd::tensor
