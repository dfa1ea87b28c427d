#include "tensor/ops.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace dtdbd::tensor {
namespace {

TEST(OpsTest, AddSubMul) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromData({2, 2}, {5, 6, 7, 8});
  Tensor sum = Add(a, b);
  Tensor diff = Sub(a, b);
  Tensor prod = Mul(a, b);
  EXPECT_EQ(sum.data(), (std::vector<float>{6, 8, 10, 12}));
  EXPECT_EQ(diff.data(), (std::vector<float>{-4, -4, -4, -4}));
  EXPECT_EQ(prod.data(), (std::vector<float>{5, 12, 21, 32}));
}

TEST(OpsTest, AddBiasBroadcasts2dAnd3d) {
  Tensor x2 = Tensor::FromData({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor b = Tensor::FromData({3}, {1, 2, 3});
  EXPECT_EQ(AddBias(x2, b).data(), (std::vector<float>{1, 2, 3, 2, 3, 4}));

  Tensor x3 = Tensor::Zeros({2, 2, 3});
  Tensor y3 = AddBias(x3, b);
  EXPECT_EQ(y3.shape(), (Shape{2, 2, 3}));
  EXPECT_EQ(y3.at(0), 1.0f);
  EXPECT_EQ(y3.at(5), 3.0f);
}

TEST(OpsTest, UnaryOps) {
  Tensor x = Tensor::FromData({3}, {-1.0f, 0.0f, 2.0f});
  EXPECT_EQ(Relu(x).data(), (std::vector<float>{0, 0, 2}));
  EXPECT_EQ(ScalarMul(x, -2.0f).data(), (std::vector<float>{2, 0, -4}));
  EXPECT_FLOAT_EQ(Tanh(x).at(2), std::tanh(2.0f));
  EXPECT_FLOAT_EQ(Sigmoid(x).at(0), 1.0f / (1.0f + std::exp(1.0f)));
  EXPECT_EQ(Square(x).data(), (std::vector<float>{1, 0, 4}));
}

TEST(OpsTest, MatMulKnownValues) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.data(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(OpsTest, Transpose2d) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose2d(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.data(), (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(OpsTest, Reductions) {
  Tensor x = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(Sum(x).item(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(x).item(), 2.5f);
}

TEST(OpsTest, MeanAndMaxOverTime) {
  // [1, 3, 2] sequence: batch 1, time 3, features 2.
  Tensor x = Tensor::FromData({1, 3, 2}, {1, -1, 5, 0, 3, 2});
  Tensor mean = MeanOverTime(x);
  EXPECT_EQ(mean.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(mean.at(0), 3.0f);
  EXPECT_FLOAT_EQ(mean.at(1), 1.0f / 3.0f);
  Tensor mx = MaxOverTime(x);
  EXPECT_FLOAT_EQ(mx.at(0), 5.0f);
  EXPECT_FLOAT_EQ(mx.at(1), 2.0f);
}

TEST(OpsTest, ReshapePreservesData) {
  Tensor x = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(x, {3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  EXPECT_EQ(r.data(), x.data());
}

TEST(OpsTest, ConcatAndSliceLastDim) {
  Tensor a = Tensor::FromData({2, 1}, {1, 2});
  Tensor b = Tensor::FromData({2, 2}, {3, 4, 5, 6});
  Tensor c = ConcatLastDim({a, b});
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_EQ(c.data(), (std::vector<float>{1, 3, 4, 2, 5, 6}));
  Tensor s = SliceLastDim(c, 1, 2);
  EXPECT_EQ(s.data(), (std::vector<float>{3, 4, 5, 6}));
}

TEST(OpsTest, SliceAndStackTime) {
  Tensor x = Tensor::FromData({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor t0 = SliceTime(x, 0);
  Tensor t1 = SliceTime(x, 1);
  EXPECT_EQ(t0.data(), (std::vector<float>{1, 2, 5, 6}));
  EXPECT_EQ(t1.data(), (std::vector<float>{3, 4, 7, 8}));
  Tensor restacked = StackTime({t0, t1});
  EXPECT_EQ(restacked.shape(), x.shape());
  EXPECT_EQ(restacked.data(), x.data());
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor x = Tensor::FromData({2, 3}, {1, 2, 3, -5, 0, 5});
  Tensor p = Softmax(x);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 3; ++c) sum += p.at(r * 3 + c);
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  // Softmax is shift-invariant.
  Tensor shifted = Softmax(Tensor::FromData({1, 3}, {11, 12, 13}));
  Tensor base = Softmax(Tensor::FromData({1, 3}, {1, 2, 3}));
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(shifted.at(c), base.at(c), 1e-6f);
  }
}

TEST(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor x = Tensor::FromData({1, 4}, {0.5f, -1.0f, 2.0f, 0.0f});
  Tensor ls = LogSoftmax(x);
  Tensor p = Softmax(x);
  for (int c = 0; c < 4; ++c) {
    EXPECT_NEAR(ls.at(c), std::log(p.at(c)), 1e-5f);
  }
}

TEST(OpsTest, EmbeddingGather) {
  Tensor table = Tensor::FromData({3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor out = EmbeddingGather(table, {2, 0, 1, 1}, 2, 2);
  EXPECT_EQ(out.shape(), (Shape{2, 2, 2}));
  EXPECT_EQ(out.data(), (std::vector<float>{20, 21, 0, 1, 10, 11, 10, 11}));
}

TEST(OpsTest, Conv1dSeqKnownValues) {
  // Batch 1, T=3, E=1; kernel width 2, 1 channel, weight [1, 2], bias 0.5.
  Tensor x = Tensor::FromData({1, 3, 1}, {1, 2, 3});
  Tensor w = Tensor::FromData({1, 2}, {1, 2});
  Tensor b = Tensor::FromData({1}, {0.5f});
  Tensor y = Conv1dSeq(x, w, b, 2);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 1}));
  EXPECT_FLOAT_EQ(y.at(0), 1 * 1 + 2 * 2 + 0.5f);
  EXPECT_FLOAT_EQ(y.at(1), 2 * 1 + 3 * 2 + 0.5f);
}

// The conv backward's per-element order as the dense loops: gw[ci] and
// gb[ci] accumulate over (bi, o) ascending, and each gx window row over
// (o, ci) ascending, skipping zero output grads. g is [b, to, c].
struct ConvGrads {
  std::vector<float> gx, gw, gb;
};

ConvGrads DenseConvBackward(const std::vector<float>& x,
                            const std::vector<float>& w,
                            const std::vector<float>& g, int64_t b, int64_t t,
                            int64_t e, int64_t c, int64_t k) {
  const int64_t to = t - k + 1, win = k * e;
  ConvGrads r{std::vector<float>(b * t * e), std::vector<float>(c * win),
              std::vector<float>(c)};
  for (int64_t ci = 0; ci < c; ++ci) {
    for (int64_t bi = 0; bi < b; ++bi) {
      for (int64_t o = 0; o < to; ++o) {
        const float a = g[(bi * to + o) * c + ci];
        if (a == 0.0f) continue;
        r.gb[ci] += a;
        for (int64_t j = 0; j < win; ++j) {
          r.gw[ci * win + j] += a * x[(bi * t + o) * e + j];
        }
      }
    }
  }
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t o = 0; o < to; ++o) {
      for (int64_t ci = 0; ci < c; ++ci) {
        const float a = g[(bi * to + o) * c + ci];
        if (a == 0.0f) continue;
        for (int64_t j = 0; j < win; ++j) {
          r.gx[(bi * t + o) * e + j] += a * w[ci * win + j];
        }
      }
    }
  }
  return r;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Conv1dSeq, and Conv1dSeqReluMax, whose dense output grad is
// (0 + g) * m + 0 at the first argmax of each (bi, ci), m the ReLU mask
// there, and 0 elsewhere: both ops' gradients equal the dense loops' bits.
TEST(OpsTest, ConvBackwardMatchesDenseLoopOrder) {
  const int64_t b = 3, t = 9, e = 5, c = 7, k = 3, to = t - k + 1;
  Rng rng(11);
  const auto normal = [&rng](int64_t n) {
    std::vector<float> v(static_cast<size_t>(n));
    for (float& f : v) f = static_cast<float>(rng.Normal());
    return v;
  };
  const std::vector<float> xv = normal(b * t * e), wv = normal(c * k * e),
                           bv = normal(c);
  const auto check = [&](bool fused, const std::vector<float>& up) {
    Tensor x = Tensor::FromData({b, t, e}, xv, true);
    Tensor w = Tensor::FromData({c, k * e}, wv, true);
    Tensor bias = Tensor::FromData({c}, bv, true);
    Tensor y =
        fused ? Conv1dSeqReluMax(x, w, bias, k) : Conv1dSeq(x, w, bias, k);
    Sum(Mul(y, Tensor::FromData(y.shape(), up))).Backward();
    std::vector<float> dense = up;
    if (fused) {
      const std::vector<float> pre =
          Conv1dSeq(x, w, bias, k).Detach().ToVector();
      dense.assign(static_cast<size_t>(b * to * c), 0.0f);
      for (int64_t bi = 0; bi < b; ++bi) {
        for (int64_t ci = 0; ci < c; ++ci) {
          const auto relu = [&](int64_t o) {
            const float v = pre[(bi * to + o) * c + ci];
            return v > 0.0f ? v : 0.0f;
          };
          int64_t arg = 0;
          for (int64_t o = 1; o < to; ++o) {
            if (relu(o) > relu(arg)) arg = o;
          }
          const float m = relu(arg) > 0.0f ? 1.0f : 0.0f;
          dense[(bi * to + arg) * c + ci] =
              (0.0f + up[bi * c + ci]) * m + 0.0f;
        }
      }
    }
    const ConvGrads ref = DenseConvBackward(xv, wv, dense, b, t, e, c, k);
    EXPECT_TRUE(SameBits(x.grad(), ref.gx)) << (fused ? "fused" : "conv");
    EXPECT_TRUE(SameBits(w.grad(), ref.gw)) << (fused ? "fused" : "conv");
    EXPECT_TRUE(SameBits(bias.grad(), ref.gb)) << (fused ? "fused" : "conv");
  };
  check(false, normal(b * to * c));
  check(true, normal(b * c));
}

TEST(OpsTest, GradReverseIdentityForwardNegativeBackward) {
  Tensor x = Tensor::FromData({2}, {1, 2}, true);
  Tensor y = GradReverse(x, 0.5f);
  EXPECT_EQ(y.data(), x.data());
  Tensor loss = Sum(y);
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], -0.5f);
  EXPECT_FLOAT_EQ(x.grad()[1], -0.5f);
}

TEST(OpsTest, DropoutEvalIsIdentityTrainingScales) {
  Rng rng(3);
  Tensor x = Tensor::Full({1000}, 1.0f);
  Tensor eval_out = Dropout(x, 0.5, &rng, /*training=*/false);
  EXPECT_EQ(eval_out.data(), x.data());

  Tensor train_out = Dropout(x, 0.5, &rng, /*training=*/true);
  int zeros = 0;
  for (float v : train_out.data()) {
    EXPECT_TRUE(v == 0.0f || v == 2.0f);
    if (v == 0.0f) ++zeros;
  }
  EXPECT_GT(zeros, 350);
  EXPECT_LT(zeros, 650);
}

TEST(OpsTest, PairwiseSquaredDistances) {
  Tensor x = Tensor::FromData({3, 2}, {0, 0, 3, 4, 0, 1});
  Tensor m = PairwiseSquaredDistances(x);
  EXPECT_EQ(m.shape(), (Shape{3, 3}));
  EXPECT_FLOAT_EQ(m.at(0), 0.0f);
  EXPECT_FLOAT_EQ(m.at(1), 25.0f);   // (0,0)-(3,4)
  EXPECT_FLOAT_EQ(m.at(2), 1.0f);    // (0,0)-(0,1)
  EXPECT_FLOAT_EQ(m.at(3), 25.0f);   // symmetric
  EXPECT_FLOAT_EQ(m.at(5), 18.0f);   // (3,4)-(0,1): 9+9
}

TEST(OpsTest, LayerNormZeroMeanUnitVar) {
  Tensor x = Tensor::FromData({2, 4}, {1, 2, 3, 4, -10, 0, 10, 20});
  Tensor gamma = Tensor::Full({4}, 1.0f);
  Tensor beta = Tensor::Zeros({4});
  Tensor y = LayerNormOp(x, gamma, beta);
  for (int r = 0; r < 2; ++r) {
    float mean = 0.0f, var = 0.0f;
    for (int c = 0; c < 4; ++c) mean += y.at(r * 4 + c);
    mean /= 4.0f;
    for (int c = 0; c < 4; ++c) {
      const float d = y.at(r * 4 + c) - mean;
      var += d * d;
    }
    var /= 4.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    EXPECT_NEAR(var, 1.0f, 1e-3f);
  }
}

TEST(OpsTest, WeightedSumOverTimeSelectsWithOneHot) {
  Tensor x = Tensor::FromData({1, 2, 2}, {1, 2, 3, 4});
  Tensor w = Tensor::FromData({1, 2}, {0, 1});
  Tensor y = WeightedSumOverTime(x, w);
  EXPECT_EQ(y.data(), (std::vector<float>{3, 4}));
}

TEST(OpsDeathTest, ShapeMismatches) {
  Tensor a = Tensor::Zeros({2, 2});
  Tensor b = Tensor::Zeros({2, 3});
  EXPECT_DEATH(Add(a, b), "shape mismatch");
  EXPECT_DEATH(MatMul(a, Tensor::Zeros({3, 2})), "inner dims");
  EXPECT_DEATH(SliceLastDim(a, 1, 3), "");
}

TEST(OpsDeathTest, EmbeddingOutOfRange) {
  Tensor table = Tensor::Zeros({3, 2});
  EXPECT_DEATH(EmbeddingGather(table, {3}, 1, 1), "vocabulary");
}

}  // namespace
}  // namespace dtdbd::tensor
