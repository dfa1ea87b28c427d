// Backend-consistency suite: every registered op must produce bitwise
// identical forward results AND gradients regardless of the configured
// thread count. This is the contract that makes the parallel backend safe
// to enable by default — training runs, checkpoints, and paper tables do
// not depend on the machine's core count.
//
// A coverage assertion walks OpRegistry::All() and fails when a newly
// registered op has no consistency case here.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <set>
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

namespace dtdbd::tensor {
namespace {

Tensor Rand(const Shape& shape, uint64_t seed, bool requires_grad = true) {
  Rng rng(seed);
  return NormalInit(shape, 1.0f, &rng, requires_grad);
}

// Forces the SIMD dispatch flag: off produces the scalar oracle, on runs
// the AVX-512 fast paths (where the CPU has them; on other machines both
// settings run scalar and the parity tests are vacuous but still green).
class ScopedSimd {
 public:
  explicit ScopedSimd(bool enabled) : saved_(SimdEnabled()) {
    SetSimdEnabled(enabled);
  }
  ~ScopedSimd() { SetSimdEnabled(saved_); }

 private:
  bool saved_;
};

// One consistency case: builds leaves + a scalar loss from fixed seeds.
// `outputs` are op results whose every bit is compared too, beyond what
// the scalar loss keeps.
struct Built {
  std::vector<Tensor> leaves;
  Tensor loss;
  std::vector<Tensor> outputs = {};
};

struct Case {
  std::string name;
  std::function<Built()> build;
};

struct CaseResult {
  std::vector<float> loss;
  std::vector<std::vector<float>> outputs;
  std::vector<std::vector<float>> grads;
  std::string dump;
};

CaseResult RunCase(const Case& c) {
  Built built = c.build();
  CaseResult r;
  r.dump = DumpGraph(built.loss);
  built.loss.Backward();
  r.loss = built.loss.ToVector();
  for (Tensor& out : built.outputs) r.outputs.push_back(out.ToVector());
  for (Tensor& leaf : built.leaves) r.grads.push_back(leaf.grad());
  return r;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Bitwise equality, except that any two NaNs match. When both operands of
// an add are NaN, which one propagates depends on the operand order the
// compiler picks (it may commute a float add), so a NaN's sign and payload
// are not part of the scalar == SIMD contract.
bool SameBitsOrBothNan(const std::vector<float>& a,
                       const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) return false;
  }
  return true;
}

// `nan_equal` compares with SameBitsOrBothNan instead of BitwiseEqual.
void ExpectBitwiseEqual(const CaseResult& a, const CaseResult& b,
                        const std::string& case_name,
                        bool nan_equal = false) {
  const auto equal = nan_equal ? SameBitsOrBothNan : BitwiseEqual;
  EXPECT_TRUE(equal(a.loss, b.loss)) << case_name << ": loss differs";
  ASSERT_EQ(a.outputs.size(), b.outputs.size()) << case_name;
  for (size_t i = 0; i < a.outputs.size(); ++i) {
    EXPECT_TRUE(equal(a.outputs[i], b.outputs[i]))
        << case_name << ": output " << i << " differs";
  }
  ASSERT_EQ(a.grads.size(), b.grads.size()) << case_name;
  for (size_t i = 0; i < a.grads.size(); ++i) {
    EXPECT_TRUE(equal(a.grads[i], b.grads[i]))
        << case_name << ": grad of leaf " << i << " differs";
  }
}

// Shapes are chosen large enough that the sharded paths actually engage
// (elementwise grain is 4096; row kernels shard when rows*work > 4096).
std::vector<Case> AllCases() {
  std::vector<Case> cases;

  cases.push_back({"elementwise_chain", [] {
    Tensor a = Rand({70, 70}, 1);
    Tensor b = Rand({70, 70}, 2);
    Tensor ones = Tensor::Full({70, 70}, 1.0f);
    Tensor x = Add(Mul(a, b), Sub(a, b));
    x = Sigmoid(Tanh(Relu(x)));
    x = Add(Square(ScalarMul(x, 0.5f)), ones);
    return Built{{a, b}, Sum(x)};
  }});

  cases.push_back({"matmul_affine_softmax", [] {
    Tensor x = Rand({48, 32}, 3);
    Tensor w = Rand({32, 40}, 4);
    Tensor bias = Rand({40}, 5);
    Tensor h = AddBias(MatMul(x, w), bias);
    Tensor loss = Add(Sum(Softmax(h)), Mean(LogSoftmax(h)));
    return Built{{x, w, bias}, loss};
  }});

  cases.push_back({"views_and_transpose", [] {
    Tensor x = Rand({24, 40}, 6);
    Tensor m = MatMul(Transpose2d(x), x);  // forces a Contiguous node
    Tensor r = Relu(Reshape(x, {40, 24}));
    Tensor g = GradReverse(SliceLastDim(x, 8, 16), 0.7f);
    Tensor loss = Add(Sum(m), Add(Sum(r), Sum(g)));
    return Built{{x}, loss};
  }});

  cases.push_back({"sequence_pooling", [] {
    Tensor x = Rand({4, 6, 32}, 7);
    Tensor w = Softmax(Rand({4, 6}, 8));
    std::vector<Tensor> steps;
    for (int64_t t = 0; t < 6; ++t) steps.push_back(SliceTime(x, t));
    Tensor restacked = StackTime(steps);
    Tensor cat = ConcatLastDim({MeanOverTime(restacked), MaxOverTime(x)});
    Tensor pooled = WeightedSumOverTime(x, w);
    Tensor loss = Add(Sum(cat), Sum(pooled));
    return Built{{x}, loss};
  }});

  cases.push_back({"encoder_conv_layernorm_dropout", [] {
    Tensor table = Rand({60, 48}, 9);
    Rng id_rng(10);
    std::vector<int> ids(5 * 20);
    for (auto& id : ids) id = static_cast<int>(id_rng.UniformInt(60));
    Tensor e = EmbeddingGather(table, ids, 5, 20);
    Tensor w = Rand({24, 3 * 48}, 11);
    Tensor cb = Rand({24}, 12);
    Tensor c = Conv1dSeq(e, w, cb, 3);
    Tensor gamma = Rand({24}, 13);
    Tensor beta = Rand({24}, 14);
    Tensor ln = LayerNormOp(c, gamma, beta);
    // Fresh RNG per build: the mask is drawn on the dispatching thread in
    // logical order, so it must be identical for every thread count.
    Rng drop_rng(15);
    Tensor d = Dropout(ln, 0.3, &drop_rng, /*training=*/true);
    return Built{{table, w, cb, gamma, beta}, Sum(d)};
  }});

  cases.push_back({"pairwise_distances", [] {
    Tensor x = Rand({40, 64}, 16);
    return Built{{x}, Sum(PairwiseSquaredDistances(x))};
  }});

  cases.push_back({"frozen_encode", [] {
    // Non-differentiable: the trainable scale's gradient carries the
    // encoder output's bits into the consistency check.
    Tensor table = Rand({30, 40}, 40, /*requires_grad=*/false);
    Tensor mix_w = Rand({80, 40}, 41, /*requires_grad=*/false);
    Tensor mix_b = Rand({40}, 42, /*requires_grad=*/false);
    Rng id_rng(43);
    std::vector<int> ids(3 * 7);
    for (auto& id : ids) id = static_cast<int>(id_rng.UniformInt(30));
    Tensor h = FrozenEncode(table, FrozenTokenMix(table, mix_w, mix_b), mix_w,
                            ids, 3, 7);
    Tensor scale = Rand({3, 7, 40}, 44);
    return Built{{scale}, Sum(Mul(h, scale)), {h}};
  }});

  cases.push_back({"losses", [] {
    // Covers the fused SoftmaxCrossEntropy / SoftmaxKl single-node paths.
    Tensor logits = Rand({30, 4}, 17);
    std::vector<int> labels(30);
    for (int i = 0; i < 30; ++i) labels[i] = i % 4;
    Tensor teacher = Rand({30, 4}, 18, /*requires_grad=*/false);
    Tensor loss = Add(Add(CrossEntropyLoss(logits, labels),
                          DistillKlLoss(teacher, logits, 2.0f)),
                      NegativeEntropyLoss(logits));
    return Built{{logits}, loss};
  }});

  cases.push_back({"fused_chains", [] {
    // The fused kernels themselves must satisfy the thread-count
    // determinism contract.
    Tensor x = Rand({48, 32}, 21);
    Tensor w = Rand({32, 40}, 22);
    Tensor bias = Rand({40}, 23);
    Tensor lin = LinearRelu(x, w, bias);

    Tensor seq = Rand({5, 20, 48}, 24);
    Tensor cw = Rand({24, 3 * 48}, 25);
    Tensor cb = Rand({24}, 26);
    Tensor conv = Conv1dSeqReluMax(seq, cw, cb, 3);

    // Attention chain: fused score + softmax + batched-GEMM pooling.
    Tensor v = Rand({48, 1}, 27);
    Tensor scores = MatVecOverTime(seq, v);
    Tensor pooled = WeightedSumOverTime(seq, Softmax(scores));

    Tensor loss = Add(Sum(lin), Add(Sum(conv), Sum(pooled)));
    return Built{{x, w, bias, seq, cw, cb, v}, loss};
  }});

  cases.push_back({"simd_tail_shapes", [] {
    // Dimensions deliberately not multiples of 16: every vector fast path
    // must hand off to its scalar tail mid-row and mid-block. Covers
    // MatMul, LinearRelu, Softmax, LogSoftmax, LayerNorm, MatVecOverTime,
    // EmbeddingGather, and Conv1dSeq with 16-block + remainder shapes.
    Tensor x = Rand({19, 17}, 30);
    Tensor w = Rand({17, 23}, 31);
    Tensor m = MatMul(x, w);
    Tensor bias = Rand({23}, 32);
    Tensor lin = LinearRelu(x, w, bias);
    Tensor soft = Add(Sum(Softmax(m)), Mean(LogSoftmax(m)));

    Tensor table = Rand({40, 17}, 33);
    Rng id_rng(34);
    std::vector<int> ids(3 * 7);
    for (auto& id : ids) id = static_cast<int>(id_rng.UniformInt(40));
    Tensor e = EmbeddingGather(table, ids, 3, 7);
    Tensor cw = Rand({18, 3 * 17}, 35);
    Tensor cb = Rand({18}, 36);
    Tensor conv = Conv1dSeq(e, cw, cb, 3);
    Tensor gamma = Rand({18}, 37);
    Tensor beta = Rand({18}, 38);
    Tensor ln = LayerNormOp(conv, gamma, beta);

    Tensor v = Rand({17, 1}, 39);
    Tensor scores = MatVecOverTime(e, v);

    Tensor loss = Add(Add(Sum(m), Add(Sum(lin), soft)),
                      Add(Sum(ln), Sum(scores)));
    return Built{{x, w, bias, table, cw, cb, gamma, beta, v}, loss};
  }});

  cases.push_back({"unfused_reference", [] {
    // The loss oracles the fused losses are pinned to: covers NllLoss and
    // KlFromLogProbs.
    Tensor logits = Rand({30, 4}, 28);
    std::vector<int> labels(30);
    for (int i = 0; i < 30; ++i) labels[i] = (i + 1) % 4;
    Tensor teacher = Rand({30, 4}, 29, /*requires_grad=*/false);
    Tensor loss =
        Add(::dtdbd::testing::CrossEntropyOracle(logits, labels),
            ::dtdbd::testing::DistillKlOracle(teacher, logits, 1.5f));
    return Built{{logits}, loss};
  }});

  return cases;
}

TEST(BackendConsistencyTest, BitwiseIdenticalAcrossThreadCounts) {
  KernelPool pool2(2), pool3(3), pool8(8);
  for (const Case& c : AllCases()) {
    const CaseResult serial = RunCase(c);
    for (const KernelPool* pool : {&pool2, &pool3, &pool8}) {
      ScopedKernelPool scope(pool);
      const CaseResult parallel = RunCase(c);
      SCOPED_TRACE(c.name + " threads=" + std::to_string(pool->nthreads()));
      ExpectBitwiseEqual(serial, parallel, c.name);
    }
  }
}

// The PR 5 contract extended to every vectorized kernel (MatMul fwd+bwd,
// LinearRelu fwd+bwd, MatVecOverTime fwd+bwd, softmax / log-softmax /
// LayerNorm rows, EmbeddingGather fwd+bwd, Conv1dSeq): the SIMD fast
// paths must be bitwise identical to the scalar reference loops — same
// forward bits, same gradient bits — at every thread count.
TEST(BackendConsistencyTest, ScalarAndSimdPathsBitwiseIdentical) {
  KernelPool pool1(1), pool2(2), pool4(4), pool8(8);
  for (const Case& c : AllCases()) {
    CaseResult scalar;
    {
      ScopedSimd simd(false);
      scalar = RunCase(c);
    }
    for (const KernelPool* pool : {&pool1, &pool2, &pool4, &pool8}) {
      ScopedKernelPool scope(pool);
      ScopedSimd simd(true);
      const CaseResult vec = RunCase(c);
      SCOPED_TRACE(c.name + " simd threads=" +
                   std::to_string(pool->nthreads()));
      ExpectBitwiseEqual(scalar, vec, c.name);
    }
  }
}

// ----- Shape sweep: every row-in-registers kernel against its scalar
// oracle -----
//
// Table-driven, one case per shape: the scalar oracle (SIMD off, one
// thread) against the AVX-512 path at KernelPool 1/2/4/8, bitwise on the
// op's output and on every leaf gradient. The shapes cover every
// register count and lane tail the kernels can pick; upstream gradients
// hold exact zeros (+0 and -0) so the zero skips run.

// Normal values with every third entry an exact zero, alternating +0 and
// -0. Not differentiable: it is the upstream gradient of the op under test.
Tensor UpstreamWithZeros(const Shape& shape, uint64_t seed) {
  std::vector<float> v = Rand(shape, seed, /*requires_grad=*/false).ToVector();
  for (size_t i = 0; i < v.size(); i += 3) v[i] = (i / 3) % 2 ? -0.0f : 0.0f;
  return Tensor::FromData(shape, std::move(v));
}

// A conv case over rows = b * to output rows. The first window of every
// sequence is -0, and channels ci % 3 == 0 / 1 get bias +0 / -0 (channel 1
// with positive weights, so its -0 products keep the sign): those rows'
// pre-activations are exact +0 and -0, next to the random negative and
// positive ones elsewhere.
Built ConvCase(bool fused, int64_t b, int64_t to, int64_t c, int64_t k,
               int64_t e, uint64_t seed) {
  const int64_t t = to + k - 1;
  std::vector<float> xv = Rand({b, t, e}, seed, false).ToVector();
  for (int64_t bi = 0; bi < b; ++bi) {
    std::fill_n(xv.begin() + bi * t * e, k * e, -0.0f);
  }
  std::vector<float> wv = Rand({c, k * e}, seed + 1, false).ToVector();
  std::vector<float> bv = Rand({c}, seed + 2, false).ToVector();
  for (int64_t ci = 0; ci < c; ++ci) {
    if (ci % 3 == 0) bv[ci] = 0.0f;
    if (ci % 3 != 1) continue;
    bv[ci] = -0.0f;
    for (int64_t j = 0; j < k * e; ++j) {
      wv[ci * k * e + j] = std::fabs(wv[ci * k * e + j]);
    }
  }
  Tensor x = Tensor::FromData({b, t, e}, std::move(xv), true);
  Tensor w = Tensor::FromData({c, k * e}, std::move(wv), true);
  Tensor bias = Tensor::FromData({c}, std::move(bv), true);
  Tensor y =
      fused ? Conv1dSeqReluMax(x, w, bias, k) : Conv1dSeq(x, w, bias, k);
  Tensor up = UpstreamWithZeros(y.shape(), seed + 3);
  return Built{{x, w, bias}, Sum(Mul(y, up)), {y}};
}

// The pooling's edge cases: sequence 0 repeats one token, so every
// position ties and the argmax is 0; sequence 1 (when b > 1) has period 2;
// channels ci % 4 == 0 have bias -100, so no position is positive (pooled
// 0, argmax 0, ReLU mask 0); every other upstream grad is +-0, +-Inf or
// NaN, which the mask turns into NaN where it is 0.
Built ConvReluMaxEdgeCase(int64_t b, int64_t to, int64_t c, int64_t k,
                          int64_t e, uint64_t seed) {
  const int64_t t = to + k - 1;
  std::vector<float> xv = Rand({b, t, e}, seed, false).ToVector();
  for (int64_t ti = 0; ti < t; ++ti) {
    for (int64_t j = 0; j < e; ++j) {
      xv[ti * e + j] = xv[j];
      if (b > 1) xv[(t + ti) * e + j] = xv[(t + ti % 2) * e + j];
    }
  }
  std::vector<float> bv = Rand({c}, seed + 1, false).ToVector();
  for (int64_t ci = 0; ci < c; ci += 4) bv[ci] = -100.0f;
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f, -0.0f, inf, -inf,
                            std::numeric_limits<float>::quiet_NaN()};
  std::vector<float> up = Rand({b, c}, seed + 2, false).ToVector();
  for (size_t i = 0; i < up.size(); i += 2) {
    up[i] = specials[(i / 2) % std::size(specials)];
  }
  Tensor x = Tensor::FromData({b, t, e}, std::move(xv), true);
  Tensor w = Rand({c, k * e}, seed + 3);
  Tensor bias = Tensor::FromData({c}, std::move(bv), true);
  Tensor y = Conv1dSeqReluMax(x, w, bias, k);
  return Built{{x, w, bias},
               Sum(Mul(y, Tensor::FromData({b, c}, std::move(up)))),
               {y}};
}

std::vector<Case> ConvSweepCases() {
  std::vector<Case> cases;
  // Forward shapes: 1..40 output rows cross the 16-row vector dispatch
  // (shards of >= 16 rows) and every row-group tail (groups of 8 rows at
  // C <= 16 per slice, 4 above); C crosses the lane masks and the
  // 32-channel slices.
  for (int fused = 0; fused < 2; ++fused) {
    for (int64_t rows = 1; rows <= 40; ++rows) {
      const int64_t b = rows % 3 == 0 ? 3 : rows % 2 == 0 ? 2 : 1;
      for (int64_t c : {1, 8, 12, 16, 17, 32, 33}) {
        for (int64_t k = 1; k <= 5; ++k) {
          const int64_t e = std::array<int64_t, 3>{3, 8, 17}[(rows + k) % 3];
          const std::string name =
              std::string(fused ? "Conv1dSeqReluMax" : "Conv1dSeq") +
              " rows=" + std::to_string(rows) + " C=" + std::to_string(c) +
              " k=" + std::to_string(k) + " E=" + std::to_string(e) +
              " B=" + std::to_string(b);
          const uint64_t seed = static_cast<uint64_t>(
              (((fused * 41 + rows) * 40 + c) * 8 + k) * 4 + 100000);
          cases.push_back({name, [=] {
            return ConvCase(fused, b, rows / b, c, k, e, seed);
          }});
        }
      }
    }
  }
  // Backward shapes: every register count and lane tail of the dW / dX
  // row kernels.
  for (int fused = 0; fused < 2; ++fused) {
    for (int64_t c = 1; c <= 33; ++c) {
      for (int64_t k = 1; k <= 5; ++k) {
        for (int64_t e : {1, 8, 12, 16, 17, 32}) {
          for (int64_t b = 1; b <= 3; ++b) {
            const std::string name =
                std::string(fused ? "Conv1dSeqReluMax" : "Conv1dSeq") +
                " C=" + std::to_string(c) + " k=" + std::to_string(k) +
                " E=" + std::to_string(e) + " B=" + std::to_string(b);
            const uint64_t seed = static_cast<uint64_t>(
                (((fused * 40 + c) * 8 + k) * 40 + e) * 4 + b);
            cases.push_back({name, [=] {
              const int64_t t = k + 2;
              Tensor x = Rand({b, t, e}, seed);
              Tensor w = Rand({c, k * e}, seed + 1);
              Tensor bias = Rand({c}, seed + 2);
              Tensor y = fused ? Conv1dSeqReluMax(x, w, bias, k)
                               : Conv1dSeq(x, w, bias, k);
              Tensor up = UpstreamWithZeros(y.shape(), seed + 3);
              return Built{{x, w, bias}, Sum(Mul(y, up)), {y}};
            }});
          }
        }
      }
    }
  }
  return cases;
}

std::vector<Case> ConvReluMaxEdgeCases() {
  std::vector<Case> cases;
  for (int64_t b : {1, 3}) {
    for (int64_t to : {1, 4, 20}) {
      for (int64_t c : {1, 12, 17, 33}) {
        for (int64_t k : {1, 2, 5}) {
          const int64_t e = (to + c) % 2 ? 3 : 17;
          const std::string name =
              "Conv1dSeqReluMax edges B=" + std::to_string(b) +
              " to=" + std::to_string(to) + " C=" + std::to_string(c) +
              " k=" + std::to_string(k) + " E=" + std::to_string(e);
          const uint64_t seed =
              static_cast<uint64_t>((((b * 32 + to) * 40 + c) * 8 + k) * 4);
          cases.push_back({name, [=] {
            return ConvReluMaxEdgeCase(b, to, c, k, e, seed);
          }});
        }
      }
    }
  }
  return cases;
}

std::vector<Case> PairwiseSweepCases() {
  std::vector<Case> cases;
  for (int64_t b = 1; b <= 40; ++b) {
    for (int64_t n = 1; n <= 33; ++n) {
      const std::string name = "PairwiseSquaredDistances B=" +
                               std::to_string(b) + " N=" + std::to_string(n);
      const uint64_t seed = static_cast<uint64_t>(b * 64 + n);
      cases.push_back({name, [=] {
        Tensor x = Rand({b, n}, seed);
        Tensor d = PairwiseSquaredDistances(x);
        // Zero on the symmetric pattern (i + j) % 3 == 0 as well, so that
        // g[i,j] + g[j,i] == 0 and the gsum skip runs.
        std::vector<float> up = UpstreamWithZeros({b, b}, seed + 1).ToVector();
        for (int64_t i = 0; i < b; ++i) {
          for (int64_t j = 0; j < b; ++j) {
            if ((i + j) % 3 == 0) up[i * b + j] = 0.0f;
          }
        }
        Tensor g = Tensor::FromData({b, b}, std::move(up));
        return Built{{x}, Sum(Mul(d, g)), {d}};
      }});
    }
  }
  return cases;
}

// A [m, k] for the dense MatMul / LinearRelu sweep: normal values with
// every third entry an exact zero (alternating +0 and -0), row 4 all -0,
// and one NaN in rows i % 5 == 2. The vector forward turns a zero A
// element into a masked add; +-0 must be skipped and NaN must not.
Tensor DenseOperand(int64_t m, int64_t k, uint64_t seed) {
  std::vector<float> v = Rand({m, k}, seed, false).ToVector();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const int64_t flat = i * k + kk;
      if (i == 4) {
        v[flat] = -0.0f;
      } else if (flat % 3 == 0) {
        v[flat] = flat / 3 % 2 ? -0.0f : 0.0f;
      }
    }
    if (i % 5 == 2) {
      v[i * k + k / 2] = std::numeric_limits<float>::quiet_NaN();
    }
  }
  return Tensor::FromData({m, k}, std::move(v), true);
}

std::vector<Case> DenseMatMulSweepCases() {
  std::vector<Case> cases;
  for (int fused = 0; fused < 2; ++fused) {
    for (int64_t m = 1; m <= 9; ++m) {
      for (int64_t n : {1, 2, 15, 16, 17, 64, 65, 130}) {
        for (int64_t k : {1, 7, 64}) {
          const std::string name =
              std::string(fused ? "LinearRelu" : "MatMul") +
              " m=" + std::to_string(m) + " n=" + std::to_string(n) +
              " k=" + std::to_string(k);
          const uint64_t seed = static_cast<uint64_t>(
              (((fused * 10 + m) * 131 + n) * 65 + k) * 4 + 200000);
          cases.push_back({name, [=] {
            Tensor a = DenseOperand(m, k, seed);
            Tensor b = Rand({k, n}, seed + 1);
            std::vector<Tensor> leaves = {a, b};
            Tensor y = MatMul(a, b);
            if (fused) {
              leaves.push_back(Rand({n}, seed + 2));
              y = LinearRelu(a, b, leaves.back());
            }
            Tensor up = UpstreamWithZeros(y.shape(), seed + 3);
            return Built{leaves, Sum(Mul(y, up)), {y}};
          }});
        }
      }
    }
  }
  return cases;
}

// The frozen encoder's operands for one sweep case.
struct EncodeCase {
  std::string name;
  Tensor table, mix_w, mix_b;
  std::vector<int> ids;
  int64_t batch, time;
  uint64_t seed;
};

std::vector<EncodeCase> FrozenEncodeCases() {
  std::vector<EncodeCase> cases;
  for (int64_t d = 1; d <= 33; ++d) {
    for (int64_t t = 1; t <= 5; ++t) {
      const uint64_t seed = static_cast<uint64_t>(d * 8 + t);
      std::vector<int> ids(static_cast<size_t>(2 * t));
      for (size_t i = 0; i < ids.size(); ++i) {
        ids[i] = static_cast<int>((i * 5 + static_cast<size_t>(d)) % 11);
      }
      cases.push_back({"FrozenEncode D=" + std::to_string(d) +
                           " T=" + std::to_string(t),
                       Rand({11, d}, seed, /*requires_grad=*/false),
                       Rand({2 * d, d}, seed + 1, /*requires_grad=*/false),
                       Rand({d}, seed + 2, /*requires_grad=*/false),
                       std::move(ids), 2, t, seed});
    }
  }
  // Odd token counts (batch 1 and 3, odd T): the vector path mixes tokens
  // in pairs, so its last pair shifts back by one token (or, for a single
  // token, pairs the token with itself).
  for (int64_t d : {1, 7, 8, 9, 17, 32, 33}) {
    for (int64_t batch : {1, 3}) {
      for (int64_t t : {1, 3, 5}) {
        const uint64_t seed =
            static_cast<uint64_t>((d * 4 + batch) * 8 + t + 5000);
        std::vector<int> ids(static_cast<size_t>(batch * t));
        for (size_t i = 0; i < ids.size(); ++i) {
          ids[i] = static_cast<int>((i * 3 + static_cast<size_t>(d)) % 11);
        }
        cases.push_back({"FrozenEncode odd tokens D=" + std::to_string(d) +
                             " B=" + std::to_string(batch) +
                             " T=" + std::to_string(t),
                         Rand({11, d}, seed, /*requires_grad=*/false),
                         Rand({2 * d, d}, seed + 1, /*requires_grad=*/false),
                         Rand({d}, seed + 2, /*requires_grad=*/false),
                         std::move(ids), batch, t, seed});
      }
    }
  }
  // Pre-activations the vector tanh hands to the scalar port (+0, tiny,
  // |x| >= 22, +-Inf, NaN: a zero weight column plus that bias) in the
  // same 8-lane vectors as ordinary ones; the other vectors hold only
  // ordinary lanes, and D % 8 != 0 adds masked tails.
  const float specials[] = {0.0f,
                            1e-20f,
                            25.0f,
                            -30.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  for (int64_t d : {7, 13, 20, 32, 40}) {
    const uint64_t seed = static_cast<uint64_t>(d * 8 + 7000);
    std::vector<float> w = Rand({2 * d, d}, seed + 1, false).ToVector();
    std::vector<float> b = Rand({d}, seed + 2, false).ToVector();
    for (int64_t j = 2, s = 0; j < std::min<int64_t>(d, 16); j += 3, ++s) {
      b[j] = specials[(s + d) % std::size(specials)];
      for (int64_t k = 0; k < 2 * d; ++k) w[k * d + j] = 0.0f;
    }
    std::vector<int> ids(12);
    for (size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<int>((i * 7 + static_cast<size_t>(d)) % 11);
    }
    cases.push_back({"FrozenEncode fallback lanes D=" + std::to_string(d),
                     Rand({11, d}, seed, /*requires_grad=*/false),
                     Tensor::FromData({2 * d, d}, std::move(w)),
                     Tensor::FromData({d}, std::move(b)), std::move(ids), 3,
                     4, seed});
  }
  return cases;
}

std::vector<Case> FrozenEncodeSweepCases() {
  std::vector<Case> cases;
  for (const EncodeCase& ec : FrozenEncodeCases()) {
    cases.push_back({ec.name, [ec] {
      Tensor h = FrozenEncode(ec.table,
                              FrozenTokenMix(ec.table, ec.mix_w, ec.mix_b),
                              ec.mix_w, ec.ids, ec.batch, ec.time);
      Tensor scale = Rand(h.shape(), ec.seed + 3);
      return Built{{scale}, Sum(Mul(h, scale)), {h}};
    }});
  }
  return cases;
}

void ExpectSweepMatchesScalarOracle(const std::vector<Case>& cases,
                                    bool nan_equal = false) {
  KernelPool pool1(1), pool2(2), pool4(4), pool8(8);
  for (const Case& c : cases) {
    CaseResult scalar;
    {
      ScopedKernelPool scope(&pool1);
      ScopedSimd simd(false);
      scalar = RunCase(c);
    }
    for (const KernelPool* pool : {&pool1, &pool2, &pool4, &pool8}) {
      ScopedKernelPool scope(pool);
      ScopedSimd simd(true);
      const CaseResult vec = RunCase(c);
      SCOPED_TRACE(c.name +
                   " pool=" + std::to_string(pool->nthreads()));
      ExpectBitwiseEqual(scalar, vec, c.name, nan_equal);
    }
  }
}

TEST(BackendConsistencyTest, ConvBackwardSweepMatchesScalarOracle) {
  ExpectSweepMatchesScalarOracle(ConvSweepCases());
}

// The +-Inf and NaN upstream grads make NaN gradients from two sources
// (the NaN itself and Inf * 0), so NaNs match whatever their bits.
TEST(BackendConsistencyTest, ConvReluMaxEdgeSweepMatchesScalarOracle) {
  ExpectSweepMatchesScalarOracle(ConvReluMaxEdgeCases(), /*nan_equal=*/true);
}

TEST(BackendConsistencyTest, PairwiseDistancesSweepMatchesScalarOracle) {
  ExpectSweepMatchesScalarOracle(PairwiseSweepCases());
}

// NaN A elements make NaN outputs and gradients, so NaNs match whatever
// their bits.
TEST(BackendConsistencyTest, DenseMatMulSweepMatchesScalarOracle) {
  ExpectSweepMatchesScalarOracle(DenseMatMulSweepCases(), /*nan_equal=*/true);
}

TEST(BackendConsistencyTest, FrozenEncodeSweepMatchesScalarOracle) {
  ExpectSweepMatchesScalarOracle(FrozenEncodeSweepCases());
}

// The token-table route (FrozenTokenMix, then FrozenEncode's context half)
// against the single-pass chain, with SIMD off and on: same bits.
TEST(BackendConsistencyTest, FrozenEncodeMatchesSinglePassOracle) {
  for (const EncodeCase& ec : FrozenEncodeCases()) {
    std::vector<float> oracle;
    {
      ScopedSimd simd(false);
      oracle = ::dtdbd::testing::FrozenEncodeOracle(
                   ec.table, ec.mix_w, ec.mix_b, ec.ids, ec.batch, ec.time)
                   .ToVector();
    }
    for (bool on : {false, true}) {
      ScopedSimd simd(on);
      const Tensor mix = FrozenTokenMix(ec.table, ec.mix_w, ec.mix_b);
      EXPECT_TRUE(BitwiseEqual(
          FrozenEncode(ec.table, mix, ec.mix_w, ec.ids, ec.batch, ec.time)
              .ToVector(),
          oracle))
          << ec.name << (on ? " simd" : " scalar");
    }
  }
}

// ----- tanh: the 8-lane AVX2 kernel against the scalar port -----
//
// The Tanh op runs the scalar port with SIMD off and the AVX2 kernel on
// each 8-lane block with SIMD on. Table-driven: a strided sweep over the
// 2^32 bit patterns, and every branch edge of the port, +-1 ulp and both
// signs, each alone among ordinary lanes of its 8-lane block. Outputs
// must have the same bits, or both be NaN.

float FromBits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof f);
  return f;
}

struct TanhCase {
  std::string name;
  std::function<std::vector<float>()> inputs;
};

std::vector<TanhCase> TanhSweepCases() {
  std::vector<TanhCase> cases;
  // Every 251st pattern, ~17M inputs in chunks of 2^20.
  constexpr uint64_t kStride = 251, kChunk = uint64_t{1} << 20;
  for (uint64_t first = 0; first < (uint64_t{1} << 32);
       first += kStride * kChunk) {
    cases.push_back({"every 251st pattern from " + std::to_string(first), [=] {
      std::vector<float> x;
      const uint64_t end =
          std::min(first + kStride * kChunk, uint64_t{1} << 32);
      for (uint64_t u = first; u < end; u += kStride) {
        x.push_back(FromBits(static_cast<uint32_t>(u)));
      }
      return x;
    }});
  }
  // |x| bit patterns where the port changes branch. The expm1 thresholds
  // are on its argument 2|x|, so their |x| is one binade lower.
  constexpr uint32_t kHalf = 0x00800000;
  const std::vector<std::pair<std::string, uint32_t>> edges = {
      {"zero", 0x00000000},
      {"smallest subnormal", 0x00000001},
      {"largest subnormal", 0x007fffff},
      {"tiny: |x| < 2^-55", 0x24000000},
      {"expm1 |a| < 2^-25", 0x33000000 - kHalf},
      {"expm1 |a| > 0.5 ln2", 0x3eb17218 - kHalf},
      {"expm1 |a| < 1.5 ln2", 0x3f851592 - kHalf},
      {"|x| >= 1", 0x3f800000},
      {"expm1 k = 23", 0x40f98872},
      {"expm1 k = 56", 0x4199e0f1},
      {"expm1 k = 57", 0x419ca6b9},
      {"|x| >= 22", 0x41b00000},
      {"largest finite", 0x7f7fffff},
      {"Inf", 0x7f800000},
      {"signalling NaN", 0x7f800001},
      {"quiet NaN", 0x7fc00000},
  };
  for (const auto& [name, bits] : edges) {
    cases.push_back({"edge " + name, [bits] {
      std::vector<float> x;
      for (uint32_t sign : {0u, 0x80000000u}) {
        for (uint32_t u : {bits - 1, bits, bits + 1}) {
          if (u > 0x7fffffff) continue;  // 0 - 1 ulp
          const size_t lane = x.size() / 8 % 8;
          std::vector<float> block(8, 0.5f);
          block[lane] = FromBits(u | sign);
          x.insert(x.end(), block.begin(), block.end());
        }
      }
      return x;
    }});
  }
  // The 35 positive inputs (of 2^31, found by exhaustive search) whose
  // tanh changes when expm1's polynomial 1 + hxs * (Q1 + ...) is built
  // with fused multiply-adds; the strided sweep is unlikely to hit any.
  cases.push_back({"fma-sensitive inputs", [] {
    std::vector<float> x;
    for (uint32_t sign : {0u, 0x80000000u}) {
      for (uint32_t u :
           {0x3dc2562eu, 0x3dce5d98u, 0x3de12456u, 0x3de1bdfdu, 0x3deec581u,
            0x3df46db4u, 0x3df7ab22u, 0x3dfb025cu, 0x3dff3a9eu, 0x3e02a211u,
            0x3e0364dau, 0x3e0aa71eu, 0x3e0b6f2eu, 0x3e0d4d10u, 0x3e0f77f8u,
            0x3e12dd9au, 0x3e1b8854u, 0x3e1ea89eu, 0x3e1ec6ffu, 0x3e20e9cdu,
            0x3e2f45e3u, 0x3e310a06u, 0x3e31fa36u, 0x3e332a19u, 0x3e388915u,
            0x3e38adebu, 0x3e42c9b2u, 0x3e4a7c9au, 0x3e503e68u, 0x3e57a8deu,
            0x3e60e952u, 0x3e625294u, 0x3e632f4fu, 0x3e6b4305u,
            0x3e6daba9u}) {
        x.push_back(FromBits(u | sign));
      }
    }
    return x;
  }});
  return cases;
}

TEST(BackendConsistencyTest, TanhMatchesScalarPortBitwise) {
  for (const TanhCase& c : TanhSweepCases()) {
    const std::vector<float> in = c.inputs();
    const Tensor x = Tensor::FromData({static_cast<int64_t>(in.size())}, in);
    std::vector<float> port, vec;
    {
      ScopedSimd simd(false);
      port = Tanh(x).ToVector();
    }
    {
      ScopedSimd simd(true);
      vec = Tanh(x).ToVector();
    }
    int reported = 0;
    for (size_t i = 0; i < in.size(); ++i) {
      if (std::isnan(port[i]) && std::isnan(vec[i])) continue;
      if (std::memcmp(&port[i], &vec[i], sizeof(float)) == 0) continue;
      ADD_FAILURE() << c.name << ": tanh(" << std::hexfloat << in[i]
                    << ") = " << vec[i] << ", port gives " << port[i];
      if (++reported == 5) break;
    }
  }
}

TEST(BackendConsistencyTest, RepeatedParallelRunsAreIdentical) {
  KernelPool pool(8);
  ScopedKernelPool scope(&pool);
  for (const Case& c : AllCases()) {
    const CaseResult first = RunCase(c);
    const CaseResult second = RunCase(c);
    ExpectBitwiseEqual(first, second, c.name);
  }
}

// Dropout's mask is drawn from its Rng on the dispatching thread in logical
// element order BEFORE the parallel apply. This pins down two guarantees:
// (a) the mask — and hence the op's output — is independent of the thread
// count, and (b) the number of Rng draws per call is fixed, so checkpoint
// resume (which serializes Rng streams, PR 1) stays bitwise reproducible
// when the thread count changes between save and restore.
TEST(BackendConsistencyTest, DropoutMaskIndependentOfThreadCount) {
  const auto run = [](int threads) {
    KernelPool pool(threads);
    ScopedKernelPool scope(&pool);
    Rng rng(77);
    Tensor x = Tensor::Full({80, 70}, 1.0f);  // > elementwise grain
    // Two consecutive calls against one stream: both masks must line up.
    Tensor first = Dropout(x, 0.4, &rng, /*training=*/true);
    Tensor second = Dropout(x, 0.4, &rng, /*training=*/true);
    std::pair<std::vector<float>, std::vector<float>> out{first.ToVector(),
                                                          second.ToVector()};
    return out;
  };
  const auto serial = run(1);
  for (int threads : {2, 8}) {
    const auto parallel = run(threads);
    EXPECT_TRUE(BitwiseEqual(serial.first, parallel.first))
        << "threads=" << threads;
    EXPECT_TRUE(BitwiseEqual(serial.second, parallel.second))
        << "threads=" << threads;
  }
}

// Every op in the registry must appear in at least one consistency case.
// DumpGraph prints "%id = OpName(...)" per node, so the graphs themselves
// are the source of truth for what a case exercises.
TEST(BackendConsistencyTest, CasesCoverEveryRegisteredOp) {
  std::string dumps;
  for (const Case& c : AllCases()) dumps += RunCase(c).dump;
  for (const Op* op : OpRegistry::Get().All()) {
    EXPECT_NE(dumps.find("= " + op->name + "("), std::string::npos)
        << "op '" << op->name
        << "' has no backend-consistency coverage; add a case in "
           "AllCases()";
  }
}

}  // namespace
}  // namespace dtdbd::tensor
