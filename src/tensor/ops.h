// Differentiable operations on Tensor. Each op records a backward closure
// when gradient mode is enabled and at least one input requires grad.
//
// Conventions:
//  * 2-D tensors are row-major [rows, cols]; batched sequences are
//    [batch, time, features].
//  * "last dim" ops (softmax, concat, bias) operate on the final axis.
#ifndef DTDBD_TENSOR_OPS_H_
#define DTDBD_TENSOR_OPS_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "tensor/tensor.h"

namespace dtdbd::tensor {

// ----- Elementwise binary (shapes must match exactly) -----
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

// Adds bias[N] to every row of x[..., N].
Tensor AddBias(const Tensor& x, const Tensor& bias);

// ----- Elementwise unary -----
Tensor ScalarMul(const Tensor& a, float s);
Tensor Relu(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Square(const Tensor& a);

// ----- Linear algebra -----
// [m,k] x [k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);
// [m,n] -> [n,m]. Zero-copy view (strides swapped); consumers that need a
// dense layout materialize it through Contiguous().
Tensor Transpose2d(const Tensor& a);

// ----- Reductions -----
Tensor Sum(const Tensor& a);   // -> scalar
Tensor Mean(const Tensor& a);  // -> scalar
// [B,T,N] -> [B,N] mean / max over the time axis. MaxOverTime is the
// "max-over-time pooling" used by TextCNN.
Tensor MeanOverTime(const Tensor& x);
Tensor MaxOverTime(const Tensor& x);

// ----- Shape manipulation -----
// The tensor itself when already dense row-major; otherwise a materialized
// dense copy, recorded as a graph op so gradient flows back to the view.
Tensor Contiguous(const Tensor& x);
// Zero-copy view when the input is contiguous (materializes it first
// otherwise); shares storage with the input.
Tensor Reshape(const Tensor& a, const Shape& new_shape);
// Concatenates 2-D tensors [B, Ni] along the last dim.
Tensor ConcatLastDim(const std::vector<Tensor>& parts);
// x[B, N] -> x[:, start:start+len]. Zero-copy view.
Tensor SliceLastDim(const Tensor& x, int64_t start, int64_t len);
// x[B,T,E] -> x[:, t, :] as [B,E]. Zero-copy view.
Tensor SliceTime(const Tensor& x, int64_t t);
// Stacks T tensors of shape [B,H] into [B,T,H].
Tensor StackTime(const std::vector<Tensor>& steps);

// ----- Softmax family (over the last dim) -----
Tensor Softmax(const Tensor& x);
Tensor LogSoftmax(const Tensor& x);

// ----- Embedding lookup -----
// Non-crashing bounds check over a flat id list: kInvalidArgument naming
// the first out-of-range id and its position, OK otherwise. The serving
// validation layer runs this before ids ever reach a gather kernel;
// EmbeddingGather itself re-checks and treats a failure as tensor-API
// misuse (DTDBD_CHECK), so hostile ids can never index the table.
Status ValidateTokenIds(const std::vector<int>& ids, int64_t vocab_size);

// table[V,E]; ids laid out row-major as [batch, time]; returns [batch,time,E].
Tensor EmbeddingGather(const Tensor& table, const std::vector<int>& ids,
                       int64_t batch, int64_t time);

// ----- Frozen encoder forward (text::FrozenEncoder) -----
// The encoder maps ids row-major [batch, time] to [batch, time, D] with
// h_t = tanh(mix_w^T [e_t ; ctx_t] + mix_b), where table[V,D],
// mix_w[2D,D], mix_b[D], e_t = table[ids_t] and ctx_t is the mean of the
// rows of the ids at t-1 and t+1 that exist (zero when neither does).
//
// FrozenTokenMix builds the half of that sum that depends on the token
// alone: token_mix[v][j] = mix_b[j] + sum_{k<D} table[v][k] * mix_w[k][j],
// accumulated from mix_b over ascending k. FrozenEncode starts each
// position's chain from its token's row and continues it over k in
// [D, 2D) with ctx_t, so the output is bitwise the single-pass chain.
// Non-differentiable: both outputs are detached whatever the inputs.
// Out-of-range ids die with a readable message (callers validate with
// ValidateTokenIds first).
Tensor FrozenTokenMix(const Tensor& table, const Tensor& mix_w,
                      const Tensor& mix_b);
Tensor FrozenEncode(const Tensor& table, const Tensor& token_mix,
                    const Tensor& mix_w, const std::vector<int>& ids,
                    int64_t batch, int64_t time);

// ----- Convolution over a token sequence (TextCNN) -----
// x[B,T,E], weight[C, k*E], bias[C], kernel width k; returns [B, T-k+1, C].
Tensor Conv1dSeq(const Tensor& x, const Tensor& weight, const Tensor& bias,
                 int64_t kernel_width);

// ----- Fused chains -----
// Each fused entry point records ONE graph node (one output buffer) and is
// bitwise identical — forward and backward — to the unfused composition it
// replaces; those compositions are the test oracles in
// tests/fused_oracles.h.
//
// relu(x[m,k] @ w[k,n] + bias[n]); replaces Relu(AddBias(MatMul(x, w), b)).
Tensor LinearRelu(const Tensor& x, const Tensor& w, const Tensor& bias);
// MaxOverTime(Relu(Conv1dSeq(x, weight, bias, k))) -> [B, C]: the
// TextCNN conv with its max-over-time pooling. The clamped conv is scratch;
// the node saves only the first argmax of each (b, c), and the backward
// runs the conv backward from that one position.
Tensor Conv1dSeqReluMax(const Tensor& x, const Tensor& weight,
                        const Tensor& bias, int64_t kernel_width);
// Batched matrix-vector product over time: x[B,T,N] · v (v is [N] or
// [N,1]) -> [B,T]. Replaces the Reshape -> MatMul -> Reshape chain in
// attention score computation.
Tensor MatVecOverTime(const Tensor& x, const Tensor& v);

// ----- Gradient reversal (domain adversarial training) -----
// Identity forward (zero-copy view); backward multiplies the incoming
// gradient by -lambda.
Tensor GradReverse(const Tensor& x, float lambda);

// ----- Dropout (inverted scaling). Identity when !training. -----
Tensor Dropout(const Tensor& x, double p, Rng* rng, bool training);

// ----- Layer normalization over the last dim -----
// x[..., N], gamma[N], beta[N]; y = gamma * (x - mean) / sqrt(var + eps) + beta.
Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps = 1e-5f);

// ----- Attention-weighted pooling -----
// x[B,T,N], w[B,T] -> [B,N]; out[b,:] = sum_t w[b,t] * x[b,t,:].
Tensor WeightedSumOverTime(const Tensor& x, const Tensor& w);

// ----- Pairwise squared Euclidean distances -----
// x[B,N] -> [B,B]; entry (i,j) = ||x_i - x_j||^2. This is the correlation
// matrix M of DTDBD Eq. (5).
Tensor PairwiseSquaredDistances(const Tensor& x);

}  // namespace dtdbd::tensor

#endif  // DTDBD_TENSOR_OPS_H_
