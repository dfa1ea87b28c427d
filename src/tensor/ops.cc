#include "tensor/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "tensor/registry.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>  // row-blocked conv fast path (runtime-dispatched)
#endif

namespace dtdbd::tensor {

namespace {

using internal::Node;

// Minimum elements of work per ParallelFor shard; below this, kernels run
// inline. Shard boundaries never influence results (see thread_pool.h), so
// this is purely a scheduling knob.
constexpr int64_t kGrain = 4096;

// Grain for row-sharded loops: enough rows that one shard covers ~kGrain
// scalar operations.
int64_t GrainForRows(int64_t work_per_row) {
  return std::max<int64_t>(1, kGrain / std::max<int64_t>(1, work_per_row));
}

// Strided row-major reader over a node's logical elements. Valid for dense
// tensors (flat) and for views whose trailing dims are canonically strided
// with an arbitrary outer stride — which covers every view the models
// produce in hot loops (SliceLastDim gate slices, SliceTime steps). Layouts
// outside this family (e.g. Transpose2d) are materialized via Contiguous().
struct Reader {
  const float* ptr = nullptr;  // logical element 0
  int64_t cols = 1;            // inner-dense block length
  int64_t row_stride = 1;      // physical stride between blocks
  bool flat = true;

  float at(int64_t i) const {
    return flat ? ptr[i] : ptr[(i / cols) * row_stride + (i % cols)];
  }
  const float* row(int64_t r) const { return ptr + r * row_stride; }
};

bool MakeReader(const Node* n, Reader* r) {
  if (n->contiguous) {
    r->ptr = n->storage->buf.data() + n->offset;
    const int64_t d0 = n->shape.empty() ? 1 : n->shape[0];
    r->cols = d0 > 0 ? n->numel / d0 : 1;
    r->row_stride = r->cols;
    r->flat = true;
    return true;
  }
  const int nd = static_cast<int>(n->shape.size());
  if (nd == 0) return false;
  const Shape canon = CanonicalStrides(n->shape);
  for (int d = 1; d < nd; ++d) {
    if (n->shape[d] > 1 && n->strides[d] != canon[d]) return false;
  }
  r->ptr = n->storage->buf.data() + n->offset;
  r->cols = n->shape[0] > 0 ? n->numel / n->shape[0] : 1;
  r->row_stride = n->strides[0];
  r->flat = false;
  return true;
}

Reader ReadOf(const Node* n) {
  Reader r;
  DTDBD_CHECK(MakeReader(n, &r))
      << n->op_name() << ": layout not readable " << ShapeToString(n->shape);
  return r;
}

// The tensor itself when a Reader can address it; otherwise a materialized
// dense copy recorded through the Contiguous op (so gradient still flows).
Tensor EnsureReadable(const Tensor& t) {
  Reader r;
  if (MakeReader(t.node().get(), &r)) return t;
  return Contiguous(t);
}

void CheckSameShape(const char* op, const Tensor& a, const Tensor& b) {
  DTDBD_CHECK(a.shape() == b.shape())
      << op << ": shape mismatch " << ShapeToString(a.shape()) << " vs "
      << ShapeToString(b.shape());
}

// One term of an AxpyChain: it adds a * x[j] to row[j]. The conv backward
// builds its chains without the terms whose coefficient is +0 or -0, like
// the dense loop's `if (gv == 0.0f) continue`.
struct AxpyTerm {
  float a;
  const float* x;
};

// ----- tanh: a port of fdlibm's tanhf -----
//
// The one tanh of this library (the Tanh op and FrozenEncode), in float
// ops only. It is the oracle TanhAvx2 repeats op for op, so the scalar ==
// SIMD contract does not depend on the host libm. On glibc 2.36 it also
// equals std::tanh on every one of the 2^32 inputs.

constexpr float kLn2Hi = 6.9313812256e-01f;   // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;   // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02f, kQ2 = 1.5873016091e-03f,
                kQ3 = -7.9365076090e-05f, kQ4 = 4.0082177293e-06f,
                kQ5 = -2.0109921195e-07f;

int32_t AbsBits(float x) { return std::bit_cast<int32_t>(x) & 0x7fffffff; }

// y * 2^k by integer addition to the exponent field.
float AddToExponent(float y, int32_t k) {
  return std::bit_cast<float>(std::bit_cast<uint32_t>(y) +
                              (static_cast<uint32_t>(k) << 23));
}

// fdlibm's expm1f on the arguments tanhf gives it: -2 < x <= -2^-54 or
// 2 <= x < 44. Its overflow filter and its k == 1 branch never fire there
// and are left out.
float Expm1Port(float x) {
  const int32_t hx = AbsBits(x);
  float c = 0.0f;
  int32_t k = 0;
  if (hx > 0x3eb17218) {  // |x| > 0.5 ln2
    // k = -1 below 1.5 ln2, which only x < 0 reaches.
    float hi = x + kLn2Hi, lo = -kLn2Lo;
    k = -1;
    if (hx >= 0x3f851592) {
      k = static_cast<int32_t>(kInvLn2 * x + (x < 0.0f ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * kLn2Hi is exact
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000) {  // |x| < 2^-25
    return x;
  }
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = x * (e - c) - c;
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k <= -2 || k > 56) return AddToExponent(1.0f - (e - x), k) - 1.0f;
  const float y =
      k < 23 ? std::bit_cast<float>(0x3f800000 - (0x1000000 >> k)) - (e - x)
             : (x - (e + std::bit_cast<float>((0x7f - k) << 23))) + 1.0f;
  return AddToExponent(y, k);
}

float TanhPort(float x) {
  const int32_t ix = AbsBits(x);
  if (ix >= 0x7f800000) {  // +-Inf -> +-1, NaN -> NaN
    return std::signbit(x) ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }
  if (ix >= 0x41b00000) return std::signbit(x) ? -1.0f : 1.0f;  // |x| >= 22
  if (ix == 0) return x;
  if (ix < 0x24000000) return x * (1.0f + x);  // |x| < 2^-55
  const bool ge1 = ix >= 0x3f800000;            // |x| >= 1
  const float t = Expm1Port((ge1 ? 2.0f : -2.0f) * std::fabs(x));
  const float z = ge1 ? 1.0f - 2.0f / (t + 2.0f) : -t / (t + 2.0f);
  return std::signbit(x) ? -z : z;
}

// ----- SIMD fast-path helpers (runtime-dispatched, bitwise-exact) -----
//
// Every helper below performs exactly the scalar reference loop's
// multiply/add sequence per element — separate mul/add (never fmadd; this
// file is built with -ffp-contract=off), comparisons with the same
// NaN/±0 semantics as the scalar predicates, and identical accumulation
// order — so the vector paths are bitwise identical to scalar at every
// thread count. Dispatch is SimdEnabled() (DTDBD_NO_SIMD pins scalar)
// && CpuHasAvx512f().

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DTDBD_SIMD_AVX512 1

bool CpuHasAvx512f() {
  static const bool has = __builtin_cpu_supports("avx512f");
  return has;
}

inline bool UseAvx512() { return SimdEnabled() && CpuHasAvx512f(); }

// o[j] += a * b[j] for j in [0, n) — the inner loop of the ikj matmul.
__attribute__((target("avx512f"))) void AxpyRowAvx512(float* o, const float* b,
                                                      float a, int64_t n) {
  const __m512 va = _mm512_set1_ps(a);
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m512 vo = _mm512_add_ps(
        _mm512_loadu_ps(o + j), _mm512_mul_ps(va, _mm512_loadu_ps(b + j)));
    _mm512_storeu_ps(o + j, vo);
  }
  for (; j < n; ++j) o[j] += a * b[j];
}

// dst[j] += src[j] for j in [0, n).
__attribute__((target("avx512f"))) void AddRowAvx512(float* dst,
                                                     const float* src,
                                                     int64_t n) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    _mm512_storeu_ps(
        dst + j, _mm512_add_ps(_mm512_loadu_ps(dst + j),
                               _mm512_loadu_ps(src + j)));
  }
  for (; j < n; ++j) dst[j] += src[j];
}

// dst[j] = src[j] for j in [0, n) (explicit vector row copy).
__attribute__((target("avx512f"))) void CopyRowAvx512(float* dst,
                                                      const float* src,
                                                      int64_t n) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    _mm512_storeu_ps(dst + j, _mm512_loadu_ps(src + j));
  }
  for (; j < n; ++j) dst[j] = src[j];
}

// Per-lane running max over the j-major transposed scratch [cols, 16]:
// m = (m < x[j]) ? x[j] : m — exactly std::max's predicate, j ascending
// from x[0]. _CMP_LT_OQ keeps m on NaN, like the scalar chain.
__attribute__((target("avx512f"))) void RowMax16Avx512(const float* scratch,
                                                       int64_t cols,
                                                       float* m16) {
  __m512 m = _mm512_loadu_ps(scratch);
  for (int64_t j = 1; j < cols; ++j) {
    const __m512 xj = _mm512_loadu_ps(scratch + j * 16);
    const __mmask16 lt = _mm512_cmp_ps_mask(m, xj, _CMP_LT_OQ);
    m = _mm512_mask_blend_ps(lt, m, xj);
  }
  _mm512_storeu_ps(m16, m);
}

// y[j] *= s for j in [0, n).
__attribute__((target("avx512f"))) void ScaleRowAvx512(float* y, float s,
                                                       int64_t n) {
  const __m512 vs = _mm512_set1_ps(s);
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    _mm512_storeu_ps(y + j, _mm512_mul_ps(_mm512_loadu_ps(y + j), vs));
  }
  for (; j < n; ++j) y[j] *= s;
}

// y[j] = x[j] - s for j in [0, n) (the log-softmax writeback).
__attribute__((target("avx512f"))) void SubScalarRowAvx512(float* y,
                                                           const float* x,
                                                           float s,
                                                           int64_t n) {
  const __m512 vs = _mm512_set1_ps(s);
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    _mm512_storeu_ps(y + j, _mm512_sub_ps(_mm512_loadu_ps(x + j), vs));
  }
  for (; j < n; ++j) y[j] = x[j] - s;
}

// The fused-MatVec dot for 16 rows at once over the transposed scratch
// [n, 16]: acc += x * v[kk] only where x != 0 — _CMP_NEQ_UQ includes NaN
// and excludes ±0, exactly like the scalar `if (av == 0.0f) continue`.
__attribute__((target("avx512f"))) void MatVec16Avx512(const float* scratch,
                                                       const float* v,
                                                       int64_t n,
                                                       float* out16) {
  const __m512 zero = _mm512_setzero_ps();
  __m512 acc = _mm512_setzero_ps();
  for (int64_t kk = 0; kk < n; ++kk) {
    const __m512 xcol = _mm512_loadu_ps(scratch + kk * 16);
    const __mmask16 nz = _mm512_cmp_ps_mask(xcol, zero, _CMP_NEQ_UQ);
    acc = _mm512_mask_add_ps(acc, nz, acc,
                             _mm512_mul_ps(xcol, _mm512_set1_ps(v[kk])));
  }
  _mm512_storeu_ps(out16, acc);
}

// gv[kk+l] += x[i, kk+l] * g[i] over i ascending, skipping x == 0 — the
// MatVecOverTime grad-v column loop for 16 consecutive kk (x rows are
// contiguous, so no transpose is needed).
__attribute__((target("avx512f"))) void MatVecGradV16Avx512(
    const float* px, const float* g, int64_t bt, int64_t n, float* gv) {
  const __m512 zero = _mm512_setzero_ps();
  __m512 acc = _mm512_loadu_ps(gv);
  for (int64_t i = 0; i < bt; ++i) {
    const __m512 xrow = _mm512_loadu_ps(px + i * n);
    const __mmask16 nz = _mm512_cmp_ps_mask(xrow, zero, _CMP_NEQ_UQ);
    acc = _mm512_mask_add_ps(acc, nz, acc,
                             _mm512_mul_ps(xrow, _mm512_set1_ps(g[i])));
  }
  _mm512_storeu_ps(gv, acc);
}

// Per-lane LayerNorm statistics over the transposed scratch [n, 16]:
// the scalar sum/divide/variance chain per lane. Division and sqrt are
// IEEE correctly-rounded in both scalar and vector forms, so the results
// are bitwise identical to the scalar path.
__attribute__((target("avx512f"))) void LayerNormStats16Avx512(
    const float* scratch, int64_t n, float eps, float* mean16, float* is16) {
  const __m512 vn = _mm512_set1_ps(static_cast<float>(n));
  __m512 sum = _mm512_setzero_ps();
  for (int64_t j = 0; j < n; ++j) {
    sum = _mm512_add_ps(sum, _mm512_loadu_ps(scratch + j * 16));
  }
  const __m512 mean = _mm512_div_ps(sum, vn);
  __m512 var = _mm512_setzero_ps();
  for (int64_t j = 0; j < n; ++j) {
    const __m512 d = _mm512_sub_ps(_mm512_loadu_ps(scratch + j * 16), mean);
    var = _mm512_add_ps(var, _mm512_mul_ps(d, d));
  }
  var = _mm512_div_ps(var, vn);
  // The zero-masked form of _mm512_sqrt_ps, with every lane on: the same
  // sqrt, without the undefined pass-through operand GCC 12 warns about.
  const __m512 is = _mm512_div_ps(
      _mm512_set1_ps(1.0f),
      _mm512_maskz_sqrt_ps(__mmask16{0xFFFF},
                           _mm512_add_ps(var, _mm512_set1_ps(eps))));
  _mm512_storeu_ps(mean16, mean);
  _mm512_storeu_ps(is16, is);
}

// LayerNorm writeback for one row: h = (x[j] - mean) * is;
// o[j] = g[j] * h + beta[j]; xhat[j] = h.
__attribute__((target("avx512f"))) void LayerNormRowAvx512(
    const float* xi, const float* pg, const float* pbeta, float mean,
    float is, float* xhat, float* o, int64_t n) {
  const __m512 vmean = _mm512_set1_ps(mean);
  const __m512 vis = _mm512_set1_ps(is);
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m512 h = _mm512_mul_ps(
        _mm512_sub_ps(_mm512_loadu_ps(xi + j), vmean), vis);
    _mm512_storeu_ps(xhat + j, h);
    _mm512_storeu_ps(
        o + j, _mm512_add_ps(_mm512_mul_ps(_mm512_loadu_ps(pg + j), h),
                             _mm512_loadu_ps(pbeta + j)));
  }
  for (; j < n; ++j) {
    const float h = (xi[j] - mean) * is;
    xhat[j] = h;
    o[j] = pg[j] * h + pbeta[j];
  }
}

// Lanes [0, k) of a 16-lane register, for k >= 1 (all 16 when k >= 16).
inline __mmask16 LaneMask(int64_t k) {
  return k >= 16 ? __mmask16{0xFFFF}
                 : static_cast<__mmask16>((1u << k) - 1u);
}

// Row-in-registers kernels hold a row slice of up to 16 * NV floats in NV
// zmm accumulators for a whole accumulation chain, loading and storing it
// once instead of once per term. The last register is masked to the
// slice's tail; masked loads never touch memory past the slice.
constexpr int kMaxRowRegs = 10;  // 160 floats, leaving registers for operands

// row[j0 + j] += t.a * t.x[j0 + j] for j in [0, len), over the `count`
// terms in order: each element sees the scalar loop's mul then add, term
// by term, in the same order.
template <int NV>
struct AxpyChainAvx512 {
  __attribute__((target("avx512f"))) static void Run(int64_t j0,
                                                     int64_t len, float* row,
                                                     const AxpyTerm* terms,
                                                     int64_t count) {
    __mmask16 m[NV];
    __m512 acc[NV];
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) {
      m[v] = LaneMask(len - 16 * v);
      acc[v] = _mm512_maskz_loadu_ps(m[v], row + j0 + 16 * v);
    }
    for (int64_t i = 0; i < count; ++i) {
      const __m512 va = _mm512_set1_ps(terms[i].a);
      const float* x = terms[i].x + j0;
#pragma GCC unroll 16
      for (int v = 0; v < NV; ++v) {
        acc[v] = _mm512_add_ps(
            acc[v], _mm512_mul_ps(va, _mm512_maskz_loadu_ps(m[v], x + 16 * v)));
      }
    }
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) {
      _mm512_mask_storeu_ps(row + j0 + 16 * v, m[v], acc[v]);
    }
  }
};

// orow[j0 + j] = sum_kk (xi[kk] - xt[kk * b + j0 + j])^2 over ascending kk
// from 0, for j in [0, len): lane j runs PairwiseSquaredDistances' scalar
// chain for column j0 + j. xt is x transposed to [n, b].
template <int NV>
struct PairwiseRowAvx512 {
  __attribute__((target("avx512f"))) static void Run(
      int64_t j0, int64_t len, const float* xi, const float* xt, int64_t b,
      int64_t n, float* orow) {
    __mmask16 m[NV];
    __m512 acc[NV];
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) {
      m[v] = LaneMask(len - 16 * v);
      acc[v] = _mm512_setzero_ps();
    }
    for (int64_t kk = 0; kk < n; ++kk) {
      const __m512 vx = _mm512_set1_ps(xi[kk]);
      const float* col = xt + kk * b + j0;
#pragma GCC unroll 16
      for (int v = 0; v < NV; ++v) {
        const __m512 d =
            _mm512_sub_ps(vx, _mm512_maskz_loadu_ps(m[v], col + 16 * v));
        acc[v] = _mm512_add_ps(acc[v], _mm512_mul_ps(d, d));
      }
    }
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) {
      _mm512_mask_storeu_ps(orow + j0 + 16 * v, m[v], acc[v]);
    }
  }
};

// The operands of a row-pair chain, the core of the MatMul-family
// kernels. For rows r = 0, 1 (which may be one row twice) and each column
// j of the slice a kernel is given:
//   acc = from_out ? out[r][j] : 0
//   acc += a[r][t * a_stride] * b.row(t)[j] for t ascending in [0, terms),
//          skipping the terms whose coefficient is +-0 when skip_zero
//   out[r][j] = add_to_out ? out[r][j] + acc
//             : bias       ? (acc + bias[j] > 0 ? acc + bias[j] : 0)
//             : acc
// with separate mul and add.
struct RowPairArgs {
  const float* a[2];
  int64_t a_stride;
  Reader b;
  int64_t terms;
  float* out[2];
  bool skip_zero = false;
  bool from_out = false;
  bool add_to_out = false;
  const float* bias = nullptr;
};

// Registers per row of a row-pair slice (64 columns): 2 x 4 chains in
// flight already cover the add latency, and each wider instantiation
// would add code that every process maps.
constexpr int kPairRegs = 4;

// RowPairArgs' chains over the column slice [j0, j0 + len): both rows'
// slices stay in registers across the whole t chain, and each B load
// feeds both rows. A skipped term is a masked add that leaves the chain as
// it is, the scalar `if (av == 0.0f) continue` (_CMP_NEQ_UQ skips +-0 and
// not NaN). The bias epilogue is LinearRelu's, _CMP_GT_OQ being the
// scalar `pre > 0.0f`.
template <int NV>
struct RowPairAvx512 {
  __attribute__((target("avx512f"))) static void Run(int64_t j0,
                                                     int64_t len,
                                                     const RowPairArgs& p) {
    const __m512 zero = _mm512_setzero_ps();
    const __mmask16 keep_all = p.skip_zero ? 0 : 0xFFFF;
    __mmask16 m[NV];
    __m512 acc[2][NV];
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) {
      m[v] = LaneMask(len - 16 * v);
#pragma GCC unroll 2
      for (int r = 0; r < 2; ++r) {
        acc[r][v] = p.from_out
                        ? _mm512_maskz_loadu_ps(m[v], p.out[r] + j0 + 16 * v)
                        : zero;
      }
    }
    for (int64_t t = 0; t < p.terms; ++t) {
      const __m512 va0 = _mm512_set1_ps(p.a[0][t * p.a_stride]);
      const __m512 va1 = _mm512_set1_ps(p.a[1][t * p.a_stride]);
      const __mmask16 on0 =
          _mm512_cmp_ps_mask(va0, zero, _CMP_NEQ_UQ) | keep_all;
      const __mmask16 on1 =
          _mm512_cmp_ps_mask(va1, zero, _CMP_NEQ_UQ) | keep_all;
      const float* brow = p.b.row(t) + j0;
#pragma GCC unroll 16
      for (int v = 0; v < NV; ++v) {
        const __m512 bv = _mm512_maskz_loadu_ps(m[v], brow + 16 * v);
        acc[0][v] = _mm512_mask_add_ps(acc[0][v], on0, acc[0][v],
                                       _mm512_mul_ps(va0, bv));
        acc[1][v] = _mm512_mask_add_ps(acc[1][v], on1, acc[1][v],
                                       _mm512_mul_ps(va1, bv));
      }
    }
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) {
      const __m512 bias =
          p.bias != nullptr ? _mm512_maskz_loadu_ps(m[v], p.bias + j0 + 16 * v)
                            : zero;
      // Both rows are read before either is stored: the two may be one.
      __m512 y[2];
#pragma GCC unroll 2
      for (int r = 0; r < 2; ++r) {
        y[r] = acc[r][v];
        if (p.add_to_out) {
          y[r] = _mm512_add_ps(
              _mm512_maskz_loadu_ps(m[v], p.out[r] + j0 + 16 * v), y[r]);
        } else if (p.bias != nullptr) {
          const __m512 pre = _mm512_add_ps(y[r], bias);
          y[r] = _mm512_maskz_mov_ps(
              _mm512_cmp_ps_mask(pre, zero, _CMP_GT_OQ), pre);
        }
      }
#pragma GCC unroll 2
      for (int r = 0; r < 2; ++r) {
        _mm512_mask_storeu_ps(p.out[r] + j0 + 16 * v, m[v], y[r]);
      }
    }
  }
};

// K<NV>::Run(j0, len, args...) with NV = ceil(len / 16), for len <=
// 16 * kMaxNV.
template <template <int> class K, int kMaxNV, typename... A>
void RunFitted(int64_t j0, int64_t len, const A&... args) {
  if constexpr (kMaxNV > 1) {
    if (len <= 16 * (kMaxNV - 1)) {
      RunFitted<K, kMaxNV - 1>(j0, len, args...);
      return;
    }
  }
  K<kMaxNV>::Run(j0, len, args...);
}

// Runs K<NV>::Run(j0, len, args...) over [0, n) in slices of at most
// kMaxNV registers, NV fitted to each slice.
template <template <int> class K, int kMaxNV = kMaxRowRegs, typename... A>
void ForRowSlices(int64_t n, const A&... args) {
  for (int64_t j0 = 0; j0 < n; j0 += 16 * kMaxNV) {
    RunFitted<K, kMaxNV>(j0, std::min<int64_t>(16 * kMaxNV, n - j0),
                         args...);
  }
}

// gb[ci] += g[r, ci] over rows r ascending, for channels ci in [s, e) with
// the channels in the lanes; a zero grad leaves its lane unchanged, like
// the scalar skip.
__attribute__((target("avx512f"))) void ColumnSumAvx512(const float* g,
                                                       int64_t rows,
                                                       int64_t c, int64_t s,
                                                       int64_t e, float* gb) {
  const __m512 zero = _mm512_setzero_ps();
  for (int64_t c0 = s; c0 < e; c0 += 16) {
    const __mmask16 m = LaneMask(e - c0);
    __m512 acc = _mm512_maskz_loadu_ps(m, gb + c0);
    for (int64_t r = 0; r < rows; ++r) {
      const __m512 gv = _mm512_maskz_loadu_ps(m, g + r * c + c0);
      const __mmask16 on = _mm512_cmp_ps_mask(gv, zero, _CMP_NEQ_UQ);
      acc = _mm512_mask_add_ps(acc, on, acc, gv);
    }
    _mm512_mask_storeu_ps(gb + c0, m, acc);
  }
}

// best[ci] = max over o in [0, to) of tile[o, ci], arg[ci] = its first
// position, for every ci in [0, c) with the channels in the lanes: each
// lane runs the scalar scan from o = 0, and _CMP_GT_OQ is its `v > best`.
__attribute__((target("avx512f"))) void MaxOverRowsAvx512(const float* tile,
                                                         int64_t to,
                                                         int64_t c,
                                                         float* best,
                                                         int32_t* arg) {
  for (int64_t c0 = 0; c0 < c; c0 += 16) {
    const __mmask16 m = LaneMask(c - c0);
    __m512 vb = _mm512_maskz_loadu_ps(m, tile + c0);
    __m512i vi = _mm512_setzero_si512();
    for (int64_t o = 1; o < to; ++o) {
      const __m512 v = _mm512_maskz_loadu_ps(m, tile + o * c + c0);
      const __mmask16 gt = _mm512_cmp_ps_mask(v, vb, _CMP_GT_OQ);
      vb = _mm512_mask_mov_ps(vb, gt, v);
      vi = _mm512_mask_mov_epi32(vi, gt,
                                 _mm512_set1_epi32(static_cast<int32_t>(o)));
    }
    _mm512_mask_storeu_ps(best + c0, m, vb);
    _mm512_mask_storeu_epi32(arg + c0, m, vi);
  }
}

// TanhPort on each lane of x: TanhAvx2's rare path, kept out of line.
__attribute__((target("avx2"), noinline)) __m256 TanhPortLanes(__m256 x) {
  alignas(32) float v[8];
  _mm256_store_ps(v, x);
  for (float& f : v) f = TanhPort(f);
  return _mm256_load_ps(v);
}

// TanhPort on 8 lanes, op for op and without FMA, so every lane is bitwise
// equal to the port. Expm1Port's k branches are all computed and blended;
// exponent arithmetic is integer. A vector with a `live` lane outside
// 2^-55 <= |x| < 22 (+-0, tiny, saturated, Inf, NaN) runs the scalar port
// on all 8 lanes instead.
__attribute__((target("avx2"), always_inline)) inline __m256 TanhAvx2(
    __m256 x, __m256i live) {
  const __m256i ix = _mm256_and_si256(_mm256_castps_si256(x),
                                      _mm256_set1_epi32(0x7fffffff));
  const __m256i odd = _mm256_and_si256(
      live, _mm256_or_si256(
                _mm256_cmpgt_epi32(_mm256_set1_epi32(0x24000000), ix),
                _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x41afffff))));
  if (!_mm256_testz_si256(odd, odd)) return TanhPortLanes(x);
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 one = _mm256_set1_ps(1.0f);
  // Expm1Port's argument a: 2|x| when |x| >= 1, else -2|x|.
  const __m256i ge1 = _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x3f7fffff));
  const __m256 neg = _mm256_andnot_ps(_mm256_castsi256_ps(ge1), sign);
  const __m256 two_ax = _mm256_mul_ps(_mm256_set1_ps(2.0f),
                                      _mm256_castsi256_ps(ix));
  const __m256 a = _mm256_xor_ps(two_ax, neg);
  const __m256i ha = _mm256_castps_si256(two_ax);
  // Reduction. k = -1 in (0.5 ln2, 1.5 ln2), where the port's hi = a +
  // kLn2Hi is a - (-1) * kLn2Hi exactly; k = 0 below 0.5 ln2, where hi - lo
  // = a - 0 - 0 is a and c is unused.
  __m256i k = _mm256_cvttps_epi32(_mm256_add_ps(
      _mm256_mul_ps(_mm256_set1_ps(kInvLn2), a),
      _mm256_xor_ps(_mm256_set1_ps(0.5f), neg)));
  k = _mm256_blendv_epi8(
      k, _mm256_set1_epi32(-1),
      _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3f851592), ha));
  k = _mm256_and_si256(
      k, _mm256_cmpgt_epi32(ha, _mm256_set1_epi32(0x3eb17218)));
  const __m256 tk = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(a, _mm256_mul_ps(tk, _mm256_set1_ps(kLn2Hi)));
  const __m256 lo = _mm256_mul_ps(tk, _mm256_set1_ps(kLn2Lo));
  const __m256 xr = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);
  const __m256 hfx = _mm256_mul_ps(_mm256_set1_ps(0.5f), xr);
  const __m256 hxs = _mm256_mul_ps(xr, hfx);
  __m256 r1 = _mm256_set1_ps(kQ5);
  for (float q : {kQ4, kQ3, kQ2, kQ1, 1.0f}) {
    r1 = _mm256_add_ps(_mm256_set1_ps(q), _mm256_mul_ps(hxs, r1));
  }
  const __m256 t = _mm256_sub_ps(_mm256_set1_ps(3.0f),
                                 _mm256_mul_ps(r1, hfx));
  const __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                       _mm256_mul_ps(xr, t))));
  const __m256 r0 =
      _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
  const __m256 ec = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c), hxs);
  const __m256 rm1 = _mm256_sub_ps(
      _mm256_mul_ps(_mm256_set1_ps(0.5f), _mm256_sub_ps(xr, ec)),
      _mm256_set1_ps(0.5f));
  // |k| >= 2: y = s - (e - x) with s = 1 (k <= -2 or k > 56) or 1 - 2^-k
  // (k < 23), else y = (x - (e + 2^-k)) + 1; then y * 2^k, minus 1 for
  // the first.
  const __m256i far = _mm256_or_si256(
      _mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k),
      _mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)));
  const __m256i mid = _mm256_andnot_si256(
      far, _mm256_cmpgt_epi32(k, _mm256_set1_epi32(22)));
  const __m256 s = _mm256_blendv_ps(
      _mm256_castsi256_ps(_mm256_sub_epi32(
          _mm256_set1_epi32(0x3f800000),
          _mm256_srlv_epi32(_mm256_set1_epi32(0x1000000), k))),
      one, _mm256_castsi256_ps(far));
  const __m256 two_mk = _mm256_castsi256_ps(_mm256_slli_epi32(
      _mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
  __m256 y = _mm256_blendv_ps(
      _mm256_sub_ps(s, _mm256_sub_ps(ec, xr)),
      _mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(ec, two_mk)), one),
      _mm256_castsi256_ps(mid));
  y = _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y),
                                           _mm256_slli_epi32(k, 23)));
  y = _mm256_blendv_ps(y, _mm256_sub_ps(y, one), _mm256_castsi256_ps(far));
  __m256 em1 = _mm256_blendv_ps(
      y, rm1,
      _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1))));
  em1 = _mm256_blendv_ps(em1, r0,
                         _mm256_castsi256_ps(
                             _mm256_cmpeq_epi32(k, _mm256_setzero_si256())));
  em1 = _mm256_blendv_ps(
      em1, a,
      _mm256_castsi256_ps(
          _mm256_cmpgt_epi32(_mm256_set1_epi32(0x33000000), ha)));
  // z = 1 - 2 / (t + 2) when |x| >= 1, else -t / (t + 2); sign of x.
  const __m256 ge1f = _mm256_castsi256_ps(ge1);
  const __m256 q = _mm256_div_ps(
      _mm256_blendv_ps(_mm256_xor_ps(em1, sign), _mm256_set1_ps(2.0f), ge1f),
      _mm256_add_ps(em1, _mm256_set1_ps(2.0f)));
  const __m256 z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), ge1f);
  return _mm256_xor_ps(z, _mm256_and_ps(x, sign));
}

// y[i] = TanhPort(x[i]) over the whole 8-lane blocks of [0, n); returns
// how many elements it wrote.
__attribute__((target("avx2"))) int64_t TanhBlocksAvx2(float* y,
                                                       const float* x,
                                                       int64_t n) {
  const __m256i all = _mm256_set1_epi32(-1);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, TanhAvx2(_mm256_loadu_ps(x + i), all));
  }
  return i;
}

// Lanes [0, live) of an 8-lane AVX2 mask, for live >= 0 (all 8 when
// live >= 8).
__attribute__((target("avx2"))) inline __m256i LaneMask8(int64_t live) {
  static const int32_t kLanes[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                     0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
      kLanes + 8 - std::min<int64_t>(live, 8)));
}

// ctx[j] = (0 + rows[0][j] + ... + rows[count - 1][j]) * (1 / count) for
// j in [0, d), the scalar chain of MeanOfRows on 8 lanes; the multiply is
// skipped when count == 0.
__attribute__((target("avx2"))) void MeanOfRowsAvx(const float* const* rows,
                                                   int count, int64_t d,
                                                   float* ctx) {
  const __m256 inv =
      _mm256_set1_ps(1.0f / static_cast<float>(std::max(count, 1)));
  for (int64_t j0 = 0; j0 < d; j0 += 8) {
    const __m256i m = LaneMask8(d - j0);
    __m256 acc = _mm256_setzero_ps();
    for (int i = 0; i < count; ++i) {
      acc = _mm256_add_ps(acc, _mm256_maskload_ps(rows[i] + j0, m));
    }
    if (count > 0) acc = _mm256_mul_ps(acc, inv);
    _mm256_maskstore_ps(ctx + j0, m, acc);
  }
}

// out[t][j] = mix[t][j] + sum_k ctx[t][k] * w[k * d + j] for j in [0, d),
// k ascending over [0, d), for the two tokens t = 0, 1 (which may be one
// token twice): the context half of the frozen encoder's mix, before its
// tanh. j in the lanes, 32 outputs of each token in four 256-bit
// registers across the whole k chain, so 8 chains are in flight and each
// weight load feeds both tokens; separate mul and add. Each chain starts
// from the mix row, never from `out`, so a token computed twice gets the
// same bits both times.
// 256-bit on purpose: the mix runs on the batch-of-one serving path,
// where the single-token kernel in 512-bit registers raised serve_unique's
// process CPU per reply by ~9% (median of 4 alternating pairs), most
// likely through the lower clock the core runs at after dense 512-bit FP
// work.
__attribute__((target("avx2"))) void FrozenMixPairAvx(
    const float* const mix[2], const float* const ctx[2], const float* w,
    int64_t d, float* const out[2]) {
  for (int64_t j0 = 0; j0 < d; j0 += 32) {
    __m256i m[4];
    __m256 acc[2][4];
#pragma GCC unroll 4
    for (int v = 0; v < 4; ++v) {
      m[v] = LaneMask8(std::max<int64_t>(d - j0 - 8 * v, 0));
      acc[0][v] = _mm256_maskload_ps(mix[0] + j0 + 8 * v, m[v]);
      acc[1][v] = _mm256_maskload_ps(mix[1] + j0 + 8 * v, m[v]);
    }
    for (int64_t k = 0; k < d; ++k) {
      const __m256 c0 = _mm256_set1_ps(ctx[0][k]);
      const __m256 c1 = _mm256_set1_ps(ctx[1][k]);
      const float* x = w + k * d + j0;
#pragma GCC unroll 4
      for (int v = 0; v < 4; ++v) {
        const __m256 wv = _mm256_maskload_ps(x + 8 * v, m[v]);
        acc[0][v] = _mm256_add_ps(acc[0][v], _mm256_mul_ps(c0, wv));
        acc[1][v] = _mm256_add_ps(acc[1][v], _mm256_mul_ps(c1, wv));
      }
    }
#pragma GCC unroll 4
    for (int v = 0; v < 4; ++v) {
      _mm256_maskstore_ps(out[0] + j0 + 8 * v, m[v], acc[0][v]);
      _mm256_maskstore_ps(out[1] + j0 + 8 * v, m[v], acc[1][v]);
    }
  }
}

// gi[kk] += 2 * (xi[kk] - xj[kk]) * gsum for kk in [0, n), associated as
// (2 * d) * gsum like the scalar PairwiseSquaredDistances backward.
__attribute__((target("avx512f"))) void PairwiseGradRowAvx512(
    float* gi, const float* xi, const float* xj, float gsum, int64_t n) {
  const __m512 two = _mm512_set1_ps(2.0f);
  const __m512 vg = _mm512_set1_ps(gsum);
  for (int64_t kk = 0; kk < n; kk += 16) {
    const __mmask16 m = LaneMask(n - kk);
    const __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(m, xi + kk),
                                   _mm512_maskz_loadu_ps(m, xj + kk));
    _mm512_mask_storeu_ps(
        gi + kk, m,
        _mm512_add_ps(_mm512_maskz_loadu_ps(m, gi + kk),
                      _mm512_mul_ps(_mm512_mul_ps(two, d), vg)));
  }
}
#else
inline bool UseAvx512() { return false; }
#endif  // x86_64

// row[j] += t.a * t.x[j] for j in [0, n) over the `count` terms in order:
// the shared inner loop of both conv backward phases. `vec` selects the
// row-in-registers AVX-512 path, which is bitwise equal to the scalar
// loop.
void AxpyChain(bool vec, float* row, int64_t n, const AxpyTerm* terms,
               int64_t count) {
  if (count == 0) return;
#ifdef DTDBD_SIMD_AVX512
  if (vec) {
    ForRowSlices<AxpyChainAvx512>(n, row, terms, count);
    return;
  }
#else
  (void)vec;
#endif
  for (int64_t i = 0; i < count; ++i) {
    const float a = terms[i].a;
    const float* x = terms[i].x;
    for (int64_t j = 0; j < n; ++j) row[j] += a * x[j];
  }
}

// ctx[j] = 0 + rows[0][j] + ... + rows[count - 1][j], then *= 1 / count
// when count > 0, for j in [0, d): the frozen encoder's context mean.
// `vec` selects MeanOfRowsAvx.
void MeanOfRows(bool vec, const float* const* rows, int count, int64_t d,
                float* ctx) {
#ifdef DTDBD_SIMD_AVX512
  if (vec) {
    MeanOfRowsAvx(rows, count, d, ctx);
    return;
  }
#else
  (void)vec;
#endif
  std::fill_n(ctx, d, 0.0f);
  for (int i = 0; i < count; ++i) {
    for (int64_t j = 0; j < d; ++j) ctx[j] += rows[i][j];
  }
  if (count == 0) return;
  const float inv = 1.0f / static_cast<float>(count);
  for (int64_t j = 0; j < d; ++j) ctx[j] *= inv;
}

// gb[ci] += g[r, ci] over rows r ascending, skipping zeros, for channels
// ci in [s, e): the conv bias gradient. `vec` selects ColumnSumAvx512.
void ColumnSum(bool vec, const float* g, int64_t rows, int64_t c, int64_t s,
               int64_t e, float* gb) {
#ifdef DTDBD_SIMD_AVX512
  if (vec) {
    ColumnSumAvx512(g, rows, c, s, e, gb);
    return;
  }
#else
  (void)vec;
#endif
  for (int64_t ci = s; ci < e; ++ci) {
    for (int64_t r = 0; r < rows; ++r) {
      if (g[r * c + ci] != 0.0f) gb[ci] += g[r * c + ci];
    }
  }
}

// Max-over-time pooling of x [b, t, n]: po[bi, j] = max over ti of
// x[bi, ti, j] and pam[bi, j] = its first position, by the scan
// `v > best` from ti = 0. Sharded over the batch; the vector path
// (MaxOverRowsAvx512) runs the same scan in each lane.
void PoolMaxOverTime(const float* px, int64_t b, int64_t t, int64_t n,
                     float* po, int32_t* pam) {
  const bool vec = UseAvx512();
  ParallelFor(b, GrainForRows(t * n), [&](int64_t s, int64_t e) {
    for (int64_t bi = s; bi < e; ++bi) {
      const float* x = px + bi * t * n;
      float* best = po + bi * n;
      int32_t* arg = pam + bi * n;
#ifdef DTDBD_SIMD_AVX512
      if (vec) {
        MaxOverRowsAvx512(x, t, n, best, arg);
        continue;
      }
#else
      (void)vec;
#endif
      for (int64_t j = 0; j < n; ++j) {
        best[j] = x[j];
        arg[j] = 0;
        for (int64_t ti = 1; ti < t; ++ti) {
          if (x[ti * n + j] > best[j]) {
            best[j] = x[ti * n + j];
            arg[j] = static_cast<int32_t>(ti);
          }
        }
      }
    }
  });
}

// Output rows [s, e) of A * B, each element's chain acc = 0, then acc +=
// A[i,kk] * B[kk,j] over ascending kk, skipping +-0 A elements; with a
// `bias`, then the LinearRelu epilogue pre = acc + bias[j]; pre > 0 ? pre
// : 0. Shared by MatMul and the fused LinearRelu. `vec` (hoisted by the
// caller) runs the rows in pairs in registers; an odd last row pairs with
// itself.
void MatMulRows(const Reader& ra, const Reader& rb, const float* bias,
                float* po, int64_t k, int64_t n, int64_t s, int64_t e,
                bool vec) {
#ifdef DTDBD_SIMD_AVX512
  if (vec) {
    for (int64_t i = s; i < e; i += 2) {
      const int64_t i1 = std::min(i + 1, e - 1);
      ForRowSlices<RowPairAvx512, kPairRegs>(
          n, RowPairArgs{.a = {ra.row(i), ra.row(i1)},
                         .a_stride = 1,
                         .b = rb,
                         .terms = k,
                         .out = {po + i * n, po + i1 * n},
                         .skip_zero = true,
                         .bias = bias});
    }
    return;
  }
#else
  (void)vec;
#endif
  for (int64_t i = s; i < e; ++i) {
    const float* arow = ra.row(i);
    float* orow = po + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = rb.row(kk);
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
    if (bias == nullptr) continue;
    for (int64_t j = 0; j < n; ++j) {
      const float pre = orow[j] + bias[j];
      orow[j] = pre > 0.0f ? pre : 0.0f;
    }
  }
}

// gA[i,kk] += acc, acc = sum_j g[i,j] * B[kk,j] from 0 over ascending j,
// for rows [s, e) — shared by the MatMul and LinearRelu backwards. When
// `bt` is non-null it holds B transposed ([n, k], bt[j*k+kk] = B[kk,j])
// and the vector path runs the rows in pairs with kk in the lanes (an odd
// last row pairs with itself); otherwise the scalar reference chain runs.
void MatMulBackwardARows(const float* g, const Reader& rb, const float* bt,
                         float* ga, int64_t k, int64_t n, int64_t s,
                         int64_t e) {
#ifdef DTDBD_SIMD_AVX512
  if (bt != nullptr) {
    const Reader rbt{bt, k, k, true};
    for (int64_t i = s; i < e; i += 2) {
      const int64_t i1 = std::min(i + 1, e - 1);
      ForRowSlices<RowPairAvx512, kPairRegs>(
          k, RowPairArgs{.a = {g + i * n, g + i1 * n},
                         .a_stride = 1,
                         .b = rbt,
                         .terms = n,
                         .out = {ga + i * k, ga + i1 * k},
                         .add_to_out = true});
    }
    return;
  }
#endif
  for (int64_t i = s; i < e; ++i) {
    const float* grow = g + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* brow = rb.row(kk);
      float acc = 0.0f;
      for (int64_t j = 0; j < n; ++j) acc += grow[j] * brow[j];
      ga[i * k + kk] += acc;
    }
  }
}

// Builds the transposed copy of B used by MatMulBackwardARows' vector
// path, or an empty vector when the fast path won't run. Materialized on
// the dispatching thread, before ParallelFor.
std::vector<float> MaybeTransposeForBackward(const Reader& rb, int64_t k,
                                             int64_t n) {
  std::vector<float> bt;
#ifdef DTDBD_SIMD_AVX512
  if (UseAvx512()) {
    bt.resize(static_cast<size_t>(k * n));
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* brow = rb.row(kk);
      for (int64_t j = 0; j < n; ++j) bt[j * k + kk] = brow[j];
    }
  }
#else
  (void)rb;
  (void)k;
  (void)n;
#endif
  return bt;
}

// gB[kk,j] += A[i,kk] * g[i,j] for weight rows [s, e), i ascending with
// the zero-skip — shared by the MatMul and LinearRelu backwards. `vec`
// runs the rows in pairs in registers, starting from gB (an odd last row
// pairs with itself).
void MatMulBackwardBRows(const Reader& ra, const float* g, float* gb,
                         int64_t m, int64_t n, int64_t s, int64_t e,
                         bool vec) {
#ifdef DTDBD_SIMD_AVX512
  if (vec) {
    const Reader rg{g, n, n, true};
    for (int64_t kk = s; kk < e; kk += 2) {
      const int64_t k1 = std::min(kk + 1, e - 1);
      ForRowSlices<RowPairAvx512, kPairRegs>(
          n, RowPairArgs{.a = {ra.row(0) + kk, ra.row(0) + k1},
                         .a_stride = ra.row_stride,
                         .b = rg,
                         .terms = m,
                         .out = {gb + kk * n, gb + k1 * n},
                         .skip_zero = true,
                         .from_out = true});
    }
    return;
  }
#else
  (void)vec;
#endif
  for (int64_t kk = s; kk < e; ++kk) {
    float* gbrow = gb + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = ra.row(i)[kk];
      if (av == 0.0f) continue;
      const float* grow = g + i * n;
      for (int64_t j = 0; j < n; ++j) gbrow[j] += av * grow[j];
    }
  }
}

// ----- Contiguous -----

void ContiguousBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const float* g = self->grad.data();
  float* gi = in->grad.data();
  ParallelFor(self->numel, kGrain, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) gi[i] += g[i];
  });
}

const Op* const kContiguous =
    OpRegistry::Get().Register({"Contiguous", 1, &ContiguousBackward});

}  // namespace

Tensor Contiguous(const Tensor& a) {
  DTDBD_CHECK(a.defined());
  if (a.contiguous()) return a;
  const Node* n = a.node().get();
  ScopedOpTimer timer(kContiguous);
  std::vector<float> out(static_cast<size_t>(n->numel));
  float* po = out.data();
  ParallelFor(n->numel, kGrain, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) po[i] = n->storage->buf[n->PhysIndex(i)];
  });
  return MakeOp(kContiguous, a.shape(), std::move(out), {a});
}

Tensor Tensor::Contiguous() const { return dtdbd::tensor::Contiguous(*this); }

namespace {

// ----- Elementwise binary -----

void AddBackward(Node* self) {
  const float* g = self->grad.data();
  for (int k = 0; k < 2; ++k) {
    Node* in = self->inputs[k].get();
    if (!in->requires_grad) continue;
    float* gi = in->grad.data();
    ParallelFor(self->numel, kGrain, [&](int64_t s, int64_t e) {
      for (int64_t i = s; i < e; ++i) gi[i] += g[i];
    });
  }
}

void SubBackward(Node* self) {
  const float* g = self->grad.data();
  Node* lhs = self->inputs[0].get();
  Node* rhs = self->inputs[1].get();
  if (lhs->requires_grad) {
    float* gi = lhs->grad.data();
    ParallelFor(self->numel, kGrain, [&](int64_t s, int64_t e) {
      for (int64_t i = s; i < e; ++i) gi[i] += g[i];
    });
  }
  if (rhs->requires_grad) {
    float* gi = rhs->grad.data();
    ParallelFor(self->numel, kGrain, [&](int64_t s, int64_t e) {
      for (int64_t i = s; i < e; ++i) gi[i] -= g[i];
    });
  }
}

void MulBackward(Node* self) {
  const float* g = self->grad.data();
  Node* lhs = self->inputs[0].get();
  Node* rhs = self->inputs[1].get();
  if (lhs->requires_grad) {
    const Reader rb = ReadOf(rhs);
    float* gi = lhs->grad.data();
    ParallelFor(self->numel, kGrain, [&](int64_t s, int64_t e) {
      for (int64_t i = s; i < e; ++i) gi[i] += g[i] * rb.at(i);
    });
  }
  if (rhs->requires_grad) {
    const Reader ra = ReadOf(lhs);
    float* gi = rhs->grad.data();
    ParallelFor(self->numel, kGrain, [&](int64_t s, int64_t e) {
      for (int64_t i = s; i < e; ++i) gi[i] += g[i] * ra.at(i);
    });
  }
}

const Op* const kAdd = OpRegistry::Get().Register({"Add", 2, &AddBackward});
const Op* const kSub = OpRegistry::Get().Register({"Sub", 2, &SubBackward});
const Op* const kMul = OpRegistry::Get().Register({"Mul", 2, &MulBackward});

template <typename F>
Tensor BinaryEw(const Op* op, const Tensor& a_in, const Tensor& b_in, F f) {
  CheckSameShape(op->name.c_str(), a_in, b_in);
  Tensor a = EnsureReadable(a_in);
  Tensor b = EnsureReadable(b_in);
  ScopedOpTimer timer(op);
  const Reader ra = ReadOf(a.node().get());
  const Reader rb = ReadOf(b.node().get());
  std::vector<float> out(static_cast<size_t>(a.numel()));
  float* po = out.data();
  ParallelFor(a.numel(), kGrain, [&](int64_t s, int64_t e) {
    if (ra.flat && rb.flat) {
      for (int64_t i = s; i < e; ++i) po[i] = f(ra.ptr[i], rb.ptr[i]);
    } else {
      for (int64_t i = s; i < e; ++i) po[i] = f(ra.at(i), rb.at(i));
    }
  });
  return MakeOp(op, a.shape(), std::move(out), {a, b});
}

// ----- AddBias -----

void AddBiasBackward(Node* self) {
  Node* xin = self->inputs[0].get();
  Node* bin = self->inputs[1].get();
  const int64_t n = bin->shape[0];
  const int64_t rows = n > 0 ? self->numel / n : 0;
  const float* g = self->grad.data();
  if (xin->requires_grad) {
    float* gx = xin->grad.data();
    ParallelFor(self->numel, kGrain, [&](int64_t s, int64_t e) {
      for (int64_t i = s; i < e; ++i) gx[i] += g[i];
    });
  }
  if (bin->requires_grad) {
    float* gb = bin->grad.data();
    // Sharded over bias columns; each column sums rows in ascending order,
    // matching the serial kernel bit for bit.
    ParallelFor(n, GrainForRows(rows), [&](int64_t s, int64_t e) {
      for (int64_t j = s; j < e; ++j) {
        for (int64_t r = 0; r < rows; ++r) gb[j] += g[r * n + j];
      }
    });
  }
}

const Op* const kAddBias =
    OpRegistry::Get().Register({"AddBias", 2, &AddBiasBackward});

// ----- Unary elementwise family -----

template <typename F>
void UnaryBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const Reader rx = ReadOf(in);
  const float* y = self->cdata();
  const float* g = self->grad.data();
  float* gi = in->grad.data();
  ParallelFor(self->numel, kGrain, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) gi[i] += g[i] * F::Dydx(rx.at(i), y[i]);
  });
}

template <typename F>
Tensor UnaryEw(const Op* op, const Tensor& a_in) {
  Tensor a = EnsureReadable(a_in);
  ScopedOpTimer timer(op);
  const Reader rx = ReadOf(a.node().get());
  std::vector<float> out(static_cast<size_t>(a.numel()));
  float* po = out.data();
  const bool vec = UseAvx512();
  ParallelFor(a.numel(), kGrain, [&](int64_t s, int64_t e) {
    if constexpr (requires { &F::FwdSpan; }) {
      if (rx.flat) return F::FwdSpan(vec, po + s, rx.ptr + s, e - s);
    }
    if (rx.flat) {
      for (int64_t i = s; i < e; ++i) po[i] = F::Fwd(rx.ptr[i]);
    } else {
      for (int64_t i = s; i < e; ++i) po[i] = F::Fwd(rx.at(i));
    }
  });
  return MakeOp(op, a.shape(), std::move(out), {a});
}

struct ReluFn {
  static float Fwd(float x) { return x > 0.0f ? x : 0.0f; }
  static float Dydx(float x, float) { return x > 0.0f ? 1.0f : 0.0f; }
};
struct TanhFn {
  static float Fwd(float x) { return TanhPort(x); }
  static float Dydx(float, float y) { return 1.0f - y * y; }
  // Fwd over a dense span; `vec` runs its 8-lane blocks on TanhAvx2.
  static void FwdSpan(bool vec, float* y, const float* x, int64_t n) {
    int64_t i = 0;
#ifdef DTDBD_SIMD_AVX512
    if (vec) i = TanhBlocksAvx2(y, x, n);
#else
    (void)vec;
#endif
    for (; i < n; ++i) y[i] = Fwd(x[i]);
  }
};
struct SigmoidFn {
  static float Fwd(float x) { return 1.0f / (1.0f + std::exp(-x)); }
  static float Dydx(float, float y) { return y * (1.0f - y); }
};
struct SquareFn {
  static float Fwd(float x) { return x * x; }
  static float Dydx(float x, float) { return 2.0f * x; }
};

const Op* const kRelu =
    OpRegistry::Get().Register({"Relu", 1, &UnaryBackward<ReluFn>});
const Op* const kTanh =
    OpRegistry::Get().Register({"Tanh", 1, &UnaryBackward<TanhFn>});
const Op* const kSigmoid =
    OpRegistry::Get().Register({"Sigmoid", 1, &UnaryBackward<SigmoidFn>});
const Op* const kSquare =
    OpRegistry::Get().Register({"Square", 1, &UnaryBackward<SquareFn>});

// ScalarMul carries its factor in the saved state.
struct ScalarMulState {
  float s;
};

void ScalarMulBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const float s = static_cast<const ScalarMulState*>(self->saved.get())->s;
  const float* g = self->grad.data();
  float* gi = in->grad.data();
  ParallelFor(self->numel, kGrain, [&](int64_t s0, int64_t e) {
    for (int64_t i = s0; i < e; ++i) gi[i] += g[i] * s;
  });
}

const Op* const kScalarMul =
    OpRegistry::Get().Register({"ScalarMul", 1, &ScalarMulBackward});

// ----- MatMul -----

void MatMulBackward(Node* self) {
  Node* an = self->inputs[0].get();
  Node* bn = self->inputs[1].get();
  const int64_t m = an->shape[0], k = an->shape[1], n = bn->shape[1];
  const float* g = self->grad.data();
  if (an->requires_grad) {
    // gA[i,kk] += sum_j g[i,j] * B[kk,j]; sharded over rows of A.
    const Reader rb = ReadOf(bn);
    float* ga = an->grad.data();
    const std::vector<float> bt = MaybeTransposeForBackward(rb, k, n);
    const float* pbt = bt.empty() ? nullptr : bt.data();
    ParallelFor(m, GrainForRows(k * n), [&](int64_t s, int64_t e) {
      MatMulBackwardARows(g, rb, pbt, ga, k, n, s, e);
    });
  }
  if (bn->requires_grad) {
    // gB[kk,j] += sum_i A[i,kk] * g[i,j]; sharded over rows of B. Each
    // (kk,j) accumulates over i ascending, matching the serial kernel.
    const Reader ra = ReadOf(an);
    float* gb = bn->grad.data();
    const bool vec = UseAvx512();
    ParallelFor(k, GrainForRows(m * n), [&](int64_t s, int64_t e) {
      MatMulBackwardBRows(ra, g, gb, m, n, s, e, vec);
    });
  }
}

const Op* const kMatMul =
    OpRegistry::Get().Register({"MatMul", 2, &MatMulBackward});

// ----- LinearRelu (fused MatMul + AddBias + Relu) -----
//
// Bitwise-equality contract with the unfused chain: the forward runs the
// exact MatMul accumulation (ikj order, zero-skip) into the output buffer,
// then adds the bias and clamps in place; the backward first gates the
// incoming grad through the ReLU mask into a scratch buffer — exactly the
// value the unfused chain leaves in the AddBias node's grad — and then
// replays the AddBias and MatMul backward kernels against that scratch.
// The mask is read off the output: out > 0 exactly where pre > 0.

void LinearReluBackward(Node* self) {
  Node* xn = self->inputs[0].get();
  Node* wn = self->inputs[1].get();
  Node* bn = self->inputs[2].get();
  const int64_t m = xn->shape[0], k = xn->shape[1], n = wn->shape[1];
  const float* g = self->grad.data();
  const float* out = self->cdata();
  // The unfused Relu backward accumulates g * {0,1} into a zeroed buffer;
  // the + 0.0f reproduces that add (canonicalizing -0 products to +0).
  std::vector<float> g2(static_cast<size_t>(m * n));
  float* pg2 = g2.data();
  ParallelFor(m * n, kGrain, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) {
      pg2[i] = g[i] * (out[i] > 0.0f ? 1.0f : 0.0f) + 0.0f;
    }
  });
  if (bn->requires_grad) {
    // AddBias backward: bias columns sharded, rows ascending. The vector
    // path interchanges the loops within the shard's column range — each
    // gb[j] still accumulates over r ascending.
    float* gb = bn->grad.data();
    const bool vec = UseAvx512();
    ParallelFor(n, GrainForRows(m), [&](int64_t s, int64_t e) {
      if (vec && e - s >= 16) {
        for (int64_t r = 0; r < m; ++r) {
#ifdef DTDBD_SIMD_AVX512
          AddRowAvx512(gb + s, pg2 + r * n + s, e - s);
#endif
        }
        return;
      }
      for (int64_t j = s; j < e; ++j) {
        for (int64_t r = 0; r < m; ++r) gb[j] += pg2[r * n + j];
      }
    });
  }
  if (xn->requires_grad) {
    const Reader rb = ReadOf(wn);
    float* gx = xn->grad.data();
    const std::vector<float> bt = MaybeTransposeForBackward(rb, k, n);
    const float* pbt = bt.empty() ? nullptr : bt.data();
    ParallelFor(m, GrainForRows(k * n), [&](int64_t s, int64_t e) {
      MatMulBackwardARows(pg2, rb, pbt, gx, k, n, s, e);
    });
  }
  if (wn->requires_grad) {
    const Reader ra = ReadOf(xn);
    float* gw = wn->grad.data();
    const bool vec = UseAvx512();
    ParallelFor(k, GrainForRows(m * n), [&](int64_t s, int64_t e) {
      MatMulBackwardBRows(ra, pg2, gw, m, n, s, e, vec);
    });
  }
}

const Op* const kLinearRelu =
    OpRegistry::Get().Register({"LinearRelu", 3, &LinearReluBackward});

// ----- MatVecOverTime (fused Reshape + MatMul + Reshape) -----
//
// The attention score path multiplies x[B,T,N] by a single score vector;
// running it as MatMul records two reshape views plus a [B*T,1] matmul node.
// Fused: one node, one [B,T] buffer, sharded over the B*T rows with the
// same accumulation order (and zero-skip) as the n=1 MatMul column.

void MatVecOverTimeBackward(Node* self) {
  Node* xn = self->inputs[0].get();
  Node* vn = self->inputs[1].get();
  const int64_t bt = self->numel;
  const int64_t n = xn->shape[2];
  const float* g = self->grad.data();
  if (xn->requires_grad) {
    const Reader rv = ReadOf(vn);
    float* gx = xn->grad.data();
    const bool vec = UseAvx512() && rv.flat && n >= 16;
    ParallelFor(bt, GrainForRows(n), [&](int64_t s, int64_t e) {
      for (int64_t i = s; i < e; ++i) {
        const float gv = g[i];
        float* gxrow = gx + i * n;
#ifdef DTDBD_SIMD_AVX512
        if (vec) {
          AxpyRowAvx512(gxrow, rv.ptr, gv, n);
          continue;
        }
#else
        (void)vec;
#endif
        for (int64_t kk = 0; kk < n; ++kk) gxrow[kk] += gv * rv.at(kk);
      }
    });
  }
  if (vn->requires_grad) {
    const float* px = xn->cdata();
    float* gv = vn->grad.data();
    const bool vec = UseAvx512();
    ParallelFor(n, GrainForRows(bt), [&](int64_t s, int64_t e) {
      int64_t kk = s;
#ifdef DTDBD_SIMD_AVX512
      if (vec) {
        for (; kk + 16 <= e; kk += 16) {
          MatVecGradV16Avx512(px + kk, g, bt, n, gv + kk);
        }
      }
#else
      (void)vec;
#endif
      for (; kk < e; ++kk) {
        for (int64_t i = 0; i < bt; ++i) {
          const float av = px[i * n + kk];
          if (av == 0.0f) continue;
          gv[kk] += av * g[i];
        }
      }
    });
  }
}

const Op* const kMatVecOverTime =
    OpRegistry::Get().Register({"MatVecOverTime", 2, &MatVecOverTimeBackward});

// ----- Views: Transpose2d / Reshape / SliceLastDim / SliceTime -----

void Transpose2dBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const int64_t m = in->shape[0], n = in->shape[1];
  const float* g = self->grad.data();  // logical [n, m]
  float* gi = in->grad.data();
  ParallelFor(n, GrainForRows(m), [&](int64_t s, int64_t e) {
    for (int64_t j = s; j < e; ++j) {
      for (int64_t i = 0; i < m; ++i) gi[i * n + j] += g[j * m + i];
    }
  });
}

const Op* const kTranspose2d = OpRegistry::Get().Register(
    {"Transpose2d", 1, &Transpose2dBackward, /*is_view=*/true});

void ReshapeBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const float* g = self->grad.data();
  float* gi = in->grad.data();
  ParallelFor(self->numel, kGrain, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) gi[i] += g[i];
  });
}

const Op* const kReshape =
    OpRegistry::Get().Register({"Reshape", 1, &ReshapeBackward,
                                /*is_view=*/true});

struct SliceLastDimState {
  int64_t start;
};

void SliceLastDimBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const int64_t rows = self->shape[0], len = self->shape[1];
  const int64_t cols = in->shape[1];
  const int64_t start =
      static_cast<const SliceLastDimState*>(self->saved.get())->start;
  const float* g = self->grad.data();
  float* gi = in->grad.data();
  ParallelFor(rows, GrainForRows(len), [&](int64_t s, int64_t e) {
    for (int64_t r = s; r < e; ++r) {
      for (int64_t j = 0; j < len; ++j) {
        gi[r * cols + start + j] += g[r * len + j];
      }
    }
  });
}

const Op* const kSliceLastDim = OpRegistry::Get().Register(
    {"SliceLastDim", 1, &SliceLastDimBackward, /*is_view=*/true});

struct SliceTimeState {
  int64_t t;
};

void SliceTimeBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const int64_t b = in->shape[0], tt = in->shape[1], n = in->shape[2];
  const int64_t t = static_cast<const SliceTimeState*>(self->saved.get())->t;
  const float* g = self->grad.data();
  float* gi = in->grad.data();
  ParallelFor(b, GrainForRows(n), [&](int64_t s, int64_t e) {
    for (int64_t bi = s; bi < e; ++bi) {
      for (int64_t j = 0; j < n; ++j) {
        gi[(bi * tt + t) * n + j] += g[bi * n + j];
      }
    }
  });
}

const Op* const kSliceTime = OpRegistry::Get().Register(
    {"SliceTime", 1, &SliceTimeBackward, /*is_view=*/true});

// ----- Reductions -----

void SumBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const float g = self->grad[0];
  float* gi = in->grad.data();
  ParallelFor(in->numel, kGrain, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) gi[i] += g;
  });
}

void MeanBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const float inv_n = 1.0f / static_cast<float>(in->numel);
  const float g = self->grad[0] * inv_n;
  float* gi = in->grad.data();
  ParallelFor(in->numel, kGrain, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) gi[i] += g;
  });
}

const Op* const kSum = OpRegistry::Get().Register({"Sum", 1, &SumBackward});
const Op* const kMean = OpRegistry::Get().Register({"Mean", 1, &MeanBackward});

void MeanOverTimeBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const int64_t b = in->shape[0], t = in->shape[1], n = in->shape[2];
  const float inv_t = 1.0f / static_cast<float>(t);
  const float* g = self->grad.data();
  float* gi = in->grad.data();
  ParallelFor(b, GrainForRows(t * n), [&](int64_t s, int64_t e) {
    for (int64_t bi = s; bi < e; ++bi) {
      for (int64_t ti = 0; ti < t; ++ti) {
        for (int64_t j = 0; j < n; ++j) {
          gi[(bi * t + ti) * n + j] += g[bi * n + j] * inv_t;
        }
      }
    }
  });
}

const Op* const kMeanOverTime =
    OpRegistry::Get().Register({"MeanOverTime", 1, &MeanOverTimeBackward});

struct MaxOverTimeState {
  std::vector<int32_t> argmax;
};

void MaxOverTimeBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const int64_t b = in->shape[0], t = in->shape[1], n = in->shape[2];
  const auto* st = static_cast<const MaxOverTimeState*>(self->saved.get());
  const float* g = self->grad.data();
  float* gi = in->grad.data();
  ParallelFor(b, GrainForRows(n), [&](int64_t s, int64_t e) {
    for (int64_t bi = s; bi < e; ++bi) {
      for (int64_t j = 0; j < n; ++j) {
        const int32_t ti = st->argmax[bi * n + j];
        gi[(bi * t + ti) * n + j] += g[bi * n + j];
      }
    }
  });
}

const Op* const kMaxOverTime =
    OpRegistry::Get().Register({"MaxOverTime", 1, &MaxOverTimeBackward});

// ----- Concat / Stack -----

void ConcatLastDimBackward(Node* self) {
  const int64_t rows = self->shape[0], total = self->shape[1];
  const float* g = self->grad.data();
  // Inputs handled serially (an input may appear more than once); rows
  // sharded inside.
  int64_t off = 0;
  for (size_t k = 0; k < self->inputs.size(); ++k) {
    Node* in = self->inputs[k].get();
    const int64_t w = in->shape[1];
    if (in->requires_grad) {
      float* gi = in->grad.data();
      const int64_t o = off;
      ParallelFor(rows, GrainForRows(w), [&](int64_t s, int64_t e) {
        for (int64_t r = s; r < e; ++r) {
          for (int64_t j = 0; j < w; ++j) {
            gi[r * w + j] += g[r * total + o + j];
          }
        }
      });
    }
    off += w;
  }
}

const Op* const kConcatLastDim = OpRegistry::Get().Register(
    {"ConcatLastDim", kVariadicArity, &ConcatLastDimBackward});

void StackTimeBackward(Node* self) {
  const int64_t b = self->shape[0], t = self->shape[1], h = self->shape[2];
  const float* g = self->grad.data();
  for (int64_t ti = 0; ti < t; ++ti) {
    Node* in = self->inputs[static_cast<size_t>(ti)].get();
    if (!in->requires_grad) continue;
    float* gi = in->grad.data();
    ParallelFor(b, GrainForRows(h), [&](int64_t s, int64_t e) {
      for (int64_t bi = s; bi < e; ++bi) {
        for (int64_t j = 0; j < h; ++j) {
          gi[bi * h + j] += g[(bi * t + ti) * h + j];
        }
      }
    });
  }
}

const Op* const kStackTime = OpRegistry::Get().Register(
    {"StackTime", kVariadicArity, &StackTimeBackward});

// ----- Softmax family -----

// Scalar reference row-wise softmax of `in` (rows x cols) into `out`.
void RowSoftmaxScalar(const float* in, float* out, int64_t rows,
                      int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* x = in + r * cols;
    float* y = out + r * cols;
    float mx = x[0];
    for (int64_t j = 1; j < cols; ++j) mx = std::max(mx, x[j]);
    float sum = 0.0f;
    for (int64_t j = 0; j < cols; ++j) {
      y[j] = std::exp(x[j] - mx);
      sum += y[j];
    }
    const float inv = 1.0f / sum;
    for (int64_t j = 0; j < cols; ++j) y[j] *= inv;
  }
}

// Row-wise softmax with the vector fast path: blocks of 16 rows compute
// their maxima lane-per-row over a transposed scratch and scale their
// outputs with vector multiplies; the exp+sum stage stays scalar per row
// (std::exp has no bitwise vector equivalent). Tail rows take the
// reference loop.
void RowSoftmax(const float* in, float* out, int64_t rows, int64_t cols) {
  int64_t r = 0;
#ifdef DTDBD_SIMD_AVX512
  if (UseAvx512() && rows >= 16 && cols >= 2) {
    std::vector<float> scratch(static_cast<size_t>(cols) * 16);
    float m16[16];
    for (; r + 16 <= rows; r += 16) {
      for (int rr = 0; rr < 16; ++rr) {
        const float* x = in + (r + rr) * cols;
        for (int64_t j = 0; j < cols; ++j) scratch[j * 16 + rr] = x[j];
      }
      RowMax16Avx512(scratch.data(), cols, m16);
      for (int rr = 0; rr < 16; ++rr) {
        const float* x = in + (r + rr) * cols;
        float* y = out + (r + rr) * cols;
        const float mx = m16[rr];
        float sum = 0.0f;
        for (int64_t j = 0; j < cols; ++j) {
          y[j] = std::exp(x[j] - mx);
          sum += y[j];
        }
        ScaleRowAvx512(y, 1.0f / sum, cols);
      }
    }
  }
#endif
  RowSoftmaxScalar(in + r * cols, out + r * cols, rows - r, cols);
}

void SoftmaxBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const int64_t cols = self->shape.back();
  const int64_t rows = cols > 0 ? self->numel / cols : 0;
  ParallelFor(rows, GrainForRows(cols), [&](int64_t s, int64_t e) {
    for (int64_t r = s; r < e; ++r) {
      const float* y = self->cdata() + r * cols;
      const float* g = self->grad.data() + r * cols;
      float dot = 0.0f;
      for (int64_t j = 0; j < cols; ++j) dot += g[j] * y[j];
      float* gi = in->grad.data() + r * cols;
      for (int64_t j = 0; j < cols; ++j) gi[j] += y[j] * (g[j] - dot);
    }
  });
}

const Op* const kSoftmax =
    OpRegistry::Get().Register({"Softmax", 1, &SoftmaxBackward});

void LogSoftmaxBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const int64_t cols = self->shape.back();
  const int64_t rows = cols > 0 ? self->numel / cols : 0;
  ParallelFor(rows, GrainForRows(cols), [&](int64_t s, int64_t e) {
    for (int64_t r = s; r < e; ++r) {
      const float* y = self->cdata() + r * cols;
      const float* g = self->grad.data() + r * cols;
      float gsum = 0.0f;
      for (int64_t j = 0; j < cols; ++j) gsum += g[j];
      float* gi = in->grad.data() + r * cols;
      for (int64_t j = 0; j < cols; ++j) {
        gi[j] += g[j] - std::exp(y[j]) * gsum;
      }
    }
  });
}

const Op* const kLogSoftmax =
    OpRegistry::Get().Register({"LogSoftmax", 1, &LogSoftmaxBackward});

// ----- EmbeddingGather -----

struct EmbeddingGatherState {
  std::vector<int> ids;
};

void EmbeddingGatherBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const int64_t e = in->shape[1];
  const auto* st = static_cast<const EmbeddingGatherState*>(self->saved.get());
  const int64_t count = static_cast<int64_t>(st->ids.size());
  const float* g = self->grad.data();
  float* gi = in->grad.data();
  // Sharded over embedding columns: repeated ids land in the same column
  // range of the table gradient inside one shard, accumulated over i in
  // ascending order — matching the serial kernel bit for bit. The vector
  // path interchanges the loops within the shard (contiguous column
  // stripes instead of stride-e walks); each (row, j) element still
  // accumulates over i ascending.
  const bool vec = UseAvx512();
  ParallelFor(e, GrainForRows(count), [&](int64_t s, int64_t e2) {
    if (vec && e2 - s >= 16) {
      for (int64_t i = 0; i < count; ++i) {
        const int64_t row = st->ids[static_cast<size_t>(i)];
#ifdef DTDBD_SIMD_AVX512
        AddRowAvx512(gi + row * e + s, g + i * e + s, e2 - s);
#endif
      }
      return;
    }
    for (int64_t j = s; j < e2; ++j) {
      for (int64_t i = 0; i < count; ++i) {
        const int64_t row = st->ids[static_cast<size_t>(i)];
        gi[row * e + j] += g[i * e + j];
      }
    }
  });
}

const Op* const kEmbeddingGather =
    OpRegistry::Get().Register({"EmbeddingGather", 1,
                                &EmbeddingGatherBackward});

// The frozen encoder records no inputs and has no backward: its tensors
// are constants, so the output is always detached.
const Op* const kFrozenEncode =
    OpRegistry::Get().Register({"FrozenEncode", 0, nullptr});

// ----- Conv backward (Conv1dSeq and Conv1dSeqReluMax) -----
//
// `ga` is the gradient that reaches the conv's output positions, as rows
// of c channels: b * to rows for Conv1dSeq (row bi * to + o is position o
// of sequence bi), or b rows for Conv1dSeqReluMax, whose `argmax` [b, c]
// names the one position of each (bi, ci) that the pooled gradient
// reaches (every other position gets +0). Both phases skip zero
// coefficients and otherwise replay the dense loop's per-element order,
// so the two ops are bitwise equal to it at every thread count and with
// SIMD on or off.
void ConvBackward(Node* self, const float* ga, const int32_t* argmax) {
  Node* xn = self->inputs[0].get();
  Node* wn = self->inputs[1].get();
  Node* bn = self->inputs[2].get();
  const int64_t b = xn->shape[0], t = xn->shape[1], e = xn->shape[2];
  const int64_t c = wn->shape[0], win = wn->shape[1];
  const int64_t to = t - win / e + 1;
  const int64_t per_seq = argmax != nullptr ? 1 : to;  // rows of ga per bi
  const int64_t rows = b * per_seq;
  // Position of row r's channel ci within its sequence.
  const auto pos = [&](int64_t r, int64_t ci) -> int64_t {
    return argmax != nullptr ? argmax[r * c + ci] : r % to;
  };
  const bool vec = UseAvx512();
  // Phase 1: weight/bias gradients, sharded over output channels — each
  // channel's gw row and gb entry belong to exactly one shard, accumulated
  // over (bi, o) in ascending order like the serial kernel.
  if (wn->requires_grad || bn->requires_grad) {
    const float* px = xn->cdata();
    ParallelFor(c, GrainForRows(rows * win), [&](int64_t s, int64_t e2) {
      if (bn->requires_grad) {
        ColumnSum(vec, ga, rows, c, s, e2, bn->grad.data());
      }
      if (!wn->requires_grad) return;
      std::vector<AxpyTerm> terms;
      for (int64_t ci = s; ci < e2; ++ci) {
        terms.clear();
        for (int64_t r = 0; r < rows; ++r) {
          const float a = ga[r * c + ci];
          if (a == 0.0f) continue;
          terms.push_back({a, px + ((r / per_seq) * t + pos(r, ci)) * e});
        }
        AxpyChain(vec, wn->grad.data() + ci * win, win, terms.data(),
                  static_cast<int64_t>(terms.size()));
      }
    });
  }
  // Phase 2: input gradient, sharded over the batch — overlapping windows
  // only overlap within one sequence, so shards write disjoint gx rows. A
  // sequence's terms are bucketed by position, stable in ci, and each
  // bucket runs as one chain into its window: every gx element sees them
  // in (o, ci) order, like the dense loop.
  if (xn->requires_grad) {
    const float* pw = wn->cdata();
    ParallelFor(b, GrainForRows(per_seq * c * win), [&](int64_t s, int64_t e2) {
      std::vector<int64_t> end(static_cast<size_t>(to + 1));
      std::vector<AxpyTerm> terms(static_cast<size_t>(per_seq * c));
      for (int64_t bi = s; bi < e2; ++bi) {
        // Counting sort: end[o + 1] counts position o's terms, then the
        // prefix sums make end[o] bucket o's first slot; placing the terms
        // advances it to the bucket's end.
        std::fill(end.begin(), end.end(), 0);
        for (int64_t r = bi * per_seq; r < (bi + 1) * per_seq; ++r) {
          for (int64_t ci = 0; ci < c; ++ci) {
            if (ga[r * c + ci] != 0.0f) ++end[pos(r, ci) + 1];
          }
        }
        std::partial_sum(end.begin(), end.end(), end.begin());
        for (int64_t r = bi * per_seq; r < (bi + 1) * per_seq; ++r) {
          for (int64_t ci = 0; ci < c; ++ci) {
            const float a = ga[r * c + ci];
            if (a != 0.0f) terms[end[pos(r, ci)]++] = {a, pw + ci * win};
          }
        }
        int64_t first = 0;
        for (int64_t o = 0; o < to; ++o) {
          AxpyChain(vec, xn->grad.data() + (bi * t + o) * e, win,
                    terms.data() + first, end[o] - first);
          first = end[o];
        }
      }
    });
  }
}

void Conv1dSeqBackward(Node* self) {
  ConvBackward(self, self->grad.data(), /*argmax=*/nullptr);
}

const Op* const kConv1dSeq =
    OpRegistry::Get().Register({"Conv1dSeq", 3, &Conv1dSeqBackward});

// ----- Conv1dSeqReluMax (fused Conv1dSeq + Relu + MaxOverTime) -----

struct Conv1dSeqReluMaxState {
  std::vector<int32_t> argmax;  // [b, c]: first position of the max
};

// The unfused chain leaves (0 + g) * m + 0 in the conv node's grad at the
// argmax, m the ReLU mask there, and +0 everywhere else. m is 1 exactly
// where the pooled output is > 0.
void Conv1dSeqReluMaxBackward(Node* self) {
  const auto* st = static_cast<const Conv1dSeqReluMaxState*>(self->saved.get());
  const float* g = self->grad.data();
  const float* pooled = self->cdata();
  std::vector<float> ga(static_cast<size_t>(self->numel));
  for (int64_t i = 0; i < self->numel; ++i) {
    ga[i] = (0.0f + g[i]) * (pooled[i] > 0.0f ? 1.0f : 0.0f) + 0.0f;
  }
  ConvBackward(self, ga.data(), st->argmax.data());
}

const Op* const kConv1dSeqReluMax = OpRegistry::Get().Register(
    {"Conv1dSeqReluMax", 3, &Conv1dSeqReluMaxBackward});

// ----- GradReverse -----

struct GradReverseState {
  float lambda;
};

void GradReverseBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const float lambda =
      static_cast<const GradReverseState*>(self->saved.get())->lambda;
  const float* g = self->grad.data();
  float* gi = in->grad.data();
  ParallelFor(self->numel, kGrain, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) gi[i] -= lambda * g[i];
  });
}

const Op* const kGradReverse = OpRegistry::Get().Register(
    {"GradReverse", 1, &GradReverseBackward, /*is_view=*/true});

// ----- Dropout -----

struct DropoutState {
  std::vector<float> mask;
};

void DropoutBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const auto* st = static_cast<const DropoutState*>(self->saved.get());
  const float* g = self->grad.data();
  const float* mask = st->mask.data();
  float* gi = in->grad.data();
  ParallelFor(self->numel, kGrain, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) gi[i] += g[i] * mask[i];
  });
}

const Op* const kDropout =
    OpRegistry::Get().Register({"Dropout", 1, &DropoutBackward});

// ----- LayerNorm -----

struct LayerNormState {
  std::vector<float> xhat;     // normalized values pre gamma/beta
  std::vector<float> inv_std;  // per row
};

void LayerNormBackward(Node* self) {
  Node* xn = self->inputs[0].get();
  Node* gn = self->inputs[1].get();
  Node* bn = self->inputs[2].get();
  const int64_t n = gn->shape[0];
  const int64_t rows = n > 0 ? self->numel / n : 0;
  const auto* st = static_cast<const LayerNormState*>(self->saved.get());
  const float* g = self->grad.data();
  const float* xhat = st->xhat.data();
  // gamma/beta: sharded over columns, rows accumulated in ascending order.
  if (gn->requires_grad || bn->requires_grad) {
    ParallelFor(n, GrainForRows(rows), [&](int64_t s, int64_t e) {
      for (int64_t j = s; j < e; ++j) {
        for (int64_t r = 0; r < rows; ++r) {
          if (gn->requires_grad) gn->grad[j] += g[r * n + j] * xhat[r * n + j];
          if (bn->requires_grad) bn->grad[j] += g[r * n + j];
        }
      }
    });
  }
  if (!xn->requires_grad) return;
  const float* pgamma = gn->cdata();
  const float inv_n = 1.0f / static_cast<float>(n);
  float* gxbase = xn->grad.data();
  ParallelFor(rows, GrainForRows(n), [&](int64_t s, int64_t e) {
    for (int64_t r = s; r < e; ++r) {
      const float* gr = g + r * n;
      const float* h = xhat + r * n;
      // dL/dxhat_j = g_j * gamma_j; standard layernorm backward.
      float sum_dh = 0.0f, sum_dh_h = 0.0f;
      for (int64_t j = 0; j < n; ++j) {
        const float dh = gr[j] * pgamma[j];
        sum_dh += dh;
        sum_dh_h += dh * h[j];
      }
      const float is = st->inv_std[static_cast<size_t>(r)];
      float* gx = gxbase + r * n;
      for (int64_t j = 0; j < n; ++j) {
        const float dh = gr[j] * pgamma[j];
        gx[j] += is * (dh - inv_n * sum_dh - h[j] * inv_n * sum_dh_h);
      }
    }
  });
}

const Op* const kLayerNorm =
    OpRegistry::Get().Register({"LayerNorm", 3, &LayerNormBackward});

// ----- WeightedSumOverTime -----

void WeightedSumOverTimeBackward(Node* self) {
  Node* xn = self->inputs[0].get();
  Node* wn = self->inputs[1].get();
  const int64_t b = xn->shape[0], t = xn->shape[1], n = xn->shape[2];
  const float* g = self->grad.data();
  // Two batched-GEMM passes over the B*T rows instead of one per-batch-row
  // loop: each gx row / gw entry receives exactly one contribution, so the
  // finer sharding changes no accumulation order.
  if (xn->requires_grad) {
    const float* pw = wn->cdata();
    float* gx = xn->grad.data();
    ParallelFor(b * t, GrainForRows(n), [&](int64_t s, int64_t e) {
      for (int64_t r = s; r < e; ++r) {
        const float wv = pw[r];
        const float* grow = g + (r / t) * n;
        float* gxr = gx + r * n;
        for (int64_t j = 0; j < n; ++j) gxr[j] += wv * grow[j];
      }
    });
  }
  if (wn->requires_grad) {
    const float* px = xn->cdata();
    float* gw = wn->grad.data();
    ParallelFor(b * t, GrainForRows(n), [&](int64_t s, int64_t e) {
      for (int64_t r = s; r < e; ++r) {
        const float* grow = g + (r / t) * n;
        const float* xr = px + r * n;
        float acc = 0.0f;
        for (int64_t j = 0; j < n; ++j) acc += xr[j] * grow[j];
        gw[r] += acc;
      }
    });
  }
}

const Op* const kWeightedSumOverTime = OpRegistry::Get().Register(
    {"WeightedSumOverTime", 2, &WeightedSumOverTimeBackward});

// ----- PairwiseSquaredDistances -----

void PairwiseSquaredDistancesBackward(Node* self) {
  Node* in = self->inputs[0].get();
  if (!in->requires_grad) return;
  const int64_t b = in->shape[0], n = in->shape[1];
  const float* px = in->cdata();
  const float* g = self->grad.data();
  float* gibase = in->grad.data();
  const bool vec = UseAvx512();
  // Row-sharded: row i collects the gradient from both symmetric entries
  // (i,j) and (j,i) itself, so shards never write another shard's rows.
  ParallelFor(b, GrainForRows(b * n), [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) {
      float* gi = gibase + i * n;
      const float* xi = px + i * n;
      for (int64_t j = 0; j < b; ++j) {
        if (j == i) continue;
        const float gsum = g[i * b + j] + g[j * b + i];
        if (gsum == 0.0f) continue;
        const float* xj = px + j * n;
#ifdef DTDBD_SIMD_AVX512
        if (vec) {
          PairwiseGradRowAvx512(gi, xi, xj, gsum, n);
          continue;
        }
#else
        (void)vec;
#endif
        for (int64_t kk = 0; kk < n; ++kk) {
          gi[kk] += 2.0f * (xi[kk] - xj[kk]) * gsum;
        }
      }
    }
  });
}

const Op* const kPairwiseSquaredDistances = OpRegistry::Get().Register(
    {"PairwiseSquaredDistances", 1, &PairwiseSquaredDistancesBackward});

}  // namespace

// ===== Public forward functions =====

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryEw(kAdd, a, b, [](float x, float y) { return x + y; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryEw(kSub, a, b, [](float x, float y) { return x - y; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryEw(kMul, a, b, [](float x, float y) { return x * y; });
}

Tensor AddBias(const Tensor& x_in, const Tensor& bias_in) {
  DTDBD_CHECK_EQ(bias_in.ndim(), 1);
  const int64_t n = bias_in.dim(0);
  DTDBD_CHECK(x_in.ndim() >= 1 && x_in.shape().back() == n)
      << "AddBias: last dim of " << ShapeToString(x_in.shape()) << " vs bias "
      << n;
  Tensor x = EnsureReadable(x_in);
  // The row decomposition below needs rows of length n; a non-contiguous
  // reader only guarantees that for 2-D inputs.
  if (!x.contiguous() && x.ndim() != 2) x = Contiguous(x);
  Tensor bias = Contiguous(bias_in);
  ScopedOpTimer timer(kAddBias);
  const Reader rx = ReadOf(x.node().get());
  const float* pb = bias.data().data();
  const int64_t rows = n > 0 ? x.numel() / n : 0;
  const bool flat = x.contiguous();
  const float* px = flat ? x.node()->cdata() : nullptr;
  std::vector<float> out(static_cast<size_t>(x.numel()));
  float* po = out.data();
  ParallelFor(rows, GrainForRows(n), [&](int64_t s, int64_t e) {
    for (int64_t r = s; r < e; ++r) {
      const float* xrow = flat ? px + r * n : rx.row(r);
      float* orow = po + r * n;
      for (int64_t j = 0; j < n; ++j) orow[j] = xrow[j] + pb[j];
    }
  });
  return MakeOp(kAddBias, x.shape(), std::move(out), {x, bias});
}

Tensor ScalarMul(const Tensor& a_in, float s) {
  Tensor a = EnsureReadable(a_in);
  ScopedOpTimer timer(kScalarMul);
  const Reader rx = ReadOf(a.node().get());
  std::vector<float> out(static_cast<size_t>(a.numel()));
  float* po = out.data();
  ParallelFor(a.numel(), kGrain, [&](int64_t s0, int64_t e) {
    for (int64_t i = s0; i < e; ++i) po[i] = s * rx.at(i);
  });
  return MakeOp(kScalarMul, a.shape(), std::move(out), {a},
                std::make_shared<ScalarMulState>(ScalarMulState{s}));
}

Tensor Relu(const Tensor& a) { return UnaryEw<ReluFn>(kRelu, a); }
Tensor Tanh(const Tensor& a) { return UnaryEw<TanhFn>(kTanh, a); }
Tensor Sigmoid(const Tensor& a) { return UnaryEw<SigmoidFn>(kSigmoid, a); }

Tensor Square(const Tensor& a) { return UnaryEw<SquareFn>(kSquare, a); }

Tensor MatMul(const Tensor& a_in, const Tensor& b_in) {
  DTDBD_CHECK_EQ(a_in.ndim(), 2);
  DTDBD_CHECK_EQ(b_in.ndim(), 2);
  Tensor a = EnsureReadable(a_in);
  Tensor b = EnsureReadable(b_in);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  DTDBD_CHECK_EQ(k, b.dim(0)) << "MatMul: inner dims "
                              << ShapeToString(a.shape()) << " x "
                              << ShapeToString(b.shape());
  ScopedOpTimer timer(kMatMul);
  const Reader ra = ReadOf(a.node().get());
  const Reader rb = ReadOf(b.node().get());
  std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
  float* po = out.data();
  const bool vec = UseAvx512();
  // Each output row is produced by exactly one shard.
  ParallelFor(m, GrainForRows(k * n), [&](int64_t s, int64_t e) {
    MatMulRows(ra, rb, nullptr, po, k, n, s, e, vec);
  });
  return MakeOp(kMatMul, {m, n}, std::move(out), {a, b});
}

Tensor Transpose2d(const Tensor& a) {
  DTDBD_CHECK_EQ(a.ndim(), 2);
  ScopedOpTimer timer(kTranspose2d);
  const auto& n = a.node();
  return MakeView(kTranspose2d, {a.dim(1), a.dim(0)},
                  {n->strides[1], n->strides[0]}, n->offset, a);
}

Tensor Sum(const Tensor& a) {
  ScopedOpTimer timer(kSum);
  float total = 0.0f;
  for (float v : a.data()) total += v;
  return MakeOp(kSum, {1}, {total}, {a});
}

Tensor Mean(const Tensor& a) {
  DTDBD_CHECK_GT(a.numel(), 0);
  ScopedOpTimer timer(kMean);
  float total = 0.0f;
  for (float v : a.data()) total += v;
  const float inv_n = 1.0f / static_cast<float>(a.numel());
  return MakeOp(kMean, {1}, {total * inv_n}, {a});
}

Tensor MeanOverTime(const Tensor& x_in) {
  DTDBD_CHECK_EQ(x_in.ndim(), 3);
  Tensor x = Contiguous(x_in);
  const int64_t b = x.dim(0), t = x.dim(1), n = x.dim(2);
  DTDBD_CHECK_GT(t, 0);
  ScopedOpTimer timer(kMeanOverTime);
  const float* px = x.data().data();
  std::vector<float> out(static_cast<size_t>(b * n), 0.0f);
  float* po = out.data();
  const float inv_t = 1.0f / static_cast<float>(t);
  ParallelFor(b, GrainForRows(t * n), [&](int64_t s, int64_t e) {
    for (int64_t bi = s; bi < e; ++bi) {
      float* orow = po + bi * n;
      for (int64_t ti = 0; ti < t; ++ti) {
        const float* xr = px + (bi * t + ti) * n;
        for (int64_t j = 0; j < n; ++j) orow[j] += xr[j];
      }
      for (int64_t j = 0; j < n; ++j) orow[j] *= inv_t;
    }
  });
  return MakeOp(kMeanOverTime, {b, n}, std::move(out), {x});
}

Tensor MaxOverTime(const Tensor& x_in) {
  DTDBD_CHECK_EQ(x_in.ndim(), 3);
  Tensor x = Contiguous(x_in);
  const int64_t b = x.dim(0), t = x.dim(1), n = x.dim(2);
  DTDBD_CHECK_GT(t, 0);
  ScopedOpTimer timer(kMaxOverTime);
  std::vector<float> out(static_cast<size_t>(b * n));
  auto state = std::make_shared<MaxOverTimeState>();
  state->argmax.resize(static_cast<size_t>(b * n));
  PoolMaxOverTime(x.data().data(), b, t, n, out.data(), state->argmax.data());
  return MakeOp(kMaxOverTime, {b, n}, std::move(out), {x}, state);
}

Tensor Reshape(const Tensor& a_in, const Shape& new_shape) {
  DTDBD_CHECK_EQ(NumElements(new_shape), a_in.numel())
      << "Reshape to " << ShapeToString(new_shape);
  // A reshape view needs a dense source; contiguous inputs stay zero-copy.
  Tensor a = Contiguous(a_in);
  ScopedOpTimer timer(kReshape);
  return MakeView(kReshape, new_shape, CanonicalStrides(new_shape),
                  a.node()->offset, a);
}

Tensor ConcatLastDim(const std::vector<Tensor>& parts_in) {
  DTDBD_CHECK(!parts_in.empty());
  std::vector<Tensor> parts;
  parts.reserve(parts_in.size());
  for (const auto& p : parts_in) {
    DTDBD_CHECK_EQ(p.ndim(), 2);
    parts.push_back(EnsureReadable(p));
  }
  const int64_t rows = parts[0].dim(0);
  int64_t total = 0;
  std::vector<int64_t> offsets;
  std::vector<Reader> readers;
  for (const auto& p : parts) {
    DTDBD_CHECK_EQ(p.dim(0), rows);
    offsets.push_back(total);
    total += p.dim(1);
    readers.push_back(ReadOf(p.node().get()));
  }
  ScopedOpTimer timer(kConcatLastDim);
  std::vector<float> out(static_cast<size_t>(rows * total));
  float* po = out.data();
  ParallelFor(rows, GrainForRows(total), [&](int64_t s, int64_t e) {
    for (int64_t r = s; r < e; ++r) {
      float* orow = po + r * total;
      for (size_t k = 0; k < parts.size(); ++k) {
        std::copy_n(readers[k].row(r), parts[k].dim(1), orow + offsets[k]);
      }
    }
  });
  return MakeOp(kConcatLastDim, {rows, total}, std::move(out), parts);
}

Tensor SliceLastDim(const Tensor& x, int64_t start, int64_t len) {
  DTDBD_CHECK_EQ(x.ndim(), 2);
  const int64_t rows = x.dim(0), cols = x.dim(1);
  DTDBD_CHECK_GE(start, 0);
  DTDBD_CHECK_LE(start + len, cols);
  ScopedOpTimer timer(kSliceLastDim);
  const auto& n = x.node();
  return MakeView(kSliceLastDim, {rows, len}, {n->strides[0], n->strides[1]},
                  n->offset + start * n->strides[1], x,
                  std::make_shared<SliceLastDimState>(
                      SliceLastDimState{start}));
}

Tensor SliceTime(const Tensor& x, int64_t t) {
  DTDBD_CHECK_EQ(x.ndim(), 3);
  const int64_t b = x.dim(0), tt = x.dim(1), n = x.dim(2);
  DTDBD_CHECK_GE(t, 0);
  DTDBD_CHECK_LT(t, tt);
  (void)b;
  ScopedOpTimer timer(kSliceTime);
  const auto& nd = x.node();
  return MakeView(kSliceTime, {b, n}, {nd->strides[0], nd->strides[2]},
                  nd->offset + t * nd->strides[1], x,
                  std::make_shared<SliceTimeState>(SliceTimeState{t}));
}

Tensor StackTime(const std::vector<Tensor>& steps_in) {
  DTDBD_CHECK(!steps_in.empty());
  std::vector<Tensor> steps;
  steps.reserve(steps_in.size());
  for (const auto& s : steps_in) {
    DTDBD_CHECK_EQ(s.ndim(), 2);
    steps.push_back(EnsureReadable(s));
  }
  const int64_t b = steps[0].dim(0), h = steps[0].dim(1);
  const int64_t t = static_cast<int64_t>(steps.size());
  std::vector<Reader> readers;
  for (const auto& s : steps) {
    DTDBD_CHECK_EQ(s.dim(0), b);
    DTDBD_CHECK_EQ(s.dim(1), h);
    readers.push_back(ReadOf(s.node().get()));
  }
  ScopedOpTimer timer(kStackTime);
  std::vector<float> out(static_cast<size_t>(b * t * h));
  float* po = out.data();
  ParallelFor(t, GrainForRows(b * h), [&](int64_t s, int64_t e) {
    for (int64_t ti = s; ti < e; ++ti) {
      for (int64_t bi = 0; bi < b; ++bi) {
        std::copy_n(readers[static_cast<size_t>(ti)].row(bi), h,
                    po + (bi * t + ti) * h);
      }
    }
  });
  return MakeOp(kStackTime, {b, t, h}, std::move(out), steps);
}

Tensor Softmax(const Tensor& x_in) {
  DTDBD_CHECK_GE(x_in.ndim(), 1);
  Tensor x = Contiguous(x_in);
  const int64_t cols = x.shape().back();
  const int64_t rows = cols > 0 ? x.numel() / cols : 0;
  ScopedOpTimer timer(kSoftmax);
  const float* px = x.data().data();
  std::vector<float> out(static_cast<size_t>(x.numel()));
  float* po = out.data();
  ParallelFor(rows, GrainForRows(cols), [&](int64_t s, int64_t e) {
    RowSoftmax(px + s * cols, po + s * cols, e - s, cols);
  });
  return MakeOp(kSoftmax, x.shape(), std::move(out), {x});
}

Tensor LogSoftmax(const Tensor& x_in) {
  DTDBD_CHECK_GE(x_in.ndim(), 1);
  Tensor x = Contiguous(x_in);
  const int64_t cols = x.shape().back();
  const int64_t rows = cols > 0 ? x.numel() / cols : 0;
  ScopedOpTimer timer(kLogSoftmax);
  const float* px = x.data().data();
  std::vector<float> out(static_cast<size_t>(x.numel()));
  float* po = out.data();
  ParallelFor(rows, GrainForRows(cols), [&](int64_t s, int64_t e) {
    int64_t r = s;
#ifdef DTDBD_SIMD_AVX512
    // Vector path: row maxima lane-per-row over a transposed scratch,
    // vector writeback; the sum-of-exp stays scalar per row.
    if (UseAvx512() && e - r >= 16) {
      std::vector<float> scratch(static_cast<size_t>(cols) * 16);
      float m16[16];
      for (; r + 16 <= e; r += 16) {
        for (int rr = 0; rr < 16; ++rr) {
          const float* xi = px + (r + rr) * cols;
          for (int64_t j = 0; j < cols; ++j) scratch[j * 16 + rr] = xi[j];
        }
        RowMax16Avx512(scratch.data(), cols, m16);
        for (int rr = 0; rr < 16; ++rr) {
          const float* xi = px + (r + rr) * cols;
          const float mx = m16[rr];
          float sum = 0.0f;
          for (int64_t j = 0; j < cols; ++j) sum += std::exp(xi[j] - mx);
          SubScalarRowAvx512(po + (r + rr) * cols, xi, mx + std::log(sum),
                             cols);
        }
      }
    }
#endif
    for (; r < e; ++r) {
      const float* xi = px + r * cols;
      float* y = po + r * cols;
      float mx = xi[0];
      for (int64_t j = 1; j < cols; ++j) mx = std::max(mx, xi[j]);
      float sum = 0.0f;
      for (int64_t j = 0; j < cols; ++j) sum += std::exp(xi[j] - mx);
      const float lse = mx + std::log(sum);
      for (int64_t j = 0; j < cols; ++j) y[j] = xi[j] - lse;
    }
  });
  return MakeOp(kLogSoftmax, x.shape(), std::move(out), {x});
}

Status ValidateTokenIds(const std::vector<int>& ids, int64_t vocab_size) {
  for (size_t i = 0; i < ids.size(); ++i) {
    const int id = ids[i];
    if (id < 0 || static_cast<int64_t>(id) >= vocab_size) {
      return Status::InvalidArgument(
          "token id " + std::to_string(id) + " at position " +
          std::to_string(i) + " out of vocabulary range [0, " +
          std::to_string(vocab_size) + ")");
    }
  }
  return Status::Ok();
}

Tensor EmbeddingGather(const Tensor& table_in, const std::vector<int>& ids,
                       int64_t batch, int64_t time) {
  DTDBD_CHECK_EQ(table_in.ndim(), 2);
  DTDBD_CHECK_EQ(static_cast<int64_t>(ids.size()), batch * time);
  Tensor table = Contiguous(table_in);
  const int64_t v = table.dim(0), e = table.dim(1);
  // Ids validated serially before any parallel dispatch, in every build
  // mode: an out-of-range id must never reach the gather loop, where it
  // would be silent UB. Recoverable callers (the serving path) run
  // ValidateTokenIds themselves first and surface a typed Status; reaching
  // this check is tensor-API misuse and dies with a readable message.
  {
    const Status ids_ok = ValidateTokenIds(ids, v);
    DTDBD_CHECK(ids_ok.ok()) << "EmbeddingGather: " << ids_ok.message();
  }
  ScopedOpTimer timer(kEmbeddingGather);
  const float* pt = table.data().data();
  std::vector<float> out(static_cast<size_t>(batch * time * e));
  float* po = out.data();
  const bool vec = UseAvx512() && e >= 16;
  ParallelFor(batch * time, GrainForRows(e), [&](int64_t s, int64_t e2) {
    for (int64_t i = s; i < e2; ++i) {
      const int64_t row = ids[static_cast<size_t>(i)];
#ifdef DTDBD_SIMD_AVX512
      if (vec) {
        CopyRowAvx512(po + i * e, pt + row * e, e);
        continue;
      }
#else
      (void)vec;
#endif
      std::copy_n(pt + row * e, e, po + i * e);
    }
  });
  auto state = std::make_shared<EmbeddingGatherState>();
  state->ids = ids;
  return MakeOp(kEmbeddingGather, {batch, time, e}, std::move(out), {table},
                state);
}

Tensor FrozenTokenMix(const Tensor& table_in, const Tensor& mix_w_in,
                      const Tensor& mix_b_in) {
  DTDBD_CHECK_EQ(table_in.ndim(), 2);
  Tensor table = Contiguous(table_in);
  Tensor w = Contiguous(mix_w_in);
  Tensor bias = Contiguous(mix_b_in);
  const int64_t v = table.dim(0), d = table.dim(1);
  DTDBD_CHECK(w.shape() == (Shape{2 * d, d}))
      << "FrozenTokenMix: mix weight must be [2*dim, dim], got "
      << ShapeToString(w.shape());
  DTDBD_CHECK(bias.shape() == (Shape{d}))
      << "FrozenTokenMix: mix bias must be [dim], got "
      << ShapeToString(bias.shape());
  const float* tab = table.data().data();
  const float* pw = w.data().data();
  std::vector<float> mix(static_cast<size_t>(v * d));
  for (int64_t id = 0; id < v; ++id) {
    const float* e = tab + id * d;
    float* row = mix.data() + id * d;
    std::copy_n(bias.data().data(), d, row);
    for (int64_t k = 0; k < d; ++k) {
      for (int64_t j = 0; j < d; ++j) row[j] += e[k] * pw[k * d + j];
    }
  }
  return Tensor::FromData({v, d}, std::move(mix));
}

Tensor FrozenEncode(const Tensor& table_in, const Tensor& token_mix_in,
                    const Tensor& mix_w_in, const std::vector<int>& ids,
                    int64_t batch, int64_t time) {
  DTDBD_CHECK_EQ(table_in.ndim(), 2);
  DTDBD_CHECK_EQ(static_cast<int64_t>(ids.size()), batch * time);
  Tensor table = Contiguous(table_in);
  Tensor token_mix = Contiguous(token_mix_in);
  Tensor w = Contiguous(mix_w_in);
  const int64_t v = table.dim(0), d = table.dim(1);
  DTDBD_CHECK(token_mix.shape() == table.shape())
      << "FrozenEncode: token mix must be [vocab, dim], got "
      << ShapeToString(token_mix.shape());
  DTDBD_CHECK(w.shape() == (Shape{2 * d, d}))
      << "FrozenEncode: mix weight must be [2*dim, dim], got "
      << ShapeToString(w.shape());
  // All ids bounds-checked up front: the neighbourhood loop reads ids at
  // offsets other than the current position, so a per-element check at
  // use would not cover every read.
  {
    const Status ids_ok = ValidateTokenIds(ids, v);
    DTDBD_CHECK(ids_ok.ok()) << "FrozenEncode: " << ids_ok.message();
  }
  ScopedOpTimer timer(kFrozenEncode);
  const float* tab = table.data().data();
  const float* pmix = token_mix.data().data();
  const float* pw = w.data().data() + d * d;  // the context rows [d, 2d)
  const int64_t tokens = batch * time;
  std::vector<float> ctx(static_cast<size_t>(2 * d));  // two tokens' means
  std::vector<float> out(static_cast<size_t>(tokens * d));
  const bool vec = UseAvx512();
  // h_t = tanh(W^T [e_t ; ctx_t] + b), ctx_t the mean of the +/-1
  // neighbourhood (whichever neighbours exist at the edges). The chain
  // starts from the token's row of the mix table, which already holds
  // b + the e_t half, and continues over the context half; the tanh then
  // runs over the whole output. Tokens are flat indices bi * time + ti.
  auto row_of = [&](const float* rows, int64_t tk) {
    return rows + static_cast<int64_t>(ids[static_cast<size_t>(tk)]) * d;
  };
  auto context = [&](int64_t tk, float* mean) {
    const int64_t ti = tk % time;
    const float* rows[2];
    int count = 0;
    if (ti > 0) rows[count++] = row_of(tab, tk - 1);
    if (ti + 1 < time) rows[count++] = row_of(tab, tk + 1);
    MeanOfRows(vec, rows, count, d, mean);
  };
  if (vec) {
#ifdef DTDBD_SIMD_AVX512
    // Tokens in pairs. An odd last token pairs with the token before it,
    // which is recomputed with the same bits; a lone token pairs with
    // itself.
    for (int64_t p = 0; p < tokens; p += 2) {
      const int64_t t0 = std::max<int64_t>(0, std::min(p, tokens - 2));
      const int64_t t1 = std::min(t0 + 1, tokens - 1);
      context(t0, ctx.data());
      context(t1, ctx.data() + d);
      const float* const mix[2] = {row_of(pmix, t0), row_of(pmix, t1)};
      const float* const c[2] = {ctx.data(), ctx.data() + d};
      float* const o[2] = {out.data() + t0 * d, out.data() + t1 * d};
      FrozenMixPairAvx(mix, c, pw, d, o);
    }
#endif
  } else {
    for (int64_t tk = 0; tk < tokens; ++tk) {
      context(tk, ctx.data());
      float* orow = out.data() + tk * d;
      std::copy_n(row_of(pmix, tk), d, orow);
      for (int64_t k = 0; k < d; ++k) {
        for (int64_t j = 0; j < d; ++j) orow[j] += ctx[k] * pw[k * d + j];
      }
    }
  }
  TanhFn::FwdSpan(vec, out.data(), out.data(), tokens * d);
  return MakeOp(kFrozenEncode, {batch, time, d}, std::move(out), {});
}

namespace {

// ----- Conv forward (shared by Conv1dSeq / Conv1dSeqReluMax) -----
//
// Each output element (r, ci) is a length-`win` dot product of output row
// r's input window with weight row ci, started from the bias:
// acc = bias[ci]; acc += window[j] * w[ci, j] for ascending j. The scalar
// loop is the reference. The vector path puts channels in the lanes: it
// reads the weight transposed to [win, C] (built once per call, shared by
// every shard), so for each j one load fetches 16 channels' weights and a
// broadcast of window[j] feeds them. Each lane runs the scalar chain
// exactly — separate mul and add in the same j order, never fmadd (this
// file is built with -ffp-contract=off) — so every output element is
// bitwise equal to the scalar path, and batch-of-N stays bitwise equal to
// batch-of-one at any thread count: shard boundaries only decide which
// path computes an element, never its accumulation order. Shards of fewer
// than 16 rows (batch-of-one forwards at the default thread count) and
// machines without AVX-512 run the scalar loop.

// Everything a conv shard reads and writes. `wt` is the weight transposed
// to [win, c], or null when no shard takes the vector path; `relu`
// clamps each output to acc > 0 ? acc : 0, the Relu op's forward.
struct ConvRowsArgs {
  const float* px;
  const float* pw;
  const float* wt;
  const float* pbias;
  float* po;
  bool relu;
  int64_t t, e, to, c, win;

  // Output row r's input window x[r / to, r % to : r % to + k, :],
  // contiguous of length win.
  const float* Window(int64_t r) const {
    return px + ((r / to) * t + r % to) * e;
  }
};

// Reference path: rows [s, e2), one scalar chain per element.
void ConvRowsScalar(const ConvRowsArgs& a, int64_t s, int64_t e2) {
  for (int64_t r = s; r < e2; ++r) {
    const float* window = a.Window(r);
    for (int64_t ci = 0; ci < a.c; ++ci) {
      const float* wrow = a.pw + ci * a.win;
      float acc = a.pbias[ci];
      for (int64_t j = 0; j < a.win; ++j) acc += window[j] * wrow[j];
      a.po[r * a.c + ci] = !a.relu || acc > 0.0f ? acc : 0.0f;
    }
  }
}

#ifdef DTDBD_SIMD_AVX512
// Rows [s, e2) x channels [c0, c0 + len), len <= 16 * NV, in groups of
// kRows rows: kRows * NV = 8 accumulator chains in flight, and each j
// loads one weight vector per 16 channels for all of the group's rows.
// The last group is shifted back to end at e2 and recomputes rows the
// previous group already wrote, with the same bits, so the shard needs no
// row tail (the caller guarantees e2 - s >= kRows). Lanes past `len` are
// masked.
template <int NV>
struct ConvSliceAvx512 {
  static constexpr int kRows = 8 / NV;

  __attribute__((target("avx512f"))) static void Run(const ConvRowsArgs& a,
                                                     int64_t c0, int64_t len,
                                                     int64_t s, int64_t e2) {
    const __m512 zero = _mm512_setzero_ps();
    __mmask16 m[NV];
    __m512 bias[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      m[v] = LaneMask(len - 16 * v);
      bias[v] = _mm512_maskz_loadu_ps(m[v], a.pbias + c0 + 16 * v);
    }
    for (int64_t g = s; g < e2; g += kRows) {
      const int64_t r0 = std::min(g, e2 - kRows);
      const float* x[kRows];
      __m512 acc[kRows][NV];
#pragma GCC unroll 8
      for (int i = 0; i < kRows; ++i) {
        x[i] = a.Window(r0 + i);
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) acc[i][v] = bias[v];
      }
      for (int64_t j = 0; j < a.win; ++j) {
        const float* wj = a.wt + j * a.c + c0;
        __m512 w[NV];
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) {
          w[v] = _mm512_maskz_loadu_ps(m[v], wj + 16 * v);
        }
#pragma GCC unroll 8
        for (int i = 0; i < kRows; ++i) {
          const __m512 xv = _mm512_set1_ps(x[i][j]);
#pragma GCC unroll 2
          for (int v = 0; v < NV; ++v) {
            acc[i][v] = _mm512_add_ps(acc[i][v], _mm512_mul_ps(xv, w[v]));
          }
        }
      }
#pragma GCC unroll 8
      for (int i = 0; i < kRows; ++i) {
        const int64_t off = (r0 + i) * a.c + c0;
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) {
          __m512 out = acc[i][v];
          if (a.relu) {
            // _CMP_GT_OQ is the scalar `acc > 0.0f`: false for ±0 and NaN.
            out = _mm512_maskz_mov_ps(
                _mm512_cmp_ps_mask(out, zero, _CMP_GT_OQ), out);
          }
          _mm512_mask_storeu_ps(a.po + off + 16 * v, m[v], out);
        }
      }
    }
  }
};
#endif  // x86_64

// Shard body for both conv ops: the channels-in-lanes path for a shard of
// >= 16 rows when `wt` is built, the scalar reference loop otherwise.
void ConvRows(const ConvRowsArgs& a, int64_t s, int64_t e2) {
#ifdef DTDBD_SIMD_AVX512
  if (a.wt != nullptr && e2 - s >= 16) {
    // Slices of at most 32 channels: 4 rows x 2 vectors, or 8 rows x 1.
    for (int64_t c0 = 0; c0 < a.c; c0 += 32) {
      const int64_t len = std::min<int64_t>(32, a.c - c0);
      if (len > 16) {
        ConvSliceAvx512<2>::Run(a, c0, len, s, e2);
      } else {
        ConvSliceAvx512<1>::Run(a, c0, len, s, e2);
      }
    }
    return;
  }
#endif
  ConvRowsScalar(a, s, e2);
}

// Checks the conv operands and returns the output shape {b, to, c}.
Shape ConvShape(const char* op, const Tensor& x, const Tensor& weight,
                const Tensor& bias, int64_t kernel_width) {
  DTDBD_CHECK_EQ(x.ndim(), 3);
  DTDBD_CHECK_EQ(weight.ndim(), 2);
  DTDBD_CHECK_EQ(bias.ndim(), 1);
  const int64_t t = x.dim(1), c = weight.dim(0);
  DTDBD_CHECK_EQ(weight.dim(1), kernel_width * x.dim(2))
      << op << ": weight must be [C, k*E]";
  DTDBD_CHECK_EQ(bias.dim(0), c);
  DTDBD_CHECK_GE(t, kernel_width) << op << ": sequence shorter than kernel";
  return {x.dim(0), t - kernel_width + 1, c};
}

// Fills po with the conv of the contiguous operands, clamped by the ReLU
// when `relu`, sharded over output rows.
void ConvForward(const Tensor& x, const Tensor& weight, const Tensor& bias,
                 int64_t kernel_width, float* po, bool relu) {
  const int64_t b = x.dim(0), t = x.dim(1), e = x.dim(2);
  const int64_t c = weight.dim(0), win = kernel_width * e;
  const int64_t to = t - kernel_width + 1, rows = b * to;
  const int64_t grain = GrainForRows(c * win);
  ConvRowsArgs a{x.data().data(), weight.data().data(), nullptr,
                 bias.data().data(), po, relu, t, e, to, c, win};
  // The transposed weight is built only when the longest shard,
  // ceil(rows / shards), takes the vector path.
  std::vector<float> wt;
  const int64_t shards = ParallelForShards(rows, grain);
  if (UseAvx512() && (rows + shards - 1) / shards >= 16) {
    wt.resize(static_cast<size_t>(win * c));
    for (int64_t ci = 0; ci < c; ++ci) {
      for (int64_t j = 0; j < win; ++j) wt[j * c + ci] = a.pw[ci * win + j];
    }
    a.wt = wt.data();
  }
  ParallelFor(rows, grain, [&](int64_t s, int64_t e2) { ConvRows(a, s, e2); });
}

}  // namespace

Tensor Conv1dSeq(const Tensor& x_in, const Tensor& weight_in,
                 const Tensor& bias_in, int64_t kernel_width) {
  const Shape shape =
      ConvShape("Conv1dSeq", x_in, weight_in, bias_in, kernel_width);
  Tensor x = Contiguous(x_in);
  Tensor weight = Contiguous(weight_in);
  Tensor bias = Contiguous(bias_in);
  ScopedOpTimer timer(kConv1dSeq);
  std::vector<float> out(static_cast<size_t>(shape[0] * shape[1] * shape[2]));
  ConvForward(x, weight, bias, kernel_width, out.data(), /*relu=*/false);
  return MakeOp(kConv1dSeq, shape, std::move(out), {x, weight, bias});
}

Tensor LinearRelu(const Tensor& x_in, const Tensor& w_in,
                  const Tensor& bias_in) {
  DTDBD_CHECK_EQ(x_in.ndim(), 2);
  DTDBD_CHECK_EQ(w_in.ndim(), 2);
  DTDBD_CHECK_EQ(bias_in.ndim(), 1);
  Tensor x = EnsureReadable(x_in);
  Tensor w = EnsureReadable(w_in);
  Tensor bias = Contiguous(bias_in);
  const int64_t m = x.dim(0), k = x.dim(1), n = w.dim(1);
  DTDBD_CHECK_EQ(k, w.dim(0)) << "LinearRelu: inner dims "
                              << ShapeToString(x.shape()) << " x "
                              << ShapeToString(w.shape());
  DTDBD_CHECK_EQ(bias.dim(0), n);
  ScopedOpTimer timer(kLinearRelu);
  const Reader ra = ReadOf(x.node().get());
  const Reader rb = ReadOf(w.node().get());
  const float* pb = bias.data().data();
  std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
  float* po = out.data();
  const bool vec = UseAvx512();
  // MatMul's exact accumulation, then bias-add + clamp.
  ParallelFor(m, GrainForRows(k * n), [&](int64_t s, int64_t e) {
    MatMulRows(ra, rb, pb, po, k, n, s, e, vec);
  });
  return MakeOp(kLinearRelu, {m, n}, std::move(out), {x, w, bias});
}

Tensor Conv1dSeqReluMax(const Tensor& x_in, const Tensor& weight_in,
                        const Tensor& bias_in, int64_t kernel_width) {
  const Shape shape =
      ConvShape("Conv1dSeqReluMax", x_in, weight_in, bias_in, kernel_width);
  Tensor x = Contiguous(x_in);
  Tensor weight = Contiguous(weight_in);
  Tensor bias = Contiguous(bias_in);
  ScopedOpTimer timer(kConv1dSeqReluMax);
  const int64_t b = shape[0], to = shape[1], c = shape[2];
  // The clamped conv [b, to, c] is scratch: only its max over positions
  // and the first argmax outlive the call.
  std::vector<float> tile(static_cast<size_t>(b * to * c));
  ConvForward(x, weight, bias, kernel_width, tile.data(), /*relu=*/true);
  std::vector<float> out(static_cast<size_t>(b * c));
  auto state = std::make_shared<Conv1dSeqReluMaxState>();
  state->argmax.resize(static_cast<size_t>(b * c));
  PoolMaxOverTime(tile.data(), b, to, c, out.data(), state->argmax.data());
  return MakeOp(kConv1dSeqReluMax, {b, c}, std::move(out), {x, weight, bias},
                state);
}

Tensor MatVecOverTime(const Tensor& x_in, const Tensor& v_in) {
  DTDBD_CHECK_EQ(x_in.ndim(), 3);
  const int64_t b = x_in.dim(0), t = x_in.dim(1), n = x_in.dim(2);
  DTDBD_CHECK(v_in.ndim() == 1 || (v_in.ndim() == 2 && v_in.dim(1) == 1))
      << "MatVecOverTime: v must be [N] or [N,1], got "
      << ShapeToString(v_in.shape());
  DTDBD_CHECK_EQ(v_in.dim(0), n);
  Tensor x = Contiguous(x_in);
  Tensor v = EnsureReadable(v_in);
  ScopedOpTimer timer(kMatVecOverTime);
  const float* px = x.data().data();
  const Reader rv = ReadOf(v.node().get());
  std::vector<float> out(static_cast<size_t>(b * t));
  float* po = out.data();
  const bool vec = UseAvx512() && rv.flat;
  ParallelFor(b * t, GrainForRows(n), [&](int64_t s, int64_t e) {
    int64_t i = s;
#ifdef DTDBD_SIMD_AVX512
    // Lane-per-row over a transposed scratch: 16 dot products at once,
    // each lane running the scalar zero-skip chain exactly.
    if (vec && e - i >= 16) {
      std::vector<float> scratch(static_cast<size_t>(n) * 16);
      float out16[16];
      for (; i + 16 <= e; i += 16) {
        for (int rr = 0; rr < 16; ++rr) {
          const float* xrow = px + (i + rr) * n;
          for (int64_t kk = 0; kk < n; ++kk) {
            scratch[kk * 16 + rr] = xrow[kk];
          }
        }
        MatVec16Avx512(scratch.data(), rv.ptr, n, out16);
        for (int rr = 0; rr < 16; ++rr) po[i + rr] = out16[rr];
      }
    }
#else
    (void)vec;
#endif
    for (; i < e; ++i) {
      const float* xrow = px + i * n;
      float acc = 0.0f;
      for (int64_t kk = 0; kk < n; ++kk) {
        const float av = xrow[kk];
        if (av == 0.0f) continue;
        acc += av * rv.at(kk);
      }
      po[i] = acc;
    }
  });
  return MakeOp(kMatVecOverTime, {b, t}, std::move(out), {x, v});
}

Tensor GradReverse(const Tensor& x, float lambda) {
  DTDBD_CHECK(x.defined());
  ScopedOpTimer timer(kGradReverse);
  // Identity view: zero-copy forward, backward multiplies by -lambda.
  const auto& n = x.node();
  return MakeView(kGradReverse, n->shape, n->strides, n->offset, x,
                  std::make_shared<GradReverseState>(GradReverseState{lambda}));
}

Tensor Dropout(const Tensor& x_in, double p, Rng* rng, bool training) {
  DTDBD_CHECK_GE(p, 0.0);
  DTDBD_CHECK_LT(p, 1.0);
  // Eval mode is a true identity: no mask, no RNG draw, no output buffer,
  // and no graph node — the serving fast path relies on this being free.
  if (!training || p == 0.0) return x_in;
  DTDBD_CHECK(rng != nullptr);
  Tensor x = EnsureReadable(x_in);
  ScopedOpTimer timer(kDropout);
  const float scale = static_cast<float>(1.0 / (1.0 - p));
  const int64_t numel = x.numel();
  auto state = std::make_shared<DropoutState>();
  state->mask.resize(static_cast<size_t>(numel));
  // The RNG stream is consumed sequentially on the calling thread, in
  // logical element order, BEFORE any parallel dispatch: masks (and thus
  // training math and checkpoint/resume reproducibility) are independent of
  // the thread count. One draw per element, as numel Bernoulli(p) calls.
  rng->BernoulliFill(p, 0.0f, scale, state->mask.data(), numel);
  const Reader rx = ReadOf(x.node().get());
  const float* mask = state->mask.data();
  std::vector<float> out(static_cast<size_t>(numel));
  float* po = out.data();
  ParallelFor(numel, kGrain, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) po[i] = rx.at(i) * mask[i];
  });
  return MakeOp(kDropout, x.shape(), std::move(out), {x}, state);
}

Tensor LayerNormOp(const Tensor& x_in, const Tensor& gamma_in,
                   const Tensor& beta_in, float eps) {
  DTDBD_CHECK_GE(x_in.ndim(), 1);
  const int64_t n = x_in.shape().back();
  DTDBD_CHECK_EQ(gamma_in.ndim(), 1);
  DTDBD_CHECK_EQ(gamma_in.dim(0), n);
  DTDBD_CHECK_EQ(beta_in.ndim(), 1);
  DTDBD_CHECK_EQ(beta_in.dim(0), n);
  Tensor x = Contiguous(x_in);
  Tensor gamma = Contiguous(gamma_in);
  Tensor beta = Contiguous(beta_in);
  const int64_t rows = n > 0 ? x.numel() / n : 0;
  ScopedOpTimer timer(kLayerNorm);
  const float* px = x.data().data();
  const float* pg = gamma.data().data();
  const float* pbeta = beta.data().data();
  std::vector<float> out(static_cast<size_t>(x.numel()));
  auto state = std::make_shared<LayerNormState>();
  state->xhat.resize(static_cast<size_t>(x.numel()));
  state->inv_std.resize(static_cast<size_t>(rows));
  float* po = out.data();
  float* pxhat = state->xhat.data();
  float* pis = state->inv_std.data();
  ParallelFor(rows, GrainForRows(n), [&](int64_t s, int64_t e) {
    int64_t r = s;
#ifdef DTDBD_SIMD_AVX512
    // Vector path: mean/variance chains lane-per-row over a transposed
    // scratch (division and sqrt are correctly rounded in both forms),
    // then a vector writeback per row.
    if (UseAvx512() && e - r >= 16) {
      std::vector<float> scratch(static_cast<size_t>(n) * 16);
      float mean16[16], is16[16];
      for (; r + 16 <= e; r += 16) {
        for (int rr = 0; rr < 16; ++rr) {
          const float* xi = px + (r + rr) * n;
          for (int64_t j = 0; j < n; ++j) scratch[j * 16 + rr] = xi[j];
        }
        LayerNormStats16Avx512(scratch.data(), n, eps, mean16, is16);
        for (int rr = 0; rr < 16; ++rr) {
          pis[r + rr] = is16[rr];
          LayerNormRowAvx512(px + (r + rr) * n, pg, pbeta, mean16[rr],
                             is16[rr], pxhat + (r + rr) * n,
                             po + (r + rr) * n, n);
        }
      }
    }
#endif
    for (; r < e; ++r) {
      const float* xi = px + r * n;
      float mean = 0.0f;
      for (int64_t j = 0; j < n; ++j) mean += xi[j];
      mean /= static_cast<float>(n);
      float var = 0.0f;
      for (int64_t j = 0; j < n; ++j) {
        const float d = xi[j] - mean;
        var += d * d;
      }
      var /= static_cast<float>(n);
      const float is = 1.0f / std::sqrt(var + eps);
      pis[r] = is;
      for (int64_t j = 0; j < n; ++j) {
        const float h = (xi[j] - mean) * is;
        pxhat[r * n + j] = h;
        po[r * n + j] = pg[j] * h + pbeta[j];
      }
    }
  });
  return MakeOp(kLayerNorm, x.shape(), std::move(out), {x, gamma, beta},
                state);
}

Tensor WeightedSumOverTime(const Tensor& x_in, const Tensor& w_in) {
  DTDBD_CHECK_EQ(x_in.ndim(), 3);
  DTDBD_CHECK_EQ(w_in.ndim(), 2);
  Tensor x = Contiguous(x_in);
  Tensor w = Contiguous(w_in);
  const int64_t b = x.dim(0), t = x.dim(1), n = x.dim(2);
  DTDBD_CHECK_EQ(w.dim(0), b);
  DTDBD_CHECK_EQ(w.dim(1), t);
  ScopedOpTimer timer(kWeightedSumOverTime);
  const float* px = x.data().data();
  const float* pw = w.data().data();
  std::vector<float> out(static_cast<size_t>(b * n), 0.0f);
  float* po = out.data();
  // Batched 1×t · t×n GEMM, sharded over (batch row, feature-column tile)
  // pairs so small batches with wide features still spread across the pool.
  // Every output element accumulates over ti in ascending order no matter
  // which shard owns its tile — bitwise identical across thread counts.
  constexpr int64_t kTile = 256;
  const int64_t tiles = (n + kTile - 1) / kTile;
  ParallelFor(b * tiles, GrainForRows(t * kTile), [&](int64_t s, int64_t e) {
    for (int64_t r = s; r < e; ++r) {
      const int64_t bi = r / tiles;
      const int64_t j0 = (r % tiles) * kTile;
      const int64_t j1 = std::min(n, j0 + kTile);
      float* orow = po + bi * n;
      for (int64_t ti = 0; ti < t; ++ti) {
        const float wv = pw[bi * t + ti];
        const float* xr = px + (bi * t + ti) * n;
        for (int64_t j = j0; j < j1; ++j) orow[j] += wv * xr[j];
      }
    }
  });
  return MakeOp(kWeightedSumOverTime, {b, n}, std::move(out), {x, w});
}

Tensor PairwiseSquaredDistances(const Tensor& x_in) {
  DTDBD_CHECK_EQ(x_in.ndim(), 2);
  Tensor x = Contiguous(x_in);
  const int64_t b = x.dim(0), n = x.dim(1);
  ScopedOpTimer timer(kPairwiseSquaredDistances);
  const float* px = x.data().data();
  std::vector<float> out(static_cast<size_t>(b * b), 0.0f);
  float* po = out.data();
  // The vector path puts j in the lanes over x transposed to [n, b].
  const bool vec = UseAvx512();
  std::vector<float> xt;
  if (vec) {
    xt.resize(static_cast<size_t>(n * b));
    for (int64_t j = 0; j < b; ++j) {
      for (int64_t kk = 0; kk < n; ++kk) xt[kk * b + j] = px[j * n + kk];
    }
  }
  // Row-sharded over the upper triangle, then mirrored; the diagonal
  // stays 0. (a-b)^2 and (b-a)^2 round identically, so the mirrored value
  // is the one (j, i)'s own chain gives.
  ParallelFor(b, GrainForRows(b * n), [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) {
      const float* xi = px + i * n;
      float* orow = po + i * b;
#ifdef DTDBD_SIMD_AVX512
      if (vec) {
        ForRowSlices<PairwiseRowAvx512>(b - i - 1, xi, xt.data() + i + 1, b,
                                        n, orow + i + 1);
        continue;
      }
#endif
      for (int64_t j = i + 1; j < b; ++j) {
        const float* xj = px + j * n;
        float acc = 0.0f;
        for (int64_t kk = 0; kk < n; ++kk) {
          const float d = xi[kk] - xj[kk];
          acc += d * d;
        }
        orow[j] = acc;
      }
    }
  });
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t j = i + 1; j < b; ++j) po[j * b + i] = po[i * b + j];
  }
  return MakeOp(kPairwiseSquaredDistances, {b, b}, std::move(out), {x});
}

}  // namespace dtdbd::tensor
