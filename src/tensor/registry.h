// Typed op registry for the tensor engine.
//
// Every differentiable operation is a named `Op` entry: name, arity, and a
// backward kernel that reads the saved forward context off the node. The
// public functions in ops.h/loss.h are thin typed front-ends that run the
// forward kernel and record an op node through MakeOp / MakeView. Benefits
// over the previous anonymous-closure design:
//   * the graph is introspectable (DumpGraph prints op names, shapes,
//     storage aliasing),
//   * per-op wall-clock counters come for free (SetOpProfiling),
//   * later PRs can hook tracing / fusion / alternate backends at a single
//     dispatch point instead of per-callsite closures.
#ifndef DTDBD_TENSOR_REGISTRY_H_
#define DTDBD_TENSOR_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace dtdbd::tensor {

namespace internal {
struct Node;
}  // namespace internal

// A registered operation. Backward kernels accumulate into the dense
// logical gradient buffers of self->inputs; the saved forward context (per
// op state such as dropout masks or argmax indices) lives in self->saved.
struct Op {
  std::string name;
  // Number of tensor inputs; kVariadic for ops like ConcatLastDim.
  int arity = 0;
  // Null for ops that never propagate gradient (e.g. leaves).
  void (*backward)(internal::Node* self) = nullptr;
  // True when the op's output aliases its input's storage (zero-copy view).
  bool is_view = false;
  // Dense index into the registry's per-op stats slabs; assigned by
  // Register(). Registration sites brace-init the fields above and leave
  // this one alone.
  int id = -1;
};

inline constexpr int kVariadicArity = -1;

class OpRegistry {
 public:
  static OpRegistry& Get();

  // Registers an op under a unique name; dies on duplicates. The returned
  // pointer is stable for the process lifetime.
  const Op* Register(Op op);

  // Null when no op with that name exists.
  const Op* Find(const std::string& name) const;

  // All registered ops in registration order.
  std::vector<const Op*> All() const;

 private:
  std::vector<std::unique_ptr<Op>> ops_;
  std::map<std::string, const Op*> by_name_;
};

// ----- Node construction (used by ops.cc / loss.cc) -----

// Creates a dense op output node. `inputs` are recorded (and `saved`
// retained for backward) only when gradient mode is on and at least one
// input is differentiable.
Tensor MakeOp(const Op* op, Shape shape, std::vector<float> data,
              std::vector<Tensor> inputs,
              std::shared_ptr<void> saved = nullptr);

// Creates a zero-copy view node over base's storage.
Tensor MakeView(const Op* op, Shape shape, Shape strides, int64_t offset,
                const Tensor& base, std::shared_ptr<void> saved = nullptr);

// ----- SIMD dispatch toggle -----

// Runtime-dispatched vector fast paths (the AVX-512 channels-in-lanes
// Conv1dSeq forward, the conv backward, PairwiseSquaredDistances forward
// and backward, FrozenEncode, plus the MatMul / LinearRelu / MatVecOverTime
// / softmax-row / LayerNorm / EmbeddingGather paths) are enabled by default
// and are bitwise identical to their scalar reference loops, so callers
// never branch.
// Setting DTDBD_NO_SIMD to anything other than "0" pins the scalar paths
// process-wide (used by tests to produce the scalar oracle).
bool SimdEnabled();
void SetSimdEnabled(bool enabled);

// ----- Per-op profiling counters -----

struct OpStats {
  uint64_t forward_calls = 0;
  uint64_t forward_ns = 0;
  uint64_t backward_calls = 0;
  uint64_t backward_ns = 0;
  // Graph-shape counters (hardware-independent perf signal): op nodes
  // recorded, dense output buffers allocated, and bytes in those buffers.
  uint64_t nodes = 0;
  uint64_t allocs = 0;
  uint64_t bytes = 0;
  // Nodes that actually entered the autograd graph (inputs + saved state
  // retained for backward). Zero under NoGradGuard / for frozen inputs —
  // the serving fast-path invariant InferenceSession tests assert.
  uint64_t graph_recorded = 0;
};

// Profiling is off by default, and when disabled the hot path performs no
// clock reads and no counter writes. When enabled, counters accumulate into
// per-op relaxed atomics owned by the registry, so kernels that record
// nodes or timings from thread-pool workers stay race-free.
void SetOpProfiling(bool enabled);
bool OpProfilingEnabled();
std::map<std::string, OpStats> GetOpStats();
void ResetOpStats();
// Sum of GetOpStats() across all ops (bench convenience).
OpStats TotalOpStats();
// One line per op, sorted by total wall-clock, e.g. for bench logs.
std::string FormatOpStats();

// Internal accounting hooks (called by ScopedOpTimer and Backward()).
void RecordForward(const Op* op, uint64_t ns);
void RecordBackward(const Op* op, uint64_t ns);

// RAII forward timer; a no-op unless profiling is enabled.
class ScopedOpTimer {
 public:
  explicit ScopedOpTimer(const Op* op);
  ~ScopedOpTimer();
  ScopedOpTimer(const ScopedOpTimer&) = delete;
  ScopedOpTimer& operator=(const ScopedOpTimer&) = delete;

 private:
  const Op* op_;
  uint64_t start_ns_;
};

// ----- Graph introspection -----

// Human-readable dump of the autograd graph below `root` in topological
// order: node id, op name, shape, layout, and which nodes share storage.
std::string DumpGraph(const Tensor& root);

}  // namespace dtdbd::tensor

#endif  // DTDBD_TENSOR_REGISTRY_H_
