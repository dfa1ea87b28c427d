// Worker pools and the deterministic parallel-for used by the tensor
// kernels.
//
// Determinism contract: ParallelFor splits [0, n) into contiguous shards
// with fixed arithmetic boundaries and hands each shard to one worker.
// Kernels built on it must (a) write only to locations derived from the
// indices they were given (disjoint across shards) and (b) compute each
// output element with an operation order that does not depend on where the
// shard boundaries fall. Under those two rules the result is bitwise
// identical for every thread count, including 1 — which is what the
// backend-consistency test asserts for every registered tensor op.
//
// Dispatch context: a thread runs kernels in parallel only inside a
// ScopedKernelPool, which installs a KernelPool as the thread's ambient
// context. Without one, ParallelFor runs one inline shard on the calling
// thread. Each dispatcher (a serving worker, a training run) owns its own
// pool, so dispatchers never share dispatch state. Shard boundaries are a
// pure function of (n, grain, nthreads), never of which pool executes them,
// so the pool a kernel runs in cannot change any result.
#ifndef DTDBD_COMMON_THREAD_POOL_H_
#define DTDBD_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <memory>
#include <type_traits>

namespace dtdbd {

namespace internal {
class PoolImpl;
}  // namespace internal

// The kernel thread count a pool defaults to (>= 1): DTDBD_NUM_THREADS if
// set and a strictly positive integer, else hardware concurrency. A
// set-but-invalid value (non-numeric, zero, or negative) logs a warning and
// yields 1 thread rather than silently falling back to hardware
// concurrency.
int GetNumThreads();

// A private kernel-dispatch pool owned by one dispatcher thread. Created
// with `nthreads` workers (<= 0 means GetNumThreads()); with
// nthreads == 1 every dispatch runs inline on the owning thread. Distinct
// KernelPools are fully independent: N threads each holding their own pool
// can run kernels concurrently without sharing any dispatch state. The
// pool itself still admits one dispatcher at a time — it is the per-thread
// ambient handle (ScopedKernelPool) that makes multi-dispatch safe.
class KernelPool {
 public:
  explicit KernelPool(int nthreads = 0);
  ~KernelPool();
  KernelPool(const KernelPool&) = delete;
  KernelPool& operator=(const KernelPool&) = delete;

  int nthreads() const { return nthreads_; }
  // Null when nthreads == 1 (inline execution needs no workers).
  internal::PoolImpl* impl() const { return impl_.get(); }

 private:
  int nthreads_;
  std::unique_ptr<internal::PoolImpl> impl_;
};

// Installs `pool` as the calling thread's ambient dispatch context for the
// scope's lifetime; ParallelFor on this thread dispatches into it. Nestable
// (restores the previous context), and a nullptr pool restores inline
// execution. The pool must outlive the scope and must not be shared by two
// simultaneously-live scopes on different threads.
class ScopedKernelPool {
 public:
  explicit ScopedKernelPool(const KernelPool* pool);
  ~ScopedKernelPool();
  ScopedKernelPool(const ScopedKernelPool&) = delete;
  ScopedKernelPool& operator=(const ScopedKernelPool&) = delete;

 private:
  const KernelPool* previous_;
};

// The calling thread's ambient pool, or nullptr when kernels run inline on
// the calling thread (exposed for tests).
const KernelPool* CurrentKernelPool();

// The number of shards ParallelFor(n, grain, ...) on the calling thread
// splits [0, n) into, 1 when it runs inline. Shard s covers
// [n * s / shards, n * (s + 1) / shards), so none is longer than
// ceil(n / shards): a kernel can size per-call set-up to what its shards
// will do.
int ParallelForShards(int64_t n, int64_t grain);

namespace internal {
// Type-erased core; `fn(ctx, begin, end)` is invoked once per shard.
void ParallelForImpl(int64_t n, int64_t grain, void* ctx,
                     void (*fn)(void* ctx, int64_t begin, int64_t end));
}  // namespace internal

// Runs body(begin, end) over a static partition of [0, n). `grain` is the
// minimum work per shard; ranges smaller than one grain run inline. Nested
// calls (body itself calling ParallelFor) run inline rather than deadlock.
// Header template so the hot path never allocates a std::function.
template <typename Body>
void ParallelFor(int64_t n, int64_t grain, Body&& body) {
  using BodyT = std::remove_reference_t<Body>;
  internal::ParallelForImpl(
      n, grain, const_cast<BodyT*>(std::addressof(body)),
      [](void* ctx, int64_t begin, int64_t end) {
        (*static_cast<BodyT*>(ctx))(begin, end);
      });
}

}  // namespace dtdbd

#endif  // DTDBD_COMMON_THREAD_POOL_H_
