#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/logging.h"

namespace dtdbd {

namespace {

// Marks threads that are currently executing a shard, so nested ParallelFor
// calls degrade to inline execution instead of deadlocking on the pool.
thread_local bool t_in_parallel_region = false;

// Ambient dispatch context installed by ScopedKernelPool; nullptr runs
// every ParallelFor inline on the calling thread.
thread_local const KernelPool* t_ambient_pool = nullptr;

}  // namespace

namespace internal {

class PoolImpl {
 public:
  explicit PoolImpl(int nthreads) : nthreads_(nthreads) {
    DTDBD_CHECK_GE(nthreads, 1);
    workers_.reserve(nthreads - 1);
    for (int i = 0; i < nthreads - 1; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~PoolImpl() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  int nthreads() const { return nthreads_; }

  // Runs fn(shard) for every shard in [0, nshards); the calling thread
  // participates. Returns after all shards completed.
  //
  // All mutable dispatch state lives in a per-dispatch heap block that
  // workers pick up by shared_ptr under the pool mutex. A worker that wakes
  // late therefore drains *its own* (already exhausted) dispatch and can
  // never claim a shard — or read the callback — of a dispatch published
  // after it went to sleep. The old design kept one shard counter on the
  // pool itself, where a straggler's final claim-check raced with the next
  // dispatch's setup.
  void Run(int nshards, const std::function<void(int)>& fn) {
    auto dispatch = std::make_shared<Dispatch>();
    dispatch->fn = &fn;
    dispatch->nshards = nshards;
    dispatch->pending.store(nshards, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_ = dispatch;
      ++generation_;
    }
    cv_.notify_all();
    DrainShards(dispatch.get());
    std::unique_lock<std::mutex> lock(dispatch->done_mu);
    dispatch->done_cv.wait(lock, [&dispatch] {
      return dispatch->pending.load(std::memory_order_acquire) == 0;
    });
  }

 private:
  struct Dispatch {
    const std::function<void(int)>* fn = nullptr;
    int nshards = 0;
    std::atomic<int> next_shard{0};
    std::atomic<int> pending{0};
    std::mutex done_mu;
    std::condition_variable done_cv;
  };

  static void DrainShards(Dispatch* dispatch) {
    int shard;
    while ((shard = dispatch->next_shard.fetch_add(
                1, std::memory_order_relaxed)) < dispatch->nshards) {
      (*dispatch->fn)(shard);
      if (dispatch->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(dispatch->done_mu);
        dispatch->done_cv.notify_all();
      }
    }
  }

  void WorkerLoop() {
    uint64_t seen_generation = 0;
    for (;;) {
      std::shared_ptr<Dispatch> dispatch;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this, seen_generation] {
          return shutdown_ || generation_ != seen_generation;
        });
        if (shutdown_) return;
        seen_generation = generation_;
        dispatch = current_;
      }
      DrainShards(dispatch.get());
    }
  }

  const int nthreads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t generation_ = 0;
  bool shutdown_ = false;
  std::shared_ptr<Dispatch> current_;
};

}  // namespace internal

int GetNumThreads() {
  if (const char* env = std::getenv("DTDBD_NUM_THREADS")) {
    int n = 0;
    if (ParsePositiveInt(env, &n)) return n;
    DTDBD_LOG(Warning) << "DTDBD_NUM_THREADS='" << env
                       << "' is not a positive integer; using 1 thread";
    return 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

KernelPool::KernelPool(int nthreads)
    : nthreads_(nthreads <= 0 ? GetNumThreads() : nthreads) {
  if (nthreads_ > 1) {
    impl_ = std::make_unique<internal::PoolImpl>(nthreads_);
  }
}

KernelPool::~KernelPool() = default;

ScopedKernelPool::ScopedKernelPool(const KernelPool* pool)
    : previous_(t_ambient_pool) {
  t_ambient_pool = pool;
}

ScopedKernelPool::~ScopedKernelPool() { t_ambient_pool = previous_; }

const KernelPool* CurrentKernelPool() { return t_ambient_pool; }

// One shard (inline) when no ambient pool is installed, the pool has a
// single thread, the call is nested, or one grain covers the range.
int ParallelForShards(int64_t n, int64_t grain) {
  const KernelPool* ambient = t_ambient_pool;
  const int threads = ambient != nullptr ? ambient->nthreads() : 1;
  grain = std::max<int64_t>(grain, 1);
  if (threads == 1 || t_in_parallel_region || n <= grain) return 1;
  return static_cast<int>(std::min<int64_t>(threads, (n + grain - 1) / grain));
}

namespace internal {

void ParallelForImpl(int64_t n, int64_t grain, void* ctx,
                     void (*fn)(void* ctx, int64_t begin, int64_t end)) {
  if (n <= 0) return;
  const int shards = ParallelForShards(n, grain);
  if (shards <= 1) {
    fn(ctx, 0, n);
    return;
  }
  t_ambient_pool->impl()->Run(shards, [&](int s) {
    t_in_parallel_region = true;
    const int64_t begin = n * s / shards;
    const int64_t end = n * (s + 1) / shards;
    if (begin < end) fn(ctx, begin, end);
    t_in_parallel_region = false;
  });
}

}  // namespace internal

}  // namespace dtdbd
