#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
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

// Ambient dispatch context installed by ScopedKernelPool; nullptr routes to
// the process-wide pool.
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

namespace {

std::unique_ptr<internal::PoolImpl> g_pool;  // null until first use
int g_num_threads = 0;                       // 0 = not yet initialized

void EnsurePool() {
  if (g_num_threads == 0) {
    g_num_threads = DefaultNumThreads();
  }
  if (!g_pool && g_num_threads > 1) {
    g_pool = std::make_unique<internal::PoolImpl>(g_num_threads);
  }
}

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

int DefaultNumThreads() {
  if (const char* env = std::getenv("DTDBD_NUM_THREADS")) {
    int n = 0;
    if (ParsePositiveInt(env, &n)) return n;
    DTDBD_LOG(Warning) << "DTDBD_NUM_THREADS='" << env
                       << "' is not a positive integer; using 1 thread";
    return 1;
  }
  return HardwareThreads();
}

int GetNumThreads() {
  if (g_num_threads == 0) g_num_threads = DefaultNumThreads();
  return g_num_threads;
}

void SetNumThreads(int n) {
  DTDBD_CHECK(!t_in_parallel_region)
      << "SetNumThreads inside a ParallelFor body";
  const int want = n <= 0 ? DefaultNumThreads() : n;
  if (want == g_num_threads && (g_pool || want == 1)) return;
  g_pool.reset();
  g_num_threads = want;
  if (want > 1) g_pool = std::make_unique<internal::PoolImpl>(want);
}

int InitThreadsFromFlags(const FlagParser& flags) {
  if (flags.Has("threads")) {
    const std::string value = flags.GetString("threads", "");
    int n = 0;
    if (ParsePositiveInt(value.c_str(), &n)) {
      SetNumThreads(n);
    } else {
      DTDBD_LOG(Warning) << "--threads '" << value
                         << "' is not a positive integer; using 1 thread";
      SetNumThreads(1);
    }
  } else {
    SetNumThreads(DefaultNumThreads());
  }
  return GetNumThreads();
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

namespace {

// Shards ParallelFor cuts [0, n) into at `threads` threads: one (inline)
// when a single thread, a nested call or one grain covers the range.
int ShardCount(int64_t n, int64_t grain, int threads) {
  grain = std::max<int64_t>(grain, 1);
  if (threads == 1 || t_in_parallel_region || n <= grain) return 1;
  return static_cast<int>(std::min<int64_t>(threads, (n + grain - 1) / grain));
}

}  // namespace

int ParallelForShards(int64_t n, int64_t grain) {
  const KernelPool* ambient = t_ambient_pool;
  return ShardCount(n, grain,
                    ambient != nullptr ? ambient->nthreads() : GetNumThreads());
}

namespace internal {

void ParallelForImpl(int64_t n, int64_t grain, void* ctx,
                     void (*fn)(void* ctx, int64_t begin, int64_t end)) {
  if (n <= 0) return;
  const KernelPool* ambient = t_ambient_pool;
  int threads;
  PoolImpl* pool;
  if (ambient != nullptr) {
    threads = ambient->nthreads();
    pool = ambient->impl();
  } else {
    EnsurePool();
    threads = g_num_threads;
    pool = g_pool.get();
  }
  const int shards = ShardCount(n, grain, threads);
  if (shards <= 1) {
    fn(ctx, 0, n);
    return;
  }
  pool->Run(shards, [&](int s) {
    t_in_parallel_region = true;
    const int64_t begin = n * s / shards;
    const int64_t end = n * (s + 1) / shards;
    if (begin < end) fn(ctx, begin, end);
    t_in_parallel_region = false;
  });
}

}  // namespace internal

}  // namespace dtdbd
