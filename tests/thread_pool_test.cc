// Tests for the deterministic parallel backend (common/thread_pool).
#include "common/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "scoped_env.h"

namespace dtdbd {
namespace {

using ::dtdbd::testing::ScopedEnv;

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  KernelPool pool(4);
  ScopedKernelPool scoped(&pool);
  const int64_t n = 100000;
  // Shards are disjoint, so plain (non-atomic) writes per index are safe.
  std::vector<int> hits(n, 0);
  ParallelFor(n, /*grain=*/1024, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) ++hits[i];
  });
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, EmptyAndTinyRanges) {
  KernelPool pool(4);
  ScopedKernelPool scoped(&pool);
  std::atomic<int> calls{0};
  ParallelFor(0, 16, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);

  std::atomic<int64_t> sum{0};
  ParallelFor(1, 16, [&](int64_t begin, int64_t end) {
    sum.fetch_add(end - begin);
  });
  EXPECT_EQ(sum.load(), 1);
}

TEST(ThreadPoolTest, RangeBelowGrainRunsAsOneShard) {
  KernelPool pool(8);
  ScopedKernelPool scoped(&pool);
  std::atomic<int> calls{0};
  ParallelFor(100, /*grain=*/4096, [&](int64_t begin, int64_t end) {
    calls.fetch_add(1);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 100);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, ShardBoundariesAreReproducible) {
  KernelPool pool(4);
  ScopedKernelPool scoped(&pool);
  const auto collect = [] {
    std::set<std::pair<int64_t, int64_t>> shards;
    std::mutex mu;
    ParallelFor(1000, /*grain=*/10, [&](int64_t begin, int64_t end) {
      std::lock_guard<std::mutex> lock(mu);
      shards.emplace(begin, end);
    });
    return shards;
  };
  const auto a = collect();
  const auto b = collect();
  EXPECT_EQ(a, b);
  // Static partitioning: shard set is a function of (n, grain, threads)
  // only, so boundaries never depend on runtime scheduling.
  int64_t covered = 0;
  for (const auto& [begin, end] : a) covered += end - begin;
  EXPECT_EQ(covered, 1000);
  EXPECT_LE(static_cast<int>(a.size()), 4);
}

TEST(ThreadPoolTest, NestedParallelForInlinesInsteadOfDeadlocking) {
  KernelPool pool(4);
  ScopedKernelPool scoped(&pool);
  const int64_t outer = 8, inner = 1000;
  std::vector<int64_t> sums(outer, 0);
  ParallelFor(outer, /*grain=*/1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      int64_t local = 0;
      ParallelFor(inner, /*grain=*/1, [&](int64_t b2, int64_t e2) {
        for (int64_t j = b2; j < e2; ++j) local += j;
      });
      sums[i] = local;
    }
  });
  for (int64_t i = 0; i < outer; ++i) {
    EXPECT_EQ(sums[i], inner * (inner - 1) / 2);
  }
}

TEST(ThreadPoolTest, NoAmbientPoolRunsInlineOnTheCallingThread) {
  // Without a ScopedKernelPool a kernel runs as one shard on the calling
  // thread, whatever DTDBD_NUM_THREADS says: the variable only sizes the
  // pools that KernelPool(0) and the serve workers create.
  ScopedEnv env("DTDBD_NUM_THREADS", "8");
  ASSERT_EQ(CurrentKernelPool(), nullptr);
  const int64_t n = int64_t{1} << 20;
  EXPECT_EQ(ParallelForShards(n, 1), 1);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  ParallelFor(n, /*grain=*/1, [&](int64_t begin, int64_t end) {
    ++calls;
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, n);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(KernelPool().nthreads(), 8);
}

TEST(ThreadPoolTest, GetNumThreadsParsesValidEnv) {
  ScopedEnv env("DTDBD_NUM_THREADS", "3");
  EXPECT_EQ(GetNumThreads(), 3);
}

TEST(ThreadPoolTest, GetNumThreadsInvalidEnvFallsBackToOne) {
  // A set-but-broken DTDBD_NUM_THREADS must not silently become hardware
  // concurrency: the old atoi path turned "abc" into full-width parallelism.
  for (const char* bad : {"abc", "0", "-3", "4x", "", " 2"}) {
    ScopedEnv env("DTDBD_NUM_THREADS", bad);
    EXPECT_EQ(GetNumThreads(), 1) << "DTDBD_NUM_THREADS='" << bad << "'";
  }
}

TEST(ThreadPoolTest, GetNumThreadsUnsetUsesHardware) {
  ScopedEnv env("DTDBD_NUM_THREADS", nullptr);
  EXPECT_GE(GetNumThreads(), 1);
}

// ----- Multi-dispatcher: KernelPool + ScopedKernelPool -----

TEST(ThreadPoolTest, ScopedKernelPoolInstallsAndRestores) {
  EXPECT_EQ(CurrentKernelPool(), nullptr);
  KernelPool a(2);
  EXPECT_EQ(a.nthreads(), 2);
  {
    ScopedKernelPool scoped_a(&a);
    EXPECT_EQ(CurrentKernelPool(), &a);
    KernelPool b(3);
    {
      ScopedKernelPool scoped_b(&b);
      EXPECT_EQ(CurrentKernelPool(), &b);
    }
    EXPECT_EQ(CurrentKernelPool(), &a);
  }
  EXPECT_EQ(CurrentKernelPool(), nullptr);
}

TEST(ThreadPoolTest, AmbientPoolShardsFollowTheArithmeticPartition) {
  // Sharding is a pure function of (n, grain, threads); the pool that runs
  // the shards must not change the partition, so shard s is exactly
  // [n * s / shards, n * (s + 1) / shards).
  KernelPool pool(4);
  ScopedKernelPool scoped(&pool);
  const int64_t n = 1000;
  std::set<std::pair<int64_t, int64_t>> shards;
  std::mutex mu;
  ParallelFor(n, /*grain=*/10, [&](int64_t begin, int64_t end) {
    std::lock_guard<std::mutex> lock(mu);
    shards.emplace(begin, end);
  });
  const int count = ParallelForShards(n, 10);
  ASSERT_EQ(count, 4);
  std::set<std::pair<int64_t, int64_t>> expected;
  for (int64_t sh = 0; sh < count; ++sh) {
    expected.emplace(n * sh / count, n * (sh + 1) / count);
  }
  EXPECT_EQ(shards, expected);
}

TEST(ThreadPoolTest, ConcurrentDispatchersProduceIdenticalResults) {
  // N threads, each owning a private KernelPool, dispatch ParallelFor
  // concurrently — the serving-worker topology. Every dispatcher must see
  // exactly the serial result; no dispatch state is shared.
  const int64_t n = 20000;
  std::vector<int64_t> expected(n);
  for (int64_t i = 0; i < n; ++i) expected[i] = (i * i) % 977 + i;

  constexpr int kDispatchers = 4;
  std::vector<std::vector<int64_t>> results(
      kDispatchers, std::vector<int64_t>(n, -1));
  std::vector<std::thread> dispatchers;
  for (int d = 0; d < kDispatchers; ++d) {
    dispatchers.emplace_back([&, d] {
      KernelPool pool(4);
      ScopedKernelPool scoped(&pool);
      auto& mine = results[static_cast<size_t>(d)];
      for (int round = 0; round < 50; ++round) {
        ParallelFor(n, /*grain=*/256, [&](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) mine[i] = (i * i) % 977 + i;
        });
      }
    });
  }
  for (auto& t : dispatchers) t.join();
  for (int d = 0; d < kDispatchers; ++d) {
    ASSERT_EQ(results[static_cast<size_t>(d)], expected) << "dispatcher " << d;
  }
}

TEST(ThreadPoolTest, NestedParallelForInsideKernelPoolInlines) {
  // The nested-inline rule holds even when a shard installs a pool of its
  // own: a kernel running on a pool worker never re-dispatches.
  KernelPool pool(4);
  ScopedKernelPool scoped(&pool);
  KernelPool inner_pool(2);
  const int64_t outer = 8, inner = 1000;
  std::vector<int64_t> sums(outer, 0);
  ParallelFor(outer, /*grain=*/1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      ScopedKernelPool inner_scoped(&inner_pool);
      int64_t local = 0;
      ParallelFor(inner, /*grain=*/1, [&](int64_t b2, int64_t e2) {
        for (int64_t j = b2; j < e2; ++j) local += j;
      });
      sums[i] = local;
    }
  });
  for (int64_t i = 0; i < outer; ++i) {
    EXPECT_EQ(sums[i], inner * (inner - 1) / 2);
  }
}

TEST(ThreadPoolTest, SingleThreadKernelPoolRunsInline) {
  KernelPool pool(1);
  EXPECT_EQ(pool.impl(), nullptr);  // no worker threads to spin up
  ScopedKernelPool scoped(&pool);
  std::atomic<int> calls{0};
  ParallelFor(100, /*grain=*/10, [&](int64_t begin, int64_t end) {
    calls.fetch_add(1);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 100);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, ParallelForShardsMatchesTheDispatch) {
  // The shard count a kernel plans with must be the one ParallelFor uses,
  // inline, through an ambient pool and in a nested call.
  const auto count = [](int64_t n, int64_t grain) {
    std::atomic<int> calls{0};
    ParallelFor(n, grain, [&](int64_t, int64_t) { calls.fetch_add(1); });
    return calls.load();
  };
  EXPECT_EQ(ParallelForShards(40, 1), 1);
  EXPECT_EQ(count(40, 1), 1);
  KernelPool pool(4);
  ScopedKernelPool scoped(&pool);
  for (int64_t n : {1, 7, 16, 40, 1000}) {
    for (int64_t grain : {0, 1, 3, 8, 4096}) {
      EXPECT_EQ(ParallelForShards(n, grain), count(n, grain))
          << "n=" << n << " grain=" << grain;
    }
  }
  EXPECT_EQ(ParallelForShards(40, 1), 4);
  KernelPool pool2(2);
  {
    ScopedKernelPool scoped2(&pool2);
    EXPECT_EQ(ParallelForShards(40, 1), 2);
    EXPECT_EQ(ParallelForShards(40, 1), count(40, 1));
  }
  ParallelFor(2, 1, [](int64_t, int64_t) {
    EXPECT_EQ(ParallelForShards(40, 1), 1);  // nested calls run inline
  });
}

// ----- ParsePositiveInt (shared by --serve-workers and the env rows) -----

TEST(ThreadPoolTest, ParsePositiveIntAcceptsStrictPositiveDecimals) {
  int out = 0;
  EXPECT_TRUE(ParsePositiveInt("1", &out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ParsePositiveInt("64", &out));
  EXPECT_EQ(out, 64);
  EXPECT_TRUE(ParsePositiveInt("2147483647", &out));
  EXPECT_EQ(out, 2147483647);
}

TEST(ThreadPoolTest, ParsePositiveIntRejectsEverythingElse) {
  for (const char* bad : {"", " 2", "2 ", "abc", "4x", "0", "-3", "2.5",
                          "+2", "0x10", "2147483648", "99999999999999"}) {
    int out = -1;
    EXPECT_FALSE(ParsePositiveInt(bad, &out)) << "'" << bad << "'";
    EXPECT_EQ(out, -1) << "out must be untouched on failure: '" << bad << "'";
  }
  EXPECT_FALSE(ParsePositiveInt(nullptr, nullptr));
}

TEST(ThreadPoolTest, ManyConsecutiveDispatches) {
  KernelPool pool(4);
  ScopedKernelPool scoped(&pool);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int64_t> sum{0};
    ParallelFor(512, /*grain=*/16, [&](int64_t begin, int64_t end) {
      int64_t local = 0;
      for (int64_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local);
    });
    ASSERT_EQ(sum.load(), 512 * 511 / 2) << "round " << round;
  }
}

}  // namespace
}  // namespace dtdbd
