// Tests for the deterministic parallel backend (common/thread_pool).
#include "common/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"

namespace dtdbd {
namespace {

// Restores the global thread count after each test so the binaries' other
// tests see a known state.
class ThreadPoolTest : public ::testing::Test {
 protected:
  void TearDown() override { SetNumThreads(1); }
};

TEST_F(ThreadPoolTest, CoversRangeExactlyOnce) {
  SetNumThreads(4);
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

TEST_F(ThreadPoolTest, EmptyAndTinyRanges) {
  SetNumThreads(4);
  std::atomic<int> calls{0};
  ParallelFor(0, 16, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);

  std::atomic<int64_t> sum{0};
  ParallelFor(1, 16, [&](int64_t begin, int64_t end) {
    sum.fetch_add(end - begin);
  });
  EXPECT_EQ(sum.load(), 1);
}

TEST_F(ThreadPoolTest, RangeBelowGrainRunsAsOneShard) {
  SetNumThreads(8);
  std::atomic<int> calls{0};
  ParallelFor(100, /*grain=*/4096, [&](int64_t begin, int64_t end) {
    calls.fetch_add(1);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 100);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST_F(ThreadPoolTest, ShardBoundariesAreReproducible) {
  SetNumThreads(4);
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

TEST_F(ThreadPoolTest, NestedParallelForInlinesInsteadOfDeadlocking) {
  SetNumThreads(4);
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

TEST_F(ThreadPoolTest, SetNumThreadsRoundTrip) {
  SetNumThreads(3);
  EXPECT_EQ(GetNumThreads(), 3);
  SetNumThreads(1);
  EXPECT_EQ(GetNumThreads(), 1);
  SetNumThreads(0);  // 0 => default
  EXPECT_EQ(GetNumThreads(), DefaultNumThreads());
  EXPECT_GE(GetNumThreads(), 1);
}

// Saves and restores DTDBD_NUM_THREADS around a test body so the parsing
// tests do not leak environment state into the rest of the binary.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* old = std::getenv("DTDBD_NUM_THREADS");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv("DTDBD_NUM_THREADS", value, /*overwrite=*/1);
    } else {
      ::unsetenv("DTDBD_NUM_THREADS");
    }
  }
  ~ScopedThreadsEnv() {
    if (had_old_) {
      ::setenv("DTDBD_NUM_THREADS", old_.c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv("DTDBD_NUM_THREADS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST_F(ThreadPoolTest, DefaultNumThreadsParsesValidEnv) {
  ScopedThreadsEnv env("3");
  EXPECT_EQ(DefaultNumThreads(), 3);
}

TEST_F(ThreadPoolTest, DefaultNumThreadsInvalidEnvFallsBackToOne) {
  // A set-but-broken DTDBD_NUM_THREADS must not silently become hardware
  // concurrency: the old atoi path turned "abc" into full-width parallelism.
  for (const char* bad : {"abc", "0", "-3", "4x", "", " 2"}) {
    ScopedThreadsEnv env(bad);
    EXPECT_EQ(DefaultNumThreads(), 1) << "DTDBD_NUM_THREADS='" << bad << "'";
  }
}

TEST_F(ThreadPoolTest, DefaultNumThreadsUnsetUsesHardware) {
  ScopedThreadsEnv env(nullptr);
  EXPECT_GE(DefaultNumThreads(), 1);
}

int InitThreadsFromArgs(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("test"));
  for (auto& a : args) argv.push_back(a.data());
  FlagParser flags(static_cast<int>(argv.size()), argv.data());
  return InitThreadsFromFlags(flags);
}

TEST_F(ThreadPoolTest, InitThreadsFromFlagsValid) {
  EXPECT_EQ(InitThreadsFromArgs({"--threads=2"}), 2);
  EXPECT_EQ(GetNumThreads(), 2);
  EXPECT_EQ(InitThreadsFromArgs({"--threads", "3"}), 3);
}

TEST_F(ThreadPoolTest, InitThreadsFromFlagsInvalidFallsBackToOne) {
  for (const std::string& bad :
       {std::string("--threads=abc"), std::string("--threads=0"),
        std::string("--threads=-4"), std::string("--threads=2.5"),
        std::string("--threads")}) {
    SetNumThreads(4);
    EXPECT_EQ(InitThreadsFromArgs({bad}), 1) << bad;
    EXPECT_EQ(GetNumThreads(), 1) << bad;
  }
}

TEST_F(ThreadPoolTest, InitThreadsFromFlagsAbsentUsesDefault) {
  ScopedThreadsEnv env("2");
  EXPECT_EQ(InitThreadsFromArgs({}), 2);
}

// ----- Multi-dispatcher: KernelPool + ScopedKernelPool -----

TEST_F(ThreadPoolTest, ScopedKernelPoolInstallsAndRestores) {
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

TEST_F(ThreadPoolTest, AmbientPoolUsesSameShardBoundariesAsGlobal) {
  // Sharding is a pure function of (n, grain, threads); which pool runs
  // the shards must not change the partition.
  SetNumThreads(4);
  const auto collect = [] {
    std::set<std::pair<int64_t, int64_t>> shards;
    std::mutex mu;
    ParallelFor(1000, /*grain=*/10, [&](int64_t begin, int64_t end) {
      std::lock_guard<std::mutex> lock(mu);
      shards.emplace(begin, end);
    });
    return shards;
  };
  const auto global_shards = collect();
  KernelPool pool(4);
  ScopedKernelPool scoped(&pool);
  EXPECT_EQ(collect(), global_shards);
}

TEST_F(ThreadPoolTest, ConcurrentDispatchersProduceIdenticalResults) {
  // N threads, each owning a private KernelPool, dispatch ParallelFor
  // concurrently — the serving-worker topology. Every dispatcher must see
  // exactly the serial result; no dispatch state is shared.
  SetNumThreads(1);
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

TEST_F(ThreadPoolTest, NestedParallelForInsideKernelPoolInlines) {
  // The nested-inline rule holds for ambient pools too: a kernel running
  // on a pool worker never re-dispatches into its own pool.
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

TEST_F(ThreadPoolTest, SingleThreadKernelPoolRunsInline) {
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

TEST_F(ThreadPoolTest, ParallelForShardsMatchesTheDispatch) {
  // The shard count a kernel plans with must be the one ParallelFor uses,
  // through the global pool, an ambient pool and a nested call.
  const auto count = [](int64_t n, int64_t grain) {
    std::atomic<int> calls{0};
    ParallelFor(n, grain, [&](int64_t, int64_t) { calls.fetch_add(1); });
    return calls.load();
  };
  SetNumThreads(4);
  for (int64_t n : {1, 7, 16, 40, 1000}) {
    for (int64_t grain : {0, 1, 3, 8, 4096}) {
      EXPECT_EQ(ParallelForShards(n, grain), count(n, grain))
          << "n=" << n << " grain=" << grain;
    }
  }
  EXPECT_EQ(ParallelForShards(40, 1), 4);
  KernelPool pool(2);
  {
    ScopedKernelPool scoped(&pool);
    EXPECT_EQ(ParallelForShards(40, 1), 2);
    EXPECT_EQ(ParallelForShards(40, 1), count(40, 1));
  }
  ParallelFor(2, 1, [](int64_t, int64_t) {
    EXPECT_EQ(ParallelForShards(40, 1), 1);  // nested calls run inline
  });
}

// ----- ParsePositiveInt (shared by --threads / --serve-workers / env) -----

TEST_F(ThreadPoolTest, ParsePositiveIntAcceptsStrictPositiveDecimals) {
  int out = 0;
  EXPECT_TRUE(ParsePositiveInt("1", &out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ParsePositiveInt("64", &out));
  EXPECT_EQ(out, 64);
  EXPECT_TRUE(ParsePositiveInt("2147483647", &out));
  EXPECT_EQ(out, 2147483647);
}

TEST_F(ThreadPoolTest, ParsePositiveIntRejectsEverythingElse) {
  for (const char* bad : {"", " 2", "2 ", "abc", "4x", "0", "-3", "2.5",
                          "+2", "0x10", "2147483648", "99999999999999"}) {
    int out = -1;
    EXPECT_FALSE(ParsePositiveInt(bad, &out)) << "'" << bad << "'";
    EXPECT_EQ(out, -1) << "out must be untouched on failure: '" << bad << "'";
  }
  EXPECT_FALSE(ParsePositiveInt(nullptr, nullptr));
}

TEST_F(ThreadPoolTest, ManyConsecutiveDispatches) {
  SetNumThreads(4);
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
