// Prediction cache + in-flight dedup (DESIGN.md §12): the content-hash
// identity (ContentHash vs RouteHash), the sharded LRU's exactness and
// accounting, the strict non-negative parse behind --cache-bytes, the
// hit-vs-miss bitwise-parity contract across the whole model zoo at
// multiple worker/thread counts, and the dedup fan-out deadline semantics.
#include "serve/cache.h"

#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "data/generator.h"
#include "health_sums.h"
#include "models/model.h"
#include "scoped_env.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "serve/session.h"
#include "text/frozen_encoder.h"
#include "train/fault_injector.h"

namespace dtdbd::serve {
namespace {

class CacheTest : public ::testing::Test {
 protected:
  CacheTest() {
    dataset_ = data::GenerateCorpus(data::MicroConfig(17));
    encoder_ = std::make_unique<text::FrozenEncoder>(dataset_.vocab->size(),
                                                     16, 5);
    config_.vocab_size = dataset_.vocab->size();
    config_.num_domains = dataset_.num_domains();
    config_.encoder = encoder_.get();
    config_.embed_dim = 12;
    config_.hidden_dim = 16;
    config_.conv_channels = 8;
    config_.rnn_hidden = 8;
    config_.num_experts = 3;
    config_.seed = 3;
    limits_.vocab_size = config_.vocab_size;
    limits_.num_domains = config_.num_domains;
    limits_.seq_len = dataset_.seq_len;
  }

  InferenceRequest RequestFor(const data::NewsSample& sample) const {
    InferenceRequest request;
    request.tokens = sample.tokens;
    request.domain = sample.domain;
    request.style = sample.style;
    request.emotion = sample.emotion;
    return request;
  }

  std::unique_ptr<InferenceSession> MakeSession(const std::string& name,
                                                uint64_t seed,
                                                int64_t version = 1) const {
    models::ModelConfig c = config_;
    c.seed = seed;
    return std::make_unique<InferenceSession>(models::CreateModel(name, c),
                                              limits_, version);
  }

  ServerOptions CachedOptions(int64_t cache_bytes = 1 << 20) {
    ServerOptions options;
    options.watchdog_period_nanos = 0;
    options.cache_bytes = cache_bytes;
    return options;
  }

  data::NewsDataset dataset_;
  std::unique_ptr<text::FrozenEncoder> encoder_;
  models::ModelConfig config_;
  RequestLimits limits_;
};

// ----- ContentHash vs RouteHash: the cache-key correctness fix -----

TEST_F(CacheTest, ContentHashSeparatesRequestsEqualUpToFeatures) {
  // The regression this PR exists to prevent: two requests identical in
  // domain and tokens but different in the float features MUST have
  // different cache identities. RouteHash aliases them BY DESIGN (canary
  // slicing wants feature-jittered re-deliveries in one slice), which is
  // exactly why it must never be the cache key.
  InferenceRequest a = RequestFor(dataset_.samples[0]);
  InferenceRequest b = a;
  b.style[0] += 0.25f;  // equal up to features

  EXPECT_EQ(RouteHash(a), RouteHash(b));      // same canary slice...
  EXPECT_NE(ContentHash(a), ContentHash(b));  // ...distinct cache identity

  const auto key_a = PredictionCache::MakeKey(a, /*canary=*/false);
  const auto key_b = PredictionCache::MakeKey(b, /*canary=*/false);
  EXPECT_FALSE(PredictionCache::KeyEquals(key_a, key_b));

  // And end-to-end: caching a's answer can never serve b's request.
  PredictionCache cache(1 << 16);
  cache.Insert(key_a, {0.25f, 0, 7});
  PredictionCache::Entry out;
  EXPECT_TRUE(cache.Lookup(key_a, &out));
  EXPECT_FALSE(cache.Lookup(key_b, &out));
}

TEST_F(CacheTest, ContentHashIsLengthDelimited) {
  // Boundary shifts between the three variable-length sections must not
  // collide: ({t1,t2}, style={}) vs ({t1}, style={bits(t2)}).
  InferenceRequest a;
  a.domain = 0;
  a.tokens = {1, 2};
  InferenceRequest b;
  b.domain = 0;
  b.tokens = {1};
  float two_bits = 0.0f;
  static_assert(sizeof(two_bits) == sizeof(int));
  const int two = 2;
  std::memcpy(&two_bits, &two, sizeof(two_bits));
  b.style = {two_bits};
  EXPECT_NE(ContentHash(a), ContentHash(b));

  // Feature bits moving between style and emotion must not collide either.
  InferenceRequest c = a;
  c.style = {1.5f};
  InferenceRequest d = a;
  d.emotion = {1.5f};
  EXPECT_NE(ContentHash(c), ContentHash(d));
}

TEST_F(CacheTest, VariantBitSeparatesPrimaryFromCanary) {
  const InferenceRequest request = RequestFor(dataset_.samples[1]);
  const auto primary = PredictionCache::MakeKey(request, /*canary=*/false);
  const auto canary = PredictionCache::MakeKey(request, /*canary=*/true);
  EXPECT_EQ(primary.hash, canary.hash);  // hash covers content only...
  EXPECT_FALSE(PredictionCache::KeyEquals(primary, canary));  // ...key both

  PredictionCache cache(1 << 16);
  cache.Insert(primary, {0.25f, 0, 1});
  cache.Insert(canary, {0.75f, 1, 2});
  PredictionCache::Entry out;
  ASSERT_TRUE(cache.Lookup(primary, &out));
  EXPECT_EQ(out.model_version, 1);
  ASSERT_TRUE(cache.Lookup(canary, &out));
  EXPECT_EQ(out.model_version, 2);

  // ClearVariant drops exactly one scope.
  cache.ClearVariant(/*canary=*/true);
  EXPECT_TRUE(cache.Lookup(primary, &out));
  EXPECT_FALSE(cache.Lookup(canary, &out));
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.invalidated, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST_F(CacheTest, HashCollisionDegradesToMissNeverWrongAnswer) {
  // Forge a key whose 64-bit hash matches an inserted entry but whose
  // content differs — Lookup must compare the full key material and miss.
  const InferenceRequest request = RequestFor(dataset_.samples[2]);
  const auto genuine = PredictionCache::MakeKey(request, /*canary=*/false);
  PredictionCache cache(1 << 16);
  cache.Insert(genuine, {0.5f, 1, 3});

  PredictionCache::Key forged = genuine;
  forged.tokens[0] ^= 1;  // different content, same (forged) hash
  PredictionCache::Entry out;
  EXPECT_FALSE(cache.Lookup(forged, &out));
  EXPECT_TRUE(cache.Lookup(genuine, &out));
  EXPECT_EQ(out.p_fake, 0.5f);
}

// ----- LRU accounting -----

TEST_F(CacheTest, LruEvictsOldestAndCountsEverything) {
  // One shard makes the LRU order observable. Each entry costs
  // 128 + payload bytes; with two tokens that is 136, so a 300-byte shard
  // holds exactly two entries.
  PredictionCache cache(/*capacity_bytes=*/300, /*num_shards=*/1);
  auto key_of = [](int token) {
    InferenceRequest r;
    r.domain = 0;
    r.tokens = {token, token + 1};
    return PredictionCache::MakeKey(r, false);
  };
  cache.Insert(key_of(1), {0.1f, 0, 1});
  cache.Insert(key_of(2), {0.2f, 0, 1});
  PredictionCache::Entry out;
  ASSERT_TRUE(cache.Lookup(key_of(1), &out));  // refresh 1 -> 2 is LRU
  cache.Insert(key_of(3), {0.3f, 0, 1});       // evicts 2, not 1

  EXPECT_TRUE(cache.Lookup(key_of(1), &out));
  EXPECT_FALSE(cache.Lookup(key_of(2), &out));
  EXPECT_TRUE(cache.Lookup(key_of(3), &out));

  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.inserted, 3);
  EXPECT_EQ(stats.evicted, 1);
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 2);
  EXPECT_GT(stats.bytes, 0);
  EXPECT_LE(stats.bytes, 300);

  cache.Clear();
  const CacheStats cleared = cache.Stats();
  EXPECT_EQ(cleared.entries, 0);
  EXPECT_EQ(cleared.bytes, 0);
  EXPECT_EQ(cleared.invalidated, 2);
}

TEST_F(CacheTest, ReinsertRefreshesInsteadOfDuplicating) {
  PredictionCache cache(1 << 16, /*num_shards=*/1);
  const auto key =
      PredictionCache::MakeKey(RequestFor(dataset_.samples[3]), false);
  cache.Insert(key, {0.1f, 0, 1});
  cache.Insert(key, {0.9f, 1, 2});  // e.g. a post-version-bump rewrite
  EXPECT_EQ(cache.Stats().entries, 1);
  PredictionCache::Entry out;
  ASSERT_TRUE(cache.Lookup(key, &out));
  EXPECT_EQ(out.p_fake, 0.9f);
  EXPECT_EQ(out.model_version, 2);
}

// ----- Strict flag/env parsing -----

TEST_F(CacheTest, ParseNonNegativeInt64IsStrict) {
  int64_t v = -1;
  EXPECT_TRUE(ParseNonNegativeInt64("0", &v));
  EXPECT_EQ(v, 0);  // 0 is VALID: it means "cache off"
  EXPECT_TRUE(ParseNonNegativeInt64("1048576", &v));
  EXPECT_EQ(v, 1048576);
  for (const char* bad : {"", "-1", "+1", " 4", "4 ", "4x", "0x10", "1e6",
                          "99999999999999999999999"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(ParseNonNegativeInt64(bad, &v));
  }
}

// ----- Hit-vs-miss bitwise parity across the zoo -----

TEST_F(CacheTest, CacheHitMatchesMissBitwiseAcrossZooWorkersAndThreads) {
  // The tentpole contract: for EVERY zoo model, at workers {1,4} x kernel
  // threads {1,4}, the answer served from the cache is bitwise identical
  // to the answer computed by the forward that populated it AND to the
  // uncached session reference. A cache that changes a single bit breaks
  // the §9.4 parity chain, so this is EXPECT_EQ on floats, not NEAR.
  constexpr size_t kSamples = 4;
  for (const std::string& name : models::AllModelNames()) {
    SCOPED_TRACE(name);
    auto reference = MakeSession(name, 3);
    std::vector<float> expected;
    for (size_t i = 0; i < kSamples; ++i) {
      const auto r = reference->Predict(RequestFor(dataset_.samples[i]));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected.push_back(r.value().p_fake);
    }
    for (const int workers : {1, 4}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE("workers=" + std::to_string(workers) +
                     " threads=" + std::to_string(threads));
        // Each worker's KernelPool is sized by DTDBD_NUM_THREADS.
        const ::dtdbd::testing::ScopedEnv threads_env(
            "DTDBD_NUM_THREADS", std::to_string(threads).c_str());
        ServerOptions options = CachedOptions();
        options.num_workers = workers;
        Server server(MakeSession(name, 3), options);
        // Pass 1: misses populate. Pass 2: hits replay. Both must equal
        // the 1-thread session reference exactly.
        for (int pass = 0; pass < 2; ++pass) {
          for (size_t i = 0; i < kSamples; ++i) {
            const auto served =
                server.Predict(RequestFor(dataset_.samples[i]));
            ASSERT_TRUE(served.ok()) << served.status().ToString();
            EXPECT_EQ(served.value().p_fake, expected[i])
                << "pass " << pass << " sample " << i;
            EXPECT_EQ(served.value().model_version, 1);
            EXPECT_EQ(served.value().model_name, server.default_model());
          }
        }
        const HealthReport health = server.Health();
        EXPECT_TRUE(health.cache_enabled);
        EXPECT_EQ(health.cache_hits, static_cast<int64_t>(kSamples));
        EXPECT_EQ(health.served_ok, static_cast<int64_t>(2 * kSamples));
        ASSERT_EQ(health.models.size(), 1u);
        EXPECT_TRUE(health.models[0].cache.enabled);
        EXPECT_EQ(health.models[0].cache.hits,
                  static_cast<int64_t>(kSamples));
        EXPECT_EQ(health.models[0].cache.inserted,
                  static_cast<int64_t>(kSamples));
        ExpectTotalsAreModelSums(health);
      }
    }
  }
}

TEST_F(CacheTest, CacheBytesZeroIsThePreCachePath) {
  ServerOptions options = CachedOptions(/*cache_bytes=*/0);
  Server server(MakeSession("MDFEND", 3), options);
  const InferenceRequest request = RequestFor(dataset_.samples[0]);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server.Predict(request).ok());
  }
  const HealthReport health = server.Health();
  EXPECT_FALSE(health.cache_enabled);
  EXPECT_EQ(health.cache_hits, 0);
  EXPECT_EQ(health.deduped, 0);
  EXPECT_EQ(health.batches_run, 3);  // every request ran a forward
  ASSERT_EQ(health.models.size(), 1u);
  EXPECT_FALSE(health.models[0].cache.enabled);
  ExpectTotalsAreModelSums(health);
}

// ----- In-flight dedup -----

TEST_F(CacheTest, DedupFansOneForwardToAllIdenticalRequests) {
  // Pin the single worker inside a slow forward, then submit a burst of
  // identical requests: exactly one forward may run for the group, and
  // every member must receive bitwise-identical bytes.
  train::FaultInjector injector(0);
  injector.set_slow_predict_nanos(200'000'000);  // 200 ms
  ServerOptions options = CachedOptions();
  options.num_workers = 1;
  options.max_batch = 1;
  options.fault_injector = &injector;
  Server server(MakeSession("MDFEND", 3), options);

  auto reference = MakeSession("MDFEND", 3);
  const InferenceRequest request = RequestFor(dataset_.samples[0]);
  const auto expected = reference->Predict(request);
  ASSERT_TRUE(expected.ok());

  constexpr int kBurst = 6;
  std::vector<std::future<StatusOr<Prediction>>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(server.Submit(request));
  }
  for (auto& future : futures) {
    const auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().p_fake, expected.value().p_fake);
  }
  const HealthReport health = server.Health();
  // Every burst member after the leader was absorbed without a forward —
  // attached to the in-flight group, or (if it raced the fan-out) served
  // from the just-populated cache. Either way: one batch total.
  EXPECT_EQ(health.deduped + health.cache_hits, kBurst - 1);
  EXPECT_EQ(health.batches_run, 1);
  EXPECT_EQ(health.served_ok, kBurst);
  ASSERT_EQ(health.models.size(), 1u);
  EXPECT_EQ(health.models[0].cache.deduped + health.models[0].cache.hits,
            kBurst - 1);
  ExpectTotalsAreModelSums(health);
}

TEST_F(CacheTest, DedupFollowerWithEarlierDeadlineShedsIndependently) {
  // A follower with an EARLIER deadline than its leader is judged against
  // its own deadline at fan-out: the leader (no deadline) is served, the
  // follower sheds — joining a group never extends a member's lifetime.
  train::FaultInjector injector(0);
  injector.set_slow_predict_nanos(150'000'000);  // 150 ms per forward
  ManualClock clock;
  ServerOptions options = CachedOptions();
  options.num_workers = 1;
  options.max_batch = 1;
  options.clock = &clock;
  options.fault_injector = &injector;
  Server server(MakeSession("MDFEND", 3), options);

  // Occupy the worker with an unrelated request so the group stays queued
  // while we assemble it.
  auto pin = server.Submit(RequestFor(dataset_.samples[5]));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  const InferenceRequest request = RequestFor(dataset_.samples[0]);
  auto leader = server.Submit(request);               // no deadline
  auto follower = server.Submit(request, /*deadline_nanos=*/50);
  // The group is assembled (leader queued, follower attached). Expire the
  // follower's deadline before the worker reaches the group.
  clock.Set(100);
  ASSERT_TRUE(pin.get().ok());

  const auto leader_result = leader.get();
  ASSERT_TRUE(leader_result.ok()) << leader_result.status().ToString();
  const auto follower_result = follower.get();
  ASSERT_FALSE(follower_result.ok());
  EXPECT_EQ(follower_result.status().code(), StatusCode::kDeadlineExceeded);

  const HealthReport health = server.Health();
  EXPECT_EQ(health.deduped, 1);
  EXPECT_EQ(health.shed_deadline, 1);
  EXPECT_EQ(health.served_ok, 2);  // the pin and the leader
  ExpectTotalsAreModelSums(health);
}

TEST_F(CacheTest, DedupFollowerWithLaterDeadlineKeepsGroupAlive) {
  // The mirror contract: a follower with a LATER deadline extends the
  // queued leader's shed horizon, so the whole group is served even though
  // the leader alone would have been shed at dequeue.
  train::FaultInjector injector(0);
  injector.set_slow_predict_nanos(150'000'000);
  ManualClock clock;
  ServerOptions options = CachedOptions();
  options.num_workers = 1;
  options.max_batch = 1;
  options.clock = &clock;
  options.fault_injector = &injector;
  Server server(MakeSession("MDFEND", 3), options);

  auto pin = server.Submit(RequestFor(dataset_.samples[5]));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  const InferenceRequest request = RequestFor(dataset_.samples[0]);
  auto leader = server.Submit(request, /*deadline_nanos=*/50);
  auto follower = server.Submit(request, /*deadline_nanos=*/500);
  // Past the leader's own deadline, inside the follower's.
  clock.Set(100);
  ASSERT_TRUE(pin.get().ok());

  const auto leader_result = leader.get();
  const auto follower_result = follower.get();
  // The batch shed check consults the GROUP deadline (500, frozen into the
  // leader's job at dequeue), so the forward runs and BOTH members are
  // served — alone, the leader would have been shed at t=100. Joining a
  // group can extend a member's life, never shorten it.
  ASSERT_TRUE(leader_result.ok()) << leader_result.status().ToString();
  ASSERT_TRUE(follower_result.ok()) << follower_result.status().ToString();
  auto reference = MakeSession("MDFEND", 3);
  const float expected = reference->Predict(request).value().p_fake;
  EXPECT_EQ(leader_result.value().p_fake, expected);
  EXPECT_EQ(follower_result.value().p_fake, expected);

  const HealthReport health = server.Health();
  EXPECT_EQ(health.deduped, 1);
  EXPECT_EQ(health.shed_deadline, 0);
  EXPECT_EQ(health.served_ok, 3);  // pin + leader + follower
  ExpectTotalsAreModelSums(health);
}

TEST_F(CacheTest, ExpiredDeadlineIsNeverServedFromCache) {
  // A hit must not resurrect a request the forward path would shed: a
  // request whose deadline already expired at admission bypasses the cache
  // and takes the standard shed-at-dequeue, exactly as with the cache off.
  ManualClock clock;
  ServerOptions options = CachedOptions();
  options.num_workers = 1;
  options.clock = &clock;
  Server server(MakeSession("MDFEND", 3), options);

  const InferenceRequest request = RequestFor(dataset_.samples[0]);
  ASSERT_TRUE(server.Predict(request).ok());  // miss + insert
  ASSERT_TRUE(server.Predict(request).ok());  // hit
  ASSERT_EQ(server.Health().cache_hits, 1);

  clock.Set(100);
  const auto expired = server.Submit(request, /*deadline_nanos=*/50).get();
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  const HealthReport health = server.Health();
  EXPECT_EQ(health.cache_hits, 1);  // the expired request never looked up
  EXPECT_EQ(health.shed_deadline, 1);
  EXPECT_EQ(health.served_ok, 2);
  ExpectTotalsAreModelSums(health);
}

TEST_F(CacheTest, ErrorsAreFannedToFollowersNotCached) {
  // An invalid request's outcome is as pure a function of content as an OK
  // one: followers receive the same typed error, and nothing is inserted.
  train::FaultInjector injector(0);
  injector.set_slow_predict_nanos(150'000'000);
  ServerOptions options = CachedOptions();
  options.num_workers = 1;
  options.max_batch = 1;
  options.fault_injector = &injector;
  Server server(MakeSession("MDFEND", 3), options);

  auto pin = server.Submit(RequestFor(dataset_.samples[5]));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  InferenceRequest bad = RequestFor(dataset_.samples[0]);
  bad.tokens[0] = -3;
  auto leader = server.Submit(bad);
  auto follower = server.Submit(bad);
  ASSERT_TRUE(pin.get().ok());

  for (auto* f : {&leader, &follower}) {
    const auto result = f->get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  const HealthReport health = server.Health();
  EXPECT_EQ(health.invalid_requests, 2);
  ASSERT_EQ(health.models.size(), 1u);
  // The pin's OK answer is the only insert; the fanned error never lands.
  EXPECT_EQ(health.models[0].cache.inserted, 1);
  EXPECT_EQ(health.models[0].cache.deduped, 1);
  ExpectTotalsAreModelSums(health);
}

}  // namespace
}  // namespace dtdbd::serve
