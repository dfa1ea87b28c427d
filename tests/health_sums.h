// Test-only check of the HealthReport counting invariant: each per-model
// counter is the only copy of its fact, so every fleet total with a
// per-model twin must equal the sum over models[].
#ifndef DTDBD_TESTS_HEALTH_SUMS_H_
#define DTDBD_TESTS_HEALTH_SUMS_H_

#include <cstdint>

#include <gtest/gtest.h>

#include "serve/server.h"

namespace dtdbd::serve {

inline void ExpectTotalsAreModelSums(const HealthReport& health) {
  EXPECT_EQ(static_cast<int64_t>(health.models.size()), health.num_models);
  HealthReport sums;
  for (const ModelHealth& m : health.models) {
    sums.served_ok += m.served_ok;
    sums.invalid_requests += m.invalid_requests;
    sums.internal_errors += m.internal_errors;
    sums.shed_deadline += m.shed_deadline;
    sums.reload_attempts += m.reload_attempts;
    sums.reload_successes += m.reload_successes;
    sums.reload_failures += m.reload_failures;
    sums.deduped += m.cache.deduped;
    sums.feedback_recorded +=
        m.quality.feedback_total + m.quality.canary_feedback_total;
    sums.cache_hits += m.cache.hits;
    sums.cache_misses += m.cache.misses;
    sums.cache_evicted += m.cache.evicted;
    sums.cache_bytes += m.cache.bytes;
  }
  EXPECT_EQ(health.served_ok, sums.served_ok);
  EXPECT_EQ(health.invalid_requests, sums.invalid_requests);
  EXPECT_EQ(health.internal_errors, sums.internal_errors);
  EXPECT_EQ(health.shed_deadline, sums.shed_deadline);
  EXPECT_EQ(health.reload_attempts, sums.reload_attempts);
  EXPECT_EQ(health.reload_successes, sums.reload_successes);
  EXPECT_EQ(health.reload_failures, sums.reload_failures);
  EXPECT_EQ(health.deduped, sums.deduped);
  EXPECT_EQ(health.feedback_recorded, sums.feedback_recorded);
  EXPECT_EQ(health.cache_hits, sums.cache_hits);
  EXPECT_EQ(health.cache_misses, sums.cache_misses);
  EXPECT_EQ(health.cache_evicted, sums.cache_evicted);
  EXPECT_EQ(health.cache_bytes, sums.cache_bytes);
}

}  // namespace dtdbd::serve

#endif  // DTDBD_TESTS_HEALTH_SUMS_H_
