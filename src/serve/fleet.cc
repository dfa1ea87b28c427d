#include "serve/fleet.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dtdbd::serve {

uint64_t RouteHash(const InferenceRequest& request) {
  // FNV-1a, 64-bit. Domain first, then token ids, each mixed byte-wise so
  // the hash is endianness-independent in spirit (we only ever compute it
  // in-process, but determinism across builds is what the tests pin).
  constexpr uint64_t kOffset = 1469598103934665603ULL;
  constexpr uint64_t kPrime = 1099511628211ULL;
  uint64_t h = kOffset;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFFu;
      h *= kPrime;
    }
  };
  mix(static_cast<uint64_t>(static_cast<int64_t>(request.domain)));
  for (int token : request.tokens) {
    mix(static_cast<uint64_t>(static_cast<int64_t>(token)));
  }
  return h;
}

bool InCanarySlice(uint64_t hash, int percent) {
  if (percent <= 0) return false;
  if (percent >= 100) return true;
  return hash % 100 < static_cast<uint64_t>(percent);
}

CanaryVerdict EvaluateCanaryWindow(const CanaryWindowStats& window,
                                   const CanaryOptions& options) {
  CanaryVerdict verdict;
  // Gates 1+2 judge served traffic; a feedback-triggered evaluation with
  // canary_served == 0 skips straight to the quality gate below.
  if (window.canary_served > 0) {
    const double canary_error_rate =
        static_cast<double>(window.canary_errors) /
        static_cast<double>(window.canary_served);
    // No primary traffic in the window (e.g. percent=100) degenerates to an
    // absolute threshold against zero baseline error.
    const double primary_error_rate =
        window.primary_served > 0
            ? static_cast<double>(window.primary_errors) /
                  static_cast<double>(window.primary_served)
            : 0.0;
    if (canary_error_rate >
        primary_error_rate + options.max_error_rate_increase) {
      verdict.regression = true;
      verdict.reason =
          "canary error rate " + std::to_string(canary_error_rate) +
          " exceeds primary " + std::to_string(primary_error_rate) +
          " by more than " + std::to_string(options.max_error_rate_increase);
      return verdict;
    }

    if (options.max_latency_ratio > 0.0 &&
        window.primary_served >= options.min_primary_samples &&
        window.primary_compute_nanos > 0) {
      const double canary_mean =
          static_cast<double>(window.canary_compute_nanos) /
          static_cast<double>(window.canary_served);
      const double primary_mean =
          static_cast<double>(window.primary_compute_nanos) /
          static_cast<double>(window.primary_served);
      if (canary_mean > primary_mean * options.max_latency_ratio) {
        verdict.regression = true;
        verdict.reason =
            "canary mean compute " + std::to_string(canary_mean) +
            "ns exceeds primary mean " + std::to_string(primary_mean) +
            "ns x " + std::to_string(options.max_latency_ratio);
        return verdict;
      }
    }
  }

  // Gate 3: labeled-feedback AUC. Fires only on EVIDENCE of regression:
  // both variants need a defined pooled AUC over at least
  // min_quality_samples observations — a single-class window, an empty
  // window, or a cold-started canary produces no verdict at all (the
  // metrics:: degenerate convention, lifted to the rollback decision).
  if (options.quality_window <= 0) return verdict;
  const QualityWindowSnapshot& canary = window.canary_quality;
  const QualityWindowSnapshot& primary = window.primary_quality;
  if (!canary.auc_valid || !primary.auc_valid ||
      canary.samples < options.min_quality_samples ||
      primary.samples < options.min_quality_samples) {
    return verdict;
  }
  if (canary.auc < primary.auc - options.max_auc_regression) {
    verdict.regression = true;
    verdict.quality = true;
    verdict.reason = "canary windowed AUC " + std::to_string(canary.auc) +
                     " trails primary " + std::to_string(primary.auc) +
                     " by more than " +
                     std::to_string(options.max_auc_regression);
    return verdict;
  }
  // Per-domain deltas, each side guarded by its own min-samples floor: a
  // canary that holds pooled AUC by sacrificing one domain regresses too,
  // but a domain either variant has barely seen proves nothing.
  for (const DomainQuality& cd : canary.domains) {
    if (!cd.auc_valid || cd.samples < options.min_domain_quality_samples) {
      continue;
    }
    for (const DomainQuality& pd : primary.domains) {
      if (pd.domain != cd.domain) continue;
      if (!pd.auc_valid || pd.samples < options.min_domain_quality_samples) {
        break;
      }
      if (cd.auc < pd.auc - options.max_auc_regression) {
        verdict.regression = true;
        verdict.quality = true;
        verdict.reason = "canary domain " + std::to_string(cd.domain) +
                         " windowed AUC " + std::to_string(cd.auc) +
                         " trails primary " + std::to_string(pd.auc) +
                         " by more than " +
                         std::to_string(options.max_auc_regression);
        return verdict;
      }
      break;
    }
  }
  return verdict;
}

StatusOr<ModelState*> ModelFleet::Add(
    const std::string& name, std::unique_ptr<InferenceSession> session,
    std::function<std::unique_ptr<models::FakeNewsModel>()> factory) {
  if (name.empty()) {
    return Status::InvalidArgument("model name must be non-empty");
  }
  if (session == nullptr) {
    return Status::InvalidArgument("model '" + name +
                                   "' registered with a null session");
  }
  if (Find(name) != nullptr) {
    return Status::FailedPrecondition("model '" + name +
                                      "' is already registered");
  }
  auto state = std::make_unique<ModelState>();
  state->name = name;
  state->is_default = name == default_model_;
  state->factory = std::move(factory);
  state->version.store(session->model_version(), std::memory_order_release);
  state->primary = std::move(session);
  models_.push_back(std::move(state));
  return models_.back().get();
}

ModelState* ModelFleet::Resolve(const std::string& name) {
  return Find(name.empty() ? default_model_ : name);
}

ModelState* ModelFleet::Find(const std::string& name) {
  for (const auto& model : models_) {
    if (model->name == name) return model.get();
  }
  return nullptr;
}

// p50/p99 over the first `count` slots of a latency ring. The ring is
// unordered (it wraps), so order statistics need a sorted copy. The pick
// is canonical nearest-rank — rank = ceil(q * count), clamped into
// [1, count] — which the old round-half-up interpolation was not: for
// count == 2 it returned the UPPER sample as p50, and its index was only
// accidentally in range (q * (count-1) + 0.5 flirts with `count` for
// q -> 1). Nearest-rank can never read past the filled window, returns
// the single sample for count == 1, and is monotone in q so p99 is never
// a lower slot than p50.
void LatencyPercentiles(const std::vector<int64_t>& ring, int64_t count,
                        double* p50_ms, double* p99_ms) {
  if (count <= 0) return;
  count = std::min<int64_t>(count, static_cast<int64_t>(ring.size()));
  std::vector<int64_t> window(ring.begin(), ring.begin() + count);
  std::sort(window.begin(), window.end());
  const auto pick = [&window](double q) {
    int64_t rank = static_cast<int64_t>(
        std::ceil(q * static_cast<double>(window.size())));
    rank = std::max<int64_t>(1, rank);
    rank = std::min<int64_t>(rank, static_cast<int64_t>(window.size()));
    return static_cast<double>(window[static_cast<size_t>(rank - 1)]) / 1e6;
  };
  *p50_ms = pick(0.50);
  *p99_ms = pick(0.99);
}

void LatencyRing::Reset(int64_t window) {
  slots_.assign(static_cast<size_t>(window), 0);
  next_ = 0;
  count_ = 0;
}

void LatencyRing::Push(int64_t nanos) {
  const int64_t window = static_cast<int64_t>(slots_.size());
  slots_[static_cast<size_t>(next_)] = nanos;
  next_ = (next_ + 1) % window;
  if (count_ < window) ++count_;
}

}  // namespace dtdbd::serve
