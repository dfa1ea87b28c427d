// Multi-model fleet primitives for serve::Server: a named-model registry
// with a default-routing rule, the deterministic canary hash slice, the
// windowed canary regression monitor, and the per-model health structs the
// HealthReport models[] section is built from.
//
// Ownership and locking. ModelFleet and ModelState hold no locks of their
// own — they are data owned by serve::Server and synchronized by ITS
// mutexes, with the same discipline the single-model server used for its
// one session:
//   - the registry (ModelFleet::Add / Resolve / models) and every
//     InferenceSession pointer inside a ModelState are read and written
//     only under Server::mu_, and sessions are SWAPPED only inside the
//     quiescent barrier (no in-flight batches) — so a forward that started
//     on a session can never watch it be replaced;
//   - a worker serving an in-flight batch may read the session pointers it
//     resolved at dequeue without mu_, because the barrier cannot complete
//     until the batch does;
//   - the plain counter fields below the "stats" marker are guarded by
//     Server::stats_mu_;
//   - `version`, `degraded`, and `canary_draining` are atomics readable
//     anywhere.
// ModelState objects are never destroyed while the server lives: the
// registry only appends (models can be added mid-flight, never removed),
// so a ModelState* stored in a queued Job stays valid without refcounting.
//
// Canary routing is deterministic: RouteHash hashes the request CONTENT
// (tokens + domain), so whether a given request falls in the canary slice
// is a pure function of the request and the configured percent —
// replayable in tests and stable across retries of the same post. The
// slice membership is evaluated at DEQUEUE time, so a rollback between
// admission and dequeue simply reroutes the request to the primary; no
// queued request is ever failed because its canary disappeared.
#ifndef DTDBD_SERVE_FLEET_H_
#define DTDBD_SERVE_FLEET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "models/model.h"
#include "serve/cache.h"
#include "serve/quality.h"
#include "serve/session.h"

namespace dtdbd::serve {

// The model a request routes to when it names none (wire v1 clients and
// in-process callers that leave InferenceRequest::model_name empty).
inline constexpr char kDefaultModelName[] = "default";

// Deterministic content hash for canary slicing: FNV-1a over domain and
// token ids. Feature values are deliberately excluded — two deliveries of
// the same post with slightly different float features still land in the
// same slice. That exclusion is exactly why RouteHash must NEVER be used
// as a content identity: requests that differ only in style/emotion alias
// under it. The prediction cache keys on ContentHash (cache.h), which
// mixes the feature bits in.
uint64_t RouteHash(const InferenceRequest& request);

// True when `hash` falls in the canary slice of `percent` (clamped to
// [0, 100]; 0 = nothing, 100 = everything).
bool InCanarySlice(uint64_t hash, int percent);

// --quality-slack: the canary AUC slack in integer percentage points
// (5 -> 0.05), so the strict integer rule applies; 0 would mean "any dip
// regresses" and is rejected like every other invalid value.
inline constexpr Knob kQualitySlackKnob{"quality-slack", nullptr, 1,
                                        kIntKnobMax, 5};

struct CanaryOptions {
  // Hash-slice size in percent of traffic routed to the candidate.
  int percent = 10;
  // Canary responses per evaluation window; the monitor judges the
  // candidate every time this many canary-served elements complete.
  int64_t window = 64;
  // Regression if canary error rate exceeds the primary's (over the same
  // window) by more than this absolute slack. Errors are unexpected
  // failures (kInternal and friends); client mistakes (kInvalidArgument)
  // and deadline sheds are charged to neither variant.
  double max_error_rate_increase = 0.05;
  // Regression if canary mean per-element compute exceeds primary mean *
  // this ratio. <= 0 disables the latency check (useful under ManualClock
  // where compute time reads as zero).
  double max_latency_ratio = 0.0;
  // The latency check only fires once the primary contributed at least
  // this many elements to the window (a ratio against nothing is noise).
  int64_t min_primary_samples = 1;
  // --- quality gate (DESIGN.md §13) ---
  // Labeled canary feedbacks per quality evaluation; 0 disables the gate
  // (the pre-quality monitor judged error rate and latency only). When on,
  // the server snapshots both variants' QualityMonitors every this many
  // canary-side feedbacks and judges AUC deltas below.
  int64_t quality_window = 0;
  // Regression if the canary's windowed AUC falls below the primary's by
  // more than this absolute slack — pooled, or within any single domain
  // that clears the min-samples guards. A canary may not buy its pooled
  // AUC by abandoning one domain.
  double max_auc_regression = kQualitySlackKnob.fallback / 100.0;
  // Both variants must have at least this many observations in their
  // windows (and a VALID pooled AUC — single-class windows never fire)
  // before the pooled-quality check can judge anything.
  int64_t min_quality_samples = 32;
  // Per-domain AUC deltas only count where BOTH variants saw at least this
  // many observations of that domain (an unseen domain trickling in with 3
  // samples must not kill a canary).
  int64_t min_domain_quality_samples = 8;
};

// One evaluation window of paired canary-vs-primary observations for a
// single model. Reset after every verdict.
struct CanaryWindowStats {
  int64_t canary_served = 0;  // elements answered by the candidate
  int64_t canary_errors = 0;
  int64_t canary_compute_nanos = 0;
  int64_t primary_served = 0;
  int64_t primary_errors = 0;
  int64_t primary_compute_nanos = 0;
  // Labeled-feedback quality snapshots (empty / auc_valid = false when the
  // evaluation was triggered by the serving-side window, which carries no
  // labels). The quality gate in EvaluateCanaryWindow judges these
  // independently of the served counters above — a feedback-triggered
  // evaluation legitimately has canary_served == 0.
  QualityWindowSnapshot canary_quality;
  QualityWindowSnapshot primary_quality;
};

struct CanaryVerdict {
  bool regression = false;
  bool quality = false;  // the regression came from the AUC gate
  std::string reason;    // set when regression; human-readable
};

// Pure decision function for the windowed monitor — deterministic and
// testable without a server. Three independent gates, first regression
// wins: error rate and mean-compute (both need canary_served > 0 — they
// judge served traffic), then the labeled-feedback AUC gate (needs only
// the quality snapshots — it legitimately fires on a window in which the
// serving-side counters are zero). Degenerate quality windows (either side
// !auc_valid, or below min_quality_samples) produce NO quality verdict:
// absence of evidence never rolls a canary back.
CanaryVerdict EvaluateCanaryWindow(const CanaryWindowStats& window,
                                   const CanaryOptions& options);

// Cumulative off-path shadow-scoring telemetry for one model.
struct ShadowStats {
  int64_t scored = 0;  // elements where primary and shadow both answered OK
  int64_t shadow_errors = 0;          // shadow failed where primary succeeded
  int64_t label_disagreements = 0;    // argmax flipped
  double abs_delta_sum = 0.0;         // sum |p_fake_shadow - p_fake_primary|
  double abs_delta_max = 0.0;
};

// Nearest-rank percentiles over the first `count` slots of an (unordered)
// latency ring, in milliseconds. p50 is the ceil(0.50*count)-th smallest
// sample, p99 the ceil(0.99*count)-th; count==1 returns that sample for
// both, count<=0 leaves the outputs untouched (the caller's
// latency_no_samples flag owns that case). By construction the picked
// rank is always in [1, count] — never past the filled window — and is
// monotone in q, so p99 can never come from a lower slot than p50.
// Exposed for the table-driven tests.
void LatencyPercentiles(const std::vector<int64_t>& ring, int64_t count,
                        double* p50_ms, double* p99_ms);

// Sliding window of the most recent request latencies (nanos) behind one
// p50/p99 pair: the server's aggregate window and each model's. Externally
// synchronized (Server::stats_mu_).
class LatencyRing {
 public:
  // Empties the ring and sizes it to `window` (> 0) slots.
  void Reset(int64_t window);
  // Overwrites the oldest sample once the window is full.
  void Push(int64_t nanos);
  int64_t count() const { return count_; }
  // LatencyPercentiles over the filled slots.
  void Percentiles(double* p50_ms, double* p99_ms) const {
    LatencyPercentiles(slots_, count_, p50_ms, p99_ms);
  }

 private:
  std::vector<int64_t> slots_;
  int64_t next_ = 0;
  int64_t count_ = 0;
};

// Per-model slices of a HealthReport (the models[] section).
struct CanaryHealth {
  bool active = false;
  bool draining = false;  // regression detected, rollback barrier pending
  int percent = 0;
  int64_t candidate_version = 0;
  int64_t window = 0;
  int64_t window_canary_served = 0;  // progress of the current window
  int64_t windows_evaluated = 0;
  int64_t started = 0;      // cumulative StartCanary successes
  int64_t rollbacks = 0;    // cumulative auto-rollbacks
  int64_t promotions = 0;   // cumulative PromoteCanary successes
  int64_t cancels = 0;      // cumulative CancelCanary on an active canary
  std::string last_event;   // most recent start/rollback/promote/cancel
};

struct ShadowHealth {
  bool active = false;
  int64_t scored = 0;
  int64_t shadow_errors = 0;
  int64_t label_disagreements = 0;
  double mean_abs_delta = 0.0;
  double max_abs_delta = 0.0;
};

// Per-model prediction-cache + dedup telemetry (HealthReport and the wire
// health frame both carry this shape).
struct PredictionCacheHealth {
  bool enabled = false;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserted = 0;
  int64_t evicted = 0;
  int64_t invalidated = 0;
  int64_t bytes = 0;
  int64_t entries = 0;
  int64_t deduped = 0;  // followers answered by fan-out instead of a forward
};

// Per-model windowed-quality telemetry (DESIGN.md §13): the primary's
// current quality window plus the counters of the canary quality gate.
struct QualityHealth {
  int64_t feedback_total = 0;         // cumulative primary-path feedbacks
  int64_t canary_feedback_total = 0;  // cumulative canary-path feedbacks
  // Primary window snapshot (over the server's resolved drift window).
  int64_t window_samples = 0;
  double auc = 0.0;
  bool auc_valid = false;
  double accuracy = 0.0;
  double bias_spread = 0.0;
  bool bias_spread_valid = false;
  std::vector<DomainQuality> domains;
  // Typed degraded-quality flag: the primary's windowed AUC fell below the
  // configured floor. Orthogonal to `degraded` (reload exhaustion) — a
  // model can serve every request flawlessly and still be quality-degraded.
  bool quality_degraded = false;
  int64_t quality_evals = 0;      // canary quality-gate evaluations
  int64_t quality_rollbacks = 0;  // auto-rollbacks the AUC gate triggered
};

struct ModelHealth {
  std::string name;
  bool is_default = false;
  int64_t version = 0;
  bool degraded = false;
  std::string last_reload_error;
  int64_t queue_depth = 0;  // requests routed here, still waiting
  int64_t served_ok = 0;
  int64_t invalid_requests = 0;
  int64_t internal_errors = 0;
  int64_t shed_deadline = 0;
  int64_t reload_attempts = 0;
  int64_t reload_successes = 0;
  int64_t reload_failures = 0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  int64_t latency_samples = 0;
  bool latency_no_samples = true;  // same contract as the aggregate flag
  CanaryHealth canary;
  ShadowHealth shadow;
  PredictionCacheHealth cache;
  QualityHealth quality;
};

// One named model in the fleet. See the file comment for which of
// Server::mu_ / Server::stats_mu_ guards each group.
struct ModelState {
  std::string name;
  bool is_default = false;
  // Builds a fresh architecture-matched model for reload / canary / shadow
  // checkpoint loads. May be null (loads then fail kFailedPrecondition).
  std::function<std::unique_ptr<models::FakeNewsModel>()> factory;

  // Sessions — written only inside the quiescent barrier under Server::mu_.
  std::unique_ptr<InferenceSession> primary;
  std::unique_ptr<InferenceSession> canary;
  std::unique_ptr<InferenceSession> shadow;
  CanaryOptions canary_options;  // meaningful while canary != nullptr

  std::atomic<int64_t> version{0};
  std::atomic<bool> degraded{false};
  // Set at regression detection so routing stops feeding the candidate
  // immediately, before the rollback barrier job lands.
  std::atomic<bool> canary_draining{false};
  // Windowed primary AUC fell below ServerOptions::primary_min_auc. Raised
  // and cleared by RecordFeedback; reset by a successful reload/promote
  // (the fresh primary starts with a clean slate AND a cleared window).
  std::atomic<bool> quality_degraded{false};

  // --- prediction cache + in-flight dedup (DESIGN.md §12) ---
  // Created by the server at registration when caching is enabled; entry
  // scope is (this model, variant) and every barrier job that swaps a
  // session clears the affected scope. Thread-safe internally.
  std::unique_ptr<PredictionCache> cache;  // null = caching disabled
  // In-flight dedup wait-set: content hash -> unresolved groups with that
  // hash (a vector so colliding hashes coexist; membership is decided by
  // exact key equality). Guarded by Server::mu_.
  std::unordered_map<uint64_t, std::vector<std::shared_ptr<DedupGroup>>>
      dedup_waitset;

  // --- guarded by Server::mu_ ---
  int64_t queued = 0;

  // --- stats: guarded by Server::stats_mu_ ---
  // The only copy of each count; HealthReport's fleet totals are sums.
  int64_t deduped = 0;  // followers served by dedup fan-out, not a forward
  int64_t served_ok = 0;
  int64_t invalid_requests = 0;
  int64_t internal_errors = 0;
  int64_t shed_deadline = 0;
  int64_t reload_attempts = 0;
  int64_t reload_successes = 0;
  int64_t reload_failures = 0;
  std::string last_reload_error;
  LatencyRing latencies;  // sized by the server at registration
  CanaryWindowStats window;
  int64_t windows_evaluated = 0;
  int64_t canaries_started = 0;
  int64_t canary_rollbacks = 0;
  int64_t canary_promotions = 0;
  int64_t canary_cancels = 0;
  std::string last_canary_event;
  ShadowStats shadow_stats;
  // --- labeled-feedback quality (DESIGN.md §13), also under stats_mu_ ---
  // Sized by the server at registration from the resolved feedback-ring
  // knob; cleared inside the same barriers that swap the session they
  // observe (reload/promote for the primary ring, every canary transition
  // for the canary ring) so no window straddles a swap.
  QualityMonitor primary_quality;
  QualityMonitor canary_quality;
  int64_t feedback_total = 0;         // primary-path feedbacks accepted
  int64_t canary_feedback_total = 0;  // canary-path feedbacks accepted
  int64_t canary_feedback_since_eval = 0;
  int64_t quality_evals = 0;
  int64_t quality_rollbacks = 0;
};

// Registry + router. Externally synchronized: every method requires the
// owning Server's mu_. Append-only — ModelState addresses are stable for
// the life of the fleet.
class ModelFleet {
 public:
  explicit ModelFleet(std::string default_model)
      : default_model_(std::move(default_model)) {}

  ModelFleet(const ModelFleet&) = delete;
  ModelFleet& operator=(const ModelFleet&) = delete;

  // Registers a model. kInvalidArgument for an empty name or null session,
  // kFailedPrecondition for a duplicate. The returned pointer is stable.
  StatusOr<ModelState*> Add(
      const std::string& name, std::unique_ptr<InferenceSession> session,
      std::function<std::unique_ptr<models::FakeNewsModel>()> factory);

  // Routing rule: empty name -> the configured default; otherwise exact
  // match. nullptr when unknown (the caller owes a typed kNotFound).
  ModelState* Resolve(const std::string& name);
  ModelState* Find(const std::string& name);

  const std::string& default_model() const { return default_model_; }
  const std::vector<std::unique_ptr<ModelState>>& models() const {
    return models_;
  }

 private:
  std::string default_model_;
  std::vector<std::unique_ptr<ModelState>> models_;
};

}  // namespace dtdbd::serve

#endif  // DTDBD_SERVE_FLEET_H_
