// Overload-aware serving front end: bounded queue, deadlines, admission
// control, dynamic micro-batching over N workers, a watchdog, and a
// multi-model fleet with per-model hot-reload, canary, and shadow
// deployments.
//
// Fleet model (see DESIGN.md §11). The server owns a registry of N named
// models (ModelFleet); every model has its own InferenceSession stack
// (primary + optional canary candidate + optional shadow), its own version
// counter, reload state, and telemetry — but all models share ONE
// admission gate, ONE bounded FIFO, and ONE worker pool. The router
// resolves each request at admission by `InferenceRequest::model_name`
// (empty = the configured default, so pre-fleet call sites are a
// fleet-of-one and behave bitwise identically); an unknown name is
// rejected immediately with kNotFound.
//
// Threading model. `num_workers` serving threads pull from one bounded
// FIFO. Each worker owns a private KernelPool (installed with
// ScopedKernelPool for the worker's lifetime), so concurrent forwards
// never share kernel-dispatch state; shard boundaries are a pure function
// of (n, grain, nthreads), so which pool runs a kernel cannot change any
// result. Client threads only touch the queue + promise; the watchdog
// thread calls Health() like any other reader (mu_, then stats_mu_).
//
// Micro-batching (see DESIGN.md §9.5): a worker that dequeues an inference
// request greedily coalesces up to `max_batch` consecutive queued
// inference requests into one batch-of-N forward — but only while they
// agree on (model, canary-variant): a coalesced batch NEVER mixes models
// or variants, so the per-batch compatibility key (one session, one
// version) holds by construction. The fill window is zero — only requests
// already waiting are taken, so a request is NEVER held waiting for the
// batch to fill. Expired elements are shed per element at dequeue;
// per-element results are bitwise identical to batch-of-one because eval
// kernels never accumulate across rows.
//
// Prediction cache + in-flight dedup (see DESIGN.md §12): when
// `cache_bytes` > 0, admission first consults the routed model's
// content-addressed PredictionCache (an exact hit replies immediately,
// bitwise identical to a forward) and then the in-flight dedup wait-set
// (an identical request already queued or running absorbs this one as a
// follower; the leader's result is fanned to every member at completion,
// each judged against its OWN deadline). Both layers stand down while any
// control job is queued or running, and the barrier closures clear the
// affected cache scope on reload/promote/cancel/rollback, so control-job
// ordering and every bitwise-parity contract hold exactly as without the
// cache. cache_bytes == 0 IS the pre-cache code path.
//
// Overload semantics (see DESIGN.md §9):
//   - Admission control: Submit() fails fast with kResourceExhausted when
//     `max_queue_depth` inference requests are already waiting (the gate is
//     shared across the fleet). Control jobs (reload, canary ops, stop)
//     bypass the depth limit so an overloaded server can still be fixed or
//     shut down.
//   - Deadlines: each request carries an absolute deadline (clock nanos;
//     0 = none). Workers shed expired requests at dequeue time with
//     kDeadlineExceeded.
//   - Shutdown: Stop() fails everything still queued with kUnavailable.
//
// Control jobs and the quiescent barrier. Reload, canary start / promote /
// cancel, shadow start / stop, and canary auto-rollback all run as control
// jobs: the worker that dequeues one raises a barrier — no new batches
// start, in-flight batches drain — and then runs the job's closure, so a
// forward never observes a half-swapped session even with N workers.
// Control jobs are strictly ordered against the queue (requests queued
// behind one are served after it under the new state).
//
// Canary (see DESIGN.md §11.2): StartCanary loads a candidate version next
// to the primary and routes a deterministic hash slice (`percent`% by
// content hash) of that model's traffic to it. A windowed monitor compares
// canary vs primary error rate (and optionally mean compute) every
// `window` canary-served elements; on regression the server flips the
// model's `canary_draining` flag — so routing stops feeding the candidate
// immediately — and pushes an auto-rollback control job to the FRONT of
// the queue, which frees the candidate under the barrier. Requests already
// queued for the canary slice simply fall back to the primary at dequeue:
// a rollback never fails or drops a request. PromoteCanary installs the
// candidate as the new primary; CancelCanary discards it.
//
// Shadow (see DESIGN.md §11.3): StartShadow loads a candidate that scores
// every primary-path batch of that model OFF the response path — the
// primary's replies are sent first and are bitwise identical to a
// no-shadow run; afterwards the worker runs the shadow forward on the same
// inputs and records per-request score deltas (|Δ p_fake|, label
// disagreements) into the model's ShadowStats. Shadow runs inside the
// in-flight-batch window, so barrier jobs never overlap it.
//
// Hot-reload state machine (per model): loading -> serving | degraded.
// Any load step failing is retried with exponential backoff up to
// `reload_max_attempts`; on exhaustion the model keeps its last-good
// primary and marks itself degraded (cleared by the next success). The
// top-level HealthReport degraded / last_reload_error / model_version
// mirror the DEFAULT model for backward compatibility; per-model state
// lives in HealthReport::models.
#ifndef DTDBD_SERVE_SERVER_H_
#define DTDBD_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "models/model.h"
#include "serve/cache.h"
#include "serve/fleet.h"
#include "serve/session.h"
#include "train/fault_injector.h"

namespace dtdbd::serve {

// Injectable time source. Production uses SystemClock (steady, monotonic);
// tests use ManualClock to make deadline behaviour deterministic.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual int64_t NowNanos() const = 0;
};

class SystemClock : public Clock {
 public:
  int64_t NowNanos() const override;
  static const SystemClock* Get();
};

class ManualClock : public Clock {
 public:
  int64_t NowNanos() const override {
    return now_.load(std::memory_order_relaxed);
  }
  void Set(int64_t nanos) { now_.store(nanos, std::memory_order_relaxed); }
  void Advance(int64_t nanos) {
    now_.fetch_add(nanos, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> now_{0};
};

// Knob rows (common/flags.h) for the ServerOptions fields a binary exposes
// as flags. kServeWorkersKnob and kCacheBytesKnob also resolve the
// num_workers = 0 and cache_bytes = -1 sentinels from their env twins, which
// is how the CI serving matrix flips every test's server. Cache 0 is a VALID
// value ("cache off"), so its row starts at 0: a typo'd budget disables the
// cache rather than conjuring one of surprise size.
inline constexpr Knob kServeWorkersKnob{"serve-workers", "DTDBD_SERVE_WORKERS",
                                        1, kIntKnobMax, 1};
inline constexpr Knob kCacheBytesKnob{"cache-bytes", "DTDBD_CACHE_BYTES", 0,
                                      std::numeric_limits<int64_t>::max(), 0};
inline constexpr Knob kFeedbackRingKnob{"feedback-ring", nullptr, 1,
                                        kIntKnobMax, 1024};
inline constexpr Knob kDriftWindowKnob{"drift-window", nullptr, 1, kIntKnobMax,
                                       256};

struct ServerOptions {
  // Serving worker threads. 0 = resolve kServeWorkersKnob from
  // DTDBD_SERVE_WORKERS (strict parse; unset or invalid -> 1).
  int num_workers = 0;
  // Max inference requests coalesced into one forward (>= 1). 1 disables
  // batching.
  int max_batch = 1;
  // Admission control: max requests waiting (excludes those being served
  // and control jobs). Shared across all models in the fleet.
  int64_t max_queue_depth = 64;
  // Applied at Submit() when the caller passes deadline 0. 0 = no deadline.
  int64_t default_deadline_nanos = 0;
  // Watchdog snapshot period; <= 0 disables the watchdog thread.
  int64_t watchdog_period_nanos = 50'000'000;  // 50 ms
  // Hot-reload retry policy (applies to every model's reload and to
  // canary/shadow candidate loads).
  int reload_max_attempts = 3;
  int64_t reload_backoff_initial_nanos = 1'000'000;  // 1 ms
  double reload_backoff_multiplier = 2.0;
  // Sliding window of recent request latencies backing p50/p99 (aggregate
  // and per model).
  int64_t latency_window = 1024;
  // Fleet name the constructor registers the initial session under, and
  // the model requests with an empty model_name route to.
  std::string default_model_name = kDefaultModelName;
  // Prediction cache + in-flight dedup byte budget PER MODEL (DESIGN.md
  // §12). 0 = off (the pre-cache bitwise-pinned path: every request runs a
  // forward). -1 = resolve kCacheBytesKnob from DTDBD_CACHE_BYTES (strict
  // parse; unset or invalid -> 0). Positive = both layers on.
  int64_t cache_bytes = -1;
  // --- labeled-feedback quality monitoring (DESIGN.md §13) ---
  // Capacity (> 0) of each per-model, per-variant labeled-feedback ring.
  // The ring bounds memory; the window below bounds every verdict.
  int64_t feedback_ring = kFeedbackRingKnob.fallback;
  // Observations (> 0) per windowed quality evaluation: the primary
  // snapshot size behind HealthReport, the degraded-flag cadence, and the
  // primary side of the canary quality gate.
  int64_t drift_window = kDriftWindowKnob.fallback;
  // Windowed-AUC floor for the PRIMARY: when its windowed AUC — over at
  // least min_quality_samples labeled feedbacks with a defined AUC —
  // falls below this, the model raises its typed quality_degraded flag;
  // recovering to >= the floor clears it. Degenerate windows (too few
  // samples, single class) move the flag in NEITHER direction. <= 0
  // disables the flag entirely.
  double primary_min_auc = 0.0;
  // Minimum window samples before any primary quality verdict.
  int64_t min_quality_samples = 32;
  // Per-domain floor for the bias-spread computation in HealthReport.
  int64_t min_domain_quality_samples = 8;
  // nullptr = SystemClock::Get(). Must outlive the server.
  const Clock* clock = nullptr;
  // Optional failure-injection hooks (load failure, slow load, canary
  // predict failure) for tests.
  train::FaultInjector* fault_injector = nullptr;
  // Builds a fresh model for hot-reload of the DEFAULT model; must produce
  // the same architecture the serving checkpoints were written from.
  // (AddModel takes a per-model factory.) Reload fails with
  // kFailedPrecondition if unset.
  std::function<std::unique_ptr<models::FakeNewsModel>()> model_factory;
};

// One watchdog/Health() snapshot. Counters are cumulative since start.
// `models` carries the per-model breakdown, and each per-model counter is
// the only copy of its fact: every top-level count with a per-model twin
// (served_ok, shed_deadline, invalid_requests, internal_errors, the reload
// counters, deduped, feedback_recorded, the cache totals) is the sum over
// `models`, taken from the same snapshot. Admission-side counts (submitted,
// admitted, the rejections) have no per-model twin. model_version /
// degraded / last_reload_error / quality_degraded mirror the DEFAULT model
// (the pre-fleet contract). Counters commit before the reply they count
// leaves, so a caller that reads Health() after its answer (even from its
// SubmitAsync callback) already sees itself counted.
struct HealthReport {
  int64_t queue_depth = 0;
  int64_t max_queue_depth = 0;
  int64_t num_workers = 0;
  int64_t max_batch = 0;
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t rejected_queue_full = 0;  // kResourceExhausted at admission
  int64_t shed_deadline = 0;        // kDeadlineExceeded at dequeue
  int64_t served_ok = 0;
  int64_t invalid_requests = 0;  // kInvalidArgument from validation
  int64_t internal_errors = 0;   // any other non-ok Predict status
  int64_t reload_attempts = 0;
  int64_t reload_successes = 0;
  int64_t reload_failures = 0;  // individual failed attempts
  bool degraded = false;        // DEFAULT model: last reload exhausted
  std::string last_reload_error;  // DEFAULT model
  int64_t model_version = 0;      // DEFAULT model
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  int64_t latency_samples = 0;
  int64_t watchdog_ticks = 0;
  // True when the latency window holds no samples yet. The percentiles
  // above are meaningless zeros in that case; consumers (watchdog alerts,
  // bench JSON) must branch on this flag instead of treating 0.0 ms as a
  // real — and suspiciously excellent — p99.
  bool latency_no_samples = true;
  // Micro-batching: histogram[s] = forwards executed with s live elements
  // (index 0 unused), plus the cumulative queue-wait vs compute split so
  // operators can see whether latency is fill or forward.
  std::vector<int64_t> batch_size_histogram;
  int64_t batches_run = 0;
  double avg_batch_size = 0.0;
  double queue_wait_ms_total = 0.0;  // admission -> dequeue, served elements
  double compute_ms_total = 0.0;     // forward wall-clock across batches
  // Per-element / per-batch averages of the split above, 0.0 (never NaN)
  // before any batch has run.
  double avg_queue_wait_ms = 0.0;
  double avg_compute_ms = 0.0;
  // Fleet section. A model registered after the mu_ snapshot of one
  // Health() call simply appears in the next report — `models` is built
  // from a pointer snapshot, so a watchdog tick racing AddModel can never
  // observe a half-registered entry.
  std::string default_model;
  int64_t num_models = 0;
  int64_t rejected_unknown_model = 0;  // kNotFound at admission
  std::vector<ModelHealth> models;
  // Prediction cache + dedup aggregates across the fleet (per-model
  // breakdown in models[i].cache). Hits and deduped followers count into
  // served_ok like any other answered request but never into
  // batches_run / the batch histogram — no forward ran for them.
  bool cache_enabled = false;
  int64_t cache_bytes_limit = 0;  // per-model byte budget; 0 = off
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evicted = 0;
  int64_t cache_bytes = 0;
  int64_t deduped = 0;
  // Labeled-feedback quality (per-model breakdown in models[i].quality;
  // quality_degraded mirrors the DEFAULT model like the reload fields).
  int64_t feedback_recorded = 0;  // accepted RecordFeedback calls, fleet-wide
  bool quality_degraded = false;
};

// One labeled-feedback observation: "request X was answered p_fake by
// model M's primary/canary; the truth turned out to be `label`". The drift
// harnesses feed these back after each response; a production caller would
// wire its moderation/annotation pipeline here.
struct Feedback {
  std::string model_name;  // "" = the fleet default
  int domain = 0;          // the request's domain id
  float p_fake = 0.0f;     // the score the server answered with
  int label = 0;           // ground truth, data:: convention (0 real, 1 fake)
  bool canary = false;     // Prediction::canary of the answer being judged
};

class Server {
 public:
  // Takes ownership of the initial session — registered under
  // options.default_model_name with options.model_factory as its reload
  // factory — and starts the workers (and, unless disabled, the watchdog).
  Server(std::unique_ptr<InferenceSession> session, ServerOptions options);
  ~Server();  // Stop()s

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Registers another named model behind the shared queue. Safe while
  // serving (the registry is append-only; nothing existing is touched).
  // kInvalidArgument for empty name / null session, kFailedPrecondition
  // for a duplicate, kUnavailable after Stop(). `factory` builds fresh
  // models for this model's reload / canary / shadow loads (may be null —
  // those loads then fail with kFailedPrecondition).
  Status AddModel(
      const std::string& name, std::unique_ptr<InferenceSession> session,
      std::function<std::unique_ptr<models::FakeNewsModel>()> factory =
          nullptr);

  // Enqueues a request; the router resolves request.model_name (empty =
  // default model). `deadline_nanos` is absolute per the server clock;
  // 0 means "apply default_deadline_nanos, else none". The future resolves
  // with the prediction or a typed error: kNotFound (unknown model name),
  // kInvalidArgument (validation), kResourceExhausted (queue full —
  // resolved immediately), kDeadlineExceeded (shed), kUnavailable (server
  // stopped), kInternal (non-finite output).
  std::future<StatusOr<Prediction>> Submit(InferenceRequest request,
                                           int64_t deadline_nanos = 0);

  // Callback flavor of Submit() for event-loop callers (the socket front
  // end) that must not block a thread per pending request. `done` is invoked
  // exactly once with the same outcomes Submit() produces — on the
  // submitting thread for immediate rejections (unknown model, queue full,
  // stopped), on a worker thread otherwise, never under a server lock. It
  // must be fast and must not block on this Server (a worker thread
  // invoking Submit().get() would self-deadlock), though a non-blocking
  // call such as Health() is safe; enqueue-and-wake is the intended shape.
  void SubmitAsync(InferenceRequest request, int64_t deadline_nanos,
                   std::function<void(StatusOr<Prediction>)> done);

  // Synchronous convenience wrapper around Submit(). Do not call from a
  // worker's own callbacks (it would self-deadlock).
  StatusOr<Prediction> Predict(const InferenceRequest& request);

  // Schedules a hot-reload of the DEFAULT model from a v2 checkpoint;
  // resolves with the final outcome after retries. A quiescent barrier:
  // strictly ordered against everything still queued, and no forward
  // overlaps the swap.
  std::future<Status> ReloadFromCheckpoint(std::string checkpoint_path);
  // Same, for a named model ("" = default). kNotFound for unknown names.
  std::future<Status> ReloadModelFromCheckpoint(const std::string& model_name,
                                                std::string checkpoint_path);

  // Canary deployment for a named model ("" = default). StartCanary loads
  // the checkpoint as a candidate (version = current + 1) and begins
  // routing `options.percent`% of the model's traffic (by deterministic
  // content hash) to it, monitored per `options`. Fails with
  // kFailedPrecondition if a canary is already active. PromoteCanary
  // installs the candidate as primary; CancelCanary discards it; both fail
  // with kFailedPrecondition when no canary is active (or, for promote,
  // when the canary is draining after a detected regression).
  std::future<Status> StartCanary(const std::string& model_name,
                                  std::string checkpoint_path,
                                  CanaryOptions options = CanaryOptions());
  std::future<Status> PromoteCanary(const std::string& model_name);
  std::future<Status> CancelCanary(const std::string& model_name);

  // Shadow deployment for a named model ("" = default). StartShadow loads
  // the checkpoint as an off-path scorer (replacing any active shadow and
  // resetting ShadowStats); StopShadow removes it (idempotent).
  std::future<Status> StartShadow(const std::string& model_name,
                                  std::string checkpoint_path);
  std::future<Status> StopShadow(const std::string& model_name);

  // Labeled-feedback path (DESIGN.md §13). Records one observation into
  // the routed model's quality monitor (primary or canary ring per
  // feedback.canary), evaluates the canary quality gate every
  // CanaryOptions::quality_window canary feedbacks — a quality regression
  // takes the SAME drain-flag + front-of-queue rollback path as an
  // error-rate regression, zero dropped requests included — and moves the
  // primary's typed quality_degraded flag against
  // ServerOptions::primary_min_auc. Typed failures: kInvalidArgument
  // (label outside {0,1}, non-finite or out-of-range score, negative
  // domain), kNotFound (unknown model), kUnavailable (stopped). Callable
  // from any thread EXCEPT a worker callback (like Submit).
  Status RecordFeedback(const Feedback& feedback);

  // Current snapshot, computed on the calling thread.
  HealthReport Health() const;
  // Most recent snapshot taken by the watchdog thread.
  HealthReport LastWatchdogReport() const;

  // DEFAULT-model convenience accessors (the pre-fleet contract).
  bool degraded() const;
  int64_t model_version() const;
  int num_workers() const { return num_workers_; }
  int max_batch() const { return max_batch_; }
  const std::string& default_model() const;

  // Rejects new work, fails everything still queued — coalesced into a
  // batch or not — with kUnavailable, and joins all threads. Idempotent.
  void Stop();

 private:
  struct Job {
    enum class Kind { kInfer, kControl };
    Kind kind = Kind::kInfer;
    // kInfer: `done` is the single resolution path — Submit() wraps a
    // promise into it, SubmitAsync() passes the caller's callback through.
    // `model` was resolved by the router at admission (stable address for
    // the server's lifetime); `route_hash` is the precomputed content hash
    // the canary slice test uses at dequeue.
    InferenceRequest request;
    int64_t deadline_nanos = 0;  // absolute; 0 = none
    int64_t enqueue_nanos = 0;
    std::function<void(StatusOr<Prediction>)> done;
    ModelState* model = nullptr;
    uint64_t route_hash = 0;
    // Cache/dedup layer (only when the cache is on and admission was not
    // gated by a pending control job): the full content hash, and the
    // dedup group this job leads — followers attach to it under mu_ and
    // are fanned this job's outcome at completion.
    uint64_t content_hash = 0;
    std::shared_ptr<DedupGroup> group;
    // kControl: the closure runs on a worker thread inside the quiescent
    // barrier (no batches in flight, dequeue blocked); its Status resolves
    // the promise. Reload, canary, shadow, and auto-rollback all take this
    // path.
    std::function<Status()> control;
    std::promise<Status> control_reply;
  };

  void WorkerLoop(KernelPool* pool);
  void WatchdogLoop();
  // Serves one coalesced single-(model,variant) batch: per-element deadline
  // shed, one PredictBatch forward on `session`, per-element replies and
  // counters, then (primary path only) the optional shadow forward.
  // `dequeue_nanos` is the batch's shed timestamp, read under mu_ at
  // dequeue so it is ordered against every dedup attach (see SubmitAsync).
  void ServeBatch(ModelState* model, bool use_canary,
                  InferenceSession* session, InferenceSession* shadow,
                  std::vector<Job>* jobs, int64_t dequeue_nanos);
  // Marks `group` resolved, removes it from the model's dedup wait-set,
  // and moves its followers into *followers. Caller holds mu_.
  void DetachGroupLocked(ModelState* model,
                         const std::shared_ptr<DedupGroup>& group,
                         std::vector<DedupFollower>* followers);
  // True when this queued job should be served by `model`'s canary
  // session. Caller holds mu_.
  bool RouteToCanaryLocked(const Job& job) const;
  // Fails everything still queued with kUnavailable: takes the queue under
  // `lock` (on mu_) and replies after releasing it.
  void DrainQueue(std::unique_lock<std::mutex>* lock);
  // Enqueues a control job whose closure receives the resolved model;
  // resolves immediately with kNotFound / kUnavailable when the name is
  // unknown or the server is stopped. `front` jumps the queue (used by
  // auto-rollback so the drain is bounded by one batch, not the backlog).
  std::future<Status> EnqueueControl(const std::string& model_name,
                                     std::function<Status(ModelState*)> fn,
                                     bool front = false);
  // Loads `path` into a fresh session for `model` (fresh factory model so
  // a mismatched checkpoint can never half-overwrite anything live),
  // stamping it `version`. One attempt; fault-injector hooks apply.
  StatusOr<std::unique_ptr<InferenceSession>> LoadSessionFor(
      ModelState* model, const std::string& path, int64_t version);
  // Runs on a worker thread inside the barrier; full retry/backoff state
  // machine for one model's primary reload.
  Status RunReload(ModelState* model, const std::string& path);
  // Same retry/backoff, but produces a candidate session instead of
  // swapping the primary (shared by canary and shadow starts).
  StatusOr<std::unique_ptr<InferenceSession>> LoadCandidate(
      ModelState* model, const std::string& path);
  // Barrier-side of the canary auto-rollback (the control closure).
  Status RollbackCanary(ModelState* model, const std::string& reason);

  const ServerOptions options_;
  const Clock* const clock_;
  int num_workers_ = 1;  // resolved from options/env in the constructor
  int max_batch_ = 1;
  int64_t cache_bytes_ = 0;    // resolved; 0 = cache + dedup off

  // Fleet registry: guarded by mu_; ModelState addresses are stable (the
  // registry is append-only), so workers may keep pointers across unlock.
  // Session pointers inside a ModelState are written only inside the
  // control-job barrier; a worker reads them under mu_ at dequeue and may
  // use them lock-free while its batch is in flight (the barrier waits for
  // inflight_batches_ == 0).
  ModelFleet fleet_;
  ModelState* default_state_ = nullptr;  // set in ctor, never changes

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  int64_t inference_depth_ = 0;   // kInfer jobs currently queued (all models)
  int64_t inflight_batches_ = 0;  // batches between dequeue and reply
  bool barrier_active_ = false;   // a control job holds the barrier
  // kControl jobs currently queued. While any control job is queued or
  // running, admission skips cache lookups and dedup attach entirely, so a
  // request submitted after a reload/promote was enqueued can never be
  // answered from (or attached to) pre-swap state — the strict
  // control-job ordering contract survives the cache.
  int64_t control_pending_ = 0;
  bool stopped_ = false;

  // Admission-side counts and watchdog ticks, which no model owns. Every
  // served-side count lives once, in its ModelState; Health() sums them.
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> admitted_{0};
  std::atomic<int64_t> rejected_queue_full_{0};
  std::atomic<int64_t> rejected_unknown_model_{0};
  std::atomic<int64_t> watchdog_ticks_{0};

  mutable std::mutex stats_mu_;  // guards aggregate + per-model stats blocks
  LatencyRing latencies_;  // aggregate window across the fleet
  std::vector<int64_t> batch_size_hist_;  // [0, max_batch_], index 0 unused
  int64_t batches_run_ = 0;
  int64_t batched_elements_ = 0;  // live elements across all batches
  int64_t queue_wait_nanos_ = 0;  // admission -> dequeue, batched elements
  int64_t compute_nanos_ = 0;     // forward wall-clock across batches

  mutable std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  HealthReport last_watchdog_report_;

  std::vector<std::unique_ptr<KernelPool>> pools_;  // one per worker
  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace dtdbd::serve

#endif  // DTDBD_SERVE_SERVER_H_
