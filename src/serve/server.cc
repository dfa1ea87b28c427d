#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <map>
#include <utility>

#include "common/flags.h"
#include "common/logging.h"
#include "data/dataset.h"
#include "tensor/serialize.h"
#include "train/checkpoint.h"

namespace dtdbd::serve {

int64_t SystemClock::NowNanos() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const SystemClock* SystemClock::Get() {
  static const SystemClock clock;
  return &clock;
}

Server::Server(std::unique_ptr<InferenceSession> session,
               ServerOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : SystemClock::Get()),
      fleet_(options_.default_model_name) {
  DTDBD_CHECK_GT(options_.max_queue_depth, 0);
  DTDBD_CHECK_GT(options_.latency_window, 0);
  DTDBD_CHECK_GT(options_.feedback_ring, 0);
  DTDBD_CHECK_GT(options_.drift_window, 0);
  num_workers_ =
      options_.num_workers > 0
          ? options_.num_workers
          : static_cast<int>(ResolveKnob(kServeWorkersKnob, nullptr));
  max_batch_ = std::max(1, options_.max_batch);
  cache_bytes_ = options_.cache_bytes >= 0
                     ? options_.cache_bytes
                     : ResolveKnob(kCacheBytesKnob, nullptr);
  latencies_.Reset(options_.latency_window);
  batch_size_hist_.assign(static_cast<size_t>(max_batch_) + 1, 0);
  const Status added = AddModel(options_.default_model_name,
                                std::move(session), options_.model_factory);
  DTDBD_CHECK(added.ok()) << added.ToString();
  // No other thread exists yet, so the registry needs no lock here.
  default_state_ = fleet_.Find(options_.default_model_name);
  pools_.reserve(static_cast<size_t>(num_workers_));
  workers_.reserve(static_cast<size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i) {
    // Each worker dispatches kernels into its own pool of GetNumThreads()
    // threads, so concurrent forwards share no dispatch state and shard
    // boundaries (hence results) are unchanged.
    pools_.push_back(std::make_unique<KernelPool>(GetNumThreads()));
    workers_.emplace_back(
        [this, pool = pools_.back().get()] { WorkerLoop(pool); });
  }
  if (options_.watchdog_period_nanos > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

Server::~Server() { Stop(); }

Status Server::AddModel(
    const std::string& name, std::unique_ptr<InferenceSession> session,
    std::function<std::unique_ptr<models::FakeNewsModel>()> factory) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) return Status::Unavailable("server is stopped");
  DTDBD_ASSIGN_OR_RETURN(
      ModelState* model,
      fleet_.Add(name, std::move(session), std::move(factory)));
  if (cache_bytes_ > 0) {
    model->cache = std::make_unique<PredictionCache>(cache_bytes_);
  }
  // Nested stats_mu_ under mu_ — the one-way mu_ -> stats_mu_ order is
  // deadlock-free (no path locks stats_mu_ first). Sizing the ring inside
  // the same mu_ hold that registers the model guarantees no request can
  // be served (let alone record a latency) against an unsized ring.
  std::lock_guard<std::mutex> stats(stats_mu_);
  model->latencies.Reset(options_.latency_window);
  model->primary_quality = QualityMonitor(options_.feedback_ring);
  model->canary_quality = QualityMonitor(options_.feedback_ring);
  return Status::Ok();
}

std::future<StatusOr<Prediction>> Server::Submit(InferenceRequest request,
                                                 int64_t deadline_nanos) {
  auto reply = std::make_shared<std::promise<StatusOr<Prediction>>>();
  std::future<StatusOr<Prediction>> future = reply->get_future();
  SubmitAsync(std::move(request), deadline_nanos,
              [reply](StatusOr<Prediction> result) {
                reply->set_value(std::move(result));
              });
  return future;
}

void Server::SubmitAsync(InferenceRequest request, int64_t deadline_nanos,
                         std::function<void(StatusOr<Prediction>)> done) {
  DTDBD_CHECK(done != nullptr);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const int64_t now = clock_->NowNanos();
  if (deadline_nanos == 0 && options_.default_deadline_nanos > 0) {
    deadline_nanos = now + options_.default_deadline_nanos;
  }

  Job job;
  job.kind = Job::Kind::kInfer;
  job.request = std::move(request);
  job.deadline_nanos = deadline_nanos;
  job.enqueue_nanos = now;
  job.done = std::move(done);
  // Content hash for the canary slice, computed outside the lock; the
  // slice test itself happens at dequeue so a rollback between admission
  // and dequeue reroutes (never fails) the request.
  job.route_hash = RouteHash(job.request);
  // Cache/dedup identity, also outside the lock: the full content hash and
  // the exact key material it summarizes (the variant bit is filled in
  // under mu_ once routing is known).
  PredictionCache::Key key;
  if (cache_bytes_ > 0) {
    key = PredictionCache::MakeKey(job.request, /*canary=*/false);
    job.content_hash = key.hash;
  }

  std::unique_lock<std::mutex> lock(mu_);
  if (stopped_) {
    lock.unlock();
    job.done(Status::Unavailable("server is stopped"));
    return;
  }
  job.model = fleet_.Resolve(job.request.model_name);
  if (job.model == nullptr) {
    lock.unlock();
    rejected_unknown_model_.fetch_add(1, std::memory_order_relaxed);
    job.done(Status::NotFound("unknown model '" + job.request.model_name +
                              "' (fleet default is '" + fleet_.default_model() +
                              "')"));
    return;
  }
  // Cache + dedup participation (DESIGN.md §12). Gated off whenever a
  // control job is queued or running: a request submitted behind a
  // reload/promote must be served under the NEW state, so it may neither
  // hit pre-swap cache entries nor attach to a pre-swap leader. The gate
  // also keeps the wait-set empty across every barrier by construction.
  // Canary-slice requests bypass both layers too: a canary exists to be
  // JUDGED on live traffic, and answering its slice from cache (or fanning
  // one forward to N members) would starve the windowed monitor of the
  // samples the regression verdict needs. The slice test is deterministic
  // in the request content, so a group leader admitted here can never be
  // rerouted into the canary at dequeue (draining only ever flips traffic
  // TOWARD the primary).
  // A request whose deadline already expired at admission participates in
  // neither layer: a hit must never resurrect a request the forward path
  // would shed, so it falls through to the queue and takes the standard
  // shed-at-dequeue (same status, same counters as with the cache off).
  const bool expired = job.deadline_nanos > 0 && now > job.deadline_nanos;
  const bool participate = job.model->cache != nullptr && !expired &&
                           control_pending_ == 0 && !barrier_active_ &&
                           !RouteToCanaryLocked(job);
  if (participate) {
    PredictionCache::Entry entry;
    if (job.model->cache->Lookup(key, &entry)) {
      // Completed-prediction hit: reply immediately, bitwise identical to
      // the forward that populated the entry. Counted as served (and into
      // the latency rings) but never into batches_run — no forward ran.
      ModelState* model = job.model;
      admitted_.fetch_add(1, std::memory_order_relaxed);
      const int64_t nanos = clock_->NowNanos() - job.enqueue_nanos;
      {
        std::lock_guard<std::mutex> stats(stats_mu_);
        ++model->served_ok;
        latencies_.Push(nanos);
        model->latencies.Push(nanos);
      }
      Prediction hit;
      hit.p_fake = entry.p_fake;
      hit.label = entry.label;
      hit.model_version = entry.model_version;
      hit.model_name = model->name;
      hit.canary = key.canary;
      lock.unlock();
      job.done(std::move(hit));
      return;
    }
    // Miss: attach to an in-flight identical request if one exists. The
    // clock read happens under mu_, so it is ordered after the batch's
    // dequeue timestamp (also taken under mu_): if the leader's group was
    // (or will be) shed at dequeue, this read is already past the group
    // deadline and the attach is refused — a follower can never be
    // silently dragged into a shed it didn't earn.
    auto waiting = job.model->dedup_waitset.find(job.content_hash);
    if (waiting != job.model->dedup_waitset.end()) {
      const int64_t attach_nanos = clock_->NowNanos();
      for (const std::shared_ptr<DedupGroup>& group : waiting->second) {
        if (group->resolved ||
            !PredictionCache::KeyEquals(group->key, key)) {
          continue;
        }
        if (!group->queued && group->group_deadline_nanos > 0 &&
            attach_nanos > group->group_deadline_nanos) {
          continue;  // leader already past its shed horizon
        }
        group->followers.push_back(
            {std::move(job.done), job.deadline_nanos, job.enqueue_nanos});
        // A follower with a later (or absent) deadline extends the shed
        // horizon of the whole group; one with an earlier deadline is
        // still judged against its own at fan-out.
        if (group->group_deadline_nanos != 0) {
          group->group_deadline_nanos =
              job.deadline_nanos == 0
                  ? 0
                  : std::max(group->group_deadline_nanos, job.deadline_nanos);
        }
        admitted_.fetch_add(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> stats(stats_mu_);
          ++job.model->deduped;
        }
        return;  // lock released by ~unique_lock; no queue entry to signal
      }
    }
  }
  if (inference_depth_ >= options_.max_queue_depth) {
    lock.unlock();
    rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
    job.done(Status::ResourceExhausted(
        "serving queue full (" + std::to_string(options_.max_queue_depth) +
        " requests waiting)"));
    return;
  }
  if (participate) {
    // This job becomes the leader of a fresh dedup group.
    job.group = std::make_shared<DedupGroup>();
    job.group->key = std::move(key);
    job.group->group_deadline_nanos = job.deadline_nanos;
    job.model->dedup_waitset[job.content_hash].push_back(job.group);
  }
  ++inference_depth_;
  ++job.model->queued;
  admitted_.fetch_add(1, std::memory_order_relaxed);
  queue_.push_back(std::move(job));
  lock.unlock();
  cv_.notify_one();
}

StatusOr<Prediction> Server::Predict(const InferenceRequest& request) {
  return Submit(request).get();
}

Status Server::RecordFeedback(const Feedback& feedback) {
  // Feedback is a trust boundary like the request path: labels come from
  // an external annotation pipeline, so every field is validated with a
  // typed rejection before it can touch a monitor.
  if (feedback.label != data::kReal && feedback.label != data::kFake) {
    return Status::InvalidArgument("feedback label must be 0 (real) or 1 "
                                   "(fake), got " +
                                   std::to_string(feedback.label));
  }
  if (!std::isfinite(feedback.p_fake) || feedback.p_fake < 0.0f ||
      feedback.p_fake > 1.0f) {
    return Status::InvalidArgument(
        "feedback score must be a finite probability in [0, 1]");
  }
  if (feedback.domain < 0) {
    return Status::InvalidArgument("feedback domain must be >= 0, got " +
                                   std::to_string(feedback.domain));
  }

  ModelState* model = nullptr;
  bool canary_active = false;
  CanaryOptions canary_options;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return Status::Unavailable("server is stopped");
    model = fleet_.Resolve(feedback.model_name);
    if (model == nullptr) {
      return Status::NotFound("unknown model '" + feedback.model_name +
                              "' (fleet default is '" +
                              fleet_.default_model() + "')");
    }
    // The quality gate only judges a LIVE, non-draining canary; its
    // options are only meaningful while the session exists, so both facts
    // are snapshotted under the same mu_ hold.
    canary_active =
        model->canary != nullptr &&
        !model->canary_draining.load(std::memory_order_acquire);
    if (canary_active) canary_options = model->canary_options;
  }

  bool trigger_rollback = false;
  std::string rollback_reason;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (feedback.canary) {
      model->canary_quality.Observe(feedback.p_fake, feedback.label,
                                    feedback.domain);
      ++model->canary_feedback_total;
      if (canary_active && canary_options.quality_window > 0 &&
          ++model->canary_feedback_since_eval >=
              canary_options.quality_window) {
        model->canary_feedback_since_eval = 0;
        ++model->quality_evals;
        // Quality-only evaluation: the served-traffic counters stay zero,
        // so only gate 3 of EvaluateCanaryWindow can judge. The canary
        // ring holds exactly this candidate's feedback (cleared at every
        // canary transition); the primary side is its most recent window.
        CanaryWindowStats window;
        window.canary_quality = model->canary_quality.Snapshot(
            /*window=*/0, canary_options.min_domain_quality_samples);
        window.primary_quality = model->primary_quality.Snapshot(
            options_.drift_window, canary_options.min_domain_quality_samples);
        const CanaryVerdict verdict =
            EvaluateCanaryWindow(window, canary_options);
        if (verdict.regression) {
          trigger_rollback = true;
          rollback_reason = verdict.reason;
        }
      }
    } else {
      model->primary_quality.Observe(feedback.p_fake, feedback.label,
                                     feedback.domain);
      ++model->feedback_total;
      if (options_.primary_min_auc > 0.0) {
        const QualityWindowSnapshot snapshot =
            model->primary_quality.Snapshot(
                options_.drift_window, options_.min_domain_quality_samples);
        // The flag moves only on evidence: a defined AUC over enough
        // samples. Degenerate windows leave it where it was, so the flag's
        // trajectory is a deterministic function of the feedback stream.
        if (snapshot.auc_valid &&
            snapshot.samples >= options_.min_quality_samples) {
          const bool low = snapshot.auc < options_.primary_min_auc;
          if (low !=
              model->quality_degraded.load(std::memory_order_acquire)) {
            model->quality_degraded.store(low, std::memory_order_release);
            DTDBD_LOG(Warning)
                << "model '" << model->name << "': windowed AUC "
                << snapshot.auc << " over " << snapshot.samples
                << " feedbacks " << (low ? "fell below" : "recovered to")
                << " the " << options_.primary_min_auc
                << " floor; quality_degraded=" << (low ? "true" : "false");
          }
        }
      }
    }
  }
  if (trigger_rollback &&
      !model->canary_draining.exchange(true, std::memory_order_acq_rel)) {
    // Same path as an error-rate regression (ServeBatch): drain flag
    // first so routing stops feeding the candidate, then a front-of-queue
    // barrier job frees it — queued slice members fall back to the
    // primary, zero requests dropped.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++model->quality_rollbacks;
    }
    DTDBD_LOG(Warning) << "model '" << model->name
                       << "': canary quality regression detected — "
                       << rollback_reason
                       << "; rolling back to last-good version "
                       << model->version.load(std::memory_order_acquire);
    EnqueueControl(
        model->name,
        [this, rollback_reason](ModelState* m) {
          return RollbackCanary(m, rollback_reason);
        },
        /*front=*/true);
  }
  return Status::Ok();
}

std::future<Status> Server::EnqueueControl(
    const std::string& model_name, std::function<Status(ModelState*)> fn,
    bool front) {
  Job job;
  job.kind = Job::Kind::kControl;
  std::future<Status> future = job.control_reply.get_future();

  std::unique_lock<std::mutex> lock(mu_);
  if (stopped_) {
    lock.unlock();
    job.control_reply.set_value(Status::Unavailable("server is stopped"));
    return future;
  }
  ModelState* model = fleet_.Resolve(model_name);
  if (model == nullptr) {
    lock.unlock();
    job.control_reply.set_value(
        Status::NotFound("unknown model '" + model_name + "'"));
    return future;
  }
  job.control = [fn = std::move(fn), model] { return fn(model); };
  // Control jobs bypass the depth limit: an overloaded server must still
  // accept the reload that might fix it. `front` jumps the backlog — used
  // by auto-rollback so the drain is bounded by in-flight work, not by
  // every queued request ahead of it.
  ++control_pending_;  // gates cache/dedup until the closure retires
  if (front) {
    queue_.push_front(std::move(job));
  } else {
    queue_.push_back(std::move(job));
  }
  lock.unlock();
  cv_.notify_all();
  return future;
}

std::future<Status> Server::ReloadFromCheckpoint(std::string checkpoint_path) {
  return ReloadModelFromCheckpoint(std::string(), std::move(checkpoint_path));
}

std::future<Status> Server::ReloadModelFromCheckpoint(
    const std::string& model_name, std::string checkpoint_path) {
  return EnqueueControl(
      model_name, [this, path = std::move(checkpoint_path)](ModelState* model) {
        return RunReload(model, path);
      });
}

std::future<Status> Server::StartCanary(const std::string& model_name,
                                        std::string checkpoint_path,
                                        CanaryOptions options) {
  if (options.percent < 1 || options.percent > 100) {
    std::promise<Status> reply;
    reply.set_value(Status::InvalidArgument(
        "canary percent must be in [1, 100], got " +
        std::to_string(options.percent)));
    return reply.get_future();
  }
  if (options.window < 1) {
    std::promise<Status> reply;
    reply.set_value(Status::InvalidArgument(
        "canary window must be >= 1, got " + std::to_string(options.window)));
    return reply.get_future();
  }
  return EnqueueControl(
      model_name,
      [this, path = std::move(checkpoint_path), options](ModelState* model) {
        // Inside the barrier: no batch is in flight and no other control
        // job runs, so session pointers are ours to read and write (mu_ is
        // still taken for the write so Health() snapshots stay coherent).
        if (model->canary != nullptr) {
          return Status::FailedPrecondition(
              "model '" + model->name +
              "' already has an active canary; promote or cancel it first");
        }
        StatusOr<std::unique_ptr<InferenceSession>> candidate =
            LoadCandidate(model, path);
        if (!candidate.ok()) return candidate.status();
        const int64_t candidate_version = candidate.value()->model_version();
        {
          std::lock_guard<std::mutex> lock(mu_);
          model->canary = std::move(candidate).value();
          model->canary_options = options;
        }
        model->canary_draining.store(false, std::memory_order_release);
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++model->canaries_started;
          model->window = CanaryWindowStats();
          // A fresh candidate starts with an empty quality ring: feedback
          // for a PREVIOUS canary must never judge this one.
          model->canary_quality.Clear();
          model->canary_feedback_since_eval = 0;
          model->last_canary_event =
              "canary started at version " + std::to_string(candidate_version) +
              " (" + std::to_string(options.percent) + "% slice)";
        }
        DTDBD_LOG(Info) << "model '" << model->name << "': canary version "
                        << candidate_version << " serving "
                        << options.percent << "% of traffic";
        return Status::Ok();
      });
}

std::future<Status> Server::PromoteCanary(const std::string& model_name) {
  return EnqueueControl(model_name, [this](ModelState* model) {
    if (model->canary == nullptr) {
      return Status::FailedPrecondition("model '" + model->name +
                                        "' has no active canary to promote");
    }
    if (model->canary_draining.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition(
          "model '" + model->name +
          "' canary is draining after a detected regression; cancel instead");
    }
    const int64_t version = model->canary->model_version();
    {
      std::lock_guard<std::mutex> lock(mu_);
      model->primary = std::move(model->canary);
      model->canary.reset();
    }
    // The primary's answers just changed identity: drop every cached
    // prediction inside the same barrier, before any request can run.
    // (The wait-set is empty here by construction — admission stopped
    // creating groups the moment this control job was enqueued.)
    if (model->cache != nullptr) model->cache->Clear();
    model->version.store(version, std::memory_order_release);
    model->degraded.store(false, std::memory_order_release);
    model->quality_degraded.store(false, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++model->canary_promotions;
      model->window = CanaryWindowStats();
      // The primary just changed identity: both quality windows die inside
      // the same barrier, so no window ever straddles the swap (feedback
      // recorded after this observes only the promoted model's answers...
      // modulo in-flight feedback for pre-swap answers, which the WINDOW
      // bounds — see DESIGN.md §13).
      model->primary_quality.Clear();
      model->canary_quality.Clear();
      model->canary_feedback_since_eval = 0;
      model->last_canary_event =
          "canary promoted to primary at version " + std::to_string(version);
    }
    DTDBD_LOG(Info) << "model '" << model->name
                    << "': canary promoted to primary, version " << version;
    return Status::Ok();
  });
}

std::future<Status> Server::CancelCanary(const std::string& model_name) {
  return EnqueueControl(model_name, [this](ModelState* model) {
    if (model->canary == nullptr) {
      return Status::FailedPrecondition("model '" + model->name +
                                        "' has no active canary to cancel");
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      model->canary.reset();
    }
    model->canary_draining.store(false, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++model->canary_cancels;
      model->window = CanaryWindowStats();
      model->canary_quality.Clear();
      model->canary_feedback_since_eval = 0;
      model->last_canary_event = "canary canceled";
    }
    return Status::Ok();
  });
}

std::future<Status> Server::StartShadow(const std::string& model_name,
                                        std::string checkpoint_path) {
  return EnqueueControl(
      model_name, [this, path = std::move(checkpoint_path)](ModelState* model) {
        StatusOr<std::unique_ptr<InferenceSession>> candidate =
            LoadCandidate(model, path);
        if (!candidate.ok()) return candidate.status();
        const int64_t version = candidate.value()->model_version();
        {
          std::lock_guard<std::mutex> lock(mu_);
          model->shadow = std::move(candidate).value();
        }
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          model->shadow_stats = ShadowStats();
        }
        DTDBD_LOG(Info) << "model '" << model->name
                        << "': shadow scoring version " << version
                        << " off the response path";
        return Status::Ok();
      });
}

std::future<Status> Server::StopShadow(const std::string& model_name) {
  return EnqueueControl(model_name, [this](ModelState* model) {
    std::lock_guard<std::mutex> lock(mu_);
    model->shadow.reset();
    return Status::Ok();
  });
}

bool Server::RouteToCanaryLocked(const Job& job) const {
  const ModelState* model = job.model;
  return model->canary != nullptr &&
         !model->canary_draining.load(std::memory_order_acquire) &&
         InCanarySlice(job.route_hash, model->canary_options.percent);
}

void Server::DetachGroupLocked(ModelState* model,
                               const std::shared_ptr<DedupGroup>& group,
                               std::vector<DedupFollower>* followers) {
  group->resolved = true;
  followers->insert(followers->end(),
                    std::make_move_iterator(group->followers.begin()),
                    std::make_move_iterator(group->followers.end()));
  group->followers.clear();
  auto it = model->dedup_waitset.find(group->key.hash);
  if (it != model->dedup_waitset.end()) {
    auto& groups = it->second;
    groups.erase(std::remove(groups.begin(), groups.end(), group),
                 groups.end());
    if (groups.empty()) model->dedup_waitset.erase(it);
  }
}

void Server::DrainQueue(std::unique_lock<std::mutex>* lock) {
  std::deque<Job> dropped;
  dropped.swap(queue_);
  // Followers die with their leader: same status, exactly once each.
  std::vector<DedupFollower> followers;
  for (Job& job : dropped) {
    if (job.kind == Job::Kind::kControl) {
      --control_pending_;
      continue;
    }
    --inference_depth_;
    --job.model->queued;
    if (job.group != nullptr) {
      DetachGroupLocked(job.model, job.group, &followers);
    }
  }
  lock->unlock();
  const Status stopped =
      Status::Unavailable("server stopped before serving request");
  for (Job& job : dropped) {
    if (job.kind == Job::Kind::kControl) {
      job.control_reply.set_value(
          Status::Unavailable("server stopped before reload"));
    } else {
      job.done(stopped);
    }
  }
  for (DedupFollower& follower : followers) follower.done(stopped);
}

void Server::WorkerLoop(KernelPool* pool) {
  // Every kernel this thread dispatches — inference forwards AND
  // control-job model construction/restore — runs on this worker's private
  // pool.
  ScopedKernelPool scoped(pool);
  std::vector<Job> batch;
  for (;;) {
    batch.clear();
    Job control_job;
    bool have_control = false;
    ModelState* model = nullptr;
    bool use_canary = false;
    InferenceSession* session = nullptr;
    InferenceSession* shadow = nullptr;
    int64_t dequeue_nanos = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // The control barrier (barrier_active_) parks every other worker
      // here, so a session swap never overlaps a dequeue, let alone a
      // forward.
      cv_.wait(lock, [this] {
        return stopped_ || (!queue_.empty() && !barrier_active_);
      });
      if (stopped_) {
        // Fail everything still queued — coalesced or not; admission is
        // already closed, so whichever worker gets here first drains.
        DrainQueue(&lock);
        return;
      }
      if (queue_.front().kind == Job::Kind::kControl) {
        control_job = std::move(queue_.front());
        queue_.pop_front();
        have_control = true;
        // barrier_active_ takes over the cache/dedup admission gate from
        // control_pending_ with both flags under this one mu_ hold, so
        // there is no instant where a request could slip into the cache
        // layer between "dequeued" and "running".
        --control_pending_;
        barrier_active_ = true;
        // Quiesce: in-flight batches must finish before the closure runs.
        cv_.wait(lock, [this] { return inflight_batches_ == 0; });
      } else {
        // Greedy coalescing: take only what is already waiting (fill
        // window zero — nobody is ever held for batchmates), stop at a
        // control job so barrier work stays strictly ordered with the
        // queue, and NEVER mix (model, canary-variant) — every batch is
        // served by exactly one session.
        model = queue_.front().model;
        use_canary = RouteToCanaryLocked(queue_.front());
        while (!queue_.empty() &&
               queue_.front().kind == Job::Kind::kInfer &&
               queue_.front().model == model &&
               RouteToCanaryLocked(queue_.front()) == use_canary &&
               static_cast<int>(batch.size()) < max_batch_) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
          --inference_depth_;
          --model->queued;
          if (batch.back().group != nullptr) {
            // The leader leaves the queue: followers can no longer extend
            // its deadline in place, so freeze the group's shed horizon
            // into the job the shed check will consult.
            batch.back().group->queued = false;
            batch.back().deadline_nanos =
                batch.back().group->group_deadline_nanos;
          }
        }
        // Session pointers resolved under mu_ stay valid lock-free for the
        // whole batch: the barrier waits for inflight_batches_ == 0.
        session = use_canary ? model->canary.get() : model->primary.get();
        shadow = use_canary ? nullptr : model->shadow.get();
        ++inflight_batches_;
        // The shed timestamp is read under mu_ so it is ordered against
        // every dedup attach (which also reads the clock under mu_): a
        // follower observing "now <= group deadline" is guaranteed the
        // batch did not shed its group.
        dequeue_nanos = clock_->NowNanos();
      }
    }
    if (have_control) {
      // Run the closure and drop the barrier BEFORE resolving the caller's
      // future: the moment .get() returns, a follow-up request must find
      // the admission gate open again (cache/dedup participation restored).
      // Resolving first left a window where a request admitted right after
      // the control completed silently skipped the cache layer — visible
      // as a "never hits" flake in the promote/invalidate tests.
      Status control_status = control_job.control();
      {
        std::lock_guard<std::mutex> lock(mu_);
        barrier_active_ = false;
      }
      cv_.notify_all();
      control_job.control_reply.set_value(std::move(control_status));
      continue;
    }
    ServeBatch(model, use_canary, session, shadow, &batch, dequeue_nanos);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_batches_;
    }
    cv_.notify_all();
  }
}

void Server::ServeBatch(ModelState* model, bool use_canary,
                        InferenceSession* session, InferenceSession* shadow,
                        std::vector<Job>* jobs, int64_t dequeue_nanos) {
  // Per-element shed at dequeue: batching never delays the deadline check,
  // and one expired element never poisons its batchmates. A job whose
  // dedup group sheds sheds every member with it — the group deadline is
  // the max over members, so an expired group means every member's own
  // deadline is expired too (and the mu_-ordered clock reads guarantee no
  // still-live follower attached after this timestamp was taken). The shed
  // count commits before any shed member hears back, and the sheds leave
  // before the forward, so they never wait on their live batchmates.
  std::vector<Job*> live;
  live.reserve(jobs->size());
  std::vector<std::function<void(StatusOr<Prediction>)>> shed;
  for (Job& job : *jobs) {
    if (job.deadline_nanos > 0 && dequeue_nanos > job.deadline_nanos) {
      shed.push_back(std::move(job.done));
      if (job.group != nullptr) {
        std::vector<DedupFollower> followers;
        {
          std::lock_guard<std::mutex> lock(mu_);
          DetachGroupLocked(model, job.group, &followers);
        }
        for (DedupFollower& follower : followers) {
          shed.push_back(std::move(follower.done));
        }
      }
    } else {
      live.push_back(&job);
    }
  }
  if (!shed.empty()) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      model->shed_deadline += static_cast<int64_t>(shed.size());
    }
    for (auto& done : shed) {
      done(Status::DeadlineExceeded(
          "request shed: deadline expired before serving"));
    }
  }
  if (live.empty()) return;

  std::vector<const InferenceRequest*> requests;
  requests.reserve(live.size());
  int64_t queue_wait = 0;
  for (const Job* job : live) {
    requests.push_back(&job->request);
    queue_wait += dequeue_nanos - job->enqueue_nanos;
  }
  // Test hook: a configured slow-predict stall simulates an expensive
  // forward (it is real wall-clock, independent of the injectable Clock),
  // so dedup/idle-sweep tests can park followers behind a running leader
  // deterministically.
  if (options_.fault_injector != nullptr) {
    const int64_t slow = options_.fault_injector->slow_predict_nanos();
    if (slow > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(slow));
    }
  }
  std::vector<StatusOr<Prediction>> results = session->PredictBatch(requests);
  // Canary-only failure injection: converts a would-be OK canary answer
  // into kInternal so tests can fake a regressed candidate without ever
  // perturbing a primary response (the parity contracts depend on that).
  if (use_canary && options_.fault_injector != nullptr) {
    for (StatusOr<Prediction>& result : results) {
      if (result.ok() && options_.fault_injector->MaybeFailCanaryPredict()) {
        result = Status::Internal("injected canary prediction failure");
      }
    }
  }
  const int64_t done_nanos = clock_->NowNanos();
  const int64_t batch_compute = done_nanos - dequeue_nanos;

  // Stamp fleet attribution and classify. No reply leaves yet: every
  // counter and histogram cell a caller could observe right after its
  // future resolves must already be committed when it does. When a shadow
  // is active the primary outcomes are also copied here — replies consume
  // the results, and the shadow comparison must never delay them.
  struct ShadowBaseline {
    bool ok = false;
    float p_fake = 0.0f;
    int label = 0;
  };
  std::vector<ShadowBaseline> baseline;
  if (shadow != nullptr) baseline.resize(live.size());
  std::vector<int64_t> ok_latencies;
  ok_latencies.reserve(live.size());
  int64_t local_ok = 0;
  int64_t local_invalid = 0;
  int64_t local_internal = 0;
  int64_t fanout_shed = 0;
  const auto tally = [&](const StatusOr<Prediction>& result,
                         int64_t latency_nanos) {
    if (result.ok()) {
      ++local_ok;
      ok_latencies.push_back(latency_nanos);
    } else if (result.status().code() == StatusCode::kInvalidArgument) {
      ++local_invalid;
    } else {
      ++local_internal;
    }
  };
  for (size_t i = 0; i < live.size(); ++i) {
    StatusOr<Prediction>& result = results[i];
    if (result.ok()) {
      result.value().model_name = model->name;
      result.value().canary = use_canary;
      if (shadow != nullptr) {
        baseline[i] = {true, result.value().p_fake, result.value().label};
      }
    }
    tally(result, done_nanos - live[i]->enqueue_nanos);
  }

  // Cache insert + dedup fan-out (DESIGN.md §12). Insertion happens BEFORE
  // the group detaches from the wait-set, so a concurrent identical
  // admission either attaches (and is fanned below) or — once detached —
  // finds the entry in the cache: there is no window where it would
  // recompute. Followers are fanned a copy of the leader's outcome,
  // errors included (the outcome is a pure function of the shared
  // content), but each is first judged against its OWN deadline — that is
  // the "sheds independently" half of the dedup deadline contract.
  struct FollowerReply {
    std::function<void(StatusOr<Prediction>)> done;
    StatusOr<Prediction> result;
  };
  std::vector<FollowerReply> follower_replies;
  for (size_t i = 0; i < live.size(); ++i) {
    Job* job = live[i];
    if (job->group == nullptr) continue;
    const StatusOr<Prediction>& result = results[i];
    if (result.ok() && !use_canary && model->cache != nullptr) {
      PredictionCache::Entry entry;
      entry.p_fake = result.value().p_fake;
      entry.label = result.value().label;
      entry.model_version = result.value().model_version;
      model->cache->Insert(job->group->key, entry);
    }
    std::vector<DedupFollower> followers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      DetachGroupLocked(model, job->group, &followers);
    }
    for (DedupFollower& follower : followers) {
      // The shed horizon a follower is judged at: the batch's dequeue for
      // members that were waiting then, its own attach time for members
      // that joined a running leader with an already-expired deadline.
      const int64_t effective =
          std::max(dequeue_nanos, follower.enqueue_nanos);
      if (follower.deadline_nanos > 0 &&
          effective > follower.deadline_nanos) {
        ++fanout_shed;
        follower_replies.push_back(
            {std::move(follower.done),
             Status::DeadlineExceeded(
                 "request shed: deadline expired before serving")});
        continue;
      }
      tally(result, std::max<int64_t>(0, done_nanos - follower.enqueue_nanos));
      follower_replies.push_back({std::move(follower.done), result});
    }
  }

  bool trigger_rollback = false;
  std::string rollback_reason;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++batches_run_;
    batched_elements_ += static_cast<int64_t>(live.size());
    ++batch_size_hist_[live.size()];
    queue_wait_nanos_ += queue_wait;
    compute_nanos_ += batch_compute;
    model->shed_deadline += fanout_shed;
    model->served_ok += local_ok;
    model->invalid_requests += local_invalid;
    model->internal_errors += local_internal;
    for (int64_t nanos : ok_latencies) {
      latencies_.Push(nanos);
      model->latencies.Push(nanos);
    }
    // Canary monitor: both variants feed the shared window (reading the
    // canary session pointer here is safe — this batch is still in flight,
    // so no barrier job can swap it). Only canary-side batches can
    // complete a window, so a verdict always includes fresh canary data.
    if (model->canary != nullptr &&
        !model->canary_draining.load(std::memory_order_acquire)) {
      CanaryWindowStats& window = model->window;
      const int64_t reached_forward = local_ok + local_internal;
      if (use_canary) {
        window.canary_served += reached_forward;
        window.canary_errors += local_internal;
        window.canary_compute_nanos += batch_compute;
      } else {
        window.primary_served += reached_forward;
        window.primary_errors += local_internal;
        window.primary_compute_nanos += batch_compute;
      }
      if (use_canary &&
          window.canary_served >= model->canary_options.window) {
        ++model->windows_evaluated;
        const CanaryVerdict verdict =
            EvaluateCanaryWindow(window, model->canary_options);
        window = CanaryWindowStats();
        if (verdict.regression) {
          trigger_rollback = true;
          rollback_reason = verdict.reason;
        }
      }
    }
  }

  for (size_t i = 0; i < live.size(); ++i) {
    live[i]->done(std::move(results[i]));
  }
  // Dedup fan-out: one forward, N replies — every follower sees exactly
  // the bytes its leader saw (or its own typed shed).
  for (FollowerReply& reply : follower_replies) {
    reply.done(std::move(reply.result));
  }

  // Off-path shadow scoring: primary replies are already on their way and
  // bitwise identical to a no-shadow run. This runs inside the in-flight
  // window, so no barrier job can swap sessions under it; its wall-clock
  // is deliberately NOT charged to compute_ms/latency telemetry.
  if (shadow != nullptr) {
    ShadowStats delta;
    std::vector<StatusOr<Prediction>> shadow_results =
        shadow->PredictBatch(requests);
    for (size_t i = 0; i < live.size(); ++i) {
      if (!baseline[i].ok) continue;  // compare only where primary answered
      if (!shadow_results[i].ok()) {
        ++delta.shadow_errors;
        continue;
      }
      ++delta.scored;
      const double d = std::fabs(
          static_cast<double>(shadow_results[i].value().p_fake) -
          static_cast<double>(baseline[i].p_fake));
      delta.abs_delta_sum += d;
      delta.abs_delta_max = std::max(delta.abs_delta_max, d);
      if (shadow_results[i].value().label != baseline[i].label) {
        ++delta.label_disagreements;
      }
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    ShadowStats& stats = model->shadow_stats;
    stats.scored += delta.scored;
    stats.shadow_errors += delta.shadow_errors;
    stats.label_disagreements += delta.label_disagreements;
    stats.abs_delta_sum += delta.abs_delta_sum;
    stats.abs_delta_max = std::max(stats.abs_delta_max, delta.abs_delta_max);
  }
  if (trigger_rollback &&
      !model->canary_draining.exchange(true, std::memory_order_acq_rel)) {
    // Draining flips BEFORE the rollback job runs, so dequeue stops
    // feeding the candidate immediately; queued slice members fall back to
    // the primary. The barrier job then frees the candidate. exchange()
    // guards against two workers observing the same regression.
    DTDBD_LOG(Warning) << "model '" << model->name
                       << "': canary regression detected — " << rollback_reason
                       << "; rolling back to last-good version "
                       << model->version.load(std::memory_order_acquire);
    EnqueueControl(
        model->name,
        [this, rollback_reason](ModelState* m) {
          return RollbackCanary(m, rollback_reason);
        },
        /*front=*/true);
  }
}

Status Server::RollbackCanary(ModelState* model, const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (model->canary == nullptr) {
      // Already canceled/promoted between detection and the barrier; the
      // drain flag must still be cleared so a future canary can route.
      model->canary_draining.store(false, std::memory_order_release);
      return Status::Ok();
    }
    model->canary.reset();
  }
  model->canary_draining.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++model->canary_rollbacks;
    model->window = CanaryWindowStats();
    model->canary_quality.Clear();
    model->canary_feedback_since_eval = 0;
    model->last_canary_event = "auto-rollback: " + reason;
  }
  DTDBD_LOG(Warning) << "model '" << model->name
                     << "': canary rolled back to last-good version "
                     << model->version.load(std::memory_order_acquire) << " ("
                     << reason << ")";
  return Status::Ok();
}

StatusOr<std::unique_ptr<InferenceSession>> Server::LoadSessionFor(
    ModelState* model, const std::string& path, int64_t version) {
  if (options_.fault_injector != nullptr) {
    const int64_t slow = options_.fault_injector->slow_load_nanos();
    if (slow > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(slow));
    }
    DTDBD_RETURN_IF_ERROR(options_.fault_injector->MaybeFailLoad());
  }
  if (!model->factory) {
    if (model->is_default) {
      return Status::FailedPrecondition(
          "hot-reload requires ServerOptions::model_factory");
    }
    return Status::FailedPrecondition("model '" + model->name +
                                      "' was registered without a factory");
  }
  DTDBD_ASSIGN_OR_RETURN(train::CheckpointState state,
                         train::LoadCheckpoint(path));
  // Both "supervised" and "dtdbd" checkpoints are servable; only the model
  // parameter map matters here. Restore into a FRESH model so a mismatched
  // checkpoint can never leave any live session half-overwritten.
  std::unique_ptr<models::FakeNewsModel> fresh = model->factory();
  if (fresh == nullptr) {
    return Status::FailedPrecondition("model_factory returned null");
  }
  std::map<std::string, tensor::Tensor> named = fresh->NamedParameters();
  DTDBD_RETURN_IF_ERROR(tensor::RestoreInto(state.model, &named));
  // The primary pointer is stable here: loads only run inside the barrier,
  // the one context that may also write it.
  return std::make_unique<InferenceSession>(std::move(fresh),
                                            model->primary->limits(), version);
}

StatusOr<std::unique_ptr<InferenceSession>> Server::LoadCandidate(
    ModelState* model, const std::string& path) {
  int64_t backoff = options_.reload_backoff_initial_nanos;
  Status last = Status::Ok();
  const int attempts = std::max(1, options_.reload_max_attempts);
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++model->reload_attempts;
    }
    const int64_t version =
        model->version.load(std::memory_order_acquire) + 1;
    StatusOr<std::unique_ptr<InferenceSession>> loaded =
        LoadSessionFor(model, path, version);
    if (loaded.ok()) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++model->reload_successes;
      return loaded;
    }
    last = loaded.status();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++model->reload_failures;
    }
    DTDBD_LOG(Warning) << "model '" << model->name << "': load attempt "
                       << attempt << "/" << attempts
                       << " failed: " << last.ToString();
    if (attempt < attempts && backoff > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(backoff));
      backoff = static_cast<int64_t>(
          static_cast<double>(backoff) * options_.reload_backoff_multiplier);
    }
  }
  return last;
}

Status Server::RunReload(ModelState* model, const std::string& path) {
  StatusOr<std::unique_ptr<InferenceSession>> candidate =
      LoadCandidate(model, path);
  if (candidate.ok()) {
    const int64_t version = candidate.value()->model_version();
    {
      std::lock_guard<std::mutex> lock(mu_);
      model->primary = std::move(candidate).value();
    }
    // Invalidate-by-barrier: stale entries die inside the same quiescent
    // window that swapped the session, so a post-reload request can only
    // ever hit post-reload entries. (Failed reloads keep the last-good
    // primary AND its still-exact cache.)
    if (model->cache != nullptr) model->cache->Clear();
    model->version.store(version, std::memory_order_release);
    model->degraded.store(false, std::memory_order_release);
    // The swapped-in primary starts with a clean quality slate: the old
    // window described the old weights, and a degraded-quality verdict must
    // never outlive the model that earned it. Cleared inside the barrier,
    // so no quality window straddles the swap.
    model->quality_degraded.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lock(stats_mu_);
    model->primary_quality.Clear();
    model->last_reload_error.clear();
    return Status::Ok();
  }
  // Exhausted: keep serving the last-good model, but say so loudly.
  model->degraded.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    model->last_reload_error = candidate.status().ToString();
  }
  DTDBD_LOG(Error) << "model '" << model->name << "': hot-reload of " << path
                   << " failed; serving degraded on version "
                   << model->version.load(std::memory_order_acquire);
  return candidate.status();
}

HealthReport Server::Health() const {
  HealthReport report;
  // Phase 1 (mu_): queue depths, registry snapshot, and session-pointer
  // facts (canary/shadow active). The pointer snapshot makes the report
  // immune to a model registered mid-call: it simply appears next time.
  std::vector<ModelState*> states;
  {
    std::lock_guard<std::mutex> lock(mu_);
    report.queue_depth = inference_depth_;
    report.num_models = static_cast<int64_t>(fleet_.models().size());
    states.reserve(fleet_.models().size());
    for (const auto& model : fleet_.models()) {
      ModelState* m = model.get();
      states.push_back(m);
      ModelHealth health;
      health.name = m->name;
      health.is_default = m->is_default;
      health.queue_depth = m->queued;
      health.canary.active = m->canary != nullptr;
      health.canary.draining =
          m->canary_draining.load(std::memory_order_acquire);
      if (m->canary != nullptr) {
        health.canary.percent = m->canary_options.percent;
        health.canary.window = m->canary_options.window;
        health.canary.candidate_version = m->canary->model_version();
      }
      health.shadow.active = m->shadow != nullptr;
      report.models.push_back(std::move(health));
    }
  }
  report.default_model = fleet_.default_model();
  report.max_queue_depth = options_.max_queue_depth;
  report.num_workers = num_workers_;
  report.max_batch = max_batch_;
  report.submitted = submitted_.load(std::memory_order_relaxed);
  report.admitted = admitted_.load(std::memory_order_relaxed);
  report.rejected_queue_full =
      rejected_queue_full_.load(std::memory_order_relaxed);
  report.rejected_unknown_model =
      rejected_unknown_model_.load(std::memory_order_relaxed);
  // Top-level version/degraded flags mirror the DEFAULT model — the
  // pre-fleet contract every existing consumer was written against.
  report.degraded = default_state_->degraded.load(std::memory_order_acquire);
  report.model_version =
      default_state_->version.load(std::memory_order_acquire);
  report.watchdog_ticks = watchdog_ticks_.load(std::memory_order_relaxed);
  report.quality_degraded =
      default_state_->quality_degraded.load(std::memory_order_acquire);
  for (size_t i = 0; i < states.size(); ++i) {
    ModelHealth& health = report.models[i];
    health.version = states[i]->version.load(std::memory_order_acquire);
    health.degraded = states[i]->degraded.load(std::memory_order_acquire);
    health.quality.quality_degraded =
        states[i]->quality_degraded.load(std::memory_order_acquire);
  }
  // Phase 2 (stats_mu_): counters, latency windows, canary/shadow
  // telemetry, and the fleet totals as sums of the per-model counters, all
  // from one snapshot. Never held together with mu_ (one-way order, and
  // Health releases mu_ first anyway).
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    report.last_reload_error = default_state_->last_reload_error;
    report.batch_size_histogram = batch_size_hist_;
    report.batches_run = batches_run_;
    report.queue_wait_ms_total = static_cast<double>(queue_wait_nanos_) / 1e6;
    report.compute_ms_total = static_cast<double>(compute_nanos_) / 1e6;
    // Guard both splits against an empty window: before the first batch the
    // denominators are zero and the averages must read 0.0, not NaN.
    report.avg_batch_size =
        batches_run_ > 0 ? static_cast<double>(batched_elements_) /
                               static_cast<double>(batches_run_)
                         : 0.0;
    report.avg_queue_wait_ms =
        batched_elements_ > 0
            ? report.queue_wait_ms_total /
                  static_cast<double>(batched_elements_)
            : 0.0;
    report.avg_compute_ms =
        batches_run_ > 0
            ? report.compute_ms_total / static_cast<double>(batches_run_)
            : 0.0;
    report.latency_samples = latencies_.count();
    report.latency_no_samples = latencies_.count() == 0;
    latencies_.Percentiles(&report.p50_latency_ms, &report.p99_latency_ms);
    for (size_t i = 0; i < states.size(); ++i) {
      ModelState* m = states[i];
      ModelHealth& health = report.models[i];
      health.last_reload_error = m->last_reload_error;
      health.served_ok = m->served_ok;
      health.invalid_requests = m->invalid_requests;
      health.internal_errors = m->internal_errors;
      health.shed_deadline = m->shed_deadline;
      health.reload_attempts = m->reload_attempts;
      health.reload_successes = m->reload_successes;
      health.reload_failures = m->reload_failures;
      health.latency_samples = m->latencies.count();
      health.latency_no_samples = m->latencies.count() == 0;
      m->latencies.Percentiles(&health.p50_latency_ms, &health.p99_latency_ms);
      health.canary.window_canary_served = m->window.canary_served;
      health.canary.windows_evaluated = m->windows_evaluated;
      health.canary.started = m->canaries_started;
      health.canary.rollbacks = m->canary_rollbacks;
      health.canary.promotions = m->canary_promotions;
      health.canary.cancels = m->canary_cancels;
      health.canary.last_event = m->last_canary_event;
      health.shadow.scored = m->shadow_stats.scored;
      health.shadow.shadow_errors = m->shadow_stats.shadow_errors;
      health.shadow.label_disagreements = m->shadow_stats.label_disagreements;
      health.shadow.mean_abs_delta =
          m->shadow_stats.scored > 0
              ? m->shadow_stats.abs_delta_sum /
                    static_cast<double>(m->shadow_stats.scored)
              : 0.0;
      health.shadow.max_abs_delta = m->shadow_stats.abs_delta_max;
      health.cache.deduped = m->deduped;
      health.quality.feedback_total = m->feedback_total;
      health.quality.canary_feedback_total = m->canary_feedback_total;
      health.quality.quality_evals = m->quality_evals;
      health.quality.quality_rollbacks = m->quality_rollbacks;
      const QualityWindowSnapshot snapshot = m->primary_quality.Snapshot(
          options_.drift_window, options_.min_domain_quality_samples);
      health.quality.window_samples = snapshot.samples;
      health.quality.auc = snapshot.auc;
      health.quality.auc_valid = snapshot.auc_valid;
      health.quality.accuracy = snapshot.accuracy;
      health.quality.bias_spread = snapshot.bias_spread;
      health.quality.bias_spread_valid = snapshot.bias_spread_valid;
      health.quality.domains = snapshot.domains;
      report.served_ok += m->served_ok;
      report.invalid_requests += m->invalid_requests;
      report.internal_errors += m->internal_errors;
      report.shed_deadline += m->shed_deadline;
      report.reload_attempts += m->reload_attempts;
      report.reload_successes += m->reload_successes;
      report.reload_failures += m->reload_failures;
      report.deduped += m->deduped;
      report.feedback_recorded +=
          m->feedback_total + m->canary_feedback_total;
    }
  }
  // Phase 3 (cache internals): each PredictionCache is internally locked,
  // so no server mutex is needed to read its shard counters. Aggregate the
  // per-model stats into the top-level report as we go.
  report.cache_enabled = cache_bytes_ > 0;
  report.cache_bytes_limit = cache_bytes_;
  for (size_t i = 0; i < states.size(); ++i) {
    ModelState* m = states[i];
    ModelHealth& health = report.models[i];
    health.cache.enabled = m->cache != nullptr;
    if (m->cache == nullptr) continue;
    const CacheStats stats = m->cache->Stats();
    health.cache.hits = stats.hits;
    health.cache.misses = stats.misses;
    health.cache.inserted = stats.inserted;
    health.cache.evicted = stats.evicted;
    health.cache.invalidated = stats.invalidated;
    health.cache.bytes = stats.bytes;
    health.cache.entries = stats.entries;
    report.cache_hits += stats.hits;
    report.cache_misses += stats.misses;
    report.cache_evicted += stats.evicted;
    report.cache_bytes += stats.bytes;
  }
  return report;
}

HealthReport Server::LastWatchdogReport() const {
  std::lock_guard<std::mutex> lock(watchdog_mu_);
  return last_watchdog_report_;
}

bool Server::degraded() const {
  return default_state_->degraded.load(std::memory_order_acquire);
}

int64_t Server::model_version() const {
  return default_state_->version.load(std::memory_order_acquire);
}

const std::string& Server::default_model() const {
  return fleet_.default_model();
}

void Server::WatchdogLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(watchdog_mu_);
      watchdog_cv_.wait_for(
          lock, std::chrono::nanoseconds(options_.watchdog_period_nanos),
          [this] { return watchdog_stop_; });
      if (watchdog_stop_) return;
    }
    watchdog_ticks_.fetch_add(1, std::memory_order_relaxed);
    HealthReport report = Health();
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    last_watchdog_report_ = std::move(report);
  }
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

}  // namespace dtdbd::serve
