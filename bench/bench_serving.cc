// Serving-path benchmark. Not a paper artifact — operational numbers for
// the hardened serving stack (src/serve/ behind the src/net/ socket front
// end), measured the way a real user would see them: over TCP.
//
// Two phases, one server:
//   1. Closed-loop calibration: --clients socket clients each keep one
//      request in flight until --requests complete. The measured rate is
//      the capacity estimate (and yields closed-loop p50/p99).
//   2. Open-loop storm: at load factors 1.0x and 2.0x of the estimated
//      capacity, each client runs an independent Poisson arrival process
//      (exponential inter-arrival sleeps; the merge of per-client processes
//      is Poisson at the target rate) and SENDS ON SCHEDULE regardless of
//      outstanding responses — queueing pressure is real, not an artifact
//      of client back-pressure. Every request carries a --deadline-ms
//      deadline. Reported per load point: offered vs goodput rate, shed
//      rate (RETRY_LATER + DEADLINE_EXCEEDED), and p50/p99 of the OK
//      responses. Writes BENCH_serving.json atomically.
//   3. Fleet sweep: fresh servers at {1, 3} models x {no shadow, shadow},
//      closed loop with clients round-robining model names across the
//      fleet — the cost of routing, per-model stats, and off-path shadow
//      scoring in one table (goodput + p50/p99 per point, shadow scoring
//      telemetry where active).
//   4. Cache sweep: fresh servers at cache {off, on} x traffic
//      {unique-heavy, zipf-skewed repeats}, closed loop. The unique trace
//      bounds the cache's overhead on miss-only traffic; the zipf trace
//      (exponent 1.2 over a 64-request hot set) is the repeat-heavy
//      workload the prediction cache exists for — the JSON records the
//      per-point hit rate and the zipf on/off goodput ratio.
//   5. Drift sweep: fresh servers replaying a LABELED drift stream
//      in-process (Submit + RecordFeedback) at {stationary, shifting} x
//      {adaptation off, on}. The shifting trace ends in a domain the
//      served model never trained on; adaptation-on points periodically
//      fine-tune an OnlineAdapter on the recent labeled window and
//      hot-reload the published checkpoint. The JSON records the
//      per-window AUC trajectory of every point — the shifting/adapt-on
//      trajectory recovering where shifting/adapt-off stays degraded is
//      the drift story in one table.
//
// Flags: --requests=N closed-loop calibration count (default 2000),
//        --open-requests=N per open-loop load point (default --requests),
//        --fleet-requests=N per fleet-sweep point (default --requests),
//        --drift-requests=N per drift-sweep point (default --requests),
//        --clients=N socket clients (default 8), --deadline-ms (default
//        200), --queue-depth (default 256), --threads=N,
//        --serve-workers (falls back to DTDBD_SERVE_WORKERS, then 1),
//        --max-batch (default 4), --cache-bytes (falls back to
//        DTDBD_CACHE_BYTES, then 0 = off; applies to phases 1-3 and sets
//        the "on" budget of the cache sweep, which otherwise uses 4 MiB),
//        --feedback-ring (1024) / --drift-window (256) for the drift
//        sweep, --model=MDFEND, --json=BENCH_serving.json, and the socket
//        knobs --port (0 = ephemeral), --max-conns (64), --idle-timeout-ms
//        (5000). Every integer knob is strict-parsed through its Knob row:
//        a present-but-invalid value warns and pins the row's fallback.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/flags.h"
#include "common/io.h"
#include "common/thread_pool.h"
#include "data/generator.h"
#include "drift/adapt.h"
#include "drift/drift.h"
#include "dtdbd/trainer.h"
#include "models/model.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/socket_server.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tensor/optim.h"
#include "tensor/serialize.h"
#include "text/frozen_encoder.h"
#include "train/checkpoint.h"

namespace {

using namespace dtdbd;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

serve::InferenceRequest RequestFor(const data::NewsSample& sample) {
  serve::InferenceRequest request;
  request.tokens = sample.tokens;
  request.domain = sample.domain;
  request.style = sample.style;
  request.emotion = sample.emotion;
  return request;
}

double PercentileMs(std::vector<int64_t>* sorted_nanos, double q) {
  if (sorted_nanos->empty()) return 0.0;
  const auto idx = static_cast<size_t>(
      q * static_cast<double>(sorted_nanos->size() - 1) + 0.5);
  return static_cast<double>((*sorted_nanos)[idx]) / 1e6;
}

struct LoadPointResult {
  double load_factor = 0.0;
  double target_rps = 0.0;
  double offered_rps = 0.0;
  double goodput_rps = 0.0;
  double shed_rate = 0.0;
  long long sent = 0;
  long long ok = 0;
  long long retry_later = 0;
  long long deadline_exceeded = 0;
  long long other = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

// Closed loop: `clients` call/response clients racing a shared counter.
// Returns measured requests/sec; fills sorted latencies.
double RunClosedLoop(int port, const std::vector<serve::InferenceRequest>& reqs,
                     int clients, int total_requests,
                     std::vector<int64_t>* sorted_latencies_nanos,
                     long long* errors_out) {
  std::atomic<int> next{0};
  std::atomic<long long> errors{0};
  std::vector<std::vector<int64_t>> latencies(static_cast<size_t>(clients));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::Client client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        errors.fetch_add(1);
        return;
      }
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total_requests) return;
        const auto& request = reqs[static_cast<size_t>(i) % reqs.size()];
        net::WireResponse response;
        const int64_t t0 = NowNanos();
        const Status called =
            client.Call(static_cast<uint64_t>(i) + 1, 0, request, &response);
        const int64_t t1 = NowNanos();
        if (!called.ok() || response.code != net::WireCode::kOk) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        latencies[static_cast<size_t>(c)].push_back(t1 - t0);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_sec = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  for (const auto& v : latencies) {
    sorted_latencies_nanos->insert(sorted_latencies_nanos->end(), v.begin(),
                                   v.end());
  }
  std::sort(sorted_latencies_nanos->begin(), sorted_latencies_nanos->end());
  *errors_out = errors.load();
  return wall_sec > 0 ? static_cast<double>(total_requests) / wall_sec : 0.0;
}

// Open loop: per-client Poisson arrivals at target_rps/clients, sends on
// schedule (pipelined), a receiver thread per client drains and classifies.
LoadPointResult RunOpenLoop(int port,
                            const std::vector<serve::InferenceRequest>& reqs,
                            int clients, int total_requests, double load_factor,
                            double target_rps, int deadline_ms) {
  LoadPointResult result;
  result.load_factor = load_factor;
  result.target_rps = target_rps;
  const int per_client = std::max(1, total_requests / clients);
  const double rate_per_client =
      target_rps / static_cast<double>(clients);  // events/sec

  std::atomic<long long> ok{0}, retry_later{0}, deadline_exceeded{0},
      other{0}, sent{0};
  std::vector<std::vector<int64_t>> latencies(static_cast<size_t>(clients));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::Client client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        other.fetch_add(per_client);
        return;
      }
      // Send timestamps shared with the receiver; also the ledger of ids
      // still awaiting an answer.
      std::mutex mu;
      std::unordered_map<uint64_t, int64_t> pending;
      std::atomic<long long> my_sent{0};
      std::atomic<bool> sender_done{false};

      std::thread receiver([&] {
        long long received = 0;
        for (;;) {
          if (sender_done.load(std::memory_order_acquire) &&
              received >= my_sent.load(std::memory_order_acquire)) {
            return;
          }
          net::WireResponse response;
          const Status got = client.Receive(&response, 10'000);
          if (!got.ok()) {
            // Clean close or timeout: everything unanswered counts "other".
            std::lock_guard<std::mutex> lock(mu);
            other.fetch_add(static_cast<long long>(pending.size()));
            pending.clear();
            return;
          }
          ++received;
          int64_t t0 = 0;
          {
            std::lock_guard<std::mutex> lock(mu);
            auto it = pending.find(response.request_id);
            if (it != pending.end()) {
              t0 = it->second;
              pending.erase(it);
            }
          }
          switch (response.code) {
            case net::WireCode::kOk:
              ok.fetch_add(1, std::memory_order_relaxed);
              if (t0 > 0) {
                latencies[static_cast<size_t>(c)].push_back(NowNanos() - t0);
              }
              break;
            case net::WireCode::kRetryLater:
              retry_later.fetch_add(1, std::memory_order_relaxed);
              break;
            case net::WireCode::kDeadlineExceeded:
              deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
              break;
            default:
              other.fetch_add(1, std::memory_order_relaxed);
              break;
          }
        }
      });

      std::mt19937_64 rng(0x9E3779B97F4A7C15ull + static_cast<uint64_t>(c));
      std::exponential_distribution<double> inter_arrival(rate_per_client);
      auto next_send = std::chrono::steady_clock::now();
      for (int i = 0; i < per_client; ++i) {
        next_send += std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(inter_arrival(rng)));
        std::this_thread::sleep_until(next_send);
        const uint64_t id =
            static_cast<uint64_t>(c) * 10'000'000 + static_cast<uint64_t>(i) +
            1;
        const auto& request =
            reqs[(static_cast<size_t>(c) * 131 + static_cast<size_t>(i)) %
                 reqs.size()];
        const int64_t now = NowNanos();
        {
          std::lock_guard<std::mutex> lock(mu);
          pending.emplace(id, now);
        }
        const int64_t deadline =
            now + static_cast<int64_t>(deadline_ms) * 1'000'000;
        if (!client.Send(id, deadline, request).ok()) {
          std::lock_guard<std::mutex> lock(mu);
          pending.erase(id);
          other.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        my_sent.fetch_add(1, std::memory_order_release);
        sent.fetch_add(1, std::memory_order_relaxed);
      }
      sender_done.store(true, std::memory_order_release);
      receiver.join();
      client.Close();
    });
  }
  for (auto& t : threads) t.join();
  const double wall_sec = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();

  std::vector<int64_t> merged;
  for (const auto& v : latencies) {
    merged.insert(merged.end(), v.begin(), v.end());
  }
  std::sort(merged.begin(), merged.end());

  result.sent = sent.load();
  result.ok = ok.load();
  result.retry_later = retry_later.load();
  result.deadline_exceeded = deadline_exceeded.load();
  result.other = other.load();
  result.offered_rps =
      wall_sec > 0 ? static_cast<double>(result.sent) / wall_sec : 0.0;
  result.goodput_rps =
      wall_sec > 0 ? static_cast<double>(result.ok) / wall_sec : 0.0;
  const long long answered = result.ok + result.retry_later +
                             result.deadline_exceeded + result.other;
  result.shed_rate =
      answered > 0 ? static_cast<double>(result.retry_later +
                                         result.deadline_exceeded) /
                         static_cast<double>(answered)
                   : 0.0;
  result.p50_ms = PercentileMs(&merged, 0.50);
  result.p99_ms = PercentileMs(&merged, 0.99);
  return result;
}

// One point of the fleet sweep: a fresh server with `num_models` models
// behind one shared queue (optionally a shadow scorer on the default
// model), measured closed-loop over the socket with clients round-robining
// model names across the fleet.
struct FleetPointResult {
  int num_models = 1;
  bool shadow = false;
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  long long errors = 0;
  long long shadow_scored = 0;
  long long shadow_label_disagreements = 0;
  double shadow_mean_abs_delta = 0.0;
};

// Writes a servable v2 checkpoint holding fresh weights from `config` —
// the shadow candidate the sweep scores off the response path.
Status WriteFleetCheckpoint(data::NewsDataset* dataset,
                            const models::ModelConfig& config,
                            const std::string& path) {
  auto model = models::CreateModel("MDFEND", config);
  std::vector<tensor::Tensor> trainable;
  for (auto& p : model->Parameters()) {
    if (p.requires_grad()) trainable.push_back(p);
  }
  tensor::Adam adam(trainable, 1e-3f, 0.9f, 0.999f, 1e-8f, 0.0f);
  data::DataLoader loader(dataset, 8, /*shuffle=*/false, 0);
  std::vector<Rng*> rngs;
  model->CollectRngs(&rngs);
  const train::CheckpointState state = train::CaptureState(
      "supervised", 0, model->NamedParameters(), adam, rngs, loader);
  return train::SaveCheckpoint(state, path);
}

FleetPointResult RunFleetPoint(data::NewsDataset* dataset,
                               const models::ModelConfig& base_config,
                               const serve::RequestLimits& limits,
                               int num_models, bool with_shadow,
                               const std::string& shadow_checkpoint,
                               int clients, int total_requests,
                               int64_t queue_depth, int serve_workers,
                               int max_batch) {
  FleetPointResult result;
  result.num_models = num_models;
  result.shadow = with_shadow;

  auto config_with_seed = [&](uint64_t seed) {
    models::ModelConfig c = base_config;
    c.seed = seed;
    return c;
  };
  auto make_session = [&](uint64_t seed) {
    return std::make_unique<serve::InferenceSession>(
        models::CreateModel("MDFEND", config_with_seed(seed)), limits,
        /*model_version=*/1);
  };
  // Distinct seeds per model so routing mistakes would show up as wrong
  // answers, not just wrong counters.
  const char* kNames[] = {"", "m1", "m2"};
  const uint64_t kSeeds[] = {7, 11, 13};

  serve::ServerOptions options;
  options.num_workers = serve_workers;
  options.max_batch = max_batch;
  options.max_queue_depth = queue_depth;
  options.model_factory = [config = config_with_seed(7)] {
    return models::CreateModel("MDFEND", config);
  };
  serve::Server server(make_session(kSeeds[0]), std::move(options));
  for (int m = 1; m < num_models; ++m) {
    const Status added = server.AddModel(kNames[m], make_session(kSeeds[m]));
    if (!added.ok()) {
      std::fprintf(stderr, "%s\n", added.ToString().c_str());
      result.errors = total_requests;
      return result;
    }
  }
  if (with_shadow) {
    const Status shadowed = server.StartShadow("", shadow_checkpoint).get();
    if (!shadowed.ok()) {
      std::fprintf(stderr, "%s\n", shadowed.ToString().c_str());
      result.errors = total_requests;
      return result;
    }
  }

  net::SocketServerOptions net_options;
  net_options.max_connections = 64;
  net_options.max_inflight_per_connection = 1024;
  net::SocketServer net(&server, net_options);
  const Status started = net.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    result.errors = total_requests;
    return result;
  }

  // Requests cycle model names across the fleet (all default at 1 model).
  std::vector<serve::InferenceRequest> pool;
  pool.reserve(dataset->samples.size());
  for (size_t i = 0; i < dataset->samples.size(); ++i) {
    serve::InferenceRequest request = RequestFor(dataset->samples[i]);
    request.model_name = kNames[i % static_cast<size_t>(num_models)];
    pool.push_back(std::move(request));
  }
  // Warm-up out of the numbers.
  for (int i = 0; i < 16; ++i) {
    (void)server.Predict(pool[static_cast<size_t>(i) % pool.size()]);
  }

  std::vector<int64_t> latencies;
  result.rps = RunClosedLoop(net.port(), pool, clients, total_requests,
                             &latencies, &result.errors);
  result.p50_ms = PercentileMs(&latencies, 0.50);
  result.p99_ms = PercentileMs(&latencies, 0.99);

  if (with_shadow) {
    // Shadow scoring runs off the response path — the last batch's shadow
    // forward may still be in flight when the final reply lands. Poll until
    // the counter settles.
    serve::ShadowHealth shadow;
    int64_t last_scored = -1;
    for (int stable = 0; stable < 5;) {
      const serve::HealthReport health = server.Health();
      for (const serve::ModelHealth& m : health.models) {
        if (m.is_default) shadow = m.shadow;
      }
      stable = shadow.scored == last_scored ? stable + 1 : 0;
      last_scored = shadow.scored;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    result.shadow_scored = shadow.scored;
    result.shadow_label_disagreements = shadow.label_disagreements;
    result.shadow_mean_abs_delta = shadow.mean_abs_delta;
  }

  net.Stop();
  server.Stop();
  return result;
}

// One point of the cache sweep: a fresh server with the given cache budget
// replaying a fixed request trace closed-loop over the socket.
struct CachePointResult {
  std::string trace;
  long long cache_bytes = 0;
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  long long errors = 0;
  long long cache_hits = 0;
  long long deduped = 0;
  double hit_rate = 0.0;  // (hits + deduped) / served_ok
};

CachePointResult RunCachePoint(const models::ModelConfig& config,
                               const serve::RequestLimits& limits,
                               const std::vector<serve::InferenceRequest>& trace,
                               const std::string& trace_name,
                               int64_t cache_bytes, int clients,
                               int serve_workers, int max_batch,
                               int64_t queue_depth) {
  CachePointResult result;
  result.trace = trace_name;
  result.cache_bytes = cache_bytes;

  serve::ServerOptions options;
  options.num_workers = serve_workers;
  options.max_batch = max_batch;
  options.max_queue_depth = queue_depth;
  options.cache_bytes = cache_bytes;  // explicit: the sweep pins both modes
  serve::Server server(
      std::make_unique<serve::InferenceSession>(
          models::CreateModel("MDFEND", config), limits, /*model_version=*/1),
      std::move(options));

  net::SocketServerOptions net_options;
  net_options.max_inflight_per_connection = 1024;
  net::SocketServer net(&server, net_options);
  if (!net.Start().ok()) {
    result.errors = static_cast<long long>(trace.size());
    return result;
  }

  // Identical warm-up for both modes (first-touch allocation; for cache-on
  // it also seeds a handful of hot entries — steady state, deliberately).
  for (size_t i = 0; i < 16 && i < trace.size(); ++i) {
    (void)server.Predict(trace[i]);
  }

  std::vector<int64_t> latencies;
  result.rps =
      RunClosedLoop(net.port(), trace, clients,
                    static_cast<int>(trace.size()), &latencies, &result.errors);
  result.p50_ms = PercentileMs(&latencies, 0.50);
  result.p99_ms = PercentileMs(&latencies, 0.99);

  const serve::HealthReport health = server.Health();
  result.cache_hits = health.cache_hits;
  result.deduped = health.deduped;
  result.hit_rate =
      health.served_ok > 0
          ? static_cast<double>(health.cache_hits + health.deduped) /
                static_cast<double>(health.served_ok)
          : 0.0;
  net.Stop();
  server.Stop();
  return result;
}

// One point of the drift sweep: a fresh server replaying a labeled drift
// stream in-process (the quality loop is a serve-layer API; the socket
// carries no labels), sampling the windowed AUC at fixed intervals.
struct DriftWindowPoint {
  long long index = 0;
  double auc = 0.0;
  bool auc_valid = false;
};

struct DriftPointResult {
  std::string trace;
  bool adapt = false;
  double final_auc = 0.0;
  bool final_auc_valid = false;
  int adaptations = 0;
  long long errors = 0;
  std::vector<DriftWindowPoint> windows;
};

DriftPointResult RunDriftPoint(
    const data::NewsDataset& corpus, const models::ModelConfig& config,
    const serve::RequestLimits& limits, const std::string& base_checkpoint,
    const drift::DriftTraceConfig& trace_config, const std::string& trace_name,
    bool adapt_on, int total_requests, int serve_workers, int max_batch,
    int64_t queue_depth, int feedback_ring, int drift_window) {
  DriftPointResult result;
  result.trace = trace_name;
  result.adapt = adapt_on;

  auto factory = [&config] { return models::CreateModel("MDFEND", config); };
  auto restored = [&]() -> std::unique_ptr<models::FakeNewsModel> {
    auto model = factory();
    auto state = train::LoadCheckpoint(base_checkpoint);
    if (!state.ok()) return nullptr;
    std::map<std::string, tensor::Tensor> named = model->NamedParameters();
    if (!tensor::RestoreInto(state.value().model, &named).ok()) return nullptr;
    return model;
  }();
  if (restored == nullptr) {
    result.errors = total_requests;
    return result;
  }

  serve::ServerOptions options;
  options.num_workers = serve_workers;
  options.max_batch = max_batch;
  options.max_queue_depth = queue_depth;
  options.feedback_ring = feedback_ring;
  options.drift_window = drift_window;
  options.model_factory = factory;
  serve::Server server(std::make_unique<serve::InferenceSession>(
                           std::move(restored), limits, /*model_version=*/1),
                       options);

  drift::OnlineAdapterOptions adapter_options;
  adapter_options.window = 384;
  adapter_options.min_samples = 128;
  adapter_options.epochs = 3;
  adapter_options.batch_size = 16;
  adapter_options.lr = 1e-3f;
  adapter_options.seed = 33;
  adapter_options.checkpoint_dir = ".";
  drift::OnlineAdapter adapter(factory, &corpus, adapter_options);
  if (adapt_on && !adapter.WarmStart(base_checkpoint).ok()) {
    result.errors = total_requests;
    return result;
  }
  const std::string adapted_ckpt =
      "bench_drift_" + trace_name + (adapt_on ? "_on" : "_off") + ".ckpt";

  auto stream = drift::DriftStream::Create(&corpus, trace_config);
  if (!stream.ok()) {
    result.errors = total_requests;
    return result;
  }

  const int window =
      static_cast<int>(std::max<int64_t>(64, total_requests / 8));
  constexpr int kChunk = 8;
  for (int index = 0; index < total_requests; index += kChunk) {
    std::vector<drift::LabeledRequest> chunk;
    std::vector<std::future<StatusOr<serve::Prediction>>> futures;
    for (int i = 0; i < kChunk && index + i < total_requests; ++i) {
      chunk.push_back(stream.value().Next());
      futures.push_back(server.Submit(chunk.back().request));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      StatusOr<serve::Prediction> prediction = futures[i].get();
      if (!prediction.ok()) {
        ++result.errors;
        continue;
      }
      serve::Feedback feedback;
      feedback.domain = chunk[i].domain;
      feedback.p_fake = prediction.value().p_fake;
      feedback.label = chunk[i].label;
      if (!server.RecordFeedback(feedback).ok()) ++result.errors;
      adapter.Ingest(chunk[i].request, chunk[i].label);
    }
    const int next_index = index + static_cast<int>(futures.size());
    if (next_index % window == 0 || next_index >= total_requests) {
      const serve::HealthReport health = server.Health();
      DriftWindowPoint point;
      point.index = next_index;
      point.auc = health.models[0].quality.auc;
      point.auc_valid = health.models[0].quality.auc_valid;
      result.windows.push_back(point);
      // Adaptation policy: once the second half of the stream begins (the
      // shifted regime), fine-tune on the recent window and hot-reload —
      // at most twice, so the point measures recovery, not churn.
      if (adapt_on && next_index >= total_requests / 2 &&
          result.adaptations < 2 && adapter.size() >= adapter_options.min_samples) {
        const auto published = adapter.AdaptOnce(adapted_ckpt);
        if (published.ok() &&
            server.ReloadFromCheckpoint(published.value()).get().ok()) {
          ++result.adaptations;
        } else {
          ++result.errors;
        }
      }
    }
  }
  if (!result.windows.empty()) {
    result.final_auc = result.windows.back().auc;
    result.final_auc_valid = result.windows.back().auc_valid;
  }
  std::remove(("./" + adapted_ckpt).c_str());
  server.Stop();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int threads = InitThreadsFromFlags(flags);
  const int requests = flags.GetInt("requests", 2000);
  const int open_requests = flags.GetInt("open-requests", requests);
  const int fleet_requests = flags.GetInt("fleet-requests", requests);
  const int drift_requests = flags.GetInt("drift-requests", requests);
  const int clients = flags.GetInt("clients", 8);
  const int deadline_ms = flags.GetInt("deadline-ms", 200);
  const int64_t queue_depth = flags.GetInt("queue-depth", 256);
  const std::string model_name = flags.GetString("model", "MDFEND");
  const std::string json_path = flags.GetString("json", "BENCH_serving.json");
  // Serving and socket knobs resolve through their Knob rows (strict parse;
  // a present-but-invalid flag warns and pins the row's fallback). Only
  // --max-batch has a bench-specific default when absent.
  const auto knob = [&flags](const Knob& row) {
    return static_cast<int>(ResolveKnob(row, &flags));
  };
  const int serve_workers = knob(serve::kServeWorkersKnob);
  const int max_batch =
      flags.Has("max-batch") ? knob(serve::kMaxBatchKnob) : 4;
  const int64_t cache_bytes = ResolveKnob(serve::kCacheBytesKnob, &flags);
  const int feedback_ring = knob(serve::kFeedbackRingKnob);
  const int drift_window = knob(serve::kDriftWindowKnob);
  const int port_flag = knob(net::kPortKnob);
  const int max_conns = knob(net::kMaxConnsKnob);
  const int idle_timeout_ms = knob(net::kIdleTimeoutMsKnob);

  data::NewsDataset dataset = data::GenerateCorpus(data::MicroConfig(29));
  text::FrozenEncoder encoder(dataset.vocab->size(), 32, 14);
  models::ModelConfig config;
  config.vocab_size = dataset.vocab->size();
  config.num_domains = dataset.num_domains();
  config.encoder = &encoder;
  config.seed = 7;

  serve::RequestLimits limits;
  limits.vocab_size = config.vocab_size;
  limits.num_domains = config.num_domains;
  limits.seq_len = dataset.seq_len;

  serve::ServerOptions options;
  options.num_workers = serve_workers;
  options.max_batch = max_batch;
  options.max_queue_depth = queue_depth;
  options.cache_bytes = cache_bytes;
  serve::Server server(
      std::make_unique<serve::InferenceSession>(
          models::CreateModel(model_name, config), limits,
          /*model_version=*/1),
      std::move(options));

  net::SocketServerOptions net_options;
  net_options.port = port_flag;
  net_options.max_connections = max_conns;
  net_options.idle_timeout_ms = idle_timeout_ms;
  // Open-loop clients pipeline deeply by design; shed on the shared queue,
  // not on the per-connection guard rail.
  net_options.max_inflight_per_connection = 1024;
  net::SocketServer net(&server, net_options);
  const Status started = net.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }

  std::vector<serve::InferenceRequest> requests_pool;
  requests_pool.reserve(dataset.samples.size());
  for (const auto& sample : dataset.samples) {
    requests_pool.push_back(RequestFor(sample));
  }
  // Warm-up: first-touch allocation out of the numbers.
  for (int i = 0; i < 32; ++i) {
    (void)server.Predict(
        requests_pool[static_cast<size_t>(i) % requests_pool.size()]);
  }

  std::vector<int64_t> closed_latencies;
  long long closed_errors = 0;
  const double capacity_rps = RunClosedLoop(
      net.port(), requests_pool, clients, requests, &closed_latencies,
      &closed_errors);
  const double closed_p50 = PercentileMs(&closed_latencies, 0.50);
  const double closed_p99 = PercentileMs(&closed_latencies, 0.99);
  if (closed_errors > 0) {
    std::fprintf(stderr, "closed loop: %lld errors\n", closed_errors);
    return 1;
  }
  std::printf(
      "closed loop: %d clients  %8.1f req/s (capacity estimate)  "
      "p50 %7.3f ms  p99 %7.3f ms\n",
      clients, capacity_rps, closed_p50, closed_p99);

  std::vector<LoadPointResult> points;
  for (const double factor : {1.0, 2.0}) {
    const LoadPointResult point =
        RunOpenLoop(net.port(), requests_pool, clients, open_requests, factor,
                    factor * capacity_rps, deadline_ms);
    std::printf(
        "open loop %.1fx: offered %8.1f req/s  goodput %8.1f req/s  "
        "shed %5.1f%%  p50 %7.3f ms  p99 %7.3f ms  "
        "(ok %lld, retry %lld, deadline %lld, other %lld)\n",
        point.load_factor, point.offered_rps, point.goodput_rps,
        100.0 * point.shed_rate, point.p50_ms, point.p99_ms, point.ok,
        point.retry_later, point.deadline_exceeded, point.other);
    points.push_back(point);
  }

  const serve::HealthReport health = server.Health();
  const net::NetStats net_stats = net.Stats();
  net.Stop();
  server.Stop();

  for (const LoadPointResult& point : points) {
    if (point.other > 0) {
      std::fprintf(stderr, "open loop %.1fx: %lld unexpected outcomes\n",
                   point.load_factor, point.other);
      return 1;
    }
  }

  // Phase 3: fleet sweep (fresh server per point).
  const std::string shadow_ckpt = json_path + ".shadow.ckpt";
  {
    models::ModelConfig shadow_config = config;
    shadow_config.seed = 21;  // distinct weights => non-zero score deltas
    const Status wrote =
        WriteFleetCheckpoint(&dataset, shadow_config, shadow_ckpt);
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
      return 1;
    }
  }
  std::vector<FleetPointResult> fleet_points;
  for (const int num_models : {1, 3}) {
    for (const bool with_shadow : {false, true}) {
      const FleetPointResult point = RunFleetPoint(
          &dataset, config, limits, num_models, with_shadow, shadow_ckpt,
          clients, fleet_requests, queue_depth, serve_workers, max_batch);
      if (point.errors > 0) {
        std::fprintf(stderr, "fleet sweep (%d models, shadow=%d): %lld errors\n",
                     num_models, with_shadow ? 1 : 0, point.errors);
        std::remove(shadow_ckpt.c_str());
        return 1;
      }
      std::printf(
          "fleet %d model%s %-9s %8.1f req/s  p50 %7.3f ms  p99 %7.3f ms",
          num_models, num_models == 1 ? " " : "s",
          with_shadow ? "+shadow" : "", point.rps, point.p50_ms, point.p99_ms);
      if (with_shadow) {
        std::printf("  (shadow scored %lld, mean |dp| %.4f)",
                    point.shadow_scored, point.shadow_mean_abs_delta);
      }
      std::printf("\n");
      fleet_points.push_back(point);
    }
  }
  std::remove(shadow_ckpt.c_str());

  // Phase 4: cache sweep (fresh server per point).
  //
  // Unique-heavy trace: every request perturbs one token of a pool entry,
  // so contents (and ContentHash) are distinct — the cache can only cost,
  // never help, and this point bounds that cost. Zipf trace: exponent-1.2
  // skew over a 64-request hot set — the repeat-heavy traffic shape
  // (viral posts re-checked over and over) the cache exists for.
  std::vector<serve::InferenceRequest> unique_trace;
  unique_trace.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    serve::InferenceRequest r =
        requests_pool[static_cast<size_t>(i) % requests_pool.size()];
    const size_t slot = static_cast<size_t>(i) % r.tokens.size();
    const int delta = 1 + i / static_cast<int>(requests_pool.size());
    r.tokens[slot] = (r.tokens[slot] + delta) % config.vocab_size;
    unique_trace.push_back(std::move(r));
  }
  std::vector<serve::InferenceRequest> zipf_trace;
  zipf_trace.reserve(static_cast<size_t>(requests));
  {
    const size_t hot = std::min<size_t>(64, requests_pool.size());
    std::vector<double> weights(hot);
    for (size_t n = 0; n < hot; ++n) {
      weights[n] = 1.0 / std::pow(static_cast<double>(n + 1), 1.2);
    }
    std::mt19937_64 rng(0xC0FFEEull);
    std::discrete_distribution<size_t> zipf(weights.begin(), weights.end());
    for (int i = 0; i < requests; ++i) {
      zipf_trace.push_back(requests_pool[zipf(rng)]);
    }
  }
  const int64_t cache_on_bytes = cache_bytes > 0 ? cache_bytes : (4 << 20);
  std::vector<CachePointResult> cache_points;
  struct TraceSpec {
    const char* name;
    const std::vector<serve::InferenceRequest>* trace;
  };
  const TraceSpec trace_specs[] = {{"unique", &unique_trace},
                                   {"zipf", &zipf_trace}};
  for (const TraceSpec& spec : trace_specs) {
    for (const int64_t budget : {int64_t{0}, cache_on_bytes}) {
      const CachePointResult point =
          RunCachePoint(config, limits, *spec.trace, spec.name, budget,
                        clients, serve_workers, max_batch, queue_depth);
      if (point.errors > 0) {
        std::fprintf(stderr, "cache sweep (%s, %lld bytes): %lld errors\n",
                     point.trace.c_str(), point.cache_bytes, point.errors);
        return 1;
      }
      std::printf(
          "cache %-6s %-9s %8.1f req/s  p50 %7.3f ms  p99 %7.3f ms  "
          "hit rate %5.1f%%  (hits %lld, deduped %lld)\n",
          point.trace.c_str(),
          point.cache_bytes > 0 ? "on" : "off", point.rps, point.p50_ms,
          point.p99_ms, 100.0 * point.hit_rate, point.cache_hits,
          point.deduped);
      cache_points.push_back(point);
    }
  }
  // zipf off is index 2, zipf on is index 3 (trace-major, off-then-on).
  const double cache_speedup_zipf =
      cache_points[2].rps > 0 ? cache_points[3].rps / cache_points[2].rps
                              : 0.0;
  std::printf("cache zipf speedup: %.2fx (on %.1f req/s vs off %.1f req/s)\n",
              cache_speedup_zipf, cache_points[3].rps, cache_points[2].rps);

  // Phase 5: drift sweep (fresh server per point). The base model trains
  // WITHOUT the last domain; the shifting trace floods exactly that domain
  // in its final third.
  const int unseen_domain = config.num_domains - 1;
  const data::NewsDataset drift_train_set =
      drift::WithoutDomains(dataset, {unseen_domain});
  const std::string drift_base_ckpt = json_path + ".drift_base.ckpt";
  {
    auto model = models::CreateModel(model_name, config);
    TrainOptions train_options;
    train_options.epochs = 8;
    train_options.batch_size = 16;
    train_options.lr = 1e-3f;
    train_options.seed = 5;
    train_options.checkpoint_path = drift_base_ckpt;
    const TrainResult trained =
        TrainSupervised(model.get(), drift_train_set, nullptr, train_options);
    if (!trained.status.ok()) {
      std::fprintf(stderr, "%s\n", trained.status.ToString().c_str());
      return 1;
    }
  }
  drift::DriftTraceConfig stationary_trace;
  stationary_trace.seed = 99;
  {
    drift::DriftPhase p0;
    p0.start_index = 0;
    p0.domain_weights.assign(static_cast<size_t>(config.num_domains), 1.0);
    p0.domain_weights.back() = 0.0;
    stationary_trace.phases = {p0};
  }
  drift::DriftTraceConfig shifting_trace;
  shifting_trace.seed = 99;
  {
    drift::DriftPhase p0 = stationary_trace.phases[0];
    drift::DriftPhase p1 = p0;
    p1.start_index = drift_requests / 3;
    p1.domain_weights[0] = 0.3;
    p1.fake_ratio.assign(static_cast<size_t>(config.num_domains), -1.0);
    p1.fake_ratio[1] = 0.85;
    drift::DriftPhase p2 = p0;
    p2.start_index = 2 * drift_requests / 3;
    p2.domain_weights.assign(static_cast<size_t>(config.num_domains), 0.2);
    p2.domain_weights.back() = 1.0;
    shifting_trace.phases = {p0, p1, p2};
  }
  std::vector<DriftPointResult> drift_points;
  struct DriftSpec {
    const char* name;
    const drift::DriftTraceConfig* trace;
  };
  const DriftSpec drift_specs[] = {{"stationary", &stationary_trace},
                                   {"shifting", &shifting_trace}};
  for (const DriftSpec& spec : drift_specs) {
    for (const bool adapt_on : {false, true}) {
      DriftPointResult point = RunDriftPoint(
          dataset, config, limits, drift_base_ckpt, *spec.trace, spec.name,
          adapt_on, drift_requests, serve_workers, max_batch, queue_depth,
          feedback_ring, drift_window);
      if (point.errors > 0) {
        std::fprintf(stderr, "drift sweep (%s, adapt=%d): %lld errors\n",
                     spec.name, adapt_on ? 1 : 0, point.errors);
        std::remove(drift_base_ckpt.c_str());
        return 1;
      }
      std::printf(
          "drift %-10s adapt=%-3s final windowed AUC %.4f%s  "
          "(%d adaptation%s, %zu windows)\n",
          point.trace.c_str(), point.adapt ? "on" : "off", point.final_auc,
          point.final_auc_valid ? "" : " (invalid)", point.adaptations,
          point.adaptations == 1 ? "" : "s", point.windows.size());
      drift_points.push_back(std::move(point));
    }
  }
  std::remove(drift_base_ckpt.c_str());

  char line[1024];
  std::string json = "{\n";
  json += "  \"bench\": \"serving_socket_load\",\n";
  json += "  \"model\": \"" + model_name + "\",\n";
  std::snprintf(line, sizeof(line),
                "  \"threads\": %d,\n  \"clients\": %d,\n"
                "  \"serve_workers\": %d,\n  \"max_batch\": %d,\n"
                "  \"queue_depth\": %lld,\n  \"deadline_ms\": %d,\n",
                threads, clients, server.num_workers(), server.max_batch(),
                static_cast<long long>(queue_depth), deadline_ms);
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"closed_loop\": {\"requests\": %d, \"rps\": %.2f, "
                "\"p50_ms\": %.4f, \"p99_ms\": %.4f},\n",
                requests, capacity_rps, closed_p50, closed_p99);
  json += line;
  json += "  \"open_loop\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const LoadPointResult& p = points[i];
    std::snprintf(
        line, sizeof(line),
        "    {\"load_factor\": %.1f, \"target_rps\": %.2f, "
        "\"offered_rps\": %.2f, \"goodput_rps\": %.2f, "
        "\"shed_rate\": %.4f, \"sent\": %lld, \"ok\": %lld, "
        "\"retry_later\": %lld, \"deadline_exceeded\": %lld, "
        "\"other\": %lld, \"p50_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
        p.load_factor, p.target_rps, p.offered_rps, p.goodput_rps,
        p.shed_rate, p.sent, p.ok, p.retry_later, p.deadline_exceeded,
        p.other, p.p50_ms, p.p99_ms, i + 1 < points.size() ? "," : "");
    json += line;
  }
  json += "  ],\n";
  json += "  \"fleet_sweep\": [\n";
  for (size_t i = 0; i < fleet_points.size(); ++i) {
    const FleetPointResult& p = fleet_points[i];
    std::snprintf(
        line, sizeof(line),
        "    {\"models\": %d, \"shadow\": %s, \"requests\": %d, "
        "\"rps\": %.2f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
        "\"shadow_scored\": %lld, \"shadow_label_disagreements\": %lld, "
        "\"shadow_mean_abs_delta\": %.6f}%s\n",
        p.num_models, p.shadow ? "true" : "false", fleet_requests, p.rps,
        p.p50_ms, p.p99_ms, p.shadow_scored, p.shadow_label_disagreements,
        p.shadow_mean_abs_delta, i + 1 < fleet_points.size() ? "," : "");
    json += line;
  }
  json += "  ],\n";
  json += "  \"cache_sweep\": [\n";
  for (size_t i = 0; i < cache_points.size(); ++i) {
    const CachePointResult& p = cache_points[i];
    std::snprintf(
        line, sizeof(line),
        "    {\"trace\": \"%s\", \"cache_bytes\": %lld, \"requests\": %d, "
        "\"rps\": %.2f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
        "\"hit_rate\": %.4f, \"cache_hits\": %lld, \"deduped\": %lld}%s\n",
        p.trace.c_str(), p.cache_bytes, requests, p.rps, p.p50_ms, p.p99_ms,
        p.hit_rate, p.cache_hits, p.deduped,
        i + 1 < cache_points.size() ? "," : "");
    json += line;
  }
  json += "  ],\n";
  json += "  \"drift_sweep\": [\n";
  for (size_t i = 0; i < drift_points.size(); ++i) {
    const DriftPointResult& p = drift_points[i];
    std::snprintf(line, sizeof(line),
                  "    {\"trace\": \"%s\", \"adapt\": %s, \"requests\": %d, "
                  "\"adaptations\": %d, \"final_auc\": %.4f, "
                  "\"final_auc_valid\": %s, \"windows\": [",
                  p.trace.c_str(), p.adapt ? "true" : "false", drift_requests,
                  p.adaptations, p.final_auc,
                  p.final_auc_valid ? "true" : "false");
    json += line;
    for (size_t w = 0; w < p.windows.size(); ++w) {
      std::snprintf(line, sizeof(line),
                    "{\"index\": %lld, \"auc\": %.4f, \"valid\": %s}%s",
                    p.windows[w].index, p.windows[w].auc,
                    p.windows[w].auc_valid ? "true" : "false",
                    w + 1 < p.windows.size() ? ", " : "");
      json += line;
    }
    json += "]}";
    json += i + 1 < drift_points.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  std::snprintf(line, sizeof(line), "  \"cache_speedup_zipf\": %.4f,\n",
                cache_speedup_zipf);
  json += line;
  std::snprintf(
      line, sizeof(line),
      "  \"capacity_rps_estimate\": %.2f,\n"
      "  \"shed_rate_2x\": %.4f,\n  \"goodput_rps_2x\": %.2f,\n"
      "  \"server\": {\"served_ok\": %lld, \"rejected_queue_full\": %lld, "
      "\"shed_deadline\": %lld, \"avg_batch_size\": %.3f},\n"
      "  \"net\": {\"accepted\": %lld, \"frames_received\": %lld, "
      "\"responses_sent\": %lld, \"bad_frames\": %lld}\n}\n",
      capacity_rps, points.back().shed_rate, points.back().goodput_rps,
      static_cast<long long>(health.served_ok),
      static_cast<long long>(health.rejected_queue_full),
      static_cast<long long>(health.shed_deadline), health.avg_batch_size,
      static_cast<long long>(net_stats.accepted),
      static_cast<long long>(net_stats.frames_received),
      static_cast<long long>(net_stats.responses_sent),
      static_cast<long long>(net_stats.bad_frames));
  json += line;

  const Status written = AtomicWriteFile(json_path, json);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
