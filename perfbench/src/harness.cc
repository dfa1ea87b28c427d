#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "common/thread_pool.h"
#include "text/frozen_encoder.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double StolenCpuSeconds() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return got == 8 ? static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK))
                  : 0.0;
}

std::vector<size_t> LeastStolenWindows(const std::vector<double>& stolen) {
  const double median = Median(stolen);
  std::vector<size_t> kept;
  for (size_t i = 0; i < stolen.size(); ++i) {
    if (stolen[i] <= median) kept.push_back(i);
  }
  return kept;
}

std::vector<double> LeastStolen(const std::vector<double>& values,
                                const std::vector<double>& stolen) {
  std::vector<double> kept;
  for (size_t i : LeastStolenWindows(stolen)) kept.push_back(values[i]);
  return kept;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const std::vector<std::string>& ProfiledOps() {
  static const std::vector<std::string> ops = {
      "Conv1dSeqRelu",     "LinearRelu",          "MatMul",
      "MatVecOverTime",    "EmbeddingGather",     "Softmax",
      "LayerNorm",         "WeightedSumOverTime", "PairwiseSquaredDistances",
      "SoftmaxKl",         "SoftmaxCrossEntropy"};
  return ops;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"cpu_us_per_item", "us"},
      {"peak_rss_mb", "MiB"},
      {"setup_s", "s"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"fail_frac", "ratio"},
        {"host.steal_frac", "ratio"},
        {"gen.late_us_p99", "us"},
        {"client.throughput_per_s", "1/s"},
        {"client.p50_ms", "ms"},
        {"client.p90_ms", "ms"},
        {"client.p99_ms", "ms"},
        {"client.open_samples", "count"},
        {"trace_overhead_frac", "ratio"},
        {"net.client_send_us", "us"},
        {"net.codec_decode_request_us", "us"},
        {"net.codec_encode_response_us", "us"},
        {"net.codec_decode_response_us", "us"},
        {"net.overhead_p50_us", "us"},
    };
    for (const char* phase : {"open", "closed"}) {
      const std::string p = std::string(".") + phase;
      s.push_back({"net.frames_received" + p, "count"});
      s.push_back({"net.responses_sent" + p, "count"});
      s.push_back({"net.inflight_rejected" + p, "count"});
      s.push_back({"net.bad_frames" + p, "count"});
      s.push_back({"net.bytes_per_request" + p, "B"});
    }
    for (const char* phase : {"open", "closed"}) {
      const std::string p = std::string(".") + phase;
      s.push_back({"serve.queue_wait_us_avg" + p, "us"});
      s.push_back({"serve.compute_us_avg" + p, "us"});
      s.push_back({"serve.avg_batch_size" + p, "count"});
      s.push_back({"serve.server_p50_ms" + p, "ms"});
      s.push_back({"serve.server_p99_ms" + p, "ms"});
      s.push_back({"serve.rejected_queue_full" + p, "count"});
      s.push_back({"serve.shed_deadline" + p, "count"});
      s.push_back({"serve.cache_hit_frac" + p, "ratio"});
      s.push_back({"serve.cache_misses" + p, "count"});
      s.push_back({"serve.cache_evicted" + p, "count"});
    }
    s.push_back({"serve.inproc_predict_us", "us"});
    s.push_back({"serve.cache_hit_predict_us", "us"});
    for (const char* b : {"b1", "b4", "b16"}) {
      s.push_back({std::string("session.predict_us.") + b, "us"});
    }
    for (const char* b : {"b1", "b16", "b64"}) {
      s.push_back({std::string("text.encode_us.") + b, "us"});
    }
    s.push_back({"text.encode_share_b1", "ratio"});
    for (const std::string& op : ProfiledOps()) {
      s.push_back({"tensor." + op + ".fwd_us", "us"});
      s.push_back({"tensor." + op + ".bwd_us", "us"});
    }
    s.insert(s.end(), {
                          {"tensor.allocs_per_request", "count"},
                          {"tensor.bytes_per_request", "B"},
                          {"tensor.graph_recorded", "count"},
                          {"tensor.nodes_per_step", "count"},
                          {"tensor.bytes_per_step", "B"},
                          {"tensor.profiled_share_b1", "ratio"},
                          {"common.parallel_for_us.default", "us"},
                          {"common.parallel_for_us.t1", "us"},
                          {"dtdbd.add_loss_us", "us"},
                          {"dtdbd.dkd_loss_us", "us"},
                          {"dtdbd.teacher_fwd_us.b64", "us"},
                          {"dtdbd.train_s", "s"},
                          {"dtdbd.train_samples_per_s", "1/s"},
                          {"dtdbd.test_f1", "ratio"},
                          {"dtdbd.test_bias_total", "ratio"},
                          {"train.checkpoint_save_ms", "ms"},
                          {"train.checkpoint_load_ms", "ms"},
                          {"metrics.evaluate_ms", "ms"},
                          {"data.generate_s", "s"},
                      });
    return s;
  }();
  return specs;
}

// --- SpanRecorder ------------------------------------------------------------

namespace {

int ThreadIndex() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

uint64_t SpanRecorder::NewId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Add(uint64_t id, const char* name, int64_t start_ns,
                       int64_t end_ns, uint64_t parent, uint64_t request_id) {
  if (!enabled_) return;
  const int tid = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({id, parent, request_id, name, start_ns, end_ns, tid});
}

uint64_t SpanRecorder::Record(const char* name, int64_t start_ns,
                              int64_t end_ns, uint64_t parent,
                              uint64_t request_id) {
  if (!enabled_) return 0;
  const uint64_t id = NewId();
  Add(id, name, start_ns, end_ns, parent, request_id);
  return id;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::WriteChromeTrace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = 0;
  if (!spans_.empty()) {
    origin = spans_.front().start_ns;
    for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{");
  for (size_t i = 0; i < metadata.size(); ++i) {
    std::fprintf(f, "%s\"%s\":\"%s\"", i == 0 ? "" : ",",
                 metadata[i].first.c_str(), metadata[i].second.c_str());
  }
  std::fprintf(f, "},\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    if (s.request_id != 0) {
      std::fprintf(f, ",\"request_id\":%llu",
                   static_cast<unsigned long long>(s.request_id));
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name,
                       uint64_t parent)
    : recorder_(recorder),
      name_(name),
      parent_(parent),
      id_(recorder->NewId()),
      start_ns_(recorder->enabled() ? NowNs() : 0) {}

ScopedSpan::~ScopedSpan() {
  if (recorder_->enabled()) {
    recorder_->Add(id_, name_, start_ns_, NowNs(), parent_);
  }
}

void ProbeParallelFor(SpanRecorder* spans, uint64_t parent, Result* result) {
  ScopedSpan span(spans, "probe.common", parent);
  std::vector<float> out(4096, 0.0f);
  for (const bool serial : {false, true}) {
    dtdbd::KernelPool pool(serial ? 1 : dtdbd::GetNumThreads());
    dtdbd::ScopedKernelPool scoped(&pool);
    const double us = MedianCallUs(9, 200, [&] {
      dtdbd::ParallelFor(static_cast<int64_t>(out.size()), 64,
                         [&](int64_t begin, int64_t end) {
                           for (int64_t i = begin; i < end; ++i) out[i] += 1.0f;
                         });
    });
    result->metrics[serial ? "common.parallel_for_us.t1"
                           : "common.parallel_for_us.default"] = us;
  }
}

void ProbeEncoder(const dtdbd::text::FrozenEncoder& encoder,
                  const std::vector<int>& ids, int64_t seq_len,
                  SpanRecorder* spans, uint64_t parent, Result* result) {
  ScopedSpan span(spans, "probe.text", parent);
  for (const int64_t b : {int64_t{1}, int64_t{16}, int64_t{64}}) {
    const std::vector<int> batch(ids.begin(), ids.begin() + b * seq_len);
    result->metrics["text.encode_us.b" + std::to_string(b)] =
        MedianCallUs(9, static_cast<int>(128 / b) + 4,
                     [&] { (void)encoder.Encode(batch, b, seq_len); });
  }
}

// --- Host ------------------------------------------------------------------

std::vector<std::pair<std::string, std::string>> HostFingerprint() {
  __builtin_cpu_init();
  return {
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"avx512f", __builtin_cpu_supports("avx512f") ? "yes" : "no"},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", __VERSION__},
      {"kernel_threads", std::to_string(dtdbd::GetNumThreads())},
  };
}

std::vector<std::string> TuningVariablesSet() {
  static const char* const kVars[] = {
      "DTDBD_NUM_THREADS", "DTDBD_SERVE_WORKERS", "DTDBD_CACHE_BYTES",
      "DTDBD_NO_SIMD",     "DTDBD_NO_FUSION",     "DTDBD_INT8",
      "DTDBD_FEEDBACK_RING", "DTDBD_DRIFT_WINDOW"};
  std::vector<std::string> set;
  for (const char* var : kVars) {
    if (std::getenv(var) != nullptr) set.push_back(var);
  }
  return set;
}

}  // namespace perfbench
