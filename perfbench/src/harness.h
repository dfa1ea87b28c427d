// Shared machinery of the repository benchmark: clocks, nearest-rank
// percentiles, the metric catalogue, the span recorder behind the traced
// run's chrome-trace export, and the host fingerprint.
//
// The benchmark measures every layer from outside: it times calls into the
// layers' public functions and reads the counters they already expose
// (serve::Server::Health, net::SocketServer::Stats, tensor::GetOpStats).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dtdbd::text {
class FrozenEncoder;
}  // namespace dtdbd::text

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  // Self-test hook: flip one bit of one reference reply so the oracle must
  // report a wrong answer.
  bool corrupt_reference = false;
};

// Where the traced run writes its chrome trace and per-layer table, and
// train_dtdbd its checkpoints (relative to the repository root).
inline constexpr const char* kOutDir = "perfbench/out";

int64_t NowNs();

// CPU time all threads of this process have used so far (user + system).
// On a virtual machine with steal-time accounting, time the hypervisor took
// from a virtual CPU is not charged to the thread that was running on it, so
// this clock does not move with the host's load the way wall time does.
int64_t ProcessCpuNs();

// Nearest-rank percentile: the ceil(q * n)-th smallest value (q in (0, 1]).
// Returns 0 for an empty sample.
double NearestRank(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return NearestRank(std::move(values), 0.5);
}

// CPU time the hypervisor has taken from this machine's CPUs since boot
// (the "steal" column of /proc/stat), in seconds; 0 where not reported.
double StolenCpuSeconds();

// The measurement windows a metric is computed over: the windows in which
// the host took no more CPU than in the run's median window (about half of
// them while it takes some; all of them while it takes none). `stolen` is
// one entry per window. Steal-time accounting keeps stolen time out of the
// CPU clock, but a virtual CPU still does less per CPU second while its
// host is busy.
std::vector<size_t> LeastStolenWindows(const std::vector<double>& stolen);
// `values` (one per window) at the LeastStolenWindows of `stolen`.
std::vector<double> LeastStolen(const std::vector<double>& values,
                                const std::vector<double>& stolen);

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

// --- Metric catalogue ------------------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
};

// The end-to-end metrics every untraced run prints, in order.
const std::vector<MetricSpec>& EndToEndMetrics();
// The per-layer metrics every traced run prints, in order. A layer a
// workload does not exercise reads 0.
const std::vector<MetricSpec>& PerLayerMetrics();
// Registered tensor ops whose forward/backward time the traced run reports.
const std::vector<std::string>& ProfiledOps();

// What one workload run produced.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;  // name -> value
  std::vector<std::string> problems;      // why `correct` is false
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

// --- Spans -----------------------------------------------------------------

// In-memory span store for the traced run. Disabled recorders ignore every
// call (and read no clock), so untraced runs pay nothing. Thread-safe.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Reserves a span id (0 when disabled) so children can name their parent
  // before the parent ends.
  uint64_t NewId();
  // Records a finished span on the calling thread's lane. `request_id` 0
  // means "not a request span".
  void Add(uint64_t id, const char* name, int64_t start_ns, int64_t end_ns,
           uint64_t parent, uint64_t request_id = 0);
  // Convenience: allocates an id and records in one call.
  uint64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                  uint64_t parent, uint64_t request_id = 0);

  // Writes chrome-trace JSON ("X" events; ts/dur in microseconds since the
  // first span). `metadata` lands in the top-level "otherData" object.
  bool WriteChromeTrace(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

  size_t size() const;

 private:
  struct Span {
    uint64_t id;
    uint64_t parent;
    uint64_t request_id;
    const char* name;  // string literal
    int64_t start_ns;
    int64_t end_ns;
    int tid;
  };
  const bool enabled_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

// RAII span over a scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  const char* name_;
  uint64_t parent_;
  uint64_t id_;
  int64_t start_ns_;
};

// Times `fn` in `rounds` rounds of `calls_per_round` calls each and returns
// the median per-call time in microseconds.
template <typename Fn>
double MedianCallUs(int rounds, int calls_per_round, Fn&& fn) {
  std::vector<double> per_call;
  per_call.reserve(static_cast<size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    const int64_t t0 = NowNs();
    for (int c = 0; c < calls_per_round; ++c) fn();
    per_call.push_back(static_cast<double>(NowNs() - t0) / 1e3 /
                       calls_per_round);
  }
  return Median(std::move(per_call));
}

// Times common::ParallelFor dispatch with a trivial body at the default
// thread count and at 1 thread (common.parallel_for_us.*).
void ProbeParallelFor(SpanRecorder* spans, uint64_t parent, Result* result);

// Times FrozenEncoder::Encode at batch 1, 16 and 64 (text.encode_us.*) on
// the first rows of `ids`, 64 rows of `seq_len` token ids.
void ProbeEncoder(const dtdbd::text::FrozenEncoder& encoder,
                  const std::vector<int>& ids, int64_t seq_len,
                  SpanRecorder* spans, uint64_t parent, Result* result);

// --- Host ------------------------------------------------------------------

// nproc, AVX-512F, build type, compiler, and kernel threads in effect.
std::vector<std::pair<std::string, std::string>> HostFingerprint();

// Tuning variables that silently change the measured program. Returns the
// names of those set in the environment.
std::vector<std::string> TuningVariablesSet();

// --- Workloads -------------------------------------------------------------

// serve_unique (cache off) and serve_repeat (cache on, zipf hot set).
Result RunServe(const Options& options, bool repeat_traffic,
                SpanRecorder* spans);
// train_dtdbd.
Result RunTrain(const Options& options, SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
