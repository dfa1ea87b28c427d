// The two serving workloads: MDFEND behind net::SocketServer with library
// default ServerOptions, driven over loopback TCP.
//
//   serve_unique  cache off; every request's content is distinct, so the
//                 forward path (models/text/tensor/common) does the work.
//   serve_repeat  prediction cache on at 4 MiB; zipf(1.2) over a 64-request
//                 hot set, so net, admission and the cache read path
//                 dominate.
//
// Load comes from this process over 2 connections:
//   closed loop  one thread per connection keeps 32 requests in flight, so
//                the server is saturated whatever its speed. The untraced
//                run is one closed segment and reports the process CPU time
//                per OK reply.
//   open loop    traced run only: Poisson arrivals at a fixed 500 req/s (one
//                sender and one receiver thread per connection); latency is
//                timed from each request's scheduled send, so generator
//                stalls count.
// Every reply is filed under its request id (each id must be answered
// exactly once) and every OK reply's p_fake is checked bitwise against an
// in-process InferenceSession::PredictBatch reference on the same weights.
// The generator keeps O(distinct contents) state per phase, not O(requests),
// so a faster server does not inflate the process's peak memory.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "data/generator.h"
#include "dtdbd/trainer.h"
#include "harness.h"
#include "models/model.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/socket_server.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tensor/registry.h"
#include "text/frozen_encoder.h"

namespace perfbench {
namespace {

using namespace dtdbd;

constexpr double kCorpusScale = 0.1;  // Weibo21-like, ~900 news items
constexpr int64_t kEncoderDim = 32;
constexpr int kConnections = 2;
// All connections together: about a third of what one default worker
// serves on a 4-vCPU host, so queueing stays moderate.
constexpr double kOpenRatePerS = 500.0;
constexpr int kWindow = 32;               // closed loop, per connection
constexpr int64_t kRepeatCacheBytes = 4 << 20;
constexpr size_t kHotSet = 64;
constexpr double kZipfExponent = 1.2;
constexpr int kSetupRepeats = 9;
constexpr int kWarmupRequests = 64;
constexpr int64_t kSliceNs = 250'000'000;    // closed-loop measurement slices
constexpr int64_t kReceiveTimeoutMs = 5000;  // a reply later than this is missing
constexpr double kLateFlagUs = 1000.0;       // generator "fell behind" above this
constexpr int64_t kSpinNs = 200'000;         // open-loop senders spin this close to due
constexpr size_t kReferenceBatch = 64;
constexpr int kSendRing = 1024;  // > kWindow: send times of in-flight requests
// The traced closed loop records every request's spans until the recorder
// holds this many, then one request in kSpanSample (keeps the trace small
// when the cache answers ~100k requests per second).
constexpr size_t kSpanBudget = 50'000;
constexpr uint64_t kSpanSample = 64;

// The traced run alternates open-loop and closed-loop segments, one pair
// per cycle, so that a slow spell of the host hits both phases alike.
constexpr double kCycleSeconds = 1.5;
constexpr double kOpenShare = 0.4;  // of each cycle
constexpr int kMaxCycles = 63;      // 4 streams per cycle + stream 0 < 256
// The traced run's first open segment is long enough (> the server's
// 1024-sample latency ring) that server-side percentiles read after it
// cover open-loop requests only.
constexpr double kTracedFirstOpenSeconds = 3.0;

// Request ids are [stream:8][hot-set slot:8][sequence:48]; the content key
// follows from the id alone. Unique-content keys are
// stream * kStreamStride + sequence. Stream 0 holds the warm-up (sequence
// 0-63) and probe (64-127) contents; cycle c uses streams 1 + 4c + {0, 1}
// for its open segment and 1 + 4c + {2, 3} for its closed segment.
constexpr uint64_t kStreamStride = uint64_t{1} << 24;
constexpr uint64_t kProbeKeyBase = kWarmupRequests;
constexpr uint64_t kSeqMask = (uint64_t{1} << 48) - 1;

// Request contents for both traffic shapes, derived only from the corpus
// and the workload seed.
class Traffic {
 public:
  Traffic(const data::NewsDataset& corpus, bool repeat, uint64_t seed)
      : repeat_(repeat), radix_(corpus.vocab->size() - 1) {
    pool_.reserve(corpus.samples.size());
    for (const auto& sample : corpus.samples) {
      serve::InferenceRequest request;
      request.tokens = sample.tokens;
      request.domain = sample.domain;
      request.style = sample.style;
      request.emotion = sample.emotion;
      pool_.push_back(std::move(request));
    }
    std::vector<size_t> order(pool_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::mt19937_64 rng(seed ^ 0x5EEDF00Dull);
    std::shuffle(order.begin(), order.end(), rng);
    hot_.assign(order.begin(), order.begin() + std::min(kHotSet, order.size()));
    for (size_t rank = 0; rank < hot_.size(); ++rank) {
      zipf_weights_.push_back(
          1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent));
    }
  }

  bool repeat() const { return repeat_; }

  // The id of the `seq`-th request on `stream`; `slot` is the hot-set slot
  // (repeat traffic) or ignored.
  uint64_t Id(uint64_t stream, uint64_t slot, uint64_t seq) const {
    return (stream << 56) | ((repeat_ ? slot : 0) << 48) | seq;
  }
  uint64_t KeyOf(uint64_t id) const {
    return repeat_ ? (id >> 48) & 0xFF : (id >> 56) * kStreamStride + (id & kSeqMask);
  }
  // Hot-set slot for the next repeat request (zipf by slot rank).
  std::discrete_distribution<uint64_t> Zipf() const {
    return {zipf_weights_.begin(), zipf_weights_.end()};
  }

  serve::InferenceRequest Make(uint64_t key) const {
    return repeat_ ? pool_[hot_[key]] : MakeUnique(key);
  }

  // A corpus item with four leading tokens overwritten by the key's digits
  // in base (vocab - 1), offset past PAD: distinct keys give distinct
  // contents.
  serve::InferenceRequest MakeUnique(uint64_t key) const {
    serve::InferenceRequest request = pool_[key % pool_.size()];
    uint64_t rest = key;
    for (size_t d = 0; d < 4; ++d) {
      request.tokens[d] = 1 + static_cast<int>(rest % static_cast<uint64_t>(radix_));
      rest /= static_cast<uint64_t>(radix_);
    }
    return request;
  }

 private:
  bool repeat_;
  int radix_;
  std::vector<serve::InferenceRequest> pool_;
  std::vector<size_t> hot_;
  std::vector<double> zipf_weights_;
};

// Everything set-up builds. Members are destroyed in reverse order: the
// socket front end stops before the server it feeds, and the encoder
// outlives every model that points at it.
struct Stack {
  data::NewsDataset corpus;
  std::unique_ptr<text::FrozenEncoder> encoder;
  models::ModelConfig config;
  serve::RequestLimits limits;
  std::unique_ptr<Traffic> traffic;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<net::SocketServer> net;
  double generate_s = 0.0;
};

std::unique_ptr<Stack> BuildStack(const Options& options, bool repeat,
                                  Result* result) {
  auto stack = std::make_unique<Stack>();
  const int64_t t0 = NowNs();
  stack->corpus =
      data::GenerateCorpus(data::Weibo21Config(kCorpusScale, options.seed));
  stack->generate_s = static_cast<double>(NowNs() - t0) / 1e9;
  stack->encoder = std::make_unique<text::FrozenEncoder>(
      stack->corpus.vocab->size(), kEncoderDim, options.seed + 1);
  stack->config.vocab_size = stack->corpus.vocab->size();
  stack->config.num_domains = stack->corpus.num_domains();
  stack->config.encoder = stack->encoder.get();
  stack->config.seed = options.seed + 2;
  stack->limits.vocab_size = stack->config.vocab_size;
  stack->limits.num_domains = stack->config.num_domains;
  stack->limits.seq_len = stack->corpus.seq_len;
  stack->traffic = std::make_unique<Traffic>(stack->corpus, repeat, options.seed);

  // Library defaults for every knob the workload does not name.
  serve::ServerOptions server_options;
  server_options.cache_bytes = repeat ? kRepeatCacheBytes : 0;
  stack->server = std::make_unique<serve::Server>(
      std::make_unique<serve::InferenceSession>(
          models::CreateModel("MDFEND", stack->config), stack->limits,
          /*model_version=*/1),
      std::move(server_options));
  stack->net = std::make_unique<net::SocketServer>(stack->server.get(),
                                                   net::SocketServerOptions());
  const Status started = stack->net->Start();
  if (!started.ok()) {
    result->Fail("socket server did not start: " + started.ToString());
    return nullptr;
  }
  // Warm-up over the wire with contents no phase sends.
  net::Client client;
  Status status = client.Connect("127.0.0.1", stack->net->port());
  for (uint64_t i = 0; status.ok() && i < kWarmupRequests; ++i) {
    net::WireResponse response;
    status = client.Call(i + 1, 0, stack->traffic->MakeUnique(i), &response);
    if (status.ok() && response.code != net::WireCode::kOk) {
      status = Status::Internal(std::string("warm-up reply ") +
                                net::WireCodeName(response.code));
    }
  }
  if (!status.ok()) {
    result->Fail("warm-up failed: " + status.ToString());
    return nullptr;
  }
  return stack;
}

// First OK reply per content key, and how many later OK replies differed
// from it bitwise.
struct KeyReplies {
  float first = 0.0f;
  int64_t ok = 0;
  int64_t differ = 0;
};

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof(float)) == 0; }

// The replies one connection received in one phase.
struct Book {
  uint64_t stream = 0;
  int64_t sent = 0;
  std::vector<bool> answered;  // per sequence number
  std::unordered_map<uint64_t, KeyReplies> by_key;
  int64_t ok = 0, refused = 0, shed = 0, other = 0, duplicate = 0, unknown = 0;

  // Files one reply; returns its sequence number, or -1 when the id is not
  // one this connection sent (or was already answered).
  int64_t File(const Traffic& traffic, const net::WireResponse& response) {
    const uint64_t id = response.request_id;
    const uint64_t seq = id & kSeqMask;
    if ((id >> 56) != stream || seq >= answered.size()) {
      ++unknown;
      return -1;
    }
    if (answered[seq]) {
      ++duplicate;
      return -1;
    }
    answered[seq] = true;
    switch (response.code) {
      case net::WireCode::kOk: {
        ++ok;
        auto [it, inserted] = by_key.try_emplace(traffic.KeyOf(id));
        if (inserted) it->second.first = response.prediction.p_fake;
        if (!SameBits(it->second.first, response.prediction.p_fake)) {
          ++it->second.differ;
        }
        ++it->second.ok;
        break;
      }
      case net::WireCode::kRetryLater: ++refused; break;
      case net::WireCode::kDeadlineExceeded: ++shed; break;
      default: ++other; break;
    }
    return static_cast<int64_t>(seq);
  }
};

struct Counters {
  serve::HealthReport health;
  net::NetStats net;
};

Counters Snapshot(const Stack& stack) {
  return {stack.server->Health(), stack.net->Stats()};
}

struct PhaseRun {
  const char* name = "";
  std::vector<Book> books;  // one per connection
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double stolen_s = 0.0;  // CPU time the host took from this machine meanwhile
  Counters before, after;
  // Open loop only (bounded by the fixed rate, not by server speed).
  std::vector<double> latency_ms;  // OK replies, from scheduled send
  std::vector<double> late_us;     // how late each send left
  double send_us_total = 0.0;      // time inside Client::Send
  // Closed loop only: OK replies per kSliceNs slice, and the process CPU
  // clock and the host's stolen CPU seconds at each slice boundary (one
  // more entry than slices).
  std::vector<int64_t> slice_ok;
  std::vector<int64_t> slice_cpu_ns;
  std::vector<double> slice_stolen_s;

  int64_t sent() const {
    int64_t n = 0;
    for (const Book& b : books) n += b.sent;
    return n;
  }
};

// Connects one client per connection and snapshots the counters; false
// (after recording why) when a connection fails.
bool StartPhase(Stack* stack, double seconds, std::vector<net::Client>* clients,
                PhaseRun* run, Result* result) {
  clients->resize(kConnections);
  for (auto& client : *clients) {
    const Status connected = client.Connect("127.0.0.1", stack->net->port());
    if (!connected.ok()) {
      result->Fail(std::string(run->name) + " loop connect: " + connected.ToString());
      return false;
    }
  }
  run->books.resize(kConnections);
  run->stolen_s = -StolenCpuSeconds();
  run->before = Snapshot(*stack);
  run->start_ns = NowNs() + 20'000'000;  // lets every thread reach the line
  run->end_ns = run->start_ns + static_cast<int64_t>(seconds * 1e9);
  return true;
}

// Snapshots the counters once the IO thread has counted every flushed
// response (a client can read a reply a moment before the server's send()
// returns and bumps responses_sent).
void EndPhase(const Stack& stack, PhaseRun* run) {
  run->stolen_s += StolenCpuSeconds();
  const int64_t sent = run->sent();
  run->after = Snapshot(stack);
  for (int i = 0; i < 200; ++i) {
    if (run->after.net.responses_sent - run->before.net.responses_sent >= sent) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    run->after = Snapshot(stack);
  }
}

void SleepUntilNs(int64_t ns) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns)));
}

// Open loop: a precomputed Poisson schedule per connection, sent on time
// whatever is outstanding.
PhaseRun RunOpenLoop(Stack* stack, uint64_t seed, double seconds,
                     uint64_t stream_base, SpanRecorder* spans, uint64_t parent,
                     Result* result) {
  PhaseRun run;
  run.name = "open";
  std::vector<net::Client> clients;
  if (!StartPhase(stack, seconds, &clients, &run, result)) return run;
  const Traffic& traffic = *stack->traffic;
  struct Schedule {
    std::vector<int64_t> due_ns;
    std::vector<uint64_t> slot;
    std::vector<double> latency_ms, late_us;
    double send_us = 0.0;
  };
  std::vector<Schedule> schedules(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    Schedule& s = schedules[c];
    const uint64_t stream = stream_base + static_cast<uint64_t>(c);
    std::mt19937_64 rng(seed * 1000003 + 17 * stream);
    std::exponential_distribution<double> gap(kOpenRatePerS / kConnections);
    auto zipf = traffic.Zipf();
    for (double t = gap(rng); t < seconds; t += gap(rng)) {
      s.due_ns.push_back(run.start_ns + static_cast<int64_t>(t * 1e9));
      s.slot.push_back(traffic.repeat() ? zipf(rng) : 0);
    }
    run.books[c].stream = stream;
    run.books[c].answered.assign(s.due_ns.size(), false);
    s.latency_ms.reserve(s.due_ns.size());
    s.late_us.reserve(s.due_ns.size());
  }

  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {  // sender
      Schedule& s = schedules[c];
      Book& book = run.books[c];
      for (uint64_t i = 0; i < s.due_ns.size(); ++i) {
        const uint64_t id = traffic.Id(book.stream, s.slot[i], i);
        const serve::InferenceRequest request = traffic.Make(traffic.KeyOf(id));
        // Sleep to just short of the due time, then spin: a timer wake-up
        // alone can be late by a few hundred microseconds, which would be
        // charged to the server.
        SleepUntilNs(s.due_ns[i] - kSpinNs);
        while (NowNs() < s.due_ns[i]) {
        }
        const int64_t t0 = NowNs();
        s.late_us.push_back(static_cast<double>(t0 - s.due_ns[i]) / 1e3);
        const bool ok = clients[c].Send(id, 0, request).ok();
        const int64_t t1 = NowNs();
        s.send_us += static_cast<double>(t1 - t0) / 1e3;
        spans->Record("send", t0, t1, parent, id);
        if (!ok) break;
        ++book.sent;
      }
    });
    threads.emplace_back([&, c] {  // receiver
      Schedule& s = schedules[c];
      Book& book = run.books[c];
      for (size_t got = 0; got < s.due_ns.size(); ++got) {
        net::WireResponse response;
        const int64_t t0 = NowNs();
        if (!clients[c].Receive(&response, kReceiveTimeoutMs).ok()) break;
        const int64_t done = NowNs();
        const int64_t seq = book.File(traffic, response);
        if (seq < 0) continue;
        const int64_t due = s.due_ns[static_cast<size_t>(seq)];
        if (response.code == net::WireCode::kOk) {
          s.latency_ms.push_back(static_cast<double>(done - due) / 1e6);
        }
        const uint64_t request = spans->Record("request", due, done, parent,
                                               response.request_id);
        spans->Record("receive", t0, done, request, response.request_id);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Schedule& s : schedules) {
    run.latency_ms.insert(run.latency_ms.end(), s.latency_ms.begin(), s.latency_ms.end());
    run.late_us.insert(run.late_us.end(), s.late_us.begin(), s.late_us.end());
    run.send_us_total += s.send_us;
  }
  EndPhase(*stack, &run);
  return run;
}

// Closed loop: one thread per connection keeps kWindow requests in flight
// until the phase ends, then drains.
PhaseRun RunClosedLoop(Stack* stack, uint64_t seed, double seconds, uint64_t stream_base,
                       SpanRecorder* spans, uint64_t parent, Result* result) {
  PhaseRun run;
  run.name = "closed";
  std::vector<net::Client> clients;
  if (!StartPhase(stack, seconds, &clients, &run, result)) return run;
  const Traffic& traffic = *stack->traffic;
  const size_t slices = static_cast<size_t>((run.end_ns - run.start_ns) / kSliceNs);
  std::vector<std::vector<int64_t>> slice_ok(kConnections,
                                             std::vector<int64_t>(slices, 0));
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Book& book = run.books[c];
      book.stream = stream_base + static_cast<uint64_t>(c);
      std::mt19937_64 rng(seed * 104729 + 31 * book.stream);
      auto zipf = traffic.Zipf();
      std::vector<int64_t> send_ring(kSendRing, 0);
      bool healthy = true;
      auto traced = [&](uint64_t seq) {
        return spans->enabled() &&
               (seq % kSpanSample == 0 || spans->size() < kSpanBudget);
      };
      auto send_next = [&] {
        const uint64_t seq = book.answered.size();
        const uint64_t id = traffic.Id(book.stream, traffic.repeat() ? zipf(rng) : 0, seq);
        const serve::InferenceRequest request = traffic.Make(traffic.KeyOf(id));
        book.answered.push_back(false);
        const int64_t t0 = NowNs();
        healthy = clients[c].Send(id, 0, request).ok();
        if (traced(seq)) {
          send_ring[seq % kSendRing] = t0;
          spans->Record("send", t0, NowNs(), parent, id);
        }
        if (healthy) ++book.sent;
      };
      SleepUntilNs(run.start_ns);
      int64_t outstanding = 0;
      for (int w = 0; w < kWindow && healthy; ++w, ++outstanding) send_next();
      while (outstanding > 0) {
        net::WireResponse response;
        const int64_t t0 = NowNs();
        if (!clients[c].Receive(&response, kReceiveTimeoutMs).ok()) break;
        const int64_t done = NowNs();
        const int64_t seq = book.File(traffic, response);
        --outstanding;
        if (seq >= 0 && response.code == net::WireCode::kOk && done >= run.start_ns) {
          const size_t slice = static_cast<size_t>((done - run.start_ns) / kSliceNs);
          if (slice < slices) ++slice_ok[c][slice];
        }
        if (seq >= 0 && traced(static_cast<uint64_t>(seq))) {
          const uint64_t request =
              spans->Record("request", send_ring[static_cast<uint64_t>(seq) % kSendRing],
                            done, parent, response.request_id);
          spans->Record("receive", t0, done, request, response.request_id);
        }
        if (healthy && done < run.end_ns) {
          send_next();
          ++outstanding;
        }
      }
    });
  }
  // This thread only reads the clocks at every slice boundary.
  run.slice_cpu_ns.assign(slices + 1, 0);
  run.slice_stolen_s.assign(slices + 1, 0.0);
  for (size_t s = 0; s <= slices; ++s) {
    SleepUntilNs(run.start_ns + static_cast<int64_t>(s) * kSliceNs);
    run.slice_cpu_ns[s] = ProcessCpuNs();
    run.slice_stolen_s[s] = StolenCpuSeconds();
  }
  for (std::thread& t : threads) t.join();
  run.slice_ok.assign(slices, 0);
  for (const auto& per_conn : slice_ok) {
    for (size_t s = 0; s < slices; ++s) run.slice_ok[s] += per_conn[s];
  }
  EndPhase(*stack, &run);
  return run;
}

// Median over every full slice of the segments, in OK replies/s.
double ClosedThroughput(const std::vector<PhaseRun>& runs) {
  std::vector<double> rates;
  for (const PhaseRun& run : runs) {
    for (int64_t n : run.slice_ok) {
      rates.push_back(static_cast<double>(n) * 1e9 / static_cast<double>(kSliceNs));
    }
  }
  return Median(std::move(rates));
}

// The process CPU time (server, socket front end and client together) per
// OK reply, in us: the median over the least-stolen slices of the segments
// (see LeastStolenWindows).
double ClosedCpuPerReplyUs(const std::vector<PhaseRun>& runs) {
  std::vector<double> per_reply, stolen;
  for (const PhaseRun& run : runs) {
    for (size_t s = 0; s < run.slice_ok.size(); ++s) {
      if (run.slice_ok[s] == 0) continue;
      per_reply.push_back(
          static_cast<double>(run.slice_cpu_ns[s + 1] - run.slice_cpu_ns[s]) / 1e3 /
          static_cast<double>(run.slice_ok[s]));
      stolen.push_back(run.slice_stolen_s[s + 1] - run.slice_stolen_s[s]);
    }
  }
  return Median(LeastStolen(per_reply, stolen));
}

// The reply oracle: references from an in-process session on the same
// weights, computed once per distinct content key, in batches.
class Oracle {
 public:
  explicit Oracle(const Stack& stack)
      : traffic_(stack.traffic.get()),
        session_(models::CreateModel("MDFEND", stack.config), stack.limits,
                 /*model_version=*/1) {}

  serve::InferenceSession* session() { return &session_; }

  // Computes references for every key not seen yet; false (with `why`) if
  // the reference session itself refused a request.
  bool Prepare(const std::vector<uint64_t>& keys, std::string* why) {
    std::vector<uint64_t> todo;
    for (uint64_t key : keys) {
      if (reference_.emplace(key, 0.0f).second) todo.push_back(key);
    }
    std::sort(todo.begin(), todo.end());
    for (size_t begin = 0; begin < todo.size(); begin += kReferenceBatch) {
      const size_t end = std::min(todo.size(), begin + kReferenceBatch);
      std::vector<serve::InferenceRequest> requests;
      for (size_t i = begin; i < end; ++i) requests.push_back(traffic_->Make(todo[i]));
      std::vector<const serve::InferenceRequest*> batch;
      for (const auto& r : requests) batch.push_back(&r);
      const auto answers = session_.PredictBatch(batch);
      for (size_t i = begin; i < end; ++i) {
        const auto& answer = answers[i - begin];
        if (!answer.ok()) {
          *why = "reference session refused a request: " + answer.status().ToString();
          return false;
        }
        reference_[todo[i]] = answer.value().p_fake;
      }
    }
    return true;
  }

  // Self-test hook: flips the lowest mantissa bit of one reference.
  void Corrupt(uint64_t key) {
    float& value = reference_.at(key);
    uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    bits ^= 1u;
    std::memcpy(&value, &bits, sizeof(bits));
  }

  float Reference(uint64_t key) const { return reference_.at(key); }

 private:
  const Traffic* traffic_;
  serve::InferenceSession session_;
  std::unordered_map<uint64_t, float> reference_;
};

std::vector<uint64_t> Keys(const PhaseRun& run) {
  std::vector<uint64_t> keys;
  for (const Book& b : run.books) {
    for (const auto& [key, replies] : b.by_key) keys.push_back(key);
  }
  return keys;
}

// Counts the phase's failed requests: refused, shed, other error codes,
// missing, duplicate or unknown replies, and OK replies whose p_fake is not
// bitwise the reference. All but refused and shed also make the run
// incorrect.
int64_t JudgePhase(const PhaseRun& run, const Oracle& oracle, Result* result) {
  int64_t refused = 0, shed = 0, other = 0, missing = 0, duplicate = 0,
          unknown = 0, wrong = 0;
  for (const Book& b : run.books) {
    refused += b.refused;
    shed += b.shed;
    other += b.other;
    duplicate += b.duplicate;
    unknown += b.unknown;
    missing += b.sent - (b.ok + b.refused + b.shed + b.other);
    for (const auto& [key, replies] : b.by_key) {
      wrong += SameBits(replies.first, oracle.Reference(key))
                   ? replies.differ
                   : replies.ok - replies.differ;
    }
  }
  const int64_t failed =
      refused + shed + other + missing + duplicate + unknown + wrong;
  const int64_t frames =
      run.after.net.frames_received - run.before.net.frames_received;
  if (frames != run.sent()) {
    result->Fail(std::string(run.name) + " loop: the server counted " +
                 std::to_string(frames) + " frames for " +
                 std::to_string(run.sent()) + " requests sent");
  }
  if (failed > 0) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s loop: %lld failed (refused %lld, shed %lld, other %lld, "
                  "missing %lld, duplicate %lld, unknown id %lld, wrong %lld)",
                  run.name, static_cast<long long>(failed),
                  static_cast<long long>(refused), static_cast<long long>(shed),
                  static_cast<long long>(other), static_cast<long long>(missing),
                  static_cast<long long>(duplicate),
                  static_cast<long long>(unknown), static_cast<long long>(wrong));
    // RETRY_LATER and DEADLINE_EXCEEDED are the typed answers of an
    // overloaded server: failed requests, not wrong outputs.
    if (failed > refused + shed) {
      result->Fail(buf);
    } else {
      std::printf("overload: %s\n", buf);
    }
  }
  return failed;
}

int64_t ForwardElements(const serve::HealthReport& h) {
  int64_t n = 0;
  for (size_t s = 0; s < h.batch_size_histogram.size(); ++s) {
    n += static_cast<int64_t>(s) * h.batch_size_histogram[s];
  }
  return n;
}

// Sums the counter deltas over every segment of one phase. Server-side
// percentiles come from `ring`'s closing snapshot: the server keeps a ring
// of its most recent 1024 request latencies, not per-phase totals.
void RecordPhaseCounters(const std::vector<PhaseRun>& runs, const PhaseRun& ring,
                         Result* result) {
  double requests = 0, frames = 0, responses = 0, inflight_rejected = 0,
         bad_frames = 0, bytes = 0, elements = 0, batches = 0, queue_wait_ms = 0,
         compute_ms = 0, served = 0, hits = 0, misses = 0, evicted = 0,
         queue_full = 0, shed = 0;
  for (const PhaseRun& run : runs) {
    const net::NetStats& a = run.after.net;
    const net::NetStats& b = run.before.net;
    const serve::HealthReport& ha = run.after.health;
    const serve::HealthReport& hb = run.before.health;
    requests += static_cast<double>(run.sent());
    frames += static_cast<double>(a.frames_received - b.frames_received);
    responses += static_cast<double>(a.responses_sent - b.responses_sent);
    inflight_rejected += static_cast<double>(a.inflight_rejected - b.inflight_rejected);
    bad_frames += static_cast<double>(a.bad_frames - b.bad_frames);
    bytes += static_cast<double>(a.bytes_read - b.bytes_read + a.bytes_written -
                                 b.bytes_written);
    elements += static_cast<double>(ForwardElements(ha) - ForwardElements(hb));
    batches += static_cast<double>(ha.batches_run - hb.batches_run);
    queue_wait_ms += ha.queue_wait_ms_total - hb.queue_wait_ms_total;
    compute_ms += ha.compute_ms_total - hb.compute_ms_total;
    served += static_cast<double>(ha.served_ok - hb.served_ok);
    hits += static_cast<double>(ha.cache_hits - hb.cache_hits + ha.deduped - hb.deduped);
    misses += static_cast<double>(ha.cache_misses - hb.cache_misses);
    evicted += static_cast<double>(ha.cache_evicted - hb.cache_evicted);
    queue_full += static_cast<double>(ha.rejected_queue_full - hb.rejected_queue_full);
    shed += static_cast<double>(ha.shed_deadline - hb.shed_deadline);
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const std::string p = std::string(".") + ring.name;
  auto& m = result->metrics;
  m["net.frames_received" + p] = frames;
  m["net.responses_sent" + p] = responses;
  m["net.inflight_rejected" + p] = inflight_rejected;
  m["net.bad_frames" + p] = bad_frames;
  m["net.bytes_per_request" + p] = ratio(bytes, requests);
  m["serve.queue_wait_us_avg" + p] = 1e3 * ratio(queue_wait_ms, elements);
  m["serve.compute_us_avg" + p] = 1e3 * ratio(compute_ms, batches);
  m["serve.avg_batch_size" + p] = ratio(elements, batches);
  m["serve.server_p50_ms" + p] = ring.after.health.p50_latency_ms;
  m["serve.server_p99_ms" + p] = ring.after.health.p99_latency_ms;
  m["serve.rejected_queue_full" + p] = queue_full;
  m["serve.shed_deadline" + p] = shed;
  m["serve.cache_hit_frac" + p] = ratio(hits, served);
  m["serve.cache_misses" + p] = misses;
  m["serve.cache_evicted" + p] = evicted;
}

// Per-op forward time per served request, plus allocation counters.
void RecordServingOpStats(int64_t requests, Result* result) {
  if (requests <= 0) return;
  const auto stats = tensor::GetOpStats();
  const double n = static_cast<double>(requests);
  auto& m = result->metrics;
  for (const std::string& op : ProfiledOps()) {
    const auto it = stats.find(op);
    m["tensor." + op + ".fwd_us"] =
        it == stats.end() ? 0.0 : static_cast<double>(it->second.forward_ns) / 1e3 / n;
  }
  const tensor::OpStats total = tensor::TotalOpStats();
  m["tensor.allocs_per_request"] = static_cast<double>(total.allocs) / n;
  m["tensor.bytes_per_request"] = static_cast<double>(total.bytes) / n;
  m["tensor.graph_recorded"] = static_cast<double>(total.graph_recorded);
}

// The traced run's standalone probes, each timing one layer's public
// functions on this workload's requests.
void RunProbes(Stack* stack, Oracle* oracle, SpanRecorder* spans,
               uint64_t parent, Result* result) {
  auto& m = result->metrics;
  const Traffic& traffic = *stack->traffic;
  std::vector<serve::InferenceRequest> requests;
  for (uint64_t i = 0; i < 64; ++i) {
    requests.push_back(traffic.repeat() ? traffic.Make(i % kHotSet)
                                        : traffic.MakeUnique(kProbeKeyBase + i));
  }
  {  // net: the wire codec.
    ScopedSpan span(spans, "probe.net", parent);
    std::vector<std::string> frames;
    for (size_t i = 0; i < requests.size(); ++i) {
      frames.push_back(net::EncodeRequestFrame(i + 1, 0, requests[i]));
    }
    size_t r = 0;
    m["net.codec_decode_request_us"] = MedianCallUs(15, 200, [&] {
      const std::string& f = frames[r++ % frames.size()];
      serve::InferenceRequest decoded;
      (void)net::DecodeRequestPayload(
          reinterpret_cast<const uint8_t*>(f.data()) + net::kFrameHeaderSize,
          f.size() - net::kFrameHeaderSize, &decoded);
    });
    serve::Prediction prediction;
    prediction.p_fake = 0.25f;
    prediction.model_version = 1;
    std::string response_frame;
    m["net.codec_encode_response_us"] = MedianCallUs(15, 200, [&] {
      response_frame =
          net::EncodeResponseFrame(++r, net::WireCode::kOk, 0, &prediction, "");
    });
    m["net.codec_decode_response_us"] = MedianCallUs(15, 200, [&] {
      net::WireResponse decoded;
      (void)net::DecodeResponsePayload(
          reinterpret_cast<const uint8_t*>(response_frame.data()) +
              net::kFrameHeaderSize,
          response_frame.size() - net::kFrameHeaderSize, &decoded);
    });
  }
  {  // serve: idle in-process Predict, no socket.
    ScopedSpan span(spans, "probe.serve", parent);
    size_t r = 0;
    m["serve.inproc_predict_us"] = MedianCallUs(7, 50, [&] {
      (void)stack->server->Predict(requests[r++ % requests.size()]);
    });
  }
  {  // serve: the prediction cache's read path, in process, on a server
     // whose cache holds the probe requests.
    ScopedSpan span(spans, "probe.cache", parent);
    serve::ServerOptions cached;
    cached.cache_bytes = kRepeatCacheBytes;
    serve::Server server(std::make_unique<serve::InferenceSession>(
                             models::CreateModel("MDFEND", stack->config),
                             stack->limits, /*model_version=*/1),
                         std::move(cached));
    for (const auto& request : requests) (void)server.Predict(request);
    size_t r = 0;
    m["serve.cache_hit_predict_us"] = MedianCallUs(15, 200, [&] {
      (void)server.Predict(requests[r++ % requests.size()]);
    });
  }
  double predict_b1 = 0.0;
  {  // session/models: PredictBatch on the serving kernel-pool config.
    ScopedSpan span(spans, "probe.session", parent);
    KernelPool pool(GetNumThreads());
    ScopedKernelPool scoped(&pool);
    for (const size_t b : {size_t{1}, size_t{4}, size_t{16}}) {
      std::vector<const serve::InferenceRequest*> batch;
      for (size_t i = 0; i < b; ++i) batch.push_back(&requests[i]);
      const double us = MedianCallUs(9, static_cast<int>(64 / b) + 8, [&] {
        (void)oracle->session()->PredictBatch(batch);
      });
      m["session.predict_us.b" + std::to_string(b)] = us;
      if (b == 1) predict_b1 = us;
    }
    const std::vector<const serve::InferenceRequest*> one = {&requests[0]};
    const int calls = 200;
    tensor::ResetOpStats();
    tensor::SetOpProfiling(true);
    for (int i = 0; i < calls; ++i) (void)oracle->session()->PredictBatch(one);
    tensor::SetOpProfiling(false);
    const double profiled_us =
        static_cast<double>(tensor::TotalOpStats().forward_ns) / 1e3 / calls;
    m["tensor.profiled_share_b1"] = predict_b1 > 0 ? profiled_us / predict_b1 : 0.0;
  }
  std::vector<int> ids;
  for (const auto& request : requests) {
    ids.insert(ids.end(), request.tokens.begin(), request.tokens.end());
  }
  ProbeEncoder(*stack->encoder, ids, stack->corpus.seq_len, spans, parent, result);
  m["text.encode_share_b1"] = predict_b1 > 0 ? m["text.encode_us.b1"] / predict_b1 : 0.0;
  {  // metrics: offline evaluation of the served weights over the corpus.
    ScopedSpan span(spans, "probe.metrics", parent);
    m["metrics.evaluate_ms"] =
        MedianCallUs(3, 1, [&] {
          (void)EvaluateModel(oracle->session()->model(), stack->corpus);
        }) / 1e3;
  }
}

}  // namespace

Result RunServe(const Options& options, bool repeat, SpanRecorder* spans) {
  Result result;
  // The untraced run is one closed segment; the traced run alternates open
  // and closed segments.
  const int cycles =
      options.trace ? std::clamp(static_cast<int>(std::lround(options.seconds / kCycleSeconds)),
                                 1, kMaxCycles)
                    : 1;
  const double cycle_s = static_cast<double>(options.seconds) / cycles;

  // Set-up, several times; the last stack built is the one measured.
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_cpu_s, setup_wall_s, generate_s;
  {
    ScopedSpan span(spans, "setup", 0);
    for (int k = 0; k < (options.trace ? 1 : kSetupRepeats); ++k) {
      stack.reset();
      const int64_t cpu0 = ProcessCpuNs();
      const int64_t t0 = NowNs();
      stack = BuildStack(options, repeat, &result);
      if (stack == nullptr) return result;
      setup_wall_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      setup_cpu_s.push_back(static_cast<double>(ProcessCpuNs() - cpu0) / 1e9);
      generate_s.push_back(stack->generate_s);
    }
  }
  const serve::HealthReport idle = stack->server->Health();
  std::printf("serving: workers=%lld max_batch=%lld queue_depth=%lld "
              "cache_bytes=%lld kernel_threads=%d corpus=%lld items\n",
              static_cast<long long>(idle.num_workers),
              static_cast<long long>(idle.max_batch),
              static_cast<long long>(idle.max_queue_depth),
              static_cast<long long>(idle.cache_bytes_limit), GetNumThreads(),
              static_cast<long long>(stack->corpus.size()));

  // The cycles. In the traced run every other closed segment records
  // request spans with op profiling on; the others are its untraced
  // baseline (trace_overhead_frac) and the source of the phase counters.
  std::vector<PhaseRun> opens, closeds, traced_closeds;
  int64_t traced_served = 0;
  SpanRecorder untraced(false);
  for (int c = 0; c < cycles && result.correct; ++c) {
    const uint64_t stream = 1 + 4 * static_cast<uint64_t>(c);
    if (options.trace) {
      ScopedSpan span(spans, "phase.open", 0);
      const double seconds = c == 0 ? kTracedFirstOpenSeconds : kOpenShare * cycle_s;
      opens.push_back(RunOpenLoop(stack.get(), options.seed, seconds, stream,
                                  spans, span.id(), &result));
    }
    if (!result.correct) break;
    const double seconds = options.trace ? (1.0 - kOpenShare) * cycle_s : cycle_s;
    if (options.trace && c % 2 == 1) {
      ScopedSpan span(spans, "phase.closed", 0);
      tensor::SetOpProfiling(true);
      traced_closeds.push_back(RunClosedLoop(stack.get(), options.seed, seconds,
                                             stream + 2, spans, span.id(), &result));
      tensor::SetOpProfiling(false);
      traced_served += traced_closeds.back().after.health.served_ok -
                       traced_closeds.back().before.health.served_ok;
    } else {
      ScopedSpan span(spans, "phase.closed", 0);
      closeds.push_back(RunClosedLoop(stack.get(), options.seed, seconds,
                                      stream + 2, &untraced, 0, &result));
    }
  }
  if (!result.correct) return result;
  if (options.trace) RecordServingOpStats(traced_served, &result);

  Oracle oracle(*stack);
  if (options.trace) {
    ScopedSpan span(spans, "probes", 0);
    RunProbes(stack.get(), &oracle, spans, span.id(), &result);
    ProbeParallelFor(spans, span.id(), &result);
  }

  {  // Verify every reply of every segment.
    ScopedSpan span(spans, "verify", 0);
    std::vector<const PhaseRun*> runs;
    for (const auto* kind : {&opens, &closeds, &traced_closeds}) {
      for (const PhaseRun& run : *kind) runs.push_back(&run);
    }
    std::vector<uint64_t> keys;
    for (const PhaseRun* run : runs) {
      const auto more = Keys(*run);
      keys.insert(keys.end(), more.begin(), more.end());
      result.attempted += run->sent();
    }
    std::string why;
    if (!oracle.Prepare(keys, &why)) {
      result.Fail(why);
      return result;
    }
    if (options.corrupt_reference && !keys.empty()) oracle.Corrupt(keys.front());
    for (const PhaseRun* run : runs) result.failed += JudgePhase(*run, oracle, &result);
  }

  // CPU time per reply is the median over the closed segments' slices the
  // host disturbed least; set-up CPU time is the 10th percentile of the
  // (identical) set-ups. See ProcessCpuNs for why CPU time rather than wall
  // time. Wall-clock throughput and latency are traced-run metrics.
  const double cpu_us = ClosedCpuPerReplyUs(closeds);
  const double throughput = ClosedThroughput(closeds);
  int64_t closed_sent = 0;
  size_t slices = 0;
  double closed_wall_s = 0.0, closed_stolen_s = 0.0;
  for (const PhaseRun& run : closeds) {
    closed_sent += run.sent();
    slices += run.slice_ok.size();
    closed_wall_s += static_cast<double>(run.end_ns - run.start_ns) / 1e9;
    closed_stolen_s += run.stolen_s;
  }
  const double steal_frac =
      closed_wall_s > 0
          ? closed_stolen_s / (closed_wall_s * static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
          : 0.0;
  auto& m = result.metrics;
  m["setup_s"] = NearestRank(setup_cpu_s, 0.10);
  m["cpu_us_per_item"] = cpu_us;
  std::printf("set-up: CPU %.4f s (p10 of %zu), wall %.4f s (median)\n", m["setup_s"],
              setup_cpu_s.size(), Median(setup_wall_s));
  std::printf("closed loop: %zu segments, %lld sent, window %d x %d connections; "
              "CPU %.2f us per OK reply, %.1f OK replies/s (medians of %zu slices "
              "of %.2f s); host steal %.3f of the CPUs\n",
              closeds.size(), static_cast<long long>(closed_sent), kWindow,
              kConnections, cpu_us, throughput, slices,
              static_cast<double>(kSliceNs) / 1e9, steal_frac);
  if (options.trace) {
    // Latency: medians over the open segments of each segment's own
    // percentile; p99 and generator lateness pool every open segment.
    std::vector<double> p50s, p90s, pooled_ms, late_us;
    for (const PhaseRun& run : opens) {
      p50s.push_back(NearestRank(run.latency_ms, 0.50));
      p90s.push_back(NearestRank(run.latency_ms, 0.90));
      pooled_ms.insert(pooled_ms.end(), run.latency_ms.begin(), run.latency_ms.end());
      late_us.insert(late_us.end(), run.late_us.begin(), run.late_us.end());
    }
    const double late_p99 = NearestRank(late_us, 0.99);
    m["client.throughput_per_s"] = throughput;
    m["client.p50_ms"] = Median(p50s);
    m["client.p90_ms"] = Median(p90s);
    m["client.p99_ms"] = NearestRank(pooled_ms, 0.99);
    m["client.open_samples"] = static_cast<double>(pooled_ms.size());
    m["gen.late_us_p99"] = late_p99;
    m["host.steal_frac"] = steal_frac;
    m["data.generate_s"] = Median(generate_s);
    std::printf("open loop: %zu segments at %.0f req/s, %zu replies; latency from "
                "scheduled send p50 %.4f ms, p90 %.4f ms (medians over segments), "
                "p99 %.4f ms (pooled, n=%zu); generator late p99 %.1f us "
                "(n=%zu)%s\n",
                opens.size(), kOpenRatePerS, pooled_ms.size(), m["client.p50_ms"],
                m["client.p90_ms"], m["client.p99_ms"], pooled_ms.size(), late_p99,
                late_us.size(),
                late_p99 > kLateFlagUs ? "  WARNING: generator fell behind schedule"
                                       : "");
    double send_us = 0.0;
    int64_t open_sent = 0;
    for (const PhaseRun& run : opens) {
      send_us += run.send_us_total;
      open_sent += run.sent();
    }
    m["net.client_send_us"] = open_sent > 0 ? send_us / static_cast<double>(open_sent) : 0.0;
    RecordPhaseCounters(opens, opens.front(), &result);
    RecordPhaseCounters(closeds, closeds.back(), &result);
    // Client p50 vs server p50 over the same (first, long) open segment.
    m["net.overhead_p50_us"] =
        1e3 * (NearestRank(opens.front().latency_ms, 0.50) -
               m["serve.server_p50_ms.open"]);
    const double traced = ClosedThroughput(traced_closeds);
    m["trace_overhead_frac"] = throughput > 0 ? 1.0 - traced / throughput : 0.0;
  }
  return result;
}

}  // namespace perfbench
