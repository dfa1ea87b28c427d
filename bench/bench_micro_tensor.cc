// Micro-benchmarks of the tensor/NN substrate. Not a paper artifact —
// sanity numbers for the engine the experiments run on.
//
// Default mode sweeps the hot kernels (MatMul, Conv1dSeq, Softmax,
// EmbeddingGather) across --sweep-threads (default 1,2,4,8), verifies the
// forward and backward results are bitwise identical to the 1-thread run,
// and writes BENCH_tensor.json. Pass --gbench to run the google-benchmark
// suite instead (it accepts the usual --benchmark_* flags).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "dtdbd/distill.h"
#include "models/model.h"
#include "nn/rnn.h"
#include "tensor/init.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/registry.h"
#include "text/features.h"
#include "text/frozen_encoder.h"

namespace {

using namespace dtdbd;
using tensor::Tensor;

Tensor RandomTensor(const tensor::Shape& shape, uint64_t seed,
                    bool requires_grad = false) {
  Rng rng(seed);
  return tensor::NormalInit(shape, 1.0f, &rng, requires_grad);
}

// ----- Thread-sweep mode ---------------------------------------------------

// One forward+backward evaluation of a kernel: builds fresh leaves from
// fixed seeds, reduces the op output with Sum, backprops, and returns the
// output plus every leaf gradient so runs can be compared bitwise.
struct FwdBwdResult {
  std::vector<float> out;
  std::vector<std::vector<float>> grads;
};

struct SweepOp {
  std::string name;
  std::string workload;
  std::function<Tensor()> forward;          // timed; run under NoGradGuard
  std::function<FwdBwdResult()> fwd_bwd;    // timed + bitwise-compared
};

// Leaves are built once (outside the timed region); each fwd_bwd call
// rebuilds the graph from them, zeroes grads, and backprops.
FwdBwdResult RunFwdBwd(const std::vector<Tensor>& leaves, const Tensor& out) {
  Tensor loss = tensor::Sum(out);
  loss.Backward();
  FwdBwdResult r;
  r.out = out.ToVector();
  for (const Tensor& leaf : leaves) r.grads.push_back(leaf.grad());
  return r;
}

void ZeroGrads(std::vector<Tensor>& leaves) {
  for (Tensor& leaf : leaves) leaf.ZeroGrad();
}

std::vector<SweepOp> MakeSweepOps() {
  std::vector<SweepOp> ops;

  {
    Tensor a = RandomTensor({128, 128}, 1, true);
    Tensor b = RandomTensor({128, 128}, 2, true);
    std::vector<Tensor> leaves = {a, b};
    ops.push_back({"MatMul", "a[128,128] @ b[128,128]",
                   [a, b] { return tensor::MatMul(a, b); },
                   [a, b, leaves]() mutable {
                     ZeroGrads(leaves);
                     return RunFwdBwd(leaves, tensor::MatMul(a, b));
                   }});
  }

  {
    Tensor x = RandomTensor({32, 24, 32}, 3, true);
    Tensor w = RandomTensor({32, 96}, 4, true);
    Tensor b = RandomTensor({32}, 5, true);
    std::vector<Tensor> leaves = {x, w, b};
    ops.push_back({"Conv1dSeq", "x[32,24,32], w[32,3*32], k=3",
                   [x, w, b] { return tensor::Conv1dSeq(x, w, b, 3); },
                   [x, w, b, leaves]() mutable {
                     ZeroGrads(leaves);
                     return RunFwdBwd(leaves, tensor::Conv1dSeq(x, w, b, 3));
                   }});
  }

  {
    Tensor x = RandomTensor({256, 64}, 6, true);
    std::vector<Tensor> leaves = {x};
    ops.push_back({"Softmax", "x[256,64]",
                   [x] { return tensor::Softmax(x); },
                   [x, leaves]() mutable {
                     ZeroGrads(leaves);
                     return RunFwdBwd(leaves, tensor::Softmax(x));
                   }});
  }

  {
    Tensor table = RandomTensor({5000, 64}, 8, true);
    Rng rng(7);
    std::vector<int> ids(32 * 24);
    for (auto& id : ids) id = static_cast<int>(rng.UniformInt(5000));
    std::vector<Tensor> leaves = {table};
    ops.push_back(
        {"EmbeddingGather", "table[5000,64], ids[32*24]",
         [table, ids] { return tensor::EmbeddingGather(table, ids, 32, 24); },
         [table, ids, leaves]() mutable {
           ZeroGrads(leaves);
           return RunFwdBwd(leaves,
                            tensor::EmbeddingGather(table, ids, 32, 24));
         }});
  }

  {
    Tensor x = RandomTensor({128, 64}, 20, true);
    Tensor w = RandomTensor({64, 64}, 21, true);
    Tensor b = RandomTensor({64}, 22, true);
    std::vector<Tensor> leaves = {x, w, b};
    ops.push_back({"LinearRelu", "relu(x[128,64] @ w[64,64] + b)",
                   [x, w, b] { return tensor::LinearRelu(x, w, b); },
                   [x, w, b, leaves]() mutable {
                     ZeroGrads(leaves);
                     return RunFwdBwd(leaves, tensor::LinearRelu(x, w, b));
                   }});
  }

  {
    Tensor x = RandomTensor({32, 24, 64}, 23, true);
    Tensor v = RandomTensor({64, 1}, 24, true);
    const auto attn = [x, v] {
      Tensor weights = tensor::Softmax(tensor::MatVecOverTime(x, v));
      return tensor::WeightedSumOverTime(x, weights);
    };
    std::vector<Tensor> leaves = {x, v};
    ops.push_back({"AttentionPool", "x[32,24,64] scored by v[64]",
                   attn,
                   [attn, leaves]() mutable {
                     ZeroGrads(leaves);
                     return RunFwdBwd(leaves, attn());
                   }});
  }

  return ops;
}

// ----- Scalar vs SIMD sweep -----------------------------------------------

// Single-thread forward timings of the dispatched kernels with the SIMD
// paths pinned off (DTDBD_NO_SIMD semantics) and on (the default). SIMD
// must be bitwise identical to scalar (the backend_consistency_test
// contract).
struct SimdRow {
  std::string op, workload;
  double scalar_ms = 0.0, simd_ms = 0.0;
  bool simd_bitwise_equal = false;
};

std::vector<SimdRow> RunSimdSweep();  // defined after TimeMs/SameBits

// ----- Training-step graph statistics --------------------------------------

// Synthetic batch with the shapes the paper experiments use in the quick
// profile: 16 samples x 24 tokens.
data::Batch MakeSyntheticBatch(int vocab_size) {
  data::Batch batch;
  batch.batch_size = 16;
  batch.seq_len = 24;
  Rng rng(42);
  batch.tokens.resize(batch.batch_size * batch.seq_len);
  for (auto& t : batch.tokens) {
    t = static_cast<int>(rng.UniformInt(vocab_size));
  }
  for (int64_t i = 0; i < batch.batch_size; ++i) {
    batch.labels.push_back(static_cast<int>(i % 2));
    batch.domains.push_back(static_cast<int>(i % 3));
  }
  batch.style = RandomTensor({batch.batch_size, text::kStyleFeatureDim}, 43);
  batch.emotion =
      RandomTensor({batch.batch_size, text::kEmotionFeatureDim}, 44);
  return batch;
}

struct StepStats {
  uint64_t nodes = 0;
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

// Runs one forward+backward training step under op profiling and returns
// the graph-node / allocation / byte counters accumulated by MakeOp.
StepStats MeasureStep(const std::function<void()>& step) {
  tensor::SetOpProfiling(true);
  tensor::ResetOpStats();
  step();
  const tensor::OpStats total = tensor::TotalOpStats();
  tensor::SetOpProfiling(false);
  return {total.nodes, total.allocs, total.bytes};
}

struct StepReport {
  std::string name;
  StepStats stats;
};

std::vector<StepReport> RunTrainingStepStats(
    const text::FrozenEncoder& encoder) {
  models::ModelConfig config;
  config.vocab_size = 1000;
  config.num_domains = 3;
  config.encoder = &encoder;

  const data::Batch batch = MakeSyntheticBatch(config.vocab_size);

  const auto mdfend_step = [&] {
    auto model = models::CreateModel("MDFEND", config);
    models::ModelOutput out = model->Forward(batch, /*training=*/true);
    Tensor loss = tensor::CrossEntropyLoss(out.logits, batch.labels);
    loss.Backward();
  };

  // The DTDBD step: frozen teacher forward, student forward, then
  // CE + domain-knowledge KL + adversarial-debias KL (Eq. 6/12 and 5).
  const auto dtdbd_step = [&] {
    auto teacher = models::CreateModel("MDFEND", config);
    auto student = models::CreateModel("TextCNN-S", config);
    models::ModelOutput t_out;
    {
      tensor::NoGradGuard no_grad;
      t_out = teacher->Forward(batch, /*training=*/false);
    }
    models::ModelOutput s_out = student->Forward(batch, /*training=*/true);
    Tensor loss = tensor::Add(
        tensor::CrossEntropyLoss(s_out.logits, batch.labels),
        tensor::Add(
            DomainKnowledgeDistillLoss(t_out.logits, s_out.logits, 2.0f),
            AdversarialDebiasDistillLoss(t_out.features, s_out.features,
                                         2.0f)));
    loss.Backward();
  };

  std::vector<StepReport> reports;
  const std::vector<std::pair<std::string, std::function<void()>>> steps = {
      {"mdfend_train_step", mdfend_step},
      {"dtdbd_distill_step", dtdbd_step},
  };
  for (const auto& [name, step] : steps) {
    const StepReport r{name, MeasureStep(step)};
    std::printf("%-20s %6llu nodes %6llu allocs %8.1f KiB\n", name.c_str(),
                static_cast<unsigned long long>(r.stats.nodes),
                static_cast<unsigned long long>(r.stats.allocs),
                r.stats.bytes / 1024.0);
    reports.push_back(r);
  }
  return reports;
}

// Wall-clock ms per iteration; repeats until >= 60 ms of work was measured.
template <typename Fn>
double TimeMs(const Fn& fn, int warmup = 2) {
  for (int i = 0; i < warmup; ++i) fn();
  using clock = std::chrono::steady_clock;
  int iters = 0;
  const auto start = clock::now();
  double elapsed_ms = 0.0;
  do {
    fn();
    ++iters;
    elapsed_ms = std::chrono::duration<double, std::milli>(clock::now() -
                                                           start)
                     .count();
  } while (elapsed_ms < 60.0 && iters < 10000);
  return elapsed_ms / iters;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool SameBits(const FwdBwdResult& a, const FwdBwdResult& b) {
  if (!SameBits(a.out, b.out) || a.grads.size() != b.grads.size()) {
    return false;
  }
  for (size_t i = 0; i < a.grads.size(); ++i) {
    if (!SameBits(a.grads[i], b.grads[i])) return false;
  }
  return true;
}

std::vector<SimdRow> RunSimdSweep() {
  struct Item {
    std::string name, workload;
    std::function<Tensor()> forward;
  };
  std::vector<Item> items;
  {
    Tensor a = RandomTensor({128, 128}, 30);
    Tensor b = RandomTensor({128, 128}, 31);
    items.push_back({"MatMul", "a[128,128] @ b[128,128]",
                     [a, b] { return tensor::MatMul(a, b); }});
  }
  {
    // Serving-shaped: one coalesced micro-batch through a hidden layer.
    Tensor a = RandomTensor({16, 64}, 32);
    Tensor b = RandomTensor({64, 64}, 33);
    items.push_back({"MatMul_serve", "a[16,64] @ b[64,64]",
                     [a, b] { return tensor::MatMul(a, b); }});
  }
  {
    Tensor x = RandomTensor({128, 64}, 34);
    Tensor w = RandomTensor({64, 64}, 35);
    Tensor b = RandomTensor({64}, 36);
    items.push_back({"LinearRelu", "relu(x[128,64] @ w[64,64] + b)",
                     [x, w, b] { return tensor::LinearRelu(x, w, b); }});
  }
  {
    Tensor x = RandomTensor({256, 64}, 37);
    items.push_back({"Softmax", "x[256,64]",
                     [x] { return tensor::Softmax(x); }});
  }
  {
    Tensor table = RandomTensor({5000, 64}, 38);
    Rng rng(39);
    std::vector<int> ids(32 * 24);
    for (auto& id : ids) id = static_cast<int>(rng.UniformInt(5000));
    items.push_back({"EmbeddingGather", "table[5000,64], ids[32*24]",
                     [table, ids] {
                       return tensor::EmbeddingGather(table, ids, 32, 24);
                     }});
  }

  const bool saved_simd = tensor::SimdEnabled();
  SetNumThreads(1);
  std::vector<SimdRow> rows;
  for (const Item& item : items) {
    tensor::NoGradGuard no_grad;
    SimdRow row;
    row.op = item.name;
    row.workload = item.workload;

    tensor::SetSimdEnabled(false);
    const std::vector<float> scalar_out = item.forward().ToVector();
    row.scalar_ms = TimeMs([&] { item.forward(); });

    tensor::SetSimdEnabled(true);
    const std::vector<float> simd_out = item.forward().ToVector();
    row.simd_bitwise_equal = SameBits(scalar_out, simd_out);
    row.simd_ms = TimeMs([&] { item.forward(); });
    std::printf(
        "%-16s %-28s scalar %8.4f ms  simd %8.4f ms (%.2fx, %s)\n",
        row.op.c_str(), row.workload.c_str(), row.scalar_ms, row.simd_ms,
        row.simd_ms > 0 ? row.scalar_ms / row.simd_ms : 0.0,
        row.simd_bitwise_equal ? "bitwise==scalar" : "MISMATCH");
    rows.push_back(std::move(row));
  }
  tensor::SetSimdEnabled(saved_simd);
  return rows;
}

std::vector<int> ParseThreadList(const std::string& csv) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const int v = std::atoi(csv.substr(pos, comma - pos).c_str());
    if (v > 0) out.push_back(v);
    pos = comma + 1;
  }
  return out.empty() ? std::vector<int>{1, 2, 4, 8} : out;
}

int RunSweep(const FlagParser& flags) {
  const std::vector<int> thread_counts =
      ParseThreadList(flags.GetString("sweep-threads", "1,2,4,8"));
  const std::string json_path = flags.GetString("json", "BENCH_tensor.json");
  const unsigned hw = std::thread::hardware_concurrency();

  struct Row {
    std::string op, workload;
    int threads;
    double fwd_ms, fwd_bwd_ms;
    bool bitwise_equal;
  };
  std::vector<Row> rows;
  bool all_equal = true;

  for (const SweepOp& op : MakeSweepOps()) {
    // Reference results at 1 thread; every other count must match bitwise.
    SetNumThreads(1);
    std::vector<float> ref_out;
    {
      tensor::NoGradGuard no_grad;
      ref_out = op.forward().ToVector();
    }
    const FwdBwdResult ref = op.fwd_bwd();

    for (int t : thread_counts) {
      SetNumThreads(t);
      std::vector<float> out;
      {
        tensor::NoGradGuard no_grad;
        out = op.forward().ToVector();
      }
      const bool equal = SameBits(out, ref_out) && SameBits(op.fwd_bwd(), ref);
      all_equal = all_equal && equal;

      double fwd_ms;
      {
        tensor::NoGradGuard no_grad;
        fwd_ms = TimeMs([&] { op.forward(); });
      }
      const double fwd_bwd_ms = TimeMs([&] { op.fwd_bwd(); });
      rows.push_back({op.name, op.workload, t, fwd_ms, fwd_bwd_ms, equal});
      std::printf("%-16s %-28s threads=%d  fwd %8.4f ms  fwd+bwd %8.4f ms  %s\n",
                  op.name.c_str(), op.workload.c_str(), t, fwd_ms, fwd_bwd_ms,
                  equal ? "bitwise==t1" : "MISMATCH");
    }
  }
  SetNumThreads(1);

  // Scalar vs SIMD single-thread forward sweep (DESIGN.md §8).
  const std::vector<SimdRow> simd_rows = RunSimdSweep();

  // Per-step graph statistics: node/alloc/byte counts for one MDFEND
  // training step and one DTDBD distillation step.
  const text::FrozenEncoder encoder(1000, 32, 14);
  const std::vector<StepReport> steps = RunTrainingStepStats(encoder);

  // Build the whole document in memory and write it temp-file + rename so a
  // crashed or concurrent bench run never leaves a truncated artifact.
  std::string json;
  json += "{\n";
  json += "  \"bench\": \"tensor_substrate_thread_sweep\",\n";
  json += "  \"hardware_concurrency\": " + std::to_string(hw) + ",\n";
  json +=
      "  \"note\": \"static-partition deterministic backend; results "
      "are bitwise identical across thread counts. Wall-clock "
      "speedup requires hardware_concurrency > 1; on a 1-CPU host "
      "the extra thread counts measure scheduling overhead only.\",\n";
  json += std::string("  \"all_bitwise_equal\": ") +
          (all_equal ? "true" : "false") + ",\n";
  json += "  \"results\": [\n";
  char line[512];
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::snprintf(line, sizeof(line),
                  "    {\"op\": \"%s\", \"workload\": \"%s\", \"threads\": %d, "
                  "\"fwd_ms_per_iter\": %.6f, \"fwd_bwd_ms_per_iter\": %.6f, "
                  "\"bitwise_equal_to_1_thread\": %s}%s\n",
                  r.op.c_str(), r.workload.c_str(), r.threads, r.fwd_ms,
                  r.fwd_bwd_ms, r.bitwise_equal ? "true" : "false",
                  i + 1 == rows.size() ? "" : ",");
    json += line;
  }
  json += "  ],\n";
  json += "  \"simd\": [\n";
  for (size_t i = 0; i < simd_rows.size(); ++i) {
    const SimdRow& r = simd_rows[i];
    std::snprintf(line, sizeof(line),
                  "    {\"op\": \"%s\", \"workload\": \"%s\", "
                  "\"scalar_fwd_ms\": %.6f, \"simd_fwd_ms\": %.6f, "
                  "\"simd_speedup\": %.2f, \"simd_bitwise_equal\": %s}%s\n",
                  r.op.c_str(), r.workload.c_str(), r.scalar_ms, r.simd_ms,
                  r.simd_ms > 0 ? r.scalar_ms / r.simd_ms : 0.0,
                  r.simd_bitwise_equal ? "true" : "false",
                  i + 1 == simd_rows.size() ? "" : ",");
    json += line;
  }
  json += "  ],\n";
  json += "  \"training_steps\": [\n";
  for (size_t i = 0; i < steps.size(); ++i) {
    const StepReport& s = steps[i];
    std::snprintf(
        line, sizeof(line),
        "    {\"step\": \"%s\", \"graph_nodes\": %llu, \"allocs\": %llu, "
        "\"bytes\": %llu}%s\n",
        s.name.c_str(), static_cast<unsigned long long>(s.stats.nodes),
        static_cast<unsigned long long>(s.stats.allocs),
        static_cast<unsigned long long>(s.stats.bytes),
        i + 1 == steps.size() ? "" : ",");
    json += line;
  }
  json += "  ]\n}\n";
  const Status written = AtomicWriteFile(json_path, json);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return all_equal ? 0 : 1;
}

// ----- google-benchmark suite (--gbench) -----------------------------------

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a = RandomTensor({n, n}, 1);
  Tensor b = RandomTensor({n, n}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b).data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_Conv1dSeq(benchmark::State& state) {
  const int64_t batch = 32, time = 24, embed = 32, channels = 32, k = 3;
  Tensor x = RandomTensor({batch, time, embed}, 3);
  Tensor w = RandomTensor({channels, k * embed}, 4);
  Tensor b = RandomTensor({channels}, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::Conv1dSeq(x, w, b, k).data().data());
  }
}
BENCHMARK(BM_Conv1dSeq);

void BM_SoftmaxRows(benchmark::State& state) {
  Tensor x = RandomTensor({256, 64}, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::Softmax(x).data().data());
  }
}
BENCHMARK(BM_SoftmaxRows);

void BM_PairwiseSquaredDistances(benchmark::State& state) {
  Tensor x = RandomTensor({64, 128}, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tensor::PairwiseSquaredDistances(x).data().data());
  }
}
BENCHMARK(BM_PairwiseSquaredDistances);

void BM_GruStep(benchmark::State& state) {
  Rng rng(8);
  nn::GruCell cell(32, 32, &rng);
  Tensor x = RandomTensor({32, 32}, 9);
  Tensor h = RandomTensor({32, 32}, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.Step(x, h).data().data());
  }
}
BENCHMARK(BM_GruStep);

void BM_ForwardBackwardMlp(benchmark::State& state) {
  Tensor w1 = RandomTensor({64, 64}, 11, true);
  Tensor w2 = RandomTensor({64, 2}, 12, true);
  Tensor x = RandomTensor({32, 64}, 13);
  std::vector<int> labels(32);
  for (int i = 0; i < 32; ++i) labels[i] = i % 2;
  for (auto _ : state) {
    Tensor h = tensor::Relu(tensor::MatMul(x, w1));
    Tensor logits = tensor::MatMul(h, w2);
    Tensor loss = tensor::CrossEntropyLoss(logits, labels);
    w1.ZeroGrad();
    w2.ZeroGrad();
    loss.Backward();
    benchmark::DoNotOptimize(w1.grad().data());
  }
}
BENCHMARK(BM_ForwardBackwardMlp);

void BM_FrozenEncoder(benchmark::State& state) {
  text::FrozenEncoder encoder(1000, 32, 14);
  Rng rng(15);
  std::vector<int> ids(32 * 24);
  for (auto& id : ids) id = static_cast<int>(rng.UniformInt(1000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode(ids, 32, 24).data().data());
  }
}
BENCHMARK(BM_FrozenEncoder);

void BM_DistillKl(benchmark::State& state) {
  Tensor t = RandomTensor({32, 32}, 16);
  Tensor s = RandomTensor({32, 32}, 17, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::DistillKlLoss(t, s, 2.0f).item());
  }
}
BENCHMARK(BM_DistillKl);

}  // namespace

int main(int argc, char** argv) {
  dtdbd::FlagParser flags(argc, argv);
  if (flags.GetBool("gbench", false)) {
    dtdbd::InitThreadsFromFlags(flags);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  return RunSweep(flags);
}
