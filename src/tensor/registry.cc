#include "tensor/registry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace dtdbd::tensor {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<bool> g_profiling{false};

// One atomic counter block per registered op, indexed by Op::id. Relaxed
// ordering is enough: counters are independent monotonic sums, and readers
// (GetOpStats) only run between steps, not concurrently with a kernel that
// matters for the numbers they report.
struct AtomicOpStats {
  std::atomic<uint64_t> forward_calls{0};
  std::atomic<uint64_t> forward_ns{0};
  std::atomic<uint64_t> backward_calls{0};
  std::atomic<uint64_t> backward_ns{0};
  std::atomic<uint64_t> nodes{0};
  std::atomic<uint64_t> allocs{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> graph_recorded{0};
};

// Leaked like the registry itself: ops record stats from static-init
// through static-destruction time.
std::vector<std::unique_ptr<AtomicOpStats>>& StatsSlabs() {
  static auto* slabs = new std::vector<std::unique_ptr<AtomicOpStats>>();
  return *slabs;
}

AtomicOpStats& SlabOf(const Op* op) { return *StatsSlabs()[op->id]; }

bool SimdDefault() {
  const char* env = std::getenv("DTDBD_NO_SIMD");
  return env == nullptr || std::string(env) == "0";
}

std::atomic<bool>& SimdFlag() {
  static std::atomic<bool> flag{SimdDefault()};
  return flag;
}

}  // namespace

bool SimdEnabled() {
  return SimdFlag().load(std::memory_order_relaxed);
}

void SetSimdEnabled(bool enabled) {
  SimdFlag().store(enabled, std::memory_order_relaxed);
}

OpRegistry& OpRegistry::Get() {
  static auto* registry = new OpRegistry();  // leaked: outlives static dtors
  return *registry;
}

const Op* OpRegistry::Register(Op op) {
  DTDBD_CHECK(!op.name.empty());
  DTDBD_CHECK(by_name_.find(op.name) == by_name_.end())
      << "duplicate op registration: " << op.name;
  op.id = static_cast<int>(ops_.size());
  ops_.push_back(std::make_unique<Op>(std::move(op)));
  const Op* ptr = ops_.back().get();
  by_name_[ptr->name] = ptr;
  StatsSlabs().push_back(std::make_unique<AtomicOpStats>());
  return ptr;
}

const Op* OpRegistry::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

std::vector<const Op*> OpRegistry::All() const {
  std::vector<const Op*> out;
  out.reserve(ops_.size());
  for (const auto& op : ops_) out.push_back(op.get());
  return out;
}

Tensor MakeOp(const Op* op, Shape shape, std::vector<float> data,
              std::vector<Tensor> inputs, std::shared_ptr<void> saved) {
  DTDBD_CHECK(op != nullptr);
  DTDBD_CHECK(op->arity == kVariadicArity ||
              static_cast<size_t>(op->arity) == inputs.size())
      << op->name << ": expected " << op->arity << " inputs, got "
      << inputs.size();
  auto node = std::make_shared<internal::Node>();
  node->shape = std::move(shape);
  node->numel = NumElements(node->shape);
  DTDBD_CHECK_EQ(node->numel, static_cast<int64_t>(data.size()))
      << op->name << ": kernel output size mismatch";
  node->strides = CanonicalStrides(node->shape);
  node->contiguous = true;
  node->storage = std::make_shared<internal::Storage>();
  node->storage->buf = std::move(data);
  node->op = op;
  if (g_profiling.load(std::memory_order_relaxed)) {
    AtomicOpStats& slab = SlabOf(op);
    slab.nodes.fetch_add(1, std::memory_order_relaxed);
    slab.allocs.fetch_add(1, std::memory_order_relaxed);
    slab.bytes.fetch_add(node->storage->buf.size() * sizeof(float),
                         std::memory_order_relaxed);
  }
  bool any_grad = false;
  for (const auto& in : inputs) {
    DTDBD_CHECK(in.defined()) << op->name << ": undefined input";
    any_grad = any_grad || in.requires_grad();
  }
  if (GradEnabled() && any_grad) {
    node->requires_grad = true;
    for (const auto& in : inputs) node->inputs.push_back(in.node());
    node->saved = std::move(saved);
    if (g_profiling.load(std::memory_order_relaxed)) {
      SlabOf(op).graph_recorded.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Tensor::FromNode(std::move(node));
}

Tensor MakeView(const Op* op, Shape shape, Shape strides, int64_t offset,
                const Tensor& base, std::shared_ptr<void> saved) {
  DTDBD_CHECK(op != nullptr);
  DTDBD_CHECK(op->is_view) << op->name << " is not registered as a view";
  DTDBD_CHECK(base.defined()) << op->name << ": undefined input";
  auto node = std::make_shared<internal::Node>();
  node->shape = std::move(shape);
  node->strides = std::move(strides);
  node->offset = offset;
  node->numel = NumElements(node->shape);
  node->contiguous = IsContiguousLayout(node->shape, node->strides);
  node->storage = base.node()->storage;
  node->op = op;
  if (g_profiling.load(std::memory_order_relaxed)) {
    // Views add a graph node but neither allocate nor copy.
    SlabOf(op).nodes.fetch_add(1, std::memory_order_relaxed);
  }
  if (GradEnabled() && base.requires_grad()) {
    node->requires_grad = true;
    node->inputs.push_back(base.node());
    node->saved = std::move(saved);
    if (g_profiling.load(std::memory_order_relaxed)) {
      SlabOf(op).graph_recorded.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Tensor::FromNode(std::move(node));
}

void SetOpProfiling(bool enabled) {
  g_profiling.store(enabled, std::memory_order_relaxed);
}
bool OpProfilingEnabled() {
  return g_profiling.load(std::memory_order_relaxed);
}

std::map<std::string, OpStats> GetOpStats() {
  std::map<std::string, OpStats> out;
  for (const Op* op : OpRegistry::Get().All()) {
    const AtomicOpStats& slab = SlabOf(op);
    OpStats stats;
    stats.forward_calls = slab.forward_calls.load(std::memory_order_relaxed);
    stats.forward_ns = slab.forward_ns.load(std::memory_order_relaxed);
    stats.backward_calls = slab.backward_calls.load(std::memory_order_relaxed);
    stats.backward_ns = slab.backward_ns.load(std::memory_order_relaxed);
    stats.nodes = slab.nodes.load(std::memory_order_relaxed);
    stats.allocs = slab.allocs.load(std::memory_order_relaxed);
    stats.bytes = slab.bytes.load(std::memory_order_relaxed);
    stats.graph_recorded = slab.graph_recorded.load(std::memory_order_relaxed);
    const bool touched = stats.forward_calls || stats.backward_calls ||
                         stats.nodes || stats.allocs || stats.bytes ||
                         stats.graph_recorded;
    if (touched) out[op->name] = stats;
  }
  return out;
}

void ResetOpStats() {
  for (const auto& slab : StatsSlabs()) {
    slab->forward_calls.store(0, std::memory_order_relaxed);
    slab->forward_ns.store(0, std::memory_order_relaxed);
    slab->backward_calls.store(0, std::memory_order_relaxed);
    slab->backward_ns.store(0, std::memory_order_relaxed);
    slab->nodes.store(0, std::memory_order_relaxed);
    slab->allocs.store(0, std::memory_order_relaxed);
    slab->bytes.store(0, std::memory_order_relaxed);
    slab->graph_recorded.store(0, std::memory_order_relaxed);
  }
}

OpStats TotalOpStats() {
  OpStats total;
  for (const auto& [name, stats] : GetOpStats()) {
    total.forward_calls += stats.forward_calls;
    total.forward_ns += stats.forward_ns;
    total.backward_calls += stats.backward_calls;
    total.backward_ns += stats.backward_ns;
    total.nodes += stats.nodes;
    total.allocs += stats.allocs;
    total.bytes += stats.bytes;
    total.graph_recorded += stats.graph_recorded;
  }
  return total;
}

std::string FormatOpStats() {
  struct Row {
    std::string name;
    OpStats stats;
  };
  std::vector<Row> rows;
  for (const auto& [name, stats] : GetOpStats()) rows.push_back({name, stats});
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.stats.forward_ns + a.stats.backward_ns >
           b.stats.forward_ns + b.stats.backward_ns;
  });
  std::ostringstream out;
  out << "op                        fwd_calls     fwd_ms bwd_calls     bwd_ms"
         "     nodes    allocs        KiB\n";
  char line[200];
  for (const Row& row : rows) {
    std::snprintf(line, sizeof(line),
                  "%-24s %10llu %10.3f %9llu %10.3f %9llu %9llu %10.1f\n",
                  row.name.c_str(),
                  static_cast<unsigned long long>(row.stats.forward_calls),
                  row.stats.forward_ns / 1e6,
                  static_cast<unsigned long long>(row.stats.backward_calls),
                  row.stats.backward_ns / 1e6,
                  static_cast<unsigned long long>(row.stats.nodes),
                  static_cast<unsigned long long>(row.stats.allocs),
                  row.stats.bytes / 1024.0);
    out << line;
  }
  return out.str();
}

void RecordForward(const Op* op, uint64_t ns) {
  AtomicOpStats& slab = SlabOf(op);
  slab.forward_calls.fetch_add(1, std::memory_order_relaxed);
  slab.forward_ns.fetch_add(ns, std::memory_order_relaxed);
}

void RecordBackward(const Op* op, uint64_t ns) {
  AtomicOpStats& slab = SlabOf(op);
  slab.backward_calls.fetch_add(1, std::memory_order_relaxed);
  slab.backward_ns.fetch_add(ns, std::memory_order_relaxed);
}

ScopedOpTimer::ScopedOpTimer(const Op* op)
    : op_(OpProfilingEnabled() ? op : nullptr),
      start_ns_(op_ ? NowNs() : 0) {}

ScopedOpTimer::~ScopedOpTimer() {
  if (op_ != nullptr) RecordForward(op_, NowNs() - start_ns_);
}

std::string DumpGraph(const Tensor& root) {
  DTDBD_CHECK(root.defined());
  using internal::Node;
  using internal::Storage;
  // Topological order over the recorded graph (same walk as Backward, but
  // ignoring requires_grad so frozen branches are shown too).
  std::vector<const Node*> order;
  std::unordered_set<const Node*> visited;
  std::vector<std::pair<const Node*, size_t>> stack;
  stack.emplace_back(root.node().get(), 0);
  visited.insert(root.node().get());
  while (!stack.empty()) {
    auto& [node, next_input] = stack.back();
    if (next_input < node->inputs.size()) {
      const Node* input = node->inputs[next_input++].get();
      if (visited.insert(input).second) stack.emplace_back(input, 0);
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  std::unordered_map<const Node*, int> node_id;
  for (const Node* node : order) {
    node_id[node] = static_cast<int>(node_id.size());
  }
  std::unordered_map<const Storage*, int> storage_id;
  std::ostringstream out;
  for (const Node* node : order) {
    auto sit = storage_id.emplace(node->storage.get(),
                                  static_cast<int>(storage_id.size()));
    out << "%" << node_id[node] << " = " << node->op_name() << "(";
    for (size_t i = 0; i < node->inputs.size(); ++i) {
      if (i > 0) out << ", ";
      out << "%" << node_id[node->inputs[i].get()];
    }
    out << ") " << ShapeToString(node->shape);
    if (node->contiguous) {
      out << " dense";
    } else {
      out << " view{strides=" << ShapeToString(node->strides)
          << ", offset=" << node->offset << "}";
    }
    out << " storage=S" << sit.first->second;
    if (node->requires_grad) out << " grad";
    out << "\n";
  }
  return out.str();
}

}  // namespace dtdbd::tensor
