#include "train/checkpoint.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "common/io.h"
#include "tensor/serialize.h"

namespace dtdbd::train {

namespace {

using tensor::Crc32;
using tensor::Tensor;

constexpr char kMagic[4] = {'D', 'T', 'C', 'K'};
constexpr uint32_t kVersion = 3;  // the "format v3" checkpoint layout
constexpr uint64_t kMaxEntries = 1u << 20;
constexpr uint64_t kMaxKeyLen = 1u << 12;
constexpr uint64_t kMaxNdim = 8;
constexpr int64_t kMaxElements = int64_t{1} << 40;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// ----- payload packing -----

void AppendRaw(std::string* buf, const void* data, size_t n) {
  buf->append(static_cast<const char*>(data), n);
}

template <typename T>
void AppendScalar(std::string* buf, T value) {
  AppendRaw(buf, &value, sizeof(T));
}

void AppendRngState(std::string* buf, const Rng::State& s) {
  for (uint64_t w : s.s) AppendScalar(buf, w);
  AppendScalar<uint8_t>(buf, s.has_cached_normal ? 1 : 0);
  AppendScalar(buf, s.cached_normal);
}

// Sequential reader over one entry's payload bytes.
class PayloadReader {
 public:
  explicit PayloadReader(const std::string& bytes) : bytes_(bytes) {}

  int64_t remaining() const {
    return static_cast<int64_t>(bytes_.size()) - pos_;
  }

  bool Read(void* out, int64_t n) {
    if (n < 0 || n > remaining()) return false;
    std::memcpy(out, bytes_.data() + pos_, static_cast<size_t>(n));
    pos_ += n;
    return true;
  }

  template <typename T>
  bool ReadScalar(T* out) {
    return Read(out, sizeof(T));
  }

  bool ReadRngState(Rng::State* out) {
    for (uint64_t& w : out->s) {
      if (!ReadScalar(&w)) return false;
    }
    uint8_t cached = 0;
    if (!ReadScalar(&cached) || !ReadScalar(&out->cached_normal)) return false;
    out->has_cached_normal = cached != 0;
    return true;
  }

 private:
  const std::string& bytes_;
  int64_t pos_ = 0;
};

std::string PackTensor(const Tensor& t) {
  std::string payload;
  const uint64_t ndim = t.shape().size();
  AppendScalar(&payload, ndim);
  AppendRaw(&payload, t.shape().data(), ndim * sizeof(int64_t));
  // Materializes views into logical row-major order; the on-disk format is
  // layout-free, so files from the pre-view engine stay readable.
  const std::vector<float> data = t.ToVector();
  AppendRaw(&payload, data.data(), data.size() * sizeof(float));
  return payload;
}

Status UnpackTensor(const std::string& payload, const std::string& key,
                    Tensor* out) {
  PayloadReader reader(payload);
  uint64_t ndim = 0;
  if (!reader.ReadScalar(&ndim) || ndim > kMaxNdim) {
    return Status::InvalidArgument("bad tensor header for " + key);
  }
  tensor::Shape shape(ndim);
  if (!reader.Read(shape.data(), static_cast<int64_t>(ndim * sizeof(int64_t)))) {
    return Status::InvalidArgument("bad tensor shape for " + key);
  }
  int64_t n = 1;
  for (int64_t d : shape) {
    if (d < 0 || (d > 0 && n > kMaxElements / d)) {
      return Status::InvalidArgument("absurd tensor size for " + key);
    }
    n *= d;
  }
  if (reader.remaining() != n * static_cast<int64_t>(sizeof(float))) {
    return Status::InvalidArgument("tensor payload size mismatch for " + key);
  }
  std::vector<float> data(n);
  if (!reader.Read(data.data(), n * static_cast<int64_t>(sizeof(float)))) {
    return Status::InvalidArgument("bad tensor data for " + key);
  }
  *out = Tensor::FromData(shape, std::move(data));
  return Status::Ok();
}

std::string PackFloats(const std::vector<float>& values) {
  std::string payload;
  AppendRaw(&payload, values.data(), values.size() * sizeof(float));
  return payload;
}

Status UnpackFloats(const std::string& payload, const std::string& key,
                    std::vector<float>* out) {
  if (payload.size() % sizeof(float) != 0) {
    return Status::InvalidArgument("ragged float payload for " + key);
  }
  out->resize(payload.size() / sizeof(float));
  std::memcpy(out->data(), payload.data(), payload.size());
  return Status::Ok();
}

// ----- entry-level file IO -----

using EntryMap = std::map<std::string, std::string>;

Status WriteEntries(const EntryMap& entries, const std::string& path) {
  // Serialize the whole file into memory, then publish it with the shared
  // temp-file + fsync + rename helper so a reader never observes a partial
  // checkpoint even if the process dies mid-save.
  std::string bytes;
  AppendRaw(&bytes, kMagic, 4);
  AppendScalar(&bytes, kVersion);
  AppendScalar<uint64_t>(&bytes, entries.size());
  for (const auto& [key, payload] : entries) {
    const uint64_t key_len = key.size();
    const uint64_t payload_len = payload.size();
    uint32_t crc = Crc32(&key_len, sizeof(key_len));
    crc = Crc32(key.data(), key.size(), crc);
    crc = Crc32(&payload_len, sizeof(payload_len), crc);
    crc = Crc32(payload.data(), payload.size(), crc);
    AppendScalar(&bytes, key_len);
    AppendRaw(&bytes, key.data(), key.size());
    AppendScalar(&bytes, payload_len);
    AppendRaw(&bytes, payload.data(), payload.size());
    AppendScalar(&bytes, crc);
  }
  return AtomicWriteFile(path, bytes);
}

StatusOr<EntryMap> ReadEntries(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open for read: " + path);
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::IoError("cannot seek: " + path);
  }
  const long file_size = std::ftell(f.get());
  if (file_size < 0) return Status::IoError("cannot stat: " + path);
  std::rewind(f.get());

  int64_t remaining = file_size;
  auto read = [&](void* out, int64_t n) {
    if (n < 0 || n > remaining) return false;
    if (std::fread(out, 1, static_cast<size_t>(n), f.get()) !=
        static_cast<size_t>(n)) {
      return false;
    }
    remaining -= n;
    return true;
  };

  char magic[4];
  uint32_t version = 0;
  uint64_t count = 0;
  if (!read(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("not a checkpoint file: " + path);
  }
  if (!read(&version, sizeof(version)) || version != kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version in " + path);
  }
  if (!read(&count, sizeof(count))) {
    return Status::IoError("truncated checkpoint header in " + path);
  }
  if (count > kMaxEntries) {
    return Status::InvalidArgument("absurd entry count in " + path);
  }

  EntryMap entries;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t key_len = 0;
    if (!read(&key_len, sizeof(key_len))) {
      return Status::IoError("truncated checkpoint entry in " + path);
    }
    if (key_len > kMaxKeyLen) {
      return Status::InvalidArgument("absurd key length in " + path);
    }
    std::string key(key_len, '\0');
    uint64_t payload_len = 0;
    if (!read(key.data(), static_cast<int64_t>(key_len)) ||
        !read(&payload_len, sizeof(payload_len))) {
      return Status::IoError("truncated checkpoint entry in " + path);
    }
    if (payload_len > static_cast<uint64_t>(remaining)) {
      return Status::IoError("truncated checkpoint payload in " + path);
    }
    std::string payload(payload_len, '\0');
    uint32_t stored_crc = 0;
    if (!read(payload.data(), static_cast<int64_t>(payload_len)) ||
        !read(&stored_crc, sizeof(stored_crc))) {
      return Status::IoError("truncated checkpoint payload in " + path);
    }
    uint32_t crc = Crc32(&key_len, sizeof(key_len));
    crc = Crc32(key.data(), key.size(), crc);
    crc = Crc32(&payload_len, sizeof(payload_len), crc);
    crc = Crc32(payload.data(), payload.size(), crc);
    if (crc != stored_crc) {
      return Status::InvalidArgument("CRC mismatch for checkpoint entry '" +
                                     key + "' in " + path);
    }
    entries.emplace(std::move(key), std::move(payload));
  }
  if (remaining != 0) {
    return Status::InvalidArgument("trailing bytes in " + path);
  }
  return entries;
}

StatusOr<const std::string*> GetEntry(const EntryMap& entries,
                                      const std::string& key) {
  auto it = entries.find(key);
  if (it == entries.end()) {
    return Status::NotFound("checkpoint entry missing: " + key);
  }
  return &it->second;
}

template <typename T>
Status GetScalar(const EntryMap& entries, const std::string& key, T* out) {
  DTDBD_ASSIGN_OR_RETURN(const std::string* payload, GetEntry(entries, key));
  if (payload->size() != sizeof(T)) {
    return Status::InvalidArgument("bad size for checkpoint entry " + key);
  }
  std::memcpy(out, payload->data(), sizeof(T));
  return Status::Ok();
}

Status GetRngState(const EntryMap& entries, const std::string& key,
                   Rng::State* out) {
  DTDBD_ASSIGN_OR_RETURN(const std::string* payload, GetEntry(entries, key));
  PayloadReader reader(*payload);
  if (!reader.ReadRngState(out) || reader.remaining() != 0) {
    return Status::InvalidArgument("bad RNG state for checkpoint entry " + key);
  }
  return Status::Ok();
}

}  // namespace

Status SaveCheckpoint(const CheckpointState& state, const std::string& path) {
  if (state.kind != "supervised" && state.kind != "dtdbd") {
    return Status::InvalidArgument("unknown checkpoint kind: " + state.kind);
  }
  EntryMap entries;
  entries["meta/kind"] = state.kind;
  {
    std::string p;
    AppendScalar(&p, state.epochs_done);
    entries["meta/epochs_done"] = std::move(p);
  }
  {
    std::string p;
    AppendScalar(&p, state.lr);
    entries["meta/lr"] = std::move(p);
  }
  for (const auto& [name, t] : state.model) {
    if (!t.defined()) {
      return Status::InvalidArgument("undefined tensor in checkpoint: " + name);
    }
    entries["model/" + name] = PackTensor(t);
  }
  {
    std::string p;
    AppendScalar(&p, state.optim.step_count);
    entries["optim/step"] = std::move(p);
    std::string slots;
    AppendScalar<uint64_t>(&slots, state.optim.m.size());
    entries["optim/slots"] = std::move(slots);
    for (size_t i = 0; i < state.optim.m.size(); ++i) {
      entries["optim/m/" + std::to_string(i)] = PackFloats(state.optim.m[i]);
    }
    for (size_t i = 0; i < state.optim.v.size(); ++i) {
      entries["optim/v/" + std::to_string(i)] = PackFloats(state.optim.v[i]);
    }
  }
  {
    std::string p;
    AppendScalar<uint64_t>(&p, state.model_rngs.size());
    entries["rng/count"] = std::move(p);
    for (size_t i = 0; i < state.model_rngs.size(); ++i) {
      std::string r;
      AppendRngState(&r, state.model_rngs[i]);
      entries["rng/" + std::to_string(i)] = std::move(r);
    }
  }
  {
    std::string r;
    AppendRngState(&r, state.loader.rng);
    entries["loader/rng"] = std::move(r);
    std::string order;
    AppendRaw(&order, state.loader.order.data(),
              state.loader.order.size() * sizeof(int64_t));
    entries["loader/order"] = std::move(order);
  }
  {
    std::string p;
    AppendScalar(&p, state.daa.w_add);
    AppendScalar<uint8_t>(&p, state.daa.has_previous ? 1 : 0);
    AppendScalar(&p, state.daa.prev_f1);
    AppendScalar(&p, state.daa.prev_bias);
    entries["daa"] = std::move(p);
  }
  return WriteEntries(entries, path);
}

StatusOr<CheckpointState> LoadCheckpoint(const std::string& path) {
  DTDBD_ASSIGN_OR_RETURN(EntryMap entries, ReadEntries(path));
  CheckpointState state;

  DTDBD_ASSIGN_OR_RETURN(const std::string* kind,
                         GetEntry(entries, "meta/kind"));
  state.kind = *kind;
  if (state.kind != "supervised" && state.kind != "dtdbd") {
    return Status::InvalidArgument("unknown checkpoint kind: " + state.kind);
  }
  DTDBD_RETURN_IF_ERROR(
      GetScalar(entries, "meta/epochs_done", &state.epochs_done));
  if (state.epochs_done < 0) {
    return Status::InvalidArgument("negative epoch count in " + path);
  }
  DTDBD_RETURN_IF_ERROR(GetScalar(entries, "meta/lr", &state.lr));

  for (const auto& [key, payload] : entries) {
    if (key.rfind("model/", 0) != 0) continue;
    Tensor t;
    DTDBD_RETURN_IF_ERROR(UnpackTensor(payload, key, &t));
    state.model.emplace(key.substr(6), std::move(t));
  }

  DTDBD_RETURN_IF_ERROR(
      GetScalar(entries, "optim/step", &state.optim.step_count));
  uint64_t slots = 0;
  DTDBD_RETURN_IF_ERROR(GetScalar(entries, "optim/slots", &slots));
  if (slots > kMaxEntries) {
    return Status::InvalidArgument("absurd optimizer slot count in " + path);
  }
  state.optim.m.resize(slots);
  state.optim.v.resize(slots);
  for (uint64_t i = 0; i < slots; ++i) {
    DTDBD_ASSIGN_OR_RETURN(
        const std::string* m_payload,
        GetEntry(entries, "optim/m/" + std::to_string(i)));
    DTDBD_RETURN_IF_ERROR(UnpackFloats(*m_payload, "optim/m", &state.optim.m[i]));
    DTDBD_ASSIGN_OR_RETURN(
        const std::string* v_payload,
        GetEntry(entries, "optim/v/" + std::to_string(i)));
    DTDBD_RETURN_IF_ERROR(UnpackFloats(*v_payload, "optim/v", &state.optim.v[i]));
  }

  uint64_t rng_count = 0;
  DTDBD_RETURN_IF_ERROR(GetScalar(entries, "rng/count", &rng_count));
  if (rng_count > kMaxEntries) {
    return Status::InvalidArgument("absurd RNG count in " + path);
  }
  state.model_rngs.resize(rng_count);
  for (uint64_t i = 0; i < rng_count; ++i) {
    DTDBD_RETURN_IF_ERROR(GetRngState(entries, "rng/" + std::to_string(i),
                                      &state.model_rngs[i]));
  }

  DTDBD_RETURN_IF_ERROR(GetRngState(entries, "loader/rng", &state.loader.rng));
  {
    DTDBD_ASSIGN_OR_RETURN(const std::string* order,
                           GetEntry(entries, "loader/order"));
    if (order->size() % sizeof(int64_t) != 0) {
      return Status::InvalidArgument("ragged loader order in " + path);
    }
    state.loader.order.resize(order->size() / sizeof(int64_t));
    std::memcpy(state.loader.order.data(), order->data(), order->size());
  }

  {
    DTDBD_ASSIGN_OR_RETURN(const std::string* daa, GetEntry(entries, "daa"));
    PayloadReader reader(*daa);
    uint8_t has_previous = 0;
    if (!reader.ReadScalar(&state.daa.w_add) ||
        !reader.ReadScalar(&has_previous) ||
        !reader.ReadScalar(&state.daa.prev_f1) ||
        !reader.ReadScalar(&state.daa.prev_bias) || reader.remaining() != 0) {
      return Status::InvalidArgument("bad DAA state in " + path);
    }
    state.daa.has_previous = has_previous != 0;
  }
  return state;
}

CheckpointState CaptureState(const std::string& kind, int64_t epochs_done,
                             const std::map<std::string, Tensor>& named,
                             const tensor::Adam& optimizer,
                             const std::vector<Rng*>& rngs,
                             const data::DataLoader& loader) {
  CheckpointState state;
  state.kind = kind;
  state.epochs_done = epochs_done;
  state.lr = optimizer.lr();
  for (const auto& [name, t] : named) state.model.emplace(name, t.Clone());
  state.optim = optimizer.ExportState();
  state.model_rngs.reserve(rngs.size());
  for (const Rng* rng : rngs) {
    DTDBD_CHECK(rng != nullptr);
    state.model_rngs.push_back(rng->GetState());
  }
  state.loader = loader.GetState();
  return state;
}

Status ApplyToTraining(const CheckpointState& state,
                       std::map<std::string, Tensor>* named,
                       tensor::Adam* optimizer, const std::vector<Rng*>& rngs,
                       data::DataLoader* loader) {
  DTDBD_CHECK(named != nullptr);
  DTDBD_CHECK(optimizer != nullptr);
  DTDBD_CHECK(loader != nullptr);
  if (rngs.size() != state.model_rngs.size()) {
    return Status::InvalidArgument(
        "checkpoint holds " + std::to_string(state.model_rngs.size()) +
        " RNG streams, model has " + std::to_string(rngs.size()));
  }
  DTDBD_RETURN_IF_ERROR(tensor::RestoreInto(state.model, named));
  DTDBD_RETURN_IF_ERROR(optimizer->ImportState(state.optim));
  DTDBD_RETURN_IF_ERROR(loader->SetState(state.loader));
  for (size_t i = 0; i < rngs.size(); ++i) {
    rngs[i]->SetState(state.model_rngs[i]);
  }
  optimizer->set_lr(state.lr);
  return Status::Ok();
}

}  // namespace dtdbd::train
