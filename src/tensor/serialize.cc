#include "tensor/serialize.h"

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "common/io.h"

namespace dtdbd::tensor {

namespace {

constexpr char kMagic[4] = {'D', 'T', 'D', 'B'};
constexpr uint32_t kVersionLegacy = 1;  // no per-entry CRC
constexpr uint32_t kVersion = 2;

// Hard ceilings on header fields; anything larger is rejected before any
// allocation is attempted.
constexpr uint64_t kMaxEntries = 1u << 20;
constexpr uint64_t kMaxNameLen = 1u << 16;
constexpr uint64_t kMaxNdim = 8;
constexpr int64_t kMaxElements = int64_t{1} << 40;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// Stream reader that refuses to read past the known file size, so hostile
// length fields can never trigger oversized reads or allocations.
class BoundedReader {
 public:
  BoundedReader(std::FILE* f, int64_t size) : f_(f), size_(size) {}

  int64_t remaining() const { return size_ - pos_; }

  bool Read(void* data, int64_t n) {
    if (n < 0 || n > remaining()) return false;
    if (std::fread(data, 1, static_cast<size_t>(n), f_) !=
        static_cast<size_t>(n)) {
      return false;
    }
    pos_ += n;
    return true;
  }

  template <typename T>
  bool ReadScalar(T* value) {
    return Read(value, sizeof(T));
  }

 private:
  std::FILE* f_;
  int64_t size_;
  int64_t pos_ = 0;
};

// Element count of a shape with explicit overflow/negativity checks.
Status CheckedNumElements(const Shape& shape, int64_t* out) {
  int64_t n = 1;
  for (int64_t d : shape) {
    if (d < 0) return Status::InvalidArgument("negative dimension");
    if (d > 0 && n > kMaxElements / d) {
      return Status::InvalidArgument("absurd tensor size");
    }
    n *= d;
  }
  *out = n;
  return Status::Ok();
}

Status ReadOneTensor(BoundedReader* reader, uint32_t version,
                     const std::string& path, std::string* name_out,
                     Tensor* tensor_out) {
  uint64_t name_len = 0;
  if (!reader->ReadScalar(&name_len)) {
    return Status::IoError("truncated entry in " + path);
  }
  if (name_len > kMaxNameLen) {
    return Status::InvalidArgument("absurd name length in " + path);
  }
  uint32_t crc = Crc32(&name_len, sizeof(name_len));
  std::string name(name_len, '\0');
  uint64_t ndim = 0;
  if (!reader->Read(name.data(), static_cast<int64_t>(name_len)) ||
      !reader->ReadScalar(&ndim)) {
    return Status::IoError("truncated entry in " + path);
  }
  if (ndim > kMaxNdim) {
    return Status::InvalidArgument("absurd ndim in " + path);
  }
  crc = Crc32(name.data(), name.size(), crc);
  crc = Crc32(&ndim, sizeof(ndim), crc);
  Shape shape(ndim);
  if (!reader->Read(shape.data(),
                    static_cast<int64_t>(ndim * sizeof(int64_t)))) {
    return Status::IoError("truncated shape in " + path);
  }
  crc = Crc32(shape.data(), ndim * sizeof(int64_t), crc);
  int64_t n = 0;
  DTDBD_RETURN_IF_ERROR(CheckedNumElements(shape, &n));
  if (n * static_cast<int64_t>(sizeof(float)) > reader->remaining()) {
    return Status::IoError("truncated data in " + path);
  }
  std::vector<float> data(n);
  if (!reader->Read(data.data(), n * static_cast<int64_t>(sizeof(float)))) {
    return Status::IoError("truncated data in " + path);
  }
  if (version >= kVersion) {
    crc = Crc32(data.data(), data.size() * sizeof(float), crc);
    uint32_t stored = 0;
    if (!reader->ReadScalar(&stored)) {
      return Status::IoError("truncated CRC in " + path);
    }
    if (stored != crc) {
      return Status::InvalidArgument("CRC mismatch for entry '" + name +
                                     "' in " + path);
    }
  }
  *name_out = std::move(name);
  *tensor_out = Tensor::FromData(shape, std::move(data));
  return Status::Ok();
}

}  // namespace

// Slice-by-8 over the reflected 0xEDB88320 table: table[0] is the
// bytewise table, and table[k][i] is byte i's CRC followed by k zero
// bytes, so one step folds 8 input bytes with 8 lookups. Same checksums as
// the bytewise loop, which still runs the tail.
uint32_t Crc32(const void* data, size_t n, uint32_t crc) {
  using Tables = std::array<std::array<uint32_t, 256>, 8>;
  static const Tables table = [] {
    Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  // Little-endian 32-bit load, whatever the host's byte order.
  const auto load32 = [](const unsigned char* q) {
    return uint32_t{q[0]} | uint32_t{q[1]} << 8 | uint32_t{q[2]} << 16 |
           uint32_t{q[3]} << 24;
  };
  crc = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = crc ^ load32(p);
    const uint32_t hi = load32(p + 4);
    crc = table[7][lo & 0xFFu] ^ table[6][(lo >> 8) & 0xFFu] ^
          table[5][(lo >> 16) & 0xFFu] ^ table[4][lo >> 24] ^
          table[3][hi & 0xFFu] ^ table[2][(hi >> 8) & 0xFFu] ^
          table[1][(hi >> 16) & 0xFFu] ^ table[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = table[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

Status SaveTensors(const std::map<std::string, Tensor>& tensors,
                   const std::string& path) {
  std::string bytes;
  auto append = [&bytes](const void* data, size_t n) {
    bytes.append(static_cast<const char*>(data), n);
  };
  const uint64_t count = tensors.size();
  append(kMagic, 4);
  append(&kVersion, sizeof(kVersion));
  append(&count, sizeof(count));
  for (const auto& [name, t] : tensors) {
    if (!t.defined()) return Status::InvalidArgument("undefined tensor: " + name);
    // Views are materialized to logical row-major order here, so the
    // on-disk format stays layout-free and old files remain readable.
    const std::vector<float> data = t.ToVector();
    const uint64_t name_len = name.size();
    const uint64_t ndim = t.shape().size();
    uint32_t crc = Crc32(&name_len, sizeof(name_len));
    crc = Crc32(name.data(), name.size(), crc);
    crc = Crc32(&ndim, sizeof(ndim), crc);
    crc = Crc32(t.shape().data(), ndim * sizeof(int64_t), crc);
    crc = Crc32(data.data(), data.size() * sizeof(float), crc);
    append(&name_len, sizeof(name_len));
    append(name.data(), name.size());
    append(&ndim, sizeof(ndim));
    append(t.shape().data(), ndim * sizeof(int64_t));
    append(data.data(), data.size() * sizeof(float));
    append(&crc, sizeof(crc));
  }
  // Atomic publish (temp file + fsync + rename): a hot-reloading server that
  // races a concurrent save never loads a half-written file.
  return AtomicWriteFile(path, bytes);
}

StatusOr<std::map<std::string, Tensor>> LoadTensors(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open for read: " + path);
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::IoError("cannot seek: " + path);
  }
  const long file_size = std::ftell(f.get());
  if (file_size < 0) return Status::IoError("cannot stat: " + path);
  std::rewind(f.get());

  BoundedReader reader(f.get(), file_size);
  char magic[4];
  uint32_t version = 0;
  uint64_t count = 0;
  if (!reader.Read(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  if (!reader.ReadScalar(&version) ||
      (version != kVersionLegacy && version != kVersion)) {
    return Status::InvalidArgument("unsupported version in " + path);
  }
  if (!reader.ReadScalar(&count)) {
    return Status::IoError("truncated header in " + path);
  }
  if (count > kMaxEntries) {
    return Status::InvalidArgument("absurd entry count in " + path);
  }
  std::map<std::string, Tensor> result;
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    Tensor t;
    DTDBD_RETURN_IF_ERROR(ReadOneTensor(&reader, version, path, &name, &t));
    result.emplace(std::move(name), std::move(t));
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in " + path);
  }
  return result;
}

Status RestoreInto(const std::map<std::string, Tensor>& loaded,
                   std::map<std::string, Tensor>* params) {
  DTDBD_CHECK(params != nullptr);
  for (auto& [name, dst] : *params) {
    auto it = loaded.find(name);
    if (it == loaded.end()) {
      return Status::NotFound("missing parameter: " + name);
    }
    if (it->second.shape() != dst.shape()) {
      return Status::InvalidArgument(
          "shape mismatch for " + name + ": saved " +
          ShapeToString(it->second.shape()) + " vs model " +
          ShapeToString(dst.shape()));
    }
    dst.CopyDataFrom(it->second);
  }
  return Status::Ok();
}

}  // namespace dtdbd::tensor
