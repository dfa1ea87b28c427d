#include "net/protocol.h"

#include <algorithm>
#include <cstring>

namespace dtdbd::net {

namespace {

// Explicit little-endian stores/loads: the wire format is defined in bytes,
// not in whatever the host happens to lay out (and memcpy keeps every access
// aligned and strict-aliasing clean).
void StoreU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}
void StoreU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}
void StoreU64(uint8_t* p, uint64_t v) {
  StoreU32(p, static_cast<uint32_t>(v));
  StoreU32(p + 4, static_cast<uint32_t>(v >> 32));
}
void StoreI32(uint8_t* p, int32_t v) { StoreU32(p, static_cast<uint32_t>(v)); }
void StoreI64(uint8_t* p, int64_t v) { StoreU64(p, static_cast<uint64_t>(v)); }
void StoreF32(uint8_t* p, float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  StoreU32(p, bits);
}
void StoreF64(uint8_t* p, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  StoreU64(p, bits);
}

uint16_t LoadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}
uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}
uint64_t LoadU64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         (static_cast<uint64_t>(LoadU32(p + 4)) << 32);
}
int32_t LoadI32(const uint8_t* p) { return static_cast<int32_t>(LoadU32(p)); }
int64_t LoadI64(const uint8_t* p) { return static_cast<int64_t>(LoadU64(p)); }
float LoadF32(const uint8_t* p) {
  const uint32_t bits = LoadU32(p);
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}
double LoadF64(const uint8_t* p) {
  const uint64_t bits = LoadU64(p);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void AppendBytes(std::string* out, const uint8_t* data, size_t len) {
  out->append(reinterpret_cast<const char*>(data), len);
}

}  // namespace

const char* WireCodeName(WireCode code) {
  switch (code) {
    case WireCode::kOk: return "OK";
    case WireCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case WireCode::kRetryLater: return "RETRY_LATER";
    case WireCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case WireCode::kUnavailable: return "UNAVAILABLE";
    case WireCode::kInternal: return "INTERNAL";
    case WireCode::kBadFrame: return "BAD_FRAME";
    case WireCode::kNotFound: return "NOT_FOUND";
  }
  return "UNKNOWN";
}

WireCode WireCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return WireCode::kOk;
    case StatusCode::kInvalidArgument: return WireCode::kInvalidArgument;
    case StatusCode::kResourceExhausted: return WireCode::kRetryLater;
    case StatusCode::kDeadlineExceeded: return WireCode::kDeadlineExceeded;
    case StatusCode::kUnavailable: return WireCode::kUnavailable;
    case StatusCode::kNotFound: return WireCode::kNotFound;
    default: return WireCode::kInternal;
  }
}

void EncodeFrameHeader(const FrameHeader& header, uint8_t* out) {
  StoreU32(out + 0, header.magic);
  StoreU16(out + 4, header.version);
  StoreU16(out + 6, static_cast<uint16_t>(header.type));
  StoreU64(out + 8, header.request_id);
  StoreI64(out + 16, header.deadline_nanos);
  StoreU32(out + 24, header.payload_len);
  StoreU32(out + 28, header.reserved);
}

void DecodeFrameHeader(const uint8_t* data, FrameHeader* header) {
  header->magic = LoadU32(data + 0);
  header->version = LoadU16(data + 4);
  header->type = static_cast<FrameType>(LoadU16(data + 6));
  header->request_id = LoadU64(data + 8);
  header->deadline_nanos = LoadI64(data + 16);
  header->payload_len = LoadU32(data + 24);
  header->reserved = LoadU32(data + 28);
}

Status ValidateHeader(const FrameHeader& header, uint32_t max_frame_bytes,
                      bool* trusted_framing) {
  *trusted_framing = false;
  if (header.magic != kMagic) {
    return Status::InvalidArgument("bad magic: not a DTDB frame");
  }
  if (header.reserved != 0) {
    return Status::InvalidArgument("reserved header bytes must be zero");
  }
  if (header.payload_len > max_frame_bytes) {
    return Status::InvalidArgument(
        "frame payload " + std::to_string(header.payload_len) +
        " exceeds max frame bytes " + std::to_string(max_frame_bytes));
  }
  // From here the length prefix is believable even if the frame is
  // unserviceable, so the peer deserves an error frame before the close.
  *trusted_framing = true;
  if (header.version != kProtocolVersion) {
    return Status::InvalidArgument(
        "unsupported protocol version " + std::to_string(header.version) +
        " (speaking " + std::to_string(kProtocolVersion) + ")");
  }
  return Status::Ok();
}

std::string EncodeRequestFrame(uint64_t request_id, int64_t deadline_nanos,
                               const serve::InferenceRequest& request) {
  const size_t name_len =
      std::min<size_t>(request.model_name.size(), UINT16_MAX);
  const size_t payload_len =
      16 + 4 * (request.tokens.size() + request.style.size() +
                request.emotion.size()) +
      2 + name_len;
  FrameHeader header;
  header.type = FrameType::kRequest;
  header.request_id = request_id;
  header.deadline_nanos = deadline_nanos;
  header.payload_len = static_cast<uint32_t>(payload_len);

  std::string frame;
  frame.reserve(kFrameHeaderSize + payload_len);
  uint8_t scratch[kFrameHeaderSize];
  EncodeFrameHeader(header, scratch);
  AppendBytes(&frame, scratch, kFrameHeaderSize);

  uint8_t word[8];
  StoreI32(word, request.domain);
  AppendBytes(&frame, word, 4);
  StoreU32(word, static_cast<uint32_t>(request.tokens.size()));
  AppendBytes(&frame, word, 4);
  StoreU32(word, static_cast<uint32_t>(request.style.size()));
  AppendBytes(&frame, word, 4);
  StoreU32(word, static_cast<uint32_t>(request.emotion.size()));
  AppendBytes(&frame, word, 4);
  for (const int token : request.tokens) {
    StoreI32(word, token);
    AppendBytes(&frame, word, 4);
  }
  for (const float v : request.style) {
    StoreF32(word, v);
    AppendBytes(&frame, word, 4);
  }
  for (const float v : request.emotion) {
    StoreF32(word, v);
    AppendBytes(&frame, word, 4);
  }
  StoreU16(word, static_cast<uint16_t>(name_len));
  AppendBytes(&frame, word, 2);
  frame.append(request.model_name.data(), name_len);
  return frame;
}

Status DecodeRequestPayload(const uint8_t* data, size_t len,
                            serve::InferenceRequest* request) {
  if (len < 16) {
    return Status::InvalidArgument("request payload shorter than its header");
  }
  const int32_t domain = LoadI32(data + 0);
  const uint64_t num_tokens = LoadU32(data + 4);
  const uint64_t style_dim = LoadU32(data + 8);
  const uint64_t emotion_dim = LoadU32(data + 12);
  // Reconcile the advertised counts with the actual byte count in 64-bit so
  // hostile counts near UINT32_MAX cannot wrap the arithmetic.
  const uint64_t arrays_end =
      16 + 4 * (num_tokens + style_dim + emotion_dim);
  // The model-name field follows the arrays. Its length prefix must itself
  // fit before the total length is reconciled.
  if (arrays_end + 2 > len) {
    return Status::InvalidArgument(
        "request payload length " + std::to_string(len) +
        " cannot hold the advertised counts plus a model-name field");
  }
  const uint64_t name_len = LoadU16(data + arrays_end);
  if (arrays_end + 2 + name_len != len) {
    return Status::InvalidArgument(
        "request payload length " + std::to_string(len) +
        " does not match advertised counts (" +
        std::to_string(arrays_end + 2 + name_len) + ")");
  }
  request->domain = domain;
  request->tokens.resize(num_tokens);
  request->style.resize(style_dim);
  request->emotion.resize(emotion_dim);
  const uint8_t* p = data + 16;
  for (uint64_t i = 0; i < num_tokens; ++i, p += 4) {
    request->tokens[i] = LoadI32(p);
  }
  for (uint64_t i = 0; i < style_dim; ++i, p += 4) {
    request->style[i] = LoadF32(p);
  }
  for (uint64_t i = 0; i < emotion_dim; ++i, p += 4) {
    request->emotion[i] = LoadF32(p);
  }
  request->model_name.assign(
      reinterpret_cast<const char*>(data + arrays_end + 2), name_len);
  return Status::Ok();
}

std::string EncodeResponseFrame(uint64_t request_id, WireCode code,
                                uint32_t retry_after_ms,
                                const serve::Prediction* prediction,
                                const std::string& message) {
  const size_t name_len =
      prediction != nullptr
          ? std::min<size_t>(prediction->model_name.size(), UINT16_MAX)
          : 0;
  const size_t payload_len = 28 + message.size() + 2 + name_len;
  FrameHeader header;
  header.type = FrameType::kResponse;
  header.request_id = request_id;
  header.payload_len = static_cast<uint32_t>(payload_len);

  std::string frame;
  frame.reserve(kFrameHeaderSize + payload_len);
  uint8_t scratch[kFrameHeaderSize];
  EncodeFrameHeader(header, scratch);
  AppendBytes(&frame, scratch, kFrameHeaderSize);

  uint8_t word[8];
  StoreU16(word, static_cast<uint16_t>(code));
  const uint16_t flags = prediction != nullptr && prediction->canary ? 1 : 0;
  StoreU16(word + 2, flags);
  AppendBytes(&frame, word, 4);
  StoreU32(word, retry_after_ms);
  AppendBytes(&frame, word, 4);
  StoreF32(word, prediction != nullptr ? prediction->p_fake : 0.0f);
  AppendBytes(&frame, word, 4);
  StoreI32(word, prediction != nullptr ? prediction->label : 0);
  AppendBytes(&frame, word, 4);
  StoreI64(word, prediction != nullptr ? prediction->model_version : 0);
  AppendBytes(&frame, word, 8);
  StoreU32(word, static_cast<uint32_t>(message.size()));
  AppendBytes(&frame, word, 4);
  frame += message;
  StoreU16(word, static_cast<uint16_t>(name_len));
  AppendBytes(&frame, word, 2);
  if (prediction != nullptr) {
    frame.append(prediction->model_name.data(), name_len);
  }
  return frame;
}

Status DecodeResponsePayload(const uint8_t* data, size_t len,
                             WireResponse* response) {
  if (len < 28) {
    return Status::InvalidArgument("response payload shorter than fixed part");
  }
  response->code = static_cast<WireCode>(LoadU16(data + 0));
  const uint16_t flags = LoadU16(data + 2);
  response->retry_after_ms = LoadU32(data + 4);
  response->prediction.p_fake = LoadF32(data + 8);
  response->prediction.label = LoadI32(data + 12);
  response->prediction.model_version = LoadI64(data + 16);
  response->prediction.canary = (flags & 1) != 0;
  const uint64_t message_len = LoadU32(data + 24);
  const uint64_t message_end = 28 + message_len;
  if (message_end + 2 > len) {
    return Status::InvalidArgument(
        "response payload cannot hold its message plus a model-name field");
  }
  const uint64_t name_len = LoadU16(data + message_end);
  if (message_end + 2 + name_len != len) {
    return Status::InvalidArgument(
        "response model-name length does not match payload length");
  }
  response->prediction.model_name.assign(
      reinterpret_cast<const char*>(data + message_end + 2), name_len);
  response->message.assign(reinterpret_cast<const char*>(data + 28),
                           message_len);
  return Status::Ok();
}

std::string EncodeHealthRequestFrame(uint64_t request_id) {
  FrameHeader header;
  header.type = FrameType::kHealthRequest;
  header.request_id = request_id;
  header.payload_len = 0;
  std::string frame;
  uint8_t scratch[kFrameHeaderSize];
  EncodeFrameHeader(header, scratch);
  AppendBytes(&frame, scratch, kFrameHeaderSize);
  return frame;
}

namespace {

// Fixed top-level section of the health payload, before the models array:
// 8 flag/count bytes + 9 i64 counters.
constexpr size_t kHealthFixedBytes = 8 + 9 * 8;
// Fixed per-model section, after the variable-length name: name_len + 2
// flag bytes + 8 cache i64s + 2 quality i64s + 2 quality f64s + 1 reserved
// i64.
constexpr size_t kHealthPerModelFixedBytes =
    2 + 2 + 8 * 8 + 2 * 8 + 2 * 8 + 8;
// Flag/metric section of one model record, excluding the u16 name_len.
constexpr size_t kHealthPerModelTailBytes = kHealthPerModelFixedBytes - 2;

}  // namespace

std::string EncodeHealthResponseFrame(uint64_t request_id,
                                      const WireHealth& health) {
  size_t payload_len = kHealthFixedBytes;
  for (const WireModelHealth& m : health.models) {
    payload_len +=
        kHealthPerModelFixedBytes + std::min<size_t>(m.name.size(), UINT16_MAX);
  }
  FrameHeader header;
  header.type = FrameType::kHealthResponse;
  header.request_id = request_id;
  header.payload_len = static_cast<uint32_t>(payload_len);

  std::string frame;
  frame.reserve(kFrameHeaderSize + payload_len);
  uint8_t scratch[kFrameHeaderSize];
  EncodeFrameHeader(header, scratch);
  AppendBytes(&frame, scratch, kFrameHeaderSize);

  uint8_t word[8];
  word[0] = health.cache_enabled ? 1 : 0;
  word[1] = health.degraded ? 1 : 0;
  word[2] = health.quality_degraded ? 1 : 0;
  word[3] = 0;  // reserved
  StoreU32(word + 4, static_cast<uint32_t>(health.models.size()));
  AppendBytes(&frame, word, 8);
  const int64_t top[9] = {health.cache_bytes_limit, health.cache_hits,
                          health.cache_misses,      health.cache_evicted,
                          health.cache_bytes,       health.deduped,
                          health.served_ok,         health.queue_depth,
                          health.feedback_recorded};
  for (const int64_t v : top) {
    StoreI64(word, v);
    AppendBytes(&frame, word, 8);
  }
  for (const WireModelHealth& m : health.models) {
    const size_t name_len = std::min<size_t>(m.name.size(), UINT16_MAX);
    StoreU16(word, static_cast<uint16_t>(name_len));
    AppendBytes(&frame, word, 2);
    frame.append(m.name.data(), name_len);
    word[0] = m.cache_enabled ? 1 : 0;
    word[1] = static_cast<uint8_t>((m.quality_degraded ? 1 : 0) |
                                   (m.quality_auc_valid ? 2 : 0) |
                                   (m.bias_spread_valid ? 4 : 0));
    AppendBytes(&frame, word, 2);
    const int64_t fields[10] = {m.hits,        m.misses,  m.inserted,
                                m.evicted,     m.invalidated,
                                m.bytes,       m.entries, m.deduped,
                                m.feedback_total, m.quality_window_samples};
    for (const int64_t v : fields) {
      StoreI64(word, v);
      AppendBytes(&frame, word, 8);
    }
    StoreF64(word, m.quality_auc);
    AppendBytes(&frame, word, 8);
    StoreF64(word, m.bias_spread);
    AppendBytes(&frame, word, 8);
    StoreI64(word, 0);  // reserved
    AppendBytes(&frame, word, 8);
  }
  return frame;
}

Status DecodeHealthResponsePayload(const uint8_t* data, size_t len,
                                   WireHealth* health) {
  if (len < kHealthFixedBytes) {
    return Status::InvalidArgument("health payload shorter than fixed part");
  }
  health->cache_enabled = data[0] != 0;
  health->degraded = data[1] != 0;
  health->quality_degraded = data[2] != 0;
  const uint64_t num_models = LoadU32(data + 4);
  const uint8_t* p = data + 8;
  health->cache_bytes_limit = LoadI64(p + 0);
  health->cache_hits = LoadI64(p + 8);
  health->cache_misses = LoadI64(p + 16);
  health->cache_evicted = LoadI64(p + 24);
  health->cache_bytes = LoadI64(p + 32);
  health->deduped = LoadI64(p + 40);
  health->served_ok = LoadI64(p + 48);
  health->queue_depth = LoadI64(p + 56);
  health->feedback_recorded = LoadI64(p + 64);
  p += 72;
  health->models.clear();
  health->models.reserve(num_models);
  const uint8_t* end = data + len;
  for (uint64_t i = 0; i < num_models; ++i) {
    if (p + 2 > end) {
      return Status::InvalidArgument(
          "health payload truncated inside the models array");
    }
    const uint64_t name_len = LoadU16(p);
    p += 2;
    if (p + name_len + kHealthPerModelTailBytes > end) {
      return Status::InvalidArgument(
          "health payload truncated inside a model record");
    }
    WireModelHealth m;
    m.name.assign(reinterpret_cast<const char*>(p), name_len);
    p += name_len;
    m.cache_enabled = p[0] != 0;
    m.quality_degraded = (p[1] & 1) != 0;
    m.quality_auc_valid = (p[1] & 2) != 0;
    m.bias_spread_valid = (p[1] & 4) != 0;
    p += 2;
    m.hits = LoadI64(p + 0);
    m.misses = LoadI64(p + 8);
    m.inserted = LoadI64(p + 16);
    m.evicted = LoadI64(p + 24);
    m.invalidated = LoadI64(p + 32);
    m.bytes = LoadI64(p + 40);
    m.entries = LoadI64(p + 48);
    m.deduped = LoadI64(p + 56);
    m.feedback_total = LoadI64(p + 64);
    m.quality_window_samples = LoadI64(p + 72);
    m.quality_auc = LoadF64(p + 80);
    m.bias_spread = LoadF64(p + 88);
    p += 104;  // the last 8 bytes are the reserved i64
    health->models.push_back(std::move(m));
  }
  if (p != end) {
    return Status::InvalidArgument(
        "health payload length does not match its model count");
  }
  return Status::Ok();
}

}  // namespace dtdbd::net
