// Length-prefixed binary wire protocol for the serving front end.
//
// Every frame is a fixed 32-byte header followed by `payload_len` bytes of
// typed payload. All integers are little-endian, all floats IEEE-754
// single-precision, serialized byte-exactly — the response carries the same
// float the in-process Submit() produced, so wire answers are bitwise
// comparable to offline references (the §9.4 parity contract extends to the
// socket).
//
//   offset  size  field
//        0     4  magic          0x42445444 ("DTDB" on the wire)
//        4     2  version        kProtocolVersion
//        6     2  type           FrameType
//        8     8  request_id     client-chosen, echoed verbatim in response
//       16     8  deadline_nanos absolute per the server's monotonic clock;
//                                0 = no deadline (loopback clients share the
//                                machine's steady clock, so "absolute" is
//                                well-defined; cross-machine callers send 0
//                                or over-provision for skew)
//       24     4  payload_len    bytes following the header
//       28     4  reserved       must be 0
//
// Request payload (type kRequest):
//   i32 domain, u32 num_tokens, u32 style_dim, u32 emotion_dim,
//   i32 tokens[num_tokens], f32 style[style_dim], f32 emotion[emotion_dim],
//   u16 model_name_len, char model_name[model_name_len]
// An empty model name routes to the server's default model.
//
// Response payload (type kResponse):
//   u16 code (WireCode), u16 flags (bit 0 = answered by the canary variant),
//   u32 retry_after_ms, f32 p_fake, i32 label, i64 model_version,
//   u32 message_len, char message[message_len],
//   u16 model_name_len, char model_name[model_name_len]
//
// Every frame carries exactly kProtocolVersion; any other version is a
// clean header rejection (kBadFrame, then close).
//
// The header is validated *before* any payload byte is buffered, so an
// oversized or garbage length can never balloon a read buffer. Header
// trouble falls in two classes: framing still trusted (clean version
// mismatch, non-request type) -> answer a kBadFrame error frame, then close;
// framing untrusted (bad magic, reserved != 0, payload_len > max) -> the
// byte stream cannot be resynchronized, close immediately. A payload that
// decodes inconsistently under a valid header gets a kBadFrame error frame
// and the connection SURVIVES — the length prefix still frames the stream.
#ifndef DTDBD_NET_PROTOCOL_H_
#define DTDBD_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/session.h"
#include "serve/validation.h"

namespace dtdbd::net {

inline constexpr uint32_t kMagic = 0x42445444;  // "DTDB" little-endian
inline constexpr uint16_t kProtocolVersion = 2;
inline constexpr size_t kFrameHeaderSize = 32;
// Default ceiling on payload_len; SocketServerOptions can lower it.
inline constexpr uint32_t kDefaultMaxFrameBytes = 1u << 20;

enum class FrameType : uint16_t {
  kRequest = 1,
  kResponse = 2,
  // Health introspection. The request has an empty payload; the response
  // carries the serving/cache counters below.
  kHealthRequest = 3,
  kHealthResponse = 4,
};

// Protocol-level result codes carried in every response frame. The serving
// Status taxonomy maps onto these 1:1 (WireCodeForStatus); kBadFrame is
// net-only — the request never reached the queue because the bytes
// themselves were malformed.
enum class WireCode : uint16_t {
  kOk = 0,
  kInvalidArgument = 1,   // Status kInvalidArgument (validation taxonomy)
  kRetryLater = 2,        // Status kResourceExhausted; retry_after_ms is set
  kDeadlineExceeded = 3,  // Status kDeadlineExceeded
  kUnavailable = 4,       // Status kUnavailable (draining / stopped)
  kInternal = 5,          // Status kInternal and anything unmapped
  kBadFrame = 6,          // malformed frame; never entered the queue
  kNotFound = 7,          // Status kNotFound (unknown model name)
};

const char* WireCodeName(WireCode code);
WireCode WireCodeForStatus(const Status& status);

struct FrameHeader {
  uint32_t magic = kMagic;
  uint16_t version = kProtocolVersion;
  FrameType type = FrameType::kRequest;
  uint64_t request_id = 0;
  int64_t deadline_nanos = 0;
  uint32_t payload_len = 0;
  uint32_t reserved = 0;
};

// Decoded response frame, as seen by a client.
struct WireResponse {
  uint64_t request_id = 0;
  WireCode code = WireCode::kInternal;
  uint32_t retry_after_ms = 0;
  serve::Prediction prediction;  // meaningful only when code == kOk
  std::string message;           // human-readable error detail, may be empty
};

// Wire-visible health snapshot (type kHealthResponse). A deliberate
// SUBSET of serve::HealthReport — the serving, prediction-cache, and
// windowed-quality counters an external probe needs to judge cache
// efficacy and drift health, not the full report.
//
// Payload layout ("reserved" fields are encoded as 0 and ignored on decode;
// an older server may have set them):
//   u8 cache_enabled, u8 degraded, u8 quality_degraded, u8 reserved,
//   u32 num_models,
//   i64 cache_bytes_limit, i64 cache_hits, i64 cache_misses,
//   i64 cache_evicted, i64 cache_bytes, i64 deduped,
//   i64 served_ok, i64 queue_depth, i64 feedback_recorded,
//   then num_models repetitions of:
//     u16 name_len, char name[name_len], u8 cache_enabled,
//     u8 quality_flags (bit0 quality_degraded, bit1 auc_valid,
//                       bit2 bias_spread_valid, bit3 reserved),
//     i64 hits, i64 misses, i64 inserted, i64 evicted, i64 invalidated,
//     i64 bytes, i64 entries, i64 deduped,
//     i64 feedback_total, i64 quality_window_samples,
//     f64 quality_auc, f64 bias_spread,
//     i64 reserved
struct WireModelHealth {
  std::string name;
  bool cache_enabled = false;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserted = 0;
  int64_t evicted = 0;
  int64_t invalidated = 0;
  int64_t bytes = 0;
  int64_t entries = 0;
  int64_t deduped = 0;
  // Windowed-quality slice (serve::QualityHealth on the wire). The AUC and
  // bias spread are meaningful only when their validity bit is set — a
  // degenerate window ships 0.0 with the bit clear, never a fake metric.
  bool quality_degraded = false;
  bool quality_auc_valid = false;
  bool bias_spread_valid = false;
  int64_t feedback_total = 0;
  int64_t quality_window_samples = 0;
  double quality_auc = 0.0;
  double bias_spread = 0.0;
};

struct WireHealth {
  bool cache_enabled = false;
  bool degraded = false;
  bool quality_degraded = false;  // default model's windowed-quality flag
  int64_t cache_bytes_limit = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evicted = 0;
  int64_t cache_bytes = 0;
  int64_t deduped = 0;
  int64_t served_ok = 0;
  int64_t queue_depth = 0;
  int64_t feedback_recorded = 0;
  std::vector<WireModelHealth> models;
};

void EncodeFrameHeader(const FrameHeader& header, uint8_t* out);
// Byte-level decode only; never fails. Callers judge the fields with
// ValidateHeader.
void DecodeFrameHeader(const uint8_t* data, FrameHeader* header);

// Header sanity against this endpoint's limits. `trusted_framing` reports
// whether the length prefix can still be believed when the status is non-ok
// (a version other than kProtocolVersion: yes; bad magic / oversized
// length: no).
Status ValidateHeader(const FrameHeader& header, uint32_t max_frame_bytes,
                      bool* trusted_framing);

// Full request frame (header + payload) ready to write to a socket. A
// model name longer than UINT16_MAX is truncated; Client::Send refuses one.
std::string EncodeRequestFrame(uint64_t request_id, int64_t deadline_nanos,
                               const serve::InferenceRequest& request);
// Decodes a request payload; kInvalidArgument when the advertised counts do
// not reconcile with `len` (a garbage frame, distinct from a semantically
// invalid request which serve/validation rejects AFTER decode succeeds).
Status DecodeRequestPayload(const uint8_t* data, size_t len,
                            serve::InferenceRequest* request);

// Full response frame. `prediction` may be null for error responses.
std::string EncodeResponseFrame(uint64_t request_id, WireCode code,
                                uint32_t retry_after_ms,
                                const serve::Prediction* prediction,
                                const std::string& message);
Status DecodeResponsePayload(const uint8_t* data, size_t len,
                             WireResponse* response);

// Health frames. The request carries no payload; the response carries the
// WireHealth snapshot documented above.
std::string EncodeHealthRequestFrame(uint64_t request_id);
std::string EncodeHealthResponseFrame(uint64_t request_id,
                                      const WireHealth& health);
Status DecodeHealthResponsePayload(const uint8_t* data, size_t len,
                                   WireHealth* health);

}  // namespace dtdbd::net

#endif  // DTDBD_NET_PROTOCOL_H_
