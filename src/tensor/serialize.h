// Binary (de)serialization of named parameter sets. Format v2:
//   magic "DTDB" | u32 version |u64 count |
//   per entry: u64 name_len | name bytes | u64 ndim | i64 dims[] |
//              f32 data[] | u32 crc32(name..data)
// Any other version is rejected. All reads are bounds-checked against the
// file size so a hostile or truncated file can never trigger a huge
// allocation or a partial load.
#ifndef DTDBD_TENSOR_SERIALIZE_H_
#define DTDBD_TENSOR_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"
#include "tensor/tensor.h"

namespace dtdbd::tensor {

// CRC-32 (IEEE, reflected). Chainable: Crc32(b, nb, Crc32(a, na)) equals the
// CRC of the concatenation a||b. Used for per-entry integrity in tensor and
// checkpoint files.
uint32_t Crc32(const void* data, size_t n, uint32_t crc = 0);

// Writes the named tensors to `path` (format v2, per-entry CRC32).
Status SaveTensors(const std::map<std::string, Tensor>& tensors,
                   const std::string& path);

// Reads tensors from `path`. Loaded tensors are leaves with
// requires_grad=false; callers re-enable grad as needed. Truncated files
// yield kIoError, corrupt or absurd metadata kInvalidArgument; on any error
// no partial data is returned.
StatusOr<std::map<std::string, Tensor>> LoadTensors(const std::string& path);

// Copies loaded values into an existing parameter map (shapes must match).
Status RestoreInto(const std::map<std::string, Tensor>& loaded,
                   std::map<std::string, Tensor>* params);

}  // namespace dtdbd::tensor

#endif  // DTDBD_TENSOR_SERIALIZE_H_
