// Tiny command-line flag parser shared by the bench/example binaries.
// Supports --name=value, --name value, and boolean --name / --no-name.
#ifndef DTDBD_COMMON_FLAGS_H_
#define DTDBD_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace dtdbd {

class FlagParser {
 public:
  // Parses argv; unknown flags are kept and reported by Unknown().
  FlagParser(int argc, char** argv);

  bool GetBool(const std::string& name, bool default_value) const;
  int GetInt(const std::string& name, int default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;

  bool Has(const std::string& name) const;

  // Positional (non-flag) arguments.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

// Strict positive-integer parse behind DTDBD_NUM_THREADS (whose unset
// default is the hardware thread count, so it is not a Knob row): the
// whole string must be a positive decimal integer that fits in int. Returns
// false for "", "abc", "4x", " 4", "0", "-3", and out-of-range values, so a
// caller can warn and fall back instead of silently accepting a prefix (the
// old std::atoi behavior).
bool ParsePositiveInt(const char* text, int* out);

// Strict non-negative 64-bit parse: the whole string must be a plain decimal
// with no sign, whitespace, or trailing junk, and must fit in int64_t. "0"
// is accepted; range limits are the caller's (see ResolveKnob).
bool ParseNonNegativeInt64(const char* text, int64_t* out);

// One integer setting: a --flag, an optional environment twin, the valid
// range, and the value used when neither is set or either is invalid. The
// serving stack declares its rows next to the options structs they feed
// (serve/server.h, serve/fleet.h, net/socket_server.h). `min` must be >= 0.
struct Knob {
  const char* flag;  // without the leading "--"
  const char* env;   // nullptr = no environment twin
  int64_t min;
  int64_t max;
  int64_t fallback;
};

// `max` of the rows whose value lands in an int field.
inline constexpr int64_t kIntKnobMax = std::numeric_limits<int>::max();

// The strict resolution rule for every Knob row:
//   - a present --flag is strictly parsed into [min, max]; a value that
//     fails (non-numeric, sign, whitespace, trailing junk, out of range)
//     logs a warning and yields `fallback` and never falls through to the
//     env — a typo'd --port must not bind a random port;
//   - an absent flag (or null `flags`) falls back to the env twin, parsed
//     the same way;
//   - neither set -> `fallback`.
int64_t ResolveKnob(const Knob& knob, const FlagParser* flags);

}  // namespace dtdbd

#endif  // DTDBD_COMMON_FLAGS_H_
