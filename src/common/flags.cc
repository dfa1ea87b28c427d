#include "common/flags.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/logging.h"

namespace dtdbd {

FlagParser::FlagParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (arg.rfind("no-", 0) == 0) {
      // --no-foo is always the boolean "foo=false"; it never consumes the
      // following argument.
      values_[arg.substr(3)] = "false";
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second != "false" && it->second != "0";
}

int FlagParser::GetInt(const std::string& name, int default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return std::atoi(it->second.c_str());
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return std::atof(it->second.c_str());
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second;
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

bool ParsePositiveInt(const char* text, int* out) {
  if (text == nullptr || *text == '\0') return false;
  // strtol would skip leading whitespace and accept a sign; require the
  // string to start with a digit so only plain decimals pass.
  if (!std::isdigit(static_cast<unsigned char>(*text))) return false;
  errno = 0;
  char* end = nullptr;
  const long n = std::strtol(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return false;
  if (n <= 0 || n > std::numeric_limits<int>::max()) return false;
  *out = static_cast<int>(n);
  return true;
}

bool ParseNonNegativeInt64(const char* text, int64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  if (!std::isdigit(static_cast<unsigned char>(*text))) return false;
  errno = 0;
  char* end = nullptr;
  const long long n = std::strtoll(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return false;
  if (n < 0 || n > std::numeric_limits<int64_t>::max()) return false;
  *out = static_cast<int64_t>(n);
  return true;
}

int64_t ResolveKnob(const Knob& knob, const FlagParser* flags) {
  std::string source;
  std::string text;
  if (flags != nullptr && flags->Has(knob.flag)) {
    source = std::string("--") + knob.flag;
    text = flags->GetString(knob.flag, "");
  } else if (const char* env = knob.env ? std::getenv(knob.env) : nullptr) {
    source = knob.env;
    text = env;
  } else {
    return knob.fallback;
  }
  int64_t n = 0;
  if (ParseNonNegativeInt64(text.c_str(), &n) && n >= knob.min &&
      n <= knob.max) {
    return n;
  }
  DTDBD_LOG(Warning) << source << " '" << text << "' is not an integer in ["
                     << knob.min << ", " << knob.max << "]; using "
                     << knob.fallback;
  return knob.fallback;
}

}  // namespace dtdbd
