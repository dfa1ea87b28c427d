// Test-only guard for one environment variable. CI legs set serving knobs
// (DTDBD_SERVE_WORKERS, DTDBD_CACHE_BYTES, DTDBD_NUM_THREADS) for a whole
// test binary, so a test that needs its own value must not leak it into
// the tests that run after it.
#ifndef DTDBD_TESTS_SCOPED_ENV_H_
#define DTDBD_TESTS_SCOPED_ENV_H_

#include <cstdlib>
#include <string>

namespace dtdbd::testing {

// Sets `name` to `value` (unsets it when `value` is null) for the scope's
// lifetime, then restores the previous value or absence, including over
// any setenv the test made in between. A null `name` makes the guard a
// no-op.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (name_ == nullptr) return;
    const char* old = std::getenv(name_);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv(name_, value, /*overwrite=*/1);
    } else {
      ::unsetenv(name_);
    }
  }
  ~ScopedEnv() {
    if (name_ == nullptr) return;
    if (had_old_) {
      ::setenv(name_, old_.c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

}  // namespace dtdbd::testing

#endif  // DTDBD_TESTS_SCOPED_ENV_H_
