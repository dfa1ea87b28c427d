#include "common/rng.h"

#include <cmath>

namespace dtdbd {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// One xoshiro256** step: returns the output and advances s.
inline uint64_t XoshiroNext(uint64_t* s) {
  const uint64_t result = RotL(s[1] * 5, 7) * 9;
  const uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = RotL(s[3], 45);
  return result;
}

// 53 random bits -> double in [0, 1).
inline double ToUnit(uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

Rng::State Rng::GetState() const {
  State state;
  for (int i = 0; i < 4; ++i) state.s[i] = state_[i];
  state.has_cached_normal = has_cached_normal_;
  state.cached_normal = cached_normal_;
  return state;
}

void Rng::SetState(const State& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.s[i];
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

uint64_t Rng::Next() { return XoshiroNext(state_); }

double Rng::Uniform() { return ToUnit(Next()); }

double Rng::Uniform(double lo, double hi) {
  DTDBD_CHECK_LE(lo, hi);
  return lo + (hi - lo) * Uniform();
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  while (u1 <= 1e-300) u1 = Uniform();
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

int64_t Rng::UniformInt(int64_t n) {
  DTDBD_CHECK_GT(n, 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t v = Next();
  while (v >= limit) v = Next();
  return static_cast<int64_t>(v % un);
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

void Rng::BernoulliFill(double p, float if_true, float if_false, float* out,
                        int64_t n) {
  uint64_t s[4] = {state_[0], state_[1], state_[2], state_[3]};
  // Indexed rather than branched on: the draw is unpredictable.
  const float pick[2] = {if_false, if_true};
  for (int64_t i = 0; i < n; ++i) out[i] = pick[ToUnit(XoshiroNext(s)) < p];
  for (int i = 0; i < 4; ++i) state_[i] = s[i];
}

int Rng::Categorical(const std::vector<double>& weights) {
  DTDBD_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    DTDBD_CHECK_GE(w, 0.0);
    total += w;
  }
  DTDBD_CHECK_GT(total, 0.0) << "all categorical weights are zero";
  double r = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace dtdbd
