// Deterministic random number generation. Every source of randomness in the
// project flows through an explicitly seeded Rng so experiments are
// bit-reproducible across runs and machines.
#ifndef DTDBD_COMMON_RNG_H_
#define DTDBD_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace dtdbd {

// xoshiro256** PRNG seeded via SplitMix64. Small, fast, good statistical
// quality; not cryptographic (not needed here).
class Rng {
 public:
  // Complete generator state; capturing and restoring it resumes the stream
  // at exactly the same point (used by training checkpoints).
  struct State {
    uint64_t s[4] = {0, 0, 0, 0};
    bool has_cached_normal = false;
    double cached_normal = 0.0;

    bool operator==(const State& other) const {
      return s[0] == other.s[0] && s[1] == other.s[1] && s[2] == other.s[2] &&
             s[3] == other.s[3] &&
             has_cached_normal == other.has_cached_normal &&
             cached_normal == other.cached_normal;
    }
  };

  explicit Rng(uint64_t seed);

  State GetState() const;
  void SetState(const State& state);

  // Uniform 64-bit value.
  uint64_t Next();

  // Uniform double in [0, 1).
  double Uniform();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Standard normal via Box-Muller (cached second draw).
  double Normal();

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  // Uniform integer in [0, n). n must be > 0.
  int64_t UniformInt(int64_t n);

  // True with probability p.
  bool Bernoulli(double p);

  // out[i] = Bernoulli(p) ? if_true : if_false for i in [0, n): the same
  // draws, in the same order, as n calls of Bernoulli(p), and the same
  // state afterwards, with the generator state kept in registers.
  void BernoulliFill(double p, float if_true, float if_false, float* out,
                     int64_t n);

  // Samples an index from unnormalized non-negative weights.
  int Categorical(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (int64_t i = static_cast<int64_t>(items->size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(i + 1);
      std::swap((*items)[i], (*items)[j]);
    }
  }

  // Derives an independent child generator; used to hand each subsystem its
  // own stream without correlating draws.
  Rng Fork();

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace dtdbd

#endif  // DTDBD_COMMON_RNG_H_
