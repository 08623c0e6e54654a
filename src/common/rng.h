// Deterministic pseudo-random source for the network simulator.
//
// Every stochastic decision in the workload generator flows through one Rng
// so a (topology seed, workload seed) pair reproduces a dataset bit-for-bit —
// a property the tests and the benchmark harnesses rely on.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace sld {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  // Uniform real in [0, 1).
  double UniformReal() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  // Poisson-distributed count with the given mean (>= 0).
  std::int64_t Poisson(double mean) {
    if (mean <= 0.0) return 0;
    return std::poisson_distribution<std::int64_t>(mean)(engine_);
  }

  // Normal variate.
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  // Uniformly chosen index into a container of the given size (> 0).
  std::size_t Index(std::size_t size) {
    return static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(size) - 1));
  }

  // Uniformly chosen element.
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[Index(v.size())];
  }

  // Weighted choice: returns an index distributed according to `weights`.
  std::size_t Weighted(std::span<const double> weights) {
    double total = 0.0;
    for (const double w : weights) total += w;
    double x = UniformReal() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      x -= weights[i];
      if (x <= 0.0) return i;
    }
    return weights.empty() ? 0 : weights.size() - 1;
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[Index(i)]);
    }
  }

  // Bulk-fills `out` with uniform 64-bit words.  One engine draw seeds a
  // splitmix64 counter expansion, so each word is a pure function of
  // (key, index) — the loop has no cross-iteration dependency and
  // auto-vectorizes, which is what lets slgen's fault-knob decisions keep
  // up with a multi-megabit render loop.  Exactly one engine_() advance
  // per call regardless of out.size(), and the scalar draw methods above
  // are untouched, so existing (seed -> dataset) byte sequences are
  // preserved.
  void FillUniform64(std::span<std::uint64_t> out) {
    const std::uint64_t key = engine_();
    for (std::size_t i = 0; i < out.size(); ++i) {
      std::uint64_t z = key + (i + 1) * 0x9e3779b97f4a7c15ULL;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      out[i] = z ^ (z >> 31);
    }
  }

  // Derives an independent child generator; used to give each scenario its
  // own stream so adding one scenario does not perturb the others.
  Rng Fork() { return Rng(engine_()); }

  std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace sld
