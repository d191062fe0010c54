#include "asyrgs/sampling/direction_sampler.hpp"

#include <cmath>
#include <cstring>
#include <limits>

namespace asyrgs {

namespace {

/// Fixed-point acceptance threshold: probability p in [0, 1] scaled to
/// [0, 2^64], saturating at UINT64_MAX (a saturated bucket accepts every
/// remainder except 2^64-1 itself, whose alias is the bucket again — so
/// saturation is exact, not a 2^-64 leak).
std::uint64_t to_threshold(double p) noexcept {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return std::numeric_limits<std::uint64_t>::max();
  const double scaled = std::ldexp(p, 64);
  if (scaled >= 18446744073709551616.0)  // 2^64
    return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(scaled);
}

}  // namespace

const char* to_string(SamplingPolicy policy) noexcept {
  switch (policy) {
    case SamplingPolicy::kUniform:
      return "uniform";
    case SamplingPolicy::kWeighted:
      return "weighted";
  }
  return "unknown";
}

void AliasTable::build(const double* weights, index_t n) {
  require(n > 0, "AliasTable: need at least one direction");
  const auto un = static_cast<std::size_t>(n);
  threshold_.assign(un, std::numeric_limits<std::uint64_t>::max());
  alias_.resize(un);
  for (std::size_t i = 0; i < un; ++i) alias_[i] = static_cast<index_t>(i);

  double total = 0.0;
  for (std::size_t i = 0; i < un; ++i) {
    const double w = weights[i];
    if (w > 0.0) total += w;
  }
  // Degenerate weights (all zero, or a non-finite sum) fall back to the
  // uniform table rather than throwing.
  if (!(total > 0.0) || !std::isfinite(total)) return;

  // Index-ordered two-stack Vose: scaled[i] = w_i * n / total; buckets
  // below 1 borrow their tail from a bucket above 1.  Stack order (highest
  // index first off each stack) is part of the determinism contract pinned
  // by the golden hashes — do not reorder.
  std::vector<double> scaled(un);
  std::vector<index_t> small, large;
  small.reserve(un);
  large.reserve(un);
  const double scale = static_cast<double>(n) / total;
  for (std::size_t i = 0; i < un; ++i) {
    const double w = weights[i];
    scaled[i] = w > 0.0 ? w * scale : 0.0;
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<index_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const auto s = static_cast<std::size_t>(small.back());
    small.pop_back();
    const auto l = static_cast<std::size_t>(large.back());
    threshold_[s] = to_threshold(scaled[s]);
    alias_[s] = static_cast<index_t>(l);
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(static_cast<index_t>(l));
    }
  }
  // Leftovers on either stack are numerically exactly 1 (rounding left
  // them on the wrong side): full buckets, alias to self — already the
  // assign() defaults, nothing to write.
}

double AliasTable::probability(index_t i) const noexcept {
  // P(i) = P(bucket == i accepts) + sum over buckets aliased to i of their
  // rejection mass; each bucket's preimage has measure 1/n exactly (the
  // multiply reduction partitions [0, 2^64) into n near-equal intervals).
  const double inv_n = 1.0 / static_cast<double>(alias_.size());
  const auto ui = static_cast<std::size_t>(i);
  double p = inv_n * std::ldexp(static_cast<double>(threshold_[ui]), -64);
  for (std::size_t b = 0; b < alias_.size(); ++b)
    if (alias_[b] == i && b != ui)
      p += inv_n *
           (1.0 - std::ldexp(static_cast<double>(threshold_[b]), -64));
  return p;
}

std::uint64_t AliasTable::fnv1a() const noexcept {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(alias_.size()));
  for (std::uint64_t t : threshold_) mix(t);
  for (index_t a : alias_) mix(static_cast<std::uint64_t>(a));
  return h;
}

void AliasTable::map_in_place(index_t* out,
                              std::size_t count) const noexcept {
  static_assert(sizeof(index_t) == sizeof(std::uint64_t),
                "raw Philox words are mapped in place through the index "
                "buffer");
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &out[i], sizeof(bits));
    out[i] = map(bits);
  }
}

}  // namespace asyrgs
