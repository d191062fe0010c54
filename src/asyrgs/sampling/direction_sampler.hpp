// Non-uniform direction sampling over the batched Philox planner.
//
// The engine's determinism story rests on ONE global counter-based stream:
// worker w of a team P consumes the global Philox positions {w, w+P, ...},
// so the multiset of stream positions a run consumes is a pure function of
// (seed, n, sweeps) — independent of worker count.  This subsystem keeps
// that invariant while generalizing WHAT each position draws:
//
//   kUniform   position bits -> index via the 128-bit multiply reduction
//              (Philox4x32::index_at).  This is byte-identical to the
//              pre-sampling engine: a null/uniform sampler changes neither
//              the Philox calls nor the mapping, so every existing golden
//              hash holds.
//   kWeighted  position bits -> index via a Walker alias table built once
//              from static weights (squared row norms, nnz counts, ...).
//              One 64-bit draw decides bucket AND acceptance: the 128-bit
//              product bits*n splits into a bucket (high word) and a
//              remainder uniform within the bucket (low word), compared
//              against the bucket's fixed-point acceptance threshold.  The
//              map is a pure per-position function, so the direction
//              multiset stays invariant across worker counts.
//   kResidual  same alias mechanics, but the weights are residual
//              magnitudes and the table is rebuilt periodically — only at
//              engine synchronization points, on worker 0, while the rest
//              of the team is parked at the sweep barrier (the barrier
//              provides the happens-before edge; no locks in the draw
//              path).  Positions consumed between two rebuilds map through
//              one table generation, so a fixed (seed, refresh inputs) run
//              is reproducible; across worker counts the multiset is
//              invariant whenever the refresh inputs coincide (trivially:
//              until the first refresh, whose weights come from the
//              deterministic initial iterate).
//
// Rates: sampling rows proportionally to ||A_i||^2 is the Strohmer-
// Vershynin randomized Kaczmarz distribution, which the asynchronous
// analysis of Liu, Wright & Sridhar (arXiv:1401.4780) carries to the
// parallel setting; residual-weighted draws follow the adaptive
// sketch-and-project line of Patel, Jahangoshahi & Maldonado
// (arXiv:2104.04816, arXiv:2204.01653).  See docs/DESIGN.md.
#pragma once

#include <cstdint>
#include <vector>

#include "asyrgs/support/common.hpp"

namespace asyrgs {

/// Direction-draw distribution of an asynchronous solve.
enum class SamplingPolicy {
  kUniform = 0,  ///< every direction equally likely (the paper's setting)
  kWeighted,     ///< static weights via a Walker alias table
  kResidual,     ///< residual-weighted, table rebuilt at sync points
};

[[nodiscard]] const char* to_string(SamplingPolicy policy) noexcept;

/// Walker/Vose alias table with a fixed-point 64-bit acceptance threshold
/// per bucket.  Sampling consumes exactly one 64-bit word: the 128-bit
/// product bits * n yields the bucket in its high word and, in its low
/// word, a remainder that is uniform over [0, 2^64) within the bucket (up
/// to an O(n/2^64) quantization) — compared against threshold_[bucket] to
/// accept the bucket or take its alias.  The build is a deterministic
/// index-ordered two-stack Vose pass: equal weights always produce equal
/// tables, byte for byte, which is what the golden-hash tests pin.
class AliasTable {
 public:
  AliasTable() = default;

  /// Rebuilds the table from `n` weights.  Negative/NaN weights clamp to
  /// zero; an all-zero (or non-finite-total) weight vector degenerates to
  /// the uniform table.  Reuses the existing arrays when `n` matches, so a
  /// residual-policy rebuild allocates nothing.
  void build(const double* weights, index_t n);

  [[nodiscard]] index_t size() const noexcept {
    return static_cast<index_t>(alias_.size());
  }

  /// Maps 64 uniform bits to a table index.  Pure function of (bits, table
  /// contents); no state, safe to call from any number of readers.
  [[nodiscard]] index_t map(std::uint64_t bits) const noexcept {
    const unsigned __int128 prod =
        static_cast<unsigned __int128>(bits) *
        static_cast<unsigned __int128>(alias_.size());
    const auto bucket = static_cast<std::size_t>(prod >> 64);
    const auto rem = static_cast<std::uint64_t>(prod);
    return rem < threshold_[bucket] ? static_cast<index_t>(bucket)
                                    : alias_[bucket];
  }

  /// Exact probability the table assigns to index i (for tests: within
  /// 1/2^64 quantization of weights[i] / sum(weights)).
  [[nodiscard]] double probability(index_t i) const noexcept;

  /// FNV-1a hash over (n, thresholds, aliases) — the golden-test surface
  /// pinning build determinism.
  [[nodiscard]] std::uint64_t fnv1a() const noexcept;

 private:
  std::vector<std::uint64_t> threshold_;  // accept bucket b when rem < thr[b]
  std::vector<index_t> alias_;
};

/// A sampling policy bound to a direction count, ready for the engine.
///
/// Ownership/threading contract: the engine (DirectionPlan /
/// run_engine_sampled) holds a const pointer and calls only
/// `map`/`map_in_place` from worker threads.  `rebuild` may be called
/// exclusively between the engine's synchronization barriers (worker 0,
/// team parked) — the barriers order the writes against every later draw,
/// so the draw path stays lock-free.
/// A kUniform sampler (or a null pointer) leaves the engine's draw path
/// byte-identical to the pre-sampling code.
class DirectionSampler {
 public:
  /// Uniform policy over [0, n): no table, no mapping overhead.
  [[nodiscard]] static DirectionSampler uniform(index_t n);

  /// Static weighted policy (Walker alias table built once).
  [[nodiscard]] static DirectionSampler weighted(const double* weights,
                                                 index_t n);

  /// Residual-weighted policy seeded from initial weights; refresh via
  /// rebuild() at engine sync points.
  [[nodiscard]] static DirectionSampler residual(const double* weights,
                                                 index_t n);

  [[nodiscard]] SamplingPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] index_t directions() const noexcept { return n_; }

  /// Whether draws route through the alias table (false exactly for
  /// kUniform — the engine's bit-identity gate).
  [[nodiscard]] bool weighted_draws() const noexcept {
    return policy_ != SamplingPolicy::kUniform;
  }

  /// One draw: 64 Philox bits to a direction.
  [[nodiscard]] index_t map(std::uint64_t bits) const noexcept {
    return table_.map(bits);
  }

  /// Batched draw: `out` initially holds raw 64-bit Philox words (written
  /// through the aliasing-compatible uint64 view of the index buffer by
  /// Philox4x32::fill_at_strided) and is mapped to directions in place.
  void map_in_place(index_t* out, std::size_t count) const noexcept;

  /// Replaces the table from fresh weights (residual policy refresh).  See
  /// the class contract for when this may be called.
  void rebuild(const double* weights, index_t n);

  /// Number of build() passes this sampler has paid (1 after construction
  /// for the weighted policies) — surfaced through ProblemStats so tests
  /// can assert prepare-once amortization.
  [[nodiscard]] long long rebuilds() const noexcept { return rebuilds_; }

  [[nodiscard]] const AliasTable& table() const noexcept { return table_; }

 private:
  DirectionSampler(SamplingPolicy policy, index_t n) noexcept
      : policy_(policy), n_(n) {}

  SamplingPolicy policy_ = SamplingPolicy::kUniform;
  index_t n_ = 0;
  AliasTable table_;
  long long rebuilds_ = 0;
};

}  // namespace asyrgs
