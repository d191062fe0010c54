// Non-uniform direction sampling over the batched Philox planner.
//
// The engine's determinism story rests on ONE global counter-based stream:
// each sweep s consumes the global Philox positions [s*n, (s+1)*n), worker
// w of a team P taking s*n + w + t*P for its t-th update, so the multiset of
// stream positions a run consumes is a pure function of (seed, n, sweeps) —
// independent of worker count.  This subsystem keeps
// that invariant while generalizing WHAT each position draws:
//
//   kUniform   position bits -> index via the 128-bit multiply reduction
//              (Philox4x32::index_at).  The engine's plan takes no table
//              (a null AliasTable pointer), so the draw path is byte-
//              identical to the pre-sampling engine and every existing
//              golden hash holds.
//   kWeighted  position bits -> index via a Walker alias table built once
//              from static weights (squared row norms, nnz counts, ...).
//              One 64-bit draw decides bucket AND acceptance: the 128-bit
//              product bits*n splits into a bucket (high word) and a
//              remainder uniform within the bucket (low word), compared
//              against the bucket's fixed-point acceptance threshold.  The
//              map is a pure per-position function of a table that never
//              changes during a run, so the direction multiset stays
//              invariant across worker counts.
//
// Rates: sampling rows proportionally to ||A_i||^2 is the Strohmer-
// Vershynin randomized Kaczmarz distribution, which the asynchronous
// analysis of Liu, Wright & Sridhar (arXiv:1401.4780) carries to the
// parallel setting.  See docs/DESIGN.md; docs/TUNING.md "Removed knobs"
// records why residual-weighted (adaptive) draws are not offered.
#pragma once

#include <cstdint>
#include <vector>

#include "asyrgs/support/common.hpp"

namespace asyrgs {

/// Direction-draw distribution of an asynchronous solve.
enum class SamplingPolicy {
  kUniform = 0,  ///< every direction equally likely (the paper's setting)
  kWeighted,     ///< static weights via a Walker alias table
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

  /// Builds the table from `n` weights.  Negative/NaN weights clamp to
  /// zero; an all-zero (or non-finite-total) weight vector degenerates to
  /// the uniform table.
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

  /// Batched map: `out` initially holds raw 64-bit Philox words (written
  /// through the aliasing-compatible uint64 view of the index buffer by
  /// Philox4x32::fill_at_strided) and is mapped to directions in place.
  /// The engine's workers call only map/map_in_place, on a table built
  /// before the team starts, so the draw path is lock-free.
  void map_in_place(index_t* out, std::size_t count) const noexcept;

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

}  // namespace asyrgs
