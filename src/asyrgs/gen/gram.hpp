// Synthetic "social media" regression system.
//
// The paper's experiments (Section 9) use a proprietary 120,147^2 Gram
// matrix built from a term-document matrix of social-media text: each row of
// the data matrix F is a document, each column a term, values are term
// frequencies, and the solver target is A = F^T F (ridge-regularized linear
// regression against 51 label columns).  The matrix is unavailable, so this
// module generates a faithful synthetic stand-in:
//
//  * term document-frequencies follow a Zipf law, so a few "hub" terms
//    co-occur with nearly everything -> Gram rows that are almost full,
//    while rare terms yield rows with a handful of nonzeros.  The paper's
//    matrix has max row 117,182 vs mean 1,439 vs min 1 — exactly this kind
//    of skew, which is what stresses an asynchronous solver (large tau);
//  * values are integer-ish term frequencies, so A is SPD (after a small
//    ridge) with a strongly non-unit diagonal — exercising the paper's
//    iteration (3) / unit-diagonal rescaling path;
//  * there is no exploitable structure (no bands, no geometry), matching
//    the paper's observation that reordering does not help.
//
// The document-term factor F is also returned for the least-squares
// experiments of Section 8 (min_x ||F x - b||_2).
#pragma once

#include <cstdint>

#include "asyrgs/sparse/csr.hpp"

namespace asyrgs {

/// Knobs for the synthetic corpus.
struct SocialGramOptions {
  index_t terms = 4096;        ///< n: Gram dimension (number of term columns)
  index_t documents = 16384;   ///< m: corpus size (rows of F)
  index_t mean_doc_length = 12;///< average distinct terms per document
  double zipf_exponent = 1.0;  ///< term-popularity decay (1.0 = classic Zipf)
  double ridge = 1.0;          ///< added to diag(A): ridge-regression lambda
  std::uint64_t seed = 42;
  /// Topic structure: documents belong to topics and draw a fraction of
  /// their terms from the topic's vocabulary slice.  Topical co-occurrence
  /// makes term columns within a topic strongly correlated, which is what
  /// drives the *ill-conditioning* of real text Gram matrices (the paper's
  /// matrix is "highly ill-conditioned").  topics == 0 disables the
  /// structure and yields a near-orthogonal, well-conditioned Gram.
  index_t topics = 64;
  double topic_concentration = 0.85;  ///< P(term drawn from own topic)
};

/// The generated system: A = F^T F + ridge*I and the factor F itself.
struct SocialGram {
  CsrMatrix gram;    ///< n x n SPD Gram matrix
  CsrMatrix factor;  ///< m x n document-term matrix F
};

/// Generates the corpus and assembles the Gram matrix exactly (duplicate
/// co-occurrences summed).
[[nodiscard]] SocialGram make_social_gram(const SocialGramOptions& opt);

}  // namespace asyrgs
