#include "asyrgs/gen/gram.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "asyrgs/sparse/coo.hpp"
#include "asyrgs/support/prng.hpp"

namespace asyrgs {

namespace {

/// Inverse-CDF sampler over term ranks with Zipf weights 1/(r+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(index_t n, double s) : cdf_(static_cast<std::size_t>(n)) {
    double acc = 0.0;
    for (index_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
    total_ = acc;
  }

  template <typename Engine>
  index_t operator()(Engine& rng) const {
    const double u = uniform_real(rng) * total_;
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<index_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
  double total_ = 0.0;
};

}  // namespace

template <class Index, class Value>
SocialGramT<Index, Value> make_social_gram_as(const SocialGramOptions& opt) {
  require(opt.terms > 1 && opt.documents > 0,
          "make_social_gram: need terms > 1 and documents > 0");
  require(opt.mean_doc_length >= 1,
          "make_social_gram: mean_doc_length must be >= 1");
  require(opt.ridge >= 0.0, "make_social_gram: ridge must be non-negative");

  require(opt.topics >= 0 && opt.topics <= opt.terms,
          "make_social_gram: topics must be in [0, terms]");
  require(opt.topic_concentration >= 0.0 && opt.topic_concentration <= 1.0,
          "make_social_gram: topic_concentration must be in [0, 1]");

  Xoshiro256 rng(opt.seed);
  const ZipfSampler pick_term(opt.terms, opt.zipf_exponent);

  // Topic t owns the vocabulary slice [t*slice, (t+1)*slice) with a local
  // Zipf law; slice 0-length means no topic structure.
  const index_t n_topics = opt.topics;
  const index_t slice = n_topics > 0 ? opt.terms / n_topics : 0;
  const bool topical = n_topics > 0 && slice >= 2;
  const ZipfSampler pick_in_slice(topical ? slice : 1, opt.zipf_exponent);
  const ZipfSampler pick_topic(topical ? n_topics : 1, opt.zipf_exponent);

  // --- Corpus: each document is a set of (term, frequency) pairs. ---------
  CooBuilderT<Index, Value> factor(opt.documents, opt.terms);
  CooBuilderT<Index, Value> gram(opt.terms, opt.terms);
  // Rough triplet budget: docs * L picks for F, docs * L^2 for the Gram.
  factor.reserve(static_cast<std::size_t>(opt.documents) *
                 static_cast<std::size_t>(opt.mean_doc_length));

  std::vector<index_t> doc_terms;
  std::vector<double> doc_freqs;
  for (index_t d = 0; d < opt.documents; ++d) {
    // Document length: 1 + Poisson-ish via sum of two geometric-ish draws;
    // keeps lengths positively skewed like real text.
    const index_t len =
        1 + uniform_index(rng, opt.mean_doc_length) +
        uniform_index(rng, opt.mean_doc_length);

    doc_terms.clear();
    doc_freqs.clear();
    const index_t topic = topical ? pick_topic(rng) : 0;
    for (index_t t = 0; t < len; ++t) {
      // Topical draw: a slice-local Zipf pick; otherwise a global pick.
      index_t term;
      if (topical && uniform_real(rng) < opt.topic_concentration) {
        term = topic * slice + pick_in_slice(rng);
      } else {
        term = pick_term(rng);
      }
      // Term frequency inside the document: mostly 1, occasionally larger.
      const double tf = 1.0 + static_cast<double>(uniform_index(rng, 3));
      // Merge repeats of the same term within this document.
      auto it = std::find(doc_terms.begin(), doc_terms.end(), term);
      if (it != doc_terms.end()) {
        doc_freqs[static_cast<std::size_t>(it - doc_terms.begin())] += tf;
      } else {
        doc_terms.push_back(term);
        doc_freqs.push_back(tf);
      }
    }

    // Emit F row and its Gram contribution (outer product of the row).
    for (std::size_t p = 0; p < doc_terms.size(); ++p) {
      factor.add(d, doc_terms[p], doc_freqs[p]);
      gram.add(doc_terms[p], doc_terms[p], doc_freqs[p] * doc_freqs[p]);
      for (std::size_t q = p + 1; q < doc_terms.size(); ++q) {
        const double v = doc_freqs[p] * doc_freqs[q];
        gram.add(doc_terms[p], doc_terms[q], v);
        gram.add(doc_terms[q], doc_terms[p], v);
      }
    }
  }

  // Ridge keeps A strictly positive definite even for terms that never
  // appear (zero Gram row otherwise) — those rows become ridge*e_i.
  for (index_t i = 0; i < opt.terms; ++i) gram.add(i, i, opt.ridge);

  return SocialGramT<Index, Value>{gram.to_csr(), factor.to_csr()};
}

SocialGram make_social_gram(const SocialGramOptions& opt) {
  return make_social_gram_as<std::int64_t, double>(opt);
}

template SocialGramT<std::int64_t, double>
make_social_gram_as<std::int64_t, double>(const SocialGramOptions&);
template SocialGramT<std::int32_t, double>
make_social_gram_as<std::int32_t, double>(const SocialGramOptions&);

}  // namespace asyrgs
