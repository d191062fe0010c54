// Property-based randomized suites: algebraic identities that must hold for
// arbitrary inputs, checked across seeds via parameterized tests.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <map>
#include <set>
#include <utility>

#include "asyrgs/asyrgs.hpp"

namespace asyrgs {
namespace {

/// Random sparse square matrix (general, unsymmetric) for structure tests.
CsrMatrix random_sparse(index_t n, std::uint64_t seed) {
  CooBuilder b(n, n);
  Xoshiro256 rng(seed);
  const index_t entries = n * 6;
  for (index_t t = 0; t < entries; ++t)
    b.add(uniform_index(rng, n), uniform_index(rng, n), normal(rng));
  // Ensure no empty rows (simplifies downstream use).
  for (index_t i = 0; i < n; ++i) b.add(i, i, 1.0 + uniform_real(rng));
  return b.to_csr();
}

class SeededTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededTest, TransposeIsInvolution) {
  const CsrMatrix a = random_sparse(83, GetParam());
  EXPECT_TRUE(a.transpose().transpose().equals(a, 0.0));
}

TEST_P(SeededTest, SymmetryCheckMatchesTransposeReference) {
  // is_symmetric merges each entry with its mirror in one pass over the
  // rows; the reference compares A with an explicit A^T.  Both must give
  // the same verdict on symmetric matrices and on every single mutation.
  using Entries = std::map<std::pair<index_t, index_t>, double>;
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);
  const index_t n = 37;
  Entries base;
  for (index_t i = 0; i < n; ++i) base[{i, i}] = 4.0 + uniform_real(rng);
  for (int t = 0; t < 90; ++t) {
    const index_t i = uniform_index(rng, n);
    const index_t j = uniform_index(rng, n);
    if (i == j) continue;
    const double v = normal(rng);
    base[{i, j}] = v;
    base[{j, i}] = v;
  }
  const auto build = [](index_t rows, index_t cols, const Entries& entries) {
    CooBuilder b(rows, cols);
    for (const auto& [ij, v] : entries) b.add(ij.first, ij.second, v);
    return b.to_csr();
  };
  const auto agree = [](const CsrMatrix& a, double tol, const char* what) {
    const bool reference = a.square() && a.equals(a.transpose(), tol);
    EXPECT_EQ(is_symmetric(a, tol), reference) << what << ", tol " << tol;
    return reference;
  };
  // An off-diagonal entry (i, j) of the base, drawn afresh per mutation.
  const auto pick_offdiag = [&]() {
    for (;;) {
      auto it = base.begin();
      std::advance(it, static_cast<long>(uniform_index(
                           rng, static_cast<index_t>(base.size()))));
      if (it->first.first != it->first.second) return it->first;
    }
  };
  const double tol = 1e-9;

  EXPECT_TRUE(agree(build(n, n, base), 0.0, "symmetric"));
  EXPECT_TRUE(agree(build(n, n, base), tol, "symmetric"));

  {  // one value nudged past tol: asymmetric at tol, symmetric at 4 tol
    Entries m = base;
    m[pick_offdiag()] += 2.0 * tol;
    const CsrMatrix a = build(n, n, m);
    EXPECT_FALSE(agree(a, tol, "nudged past tol"));
    EXPECT_TRUE(agree(a, 4.0 * tol, "nudged past tol"));
  }
  {  // one value off by exactly the tolerance: accepted at it, not below
    Entries m = base;
    const auto ij = pick_offdiag();
    const double mirror = m.at({ij.second, ij.first});
    m[ij] = mirror + 0.5;
    const double exact = std::abs(m[ij] - mirror);
    const CsrMatrix a = build(n, n, m);
    EXPECT_TRUE(agree(a, exact, "off by exactly tol"));
    EXPECT_FALSE(agree(a, std::nextafter(exact, 0.0), "off by exactly tol"));
  }
  {  // a dropped mirror entry
    Entries m = base;
    const auto ij = pick_offdiag();
    m.erase({ij.second, ij.first});
    EXPECT_FALSE(agree(build(n, n, m), tol, "dropped mirror"));
    EXPECT_FALSE(agree(build(n, n, m), 1e300, "dropped mirror"));
  }
  {  // an extra one-sided entry, in each triangle
    for (const bool upper : {true, false}) {
      Entries m = base;
      index_t i = 0, j = 0;
      do {
        i = uniform_index(rng, n);
        j = uniform_index(rng, n);
      } while (i == j || (upper != (i < j)) || m.count({i, j}) != 0);
      m[{i, j}] = 0.25;
      EXPECT_FALSE(agree(build(n, n, m), tol, "extra one-sided entry"));
    }
  }
  {  // a non-square shape with a symmetric leading block
    Entries m = base;
    m[{n - 1, n}] = 1.0;
    EXPECT_FALSE(agree(build(n, n + 1, m), tol, "non-square"));
  }
  // A general random matrix (almost surely unsymmetric).
  agree(random_sparse(41, seed), tol, "random unsymmetric");
}

TEST_P(SeededTest, SpmvIsLinear) {
  const std::uint64_t seed = GetParam();
  const CsrMatrix a = random_sparse(64, seed);
  const std::vector<double> x = random_vector(64, seed + 1);
  const std::vector<double> y = random_vector(64, seed + 2);
  const double alpha = 1.75, beta = -0.5;

  std::vector<double> combo(64);
  for (int i = 0; i < 64; ++i) combo[i] = alpha * x[i] + beta * y[i];

  std::vector<double> a_combo(64), ax(64), ay(64);
  a.multiply(combo.data(), a_combo.data());
  a.multiply(x.data(), ax.data());
  a.multiply(y.data(), ay.data());
  for (int i = 0; i < 64; ++i)
    EXPECT_NEAR(a_combo[i], alpha * ax[i] + beta * ay[i],
                1e-11 * (1.0 + std::abs(a_combo[i])));
}

TEST_P(SeededTest, TransposeIsAdjoint) {
  // <A x, y> == <x, A^T y> for all x, y.
  const std::uint64_t seed = GetParam();
  const CsrMatrix a = random_sparse(60, seed);
  const std::vector<double> x = random_vector(60, seed + 3);
  const std::vector<double> y = random_vector(60, seed + 4);
  std::vector<double> ax(60), aty(60);
  a.multiply(x.data(), ax.data());
  a.multiply_transpose(y.data(), aty.data());
  EXPECT_NEAR(dot(ax, y), dot(x, aty), 1e-10 * (1.0 + std::abs(dot(ax, y))));
}

TEST_P(SeededTest, CooMatchesDenseAccumulation) {
  const std::uint64_t seed = GetParam();
  const index_t n = 12;
  CooBuilder builder(n, n);
  std::vector<double> dense(static_cast<std::size_t>(n * n), 0.0);
  Xoshiro256 rng(seed);
  for (int t = 0; t < 200; ++t) {
    const index_t i = uniform_index(rng, n);
    const index_t j = uniform_index(rng, n);
    const double v = normal(rng);
    builder.add(i, j, v);
    dense[static_cast<std::size_t>(i * n + j)] += v;
  }
  const CsrMatrix a = builder.to_csr();
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j)
      EXPECT_NEAR(a.at(i, j), dense[static_cast<std::size_t>(i * n + j)],
                  1e-12);
}

TEST_P(SeededTest, SolversLeaveExactSolutionFixed) {
  // x* is a fixed point of every relaxation: starting there, any number of
  // updates must keep the residual at rounding level.
  const std::uint64_t seed = GetParam();
  RandomBandedOptions opt;
  opt.n = 150;
  opt.seed = seed;
  const CsrMatrix a = random_sdd(opt);
  const std::vector<double> x_star = random_vector(a.rows(), seed + 7);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  const double scale = nrm2(b);

  {
    std::vector<double> x = x_star;
    RgsOptions ro;
    ro.sweeps = 3;
    ro.seed = seed;
    rgs_solve(a, b, x, ro);
    EXPECT_LT(residual_norm(a, b, x), 1e-10 * scale);
  }
  {
    ThreadPool pool(4);
    std::vector<double> x = x_star;
    SolveControls ao;
    ao.method = SpdMethod::kAsyncRgs;
    ao.sweeps = 3;
    ao.workers = 4;
    ao.seed = seed;
    SpdProblem(pool, a, /*check_input=*/false).solve(b, x, ao);
    EXPECT_LT(residual_norm(a, b, x), 1e-10 * scale);
  }
  {
    std::vector<double> x = x_star;
    sor_sweep(a, b, x, 1.0);
    EXPECT_LT(residual_norm(a, b, x), 1e-10 * scale);
  }
}

TEST_P(SeededTest, ScaledSolveEquivalence) {
  // Solving B y = z directly (iteration (3)) and through the unit-diagonal
  // transformation must agree through the D map for matched directions.
  const std::uint64_t seed = GetParam();
  RandomBandedOptions opt;
  opt.n = 90;
  opt.seed = seed + 11;
  const CsrMatrix b_mat = random_sdd(opt);
  const std::vector<double> z = random_vector(b_mat.rows(), seed + 13);

  const UnitDiagonalScaling scaling(b_mat);
  const CsrMatrix a = scaling.scale_matrix(b_mat);
  const std::vector<double> dz = scaling.scale_rhs(z);

  RgsOptions ro;
  ro.sweeps = 5;
  ro.seed = seed;
  std::vector<double> y(b_mat.rows(), 0.0);
  rgs_solve(b_mat, z, y, ro);
  std::vector<double> x(b_mat.rows(), 0.0);
  rgs_solve(a, dz, x, ro);
  const std::vector<double> y2 = scaling.unscale_solution(x);
  for (index_t i = 0; i < b_mat.rows(); ++i)
    EXPECT_NEAR(y[i], y2[i], 1e-10 * (1.0 + std::abs(y[i])));
}

TEST_P(SeededTest, PhiloxIsInjectiveOnSample) {
  const Philox4x32 gen(GetParam());
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) seen.insert(gen.at(i));
  // A collision among 4096 64-bit values is a 2^-40 event: treat as failure.
  EXPECT_EQ(seen.size(), 4096u);
}

TEST_P(SeededTest, BernoulliExtremesMatchReferenceModels) {
  // p = 1: everything visible (== zero delay).  p = 0: nothing in the
  // window visible (== WindowExclusion == FixedDelay).
  const std::uint64_t seed = GetParam();
  const index_t n = 40;
  const CsrMatrix raw = laplacian_1d(n);
  const CsrMatrix a = UnitDiagonalScaling(raw).scale_matrix(raw);
  const std::vector<double> x_star = random_vector(n, seed);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  const std::vector<double> x0(static_cast<std::size_t>(n), 0.0);

  SimOptions opt;
  opt.iterations = static_cast<std::uint64_t>(n) * 4;
  opt.seed = seed;
  opt.step_size = 0.7;
  const index_t tau = 7;

  const BernoulliInclusion all(tau, 1.0, seed);
  const ZeroDelay zero;
  const SimResult r_all = simulate_inconsistent(a, b, x0, x_star, all, opt);
  const SimResult r_zero = simulate_consistent(a, b, x0, x_star, zero, opt);
  for (std::size_t i = 0; i < r_all.x.size(); ++i)
    EXPECT_DOUBLE_EQ(r_all.x[i], r_zero.x[i]);

  const BernoulliInclusion none(tau, 0.0, seed);
  const WindowExclusion excl(tau);
  const SimResult r_none = simulate_inconsistent(a, b, x0, x_star, none, opt);
  const SimResult r_excl = simulate_inconsistent(a, b, x0, x_star, excl, opt);
  for (std::size_t i = 0; i < r_none.x.size(); ++i)
    EXPECT_DOUBLE_EQ(r_none.x[i], r_excl.x[i]);
}

TEST_P(SeededTest, FcgDirectionsAreAConjugate) {
  // The defining property of flexible CG: each accepted direction is
  // A-orthogonal to the stored previous directions.  We probe it indirectly
  // by verifying monotone A-norm error decrease (guaranteed only if the
  // directions are descent directions in the A-norm).
  const std::uint64_t seed = GetParam();
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(9, 9);
  const std::vector<double> x_star = random_vector(a.rows(), seed);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  RgsPreconditioner pc(a, 2, 1.0, seed);
  FcgOptions fo;
  fo.base.max_iterations = 40;
  fo.base.rel_tol = 1e-14;
  fo.base.track_history = true;
  std::vector<double> x(a.rows(), 0.0);
  const FcgReport rep = fcg_solve(pool, a, b, x, pc, fo);
  ASSERT_GE(rep.base.residual_history.size(), 2u);
  EXPECT_LT(rep.base.residual_history.back(),
            rep.base.residual_history.front());
}

TEST_P(SeededTest, ConsistentDelayModelsHonourAssumptionA3) {
  // A-3 as an *interface contract*: every ConsistentDelayModel must return
  // max(0, j - tau) <= snapshot(j) <= j for arbitrary j, whatever its
  // internal randomization.
  const std::uint64_t seed = GetParam();
  std::vector<std::unique_ptr<ConsistentDelayModel>> models;
  models.push_back(std::make_unique<ZeroDelay>());
  models.push_back(std::make_unique<FixedDelay>(17));
  models.push_back(std::make_unique<UniformDelay>(23, seed));
  models.push_back(std::make_unique<BatchDelay>(12));

  Xoshiro256 rng(seed * 7919 + 1);
  for (const auto& model : models) {
    const std::uint64_t tau = static_cast<std::uint64_t>(model->tau());
    for (int trial = 0; trial < 400; ++trial) {
      // Mix small j (window clipped at zero) with large j.
      const std::uint64_t j = trial < 50
                                  ? static_cast<std::uint64_t>(trial)
                                  : rng() % 1000000;
      const std::uint64_t k = model->snapshot(j);
      EXPECT_LE(k, j) << model->name() << " at j=" << j;
      EXPECT_GE(k, j > tau ? j - tau : 0) << model->name() << " at j=" << j;
    }
  }
}

TEST_P(SeededTest, InconsistentDelayModelsHonourAssumptionA3Prime) {
  // A-3' as an *interface contract*: every InconsistentDelayModel must
  // include all updates older than tau (t + tau < j => includes), and its
  // excluded_in_window output must agree with includes() pointwise.
  const std::uint64_t seed = GetParam();
  std::vector<std::unique_ptr<InconsistentDelayModel>> models;
  models.push_back(
      std::make_unique<PrefixInclusion>(std::make_unique<UniformDelay>(
          19, seed + 1)));
  models.push_back(std::make_unique<BernoulliInclusion>(15, 0.4, seed + 2));
  models.push_back(std::make_unique<WindowExclusion>(11));

  Xoshiro256 rng(seed * 104729 + 3);
  std::vector<std::uint64_t> excluded;
  for (const auto& model : models) {
    const std::uint64_t tau = static_cast<std::uint64_t>(model->tau());
    for (int trial = 0; trial < 150; ++trial) {
      const std::uint64_t j = trial < 30
                                  ? static_cast<std::uint64_t>(trial)
                                  : rng() % 100000;
      // Everything older than tau is always visible.
      for (int probe = 0; probe < 20; ++probe) {
        const std::uint64_t age = tau + 1 + rng() % 1000;
        if (j < age) continue;
        EXPECT_TRUE(model->includes(j, j - age))
            << model->name() << " hides update of age " << age << " > tau="
            << tau << " at j=" << j;
      }
      // excluded_in_window is exactly the complement of includes() on the
      // window.
      const std::uint64_t window_start = j > tau ? j - tau : 0;
      excluded.clear();
      model->excluded_in_window(j, window_start, excluded);
      std::size_t pos = 0;
      for (std::uint64_t t = window_start; t < j; ++t) {
        const bool in_excluded =
            pos < excluded.size() && excluded[pos] == t && (++pos != 0);
        EXPECT_EQ(model->includes(j, t), !in_excluded)
            << model->name() << " disagrees at (j=" << j << ", t=" << t
            << ")";
      }
      EXPECT_EQ(pos, excluded.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values<std::uint64_t>(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace asyrgs
