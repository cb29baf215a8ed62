// BSM explicit-FDM tests: the paper's fft-bsm vs the vanilla projection
// loop, convergence of the European limit to the closed form, domination
// properties, cross-model agreement of the American put, and the index map
// that runs the put on the lattice solver (Theorem 4.3 and the initial
// boundary jump in lattice coordinates, the grid index range check).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "amopt/core/lattice_solver.hpp"
#include "amopt/pricing/black_scholes.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/bsm_fdm.hpp"

namespace {

using namespace amopt;
using namespace amopt::pricing;

struct GridCase {
  double S, K, R, V, Y;
  std::int64_t T;
};

OptionSpec to_spec(const GridCase& c) {
  OptionSpec s;
  s.S = c.S;
  s.K = c.K;
  s.R = c.R;
  s.V = c.V;
  s.Y = c.Y;
  return s;
}

class BsmGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(BsmGrid, FftPutMatchesVanilla) {
  const GridCase c = GetParam();
  const OptionSpec spec = to_spec(c);
  const double v = bsm::american_put_vanilla(spec, c.T);
  const double f = bsm::american_put_fft(spec, c.T);
  EXPECT_NEAR(f, v, 1e-8 * std::max(1.0, std::abs(v)));
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, BsmGrid,
    ::testing::Values(
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 16},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 100},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 1000},
        GridCase{127.62, 130, 0.00163, 0.2, 0.0163, 2048},
        // no dividend (the paper's literal Eq. 5 setting)
        GridCase{127.62, 130, 0.00163, 0.2, 0.0, 1000},
        GridCase{100, 100, 0.05, 0.3, 0.0, 777},
        // rate above yield
        GridCase{100, 110, 0.08, 0.3, 0.01, 512},
        // deep in/out of the money
        GridCase{60, 100, 0.04, 0.25, 0.0, 512},
        GridCase{160, 100, 0.04, 0.25, 0.0, 512},
        // high/low vol
        GridCase{100, 100, 0.03, 0.7, 0.02, 512},
        GridCase{100, 100, 0.03, 0.08, 0.02, 512}));

TEST(BsmEuropean, ConvergesToClosedForm) {
  for (double Y : {0.0, 0.0163}) {
    OptionSpec spec = paper_spec();
    spec.Y = Y;
    const double exact = bs::european_put(spec);
    double prev_err = 1e9;
    for (std::int64_t T : {256L, 1024L, 4096L}) {
      const double err = std::abs(bsm::european_put_fdm(spec, T) - exact);
      EXPECT_LT(err, prev_err) << "T=" << T << " Y=" << Y;
      prev_err = err;
    }
    EXPECT_LT(prev_err, 2e-3) << "Y=" << Y;
  }
}

TEST(BsmAmerican, DominatesEuropeanAndIntrinsic) {
  OptionSpec spec = paper_spec();
  spec.Y = 0.0;  // meaningful early-exercise premium needs R to dominate
  spec.R = 0.05;
  const std::int64_t T = 2048;
  const double amer = bsm::american_put_fft(spec, T);
  const double eur = bsm::european_put_fdm(spec, T);
  EXPECT_GT(amer, eur);  // strictly: R > 0 makes early exercise valuable
  EXPECT_GE(amer, std::max(0.0, spec.K - spec.S));
  EXPECT_LE(amer, spec.K);
}

TEST(BsmAmerican, AgreesWithLatticeModels) {
  // Same continuum problem, independent discretizations: BOPM lattice vs
  // explicit FDM must agree to discretization accuracy.
  const OptionSpec spec = paper_spec();
  const double fdm = bsm::american_put_fft(spec, 8192);
  const double lattice = bopm::american_put_fft(spec, 8192);
  EXPECT_NEAR(fdm, lattice, 5e-3);
}

TEST(BsmAmerican, ZeroRateEqualsEuropean) {
  OptionSpec spec = paper_spec();
  spec.R = 0.0;
  spec.Y = 0.0;
  const std::int64_t T = 1024;
  // Exact ties (R = 0 makes continuation == payoff to first order) leave
  // only FP-level noise between the two paths.
  EXPECT_NEAR(bsm::american_put_fft(spec, T), bsm::european_put_fdm(spec, T),
              1e-7);
}

TEST(BsmBoundary, MonotoneDecreasing) {
  // Theorem 4.2/4.3: the exercise boundary k_n never increases, and after
  // the initial jump rows it drops at most one cell per step.
  const OptionSpec spec = paper_spec();
  const auto f = bsm::exercise_boundary_vanilla(spec, 600);
  for (std::size_t n = 1; n < f.size(); ++n)
    EXPECT_LE(f[n], f[n - 1]) << "n=" << n;
  for (std::size_t n = 3; n < f.size(); ++n)
    EXPECT_GE(f[n], f[n - 1] - 1) << "n=" << n;
}

TEST(BsmBoundary, StartsAtPayoffKink) {
  const OptionSpec spec = paper_spec();
  const auto f = bsm::exercise_boundary_vanilla(spec, 100);
  EXPECT_EQ(f[0], 0);
}

TEST(BsmLayout, ReadCellsCoverTarget) {
  const OptionSpec spec = paper_spec();
  const auto prm = derive_bsm(spec, 512);
  const auto lay = bsm::make_layout(prm);
  EXPECT_GE(lay.theta, 0.0);
  EXPECT_LT(lay.theta, 1.0);
  const double s_back =
      (static_cast<double>(lay.k_read) + lay.theta) * prm.ds;
  EXPECT_NEAR(s_back, prm.s_target, 1e-12);
}

TEST(BsmLayout, VanishingVolIsRefusedNotMispriced) {
  // Past |ln(S/K)|/ds = 2^53 the grid index is out of range for its cast;
  // every grid engine shares make_layout and must refuse, not price 0.
  OptionSpec spec = paper_spec();
  spec.S = 90.0;
  spec.K = 100.0;
  spec.R = 0.05;
  spec.Y = 0.05;
  spec.V = 1e-40;
  EXPECT_THROW((void)bsm::american_put_fft(spec, 64), std::invalid_argument);
  EXPECT_THROW((void)bsm::american_put_vanilla(spec, 64),
               std::invalid_argument);
  EXPECT_THROW((void)bsm::european_put_fdm(spec, 64), std::invalid_argument);
  spec.V = 1e-8;  // still in range: immediate exercise, K - S
  EXPECT_NEAR(bsm::american_put_fft(spec, 64), 10.0, 1e-9);
}

TEST(BsmAmerican, TinyVolOutOfTheMoneyStaysOnTheCone) {
  // k_read ~ 7e11 cells away from the payoff kink: the lattice rows are
  // clipped to the read cells' cone (at most 2T+3 cells), so this prices
  // like any other OTM put instead of sizing a row by k_read.
  OptionSpec spec = paper_spec();
  spec.S = 110.0;
  spec.K = 100.0;
  spec.R = 0.05;
  spec.Y = 0.05;
  spec.V = 1e-12;
  EXPECT_EQ(bsm::american_put_fft(spec, 64), 0.0);
}

TEST(BsmLattice, SchemeIsMonotone) {
  const OptionSpec spec = paper_spec();
  for (std::int64_t T : {16L, 256L, 4096L}) {
    const auto prm = derive_bsm(spec, T);
    EXPECT_GE(prm.a, 0.0);
    EXPECT_GE(prm.b, 0.0);
    EXPECT_GE(prm.c, 0.0);
    EXPECT_LE(prm.a + prm.b + prm.c, 1.0 + 1e-12);  // sub-stochastic
  }
}

/// The BSM put's lattice under the index map of bsm_fdm.hpp.
struct MappedPut {
  BsmParams prm;
  bsm::FdmLayout lay;
  bsm::PutGreen green;
  core::LatticeSolver solver;
  explicit MappedPut(const OptionSpec& spec, std::int64_t T)
      : prm(derive_bsm(spec, T)), lay(bsm::make_layout(prm)),
        green(prm.ds, lay.k_read, T),
        solver({{prm.a, prm.c, prm.b}}, green) {}
};

TEST(BsmLattice, BoundaryObeysTheorem43AfterJumpRows) {
  // After the first two (unbounded) rows, the FDM boundary f moves at most
  // one cell left per step (Theorem 4.3, monotone scheme); in lattice
  // coordinates q_i = k_read + i - f - 1 stays or moves one cell left.
  for (double Y : {0.0, 0.0163, 0.05}) {
    OptionSpec spec = paper_spec();
    spec.Y = Y;
    const std::int64_t T = 400;
    MappedPut put(spec, T);
    core::LatticeRow row = bsm::payoff_row(T, put.lay);
    row = put.solver.step_naive(row, true);
    row = put.solver.step_naive(row, true);
    std::int64_t inside = 0;  // steps with the boundary inside the cone
    while (row.i > 1) {
      const core::LatticeRow next = put.solver.step_naive(row);
      EXPECT_LE(next.q, row.q) << "Y=" << Y << " i=" << row.i;
      // One cell left at most, clipped to the next row's 2i+1 cells.
      EXPECT_GE(next.q, std::min(row.q - 1, 2 * next.i))
          << "Y=" << Y << " i=" << row.i;
      inside += row.q < 2 * row.i ? 1 : 0;
      row = next;
    }
    EXPECT_GT(inside, T / 8) << "Y=" << Y;  // the check is not vacuous
  }
}

TEST(BsmLattice, InitialBoundaryJumpMatchesTheory) {
  // With Y > R the discrete boundary after one step sits near
  // ln(R/Y)/ds (see DESIGN.md); the unbounded first step must find it.
  const OptionSpec spec = paper_spec();  // Y = 10 * R
  const std::int64_t T = 1000;
  MappedPut put(spec, T);
  const core::LatticeRow row1 =
      put.solver.step_naive(bsm::payoff_row(T, put.lay), true);
  ASSERT_EQ(row1.i, T);
  const std::int64_t f1 = put.lay.k_read + row1.i - row1.q - 1;
  const double expected_k = std::log(spec.R / spec.Y) / put.prm.ds;
  EXPECT_NEAR(static_cast<double>(f1), expected_k,
              std::abs(expected_k) * 0.05 + 3.0);
}

TEST(BsmVanilla, SerialAndParallelAgree) {
  const OptionSpec spec = paper_spec();
  EXPECT_NEAR(bsm::american_put_vanilla(spec, 512),
              bsm::american_put_vanilla_parallel(spec, 512), 1e-12);
}

}  // namespace
