// Tests for S5, the lattice trapezoid solver: descend() must agree with a
// pure naive descent across base-case sizes and task settings, with the
// top trapezoids on the FFT route — for the lattice models and for the BSM
// put under its index map.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "amopt/core/lattice_solver.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/bsm_fdm.hpp"
#include "amopt/pricing/params.hpp"
#include "amopt/pricing/topm.hpp"

namespace {

using namespace amopt;
using pricing::OptionSpec;

/// Reference: descend by repeated step_naive only (base_case effectively
/// infinite disables trapezoids without touching the naive code path).
core::LatticeRow naive_descend(core::LatticeSolver& solver,
                               core::LatticeRow row, std::int64_t i_stop) {
  while (row.i > i_stop) row = solver.step_naive(row);
  return row;
}

struct SolverCase {
  int base_case;
  bool parallel;
};

/// Trapezoid descent through a caller-owned cache vs pure naive stepping
/// from the same top row: same boundary, same cells to 1e-9, and at least
/// one trapezoid on the spectral FFT route.
void expect_descend_matches_naive(const stencil::LinearStencil& st,
                                  const core::LatticeGreen& green,
                                  const core::LatticeRow& top,
                                  std::int64_t i_stop,
                                  core::SolverConfig cfg) {
  stencil::KernelCache cache(st);
  core::LatticeSolver fast(&cache, st, green, cfg);
  core::LatticeSolver slow(st, green, {});
  const core::LatticeRow a = fast.descend(top, i_stop);
  const core::LatticeRow b = naive_descend(slow, top, i_stop);
  EXPECT_EQ(a.q, b.q);
  ASSERT_EQ(a.red.size(), b.red.size());
  for (std::size_t j = 0; j < a.red.size(); ++j)
    EXPECT_NEAR(a.red[j], b.red[j], 1e-9) << "j=" << j;
  EXPECT_GT(cache.stats().spectra, 0u) << "no trapezoid took the FFT route";
}

class SolverConfigs : public ::testing::TestWithParam<SolverCase> {};

TEST_P(SolverConfigs, TrapezoidDescendMatchesNaiveDescend) {
  const auto [base, parallel] = GetParam();
  core::SolverConfig cfg;
  cfg.base_case = base;
  cfg.parallel = parallel;
  const OptionSpec spec = pricing::paper_spec();
  // Tall enough that the top trapezoids clear core::kTaskCutoff: their legs
  // spawn as pool tasks (when parallel) and their correlations take the
  // spectral FFT route.
  const std::int64_t T = 2048;
  {
    SCOPED_TRACE("bopm call");
    const auto prm = pricing::derive_bopm(spec, T);
    const pricing::bopm::CallGreen green(spec, prm);
    const stencil::LinearStencil st{{prm.s0, prm.s1}};
    core::LatticeSolver pre(st, green, {});
    core::LatticeRow top = pricing::bopm::expiry_row(prm, green);
    top = pre.step_naive(top);
    top = pre.step_naive(top);
    expect_descend_matches_naive(st, green, top, 0, cfg);
  }
  {
    // The BSM put under the index map of bsm_fdm.hpp: rows T+1 .. 1, two
    // unbounded steps off the payoff row (the initial boundary jump).
    SCOPED_TRACE("bsm put (mapped)");
    const auto prm = pricing::derive_bsm(spec, T);
    const auto lay = pricing::bsm::make_layout(prm);
    const pricing::bsm::PutGreen green(prm.ds, lay.k_read, T);
    const stencil::LinearStencil st{{prm.a, prm.c, prm.b}};
    core::LatticeSolver pre(st, green, {});
    core::LatticeRow top = pricing::bsm::payoff_row(T, lay);
    top = pre.step_naive(top, true);
    top = pre.step_naive(top, true);
    expect_descend_matches_naive(st, green, top, 1, cfg);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, SolverConfigs,
                         ::testing::Values(SolverCase{2, false},
                                           SolverCase{8, false},
                                           SolverCase{8, true},
                                           SolverCase{32, true},
                                           SolverCase{64, false}));

TEST(LatticeSolver, IntermediateStopsAgree) {
  const OptionSpec spec = pricing::paper_spec();
  const std::int64_t T = 500;
  const auto prm = pricing::derive_bopm(spec, T);
  const pricing::bopm::CallGreen green(spec, prm);
  core::LatticeSolver fast({{prm.s0, prm.s1}}, green, {});
  core::LatticeSolver slow({{prm.s0, prm.s1}}, green, {});

  core::LatticeRow top = pricing::bopm::expiry_row(prm, green);
  top = fast.step_naive(top);
  top = fast.step_naive(top);
  for (std::int64_t i_stop : {400L, 250L, 97L, 3L}) {
    const auto a = fast.descend(top, i_stop);
    const auto b = naive_descend(slow, top, i_stop);
    EXPECT_EQ(a.q, b.q) << "i_stop=" << i_stop;
    ASSERT_EQ(a.red.size(), b.red.size());
    for (std::size_t j = 0; j < a.red.size(); ++j)
      EXPECT_NEAR(a.red[j], b.red[j], 1e-9);
  }
}

TEST(LatticeSolver, TrinomialDescendMatchesNaive) {
  const OptionSpec spec = pricing::paper_spec();
  const std::int64_t T = 400;
  const auto prm = pricing::derive_topm(spec, T);
  const pricing::topm::CallGreen green(spec, prm);
  core::LatticeSolver fast({{prm.s0, prm.s1, prm.s2}}, green, {});
  core::LatticeSolver slow({{prm.s0, prm.s1, prm.s2}}, green, {});

  core::LatticeRow top = pricing::topm::expiry_row(prm, green);
  top = fast.step_naive(top);
  top = fast.step_naive(top);
  const auto a = fast.descend(top, 0);
  const auto b = naive_descend(slow, top, 0);
  EXPECT_EQ(a.q, b.q);
  ASSERT_EQ(a.red.size(), b.red.size());
  for (std::size_t j = 0; j < a.red.size(); ++j)
    EXPECT_NEAR(a.red[j], b.red[j], 1e-9);
}

TEST(LatticeSolver, AllGreenRowShortCircuits) {
  // Huge dividend yield: exercising dominates everywhere, the expiry row is
  // all green, and descend must return an all-green row immediately.
  OptionSpec spec = pricing::paper_spec();
  spec.S = 400.0;  // deep in the money everywhere that matters
  spec.Y = 0.5;
  const std::int64_t T = 64;
  const auto prm = pricing::derive_bopm(spec, T);
  const pricing::bopm::CallGreen green(spec, prm);
  core::LatticeSolver solver({{prm.s0, prm.s1}}, green, {});
  core::LatticeRow row;
  row.i = T;
  row.q = -1;
  const auto out = solver.descend(row, 0);
  EXPECT_EQ(out.i, 0);
  EXPECT_EQ(out.q, -1);
}

TEST(LatticeSolver, StepNaiveShrinksRowWidth) {
  const OptionSpec spec = pricing::paper_spec();
  const std::int64_t T = 16;
  const auto prm = pricing::derive_bopm(spec, T);
  const pricing::bopm::CallGreen green(spec, prm);
  core::LatticeSolver solver({{prm.s0, prm.s1}}, green, {});
  core::LatticeRow row = pricing::bopm::expiry_row(prm, green);
  while (row.i > 0) {
    const auto next = solver.step_naive(row);
    EXPECT_EQ(next.i, row.i - 1);
    EXPECT_LE(next.q, row.q);          // call boundary never moves right
    EXPECT_GE(next.q, -1);
    row = next;
  }
}

}  // namespace
