// Accuracy contract of the Engine::boundary (ALO) backend, DESIGN.md §6.
//
// The boundary engine is NOT bit-comparable to the stencil engines — it
// computes the continuous-time BSM American price directly, while the fft
// engine discretizes time and converges to it first order in 1/T. The
// contract tested here:
//
//  * fft-vs-boundary differences shrink as T grows (the lattice converges
//    TOWARD the boundary price, not away from it), and at T = 2^13 the
//    ATM difference is under 1e-4 on a K = 100 contract;
//  * the default preset (13 nodes / 25 quad / 8 sweeps) sits within 1e-5
//    of the converged high-node answer; the accurate preset (25/65/32)
//    within 1e-8;
//  * the solved Chebyshev boundary matches the Θ(T^2) stencil-grid
//    boundary within the grid's own resolution (a few cells of ds in log
//    space) across a strike/vol/expiry grid — satellite check tying the
//    two subsystems together;
//  * structural identities hold: put-call symmetry, the European limits
//    (r = 0 put, q = 0 call), and the deep-ITM payoff floor;
//  * a golden value pins the defaults across dispatch levels: scalar and
//    avx2 are bit-identical by the §4 no-FMA rule, avx512 may drift last
//    ulps, so the pin uses a 1e-9 window that any level must hit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "amopt/pricing/alo/alo_engine.hpp"
#include "amopt/pricing/api.hpp"
#include "amopt/pricing/black_scholes.hpp"
#include "amopt/pricing/bsm_fdm.hpp"
#include "amopt/pricing/params.hpp"
#include "amopt/pricing/pricer.hpp"

namespace {

using namespace amopt;
using namespace amopt::pricing;

constexpr OptionSpec kAtm{100.0, 100.0, 0.05, 0.25, 0.0, 1.0};

[[nodiscard]] double alo_price(const OptionSpec& spec, Right right,
                               int nodes = 0, int quad = 0, int iters = 0) {
  core::SolverConfig cfg;
  if (nodes > 0) cfg.alo_nodes = nodes;
  if (quad > 0) cfg.alo_quad = quad;
  if (iters > 0) cfg.alo_iterations = iters;
  return alo::american_price(spec, right, cfg, nullptr);
}

TEST(AloConvergence, FftLatticeConvergesTowardBoundaryPrice) {
  const double ref = alo_price(kAtm, Right::put);
  // Measured |fft(T) - alo|: 1.61e-4 at 2^11, 8.3e-5 at 2^12, 4.2e-5 at
  // 2^13 — clean first-order decay straight at the boundary value. Assert
  // the documented envelope plus the halving trend with headroom.
  std::vector<double> err;
  for (std::int64_t T : {std::int64_t{1} << 11, std::int64_t{1} << 12,
                         std::int64_t{1} << 13})
    err.push_back(std::abs(
        price(kAtm, T, Model::bsm, Right::put, Style::american, Engine::fft) -
        ref));
  EXPECT_LT(err[2], 1e-4);
  EXPECT_LT(err[1], err[0]);
  EXPECT_LT(err[2], err[1]);
  EXPECT_GT(err[0] / err[2], 2.5);  // ~3.8 measured; first order gives 4
}

TEST(AloConvergence, AgreesWithFftAcrossMoneynessVolAndDividends) {
  // Documented cross-engine tolerance at T = 2^12: 3e-4 absolute on
  // K = 100 contracts (ATM measured 8.3e-5; the dividend put 3.2e-5).
  const std::int64_t T = std::int64_t{1} << 12;
  for (const double S : {80.0, 100.0, 120.0})
    for (const double V : {0.15, 0.35})
      for (const double Y : {0.0, 0.04}) {
        const OptionSpec spec{S, 100.0, 0.05, V, Y, 1.0};
        const double lattice = price(spec, T, Model::bsm, Right::put,
                                     Style::american, Engine::fft);
        EXPECT_NEAR(alo_price(spec, Right::put), lattice, 3e-4)
            << "S=" << S << " V=" << V << " Y=" << Y;
      }
}

TEST(AloConvergence, PresetsConvergeToTheHighNodeAnswer) {
  const double converged = alo_price(kAtm, Right::put, 41, 129, 64);
  // Measured: defaults -2.4e-6 from converged, accurate preset +6e-10.
  EXPECT_NEAR(alo_price(kAtm, Right::put), converged, 1e-5);
  EXPECT_NEAR(alo_price(kAtm, Right::put, 25, 65, 32), converged, 1e-8);
}

TEST(AloConvergence, GoldenValuePinsEveryDispatchLevel) {
  // Reference computed with the scalar kernel table. scalar and avx2 must
  // reproduce it bit-for-bit (§4: the avx2 TU cannot contract), avx512 may
  // sit last-ulps away — 1e-9 is orders of magnitude above either and far
  // below the engine's own accuracy step between presets.
  EXPECT_NEAR(alo_price(kAtm, Right::put), 7.974479976563, 1e-9);
}

TEST(AloBoundary, MatchesStencilGridBoundaryAcrossGrid) {
  // Satellite check: the Chebyshev boundary and the Θ(T^2) stencil-grid
  // boundary (bsm::exercise_boundary_vanilla) describe the same curve.
  // The grid boundary k_n is quantized to whole cells of ds in log-price
  // and carries the lattice's own O(1/T) bias, so the documented tolerance
  // is 3 grid cells in log space, skipping the first T/8 rows where the
  // discrete boundary is still resolving its sqrt(tau log tau) start.
  const std::int64_t T = 1 << 10;
  for (const double K : {90.0, 110.0})
    for (const double V : {0.2, 0.4})
      for (const double E : {0.5, 1.0}) {
        const OptionSpec spec{100.0, K, 0.06, V, 0.0, E};
        const BsmParams prm = derive_bsm(spec, T);
        const auto k = bsm::exercise_boundary_vanilla(spec, T);
        std::vector<double> taus, lat_log;
        for (std::int64_t n = T / 8; n <= T; n += T / 16) {
          taus.push_back(E * static_cast<double>(n) / static_cast<double>(T));
          lat_log.push_back(static_cast<double>(k[static_cast<std::size_t>(n)]) *
                            prm.ds);
        }
        core::SolverConfig cfg;
        const auto b = alo::put_boundary(spec, cfg, taus);
        ASSERT_EQ(b.size(), taus.size());
        for (std::size_t i = 0; i < taus.size(); ++i) {
          EXPECT_NEAR(std::log(b[i] / K), lat_log[i], 3.0 * prm.ds)
              << "K=" << K << " V=" << V << " E=" << E << " tau=" << taus[i];
          if (i > 0) {
            EXPECT_LE(b[i], b[i - 1] + 1e-12);  // decreasing in tau
          }
        }
      }
}

TEST(AloStructure, PutCallSymmetryIsExact) {
  // C(S, K, r, q) = P(K, S, q, r) is the call implementation itself, so
  // the identity must hold to the bit.
  const OptionSpec put_side{95.0, 105.0, 0.03, 0.3, 0.07, 1.5};
  const OptionSpec call_side{105.0, 95.0, 0.07, 0.3, 0.03, 1.5};
  EXPECT_EQ(alo_price(call_side, Right::call), alo_price(put_side, Right::put));
}

TEST(AloStructure, EuropeanLimitsAndPayoffFloor) {
  // r = 0: early exercise of a put is never optimal -> European value.
  OptionSpec spec = kAtm;
  spec.R = 0.0;
  spec.Y = 0.02;
  EXPECT_NEAR(alo_price(spec, Right::put), bs::european_put(spec), 1e-12);
  // q = 0: the American call on a non-dividend stock is European. The
  // engine reaches this through the symmetry put, so agreement is to the
  // engine's accuracy, not exact.
  spec = kAtm;
  EXPECT_NEAR(alo_price(spec, Right::call), bs::european_call(spec), 1e-6);
  // Deep ITM: below the boundary the quote is the payoff, exactly.
  spec = kAtm;
  spec.S = 20.0;
  EXPECT_EQ(alo_price(spec, Right::put), spec.K - spec.S);
  // American >= European always, strictly so for the ATM put with r > 0.
  EXPECT_GT(alo_price(kAtm, Right::put), bs::european_put(kAtm) + 1e-3);
}

TEST(AloStructure, RejectsNegativeRates) {
  core::SolverConfig cfg;
  OptionSpec spec = kAtm;
  spec.R = -0.01;
  EXPECT_THROW((void)alo::american_price(spec, Right::put, cfg, nullptr),
               std::invalid_argument);
  spec = kAtm;
  spec.Y = -0.01;
  EXPECT_THROW((void)alo::american_price(spec, Right::put, cfg, nullptr),
               std::invalid_argument);
}

TEST(AloSession, NodeTablesAreCachedPerAccuracySetting) {
  Pricer session;
  PricingRequest req;
  req.spec = kAtm;
  req.T = 1;
  req.model = Model::bsm;
  req.right = Right::put;
  req.style = Style::american;
  req.engine = Engine::boundary;
  ASSERT_EQ(session.price_one(req).status, Status::ok);
  req.spec.K = 110.0;  // same knobs -> same table
  ASSERT_EQ(session.price_one(req).status, Status::ok);
  EXPECT_EQ(session.stats().node_tables, 1u);
  core::SolverConfig accurate;
  accurate.alo_nodes = 25;
  accurate.alo_quad = 65;
  req.solver = accurate;  // new knobs -> second table
  ASSERT_EQ(session.price_one(req).status, Status::ok);
  EXPECT_EQ(session.stats().node_tables, 2u);
  session.clear();
  EXPECT_EQ(session.stats().node_tables, 0u);
}

TEST(AloSession, ImpliedVolRoutesThroughTheBoundaryEngine) {
  Pricer session;
  PricingRequest req;
  req.spec = kAtm;
  req.T = 1;
  req.model = Model::bsm;
  req.right = Right::put;
  req.style = Style::american;
  req.engine = Engine::boundary;
  const PricingResult quote = session.price_one(req);
  ASSERT_EQ(quote.status, Status::ok);

  req.compute = Compute::implied_vol;
  req.target_price = quote.price;
  const auto solved = session.implied_vol_many({&req, 1});
  ASSERT_EQ(solved[0].status, Status::ok);
  EXPECT_TRUE(solved[0].implied_vol.converged);
  EXPECT_NEAR(solved[0].implied_vol.vol, kAtm.V, 1e-8);

  // Identical repeat is served from the IV cache: zero Newton iterations.
  const auto warm = session.implied_vol_many({&req, 1});
  ASSERT_EQ(warm[0].status, Status::ok);
  EXPECT_EQ(warm[0].implied_vol.iterations, 0);
  EXPECT_EQ(warm[0].implied_vol.vol, solved[0].implied_vol.vol);

  // The call side solves through the same engine (no lattice fallback).
  req.right = Right::call;
  req.compute = Compute::price;
  const PricingResult call_quote = session.price_one(req);
  ASSERT_EQ(call_quote.status, Status::ok);
  req.compute = Compute::implied_vol;
  req.target_price = call_quote.price;
  const auto call_iv = session.implied_vol_many({&req, 1});
  ASSERT_EQ(call_iv[0].status, Status::ok);
  EXPECT_NEAR(call_iv[0].implied_vol.vol, kAtm.V, 1e-8);
}

}  // namespace
