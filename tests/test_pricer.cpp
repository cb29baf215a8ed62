// The session API: Pricer::supports must agree with the per-item Status of
// price_many for EVERY Model x Right x Style x Engine combination, session
// results must be bit-identical to the legacy free functions, and the
// greeks / implied-vol layers must reproduce their free-function
// counterparts while reusing the session's kernel caches.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "amopt/pricing/api.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/greeks.hpp"
#include "amopt/pricing/implied_vol.hpp"
#include "amopt/pricing/pricer.hpp"

namespace {

using namespace amopt;
using namespace amopt::pricing;

constexpr Model kModels[] = {Model::bopm, Model::topm, Model::bsm};
constexpr Right kRights[] = {Right::call, Right::put};
constexpr Style kStyles[] = {Style::american, Style::european};
constexpr Engine kEngines[] = {Engine::fft,   Engine::vanilla,
                               Engine::vanilla_parallel, Engine::tiled,
                               Engine::cache_oblivious,  Engine::quantlib};

[[nodiscard]] std::vector<PricingRequest> all_combinations(std::int64_t T) {
  std::vector<PricingRequest> reqs;
  for (Model m : kModels)
    for (Right r : kRights)
      for (Style s : kStyles)
        for (Engine e : kEngines) {
          PricingRequest q;
          q.spec = paper_spec();
          q.T = T;
          q.model = m;
          q.right = r;
          q.style = s;
          q.engine = e;
          reqs.push_back(q);
        }
  return reqs;
}

TEST(Pricer, CapabilityMatrixMatchesPerItemStatus) {
  // One heterogeneous batch over the full 72-combination matrix: the
  // advertised capability must coincide with what actually prices, and
  // unsupported items must report status instead of throwing.
  Pricer session;
  const std::vector<PricingRequest> reqs = all_combinations(128);
  const std::vector<PricingResult> res = session.price_many(reqs);
  ASSERT_EQ(res.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const PricingRequest& q = reqs[i];
    const bool advertised =
        Pricer::supports(q.model, q.right, q.style, q.engine);
    if (advertised) {
      EXPECT_EQ(res[i].status, Status::ok)
          << to_string(q.model) << "/" << to_string(q.right) << "/"
          << to_string(q.style) << "/" << to_string(q.engine) << ": "
          << res[i].message;
      EXPECT_TRUE(std::isfinite(res[i].price));
      EXPECT_GE(res[i].price, 0.0);
    } else {
      EXPECT_EQ(res[i].status, Status::unsupported)
          << to_string(q.model) << "/" << to_string(q.right) << "/"
          << to_string(q.style) << "/" << to_string(q.engine);
      EXPECT_FALSE(res[i].message.empty());
      EXPECT_TRUE(std::isnan(res[i].price));
    }
  }
}

TEST(Pricer, SessionPricesBitIdenticalToFreeFunctions) {
  Pricer session;
  for (const PricingRequest& q : all_combinations(96)) {
    if (!Pricer::supports(q.model, q.right, q.style, q.engine)) {
      EXPECT_THROW((void)price(q.spec, q.T, q.model, q.right, q.style,
                               q.engine),
                   std::invalid_argument);
      continue;
    }
    const PricingResult res = session.price_one(q);
    ASSERT_EQ(res.status, Status::ok) << res.message;
    EXPECT_EQ(res.price, price(q.spec, q.T, q.model, q.right, q.style,
                               q.engine))
        << to_string(q.model) << "/" << to_string(q.right) << "/"
        << to_string(q.style) << "/" << to_string(q.engine);
  }
}

TEST(Pricer, WarmSessionStaysBitIdenticalAcrossRepeats) {
  // Second serve hits the session's warm kernel caches; the arithmetic, and
  // therefore the bits, must not change.
  Pricer session;
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 512;
  const double cold = session.price_one(q).price;
  const double warm = session.price_one(q).price;
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(cold, bopm::american_call_fft(q.spec, q.T));
  const Pricer::Stats st = session.stats();
  EXPECT_GE(st.cache_hits, 1u);  // the repeat found its tap group warm
}

TEST(Pricer, MixedChainReportsPerItemStatusWithoutThrowing) {
  std::vector<PricingRequest> reqs(3);
  for (PricingRequest& q : reqs) {
    q.spec = paper_spec();
    q.T = 128;
  }
  reqs[0].model = Model::bopm;                       // supported
  reqs[1].model = Model::bsm;                        // bsm call: unsupported
  reqs[1].right = Right::call;
  reqs[2].model = Model::topm;                       // unsupported engine
  reqs[2].engine = Engine::quantlib;

  Pricer session;
  std::vector<PricingResult> res;
  ASSERT_NO_THROW(res = session.price_many(reqs));
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].status, Status::ok);
  EXPECT_EQ(res[1].status, Status::unsupported);
  EXPECT_EQ(res[2].status, Status::unsupported);
  EXPECT_NE(res[1].message.find("bsm/call"), std::string::npos);
}

TEST(Pricer, LegacyTZeroIntrinsicValueStillWorks) {
  // The seed pricers accept T == 0 (intrinsic value); the session and the
  // thin wrappers must not regress that.
  OptionSpec spec = paper_spec();  // K=130 > S=127.62: put is in the money
  EXPECT_EQ(price(spec, 0, Model::bopm, Right::put), spec.K - spec.S);
  EXPECT_EQ(price(spec, 0, Model::bopm, Right::call), 0.0);
  PricingRequest q;
  q.spec = spec;
  q.T = 0;
  q.right = Right::put;
  Pricer session;
  const PricingResult res = session.price_one(q);
  EXPECT_EQ(res.status, Status::ok);
  EXPECT_EQ(res.price, spec.K - spec.S);

  // The BSM grid has no T=0 analogue (derive_bsm needs a step): per-item
  // error, not a contract abort.
  q.model = Model::bsm;
  const PricingResult bsm0 = session.price_one(q);
  EXPECT_EQ(bsm0.status, Status::error);
  EXPECT_NE(bsm0.message.find("bsm"), std::string::npos);
}

TEST(Pricer, InvalidSpecInChainBecomesPerItemErrorNotAbort) {
  // derive_* enforce V > 0 etc. with aborting contract checks; the session
  // must validate quotes at the boundary so a V=0 item reports
  // Status::error while the rest of the chain prices.
  std::vector<PricingRequest> reqs(2);
  reqs[0].spec = paper_spec();
  reqs[0].T = 128;
  reqs[1].spec = paper_spec();
  reqs[1].spec.V = 0.0;
  reqs[1].T = 128;
  Pricer session;
  std::vector<PricingResult> res;
  ASSERT_NO_THROW(res = session.price_many(reqs));
  EXPECT_EQ(res[0].status, Status::ok);
  EXPECT_EQ(res[1].status, Status::error);
  EXPECT_NE(res[1].message.find("invalid option spec"), std::string::npos);
  // And the legacy wrapper surfaces it as invalid_argument, not an abort.
  EXPECT_THROW((void)price(reqs[1].spec, 128, Model::bopm, Right::call),
               std::invalid_argument);
}

TEST(Pricer, NonFiniteFieldsBecomePerItemErrorsAcrossEngines) {
  // NaN/Inf in ANY quote field must stop at the session boundary with a
  // field-naming Status::error — never flow into a solver as lattice
  // drift or a boundary node. Every field, both non-finite flavors, across
  // a lattice engine, the vanilla reference, and the boundary engine.
  struct FieldCase {
    const char* name;
    void (*poison)(OptionSpec&, double);
  };
  const FieldCase kFields[] = {
      {"S", [](OptionSpec& s, double v) { s.S = v; }},
      {"K", [](OptionSpec& s, double v) { s.K = v; }},
      {"R", [](OptionSpec& s, double v) { s.R = v; }},
      {"V", [](OptionSpec& s, double v) { s.V = v; }},
      {"Y", [](OptionSpec& s, double v) { s.Y = v; }},
      {"expiry_years", [](OptionSpec& s, double v) { s.expiry_years = v; }},
  };
  const double kPoisons[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};

  Pricer session;
  for (int eng = 0; eng < 3; ++eng) {
    PricingRequest base;
    base.spec = paper_spec();
    base.T = 64;
    if (eng == 1) base.engine = Engine::vanilla;
    if (eng == 2) {
      base.model = Model::bsm;
      base.right = Right::put;
      base.engine = Engine::boundary;
    }
    for (const FieldCase& f : kFields) {
      for (double poison : kPoisons) {
        // The poisoned item rides next to a healthy one: the error is
        // per-item, the chain keeps pricing.
        std::vector<PricingRequest> reqs(2, base);
        f.poison(reqs[1].spec, poison);
        std::vector<PricingResult> res;
        ASSERT_NO_THROW(res = session.price_many(reqs))
            << "engine " << eng << " field " << f.name;
        EXPECT_EQ(res[0].status, Status::ok)
            << "engine " << eng << " field " << f.name;
        EXPECT_EQ(res[1].status, Status::error)
            << "engine " << eng << " field " << f.name << " = " << poison;
        EXPECT_NE(res[1].message.find("non-finite"), std::string::npos);
        EXPECT_NE(res[1].message.find(f.name), std::string::npos)
            << "the diagnostic must name the bad field: " << res[1].message;
      }
    }
  }
}

TEST(Pricer, NonFiniteImpliedVolInputsAreRejectedAtTheBoundary) {
  // The IV inversion has its own inputs: a NaN quote or a non-finite
  // bracket edge must be a per-item error, not a Newton iteration on NaN.
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 64;
  q.compute = Compute::implied_vol;
  q.target_price = std::numeric_limits<double>::quiet_NaN();
  q.iv.vol_lo = 0.05;
  q.iv.vol_hi = 2.0;
  Pricer session;
  std::vector<PricingResult> res = session.price_many({&q, 1});
  EXPECT_EQ(res.at(0).status, Status::error);
  EXPECT_NE(res[0].message.find("non-finite"), std::string::npos);

  q.target_price = 6.0;
  q.iv.vol_hi = std::numeric_limits<double>::infinity();
  res = session.price_many({&q, 1});
  EXPECT_EQ(res.at(0).status, Status::error);
}

TEST(Pricer, BadQuoteInChainFailsAloneNotTheBatch) {
  // A vol too small for a valid CRR lattice (risk-neutral probability
  // outside (0,1)) makes derive_bopm throw during the tap-grouping phase;
  // the batch must absorb that into the item's Status and keep pricing the
  // healthy quotes.
  std::vector<PricingRequest> reqs(2);
  reqs[0].spec = paper_spec();
  reqs[0].T = 128;
  reqs[1].spec = paper_spec();
  reqs[1].spec.V = 0.01;  // with R >> V the lattice drift outruns the moves
  reqs[1].spec.R = 0.2;
  reqs[1].T = 128;

  Pricer session;
  std::vector<PricingResult> res;
  ASSERT_NO_THROW(res = session.price_many(reqs));
  EXPECT_EQ(res[0].status, Status::ok);
  EXPECT_EQ(res[0].price, price(reqs[0].spec, 128, Model::bopm, Right::call));
  EXPECT_EQ(res[1].status, Status::error);
  EXPECT_NE(res[1].error, nullptr);
  EXPECT_FALSE(res[1].message.empty());
}

TEST(Pricer, BsmChainSharesOneKernelCache) {
  // PR-2 follow-up closed: the FDM solver now accepts an injected cache, so
  // a BSM strike ladder (identical b, c, a taps) collapses to one group.
  std::vector<PricingRequest> reqs;
  for (double k : {110.0, 120.0, 130.0, 140.0}) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.K = k;
    q.T = 256;
    q.model = Model::bsm;
    q.right = Right::put;
    reqs.push_back(q);
  }
  Pricer session;
  const std::vector<PricingResult> res = session.price_many(reqs);
  const Pricer::Stats st = session.stats();
  EXPECT_EQ(st.cache_misses, 1u);  // one tap group for the whole ladder
  EXPECT_EQ(st.cache_hits, 3u);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(res[i].status, Status::ok);
    EXPECT_EQ(res[i].price,
              price(reqs[i].spec, reqs[i].T, Model::bsm, Right::put));
  }
}

TEST(Pricer, BopmPutLadderSharesOneKernelCache) {
  // The American put's mirrored-lattice taps depend on (R, Y, V, expiry)
  // only — never on the strike — so a put strike ladder collapses to one
  // tap group.
  std::vector<PricingRequest> reqs;
  for (double k : {110.0, 120.0, 130.0, 140.0, 150.0}) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.K = k;
    q.T = 512;
    q.right = Right::put;
    reqs.push_back(q);
  }
  Pricer session;
  const std::vector<PricingResult> res = session.price_many(reqs);
  const Pricer::Stats st = session.stats();
  EXPECT_EQ(st.cache_misses, 1u);  // one tap group for the whole ladder
  EXPECT_EQ(st.cache_hits, 4u);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(res[i].status, Status::ok) << res[i].message;
    EXPECT_EQ(res[i].price, bopm::american_put_fft(reqs[i].spec, reqs[i].T));
    const double v = bopm::american_put_vanilla(reqs[i].spec, reqs[i].T);
    EXPECT_NEAR(res[i].price, v, 1e-8 * std::max(1.0, std::abs(v)));
  }
}

TEST(Pricer, MalformedBaseCaseIsPerItemErrorNotAbort) {
  // The solvers assert base_case >= 1; a request carrying a smaller value
  // (a wire client can send any i32) must fail alone at the boundary.
  std::vector<PricingRequest> reqs(3);
  for (PricingRequest& q : reqs) {
    q.spec = paper_spec();
    q.T = 256;
  }
  reqs[0].solver = core::SolverConfig{};
  reqs[0].solver->base_case = 0;
  reqs[1].solver = core::SolverConfig{};
  reqs[1].solver->base_case = -7;
  reqs[1].model = Model::bsm;
  reqs[1].right = Right::put;
  Pricer session;
  for (const PricingRequest& q : {reqs[0], reqs[1]}) {
    const PricingResult r = session.price_one(q);
    EXPECT_EQ(r.status, Status::error);
    EXPECT_NE(r.error, nullptr);
    EXPECT_NE(r.message.find("base_case"), std::string::npos) << r.message;
  }
  const std::vector<PricingResult> res = session.price_many(reqs);
  EXPECT_EQ(res[0].status, Status::error);
  EXPECT_EQ(res[1].status, Status::error);
  ASSERT_EQ(res[2].status, Status::ok) << res[2].message;
  EXPECT_EQ(res[2].price, bopm::american_call_fft(reqs[2].spec, reqs[2].T));
}

/// One American request per (model, right) the fft engines price.
[[nodiscard]] std::vector<PricingRequest> fft_american_requests(double R,
                                                                double Y) {
  std::vector<PricingRequest> reqs;
  for (const auto& [m, r] : {std::pair{Model::bopm, Right::call},
                            std::pair{Model::bopm, Right::put},
                            std::pair{Model::topm, Right::call},
                            std::pair{Model::topm, Right::put},
                            std::pair{Model::bsm, Right::put}}) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.K = 125.0;
    q.spec.R = R;
    q.spec.Y = Y;
    q.T = 512;
    q.model = m;
    q.right = r;
    reqs.push_back(q);
  }
  return reqs;
}

TEST(Pricer, DoubleContinuationRegimeIsRefusedNotMispriced) {
  // R < Y < 0 (call) / Y < R < 0 (put): two exercise boundaries, which the
  // single-boundary fft engines cannot represent. They must refuse with an
  // error naming the regime; the vanilla rollback still prices it.
  Pricer session;
  std::vector<PricingRequest> refused;
  for (const PricingRequest& q : fft_american_requests(-0.05, -0.01))
    if (q.right == Right::call) refused.push_back(q);  // R < Y < 0
  for (const PricingRequest& q : fft_american_requests(-0.01, -0.03))
    if (q.right == Right::put) refused.push_back(q);  // Y < R < 0
  for (PricingRequest q : refused) {
    const std::string what = std::string(to_string(q.model)) + "/" +
                             std::string(to_string(q.right));
    const PricingResult fft = session.price_one(q);
    EXPECT_EQ(fft.status, Status::error) << what;
    EXPECT_NE(fft.error, nullptr) << what;
    EXPECT_NE(fft.message.find("double-continuation"), std::string::npos)
        << what << ": " << fft.message;
    EXPECT_NE(fft.message.find("vanilla"), std::string::npos) << what;
    if (q.model == Model::bopm) {
      // The greeks path refuses too (call: low-node descent; put: its
      // pricer).
      q.compute = Compute::greeks;
      EXPECT_EQ(session.price_one(q).status, Status::error) << what;
      q.compute = Compute::price;
    }
    q.engine = Engine::vanilla;
    const PricingResult van = session.price_one(q);
    EXPECT_EQ(van.status, Status::ok) << what << ": " << van.message;
    EXPECT_TRUE(std::isfinite(van.price)) << what;
  }
}

TEST(Pricer, VanishingVolBsmIsPerItemErrorOrBoundedPrice) {
  // Two tiny-vol BSM puts (R = Y = 0.05, T = 64). At V = 1e-40 the grid
  // index |ln(S/K)|/ds is past 2^53: every BSM engine must report an error
  // instead of a wrong Status::ok price. At V = 1e-12 the index is ~7e11
  // but in range: the fft put prices 0 on rows clipped to the read cells'
  // cone instead of sizing a row by the index (std::bad_alloc).
  Pricer session;
  PricingRequest q;
  q.model = Model::bsm;
  q.right = Right::put;
  q.T = 64;
  q.spec = paper_spec();
  q.spec.R = 0.05;
  q.spec.Y = 0.05;
  q.spec.S = 90.0;
  q.spec.K = 100.0;
  q.spec.V = 1e-40;
  for (const Engine e : {Engine::fft, Engine::vanilla}) {
    q.engine = e;
    const PricingResult res = session.price_one(q);
    EXPECT_EQ(res.status, Status::error) << to_string(e) << ": " << res.price;
    EXPECT_NE(res.message.find("2^53"), std::string::npos) << res.message;
  }
  q.engine = Engine::fft;
  q.spec.S = 110.0;
  q.spec.V = 1e-12;
  const PricingResult otm = session.price_one(q);
  EXPECT_EQ(otm.status, Status::ok) << otm.message;
  EXPECT_EQ(otm.price, 0.0);
}

TEST(Pricer, NegativeRatesOutsideTheRefusedRegimeMatchVanilla) {
  // The neighbours of the double-continuation regime keep a single
  // boundary (or none), so every fft engine still prices them.
  Pricer session;
  for (const auto& [R, Y] : {std::pair{-0.02, -0.02}, std::pair{-0.01, 0.02},
                            std::pair{0.03, -0.02}}) {
    for (PricingRequest q : fft_american_requests(R, Y)) {
      const std::string what = std::string(to_string(q.model)) + "/" +
                               std::string(to_string(q.right)) +
                               " R=" + std::to_string(R) +
                               " Y=" + std::to_string(Y);
      const PricingResult fft = session.price_one(q);
      ASSERT_EQ(fft.status, Status::ok) << what << ": " << fft.message;
      q.engine = Engine::vanilla;
      const PricingResult van = session.price_one(q);
      ASSERT_EQ(van.status, Status::ok) << what << ": " << van.message;
      EXPECT_NEAR(fft.price, van.price, 1e-8 * std::max(1.0, std::abs(van.price)))
          << what;
    }
  }
}

TEST(Pricer, GreeksManyMatchesFreeFunctions) {
  std::vector<PricingRequest> reqs(2);
  reqs[0].spec = paper_spec();
  reqs[0].T = 512;
  reqs[0].right = Right::call;
  reqs[1].spec = paper_spec();
  reqs[1].T = 512;
  reqs[1].right = Right::put;

  Pricer session;
  const std::vector<PricingResult> res = session.greeks_many(reqs);
  ASSERT_EQ(res[0].status, Status::ok) << res[0].message;
  ASSERT_EQ(res[1].status, Status::ok) << res[1].message;

  // Call greeks: identical arithmetic (shared caches change nothing).
  const Greeks c = american_call_greeks_bopm(paper_spec(), 512);
  EXPECT_EQ(res[0].greeks.price, c.price);
  EXPECT_EQ(res[0].greeks.delta, c.delta);
  EXPECT_EQ(res[0].greeks.gamma, c.gamma);
  EXPECT_EQ(res[0].greeks.theta, c.theta);
  EXPECT_EQ(res[0].greeks.vega, c.vega);
  EXPECT_EQ(res[0].greeks.rho, c.rho);
  EXPECT_EQ(res[0].price, c.price);

  // Put greeks: the session and the free function reprice with the one
  // fast put pricer, so they agree bit for bit too.
  const Greeks p = american_put_greeks_bopm(paper_spec(), 512);
  EXPECT_EQ(res[1].greeks.price, p.price);
  EXPECT_EQ(res[1].greeks.delta, p.delta);
  EXPECT_EQ(res[1].greeks.gamma, p.gamma);
  EXPECT_EQ(res[1].greeks.theta, p.theta);
  EXPECT_EQ(res[1].greeks.vega, p.vega);
  EXPECT_EQ(res[1].greeks.rho, p.rho);
}

TEST(Pricer, ImpliedVolManyMatchesFreeInversionBitForBit) {
  // Round-trip: price a small ladder at a known vol, invert through the
  // session, compare against the free function AND the known vol.
  const std::int64_t T = 512;
  std::vector<PricingRequest> reqs;
  for (double k : {120.0, 130.0, 140.0}) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.K = k;
    q.T = T;
    q.right = Right::put;  // rate-dominant put exercises the direct pricer
    q.spec.R = 0.05;
    q.spec.Y = 0.0;
    q.target_price = bopm::american_put_fft(q.spec, T);
    reqs.push_back(q);
  }
  Pricer session;
  const std::vector<PricingResult> res = session.implied_vol_many(reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(res[i].status, Status::ok) << res[i].message;
    EXPECT_TRUE(res[i].implied_vol.converged);
    EXPECT_NEAR(res[i].implied_vol.vol, reqs[i].spec.V, 2e-4);

    ImpliedVolConfig cfg;
    cfg.T = T;
    const ImpliedVolResult ref = american_put_implied_vol(
        reqs[i].spec, reqs[i].target_price, cfg);
    // Same evaluations -> same Newton iterates -> identical bits.
    EXPECT_EQ(res[i].implied_vol.vol, ref.vol);
    EXPECT_EQ(res[i].implied_vol.iterations, ref.iterations);
  }
}

TEST(Pricer, WarmStartImpliedVolConvergesFasterToTheSameRoot) {
  const std::int64_t T = 512;
  PricingRequest q;
  q.spec = paper_spec();
  q.T = T;
  q.target_price = bopm::american_call_fft(q.spec, T);

  Pricer session;
  const PricingResult cold = session.implied_vol_many({&q, 1}).front();
  ASSERT_TRUE(cold.implied_vol.converged);
  EXPECT_EQ(session.stats().warm_roots, 1u);

  // Tick the quote a few bp: the warm secant must land on the moved root
  // with (far) fewer evaluations than the cold bracketed Newton.
  PricingRequest ticked = q;
  ticked.target_price = q.target_price * 1.0003;
  const PricingResult warm = session.implied_vol_many({&ticked, 1}).front();
  ASSERT_TRUE(warm.implied_vol.converged);
  EXPECT_LT(warm.implied_vol.iterations, cold.implied_vol.iterations);
  EXPECT_GT(warm.implied_vol.vol, cold.implied_vol.vol);  // price rose

  // And it must agree with a cold inversion of the same moved quote.
  ImpliedVolConfig cfg;
  cfg.T = T;
  const ImpliedVolResult ref =
      american_call_implied_vol(q.spec, ticked.target_price, cfg);
  EXPECT_NEAR(warm.implied_vol.vol, ref.vol, 1e-6);
}

TEST(Pricer, WarmStartDisabledReplaysTheColdIterationExactly) {
  const std::int64_t T = 256;
  PricingRequest q;
  q.spec = paper_spec();
  q.T = T;
  q.target_price = bopm::american_call_fft(q.spec, T);

  PricerConfig cfg;
  cfg.warm_start_iv = false;
  Pricer session(cfg);
  const PricingResult first = session.implied_vol_many({&q, 1}).front();
  const PricingResult second = session.implied_vol_many({&q, 1}).front();
  EXPECT_EQ(first.implied_vol.vol, second.implied_vol.vol);
  EXPECT_EQ(first.implied_vol.iterations, second.implied_vol.iterations);
  EXPECT_EQ(session.stats().warm_roots, 0u);
}

TEST(Pricer, ImpliedVolOutOfRangeReportsFailedToConverge) {
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 256;
  q.target_price = 2.0 * q.spec.S;  // a call is never worth more than S
  Pricer session;
  const PricingResult res = session.implied_vol_many({&q, 1}).front();
  EXPECT_EQ(res.status, Status::failed_to_converge);
  EXPECT_FALSE(res.implied_vol.converged);
  EXPECT_FALSE(res.message.empty());
}

TEST(Pricer, ImpliedVolBadBracketIsPerItemErrorNotAbort) {
  // The free functions reject vol_lo <= 0 with an aborting contract check;
  // at the session boundary the same bad config must become Status::error.
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 128;
  q.target_price = 5.0;
  q.iv.vol_lo = 0.0;
  q.spec.R = q.spec.Y;  // no drift: the validity clamp cannot rescue lo
  Pricer session;
  std::vector<PricingResult> res;
  ASSERT_NO_THROW(res = session.implied_vol_many({&q, 1}));
  EXPECT_EQ(res.front().status, Status::error);
  EXPECT_NE(res.front().message.find("bracket"), std::string::npos);
}

TEST(Pricer, WarmRootDoesNotLeakAcrossNarrowedBrackets) {
  // A root found under the default bracket must not satisfy a later
  // request whose configured bracket excludes it.
  const std::int64_t T = 256;
  PricingRequest q;
  q.spec = paper_spec();
  q.T = T;
  q.target_price = bopm::american_call_fft(q.spec, T);  // root near V=0.2
  Pricer session;
  const PricingResult wide = session.implied_vol_many({&q, 1}).front();
  ASSERT_TRUE(wide.implied_vol.converged);
  ASSERT_NEAR(wide.implied_vol.vol, 0.2, 1e-3);

  PricingRequest narrowed = q;
  narrowed.iv.vol_hi = 0.1;  // the true root is now out of bounds
  const PricingResult res = session.implied_vol_many({&narrowed, 1}).front();
  EXPECT_EQ(res.status, Status::failed_to_converge);
  EXPECT_FALSE(res.implied_vol.converged);
}

TEST(Pricer, WarmSessionStillRejectsOutOfRangeQuotes) {
  // Converge once (stores a warm root), then push the quote out of the
  // attainable range: the warm secant must hand over to the cold bracketed
  // path and report failed-to-converge within the iteration budget instead
  // of burning it on bisection.
  const std::int64_t T = 256;
  PricingRequest q;
  q.spec = paper_spec();
  q.T = T;
  q.target_price = bopm::american_call_fft(q.spec, T);
  Pricer session;
  ASSERT_TRUE(session.implied_vol_many({&q, 1}).front().implied_vol.converged);

  PricingRequest jumped = q;
  jumped.target_price = 2.0 * q.spec.S;
  const PricingResult res = session.implied_vol_many({&jumped, 1}).front();
  EXPECT_EQ(res.status, Status::failed_to_converge);
  EXPECT_LT(res.implied_vol.iterations, jumped.iv.max_iterations / 2);

  // And the warm root survives for the next sane quote.
  PricingRequest sane = q;
  sane.target_price = q.target_price * 1.0002;
  EXPECT_TRUE(session.implied_vol_many({&sane, 1}).front().implied_vol.converged);
}

TEST(Pricer, GreeksUnsupportedOutsideBopmAmericanFft) {
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 128;
  q.model = Model::topm;
  q.compute = Compute::price | Compute::greeks;
  Pricer session;
  const PricingResult res = session.price_one(q);
  EXPECT_EQ(res.status, Status::unsupported);
  EXPECT_FALSE(
      Pricer::supports(Model::topm, Right::call, Style::american, Engine::fft,
                       Compute::greeks));
  EXPECT_TRUE(
      Pricer::supports(Model::topm, Right::call, Style::american, Engine::fft,
                       Compute::price));
}

TEST(Pricer, LruEvictionKeepsResultsCorrect) {
  // Five expiry groups at T = 16384 (~1 MB of kernels each) overflow the
  // session's byte budget: the least-recently-used groups rotate out and
  // are rebuilt next round, and results never change.
  Pricer session;
  std::vector<PricingRequest> reqs;
  for (double e : {0.25, 0.5, 1.0, 1.5, 2.0}) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.expiry_years = e;
    q.T = 16384;
    reqs.push_back(q);
  }
  std::uint64_t misses = 0;
  for (int round = 0; round < 2; ++round) {
    const std::vector<PricingResult> res = session.price_many(reqs);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_EQ(res[i].status, Status::ok);
      EXPECT_EQ(res[i].price, bopm::american_call_fft(reqs[i].spec, 16384));
    }
    const Pricer::Stats st = session.stats();
    EXPECT_LE(st.cache_bytes, Pricer::kCacheBytes) << "round " << round;
    EXPECT_GT(st.cache_misses, misses) << "round " << round;  // rebuilt
    misses = st.cache_misses;
  }
  EXPECT_LT(session.stats().kernel_caches, reqs.size());
  EXPECT_GT(session.stats().spectrum_evictions, 0u);
}

TEST(Pricer, PerRequestSolverOverride) {
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 512;
  core::SolverConfig sc;
  sc.base_case = 32;
  q.solver = sc;
  Pricer session;
  const PricingResult res = session.price_one(q);
  ASSERT_EQ(res.status, Status::ok);
  EXPECT_EQ(res.price, bopm::american_call_fft(q.spec, q.T, sc));
}

TEST(Pricer, EmptyBatchAndClear) {
  Pricer session;
  EXPECT_TRUE(session.price_many({}).empty());
  PricingRequest q;
  q.spec = paper_spec();
  q.T = 128;
  (void)session.price_one(q);
  EXPECT_GE(session.stats().kernel_caches, 1u);
  session.clear();
  const Pricer::Stats st = session.stats();
  EXPECT_EQ(st.kernel_caches, 0u);
  EXPECT_EQ(st.requests, 0u);
}

TEST(Pricer, TrialVolFloodWithinBudgetKeepsChainGroupsWarm) {
  // Implied-vol trial evaluations mint a tap group per trial vol. At
  // T = 256 (a few KB per group) the whole flood fits the byte budget, so
  // it must leave every one of the chain's own groups warm.
  PricerConfig cfg;
  cfg.warm_start_iv = false;  // every tick replays the full cold Newton
  Pricer session(cfg);

  std::vector<PricingRequest> chain;
  for (double e : {0.5, 1.0, 2.0}) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.expiry_years = e;
    q.T = 256;
    chain.push_back(q);
  }
  const std::vector<PricingResult> priced = session.price_many(chain);
  for (const PricingResult& r : priced) ASSERT_EQ(r.status, Status::ok);
  const Pricer::Stats warm = session.stats();
  EXPECT_EQ(warm.kernel_caches, 3u);

  // Flood: inversions evaluate ~a dozen distinct trial vols each, every one
  // a distinct tap group.
  std::vector<PricingRequest> quotes = chain;
  for (std::size_t i = 0; i < quotes.size(); ++i)
    quotes[i].target_price = priced[i].price * 1.02;
  for (const PricingResult& r : session.implied_vol_many(quotes))
    ASSERT_TRUE(r.implied_vol.converged);

  const Pricer::Stats flooded = session.stats();
  EXPECT_GT(flooded.kernel_caches, warm.kernel_caches);  // trials kept too
  EXPECT_LE(flooded.cache_bytes, Pricer::kCacheBytes);
  EXPECT_EQ(flooded.spectrum_evictions, 0u);

  // Repricing the chain hits every one of its groups: zero new misses.
  const std::uint64_t misses_before = flooded.cache_misses;
  const std::vector<PricingResult> again = session.price_many(chain);
  for (std::size_t i = 0; i < chain.size(); ++i)
    EXPECT_EQ(again[i].price, priced[i].price);
  EXPECT_EQ(session.stats().cache_misses, misses_before);
}

TEST(Pricer, TrialVolGroupsHoldAtMostHalfTheBudget) {
  // A cold refit at T = 4096 mints ~a dozen trial-vol groups per item
  // (~0.25 MB each), far more than the budget. Trial groups count double,
  // so the flood alone leaves at most half the budget behind.
  PricerConfig cfg;
  cfg.warm_start_iv = false;
  Pricer session(cfg);
  std::vector<PricingRequest> quotes;
  for (double k : {90.0, 100.0, 110.0}) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.K = k;
    q.T = 4096;
    q.target_price = bopm::american_call_fft(q.spec, q.T) * 1.02;
    quotes.push_back(q);
  }
  for (const PricingResult& r : session.implied_vol_many(quotes))
    ASSERT_TRUE(r.implied_vol.converged);
  const Pricer::Stats st = session.stats();
  EXPECT_GT(st.kernel_caches, 0u);
  EXPECT_GT(st.spectrum_evictions, 0u);  // the flood did overflow
  EXPECT_LE(st.cache_bytes, Pricer::kCacheBytes / 2);
}

TEST(Pricer, TrialVolGroupServesLaterRequestAtRoot) {
  // The converged root vol was evaluated by the inversion, so its tap group
  // is in the registry; a subsequent request QUOTED at that vol must hit
  // it, not rebuild it.
  PricerConfig cfg;
  cfg.warm_start_iv = false;
  Pricer session(cfg);

  PricingRequest q;
  q.spec = paper_spec();
  q.T = 256;
  const double base_price = session.price_one(q).price;

  PricingRequest quote = q;
  quote.target_price = base_price * 1.01;
  const PricingResult inverted =
      session.implied_vol_many({&quote, 1}).front();
  ASSERT_TRUE(inverted.implied_vol.converged);
  const Pricer::Stats after_iv = session.stats();
  ASSERT_GE(after_iv.kernel_caches, 2u);

  PricingRequest at_root = q;
  at_root.spec.V = inverted.implied_vol.vol;
  ASSERT_EQ(session.price_one(at_root).status, Status::ok);
  const Pricer::Stats at = session.stats();
  EXPECT_EQ(at.cache_misses, after_iv.cache_misses);  // a hit
  EXPECT_EQ(at.kernel_caches, after_iv.kernel_caches);
}

TEST(Pricer, CrossExpirySharingCollapsesToOneTapGroup) {
  // A 5-expiry chain whose expiries are commensurate with the finest dt:
  // with sharing OFF every expiry derives its own taps (5 registry groups);
  // with sharing ON the batch is renormalized to the common dt and the
  // whole chain lands in ONE group, with prices within the lattice's own
  // discretization tolerance of the unshared ones.
  const double expiries[] = {0.25, 0.5, 0.75, 1.0, 1.25};
  std::vector<PricingRequest> chain;
  for (const double e : expiries) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.expiry_years = e;
    q.T = 1024;  // same step count per leg => five distinct dt values
    chain.push_back(q);
  }

  Pricer plain;
  const std::vector<PricingResult> off = plain.price_many(chain);
  for (const PricingResult& r : off) ASSERT_EQ(r.status, Status::ok);
  EXPECT_EQ(plain.stats().kernel_caches, 5u);

  PricerConfig cfg;
  cfg.share_kernels_across_expiries = true;
  Pricer sharing(cfg);
  const std::vector<PricingResult> on = sharing.price_many(chain);
  for (const PricingResult& r : on) ASSERT_EQ(r.status, Status::ok);
  EXPECT_EQ(sharing.stats().kernel_caches, 1u);

  // Normalization refines T (never coarsens), so the shared prices sit
  // within the coarser leg's own O(1/T) discretization error band of the
  // unshared ones (documented in DESIGN.md §5; generous 1% relative guard
  // here — observed differences are ~1e-4 relative at T = 1024).
  for (std::size_t i = 0; i < chain.size(); ++i)
    EXPECT_NEAR(on[i].price, off[i].price, 0.01 * off[i].price) << "leg " << i;
  // The finest-dt leg (expiry 0.25 at T = 1024) is the reference grid: its
  // discretization is unchanged, so its price is bit-identical.
  EXPECT_EQ(on[0].price, off[0].price);
}

TEST(Pricer, CrossExpirySharingOffByDefault) {
  PricerConfig cfg;
  EXPECT_FALSE(cfg.share_kernels_across_expiries);
  // And incommensurate mixes never blow up the lattice: a leg whose
  // renormalized T would exceed 8x its request keeps its own grid.
  cfg.share_kernels_across_expiries = true;
  Pricer session(cfg);
  std::vector<PricingRequest> mix(2);
  for (PricingRequest& q : mix) q.spec = paper_spec();
  mix[0].spec.expiry_years = 0.02;  // ~1 week at fine dt
  mix[0].T = 512;
  mix[1].spec.expiry_years = 1.0;   // a year at coarse dt
  mix[1].T = 512;                   // shared dt would need T = 25600
  const auto res = session.price_many(mix);
  ASSERT_EQ(res[0].status, Status::ok);
  ASSERT_EQ(res[1].status, Status::ok);
  EXPECT_EQ(res[1].price, Pricer(PricerConfig{}).price_one(mix[1]).price);
  EXPECT_EQ(session.stats().kernel_caches, 2u);  // no forced share
}

// ---- quantized sharing (PricerConfig::share_quantum) --------------------

// The implementation's bucket function, replicated so the tests can derive
// values guaranteed inside / astride one bucket instead of guessing.
[[nodiscard]] std::int64_t vol_bucket(double v, double quantum) {
  return static_cast<std::int64_t>(
      std::floor(std::log(v) / std::log1p(quantum)));
}

[[nodiscard]] std::vector<PricingRequest> drifting_vol_chain(
    const std::vector<double>& vols) {
  const double expiries[] = {0.26, 0.51, 0.77, 1.03, 1.28};
  std::vector<PricingRequest> chain;
  for (std::size_t i = 0; i < vols.size(); ++i) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.expiry_years = expiries[i % 5];
    q.spec.V = vols[i];
    q.T = 512;
    chain.push_back(q);
  }
  return chain;
}

TEST(Pricer, ShareQuantumZeroReproducesExactGroupingBitIdentically) {
  // Distinct-by-ulps vols under quantum = 0: the exact byte key sees five
  // different (R, V, Y) tuples, so no group forms, normalization is a
  // no-op, and every price is bit-identical to a sharing-off session.
  std::vector<double> vols;
  for (int i = 0; i < 5; ++i) vols.push_back(0.25 * (1.0 + i * 1e-9));
  const std::vector<PricingRequest> chain = drifting_vol_chain(vols);

  Pricer plain;
  const auto off = plain.price_many(chain);
  PricerConfig cfg;
  cfg.share_kernels_across_expiries = true;
  ASSERT_EQ(cfg.share_quantum, 0.0);  // the documented default
  Pricer sharing(cfg);
  const auto on = sharing.price_many(chain);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    ASSERT_EQ(on[i].status, Status::ok);
    EXPECT_EQ(on[i].price, off[i].price) << "leg " << i;
  }
  EXPECT_EQ(sharing.stats().kernel_caches, 5u);  // no quantized merge
}

TEST(Pricer, ShareQuantumLegsStraddlingBucketBoundaryNeverShare) {
  // Two vols a factor (1 + quantum/500) apart — far inside the tolerance —
  // but placed astride a bucket boundary: the conservative floor bucketing
  // must keep them in separate groups (documented in pricer.hpp).
  const double quantum = 1e-3;
  const std::int64_t b = vol_bucket(0.25, quantum);
  const double lo = std::exp(static_cast<double>(b) * std::log1p(quantum));
  const double v_below = lo * (1.0 - quantum / 1000.0);
  const double v_above = lo * (1.0 + quantum / 1000.0);
  ASSERT_NE(vol_bucket(v_below, quantum), vol_bucket(v_above, quantum));
  ASSERT_LT(v_above / v_below - 1.0, quantum);

  PricerConfig cfg;
  cfg.share_kernels_across_expiries = true;
  cfg.share_quantum = quantum;
  Pricer session(cfg);
  const auto res = session.price_many(drifting_vol_chain({v_below, v_above}));
  for (const auto& r : res) ASSERT_EQ(r.status, Status::ok);
  EXPECT_EQ(session.stats().kernel_caches, 2u);
}

TEST(Pricer, ShareQuantumCollapsesDriftingVolChainToOneGroup) {
  // Five expiries whose vols drift inside ONE bucket (derived from the
  // bucket's own bounds, so the collapse is guaranteed, not probabilistic):
  // the whole chain must land in a single kernel group, with every price
  // inside the documented contract of its unshared counterpart. The
  // representative tuple is the lexicographically smallest member, so each
  // vol moves by < quantum relative.
  const double quantum = 1e-3;
  const std::int64_t b = vol_bucket(0.25, quantum);
  const double lo = std::exp(static_cast<double>(b) * std::log1p(quantum));
  std::vector<double> vols;
  for (int i = 0; i < 5; ++i)
    vols.push_back(lo * (1.0 + (i + 1) * quantum / 8.0));
  for (const double v : vols)
    ASSERT_EQ(vol_bucket(v, quantum), b) << "test premise: one bucket";

  const std::vector<PricingRequest> chain = drifting_vol_chain(vols);
  Pricer plain;
  const auto off = plain.price_many(chain);
  EXPECT_EQ(plain.stats().kernel_caches, 5u);

  PricerConfig cfg;
  cfg.share_kernels_across_expiries = true;
  cfg.share_quantum = quantum;
  Pricer sharing(cfg);
  const auto on = sharing.price_many(chain);
  EXPECT_EQ(sharing.stats().kernel_caches, 1u);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    ASSERT_EQ(on[i].status, Status::ok);
    // Contract bound: the vol snap moves prices first-order by
    // vega * dV (dV/V < quantum) plus the sharing refinement's O(1/T)
    // band — both far inside 1% relative at these parameters.
    EXPECT_NEAR(on[i].price, off[i].price, 0.01 * off[i].price)
        << "leg " << i;
  }
}

TEST(Pricer, ShareQuantumGroupingIsBatchOrderIndependent) {
  // The representative is the lexicographically smallest tuple, not the
  // first-seen member: reversing the batch must produce the same prices
  // leg for leg.
  const double quantum = 1e-3;
  const std::int64_t b = vol_bucket(0.25, quantum);
  const double lo = std::exp(static_cast<double>(b) * std::log1p(quantum));
  std::vector<double> vols;
  for (int i = 0; i < 5; ++i)
    vols.push_back(lo * (1.0 + (i + 1) * quantum / 8.0));
  std::vector<PricingRequest> fwd = drifting_vol_chain(vols);
  std::vector<PricingRequest> rev(fwd.rbegin(), fwd.rend());

  PricerConfig cfg;
  cfg.share_kernels_across_expiries = true;
  cfg.share_quantum = quantum;
  const auto a = Pricer(cfg).price_many(fwd);
  const auto z = Pricer(cfg).price_many(rev);
  for (std::size_t i = 0; i < fwd.size(); ++i)
    EXPECT_EQ(a[i].price, z[fwd.size() - 1 - i].price) << "leg " << i;
}

TEST(Pricer, GreeksWarmStartReplaysBumpedLegsExactly) {
  // Tick 1 prices every finite-difference leg; tick 2 re-requests the same
  // contracts and must serve the legs from the bumped-price store with
  // bit-identical results. Opting out re-prices every leg and still agrees
  // exactly (memoization is exact, not approximate).
  std::vector<PricingRequest> chain;
  for (int i = 0; i < 4; ++i) {
    PricingRequest q;
    q.spec = paper_spec();
    q.spec.K = 120.0 + 5.0 * i;
    q.T = 128;
    chain.push_back(q);
  }

  Pricer warm;
  const auto tick1 = warm.greeks_many(chain);
  for (const PricingResult& r : tick1) ASSERT_EQ(r.status, Status::ok);
  const Pricer::Stats after1 = warm.stats();
  EXPECT_GT(after1.warm_bump_prices, 0u);

  const auto tick2 = warm.greeks_many(chain);
  const Pricer::Stats after2 = warm.stats();
  EXPECT_GT(after2.bump_price_hits, after1.bump_price_hits);
  // No new bumped evaluations were priced on the repeat.
  EXPECT_EQ(after2.warm_bump_prices, after1.warm_bump_prices);

  PricerConfig cold_cfg;
  cold_cfg.warm_start_greeks = false;
  Pricer cold(cold_cfg);
  const auto cold_res = cold.greeks_many(chain);
  EXPECT_EQ(cold.stats().warm_bump_prices, 0u);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    ASSERT_EQ(tick2[i].status, Status::ok);
    EXPECT_EQ(tick1[i].greeks.vega, tick2[i].greeks.vega) << "item " << i;
    EXPECT_EQ(tick1[i].greeks.rho, tick2[i].greeks.rho);
    EXPECT_EQ(tick1[i].greeks.delta, tick2[i].greeks.delta);
    EXPECT_EQ(tick1[i].price, tick2[i].price);
    EXPECT_EQ(cold_res[i].greeks.vega, tick1[i].greeks.vega) << "item " << i;
    EXPECT_EQ(cold_res[i].greeks.rho, tick1[i].greeks.rho);
  }
}

TEST(Pricer, CacheBytesBoundTheRegistry) {
  // A mixed-T batch whose kernel caches (~1-2.3 MB each) outgrow the byte
  // budget: the batch returns within budget, evicted spectra are counted,
  // and every price stays correct — eviction only forgets warm state.
  const auto batch = [](std::initializer_list<std::int64_t> ts) {
    std::vector<PricingRequest> reqs;
    for (const std::int64_t T : ts) {
      PricingRequest q;
      q.spec = paper_spec();
      q.T = T;
      reqs.push_back(q);
    }
    return reqs;
  };
  const std::vector<PricingRequest> big = batch({16384, 24000, 32768});
  Pricer session;
  const auto out = session.price_many(big);
  for (std::size_t i = 0; i < big.size(); ++i) {
    ASSERT_EQ(out[i].status, Status::ok) << out[i].message;
    const double want = bopm::american_call_fft(big[i].spec, big[i].T);
    EXPECT_EQ(out[i].price, want) << "item " << i;
  }
  const Pricer::Stats st = session.stats();
  EXPECT_LE(st.cache_bytes, Pricer::kCacheBytes);
  EXPECT_LT(st.kernel_caches, big.size());
  EXPECT_GT(st.spectrum_evictions, 0u);

  // A batch that fits keeps every group and evicts nothing.
  Pricer fits;
  const std::vector<PricingRequest> small = batch({1024, 2048, 3000});
  (void)fits.price_many(small);
  EXPECT_EQ(fits.stats().kernel_caches, small.size());
  EXPECT_GT(fits.stats().cache_bytes, 0u);
  EXPECT_EQ(fits.stats().spectrum_evictions, 0u);
}

TEST(Pricer, KeyChurnStaysWithinCacheBytes) {
  // Two key spaces churned together: fresh-vol T = 2^14 tap groups (~1 MB
  // each) and 500 distinct boundary-engine (alo_nodes, alo_quad) settings,
  // each minting a node table. The registry stays within the byte budget
  // after every call, and a setting whose table was evicted re-prices to
  // the same bits.
  Pricer session;
  PricingRequest lattice;
  lattice.spec = paper_spec();
  lattice.T = 16384;
  PricingRequest quote;
  quote.spec = paper_spec();
  quote.model = Model::bsm;
  quote.right = Right::put;
  quote.engine = Engine::boundary;
  core::SolverConfig sc;
  sc.alo_iterations = 1;
  double first = 0.0;
  for (int k = 0; k < 500; ++k) {
    sc.alo_nodes = 3 + k % 62;
    sc.alo_quad = 3 + 48 * (k / 62) + k % 2;
    quote.solver = sc;
    const PricingResult r = session.price_one(quote);
    ASSERT_EQ(r.status, Status::ok) << r.message;
    if (k == 0) first = r.price;
    if (k % 50 == 0) {
      lattice.spec.V = 0.2 + 0.001 * k;
      ASSERT_EQ(session.price_one(lattice).status, Status::ok);
    }
    ASSERT_LE(session.stats().cache_bytes, Pricer::kCacheBytes) << "call " << k;
  }
  EXPECT_LT(session.stats().node_tables, 500u);
  sc.alo_nodes = 3;
  sc.alo_quad = 3;
  quote.solver = sc;
  EXPECT_EQ(session.price_one(quote).price, first);
}

TEST(Pricer, StatusToString) {
  EXPECT_EQ(to_string(Status::ok), "ok");
  EXPECT_EQ(to_string(Status::unsupported), "unsupported");
  EXPECT_EQ(to_string(Status::failed_to_converge), "failed-to-converge");
  EXPECT_EQ(to_string(Status::error), "error");
  EXPECT_EQ(to_string(Status::overloaded), "overloaded");
}

TEST(Pricer, ServiceStatsCountBatchesScratchHighWaterAndTrims) {
  // The admission-control inputs the service plane keys on: batch count,
  // the arena's true high-water mark (measured BEFORE the between-batches
  // trim), and how many trims actually released memory.
  PricerConfig cfg;
  cfg.threads = 1;  // one thread -> one arena to reason about
  cfg.scratch_trim_bytes = std::size_t{1} << 12;
  Pricer session(cfg);
  EXPECT_EQ(session.stats().batches, 0u);
  EXPECT_EQ(session.stats().scratch_high_water_bytes, 0u);
  EXPECT_EQ(session.stats().scratch_trim_events, 0u);

  PricingRequest big;
  big.spec = paper_spec();
  big.T = 512;  // fft descent: arena grows far beyond the 4 KiB retain
  ASSERT_EQ(session.price_many({&big, 1}).at(0).status, Status::ok);
  const Pricer::Stats st1 = session.stats();
  EXPECT_EQ(st1.batches, 1u);
  EXPECT_GT(st1.scratch_high_water_bytes, cfg.scratch_trim_bytes)
      << "high-water mark must be measured before the trim";
  EXPECT_GE(st1.scratch_trim_events, 1u);

  // A smaller batch cannot lower the mark (it is a session-lifetime max),
  // and every price_many counts, whatever its size.
  PricingRequest small = big;
  small.T = 64;
  ASSERT_EQ(session.price_many({&small, 1}).at(0).status, Status::ok);
  const Pricer::Stats st2 = session.stats();
  EXPECT_EQ(st2.batches, 2u);
  EXPECT_GE(st2.scratch_high_water_bytes, st1.scratch_high_water_bytes);

  session.clear();
  const Pricer::Stats st3 = session.stats();
  EXPECT_EQ(st3.batches, 0u);
  EXPECT_EQ(st3.scratch_high_water_bytes, 0u);
  EXPECT_EQ(st3.scratch_trim_events, 0u);
}

}  // namespace
