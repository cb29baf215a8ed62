// Boundary-engine quote/IV microbench: the PR's headline numbers, row-keyed
// by the LATTICE step count T the boundary engine is racing.
//
//   quote-fft      — one warm bsm American-put quote through the stencil
//                    fft engine at T steps (shared kernel cache prebuilt,
//                    so this is the honest marginal descent cost);
//   quote-boundary — the same contract through the ALO boundary engine at
//                    the default preset (13 nodes / 25 quad / 8 sweeps,
//                    ~2e-6 price error — tighter than the lattice anywhere
//                    in this sweep, so every row compares at or above
//                    matched accuracy);
//   quote-x        — fft/boundary ratio (bigger is better); the >= 50x
//                    acceptance bar at T = 2^13 is enforced by
//                    tools/check_bench.py --pair-speedup in CI;
//   iv-lattice     — microseconds per implied-vol inversion of a ticking
//                    8-strike chain routed through the lattice engine
//                    (bopm American call, the lattice IV path);
//   iv-boundary    — the same ticking inversion routed through the
//                    boundary engine (bsm American put); >= 5x bar in CI;
//   allocs-quote   — heap allocations per steady-state boundary quote
//                    (prebuilt NodeTable, warm arena): pinned at ZERO by
//                    --alloc-budget, the DESIGN.md §6 contract. This
//                    binary replaces operator new/delete with counting
//                    versions (counting_new.hpp) to measure it.
//
// The IV ticks drift a few basis points per tick so later Newton iterates
// genuinely differ tick to tick — warm-session reuse, not memoization.
// Emits BENCH_alo.json (AMOPT_BENCH_JSON overrides, "none" disables).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "amopt/core/lattice_solver.hpp"
#include "amopt/pricing/alo/alo_engine.hpp"
#include "amopt/pricing/api.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/bsm_fdm.hpp"
#include "amopt/pricing/params.hpp"
#include "amopt/pricing/pricer.hpp"
#include "amopt/stencil/kernel_cache.hpp"
#include "bench_common.hpp"

#include "counting_new.hpp"

int main() {
  using namespace amopt;
  using namespace amopt::pricing;

  const bench::Sweep sweep = bench::sweep_from_env(1 << 11, 1 << 13, 0);
  const int ticks = static_cast<int>(env_long("AMOPT_BENCH_TICKS", 4));
  const int n_strikes = 8;
  const int kQuoteBatch = 64;  // boundary quotes are us-scale; batch them

  bench::print_header(
      "single American quote and implied-vol tick: stencil lattice vs the "
      "Chebyshev/tanh-sinh boundary engine (us per quote / per inversion), "
      "plus heap allocations per steady-state boundary quote",
      "microseconds",
      {"quote-fft", "quote-boundary", "quote-x", "iv-lattice", "iv-boundary",
       "iv-x", "allocs-quote"});

  const OptionSpec base{100.0, 100.0, 0.05, 0.25, 0.0, 1.0};
  const core::SolverConfig scfg;  // default ALO preset
  const auto table = alo::build_node_table(scfg.alo_nodes, scfg.alo_quad);

  std::vector<std::int64_t> ts;
  std::vector<std::vector<double>> rows;
  for (std::int64_t T = sweep.min_t; T <= sweep.max_t; T *= 2) {
    // --- single quote, fft engine: shared kernel cache prebuilt (a strike
    // ladder shares taps), so the timed region is the per-quote descent.
    stencil::KernelCache cache(pricing::detail::shared_cache_stencil(
        base, T, Model::bsm, Right::put, Style::american, Engine::fft));
    double fft_sink = 0.0;
    OptionSpec fft_spec = base;
    (void)bsm::american_put_fft(fft_spec, T, scfg, &cache);  // warm kernels
    const double quote_fft =
        1e6 * bench::time_best(
                  [&] {
                    fft_sink += bsm::american_put_fft(fft_spec, T, scfg, &cache);
                  },
                  sweep.reps);

    // --- single quote, boundary engine: prebuilt NodeTable, warm arena;
    // a batch of distinct strikes per timing to rise above timer noise.
    double alo_sink = 0.0;
    OptionSpec alo_spec = base;
    (void)alo::american_price(alo_spec, Right::put, scfg, table.get());
    const double quote_alo =
        1e6 *
        bench::time_best(
            [&] {
              for (int i = 0; i < kQuoteBatch; ++i) {
                alo_spec.K = 90.0 + 0.25 * static_cast<double>(i);
                alo_sink +=
                    alo::american_price(alo_spec, Right::put, scfg, table.get());
              }
            },
            sweep.reps) /
        kQuoteBatch;
    const double quote_x = quote_alo > 0.0 ? quote_fft / quote_alo : 0.0;

    // --- implied-vol tick, lattice-routed: bopm American call at T steps
    // (the lattice IV path), one warm session across all ticks.
    std::vector<PricingRequest> lat_chain;
    for (int i = 0; i < n_strikes; ++i) {
      PricingRequest q;
      q.spec = paper_spec();
      q.spec.K = 100.0 + 4.0 * i;
      q.T = T;
      q.compute = Compute::implied_vol;
      q.target_price = bopm::american_call_fft(q.spec, T);
      lat_chain.push_back(q);
    }
    const auto ticked = [](const PricingRequest& q, int tick) {
      return q.target_price * (1.0 + 2e-4 * static_cast<double>(tick + 1));
    };
    Pricer lat_session;
    {  // un-timed tick 0: cold kernel builds belong to session setup
      std::vector<PricingRequest> warm = lat_chain;
      for (PricingRequest& q : warm) q.target_price = ticked(q, -1);
      (void)lat_session.implied_vol_many(warm);
    }
    double iv_sink = 0.0;
    WallTimer lat_timer;
    for (int tick = 0; tick < ticks; ++tick) {
      std::vector<PricingRequest> quotes = lat_chain;
      for (PricingRequest& q : quotes) q.target_price = ticked(q, tick);
      for (const PricingResult& r : lat_session.implied_vol_many(quotes))
        iv_sink += r.implied_vol.vol;
    }
    const double iv_lattice =
        1e6 * lat_timer.seconds() / (ticks * n_strikes);

    // --- implied-vol tick, boundary-routed: bsm American put, same drift.
    std::vector<PricingRequest> alo_chain;
    Pricer alo_session;
    for (int i = 0; i < n_strikes; ++i) {
      PricingRequest q;
      q.spec = base;
      q.spec.K = 100.0 + 4.0 * i;
      q.T = T;
      q.model = Model::bsm;
      q.right = Right::put;
      q.engine = Engine::boundary;
      alo_chain.push_back(q);
    }
    for (PricingRequest& q : alo_chain) {
      PricingRequest px = q;
      px.compute = Compute::price;
      q.compute = Compute::implied_vol;
      q.target_price = alo_session.price_one(px).price;
    }
    {  // matching un-timed warm tick
      std::vector<PricingRequest> warm = alo_chain;
      for (PricingRequest& q : warm) q.target_price = ticked(q, -1);
      (void)alo_session.implied_vol_many(warm);
    }
    WallTimer alo_timer;
    for (int tick = 0; tick < ticks; ++tick) {
      std::vector<PricingRequest> quotes = alo_chain;
      for (PricingRequest& q : quotes) q.target_price = ticked(q, tick);
      for (const PricingResult& r : alo_session.implied_vol_many(quotes))
        iv_sink += r.implied_vol.vol;
    }
    const double iv_boundary =
        1e6 * alo_timer.seconds() / (ticks * n_strikes);
    const double iv_x = iv_boundary > 0.0 ? iv_lattice / iv_boundary : 0.0;

    // --- steady-state allocation counter for the zero-alloc contract.
    (void)alo::american_price(alo_spec, Right::put, scfg, table.get());
    const std::uint64_t before = counting_new::count();
    for (int i = 0; i < kQuoteBatch; ++i) {
      alo_spec.K = 90.0 + 0.25 * static_cast<double>(i);
      alo_sink += alo::american_price(alo_spec, Right::put, scfg, table.get());
    }
    const double allocs_quote =
        static_cast<double>(counting_new::count() - before) / kQuoteBatch;

    bench::print_row(T, {quote_fft, quote_alo, quote_x, iv_lattice,
                         iv_boundary, iv_x, allocs_quote});
    ts.push_back(T);
    rows.push_back({quote_fft, quote_alo, quote_x, iv_lattice, iv_boundary,
                    iv_x, allocs_quote});
    std::printf("#   checksums: fft %.6f alo %.6f iv %.6f\n", fft_sink,
                alo_sink, iv_sink);
  }

  const std::string json = env_string("AMOPT_BENCH_JSON", "BENCH_alo.json");
  if (!json.empty() && json != "none")
    bench::write_json(json, "micro_alo_boundary_engine", "microseconds",
                      {"quote-fft", "quote-boundary", "quote-x", "iv-lattice",
                       "iv-boundary", "iv-x", "allocs-quote"},
                      ts, rows);
  return 0;
}
