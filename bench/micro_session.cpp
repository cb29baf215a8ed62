// Warm-session recalibration bench: repeated implied-vol inversion of a
// 16-strike chain as the quotes tick, comparing
//
//   cold-iv  — the legacy free function per quote (every evaluation owns
//              its kernel cache; nothing survives between calls);
//   warm-iv  — one `Pricer` session serving `implied_vol_many` for every
//              tick (bracket endpoints and early Newton iterates share tap
//              groups across the chain AND across ticks, so their kernel
//              powers are computed once for the whole run).
//
// The quotes move a few bp per tick, so later Newton iterates genuinely
// differ run to run — the warm numbers measure honest reuse, not
// memoization of identical requests. Emits BENCH_session.json
// (AMOPT_BENCH_JSON overrides the path, "none" disables).
//
// This binary also replaces global operator new/delete with counting
// versions to emit the allocs-descend series: the number of heap
// allocations one steady-state LatticeSolver::descend performs after
// warm-up. The PR 5 scratch arena makes this exactly zero at every T, and
// tools/check_bench.py --alloc-budget keeps it there in CI.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "amopt/common/parallel.hpp"
#include "amopt/core/lattice_solver.hpp"
#include "amopt/pricing/api.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/implied_vol.hpp"
#include "amopt/pricing/pricer.hpp"
#include "amopt/stencil/kernel_cache.hpp"
#include "bench_common.hpp"

#include "counting_new.hpp"

namespace {

/// Heap allocations of one warm LatticeSolver::descend at T: shared kernel
/// cache, serial solver (deterministic thread placement), one descent to
/// warm every cache/arena, then a counted repeat from the same top row.
[[nodiscard]] double allocs_per_descend(const amopt::pricing::OptionSpec& spec,
                                        std::int64_t T) {
  using namespace amopt;
  const auto prm = pricing::derive_bopm(spec, T);
  const pricing::bopm::CallGreen green(spec, prm);
  core::SolverConfig cfg;
  cfg.parallel = false;
  stencil::KernelCache cache({{prm.s0, prm.s1}});
  core::LatticeSolver solver(&cache, {{prm.s0, prm.s1}}, green, cfg);
  core::LatticeRow row = pricing::bopm::expiry_row(prm, green);
  while (row.i > std::max<std::int64_t>(T - 2, 0))
    row = solver.step_naive(row, /*unbounded_scan=*/true);
  core::LatticeRow warm = row;  // keep a reusable top
  (void)solver.descend(std::move(row), 0);  // warm-up descent
  core::LatticeRow top = warm;              // copy BEFORE counting
  const std::uint64_t before = counting_new::count();
  (void)solver.descend(std::move(top), 0);
  return static_cast<double>(counting_new::count() - before);
}

}  // namespace

int main() {
  using namespace amopt;
  using namespace amopt::pricing;

  const bench::Sweep sweep = bench::sweep_from_env(1 << 10, 1 << 12, 0);
  const int ticks = static_cast<int>(env_long("AMOPT_BENCH_TICKS", 8));
  const int n_strikes = 16;

  bench::print_header("warm-session vs cold implied-vol recalibration "
                      "(16-strike chain, ms per chain inversion), "
                      "cross-expiry kernel sharing (5-expiry TOPM chain, ms "
                      "per cold chain pricing), and heap allocations per "
                      "steady-state descend",
                      "milliseconds",
                      {"cold-iv", "warm-iv", "speedup", "share-off",
                       "share-on", "share-x", "allocs-descend", "batch-1t",
                       "batch-2t", "batch-4t", "batch-8t"});

  std::vector<std::int64_t> ts;
  std::vector<std::vector<double>> rows;
  for (std::int64_t T = sweep.min_t; T <= sweep.max_t; T *= 2) {
    // Quotes: the chain's own prices at the reference vol.
    OptionSpec base = paper_spec();
    std::vector<PricingRequest> chain;
    for (int i = 0; i < n_strikes; ++i) {
      PricingRequest q;
      q.spec = base;
      q.spec.K = 100.0 + 4.0 * i;
      q.T = T;
      chain.push_back(q);
    }
    for (PricingRequest& q : chain)
      q.target_price = bopm::american_call_fft(q.spec, T);
    const auto ticked = [&](const PricingRequest& q, int tick) {
      // A few basis points of drift per tick keeps every inversion fresh.
      return q.target_price * (1.0 + 2e-4 * static_cast<double>(tick + 1));
    };

    // Cold: free function per quote, per tick.
    WallTimer cold_timer;
    double cold_sink = 0.0;
    for (int tick = 0; tick < ticks; ++tick) {
      for (const PricingRequest& q : chain) {
        ImpliedVolConfig cfg;
        cfg.T = T;
        cold_sink +=
            american_call_implied_vol(q.spec, ticked(q, tick), cfg).vol;
      }
    }
    const double cold = cold_timer.seconds() / ticks;

    // Warm: one session across all ticks.
    Pricer session;
    WallTimer warm_timer;
    double warm_sink = 0.0;
    for (int tick = 0; tick < ticks; ++tick) {
      std::vector<PricingRequest> quotes = chain;
      for (PricingRequest& q : quotes) q.target_price = ticked(q, tick);
      for (const PricingResult& res : session.implied_vol_many(quotes))
        warm_sink += res.implied_vol.vol;
    }
    const double warm = warm_timer.seconds() / ticks;

    const double speedup = warm > 0.0 ? cold / warm : 0.0;

    // Cross-expiry kernel sharing: a 5-expiry European TOPM chain — the
    // vol-surface calibration shape, where each leg's cost IS its T-step
    // kernel power (3-tap stencils, so powers run the FFT squaring ladder)
    // — with per-leg step counts targeting a common steps-per-year. The
    // llround below leaves the five dt values unequal in the last bits, so
    // with sharing OFF every leg builds its own kernel cache and squaring
    // ladder; with sharing ON the batch is renormalized to one dt and the
    // whole chain shares ONE group — every leg draws its taps^(2^k) rungs
    // from one chain built once. Fresh sessions per run: this measures
    // cold-chain construction, the cost the sharing flag exists to
    // amortize.
    const double expiries[] = {0.26, 0.51, 0.77, 1.03, 1.28};
    std::vector<PricingRequest> xchain;
    for (const double e : expiries) {
      PricingRequest q;
      q.spec = paper_spec();
      q.spec.expiry_years = e;
      q.model = Model::topm;
      q.style = Style::european;
      q.T = std::llround(e * static_cast<double>(T));
      xchain.push_back(q);
    }
    double share_sink = 0.0;
    const double share_off = bench::time_best(
        [&] {
          Pricer s;
          for (const PricingResult& r : s.price_many(xchain))
            share_sink += r.price;
        },
        sweep.reps);
    PricerConfig shared_cfg;
    shared_cfg.share_kernels_across_expiries = true;
    std::size_t shared_groups = 0;
    const double share_on = bench::time_best(
        [&] {
          Pricer s(shared_cfg);
          for (const PricingResult& r : s.price_many(xchain))
            share_sink += r.price;
          shared_groups = s.stats().kernel_caches;
        },
        sweep.reps);
    const double share_x = share_on > 0.0 ? share_off / share_on : 0.0;

    // Steady-state allocation counter for the scratch-arena guarantee.
    const double allocs = allocs_per_descend(base, T);

    // Thread-scaling of the warm batch fan-out: the same 16-strike chain
    // priced through ONE warm session at pool widths 1/2/4/8 (width 1 is
    // the serial library bit for bit; widths beyond the machine's cores
    // oversubscribe and mostly measure scheduling overhead).
    double batch_ms[4] = {0.0, 0.0, 0.0, 0.0};
    {
      Pricer bs;
      double batch_sink = 0.0;
      (void)bs.price_many(chain);  // warm caches and arenas once
      int slot = 0;
      for (const int p : {1, 2, 4, 8}) {
        ThreadScope scope(p);
        batch_ms[slot++] = 1e3 * bench::time_best(
                                     [&] {
                                       for (const PricingResult& r :
                                            bs.price_many(chain))
                                         batch_sink += r.price;
                                     },
                                     sweep.reps);
      }
      volatile double sink = batch_sink;  // keep the measured work observable
      (void)sink;
    }

    bench::print_row(T, {cold * 1e3, warm * 1e3, speedup, share_off * 1e3,
                         share_on * 1e3, share_x, allocs, batch_ms[0],
                         batch_ms[1], batch_ms[2], batch_ms[3]});
    ts.push_back(T);
    rows.push_back({cold * 1e3, warm * 1e3, speedup, share_off * 1e3,
                    share_on * 1e3, share_x, allocs, batch_ms[0],
                    batch_ms[1], batch_ms[2], batch_ms[3]});

    const Pricer::Stats st = session.stats();
    std::printf("#   session: %zu live group(s), %llu hit(s) / %llu "
                "miss(es) across %llu request(s); vol checksums %.6f/%.6f; "
                "shared chain groups: %zu (price checksum %.6f)\n",
                st.kernel_caches,
                static_cast<unsigned long long>(st.cache_hits),
                static_cast<unsigned long long>(st.cache_misses),
                static_cast<unsigned long long>(st.requests), cold_sink,
                warm_sink, shared_groups, share_sink);
  }

  const std::string json = env_string("AMOPT_BENCH_JSON", "BENCH_session.json");
  if (!json.empty() && json != "none")
    bench::write_json(json, "micro_session_warm_iv", "milliseconds",
                      {"cold-iv", "warm-iv", "speedup", "share-off",
                       "share-on", "share-x", "allocs-descend", "batch-1t",
                       "batch-2t", "batch-4t", "batch-8t"},
                      ts, rows);
  return 0;
}
