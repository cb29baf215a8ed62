#include "amopt/pricing/bsm_fdm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "amopt/common/assert.hpp"
#include "amopt/common/parallel.hpp"
#include "amopt/metrics/counters.hpp"
#include "amopt/poly/poly_power.hpp"

namespace amopt::pricing::bsm {

PutGreen::PutGreen(double ds, std::int64_t k_read, std::int64_t T)
    : table_(static_cast<std::size_t>(2 * T + 5)), ds_(ds), k_read_(k_read),
      off_(T + 3) {
  AMOPT_EXPECTS(T >= 0);
  // Entry m - off_ = i - j in [-T-3, T+1] holds the cell k = k_read + i - j.
  for (std::int64_t m = -off_; m <= T + 1; ++m)
    table_[static_cast<std::size_t>(m + off_)] =
        -std::expm1(static_cast<double>(k_read + m) * ds);
}

FdmLayout make_layout(const BsmParams& prm) {
  const double k_real = prm.s_target / prm.ds;
  // Past 2^53 the cast below is out of range (UB) or the index inexact; such
  // a request has a vanishing vol, and its grid could not be sized anyway.
  if (!(std::abs(k_real) < 0x1p53))
    throw std::invalid_argument(
        "BSM FDM: |ln(S/K)|/ds >= 2^53 (volatility too small for the grid)");
  FdmLayout lay;
  lay.k_read = static_cast<std::int64_t>(std::floor(k_real));
  lay.theta = k_real - static_cast<double>(lay.k_read);
  return lay;
}

core::LatticeRow payoff_row(std::int64_t T, const FdmLayout& lay) {
  core::LatticeRow row;
  row.i = T + 1;
  row.q = std::clamp<std::int64_t>(lay.k_read + T, -1, 2 * T + 2);
  row.red.assign(static_cast<std::size_t>(row.q + 1), 0.0);
  return row;
}

double american_put_fft(const OptionSpec& spec, std::int64_t T,
                        core::SolverConfig cfg,
                        stencil::KernelCache* kernels) {
  expect_single_exercise_boundary(spec, /*call=*/false);
  const BsmParams prm = derive_bsm(spec, T);
  const FdmLayout lay = make_layout(prm);
  const PutGreen green(prm.ds, lay.k_read, T);
  core::LatticeSolver solver(kernels, {{prm.a, prm.c, prm.b}}, green, cfg);

  core::LatticeRow row = payoff_row(T, lay);
  // The first rows off the payoff are not yet governed by the free-boundary
  // dynamics: for Y > R the discrete boundary jumps to ~ln(R/Y)/ds in one
  // step. Re-discover it with full scans before trusting Theorem 4.3.
  while (row.i > std::max<std::int64_t>(T - 1, 1))
    row = solver.step_naive(row, /*unbounded_scan=*/true);
  row = solver.descend(std::move(row), 1);

  const auto value_at = [&](std::int64_t j) {
    return j <= row.q ? row.red[static_cast<std::size_t>(j)]
                      : green.value(1, j);
  };
  // Row 1: j = 1 is k_read, j = 0 is k_read + 1.
  return spec.K * ((1.0 - lay.theta) * value_at(1) + lay.theta * value_at(0));
}

namespace {

constexpr std::int64_t kPad = 4;

template <bool kParallel>
[[nodiscard]] double vanilla_impl(const OptionSpec& spec, std::int64_t T,
                                  bool american) {
  const BsmParams prm = derive_bsm(spec, T);
  const FdmLayout lay = make_layout(prm);
  // Symmetric cone around the read point; one cell erodes per step/side.
  const std::int64_t klo = lay.k_read - T - kPad;
  const std::int64_t khi = lay.k_read + 1 + T + kPad;
  const std::int64_t width = khi - klo + 1;

  std::vector<double> payoff(static_cast<std::size_t>(width));
  for (std::int64_t k = klo; k <= khi; ++k)
    payoff[static_cast<std::size_t>(k - klo)] =
        -std::expm1(static_cast<double>(k) * prm.ds);
  std::vector<double> cur(static_cast<std::size_t>(width));
  for (std::int64_t t = 0; t < width; ++t)
    cur[static_cast<std::size_t>(t)] =
        std::max(payoff[static_cast<std::size_t>(t)], 0.0);

  const double b = prm.b, c = prm.c, a = prm.a;
  if constexpr (!kParallel) {
    for (std::int64_t n = 1; n <= T; ++n) {
      const std::int64_t lo = n, hi = width - 1 - n;  // cone interior
      double left_old = cur[static_cast<std::size_t>(lo - 1)];
      for (std::int64_t t = lo; t <= hi; ++t) {
        const double old_t = cur[static_cast<std::size_t>(t)];
        const double lin =
            b * left_old + c * old_t + a * cur[static_cast<std::size_t>(t + 1)];
        cur[static_cast<std::size_t>(t)] =
            american ? std::max(lin, payoff[static_cast<std::size_t>(t)]) : lin;
        left_old = old_t;
      }
    }
  } else {
    std::vector<double> nxt(cur.size());
    for (std::int64_t n = 1; n <= T; ++n) {
      const std::int64_t lo = n, hi = width - 1 - n;
      parallel_for_chunks(hi - lo + 1, 1024, [&](std::ptrdiff_t clo,
                                                 std::ptrdiff_t chi) {
        for (std::ptrdiff_t t = lo + clo; t < lo + chi; ++t) {
          const double lin = b * cur[static_cast<std::size_t>(t - 1)] +
                             c * cur[static_cast<std::size_t>(t)] +
                             a * cur[static_cast<std::size_t>(t + 1)];
          nxt[static_cast<std::size_t>(t)] =
              american ? std::max(lin, payoff[static_cast<std::size_t>(t)])
                       : lin;
        }
      });
      cur.swap(nxt);
    }
  }
  metrics::add_flops(6 * static_cast<std::uint64_t>(T) *
                     static_cast<std::uint64_t>(width));
  metrics::add_bytes(2 * sizeof(double) * static_cast<std::uint64_t>(T) *
                     static_cast<std::uint64_t>(width));

  const double v0 = cur[static_cast<std::size_t>(lay.k_read - klo)];
  const double v1 = cur[static_cast<std::size_t>(lay.k_read + 1 - klo)];
  return spec.K * ((1.0 - lay.theta) * v0 + lay.theta * v1);
}

}  // namespace

double american_put_vanilla(const OptionSpec& spec, std::int64_t T) {
  return vanilla_impl<false>(spec, T, /*american=*/true);
}

double american_put_vanilla_parallel(const OptionSpec& spec, std::int64_t T) {
  return vanilla_impl<true>(spec, T, /*american=*/true);
}

double european_put_fdm(const OptionSpec& spec, std::int64_t T) {
  const BsmParams prm = derive_bsm(spec, T);
  const FdmLayout lay = make_layout(prm);
  // v(T, k) = sum_m kernel[m] * v0(k - T + m): one kernel power + two dots.
  const std::vector<double> kernel =
      poly::power(std::vector<double>{prm.b, prm.c, prm.a},
                  static_cast<std::uint64_t>(T));
  const auto value = [&](std::int64_t k) {
    double acc = 0.0;
    for (std::int64_t m = 0; m <= 2 * T; ++m) {
      const std::int64_t k0 = k - T + m;
      const double v0 =
          std::max(-std::expm1(static_cast<double>(k0) * prm.ds), 0.0);
      acc += kernel[static_cast<std::size_t>(m)] * v0;
    }
    return acc;
  };
  const double v = (1.0 - lay.theta) * value(lay.k_read) +
                   lay.theta * value(lay.k_read + 1);
  return spec.K * v;
}

std::vector<std::int64_t> exercise_boundary_vanilla(const OptionSpec& spec,
                                                    std::int64_t T) {
  const BsmParams prm = derive_bsm(spec, T);
  // The boundary jumps to ~ln(R/Y)/ds off the payoff row (Y > R) and then
  // drifts further left like sqrt(tau); size the window for both, and keep
  // its LEFT edge fixed with the payoff as a Dirichlet value — exact there,
  // since the edge sits deep inside the exercise region where v == payoff.
  std::int64_t jump = 0;
  if (spec.Y > spec.R && spec.R > 0.0)
    jump = static_cast<std::int64_t>(
        std::floor(std::log(spec.R / spec.Y) / prm.ds));
  const std::int64_t klo =
      2 * jump - 4 * static_cast<std::int64_t>(std::sqrt(static_cast<double>(T))) -
      T / 4 - 64;
  const std::int64_t khi = T + kPad;  // right edge erodes with the cone
  const std::int64_t width = khi - klo + 1;
  std::vector<double> payoff(static_cast<std::size_t>(width));
  for (std::int64_t k = klo; k <= khi; ++k)
    payoff[static_cast<std::size_t>(k - klo)] =
        -std::expm1(static_cast<double>(k) * prm.ds);
  std::vector<double> cur(static_cast<std::size_t>(width));
  for (std::int64_t t = 0; t < width; ++t)
    cur[static_cast<std::size_t>(t)] =
        std::max(payoff[static_cast<std::size_t>(t)], 0.0);

  std::vector<std::int64_t> boundary(static_cast<std::size_t>(T + 1));
  boundary[0] = 0;
  const double b = prm.b, c = prm.c, a = prm.a;
  for (std::int64_t n = 1; n <= T; ++n) {
    const std::int64_t lo = 1, hi = width - 1 - n;
    double left_old = cur[0];  // fixed left edge: deep green, v == payoff
    std::int64_t last_green = klo;
    for (std::int64_t t = lo; t <= hi; ++t) {
      const double old_t = cur[static_cast<std::size_t>(t)];
      const double lin =
          b * left_old + c * old_t + a * cur[static_cast<std::size_t>(t + 1)];
      const double pay = payoff[static_cast<std::size_t>(t)];
      if (pay > lin) last_green = klo + t;
      cur[static_cast<std::size_t>(t)] = std::max(lin, pay);
      left_old = old_t;
    }
    AMOPT_ENSURES(last_green > klo + 1);  // boundary stayed interior
    boundary[static_cast<std::size_t>(n)] = last_green;
  }
  return boundary;
}

}  // namespace amopt::pricing::bsm
