#include "amopt/pricing/greeks.hpp"

#include <cmath>

#include "amopt/common/assert.hpp"
#include "amopt/pricing/bopm.hpp"

namespace amopt::pricing {

namespace {

/// Relative bump for the finite-difference Greeks; h ~ cbrt(eps) balances
/// truncation against cancellation for central differences.
constexpr double kBump = 6e-5;

}  // namespace

Greeks american_call_greeks_bopm(const OptionSpec& spec, std::int64_t T,
                                 core::SolverConfig cfg,
                                 const RepriceFn& reprice,
                                 stencil::KernelCache* kernels) {
  AMOPT_EXPECTS(T >= 2);
  const auto price = [&](const OptionSpec& s) {
    return reprice ? reprice(s) : bopm::american_call_fft(s, T, cfg);
  };
  const bopm::LowNodes n = bopm::american_call_nodes_fft(spec, T, cfg, kernels);
  const double u = n.prm.u, d = n.prm.d, dt = n.prm.dt;
  Greeks g;
  g.price = n.g00;
  g.delta = (n.g11 - n.g10) / (spec.S * (u - d));
  const double h_up = spec.S * (u * u - 1.0);
  const double h_dn = spec.S * (1.0 - d * d);
  g.gamma = ((n.g22 - n.g21) / h_up - (n.g21 - n.g20) / h_dn) /
            (0.5 * spec.S * (u * u - d * d));
  // Node (2,1) carries the same asset price as the root, two steps later.
  g.theta = (n.g21 - n.g00) / (2.0 * dt);

  OptionSpec up_v = spec, dn_v = spec;
  up_v.V = spec.V * (1.0 + kBump);
  dn_v.V = spec.V * (1.0 - kBump);
  g.vega = (price(up_v) - price(dn_v)) / (2.0 * kBump * spec.V);

  const double r_step = std::max(std::abs(spec.R) * kBump, 1e-7);
  OptionSpec up_r = spec, dn_r = spec;
  up_r.R = spec.R + r_step;
  dn_r.R = spec.R - r_step;
  g.rho = (price(up_r) - price(dn_r)) / (2.0 * r_step);
  return g;
}

Greeks american_put_greeks_bopm(const OptionSpec& spec, std::int64_t T,
                                core::SolverConfig cfg,
                                const RepriceFn& reprice) {
  AMOPT_EXPECTS(T >= 2);
  const auto price = [&](const OptionSpec& s) {
    return reprice ? reprice(s) : bopm::american_put_fft(s, T, cfg);
  };
  Greeks g;
  g.price = price(spec);

  // Second derivatives need a wider stencil than first derivatives to beat
  // cancellation noise (price is accurate to ~1e-10 relative).
  const double s_step = spec.S * 5e-3;
  OptionSpec up_s = spec, dn_s = spec;
  up_s.S = spec.S + s_step;
  dn_s.S = spec.S - s_step;
  const double p_up = price(up_s), p_dn = price(dn_s);
  g.delta = (p_up - p_dn) / (2.0 * s_step);
  g.gamma = (p_up - 2.0 * g.price + p_dn) / (s_step * s_step);

  const double t_step = spec.expiry_years * kBump;
  OptionSpec shorter = spec;
  shorter.expiry_years = spec.expiry_years - t_step;
  g.theta = (price(shorter) - g.price) / t_step;  // decay as time passes

  OptionSpec up_v = spec, dn_v = spec;
  up_v.V = spec.V * (1.0 + kBump);
  dn_v.V = spec.V * (1.0 - kBump);
  g.vega = (price(up_v) - price(dn_v)) / (2.0 * kBump * spec.V);

  const double r_step = std::max(std::abs(spec.R) * kBump, 1e-7);
  OptionSpec up_r = spec, dn_r = spec;
  up_r.R = spec.R + r_step;
  dn_r.R = spec.R - r_step;
  g.rho = (price(up_r) - price(dn_r)) / (2.0 * r_step);
  return g;
}

}  // namespace amopt::pricing
