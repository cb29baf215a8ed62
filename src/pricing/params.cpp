#include "amopt/pricing/params.hpp"

#include <cmath>
#include <stdexcept>

#include "amopt/common/assert.hpp"

namespace amopt::pricing {

OptionSpec paper_spec() {
  OptionSpec s;
  s.S = 127.62;
  s.K = 130.0;
  s.R = 0.00163;
  s.V = 0.2;
  s.Y = 0.0163;
  s.expiry_years = 1.0;  // E = 252 trading days
  return s;
}

void expect_single_exercise_boundary(const OptionSpec& spec, bool call) {
  // A put's regime is its symmetric call's with the rates swapped.
  const double r = call ? spec.R : spec.Y;
  const double y = call ? spec.Y : spec.R;
  if (r < y && y < 0.0)
    throw std::invalid_argument(
        "amopt: double-continuation regime (R < Y < 0 for a call, "
        "Y < R < 0 for a put) has two exercise boundaries; the fft engines "
        "assume one, price it with Engine::vanilla");
}

BopmParams derive_bopm(const OptionSpec& spec, std::int64_t T) {
  AMOPT_EXPECTS(T >= 0);
  AMOPT_EXPECTS(spec.V > 0.0 && spec.expiry_years > 0.0 && spec.S > 0.0 &&
                spec.K > 0.0);
  BopmParams p;
  p.T = T;
  if (T == 0) return p;
  p.dt = spec.expiry_years / static_cast<double>(T);
  p.u = std::exp(spec.V * std::sqrt(p.dt));
  p.d = 1.0 / p.u;
  p.log_u = spec.V * std::sqrt(p.dt);
  p.p = (std::exp((spec.R - spec.Y) * p.dt) - p.d) / (p.u - p.d);
  if (!(p.p > 0.0 && p.p < 1.0))
    throw std::invalid_argument(
        "BOPM: risk-neutral probability outside (0,1); increase T or reduce "
        "|R-Y|*dt relative to V*sqrt(dt)");
  const double m = std::exp(-spec.R * p.dt);
  p.s0 = m * (1.0 - p.p);  // down child (i+1, j)
  p.s1 = m * p.p;          // up child (i+1, j+1)
  return p;
}

TopmParams derive_topm(const OptionSpec& spec, std::int64_t T) {
  AMOPT_EXPECTS(T >= 0);
  AMOPT_EXPECTS(spec.V > 0.0 && spec.expiry_years > 0.0 && spec.S > 0.0 &&
                spec.K > 0.0);
  TopmParams p;
  p.T = T;
  if (T == 0) return p;
  p.dt = spec.expiry_years / static_cast<double>(T);
  p.log_u = spec.V * std::sqrt(2.0 * p.dt);
  p.u = std::exp(p.log_u);
  p.d = 1.0 / p.u;
  const double sqrt_u = std::exp(0.5 * p.log_u);
  const double sqrt_d = 1.0 / sqrt_u;
  const double drift = std::exp((spec.R - spec.Y) * p.dt / 2.0);
  const double den = sqrt_u - sqrt_d;
  p.pu = ((drift - sqrt_d) / den) * ((drift - sqrt_d) / den);
  p.pd = ((sqrt_u - drift) / den) * ((sqrt_u - drift) / den);
  p.po = 1.0 - p.pu - p.pd;
  if (!(p.pu > 0.0 && p.pd > 0.0 && p.po > 0.0))
    throw std::invalid_argument(
        "TOPM: transition probabilities outside (0,1); adjust T");
  const double m = std::exp(-spec.R * p.dt);
  p.s0 = m * p.pd;  // down child (i+1, j)
  p.s1 = m * p.po;  // flat child (i+1, j+1)
  p.s2 = m * p.pu;  // up child (i+1, j+2)
  return p;
}

BsmParams derive_bsm(const OptionSpec& spec, std::int64_t T) {
  AMOPT_EXPECTS(T >= 1);
  AMOPT_EXPECTS(spec.V > 0.0 && spec.expiry_years > 0.0 && spec.S > 0.0 &&
                spec.K > 0.0);
  BsmParams p;
  p.T = T;
  p.omega = 2.0 * spec.R / (spec.V * spec.V);
  p.omega_drift = 2.0 * (spec.R - spec.Y) / (spec.V * spec.V);
  p.tau_max = 0.5 * spec.V * spec.V * spec.expiry_years;
  p.dtau = p.tau_max / static_cast<double>(T);
  // lambda = dtau/ds^2 <= 0.4 keeps the scheme monotone with slack for the
  // first-order term; shrink lambda further if |omega_drift-1|*ds/2 would
  // push a tap negative (only possible for extreme rates).
  double lambda = 0.4;
  double ds = std::sqrt(p.dtau / lambda);
  const double drift_ratio = 0.5 * std::abs(p.omega_drift - 1.0) * ds;
  if (drift_ratio >= 1.0) {
    ds = 1.0 / std::abs(p.omega_drift - 1.0);  // forces |mu| <= lambda/2
    lambda = p.dtau / (ds * ds);
  }
  p.lambda = lambda;
  p.ds = ds;
  const double mu = 0.5 * (p.omega_drift - 1.0) * p.dtau / p.ds;
  p.a = lambda + mu;               // tap on v[k+1]
  p.b = lambda - mu;               // tap on v[k-1]
  p.c = 1.0 - p.omega * p.dtau - 2.0 * lambda;  // tap on v[k]
  if (!(p.a >= 0.0 && p.b >= 0.0 && p.c >= 0.0))
    throw std::invalid_argument(
        "BSM FDM: non-monotone scheme (a,b,c must be >= 0); increase T");
  p.s_target = std::log(spec.S / spec.K);
  return p;
}

PowerTable::PowerTable(double log_u, std::int64_t T, std::int64_t pad)
    : pow_(static_cast<std::size_t>(2 * (T + pad) + 1)), off_(T + pad) {
  AMOPT_EXPECTS(T >= 0 && pad >= 0);
  // Filling by repeated multiplication drifts (O(T*eps) relative error at
  // the ends); exp(e*log_u) keeps every entry at full precision.
  for (std::int64_t e = -off_; e <= off_; ++e)
    pow_[static_cast<std::size_t>(e + off_)] =
        std::exp(static_cast<double>(e) * log_u);
}

}  // namespace amopt::pricing
