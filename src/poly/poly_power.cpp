#include "amopt/poly/poly_power.hpp"

#include <algorithm>
#include <cmath>

#include "amopt/common/assert.hpp"
#include "amopt/fft/convolution.hpp"

namespace amopt::poly {

namespace {

/// log(k!) for k in [0, n] with compensated (Kahan) summation; the absolute
/// error stays O(sqrt(n)·eps), i.e. ~1e-12 relative on the exponentiated
/// value even at h = 2^20. Cached per thread and grown by continuing the
/// SAME recurrence from its saved (sum, comp) state, so every prefix is
/// bit-identical to a fresh computation — a descent requests ~log T
/// binomial heights whose log chains summed to O(T) transcendentals per
/// pricing before the cache.
[[nodiscard]] std::span<const double> log_factorials(std::uint64_t n) {
  struct State {
    std::vector<double> lf{0.0};  // lf[0] = log(0!) = 0
    double sum = 0.0, comp = 0.0;
  };
  thread_local State st;
  if (st.lf.size() <= n) {
    st.lf.reserve(static_cast<std::size_t>(n + 1));
    for (std::uint64_t k = st.lf.size(); k <= n; ++k) {
      const double term = std::log(static_cast<double>(k)) - st.comp;
      const double next = st.sum + term;
      st.comp = (next - st.sum) - term;
      st.sum = next;
      st.lf.push_back(st.sum);
    }
  }
  return {st.lf.data(), static_cast<std::size_t>(n + 1)};
}

}  // namespace

std::vector<double> power_naive(std::span<const double> taps,
                                std::uint64_t h) {
  AMOPT_EXPECTS(!taps.empty());
  std::vector<double> result{1.0};
  for (std::uint64_t s = 0; s < h; ++s)
    result = conv::convolve_full_direct(result, taps);
  return result;
}

namespace {

/// FFT products leave ~eps absolute noise on coefficients whose true value
/// underflowed. For probability kernels (non-negative taps, mass <= 1) any
/// coefficient below eps-scale relative to the peak is provably noise-or-
/// negligible — but left in place it gets multiplied by exponentially large
/// deep-in-the-money payoffs downstream. Clamp it to zero after every
/// product, exactly like the closed-form binomial path underflows its tails.
void clamp_kernel_noise(std::span<double> k) {
  double peak = 0.0;
  for (double x : k) peak = std::max(peak, std::abs(x));
  const double floor = 1e-12 * peak;
  for (double& x : k) {
    if (std::abs(x) < floor) x = 0.0;
    if (x < 0.0) x = 0.0;  // true coefficients are non-negative
  }
}

}  // namespace

std::vector<double> power_fft(std::span<const double> taps, std::uint64_t h,
                              conv::Workspace& ws) {
  // square_rung/power_from_rungs below replay this walk rung for rung;
  // any change to the clamp or the convolution order must be mirrored
  // there, or KernelCache::power loses its bit-identity with poly::power
  // (asserted in tests/test_stencil.cpp).
  AMOPT_EXPECTS(!taps.empty());
  if (h == 0) return {1.0};
  bool probability_kernel = true;
  for (double t : taps) probability_kernel &= (t >= 0.0);
  const std::size_t d = taps.size() - 1;
  // Degree bounds: the accumulator never exceeds d*h, the repeated-squaring
  // base never exceeds d*2^floor(log2 h) <= d*h. Growing all three staging
  // buffers to the bound up front keeps the spans valid for the whole run.
  const std::size_t max_len = d * static_cast<std::size_t>(h) + 1;
  std::span<double> result = ws.acc(max_len);
  std::span<double> base = ws.tmp(max_len);
  std::span<double> stage = ws.aux(max_len);
  std::size_t nr = 1, nb = taps.size();
  result[0] = 1.0;
  std::copy(taps.begin(), taps.end(), base.begin());
  std::uint64_t e = h;
  while (e > 0) {
    if (e & 1u) {
      const std::size_t len = nr + nb - 1;
      conv::convolve_full(result.first(nr), base.first(nb), stage.first(len),
                          ws);
      std::copy_n(stage.begin(), len, result.begin());
      nr = len;
      if (probability_kernel) clamp_kernel_noise(result.first(nr));
    }
    e >>= 1;
    if (e > 0) {
      const std::size_t len = 2 * nb - 1;
      conv::convolve_full(base.first(nb), base.first(nb), stage.first(len),
                          ws);
      std::copy_n(stage.begin(), len, base.begin());
      nb = len;
      if (probability_kernel) clamp_kernel_noise(base.first(nb));
    }
  }
  return std::vector<double>(result.begin(),
                             result.begin() + static_cast<std::ptrdiff_t>(nr));
}

std::vector<double> power_fft(std::span<const double> taps, std::uint64_t h) {
  return power_fft(taps, h, conv::thread_workspace());
}

// The two halves below replay power_fft's square-and-multiply walk — same
// convolutions on the same values in the same order, same clamp placement —
// which is what makes KernelCache::power bit-identical to poly::power (the
// contract tests/test_stencil.cpp asserts). Any change to power_fft's clamp
// threshold, accumulation order, or policy MUST be mirrored here.

std::vector<double> square_rung(std::span<const double> taps,
                                std::span<const double> rung,
                                conv::Workspace& ws) {
  AMOPT_EXPECTS(!taps.empty() && !rung.empty());
  bool probability_kernel = true;
  for (double t : taps) probability_kernel &= (t >= 0.0);
  // The self-convolution rides the aliased one-transform fast path, and
  // the clamp matches power_fft's internal base clamp.
  std::vector<double> next(2 * rung.size() - 1);
  conv::convolve_full(rung, rung, next, ws);
  if (probability_kernel) clamp_kernel_noise(next);
  return next;
}

std::vector<double> power_from_rungs(
    std::uint64_t h, std::span<const std::span<const double>> rungs,
    conv::Workspace& ws) {
  if (h == 0) return {1.0};
  AMOPT_EXPECTS(!rungs.empty() && !rungs[0].empty());
  bool probability_kernel = true;
  for (double t : rungs[0]) probability_kernel &= (t >= 0.0);
  const std::size_t d = rungs[0].size() - 1;
  const std::size_t max_len = d * static_cast<std::size_t>(h) + 1;
  std::span<double> result = ws.acc(max_len);
  std::span<double> stage = ws.aux(max_len);
  std::size_t nr = 1;
  result[0] = 1.0;
  std::uint64_t e = h;
  for (std::size_t k = 0; e > 0; ++k, e >>= 1) {
    if (e & 1u) {
      AMOPT_EXPECTS(k < rungs.size());
      const std::span<const double> base = rungs[k];
      const std::size_t len = nr + base.size() - 1;
      conv::convolve_full(result.first(nr), base, stage.first(len), ws);
      std::copy_n(stage.begin(), len, result.begin());
      nr = len;
      if (probability_kernel) clamp_kernel_noise(result.first(nr));
    }
  }
  return std::vector<double>(result.begin(),
                             result.begin() + static_cast<std::ptrdiff_t>(nr));
}

std::vector<double> power_binomial(double a, double b, std::uint64_t h) {
  if (h == 0) return {1.0};
  std::vector<double> k(h + 1);
  if (a == 0.0 && b == 0.0) return std::vector<double>(h + 1, 0.0);
  if (a == 0.0) {
    std::vector<double> only(h + 1, 0.0);
    only[h] = std::pow(b, static_cast<double>(h));
    return only;
  }
  if (b == 0.0) {
    std::vector<double> only(h + 1, 0.0);
    only[0] = std::pow(a, static_cast<double>(h));
    return only;
  }
  AMOPT_EXPECTS(a > 0.0 && b > 0.0);
  const std::span<const double> lf = log_factorials(h);
  const double la = std::log(a), lb = std::log(b);
  const double hd = static_cast<double>(h);
  for (std::uint64_t m = 0; m <= h; ++m) {
    const double md = static_cast<double>(m);
    const double logc = lf[h] - lf[m] - lf[h - m];
    k[m] = std::exp(logc + (hd - md) * la + md * lb);
  }
  return k;
}

std::vector<double> power_recurrence(std::span<const double> taps,
                                     std::uint64_t h) {
  AMOPT_EXPECTS(!taps.empty());
  AMOPT_EXPECTS(taps[0] != 0.0);
  const std::size_t d = taps.size() - 1;
  if (h == 0) return {1.0};
  const double n = static_cast<double>(h);
  std::vector<double> q(d * h + 1, 0.0);
  q[0] = std::pow(taps[0], n);
  AMOPT_EXPECTS(q[0] != 0.0);  // caller must keep h small enough
  // From P*Q' = n*P'*Q with Q = P^n:
  //   k*q_k*p_0 = sum_{i=1..min(k,d)} ((n+1)*i - k) * p_i * q_{k-i}.
  for (std::size_t k = 1; k < q.size(); ++k) {
    double acc = 0.0;
    const std::size_t imax = std::min(k, d);
    for (std::size_t i = 1; i <= imax; ++i) {
      acc += ((n + 1.0) * static_cast<double>(i) - static_cast<double>(k)) *
             taps[i] * q[k - i];
    }
    q[k] = acc / (static_cast<double>(k) * taps[0]);
  }
  return q;
}

std::vector<double> power(std::span<const double> taps, std::uint64_t h,
                          conv::Workspace& ws) {
  AMOPT_EXPECTS(!taps.empty());
  if (h == 0) return {1.0};
  if (taps.size() == 1)
    return {std::pow(taps[0], static_cast<double>(h))};
  if (taps.size() == 2 && taps[0] >= 0.0 && taps[1] >= 0.0)
    return power_binomial(taps[0], taps[1], h);
  return power_fft(taps, h, ws);
}

std::vector<double> power(std::span<const double> taps, std::uint64_t h) {
  return power(taps, h, conv::thread_workspace());
}

}  // namespace amopt::poly
