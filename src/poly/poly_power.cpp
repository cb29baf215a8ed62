#include "amopt/poly/poly_power.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <utility>

#include "amopt/common/assert.hpp"
#include "amopt/core/scratch.hpp"
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

/// Non-negative taps: the kernel-noise clamp applies after every product.
[[nodiscard]] bool probability_kernel(std::span<const double> taps) {
  bool p = true;
  for (double t : taps) p &= (t >= 0.0);
  return p;
}

/// out = rung * rung (2 * rung.size() - 1 cells), clamped like every other
/// product of the walk. The self-convolution rides the aliased
/// one-transform fast path.
void square_into(std::span<const double> rung, bool probability,
                 std::span<double> out) {
  conv::convolve_full(rung, rung, out);
  if (probability) clamp_kernel_noise(out);
}

}  // namespace

// power_fft IS square_rung + power_from_rungs: one square-and-multiply walk,
// which is what makes KernelCache::power (which keeps the rungs) bit-
// identical to poly::power (tests/test_stencil.cpp asserts it).

std::vector<double> power_fft(std::span<const double> taps, std::uint64_t h) {
  AMOPT_EXPECTS(!taps.empty());
  if (h == 0) return {1.0};
  const bool probability = probability_kernel(taps);
  // Rung k = taps^(2^k) for every bit of h, leased from one arena frame, so
  // the returned kernel is the only heap allocation.
  core::ScratchStack::Frame frame(core::thread_scratch());
  const auto nbits = static_cast<std::size_t>(std::bit_width(h));
  std::array<std::span<const double>, 64> rungs;
  rungs[0] = taps;
  for (std::size_t k = 1; k < nbits; ++k) {
    const std::span<double> r = frame.alloc(2 * rungs[k - 1].size() - 1);
    square_into(rungs[k - 1], probability, r);
    rungs[k] = r;
  }
  return power_from_rungs(h, std::span(rungs.data(), nbits));
}

std::vector<double> square_rung(std::span<const double> taps,
                                std::span<const double> rung) {
  AMOPT_EXPECTS(!taps.empty() && !rung.empty());
  std::vector<double> next(2 * rung.size() - 1);
  square_into(rung, probability_kernel(taps), next);
  return next;
}

std::vector<double> power_from_rungs(
    std::uint64_t h, std::span<const std::span<const double>> rungs) {
  if (h == 0) return {1.0};
  AMOPT_EXPECTS(!rungs.empty() && !rungs[0].empty());
  const bool probability = probability_kernel(rungs[0]);
  // The accumulator never exceeds d*h + 1 cells; it ping-pongs between two
  // arena spans, one product per set bit of h.
  const std::size_t max_len =
      (rungs[0].size() - 1) * static_cast<std::size_t>(h) + 1;
  core::ScratchStack::Frame frame(core::thread_scratch());
  std::span<double> result = frame.alloc(max_len);
  std::span<double> stage = frame.alloc(max_len);
  std::size_t nr = 1;
  result[0] = 1.0;
  std::uint64_t e = h;
  for (std::size_t k = 0; e > 0; ++k, e >>= 1) {
    if (e & 1u) {
      AMOPT_EXPECTS(k < rungs.size());
      const std::span<const double> base = rungs[k];
      const std::size_t len = nr + base.size() - 1;
      conv::convolve_full(result.first(nr), base, stage.first(len));
      std::swap(result, stage);
      nr = len;
      if (probability) clamp_kernel_noise(result.first(nr));
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

std::vector<double> power(std::span<const double> taps, std::uint64_t h) {
  AMOPT_EXPECTS(!taps.empty());
  if (h == 0) return {1.0};
  if (taps.size() == 1)
    return {std::pow(taps[0], static_cast<double>(h))};
  if (taps.size() == 2 && taps[0] >= 0.0 && taps[1] >= 0.0)
    return power_binomial(taps[0], taps[1], h);
  return power_fft(taps, h);
}

}  // namespace amopt::poly
