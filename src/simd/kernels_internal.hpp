#pragma once
// Cross-TU declarations for the per-level kernel implementations. The
// AVX-512 table borrows the AVX2 implementations for the shuffle-heavy
// interleave/untangle helpers (widening those is all permute traffic for
// little arithmetic), so those symbols must be linkable across the kernel
// translation units. Not installed; include only from src/simd/*.cpp.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "amopt/simd/kernels.hpp"

namespace amopt::simd {

/// Shared block-interleave driver behind every level's correlate_taps_2row:
/// each kBlock stripe of the first row is produced and immediately consumed
/// by the second row while still in L1. `sweep(in, out, j0, j1)` evaluates
/// the level's correlate_taps body over [j0, j1). EVERY chunk boundary is
/// aligned down to kSweepAlign so the vector/scalar partition inside each
/// sweep is exactly the partition one monolithic sweep would use — which
/// makes the fused result bit-identical to two single-row sweeps at every
/// dispatch level (FMA levels round vector and scalar lanes differently,
/// so partition identity is what the solver's plane-parity rests on).
template <class Sweep>
inline void two_row_sweep_driver(const double* in, std::size_t ntaps,
                                 double* mid, double* out, std::size_t n_mid,
                                 std::size_t n_out, Sweep&& sweep) {
  constexpr std::size_t kBlock = 512;     // multiple of every vector width
  constexpr std::size_t kSweepAlign = 8;  // widest vector lane count
  const std::size_t lag = ntaps - 1;
  std::size_t done_out = 0;
  for (std::size_t j0 = 0; j0 < n_mid; j0 += kBlock) {
    const std::size_t j1 = std::min(j0 + kBlock, n_mid);
    sweep(in, mid, j0, j1);
    // Second-row cells whose whole window [j, j + lag] is now available,
    // clipped DOWN to the alignment grid (the final flush below completes
    // the row, so clipping costs at most one stripe of locality).
    std::size_t ready = j1 > lag ? std::min(j1 - lag, n_out) : 0;
    if (ready < n_out) ready &= ~(kSweepAlign - 1);
    if (ready > done_out) {
      sweep(mid, out, done_out, ready);
      done_out = ready;
    }
  }
  sweep(mid, out, done_out, n_out);
}

namespace scalar_impl {
// The scalar table itself is the fallback surface; vector TUs reach it
// through tables::scalar (constant-initialized, so safe to read from any
// other TU's kernels at call time).
}

// Shared constants and the scalar reference evaluation of the libm-free
// normal CDF (Kernels::norm_cdf). Every level follows this exact operation
// sequence; the scalar table loops over phi_reference, the vector TUs map
// each step 1:1 onto lanes (the AVX2 TU builds without FMA, so its lanes
// reproduce these bits exactly) and use phi_reference for their scalar
// tails. Accuracy: the A&S 7.1.26 erf rational bounds the absolute error by
// 7.5e-8 on Phi; the in-house exp is accurate to ~1 ulp over its reduced
// range.
namespace phi_detail {
inline constexpr double kInvSqrt2 = 0.70710678118654752440;
// A&S 7.1.26 erfc(z) = t*(a1 + t*(a2 + ...)) * exp(-z^2), t = 1/(1 + p z).
inline constexpr double kP = 0.3275911;
inline constexpr double kA1 = 0.254829592;
inline constexpr double kA2 = -0.284496736;
inline constexpr double kA3 = 1.421413741;
inline constexpr double kA4 = -1.453152027;
inline constexpr double kA5 = 1.061405429;
// exp(y) for y in [-708, 0]: y = k ln2 + r, e^y = 2^k P(r).
inline constexpr double kLog2E = 1.4426950408889634074;
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kExpFloor = -708.0;  // below this, 2^k denormalizes
// Reciprocal factorials for the degree-11 Taylor P(r) (|r| <= ln2/2, so the
// truncation error sits below 1e-14 — far under the rational's 7.5e-8).
inline constexpr double kC[12] = {
    1.0,
    1.0,
    1.0 / 2,
    1.0 / 6,
    1.0 / 24,
    1.0 / 120,
    1.0 / 720,
    1.0 / 5040,
    1.0 / 40320,
    1.0 / 362880,
    1.0 / 3628800,
    1.0 / 39916800,
};

/// exp(y) for y <= 0 (clamped at kExpFloor; callers only feed -z^2).
[[nodiscard]] inline double exp_neg(double y) noexcept {
  y = y > kExpFloor ? y : kExpFloor;
  const double k = std::nearbyint(y * kLog2E);
  const double r = (y - k * kLn2Hi) - k * kLn2Lo;
  double p = kC[11];
  for (int i = 10; i >= 0; --i) p = p * r + kC[i];
  std::uint64_t bits =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(k) + 1023) << 52;
  double scale;
  std::memcpy(&scale, &bits, sizeof scale);
  return p * scale;
}

[[nodiscard]] inline double phi_reference(double x) noexcept {
  const double z = std::fabs(x) * kInvSqrt2;
  const double t = 1.0 / (1.0 + kP * z);
  const double poly =
      ((((kA5 * t + kA4) * t + kA3) * t + kA2) * t + kA1) * t;
  const double tail = 0.5 * poly * exp_neg(-(z * z));
  return x >= 0.0 ? 1.0 - tail : tail;
}
}  // namespace phi_detail

#if defined(AMOPT_HAVE_AVX2)
namespace avx2_impl {
void cmul(cplx* a, const cplx* b, std::size_t n);
void csquare(cplx* a, std::size_t n);
void correlate_taps(const double* in, const double* taps, std::size_t ntaps,
                    double* out, std::size_t n);
void correlate_taps_2row(const double* in, const double* taps,
                         std::size_t ntaps, double* mid, double* out,
                         std::size_t n_mid, std::size_t n_out);
void bs_dpm(const double* logz, const double* drift_t, const double* inv_vs,
            const double* half_vs, double* dp, double* dm, std::size_t n);
void norm_cdf(const double* x, double* out, std::size_t n);
void deinterleave(const cplx* z, double* re, double* im, std::size_t n);
void interleave(const double* re, const double* im, cplx* z, std::size_t n);
void interleave_scaled(const double* re, const double* im, cplx* z,
                       std::size_t n, double s);
void deinterleave_rev(const cplx* z, const std::uint32_t* rev, double* re,
                      double* im, std::size_t n);
void scale2(double* re, double* im, std::size_t n, double s);
void radix2_pass(double* re, double* im, std::size_t n);
void radix4_pass(double* re, double* im, std::size_t n, std::size_t h,
                 const double* wsoa, bool inverse);
void rfft_untangle(cplx* spec, const cplx* tw, std::size_t m);
void rfft_retangle(cplx* spec, const cplx* tw, std::size_t m);
}  // namespace avx2_impl
#endif

}  // namespace amopt::simd
