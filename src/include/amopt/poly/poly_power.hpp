#pragma once
// S3: coefficients of powers of small polynomials.
//
// Applying `h` steps of a linear stencil with tap polynomial
// P(x) = sum_k taps[k] x^k equals one correlation with the coefficient
// vector of P(x)^h (Ahmad et al., SPAA 2021). This module computes those
// kernels three ways:
//   * power_fft        — binary exponentiation with FFT convolutions,
//                        O(h·deg · log(h·deg)); the production path.
//   * power_binomial   — closed form C(h,m)·a^{h-m}·b^m for 2-tap stencils,
//                        evaluated in log space so nothing under/overflows;
//                        the production fast path for BOPM.
//   * power_recurrence — Euler's O(h·deg) recurrence from Q = P^h,
//                        P·Q' = h·P'·Q. Needs taps[0]^h representable, so it
//                        serves as a cross-check oracle for moderate h.
//   * power_naive      — repeated direct convolution; tiny-h test oracle.
//
// All option-pricing tap vectors are non-negative with sum <= 1 (they are
// discounted transition probabilities), so kernel coefficients live in
// [0, 1] and the FFT path is numerically benign.

#include <cstdint>
#include <span>
#include <vector>

#include "amopt/fft/convolution.hpp"

namespace amopt::poly {

/// Square-and-multiply over FFT products: the rungs taps^(2^k) come from
/// square_rung, the product over the set bits of h from power_from_rungs.
/// Every scratch buffer (rungs and accumulators) is leased from the calling
/// thread's core::ScratchStack, so only the returned kernel is heap-
/// allocated.
[[nodiscard]] std::vector<double> power_fft(std::span<const double> taps,
                                            std::uint64_t h);

/// One step of the repeated-squaring chain: rung * rung with the
/// probability-kernel noise clamp (when every tap is non-negative). Rung 0
/// is the raw taps and rung k+1 = square_rung(taps, rung k). A caller that
/// keeps the rungs (stencil::KernelCache) pays each squaring once for ALL
/// heights instead of once per height.
[[nodiscard]] std::vector<double> square_rung(std::span<const double> taps,
                                              std::span<const double> rung);

/// The combine half of the walk: multiply together rungs[k] over the set
/// bits of h, clamping after each product. With rungs from square_rung the
/// result is bit-identical to power_fft(taps, h) — power_fft is this call
/// on its own rungs. rungs[0] must be the raw taps; rungs must cover every
/// set bit of h.
[[nodiscard]] std::vector<double> power_from_rungs(
    std::uint64_t h, std::span<const std::span<const double>> rungs);

[[nodiscard]] std::vector<double> power_binomial(double a, double b,
                                                 std::uint64_t h);

[[nodiscard]] std::vector<double> power_recurrence(std::span<const double> taps,
                                                   std::uint64_t h);

[[nodiscard]] std::vector<double> power_naive(std::span<const double> taps,
                                              std::uint64_t h);

/// Production dispatch: closed form for 2 taps, FFT squaring otherwise.
[[nodiscard]] std::vector<double> power(std::span<const double> taps,
                                        std::uint64_t h);

}  // namespace amopt::poly
