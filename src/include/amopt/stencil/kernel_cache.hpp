#pragma once
// Memoized stencil-kernel powers, cached in BOTH domains.
//
// The trapezoid recursion advances a red trapezoid of height 2^k with one
// correlation against taps^(2^k): `LatticeSolver::descend` rounds every
// top-level height down to a power of two and `solve` halves it exactly, so
// the only kernels a solve asks for are the squaring-ladder rungs. Each
// pricing call owns a KernelCache — or, for chain pricing, many concurrent
// pricings SHARE one (all strikes of a chain have the same taps, so they
// request the same rungs). The cache is safe to use from the solver's
// TaskPool tasks and from `pricing::price_batch`'s per-option fan-out.
//
// One rung table, indexed by k:
//   * rung k holds the coefficients of taps^(2^k) — the closed form for
//     two non-negative taps, one squaring of rung k-1 otherwise — bit-
//     identical to poly::power(taps, 2^k);
//   * and a short list of reversed (correlation-layout) R2C spectra of
//     those coefficients, one per padded size n the correlations used, so
//     repeated convolutions at the same depth skip the kernel transform
//     (2 transforms per call instead of 3).
// Readers take a warm rung and its spectra through atomic loads, with no
// lock. Builds serialize on one mutex; rungs and spectra are append-only.
//
// Heights that are not rungs (the European h = T, the early-exercise
// seeds at T-1 and T-2, Bermudan gaps) go through `power(h)`: composed from
// the rungs with poly::power_from_rungs (or the closed form) and memoised
// in a plain map under the mutex. They are asked for once per item, not
// once per convolution.
//
// Nothing inside a cache is ever evicted: it grows until it dies. `bytes()`
// reports what it holds, so an owner that keeps many caches (the Pricer's
// session registry) bounds them as whole entries by bytes.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "amopt/fft/fft.hpp"
#include "amopt/stencil/linear_stencil.hpp"

namespace amopt::stencil {

class KernelCache {
 public:
  explicit KernelCache(LinearStencil st);
  ~KernelCache();

  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

  [[nodiscard]] const LinearStencil& stencil() const noexcept {
    return stencil_;
  }

  /// Coefficients of taps(x)^h, bit-identical to poly::power(taps, h). A
  /// power of two is its rung; any other height is composed from the rungs
  /// once and memoised. The span stays valid for the lifetime of the cache.
  [[nodiscard]] std::span<const double> power(std::uint64_t h);

  /// The reversed R2C spectrum of the rung taps^h (h a power of two) at
  /// padded transform size n (a power of two >= the full linear length of
  /// the intended correlation — conv::correlate_fft_size of the call's
  /// dimensions). Lives as long as the cache.
  [[nodiscard]] const fft::RealSpectrum& power_spectrum(std::uint64_t h,
                                                        std::size_t n);

  /// The solvers' h-step correlation, out[j] = sum_m (taps^h)[m] *
  /// concat(main, tail)[j + m] (a row's red cells plus any green-extension
  /// tail), for a rung height h. The one place the direct/FFT decision is
  /// made: the automatic crossover picks the route, FFT-route calls consume
  /// the rung's cached spectrum and direct-route calls its coefficients. An
  /// empty `out` is a no-op.
  void correlate(std::span<const double> main, std::span<const double> tail,
                 std::uint64_t h, std::span<double> out);

  /// Heap bytes held: the object and its taps, every rung, spectrum and
  /// composed power. Bumped on each insert; a relaxed read that takes no
  /// lock, so an owner can sum many caches while they are being filled.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

  struct Stats {
    std::size_t powers = 0;          ///< time-domain kernels: rungs + composed
    std::size_t rungs = 0;           ///< rungs taps^(2^k) built
    std::size_t spectra = 0;         ///< cached rung spectra (all sizes)
    std::size_t spectrum_bytes = 0;  ///< bytes held by those spectra
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Spectrum {
    fft::RealSpectrum spec;
    const Spectrum* next = nullptr;
  };
  struct Rung {
    std::vector<double> coeffs;
    std::atomic<const Spectrum*> spectra{nullptr};  ///< newest first
  };

  /// Rung k; builds it (and, on the squaring path, every rung below it)
  /// under mu_ on first use.
  [[nodiscard]] Rung& rung(unsigned k);
  [[nodiscard]] Rung& rung_locked(unsigned k);
  [[nodiscard]] const fft::RealSpectrum& spectrum(Rung& r, std::size_t n);

  void add_bytes(std::size_t n) noexcept {
    bytes_.fetch_add(n, std::memory_order_relaxed);
  }

  LinearStencil stencil_;
  /// Two non-negative taps (or one): rungs and composed powers take
  /// poly::power's closed form instead of the squaring ladder.
  bool closed_form_;
  std::array<std::atomic<Rung*>, 64> rungs_{};
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<const std::vector<double>>>
      composed_;
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace amopt::stencil
