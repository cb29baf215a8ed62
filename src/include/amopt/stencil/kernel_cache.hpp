#pragma once
// Memoized stencil-kernel powers, cached in BOTH domains.
//
// The trapezoid recursion requests kernels for heights L/2, L/4, ... and the
// top-level descent re-requests many of the same heights, so each pricing
// call owns a KernelCache — or, for chain pricing, many concurrent pricings
// SHARE one (all strikes of a chain have the same taps, so they request the
// same kernel powers). Lookups of warm heights take a shared lock only, so
// readers never serialize against each other; the cache is safe to use from
// the solver's TaskPool tasks and from `pricing::price_batch`'s per-option
// fan-out.
//
// Two tiers per height:
//   * TIME DOMAIN — `power(h)`: the coefficients of taps^h. Unchanged
//     contract (spans stay valid for the cache's lifetime) and unchanged
//     bits: FFT-built powers replay poly::power_fft's square-and-multiply
//     walk, drawing the squaring chain taps^(2^k) from one shared ladder so
//     each squaring is paid once per cache instead of once per height.
//   * SPECTRAL — `power_spectrum(h, n)`: the reversed (correlation-layout)
//     R2C spectrum of taps^h at padded size n, materialized lazily on first
//     use and keyed by (h, n). Repeated convolutions at the same recursion
//     depth then skip the kernel transform entirely (the conv spectral
//     overloads run 2 transforms per call instead of 3).
//
// Nothing inside a cache is ever evicted: it grows until it dies. `bytes()`
// reports what it holds, so an owner that keeps many caches (the Pricer's
// session registry) bounds them as whole entries by bytes.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "amopt/fft/fft.hpp"
#include "amopt/poly/poly_power.hpp"
#include "amopt/stencil/linear_stencil.hpp"

namespace amopt::conv {
class Workspace;
}

namespace amopt::stencil {

class KernelCache {
 public:
  explicit KernelCache(LinearStencil st);

  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

  [[nodiscard]] const LinearStencil& stencil() const noexcept {
    return stencil_;
  }

  /// Coefficients of taps(x)^h. The returned span stays valid for the
  /// lifetime of the cache (time-domain entries are never evicted).
  [[nodiscard]] std::span<const double> power(std::uint64_t h);

  /// The reversed R2C spectrum of taps^h at padded transform size n (a
  /// power of two >= the full linear length of the intended correlation —
  /// conv::correlate_fft_size of the call's dimensions). Entries live as
  /// long as the cache.
  [[nodiscard]] std::shared_ptr<const fft::RealSpectrum> power_spectrum(
      std::uint64_t h, std::size_t n);

  /// The solvers' h-step correlation, out[j] = sum_m (taps^h)[m] *
  /// concat(main, tail)[j + m] (a row's red cells plus any green-extension
  /// tail). The one place the direct/FFT decision is made: the automatic
  /// crossover picks the route, FFT-route calls consume the cached kernel
  /// spectrum (power_spectrum) and direct-route calls the cached
  /// coefficients (power). An empty `out` is a no-op.
  void correlate(std::span<const double> main, std::span<const double> tail,
                 std::uint64_t h, std::span<double> out, conv::Workspace& ws);

  /// Heap bytes held: the object and its taps, every power, ladder rung,
  /// published power snapshot and spectrum. Bumped on each insert; a
  /// relaxed read that takes no lock, so an owner can sum many caches while
  /// they are being filled.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

  struct Stats {
    std::size_t powers = 0;         ///< cached time-domain heights
    std::size_t spectra = 0;        ///< cached (h, n) spectra
    std::size_t spectrum_bytes = 0; ///< bytes held by the spectrum tier
    std::size_t ladder_rungs = 0;   ///< squaring-ladder entries taps^(2^k)
  };
  [[nodiscard]] Stats stats() const;

 private:
  /// taps^h, computed the way poly::power would, but with FFT-path heights
  /// drawing on the shared squaring ladder. Caller holds no lock.
  [[nodiscard]] std::vector<double> compute_power(std::uint64_t h);

  void add_bytes(std::size_t n) noexcept {
    bytes_.fetch_add(n, std::memory_order_relaxed);
  }

  LinearStencil stencil_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<std::vector<double>>>
      cache_;
  /// Wait-free read path for warm heights: an immutable sorted (h -> taps^h)
  /// snapshot published through an atomic pointer, the plan-cache idiom.
  /// The recursion looks a height up per convolution, so the shared-lock
  /// acquisition on every hit was measurable; snapshots make warm lookups a
  /// load + binary search. Old snapshots are retired (kept alive) until the
  /// cache dies so in-flight readers never race a free.
  struct PowerSnapshot {
    std::vector<std::pair<std::uint64_t, const std::vector<double>*>> entries;
  };
  std::atomic<const PowerSnapshot*> power_snap_{nullptr};
  std::vector<std::unique_ptr<const PowerSnapshot>> retired_snaps_;
  /// Spectra keyed by (h, log2 n) packed into one word (log2 n < 64).
  std::unordered_map<std::uint64_t, std::shared_ptr<const fft::RealSpectrum>>
      spectra_;
  std::atomic<std::size_t> bytes_{0};
  /// Shared repeated-squaring chain taps^(2^k) for the FFT power path; its
  /// own mutex, held only while EXTENDING the chain — the combine steps of
  /// a power build read stable rung snapshots outside it, so concurrent
  /// cold builds at different heights serialize only on missing rungs.
  mutable std::mutex ladder_mu_;
  poly::SquaringLadder ladder_;
};

}  // namespace amopt::stencil
