#include "amopt/stencil/kernel_cache.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "amopt/common/aligned.hpp"
#include "amopt/common/assert.hpp"
#include "amopt/fft/convolution.hpp"

namespace amopt::stencil {

namespace {

/// Pack a spectrum key: heights fit far below 2^57 and padded sizes are
/// powers of two, so (h, log2 n) shares one 64-bit word.
[[nodiscard]] std::uint64_t spectrum_key(std::uint64_t h, std::size_t n) {
  std::uint64_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  return (h << 6) | log2n;
}

[[nodiscard]] std::size_t spectrum_bytes_of(const fft::RealSpectrum& s) {
  return s.bins.size() * sizeof(fft::cplx);
}

}  // namespace

KernelCache::KernelCache(LinearStencil st) : stencil_(std::move(st)) {
  add_bytes(sizeof(KernelCache) + stencil_.taps.size() * sizeof(double));
}

std::vector<double> KernelCache::compute_power(std::uint64_t h) {
  const std::span<const double> taps = stencil_.taps;
  // The closed-form dispatch of poly::power needs no ladder (and must keep
  // producing the identical closed-form bits); only the FFT square-and-
  // multiply path shares its squaring chain across heights.
  const bool closed_form =
      h == 0 || taps.size() == 1 ||
      (taps.size() == 2 && taps[0] >= 0.0 && taps[1] >= 0.0);
  if (closed_form) return poly::power(taps, h);
  // Extend the shared ladder under its mutex, then combine OUTSIDE it:
  // rungs are append-only and their heap buffers survive later extensions
  // (SquaringLadder's documented invariant), so the snapshot spans stay
  // valid while other threads grow the chain — concurrent cold builds at
  // different heights serialize only on the squarings themselves.
  std::size_t kmax = 0;
  for (std::uint64_t e = h; e >>= 1;) ++kmax;
  std::vector<std::span<const double>> rungs;
  rungs.reserve(kmax + 1);
  {
    std::lock_guard<std::mutex> lock(ladder_mu_);
    const std::size_t had = ladder_.size();
    poly::extend_ladder(taps, h, ladder_, conv::thread_workspace());
    for (std::size_t k = had; k < ladder_.size(); ++k)
      add_bytes(ladder_[k].size() * sizeof(double));
    for (std::size_t k = 0; k <= kmax; ++k) rungs.emplace_back(ladder_[k]);
  }
  return poly::power_from_rungs(h, rungs, conv::thread_workspace());
}

std::span<const double> KernelCache::power(std::uint64_t h) {
  // Warm path: one acquire load + binary search over the published
  // snapshot; no lock. Entries are never evicted, so a snapshot hit is
  // always safe to return.
  if (const PowerSnapshot* snap =
          power_snap_.load(std::memory_order_acquire)) {
    const auto it = std::lower_bound(
        snap->entries.begin(), snap->entries.end(), h,
        [](const auto& e, std::uint64_t key) { return e.first < key; });
    if (it != snap->entries.end() && it->first == h) return *it->second;
  }
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = cache_.find(h);
    if (it != cache_.end()) return *it->second;
  }
  // Compute outside the map lock (scratch comes from the calling thread's
  // convolution workspace); a racing duplicate computation is harmless and
  // the first inserted entry wins. FFT-path heights serialize on the ladder
  // mutex so the shared squaring chain extends consistently.
  auto kernel = std::make_unique<std::vector<double>>(compute_power(h));
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] = cache_.emplace(h, std::move(kernel));
  if (inserted)
    add_bytes(sizeof(*it->second) + it->second->size() * sizeof(double));
  // Publish a fresh snapshot; the old one is retired, not freed, because a
  // concurrent reader may still be walking it.
  auto snap = std::make_unique<PowerSnapshot>();
  snap->entries.reserve(cache_.size());
  for (const auto& [hk, vec] : cache_) snap->entries.emplace_back(hk, vec.get());
  std::sort(snap->entries.begin(), snap->entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  add_bytes(sizeof(PowerSnapshot) +
            snap->entries.size() * sizeof(snap->entries[0]));
  const PowerSnapshot* published = snap.get();
  retired_snaps_.push_back(std::move(snap));
  power_snap_.store(published, std::memory_order_release);
  return *it->second;
}

std::shared_ptr<const fft::RealSpectrum> KernelCache::power_spectrum(
    std::uint64_t h, std::size_t n) {
  AMOPT_EXPECTS(is_pow2(n));
  const std::uint64_t key = spectrum_key(h, n);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = spectra_.find(key);
    if (it != spectra_.end()) return it->second;
  }
  // Materialize outside the lock: time-domain taps first (warm after the
  // first call at this height), then one reversed R2C transform at n.
  const std::span<const double> taps_h = power(h);
  auto spec = std::make_shared<fft::RealSpectrum>(conv::kernel_spectrum(
      taps_h, n, /*reversed=*/true, conv::thread_workspace()));
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] = spectra_.emplace(key, std::move(spec));
  if (inserted)
    add_bytes(sizeof(fft::RealSpectrum) + spectrum_bytes_of(*it->second));
  return it->second;
}

void KernelCache::correlate(std::span<const double> main,
                            std::span<const double> tail, std::uint64_t h,
                            std::span<double> out, conv::Workspace& ws) {
  if (out.empty()) return;
  // taps^h has (taps - 1) * h + 1 coefficients: the route is decided without
  // materializing the kernel, so the FFT route never touches the time-domain
  // tier once the spectrum is warm. Same bits as a transform-per-call
  // correlation, so the spectrum reuse is pure work elision.
  const std::size_t klen =
      static_cast<std::size_t>(h) * (stencil_.taps.size() - 1) + 1;
  if (conv::correlate_prefers_fft(out.size(), klen, {})) {
    const auto spec =
        power_spectrum(h, conv::correlate_fft_size(out.size(), klen));
    conv::correlate_valid(main, tail, *spec, out, ws);
    return;
  }
  conv::correlate_valid(main, tail, power(h), out, ws);
}

KernelCache::Stats KernelCache::stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::lock_guard<std::mutex> ladder_lock(ladder_mu_);
  Stats s;
  s.powers = cache_.size();
  s.spectra = spectra_.size();
  for (const auto& [key, spec] : spectra_)
    s.spectrum_bytes += spectrum_bytes_of(*spec);
  s.ladder_rungs = ladder_.size();
  return s;
}

}  // namespace amopt::stencil
