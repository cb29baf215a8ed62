#include "amopt/stencil/kernel_cache.hpp"

#include <bit>
#include <utility>

#include "amopt/common/assert.hpp"
#include "amopt/fft/convolution.hpp"
#include "amopt/poly/poly_power.hpp"

namespace amopt::stencil {

KernelCache::KernelCache(LinearStencil st)
    : stencil_(std::move(st)),
      closed_form_(stencil_.taps.size() == 1 ||
                   (stencil_.taps.size() == 2 && stencil_.taps[0] >= 0.0 &&
                    stencil_.taps[1] >= 0.0)) {
  add_bytes(sizeof(KernelCache) + stencil_.taps.size() * sizeof(double));
}

KernelCache::~KernelCache() {
  for (std::atomic<Rung*>& slot : rungs_) {
    const Rung* r = slot.load(std::memory_order_relaxed);
    if (r == nullptr) continue;
    for (const Spectrum* s = r->spectra.load(std::memory_order_relaxed);
         s != nullptr;) {
      const Spectrum* next = s->next;
      delete s;
      s = next;
    }
    delete r;
  }
}

KernelCache::Rung& KernelCache::rung(unsigned k) {
  if (Rung* r = rungs_[k].load(std::memory_order_acquire)) return *r;
  std::lock_guard<std::mutex> lock(mu_);
  return rung_locked(k);
}

KernelCache::Rung& KernelCache::rung_locked(unsigned k) {
  if (Rung* r = rungs_[k].load(std::memory_order_relaxed)) return *r;
  const std::span<const double> taps = stencil_.taps;
  auto r = std::make_unique<Rung>();
  if (closed_form_) {
    r->coeffs = poly::power(taps, std::uint64_t{1} << k);
  } else if (k == 0) {
    r->coeffs.assign(taps.begin(), taps.end());
  } else {
    r->coeffs = poly::square_rung(taps, rung_locked(k - 1).coeffs);
  }
  add_bytes(sizeof(Rung) + r->coeffs.size() * sizeof(double));
  rungs_[k].store(r.get(), std::memory_order_release);
  return *r.release();
}

const fft::RealSpectrum& KernelCache::spectrum(Rung& r, std::size_t n) {
  AMOPT_EXPECTS(is_pow2(n));
  const auto find = [n](const Spectrum* s) -> const fft::RealSpectrum* {
    for (; s != nullptr; s = s->next)
      if (s->spec.n == n) return &s->spec;
    return nullptr;
  };
  if (const fft::RealSpectrum* hit =
          find(r.spectra.load(std::memory_order_acquire)))
    return *hit;
  // Transform outside the lock; a racing duplicate is dropped on insert.
  auto node = std::make_unique<Spectrum>();
  node->spec = conv::kernel_spectrum(r.coeffs, n, /*reversed=*/true);
  std::lock_guard<std::mutex> lock(mu_);
  const Spectrum* head = r.spectra.load(std::memory_order_relaxed);
  if (const fft::RealSpectrum* hit = find(head)) return *hit;
  node->next = head;
  add_bytes(sizeof(Spectrum) + node->spec.bins.size() * sizeof(fft::cplx));
  r.spectra.store(node.get(), std::memory_order_release);
  return node.release()->spec;
}

std::span<const double> KernelCache::power(std::uint64_t h) {
  if (std::has_single_bit(h))
    return rung(static_cast<unsigned>(std::countr_zero(h))).coeffs;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = composed_.find(h);
  if (it != composed_.end()) return *it->second;
  std::vector<double> k;
  if (closed_form_ || h == 0) {
    k = poly::power(stencil_.taps, h);
  } else {
    std::vector<std::span<const double>> rungs;
    for (unsigned b = 0; b < static_cast<unsigned>(std::bit_width(h)); ++b)
      rungs.emplace_back(rung_locked(b).coeffs);
    k = poly::power_from_rungs(h, rungs);
  }
  add_bytes(sizeof(std::vector<double>) + k.size() * sizeof(double));
  it = composed_.emplace(h, std::make_unique<const std::vector<double>>(
                                std::move(k))).first;
  return *it->second;
}

const fft::RealSpectrum& KernelCache::power_spectrum(std::uint64_t h,
                                                     std::size_t n) {
  AMOPT_EXPECTS(std::has_single_bit(h));
  return spectrum(rung(static_cast<unsigned>(std::countr_zero(h))), n);
}

void KernelCache::correlate(std::span<const double> main,
                            std::span<const double> tail, std::uint64_t h,
                            std::span<double> out) {
  if (out.empty()) return;
  AMOPT_EXPECTS(std::has_single_bit(h));  // solve() asks for rungs only
  Rung& r = rung(static_cast<unsigned>(std::countr_zero(h)));
  const std::size_t klen = r.coeffs.size();
  if (conv::correlate_prefers_fft(out.size(), klen, {})) {
    conv::correlate_valid(
        main, tail, spectrum(r, conv::correlate_fft_size(out.size(), klen)),
        out);
    return;
  }
  conv::correlate_valid(main, tail, r.coeffs, out, {});
}

KernelCache::Stats KernelCache::stats() const {
  Stats s;
  for (const std::atomic<Rung*>& slot : rungs_) {
    const Rung* r = slot.load(std::memory_order_acquire);
    if (r == nullptr) continue;
    ++s.rungs;
    for (const Spectrum* sp = r->spectra.load(std::memory_order_acquire);
         sp != nullptr; sp = sp->next) {
      ++s.spectra;
      s.spectrum_bytes += sp->spec.bins.size() * sizeof(fft::cplx);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  s.powers = s.rungs + composed_.size();
  return s;
}

}  // namespace amopt::stencil
