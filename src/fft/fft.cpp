#include "amopt/fft/fft.hpp"

#include <cstring>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>
#include <utility>

#include "amopt/common/assert.hpp"
#include "amopt/core/scratch.hpp"
#include "amopt/simd/kernels.hpp"

namespace amopt::fft {

namespace {

// Below this size the SoA pipeline's de/interleave passes cost more than
// the vector butterflies save; stay on the interleaved scalar loops.
constexpr std::size_t kSimdThreshold = 32;

[[nodiscard]] std::size_t ilog2(std::size_t n) {
  std::size_t l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return l;
}

}  // namespace

Plan::Plan(std::size_t n) : n_(n), log2n_(ilog2(n)) {
  AMOPT_EXPECTS(is_pow2(n));
  // Radix-4 twiddle triples (see header). The leading radix-2 stage of
  // odd-log2 sizes uses only w = 1 and needs no table.
  std::size_t total = 0;
  for (std::size_t h = (log2n_ & 1) ? 2 : 1; h < n_; h <<= 2) total += 3 * h;
  twiddle4_.resize(total);
  cplx* w = twiddle4_.data();
  for (std::size_t h = (log2n_ & 1) ? 2 : 1; h < n_; h <<= 2) {
    const double theta = -std::numbers::pi / static_cast<double>(2 * h);
    for (std::size_t j = 0; j < h; ++j) {
      const double a = theta * static_cast<double>(j);
      w[3 * j + 0] = cplx{std::cos(a), std::sin(a)};
      w[3 * j + 1] = cplx{std::cos(2 * a), std::sin(2 * a)};
      w[3 * j + 2] = cplx{std::cos(3 * a), std::sin(3 * a)};
    }
    w += 3 * h;
  }
  // Mirror the triples into the SoA layout the vector kernels consume
  // (same values; only the memory layout differs, so scalar and vector
  // passes see bit-identical twiddles). Skipped entirely when no vector
  // path can ever run — plans are cached for the process lifetime and the
  // mirror would be dead weight.
  if (simd::max_supported() != simd::Level::scalar) {
    twiddle4_soa_.resize(2 * total);
    double* ws = twiddle4_soa_.data();
    const cplx* wt = twiddle4_.data();
    for (std::size_t h = (log2n_ & 1) ? 2 : 1; h < n_; h <<= 2) {
      for (std::size_t j = 0; j < h; ++j) {
        ws[0 * h + j] = wt[3 * j + 0].real();
        ws[1 * h + j] = wt[3 * j + 0].imag();
        ws[2 * h + j] = wt[3 * j + 1].real();
        ws[3 * h + j] = wt[3 * j + 1].imag();
        ws[4 * h + j] = wt[3 * j + 2].real();
        ws[5 * h + j] = wt[3 * j + 2].imag();
      }
      ws += 6 * h;
      wt += 3 * h;
    }
  }
  bitrev_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n_; ++b) r |= ((i >> b) & 1u) << (log2n_ - 1 - b);
    bitrev_[i] = static_cast<std::uint32_t>(r);
  }
}

void Plan::bit_reverse_permute(cplx* data) const {
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t r = bitrev_[i];
    if (i < r) std::swap(data[i], data[r]);
  }
}

void Plan::radix2_stage(cplx* data) const {
  // Half-size-1 butterflies carry twiddle w = 1 in both directions.
  for (std::size_t base = 0; base < n_; base += 2) {
    const cplx t = data[base + 1];
    data[base + 1] = data[base] - t;
    data[base] += t;
  }
}

template <bool kInverse>
void Plan::radix4_pass(cplx* data, std::size_t h, const cplx* w) const {
  // One pass = two fused radix-2 stages (half-sizes h and 2h) on
  // bit-reversed data. With W = e^{-i pi / (2h)}:
  //   bb = b W^2j, cc = c W^j, dd = d W^3j,
  //   a1 = a + bb, b1 = a - bb,
  //   out[j]    = a1 + (cc + dd)      out[j+2h] = a1 - (cc + dd)
  //   out[j+h]  = b1 -+ i (cc - dd)   out[j+3h] = b1 +- i (cc - dd)
  // (upper signs forward, lower inverse; inverse also conjugates W).
  const std::size_t step = 4 * h;
  for (std::size_t base = 0; base < n_; base += step) {
    for (std::size_t j = 0; j < h; ++j) {
      cplx w1 = w[3 * j + 0];
      cplx w2 = w[3 * j + 1];
      cplx w3 = w[3 * j + 2];
      if constexpr (kInverse) {
        w1 = std::conj(w1);
        w2 = std::conj(w2);
        w3 = std::conj(w3);
      }
      cplx& ra = data[base + j];
      cplx& rb = data[base + j + h];
      cplx& rc = data[base + j + 2 * h];
      cplx& rd = data[base + j + 3 * h];
      const cplx bb = rb * w2;
      const cplx cc = rc * w1;
      const cplx dd = rd * w3;
      const cplx a1 = ra + bb;
      const cplx b1 = ra - bb;
      const cplx s = cc + dd;
      const cplx t = cc - dd;
      // -i t forward, +i t inverse
      const cplx it = kInverse ? cplx{-t.imag(), t.real()}
                               : cplx{t.imag(), -t.real()};
      ra = a1 + s;
      rc = a1 - s;
      rb = b1 + it;
      rd = b1 - it;
    }
  }
}

void Plan::transform(cplx* data, bool inverse) const {
  if (n_ <= 1) return;
  if (const simd::Level lvl = simd::active();
      lvl != simd::Level::scalar && n_ >= kSimdThreshold) {
    transform_simd(data, inverse, lvl);
    return;
  }
  bit_reverse_permute(data);

  std::size_t h = 1;
  if (log2n_ & 1) {
    radix2_stage(data);
    h = 2;
  }
  const cplx* w = twiddle4_.data();
  for (; h < n_; h <<= 2) {
    if (inverse) {
      radix4_pass<true>(data, h, w);
    } else {
      radix4_pass<false>(data, h, w);
    }
    w += 3 * h;
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i) data[i] *= inv_n;
  }
}

void Plan::transform_simd(cplx* data, bool inverse, simd::Level lvl) const {
  const simd::Kernels& kn = simd::kernels(lvl);
  // Split real/imag rows leased from the thread's scratch arena: 64-byte
  // aligned (n_ >= kSimdThreshold keeps im on a cache line too), so every
  // vector load on the fast path is an unmasked aligned load.
  core::ScratchStack::Frame frame(core::thread_scratch());
  double* re = frame.alloc(2 * n_).data();
  double* im = re + n_;
  // Bit-reversal fused into the split: one gathered pass instead of the
  // scalar path's swap pass + copy pass.
  kn.deinterleave_rev(data, bitrev_.data(), re, im, n_);

  std::size_t h = 1;
  if (log2n_ & 1) {
    kn.radix2_pass(re, im, n_);
    h = 2;
  }
  const double* w = twiddle4_soa_.data();
  for (; h < n_; h <<= 2) {
    kn.radix4_pass(re, im, n_, h, w, inverse);
    w += 6 * h;
  }

  // The 1/n normalization rides the interleave pass (same multiply scale2
  // performed — bit-identical, one fewer sweep over the data).
  if (inverse) {
    kn.interleave_scaled(re, im, data, n_, 1.0 / static_cast<double>(n_));
  } else {
    kn.interleave(re, im, data, n_);
  }
}

RealPlan::RealPlan(std::size_t n) : n_(n), m_(n / 2), half_(nullptr) {
  AMOPT_EXPECTS(is_pow2(n));
  if (n_ >= 4) {
    half_ = &plan_for(m_);
    twiddle_.resize(m_ / 2 + 1);
    const double theta = -2.0 * std::numbers::pi / static_cast<double>(n_);
    for (std::size_t k = 0; k <= m_ / 2; ++k) {
      const double a = theta * static_cast<double>(k);
      twiddle_[k] = cplx{std::cos(a), std::sin(a)};
    }
  }
}

void RealPlan::forward(const double* in, cplx* spec) const {
  if (n_ == 1) {
    spec[0] = cplx{in[0], 0.0};
    return;
  }
  if (n_ == 2) {
    spec[1] = cplx{in[0] - in[1], 0.0};
    spec[0] = cplx{in[0] + in[1], 0.0};
    return;
  }
  // Pack z[k] = x[2k] + i x[2k+1] into the low half of `spec` and transform.
  // The pairwise packing IS the complex memory layout, so the "pack" is one
  // flat copy at memory bandwidth instead of a scalar pair loop.
  cplx* z = spec;
  if (static_cast<const void*>(in) != z)
    std::memcpy(static_cast<void*>(z), static_cast<const void*>(in),
                m_ * sizeof(cplx));
  half_->forward(z);

  // Untangle: with Xe/Xo the DFTs of the even/odd samples,
  //   Xe[k] = (Z[k] + conj(Z[m-k]))/2,  Xo[k] = (Z[k] - conj(Z[m-k]))/(2i),
  //   X[k] = Xe[k] + t_k Xo[k],  t_k = e^{-2 pi i k / n},
  // and for the mirror bin t_{m-k} = -conj(t_k) gives
  //   X[m-k] = conj(Xe[k] - t_k Xo[k]).
  const cplx z0 = z[0];
  // Dispatched pair sweep; the scalar table entry is this function's
  // historical loop, so the scalar level stays bit-identical.
  simd::kernels().rfft_untangle(spec, twiddle_.data(), m_);
  spec[m_ / 2] = std::conj(spec[m_ / 2]);  // t = -i bin: X = conj(Z)
  spec[m_] = cplx{z0.real() - z0.imag(), 0.0};
  spec[0] = cplx{z0.real() + z0.imag(), 0.0};
}

void RealPlan::inverse(cplx* spec, double* out) const {
  if (n_ == 1) {
    out[0] = spec[0].real();
    return;
  }
  if (n_ == 2) {
    const double x0 = spec[0].real(), x1 = spec[1].real();  // out may alias
    out[0] = 0.5 * (x0 + x1);
    out[1] = 0.5 * (x0 - x1);
    return;
  }
  // Re-tangle the packed half-size spectrum: Z[k] = Xe[k] + i Xo[k] with
  //   Xe[k] = (X[k] + conj(X[m-k]))/2,
  //   Xo[k] = (X[k] - conj(X[m-k]))/2 * conj(t_k)   (1/t_k on the unit circle)
  // and Z[m-k] = conj(Xe[k]) + i conj(Xo[k]).
  const double x0 = spec[0].real(), xm = spec[m_].real();
  spec[0] = cplx{0.5 * (x0 + xm), 0.5 * (x0 - xm)};
  simd::kernels().rfft_retangle(spec, twiddle_.data(), m_);
  spec[m_ / 2] = std::conj(spec[m_ / 2]);
  half_->inverse(spec);
  // The unpack is the same layout identity as forward's pack: one flat copy.
  if (static_cast<void*>(out) != spec)
    std::memcpy(static_cast<void*>(out), static_cast<const void*>(spec),
                m_ * sizeof(cplx));
}

void RealPlan::spectrum(std::span<const double> signal, bool reversed,
                        RealSpectrum& spec) const {
  AMOPT_EXPECTS(signal.size() <= n_);
  spec.n = n_;
  spec.klen = signal.size();
  spec.reversed = reversed;
  spec.bins.resize(spectrum_size());
  // Pack exactly like the convolution paths — into the low n doubles of the
  // bins themselves, reversing while staging — so the in-place forward
  // transform yields the bins the in-call transform would, bit for bit.
  const std::span<double> pad(reinterpret_cast<double*>(spec.bins.data()), n_);
  if (reversed) {
    std::copy(signal.rbegin(), signal.rend(), pad.begin());
  } else {
    std::copy(signal.begin(), signal.end(), pad.begin());
  }
  std::fill(pad.begin() + static_cast<std::ptrdiff_t>(signal.size()),
            pad.end(), 0.0);
  forward(pad.data(), spec.bins.data());
}

namespace {

/// Append-only plan cache: readers follow one atomic pointer to an immutable
/// sorted snapshot (wait-free once their size is warm); writers serialize on
/// a mutex, copy the snapshot, and publish the extension. Old snapshots are
/// retained so in-flight readers never race a free; the whole cache is
/// intentionally leaked to outlive detached threads at shutdown.
template <class P>
class PlanCache {
 public:
  const P& get(std::size_t n) {
    if (const Map* m = current_.load(std::memory_order_acquire)) {
      if (const P* p = m->find(n)) return *p;
    }
    std::lock_guard<std::mutex> lock(mu_);
    const Map* cur = current_.load(std::memory_order_relaxed);
    if (cur != nullptr) {
      if (const P* p = cur->find(n)) return *p;
    }
    auto plan = std::make_unique<P>(n);
    const P* raw = plan.get();
    plans_.push_back(std::move(plan));
    auto next = std::make_unique<Map>();
    if (cur != nullptr) next->entries = cur->entries;
    next->entries.emplace_back(n, raw);
    std::sort(next->entries.begin(), next->entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const Map* published = next.get();
    maps_.push_back(std::move(next));
    current_.store(published, std::memory_order_release);
    return *raw;
  }

 private:
  struct Map {
    std::vector<std::pair<std::size_t, const P*>> entries;
    [[nodiscard]] const P* find(std::size_t n) const {
      auto it = std::lower_bound(
          entries.begin(), entries.end(), n,
          [](const auto& e, std::size_t key) { return e.first < key; });
      return (it != entries.end() && it->first == n) ? it->second : nullptr;
    }
  };

  std::atomic<const Map*> current_{nullptr};
  std::mutex mu_;
  std::vector<std::unique_ptr<P>> plans_;
  std::vector<std::unique_ptr<Map>> maps_;
};

}  // namespace

const Plan& plan_for(std::size_t n) {
  AMOPT_EXPECTS(is_pow2(n));
  static PlanCache<Plan>& cache = *new PlanCache<Plan>();
  return cache.get(n);
}

const RealPlan& real_plan_for(std::size_t n) {
  AMOPT_EXPECTS(is_pow2(n));
  static PlanCache<RealPlan>& cache = *new PlanCache<RealPlan>();
  return cache.get(n);
}

void forward(std::span<cplx> data) { plan_for(data.size()).forward(data.data()); }
void inverse(std::span<cplx> data) { plan_for(data.size()).inverse(data.data()); }

}  // namespace amopt::fft
