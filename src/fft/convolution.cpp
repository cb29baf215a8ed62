#include "amopt/fft/convolution.hpp"

#include <algorithm>
#include <bit>

#include "amopt/common/assert.hpp"
#include "amopt/core/scratch.hpp"
#include "amopt/metrics/counters.hpp"
#include "amopt/simd/kernels.hpp"

namespace amopt::conv {

namespace {

using fft::cplx;

// Below this cost product the direct loop beats FFT setup (measured with
// bench/micro_fft on the build machine; the exact value is uncritical).
constexpr std::size_t kDirectCostThreshold = 1u << 14;

// Break-even multiplier for the size-aware crossover below: the direct
// sweep costs ~k*n fused multiply-adds, the (kernel-spectrum-warm) FFT
// path ~2 half-size transforms of m = next_pow2(n) plus the spectrum
// product, i.e. O(m log m) with this constant folding in the transform's
// real cost per point. Calibrated on the build box against warm-spectrum
// correlate_valid at out in [240, 9700] and klen in [9, 1025]: measured
// break-even klen tracks 3*m*log2(m)/out within ~25% across that whole
// range (PR 10; before that the flat kDirectCostThreshold product sent
// wide-row/short-kernel correlations — out ~ 10^4, klen <= 129, the top
// of every FDM descent — down an FFT path costing 5-12x the direct sweep).
constexpr std::size_t kFftCostPerPointLog = 3;

[[nodiscard]] bool use_direct(std::size_t na, std::size_t nb, Policy policy) {
  switch (policy.path) {
    case Policy::Path::direct:
      return true;
    case Policy::Path::fft:
      return false;
    case Policy::Path::automatic:
      break;
  }
  const std::size_t k = std::min(na, nb);
  const std::size_t n = std::max(na, nb);
  if (k * n <= kDirectCostThreshold || k <= 8) return true;
  const std::size_t m = next_pow2(n);
  const auto logm = static_cast<std::size_t>(std::bit_width(m) - 1);
  return k * n <= kFftCostPerPointLog * m * logm;
}

void count_fft_ops(std::size_t n, std::uint64_t transforms_of_half,
                   bool pointwise = true) {
  // `transforms_of_half` complex FFTs of size n/2, plus (unless the caller
  // accounts it elsewhere) the O(n) pointwise spectrum product; same
  // accounting granularity as the direct path.
  const std::size_t m = std::max<std::size_t>(n / 2, 1);
  const auto logm = static_cast<std::uint64_t>(
      std::max<std::size_t>(1, static_cast<std::size_t>(std::bit_width(m)) - 1));
  metrics::add_flops(transforms_of_half * 5 * static_cast<std::uint64_t>(m) *
                         logm +
                     (pointwise ? 6 * static_cast<std::uint64_t>(n) : 0));
  metrics::add_bytes(transforms_of_half * static_cast<std::uint64_t>(m) *
                     sizeof(cplx) * logm);
}

/// Minimal cyclic transform size for reading window [skip, skip + out_len)
/// of the full linear convolution (length `full`) of operands of length
/// `na` and `nb`. Cyclic convolution at size n < full aliases linear bin
/// j + n onto bin j, corrupting exactly the cyclic bins [0, full - 1 - n];
/// the window survives iff skip >= full - n (overlap-save: the wrapped tail
/// lands strictly below the first bin we read). The window and both
/// operands must also fit in the buffer, so
///   n = next_pow2(max(full - skip, skip + out_len, na, nb)).
/// For a trimmed correlation (na = out_len + klen - 1, skip = klen - 1) the
/// first three terms coincide at out_len + klen - 1 — the rule
/// correlate_fft_size() exposes; for a full convolution (skip = 0,
/// out_len = full) it degenerates to next_pow2(full), the classical sizing.
[[nodiscard]] std::size_t cyclic_size(std::size_t na, std::size_t nb,
                                      std::size_t skip, std::size_t out_len) {
  const std::size_t full = na + nb - 1;
  AMOPT_EXPECTS(skip + out_len <= full);
  return next_pow2(std::max({full - skip, skip + out_len, na, nb}));
}

/// Lease one real-transform buffer of size n from `frame`: n + 2 doubles,
/// the n/2+1 bins of a spectrum. The padded operand is staged in its low n
/// doubles and transformed in place (RealPlan::forward and inverse accept
/// that aliasing), so an operand and its spectrum share one span.
[[nodiscard]] std::span<double> lease_spectrum(core::ScratchStack::Frame& frame,
                                               std::size_t n) {
  return frame.alloc(n + 2);
}

[[nodiscard]] cplx* bins_of(std::span<double> buf) {
  return reinterpret_cast<cplx*>(buf.data());
}

/// Zero-pad concat(a, a_tail) into the first n doubles of `buf`.
void stage(std::span<double> buf, std::size_t n, std::span<const double> a,
           std::span<const double> a_tail) {
  std::copy(a.begin(), a.end(), buf.begin());
  std::copy(a_tail.begin(), a_tail.end(),
            buf.begin() + static_cast<std::ptrdiff_t>(a.size()));
  std::fill(buf.begin() + static_cast<std::ptrdiff_t>(a.size() + a_tail.size()),
            buf.begin() + static_cast<std::ptrdiff_t>(n), 0.0);
}

/// Real-input cyclic convolution via R2C/C2R: both operands are zero-padded
/// to size n (the minimal power of two that keeps the requested window
/// alias-free, see cyclic_size()), transformed with two half-size complex
/// FFTs, multiplied over the n/2+1 non-redundant bins, and brought back
/// with one C2R. Writes out[j] = c[skip + j] for j in [0, out.size()),
/// where c is the full convolution — `skip` folds the correlation shift
/// into the copy-out. `reverse_b` packs b back-to-front (correlation =
/// convolution with the reversed kernel) without materializing a reversed
/// copy. The first operand is the logical concatenation of `a` and
/// `a_tail` (the solvers' green-extension cells) — staging both pieces here
/// yields the same padded buffer, hence the same bits, as a concatenated
/// call.
void real_convolve_into(std::span<const double> a,
                        std::span<const double> a_tail,
                        std::span<const double> b, bool reverse_b,
                        std::size_t skip, std::span<double> out) {
  const std::size_t na = a.size() + a_tail.size();
  const std::size_t full = na + b.size() - 1;
  const std::size_t n = cyclic_size(na, b.size(), skip, out.size());
  const fft::RealPlan& plan = fft::real_plan_for(n);
  const std::size_t nspec = plan.spectrum_size();
  AMOPT_EXPECTS(skip + out.size() <= full);

  core::ScratchStack::Frame frame(core::thread_scratch());
  const std::span<double> ra = lease_spectrum(frame, n);
  cplx* sa = bins_of(ra);
  stage(ra, n, a, a_tail);
  // Aliased-operand fast path: convolving a signal with itself (the
  // squaring rungs of poly::square_rung) needs only ONE forward transform —
  // the spectrum is squared in place. A second transform of the identical
  // input would reproduce these bins bit for bit, and csquare evaluates
  // cmul(sa, sa) on them (exactly at the scalar level, to the documented
  // last-ulp FMA tolerance on AVX-512), so the fast path is work elision,
  // not a numerical shortcut.
  const bool square = !reverse_b && a_tail.empty() && a.data() == b.data() &&
                      a.size() == b.size();
  plan.forward(ra.data(), sa);
  if (square) {
    simd::kernels().csquare(sa, nspec);
  } else {
    const std::span<double> rb = lease_spectrum(frame, n);
    if (reverse_b) {
      std::copy(b.rbegin(), b.rend(), rb.begin());
      std::fill(rb.begin() + static_cast<std::ptrdiff_t>(b.size()),
                rb.begin() + static_cast<std::ptrdiff_t>(n), 0.0);
    } else {
      stage(rb, n, b, {});
    }
    plan.forward(rb.data(), bins_of(rb));
    simd::kernels().cmul(sa, bins_of(rb), nspec);
  }
  plan.inverse(sa, ra.data());
  std::copy_n(ra.begin() + static_cast<std::ptrdiff_t>(skip), out.size(),
              out.begin());
  count_fft_ops(n, square ? 2 : 3);
}

/// The consumer half of the spectral overloads: transform concat(a, a_tail)
/// zero-padded to `n`, multiply by the precomputed kernel bins `kbins` of a
/// length-`klen` kernel, invert, copy out from `skip`. Identical arithmetic
/// to real_convolve_into with the kernel transform hoisted out.
void real_convolve_spec_into(std::span<const double> a,
                             std::span<const double> a_tail,
                             const cplx* kbins, std::size_t n,
                             std::size_t klen, std::size_t skip,
                             std::span<double> out) {
  const std::size_t na = a.size() + a_tail.size();
  const std::size_t full = na + klen - 1;
  // The spectrum's size is the caller's choice; any n that keeps the read
  // window alias-free is accepted (n >= full remains valid over-padding).
  AMOPT_EXPECTS(n >= na && n >= klen);
  AMOPT_EXPECTS(skip + out.size() <= n);
  AMOPT_EXPECTS(full <= n + skip);
  AMOPT_EXPECTS(skip + out.size() <= full);
  const fft::RealPlan& plan = fft::real_plan_for(n);

  core::ScratchStack::Frame frame(core::thread_scratch());
  const std::span<double> ra = lease_spectrum(frame, n);
  stage(ra, n, a, a_tail);
  plan.forward(ra.data(), bins_of(ra));
  simd::kernels().cmul(bins_of(ra), kbins, plan.spectrum_size());
  plan.inverse(bins_of(ra), ra.data());
  std::copy_n(ra.begin() + static_cast<std::ptrdiff_t>(skip), out.size(),
              out.begin());
  count_fft_ops(n, 2);
}

void real_convolve_spec_into(std::span<const double> a,
                             std::span<const double> a_tail,
                             const fft::RealSpectrum& kspec, std::size_t skip,
                             std::span<double> out) {
  AMOPT_EXPECTS(kspec.bins.size() >= kspec.spectrum_size());
  real_convolve_spec_into(a, a_tail, kspec.bins.data(), kspec.n, kspec.klen,
                          skip, out);
}

/// Trim the logical input concat(main, tail) to its first `needed` elements
/// (the prefix a correlation actually references).
void trim_split(std::span<const double>& main, std::span<const double>& tail,
                std::size_t needed) {
  if (main.size() >= needed) {
    main = main.subspan(0, needed);
    tail = {};
    return;
  }
  tail = tail.subspan(0, needed - main.size());
}

void convolve_full_direct_into(std::span<const double> a,
                               std::span<const double> b,
                               std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) out[i + j] += ai * b[j];
  }
  metrics::add_flops(2 * static_cast<std::uint64_t>(a.size()) * b.size());
  metrics::add_bytes(static_cast<std::uint64_t>(out.size()) * sizeof(double));
}

}  // namespace

std::vector<double> convolve_full_direct(std::span<const double> a,
                                         std::span<const double> b) {
  if (a.empty() || b.empty()) return {};
  std::vector<double> c(a.size() + b.size() - 1);
  convolve_full_direct_into(a, b, c);
  return c;
}

void correlate_valid_direct(std::span<const double> in,
                            std::span<const double> kernel,
                            std::span<double> out) {
  AMOPT_EXPECTS(!kernel.empty());
  AMOPT_EXPECTS(in.size() >= out.size() + kernel.size() - 1);
  // Dispatched tap sweep (the scalar table entry is this function's
  // historical accumulation loop, so the scalar level is unchanged).
  simd::kernels().correlate_taps(in.data(), kernel.data(), kernel.size(),
                                 out.data(), out.size());
  metrics::add_flops(2 * static_cast<std::uint64_t>(out.size()) *
                     kernel.size());
  metrics::add_bytes(static_cast<std::uint64_t>(out.size()) * sizeof(double));
}

void convolve_full(std::span<const double> a, std::span<const double> b,
                   std::span<double> out, Policy policy) {
  if (a.empty() || b.empty()) {
    AMOPT_EXPECTS(out.empty());
    return;
  }
  AMOPT_EXPECTS(out.size() == a.size() + b.size() - 1);
  if (use_direct(a.size(), b.size(), policy)) {
    convolve_full_direct_into(a, b, out);
    return;
  }
  real_convolve_into(a, {}, b, /*reverse_b=*/false, /*skip=*/0, out);
}

std::vector<double> convolve_full(std::span<const double> a,
                                  std::span<const double> b, Policy policy) {
  if (a.empty() || b.empty()) return {};
  std::vector<double> c(a.size() + b.size() - 1);
  convolve_full(a, b, c, policy);
  return c;
}

void correlate_valid(std::span<const double> in,
                     std::span<const double> kernel, std::span<double> out,
                     Policy policy) {
  correlate_valid(in, {}, kernel, out, policy);
}

void correlate_valid(std::span<const double> main, std::span<const double> tail,
                     std::span<const double> kernel, std::span<double> out,
                     Policy policy) {
  AMOPT_EXPECTS(!kernel.empty());
  if (out.empty()) return;
  const std::size_t in_len = main.size() + tail.size();
  AMOPT_EXPECTS(in_len >= out.size() + kernel.size() - 1);
  // Correlation = convolution with the reversed kernel, shifted so that
  // output index 0 lands on full-convolution index kernel.size()-1; the
  // reversal happens while packing the transform input (no reversed copy)
  // and the shift while copying out. Trim the input to the prefix actually
  // referenced to keep the transform small.
  std::span<const double> m = main, t = tail;
  trim_split(m, t, out.size() + kernel.size() - 1);
  if (use_direct(in_len, kernel.size(), policy)) {
    if (t.empty()) {
      correlate_valid_direct(m, kernel, out);
      return;
    }
    // Small-size crossover: materialize the concatenation in arena staging
    // and run the ordinary contiguous sweep. The copy is bounded by the
    // direct-path cost cap, and it keeps the sweep's vector/scalar
    // partition — hence every bit on FMA dispatch levels — identical to a
    // contiguous-input call (the zero-copy win belongs to the FFT path,
    // where the operands are large).
    core::ScratchStack::Frame frame(core::thread_scratch());
    const std::span<double> cat = frame.alloc(m.size() + t.size());
    stage(cat, cat.size(), m, t);
    correlate_valid_direct(cat, kernel, out);
    return;
  }
  real_convolve_into(m, t, kernel, /*reverse_b=*/true,
                     /*skip=*/kernel.size() - 1, out);
}

bool correlate_prefers_fft(std::size_t out_len, std::size_t kernel_len,
                           Policy policy) {
  if (out_len == 0 || kernel_len == 0) return false;
  const std::size_t in_len = out_len + kernel_len - 1;
  return !use_direct(in_len, kernel_len, policy);
}

std::size_t correlate_fft_size(std::size_t out_len, std::size_t kernel_len) {
  // Overlap-save minimal size: the trimmed input prefix is
  // out_len + kernel_len - 1 and the correlation reads full-convolution
  // bins [kernel_len - 1, kernel_len - 1 + out_len). A cyclic transform of
  // size n wraps only the top full - 1 - n linear bins onto [0, full-1-n],
  // i.e. strictly below that window whenever n >= out_len + kernel_len - 1
  // — so the transform only needs to cover the INPUT, not the full linear
  // convolution length out_len + 2*(kernel_len - 1) used before the
  // re-baselining (that double padding kept every linear bin alias-free,
  // including bins no correlation ever reads).
  return next_pow2(out_len + kernel_len - 1);
}

fft::RealSpectrum kernel_spectrum(std::span<const double> kernel,
                                  std::size_t n, bool reversed) {
  AMOPT_EXPECTS(!kernel.empty());
  AMOPT_EXPECTS(n >= kernel.size());
  fft::RealSpectrum spec;
  fft::real_plan_for(n).spectrum(kernel, reversed, spec);
  count_fft_ops(n, 1, /*pointwise=*/false);
  return spec;
}

void correlate_valid(std::span<const double> in,
                     const fft::RealSpectrum& kspec, std::span<double> out) {
  correlate_valid(in, {}, kspec, out);
}

void correlate_valid(std::span<const double> main, std::span<const double> tail,
                     const fft::RealSpectrum& kspec, std::span<double> out) {
  AMOPT_EXPECTS(!kspec.empty() && kspec.reversed);
  if (out.empty()) return;
  AMOPT_EXPECTS(main.size() + tail.size() >= out.size() + kspec.klen - 1);
  std::span<const double> m = main, t = tail;
  trim_split(m, t, out.size() + kspec.klen - 1);
  real_convolve_spec_into(m, t, kspec, /*skip=*/kspec.klen - 1, out);
}

void convolve_full(std::span<const double> a, const fft::RealSpectrum& bspec,
                   std::span<double> out) {
  AMOPT_EXPECTS(!bspec.empty() && !bspec.reversed);
  if (a.empty()) {
    AMOPT_EXPECTS(out.empty());
    return;
  }
  AMOPT_EXPECTS(out.size() == a.size() + bspec.klen - 1);
  real_convolve_spec_into(a, {}, bspec, /*skip=*/0, out);
}

namespace {

/// Full convolutions of every input against one kernel's spectrum bins
/// (size-n transform of a length-klen kernel); outs[i] is resized.
void convolve_each(std::span<const std::span<const double>> inputs,
                   const cplx* kbins, std::size_t n, std::size_t klen,
                   std::span<std::vector<double>> outs) {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].empty()) {
      outs[i].clear();
      continue;
    }
    outs[i].resize(inputs[i].size() + klen - 1);
    real_convolve_spec_into(inputs[i], {}, kbins, n, klen, /*skip=*/0,
                            outs[i]);
  }
}

}  // namespace

void convolve_many(std::span<const std::span<const double>> inputs,
                   const fft::RealSpectrum& kspec,
                   std::span<std::vector<double>> outs) {
  AMOPT_EXPECTS(outs.size() == inputs.size());
  AMOPT_EXPECTS(!kspec.empty() && !kspec.reversed);
  AMOPT_EXPECTS(kspec.bins.size() >= kspec.spectrum_size());
  convolve_each(inputs, kspec.bins.data(), kspec.n, kspec.klen, outs);
}

void convolve_many(std::span<const std::span<const double>> inputs,
                   std::span<const double> kernel,
                   std::span<std::vector<double>> outs, Policy policy) {
  AMOPT_EXPECTS(outs.size() == inputs.size());
  AMOPT_EXPECTS(!kernel.empty());
  if (inputs.empty()) return;

  std::size_t max_na = 0;
  for (const auto& a : inputs) max_na = std::max(max_na, a.size());
  if (max_na == 0) {
    for (auto& o : outs) o.clear();
    return;
  }

  if (use_direct(max_na, kernel.size(), policy)) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (inputs[i].empty()) {
        outs[i].clear();
        continue;
      }
      outs[i].resize(inputs[i].size() + kernel.size() - 1);
      convolve_full(inputs[i], kernel, outs[i], policy);
    }
    return;
  }

  // One FFT size covers every item: the cyclic length n exceeds the largest
  // full linear length, so shorter items simply see extra zero padding. The
  // kernel is transformed once, in place in its arena span.
  const std::size_t n = next_pow2(max_na + kernel.size() - 1);
  core::ScratchStack::Frame frame(core::thread_scratch());
  const std::span<double> kb = lease_spectrum(frame, n);
  stage(kb, n, kernel, {});
  fft::real_plan_for(n).forward(kb.data(), bins_of(kb));
  count_fft_ops(n, 1, /*pointwise=*/false);  // the one shared kernel transform
  convolve_each(inputs, bins_of(kb), n, kernel.size(), outs);
}

}  // namespace amopt::conv
