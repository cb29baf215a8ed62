// AVX-512F kernel table: 8 doubles (4 complex) per 512-bit lane. The
// arithmetic-dense kernels (radix-4 butterflies, pointwise products, tap
// sweeps) are widened to 512 bits, and since PR 5 so are the shuffle-bound
// layout helpers (de/interleave, R2C/C2R pair twiddles, radix-2): vpermt2pd
// crosses all 128-bit lanes in one instruction, which halves their shuffle
// and load/store counts — profiling the end-to-end pricers showed those
// helpers carrying ~15% of a descent. This TU is compiled with
// -mavx512f -mavx512dq (and AVX2 implied), so multiply-add chains may be
// contracted to FMA here: the AVX-512 path can differ from scalar/AVX2 in
// the last ulps (it is the more accurate rounding), bounded by the
// documented cross-path tolerance (DESIGN.md §4).

#include <immintrin.h>

#include <cstdint>

#include "kernels_internal.hpp"

namespace amopt::simd {

namespace avx512_impl {

[[nodiscard]] inline bool aligned64(const void* p) noexcept {
  return (reinterpret_cast<std::uintptr_t>(p) & 63u) == 0;
}

struct IoAligned {
  static __m512d load(const double* p) noexcept { return _mm512_load_pd(p); }
  static void store(double* p, __m512d v) noexcept { _mm512_store_pd(p, v); }
};
struct IoUnaligned {
  static __m512d load(const double* p) noexcept { return _mm512_loadu_pd(p); }
  static void store(double* p, __m512d v) noexcept { _mm512_storeu_pd(p, v); }
};

// ------------------------------------------------------------------ cmul

template <class Io>
void cmul_vec(double* a, const double* b, std::size_t pairs) {
  for (std::size_t k = 0; k + 4 <= pairs; k += 4) {
    const __m512d va = Io::load(a + 2 * k);
    const __m512d vb = Io::load(b + 2 * k);
    const __m512d bre = _mm512_movedup_pd(vb);
    const __m512d bim = _mm512_permute_pd(vb, 0xFF);
    const __m512d asw = _mm512_permute_pd(va, 0x55);
    // fmaddsub: even lanes a*b - c, odd lanes a*b + c (one rounding).
    const __m512d t2 = _mm512_mul_pd(asw, bim);
    Io::store(a + 2 * k, _mm512_fmaddsub_pd(va, bre, t2));
  }
}

void cmul(cplx* a, const cplx* b, std::size_t n) {
  auto* ad = reinterpret_cast<double*>(a);
  const auto* bd = reinterpret_cast<const double*>(b);
  const std::size_t nv = n & ~std::size_t{3};
  if (aligned64(ad) && aligned64(bd)) {
    cmul_vec<IoAligned>(ad, bd, nv);
  } else {
    cmul_vec<IoUnaligned>(ad, bd, nv);
  }
  for (std::size_t k = nv; k < n; ++k) a[k] *= b[k];
}

template <class Io>
void csquare_vec(double* a, std::size_t pairs) {
  // cmul_vec with both factors taken from the single load: identical
  // shuffle/fmaddsub sequence, so it matches cmul(a, a) lane for lane.
  for (std::size_t k = 0; k + 4 <= pairs; k += 4) {
    const __m512d va = Io::load(a + 2 * k);
    const __m512d bre = _mm512_movedup_pd(va);
    const __m512d bim = _mm512_permute_pd(va, 0xFF);
    const __m512d asw = _mm512_permute_pd(va, 0x55);
    const __m512d t2 = _mm512_mul_pd(asw, bim);
    Io::store(a + 2 * k, _mm512_fmaddsub_pd(va, bre, t2));
  }
}

void csquare(cplx* a, std::size_t n) {
  auto* ad = reinterpret_cast<double*>(a);
  const std::size_t nv = n & ~std::size_t{3};
  if (aligned64(ad)) {
    csquare_vec<IoAligned>(ad, nv);
  } else {
    csquare_vec<IoUnaligned>(ad, nv);
  }
  for (std::size_t k = nv; k < n; ++k) a[k] *= a[k];
}

// ------------------------------------------- small-tap correlation sweeps

void correlate_taps(const double* in, const double* taps, std::size_t ntaps,
                    double* out, std::size_t n) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t m = 0; m < ntaps; ++m)
      acc = _mm512_fmadd_pd(_mm512_set1_pd(taps[m]),
                            _mm512_loadu_pd(in + j + m), acc);
    _mm512_storeu_pd(out + j, acc);
  }
  for (; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t m = 0; m < ntaps; ++m) acc += taps[m] * in[j + m];
    out[j] = acc;
  }
}

namespace {
/// The 8-wide fmadd body of `correlate_taps` over [j0, j1).
inline void taps_sweep_range(const double* in, const double* taps,
                             std::size_t ntaps, double* out, std::size_t j0,
                             std::size_t j1) {
  std::size_t j = j0;
  for (; j + 8 <= j1; j += 8) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t m = 0; m < ntaps; ++m)
      acc = _mm512_fmadd_pd(_mm512_set1_pd(taps[m]),
                            _mm512_loadu_pd(in + j + m), acc);
    _mm512_storeu_pd(out + j, acc);
  }
  for (; j < j1; ++j) {
    double acc = 0.0;
    for (std::size_t m = 0; m < ntaps; ++m) acc += taps[m] * in[j + m];
    out[j] = acc;
  }
}
}  // namespace

void correlate_taps_2row(const double* in, const double* taps,
                         std::size_t ntaps, double* mid, double* out,
                         std::size_t n_mid, std::size_t n_out) {
  two_row_sweep_driver(
      in, ntaps, mid, out, n_mid, n_out,
      [&](const double* src, double* dst, std::size_t j0, std::size_t j1) {
        taps_sweep_range(src, taps, ntaps, dst, j0, j1);
      });
}

// --------------------------------------- boundary-engine quadrature loops

void bs_dpm(const double* logz, const double* drift_t, const double* inv_vs,
            const double* half_vs, double* dp, double* dm, std::size_t n) {
  // base feeds the following add/sub, and in this TU the compiler is free
  // to contract that into FMA — like the other AVX-512 kernels this entry
  // is last-ulp from scalar, within the DESIGN.md §4 cross-path tolerance.
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d base =
        _mm512_mul_pd(_mm512_add_pd(_mm512_loadu_pd(logz + i),
                                    _mm512_loadu_pd(drift_t + i)),
                      _mm512_loadu_pd(inv_vs + i));
    const __m512d h = _mm512_loadu_pd(half_vs + i);
    _mm512_storeu_pd(dp + i, _mm512_add_pd(base, h));
    _mm512_storeu_pd(dm + i, _mm512_sub_pd(base, h));
  }
  for (; i < n; ++i) {
    const double base = (logz[i] + drift_t[i]) * inv_vs[i];
    dp[i] = base + half_vs[i];
    dm[i] = base - half_vs[i];
  }
}

void norm_cdf(const double* x, double* out, std::size_t n) {
  namespace pd = phi_detail;
  const __m512d sign_mask = _mm512_set1_pd(-0.0);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d half = _mm512_set1_pd(0.5);
  std::size_t i = 0;
  // Same operation sequence as phi_detail::phi_reference with the Horner
  // chains contracted to FMA — last-ulp divergence from scalar/AVX2,
  // inside the documented cross-path tolerance.
  for (; i + 8 <= n; i += 8) {
    const __m512d vx = _mm512_loadu_pd(x + i);
    const __m512d z = _mm512_mul_pd(_mm512_abs_pd(vx),
                                    _mm512_set1_pd(pd::kInvSqrt2));
    const __m512d t = _mm512_div_pd(
        one, _mm512_fmadd_pd(_mm512_set1_pd(pd::kP), z, one));
    __m512d poly = _mm512_set1_pd(pd::kA5);
    poly = _mm512_fmadd_pd(poly, t, _mm512_set1_pd(pd::kA4));
    poly = _mm512_fmadd_pd(poly, t, _mm512_set1_pd(pd::kA3));
    poly = _mm512_fmadd_pd(poly, t, _mm512_set1_pd(pd::kA2));
    poly = _mm512_fmadd_pd(poly, t, _mm512_set1_pd(pd::kA1));
    poly = _mm512_mul_pd(poly, t);
    const __m512d y = _mm512_max_pd(
        _mm512_xor_pd(_mm512_mul_pd(z, z), sign_mask),
        _mm512_set1_pd(pd::kExpFloor));
    const __m512d k = _mm512_roundscale_pd(
        _mm512_mul_pd(y, _mm512_set1_pd(pd::kLog2E)),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m512d r = _mm512_sub_pd(
        _mm512_sub_pd(y, _mm512_mul_pd(k, _mm512_set1_pd(pd::kLn2Hi))),
        _mm512_mul_pd(k, _mm512_set1_pd(pd::kLn2Lo)));
    __m512d p = _mm512_set1_pd(pd::kC[11]);
    for (int c = 10; c >= 0; --c)
      p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(pd::kC[c]));
    const __m512i bits = _mm512_slli_epi64(
        _mm512_add_epi64(_mm512_cvtpd_epi64(k), _mm512_set1_epi64(1023)),
        52);
    const __m512d e = _mm512_mul_pd(p, _mm512_castsi512_pd(bits));
    const __m512d tail = _mm512_mul_pd(_mm512_mul_pd(half, poly), e);
    const __mmask8 ge =
        _mm512_cmp_pd_mask(vx, _mm512_setzero_pd(), _CMP_GE_OQ);
    _mm512_storeu_pd(out + i,
                     _mm512_mask_blend_pd(ge, tail, _mm512_sub_pd(one, tail)));
  }
  for (; i < n; ++i) out[i] = pd::phi_reference(x[i]);
}

void deinterleave_rev(const cplx* z, const std::uint32_t* rev, double* re,
                      double* im, std::size_t n) {
  const auto* zd = reinterpret_cast<const double*>(z);
  std::size_t i = 0;
  // Same cache-residency crossover as the AVX2 kernel: past L2, gathers
  // lose to the prefetch-friendly scalar loop.
  if (n > (std::size_t{1} << 14)) {
    avx2_impl::deinterleave_rev(z, rev, re, im, n);
    return;
  }
  for (; i + 8 <= n; i += 8) {
    __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rev + i));
    idx = _mm256_slli_epi32(idx, 1);
    _mm512_storeu_pd(re + i, _mm512_i32gather_pd(idx, zd, 8));
    _mm512_storeu_pd(im + i, _mm512_i32gather_pd(idx, zd + 1, 8));
  }
  for (; i < n; ++i) {
    const cplx v = z[rev[i]];
    re[i] = v.real();
    im[i] = v.imag();
  }
}

void scale2(double* re, double* im, std::size_t n, double s) {
  const __m512d vs = _mm512_set1_pd(s);
  for (double* p : {re, im}) {
    std::size_t i = 0;
    if (aligned64(p)) {
      for (; i + 8 <= n; i += 8)
        _mm512_store_pd(p + i, _mm512_mul_pd(_mm512_load_pd(p + i), vs));
    } else {
      for (; i + 8 <= n; i += 8)
        _mm512_storeu_pd(p + i, _mm512_mul_pd(_mm512_loadu_pd(p + i), vs));
    }
    for (; i < n; ++i) p[i] *= s;
  }
}

// ---------------------------------------------- 512-bit layout conversions
//
// PR 3 left the shuffle-bound layout helpers on their AVX2 implementations;
// profiling the end-to-end pricers showed they carry ~15% of a descent, so
// they are widened here after all. vpermt2pd crosses all 128-bit lanes in
// one instruction, so the 512-bit versions halve both the shuffle and the
// load/store counts. Arithmetic (where any) is the same mul/add per
// element, inside the documented AVX-512 tolerance.

namespace {
inline __m512i idx8(long long a, long long b, long long c, long long d,
                    long long e, long long f, long long g, long long h) {
  return _mm512_setr_epi64(a, b, c, d, e, f, g, h);
}

/// Load 8 interleaved complex (unaligned) and split into re/im registers.
inline void load_split8(const double* p, __m512d& re, __m512d& im) {
  const __m512d z0 = _mm512_loadu_pd(p);
  const __m512d z1 = _mm512_loadu_pd(p + 8);
  re = _mm512_permutex2var_pd(z0, idx8(0, 2, 4, 6, 8, 10, 12, 14), z1);
  im = _mm512_permutex2var_pd(z0, idx8(1, 3, 5, 7, 9, 11, 13, 15), z1);
}

inline void store_join8(double* p, __m512d re, __m512d im) {
  _mm512_storeu_pd(
      p, _mm512_permutex2var_pd(re, idx8(0, 8, 1, 9, 2, 10, 3, 11), im));
  _mm512_storeu_pd(
      p + 8, _mm512_permutex2var_pd(re, idx8(4, 12, 5, 13, 6, 14, 7, 15), im));
}

inline __m512d reverse8(__m512d v) {
  return _mm512_permutexvar_pd(idx8(7, 6, 5, 4, 3, 2, 1, 0), v);
}
}  // namespace

void deinterleave(const cplx* z, double* re, double* im, std::size_t n) {
  const auto* zd = reinterpret_cast<const double*>(z);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512d vr, vi;
    load_split8(zd + 2 * i, vr, vi);
    _mm512_storeu_pd(re + i, vr);
    _mm512_storeu_pd(im + i, vi);
  }
  for (; i < n; ++i) {
    re[i] = z[i].real();
    im[i] = z[i].imag();
  }
}

void interleave(const double* re, const double* im, cplx* z, std::size_t n) {
  auto* zd = reinterpret_cast<double*>(z);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    store_join8(zd + 2 * i, _mm512_loadu_pd(re + i), _mm512_loadu_pd(im + i));
  for (; i < n; ++i) z[i] = cplx{re[i], im[i]};
}

void interleave_scaled(const double* re, const double* im, cplx* z,
                       std::size_t n, double s) {
  auto* zd = reinterpret_cast<double*>(z);
  const __m512d vs = _mm512_set1_pd(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    store_join8(zd + 2 * i, _mm512_mul_pd(_mm512_loadu_pd(re + i), vs),
                _mm512_mul_pd(_mm512_loadu_pd(im + i), vs));
  for (; i < n; ++i) z[i] = cplx{re[i] * s, im[i] * s};
}

void radix2_pass(double* re, double* im, std::size_t n) {
  const std::size_t nv = n & ~std::size_t{7};
  for (double* p : {re, im}) {
    std::size_t base = 0;
    for (; base + 8 <= nv; base += 8) {
      const __m512d v = _mm512_loadu_pd(p + base);
      const __m512d sw = _mm512_permute_pd(v, 0x55);  // swap within pairs
      const __m512d sum = _mm512_add_pd(v, sw);
      const __m512d dif = _mm512_sub_pd(sw, v);
      _mm512_storeu_pd(p + base, _mm512_mask_blend_pd(0xAA, sum, dif));
    }
    for (; base < n; base += 2) {
      const double t = p[base + 1];
      p[base + 1] = p[base] - t;
      p[base] += t;
    }
  }
}

// ----------------------------------------------- R2C / C2R pair twiddles

void rfft_untangle(cplx* spec, const cplx* tw, std::size_t m) {
  auto* sd = reinterpret_cast<double*>(spec);
  const auto* td = reinterpret_cast<const double*>(tw);
  const __m512d half = _mm512_set1_pd(0.5);
  std::size_t k = 1, j = m - 1;
  for (; k + 15 <= j; k += 8, j -= 8) {
    __m512d kr, ki, jr, ji, twr, twi;
    load_split8(sd + 2 * k, kr, ki);
    load_split8(sd + 2 * (j - 7), jr, ji);
    jr = reverse8(jr);  // lane l now holds index j - l
    ji = reverse8(ji);
    load_split8(td + 2 * k, twr, twi);
    // xe = (Z[k] + conj(Z[j]))/2, xo = (Z[k] - conj(Z[j]))/(2i)
    const __m512d xer = _mm512_mul_pd(half, _mm512_add_pd(kr, jr));
    const __m512d xei = _mm512_mul_pd(half, _mm512_sub_pd(ki, ji));
    const __m512d xor_ = _mm512_mul_pd(half, _mm512_add_pd(ki, ji));
    const __m512d xoi = _mm512_mul_pd(half, _mm512_sub_pd(jr, kr));
    // txo = t_k * xo
    const __m512d txr = _mm512_sub_pd(_mm512_mul_pd(twr, xor_),
                                      _mm512_mul_pd(twi, xoi));
    const __m512d txi = _mm512_add_pd(_mm512_mul_pd(twr, xoi),
                                      _mm512_mul_pd(twi, xor_));
    // spec[k] = xe + txo, spec[j] = conj(xe - txo)
    store_join8(sd + 2 * k, _mm512_add_pd(xer, txr), _mm512_add_pd(xei, txi));
    const __m512d ojr = reverse8(_mm512_sub_pd(xer, txr));
    const __m512d oji = reverse8(_mm512_sub_pd(txi, xei));  // -(xei-txi)
    store_join8(sd + 2 * (j - 7), ojr, oji);
  }
  for (; k < j; ++k, --j) {
    const cplx zk = spec[k], zj = spec[j];
    const cplx xe = 0.5 * (zk + std::conj(zj));
    const cplx xo = cplx{0.0, -0.5} * (zk - std::conj(zj));
    const cplx txo = tw[k] * xo;
    spec[k] = xe + txo;
    spec[j] = std::conj(xe - txo);
  }
}

void rfft_retangle(cplx* spec, const cplx* tw, std::size_t m) {
  auto* sd = reinterpret_cast<double*>(spec);
  const auto* td = reinterpret_cast<const double*>(tw);
  const __m512d half = _mm512_set1_pd(0.5);
  std::size_t k = 1, j = m - 1;
  for (; k + 15 <= j; k += 8, j -= 8) {
    __m512d kr, ki, jr, ji, twr, twi;
    load_split8(sd + 2 * k, kr, ki);
    load_split8(sd + 2 * (j - 7), jr, ji);
    jr = reverse8(jr);
    ji = reverse8(ji);
    load_split8(td + 2 * k, twr, twi);
    // xe = (X[k] + conj(X[j]))/2, u = (X[k] - conj(X[j]))/2,
    // xo = u * conj(t_k)
    const __m512d xer = _mm512_mul_pd(half, _mm512_add_pd(kr, jr));
    const __m512d xei = _mm512_mul_pd(half, _mm512_sub_pd(ki, ji));
    const __m512d ur = _mm512_mul_pd(half, _mm512_sub_pd(kr, jr));
    const __m512d ui = _mm512_mul_pd(half, _mm512_add_pd(ki, ji));
    const __m512d xor_ = _mm512_add_pd(_mm512_mul_pd(ur, twr),
                                       _mm512_mul_pd(ui, twi));
    const __m512d xoi = _mm512_sub_pd(_mm512_mul_pd(ui, twr),
                                      _mm512_mul_pd(ur, twi));
    // Z[k] = xe + i xo, Z[j] = conj(xe) + i conj(xo)
    store_join8(sd + 2 * k, _mm512_sub_pd(xer, xoi), _mm512_add_pd(xei, xor_));
    const __m512d ojr = reverse8(_mm512_add_pd(xer, xoi));
    const __m512d oji = reverse8(_mm512_sub_pd(xor_, xei));
    store_join8(sd + 2 * (j - 7), ojr, oji);
  }
  for (; k < j; ++k, --j) {
    const cplx xk = spec[k], xj = spec[j];
    const cplx xe = 0.5 * (xk + std::conj(xj));
    const cplx xo = 0.5 * (xk - std::conj(xj)) * std::conj(tw[k]);
    spec[k] = xe + cplx{0.0, 1.0} * xo;
    spec[j] = std::conj(xe) + cplx{0.0, 1.0} * std::conj(xo);
  }
}

// ------------------------------------------------------------ FFT stages

// Same large-stage twiddle strategy as the AVX2 kernel — past this
// half-size, compute W^2j / W^3j from W^j in registers instead of
// streaming the cold 48h-byte twiddle block — but with a LOWER crossover:
// FMA makes the in-register powers cheap here, and in a real descent (many
// distinct transform sizes, unlike a single-size micro loop) the 48h-byte
// blocks arrive cold, which is where computing wins end-to-end (~5% on the
// fig5 pricers on the PR 5 build box).
constexpr std::size_t kComputeTwiddleH = 512;

template <class Io, bool ComputeW>
void radix4_vec(double* re, double* im, std::size_t n, std::size_t h,
                const double* wsoa, bool inverse) {
  const double* w1re = wsoa;
  const double* w1im = wsoa + h;
  const double* w2re = wsoa + 2 * h;
  const double* w2im = wsoa + 3 * h;
  const double* w3re = wsoa + 4 * h;
  const double* w3im = wsoa + 5 * h;
  const __m512d conj_mask =
      inverse ? _mm512_set1_pd(-0.0) : _mm512_setzero_pd();
  const __m512d rot_mask =
      inverse ? _mm512_setzero_pd() : _mm512_set1_pd(-0.0);
  const std::size_t step = 4 * h;
  for (std::size_t base = 0; base < n; base += step) {
    for (std::size_t j = 0; j < h; j += 8) {
      const std::size_t ia = base + j;
      const std::size_t ib = ia + h;
      const std::size_t ic = ia + 2 * h;
      const std::size_t id = ia + 3 * h;
      const __m512d w1r = _mm512_loadu_pd(w1re + j);
      const __m512d w1i = _mm512_xor_pd(_mm512_loadu_pd(w1im + j), conj_mask);
      __m512d w2r, w2i, w3r, w3i;
      if constexpr (ComputeW) {
        w2r = _mm512_fmsub_pd(w1r, w1r, _mm512_mul_pd(w1i, w1i));
        w2i = _mm512_fmadd_pd(w1r, w1i, _mm512_mul_pd(w1i, w1r));
        w3r = _mm512_fmsub_pd(w2r, w1r, _mm512_mul_pd(w2i, w1i));
        w3i = _mm512_fmadd_pd(w2r, w1i, _mm512_mul_pd(w2i, w1r));
      } else {
        w2r = _mm512_loadu_pd(w2re + j);
        w2i = _mm512_xor_pd(_mm512_loadu_pd(w2im + j), conj_mask);
        w3r = _mm512_loadu_pd(w3re + j);
        w3i = _mm512_xor_pd(_mm512_loadu_pd(w3im + j), conj_mask);
      }
      const __m512d ar = Io::load(re + ia), ai = Io::load(im + ia);
      const __m512d br = Io::load(re + ib), bi = Io::load(im + ib);
      const __m512d cr = Io::load(re + ic), ci = Io::load(im + ic);
      const __m512d dr = Io::load(re + id), di = Io::load(im + id);
      const __m512d bbr =
          _mm512_fmsub_pd(br, w2r, _mm512_mul_pd(bi, w2i));
      const __m512d bbi =
          _mm512_fmadd_pd(br, w2i, _mm512_mul_pd(bi, w2r));
      const __m512d ccr =
          _mm512_fmsub_pd(cr, w1r, _mm512_mul_pd(ci, w1i));
      const __m512d cci =
          _mm512_fmadd_pd(cr, w1i, _mm512_mul_pd(ci, w1r));
      const __m512d ddr =
          _mm512_fmsub_pd(dr, w3r, _mm512_mul_pd(di, w3i));
      const __m512d ddi =
          _mm512_fmadd_pd(dr, w3i, _mm512_mul_pd(di, w3r));
      const __m512d a1r = _mm512_add_pd(ar, bbr);
      const __m512d a1i = _mm512_add_pd(ai, bbi);
      const __m512d b1r = _mm512_sub_pd(ar, bbr);
      const __m512d b1i = _mm512_sub_pd(ai, bbi);
      const __m512d sr = _mm512_add_pd(ccr, ddr);
      const __m512d si = _mm512_add_pd(cci, ddi);
      const __m512d itr = _mm512_xor_pd(_mm512_sub_pd(cci, ddi), conj_mask);
      const __m512d iti = _mm512_xor_pd(_mm512_sub_pd(ccr, ddr), rot_mask);
      Io::store(re + ia, _mm512_add_pd(a1r, sr));
      Io::store(im + ia, _mm512_add_pd(a1i, si));
      Io::store(re + ic, _mm512_sub_pd(a1r, sr));
      Io::store(im + ic, _mm512_sub_pd(a1i, si));
      Io::store(re + ib, _mm512_add_pd(b1r, itr));
      Io::store(im + ib, _mm512_add_pd(b1i, iti));
      Io::store(re + id, _mm512_sub_pd(b1r, itr));
      Io::store(im + id, _mm512_sub_pd(b1i, iti));
    }
  }
}

/// The h = 4 stage widened to 512 bits: two butterfly groups (32 elements
/// per array) per iteration, gathered and scattered with cross-lane
/// vpermt2pd. Multiplies and adds only — no FMA — so every lane evaluates
/// exactly the expression the AVX2/scalar h = 4 stage evaluates and the
/// result is bit-identical to them. The small-transform stages dominate
/// the many narrow convolutions of a descent, which is why this one gets
/// its own kernel.
void radix4_h4(double* re, double* im, std::size_t n, const double* wsoa,
               bool inverse) {
  const __m512d conj_mask =
      inverse ? _mm512_set1_pd(-0.0) : _mm512_setzero_pd();
  const __m512d rot_mask =
      inverse ? _mm512_setzero_pd() : _mm512_set1_pd(-0.0);
  const auto bcast4 = [](const double* p) {
    return _mm512_broadcast_f64x4(_mm256_loadu_pd(p));
  };
  // Six 4-element twiddle arrays, each broadcast to both 256-bit halves.
  const __m512d w1r = bcast4(wsoa);
  const __m512d w1i = _mm512_xor_pd(bcast4(wsoa + 4), conj_mask);
  const __m512d w2r = bcast4(wsoa + 8);
  const __m512d w2i = _mm512_xor_pd(bcast4(wsoa + 12), conj_mask);
  const __m512d w3r = bcast4(wsoa + 16);
  const __m512d w3i = _mm512_xor_pd(bcast4(wsoa + 20), conj_mask);
  const __m512i lo_idx = idx8(0, 1, 2, 3, 8, 9, 10, 11);
  const __m512i hi_idx = idx8(4, 5, 6, 7, 12, 13, 14, 15);
  std::size_t base = 0;
  for (; base + 32 <= n; base += 32) {
    // [a0..3 b0..3 c0..3 d0..3] x 2 groups -> per-operand registers
    // [x(g1) | x(g2)].
    const auto gather = [&](const double* p, __m512d& a, __m512d& b,
                            __m512d& c, __m512d& d) {
      const __m512d v0 = _mm512_loadu_pd(p);
      const __m512d v1 = _mm512_loadu_pd(p + 8);
      const __m512d v2 = _mm512_loadu_pd(p + 16);
      const __m512d v3 = _mm512_loadu_pd(p + 24);
      a = _mm512_permutex2var_pd(v0, lo_idx, v2);
      b = _mm512_permutex2var_pd(v0, hi_idx, v2);
      c = _mm512_permutex2var_pd(v1, lo_idx, v3);
      d = _mm512_permutex2var_pd(v1, hi_idx, v3);
    };
    __m512d ar, br, cr, dr, ai, bi, ci, di;
    gather(re + base, ar, br, cr, dr);
    gather(im + base, ai, bi, ci, di);
    // bb = b W^2j, cc = c W^j, dd = d W^3j — the AVX2 mul/add chain.
    const __m512d bbr = _mm512_sub_pd(_mm512_mul_pd(br, w2r),
                                      _mm512_mul_pd(bi, w2i));
    const __m512d bbi = _mm512_add_pd(_mm512_mul_pd(br, w2i),
                                      _mm512_mul_pd(bi, w2r));
    const __m512d ccr = _mm512_sub_pd(_mm512_mul_pd(cr, w1r),
                                      _mm512_mul_pd(ci, w1i));
    const __m512d cci = _mm512_add_pd(_mm512_mul_pd(cr, w1i),
                                      _mm512_mul_pd(ci, w1r));
    const __m512d ddr = _mm512_sub_pd(_mm512_mul_pd(dr, w3r),
                                      _mm512_mul_pd(di, w3i));
    const __m512d ddi = _mm512_add_pd(_mm512_mul_pd(dr, w3i),
                                      _mm512_mul_pd(di, w3r));
    const __m512d a1r = _mm512_add_pd(ar, bbr);
    const __m512d a1i = _mm512_add_pd(ai, bbi);
    const __m512d b1r = _mm512_sub_pd(ar, bbr);
    const __m512d b1i = _mm512_sub_pd(ai, bbi);
    const __m512d sr = _mm512_add_pd(ccr, ddr);
    const __m512d si = _mm512_add_pd(cci, ddi);
    const __m512d itr = _mm512_xor_pd(_mm512_sub_pd(cci, ddi), conj_mask);
    const __m512d iti = _mm512_xor_pd(_mm512_sub_pd(ccr, ddr), rot_mask);
    const auto scatter = [&](double* p, __m512d oa, __m512d ob, __m512d oc,
                             __m512d od) {
      _mm512_storeu_pd(p, _mm512_permutex2var_pd(oa, lo_idx, ob));
      _mm512_storeu_pd(p + 8, _mm512_permutex2var_pd(oc, lo_idx, od));
      _mm512_storeu_pd(p + 16, _mm512_permutex2var_pd(oa, hi_idx, ob));
      _mm512_storeu_pd(p + 24, _mm512_permutex2var_pd(oc, hi_idx, od));
    };
    scatter(re + base, _mm512_add_pd(a1r, sr), _mm512_add_pd(b1r, itr),
            _mm512_sub_pd(a1r, sr), _mm512_sub_pd(b1r, itr));
    scatter(im + base, _mm512_add_pd(a1i, si), _mm512_add_pd(b1i, iti),
            _mm512_sub_pd(a1i, si), _mm512_sub_pd(b1i, iti));
  }
  if (base < n) {  // odd trailing group (n a multiple of 16, not 32)
    avx2_impl::radix4_pass(re + base, im + base, n - base, 4, wsoa, inverse);
  }
}

/// The h = 2 stage (odd-log2 transforms) widened to 512 bits: four 8-element
/// butterfly groups per iteration. Two vpermt2pd's pack the (a, b) halves of
/// two groups into one register and vshuff64x2 merges four groups into full
/// 8-wide operands; twiddles broadcast as [w(0), w(1)] x 4. Multiplies and
/// adds only (no FMA) — bit-identical to the AVX2/scalar stage.
void radix4_h2(double* re, double* im, std::size_t n, const double* wsoa,
               bool inverse) {
  const __m512d conj_mask =
      inverse ? _mm512_set1_pd(-0.0) : _mm512_setzero_pd();
  const __m512d rot_mask =
      inverse ? _mm512_setzero_pd() : _mm512_set1_pd(-0.0);
  const auto bcast2 = [](const double* p) {
    return _mm512_broadcast_f64x2(_mm_loadu_pd(p));
  };
  const __m512d w1r = bcast2(wsoa);
  const __m512d w1i = _mm512_xor_pd(bcast2(wsoa + 2), conj_mask);
  const __m512d w2r = bcast2(wsoa + 4);
  const __m512d w2i = _mm512_xor_pd(bcast2(wsoa + 6), conj_mask);
  const __m512d w3r = bcast2(wsoa + 8);
  const __m512d w3i = _mm512_xor_pd(bcast2(wsoa + 10), conj_mask);
  // [a0 a1 b0 b1 | a0' a1' b0' b1'] packers for two 8-element groups.
  const __m512i ab_idx = idx8(0, 1, 8, 9, 2, 3, 10, 11);
  const __m512i cd_idx = idx8(4, 5, 12, 13, 6, 7, 14, 15);
  std::size_t base = 0;
  for (; base + 32 <= n; base += 32) {
    const auto gather = [&](const double* p, __m512d& a, __m512d& b,
                            __m512d& c, __m512d& d) {
      const __m512d v0 = _mm512_loadu_pd(p);
      const __m512d v1 = _mm512_loadu_pd(p + 8);
      const __m512d v2 = _mm512_loadu_pd(p + 16);
      const __m512d v3 = _mm512_loadu_pd(p + 24);
      const __m512d ab01 = _mm512_permutex2var_pd(v0, ab_idx, v1);
      const __m512d ab23 = _mm512_permutex2var_pd(v2, ab_idx, v3);
      const __m512d cd01 = _mm512_permutex2var_pd(v0, cd_idx, v1);
      const __m512d cd23 = _mm512_permutex2var_pd(v2, cd_idx, v3);
      a = _mm512_shuffle_f64x2(ab01, ab23, 0x44);  // low 256s: a-halves
      b = _mm512_shuffle_f64x2(ab01, ab23, 0xEE);  // high 256s: b-halves
      c = _mm512_shuffle_f64x2(cd01, cd23, 0x44);
      d = _mm512_shuffle_f64x2(cd01, cd23, 0xEE);
    };
    __m512d ar, br, cr, dr, ai, bi, ci, di;
    gather(re + base, ar, br, cr, dr);
    gather(im + base, ai, bi, ci, di);
    const __m512d bbr = _mm512_sub_pd(_mm512_mul_pd(br, w2r),
                                      _mm512_mul_pd(bi, w2i));
    const __m512d bbi = _mm512_add_pd(_mm512_mul_pd(br, w2i),
                                      _mm512_mul_pd(bi, w2r));
    const __m512d ccr = _mm512_sub_pd(_mm512_mul_pd(cr, w1r),
                                      _mm512_mul_pd(ci, w1i));
    const __m512d cci = _mm512_add_pd(_mm512_mul_pd(cr, w1i),
                                      _mm512_mul_pd(ci, w1r));
    const __m512d ddr = _mm512_sub_pd(_mm512_mul_pd(dr, w3r),
                                      _mm512_mul_pd(di, w3i));
    const __m512d ddi = _mm512_add_pd(_mm512_mul_pd(dr, w3i),
                                      _mm512_mul_pd(di, w3r));
    const __m512d a1r = _mm512_add_pd(ar, bbr);
    const __m512d a1i = _mm512_add_pd(ai, bbi);
    const __m512d b1r = _mm512_sub_pd(ar, bbr);
    const __m512d b1i = _mm512_sub_pd(ai, bbi);
    const __m512d sr = _mm512_add_pd(ccr, ddr);
    const __m512d si = _mm512_add_pd(cci, ddi);
    const __m512d itr = _mm512_xor_pd(_mm512_sub_pd(cci, ddi), conj_mask);
    const __m512d iti = _mm512_xor_pd(_mm512_sub_pd(ccr, ddr), rot_mask);
    const auto scatter = [&](double* p, __m512d oa, __m512d ob, __m512d oc,
                             __m512d od) {
      const __m512d ab01 = _mm512_shuffle_f64x2(oa, ob, 0x44);
      const __m512d ab23 = _mm512_shuffle_f64x2(oa, ob, 0xEE);
      const __m512d cd01 = _mm512_shuffle_f64x2(oc, od, 0x44);
      const __m512d cd23 = _mm512_shuffle_f64x2(oc, od, 0xEE);
      // ab01 = [a(g1) a(g2) b(g1) b(g2)] pairs -> regroup per group.
      const __m512i g0_idx = idx8(0, 1, 4, 5, 8, 9, 12, 13);
      const __m512i g1_idx = idx8(2, 3, 6, 7, 10, 11, 14, 15);
      _mm512_storeu_pd(p, _mm512_permutex2var_pd(ab01, g0_idx, cd01));
      _mm512_storeu_pd(p + 8, _mm512_permutex2var_pd(ab01, g1_idx, cd01));
      _mm512_storeu_pd(p + 16, _mm512_permutex2var_pd(ab23, g0_idx, cd23));
      _mm512_storeu_pd(p + 24, _mm512_permutex2var_pd(ab23, g1_idx, cd23));
    };
    scatter(re + base, _mm512_add_pd(a1r, sr), _mm512_add_pd(b1r, itr),
            _mm512_sub_pd(a1r, sr), _mm512_sub_pd(b1r, itr));
    scatter(im + base, _mm512_add_pd(a1i, si), _mm512_add_pd(b1i, iti),
            _mm512_sub_pd(a1i, si), _mm512_sub_pd(b1i, iti));
  }
  if (base < n) {  // trailing groups (n a multiple of 8, not 32)
    avx2_impl::radix4_pass(re + base, im + base, n - base, 2, wsoa, inverse);
  }
}

void radix4_pass(double* re, double* im, std::size_t n, std::size_t h,
                 const double* wsoa, bool inverse) {
  if (h == 4) {
    radix4_h4(re, im, n, wsoa, inverse);
    return;
  }
  if (h == 2) {
    radix4_h2(re, im, n, wsoa, inverse);
    return;
  }
  if (h < 8) {
    // h < 2 bottoms out in the scalar loop inside the AVX2 entry.
    avx2_impl::radix4_pass(re, im, n, h, wsoa, inverse);
    return;
  }
  const bool aligned = aligned64(re) && aligned64(im);
  if (h >= kComputeTwiddleH) {
    if (aligned) {
      radix4_vec<IoAligned, true>(re, im, n, h, wsoa, inverse);
    } else {
      radix4_vec<IoUnaligned, true>(re, im, n, h, wsoa, inverse);
    }
  } else if (aligned) {
    radix4_vec<IoAligned, false>(re, im, n, h, wsoa, inverse);
  } else {
    radix4_vec<IoUnaligned, false>(re, im, n, h, wsoa, inverse);
  }
}

}  // namespace avx512_impl

namespace tables {

const Kernels avx512 = {
    avx512_impl::cmul,         avx512_impl::csquare,
    avx512_impl::correlate_taps, avx512_impl::correlate_taps_2row,
    avx512_impl::deinterleave, avx512_impl::interleave,
    avx512_impl::interleave_scaled,
    avx512_impl::deinterleave_rev,
    avx512_impl::scale2,       avx512_impl::radix2_pass,
    avx512_impl::radix4_pass,  avx512_impl::rfft_untangle,
    avx512_impl::rfft_retangle,
    avx512_impl::bs_dpm,       avx512_impl::norm_cdf,
};

}  // namespace tables

}  // namespace amopt::simd
