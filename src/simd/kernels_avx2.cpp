// AVX2 kernel table: 4 doubles (2 complex) per 256-bit lane. Compiled with
// -mavx2 only (no -mfma), so the compiler cannot contract the multiply-add
// chains — every lane evaluates exactly the scalar table's expression, and
// divergence from the scalar level stays at the level of reassociation the
// scalar compiler itself may apply (see DESIGN.md §4 for the documented
// cross-path tolerance).
//
// Each kernel picks aligned (unmasked) loads when its operands sit on their
// natural 32-byte boundary — true for everything reached through the
// FFT's plan tables and 64-byte-aligned core::ScratchStack spans — and
// transparently falls back to unaligned loads otherwise, so callers may
// pass arbitrary pointers (exercised by tests/test_simd.cpp).

#include <immintrin.h>

#include <cstdint>

#include "kernels_internal.hpp"

namespace amopt::simd {

namespace avx2_impl {

// Everything here lives at avx2_impl scope (not an anonymous namespace):
// the kernel entry points are declared in kernels_internal.hpp so the
// AVX-512 table can share the shuffle-bound ones.

[[nodiscard]] inline bool aligned32(const void* p) noexcept {
  return (reinterpret_cast<std::uintptr_t>(p) & 31u) == 0;
}

struct IoAligned {
  static __m256d load(const double* p) noexcept { return _mm256_load_pd(p); }
  static void store(double* p, __m256d v) noexcept { _mm256_store_pd(p, v); }
};
struct IoUnaligned {
  static __m256d load(const double* p) noexcept { return _mm256_loadu_pd(p); }
  static void store(double* p, __m256d v) noexcept { _mm256_storeu_pd(p, v); }
};

// ------------------------------------------------------------------ cmul

template <class Io>
void cmul_vec(double* a, const double* b, std::size_t pairs) {
  // Two complex per register: a = [ar0, ai0, ar1, ai1].
  for (std::size_t k = 0; k + 2 <= pairs; k += 2) {
    const __m256d va = Io::load(a + 2 * k);
    const __m256d vb = Io::load(b + 2 * k);
    const __m256d bre = _mm256_movedup_pd(vb);       // [br, br, ...]
    const __m256d bim = _mm256_permute_pd(vb, 0xF);  // [bi, bi, ...]
    const __m256d asw = _mm256_permute_pd(va, 0x5);  // [ai, ar, ...]
    const __m256d t1 = _mm256_mul_pd(va, bre);       // [ar*br, ai*br]
    const __m256d t2 = _mm256_mul_pd(asw, bim);      // [ai*bi, ar*bi]
    Io::store(a + 2 * k, _mm256_addsub_pd(t1, t2));
  }
}

void cmul(cplx* a, const cplx* b, std::size_t n) {
  auto* ad = reinterpret_cast<double*>(a);
  const auto* bd = reinterpret_cast<const double*>(b);
  if (aligned32(ad) && aligned32(bd)) {
    cmul_vec<IoAligned>(ad, bd, n & ~std::size_t{1});
  } else {
    cmul_vec<IoUnaligned>(ad, bd, n & ~std::size_t{1});
  }
  for (std::size_t k = n & ~std::size_t{1}; k < n; ++k) a[k] *= b[k];
}

template <class Io>
void csquare_vec(double* a, std::size_t pairs) {
  // cmul_vec with both factors read from the one load: same shuffles, same
  // multiply/addsub sequence, so the result matches cmul(a, a) lane for lane.
  for (std::size_t k = 0; k + 2 <= pairs; k += 2) {
    const __m256d va = Io::load(a + 2 * k);
    const __m256d bre = _mm256_movedup_pd(va);
    const __m256d bim = _mm256_permute_pd(va, 0xF);
    const __m256d asw = _mm256_permute_pd(va, 0x5);
    const __m256d t1 = _mm256_mul_pd(va, bre);
    const __m256d t2 = _mm256_mul_pd(asw, bim);
    Io::store(a + 2 * k, _mm256_addsub_pd(t1, t2));
  }
}

void csquare(cplx* a, std::size_t n) {
  auto* ad = reinterpret_cast<double*>(a);
  if (aligned32(ad)) {
    csquare_vec<IoAligned>(ad, n & ~std::size_t{1});
  } else {
    csquare_vec<IoUnaligned>(ad, n & ~std::size_t{1});
  }
  for (std::size_t k = n & ~std::size_t{1}; k < n; ++k) a[k] *= a[k];
}

// ------------------------------------------- small-tap correlation sweeps

void correlate_taps(const double* in, const double* taps, std::size_t ntaps,
                    double* out, std::size_t n) {
  std::size_t j = 0;
  // The shifted input loads are unaligned by construction (offset m), so
  // this kernel is uniformly unaligned; only the store could ever be
  // aligned and splitting that case is not worth a second loop.
  for (; j + 4 <= n; j += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t m = 0; m < ntaps; ++m) {
      const __m256d t = _mm256_set1_pd(taps[m]);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(t, _mm256_loadu_pd(in + j + m)));
    }
    _mm256_storeu_pd(out + j, acc);
  }
  for (; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t m = 0; m < ntaps; ++m) acc += taps[m] * in[j + m];
    out[j] = acc;
  }
}

namespace {
/// The 4-wide body of `correlate_taps` over [j0, j1) (same mul/add chain —
/// this TU builds without FMA, so each lane is the scalar expression).
inline void taps_sweep_range(const double* in, const double* taps,
                             std::size_t ntaps, double* out, std::size_t j0,
                             std::size_t j1) {
  std::size_t j = j0;
  for (; j + 4 <= j1; j += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t m = 0; m < ntaps; ++m) {
      const __m256d t = _mm256_set1_pd(taps[m]);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(t, _mm256_loadu_pd(in + j + m)));
    }
    _mm256_storeu_pd(out + j, acc);
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
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d base =
        _mm256_mul_pd(_mm256_add_pd(_mm256_loadu_pd(logz + i),
                                    _mm256_loadu_pd(drift_t + i)),
                      _mm256_loadu_pd(inv_vs + i));
    const __m256d h = _mm256_loadu_pd(half_vs + i);
    _mm256_storeu_pd(dp + i, _mm256_add_pd(base, h));
    _mm256_storeu_pd(dm + i, _mm256_sub_pd(base, h));
  }
  for (; i < n; ++i) {
    const double base = (logz[i] + drift_t[i]) * inv_vs[i];
    dp[i] = base + half_vs[i];
    dm[i] = base - half_vs[i];
  }
}

void norm_cdf(const double* x, double* out, std::size_t n) {
  namespace pd = phi_detail;
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d half = _mm256_set1_pd(0.5);
  std::size_t i = 0;
  // Each step is the mul/add/div sequence of phi_detail::phi_reference; no
  // FMA in this TU, so every lane carries the scalar bits.
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d z = _mm256_mul_pd(_mm256_andnot_pd(sign_mask, vx),
                                    _mm256_set1_pd(pd::kInvSqrt2));
    const __m256d t = _mm256_div_pd(
        one, _mm256_add_pd(one, _mm256_mul_pd(_mm256_set1_pd(pd::kP), z)));
    __m256d poly = _mm256_set1_pd(pd::kA5);
    poly = _mm256_add_pd(_mm256_mul_pd(poly, t), _mm256_set1_pd(pd::kA4));
    poly = _mm256_add_pd(_mm256_mul_pd(poly, t), _mm256_set1_pd(pd::kA3));
    poly = _mm256_add_pd(_mm256_mul_pd(poly, t), _mm256_set1_pd(pd::kA2));
    poly = _mm256_add_pd(_mm256_mul_pd(poly, t), _mm256_set1_pd(pd::kA1));
    poly = _mm256_mul_pd(poly, t);
    // exp(-z^2), range-reduced: y = k ln2 + r, e^y = 2^k P(r).
    const __m256d y = _mm256_max_pd(
        _mm256_xor_pd(_mm256_mul_pd(z, z), sign_mask),
        _mm256_set1_pd(pd::kExpFloor));
    const __m256d k = _mm256_round_pd(
        _mm256_mul_pd(y, _mm256_set1_pd(pd::kLog2E)),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m256d r = _mm256_sub_pd(
        _mm256_sub_pd(y, _mm256_mul_pd(k, _mm256_set1_pd(pd::kLn2Hi))),
        _mm256_mul_pd(k, _mm256_set1_pd(pd::kLn2Lo)));
    __m256d p = _mm256_set1_pd(pd::kC[11]);
    for (int c = 10; c >= 0; --c)
      p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(pd::kC[c]));
    const __m256i kq = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(k));
    const __m256i bits = _mm256_slli_epi64(
        _mm256_add_epi64(kq, _mm256_set1_epi64x(1023)), 52);
    const __m256d e = _mm256_mul_pd(p, _mm256_castsi256_pd(bits));
    const __m256d tail = _mm256_mul_pd(_mm256_mul_pd(half, poly), e);
    const __m256d ge = _mm256_cmp_pd(vx, _mm256_setzero_pd(), _CMP_GE_OQ);
    _mm256_storeu_pd(out + i,
                     _mm256_blendv_pd(tail, _mm256_sub_pd(one, tail), ge));
  }
  for (; i < n; ++i) out[i] = pd::phi_reference(x[i]);
}

// ------------------------------------------------- SoA layout conversions

template <class Io>
void deinterleave_vec(const double* z, double* re, double* im,
                      std::size_t quads) {
  for (std::size_t i = 0; i + 4 <= quads * 4; i += 4) {
    const __m256d z0 = Io::load(z + 2 * i);      // [r0, i0, r1, i1]
    const __m256d z1 = Io::load(z + 2 * i + 4);  // [r2, i2, r3, i3]
    const __m256d t0 = _mm256_permute2f128_pd(z0, z1, 0x20);  // [r0,i0,r2,i2]
    const __m256d t1 = _mm256_permute2f128_pd(z0, z1, 0x31);  // [r1,i1,r3,i3]
    Io::store(re + i, _mm256_unpacklo_pd(t0, t1));
    Io::store(im + i, _mm256_unpackhi_pd(t0, t1));
  }
}

void deinterleave(const cplx* z, double* re, double* im, std::size_t n) {
  const auto* zd = reinterpret_cast<const double*>(z);
  const std::size_t nv = n & ~std::size_t{3};
  if (aligned32(zd) && aligned32(re) && aligned32(im)) {
    deinterleave_vec<IoAligned>(zd, re, im, nv / 4);
  } else {
    deinterleave_vec<IoUnaligned>(zd, re, im, nv / 4);
  }
  for (std::size_t i = nv; i < n; ++i) {
    re[i] = z[i].real();
    im[i] = z[i].imag();
  }
}

template <class Io>
void interleave_vec(const double* re, const double* im, double* z,
                    std::size_t quads) {
  for (std::size_t i = 0; i + 4 <= quads * 4; i += 4) {
    const __m256d vr = Io::load(re + i);
    const __m256d vi = Io::load(im + i);
    const __m256d t0 = _mm256_unpacklo_pd(vr, vi);  // [r0, i0, r2, i2]
    const __m256d t1 = _mm256_unpackhi_pd(vr, vi);  // [r1, i1, r3, i3]
    Io::store(z + 2 * i, _mm256_permute2f128_pd(t0, t1, 0x20));
    Io::store(z + 2 * i + 4, _mm256_permute2f128_pd(t0, t1, 0x31));
  }
}

void interleave(const double* re, const double* im, cplx* z, std::size_t n) {
  auto* zd = reinterpret_cast<double*>(z);
  const std::size_t nv = n & ~std::size_t{3};
  if (aligned32(zd) && aligned32(re) && aligned32(im)) {
    interleave_vec<IoAligned>(re, im, zd, nv / 4);
  } else {
    interleave_vec<IoUnaligned>(re, im, zd, nv / 4);
  }
  for (std::size_t i = nv; i < n; ++i) z[i] = cplx{re[i], im[i]};
}

template <class Io>
void interleave_scaled_vec(const double* re, const double* im, double* z,
                           std::size_t quads, double s) {
  const __m256d vs = _mm256_set1_pd(s);
  for (std::size_t i = 0; i + 4 <= quads * 4; i += 4) {
    const __m256d vr = _mm256_mul_pd(Io::load(re + i), vs);
    const __m256d vi = _mm256_mul_pd(Io::load(im + i), vs);
    const __m256d t0 = _mm256_unpacklo_pd(vr, vi);
    const __m256d t1 = _mm256_unpackhi_pd(vr, vi);
    Io::store(z + 2 * i, _mm256_permute2f128_pd(t0, t1, 0x20));
    Io::store(z + 2 * i + 4, _mm256_permute2f128_pd(t0, t1, 0x31));
  }
}

void interleave_scaled(const double* re, const double* im, cplx* z,
                       std::size_t n, double s) {
  auto* zd = reinterpret_cast<double*>(z);
  const std::size_t nv = n & ~std::size_t{3};
  if (aligned32(zd) && aligned32(re) && aligned32(im)) {
    interleave_scaled_vec<IoAligned>(re, im, zd, nv / 4, s);
  } else {
    interleave_scaled_vec<IoUnaligned>(re, im, zd, nv / 4, s);
  }
  for (std::size_t i = nv; i < n; ++i) z[i] = cplx{re[i] * s, im[i] * s};
}

void deinterleave_rev(const cplx* z, const std::uint32_t* rev, double* re,
                      double* im, std::size_t n) {
  const auto* zd = reinterpret_cast<const double*>(z);
  std::size_t i = 0;
  // Hardware gathers win while the permuted source stays cache-resident;
  // once it spills past L2 every gathered lane is an independent miss and
  // the plain scalar loop (which the prefetcher can at least overlap) is
  // faster — measured crossover around 2^14 complex on AVX2 hosts.
  if (n > (std::size_t{1} << 14)) {
    for (; i < n; ++i) {
      const cplx v = z[rev[i]];
      re[i] = v.real();
      im[i] = v.imag();
    }
    return;
  }
  // Gathered loads turn the bit-reversal's random reads into 4-wide
  // hardware gathers; the sequential stores are plain vector stores.
  for (; i + 4 <= n; i += 4) {
    __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rev + i));
    idx = _mm_slli_epi32(idx, 1);  // element r lives at double offset 2r
    _mm256_storeu_pd(re + i, _mm256_i32gather_pd(zd, idx, 8));
    _mm256_storeu_pd(im + i, _mm256_i32gather_pd(zd + 1, idx, 8));
  }
  for (; i < n; ++i) {
    const cplx v = z[rev[i]];
    re[i] = v.real();
    im[i] = v.imag();
  }
}

void scale2(double* re, double* im, std::size_t n, double s) {
  const __m256d vs = _mm256_set1_pd(s);
  for (double* p : {re, im}) {
    std::size_t i = 0;
    if (aligned32(p)) {
      for (; i + 4 <= n; i += 4)
        _mm256_store_pd(p + i, _mm256_mul_pd(_mm256_load_pd(p + i), vs));
    } else {
      for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(p + i, _mm256_mul_pd(_mm256_loadu_pd(p + i), vs));
    }
    for (; i < n; ++i) p[i] *= s;
  }
}

// ------------------------------------------------------------ FFT stages

template <class Io>
void radix2_vec(double* p, std::size_t n) {
  // Butterflies live on (even, odd) element pairs inside one array.
  for (std::size_t base = 0; base + 4 <= n; base += 4) {
    const __m256d v = Io::load(p + base);            // [x0, x1, x2, x3]
    const __m256d sw = _mm256_permute_pd(v, 0x5);    // [x1, x0, x3, x2]
    const __m256d sum = _mm256_add_pd(v, sw);        // [.., x0+x1, ..]
    const __m256d dif = _mm256_sub_pd(sw, v);        // [.., x0-x1, ..]
    Io::store(p + base, _mm256_blend_pd(sum, dif, 0xA));
  }
}

void radix2_pass(double* re, double* im, std::size_t n) {
  const std::size_t nv = n & ~std::size_t{3};
  for (double* p : {re, im}) {
    if (aligned32(p)) {
      radix2_vec<IoAligned>(p, nv);
    } else {
      radix2_vec<IoUnaligned>(p, nv);
    }
    for (std::size_t base = nv; base < n; base += 2) {
      const double t = p[base + 1];
      p[base + 1] = p[base] - t;
      p[base] += t;
    }
  }
}

// Above this half-size one stage's SoA twiddle block (48h bytes) no longer
// sits in L1/L2, so streaming it costs as much as the data itself; compute
// W^2j, W^3j from W^j in registers instead (ComputeW) — a few extra
// multiplies against four cold-memory loads per butterfly. This TU has no
// FMA, so the in-register powers cost 16 multiplies per lane group and the
// crossover stays high; the AVX-512 table (FMA) switches earlier.
constexpr std::size_t kComputeTwiddleH = 2048;

template <class Io, bool ComputeW>
void radix4_vec(double* re, double* im, std::size_t n, std::size_t h,
                const double* wsoa, bool inverse) {
  const double* w1re = wsoa;
  const double* w1im = wsoa + h;
  const double* w2re = wsoa + 2 * h;
  const double* w2im = wsoa + 3 * h;
  const double* w3re = wsoa + 4 * h;
  const double* w3im = wsoa + 5 * h;
  // Twiddle conjugation (inverse) = sign flip on the imaginary halves; the
  // same mask also selects the +/- i rotation direction below.
  const __m256d conj_mask =
      inverse ? _mm256_set1_pd(-0.0) : _mm256_setzero_pd();
  const __m256d rot_mask =
      inverse ? _mm256_setzero_pd() : _mm256_set1_pd(-0.0);
  const std::size_t step = 4 * h;
  for (std::size_t base = 0; base < n; base += step) {
    for (std::size_t j = 0; j < h; j += 4) {
      const std::size_t ia = base + j;
      const std::size_t ib = ia + h;
      const std::size_t ic = ia + 2 * h;
      const std::size_t id = ia + 3 * h;
      const __m256d w1r = _mm256_loadu_pd(w1re + j);
      const __m256d w1i = _mm256_xor_pd(_mm256_loadu_pd(w1im + j), conj_mask);
      __m256d w2r, w2i, w3r, w3i;
      if constexpr (ComputeW) {
        // W^2 = W*W, W^3 = W^2*W (conjugation is multiplicative, so the
        // already-conjugated w1 yields conjugated powers on the inverse).
        w2r = _mm256_sub_pd(_mm256_mul_pd(w1r, w1r),
                            _mm256_mul_pd(w1i, w1i));
        w2i = _mm256_add_pd(_mm256_mul_pd(w1r, w1i),
                            _mm256_mul_pd(w1i, w1r));
        w3r = _mm256_sub_pd(_mm256_mul_pd(w2r, w1r),
                            _mm256_mul_pd(w2i, w1i));
        w3i = _mm256_add_pd(_mm256_mul_pd(w2r, w1i),
                            _mm256_mul_pd(w2i, w1r));
      } else {
        w2r = _mm256_loadu_pd(w2re + j);
        w2i = _mm256_xor_pd(_mm256_loadu_pd(w2im + j), conj_mask);
        w3r = _mm256_loadu_pd(w3re + j);
        w3i = _mm256_xor_pd(_mm256_loadu_pd(w3im + j), conj_mask);
      }
      const __m256d ar = Io::load(re + ia), ai = Io::load(im + ia);
      const __m256d br = Io::load(re + ib), bi = Io::load(im + ib);
      const __m256d cr = Io::load(re + ic), ci = Io::load(im + ic);
      const __m256d dr = Io::load(re + id), di = Io::load(im + id);
      // bb = b W^2j, cc = c W^j, dd = d W^3j
      const __m256d bbr = _mm256_sub_pd(_mm256_mul_pd(br, w2r),
                                        _mm256_mul_pd(bi, w2i));
      const __m256d bbi = _mm256_add_pd(_mm256_mul_pd(br, w2i),
                                        _mm256_mul_pd(bi, w2r));
      const __m256d ccr = _mm256_sub_pd(_mm256_mul_pd(cr, w1r),
                                        _mm256_mul_pd(ci, w1i));
      const __m256d cci = _mm256_add_pd(_mm256_mul_pd(cr, w1i),
                                        _mm256_mul_pd(ci, w1r));
      const __m256d ddr = _mm256_sub_pd(_mm256_mul_pd(dr, w3r),
                                        _mm256_mul_pd(di, w3i));
      const __m256d ddi = _mm256_add_pd(_mm256_mul_pd(dr, w3i),
                                        _mm256_mul_pd(di, w3r));
      const __m256d a1r = _mm256_add_pd(ar, bbr);
      const __m256d a1i = _mm256_add_pd(ai, bbi);
      const __m256d b1r = _mm256_sub_pd(ar, bbr);
      const __m256d b1i = _mm256_sub_pd(ai, bbi);
      const __m256d sr = _mm256_add_pd(ccr, ddr);
      const __m256d si = _mm256_add_pd(cci, ddi);
      // it = -i(cc - dd) forward, +i(cc - dd) inverse
      const __m256d itr = _mm256_xor_pd(_mm256_sub_pd(cci, ddi), conj_mask);
      const __m256d iti = _mm256_xor_pd(_mm256_sub_pd(ccr, ddr), rot_mask);
      Io::store(re + ia, _mm256_add_pd(a1r, sr));
      Io::store(im + ia, _mm256_add_pd(a1i, si));
      Io::store(re + ic, _mm256_sub_pd(a1r, sr));
      Io::store(im + ic, _mm256_sub_pd(a1i, si));
      Io::store(re + ib, _mm256_add_pd(b1r, itr));
      Io::store(im + ib, _mm256_add_pd(b1i, iti));
      Io::store(re + id, _mm256_sub_pd(b1r, itr));
      Io::store(im + id, _mm256_sub_pd(b1i, iti));
    }
  }
}

/// 4x4 in-register transpose: rows r0..r3 -> columns c0..c3.
inline void transpose4(__m256d r0, __m256d r1, __m256d r2, __m256d r3,
                       __m256d& c0, __m256d& c1, __m256d& c2, __m256d& c3) {
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  c0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  c1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  c2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  c3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// The h = 1 stage (unit twiddles, butterflies on 4 consecutive elements):
/// transpose four blocks into SoA-of-blocks registers, butterfly
/// vertically, transpose back. This stage touches every element, so
/// leaving it scalar would cap the whole transform's speedup.
template <class Io>
void radix4_h1(double* re, double* im, std::size_t n, bool inverse) {
  const __m256d conj_mask =
      inverse ? _mm256_set1_pd(-0.0) : _mm256_setzero_pd();
  const __m256d rot_mask =
      inverse ? _mm256_setzero_pd() : _mm256_set1_pd(-0.0);
  std::size_t base = 0;
  for (; base + 16 <= n; base += 16) {
    __m256d ar, br, cr, dr, ai, bi, ci, di;
    transpose4(Io::load(re + base), Io::load(re + base + 4),
               Io::load(re + base + 8), Io::load(re + base + 12), ar, br, cr,
               dr);
    transpose4(Io::load(im + base), Io::load(im + base + 4),
               Io::load(im + base + 8), Io::load(im + base + 12), ai, bi, ci,
               di);
    const __m256d a1r = _mm256_add_pd(ar, br);
    const __m256d a1i = _mm256_add_pd(ai, bi);
    const __m256d b1r = _mm256_sub_pd(ar, br);
    const __m256d b1i = _mm256_sub_pd(ai, bi);
    const __m256d sr = _mm256_add_pd(cr, dr);
    const __m256d si = _mm256_add_pd(ci, di);
    const __m256d itr = _mm256_xor_pd(_mm256_sub_pd(ci, di), conj_mask);
    const __m256d iti = _mm256_xor_pd(_mm256_sub_pd(cr, dr), rot_mask);
    __m256d o0, o1, o2, o3;
    transpose4(_mm256_add_pd(a1r, sr), _mm256_add_pd(b1r, itr),
               _mm256_sub_pd(a1r, sr), _mm256_sub_pd(b1r, itr), o0, o1, o2,
               o3);
    Io::store(re + base, o0);
    Io::store(re + base + 4, o1);
    Io::store(re + base + 8, o2);
    Io::store(re + base + 12, o3);
    transpose4(_mm256_add_pd(a1i, si), _mm256_add_pd(b1i, iti),
               _mm256_sub_pd(a1i, si), _mm256_sub_pd(b1i, iti), o0, o1, o2,
               o3);
    Io::store(im + base, o0);
    Io::store(im + base + 4, o1);
    Io::store(im + base + 8, o2);
    Io::store(im + base + 12, o3);
  }
  if (base < n) {
    const double w_unit[6] = {1.0, 0.0, 1.0, 0.0, 1.0, 0.0};
    tables::scalar.radix4_pass(re + base, im + base, n - base, 1, w_unit,
                               inverse);
  }
}

/// The h = 2 stage (only present in odd-log2 transforms, after the leading
/// radix-2 stage): butterflies live on 8-element blocks with j in {0, 1}.
/// Two blocks are processed per iteration through a 2x4 half-transpose —
/// 128-bit lane permutes gather the j-pairs of both blocks into one
/// register, so the whole stage runs the ordinary 4-wide butterfly with a
/// [w(0), w(1), w(0), w(1)] twiddle broadcast and no unpack traffic.
template <class Io>
void radix4_h2(double* re, double* im, std::size_t n, const double* wsoa,
               bool inverse) {
  const __m256d conj_mask =
      inverse ? _mm256_set1_pd(-0.0) : _mm256_setzero_pd();
  const __m256d rot_mask =
      inverse ? _mm256_setzero_pd() : _mm256_set1_pd(-0.0);
  // Six 2-element twiddle arrays; each broadcasts to both 128-bit lanes.
  const auto bcast2 = [](const double* p) {
    return _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(p));
  };
  const __m256d w1r = bcast2(wsoa);
  const __m256d w1i = _mm256_xor_pd(bcast2(wsoa + 2), conj_mask);
  const __m256d w2r = bcast2(wsoa + 4);
  const __m256d w2i = _mm256_xor_pd(bcast2(wsoa + 6), conj_mask);
  const __m256d w3r = bcast2(wsoa + 8);
  const __m256d w3i = _mm256_xor_pd(bcast2(wsoa + 10), conj_mask);
  std::size_t base = 0;
  for (; base + 16 <= n; base += 16) {
    // Half-transpose: [a0 a1 b0 b1 | c0 c1 d0 d1] x 2 blocks into
    // per-operand registers [x0 x1 x0' x1'].
    const auto gather = [&](const double* p, __m256d& va, __m256d& vb,
                            __m256d& vc, __m256d& vd) {
      const __m256d r0 = Io::load(p);
      const __m256d r1 = Io::load(p + 4);
      const __m256d r2 = Io::load(p + 8);
      const __m256d r3 = Io::load(p + 12);
      va = _mm256_permute2f128_pd(r0, r2, 0x20);
      vb = _mm256_permute2f128_pd(r0, r2, 0x31);
      vc = _mm256_permute2f128_pd(r1, r3, 0x20);
      vd = _mm256_permute2f128_pd(r1, r3, 0x31);
    };
    __m256d ar, br, cr, dr, ai, bi, ci, di;
    gather(re + base, ar, br, cr, dr);
    gather(im + base, ai, bi, ci, di);
    const __m256d bbr = _mm256_sub_pd(_mm256_mul_pd(br, w2r),
                                      _mm256_mul_pd(bi, w2i));
    const __m256d bbi = _mm256_add_pd(_mm256_mul_pd(br, w2i),
                                      _mm256_mul_pd(bi, w2r));
    const __m256d ccr = _mm256_sub_pd(_mm256_mul_pd(cr, w1r),
                                      _mm256_mul_pd(ci, w1i));
    const __m256d cci = _mm256_add_pd(_mm256_mul_pd(cr, w1i),
                                      _mm256_mul_pd(ci, w1r));
    const __m256d ddr = _mm256_sub_pd(_mm256_mul_pd(dr, w3r),
                                      _mm256_mul_pd(di, w3i));
    const __m256d ddi = _mm256_add_pd(_mm256_mul_pd(dr, w3i),
                                      _mm256_mul_pd(di, w3r));
    const __m256d a1r = _mm256_add_pd(ar, bbr);
    const __m256d a1i = _mm256_add_pd(ai, bbi);
    const __m256d b1r = _mm256_sub_pd(ar, bbr);
    const __m256d b1i = _mm256_sub_pd(ai, bbi);
    const __m256d sr = _mm256_add_pd(ccr, ddr);
    const __m256d si = _mm256_add_pd(cci, ddi);
    const __m256d itr = _mm256_xor_pd(_mm256_sub_pd(cci, ddi), conj_mask);
    const __m256d iti = _mm256_xor_pd(_mm256_sub_pd(ccr, ddr), rot_mask);
    const auto scatter = [&](double* p, __m256d oa, __m256d ob, __m256d oc,
                             __m256d od) {
      Io::store(p, _mm256_permute2f128_pd(oa, ob, 0x20));
      Io::store(p + 4, _mm256_permute2f128_pd(oc, od, 0x20));
      Io::store(p + 8, _mm256_permute2f128_pd(oa, ob, 0x31));
      Io::store(p + 12, _mm256_permute2f128_pd(oc, od, 0x31));
    };
    scatter(re + base, _mm256_add_pd(a1r, sr), _mm256_add_pd(b1r, itr),
            _mm256_sub_pd(a1r, sr), _mm256_sub_pd(b1r, itr));
    scatter(im + base, _mm256_add_pd(a1i, si), _mm256_add_pd(b1i, iti),
            _mm256_sub_pd(a1i, si), _mm256_sub_pd(b1i, iti));
  }
  if (base < n) {  // odd trailing block (n a multiple of 8, not 16)
    tables::scalar.radix4_pass(re + base, im + base, n - base, 2, wsoa,
                               inverse);
  }
}

void radix4_pass(double* re, double* im, std::size_t n, std::size_t h,
                 const double* wsoa, bool inverse) {
  if (h == 1) {
    if (aligned32(re) && aligned32(im)) {
      radix4_h1<IoAligned>(re, im, n, inverse);
    } else {
      radix4_h1<IoUnaligned>(re, im, n, inverse);
    }
    return;
  }
  if (h == 2) {
    if (aligned32(re) && aligned32(im)) {
      radix4_h2<IoAligned>(re, im, n, wsoa, inverse);
    } else {
      radix4_h2<IoUnaligned>(re, im, n, wsoa, inverse);
    }
    return;
  }
  if (h < 4) {
    // h = 3 never occurs (half-sizes are powers of two); keep the scalar
    // fallback so the kernel stays total over its argument space.
    tables::scalar.radix4_pass(re, im, n, h, wsoa, inverse);
    return;
  }
  const bool aligned = aligned32(re) && aligned32(im);
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

// ----------------------------------------------- R2C / C2R pair twiddles

/// Load 4 interleaved complex (unaligned) and split.
inline void load_split(const double* p, __m256d& re, __m256d& im) {
  const __m256d z0 = _mm256_loadu_pd(p);
  const __m256d z1 = _mm256_loadu_pd(p + 4);
  const __m256d t0 = _mm256_permute2f128_pd(z0, z1, 0x20);
  const __m256d t1 = _mm256_permute2f128_pd(z0, z1, 0x31);
  re = _mm256_unpacklo_pd(t0, t1);
  im = _mm256_unpackhi_pd(t0, t1);
}

inline void store_join(double* p, __m256d re, __m256d im) {
  const __m256d t0 = _mm256_unpacklo_pd(re, im);
  const __m256d t1 = _mm256_unpackhi_pd(re, im);
  _mm256_storeu_pd(p, _mm256_permute2f128_pd(t0, t1, 0x20));
  _mm256_storeu_pd(p + 4, _mm256_permute2f128_pd(t0, t1, 0x31));
}

inline __m256d reverse_lanes(__m256d v) {
  return _mm256_permute4x64_pd(v, _MM_SHUFFLE(0, 1, 2, 3));
}

void rfft_untangle(cplx* spec, const cplx* tw, std::size_t m) {
  auto* sd = reinterpret_cast<double*>(spec);
  const auto* td = reinterpret_cast<const double*>(tw);
  const __m256d half = _mm256_set1_pd(0.5);
  std::size_t k = 1, j = m - 1;
  for (; k + 7 <= j; k += 4, j -= 4) {
    __m256d kr, ki, jr, ji, twr, twi;
    load_split(sd + 2 * k, kr, ki);
    load_split(sd + 2 * (j - 3), jr, ji);
    jr = reverse_lanes(jr);  // lane l now holds index j - l
    ji = reverse_lanes(ji);
    load_split(td + 2 * k, twr, twi);
    // xe = (Z[k] + conj(Z[j]))/2, xo = (Z[k] - conj(Z[j]))/(2i)
    const __m256d xer = _mm256_mul_pd(half, _mm256_add_pd(kr, jr));
    const __m256d xei = _mm256_mul_pd(half, _mm256_sub_pd(ki, ji));
    const __m256d xor_ = _mm256_mul_pd(half, _mm256_add_pd(ki, ji));
    const __m256d xoi = _mm256_mul_pd(half, _mm256_sub_pd(jr, kr));
    // txo = t_k * xo
    const __m256d txr = _mm256_sub_pd(_mm256_mul_pd(twr, xor_),
                                      _mm256_mul_pd(twi, xoi));
    const __m256d txi = _mm256_add_pd(_mm256_mul_pd(twr, xoi),
                                      _mm256_mul_pd(twi, xor_));
    // spec[k] = xe + txo, spec[j] = conj(xe - txo)
    store_join(sd + 2 * k, _mm256_add_pd(xer, txr), _mm256_add_pd(xei, txi));
    const __m256d ojr = reverse_lanes(_mm256_sub_pd(xer, txr));
    const __m256d oji = reverse_lanes(_mm256_sub_pd(txi, xei));  // -(xei-txi)
    store_join(sd + 2 * (j - 3), ojr, oji);
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
  const __m256d half = _mm256_set1_pd(0.5);
  std::size_t k = 1, j = m - 1;
  for (; k + 7 <= j; k += 4, j -= 4) {
    __m256d kr, ki, jr, ji, twr, twi;
    load_split(sd + 2 * k, kr, ki);
    load_split(sd + 2 * (j - 3), jr, ji);
    jr = reverse_lanes(jr);
    ji = reverse_lanes(ji);
    load_split(td + 2 * k, twr, twi);
    // xe = (X[k] + conj(X[j]))/2, u = (X[k] - conj(X[j]))/2,
    // xo = u * conj(t_k)
    const __m256d xer = _mm256_mul_pd(half, _mm256_add_pd(kr, jr));
    const __m256d xei = _mm256_mul_pd(half, _mm256_sub_pd(ki, ji));
    const __m256d ur = _mm256_mul_pd(half, _mm256_sub_pd(kr, jr));
    const __m256d ui = _mm256_mul_pd(half, _mm256_add_pd(ki, ji));
    const __m256d xor_ = _mm256_add_pd(_mm256_mul_pd(ur, twr),
                                       _mm256_mul_pd(ui, twi));
    const __m256d xoi = _mm256_sub_pd(_mm256_mul_pd(ui, twr),
                                      _mm256_mul_pd(ur, twi));
    // Z[k] = xe + i xo, Z[j] = conj(xe) + i conj(xo)
    store_join(sd + 2 * k, _mm256_sub_pd(xer, xoi), _mm256_add_pd(xei, xor_));
    const __m256d ojr = reverse_lanes(_mm256_add_pd(xer, xoi));
    const __m256d oji = reverse_lanes(_mm256_sub_pd(xor_, xei));
    store_join(sd + 2 * (j - 3), ojr, oji);
  }
  for (; k < j; ++k, --j) {
    const cplx xk = spec[k], xj = spec[j];
    const cplx xe = 0.5 * (xk + std::conj(xj));
    const cplx xo = 0.5 * (xk - std::conj(xj)) * std::conj(tw[k]);
    spec[k] = xe + cplx{0.0, 1.0} * xo;
    spec[j] = std::conj(xe) + cplx{0.0, 1.0} * std::conj(xo);
  }
}

}  // namespace avx2_impl

namespace tables {

const Kernels avx2 = {
    avx2_impl::cmul,           avx2_impl::csquare,
    avx2_impl::correlate_taps, avx2_impl::correlate_taps_2row,
    avx2_impl::deinterleave,   avx2_impl::interleave,
    avx2_impl::interleave_scaled,
    avx2_impl::deinterleave_rev,
    avx2_impl::scale2,         avx2_impl::radix2_pass,
    avx2_impl::radix4_pass,    avx2_impl::rfft_untangle,
    avx2_impl::rfft_retangle,
    avx2_impl::bs_dpm,         avx2_impl::norm_cdf,
};

}  // namespace tables

}  // namespace amopt::simd
