// Tests for S4: multi-step linear stencil application equals one
// correlation with the kernel power, and the kernel cache is consistent
// (including under concurrent access from OpenMP tasks).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <vector>

#include "amopt/core/task_pool.hpp"
#include "amopt/fft/convolution.hpp"
#include "amopt/poly/poly_power.hpp"
#include "amopt/stencil/kernel_cache.hpp"
#include "amopt/stencil/linear_stencil.hpp"

namespace {

using namespace amopt;

std::vector<double> random_vec(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(0.0, 100.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

struct StepCase {
  std::size_t taps;
  std::uint64_t h;
};

class MultiStep : public ::testing::TestWithParam<StepCase> {};

TEST_P(MultiStep, KernelCorrelationEqualsStepByStep) {
  const auto [n_taps, h] = GetParam();
  stencil::LinearStencil st;
  st.taps = n_taps == 2 ? std::vector<double>{0.47, 0.51}
                        : std::vector<double>{0.2, 0.5, 0.28};
  const std::size_t g = n_taps - 1;
  const std::size_t n_in = g * h + 40;
  const auto in = random_vec(n_in, static_cast<unsigned>(h * 3 + n_taps));

  const auto stepwise = stencil::apply_steps_naive(st, in, h);
  const auto kernel = poly::power(st.taps, h);
  std::vector<double> conv_out(n_in - g * h);
  conv::correlate_valid(in, kernel, conv_out);

  ASSERT_EQ(stepwise.size(), conv_out.size());
  for (std::size_t i = 0; i < stepwise.size(); ++i)
    EXPECT_NEAR(conv_out[i], stepwise[i], 1e-8) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MultiStep,
    ::testing::Values(StepCase{2, 1}, StepCase{2, 2}, StepCase{2, 17},
                      StepCase{2, 100}, StepCase{3, 1}, StepCase{3, 13},
                      StepCase{3, 64}, StepCase{3, 200}));

TEST(LinearStencil, ConeGrowth) {
  EXPECT_EQ((stencil::LinearStencil{{0.5, 0.5}}).cone_growth(), 1);
  EXPECT_EQ((stencil::LinearStencil{{0.3, 0.3, 0.3}}).cone_growth(), 2);
}

TEST(KernelCache, ReturnsStableSpans) {
  stencil::KernelCache cache({{0.49, 0.5}});
  const auto k8_first = cache.power(8);
  const auto k4 = cache.power(4);
  const auto k8_second = cache.power(8);
  EXPECT_EQ(k8_first.data(), k8_second.data());  // memoized, stable address
  ASSERT_EQ(k8_first.size(), 9u);
  ASSERT_EQ(k4.size(), 5u);
  const auto ref = poly::power(std::vector<double>{0.49, 0.5}, 8);
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_DOUBLE_EQ(k8_first[i], ref[i]);
}

TEST(KernelCache, ConcurrentRequestsAgree) {
  stencil::KernelCache cache({{0.2, 0.5, 0.29}});
  std::atomic<int> mismatches{0};
  core::TaskPool::instance().for_each(64, [&](std::size_t t) {
    const auto k = cache.power(static_cast<std::uint64_t>(16 + t % 4));
    const auto ref = poly::power(std::vector<double>{0.2, 0.5, 0.29},
                                 static_cast<std::uint64_t>(16 + t % 4));
    for (std::size_t i = 0; i < ref.size(); ++i)
      if (std::abs(k[i] - ref[i]) > 1e-12) mismatches.fetch_add(1);
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(KernelCache, LadderPowersMatchNaiveUpTo4096) {
  // The shared squaring ladder must reproduce the plain repeated-squaring
  // kernels: request a mix of heights (power-of-two rungs, combined-bit
  // heights, and the trapezoid's typical halvings) against the O(h^2)
  // oracle up to h = 2^12. The ladder is also asserted bit-identical to
  // the ladder-free poly::power at every height — sharing rungs across
  // heights must not change a single bit.
  const std::vector<double> taps{0.24, 0.50, 0.25};
  stencil::KernelCache cache({taps});
  for (const std::uint64_t h :
       {1u, 2u, 3u, 5u, 8u, 13u, 64u, 100u, 341u, 1024u, 2048u, 4096u}) {
    const auto k = cache.power(h);
    const auto plain = poly::power(taps, h);
    ASSERT_EQ(k.size(), plain.size()) << "h=" << h;
    for (std::size_t i = 0; i < plain.size(); ++i)
      ASSERT_EQ(k[i], plain[i]) << "h=" << h << " i=" << i;
    if (h > 512) continue;  // the naive oracle is O(h^2)
    const auto naive = poly::power_naive(taps, h);
    ASSERT_EQ(k.size(), naive.size());
    double peak = 0.0;
    for (double x : naive) peak = std::max(peak, std::abs(x));
    for (std::size_t i = 0; i < naive.size(); ++i)
      EXPECT_NEAR(k[i], naive[i], 1e-11 * std::max(peak, 1.0))
          << "h=" << h << " i=" << i;
  }
  const auto naive = poly::power_naive(taps, 4096);
  const auto k = cache.power(4096);
  ASSERT_EQ(k.size(), naive.size());
  double peak = 0.0;
  for (double x : naive) peak = std::max(peak, std::abs(x));
  for (std::size_t i = 0; i < naive.size(); ++i)
    EXPECT_NEAR(k[i], naive[i], 1e-10 * std::max(peak, 1.0)) << "i=" << i;
  // 12 heights <= 2^12 share one 13-rung chain (taps^1 .. taps^4096).
  EXPECT_LE(cache.stats().ladder_rungs, 13u);
}

TEST(KernelCache, SpectraAreCachedPerHeightAndSize) {
  const std::vector<double> taps{0.2, 0.5, 0.29};
  stencil::KernelCache cache({taps});
  const std::size_t n = 256;
  const auto sp1 = cache.power_spectrum(16, n);
  const auto sp2 = cache.power_spectrum(16, n);
  const fft::RealSpectrum& s1 = *sp1;
  EXPECT_EQ(sp1.get(), sp2.get());  // memoized, stable entry
  EXPECT_EQ(s1.n, n);
  EXPECT_TRUE(s1.reversed);
  EXPECT_EQ(s1.klen, cache.power(16).size());
  const auto sp3 = cache.power_spectrum(16, 2 * n);
  EXPECT_NE(sp1.get(), sp3.get());  // same height, different padded size
  EXPECT_EQ(cache.stats().spectra, 2u);

  // The cached bins must be exactly what an in-call transform produces.
  conv::Workspace ws;
  const fft::RealSpectrum fresh =
      conv::kernel_spectrum(cache.power(16), n, /*reversed=*/true, ws);
  ASSERT_EQ(fresh.bins.size(), s1.bins.size());
  for (std::size_t i = 0; i < fresh.bins.size(); ++i)
    ASSERT_EQ(fresh.bins[i], s1.bins[i]) << "bin " << i;
}

TEST(KernelCache, SpectralCorrelationMatchesTimeDomain) {
  const std::vector<double> taps{0.3, 0.45, 0.22};
  stencil::KernelCache cache({taps});
  const std::uint64_t h = 40;
  const auto kernel = cache.power(h);
  const auto in = random_vec(400, 77);
  const std::size_t n_out = in.size() - kernel.size() + 1;
  std::vector<double> want(n_out), got(n_out);
  conv::correlate_valid(in, kernel, want, {conv::Policy::Path::fft});
  conv::Workspace ws;
  conv::correlate_valid(
      in,
      *cache.power_spectrum(h, conv::correlate_fft_size(n_out, kernel.size())),
      got, ws);
  for (std::size_t i = 0; i < n_out; ++i)
    ASSERT_EQ(got[i], want[i]) << "i=" << i;  // same bits, not just close
}

TEST(KernelCache, BytesCountEveryInsert) {
  // bytes() is what a session's byte budget sums: it must grow with every
  // power, rung and spectrum a cache inserts, cover at least the payloads
  // stats() reports, and not move on warm lookups.
  const std::vector<double> taps{0.2, 0.5, 0.29};
  stencil::KernelCache cache({taps});
  const std::size_t empty = cache.bytes();
  EXPECT_GT(empty, 0u);
  const std::size_t klen = cache.power(64).size();
  const std::size_t with_power = cache.bytes();
  EXPECT_GE(with_power, empty + klen * sizeof(double));
  (void)cache.power_spectrum(64, 512);
  const std::size_t with_spectrum = cache.bytes();
  const stencil::KernelCache::Stats st = cache.stats();
  EXPECT_GE(with_spectrum, with_power + st.spectrum_bytes);
  EXPECT_GE(st.ladder_rungs, 7u);  // taps^1 .. taps^64
  (void)cache.power(64);
  (void)cache.power_spectrum(64, 512);
  EXPECT_EQ(cache.bytes(), with_spectrum);
}

TEST(LinearStencil, NaiveApplyShrinksCorrectly) {
  stencil::LinearStencil st{{1.0, 1.0}};  // Pascal's triangle
  const std::vector<double> in{1.0, 0.0, 0.0, 0.0, 0.0};
  const auto out = stencil::apply_steps_naive(st, in, 4);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0], 1.0);  // only in[0] contributes via C(4,0)
  const std::vector<double> impulse_mid{0.0, 0.0, 1.0, 0.0, 0.0};
  const auto out2 = stencil::apply_steps_naive(st, impulse_mid, 2);
  // (1+x)^2 correlated: out[j] = C(2, 2-j) at the right offsets
  ASSERT_EQ(out2.size(), 3u);
  EXPECT_DOUBLE_EQ(out2[0], 1.0);
  EXPECT_DOUBLE_EQ(out2[1], 2.0);
  EXPECT_DOUBLE_EQ(out2[2], 1.0);
}

}  // namespace
