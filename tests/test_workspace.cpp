// Allocation-freedom and correctness of the convolution paths on the
// thread's scratch arena (core::thread_scratch()). This binary replaces the
// global operator new/delete with counting versions (which is why it is its
// own test executable): after one warm-up call, repeated convolutions must
// not touch the heap, because every FFT buffer is a ScratchStack frame
// lease.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "amopt/core/scratch.hpp"
#include "amopt/fft/convolution.hpp"
#include "amopt/poly/poly_power.hpp"
#include "amopt/stencil/kernel_cache.hpp"

#include "counting_new.hpp"

namespace {

using namespace amopt;

std::vector<double> random_vec(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

[[nodiscard]] std::uint64_t allocs() { return counting_new::count(); }

TEST(ThreadArena, ConvolveFullSpanMatchesVectorOverloadBitForBit) {
  const auto a = random_vec(1000, 1);
  const auto b = random_vec(777, 2);
  const auto ref = conv::convolve_full(a, b, {conv::Policy::Path::fft});
  std::vector<double> out(a.size() + b.size() - 1);
  conv::convolve_full(a, b, out, {conv::Policy::Path::fft});
  ASSERT_EQ(out.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(out[i], ref[i]);
}

TEST(ThreadArena, ConvolveFullZeroAllocationsAfterWarmup) {
  const auto a = random_vec(4096, 3);
  const auto b = random_vec(4096, 4);
  std::vector<double> out(a.size() + b.size() - 1);
  const conv::Policy fft{conv::Policy::Path::fft};
  conv::convolve_full(a, b, out, fft);  // warm-up: plans + arena growth
  const std::vector<double> ref = out;

  const std::uint64_t before = allocs();
  for (int r = 0; r < 10; ++r) conv::convolve_full(a, b, out, fft);
  const std::uint64_t after = allocs();
  EXPECT_EQ(after - before, 0u) << "convolve_full allocated after warm-up";
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(out[i], ref[i]);
}

TEST(ThreadArena, CorrelateValidZeroAllocationsAfterWarmup) {
  const auto in = random_vec(8192, 5);
  const auto kernel = random_vec(2048, 6);
  std::vector<double> out(in.size() - kernel.size() + 1);
  const conv::Policy fft{conv::Policy::Path::fft};
  conv::correlate_valid(in, kernel, out, fft);  // warm-up

  const std::uint64_t before = allocs();
  for (int r = 0; r < 10; ++r) conv::correlate_valid(in, kernel, out, fft);
  const std::uint64_t after = allocs();
  EXPECT_EQ(after - before, 0u) << "correlate_valid allocated after warm-up";

  std::vector<double> ref(out.size());
  conv::correlate_valid_direct(in, kernel, ref);
  const double tol = 1e-10 * static_cast<double>(in.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(out[i], ref[i], tol);
}

TEST(ThreadArena, SmallerSizesReuseWarmArena) {
  // Once warmed at the high-water mark, every SMALLER convolution must be
  // allocation-free too (the arena never shrinks; smaller plans were created
  // during the warm-up here).
  const conv::Policy fft{conv::Policy::Path::fft};
  std::vector<std::vector<double>> as, bs;
  for (std::size_t n : {4096u, 1024u, 300u, 64u}) {
    as.push_back(random_vec(n, static_cast<unsigned>(n)));
    bs.push_back(random_vec(n, static_cast<unsigned>(n + 1)));
  }
  std::vector<double> out(2 * 4096 - 1);
  for (std::size_t i = 0; i < as.size(); ++i) {  // warm every size once
    conv::convolve_full(as[i], bs[i],
                        std::span<double>(out).first(2 * as[i].size() - 1),
                        fft);
  }
  const std::uint64_t before = allocs();
  for (int r = 0; r < 5; ++r) {
    for (std::size_t i = 0; i < as.size(); ++i) {
      conv::convolve_full(as[i], bs[i],
                          std::span<double>(out).first(2 * as[i].size() - 1),
                          fft);
    }
  }
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(ThreadArena, ConvolveManySharesKernelSpectrum) {
  const auto kernel = random_vec(513, 7);
  std::vector<std::vector<double>> inputs_storage;
  for (std::size_t n : {2048u, 2048u, 1024u, 100u})
    inputs_storage.push_back(random_vec(n, static_cast<unsigned>(n + 9)));
  std::vector<std::span<const double>> inputs(inputs_storage.begin(),
                                              inputs_storage.end());
  std::vector<std::vector<double>> outs(inputs.size());
  conv::convolve_many(inputs, kernel, outs, {conv::Policy::Path::fft});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto ref = conv::convolve_full_direct(inputs_storage[i], kernel);
    ASSERT_EQ(outs[i].size(), ref.size()) << "item " << i;
    const double tol = 1e-10 * static_cast<double>(inputs_storage[i].size());
    for (std::size_t j = 0; j < ref.size(); ++j)
      EXPECT_NEAR(outs[i][j], ref[j], tol) << "item " << i << " j=" << j;
  }
  // Same-length items share the padded size with the unbatched call, so the
  // batched result is bit-identical to it.
  const auto solo =
      conv::convolve_full(inputs_storage[0], kernel, {conv::Policy::Path::fft});
  for (std::size_t j = 0; j < solo.size(); ++j) EXPECT_EQ(outs[0][j], solo[j]);

  // After the warm-up call above, re-running the batch (outs already sized)
  // performs no allocations.
  const std::uint64_t before = allocs();
  conv::convolve_many(inputs, kernel, outs, {conv::Policy::Path::fft});
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(ThreadArena, PolyPowerIsOneWalkOverItsRungs) {
  // power_fft is square_rung + power_from_rungs: the rungs a KernelCache
  // keeps reproduce it bit for bit.
  const std::vector<double> taps{0.2, 0.5, 0.3};
  for (std::uint64_t h : {1u, 7u, 64u, 301u}) {
    std::vector<std::vector<double>> rungs{taps};
    while (rungs.size() < static_cast<std::size_t>(std::bit_width(h)))
      rungs.push_back(poly::square_rung(taps, rungs.back()));
    const std::vector<std::span<const double>> views(rungs.begin(),
                                                     rungs.end());
    const auto ref = poly::power_from_rungs(h, views);
    const auto got = poly::power_fft(taps, h);
    ASSERT_EQ(ref.size(), got.size()) << "h=" << h;
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(got[i], ref[i]) << "h=" << h << " i=" << i;
  }
  // Warmed up, a kernel-power call allocates only the returned vector.
  (void)poly::power_fft(taps, 301);
  const std::uint64_t before = allocs();
  (void)poly::power_fft(taps, 301);
  EXPECT_EQ(allocs() - before, 1u);
}

TEST(ThreadArena, FftCorrelationScratchIsCountedByTheThreadArena) {
  // The FFT buffers live in the thread's ScratchStack, so its capacity —
  // the figure aggregate_scratch(), trimming and admission control read —
  // covers both padded operands and their spectra after one 2^16-point
  // correlation on a fresh thread.
  const std::size_t n_out = std::size_t{1} << 15;
  const std::size_t n_k = (std::size_t{1} << 15) + 1;
  const std::size_t n = conv::correlate_fft_size(n_out, n_k);
  ASSERT_EQ(n, std::size_t{1} << 16);
  const auto in = random_vec(n_out + n_k - 1, 21);
  const auto kernel = random_vec(n_k, 22);
  std::vector<double> out(n_out);
  std::size_t before = 1, after = 0;
  std::thread t([&] {
    before = core::thread_scratch().capacity();
    conv::correlate_valid(in, kernel, out, {conv::Policy::Path::fft});
    after = core::thread_scratch().capacity();
  });
  t.join();
  EXPECT_EQ(before, 0u);
  EXPECT_GE(after * sizeof(double), 2 * (n + 2) * sizeof(double));
}

TEST(ThreadArena, OuterFrameSurvivesNestedCorrelationAndColdRungBuild) {
  // Frames are LIFO leases: a span held by an outer frame is never handed
  // to the FFT scratch of a nested correlation on the same thread — nor to
  // the squaring accumulators of the rungs it builds cold.
  core::ScratchStack::Frame outer(core::thread_scratch());
  const std::span<double> held = outer.alloc(1 << 14);
  const auto pattern = random_vec(held.size(), 31);
  std::copy(pattern.begin(), pattern.end(), held.begin());

  stencil::KernelCache cache({{0.25, 0.45, 0.29}});  // squaring-ladder taps
  const std::uint64_t h = 1024;
  const auto main = random_vec(1 << 14, 32);
  const auto tail = random_vec(1, 33);
  std::vector<double> out(main.size() + tail.size() - 2 * h);
  cache.correlate(main, tail, h, out);

  EXPECT_EQ(std::memcmp(held.data(), pattern.data(),
                        held.size() * sizeof(double)),
            0);
  std::vector<double> want(out.size());
  std::vector<double> cat(main);
  cat.insert(cat.end(), tail.begin(), tail.end());
  conv::correlate_valid(cat, cache.power(h), want);
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], want[i]) << "i=" << i;
}

}  // namespace
