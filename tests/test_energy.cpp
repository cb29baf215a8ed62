// Tests for the operation counters and the energy meter (S9a). The model
// fallback must track counted work; hardware RAPL, when present, is only
// smoke-tested (values are machine-dependent).

#include <gtest/gtest.h>

#include <cmath>

#include "amopt/metrics/counters.hpp"
#include "amopt/metrics/energy.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/params.hpp"

namespace {

using namespace amopt;
using namespace amopt::metrics;

TEST(Counters, AccumulateAndReset) {
  reset_counters();
  add_flops(100);
  add_bytes(50);
  add_flops(1);
  const OpSnapshot s = snapshot();
  EXPECT_EQ(s.flops, 101u);
  EXPECT_EQ(s.bytes, 50u);
  reset_counters();
  EXPECT_EQ(snapshot().flops, 0u);
}

TEST(Counters, DeltaArithmetic) {
  reset_counters();
  add_flops(10);
  const OpSnapshot a = snapshot();
  add_flops(32);
  add_bytes(8);
  const OpSnapshot d = delta(a, snapshot());
  EXPECT_EQ(d.flops, 32u);
  EXPECT_EQ(d.bytes, 8u);
}

TEST(Counters, PricersCountWork) {
  reset_counters();
  const auto spec = pricing::paper_spec();
  (void)pricing::bopm::american_call_vanilla(spec, 512);
  const OpSnapshot after_vanilla = snapshot();
  // Figure-1 loop does ~3*T^2/2 flops.
  EXPECT_NEAR(static_cast<double>(after_vanilla.flops), 1.5 * 512.0 * 512.0,
              0.5 * 512.0 * 512.0);
}

TEST(EnergyModel, ModeledEnergyTracksCountedWork) {
  EnergyMeter meter;  // uses model when RAPL is unreachable (typical in CI)
  if (meter.hardware_available()) GTEST_SKIP() << "hardware RAPL active";
  reset_counters();
  meter.start();
  add_flops(1'000'000'000);  // 1 Gflop at 0.5 nJ => 0.5 J
  const EnergySample s = meter.stop();
  EXPECT_FALSE(s.hardware);
  EXPECT_GT(s.pkg_joules, 0.45);
  EXPECT_LT(s.pkg_joules, 1.5);
}

TEST(EnergyModel, RamTermTracksBytes) {
  EnergyMeter meter;
  if (meter.hardware_available()) GTEST_SKIP();
  reset_counters();
  meter.start();
  add_bytes(100'000'000'000ull);  // 100 GB at 30 pJ/B => 3 J
  const EnergySample s = meter.stop();
  EXPECT_NEAR(s.ram_joules, 3.0, 0.5);
}

TEST(EnergyModel, MoreWorkMoreEnergy) {
  EnergyMeter meter;
  if (meter.hardware_available()) GTEST_SKIP();
  const auto spec = pricing::paper_spec();

  reset_counters();
  meter.start();
  (void)pricing::bopm::american_call_fft(spec, 4096);
  const double e_fft = meter.stop().total();

  reset_counters();
  meter.start();
  (void)pricing::bopm::american_call_vanilla(spec, 4096);
  const double e_vanilla = meter.stop().total();

  // The Θ(T^2) loop must cost more modeled energy than the O(T log^2 T)
  // algorithm at T=4096 — the core claim of the paper's Fig. 6.
  EXPECT_GT(e_vanilla, e_fft);
}

TEST(EnergySample, TotalIsSum) {
  EnergySample s;
  s.pkg_joules = 2.0;
  s.ram_joules = 0.5;
  EXPECT_DOUBLE_EQ(s.total(), 2.5);
}

}  // namespace
