// Unit tests for the common utilities (aligned storage, pow2 helpers, env
// parsing, timers, OpenMP helpers).

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "amopt/common/aligned.hpp"
#include "amopt/common/env.hpp"
#include "amopt/common/parallel.hpp"
#include "amopt/common/timer.hpp"

namespace {

using namespace amopt;

TEST(Aligned, VectorIsCacheLineAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    aligned_vector<double> v(n, 0.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLine, 0u)
        << "n=" << n;
  }
}

TEST(Aligned, AllocatorEquality) {
  AlignedAllocator<double> a, b;
  EXPECT_TRUE(a == b);
}

TEST(Pow2, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(1023), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Pow2, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1u << 20));
  EXPECT_FALSE(is_pow2((1u << 20) + 1));
}

TEST(Env, LongParsesAndFallsBack) {
  ::setenv("AMOPT_TEST_L", "42", 1);
  EXPECT_EQ(env_long("AMOPT_TEST_L", 7), 42);
  ::setenv("AMOPT_TEST_L", "not-a-number", 1);
  EXPECT_EQ(env_long("AMOPT_TEST_L", 7), 7);
  ::unsetenv("AMOPT_TEST_L");
  EXPECT_EQ(env_long("AMOPT_TEST_L", 7), 7);
}

TEST(Env, DoubleParsesAndFallsBack) {
  ::setenv("AMOPT_TEST_D", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("AMOPT_TEST_D", 1.0), 2.5);
  ::unsetenv("AMOPT_TEST_D");
  EXPECT_DOUBLE_EQ(env_double("AMOPT_TEST_D", 1.0), 1.0);
}

TEST(Env, StringFallsBack) {
  ::setenv("AMOPT_TEST_S", "hello", 1);
  EXPECT_EQ(env_string("AMOPT_TEST_S", "x"), "hello");
  ::unsetenv("AMOPT_TEST_S");
  EXPECT_EQ(env_string("AMOPT_TEST_S", "x"), "x");
}

TEST(Timer, MonotoneAndResets) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double a = t.seconds();
  EXPECT_GT(a, 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), a);
}

TEST(Parallel, ThreadScopeRestores) {
  const int before = hardware_threads();
  {
    ThreadScope scope(1);
    EXPECT_EQ(hardware_threads(), 1);
  }
  EXPECT_EQ(hardware_threads(), before);
}

}  // namespace
