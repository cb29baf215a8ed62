// Unit tests for the execution plane (core::TaskPool): fork/join
// correctness of invoke2 and the counter-scheduled for_each, exception
// propagation across task boundaries, nested forks, width retargeting,
// detached tasks, the per-worker broadcast hook, and paper-scale solves
// joined from a non-worker thread. Everything here must hold at any pool
// width — including width 1, where the pool degrades to plain inline
// calls — so several cases sweep widths explicitly. CMakeLists.txt gives
// this binary a ctest timeout, so a scheduling deadlock fails instead of
// hanging.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "amopt/common/parallel.hpp"
#include "amopt/core/task_pool.hpp"
#include "amopt/pricing/api.hpp"
#include "amopt/pricing/params.hpp"
#include "amopt/pricing/pricer.hpp"

namespace {

using namespace amopt;
using core::TaskPool;

TEST(TaskPool, Invoke2RunsBothLegsAtEveryWidth) {
  for (const int width : {1, 2, 4, 8}) {
    ThreadScope scope(width);
    int a = 0, b = 0;
    TaskPool::instance().invoke2([&] { a = 1; }, [&] { b = 2; });
    EXPECT_EQ(a, 1) << "width " << width;
    EXPECT_EQ(b, 2) << "width " << width;
  }
}

TEST(TaskPool, Invoke2PropagatesExceptionsFromEitherLeg) {
  for (const int width : {1, 4}) {
    ThreadScope scope(width);
    auto& pool = TaskPool::instance();
    bool g_ran = false;
    EXPECT_THROW(
        pool.invoke2([] { throw std::runtime_error("f"); },
                     [&] { g_ran = true; }),
        std::runtime_error);
    // At width 1 this is literally `f(); g();` — f's throw abandons g, the
    // serial semantics. A leg actually OFFERED to the pool must complete
    // before the rethrow (g references the caller's stack frame).
    if (width > 1)
      EXPECT_TRUE(g_ran) << "the offered leg must still run before rethrow";
    else
      EXPECT_FALSE(g_ran);
    EXPECT_THROW(pool.invoke2([] {},
                              [] { throw std::runtime_error("g"); }),
                 std::runtime_error);
  }
}

TEST(TaskPool, NestedInvoke2ComputesRecursiveSum) {
  // sum(1..n) by binary splitting, forking at every interior node: stresses
  // nested joins, the fork-floor confinement, and the steal path.
  struct Rec {
    static std::int64_t sum(std::int64_t lo, std::int64_t hi) {
      if (hi - lo <= 4) {
        std::int64_t s = 0;
        for (std::int64_t i = lo; i < hi; ++i) s += i;
        return s;
      }
      const std::int64_t mid = lo + (hi - lo) / 2;
      std::int64_t left = 0, right = 0;
      TaskPool::instance().invoke2([&] { left = sum(lo, mid); },
                                   [&] { right = sum(mid, hi); });
      return left + right;
    }
  };
  for (const int width : {1, 2, 4}) {
    ThreadScope scope(width);
    const std::int64_t n = 10000;
    EXPECT_EQ(Rec::sum(0, n + 1), n * (n + 1) / 2) << "width " << width;
  }
}

TEST(TaskPool, ForEachCoversEveryIndexExactlyOnce) {
  for (const int width : {1, 3, 8}) {
    ThreadScope scope(width);
    const std::ptrdiff_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    TaskPool::instance().for_each(n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::ptrdiff_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "width " << width << " i=" << i;
  }
}

TEST(TaskPool, ForEachRunsEpiloguePerExecutorAndHonorsMaxWidth) {
  ThreadScope scope(8);
  std::atomic<int> epilogues{0};
  std::mutex mu;
  std::set<std::thread::id> executors;
  TaskPool::instance().for_each(
      256,
      [&](std::size_t) {
        std::lock_guard<std::mutex> lock(mu);
        executors.insert(std::this_thread::get_id());
      },
      [&] { epilogues.fetch_add(1, std::memory_order_relaxed); },
      /*max_width=*/2);
  // At most two executors (the caller and one helper); every executor —
  // even one whose submission was dropped on a full queue — runs the
  // epilogue exactly once, so epilogues == executors that actually ran.
  EXPECT_LE(executors.size(), 2u);
  EXPECT_GE(epilogues.load(), 1);
  EXPECT_LE(epilogues.load(), 2);
}

TEST(TaskPool, ForEachPropagatesBodyException) {
  ThreadScope scope(4);
  EXPECT_THROW(TaskPool::instance().for_each(100,
                                             [&](std::size_t i) {
                                               if (i == 57)
                                                 throw std::runtime_error(
                                                     "body");
                                             }),
               std::runtime_error);
}

TEST(TaskPool, SetConcurrencyClampsToValidRange) {
  auto& pool = TaskPool::instance();
  const int saved = pool.concurrency();
  pool.set_concurrency(-3);
  EXPECT_EQ(pool.concurrency(), 1);
  pool.set_concurrency(TaskPool::kMaxThreads + 100);
  EXPECT_EQ(pool.concurrency(), TaskPool::kMaxThreads);
  pool.set_concurrency(saved);
  EXPECT_EQ(pool.concurrency(), saved);
}

TEST(TaskPool, OnWorkerIsFalseOnCallerTrueOnWorkers) {
  ThreadScope scope(4);
  EXPECT_FALSE(TaskPool::on_worker());
  std::atomic<int> counters[2] = {{0}, {0}};  // [0] on-worker, [1] not
  TaskPool::instance().run_on_workers(
      [](void* p) {
        auto* c = static_cast<std::atomic<int>*>(p);
        c[TaskPool::on_worker() ? 0 : 1].fetch_add(1,
                                                   std::memory_order_relaxed);
      },
      counters);
  EXPECT_EQ(counters[0].load(), 3);  // width 4 = caller + 3 workers
  EXPECT_EQ(counters[1].load(), 0);
}

TEST(TaskPool, RunOnWorkersVisitsDistinctThreads) {
  ThreadScope scope(4);
  struct Ctx {
    std::mutex mu;
    std::set<std::thread::id> ids;
  } ctx;
  TaskPool::instance().run_on_workers(
      [](void* p) {
        auto* c = static_cast<Ctx*>(p);
        std::lock_guard<std::mutex> lock(c->mu);
        c->ids.insert(std::this_thread::get_id());
      },
      &ctx);
  EXPECT_EQ(ctx.ids.size(), 3u);
  EXPECT_EQ(ctx.ids.count(std::this_thread::get_id()), 0u);
}

TEST(TaskPool, DetachedTaskRunsEvenAtWidthOne) {
  // The pool keeps one worker alive at width 1 purely for detached
  // housekeeping (server shard drains must make progress on a 1-CPU box).
  ThreadScope scope(1);
  std::atomic<bool> ran{false};
  TaskPool::Task t;
  t.fn = [](void* p) {
    static_cast<std::atomic<bool>*>(p)->store(true, std::memory_order_release);
  };
  t.arg = &ran;
  ASSERT_TRUE(TaskPool::instance().submit_detached(&t));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!ran.load(std::memory_order_acquire)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "detached task never ran";
    std::this_thread::yield();
  }
}

TEST(TaskPool, ParallelForChunksMatchesSerialSplit) {
  for (const int width : {1, 4}) {
    ThreadScope scope(width);
    const std::ptrdiff_t n = 10000;
    std::vector<int> hits(static_cast<std::size_t>(n), 0);
    parallel_for_chunks(n, 64, [&](std::ptrdiff_t lo, std::ptrdiff_t hi) {
      for (std::ptrdiff_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
    });
    for (std::ptrdiff_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1)
          << "width " << width << " i=" << i;
  }
}

TEST(TaskPool, CallerThreadJoinsPaperScaleSolvesAtWidthFour) {
  // The test thread is not a pool worker, so every descent fork it makes
  // lands in the inject ring and its joins run the external-thread path.
  // These sizes nest deep enough that an external joiner stealing from
  // worker deques can deadlock (see the scheduling rules in task_pool.hpp).
  ThreadScope scope(4);
  pricing::Pricer pricer;
  for (int round = 0; round < 8; ++round) {
    // A fresh vol per round rebuilds the kernel ladder, as a new
    // underlying would.
    const double vol = 0.15 + 0.01 * round;
    pricing::PricingRequest call;
    call.spec = pricing::paper_spec();
    call.spec.V = vol;
    call.T = std::int64_t{1} << 16;
    call.model = pricing::Model::bopm;
    call.right = pricing::Right::call;
    pricing::PricingRequest put = call;
    put.T = std::int64_t{1} << 15;
    put.model = pricing::Model::bsm;
    put.right = pricing::Right::put;
    for (const pricing::PricingRequest& req : {call, put}) {
      const pricing::PricingResult res = pricer.price_one(req);
      ASSERT_EQ(res.status, pricing::Status::ok)
          << "round " << round << ": " << res.message;
      EXPECT_TRUE(std::isfinite(res.price) && res.price > 0.0)
          << "round " << round;
    }
  }
  // TOPM call and put at T = 2^16, five calls each straight from this
  // thread: none may hang, and every one must return the width-1 bits.
  const auto hex = [](double x) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", x);
    return std::string(buf);
  };
  for (const pricing::Right right :
       {pricing::Right::call, pricing::Right::put}) {
    const auto solve = [right] {
      return pricing::price(pricing::paper_spec(), std::int64_t{1} << 16,
                            pricing::Model::topm, right);
    };
    double ref = 0.0;
    {
      ThreadScope serial(1);
      ref = solve();
    }
    for (int call = 0; call < 5; ++call)
      EXPECT_EQ(hex(solve()), hex(ref))
          << (right == pricing::Right::call ? "call " : "put ") << call;
  }
}

}  // namespace
