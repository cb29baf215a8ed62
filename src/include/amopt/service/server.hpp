#pragma once
// W3: the pricing daemon — an async request router over `pricing::Pricer`
// (DESIGN.md §8).
//
// A `Server` owns N shards, each a long-lived `Pricer` session fed
// through a bounded MPSC queue. Shards own no threads: the first
// submission to an idle shard arms a detached drain task on the shared
// `core::TaskPool` (DESIGN.md §10), so daemon housekeeping and
// intra-solve parallelism draw from one set of workers instead of
// oversubscribing the machine. Items are routed by
// `shard_of` — a hash of the request's kernel identity (model, right,
// style, engine, R, V, Y), the same axes `PricerConfig::
// share_kernels_across_expiries` groups by — so every quote for one
// option chain lands on the shard whose caches are warm for it, and a
// coalesced batch is mergeable into a single shared-kernel `price_many`.
//
// The shard hot loop is allocation-free at steady state: it pops into a
// preallocated item ring, copies requests into a reused batch vector,
// prices through `Pricer::price_many_into` with a persistent
// `BatchScratch`, and scatters results straight into caller-owned storage
// (tests/test_server_alloc.cpp pins this with a counting allocator; the CI
// server-smoke job guards `allocs-steady=0`).
//
// Three ways in:
//   * `submit()` — async; results land in caller storage, a reusable
//     `Batch` handle signals completion. The caller's requests/results
//     must stay alive (and unmoved) until the batch completes.
//   * `price()` / `price_into()` — synchronous convenience (submit+wait).
//   * `serve(Transport&)` — speak the framed wire format of wire.hpp over
//     a byte stream until EOF: decode request frames, price, answer with
//     result frames. Malformed frames answer with a one-record error
//     frame, then close (the stream is desynchronized — recovery would be
//     guesswork). One thread per connection.
//
// Admission control instead of unbounded queueing: `submit` consults the
// shard's queue depth and the scratch-arena footprint (summed over every
// pool worker's arena) the last drained batch published. An item that
// would exceed the configured ceilings completes immediately with
// `Status::overloaded` and a retry hint in `message` — the caller sheds
// load; the daemon never grows without bound. Each shard's kernel caches
// and node tables are bounded by `pricing::Pricer::kCacheBytes` and need
// no ceiling here.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "amopt/pricing/pricer.hpp"
#include "amopt/pricing/request.hpp"
#include "amopt/service/transport.hpp"

namespace amopt::service {

struct ServerConfig {
  /// Per-shard session configuration. `scratch_trim_bytes` composes: each
  /// shard's Pricer trims its arena between batches exactly as a direct
  /// session would.
  pricing::PricerConfig pricer{};
  std::size_t shards = 1;  ///< pricing shards (pool-drained), one Pricer each
  std::size_t queue_capacity = 4096;  ///< per-shard item ring (hard bound)
  /// After the first item of a batch arrives, wait up to this long for
  /// more before pricing, so a burst of single-quote submissions merges
  /// into one `price_many` call (and, with cross-expiry sharing, one
  /// kernel build). 0 = drain only what is already queued — no waiting.
  std::uint32_t coalesce_window_us = 50;
  std::size_t max_coalesced_items = 1024;  ///< cap on one merged batch
  /// Admission ceilings (0 = disabled). `admit_queue_depth` rejects once a
  /// shard's queue holds this many items (it additionally never exceeds
  /// `queue_capacity`); `admit_scratch_bytes` rejects a whole `submit` call
  /// while the arena footprint published after the last drained batch
  /// (every pool worker's arena, the true multi-thread footprint) exceeds
  /// it — backpressure keyed on real memory, not guesses.
  std::size_t admit_queue_depth = 0;
  std::size_t admit_scratch_bytes = 0;
};

class Server {
  struct Shard;  ///< worker thread + queue + Pricer (defined in server.cpp)

 public:
  /// Completion handle for `submit`. Reusable: pending counts accumulate
  /// across submits, `wait()` returns when ALL of them completed. Not
  /// copyable/movable — workers hold its address.
  class Batch {
   public:
    Batch() = default;
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    void wait() {
      std::unique_lock<std::mutex> lock(m_);
      cv_.wait(lock, [&] { return pending_ == 0; });
    }
    [[nodiscard]] bool done() const {
      std::lock_guard<std::mutex> lock(m_);
      return pending_ == 0;
    }

   private:
    friend class Server;
    friend struct Shard;  ///< the worker completes items
    mutable std::mutex m_;
    std::condition_variable cv_;
    std::size_t pending_ = 0;
  };

  explicit Server(ServerConfig cfg = {});
  ~Server();  ///< stop()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Route each request to its shard; `out[i]` receives requests[i]'s
  /// result. Returns immediately — `done` completes once every item is
  /// priced (or rejected; rejected items are finished with
  /// `Status::overloaded` before return). `requests` and `out` must stay
  /// valid and unmoved until then.
  void submit(std::span<const pricing::PricingRequest> requests,
              pricing::PricingResult* out, Batch& done);

  /// Deadline-aware submit (the failure plane, DESIGN.md §11):
  /// `deadlines[i]` is requests[i]'s absolute cutoff (`time_point::max()`
  /// = none; `deadlines` may be null = all unbounded). An item whose
  /// deadline passes while it sits in a shard queue is SHED by the drain
  /// before pricing — it completes with `Status::deadline_exceeded` and
  /// counts toward `Stats::deadline_shed`. Stale quotes are worse than no
  /// quotes: the cycles go to requests someone still wants.
  void submit(std::span<const pricing::PricingRequest> requests,
              const std::chrono::steady_clock::time_point* deadlines,
              pricing::PricingResult* out, Batch& done);

  /// Synchronous submit: resizes `out` (capacity reused) and waits.
  void price_into(std::span<const pricing::PricingRequest> requests,
                  std::vector<pricing::PricingResult>& out);
  [[nodiscard]] std::vector<pricing::PricingResult> price(
      std::span<const pricing::PricingRequest> requests);

  /// Serve one framed connection until EOF / transport close (blocking;
  /// run on its own thread). See the header comment for protocol errors.
  void serve(Transport& transport);

  /// The shard index this request routes to (stable for the server's
  /// lifetime; exposed so tests and benches can build shard-aligned load).
  [[nodiscard]] std::size_t shard_of(
      const pricing::PricingRequest& request) const noexcept;

  /// Per-shard failure/admission counters (the failure plane's
  /// observability surface — what the chaos soak asserts against).
  struct ShardCounters {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;       ///< admission-control sheds
    std::uint64_t deadline_shed = 0;  ///< expired in queue, shed pre-pricing
    std::uint64_t drain_shed = 0;     ///< shed by stop(grace) after the grace
  };

  struct Stats {
    std::uint64_t submitted = 0;  ///< items accepted into a shard queue
    std::uint64_t rejected = 0;   ///< items refused by admission control
    /// Items priced and scattered, and the price_many_into calls that
    /// served them; `completed / batches` is the realized merge factor.
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    std::uint64_t deadline_shed = 0;  ///< sum of ShardCounters::deadline_shed
    std::uint64_t drain_shed = 0;     ///< sum of ShardCounters::drain_shed
    /// Connection-level counters from `serve()`: malformed frames
    /// answered-and-dropped, and request frames that arrived with a
    /// nonzero v2 `attempt` header (a client retrying).
    std::uint64_t decode_errors = 0;
    std::uint64_t retries_observed = 0;
    std::vector<pricing::Pricer::Stats> shard;  ///< per-shard sessions
    std::vector<ShardCounters> shard_counters;  ///< per-shard failure plane
  };
  [[nodiscard]] Stats stats() const;

  /// Stop accepting, drain every queued item, and wait until every
  /// shard's drain task has disarmed. Idempotent; the destructor calls it.
  void stop();

  /// Bounded-grace stop: like stop(), but if the shards are not quiet
  /// once `grace` elapses, the remaining QUEUED items are shed with
  /// `Status::overloaded` (counted as `drain_shed`) instead of priced.
  /// A `price_many` already in flight always completes — the bound is on
  /// queue drain, not on interrupting compute. Every submitted item still
  /// reaches exactly one terminal status before this returns.
  void stop(std::chrono::microseconds grace);

  [[nodiscard]] const ServerConfig& config() const noexcept { return cfg_; }

 private:
  void stop_impl(const std::chrono::microseconds* grace);

  ServerConfig cfg_;
  /// core::aggregate_scratch() bytes, published by every drain after its
  /// batch. The figure is process-wide, so there is one per server, read
  /// once per submit() call.
  std::atomic<std::size_t> scratch_bytes_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> decode_errors_{0};
  std::atomic<std::uint64_t> retries_observed_{0};
};

}  // namespace amopt::service
