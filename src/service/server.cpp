#include "amopt/service/server.hpp"

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <thread>

#include "amopt/core/scratch.hpp"
#include "amopt/core/task_pool.hpp"
#include "amopt/service/wire.hpp"

namespace amopt::service {

using pricing::PricingRequest;
using pricing::PricingResult;

namespace {

// Static shed diagnostics: load shedding is exactly when the daemon must
// not mint strings, so every message on these paths is a fixed literal and
// the fill below reuses the result's message capacity. (The legacy
// `out[i] = PricingResult{};` idiom would free that capacity and put an
// allocation back on the path — tests/test_server_alloc.cpp pins this.)
constexpr std::string_view kShedStopping =
    "overloaded: server stopping; retry after a backoff";
constexpr std::string_view kShedQueueFull =
    "overloaded: shard queue full; retry after a backoff";
constexpr std::string_view kShedScratch =
    "overloaded: shard scratch footprint over ceiling; retry after a backoff";
constexpr std::string_view kShedDrain =
    "overloaded: server draining; retry against another instance";
constexpr std::string_view kShedDeadline =
    "deadline exceeded: request went stale in the shard queue; "
    "nothing was computed";

void fill_shed(PricingResult& r, pricing::Status s, std::string_view msg) {
  r.status = s;
  r.message.assign(msg.data(), msg.size());
  r.price = std::numeric_limits<double>::quiet_NaN();
  r.greeks = {};
  r.implied_vol = {};
  r.error = nullptr;
}

}  // namespace

/// One shard: a bounded MPSC item ring, a long-lived Pricer session, and
/// the reusable buffers that keep the hot loop allocation-free. Since the
/// execution-plane rework a shard owns no thread of its own: the first
/// submission to an idle shard arms a detached drain task on the shared
/// `core::TaskPool`, and that task loops until the queue is empty.
struct Server::Shard {
  struct Item {
    const PricingRequest* req = nullptr;
    PricingResult* out = nullptr;
    Batch* done = nullptr;
    /// Absolute cutoff; max() = no deadline. Checked by the drain right
    /// before the item would join a pricing batch.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
  };

  Shard(const ServerConfig& c, std::atomic<std::size_t>& scratch)
      : pricer(c.pricer), cfg(&c), scratch_bytes(&scratch),
        ring(c.queue_capacity) {
    drain_task.fn = &drain_entry;
    drain_task.arg = this;
    drain_task.join = nullptr;
  }

  pricing::Pricer pricer;
  const ServerConfig* cfg;  ///< the owning Server's config (stable address)
  /// The owning Server's published arena footprint (Server::scratch_bytes_).
  std::atomic<std::size_t>* scratch_bytes;

  // Queue state, under `m`. `cv` wakes a lingering drain ("item arrived"
  // or "stopping") — submitters never wait, they reject instead. `armed`
  // is true while a drain task is scheduled or running for this shard;
  // it guarantees exactly one drain executor at a time, so the reused
  // batch buffers below need no further synchronization.
  std::mutex m;
  std::condition_variable cv;
  std::vector<Item> ring;
  std::size_t head = 0;
  std::size_t size = 0;
  bool stopping = false;
  bool armed = false;
  core::TaskPool::Task drain_task;  ///< reusable: re-pushed on each arm
  /// stop(grace) sets this once the grace expires: the drain stops
  /// pricing queued items and sheds them with `overloaded` instead.
  std::atomic<bool> shed_pending{false};

  // Drain-owned, reused across batches (capacities converge, then stay).
  // Exclusive ownership follows from the `armed` protocol above.
  std::vector<Item> items;
  std::vector<std::size_t> live;  ///< indices of items that survive shedding
  std::vector<PricingRequest> batch;
  std::vector<PricingResult> results;
  pricing::Pricer::BatchScratch scratch;

  // Published after every batch for lock-free stats.
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> deadline_shed{0};
  std::atomic<std::uint64_t> drain_shed{0};

  static void drain_entry(void* p) { static_cast<Shard*>(p)->drain(); }

  void drain() {
    for (;;) {
      items.clear();
      {
        std::unique_lock<std::mutex> lock(m);
        if (size == 0) {
          // Fully drained: disarm under the same lock submitters check,
          // so either they see the queue empty-and-disarmed and schedule
          // a fresh drain, or this loop sees their item. No lost wakeups.
          armed = false;
          return;
        }
        if (cfg->coalesce_window_us > 0 && size < cfg->max_coalesced_items &&
            !stopping) {
          // First item of the batch is in hand; linger for stragglers so a
          // burst of single-quote submissions merges into one price_many.
          const auto deadline =
              std::chrono::steady_clock::now() +
              std::chrono::microseconds(cfg->coalesce_window_us);
          while (size < cfg->max_coalesced_items && !stopping &&
                 cv.wait_until(lock, deadline) != std::cv_status::timeout) {
          }
        }
        const std::size_t n = std::min(size, cfg->max_coalesced_items);
        for (std::size_t i = 0; i < n; ++i) {
          items.push_back(ring[head]);
          head = head + 1 == ring.size() ? 0 : head + 1;
        }
        size -= n;
      }

      // Shed BEFORE pricing: a bounded-grace drain sheds everything still
      // queued, and an expired deadline means nobody wants the quote any
      // more — either way the pricing batch is built only from items
      // someone is still waiting on. Shed fills are static-message and
      // capacity-reusing, so shedding under overload is allocation-free.
      const bool shed_all = shed_pending.load(std::memory_order_relaxed);
      const auto now = std::chrono::steady_clock::now();
      batch.clear();
      live.clear();
      std::uint64_t n_deadline = 0, n_drain = 0;
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (shed_all) {
          fill_shed(*items[i].out, pricing::Status::overloaded, kShedDrain);
          ++n_drain;
        } else if (items[i].deadline <= now) {
          fill_shed(*items[i].out, pricing::Status::deadline_exceeded,
                    kShedDeadline);
          ++n_deadline;
        } else {
          live.push_back(i);
          batch.push_back(*items[i].req);
        }
      }
      if (!batch.empty()) {
        pricer.price_many_into(batch, results, scratch);
        for (std::size_t k = 0; k < live.size(); ++k)
          *items[live[k]].out = std::move(results[k]);
      }

      // Publish the admission/stats snapshot BEFORE signalling completion,
      // so a caller that waits on its batch and then submits again is
      // admitted against figures at least as fresh as its own work.
      if (!batch.empty()) {
        scratch_bytes->store(core::aggregate_scratch().total_bytes,
                             std::memory_order_relaxed);
        served.fetch_add(batch.size(), std::memory_order_relaxed);
        batches.fetch_add(1, std::memory_order_relaxed);
      }
      if (n_deadline != 0)
        deadline_shed.fetch_add(n_deadline, std::memory_order_relaxed);
      if (n_drain != 0)
        drain_shed.fetch_add(n_drain, std::memory_order_relaxed);

      // Complete each run of items sharing a Batch handle with one lock.
      // The handle's mutex also sequences the result writes above before
      // any wait() that observes pending == 0.
      for (std::size_t i = 0; i < items.size();) {
        Batch* b = items[i].done;
        std::size_t n = 1;
        while (i + n < items.size() && items[i + n].done == b) ++n;
        {
          std::lock_guard<std::mutex> lock(b->m_);
          b->pending_ -= n;
          if (b->pending_ == 0) b->cv_.notify_all();
        }
        i += n;
      }
    }
  }
};

Server::Server(ServerConfig cfg) : cfg_(cfg) {
  if (cfg_.shards == 0) cfg_.shards = 1;
  if (cfg_.queue_capacity == 0) cfg_.queue_capacity = 1;
  if (cfg_.max_coalesced_items == 0) cfg_.max_coalesced_items = 1;
  shards_.reserve(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i)
    shards_.push_back(std::make_unique<Shard>(cfg_, scratch_bytes_));
}

Server::~Server() { stop(); }

void Server::stop() { stop_impl(nullptr); }

void Server::stop(std::chrono::microseconds grace) { stop_impl(&grace); }

void Server::stop_impl(const std::chrono::microseconds* grace) {
  for (auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->m);
    sp->stopping = true;
    sp->cv.notify_all();  // cut any in-flight coalescing linger short
  }
  // Quiesce: an armed drain keeps popping until its queue is empty, then
  // disarms — wait for that, item by shard. The pool guarantees at least
  // one worker thread, so a scheduled drain task always executes.
  const auto cutoff = grace == nullptr
                          ? std::chrono::steady_clock::time_point::max()
                          : std::chrono::steady_clock::now() + *grace;
  bool shedding = false;
  for (auto& sp : shards_) {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(sp->m);
        if (sp->size == 0 && !sp->armed) break;
      }
      if (!shedding && std::chrono::steady_clock::now() >= cutoff) {
        // Grace expired: flip every shard to shed mode. The drains finish
        // whatever price_many is in flight, then complete the rest of
        // their queues with `overloaded` — bounded by compute already
        // started, not by queue depth.
        shedding = true;
        for (auto& other : shards_) {
          other->shed_pending.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(other->m);
          other->cv.notify_all();
        }
      }
      std::this_thread::yield();
    }
  }
}

std::size_t Server::shard_of(const PricingRequest& q) const noexcept {
  if (shards_.size() <= 1) return 0;
  // FNV-1a over the kernel-identity axes: requests that can share a
  // kernel cache (and, under cross-expiry sharing, a whole chain) must
  // hash identically, so they meet in one session's warm state. Spot,
  // strike, expiry and T deliberately do NOT contribute.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= v >> (8 * i) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(q.model) |
      static_cast<std::uint64_t>(q.right) << 8 |
      static_cast<std::uint64_t>(q.style) << 16 |
      static_cast<std::uint64_t>(q.engine) << 24);
  mix(std::bit_cast<std::uint64_t>(q.spec.R));
  mix(std::bit_cast<std::uint64_t>(q.spec.V));
  mix(std::bit_cast<std::uint64_t>(q.spec.Y));
  return static_cast<std::size_t>(h % shards_.size());
}

void Server::submit(std::span<const PricingRequest> requests,
                    PricingResult* out, Batch& done) {
  submit(requests, nullptr, out, done);
}

void Server::submit(std::span<const PricingRequest> requests,
                    const std::chrono::steady_clock::time_point* deadlines,
                    PricingResult* out, Batch& done) {
  if (requests.empty()) return;
  {
    // The full count goes pending before any item is enqueued, so `done`
    // cannot ring empty while later items of this span are still in
    // flight through this loop.
    std::lock_guard<std::mutex> lock(done.m_);
    done.pending_ += requests.size();
  }
  // One admission snapshot per call: the drain this loop arms may publish
  // a fresh footprint while later items are still being admitted, and one
  // call is admitted against one figure.
  const bool scratch_over =
      cfg_.admit_scratch_bytes != 0 &&
      scratch_bytes_.load(std::memory_order_relaxed) > cfg_.admit_scratch_bytes;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Shard& s = *shards_[shard_of(requests[i])];
    const std::size_t depth_cap =
        cfg_.admit_queue_depth == 0
            ? s.ring.size()
            : std::min(cfg_.admit_queue_depth, s.ring.size());
    // Whole hint messages are fixed literals (not assembled per item), so
    // shedding under overload stays off the heap — see fill_shed above.
    std::string_view why{};
    bool needs_schedule = false;
    {
      std::lock_guard<std::mutex> lock(s.m);
      if (s.stopping) {
        why = kShedStopping;
      } else if (s.size >= depth_cap) {
        why = kShedQueueFull;
      } else if (scratch_over) {
        why = kShedScratch;
      } else {
        std::size_t tail = s.head + s.size;
        if (tail >= s.ring.size()) tail -= s.ring.size();
        s.ring[tail] = Shard::Item{
            &requests[i], &out[i], &done,
            deadlines == nullptr
                ? std::chrono::steady_clock::time_point::max()
                : deadlines[i]};
        ++s.size;
        needs_schedule = !s.armed;
        s.armed = true;
        s.cv.notify_one();  // a lingering drain picks this item up
      }
    }
    if (why.empty()) {
      s.accepted.fetch_add(1, std::memory_order_relaxed);
      // First item into an idle shard: schedule its drain on the shared
      // pool. If the pool's injection ring is momentarily full, drain on
      // this thread instead — the item must not strand.
      if (needs_schedule &&
          !core::TaskPool::instance().submit_detached(&s.drain_task))
        s.drain();
    } else {
      // Shed load instead of queueing: the item completes right here with
      // a retry hint, allocation-free (overload is exactly when the
      // daemon must not grow the heap).
      fill_shed(out[i], pricing::Status::overloaded, why);
      s.rejected.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(done.m_);
      if (--done.pending_ == 0) done.cv_.notify_all();
    }
  }
}

void Server::price_into(std::span<const PricingRequest> requests,
                        std::vector<PricingResult>& out) {
  out.resize(requests.size());
  Batch done;
  submit(requests, out.data(), done);
  done.wait();
}

std::vector<PricingResult> Server::price(
    std::span<const PricingRequest> requests) {
  std::vector<PricingResult> out;
  price_into(requests, out);
  return out;
}

void Server::serve(Transport& transport) {
  // All connection state lives in these reused buffers: at steady state
  // (stable frame shape) the loop performs no heap allocations.
  std::vector<std::byte> in(std::size_t{1} << 16);
  std::vector<std::byte> reply;
  std::vector<PricingRequest> requests;
  std::vector<std::uint64_t> deadline_us;
  std::vector<std::chrono::steady_clock::time_point> deadlines;
  std::vector<PricingResult> results;
  Batch done;
  std::size_t have = 0;
  for (;;) {
    // Drain every complete frame already buffered.
    for (;;) {
      std::size_t consumed = 0;
      wire::FrameHeader hdr;
      const wire::DecodeError e = wire::decode_request_batch(
          std::span<const std::byte>(in.data(), have), requests, deadline_us,
          hdr, consumed);
      if (e == wire::DecodeError::need_more) break;
      if (e != wire::DecodeError::ok) {
        // Malformed frame: the stream is desynchronized, so answer with a
        // one-record diagnostic and hang up rather than guess at resync.
        // The diagnostic goes out as v1 — `error` is legal in both
        // versions, and a header too corrupt to parse has no version to
        // mirror.
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
        std::vector<PricingResult> diag(1);
        diag[0].status = pricing::Status::error;
        diag[0].message =
            std::string("decode: ") + std::string(wire::to_string(e));
        reply.clear();
        wire::encode_result_batch(diag, reply, wire::kVersion1);
        (void)transport.write_all(reply);
        transport.close();
        return;
      }
      if (hdr.attempt > 0)
        retries_observed_.fetch_add(1, std::memory_order_relaxed);
      // Relative wire budgets become absolute cutoffs NOW — queueing time
      // inside the shard counts against the caller's budget, which is the
      // point: the coalescing drain sheds what went stale waiting.
      const auto now = std::chrono::steady_clock::now();
      deadlines.resize(requests.size());
      for (std::size_t i = 0; i < requests.size(); ++i)
        deadlines[i] =
            deadline_us[i] == 0
                ? std::chrono::steady_clock::time_point::max()
                : now + std::chrono::microseconds(deadline_us[i]);
      results.resize(requests.size());
      submit(requests, deadlines.data(), results.data(), done);
      done.wait();
      reply.clear();
      // Answer in the version the frame arrived with: a v1 peer never
      // sees a v2 status byte (and can never receive deadline_exceeded,
      // because a v1 frame cannot carry a deadline).
      wire::encode_result_batch(results, reply, hdr.version);
      if (!transport.write_all(reply)) return;
      std::memmove(in.data(), in.data() + consumed, have - consumed);
      have -= consumed;
    }
    // Make room for the announced frame (when the header is readable) or
    // one more read chunk, then pull bytes.
    wire::FrameHeader hdr;
    std::size_t want = have + (std::size_t{1} << 16);
    if (wire::peek_header({in.data(), have}, hdr) == wire::DecodeError::ok)
      want = std::max(want, wire::frame_bytes(hdr));
    if (in.size() < want) in.resize(want);
    const std::size_t n = transport.read_some(
        std::span<std::byte>(in.data() + have, in.size() - have));
    if (n == 0) return;  // clean EOF (or transport failure — same exit)
    have += n;
  }
}

Server::Stats Server::stats() const {
  Stats out;
  out.shard.reserve(shards_.size());
  out.shard_counters.reserve(shards_.size());
  for (const auto& sp : shards_) {
    ShardCounters c;
    c.accepted = sp->accepted.load(std::memory_order_relaxed);
    c.rejected = sp->rejected.load(std::memory_order_relaxed);
    c.deadline_shed = sp->deadline_shed.load(std::memory_order_relaxed);
    c.drain_shed = sp->drain_shed.load(std::memory_order_relaxed);
    out.submitted += c.accepted;
    out.rejected += c.rejected;
    out.deadline_shed += c.deadline_shed;
    out.drain_shed += c.drain_shed;
    out.completed += sp->served.load(std::memory_order_relaxed);
    out.batches += sp->batches.load(std::memory_order_relaxed);
    out.shard.push_back(sp->pricer.stats());
    out.shard_counters.push_back(c);
  }
  out.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  out.retries_observed = retries_observed_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace amopt::service
