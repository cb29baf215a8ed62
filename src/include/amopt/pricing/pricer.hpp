#pragma once
// Session-based pricing front-end — the object a pricing server sits on.
//
// A `Pricer` is a long-lived session owning the reusable machinery the
// one-shot facade rebuilds on every call: per-tap-group `KernelCache`s
// (keyed by the stencil taps a request derives, exactly the sharing rule of
// the legacy `price_batch`) and boundary-engine node tables, held in one
// registry bounded by one LRU by bytes (`Pricer::kCacheBytes`), so
// recalibration loops over thousands of distinct vols — or of node-table
// settings — cannot grow memory without bound. FFT plans
// and conv workspaces are already process/thread-global, so a warm session
// makes the kernel powers — the dominant per-pricing setup cost — the last
// thing left to amortize:
//
//   * `price_many` serves a HETEROGENEOUS batch (mixed models, rights,
//     expiries, engines, compute targets) with per-item `Status` instead of
//     throw-on-first-error; items whose derived taps coincide share one
//     kernel cache and the fan-out runs on the core::TaskPool;
//   * `greeks_many` layers the finite-difference greeks on top, with every
//     bumped re-pricing routed through the session's caches;
//   * `implied_vol_many` runs the safeguarded Newton inversion with every
//     trial-vol evaluation routed through the session's caches, so the
//     bracket endpoints and early iterates (shared across a chain, and
//     across repeated calls as quotes tick) hit warm kernels.
//
// The legacy free functions `price()` / `price_batch()` are thin wrappers
// over a temporary session and return bit-identical values (asserted by
// tests/test_pricer.cpp).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "amopt/pricing/request.hpp"
#include "amopt/stencil/kernel_cache.hpp"
#include "amopt/stencil/linear_stencil.hpp"

namespace amopt::pricing::alo {
struct NodeTable;
}

namespace amopt::pricing {

/// Session-level configuration.
struct PricerConfig {
  core::SolverConfig solver{};  ///< default per-request solver config
  /// Cap on this session's batch fan-out width (number of pool executors a
  /// price_many call may occupy, caller included). 0 = the pool's current
  /// width (AMOPT_THREADS / set_threads); 1 pins the session serial without
  /// narrowing the process-wide pool. The cap bounds only the per-batch
  /// item fan-out — the solvers' intra-solve tasks still use the shared
  /// pool, which is what `SolverConfig::parallel` gates.
  int threads = 0;
  /// Warm-start repeated implied-vol inversions: the session remembers each
  /// contract's last two (vol, price) evaluation points and restarts the
  /// safeguarded secant from them, so a recalibration tick typically costs
  /// 1-3 pricings instead of the ~12 of a cold bracketed Newton. The root
  /// satisfies the same price tolerance but may differ from the cold path
  /// in the last bits (different, fewer iterates); set false to replay the
  /// free-function iteration exactly on every call.
  bool warm_start_iv = true;
  /// Warm-start repeated batch greeks the way implied vol is warm-started:
  /// the session remembers the price of every bumped spec a greeks report
  /// evaluates (keyed by the full spec + discretization + resolved solver
  /// config), so a recalibration tick that re-requests greeks for an
  /// unchanged contract replays its finite-difference legs from the store
  /// instead of re-pricing them. Prices are deterministic in the key, so
  /// reuse is exact — results are bit-identical to a cold call at the same
  /// SIMD dispatch level. Set false to re-price every leg on every call.
  bool warm_start_greeks = true;
  /// Opt-in cross-expiry kernel sharing: requests in one `price_many` batch
  /// whose derived taps differ ONLY through the time step (same model /
  /// right / style / fft engine and same R, V, Y — a chain over expiries)
  /// are renormalized to their group's finest dt: T becomes
  /// round(expiry / dt*) and expiry is snapped onto the step grid
  /// (|change| <= dt*/2, sub-step). Tap vectors across the group then
  /// coincide bit for bit, so the whole chain shares ONE kernel cache —
  /// powers, squaring ladder, and spectra are built once per chain instead
  /// of once per expiry. Prices change by the normalization itself (a
  /// refinement: T never decreases), bounded by the lattice's own O(1/T)
  /// discretization error; see DESIGN.md §5. Items whose renormalized T
  /// would exceed 8x the requested T keep their own discretization.
  bool share_kernels_across_expiries = false;
  /// Relative tolerance widening the sharing group key above from exact
  /// (R, V, Y) equality to quantized equality. 0 (default) keeps the exact
  /// byte-key grouping — byte-for-byte the pre-quantization behavior. A
  /// positive quantum buckets each of R, V, Y by
  /// floor(log|x| / log1p(quantum)) (sign-separated; 0 only matches 0), so
  /// legs land in one group only when every field agrees within a factor of
  /// (1 + quantum); each >= 2-member group then snaps its (R, V, Y) onto
  /// the group's lexicographically smallest member tuple before the dt
  /// renormalization, moving any field by at most `quantum` relative —
  /// that is what makes near-identical vol legs (recalibration-tick drift)
  /// derive bit-equal taps and hit ONE warm kernel group. Bucketing is
  /// conservative: legs straddling a bucket boundary never share, even if
  /// pairwise closer than the quantum. Price perturbation is bounded by the
  /// field snap (first-order: vega * quantum * V etc.) on top of the
  /// sharing refinement below; covered by the DESIGN.md §12 accuracy
  /// contract. Ignored while share_kernels_across_expiries is false.
  double share_quantum = 0.0;
  /// Opt-in scratch-arena high-water-mark decay: after each batch, every
  /// thread that served items trims its ScratchStack down to at most this
  /// many bytes (core::ScratchStack::trim), so a long-lived session mixing
  /// huge and tiny T releases the dead blocks between batches while the
  /// descent itself keeps PR-5's grow-only guarantee (trim is a no-op while
  /// any frame is live). 0 (default) disables trimming — the arena keeps
  /// its high-water mark forever, exactly the pre-trim behavior.
  std::size_t scratch_trim_bytes = 0;
};

class Pricer {
 public:
  explicit Pricer(PricerConfig cfg = {});
  Pricer(const Pricer&) = delete;
  Pricer& operator=(const Pricer&) = delete;

  /// Capability introspection: true iff `price_many` produces Status::ok
  /// for this combination (mirrors the legacy `price()` dispatch; asserted
  /// against it combination-by-combination in tests/test_pricer.cpp).
  [[nodiscard]] static bool supports(Model m, Right r, Style s,
                                     Engine e) noexcept;
  /// Same including the compute targets: greeks and implied-vol are
  /// currently implemented for BOPM American contracts on the fft engine.
  [[nodiscard]] static bool supports(Model m, Right r, Style s, Engine e,
                                     unsigned compute) noexcept;

  /// Serve a heterogeneous batch. results[i] describes requests[i]; no
  /// exception escapes for unsupported combinations or per-item failures
  /// (those are reported in the item's Status/message/error).
  [[nodiscard]] std::vector<PricingResult> price_many(
      std::span<const PricingRequest> requests);

  /// Reusable per-caller workspace for `price_many_into`: the batch-local
  /// vectors `price_many` would otherwise allocate per call. A long-lived
  /// caller (a server shard's hot loop) keeps one and reuses it, so a
  /// steady-state batch of a stable size performs no heap allocations at
  /// the batching layer — the capacities converge to the high-water mark
  /// and stay there.
  struct BatchScratch {
    std::vector<std::shared_ptr<stencil::KernelCache>> cache_of;
    std::vector<PricingRequest> normalized;
  };

  /// `price_many` writing into caller-owned storage: `out` is resized to
  /// requests.size() (capacity reused across calls) and `scratch` supplies
  /// the batch-local buffers. Semantics and per-item results are identical
  /// to `price_many` (which wraps this with fresh vectors).
  void price_many_into(std::span<const PricingRequest> requests,
                       std::vector<PricingResult>& out, BatchScratch& scratch);

  /// Single-request convenience (no batch fan-out; the solver's own
  /// intra-solve tasks still use the pool, like a legacy `price()` call).
  [[nodiscard]] PricingResult price_one(const PricingRequest& request);

  /// Batch greeks: `price_many` with every item's compute mask replaced by
  /// Compute::greeks (the report's own price lands in both `greeks.price`
  /// and `price`).
  [[nodiscard]] std::vector<PricingResult> greeks_many(
      std::span<const PricingRequest> requests);

  /// Batch implied vol: `price_many` with every item's compute mask
  /// replaced by Compute::implied_vol. Each item inverts its
  /// `target_price` with the safeguarded Newton of `implied_vol.hpp`,
  /// every trial-vol evaluation drawing on the session's kernel caches.
  [[nodiscard]] std::vector<PricingResult> implied_vol_many(
      std::span<const PricingRequest> requests);

  /// The byte budget of the session registry: kernel caches (powers,
  /// squaring-ladder rungs, power snapshots, spectra) and boundary-engine
  /// node tables, summed. Least-recently-used entries are dropped until the
  /// total fits, on every insert and at the end of every batch, so an idle
  /// session holds at most this much. An entry some in-flight pricing still
  /// holds is skipped: dropping it would free nothing, only its warmth.
  ///
  /// A kernel cache built for a trial vol (an implied-vol iterate or a
  /// greeks bump) counts twice its bytes until a request asks for its taps
  /// as its own group. Iterates move with every quote, so such groups are
  /// rarely asked for again; charged double they can fill at most half the
  /// budget, while a chain's own groups may use all of it.
  ///
  /// A group larger than the whole budget (a BOPM fft solve at T = 2^16, a
  /// BSM put at T >= 2^15) is dropped when its batch returns, and
  /// re-pricing it in a later call rebuilds its kernels. 3 MiB keeps a
  /// warm chain of a 4-strike BOPM call group and a BSM put group at
  /// T = 8192 (2.3 MB together) across calls, and holds the trial groups
  /// of the surface-refit workload (perfbench/: 4 daemon shards plus a
  /// direct session refitting implied vols at T 512-2560) at 1.5 MiB per
  /// session. Its peak RSS over 10 alternating 30 s runs each, median
  /// [quartiles]: 22.4 [22.2, 23.0] MB with the count-bounded registry
  /// this replaced, 21.8 [21.4, 22.5] MB at 3 MiB, 25.9 [25.6, 26.8] MB at
  /// 4 MiB (4-vCPU AVX-512 VM).
  static constexpr std::size_t kCacheBytes = std::size_t{3} << 20;

  struct Stats {
    std::size_t kernel_caches = 0;  ///< live tap-group registry entries
    std::size_t node_tables = 0;    ///< live node-table registry entries
    std::size_t cache_bytes = 0;    ///< registry bytes, <= kCacheBytes idle
    /// Spectra released with the kernel caches the budget evicted.
    std::uint64_t spectrum_evictions = 0;
    std::uint64_t cache_hits = 0;   ///< tap-group lookups served warm
    std::uint64_t cache_misses = 0; ///< tap-group lookups that built a cache
    std::uint64_t requests = 0;     ///< items served across all batches
    std::size_t warm_roots = 0;     ///< contracts with a remembered IV root
    std::size_t warm_bump_prices = 0;   ///< remembered greeks-leg prices
    std::uint64_t bump_price_hits = 0;  ///< greeks legs served from the store
    /// Admission-control inputs for the service plane (service/server.hpp):
    std::uint64_t batches = 0;  ///< price_many/price_many_into calls served
    /// Largest per-thread ScratchStack footprint observed at the end of any
    /// batch this session served, in bytes and measured BEFORE the opt-in
    /// between-batches trim — the true arena high-water mark, which is what
    /// an admission controller sizing a shard's memory ceiling needs.
    std::size_t scratch_high_water_bytes = 0;
    std::uint64_t scratch_trim_events = 0;  ///< trims that actually released
    /// Current PROCESS-WIDE arena footprint summed over every live thread
    /// arena (core::aggregate_scratch) — once batches fan out across pool
    /// workers, the true multi-thread footprint is this sum, not any single
    /// thread's high-water mark. Snapshot at stats() time (after any
    /// between-batches trim), shared by all sessions in the process.
    std::size_t scratch_total_bytes = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Drop all warm state (kernel caches and counters).
  void clear();

  [[nodiscard]] const PricerConfig& config() const noexcept { return cfg_; }

 private:
  using CachePtr = std::shared_ptr<stencil::KernelCache>;
  using TablePtr = std::shared_ptr<const alo::NodeTable>;

  /// Find-or-create the session cache for a tap group; thread-safe. Empty
  /// taps (no cache-aware path) yield null. `trial` marks a lookup for a
  /// trial vol rather than a request's own spec (see kCacheBytes).
  [[nodiscard]] CachePtr cache_for(const stencil::LinearStencil& st,
                                   bool trial);

  /// Drop least-recently-used entries no pricing holds until their charges
  /// fit kCacheBytes. Caller holds mu_.
  void evict_to_budget();

  /// Find-or-create the session's boundary-engine node table for the
  /// config's (alo_nodes, alo_quad); thread-safe. Lives in the same
  /// registry as the kernel caches, so steady-state boundary quotes (and
  /// their IV trials) are pure evaluation — the table build is a
  /// once-per-setting setup cost.
  [[nodiscard]] TablePtr node_table_for(const core::SolverConfig& cfg);

  /// Price `spec` under the request's (model, right, style, engine) with
  /// the session cache for its derived taps — the evaluation primitive the
  /// greeks bumps and implied-vol iterations run on.
  [[nodiscard]] double price_cached(const OptionSpec& spec,
                                    const PricingRequest& req,
                                    const core::SolverConfig& cfg);

  /// price_cached through the session's bumped-price store (the greeks
  /// warm-start): identical value, remembered across calls so repeated
  /// greeks over an unchanged contract skip the re-pricing entirely.
  [[nodiscard]] double price_cached_memo(const OptionSpec& spec,
                                         const PricingRequest& req,
                                         const core::SolverConfig& cfg);

  /// The cross-expiry dt normalization behind
  /// `PricerConfig::share_kernels_across_expiries` (see its comment).
  /// `quantum` is `PricerConfig::share_quantum`: 0 groups on exact (R, V, Y)
  /// bytes; > 0 groups on quantized buckets and snaps each >= 2-member
  /// group's (R, V, Y) onto its lexicographically smallest member tuple
  /// before the dt renormalization.
  static void normalize_expiries(std::vector<PricingRequest>& reqs,
                                 double quantum = 0.0);

  /// Serve one validated item; throws on pricer failure (caught by the
  /// batch loop and converted to Status::error).
  void run_item(const PricingRequest& req, stencil::KernelCache* kernels,
                PricingResult& out);

  /// The implied-vol leg of run_item: cold bracketed Newton on the first
  /// inversion of a contract, warm-started secant afterwards.
  void run_implied_vol(const PricingRequest& req, const ImpliedVolConfig& ivc,
                       const core::SolverConfig& cfg, PricingResult& out);

  /// Two genuine (vol, price-at-vol) samples from a contract's last
  /// converged inversion; prices do not depend on the quote, so they seed
  /// the next tick's secant for free.
  struct WarmRoot {
    double v0 = 0.0, p0 = 0.0;  ///< newest point (the root)
    double v1 = 0.0, p1 = 0.0;  ///< previous distinct iterate
  };

  PricerConfig cfg_;
  mutable std::mutex mu_;
  /// One registry entry: a kernel cache (keyed by its stencil's taps) or a
  /// node table (keyed by (alo_nodes << 32) | alo_quad, clamped values).
  struct Entry {
    CachePtr cache;  ///< null for a node table
    TablePtr table;  ///< null for a kernel cache
    std::uint64_t table_key = 0;
    std::size_t table_bytes = 0;  ///< NodeTable::bytes(); tables are immutable
    std::uint64_t last_used = 0;
    /// A kernel cache only trial-vol lookups have asked for.
    bool trial = false;
    [[nodiscard]] std::size_t bytes() const;
    /// What the entry counts against kCacheBytes: bytes(), doubled while
    /// `trial`.
    [[nodiscard]] std::size_t charge() const;
    /// True while a pricing outside the registry holds the entry.
    [[nodiscard]] bool in_use() const;
  };
  std::vector<Entry> entries_;
  std::unordered_map<std::string, WarmRoot> warm_roots_;  ///< by contract key
  /// Bumped-spec prices the greeks legs evaluated, by full evaluation key
  /// (spec + T + model/right/style/engine + resolved solver config).
  std::unordered_map<std::string, double> bump_prices_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t bump_hits_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t spectrum_evictions_ = 0;
  /// Atomic (not mu_-guarded): updated by every fan-out thread at the end
  /// of a batch, where taking the registry mutex would serialize the join.
  std::atomic<std::size_t> scratch_high_water_{0};
  std::atomic<std::uint64_t> trim_events_{0};
};

}  // namespace amopt::pricing
