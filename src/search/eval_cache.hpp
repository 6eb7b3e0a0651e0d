// Memoized BSB evaluation for allocation search.
//
// Scoring an allocation means list-scheduling every BSB under it and
// running PACE over the resulting costs.  The scheduling dominates,
// and it is massively redundant across the search: a BSB's schedule
// depends only on the counts of resource types that can execute at
// least one of its operations.  Neighbouring hill-climb points and
// successive points of the mixed-radix exhaustive enumeration differ
// in one type's count, so most (BSB, relevant-counts) pairs repeat.
//
// Eval_cache memoizes the per-BSB cost under the *projection* of the
// allocation onto the BSB's relevant resource types.  Two allocations
// that differ only in types a BSB cannot use share its cache entry.
// Cached and uncached evaluation agree bit-for-bit (pinned by
// tests/test_sched_equivalence.cpp).
//
// A cache is not thread-safe; the parallel searches create one per
// worker thread.  Two kinds of state are involved:
//   * the *memo* (projection -> cost) is mutable and stays private to
//     its worker.  The solver::Session's cache is therefore used by
//     worker 0 only — handing it to every worker would race; the other workers build private
//     caches and their contributions are aggregated into the reported
//     cache stats.  This is deliberate, not an oversight: sharing the
//     memo across threads would need locking on the hottest path of
//     the whole search.
//   * the allocation-independent per-BSB data every cache needs
//     (projection axes, hoisted ASAP/ALAP frames, cost invariants,
//     the latency table) is immutable after construction.  That part
//     *is* shareable: Eval_invariants computes it once, and every
//     worker cache built from the same instance reads it read-only
//     instead of recomputing it per worker (bit-identical results,
//     pinned by tests).  A solver::Session owns one instance per
//     problem and threads it through all of its strategies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "pace/cost_model.hpp"
#include "search/evaluate.hpp"

namespace lycos::search {

/// The immutable, allocation-independent part of an Eval_cache: per
/// BSB the projection axes (resource types whose op set intersects the
/// BSB's ops), the hoisted ASAP/ALAP time frames, the allocation-
/// independent cost fields, plus the library's cheapest-executor
/// latency table.  Computing these walks every BSB graph — which the
/// parallel searches used to pay once per worker cache; computed once
/// (e.g. by a solver::Session) and shared read-only across all worker
/// caches, every worker skips that setup and the results stay
/// bit-identical.  The context's BSBs, library and target must outlive
/// the instance; caches built from it may differ from the originating
/// context only in area_quantum / dp_table_budget / ctrl_mode /
/// storage (none of which these fields depend on... ctrl_mode and
/// storage affect only the schedule-dependent cost fields).
class Eval_invariants {
public:
    explicit Eval_invariants(const Eval_context& ctx);

    const sched::Latency_table& latencies() const { return lat_; }

    /// Projection axes of BSB `bsb` (resource ids in id order).
    const std::vector<hw::Resource_id>& relevant(std::size_t bsb) const
    {
        return relevant_[bsb];
    }

    /// ASAP/ALAP time frames of BSB `bsb` under latencies().
    const sched::Schedule_info& frames(std::size_t bsb) const
    {
        return frames_[bsb];
    }

    /// Allocation-independent cost fields of BSB `bsb` (t_sw, comm,
    /// save_prev; see pace::bsb_cost_invariants).
    const pace::Bsb_cost& invariants(std::size_t bsb) const
    {
        return invariants_[bsb];
    }

private:
    sched::Latency_table lat_;
    std::vector<std::vector<hw::Resource_id>> relevant_;
    std::vector<sched::Schedule_info> frames_;
    std::vector<pace::Bsb_cost> invariants_;
};

/// Observability counters (wired into solver::Solve_result).
struct Eval_cache_stats {
    long long hits = 0;    ///< per-BSB lookups served from the cache
    long long misses = 0;  ///< per-BSB lookups that had to schedule
    long long evictions = 0;  ///< entries dropped by the capacity cap

    double hit_rate() const
    {
        const long long total = hits + misses;
        return total > 0 ? static_cast<double>(hits) /
                               static_cast<double>(total)
                         : 0.0;
    }

    Eval_cache_stats& operator+=(const Eval_cache_stats& other)
    {
        hits += other.hits;
        misses += other.misses;
        evictions += other.evictions;
        return *this;
    }

    /// Delta since a snapshot — how shared-cache users report only
    /// their own contribution (stats().minus(before)).
    Eval_cache_stats minus(const Eval_cache_stats& before) const
    {
        return {hits - before.hits, misses - before.misses,
                evictions - before.evictions};
    }
};

/// Per-search memo of BSB costs, keyed by (BSB id, projected counts).
class Eval_cache {
public:
    /// The referenced context (BSBs, library, target) must outlive the
    /// cache.  A non-zero `max_entries` bounds the memo: the cache
    /// runs two generations (current and previous) of at most
    /// max_entries each, so live entries never exceed 2*max_entries.
    /// When the current generation fills up, the previous one is
    /// dropped (counted in stats().evictions) and the generations
    /// rotate — segmented eviction keeps the hot working set without
    /// per-entry bookkeeping.  Results are bit-identical for any
    /// capacity; large restriction spaces just stop pressuring
    /// memory.  0 = unbounded (the default, same as before).
    ///
    /// With a non-null `shared`, the cache reads the precomputed
    /// immutable frames/invariants instead of recomputing them (see
    /// Eval_invariants for the compatibility rule); results are
    /// bit-identical either way.
    explicit Eval_cache(const Eval_context& ctx, std::size_t max_entries = 0,
                        std::shared_ptr<const Eval_invariants> shared = {});

    /// Per-BSB costs under `alloc` — the memoized equivalent of
    /// pace::build_cost_model(ctx...).
    std::vector<pace::Bsb_cost> costs_for(const core::Rmap& alloc);

    /// Allocation-free variant for the search hot loop: fills `out`
    /// (resized to the BSB count) instead of returning a new vector.
    /// Consecutive search points usually change one resource count, so
    /// each BSB first checks its remembered last projection before
    /// touching the hash map.
    void costs_for(const core::Rmap& alloc, std::vector<pace::Bsb_cost>& out);

    /// Same, from a dense per-type count vector (size lib.size()) —
    /// the branch-and-bound walker keeps its digit counters dense and
    /// skips building an Rmap for points it can prune.
    void costs_for_counts(std::span<const int> counts,
                          std::vector<pace::Bsb_cost>& out);

    /// Cost of one BSB under dense `counts`.  The walker queries each
    /// BSB exactly when the digits covering its relevant types have
    /// been assigned, instead of re-fetching all BSBs at every leaf.
    /// The reference stays valid until the next query for `bsb`.
    const pace::Bsb_cost& cost_one(std::size_t bsb,
                                   std::span<const int> counts);

    /// Lookup-only variant: the memoized cost of `bsb` under `counts`,
    /// or nullptr when that projection has never been scheduled.
    /// Never schedules anything — the branch-and-bound walker uses it
    /// to take the exact cost when it is already known and fall back
    /// to an admissible proxy otherwise, deferring the expensive
    /// schedule to leaves that survive the proxy bound.  A found entry
    /// counts as a hit; a miss here is not counted (nothing was paid).
    /// The reference stays valid until the next query for `bsb`.
    const pace::Bsb_cost* find_one(std::size_t bsb,
                                   std::span<const int> counts);

    const Eval_cache_stats& stats() const { return stats_; }

    /// Live memo entries (both generations when capacity-bounded).
    std::size_t entries() const { return n_current_ + n_previous_; }

    /// The constructor's max_entries (0 = unbounded).
    std::size_t capacity() const { return max_entries_; }

    /// Precomputed ASAP/ALAP frames of one BSB (allocation-independent;
    /// the prune model reuses them instead of recomputing).
    const sched::Schedule_info& frames(std::size_t bsb) const
    {
        return inv_->frames(bsb);
    }

    /// The immutable invariants this cache reads (shared or privately
    /// computed) — reusable for further caches over the same problem.
    const std::shared_ptr<const Eval_invariants>& invariants() const
    {
        return inv_;
    }

private:
    struct Key_hash {
        std::size_t operator()(const std::vector<int>& key) const
        {
            // FNV-1a over the count words.
            std::size_t h = 1469598103934665603ull;
            for (int v : key) {
                h ^= static_cast<std::size_t>(static_cast<unsigned>(v));
                h *= 1099511628211ull;
            }
            return h;
        }
    };
    using Memo = std::unordered_map<std::vector<int>, pace::Bsb_cost, Key_hash>;

    /// Insert into the current generation, rotating when full.
    void insert(std::size_t bsb, const std::vector<int>& key,
                const pace::Bsb_cost& cost);

    const Eval_context ctx_;
    /// Immutable per-BSB data (projection axes, frames, invariants,
    /// latency table): shared read-only across worker caches when the
    /// constructor got one, privately computed otherwise.
    std::shared_ptr<const Eval_invariants> inv_;
    std::size_t max_entries_ = 0;
    std::size_t n_current_ = 0;
    std::size_t n_previous_ = 0;
    /// Scheduler scratch reused by every miss (the cache is
    /// single-threaded, so one workspace serves all of them).
    sched::Schedule_workspace sched_ws_;
    std::vector<Memo> memo_;       ///< current generation
    std::vector<Memo> previous_;   ///< previous generation (bounded mode)
    std::vector<int> counts_;  ///< reusable dense-counts buffer
    std::vector<int> key_;     ///< reusable projection-key buffer
    /// Per BSB: the most recent projection key and its cost — the
    /// fast path for the enumeration's one-digit-at-a-time locality.
    std::vector<std::vector<int>> last_key_;
    std::vector<pace::Bsb_cost> last_cost_;
    std::vector<std::uint8_t> last_valid_;
    Eval_cache_stats stats_;
};

}  // namespace lycos::search
