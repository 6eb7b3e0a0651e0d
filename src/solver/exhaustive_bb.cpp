// exhaustive_bb — the §5 search for "the best allocation", run as a
// deterministic branch-and-bound over the whole allocation space.
//
// The search is chunk-parallel: the mixed-radix index range
// [0, Alloc_space::size()) is split into one contiguous chunk per
// worker thread, each worker walks its chunk as a mixed-radix *tree*
// (digits assigned most-significant first, so subtrees are contiguous
// index ranges) with its own Eval_cache and session workspace slot,
// and the per-chunk bests are reduced in chunk order.  Worker 0
// searches on the session cache, so incumbent priming warms the very
// cache the first chunk then reads, and a later Session::rescore runs
// on warm entries.  Three admissible prunes skip work without ever
// changing the best tuple:
//   * area-monotone subtrees: a digit prefix whose data-path area
//     already exceeds the ASIC kills the whole subtree (digits only
//     add area) — those points would have been enumerated but never
//     evaluated anyway,
//   * gain-bounded subtrees: an allocation-independent lower bound on
//     the hybrid time (ASAP-length hardware times, coverage of the
//     subtree's maximal completion) proves no completion can beat the
//     worker's incumbent,
//   * per-point DP savings: cached leaves run the value-only
//     screening DP (pace_best_saving) and only pay the traceback
//     reconstruction when the screened time can still beat the
//     incumbent (screened points count as n_evaluated — they were
//     scored); on the uncached path, pace::max_gain bounds the
//     achievable saving and candidates that cannot beat the incumbent
//     skip the PACE DP entirely (counted in n_pruned).
// The interior gain bound is additionally conditioned on the digit
// prefix already assigned: per op kind, the instance capacity any
// completion can still reach (assigned digits exactly, open dims at
// their bound) yields a work/capacity floor on every BSB's schedule
// length, tightening the coverage bound as digits shrink below their
// bounds.  DP leaf evaluations run *incrementally*: each worker's
// Pace_workspace checkpoints the DP rows of its last evaluation, the
// leaves arrive in tree order (long shared cost prefixes), and the
// table width is pinned to the total ASIC area
// (Eval_context::dp_table_budget) so rows stay valid across leaves
// with different leftover budgets — the sweep restarts at the first
// BSB whose cost actually changed (Solve_result::dp_rows_reused).
// The workspaces are the session's Dp_workspace_pool slots, so the
// checkpoints also survive into the next solve of the session
// (Solve_result::dp_rows_reused_cross_request).
//
// Anytime and distributed solves: a cancel token is polled at subtree
// and leaf boundaries, and its presence disables incumbent priming —
// pruning against a probe time that is never itself enumerated could
// leave a truncated run without the best point of its explored
// prefix.  Solve_options::window restricts the walk to a leaf-index
// range; folding the per-window bests of any partition of the space
// in window order reproduces the full-space best tuple.  An external
// incumbent bound is sampled at chunk entry and at the strided leaf
// polls and folded into the prune threshold.
//
// Because every prune removes only provably-worse points and the
// reduction applies the same strict better_than the sequential loop
// used (keep the incumbent on ties), the best tuple is bit-identical
// to the unpruned single-threaded search for any thread count.
#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "estimate/comm.hpp"
#include "estimate/controller.hpp"
#include "estimate/sw_time.hpp"
#include "pace/cost_model.hpp"
#include "sched/time_frames.hpp"
#include "search/alloc_space.hpp"
#include "search/workspace_pool.hpp"
#include "solver/internal.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace lycos::solver::detail {

namespace {

using search::Alloc_space;
using search::Eval_cache;
using search::Eval_cache_stats;
using search::Eval_context;
using search::Evaluation;

/// What one worker accumulates over its chunk of the index range.
struct Chunk_result {
    Evaluation best;
    bool have_best = false;
    long long n_evaluated = 0;
    long long n_pruned = 0;
    long long n_pruned_remote = 0;  ///< kills only the external bound made
    long long dp_rows_reused = 0;
    long long dp_rows_swept = 0;
    long long dp_rows_foreign = 0;  ///< reused rows from an earlier solve
    long long rows_abandoned = 0;  ///< leaves refused by the cancel token
    bool abandoned = false;        ///< chunk stopped before its end
    Eval_cache_stats stats;
};

/// One dimension of the mixed-radix walk, most-significant last.
struct Dim_info {
    hw::Resource_id id{};
    int bound = 0;
    double unit_area = 0.0;
    long long span = 0;  ///< indices covered per digit step at this dim
};

/// Allocation-independent data behind the gain-bound prune, computed
/// once per search and shared read-only by all workers.
///
/// Per BSB, an admissible upper bound on the saving it can contribute
/// to any partition under any allocation of the space:
///
///   g_ub = max(0, t_sw - t_hw_lb - comm + save_prev)
///
/// where t_hw_lb uses the ASAP critical-path length under each op
/// kind's minimum latency across all library executors — a true lower
/// bound on every resource-constrained list schedule, immune to the scheduling
/// anomalies that make the schedule length itself non-monotone in the
/// allocation.  t_sw, comm and save_prev are allocation-independent
/// and use the same float expressions as bsb_cost_one.  BSBs no
/// combination of the dims can execute never move to hardware and
/// contribute nothing.
///
/// Coverage is the only allocation-dependent ingredient of the coarse
/// bound: a BSB only contributes where every op kind it uses has an
/// allocated executor, and coverage *is* monotone in the counts.  The
/// walker maintains the coverage of each subtree's maximal completion
/// incrementally (only a digit fixed at 0 removes a type), and
/// replaces the coarse per-BSB bound with the *exact* memoized cost as
/// soon as all of a BSB's relevant dims are assigned (its
/// "determination depth").
struct Prune_model {
    bool enabled = false;
    double all_sw = 0.0;  ///< sum of t_sw, the all-software time
    double slack = 0.0;   ///< float-safety margin on bound comparisons
    std::vector<double> g_ub;  ///< per BSB; 0 when never feasible
    std::vector<std::vector<int>> dim_kinds;  ///< per dim: relevant kinds
    std::vector<std::vector<int>> kind_bsbs;  ///< per kind: BSBs (g_ub>0)
    std::vector<int> n_exec_init;  ///< per kind: #dims executing it
    /// by_min_dim[d]: BSBs whose lowest relevant dim is d — their cost
    /// becomes exact once the walk assigns dim d's digit.  Slot
    /// dims.size() holds BSBs no dim affects (constant cost).
    std::vector<std::vector<int>> by_min_dim;

    /// Ingredients of the digit-prefix-conditioned gain bound.  For a
    /// subtree, the instance capacity of op kind k is the digit sum
    /// over dims executing k (assigned digits exactly, open dims at
    /// their bound) — the most instances any completion can field.
    /// Every resource-constrained schedule then satisfies
    ///   len >= ceil(ops_k * min_lat_k / capacity_k)
    /// (kind-k ops occupy kind-k-capable instances for at least
    /// min_lat_k cycles each), so the per-BSB gain bound can use
    /// max(asap_len, work floors) instead of asap_len alone — and it
    /// tightens as assigned digits drop below their bounds.  The
    /// float expression rebuilding the bound mirrors build_prune_model
    /// exactly, so an unconditioned recompute reproduces g_ub bitwise.
    /// The same machinery doubles as the *proxy cost* of a BSB whose
    /// exact cost has not been scheduled yet: t_hw from the
    /// conditioned length floor, controller area from the same floor
    /// (controller_area is monotone in the state count), comm and
    /// adjacency exact.  Field-for-field optimistic versus the exact
    /// bsb_cost_one result, so any bound or DP computed over proxy
    /// costs is admissible (see Walker::proxy_cost).
    struct Gain_term {
        bool coverable = false;  ///< some point of the space runs it in HW
        double t_sw = 0.0;
        double comm = 0.0;
        double adj = 0.0;  ///< max(0, adjacency saving); 0 for BSB 0
        double profile = 0.0;
        long long asap_len = 0;
        /// (kind index, ops-of-kind * min latency) per used kind.
        std::vector<std::pair<std::size_t, long long>> work;
    };
    std::vector<Gain_term> terms;  ///< per BSB (coverable => full fill)
    double cycle_ns = 0.0;
    std::vector<int> avail_init;  ///< per kind: digit-sum at all bounds
    /// Per dim: kinds whose capacity must track this dim's digit —
    /// kinds used by ANY coverable BSB (a superset of dim_kinds,
    /// which only carries kinds behind a positive gain bound; proxy
    /// costs need capacities for the rest too).
    std::vector<std::vector<int>> dim_avail_kinds;
    /// Per dim: the bounded BSBs whose conditioned gain can move when
    /// this dim's digit changes — the union of kind_bsbs over the
    /// dim's kinds, deduplicated so the walker refreshes each BSB
    /// once per digit instead of once per shared kind.
    std::vector<std::vector<int>> dim_refresh_bsbs;
};

Prune_model build_prune_model(const Eval_context& ctx,
                              const std::vector<Dim_info>& dims,
                              const Eval_cache* cache)
{
    Prune_model m;
    const std::size_t n = ctx.bsbs.size();

    // Coverage at the space's maximal point (every dim at its bound):
    // a BSB no combination of the dims can execute never moves to
    // hardware anywhere in the space.
    hw::Op_set max_cover;
    for (const auto& d : dims)
        max_cover = max_cover | ctx.lib[d.id].ops;

    // True per-kind minimum latency over ALL executors in the library.
    // The schedule lower bound must hold whatever instance an op ends
    // up bound to; latency_table_from picks the smallest-AREA
    // executor, whose latency can exceed a faster-but-larger variant's,
    // and using it here could prune the true optimum.
    sched::Latency_table min_lat(1);
    for (const auto k : hw::all_op_kinds()) {
        int best = std::numeric_limits<int>::max();
        for (std::size_t ri = 0; ri < ctx.lib.size(); ++ri) {
            const auto& rt = ctx.lib[static_cast<hw::Resource_id>(ri)];
            if (rt.ops.contains(k))
                best = std::min(best, rt.latency_cycles);
        }
        if (best != std::numeric_limits<int>::max())
            min_lat[k] = best;
    }
    // The cache's hoisted frames use latency_table_from; they are only
    // reusable when that table already is the per-kind minimum.
    const bool cache_frames_ok =
        cache != nullptr && min_lat == sched::latency_table_from(ctx.lib);

    m.g_ub.assign(n, 0.0);
    m.terms.assign(n, {});
    m.cycle_ns = ctx.target.asic.cycle_ns();
    m.all_sw = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto& b = ctx.bsbs[i];
        // Exactly the t_sw expression of bsb_cost_one, so the bound's
        // baseline matches the evaluated all-software times.
        const double t_sw = estimate::total_sw_time_ns(b, ctx.target.cpu);
        m.all_sw += t_sw;
        m.terms[i].t_sw = t_sw;  // proxy costs need it even when
                                 // nothing here can go to hardware
        if (b.graph.empty() || !max_cover.includes(b.graph.used_ops()))
            continue;
        // Same float expression shape as bsb_cost_one's t_hw, with the
        // schedule length replaced by its ASAP lower bound, so
        // t_hw >= t_hw_lb holds bitwise (float multiply is monotone).
        const int asap_len =
            cache_frames_ok
                ? cache->frames(i).length
                : sched::compute_time_frames(b.graph, min_lat).length;
        const double t_hw_lb =
            asap_len * ctx.target.asic.cycle_ns() * b.profile;
        const double comm =
            estimate::comm_time_ns(b, ctx.target.bus) * b.profile;
        const double adj =
            i > 0 ? std::max(0.0, estimate::adjacency_saving_ns(
                                      ctx.bsbs[i - 1], b, ctx.target.bus))
                  : 0.0;
        double gain = t_sw - t_hw_lb - comm;
        gain += adj;
        if (gain > 0.0)
            m.g_ub[i] = gain;
        // Conditioned-bound / proxy-cost ingredients: the walker
        // re-derives the same expressions with max(asap,
        // work/capacity floors).  Filled for every coverable BSB —
        // proxy costs need them even when the gain bound is not
        // positive.
        auto& t = m.terms[i];
        t.coverable = true;
        t.comm = comm;
        t.adj = adj;
        t.profile = b.profile;
        t.asap_len = asap_len;
        const auto used = b.graph.used_ops();
        for (const auto k : hw::all_op_kinds())
            if (used.contains(k))
                t.work.emplace_back(
                    hw::op_index(k),
                    static_cast<long long>(b.graph.count(k)) *
                        static_cast<long long>(min_lat[k]));
    }
    // The bound sums drift by float rounding as the walker adds and
    // removes terms; the margin dwarfs that drift while staying far
    // below any physically meaningful time difference.
    m.slack = 1e-7 * std::max(1.0, std::abs(m.all_sw));

    // Coverage machinery, restricted to kinds that matter (used by a
    // BSB with a positive bound).
    m.kind_bsbs.assign(hw::n_op_kinds, {});
    m.n_exec_init.assign(hw::n_op_kinds, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (m.g_ub[i] <= 0.0)
            continue;
        const auto used = ctx.bsbs[i].graph.used_ops();
        for (const auto k : hw::all_op_kinds())
            if (used.contains(k))
                m.kind_bsbs[hw::op_index(k)].push_back(static_cast<int>(i));
    }
    // Kinds any coverable BSB uses — their capacities feed the proxy
    // costs, beyond the positive-gain kinds the coverage bound needs.
    std::array<bool, hw::n_op_kinds> used_any{};
    for (const auto& t : m.terms)
        for (const auto& [ki, work] : t.work)
            used_any[ki] = true;

    m.dim_kinds.resize(dims.size());
    m.dim_avail_kinds.resize(dims.size());
    m.dim_refresh_bsbs.resize(dims.size());
    m.avail_init.assign(hw::n_op_kinds, 0);
    std::vector<std::uint8_t> seen(n, 0);
    for (std::size_t d = 0; d < dims.size(); ++d) {
        const auto ops = ctx.lib[dims[d].id].ops;
        for (const auto k : hw::all_op_kinds()) {
            const std::size_t ki = hw::op_index(k);
            if (!ops.contains(k))
                continue;
            if (!m.kind_bsbs[ki].empty()) {
                m.dim_kinds[d].push_back(static_cast<int>(ki));
                ++m.n_exec_init[ki];
                for (const int b : m.kind_bsbs[ki])
                    if (!seen[static_cast<std::size_t>(b)]) {
                        seen[static_cast<std::size_t>(b)] = 1;
                        m.dim_refresh_bsbs[d].push_back(b);
                    }
            }
            if (used_any[ki]) {
                m.dim_avail_kinds[d].push_back(static_cast<int>(ki));
                m.avail_init[ki] += dims[d].bound;
            }
        }
        for (const int b : m.dim_refresh_bsbs[d])
            seen[static_cast<std::size_t>(b)] = 0;
    }

    // Determination depths: the lowest dim whose type intersects the
    // BSB's ops (the projection key Eval_cache uses is constant in all
    // other dims).
    m.by_min_dim.assign(dims.size() + 1, {});
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t min_dim = dims.size();
        const auto used = ctx.bsbs[i].graph.used_ops();
        for (std::size_t d = 0; d < dims.size(); ++d)
            if (ctx.lib[dims[d].id].ops.intersects(used)) {
                min_dim = d;
                break;
            }
        m.by_min_dim[min_dim].push_back(static_cast<int>(i));
    }

    m.enabled = true;
    return m;
}

/// Shared empty determination list for walkers running without the
/// incremental exact-cost overlay.
const std::vector<int> k_no_dets;

/// Admissible reduction of a BSB's software time given its exact cost:
/// the most the hybrid can save on this BSB, crediting the adjacency
/// saving unconditionally.
double exact_reduction(const pace::Bsb_cost& c, bool first)
{
    if (std::isinf(c.t_hw))
        return 0.0;
    double red = c.t_sw - c.t_hw - c.comm;
    if (!first)
        red += std::max(0.0, c.save_prev);
    return std::max(0.0, red);
}

/// One worker's branch-and-bound walk over the chunk [begin, end) of
/// the mixed-radix index range.  Digits are assigned most-significant
/// (last dim) first, so each node's subtree is a contiguous index
/// range and leaves appear in exactly the enumeration order of the
/// linear loop this replaces.
class Walker {
public:
    Walker(const Eval_context& ctx, const std::vector<Dim_info>& dims,
           const Prune_model& model, bool use_pruning, double max_area,
           double prime_time, long long begin, long long end,
           Eval_cache* cache, const util::Shared_bound* ext,
           Chunk_result& out, pace::Pace_workspace& ws)
        : ctx_(ctx), dims_(dims), model_(model), use_pruning_(use_pruning),
          max_area_(max_area), prime_time_(prime_time), begin_(begin),
          end_(end), cache_(cache), cancel_(ctx.cancel), ext_(ext),
          out_(out), digits_(dims.size(), 0),
          dense_counts_(ctx.lib.size(), 0), ws_(&ws)
    {
        bounding_ = use_pruning_ && model_.enabled;
        det_enabled_ = bounding_ && cache_ != nullptr;
        if (bounding_) {
            n_exec_ = model_.n_exec_init;
            missing_.assign(model_.g_ub.size(), 0);
            avail_ = model_.avail_init;
            cur_digit_.resize(dims_.size());
            for (std::size_t d = 0; d < dims_.size(); ++d)
                cur_digit_[d] = dims_[d].bound;  // unassigned = at bound
            cond_g_.assign(model_.g_ub.size(), 0.0);
            for (std::size_t b = 0; b < model_.g_ub.size(); ++b)
                if (model_.g_ub[b] > 0.0) {
                    cond_g_[b] = conditioned_gain(b);
                    cov_gain_ += cond_g_[b];
                }
        }
        if (det_enabled_) {
            // Proxy determinations defer scheduling: uncached exact
            // costs are stood in for by admissible optimistic costs,
            // and only leaves that survive the proxy screening DP pay
            // for real schedules.  Disabled under a storage model
            // (its area needs the schedule, so no sound proxy exists).
            use_proxy_ = ctx_.storage == nullptr;
            proxied_.assign(ctx_.bsbs.size(), 0);
            determined_.assign(ctx_.bsbs.size(), 0);
            cur_cost_.resize(ctx_.bsbs.size());
            cur_red_.assign(ctx_.bsbs.size(), 0.0);
            // BSBs no dim affects have one constant cost everywhere
            // (exactly: their single schedule is needed at every
            // leaf, so a proxy would only delay it).
            const bool proxy = use_proxy_;
            use_proxy_ = false;
            for (const int i : model_.by_min_dim[dims_.size()])
                determine(static_cast<std::size_t>(i));
            use_proxy_ = proxy;
        }
    }

    void run()
    {
        // The session workspace carries counters (and checkpoints)
        // from earlier solves — report this run's deltas only.
        const long long reused0 = ws_->rows_reused();
        const long long swept0 = ws_->rows_swept();
        const long long foreign0 = ws_->rows_reused_foreign();
        // Full poll once per chunk entry: a deadline that expired
        // before this chunk started abandons it whole — otherwise a
        // space smaller than the leaf-poll stride would never read
        // the clock at all.
        if (ext_ != nullptr)
            ext_val_ = ext_->get();
        if (cancel_ != nullptr && cancel_->stop()) {
            out_.rows_abandoned += end_ - begin_;
            stopped_ = true;
        }
        else {
            walk(static_cast<int>(dims_.size()) - 1, 0, 0.0);
        }
        out_.dp_rows_reused += ws_->rows_reused() - reused0;
        out_.dp_rows_swept += ws_->rows_swept() - swept0;
        out_.dp_rows_foreign += ws_->rows_reused_foreign() - foreign0;
        out_.abandoned = stopped_;
    }

private:
    void walk(int d, long long base, double prefix_area)
    {
        if (d < 0) {
            leaf();
            return;
        }
        const auto& dim = dims_[static_cast<std::size_t>(d)];
        // End of this dim's whole digit range, for bulk prune counting.
        const long long dim_end =
            base + (static_cast<long long>(dim.bound) + 1) * dim.span;
        for (int c = 0; c <= dim.bound; ++c) {
            const long long sub_base = base + c * dim.span;
            if (sub_base >= end_)
                break;  // every later digit lies past the chunk
            if (sub_base + dim.span <= begin_)
                continue;  // before the chunk
            const long long lo = std::max(begin_, sub_base);
            const long long hi = std::min(end_, sub_base + dim.span);

            // Admission gate: the logical unit is the subtree's base
            // index — thread-invariant, so the injected cut refuses
            // exactly the leaves >= the cut on every chunking (a
            // subtree straddling the cut is admitted here and refused
            // leaf-by-leaf at dim 0, whose span is 1).  A live trip
            // abandons the rest of the chunk at this boundary.
            if (cancel_ != nullptr &&
                !cancel_->admit(static_cast<std::uint64_t>(sub_base))) {
                if (cancel_->tripped()) {
                    out_.rows_abandoned += std::min(end_, dim_end) - lo;
                    stopped_ = true;
                    return;
                }
                out_.rows_abandoned += hi - lo;  // cut refusal: keep
                continue;                        // counting siblings
            }

            const double area = prefix_area + c * dim.unit_area;
            if (use_pruning_ && area > area_prune_limit()) {
                // Area-monotone: deeper digits and larger c only add
                // area, so the rest of this dim's range is dead.
                out_.n_pruned += std::min(end_, dim_end) - lo;
                if (bounding_)
                    set_dim_digit(static_cast<std::size_t>(d), dim.bound);
                return;
            }

            digits_[static_cast<std::size_t>(d)] = c;
            dense_counts_[static_cast<std::size_t>(dim.id)] = c;
            if (bounding_)
                set_dim_digit(static_cast<std::size_t>(d), c);
            const bool toggled = bounding_ && c == 0;
            if (toggled)
                remove_dim(static_cast<std::size_t>(d));

            // Tighten the bound lazily: the coarse coverage bound is
            // free; each determination (a memoized cost query) only
            // runs while the subtree still survives, so branches dead
            // on the coarse bound never schedule anything.
            bool pruned = bounding_ && bound_exceeds(area);
            const auto& det_list =
                det_enabled_
                    ? model_.by_min_dim[static_cast<std::size_t>(d)]
                    : k_no_dets;
            std::size_t n_det = 0;
            while (!pruned && n_det < det_list.size()) {
                determine(static_cast<std::size_t>(det_list[n_det]));
                ++n_det;
                pruned = bound_exceeds(area);
            }

            if (pruned) {
                // No completion of this prefix can beat the incumbent
                // (or the primed probe time, itself achieved by a point
                // that is never pruned).
                out_.n_pruned += hi - lo;
                if (remote_kill_)
                    out_.n_pruned_remote += hi - lo;
            }
            else {
                walk(d - 1, sub_base, area);
                if (stopped_)
                    return;
            }

            while (n_det > 0)
                undetermine(static_cast<std::size_t>(det_list[--n_det]));
            if (toggled)
                restore_dim(static_cast<std::size_t>(d));
        }
        if (bounding_)
            set_dim_digit(static_cast<std::size_t>(d), dim.bound);
    }

    /// Subtree area pruning is conservative by a margin so that float
    /// summation-order differences against the canonical leaf sum can
    /// never prune a point the linear enumeration would have scored.
    double area_prune_limit() const
    {
        return max_area_ + 1e-6 * (1.0 + std::abs(max_area_));
    }

    /// The locally-derived time to beat: the worker's incumbent, or —
    /// before one exists / when it is still weak — the primed probe
    /// time computed once per search.
    double local_threshold() const
    {
        return out_.have_best
                   ? std::min(prime_time_,
                              out_.best.partition.time_hybrid_ns)
                   : prime_time_;
    }

    /// The effective time to beat: the local threshold, further
    /// tightened by the last-sampled external incumbent bound (a
    /// remote worker's fully evaluated point).  Every pruned point is
    /// strictly worse than an actually-evaluated point either way, so
    /// the best tuple is unaffected.
    double threshold() const
    {
        return std::min(local_threshold(), ext_val_);
    }

    /// True when no completion of the current prefix can beat the
    /// threshold.  Two admissible layers: the free coverage/exact-sum
    /// bound, then — only when exact costs are in play — a fractional-
    /// knapsack relaxation that also respects the controller-area
    /// budget the prefix leaves free.  Sets remote_kill_ when the kill
    /// holds only because of the external bound.
    bool bound_exceeds(double prefix_area)
    {
        remote_kill_ = false;
        const double local = local_threshold() + model_.slack;
        const double thr = threshold() + model_.slack;
        if (!std::isfinite(thr))
            return false;
        const double lhs0 = model_.all_sw - (cov_gain_ + exact_sum_);
        if (lhs0 > thr) {
            remote_kill_ = !(lhs0 > local);
            return true;
        }
        if (!det_enabled_)
            return false;
        const double lhs1 = model_.all_sw - lp_gain_bound(prefix_area);
        if (lhs1 > thr) {
            remote_kill_ = !(lhs1 > local);
            return true;
        }
        return false;
    }

    /// Upper bound on the total saving of any completion: determined
    /// BSBs enter a fractional knapsack with their exact reductions
    /// and controller areas against the area the data-path prefix
    /// leaves free; undetermined-but-coverable BSBs are credited
    /// area-free (their controller area is unknown, zero is the safe
    /// relaxation).
    double lp_gain_bound(double prefix_area)
    {
        double budget = max_area_ - prefix_area +
                        1e-6 * (1.0 + std::abs(max_area_));
        if (budget < 0.0)
            budget = 0.0;
        double g = cov_gain_;
        lp_items_.clear();
        for (std::size_t i = 0; i < cur_red_.size(); ++i) {
            if (determined_[i] == 0 || cur_red_[i] <= 0.0)
                continue;
            const double a = cur_cost_[i].ctrl_area;
            if (a <= 0.0)
                g += cur_red_[i];
            else
                lp_items_.emplace_back(cur_red_[i], a);
        }
        // Classic greedy-by-density: optimal for the fractional
        // relaxation, so an upper bound on every 0/1 packing.
        std::sort(lp_items_.begin(), lp_items_.end(),
                  [](const auto& x, const auto& y) {
                      return x.first * y.second > y.first * x.second;
                  });
        for (const auto& [red, a] : lp_items_) {
            if (a <= budget) {
                g += red;
                budget -= a;
            }
            else {
                g += red * (budget / a);
                break;
            }
        }
        return g;
    }

    /// All of this BSB's relevant dims are assigned: swap its coarse
    /// coverage bound for the memoized exact cost — or, when that
    /// projection has never been scheduled, for the admissible proxy
    /// cost (optimistic in every field), deferring the schedule to
    /// leaves that survive the proxy bounds.
    void determine(std::size_t i)
    {
        if (use_proxy_) {
            if (const auto* c = cache_->find_one(i, dense_counts_)) {
                cur_cost_[i] = *c;
            }
            else {
                cur_cost_[i] = proxy_cost(i);
                proxied_[i] = 1;
                ++n_proxied_;
            }
        }
        else {
            cur_cost_[i] = cache_->cost_one(i, dense_counts_);
        }
        cur_red_[i] = exact_reduction(cur_cost_[i], i == 0);
        exact_sum_ += cur_red_[i];
        determined_[i] = 1;
        if (missing_[i] == 0)
            cov_gain_ -= cond_g_[i];
    }

    void undetermine(std::size_t i)
    {
        exact_sum_ -= cur_red_[i];
        determined_[i] = 0;
        if (proxied_[i] != 0) {
            proxied_[i] = 0;
            --n_proxied_;
        }
        if (missing_[i] == 0)
            cov_gain_ += cond_g_[i];
    }

    /// Admissible stand-in for an unscheduled exact cost: hardware
    /// time from the conditioned length floor (at determination depth
    /// the capacities of every kind this BSB uses are exact), the
    /// controller area from the same floor (controller_area is
    /// monotone in the state count; in ECA mode the state count is
    /// the hoisted ASAP length — allocation-independent, so the area
    /// is exact), comm and adjacency exact.  Every field is <= the
    /// bsb_cost_one result bitwise, so bounds and DPs over proxy
    /// costs never cut a point the exact costs would keep.  A BSB
    /// infeasible under the assigned digits gets exactly the
    /// infeasible cost bsb_cost_one would produce.
    pace::Bsb_cost proxy_cost(std::size_t b) const
    {
        constexpr double inf = std::numeric_limits<double>::infinity();
        const auto& t = model_.terms[b];
        pace::Bsb_cost c;
        c.t_sw = t.t_sw;
        if (!t.coverable) {
            c.t_hw = inf;
            c.ctrl_area = inf;
            return c;
        }
        long long len = t.asap_len;
        for (const auto& [ki, work] : t.work) {
            const long long cap = avail_[ki];
            if (cap <= 0) {
                c.t_hw = inf;
                c.ctrl_area = inf;
                return c;
            }
            const long long floor_len = (work + cap - 1) / cap;
            if (floor_len > len)
                len = floor_len;
        }
        c.t_hw = static_cast<double>(len) * model_.cycle_ns * t.profile;
        c.comm = t.comm;
        c.save_prev = t.adj;
        const int n_states =
            ctx_.ctrl_mode == pace::Controller_mode::optimistic_eca
                ? std::max(1, cache_->frames(b).length)
                : std::max(1, static_cast<int>(len));
        c.ctrl_area = estimate::controller_area(n_states, ctx_.target.gates);
        return c;
    }

    /// A leaf survived the proxy screen: fetch the real schedules for
    /// every proxied BSB and patch the determination sums so the
    /// walk's unwind stays symmetric.
    void resolve_proxies()
    {
        for (std::size_t i = 0; i < proxied_.size(); ++i) {
            if (proxied_[i] == 0)
                continue;
            cur_cost_[i] = cache_->cost_one(i, dense_counts_);
            const double red = exact_reduction(cur_cost_[i], i == 0);
            exact_sum_ += red - cur_red_[i];
            cur_red_[i] = red;
            proxied_[i] = 0;
        }
        n_proxied_ = 0;
    }

    /// A dim's digit was fixed at 0: its type disappears from every
    /// completion of the subtree.
    void remove_dim(std::size_t d)
    {
        for (const int ki : model_.dim_kinds[d])
            if (--n_exec_[static_cast<std::size_t>(ki)] == 0)
                for (const int b : model_.kind_bsbs[static_cast<std::size_t>(ki)])
                    if (++missing_[static_cast<std::size_t>(b)] == 1 &&
                        (determined_.empty() ||
                         determined_[static_cast<std::size_t>(b)] == 0))
                        cov_gain_ -= cond_g_[static_cast<std::size_t>(b)];
    }

    void restore_dim(std::size_t d)
    {
        for (const int ki : model_.dim_kinds[d])
            if (n_exec_[static_cast<std::size_t>(ki)]++ == 0)
                for (const int b : model_.kind_bsbs[static_cast<std::size_t>(ki)])
                    if (--missing_[static_cast<std::size_t>(b)] == 0 &&
                        (determined_.empty() ||
                         determined_[static_cast<std::size_t>(b)] == 0))
                        cov_gain_ += cond_g_[static_cast<std::size_t>(b)];
    }

    /// The digit-prefix-conditioned per-BSB gain bound: the coarse
    /// coverage bound with the ASAP length floor raised to the
    /// work/capacity floors the assigned digits still allow (see
    /// Prune_model::Gain_term).  Identical float expression shape to
    /// build_prune_model, so with all dims at their bounds this
    /// reproduces model_.g_ub bitwise.
    double conditioned_gain(std::size_t b) const
    {
        const auto& t = model_.terms[b];
        long long len = t.asap_len;
        for (const auto& [ki, work] : t.work) {
            const long long cap = std::max(1, avail_[ki]);
            const long long floor_len = (work + cap - 1) / cap;
            if (floor_len > len)
                len = floor_len;
        }
        const double t_hw_lb =
            static_cast<double>(len) * model_.cycle_ns * t.profile;
        double gain = t.t_sw - t_hw_lb - t.comm;
        gain += t.adj;
        return gain > 0.0 ? gain : 0.0;
    }

    /// Re-derive a BSB's conditioned bound after a capacity change,
    /// keeping cov_gain_'s invariant (it sums cond_g_ over covered,
    /// undetermined BSBs).
    void refresh_gain(std::size_t b)
    {
        const double g = conditioned_gain(b);
        if (missing_[b] == 0 &&
            (determined_.empty() || determined_[b] == 0))
            cov_gain_ += g - cond_g_[b];
        cond_g_[b] = g;
    }

    /// Record dim d's digit (dim.bound = unassigned) in the per-kind
    /// instance capacities and refresh the bounds they feed.  The
    /// capacity update runs over every kind a coverable BSB uses
    /// (proxy costs read those); the gain refresh only has BSBs
    /// behind a positive bound to visit.
    void set_dim_digit(std::size_t d, int c)
    {
        const int delta = c - cur_digit_[d];
        if (delta == 0)
            return;
        cur_digit_[d] = c;
        for (const int ki : model_.dim_avail_kinds[d])
            avail_[static_cast<std::size_t>(ki)] += delta;
        for (const int b : model_.dim_refresh_bsbs[d])
            refresh_gain(static_cast<std::size_t>(b));
    }

    void leaf()
    {
        // Strided deadline / external-bound poll: admit() above never
        // reads the clock, so the wall-clock check (and the remote
        // incumbent resample) runs here once per 64 leaves.
        if ((cancel_ != nullptr || ext_ != nullptr) &&
            (++leaf_polls_ & 63) == 0) {
            if (ext_ != nullptr)
                ext_val_ = ext_->get();
            if (cancel_ != nullptr && cancel_->stop()) {
                ++out_.rows_abandoned;
                stopped_ = true;
                return;
            }
        }

        // Canonical area sum — dims ascending, zero digits skipped —
        // reproduces Alloc_space::for_each_range's filter bit-for-bit.
        double area = 0.0;
        for (std::size_t d = 0; d < dims_.size(); ++d)
            if (digits_[d] > 0)
                area += dims_[d].unit_area * digits_[d];
        if (area > max_area_) {
            // The linear loop enumerates but never scores these; they
            // count as pruned only when pruning is on (so that
            // n_evaluated + n_pruned covers the space).
            if (use_pruning_)
                ++out_.n_pruned;
            return;
        }

        if (!det_enabled_ && cache_ != nullptr)
            cache_->costs_for_counts(dense_counts_, costs_);

        if (use_pruning_ && cache_ != nullptr) {
            // Screening pass: the DP's optimal value without the
            // traceback bookkeeping.  Only points whose screened time
            // lands within the float-safety margin of the incumbent
            // get the full partition reconstruction; anything farther
            // is provably worse on time alone (ties resolve on the
            // full evaluation, so the best tuple is untouched).
            //
            // With proxy determinations the first screen may run over
            // optimistic stand-in costs: a kill is then a *bound*
            // prune (n_pruned — the point was never exactly scored,
            // and no schedule was ever run for it), and a survivor
            // pays for its real schedules before the exact screen.
            const auto& costs = det_enabled_ ? cur_cost_ : costs_;
            pace::Pace_options opts;
            opts.ctrl_area_budget = max_area_ - area;
            opts.area_quantum = ctx_.area_quantum;
            opts.table_area_budget = ctx_.dp_table_budget;
            opts.cancel = cancel_;
            double saving = pace::pace_best_saving(costs, opts, ws_);
            double t_est = pace::all_sw_time_ns(costs) - saving;
            if (t_est > threshold() + model_.slack) {
                if (!(t_est > local_threshold() + model_.slack))
                    ++out_.n_pruned_remote;
                if (n_proxied_ > 0) {
                    ++out_.n_pruned;
                }
                else {
                    ++out_.n_evaluated;  // scored, just not reconstructed
                    charge_eval();
                }
                return;
            }
            if (n_proxied_ > 0) {
                resolve_proxies();
                saving = pace::pace_best_saving(cur_cost_, opts, ws_);
                t_est = pace::all_sw_time_ns(cur_cost_) - saving;
                if (t_est > threshold() + model_.slack) {
                    ++out_.n_evaluated;
                    charge_eval();
                    return;
                }
            }
        }

        core::Rmap a;
        for (std::size_t d = 0; d < dims_.size(); ++d)
            if (digits_[d] > 0)
                a.set(dims_[d].id, digits_[d]);
        if (cache_ == nullptr) {
            costs_ = pace::build_cost_model(ctx_.bsbs, ctx_.lib, ctx_.target,
                                            a, ctx_.ctrl_mode, ctx_.storage);
            if (use_pruning_) {
                // Admissible per-point bound from the exact costs:
                // skip the PACE DP when even the area-unconstrained
                // gain cannot beat the incumbent.
                const double lb =
                    pace::all_sw_time_ns(costs_) - pace::max_gain(costs_);
                if (lb > threshold() + model_.slack) {
                    ++out_.n_pruned;
                    if (!(lb > local_threshold() + model_.slack))
                        ++out_.n_pruned_remote;
                    return;
                }
            }
        }

        // With det_enabled_ every BSB's exact cost was assembled on
        // the way down (and the exact bound already checked when the
        // last digit was assigned) — run the DP straight on it.
        const Evaluation ev = search::evaluate_with_costs(
            ctx_, a, det_enabled_ ? cur_cost_ : costs_, ws_);
        ++out_.n_evaluated;
        charge_eval();
        if (!out_.have_best || search::better_than(ev, out_.best)) {
            out_.best = ev;
            out_.have_best = true;
        }
    }

    /// One scored point against the eval budget (a budget trip is a
    /// live condition observed at the next admission gate).
    void charge_eval()
    {
        if (cancel_ != nullptr)
            cancel_->charge_evals(1);
    }

    const Eval_context& ctx_;
    const std::vector<Dim_info>& dims_;
    const Prune_model& model_;
    bool use_pruning_;
    bool bounding_ = false;     ///< coverage/gain bound active
    bool det_enabled_ = false;  ///< incremental exact costs active
    bool use_proxy_ = false;    ///< defer schedules behind proxy costs
    double max_area_;
    double prime_time_;
    long long begin_;
    long long end_;
    Eval_cache* cache_;
    const util::Cancel_token* cancel_;
    const util::Shared_bound* ext_;  ///< cross-process incumbent bound
    /// Last-sampled external bound (inf = none); stale reads are just
    /// looser admissible thresholds.
    double ext_val_ = std::numeric_limits<double>::infinity();
    bool remote_kill_ = false;  ///< last bound_exceeds kill was remote-only
    bool stopped_ = false;          ///< live trip ended this chunk
    std::uint64_t leaf_polls_ = 0;  ///< strided deadline-poll counter
    Chunk_result& out_;
    std::vector<int> digits_;
    std::vector<int> dense_counts_;  ///< digits scattered per type id
    std::vector<pace::Bsb_cost> costs_;
    // Gain-bound state (bounding_): coverage of the subtree's maximal
    // completion, and the exact-cost overlay (det_enabled_).
    std::vector<int> n_exec_;
    std::vector<int> missing_;
    std::vector<int> avail_;      ///< per kind: capacity under the prefix
    std::vector<int> cur_digit_;  ///< per dim: assigned digit (bound = open)
    std::vector<double> cond_g_;  ///< per BSB: conditioned gain bound
    double cov_gain_ = 0.0;
    std::vector<std::uint8_t> determined_;
    std::vector<std::uint8_t> proxied_;  ///< per BSB: cur_cost_ is a proxy
    int n_proxied_ = 0;                  ///< currently-proxied BSBs
    std::vector<pace::Bsb_cost> cur_cost_;
    std::vector<double> cur_red_;
    double exact_sum_ = 0.0;
    std::vector<std::pair<double, double>> lp_items_;  ///< (red, area)
    /// This chunk's session Dp_workspace_pool slot, whose checkpoint
    /// survives into the next solve.
    pace::Pace_workspace* ws_;
};

/// Evaluate a few promising fitting points before the walk so every
/// worker starts with a realistic time-to-beat instead of pruning
/// nothing until its chunk stumbles on a good incumbent.  The returned
/// time is the hybrid time of a real fitting point: pruning against it
/// can only remove points strictly worse than something the
/// enumeration scores anyway, so the best tuple is unchanged.
double prime_incumbent(const Eval_context& ctx,
                       const std::vector<Dim_info>& dims, double max_area,
                       Eval_cache* cache)
{
    std::vector<core::Rmap> probes;

    core::Rmap max_point;
    for (const auto& d : dims)
        max_point.set(d.id, d.bound);

    core::Rmap half;
    for (const auto& d : dims)
        half.set(d.id, (d.bound + 1) / 2);

    // Greedy fill in dimension order, spending area on each type up
    // to its bound while the data path still fits.
    core::Rmap greedy;
    double area = 0.0;
    for (const auto& d : dims) {
        int c = d.bound;
        while (c > 0 && area + d.unit_area * c > max_area)
            --c;
        greedy.set(d.id, c);
        area += d.unit_area * c;
    }

    probes.push_back(std::move(max_point));
    if (!(half == probes.front()))
        probes.push_back(std::move(half));
    if (std::none_of(probes.begin(), probes.end(),
                     [&](const core::Rmap& p) { return p == greedy; }))
        probes.push_back(std::move(greedy));

    double best = std::numeric_limits<double>::infinity();
    pace::Pace_workspace ws;
    std::vector<pace::Bsb_cost> costs;
    for (const auto& p : probes) {
        const double p_area = p.area(ctx.lib);
        if (p_area > max_area)
            continue;
        // Value-only DP: the probe's exact achievable hybrid time (up
        // to float summation order, which the prune slack absorbs) at
        // a fraction of a full evaluation.
        if (cache != nullptr)
            cache->costs_for(p, costs);
        else
            costs = pace::build_cost_model(ctx.bsbs, ctx.lib, ctx.target, p,
                                           ctx.ctrl_mode, ctx.storage);
        pace::Pace_options opts;
        opts.ctrl_area_budget = max_area - p_area;
        opts.area_quantum = ctx.area_quantum;
        opts.table_area_budget = ctx.dp_table_budget;
        const double saving = pace::pace_best_saving(costs, opts, &ws);
        best = std::min(best, pace::all_sw_time_ns(costs) - saving);
    }
    return best;
}

}  // namespace

Solve_result solve_exhaustive_bb(Session& session,
                                 const Solve_options& options)
{
    extras_or_default<std::monostate>(options, "exhaustive_bb");
    util::Wall_timer timer;
    const Eval_context& ctx = session.context();
    const Alloc_space space(ctx.lib, session.problem().restrictions);

    Solve_result result;
    result.strategy = "exhaustive_bb";
    result.space_size = space.size();

    const long long n = space.size();

    // Resolve the leaf-index window (a distributed range lease, or the
    // whole space).  The walk, the thread clamp and the chunk split all
    // run over [w_begin, w_end); space_size still reports the full
    // space so callers can relate windows to it.
    const long long w_begin = options.window.whole() ? 0
                                                     : options.window.begin;
    const long long w_end = options.window.whole() ? n : options.window.end;
    if (w_begin < 0 || w_begin > w_end || w_end > n)
        throw std::invalid_argument(
            "exhaustive_bb: window [" + std::to_string(w_begin) + ", " +
            std::to_string(w_end) + ") outside the space [0, " +
            std::to_string(n) + ")");
    const long long n_work = w_end - w_begin;
    if (n_work == 0) {
        result.seconds = timer.seconds();
        result.n_threads = 1;
        return result;
    }

    const std::size_t n_threads = util::clamp_chunks(
        options.n_threads, util::Thread_pool::default_concurrency(), n_work);
    result.n_threads = static_cast<int>(n_threads);

    // Dimension table for the tree walk: id order (as enumerated),
    // least-significant first, with cumulative index spans.
    std::vector<Dim_info> dims;
    dims.reserve(space.dims().size());
    long long span = 1;
    bool span_overflow =
        n == std::numeric_limits<long long>::max();  // size saturated
    for (const auto& [id, bound] : space.dims()) {
        dims.push_back({id, bound, ctx.lib[id].area, span});
        if (span > n / (static_cast<long long>(bound) + 1))
            span_overflow = true;
        else
            span *= static_cast<long long>(bound) + 1;
    }

    const bool use_pruning = options.use_pruning && !span_overflow;
    const double max_area = ctx.target.asic.total_area;

    // Pin the DP table width to the total ASIC area so the per-worker
    // Pace_workspace checkpoints stay valid across leaves with
    // different leftover controller budgets (value rows are
    // budget-independent for a fixed quantum and width — see
    // Pace_options::table_area_budget).  Only with an explicit search
    // quantum: the automatic quantum derives from the budget, and
    // widening the table would change it, i.e. change results versus
    // a caller re-evaluating the winner with the same context.
    Eval_context run_ctx = ctx;
    if (ctx.area_quantum > 0.0)
        run_ctx.dp_table_budget = max_area;
    run_ctx.cancel = options.cancel;

    // Worker 0 searches on the session cache, which the priming probes
    // below warm first.  Snapshot it so the solve reports only its own
    // lookups, probes included.
    Eval_cache* chunk0_cache =
        options.use_cache ? &session.cache(options.cache_capacity) : nullptr;
    Eval_cache_stats shared_before;
    if (chunk0_cache != nullptr)
        shared_before = chunk0_cache->stats();
    const auto& invariants = session.invariants();

    Prune_model model;
    double prime_time = std::numeric_limits<double>::infinity();
    if (use_pruning) {
        model = build_prune_model(ctx, dims, chunk0_cache);
        // Priming only without a cancel token: the probe time belongs
        // to a point the truncated prefix may never reach, so pruning
        // against it could leave an anytime run without the best point
        // of what it actually explored.  (Untripped armed runs lose
        // nothing but speed — the bound prunes are all incumbent-led.)
        if (options.cancel == nullptr)
            prime_time =
                prime_incumbent(run_ctx, dims, max_area, chunk0_cache);
    }

    // Grow the session workspace pool to one slot per chunk and open a
    // new pass (surviving checkpoints become "foreign", i.e.
    // cross-request) before any worker touches a slot — slot creation
    // is not thread-safe.
    search::Dp_workspace_pool& dp_pool = session.workspaces();
    dp_pool.prepare(n_threads);

    std::vector<Chunk_result> chunks(n_threads);
    const auto run_chunk = [&](std::size_t c, long long begin, long long end) {
        Chunk_result& out = chunks[c];
        Eval_cache* cache = nullptr;
        std::optional<Eval_cache> own_cache;
        if (options.use_cache) {
            if (c == 0) {
                cache = chunk0_cache;
            }
            else {
                own_cache.emplace(ctx, options.cache_capacity, invariants);
                cache = &*own_cache;
            }
        }
        pace::Pace_workspace& ws = dp_pool.slot(c).pace;
        if (span_overflow) {
            // Saturated spaces cannot be walked as a tree (index
            // arithmetic would overflow); fall back to the linear loop.
            // Live cancellation polls once per 64 scored points; the
            // injected cut has no per-leaf index here and is not
            // applied (the fallback is unreachable below saturated
            // space sizes, which the fault-injection tests never are).
            const long long reused0 = ws.rows_reused();
            const long long swept0 = ws.rows_swept();
            const long long foreign0 = ws.rows_reused_foreign();
            const auto* cancel = options.cancel;
            std::uint64_t polls = 0;
            space.for_each_range(begin, end, max_area,
                                 [&](const core::Rmap& a) {
                                     const Evaluation ev =
                                         search::evaluate_allocation(
                                             run_ctx, a, cache, &ws);
                                     ++out.n_evaluated;
                                     if (cancel != nullptr)
                                         cancel->charge_evals(1);
                                     if (!out.have_best ||
                                         search::better_than(ev, out.best)) {
                                         out.best = ev;
                                         out.have_best = true;
                                     }
                                     if (cancel != nullptr &&
                                         (++polls & 63) == 0 &&
                                         cancel->stop()) {
                                         out.abandoned = true;
                                         return false;
                                     }
                                     return true;
                                 });
            out.dp_rows_reused += ws.rows_reused() - reused0;
            out.dp_rows_swept += ws.rows_swept() - swept0;
            out.dp_rows_foreign += ws.rows_reused_foreign() - foreign0;
        }
        else {
            Walker walker(run_ctx, dims, model, use_pruning, max_area,
                          prime_time, begin, end, cache,
                          options.incumbent_bound, out, ws);
            walker.run();
        }
        if (cache != nullptr) {
            out.stats = cache == chunk0_cache
                            ? cache->stats().minus(shared_before)
                            : cache->stats();
        }
    };

    // The chunk split runs over the window's units; the walkers want
    // absolute leaf indices, so shift each chunk by the window base.
    std::size_t chunks_skipped = 0;
    if (n_threads == 1) {
        run_chunk(0, w_begin, w_end);
    }
    else {
        chunks_skipped = util::parallel_chunks(
            session.pool(n_threads), n_work, n_threads,
            [&](std::size_t c, long long begin, long long end) {
                run_chunk(c, w_begin + begin, w_begin + end);
            },
            options.cancel);
    }

    // Reduce in chunk (= enumeration) order with the same strict
    // comparison the per-chunk loops used, so ties resolve toward the
    // lowest index exactly as the sequential search did.
    for (const auto& chunk : chunks) {
        result.n_evaluated += chunk.n_evaluated;
        result.n_pruned += chunk.n_pruned;
        result.n_pruned_remote += chunk.n_pruned_remote;
        result.dp_rows_reused += chunk.dp_rows_reused;
        result.dp_rows_swept += chunk.dp_rows_swept;
        result.dp_rows_reused_cross_request += chunk.dp_rows_foreign;
        result.rows_abandoned += chunk.rows_abandoned;
        result.chunks_abandoned += chunk.abandoned ? 1 : 0;
        result.cache_stats += chunk.stats;
        if (chunk.have_best &&
            (!result.have_best ||
             search::better_than(chunk.best, result.best))) {
            result.best = chunk.best;
            result.have_best = true;
        }
    }
    result.chunks_abandoned += static_cast<long long>(chunks_skipped);
    if (options.cancel != nullptr) {
        result.status = options.cancel->status();
        // Injected-cut refusals never set the token's flag; any
        // leftover abandonment with a clean token is that cut.
        if (result.status == util::Solve_status::complete &&
            (result.rows_abandoned > 0 || result.chunks_abandoned > 0))
            result.status = util::Solve_status::cancelled;
    }

    result.seconds = timer.seconds();
    return result;
}

}  // namespace lycos::solver::detail
