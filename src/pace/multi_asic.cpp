#include "pace/multi_asic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>

#include "util/cancel.hpp"
#include "util/simd.hpp"

namespace lycos::pace {

namespace {

constexpr double k_inf = std::numeric_limits<double>::infinity();

/// What a value sweep returns when the saving floor left no state
/// (-inf is reserved for a tripped token).
constexpr double k_no_state = std::numeric_limits<double>::lowest();

/// Relative float slack of the saving floor (see Multi_dp_sparse).
constexpr double k_floor_slack = 1e-9;

double hw_gain(double t_sw, const Bsb_cost& c)
{
    return t_sw - c.t_hw - c.comm;
}

/// One BSB's gain on one ASIC, adjacency credited unconditionally,
/// budgets ignored, clamped at 0 (0 when infeasible) — shared by
/// every multi_max_gain form and the sparse sweep's saving floor, so
/// the admissibility formula lives in exactly one place.
double bsb_gain_term(std::size_t i, double t_sw, const Bsb_cost& h)
{
    if (std::isinf(h.t_hw))
        return 0.0;
    double gain = t_sw - h.t_hw - h.comm;
    if (i > 0)
        gain += std::max(0.0, h.save_prev);
    return std::max(0.0, gain);
}

/// Best final DP state, for the traceback walk.
struct Best_state {
    std::size_t a0 = 0, a1 = 0, p = 0;
};

struct Dp_stats {
    long long cells_swept = 0;
    long long states_dropped = 0;  ///< by the saving floor
    bool aborted = false;  ///< sparse sweep stopped on a tripped token
};

}  // namespace

Multi_setup prepare_multi(std::span<const Multi_bsb_cost> costs,
                          const Multi_pace_options& options,
                          std::vector<std::array<int, 2>>& qarea,
                          std::vector<std::array<std::uint8_t, 2>>& possible)
{
    for (double b : options.ctrl_area_budgets) {
        if (b < 0.0)
            throw std::invalid_argument(
                "multi_pace_partition: negative budget");
        if (!std::isfinite(b))
            throw std::invalid_argument(
                "multi_pace_partition: non-finite budget");
    }
    if (options.max_dp_cells < 4)
        throw std::invalid_argument("multi_pace_partition: max_dp_cells < 4");
    if (!std::isfinite(options.area_quantum) || options.area_quantum < 0.0)
        throw std::invalid_argument("multi_pace_partition: bad quantum");

    const double b0 = options.ctrl_area_budgets[0];
    const double b1 = options.ctrl_area_budgets[1];
    const double max_budget = std::max(b0, b1);

    Multi_setup s;
    // Auto quantum unified with the single-ASIC default (budget/4096,
    // at least one gate), then re-quantized while the (a0, a1) grid
    // would exceed max_dp_cells — a pathological budget/quantum ratio
    // must not silently allocate an enormous table.
    s.quantum = options.area_quantum > 0.0
                    ? options.area_quantum
                    : std::max(1.0, max_budget / 4096.0);
    const double cells_cap = static_cast<double>(options.max_dp_cells);
    for (;;) {
        const double w0d = std::floor(b0 / s.quantum) + 1.0;
        const double w1d = std::floor(b1 / s.quantum) + 1.0;
        const double cells = w0d * w1d;
        if (cells <= cells_cap)
            break;
        // sqrt(overshoot) scales both axes toward the cap; the floor
        // can stall a tiny overshoot, so always grow by a minimum
        // factor (deterministic, converges in a handful of rounds).
        s.quantum *= std::max(std::sqrt(cells / cells_cap), 1.0 + 1e-3);
    }
    s.cap = {static_cast<long long>(std::floor(b0 / s.quantum)),
             static_cast<long long>(std::floor(b1 / s.quantum))};
    s.w0 = static_cast<std::size_t>(s.cap[0]) + 1;
    s.w1 = static_cast<std::size_t>(s.cap[1]) + 1;

    // Quantized controller areas per BSB per ASIC.  Rounded up by
    // default, so the DP never packs more real area than a budget;
    // optimistic_rounding rounds down instead, which makes the DP
    // value an upper bound on the exact continuum optimum (and hence
    // on every ceil-rounded DP at any quantum over budgets no larger
    // than these) — the mode the multi-ASIC search's admissible
    // per-a0-row bound runs in.
    const std::size_t n = costs.size();
    qarea.assign(n, {0, 0});
    possible.assign(n, {0, 0});
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t a = 0; a < 2; ++a) {
            const auto& c = costs[i].hw[a];
            if (std::isinf(c.ctrl_area) || std::isinf(c.t_hw))
                continue;
            qarea[i][a] = static_cast<int>(
                options.optimistic_rounding
                    ? std::floor(c.ctrl_area / s.quantum)
                    : std::ceil(c.ctrl_area / s.quantum));
            possible[i][a] = qarea[i][a] <= s.cap[a] ? 1 : 0;
        }
    }
    return s;
}

void Blocked_prefix_max::begin(std::size_t nb)
{
    const std::size_t n_blocks = (nb + k_block - 1) / k_block;
    if (blk_.size() < n_blocks) {
        blk_.resize(n_blocks);
        blk_epoch_.resize(n_blocks, 0);
        fine_.resize(n_blocks * k_block);
    }
    // Block maxima are reset eagerly (one streamed cache line per 64
    // positions — cheaper than a single query); fine blocks reset
    // lazily on first update, epoch-stamped so untouched blocks cost
    // nothing.
    std::fill_n(blk_.begin(), n_blocks, -k_inf);
    if (++epoch_ == 0) {  // epoch wrapped: hard reset once per 2^32
        std::fill(blk_epoch_.begin(), blk_epoch_.end(), 0u);
        epoch_ = 1;
    }
    kern_ = &util::simd::kernels();
}

double Blocked_prefix_max::query(std::size_t pos) const
{
    const std::size_t b = pos / k_block;
    // Whole blocks before pos's block: a contiguous streaming max
    // (max is order-independent, so the kernel's lane order does not
    // matter; stale blocks hold -inf from begin()).
    double m = kern_->max_reduce(blk_.data(), b);
    if (blk_epoch_[b] == epoch_) {
        const double* f = fine_.data() + b * k_block;
        for (std::size_t i = b * k_block; i <= pos; ++i, ++f)
            if (*f > m)
                m = *f;
    }
    return m;
}

void Blocked_prefix_max::update(std::size_t pos, double v)
{
    const std::size_t b = pos / k_block;
    if (blk_epoch_[b] != epoch_) {
        blk_epoch_[b] = epoch_;
        std::fill_n(fine_.begin() + static_cast<std::ptrdiff_t>(b * k_block),
                    k_block, -k_inf);
    }
    if (v > fine_[pos])
        fine_[pos] = v;
    if (v > blk_[b])
        blk_[b] = v;
}

std::size_t Multi_pace_state_set::prune(Multi_state_soa& states, int a1_cap,
                                        double need)
{
    // Prefix-max over a1 in [0, a1_cap].  Processing states in
    // (a0, a1) order makes "some processed state with a1' <= a1 has
    // value >= v" exactly the dominance test: processed-before plus
    // a1' <= a1 implies a0' <= a0 with unequal coordinates.  Only
    // kept states are inserted — a dropped state's dominator chain
    // always ends in a kept state that dominates it transitively — so
    // the survivors are precisely the Pareto-maximal antichain.  A
    // state below the floor is dropped before it can dominate anything;
    // every state it would have dominated is worth no more and falls
    // to the same test.
    pmax_.begin(static_cast<std::size_t>(a1_cap) + 1);
    const std::size_t n = states.size();
    std::size_t kept = 0;
    std::size_t dropped = 0;
    for (std::size_t r = 0; r < n; ++r) {
        const std::size_t pos = static_cast<std::size_t>(states.a1[r]);
        const double v = states.value[r];
        if (v < need) {
            ++dropped;
            continue;  // cannot reach the saving floor
        }
        if (pmax_.query(pos) >= v)
            continue;  // dominated (ties keep the smaller-area state)
        pmax_.update(pos, v);
        if (kept != r) {  // in-place SoA compaction, order preserved
            states.a0[kept] = states.a0[r];
            states.a1[kept] = states.a1[r];
            states.value[kept] = v;
            states.parent[kept] = states.parent[r];
        }
        ++kept;
    }
    states.resize(kept);
    return dropped;
}

namespace {

std::uint64_t state_key(std::size_t a0, std::size_t a1)
{
    return (static_cast<std::uint64_t>(a0) << 32) |
           static_cast<std::uint64_t>(a1);
}

}  // namespace

/// Friend of Multi_pace_workspace: the Pareto-sparse sweep both
/// sparse entry points share, templated on traceback maintenance like
/// the single-ASIC Pace_dp.
///
/// Row i maps the current antichains (one per previous-placement
/// lane) to the next row's: each destination lane 3-way-merges the
/// shifted source lanes in (a0, a1) order with the source lane p as
/// the tie-break — reproducing the dense reference's improving-write
/// order (first maximum over p) on every surviving cell — then prunes
/// the merged list back to the Pareto-maximal antichain.
///
/// Why this is bit-identical to the dense reference, traceback
/// included, and not merely value-equivalent: with *complete*
/// dominance pruning every surviving state provably carries the dense
/// value of its cell (a surviving state with a smaller value would be
/// dominated by the state the induction guarantees at no more area
/// and at least the dense value), and no state on the dense winner
/// path is ever dominated (a dominator with more value would beat the
/// optimum along the same decision suffix; one with equal value and
/// less area would produce a final state the dense first-maximum
/// final scan prefers over the actual winner — both contradictions).
/// So the winner path survives with exact values, its cells' parents
/// are re-derived from the same candidates in the same first-max
/// order, and the final scan — per-lane first maximum, lanes combined
/// by (value desc, a0, a1, p) — lands on the dense best state.
///
/// The saving floor (Multi_pace_options::min_saving) keeps that when
/// the optimum reaches it.  After row i a state of value v is dropped
/// when v < floor - suffix[i+1] - margin, suffix[k] being the sum over
/// BSBs k..n-1 of the larger bsb_gain_term.  The bound is admissible
/// (no row adds more than its term, so no completion of a dropped
/// state reaches the floor) and consistent (a successor's bound is at
/// most its source's, so nothing below a dropped state can come back
/// above the floor).  Every state on the dense winner path and every
/// candidate that ties its value at a winner cell completes to the
/// optimum, so none is dropped; states that lost their dense
/// predecessor to the floor cannot reach it either, and the final
/// pick ignores them.  `margin` is a relative 1e-9 of the summed
/// magnitudes of every term a value is built from — far above the
/// float error of the two summation orders, so rounding can never
/// drop a state exactly at the floor.
struct Multi_dp_sparse {
    template <bool With_trace>
    static double sweep(std::span<const Multi_bsb_cost> costs,
                        const Multi_setup& s, Multi_pace_workspace& ws,
                        Dp_stats& stats, Best_state* best_state,
                        const Multi_pace_options& options);
};

template <bool With_trace>
double Multi_dp_sparse::sweep(std::span<const Multi_bsb_cost> costs,
                              const Multi_setup& s,
                              Multi_pace_workspace& ws, Dp_stats& stats,
                              Best_state* best_state,
                              const Multi_pace_options& options)
{
    const util::Cancel_token* cancel = options.cancel;
    const std::size_t n = costs.size();
    const auto& qarea = ws.qarea_;
    const auto& possible = ws.possible_;
    const util::simd::Kernels& kern = util::simd::kernels();
    auto& cur = ws.cur_;
    auto& nxt = ws.nxt_;
    for (std::size_t p = 0; p < 3; ++p) {
        cur.lanes_[p].clear();
        nxt.lanes_[p].clear();
    }
    cur.lanes_[0].push_back(0, 0, 0.0, 0);

    if constexpr (With_trace) {
        ws.srow_off_.assign(n * 3 + 1, 0);
        ws.tb_key_.clear();
        ws.tb_cell_.clear();
    }

    const auto cap0 = static_cast<std::int32_t>(s.cap[0]);
    const auto cap1 = static_cast<std::int32_t>(s.cap[1]);

    const double min_saving = options.min_saving;
    const bool floored = min_saving > -k_inf;
    double margin = 0.0;
    if (floored) {
        auto& suffix = ws.suffix_;
        suffix.resize(n + 1);
        suffix[n] = 0.0;
        double scale = std::abs(min_saving);
        for (std::size_t k = n; k-- > 0;) {
            const auto& c = costs[k];
            suffix[k] = suffix[k + 1] +
                        std::max(bsb_gain_term(k, c.t_sw, c.hw[0]),
                                 bsb_gain_term(k, c.t_sw, c.hw[1]));
            for (std::size_t a = 0; a < 2; ++a)
                if (possible[k][a] != 0)
                    scale += std::abs(hw_gain(c.t_sw, c.hw[a])) +
                             std::abs(c.hw[a].save_prev);
        }
        margin = k_floor_slack * scale;
    }

    for (std::size_t i = 0; i < n; ++i) {
        // Row-stripe poll: these are the heaviest DP rows in the
        // stack, so the full stop() (deadline clock included) runs
        // here.  An abort abandons the sweep wholesale — the sparse
        // arenas carry no cross-call checkpoint to invalidate.
        if (cancel != nullptr) {
            cancel->charge_dp_cells(
                static_cast<std::uint64_t>(cur.size()));
            if (cancel->stop()) {
                stats.aborted = true;
                return -k_inf;
            }
        }
        stats.cells_swept += static_cast<long long>(cur.size());

        const std::array<int, 2> qa = {qarea[i][0], qarea[i][1]};
        const std::array<double, 2> gain = {
            possible[i][0] != 0 ? hw_gain(costs[i].t_sw, costs[i].hw[0])
                                : 0.0,
            possible[i][1] != 0 ? hw_gain(costs[i].t_sw, costs[i].hw[1])
                                : 0.0};
        const std::array<double, 2> gain_save = {
            i > 0 ? gain[0] + costs[i].hw[0].save_prev : gain[0],
            i > 0 ? gain[1] + costs[i].hw[1].save_prev : gain[1]};
        const double g1[3] = {gain[0], gain_save[0], gain[0]};
        const double g2[3] = {gain[1], gain[1], gain_save[1]};
        const double need =
            floored ? min_saving - (ws.suffix_[i + 1] + margin) : -k_inf;

        for (std::size_t l = 0; l < 3; ++l) {
            auto& out = nxt.lanes_[l];
            out.clear();
            if ((l == 1 && possible[i][0] == 0) ||
                (l == 2 && possible[i][1] == 0)) {
                if constexpr (With_trace)
                    ws.srow_off_[i * 3 + l + 1] = ws.tb_key_.size();
                continue;
            }

            // Phase 1 — streaming shift scans: each source lane's SoA
            // arrays are shifted by this row's quantized areas and
            // pre-added with its gain by the dispatched kernel,
            // truncated at the first dead a0 (ascending order makes
            // the rest dead too) with a1 overflows marked by the
            // sentinel key.
            std::array<std::size_t, 3> sn;
            for (std::size_t p = 0; p < 3; ++p) {
                const Multi_state_soa& ln = cur.lanes_[p];
                const std::int32_t da0 =
                    l == 1 ? static_cast<std::int32_t>(qa[0]) : 0;
                const std::int32_t da1 =
                    l == 2 ? static_cast<std::int32_t>(qa[1]) : 0;
                const double add = l == 1 ? g1[p] : l == 2 ? g2[p] : 0.0;
                auto& kv = ws.mkey_[p];
                auto& vv = ws.mval_[p];
                if (kv.size() < ln.size()) {
                    kv.resize(ln.size());
                    vv.resize(ln.size());
                }
                sn[p] = kern.multi_shift_lane(
                    ln.a0.data(), ln.a1.data(), ln.value.data(), ln.size(),
                    da0, da1, add, cap0, cap1, kv.data(), vv.data());
            }

            // Phase 2 — scalar 3-way merge over the precomputed keys;
            // on a key tie the lowest source lane arrives first and
            // later lanes replace it only on a strictly greater value
            // — the dense reference's first-maximum-over-p
            // improving-write order.
            std::array<std::size_t, 3> si{0, 0, 0};
            const auto skip_invalid = [&](std::size_t p) {
                while (si[p] < sn[p] &&
                       ws.mkey_[p][si[p]] == util::simd::k_invalid_key)
                    ++si[p];
            };
            for (std::size_t p = 0; p < 3; ++p)
                skip_invalid(p);
            std::uint64_t last_key = util::simd::k_invalid_key;
            for (;;) {
                int k = -1;
                std::uint64_t k_key = 0;
                for (int p = 0; p < 3; ++p) {
                    const auto up = static_cast<std::size_t>(p);
                    if (si[up] == sn[up])
                        continue;
                    const std::uint64_t key = ws.mkey_[up][si[up]];
                    if (k < 0 || key < k_key) {
                        k = p;
                        k_key = key;
                    }
                }
                if (k < 0)
                    break;
                const auto uk = static_cast<std::size_t>(k);
                const double v = ws.mval_[uk][si[uk]];
                if (k_key == last_key) {
                    if (v > out.value.back()) {
                        out.value.back() = v;
                        out.parent.back() = static_cast<std::uint8_t>(k);
                    }
                }
                else {
                    out.push_back(static_cast<std::int32_t>(k_key >> 32),
                                  static_cast<std::int32_t>(
                                      k_key & 0xFFFFFFFFu),
                                  v, static_cast<std::uint8_t>(k));
                    last_key = k_key;
                }
                ++si[uk];
                skip_invalid(uk);
            }

            stats.states_dropped +=
                static_cast<long long>(nxt.prune(out, cap1, need));

            if constexpr (With_trace) {
                for (std::size_t t = 0; t < out.size(); ++t) {
                    const std::size_t g = ws.tb_key_.size();
                    ws.tb_key_.push_back(
                        state_key(static_cast<std::size_t>(out.a0[t]),
                                  static_cast<std::size_t>(out.a1[t])));
                    const auto code =
                        static_cast<std::uint8_t>(l * 3 + out.parent[t]);
                    if ((g & 1) == 0)
                        ws.tb_cell_.push_back(code);
                    else
                        ws.tb_cell_[g >> 1] = static_cast<std::uint8_t>(
                            ws.tb_cell_[g >> 1] | (code << 4));
                }
                ws.srow_off_[i * 3 + l + 1] = ws.tb_key_.size();
            }
        }
        for (std::size_t p = 0; p < 3; ++p)
            cur.lanes_[p].swap(nxt.lanes_[p]);
        if (cur.size() == 0)
            return k_no_state;  // the floor dropped every state
    }

    // Final pick: per lane the first maximum of the (a0, a1)-sorted
    // antichain, lanes combined on (value desc, a0, a1, p asc) — the
    // state the dense (a0-major, a1, p) first-maximum scan lands on.
    // Stays an explicit scalar loop: the first-strict-maximum tie
    // order is part of the determinism contract.
    double best = -k_inf;
    bool have = false;
    Best_state bs;
    for (std::size_t p = 0; p < 3; ++p) {
        const Multi_state_soa& ln = cur.lanes_[p];
        std::size_t bi = ln.size();
        for (std::size_t t = 0; t < ln.size(); ++t)
            if (bi == ln.size() || ln.value[t] > ln.value[bi])
                bi = t;
        if (bi == ln.size())
            continue;
        const Multi_state lane_best = ln[bi];
        const bool wins =
            !have || lane_best.value > best ||
            (lane_best.value == best &&
             (lane_best.a0 < static_cast<int>(bs.a0) ||
              (lane_best.a0 == static_cast<int>(bs.a0) &&
               lane_best.a1 < static_cast<int>(bs.a1))));
        if (wins) {
            best = lane_best.value;
            bs = {static_cast<std::size_t>(lane_best.a0),
                  static_cast<std::size_t>(lane_best.a1), p};
            have = true;
        }
    }
    if (best_state != nullptr && have)
        *best_state = bs;
    return best;
}

std::vector<Multi_bsb_cost> build_multi_cost_model(
    std::span<const bsb::Bsb> bsbs, const hw::Hw_library& lib,
    const hw::Target& target, const core::Rmap& alloc0,
    const core::Rmap& alloc1, Controller_mode mode)
{
    const auto c0 = build_cost_model(bsbs, lib, target, alloc0, mode);
    const auto c1 = build_cost_model(bsbs, lib, target, alloc1, mode);
    std::vector<Multi_bsb_cost> out(bsbs.size());
    for (std::size_t i = 0; i < bsbs.size(); ++i) {
        out[i].t_sw = c0[i].t_sw;
        out[i].hw[0] = c0[i];
        out[i].hw[1] = c1[i];
    }
    return out;
}

Multi_pace_result evaluate_multi_partition(
    std::span<const Multi_bsb_cost> costs,
    const std::vector<Placement>& placement)
{
    if (placement.size() != costs.size())
        throw std::invalid_argument("evaluate_multi_partition: size mismatch");

    Multi_pace_result r;
    r.placement = placement;
    for (const auto& c : costs)
        r.time_all_sw_ns += c.t_sw;

    double t = 0.0;
    for (std::size_t i = 0; i < costs.size(); ++i) {
        if (placement[i] == Placement::software) {
            t += costs[i].t_sw;
            continue;
        }
        const int a = static_cast<int>(placement[i]);
        const auto& c = costs[i].hw[static_cast<std::size_t>(a)];
        t += c.t_hw + c.comm;
        if (i > 0 && placement[i - 1] == placement[i])
            t -= c.save_prev;
        r.ctrl_area_used[static_cast<std::size_t>(a)] += c.ctrl_area;
        ++r.n_in_hw;
    }
    r.time_hybrid_ns = t;
    r.speedup_pct =
        t > 0.0 ? (r.time_all_sw_ns / t - 1.0) * 100.0
                : (r.time_all_sw_ns > 0.0 ? k_inf : 0.0);
    return r;
}

double multi_max_gain(std::span<const Multi_bsb_cost> costs)
{
    double total = 0.0;
    for (std::size_t i = 0; i < costs.size(); ++i)
        total += std::max(bsb_gain_term(i, costs[i].t_sw, costs[i].hw[0]),
                          bsb_gain_term(i, costs[i].t_sw, costs[i].hw[1]));
    return total;
}

void multi_gain_terms(std::span<const Bsb_cost> costs,
                      std::vector<double>& out)
{
    out.resize(costs.size());
    for (std::size_t i = 0; i < costs.size(); ++i)
        out[i] = bsb_gain_term(i, costs[i].t_sw, costs[i]);
}

double multi_max_gain(std::span<const double> g0,
                      std::span<const double> g1)
{
    double total = 0.0;
    for (std::size_t i = 0; i < g0.size(); ++i)
        total += std::max(g0[i], g1[i]);
    return total;
}

double multi_pace_best_saving(std::span<const Multi_bsb_cost> costs,
                              const Multi_pace_options& options,
                              Multi_pace_workspace* workspace)
{
    // Built only when the caller passes no workspace.
    std::optional<Multi_pace_workspace> local;
    Multi_pace_workspace& ws =
        workspace != nullptr ? *workspace : local.emplace();
    const Multi_setup s =
        prepare_multi(costs, options, ws.qarea_, ws.possible_);
    if (costs.empty())
        return 0.0;
    Dp_stats stats;
    const double best = Multi_dp_sparse::sweep<false>(costs, s, ws, stats,
                                                      nullptr, options);
    ws.last_cells_swept_ = stats.cells_swept;
    ws.last_cells_dense_ = static_cast<long long>(costs.size()) *
                           static_cast<long long>(s.w0) *
                           static_cast<long long>(s.w1) * 3;
    ws.last_states_dropped_ = stats.states_dropped;
    return best;
}

Multi_pace_result multi_pace_partition(std::span<const Multi_bsb_cost> costs,
                                       const Multi_pace_options& options,
                                       Multi_pace_workspace* workspace)
{
    // Built only when the caller passes no workspace.
    std::optional<Multi_pace_workspace> local;
    Multi_pace_workspace& ws =
        workspace != nullptr ? *workspace : local.emplace();
    const Multi_setup s =
        prepare_multi(costs, options, ws.qarea_, ws.possible_);
    const std::size_t n = costs.size();
    if (n == 0)
        return Multi_pace_result{};

    Dp_stats stats;
    Best_state bs;
    const double best =
        Multi_dp_sparse::sweep<true>(costs, s, ws, stats, &bs, options);
    ws.last_cells_swept_ = stats.cells_swept;
    ws.last_cells_dense_ = static_cast<long long>(n) *
                           static_cast<long long>(s.w0) *
                           static_cast<long long>(s.w1) * 3;
    ws.last_states_dropped_ = stats.states_dropped;
    if (stats.aborted || best == k_no_state) {
        // Aborted mid-sweep, or no state reached the saving floor: the
        // sparse traceback arena holds no path, but the all-software
        // placement is always a valid honest answer for the caller's
        // incumbent bookkeeping (and saves 0, below any floor that
        // emptied the sweep: the all-software states carry value 0).
        Multi_pace_result r = evaluate_multi_partition(
            costs, std::vector<Placement>(n, Placement::software));
        r.area_quantum_used = s.quantum;
        r.dp_cells_swept = stats.cells_swept;
        r.dp_cells_dense = ws.last_cells_dense_;
        return r;
    }

    // Walk the per-state nibbles backwards from the best final state:
    // a state reachable after row ri is stored (sorted by packed
    // coordinate key) in that row's lane segment of the sparse arena,
    // so a binary search recovers its cell index.
    std::vector<Placement> placement(n, Placement::software);
    std::size_t a0 = bs.a0, a1 = bs.a1, p = bs.p;
    for (std::size_t ri = n; ri-- > 0;) {
        const std::size_t lo = ws.srow_off_[ri * 3 + p];
        const std::size_t hi = ws.srow_off_[ri * 3 + p + 1];
        const std::uint64_t key = state_key(a0, a1);
        const auto* seg = ws.tb_key_.data();
        const auto* pos = std::lower_bound(seg + lo, seg + hi, key);
        const auto g = static_cast<std::size_t>(pos - seg);
        const std::uint8_t byte = ws.tb_cell_[g >> 1];
        const std::uint8_t code =
            (g & 1) != 0 ? static_cast<std::uint8_t>(byte >> 4)
                         : static_cast<std::uint8_t>(byte & 0x0F);
        const std::size_t d = code / 3;
        const std::size_t parent = code % 3;
        if (d == 0) {
            placement[ri] = Placement::software;
        }
        else {
            const std::size_t a = d - 1;
            placement[ri] = a == 0 ? Placement::asic0 : Placement::asic1;
            const std::size_t q = static_cast<std::size_t>(ws.qarea_[ri][a]);
            if (a == 0)
                a0 -= q;
            else
                a1 -= q;
        }
        p = parent;
    }

    Multi_pace_result r = evaluate_multi_partition(costs, placement);
    r.area_quantum_used = s.quantum;
    r.dp_cells_swept = stats.cells_swept;
    r.dp_cells_dense = ws.last_cells_dense_;
    r.dp_states_stored = static_cast<long long>(ws.tb_key_.size());
    // Keys (8 B each, the binary-searchable sparse row index) plus the
    // nibble cells — honest total for the sparse encoding.
    r.traceback_bytes = ws.tb_key_.size() * sizeof(std::uint64_t) +
                        ws.tb_cell_.size();
    r.traceback_bytes_dense =
        static_cast<std::size_t>(n) * s.w0 * s.w1 * 3 * 2;
    return r;
}

}  // namespace lycos::pace
