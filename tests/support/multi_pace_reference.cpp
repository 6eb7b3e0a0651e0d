#include "support/multi_pace_reference.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace lycos::pace {

namespace {

constexpr double k_inf = std::numeric_limits<double>::infinity();

}  // namespace

Multi_pace_result multi_pace_partition_reference(
    std::span<const Multi_bsb_cost> costs, const Multi_pace_options& options)
{
    std::vector<std::array<int, 2>> qarea;
    std::vector<std::array<std::uint8_t, 2>> possible;
    const Multi_setup s = prepare_multi(costs, options, qarea, possible);
    const std::size_t n = costs.size();
    if (n == 0)
        return Multi_pace_result{};
    const std::size_t w0 = s.w0, w1 = s.w1;

    // State: (area0, area1, prev) where prev in {0 = SW, 1 = asic0,
    // 2 = asic1}.  value = best saving vs all-software.  Dense scan
    // over the full grid every row, one byte each for decision and
    // parent per (i, state) — the pre-overhaul layout.
    const std::size_t n_prev = 3;
    const std::size_t n_states = w0 * w1 * n_prev;
    auto idx = [&](std::size_t a0, std::size_t a1, std::size_t p) {
        return (a0 * w1 + a1) * n_prev + p;
    };

    std::vector<double> value(n_states, -k_inf);
    std::vector<double> next(n_states, -k_inf);
    std::vector<std::uint8_t> decision(n * n_states, 0);
    std::vector<std::uint8_t> parent(n * n_states, 0);
    auto cell = [&](std::size_t i, std::size_t st) {
        return i * n_states + st;
    };

    value[idx(0, 0, 0)] = 0.0;

    for (std::size_t i = 0; i < n; ++i) {
        std::fill(next.begin(), next.end(), -k_inf);
        for (std::size_t a0 = 0; a0 < w0; ++a0) {
            for (std::size_t a1 = 0; a1 < w1; ++a1) {
                for (std::size_t p = 0; p < n_prev; ++p) {
                    const double v = value[idx(a0, a1, p)];
                    if (v == -k_inf)
                        continue;

                    // Software.
                    const std::size_t s_sw = idx(a0, a1, 0);
                    if (v > next[s_sw]) {
                        next[s_sw] = v;
                        decision[cell(i, s_sw)] = 0;
                        parent[cell(i, s_sw)] = static_cast<std::uint8_t>(p);
                    }

                    // Either ASIC.
                    for (std::size_t a = 0; a < 2; ++a) {
                        if (possible[i][a] == 0)
                            continue;
                        const auto& c = costs[i].hw[a];
                        const std::size_t q =
                            static_cast<std::size_t>(qarea[i][a]);
                        const std::size_t na0 = a == 0 ? a0 + q : a0;
                        const std::size_t na1 = a == 1 ? a1 + q : a1;
                        if (na0 >= w0 || na1 >= w1)
                            continue;
                        double gain = costs[i].t_sw - c.t_hw - c.comm;
                        if (i > 0 && p == a + 1)
                            gain += c.save_prev;
                        const std::size_t s_hw = idx(na0, na1, a + 1);
                        if (v + gain > next[s_hw]) {
                            next[s_hw] = v + gain;
                            decision[cell(i, s_hw)] =
                                static_cast<std::uint8_t>(a + 1);
                            parent[cell(i, s_hw)] =
                                static_cast<std::uint8_t>(p);
                        }
                    }
                }
            }
        }
        value.swap(next);
    }

    // Best final state and reconstruction.
    double best = -k_inf;
    std::size_t best_a0 = 0, best_a1 = 0, best_p = 0;
    for (std::size_t a0 = 0; a0 < w0; ++a0)
        for (std::size_t a1 = 0; a1 < w1; ++a1)
            for (std::size_t p = 0; p < n_prev; ++p)
                if (value[idx(a0, a1, p)] > best) {
                    best = value[idx(a0, a1, p)];
                    best_a0 = a0;
                    best_a1 = a1;
                    best_p = p;
                }

    std::vector<Placement> placement(n, Placement::software);
    std::size_t a0 = best_a0, a1 = best_a1, p = best_p;
    for (std::size_t ri = n; ri-- > 0;) {
        const std::size_t st = idx(a0, a1, p);
        const int d = decision[cell(ri, st)];
        const int prev = parent[cell(ri, st)];
        if (d == 0) {
            placement[ri] = Placement::software;
        }
        else {
            const std::size_t a = static_cast<std::size_t>(d - 1);
            placement[ri] = a == 0 ? Placement::asic0 : Placement::asic1;
            const std::size_t q = static_cast<std::size_t>(qarea[ri][a]);
            if (a == 0)
                a0 -= q;
            else
                a1 -= q;
        }
        p = static_cast<std::size_t>(prev);
    }

    Multi_pace_result r = evaluate_multi_partition(costs, placement);
    r.area_quantum_used = s.quantum;
    r.dp_cells_swept = static_cast<long long>(n) *
                       static_cast<long long>(n_states);
    r.dp_cells_dense = r.dp_cells_swept;
    r.traceback_bytes = n * n_states * 2;
    r.traceback_bytes_dense = r.traceback_bytes;
    return r;
}

}  // namespace lycos::pace
