// §4.1 ablation: how much does the FURO-based dynamic priority buy
// over simpler orderings?
//
// Variants compared on every application (same area budget, same
// library, same PACE evaluation):
//   furo     the paper's algorithm (dynamic FURO/urgency priorities)
//   profile  greedy over BSBs sorted by profile-weighted software time
//   static   greedy in plain array order
//   reverse  greedy in reverse array order (adversarial baseline)
// All greedy variants pay the same costs (ECA + missing resources) and
// obey the same §4.3 restrictions; they only lack the urgency logic
// and re-prioritization.
#include <algorithm>
#include <iostream>
#include <numeric>

#include "common.hpp"
#include "estimate/sw_time.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace lycos;

/// Greedy pseudo-partitioning in a fixed order: move affordable BSBs,
/// allocating their missing resources; no urgency-driven extra units.
core::Rmap fixed_order_allocation(const benchx::Run& run,
                                  const std::vector<int>& order)
{
    const core::Allocator allocator(run.lib, run.target);
    const auto infos = core::analyze(run.app.bsbs, run.lib, run.target.gates);
    core::Rmap alloc;
    double remaining = run.target.asic.total_area;
    for (int idx : order) {
        const auto& info = infos[static_cast<std::size_t>(idx)];
        const auto full_req = allocator.required_resources(info.ops);
        if (!full_req)
            continue;
        core::Rmap req = *full_req - alloc;
        // Restrictions still apply.
        bool ok = true;
        for (const auto& [res, cnt] : req.entries())
            if (alloc(res) + cnt > run.restrictions(res))
                ok = false;
        if (!ok)
            continue;
        const double cost = info.eca + req.area(run.lib);
        if (cost > remaining)
            continue;
        alloc |= req;
        remaining -= cost;
    }
    return alloc;
}

double score(const benchx::Run& run, const core::Rmap& alloc)
{
    return search::evaluate_allocation(benchx::context(run), alloc)
        .speedup_pct();
}

}  // namespace

int main()
{
    using util::fixed;

    std::cout << "§4.1 ablation — FURO dynamic priority vs simpler orders\n\n";
    util::Table_printer table(
        {"Example", "furo", "profile", "static", "reverse"});

    for (auto& app : apps::make_all_apps()) {
        const std::string name = app.name;
        auto run = benchx::run_flow(std::move(app));
        const std::size_t n = run.app.bsbs.size();

        // profile-weighted software time order (hottest first)
        std::vector<int> by_profile(n);
        std::iota(by_profile.begin(), by_profile.end(), 0);
        std::vector<double> weight(n);
        for (std::size_t i = 0; i < n; ++i)
            weight[i] =
                estimate::total_sw_time_ns(run.app.bsbs[i], run.target.cpu);
        std::stable_sort(by_profile.begin(), by_profile.end(),
                         [&](int a, int b) {
                             return weight[static_cast<std::size_t>(a)] >
                                    weight[static_cast<std::size_t>(b)];
                         });

        std::vector<int> forward(n);
        std::iota(forward.begin(), forward.end(), 0);
        std::vector<int> backward(forward.rbegin(), forward.rend());

        table.add_row({
            name,
            fixed(run.heuristic.speedup_pct(), 0) + "%",
            fixed(score(run, fixed_order_allocation(run, by_profile)), 0) +
                "%",
            fixed(score(run, fixed_order_allocation(run, forward)), 0) + "%",
            fixed(score(run, fixed_order_allocation(run, backward)), 0) + "%",
        });
    }

    table.print(std::cout);
    std::cout <<
        "\nexpected shape: on the allocator-friendly applications\n"
        "(straight, hal) the FURO-guided dynamic priority beats every\n"
        "fixed order because it buys extra units exactly where\n"
        "operations compete.  On the pathological applications (man,\n"
        "eigen) the same urgency logic is what over-allocates constant\n"
        "generators and dividers (Table 1 rows 3-4), so the simpler\n"
        "orders can come out ahead — the gap the paper's §5 design\n"
        "iteration exists to close.\n";
    return 0;
}
