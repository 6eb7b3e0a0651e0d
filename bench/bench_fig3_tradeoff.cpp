// Quantifies the Figure 3 trade-off: "many small speed-ups" (small
// data-path, lots of controller room) vs "few large speed-ups" (large
// data-path, little controller room).
//
// For the HAL application we sweep the data-path share of the ASIC:
// every allocation in the restriction space is bucketed by its
// data-path area fraction, and the best PACE speed-up per bucket is
// reported.  The curve rises, peaks at an interior point, and falls —
// the balance §2 argues the allocator must strike.
#include <algorithm>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "search/alloc_space.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main()
{
    using namespace lycos;

    auto run = benchx::run_flow(apps::make_hal());
    const double total = run.target.asic.total_area;

    constexpr int n_buckets = 10;
    struct Bucket {
        double best_su = 0.0;
        int best_units = 0;
        int n_in_hw = 0;
        long long n_allocs = 0;
    };
    std::vector<Bucket> buckets(n_buckets);

    const double quantum = total / benchx::k_search_quantum_divisor;
    const auto ctx = benchx::context(
        run, pace::Controller_mode::optimistic_eca, quantum);

    const search::Alloc_space space(run.lib, run.restrictions);
    space.for_each(total, [&](const core::Rmap& a) {
        const auto ev = search::evaluate_allocation(ctx, a);
        const double frac = ev.datapath_area / total;
        const int b = std::min(n_buckets - 1,
                               static_cast<int>(frac * n_buckets));
        auto& bucket = buckets[static_cast<std::size_t>(b)];
        ++bucket.n_allocs;
        if (ev.speedup_pct() > bucket.best_su) {
            bucket.best_su = ev.speedup_pct();
            bucket.best_units = a.total_units();
            bucket.n_in_hw = ev.partition.n_in_hw;
        }
        return true;
    });

    std::cout << "Figure 3 trade-off (hal): data-path share vs best "
                 "achievable speed-up\n\n";
    util::Table_printer table({"datapath share", "best SU", "units",
                               "BSBs in HW", "allocations"});
    util::Csv_writer csv(std::cout);
    for (int b = 0; b < n_buckets; ++b) {
        const auto& bucket = buckets[static_cast<std::size_t>(b)];
        if (bucket.n_allocs == 0)
            continue;
        table.add_row({util::percent(b * 0.1) + "-" +
                           util::percent((b + 1) * 0.1),
                       util::fixed(bucket.best_su, 0) + "%",
                       std::to_string(bucket.best_units),
                       std::to_string(bucket.n_in_hw),
                       util::with_commas(bucket.n_allocs)});
    }
    table.print(std::cout);

    std::cout << "\ncsv: share,best_su\n";
    for (int b = 0; b < n_buckets; ++b) {
        const auto& bucket = buckets[static_cast<std::size_t>(b)];
        if (bucket.n_allocs > 0)
            csv.row_numeric({(b + 0.5) * 0.1, bucket.best_su}, 2);
    }

    std::cout << "\nexpected shape: rising from the all-SW corner, interior\n"
                 "maximum, then decline as the data-path crowds out the\n"
                 "controllers (Figure 3A vs 3B).\n";
    return 0;
}
