#include "solver/solver.hpp"

#include <cmath>
#include <stdexcept>

#include "search/alloc_space.hpp"
#include "search/workspace_pool.hpp"
#include "solver/internal.hpp"
#include "util/thread_pool.hpp"

namespace lycos::solver {

namespace {

/// Runs the full validation and throws one report naming every
/// defect; returns the (now known non-null) library so the Session
/// constructor can run it from its member-init list, before ctx_
/// dereferences the pointer.
const hw::Hw_library& validated_lib(const Problem& problem)
{
    const auto defects = problem.validate();
    if (!defects.empty()) {
        std::string report = "solver::Session: invalid Problem:";
        for (const auto& d : defects)
            report += "\n  - " + d.field + ": " + d.message;
        throw std::invalid_argument(report);
    }
    return *problem.lib;
}

}  // namespace

std::vector<Problem_defect> Problem::validate() const
{
    std::vector<Problem_defect> defects;
    // A NaN poisons the DP silently — every comparison involving it is
    // false, so bounds stop pruning and better_tuple stops ordering —
    // and an Inf turns areas/times into garbage that still "compares".
    // Both are rejected up front, like the structural defects, instead
    // of producing a confidently wrong partition.
    const auto finite = [](double x) { return std::isfinite(x); };
    if (lib == nullptr)
        defects.push_back({"lib", "library pointer is null"});
    if (bsbs.empty())
        defects.push_back({"bsbs", "no basic scheduling blocks to "
                                   "partition"});
    for (std::size_t i = 0; i < bsbs.size(); ++i)
        if (!finite(bsbs[i].profile) || bsbs[i].profile < 0.0)
            defects.push_back(
                {"bsbs", "BSB " + std::to_string(i) + " (\"" +
                             bsbs[i].name + "\") has a non-finite or "
                             "negative profile count (" +
                             std::to_string(bsbs[i].profile) + ")"});
    if (target.asic.total_area < 0.0)
        defects.push_back({"target",
                           "negative ASIC area (" +
                               std::to_string(target.asic.total_area) +
                               ")"});
    if (!finite(target.asic.total_area))
        defects.push_back({"target", "non-finite ASIC area (" +
                                         std::to_string(
                                             target.asic.total_area) +
                                         ")"});
    if (!finite(target.cpu.clock_mhz) || target.cpu.clock_mhz <= 0.0)
        defects.push_back({"target",
                           "processor clock must be finite and positive (" +
                               std::to_string(target.cpu.clock_mhz) + ")"});
    if (!finite(target.asic.clock_mhz) || target.asic.clock_mhz <= 0.0)
        defects.push_back({"target",
                           "ASIC clock must be finite and positive (" +
                               std::to_string(target.asic.clock_mhz) + ")"});
    if (!finite(target.bus.ns_per_word) || target.bus.ns_per_word < 0.0)
        defects.push_back({"target",
                           "non-finite or negative bus cost (" +
                               std::to_string(target.bus.ns_per_word) +
                               ")"});
    for (const double gate : {target.gates.reg, target.gates.and2,
                              target.gates.or2, target.gates.inv})
        if (!finite(gate) || gate < 0.0) {
            defects.push_back({"target",
                               "non-finite or negative controller gate "
                               "area (" +
                                   std::to_string(gate) + ")"});
            break;
        }
    if (asic_areas[0] < 0.0 || asic_areas[1] < 0.0)
        defects.push_back({"asic_areas",
                           "negative multi-ASIC area budget (" +
                               std::to_string(asic_areas[0]) + ", " +
                               std::to_string(asic_areas[1]) + ")"});
    if (!finite(asic_areas[0]) || !finite(asic_areas[1]))
        defects.push_back({"asic_areas",
                           "non-finite multi-ASIC area budget (" +
                               std::to_string(asic_areas[0]) + ", " +
                               std::to_string(asic_areas[1]) + ")"});
    if (area_quantum < 0.0)
        defects.push_back({"area_quantum",
                           "negative PACE area quantum (" +
                               std::to_string(area_quantum) + ")"});
    if (!finite(area_quantum))
        defects.push_back({"area_quantum",
                           "non-finite PACE area quantum (" +
                               std::to_string(area_quantum) + ")"});
    if (dp_table_budget < 0.0)
        defects.push_back({"dp_table_budget",
                           "negative DP table budget (" +
                               std::to_string(dp_table_budget) + ")"});
    if (!finite(dp_table_budget))
        defects.push_back({"dp_table_budget",
                           "non-finite DP table budget (" +
                               std::to_string(dp_table_budget) + ")"});
    if (lib != nullptr) {
        // Hw_library::add already rejects non-finite and non-positive
        // areas; this re-check is defence in depth for a library that
        // reached us through a different constructor or a future
        // deserializer, so a poisoned area surfaces as a named defect
        // here instead of as NaN sums deep in the DP.
        for (std::size_t r = 0; r < lib->size(); ++r) {
            const auto& res = (*lib)[static_cast<hw::Resource_id>(r)];
            if (!finite(res.area) || res.area <= 0.0)
                defects.push_back(
                    {"lib", "resource \"" + res.name +
                                "\" has a non-finite or non-positive "
                                "area (" +
                                std::to_string(res.area) + ")"});
        }
    }
    if (lib != nullptr) {
        for (const auto& [id, count] : restrictions.entries())
            if (id < 0 || static_cast<std::size_t>(id) >= lib->size())
                defects.push_back(
                    {"restrictions",
                     "resource id " + std::to_string(id) +
                         " is outside the library (size " +
                         std::to_string(lib->size()) + ")"});
    }
    return defects;
}

Session::Session(Problem problem)
    : problem_(std::move(problem)),
      ctx_{problem_.bsbs,          validated_lib(problem_),
           problem_.target,        problem_.ctrl_mode,
           problem_.area_quantum,  problem_.storage,
           problem_.dp_table_budget}
{
}

Session::~Session() = default;

long long Session::space_size() const
{
    return search::Alloc_space(ctx_.lib, problem_.restrictions).size();
}

const std::shared_ptr<const search::Eval_invariants>& Session::invariants()
{
    if (invariants_ == nullptr)
        invariants_ = std::make_shared<const search::Eval_invariants>(ctx_);
    return invariants_;
}

search::Eval_cache& Session::cache(std::size_t capacity)
{
    if (cache_ == nullptr)
        cache_ = std::make_unique<search::Eval_cache>(ctx_, capacity,
                                                      invariants());
    return *cache_;
}

util::Thread_pool& Session::pool(std::size_t n_threads)
{
    if (n_threads == 0)
        n_threads = util::Thread_pool::default_concurrency();
    if (pool_ == nullptr || pool_->size() < n_threads)
        pool_ = std::make_unique<util::Thread_pool>(n_threads);
    return *pool_;
}

search::Dp_workspace_pool& Session::workspaces()
{
    if (dp_pool_ == nullptr)
        dp_pool_ = std::make_unique<search::Dp_workspace_pool>();
    return *dp_pool_;
}

namespace {

Solve_result solve_with_token(Session& session, std::string_view strategy,
                              const Solve_options& options,
                              const util::Cancel_token* external)
{
    const Strategy* s = find_strategy(strategy);
    if (s == nullptr)
        throw std::invalid_argument("solver::Session: unknown strategy \"" +
                                    std::string(strategy) + "\"");
    // The effective token lives on this stack frame for exactly the
    // duration of the strategy run; engines hold only the raw
    // pointer.  An external token (from the overload or
    // Solve_options::cancel) becomes the parent, so tripping it
    // cancels this solve too.
    const bool armed = options.deadline_ms > 0.0 || options.max_evals > 0 ||
                       options.max_dp_cells > 0 || options.fault.armed();
    if (armed) {
        const util::Cancel_token* parent =
            external != nullptr ? external : options.cancel;
        util::Cancel_token token(options.deadline_ms, options.max_evals,
                                 options.max_dp_cells, options.fault,
                                 parent);
        Solve_options opts = options;
        opts.cancel = &token;
        return s->solve(session, opts);
    }
    if (external != nullptr) {
        Solve_options opts = options;
        opts.cancel = external;
        return s->solve(session, opts);
    }
    return s->solve(session, options);
}

}  // namespace

Solve_result Session::solve(std::string_view strategy,
                            const Solve_options& options)
{
    return solve_with_token(*this, strategy, options, nullptr);
}

Solve_result Session::solve(std::string_view strategy,
                            const Solve_options& options,
                            const util::Cancel_token& cancel)
{
    return solve_with_token(*this, strategy, options, &cancel);
}

Solve_result Session::solve(const Solve_options& options)
{
    return solve(space_size() <= exhaustive_limit ? "exhaustive_bb"
                                                  : "hill_climb",
                 options);
}

search::Evaluation Session::rescore(const core::Rmap& datapath)
{
    search::Eval_context fine = ctx_;
    fine.area_quantum = 0.0;
    fine.dp_table_budget = 0.0;
    return search::evaluate_allocation(fine, datapath, &cache());
}

}  // namespace lycos::solver
