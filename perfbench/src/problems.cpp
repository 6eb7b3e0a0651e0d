#include "problems.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/analysis.hpp"
#include "core/restrictions.hpp"
#include "search/alloc_space.hpp"
#include "search/eval_cache.hpp"

namespace perfbench {

namespace lc = lycos;

const lc::apps::App& Library::app(std::string_view name) const
{
    for (const auto& a : apps)
        if (a.name == name)
            return a;
    throw std::invalid_argument("unknown app " + std::string(name));
}

Library make_library()
{
    return {lc::hw::make_default_library(), lc::apps::make_all_apps()};
}

Prepared prepare(const Library& lib, const lc::apps::App& app, double area)
{
    Prepared p;
    p.app = &app;
    p.area = area;
    p.target = lc::hw::make_default_target(area);
    const auto infos = lc::core::analyze(app.bsbs, lib.lib, p.target.gates);
    p.restrictions = lc::core::compute_restrictions(infos, lib.lib);
    return p;
}

lc::solver::Problem make_problem(const Library& lib, const Prepared& p)
{
    lc::solver::Problem problem;
    problem.bsbs = p.app->bsbs;
    problem.lib = &lib.lib;
    problem.target = p.target;
    problem.restrictions = p.restrictions;
    problem.ctrl_mode = lc::pace::Controller_mode::list_schedule;
    problem.area_quantum = p.area / 512.0;
    return problem;
}

std::string Tuple::str() const
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g %.17g", time_ns, area);
    return std::string(buf) + " | " + datapath;
}

Tuple tuple_of(const lc::search::Evaluation& ev, const Library& lib)
{
    return {ev.partition.time_hybrid_ns, ev.datapath_area,
            ev.datapath.to_string(lib.lib)};
}

Tuple tuple_of(const lc::solver::Solve_result& r, const Library& lib)
{
    if (!r.multi.active)
        return tuple_of(r.best, lib);
    const auto& m = r.multi;
    return {m.partition.time_hybrid_ns, m.datapath_area[0] + m.datapath_area[1],
            m.datapaths[0].to_string(lib.lib) + " | " +
                m.datapaths[1].to_string(lib.lib)};
}

lc::search::Evaluation full_scan(lc::solver::Session& session,
                                 const Library& lib)
{
    const auto& ctx = session.context();
    lc::search::Eval_cache cache(ctx);
    lc::search::Evaluation best;
    bool have = false;
    lc::search::Alloc_space(lib.lib, session.problem().restrictions)
        .for_each(ctx.target.asic.total_area, [&](const lc::core::Rmap& dp) {
            auto ev = lc::search::evaluate_allocation(ctx, dp, &cache);
            if (!have || lc::search::better_than(ev, best)) {
                best = std::move(ev);
                have = true;
            }
            return true;
        });
    return best;
}

Tuple exact_evaluation(lc::solver::Session& session,
                       const lc::core::Rmap& datapath, const Library& lib)
{
    auto fine = session.context();
    fine.area_quantum = 0.0;
    fine.dp_table_budget = 0.0;
    return tuple_of(lc::search::evaluate_allocation(fine, datapath), lib);
}

Tuple unpruned_solve(lc::solver::Session& session, std::string_view strategy,
                     const lc::solver::Solve_options& base, const Library& lib)
{
    auto options = base;
    options.n_threads = 1;
    options.use_pruning = false;
    if (auto* multi = std::get_if<lc::solver::Multi_asic_extras>(&options.extras))
        multi->use_row_bound = false;
    const auto r = session.solve(strategy, options);
    if (r.status != lc::util::Solve_status::complete)
        throw std::runtime_error("reference solve did not complete");
    return tuple_of(r, lib);
}

std::map<std::string, Tuple> read_references(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read references " + path);
    std::map<std::string, Tuple> refs;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, time, area, bar;
        fields >> key >> time >> area >> bar;
        const auto rest = line.find(" | ");
        if (bar != "|" || rest == std::string::npos)
            throw std::runtime_error("malformed reference line: " + line);
        refs[key] = {std::strtod(time.c_str(), nullptr),
                     std::strtod(area.c_str(), nullptr), line.substr(rest + 3)};
    }
    return refs;
}

bool write_references(const std::string& path,
                      const std::map<std::string, Tuple>& refs)
{
    std::ofstream out(path);
    out << "# key hybrid_time_ns datapath_area | datapath (two-ASIC: dp0 | dp1)\n"
           "# one-thread multi_asic_bb with pruning and the row bound off;\n"
           "# regenerate with: lycos_perfbench --write-reference <this file>\n";
    for (const auto& [key, t] : refs)
        out << key << ' ' << t.str() << '\n';
    return static_cast<bool>(out);
}

}  // namespace perfbench
