// Tests for the serving layer (src/serve/): admission control over
// the bounded two-class queue, the degradation ladder and its status
// taxonomy, warm-started greedy incumbents, the one-shot parity with
// a hand-built Session — and the chaos campaign: seeded fault plans
// (mid-walk cuts, injected allocation failures, expired deadlines at
// every ladder rung) driven through concurrent clients, asserting
// every non-shed answer is bit-identical to a fault-free solve of the
// recorded rung (replay_rung) and identical across 1/2/8 workers.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hw/target.hpp"
#include "serve/serve.hpp"
#include "serve/trace.hpp"
#include "solver/solver.hpp"
#include "util/cancel.hpp"

namespace lh = lycos::hw;
namespace lb = lycos::bsb;
namespace lse = lycos::serve;
namespace lso = lycos::solver;
namespace lu = lycos::util;
using lh::Op_kind;

namespace {

lh::Hw_library small_library()
{
    lh::Hw_library lib;
    lib.add({"adder", {Op_kind::add}, 100.0, 1});
    lib.add({"multiplier", {Op_kind::mul}, 500.0, 2});
    return lib;
}

std::vector<lb::Bsb> small_app()
{
    std::vector<lb::Bsb> bsbs;
    lb::Bsb hot;
    for (int i = 0; i < 3; ++i)
        hot.graph.add_op(Op_kind::mul);
    for (int i = 0; i < 2; ++i)
        hot.graph.add_op(Op_kind::add);
    hot.profile = 100.0;
    bsbs.push_back(std::move(hot));
    lb::Bsb cold;
    cold.graph.add_op(Op_kind::add);
    cold.graph.add_op(Op_kind::add);
    cold.profile = 2.0;
    bsbs.push_back(std::move(cold));
    return bsbs;
}

/// The 12-point problem the solver tests use: restrictions 2x adder,
/// 3x multiplier under a 3000-gate target.
lso::Problem small_problem(const lh::Hw_library& lib,
                           std::span<const lb::Bsb> bsbs)
{
    lso::Problem p;
    p.bsbs = bsbs;
    p.lib = &lib;
    p.target = lh::make_default_target(3000.0);
    p.restrictions.set(0, 2);
    p.restrictions.set(1, 3);
    p.area_quantum = p.target.asic.total_area / 64.0;
    return p;
}

lse::Request small_request(const lh::Hw_library& lib,
                           std::span<const lb::Bsb> bsbs,
                           const std::string& strategy = "auto")
{
    lse::Request r;
    r.problem = small_problem(lib, bsbs);
    r.strategy = strategy;
    r.options.n_threads = 1;
    return r;
}

/// The comparable answer fingerprint of a Solve_result, covering both
/// the single-ASIC and the pair search.
struct Fingerprint {
    std::string datapath;
    double time = 0.0;
    double area = 0.0;
    std::string pair0;
    std::string pair1;

    bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const lso::Solve_result& r,
                        const lh::Hw_library& lib)
{
    Fingerprint f;
    if (r.multi.active) {
        f.pair0 = r.multi.datapaths[0].to_string(lib);
        f.pair1 = r.multi.datapaths[1].to_string(lib);
        f.time = r.multi.partition.time_hybrid_ns;
        f.area = r.multi.datapath_area[0] + r.multi.datapath_area[1];
    }
    else {
        f.datapath = r.best.datapath.to_string(lib);
        f.time = r.best.partition.time_hybrid_ns;
        f.area = r.best.datapath_area;
    }
    return f;
}

/// A chaos attempt that deterministically kills a solver rung: the
/// injected cut at unit 0 refuses every logical unit.
lse::Chaos_plan::Attempt killed()
{
    lse::Chaos_plan::Attempt a;
    a.fault.trip_at = 0;
    return a;
}

constexpr const char* k_strategies[] = {"exhaustive_bb", "hill_climb",
                                        "multi_asic_bb"};

}  // namespace

// ----------------------------------------------------------- admission

TEST(ServeAdmission, interactive_dequeues_ahead_of_bulk)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lse::Server server({.n_workers = 1, .start_paused = true});

    auto bulk_a = server.submit(small_request(lib, bsbs));
    auto bulk_b = server.submit(small_request(lib, bsbs));
    auto inter = [&] {
        auto r = small_request(lib, bsbs);
        r.priority = lse::Priority::interactive;
        return server.submit(std::move(r));
    }();
    server.resume();

    const auto ri = inter.get();
    const auto ra = bulk_a.get();
    const auto rb = bulk_b.get();
    EXPECT_EQ(ri.status, lse::Request_status::complete);
    // Dequeue order: the interactive request, submitted last, runs
    // first; the bulk requests keep their FIFO order.
    EXPECT_EQ(ri.sequence, 1u);
    EXPECT_EQ(ra.sequence, 2u);
    EXPECT_EQ(rb.sequence, 3u);
}

TEST(ServeAdmission, full_queue_sheds_bulk_with_status)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lse::Server server(
        {.n_workers = 1, .queue_capacity = 2, .start_paused = true});

    auto a = server.submit(small_request(lib, bsbs));
    auto b = server.submit(small_request(lib, bsbs));
    auto c = server.submit(small_request(lib, bsbs));  // over capacity

    // The shed future resolves immediately, before resume().
    const auto rc = c.get();
    EXPECT_EQ(rc.status, lse::Request_status::shed);
    EXPECT_EQ(rc.sequence, 0u);
    EXPECT_FALSE(rc.error.empty());
    EXPECT_EQ(server.stats().shed, 1u);

    server.resume();
    EXPECT_EQ(a.get().status, lse::Request_status::complete);
    EXPECT_EQ(b.get().status, lse::Request_status::complete);
}

TEST(ServeAdmission, interactive_displaces_newest_bulk_when_full)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lse::Server server(
        {.n_workers = 1, .queue_capacity = 2, .start_paused = true});

    auto bulk_a = server.submit(small_request(lib, bsbs));
    auto bulk_b = server.submit(small_request(lib, bsbs));
    auto inter = [&] {
        auto r = small_request(lib, bsbs);
        r.priority = lse::Priority::interactive;
        return server.submit(std::move(r));
    }();

    // The newest bulk request was shed to admit the interactive one.
    const auto rb = bulk_b.get();
    EXPECT_EQ(rb.status, lse::Request_status::shed);
    server.resume();
    EXPECT_EQ(inter.get().status, lse::Request_status::complete);
    EXPECT_EQ(bulk_a.get().status, lse::Request_status::complete);
}

TEST(ServeAdmission, shutdown_sheds_queued_requests)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    std::future<lse::Response> pending;
    {
        lse::Server server({.n_workers = 1, .start_paused = true});
        pending = server.submit(small_request(lib, bsbs));
    }  // destructor: parked request must still resolve
    const auto r = pending.get();
    EXPECT_EQ(r.status, lse::Request_status::shed);
    EXPECT_NE(r.error.find("shut down"), std::string::npos);
}

TEST(ServeAdmission, invalid_problem_resolves_failed_without_throwing)
{
    const auto bsbs = small_app();
    lse::Request req;
    req.problem.bsbs = bsbs;  // null lib -> validation defect
    lse::Server server({.n_workers = 0});
    const auto r = server.solve(std::move(req));
    EXPECT_EQ(r.status, lse::Request_status::failed);
    EXPECT_NE(r.error.find("lib"), std::string::npos);
    EXPECT_EQ(server.stats().failed, 1u);
}

TEST(ServeAdmission, unknown_strategy_resolves_failed)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lse::Server server({.n_workers = 0});
    const auto r =
        server.solve(small_request(lib, bsbs, "simulated_annealing"));
    EXPECT_EQ(r.status, lse::Request_status::failed);
    EXPECT_NE(r.error.find("simulated_annealing"), std::string::npos);
}

// -------------------------------------------------------------- ladder

TEST(ServeLadder, clean_request_completes_at_rung_zero)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lse::Server server({.n_workers = 0});
    const auto r = server.solve(small_request(lib, bsbs));
    EXPECT_EQ(r.status, lse::Request_status::complete);
    EXPECT_EQ(r.rung, 0);
    EXPECT_EQ(r.rung_strategy, "exhaustive_bb");  // auto, 12 <= limit
    ASSERT_EQ(r.attempts.size(), 1u);
    EXPECT_EQ(r.attempts[0].status, lu::Solve_status::complete);
}

TEST(ServeLadder, one_shot_matches_hand_built_session)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lse::Server server({.n_workers = 0});
    const auto r = server.solve(small_request(lib, bsbs));

    lso::Session session(small_problem(lib, bsbs));
    const auto direct = session.solve({.n_threads = 1});
    EXPECT_EQ(fingerprint(r.result, lib), fingerprint(direct, lib));
    EXPECT_EQ(r.result.strategy, direct.strategy);
}

TEST(ServeLadder, tripped_rung_retries_then_completes)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lse::Server server({.n_workers = 0, .retry_backoff_ms = 0.0});
    auto req = small_request(lib, bsbs, "exhaustive_bb");
    req.chaos.attempts = {killed()};  // rung 0 dies, the retry is clean
    const auto r = server.solve(std::move(req));

    EXPECT_EQ(r.status, lse::Request_status::degraded);
    EXPECT_EQ(r.rung, 1);
    EXPECT_EQ(r.rung_strategy, "exhaustive_bb");
    ASSERT_EQ(r.attempts.size(), 2u);
    EXPECT_EQ(r.attempts[0].status, lu::Solve_status::cancelled);
    EXPECT_EQ(r.attempts[1].status, lu::Solve_status::complete);
    EXPECT_EQ(server.stats().retries, 1u);
    EXPECT_EQ(server.stats().degraded, 1u);

    // The accepted rung ran fault-free to completion, so it equals
    // the plain solve of the same strategy.
    lso::Session session(small_problem(lib, bsbs));
    EXPECT_EQ(fingerprint(r.result, lib),
              fingerprint(session.solve("exhaustive_bb", {.n_threads = 1}),
                          lib));
}

TEST(ServeLadder, falls_back_to_hill_climb_then_incumbent)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lse::Server server({.n_workers = 0, .retry_backoff_ms = 0.0});

    {  // rungs 0 and 1 die -> hill_climb fallback answers
        auto req = small_request(lib, bsbs, "multi_asic_bb");
        req.chaos.attempts = {killed(), killed()};
        const auto r = server.solve(std::move(req));
        EXPECT_EQ(r.status, lse::Request_status::degraded);
        EXPECT_EQ(r.rung, 2);
        EXPECT_EQ(r.rung_strategy, "hill_climb");
        ASSERT_EQ(r.attempts.size(), 3u);
    }
    {  // every solver rung dies -> the infallible greedy incumbent
        auto req = small_request(lib, bsbs, "multi_asic_bb");
        req.chaos.attempts = {killed(), killed(), killed()};
        const auto r = server.solve(std::move(req));
        EXPECT_EQ(r.status, lse::Request_status::degraded);
        EXPECT_EQ(r.rung, 3);
        EXPECT_EQ(r.rung_strategy, std::string(lse::k_incumbent_rung));
        ASSERT_EQ(r.attempts.size(), 4u);
        EXPECT_FALSE(r.result.best.datapath.empty());
    }
    {  // hill_climb requests have no hill_climb fallback rung
        auto req = small_request(lib, bsbs, "hill_climb");
        req.chaos.attempts = {killed(), killed()};
        const auto r = server.solve(std::move(req));
        EXPECT_EQ(r.rung, 2);
        EXPECT_EQ(r.rung_strategy, std::string(lse::k_incumbent_rung));
        ASSERT_EQ(r.attempts.size(), 3u);
    }
}

TEST(ServeLadder, alloc_failure_is_transient_and_descends)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lse::Server server({.n_workers = 0, .retry_backoff_ms = 0.0});
    auto req = small_request(lib, bsbs, "exhaustive_bb");
    lse::Chaos_plan::Attempt oom;
    oom.fault.alloc_failure_at = 0;
    req.chaos.attempts = {oom};
    const auto r = server.solve(std::move(req));

    EXPECT_EQ(r.status, lse::Request_status::degraded);
    EXPECT_EQ(r.rung, 1);
    ASSERT_GE(r.attempts.size(), 2u);
    EXPECT_TRUE(r.attempts[0].alloc_failure);
    EXPECT_EQ(r.attempts[1].status, lu::Solve_status::complete);
}

TEST(ServeLadder, expired_request_deadline_skips_to_incumbent)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lse::Server server({.n_workers = 0, .retry_backoff_ms = 0.0});
    auto req = small_request(lib, bsbs, "exhaustive_bb");
    req.deadline_ms = 1e-6;  // spent before the ladder starts
    const auto r = server.solve(std::move(req));

    EXPECT_EQ(r.status, lse::Request_status::degraded);
    EXPECT_EQ(r.rung_strategy, std::string(lse::k_incumbent_rung));
    ASSERT_EQ(r.attempts.size(), 4u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_TRUE(r.attempts[i].skipped) << "rung " << i;
    EXPECT_FALSE(r.attempts[3].skipped);
    EXPECT_FALSE(r.result.best.datapath.empty());
}

TEST(ServeLadder, bad_extras_fail_permanently)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lse::Server server({.n_workers = 0, .retry_backoff_ms = 0.0});
    auto req = small_request(lib, bsbs, "exhaustive_bb");
    // Mismatched extras are a malformed request: no lower rung can
    // repair it, so the ladder stops instead of masking the bug.
    req.options.extras = lso::Hill_climb_extras{};
    const auto r = server.solve(std::move(req));
    EXPECT_EQ(r.status, lse::Request_status::failed);
    EXPECT_FALSE(r.error.empty());
}

// ------------------------------------------------- incumbent & warm start

TEST(ServeIncumbent, greedy_incumbent_is_pure_and_inside_budget)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lso::Session session(small_problem(lib, bsbs));
    const auto a = lse::greedy_incumbent(session);
    const auto b = lse::greedy_incumbent(session);
    EXPECT_EQ(a.strategy, std::string(lse::k_incumbent_rung));
    EXPECT_EQ(a.n_evaluated, 1);
    EXPECT_EQ(fingerprint(a, lib), fingerprint(b, lib));
    EXPECT_LE(a.best.datapath.area(lib), 3000.0);
}

TEST(ServeIncumbent, warm_start_feeds_cached_incumbent_to_greedy_rung)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lse::Server server({.n_workers = 0, .retry_backoff_ms = 0.0});

    // A clean solve caches its best datapath for the family.
    const auto first = server.solve(small_request(lib, bsbs, "hill_climb"));
    ASSERT_EQ(first.status, lse::Request_status::complete);
    const auto best = first.result.best.datapath;

    // A chaos re-solve that kills every solver rung lands on the
    // greedy rung, warm-started from the cached incumbent.
    auto req = small_request(lib, bsbs, "hill_climb");
    req.chaos.attempts = {killed(), killed()};
    const auto r = server.solve(std::move(req));
    ASSERT_EQ(r.rung_strategy, std::string(lse::k_incumbent_rung));
    EXPECT_TRUE(r.warm_start);
    EXPECT_EQ(r.warm_datapath, best);
    EXPECT_EQ(server.stats().warm_hits, 1u);

    // The warm rung can only improve on the cold greedy fill, and it
    // is still the pure function replay reconstructs.
    lso::Session session(small_problem(lib, bsbs));
    const auto cold = lse::greedy_incumbent(session);
    EXPECT_LE(r.result.best.partition.time_hybrid_ns,
              cold.best.partition.time_hybrid_ns);
    const auto replayed = lse::replay_rung(small_request(lib, bsbs), r);
    EXPECT_EQ(fingerprint(r.result, lib), fingerprint(replayed, lib));
}

TEST(ServeIncumbent, session_pool_reuses_identical_problems)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lse::Server server({.n_workers = 0});
    const auto a = server.solve(small_request(lib, bsbs));
    const auto b = server.solve(small_request(lib, bsbs));
    EXPECT_EQ(server.stats().sessions_reused, 1u);
    EXPECT_EQ(fingerprint(a.result, lib), fingerprint(b.result, lib));

    // A structurally different problem must NOT reuse the session.
    auto other = small_request(lib, bsbs);
    other.problem.area_quantum = other.problem.target.asic.total_area / 32.0;
    server.solve(std::move(other));
    EXPECT_EQ(server.stats().sessions_reused, 1u);
}

TEST(ServeIncumbent, rescore_fine_refines_at_exact_quantum)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    lse::Server server({.n_workers = 0});
    auto req = small_request(lib, bsbs);
    req.rescore_fine = true;
    const auto r = server.solve(std::move(req));
    ASSERT_EQ(r.status, lse::Request_status::complete);

    lso::Session session(small_problem(lib, bsbs));
    const auto direct = session.solve({.n_threads = 1});
    const auto refined = session.rescore(direct.best.datapath);
    EXPECT_EQ(r.result.best.datapath, refined.datapath);
    EXPECT_EQ(r.result.best.partition.time_hybrid_ns,
              refined.partition.time_hybrid_ns);
}

// ------------------------------------------------------------ batching

// Randomized batch compositions: two problem families, mixed
// strategies, priorities and chaos plans, submitted against a paused
// server so the whole burst is queued when the workers wake and the
// same-key drains form maximal batches.  Every answer must be
// bit-identical to the fault-free fresh-session replay of its
// recorded rung (the "solved alone" reference of the batching
// contract), and the full outcome must not depend on the worker
// count.  batch_size is deliberately excluded from the cross-worker
// comparison — how the queue was sliced into batches may differ; the
// answers may not.
TEST(ServeBatch, batched_answers_match_fresh_session_replay)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    constexpr std::size_t k_requests = 10;

    struct Outcome {
        lse::Request_status status;
        int rung;
        std::string rung_strategy;
        Fingerprint answer;

        bool operator==(const Outcome&) const = default;
    };

    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        std::map<std::size_t, Outcome> reference;
        for (const int n_workers : {1, 2}) {
            lse::Server server({.n_workers = n_workers,
                                .queue_capacity = 64,
                                .retry_backoff_ms = 0.0,
                                .warm_start = false,
                                .batching = true,
                                .start_paused = true});
            std::mt19937_64 rng(seed);
            std::vector<lse::Request> requests;
            std::vector<std::future<lse::Response>> futures;
            for (std::size_t i = 0; i < k_requests; ++i) {
                auto req = small_request(
                    lib, bsbs, k_strategies[rng() % std::size(k_strategies)]);
                // Alternate the two families so each is guaranteed a
                // multi-member batch; randomize everything else.
                if (i % 2 == 1)
                    req.problem.area_quantum =
                        req.problem.target.asic.total_area / 32.0;
                req.priority = rng() % 2 == 0 ? lse::Priority::interactive
                                              : lse::Priority::bulk;
                if (rng() % 3 == 0)
                    req.chaos = lse::Chaos_plan::from_seed(rng(), 4, 16);
                requests.push_back(req);
                futures.push_back(server.submit(std::move(req)));
            }
            server.resume();

            for (std::size_t i = 0; i < futures.size(); ++i) {
                const auto r = futures[i].get();
                ASSERT_TRUE(r.status == lse::Request_status::complete ||
                            r.status == lse::Request_status::degraded)
                    << "request " << i << ": " << r.error;
                EXPECT_GE(r.result.batch_size, 1) << "request " << i;

                const auto replayed = lse::replay_rung(requests[i], r);
                EXPECT_EQ(fingerprint(r.result, lib),
                          fingerprint(replayed, lib))
                    << "request " << i << " rung " << r.rung_strategy
                    << " (" << n_workers << " workers, seed " << seed << ")";

                const Outcome outcome{r.status, r.rung, r.rung_strategy,
                                      fingerprint(r.result, lib)};
                const auto it = reference.find(i);
                if (it == reference.end())
                    reference.emplace(i, outcome);
                else
                    EXPECT_EQ(outcome, it->second)
                        << "request " << i << " differs at " << n_workers
                        << " workers (seed " << seed << ")";
            }
            // The paused burst must actually have been batched.
            EXPECT_GT(server.stats().batched_requests, 0u);
        }
    }
}

// Shutdown mid-batch: the in-flight member finishes its ladder (the
// master token skips its remaining solver rungs straight to the
// infallible incumbent), every member whose ladder has not started is
// shed individually — a batch never leaves a promise dangling and
// never returns a partial answer.
TEST(ServeBatch, destructor_sheds_unstarted_batch_members_individually)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    constexpr std::size_t k_members = 4;

    std::vector<std::future<lse::Response>> futures;
    {
        lse::Server server({.n_workers = 1,
                            .queue_capacity = 64,
                            .retry_backoff_ms = 100.0,
                            .warm_start = false,
                            .batching = true,
                            .start_paused = true});
        for (std::size_t i = 0; i < k_members; ++i) {
            auto req = small_request(lib, bsbs, "exhaustive_bb");
            if (i == 0)
                // Member 0's ladder is slow and fallible: every solver
                // rung is killed, and the first retry backoff (100 ms)
                // leaves a wide window to tear the server down
                // mid-ladder.
                req.chaos.attempts = {killed(), killed(), killed()};
            futures.push_back(server.submit(std::move(req)));
        }
        server.resume();
        // Destroy only after the worker has drained the batch (the
        // counters are bumped under the queue lock at drain time), so
        // member 0 is deterministically mid-ladder — inside its first
        // backoff — when the master token trips.
        while (server.stats().batched_requests < k_members)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const auto first = futures[0].get();
    EXPECT_EQ(first.status, lse::Request_status::degraded);
    EXPECT_EQ(first.rung_strategy, std::string(lse::k_incumbent_rung));
    EXPECT_GT(first.sequence, 0u);
    for (std::size_t i = 1; i < k_members; ++i) {
        const auto r = futures[i].get();
        EXPECT_EQ(r.status, lse::Request_status::shed) << "member " << i;
        EXPECT_EQ(r.sequence, 0u) << "member " << i;
        EXPECT_NE(r.error.find("shut down"), std::string::npos)
            << "member " << i;
    }
}

// A capacity-1 idle pool under churn cannot evict the session a batch
// is running on: checkout removes the slot from the idle list for the
// batch's whole lifetime, so LRU eviction — which only scans idle
// sessions — never sees it.  The batch's answers stay bit-identical
// to the fresh-session reference while foreign one-shot solves
// thrash the pool from another thread.
TEST(ServeBatch, lru_churn_cannot_evict_pinned_batch_slot)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    constexpr std::size_t k_members = 6;

    lse::Server server({.n_workers = 1,
                        .queue_capacity = 64,
                        .session_pool_capacity = 1,
                        .retry_backoff_ms = 0.0,
                        .warm_start = false,
                        .batching = true,
                        .start_paused = true});
    std::vector<std::future<lse::Response>> futures;
    for (std::size_t i = 0; i < k_members; ++i)
        futures.push_back(server.submit(small_request(lib, bsbs)));
    server.resume();

    // Churn: one-shot solves of ever-new problem keys on this thread,
    // each checkin evicting the previous churn session from the
    // capacity-1 idle pool while the batch holds its own slot.
    for (int i = 0; i < 12; ++i) {
        auto req = small_request(lib, bsbs);
        req.problem.area_quantum =
            req.problem.target.asic.total_area / (20.0 + i);
        const auto r = server.solve(std::move(req));
        EXPECT_EQ(r.status, lse::Request_status::complete);
    }

    const auto reference = small_request(lib, bsbs);
    lso::Session fresh(reference.problem);
    const auto direct = fresh.solve(reference.options);
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const auto r = futures[i].get();
        ASSERT_EQ(r.status, lse::Request_status::complete)
            << "member " << i << ": " << r.error;
        EXPECT_EQ(fingerprint(r.result, lib), fingerprint(direct, lib))
            << "member " << i;
    }
    EXPECT_EQ(server.stats().batched_requests, k_members);
    EXPECT_EQ(server.stats().max_batch_size, k_members);
}

// Cross-request warm starts: a paused one-worker server whose session
// pool holds one idle session drains an interleaved two-family
// hill_climb burst into one batch per family.  Unbatched, the
// families would evict each other on every checkin; batched, every
// member after the first runs on its family's pinned session and
// resumes the DP rows an earlier member checkpointed.
TEST(ServeBatch, batched_burst_resumes_checkpointed_dp_rows)
{
    const auto lib = small_library();
    const auto bsbs = small_app();

    lse::Server server({.n_workers = 1,
                        .queue_capacity = 64,
                        .session_pool_capacity = 1,
                        .warm_start = false,
                        .batching = true,
                        .start_paused = true});
    std::vector<std::future<lse::Response>> futures;
    for (int i = 0; i < 6; ++i)
        for (const double divisor : {64.0, 80.0}) {
            auto req = small_request(lib, bsbs, "hill_climb");
            req.problem.area_quantum =
                req.problem.target.asic.total_area / divisor;
            futures.push_back(server.submit(std::move(req)));
        }
    server.resume();
    for (auto& f : futures)
        ASSERT_EQ(f.get().status, lse::Request_status::complete);

    const auto stats = server.stats();
    EXPECT_GT(stats.batches, 0u);
    EXPECT_GT(stats.dp_rows_reused_cross_request, 0);
}

// ------------------------------------------------------ chaos campaign

TEST(ServeChaos, plan_from_seed_is_reproducible)
{
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        const auto a = lse::Chaos_plan::from_seed(seed, 4, 16);
        const auto b = lse::Chaos_plan::from_seed(seed, 4, 16);
        ASSERT_EQ(a.attempts.size(), 4u);
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(a.attempts[i].fault.trip_at,
                      b.attempts[i].fault.trip_at);
            EXPECT_EQ(a.attempts[i].fault.alloc_failure_at,
                      b.attempts[i].fault.alloc_failure_at);
            EXPECT_EQ(a.attempts[i].deadline_ms, b.attempts[i].deadline_ms);
        }
    }
    // Past-the-end attempts are unarmed.
    const auto plan = lse::Chaos_plan::from_seed(1, 2, 16);
    EXPECT_FALSE(plan.for_attempt(7).fault.armed());
}

// The acceptance campaign: seeded fault plans over every strategy,
// driven through 1, 2 and 8 workers.  Every request must answer (the
// queue is large enough that nothing sheds), every answer must be
// bit-identical to the fault-free replay of its recorded rung, and
// the full outcome (status, rung, answer) must not depend on the
// worker count.
TEST(ServeChaos, campaign_answers_are_replayable_and_worker_invariant)
{
    const auto lib = small_library();
    const auto bsbs = small_app();
    constexpr std::uint64_t k_seeds = 6;

    struct Outcome {
        lse::Request_status status;
        int rung;
        std::string rung_strategy;
        Fingerprint answer;

        bool operator==(const Outcome&) const = default;
    };
    std::map<std::size_t, Outcome> reference;  // request index -> outcome

    for (const int n_workers : {1, 2, 8}) {
        lse::Server server({.n_workers = n_workers,
                            .queue_capacity = 256,
                            .retry_backoff_ms = 0.0,
                            .warm_start = false});
        std::vector<lse::Request> requests;
        std::vector<std::future<lse::Response>> futures;
        for (const char* strategy : k_strategies)
            for (std::uint64_t seed = 0; seed < k_seeds; ++seed) {
                auto req = small_request(lib, bsbs, strategy);
                req.chaos = lse::Chaos_plan::from_seed(
                    seed * 131 + static_cast<std::uint64_t>(
                                     requests.size()),
                    4, 16);
                requests.push_back(req);
                futures.push_back(server.submit(std::move(req)));
            }

        for (std::size_t i = 0; i < futures.size(); ++i) {
            const auto r = futures[i].get();
            ASSERT_NE(r.status, lse::Request_status::shed) << "request " << i;
            ASSERT_NE(r.status, lse::Request_status::failed)
                << "request " << i << ": " << r.error;

            // Chaos answers are reproducible: re-running the recorded
            // rung fault-free gives the identical best tuple.
            const auto replayed = lse::replay_rung(requests[i], r);
            EXPECT_EQ(fingerprint(r.result, lib),
                      fingerprint(replayed, lib))
                << "request " << i << " rung " << r.rung_strategy << " ("
                << n_workers << " workers)";

            const Outcome outcome{r.status, r.rung, r.rung_strategy,
                                  fingerprint(r.result, lib)};
            const auto it = reference.find(i);
            if (it == reference.end())
                reference.emplace(i, outcome);
            else
                EXPECT_EQ(outcome, it->second)
                    << "request " << i << " differs at " << n_workers
                    << " workers";
        }
        const auto stats = server.stats();
        EXPECT_EQ(stats.shed, 0u);
        EXPECT_EQ(stats.failed, 0u);
        EXPECT_EQ(stats.submitted,
                  static_cast<std::uint64_t>(futures.size()));
    }
}

// ------------------------------------------------------------ trace API

TEST(ServeTrace, parses_keys_and_reports_bad_lines)
{
    std::istringstream good(
        "# comment only\n"
        "app=hal strategy=hill_climb priority=interactive repeat=3\n"
        "app=man deadline_ms=2.5 chaos_seed=9  # trailing comment\n");
    const auto specs = lse::parse_trace(good);
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].app, "hal");
    EXPECT_EQ(specs[0].priority, lse::Priority::interactive);
    EXPECT_EQ(specs[0].repeat, 3);
    EXPECT_EQ(specs[1].deadline_ms, 2.5);
    EXPECT_EQ(specs[1].chaos_seed, 9u);
    EXPECT_EQ(specs[1].line, 3);

    std::istringstream bad("app=hal\nbudget=12\n");
    try {
        lse::parse_trace(bad);
        FAIL() << "expected std::invalid_argument";
    }
    catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

TEST(ServeTrace, percentile_is_nearest_rank)
{
    const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
    EXPECT_EQ(lse::percentile(v, 0.50), 2.0);
    EXPECT_EQ(lse::percentile(v, 0.99), 4.0);
    EXPECT_EQ(lse::percentile(v, 0.25), 1.0);
    EXPECT_EQ(lse::percentile({}, 0.99), 0.0);
}

