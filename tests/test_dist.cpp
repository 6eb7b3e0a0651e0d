// Tests for the distributed search (src/dist/):
//
//   * wire-format round trips — randomized messages survive
//     encode/decode bit-for-bit, and re-encoding a decoded message
//     reproduces the original bytes (the encoding is canonical);
//   * robustness — every truncated prefix, trailing byte, corrupt
//     frame header, and seeded garbage buffer is rejected by return
//     value, never UB (this file runs under the CI sanitizer job);
//   * the windowed-engine contract the coordinator's fold relies on —
//     per-window bests of any partition of the unit space, folded in
//     range order with strict better_tuple, equal the full solve, and
//     an external admissible bound never changes the answer;
//   * end-to-end coordinator/worker runs over loopback TCP —
//     bit-identical to a local Session::solve for 1/2/4 workers, for
//     both leasable strategies, under the seeded chaos kill, under a
//     lease timeout against a stalling worker, and with no workers at
//     all (pure local fallback).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "core/analysis.hpp"
#include "core/restrictions.hpp"
#include "dist/dist.hpp"
#include "dist/wire.hpp"
#include "hw/target.hpp"
#include "solver/solver.hpp"
#include "util/cancel.hpp"
#include "util/chunk_range.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"

namespace lc = lycos::core;
namespace ld = lycos::dist;
namespace lh = lycos::hw;
namespace lso = lycos::solver;
namespace lu = lycos::util;

namespace {

/// The HAL benchmark as a solver::Problem — the same fixture the CLI
/// smoke tests and the CI `distributed` job solve.  The holder owns
/// the storage the Problem views; problem() builds the view in place,
/// so the holder must outlive every Session/coordinator using it.
struct App_problem {
    lycos::apps::App app;
    lh::Hw_library lib;
    lh::Target target;
    lc::Rmap restrictions;

    lso::Problem problem() const
    {
        lso::Problem p;
        p.bsbs = app.bsbs;
        p.lib = &lib;
        p.target = target;
        p.restrictions = restrictions;
        p.area_quantum = app.asic_area / 512.0;
        return p;
    }
};

App_problem make_app_problem(lycos::apps::App app)
{
    App_problem h;
    h.app = std::move(app);
    h.lib = lh::make_default_library();
    h.target = lh::make_default_target(h.app.asic_area);
    const auto infos = lc::analyze(h.app.bsbs, h.lib, h.target.gates);
    h.restrictions = lc::compute_restrictions(infos, h.lib);
    return h;
}

App_problem make_hal_problem()
{
    return make_app_problem(lycos::apps::make_hal());
}

void expect_same_single(const lso::Solve_result& a,
                        const lso::Solve_result& b, const char* what)
{
    EXPECT_EQ(a.best.datapath, b.best.datapath) << what;
    EXPECT_EQ(a.best.partition.time_hybrid_ns,
              b.best.partition.time_hybrid_ns)
        << what;
    EXPECT_EQ(a.best.datapath_area, b.best.datapath_area) << what;
    EXPECT_EQ(a.best.partition.in_hw, b.best.partition.in_hw) << what;
}

void expect_same_multi(const lso::Solve_result& a,
                       const lso::Solve_result& b, const char* what)
{
    EXPECT_EQ(a.multi.datapaths, b.multi.datapaths) << what;
    EXPECT_EQ(a.multi.partition.time_hybrid_ns,
              b.multi.partition.time_hybrid_ns)
        << what;
    EXPECT_EQ(a.multi.datapath_area, b.multi.datapath_area) << what;
    EXPECT_EQ(a.multi.partition.placement, b.multi.partition.placement)
        << what;
}

/// Launch `n` in-process workers against the coordinator's bound port
/// — the on_listen wiring lycos_cli --dist-workers uses.
struct Worker_fleet {
    std::vector<std::thread> threads;

    std::function<void(std::uint16_t)> launcher(int n)
    {
        return [this, n](std::uint16_t port) {
            for (int i = 0; i < n; ++i)
                threads.emplace_back(
                    [port] { ld::run_worker("127.0.0.1", port); });
        };
    }

    ~Worker_fleet()
    {
        for (auto& t : threads)
            if (t.joinable())
                t.join();
    }
};

}  // namespace

// --- wire format -----------------------------------------------------

TEST(Wire, primitives_round_trip_bit_for_bit)
{
    ld::Wire_writer w;
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i64(-42);
    w.f64(0.1);                 // not exactly representable: bits matter
    w.f64(-0.0);                // sign bit must survive
    w.f64(6.02214076e23);
    w.str("hal");
    w.str("");

    const auto& bytes = w.bytes();
    ld::Wire_reader r(bytes.data(), bytes.size());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), 0.1);
    const double neg_zero = r.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_EQ(r.f64(), 6.02214076e23);
    EXPECT_EQ(r.str(), "hal");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.at_end());

    // Overrun latches: every later read is a zero, never a crash.
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, framing_round_trip_and_corruption)
{
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
    const auto f = ld::frame(ld::Msg::lease, payload);

    ld::Unframed out;
    EXPECT_EQ(ld::try_unframe(f.data(), f.size(), out),
              ld::Unframe_status::ok);
    EXPECT_EQ(out.type, ld::Msg::lease);
    EXPECT_EQ(out.payload, payload);
    EXPECT_EQ(out.consumed, f.size());

    // Every strict prefix of a valid frame asks for more bytes.
    for (std::size_t len = 0; len < f.size(); ++len)
        EXPECT_EQ(ld::try_unframe(f.data(), len, out),
                  ld::Unframe_status::need_more)
            << "prefix " << len;

    // Bad magic, unknown type, and an oversized length are corrupt —
    // detected as soon as the header is readable.
    auto bad = f;
    bad[0] ^= 0xFF;
    EXPECT_EQ(ld::try_unframe(bad.data(), bad.size(), out),
              ld::Unframe_status::corrupt);
    bad = f;
    bad[4] = 0xEE;  // no such Msg
    EXPECT_EQ(ld::try_unframe(bad.data(), bad.size(), out),
              ld::Unframe_status::corrupt);
    bad = f;
    bad[5] = 0xFF;  // payload_len blown past k_max_payload
    bad[6] = 0xFF;
    bad[7] = 0xFF;
    bad[8] = 0xFF;
    EXPECT_EQ(ld::try_unframe(bad.data(), bad.size(), out),
              ld::Unframe_status::corrupt);
}

TEST(Wire, small_messages_round_trip_and_reencode_canonically)
{
    lu::Rng rng(2026);
    for (int trial = 0; trial < 50; ++trial) {
        {
            std::uint32_t version = 0;
            const auto p = ld::encode_hello();
            ASSERT_TRUE(ld::decode_hello(p, version));
            EXPECT_EQ(version, ld::k_protocol_version);
        }
        {
            ld::Lease_msg m;
            m.lease_id = rng.uniform_index(1u << 30);
            m.begin = rng.uniform_int(0, 1 << 20);
            m.end = m.begin + rng.uniform_int(0, 1 << 20);
            const auto p = ld::encode_lease(m);
            ld::Lease_msg d;
            ASSERT_TRUE(ld::decode_lease(p, d));
            EXPECT_EQ(d.lease_id, m.lease_id);
            EXPECT_EQ(d.begin, m.begin);
            EXPECT_EQ(d.end, m.end);
            EXPECT_EQ(ld::encode_lease(d), p);
        }
        {
            const double t = rng.uniform_real(0.0, 1e9);
            double d = 0.0;
            const auto p = ld::encode_incumbent(t);
            ASSERT_TRUE(ld::decode_incumbent(p, d));
            EXPECT_EQ(d, t);  // exact: the bits travelled, not the text
            EXPECT_EQ(ld::encode_incumbent(d), p);
        }
        {
            ld::Lease_result_msg m;
            m.lease_id = rng.uniform_index(1u << 30);
            m.have_best = rng.uniform_int(0, 1) == 1;
            if (m.have_best) {
                m.best_time = rng.uniform_real(0.0, 1e9);
                m.best_area = rng.uniform_real(0.0, 1e5);
                lc::Rmap dp;
                dp.set(rng.uniform_int(0, 7), rng.uniform_int(1, 4));
                m.datapaths.push_back(dp);
                if (rng.uniform_int(0, 1) == 1) {
                    lc::Rmap dp1;
                    dp1.set(rng.uniform_int(0, 7),
                            rng.uniform_int(1, 4));
                    m.datapaths.push_back(dp1);
                }
            }
            m.n_evaluated = rng.uniform_int(0, 1 << 20);
            m.n_pruned = rng.uniform_int(0, 1 << 20);
            m.n_pruned_remote = rng.uniform_int(0, m.n_pruned > 0
                                                       ? 1 << 10
                                                       : 0);
            m.rows_visited = rng.uniform_int(0, 1 << 10);
            m.incumbents_applied = rng.uniform_int(0, 64);
            m.dp_states_dropped = rng.uniform_int(0, 1 << 20);
            const auto p = ld::encode_lease_result(m);
            ld::Lease_result_msg d;
            ASSERT_TRUE(ld::decode_lease_result(p, d));
            EXPECT_EQ(d.lease_id, m.lease_id);
            EXPECT_EQ(d.have_best, m.have_best);
            EXPECT_EQ(d.best_time, m.best_time);
            EXPECT_EQ(d.best_area, m.best_area);
            EXPECT_EQ(d.datapaths, m.datapaths);
            EXPECT_EQ(d.n_evaluated, m.n_evaluated);
            EXPECT_EQ(d.n_pruned_remote, m.n_pruned_remote);
            EXPECT_EQ(d.incumbents_applied, m.incumbents_applied);
            EXPECT_EQ(d.dp_states_dropped, m.dp_states_dropped);
            EXPECT_EQ(ld::encode_lease_result(d), p);
        }
    }
}

TEST(Wire, job_round_trip_preserves_the_problem_and_is_canonical)
{
    const auto hal = make_hal_problem();
    const auto problem = hal.problem();
    ld::Job_msg m;
    m.problem = ld::Problem_blob::from_problem(problem);
    m.strategy = "exhaustive_bb";
    m.options.n_threads = 3;
    m.options.use_cache = true;
    m.options.use_pruning = false;
    m.options.cache_capacity = 4096;
    m.options.pair_limit = 123456;
    m.options.use_row_bound = false;
    m.n_units = 96;
    m.chaos_die = true;

    const auto p = ld::encode_job(m);
    ld::Job_msg d;
    ASSERT_TRUE(ld::decode_job(p, d));
    EXPECT_EQ(d.strategy, m.strategy);
    EXPECT_EQ(d.options.n_threads, 3);
    EXPECT_FALSE(d.options.use_pruning);
    EXPECT_EQ(d.options.cache_capacity, 4096u);
    EXPECT_EQ(d.options.pair_limit, 123456);
    EXPECT_FALSE(d.options.use_row_bound);
    EXPECT_EQ(d.n_units, 96);
    EXPECT_TRUE(d.chaos_die);

    // The decoded problem is deep and equivalent: same BSB count, same
    // library, same restrictions, same scalar knobs — and a Session
    // built from it sees the same search space.
    const auto q = d.problem.problem();
    EXPECT_EQ(q.bsbs.size(), problem.bsbs.size());
    EXPECT_EQ(d.problem.lib.size(), hal.lib.size());
    EXPECT_EQ(q.restrictions, problem.restrictions);
    EXPECT_EQ(q.area_quantum, problem.area_quantum);
    lso::Session local(problem), decoded(q);
    EXPECT_EQ(decoded.space_size(), local.space_size());

    // Canonical: encoding the decoded job reproduces the bytes.
    EXPECT_EQ(ld::encode_job(d), p);
}

TEST(Wire, every_truncated_prefix_and_trailing_byte_is_rejected)
{
    const auto hal = make_hal_problem();
    const auto problem = hal.problem();
    ld::Job_msg jm;
    jm.problem = ld::Problem_blob::from_problem(problem);
    jm.strategy = "multi_asic_bb";
    jm.n_units = 48;

    ld::Lease_result_msg rm;
    rm.have_best = true;
    rm.best_time = 123.5;
    rm.best_area = 600.0;
    lc::Rmap dp;
    dp.set(0, 1);
    dp.set(2, 2);
    rm.datapaths = {dp};
    rm.n_evaluated = 10;

    ld::Lease_msg lm;
    lm.lease_id = 7;
    lm.begin = 3;
    lm.end = 9;

    // Payloads do not self-identify (the type byte lives in the frame
    // header), so the contract is per-decoder: every strict prefix and
    // every trailing-padded variant of a valid payload is rejected by
    // the decoder of *that* message type.
    const auto check = [](const std::vector<std::uint8_t>& p,
                          auto&& decode) {
        for (std::size_t len = 0; len < p.size(); ++len)
            EXPECT_FALSE(decode(std::vector<std::uint8_t>(
                p.begin(), p.begin() + static_cast<long>(len))))
                << "prefix " << len << " of " << p.size();
        auto padded = p;
        padded.push_back(0);  // trailing garbage fails at_end()
        EXPECT_FALSE(decode(padded)) << "padded " << p.size();
    };

    check(ld::encode_hello(), [](const auto& p) {
        std::uint32_t ver = 0;
        return ld::decode_hello(p, ver);
    });
    check(ld::encode_job(jm), [](const auto& p) {
        ld::Job_msg j;
        return ld::decode_job(p, j);
    });
    check(ld::encode_lease(lm), [](const auto& p) {
        ld::Lease_msg l;
        return ld::decode_lease(p, l);
    });
    check(ld::encode_lease_result(rm), [](const auto& p) {
        ld::Lease_result_msg r;
        return ld::decode_lease_result(p, r);
    });
    check(ld::encode_incumbent(55.25), [](const auto& p) {
        double t = 0.0;
        return ld::decode_incumbent(p, t);
    });
}

TEST(Wire, garbage_and_bit_flips_never_misbehave)
{
    lu::Rng rng(40906);

    // Pure noise: decoders must return cleanly (almost always false;
    // a structurally valid accident is fine) without UB — ASan is the
    // real assertion here.
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> noise(
            static_cast<std::size_t>(rng.uniform_int(0, 300)));
        for (auto& b : noise)
            b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        std::uint32_t ver = 0;
        ld::Job_msg j;
        ld::Lease_msg l;
        ld::Lease_result_msg r;
        double t = 0.0;
        ld::Unframed u;
        (void)ld::decode_hello(noise, ver);
        (void)ld::decode_job(noise, j);
        (void)ld::decode_lease(noise, l);
        (void)ld::decode_lease_result(noise, r);
        (void)ld::decode_incumbent(noise, t);
        (void)ld::try_unframe(noise.data(), noise.size(), u);
    }

    // Single-byte corruption of a real job payload: either rejected,
    // or decoded into something a further encode round-trips — never
    // a crash or an out-of-bounds structure.
    const auto hal = make_hal_problem();
    const auto problem = hal.problem();
    ld::Job_msg jm;
    jm.problem = ld::Problem_blob::from_problem(problem);
    jm.strategy = "exhaustive_bb";
    jm.n_units = 96;
    const auto p = ld::encode_job(jm);
    for (int trial = 0; trial < 300; ++trial) {
        auto mutated = p;
        mutated[rng.uniform_index(mutated.size())] ^=
            static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        ld::Job_msg d;
        // Either rejected or decoded into a well-formed message (bool
        // fields decode any non-zero byte, so the re-encoding is not
        // byte-identical in general); ASan asserts the "no UB" half.
        if (ld::decode_job(mutated, d)) {
            const auto reencoded = ld::encode_job(d);
            ld::Job_msg d2;
            EXPECT_TRUE(ld::decode_job(reencoded, d2));
        }
    }

    // Structural garbage with valid framing-level bytes:
    {
        ld::Lease_msg m;
        m.begin = 9;
        m.end = 3;  // inverted range
        const auto bad = ld::encode_lease(m);
        ld::Lease_msg d;
        EXPECT_FALSE(ld::decode_lease(bad, d));
    }
    {
        ld::Lease_result_msg m;
        m.have_best = true;  // claims a best but carries no datapath
        const auto bad = ld::encode_lease_result(m);
        ld::Lease_result_msg d;
        EXPECT_FALSE(ld::decode_lease_result(bad, d));
    }
}

// --- the windowed-engine contract ------------------------------------

// Folding per-window bests of any partition of the unit space, in
// range order with the strict better_tuple rule, reproduces the
// full-space best bit-for-bit — the coordinator's reduce in miniature,
// without sockets.
TEST(DistEngine, windowed_union_reproduces_the_full_solve)
{
    const auto hal = make_hal_problem();
    const auto problem = hal.problem();
    lso::Session session(problem);
    const auto full = session.solve("exhaustive_bb", {.n_threads = 1});
    ASSERT_TRUE(full.have_best);
    const long long n = session.space_size();

    for (const std::size_t k : {2u, 3u, 7u}) {
        bool have = false;
        lso::Solve_result folded;
        long long visited = 0;
        for (const auto& range : lu::split_even(n, k)) {
            lso::Solve_options o;
            o.n_threads = 1;
            o.window = range;
            const auto r = session.solve("exhaustive_bb", o);
            visited += r.n_evaluated + r.n_pruned;
            if (!r.have_best)
                continue;
            const bool better =
                !have ||
                r.best.partition.time_hybrid_ns <
                    folded.best.partition.time_hybrid_ns ||
                (r.best.partition.time_hybrid_ns ==
                     folded.best.partition.time_hybrid_ns &&
                 r.best.datapath_area < folded.best.datapath_area);
            if (better) {
                folded = r;
                have = true;
            }
        }
        ASSERT_TRUE(have) << k;
        EXPECT_EQ(visited, n) << k;  // windows partition the space
        expect_same_single(folded, full, "windowed union");
    }
}

TEST(DistEngine, windowed_union_reproduces_the_full_multi_solve)
{
    const auto hal = make_hal_problem();
    const auto problem = hal.problem();
    lso::Session session(problem);
    const auto full = session.solve("multi_asic_bb", {.n_threads = 1});
    ASSERT_TRUE(full.multi.active);
    const long long n_rows = full.multi.axis_points[0];
    ASSERT_GT(n_rows, 1);

    bool have = false;
    lso::Solve_result folded;
    for (const auto& range : lu::split_even(n_rows, 3)) {
        lso::Solve_options o;
        o.n_threads = 1;
        o.window = range;
        const auto r = session.solve("multi_asic_bb", o);
        if (!r.have_best)
            continue;
        const bool better =
            !have ||
            r.multi.partition.time_hybrid_ns <
                folded.multi.partition.time_hybrid_ns ||
            (r.multi.partition.time_hybrid_ns ==
                 folded.multi.partition.time_hybrid_ns &&
             r.multi.datapath_area[0] + r.multi.datapath_area[1] <
                 folded.multi.datapath_area[0] +
                     folded.multi.datapath_area[1]);
        if (better) {
            folded = r;
            have = true;
        }
    }
    ASSERT_TRUE(have);
    expect_same_multi(folded, full, "windowed multi union");
}

// An external admissible bound — even one as tight as the global
// optimum itself — may only reclassify work as pruned; the best tuple
// must not move.  Remote attribution counts exactly the kills the
// local incumbent alone could not justify, so a *full-space* solve
// (whose local incumbent reaches the optimum itself) attributes
// nothing, while windows *not* containing the winner — the actual
// worker situation — do.
TEST(DistEngine, external_admissible_bound_preserves_the_answer)
{
    for (const char* strategy : {"exhaustive_bb", "multi_asic_bb"}) {
        // man's probe primes away from the optimum, so the exhaustive
        // engine has kills only an external bound can make; hal keeps
        // the multi pair space small.
        const auto fixture = make_app_problem(
            std::string(strategy) == "multi_asic_bb"
                ? lycos::apps::make_hal()
                : lycos::apps::make_man());
        const auto problem = fixture.problem();
        lso::Session session(problem);

        const auto full = session.solve(strategy, {.n_threads = 1});
        const bool multi = std::string(strategy) == "multi_asic_bb";
        const double best_time =
            multi ? full.multi.partition.time_hybrid_ns
                  : full.best.partition.time_hybrid_ns;

        lu::Shared_bound bound;
        bound.tighten(best_time);

        // Full space under the bound: answer and counters unchanged —
        // nothing the bound killed was beyond the local incumbent.
        lso::Solve_options o;
        o.n_threads = 1;
        o.incumbent_bound = &bound;
        const auto r = session.solve(strategy, o);
        if (multi)
            expect_same_multi(r, full, strategy);
        else
            expect_same_single(r, full, strategy);
        EXPECT_LE(r.n_pruned_remote, r.n_pruned) << strategy;
        EXPECT_EQ(full.n_pruned_remote, 0) << strategy;

        // Windowed under the bound: the folded tuple still matches,
        // and at least one winner-less window needed the remote bound
        // for some of its kills.
        const long long n =
            multi ? full.multi.axis_points[0] : session.space_size();
        bool have = false;
        lso::Solve_result folded;
        long long remote = 0;
        for (const auto& range : lu::split_even(n, 4)) {
            lso::Solve_options wo;
            wo.n_threads = 1;
            wo.window = range;
            wo.incumbent_bound = &bound;
            const auto w = session.solve(strategy, wo);
            remote += w.n_pruned_remote;
            if (!w.have_best)
                continue;
            const double t = multi ? w.multi.partition.time_hybrid_ns
                                   : w.best.partition.time_hybrid_ns;
            const double a =
                multi ? w.multi.datapath_area[0] +
                            w.multi.datapath_area[1]
                      : w.best.datapath_area;
            const double ft =
                multi ? folded.multi.partition.time_hybrid_ns
                      : folded.best.partition.time_hybrid_ns;
            const double fa =
                multi ? folded.multi.datapath_area[0] +
                            folded.multi.datapath_area[1]
                      : folded.best.datapath_area;
            if (!have || t < ft || (t == ft && a < fa)) {
                folded = w;
                have = true;
            }
        }
        ASSERT_TRUE(have) << strategy;
        if (multi)
            expect_same_multi(folded, full, strategy);
        else
            expect_same_single(folded, full, strategy);
        EXPECT_GT(remote, 0) << strategy;
    }
}

// --- end-to-end over loopback TCP ------------------------------------

TEST(Distributed, bit_identical_to_local_for_1_2_4_workers)
{
    const auto hal = make_hal_problem();
    const auto problem = hal.problem();
    lso::Session session(problem);
    const auto local = session.solve("exhaustive_bb", {.n_threads = 1});

    for (const int n_workers : {1, 2, 4}) {
        Worker_fleet fleet;
        ld::Coordinator_options co;
        co.strategy = "exhaustive_bb";
        co.solve.n_threads = 1;
        co.n_workers = n_workers;
        co.on_listen = fleet.launcher(n_workers);
        const auto r = ld::solve_distributed(problem, co);

        ASSERT_TRUE(r.have_best) << n_workers;
        expect_same_single(r, local, "distributed exhaustive");
        EXPECT_TRUE(r.dist.active);
        EXPECT_EQ(r.dist.n_workers, n_workers);
        EXPECT_EQ(r.dist.n_units, session.space_size());
        EXPECT_EQ(r.dist.workers_lost, 0) << n_workers;
        EXPECT_EQ(r.dist.leases_reassigned, 0) << n_workers;
        EXPECT_EQ(static_cast<int>(r.dist.workers.size()), n_workers);
        EXPECT_EQ(r.space_size, local.space_size);
        // Every unit is accounted for exactly once across the leases.
        EXPECT_EQ(r.n_evaluated + r.n_pruned, local.space_size);
    }
}

TEST(Distributed, bit_identical_to_local_for_multi_asic)
{
    const auto hal = make_hal_problem();
    const auto problem = hal.problem();
    lso::Session session(problem);
    const auto local = session.solve("multi_asic_bb", {.n_threads = 1});
    ASSERT_TRUE(local.multi.active);

    for (const int n_workers : {1, 2}) {
        Worker_fleet fleet;
        ld::Coordinator_options co;
        co.strategy = "multi_asic_bb";
        co.solve.n_threads = 1;
        co.n_workers = n_workers;
        co.on_listen = fleet.launcher(n_workers);
        const auto r = ld::solve_distributed(problem, co);

        ASSERT_TRUE(r.have_best) << n_workers;
        ASSERT_TRUE(r.multi.active) << n_workers;
        expect_same_multi(r, local, "distributed multi");
        EXPECT_EQ(r.dist.n_units, local.multi.axis_points[0]);
        EXPECT_EQ(r.space_size, local.space_size);
    }
}

TEST(Distributed, chaos_kill_reassigns_and_the_answer_is_unchanged)
{
    const auto hal = make_hal_problem();
    const auto problem = hal.problem();
    lso::Session session(problem);
    const auto local = session.solve("exhaustive_bb", {.n_threads = 1});

    Worker_fleet fleet;
    ld::Coordinator_options co;
    co.strategy = "exhaustive_bb";
    co.solve.n_threads = 1;
    co.n_workers = 2;
    co.chaos_seed = 7;
    co.lease_timeout_ms = 5000.0;
    co.on_listen = fleet.launcher(2);
    const auto r = ld::solve_distributed(problem, co);

    ASSERT_TRUE(r.have_best);
    expect_same_single(r, local, "chaos");
    EXPECT_EQ(r.dist.workers_lost, 1);
    EXPECT_GE(r.dist.leases_reassigned, 1);
    // The killed range was re-run in full: nothing double-counted,
    // nothing dropped.
    EXPECT_EQ(r.n_evaluated + r.n_pruned, local.space_size);
}

TEST(Distributed, lease_timeout_recovers_from_a_stalling_worker)
{
    const auto hal = make_hal_problem();
    const auto problem = hal.problem();
    lso::Session session(problem);
    const auto local = session.solve("exhaustive_bb", {.n_threads = 1});

    // A hand-rolled fake worker: says hello, accepts the job and the
    // first lease, then never responds.  The coordinator must time the
    // lease out, requeue the range, and finish the search itself.
    std::thread staller;
    ld::Coordinator_options co;
    co.strategy = "exhaustive_bb";
    co.solve.n_threads = 1;
    co.n_workers = 1;
    co.lease_timeout_ms = 200.0;
    co.accept_timeout_ms = 300.0;
    co.on_listen = [&](std::uint16_t port) {
        staller = std::thread([port] {
            lu::Fd fd;
            try {
                fd = lu::connect_tcp("127.0.0.1", port, 2000);
            }
            catch (const std::exception&) {
                return;
            }
            const auto hello =
                ld::frame(ld::Msg::hello, ld::encode_hello());
            if (!lu::send_all(fd, hello.data(), hello.size()))
                return;
            // Drain whatever arrives without ever answering; exit on
            // the coordinator closing the connection.
            std::uint8_t buf[4096];
            while (lu::recv_some(fd, buf, sizeof buf) > 0) {
            }
        });
    };
    const auto r = ld::solve_distributed(problem, co);
    if (staller.joinable())
        staller.join();

    ASSERT_TRUE(r.have_best);
    expect_same_single(r, local, "stalling worker");
    EXPECT_EQ(r.dist.workers_lost, 1);
    EXPECT_GE(r.dist.leases_reassigned, 1);
    EXPECT_GT(r.dist.leases_solved_locally, 0);
    EXPECT_EQ(r.n_evaluated + r.n_pruned, local.space_size);
}

TEST(Distributed, no_workers_at_all_is_a_pure_local_fallback)
{
    const auto hal = make_hal_problem();
    const auto problem = hal.problem();
    lso::Session session(problem);
    const auto local = session.solve("exhaustive_bb", {.n_threads = 1});

    ld::Coordinator_options co;
    co.strategy = "exhaustive_bb";
    co.solve.n_threads = 1;
    co.n_workers = 0;
    co.accept_timeout_ms = 100.0;
    const auto r = ld::solve_distributed(problem, co);

    ASSERT_TRUE(r.have_best);
    expect_same_single(r, local, "no workers");
    EXPECT_EQ(r.dist.n_workers, 0);
    EXPECT_GT(r.dist.leases_solved_locally, 0);
    EXPECT_EQ(r.n_evaluated + r.n_pruned, local.space_size);
}

TEST(Distributed, rejects_non_leasable_strategies)
{
    const auto hal = make_hal_problem();
    const auto problem = hal.problem();
    ld::Coordinator_options co;
    co.strategy = "hill_climb";
    co.accept_timeout_ms = 50.0;
    EXPECT_THROW(ld::solve_distributed(problem, co),
                 std::invalid_argument);
    co.strategy = "no_such_strategy";
    EXPECT_THROW(ld::solve_distributed(problem, co),
                 std::invalid_argument);
}
