// lycos::serve — the solver-as-a-service layer.
//
// A Server turns the per-problem solver::Session machinery into a
// long-lived service: requests stream in through a bounded queue with
// explicit admission control (interactive ahead of bulk, loud
// shedding when full), every admitted request runs under its own
// Cancel_token, and a failed or late solve does not surface an error
// — the server walks a deterministic *degradation ladder* until some
// rung produces a complete answer:
//
//   rung 0  the requested strategy, under the request deadline
//   rung 1  the same strategy retried once, after an exponential
//           backoff, with a tightened DP-cell budget
//   rung 2  hill_climb (only when the request asked for something
//           costlier — multi_asic_bb or exhaustive_bb)
//   rung 3  the greedy incumbent: the per-axis greedy fill of the
//           allocation space scored once, optionally improved by the
//           warm-start incumbent cached from an earlier solve of the
//           same application.  Pure arithmetic; it cannot fail.
//
// A rung is *accepted* only when its solve ran to natural completion
// (Solve_status::complete).  Deadline/budget trips and injected or
// real allocation failures descend the ladder instead of returning a
// timing-dependent partial incumbent — which is what makes every
// served answer reproducible: re-running the recorded rung fault-free
// (replay_rung) gives a bit-identical result, for any worker count.
// The chaos campaign in tests/test_serve.cpp drives seeded fault
// plans through concurrent clients and asserts exactly that.
//
// Request *batching* (Server_options::batching): when a worker
// dequeues a request it drains every queued request with the same
// canonical problem encoding into one batch and serves the members
// back-to-back on a single checked-out session — one Eval_invariants,
// one shared Eval_cache, one persistent DP workspace pool
// (solver::Session::workspaces()), so a later member's PACE sweeps
// resume from the checkpoints an earlier member just wrote
// (Solve_result::dp_rows_reused_cross_request).  Each member keeps
// its own Cancel_token, deadline, chaos plan and full degradation
// ladder; the slot stays pinned (out of the LRU idle pool) for the
// whole batch.  Bit-identity contract: a batched member's answer —
// the accepted rung and its result tuple — is identical to solving
// that request alone on a fresh session, for any batch composition
// and worker count.  On shutdown mid-batch the in-flight member
// finishes its ladder and every not-yet-started member is shed
// individually; a batch never produces partial answers.
//
// Lifetime contract: the Problem's BSB array is *copied* at submit,
// so the caller's span may die as soon as submit()/solve() returns.
// The library and storage model are held by pointer and must outlive
// the Server (same rule as solver::Session).
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "solver/solver.hpp"
#include "util/cancel.hpp"

namespace lycos::serve {

/// Scheduling class of a request.  Interactive requests dequeue ahead
/// of every bulk request and, when the queue is full, displace the
/// most recently queued bulk request instead of being shed.
enum class Priority : std::uint8_t { interactive, bulk };

std::string to_string(Priority p);

/// What the server ultimately did with a request.
///
///   complete   rung 0 (the requested strategy) ran to completion
///   degraded   a lower ladder rung supplied the answer
///   shed       refused at admission (queue full); no answer
///   failed     no rung produced an answer (a permanent defect, e.g.
///              an invalid Problem, or an error out of every rung)
enum class Request_status : std::uint8_t { complete, degraded, shed, failed };

std::string to_string(Request_status s);

/// A deterministic per-attempt fault plan for the chaos campaign:
/// attempt `i` of the ladder runs under `attempts[i]` (unarmed past
/// the end).  Faults are the solver's thread-invariant
/// Fault_injector cuts, so a chaos run's rung outcomes — and
/// therefore the final answer — are bit-identical for any worker
/// count.
struct Chaos_plan {
    struct Attempt {
        util::Fault_injector fault;  ///< injected cut / alloc failure
        /// Per-attempt deadline override in ms (0 = the request's).
        /// Use a sub-microsecond value to force a deterministic
        /// deadline trip at the attempt's first poll.
        double deadline_ms = 0.0;
    };

    std::vector<Attempt> attempts;

    bool armed() const;
    Attempt for_attempt(std::size_t i) const;

    /// A reproducible mixed plan: each of `n_attempts` rungs draws —
    /// from the seed alone — one of {no fault, a mid-walk trip, an
    /// injected allocation failure, an instantly-expired deadline}
    /// with the cut point spread over [0, n_units).
    static Chaos_plan from_seed(std::uint64_t seed, std::size_t n_attempts,
                                std::uint64_t n_units);
};

/// One unit of service: what to solve, how, and by when.
struct Request {
    solver::Problem problem;
    std::string strategy = "auto";  ///< registry name or "auto"
    double deadline_ms = 0.0;       ///< whole-request wall budget (0 = none)
    Priority priority = Priority::bulk;

    /// Base solve knobs (threads, caches, budgets, extras).  The
    /// request-level deadline above governs the ladder; any
    /// options.deadline_ms is ignored.
    solver::Solve_options options;

    /// Auto-pick threshold, as Session::exhaustive_limit.
    long long exhaustive_limit = 30000;

    /// Re-score the winning datapath at the exact quantum on the warm
    /// session cache and fold the lookups into the returned stats —
    /// the coarse-search/fine-rescore flow of Session::rescore.
    /// Single-ASIC rungs only.
    bool rescore_fine = false;

    /// Chaos-campaign fault plan (tests only; default unarmed).
    Chaos_plan chaos;
};

/// What one ladder rung did, in ladder order.
struct Attempt_record {
    std::string strategy;  ///< registry name or "greedy_incumbent"
    util::Solve_status status = util::Solve_status::complete;
    bool alloc_failure = false;  ///< rung ended in std::bad_alloc
    bool skipped = false;        ///< request deadline already spent
    double seconds = 0.0;
};

/// Name recorded for the ladder's final, infallible rung.
inline constexpr std::string_view k_incumbent_rung = "greedy_incumbent";

/// The served outcome.  For complete/degraded, `result` is the
/// accepted rung's Solve_result and `rung`/`rung_strategy` record
/// which rung produced it; replay_rung() reproduces it bit-identically.
struct Response {
    std::uint64_t id = 0;
    Request_status status = Request_status::failed;
    int rung = -1;             ///< index into `attempts` of the winner
    std::string rung_strategy;
    solver::Solve_result result;
    std::vector<Attempt_record> attempts;

    /// The warm-start incumbent handed to the greedy rung (empty when
    /// none was cached).  Recorded so the chaos campaign can replay
    /// the rung as the pure function it is.
    bool warm_start = false;
    core::Rmap warm_datapath;

    double queue_ms = 0.0;  ///< admission to dequeue
    double solve_ms = 0.0;  ///< dequeue to answer
    std::uint64_t sequence = 0;  ///< global dequeue order (1-based; 0 = shed)
    std::string error;           ///< non-empty for failed
};

/// Service configuration.
struct Server_options {
    /// Worker threads draining the queue.  0 = no threads: submit()
    /// executes the request inline and returns a ready future (the
    /// synchronous one-shot mode).
    int n_workers = 1;
    std::size_t queue_capacity = 64;

    /// Idle Sessions kept warm, LRU-evicted.  A request whose problem
    /// matches a pooled session structurally reuses its Eval_cache
    /// and invariants (results are bit-identical either way).
    std::size_t session_pool_capacity = 8;

    /// Best incumbents remembered per application family for the
    /// warm-start rung.
    std::size_t incumbent_cache_capacity = 32;

    /// Backoff before ladder attempt `i` is 2^(i-1) times this (0 =
    /// no backoff; tests use 0).
    double retry_backoff_ms = 1.0;

    /// DP-cell budget of the retry rung when the request armed none;
    /// a request budget is halved instead.
    std::uint64_t retry_dp_cell_budget = 1ull << 22;

    /// Feed the greedy rung from the incumbent cache.
    bool warm_start = true;

    /// Drain same-problem queued requests into one batch per dequeue
    /// (see the header note).  Off: every request checks out its own
    /// session, exactly the pre-batching behaviour.  Answers are
    /// bit-identical either way; batching only removes duplicate
    /// session/cache/DP warm-up work.
    bool batching = true;

    /// Construct with workers parked: requests queue but nothing runs
    /// until resume().  Deterministic admission tests use this.
    bool start_paused = false;
};

/// Monotonic service counters.
struct Server_stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t shed = 0;
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;     ///< ladder attempts past rung 0
    std::uint64_t warm_hits = 0;   ///< greedy rungs fed a cached incumbent
    std::uint64_t sessions_reused = 0;

    /// Batching counters: multi-member batches formed, requests served
    /// as members of one, and the largest batch seen.  Singleton
    /// dequeues count in none of them.
    std::uint64_t batches = 0;
    std::uint64_t batched_requests = 0;
    std::uint64_t max_batch_size = 0;

    /// Total cross-request DP warm-start rows over every answered
    /// request (sum of Solve_result::dp_rows_reused_cross_request).
    long long dp_rows_reused_cross_request = 0;

    /// Eval_cache activity aggregated per application family
    /// (warm_family_key) over every answered request — batch members
    /// fold into the same entry, so the combined per-family hit rate
    /// is hits/lookups of one row.  One entry per family seen.
    struct Family_cache_stats {
        std::uint64_t family = 0;    ///< warm_family_key of the problem
        std::uint64_t requests = 0;  ///< answered requests aggregated
        search::Eval_cache_stats cache;
    };
    std::vector<Family_cache_stats> family_cache;
};

/// The long-lived solver service.  Thread-safe: submit() may be
/// called from any number of client threads.
class Server {
public:
    explicit Server(Server_options options = {});
    ~Server();  ///< sheds the queue, cancels in-flight solves, joins

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Admit (or shed) a request.  The future is always fulfilled —
    /// shed requests resolve immediately with Request_status::shed;
    /// admitted ones resolve when the ladder finishes.  Never throws
    /// on bad problems: validation defects resolve as failed.
    std::future<Response> submit(Request request);

    /// Synchronous one-shot path: runs the ladder on the calling
    /// thread, bypassing the queue (no admission, never shed).
    Response solve(Request request);

    /// Release workers parked by Server_options::start_paused.
    void resume();

    Server_stats stats() const;
    const Server_options& options() const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// The ladder's final rung as the pure function it is: the greedy
/// per-axis fill of the allocation space under the single-ASIC area
/// budget, scored once, improved by `warm` when that datapath lies
/// inside the restriction space and scores strictly better.
solver::Solve_result greedy_incumbent(solver::Session& session,
                                      const core::Rmap* warm = nullptr);

/// Reproduce the answer of the rung recorded in `response`, fault-free
/// on a fresh session — the chaos-campaign reference.  Strips every
/// transient knob (deadline, budgets, faults, cancellation) and keeps
/// the answer-shaping ones; bit-identical to `response.result`'s best
/// for any original worker count.
solver::Solve_result replay_rung(const Request& request,
                                 const Response& response);

}  // namespace lycos::serve
