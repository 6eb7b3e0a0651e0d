// The distributed-search worker (src/dist/dist.hpp).
//
// Two threads: a reader demultiplexing the socket — incumbent
// broadcasts tighten the worker's util::Shared_bound immediately, so
// the bound sharpens *mid-solve*; job/lease/done queue for the main
// thread — and the main thread running ordinary windowed solves on
// one Session reused across leases (the warm Eval_cache is why later
// leases are cheaper; results are bit-identical either way).
//
// Chaos mode: when the job says chaos_die, the worker arms a
// Fault_injector cut half-way into its first lease, does the real
// partial work up to it, then closes the socket without reporting —
// the observable worker death the coordinator's reassignment path and
// the CI chaos leg exercise.
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dist/dist.hpp"
#include "dist/wire.hpp"
#include "util/cancel.hpp"
#include "util/net.hpp"

namespace lycos::dist {

namespace {

/// State shared between the reader thread and the solving thread.
struct Mailbox {
    util::Shared_bound bound;
    std::atomic<long long> incumbents_applied{0};

    std::mutex mu;
    std::condition_variable cv;
    std::deque<Unframed> queue;  ///< job / lease / done, in order
    bool closed = false;

    void push(Unframed msg)
    {
        {
            std::lock_guard lock(mu);
            queue.push_back(std::move(msg));
        }
        cv.notify_one();
    }

    void close()
    {
        {
            std::lock_guard lock(mu);
            closed = true;
        }
        cv.notify_one();
    }

    /// Next control message; nullopt = connection closed and drained.
    std::optional<Unframed> pop()
    {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || closed; });
        if (queue.empty())
            return std::nullopt;
        Unframed msg = std::move(queue.front());
        queue.pop_front();
        return msg;
    }
};

void reader_loop(const util::Fd& fd, Mailbox& box)
{
    std::vector<std::uint8_t> inbuf;
    std::uint8_t buf[16384];
    for (;;) {
        const long n = util::recv_some(fd, buf, sizeof buf);
        if (n <= 0)
            break;
        inbuf.insert(inbuf.end(), buf, buf + n);
        for (;;) {
            Unframed msg;
            const auto st =
                try_unframe(inbuf.data(), inbuf.size(), msg);
            if (st == Unframe_status::need_more)
                break;
            if (st == Unframe_status::corrupt) {
                box.close();
                return;
            }
            inbuf.erase(inbuf.begin(),
                        inbuf.begin() + static_cast<long>(msg.consumed));
            if (msg.type == Msg::incumbent) {
                double time_ns = 0.0;
                if (decode_incumbent(msg.payload, time_ns) &&
                    box.bound.tighten(time_ns))
                    box.incumbents_applied.fetch_add(
                        1, std::memory_order_relaxed);
            }
            else {
                box.push(std::move(msg));
            }
        }
    }
    box.close();
}

Lease_result_msg to_lease_result(std::uint64_t lease_id,
                                 const std::string& strategy,
                                 const solver::Solve_result& r,
                                 long long incumbents_applied)
{
    Lease_result_msg m;
    m.lease_id = lease_id;
    m.have_best = r.have_best;
    if (r.have_best) {
        if (strategy == "multi_asic_bb") {
            m.best_time = r.multi.partition.time_hybrid_ns;
            m.best_area =
                r.multi.datapath_area[0] + r.multi.datapath_area[1];
            m.datapaths = {r.multi.datapaths[0], r.multi.datapaths[1]};
        }
        else {
            m.best_time = r.best.partition.time_hybrid_ns;
            m.best_area = r.best.datapath_area;
            m.datapaths = {r.best.datapath};
        }
    }
    m.n_evaluated = r.n_evaluated;
    m.n_pruned = r.n_pruned;
    m.n_pruned_remote = r.n_pruned_remote;
    m.dp_rows_reused = r.dp_rows_reused;
    m.dp_rows_swept = r.dp_rows_swept;
    m.rows_visited = r.multi.rows_visited;
    m.rows_pruned = r.multi.rows_pruned;
    m.dp_states_swept = r.multi.dp_states_swept;
    m.dp_cells_dense = r.multi.dp_cells_dense;
    m.dp_states_dropped = r.multi.dp_states_dropped;
    m.incumbents_applied = incumbents_applied;
    return m;
}

}  // namespace

int run_worker(const std::string& host, std::uint16_t port,
               const Worker_options& options)
{
    util::Fd fd;
    try {
        fd = util::connect_tcp(
            host, port,
            static_cast<int>(options.connect_timeout_ms));
    }
    catch (const std::exception&) {
        return 1;
    }
    {
        const auto f = frame(Msg::hello, encode_hello());
        if (!util::send_all(fd, f.data(), f.size()))
            return 1;
    }

    Mailbox box;
    std::thread reader([&] { reader_loop(fd, box); });
    // Whatever exit path below: shut the socket so the reader's recv
    // returns, then join.
    struct Join_guard {
        const util::Fd& fd;
        std::thread& t;
        ~Join_guard()
        {
            ::shutdown(fd.get(), SHUT_RDWR);
            if (t.joinable())
                t.join();
        }
    } guard{fd, reader};

    // First control message must be the job.
    auto first = box.pop();
    if (!first.has_value() || first->type != Msg::job)
        return 1;
    Job_msg job;
    if (!decode_job(first->payload, job))
        return 1;

    std::optional<solver::Session> session;
    try {
        session.emplace(job.problem.problem());
    }
    catch (const std::exception&) {
        return 1;  // coordinator sent an invalid problem
    }

    solver::Solve_options base;
    base.n_threads = job.options.n_threads;
    base.use_cache = job.options.use_cache;
    base.use_pruning = job.options.use_pruning;
    base.cache_capacity =
        static_cast<std::size_t>(job.options.cache_capacity);
    if (job.strategy == "multi_asic_bb") {
        solver::Multi_asic_extras extras;
        extras.pair_limit = job.options.pair_limit;
        extras.use_row_bound = job.options.use_row_bound;
        base.extras = extras;
    }
    base.incumbent_bound = &box.bound;

    bool first_lease = true;
    for (;;) {
        auto msg = box.pop();
        if (!msg.has_value())
            return 1;  // connection dropped mid-search
        if (msg->type == Msg::done)
            return 0;
        if (msg->type != Msg::lease)
            return 1;
        Lease_msg lease;
        if (!decode_lease(msg->payload, lease) ||
            lease.end > job.n_units)
            return 1;

        solver::Solve_options opts = base;
        opts.window = {lease.begin, lease.end};
        const bool die = job.chaos_die && first_lease;
        if (die)
            // Trip half-way into the range: the Fault_injector refuses
            // logical units >= trip_at, so the solve does the real
            // work of the first half and stops at a unit boundary.
            opts.fault.trip_at = static_cast<std::uint64_t>(
                lease.begin + std::max<long long>(
                                  1, (lease.end - lease.begin) / 2));
        first_lease = false;

        solver::Solve_result r;
        try {
            r = session->solve(job.strategy, opts);
        }
        catch (const std::exception&) {
            return 1;
        }
        if (die)
            return 0;  // die without reporting: the chaos worker death

        // The worker's own completed leases are real evaluated points
        // too — tightening its bound with them lets later leases prune
        // without waiting for the coordinator's echo.
        if (r.have_best) {
            const double t = job.strategy == "multi_asic_bb"
                                 ? r.multi.partition.time_hybrid_ns
                                 : r.best.partition.time_hybrid_ns;
            box.bound.tighten(t);
        }

        const auto m = to_lease_result(
            lease.lease_id, job.strategy, r,
            box.incumbents_applied.load(std::memory_order_relaxed));
        const auto f = frame(Msg::lease_result, encode_lease_result(m));
        if (!util::send_all(fd, f.data(), f.size()))
            return 1;
    }
}

}  // namespace lycos::dist
