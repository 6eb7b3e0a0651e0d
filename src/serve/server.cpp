#include "serve/serve.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "search/alloc_space.hpp"
#include "util/timer.hpp"

namespace lycos::serve {

namespace {

using clock = std::chrono::steady_clock;

double ms_between(clock::time_point from, clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

std::uint64_t splitmix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// Canonical byte encoding of everything a Session's behaviour can
/// depend on.  Session-pool reuse compares these strings exactly —
/// no hashing, so structurally different problems can never collide
/// into the wrong warm session.
std::string encode_problem(const solver::Problem& p)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << "lib:" << reinterpret_cast<std::uintptr_t>(p.lib)
       << " storage:" << reinterpret_cast<std::uintptr_t>(p.storage)
       << " obj:" << static_cast<int>(p.objective)
       << " ctrl:" << static_cast<int>(p.ctrl_mode)
       << " q:" << p.area_quantum << " dp:" << p.dp_table_budget
       << " a01:" << p.asic_areas[0] << "," << p.asic_areas[1];
    os << " cpu:" << p.target.cpu.name << "," << p.target.cpu.clock_mhz;
    for (const auto k : hw::all_op_kinds())
        os << "," << p.target.cpu.cycles_per_op[k];
    os << " asic:" << p.target.asic.clock_mhz << ","
       << p.target.asic.total_area << " bus:" << p.target.bus.ns_per_word
       << " gates:" << p.target.gates.reg << "," << p.target.gates.and2
       << "," << p.target.gates.or2 << "," << p.target.gates.inv;
    os << " restr:";
    for (const auto& [id, count] : p.restrictions.entries())
        os << id << "=" << count << ";";
    os << " bsbs:";
    for (const auto& b : p.bsbs) {
        os << "{" << b.name << "|" << b.profile << "|";
        for (std::size_t i = 0; i < b.graph.size(); ++i) {
            const auto id = static_cast<dfg::Op_id>(i);
            os << static_cast<int>(b.graph.op(id).kind) << "<";
            for (const auto pred : b.graph.preds(id))
                os << pred << ",";
            os << ">";
        }
        os << "|";
        for (const auto& v : b.graph.live_ins())
            os << v << ",";
        os << "|";
        for (const auto& v : b.graph.live_outs())
            os << v << ",";
        os << "}";
    }
    return os.str();
}

/// Loose family key for the warm-start incumbent cache: a perturbed
/// re-solve (edited BSB, different budget) should still find the
/// incumbent of its application.  Loose is safe — the incumbent is
/// re-validated against the new problem's space and re-scored under
/// the new problem before it can influence anything.
std::uint64_t warm_family_key(const solver::Problem& p)
{
    std::uint64_t h = splitmix64(reinterpret_cast<std::uintptr_t>(p.lib));
    h = splitmix64(h ^ p.bsbs.size());
    h = splitmix64(h ^ static_cast<std::uint64_t>(p.ctrl_mode));
    for (const auto& b : p.bsbs)
        for (const char c : b.name)
            h = splitmix64(h ^ static_cast<unsigned char>(c));
    return h;
}

/// True when `datapath` is a point of the restriction space with a
/// data-path area inside the single-ASIC budget — the same filter the
/// exhaustive enumeration applies, so scoring it can only reproduce a
/// score some search already could have produced.
bool inside_space(const core::Rmap& datapath, const search::Alloc_space& space,
                  const hw::Hw_library& lib, double budget)
{
    for (const auto& [id, count] : datapath.entries()) {
        const auto dim =
            std::find_if(space.dims().begin(), space.dims().end(),
                         [&](const auto& d) { return d.first == id; });
        if (dim == space.dims().end() || count > dim->second)
            return false;
    }
    return datapath.area(lib) <= budget;
}

}  // namespace

std::string to_string(Priority p)
{
    return p == Priority::interactive ? "interactive" : "bulk";
}

std::string to_string(Request_status s)
{
    switch (s) {
    case Request_status::complete: return "complete";
    case Request_status::degraded: return "degraded";
    case Request_status::shed: return "shed";
    case Request_status::failed: return "failed";
    }
    return "?";
}

bool Chaos_plan::armed() const
{
    for (const auto& a : attempts)
        if (a.fault.armed() || a.deadline_ms > 0.0)
            return true;
    return false;
}

Chaos_plan::Attempt Chaos_plan::for_attempt(std::size_t i) const
{
    return i < attempts.size() ? attempts[i] : Attempt{};
}

Chaos_plan Chaos_plan::from_seed(std::uint64_t seed, std::size_t n_attempts,
                                 std::uint64_t n_units)
{
    Chaos_plan plan;
    plan.attempts.resize(n_attempts);
    for (std::size_t i = 0; i < n_attempts; ++i) {
        const std::uint64_t r = splitmix64(seed ^ splitmix64(i + 1));
        auto& a = plan.attempts[i];
        switch (r % 4) {
        case 0:  // fault-free attempt
            break;
        case 1:  // mid-walk cancel at a seed-chosen cut point
            a.fault.trip_at = n_units > 0 ? splitmix64(r) % n_units : 0;
            break;
        case 2:  // allocation failure at a seed-chosen unit
            a.fault.alloc_failure_at =
                n_units > 0 ? splitmix64(r) % n_units : 0;
            break;
        case 3:  // deadline already expired at the first poll
            a.deadline_ms = 1e-6;
            break;
        }
    }
    return plan;
}

solver::Solve_result greedy_incumbent(solver::Session& session,
                                      const core::Rmap* warm)
{
    const util::Wall_timer timer;
    const auto& problem = session.problem();
    const auto& ctx = session.context();
    const search::Alloc_space space(ctx.lib, problem.restrictions);
    const double budget = problem.target.asic.total_area;

    solver::Solve_result out;
    out.strategy = std::string(k_incumbent_rung);
    out.space_size = space.size();
    out.n_threads = 1;
    const auto before = session.cache().stats();
    out.best = search::evaluate_allocation(
        ctx, space.greedy_fill(ctx.lib, budget), &session.cache());
    out.n_evaluated = 1;
    if (warm != nullptr && inside_space(*warm, space, ctx.lib, budget)) {
        const auto ev =
            search::evaluate_allocation(ctx, *warm, &session.cache());
        ++out.n_evaluated;
        // Strictly better only — on a tie the greedy fill stays, so
        // the rung is a pure function of (problem, warm datapath).
        if (search::better_tuple(ev.partition.time_hybrid_ns,
                                 ev.datapath_area,
                                 out.best.partition.time_hybrid_ns,
                                 out.best.datapath_area))
            out.best = ev;
    }
    out.cache_stats = session.cache().stats().minus(before);
    out.seconds = timer.seconds();
    return out;
}

struct Server::Impl {
    struct Pending {
        Request req;
        std::vector<bsb::Bsb> bsbs;  ///< owned copy the problem spans
        std::promise<Response> promise;
        clock::time_point t_submit;
        std::uint64_t id = 0;
        /// encode_problem() of the request, computed at submit on the
        /// client's thread: batch formation compares keys under the
        /// queue lock, where re-encoding per queued entry would
        /// serialize the workers.
        std::string key;
    };

    struct Session_slot {
        std::string key;  ///< encode_problem() of the owned problem
        std::vector<bsb::Bsb> bsbs;
        solver::Problem problem;
        std::unique_ptr<solver::Session> session;
        std::uint64_t last_used = 0;
    };

    explicit Impl(Server_options o) : opts(std::move(o)), paused(opts.start_paused)
    {
        const int n = std::max(0, opts.n_workers);
        workers.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            workers.emplace_back([this] { worker_loop(); });
    }

    ~Impl()
    {
        {
            const std::lock_guard lk(mu);
            stopping = true;
        }
        master.request_cancel();
        cv.notify_all();
        for (auto& w : workers)
            w.join();
        // Anything still queued (paused server, zero workers) is shed
        // loudly rather than silently dropped.
        std::deque<std::unique_ptr<Pending>> leftovers;
        {
            const std::lock_guard lk(mu);
            for (auto& q : {&interactive, &bulk})
                while (!q->empty()) {
                    leftovers.push_back(std::move(q->front()));
                    q->pop_front();
                }
        }
        for (auto& p : leftovers)
            resolve_shed(*p, "server shut down");
    }

    void resolve_shed(Pending& p, std::string why)
    {
        Response r;
        r.id = p.id;
        r.status = Request_status::shed;
        r.error = std::move(why);
        {
            const std::lock_guard lk(mu);
            ++stats.shed;
        }
        p.promise.set_value(std::move(r));
    }

    // --- session pool --------------------------------------------------

    std::unique_ptr<Session_slot> checkout(const solver::Problem& problem,
                                           std::string key)
    {
        {
            const std::lock_guard lk(mu);
            const auto it = std::find_if(
                idle_sessions.begin(), idle_sessions.end(),
                [&](const auto& s) { return s->key == key; });
            if (it != idle_sessions.end()) {
                auto slot = std::move(*it);
                idle_sessions.erase(it);
                ++stats.sessions_reused;
                return slot;
            }
        }
        auto slot = std::make_unique<Session_slot>();
        slot->key = std::move(key);
        slot->bsbs.assign(problem.bsbs.begin(), problem.bsbs.end());
        slot->problem = problem;
        slot->problem.bsbs = slot->bsbs;
        // Throws std::invalid_argument on validation defects; the
        // ladder turns that into a failed response.
        slot->session = std::make_unique<solver::Session>(slot->problem);
        return slot;
    }

    void checkin(std::unique_ptr<Session_slot> slot)
    {
        const std::lock_guard lk(mu);
        slot->last_used = ++pool_tick;
        idle_sessions.push_back(std::move(slot));
        if (idle_sessions.size() > opts.session_pool_capacity) {
            const auto oldest = std::min_element(
                idle_sessions.begin(), idle_sessions.end(),
                [](const auto& a, const auto& b) {
                    return a->last_used < b->last_used;
                });
            idle_sessions.erase(oldest);
        }
    }

    // --- warm-start incumbent cache ------------------------------------

    bool warm_lookup(std::uint64_t key, core::Rmap& out)
    {
        const std::lock_guard lk(mu);
        const auto it = std::find_if(
            incumbents.begin(), incumbents.end(),
            [&](const auto& e) { return e.first == key; });
        if (it == incumbents.end())
            return false;
        out = it->second;
        return true;
    }

    void warm_store(std::uint64_t key, const core::Rmap& datapath)
    {
        const std::lock_guard lk(mu);
        const auto it = std::find_if(
            incumbents.begin(), incumbents.end(),
            [&](const auto& e) { return e.first == key; });
        if (it != incumbents.end()) {
            it->second = datapath;
            return;
        }
        incumbents.emplace_back(key, datapath);
        if (incumbents.size() > opts.incumbent_cache_capacity)
            incumbents.pop_front();
    }

    // --- the degradation ladder ----------------------------------------

    /// The single-request path: checkout, ladder, checkin.  Batches
    /// (process_batch) run the same ladder per member on one pinned
    /// checkout instead.
    Response process(Pending& p, bool attach_master)
    {
        const auto t_start = clock::now();
        std::unique_ptr<Session_slot> slot;
        try {
            slot = checkout(p.req.problem, p.key);
        }
        catch (const std::exception& e) {
            Response resp;
            resp.id = p.id;
            resp.queue_ms = ms_between(p.t_submit, t_start);
            resp.status = Request_status::failed;
            resp.error = e.what();
            finish_stats(resp);
            resp.solve_ms = ms_between(t_start, clock::now());
            return resp;
        }
        Response resp = run_ladder(p, *slot->session, attach_master, t_start,
                                   /*batch_size=*/1);
        checkin(std::move(slot));
        return resp;
    }

    /// The degradation ladder of one request on an already-checked-out
    /// session.  `batch_size` is recorded on the accepted result (1 =
    /// served alone); the session may carry warm state from earlier
    /// requests — every rung is bit-identical warm or cold.
    Response run_ladder(Pending& p, solver::Session& session,
                        bool attach_master, clock::time_point t_start,
                        int batch_size)
    {
        Response resp;
        resp.id = p.id;
        resp.queue_ms = ms_between(p.t_submit, t_start);

        std::string strategy = p.req.strategy;
        if (strategy == "auto")
            strategy = session.space_size() <= p.req.exhaustive_limit
                           ? "exhaustive_bb"
                           : "hill_climb";
        if (solver::find_strategy(strategy) == nullptr) {
            resp.status = Request_status::failed;
            resp.error = "unknown strategy \"" + strategy + "\"";
            finish_stats(resp);
            resp.solve_ms = ms_between(t_start, clock::now());
            return resp;
        }

        // Rung list: requested, retry, hill_climb fallback (when the
        // request asked for something costlier), greedy incumbent.
        std::vector<std::string> rungs{strategy, strategy};
        if (strategy != "hill_climb")
            rungs.emplace_back("hill_climb");
        rungs.emplace_back(k_incumbent_rung);

        const std::uint64_t family = warm_family_key(session.problem());
        core::Rmap warm;
        bool have_warm = opts.warm_start && warm_lookup(family, warm);

        const auto remaining_ms = [&] {
            return p.req.deadline_ms - ms_between(t_start, clock::now());
        };

        bool accepted = false;
        for (std::size_t i = 0; i < rungs.size() && !accepted; ++i) {
            Attempt_record rec;
            rec.strategy = rungs[i];
            if (rungs[i] == k_incumbent_rung) {
                try {
                    resp.result = greedy_incumbent(
                        session, have_warm ? &warm : nullptr);
                    resp.warm_start = have_warm;
                    if (have_warm)
                        resp.warm_datapath = warm;
                    rec.status = resp.result.status;
                    rec.seconds = resp.result.seconds;
                    accepted = true;
                }
                catch (const std::exception& e) {
                    resp.error = e.what();
                }
                resp.attempts.push_back(std::move(rec));
                if (accepted) {
                    resp.rung = static_cast<int>(i);
                    resp.rung_strategy = rungs[i];
                }
                continue;
            }

            // A spent request deadline skips straight down the ladder
            // to the infallible rung instead of starting a solve that
            // would only trip again.
            if (p.req.deadline_ms > 0.0 && remaining_ms() <= 0.0) {
                rec.skipped = true;
                resp.attempts.push_back(std::move(rec));
                continue;
            }
            // Shutdown: don't start new solver rungs, fall through to
            // the incumbent so the promise still gets a best effort.
            if (attach_master && master.tripped()) {
                rec.skipped = true;
                resp.attempts.push_back(std::move(rec));
                continue;
            }

            if (i > 0) {
                {
                    const std::lock_guard lk(mu);
                    ++stats.retries;
                }
                double backoff =
                    opts.retry_backoff_ms * static_cast<double>(1u << (i - 1));
                if (p.req.deadline_ms > 0.0)
                    backoff = std::min(backoff, std::max(0.0, remaining_ms()));
                if (backoff > 0.0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double, std::milli>(backoff));
            }

            solver::Solve_options o = p.req.options;
            o.cancel = attach_master ? &master : p.req.options.cancel;
            o.deadline_ms =
                p.req.deadline_ms > 0.0 ? std::max(remaining_ms(), 1e-6) : 0.0;
            const auto chaos = p.req.chaos.for_attempt(i);
            o.fault = chaos.fault.armed()
                          ? chaos.fault
                          : (i == 0 ? p.req.options.fault
                                    : util::Fault_injector{});
            if (chaos.deadline_ms > 0.0)
                o.deadline_ms = chaos.deadline_ms;
            if (i == 1)
                o.max_dp_cells = p.req.options.max_dp_cells > 0
                                     ? std::max<std::uint64_t>(
                                           1, p.req.options.max_dp_cells / 2)
                                     : opts.retry_dp_cell_budget;
            // Strategy-specific extras only make sense on the strategy
            // the request configured them for.
            if (rungs[i] != strategy)
                o.extras = {};

            try {
                auto r = session.solve(rungs[i], o);
                rec.status = r.status;
                rec.seconds = r.seconds;
                if (r.status == util::Solve_status::complete) {
                    resp.result = std::move(r);
                    accepted = true;
                }
            }
            catch (const std::bad_alloc&) {
                // Transient by contract: descend the ladder.
                rec.alloc_failure = true;
                rec.status = util::Solve_status::cancelled;
            }
            catch (const std::exception& e) {
                // Permanent (bad extras, engine invariant): no lower
                // rung can fix a malformed request.
                resp.error = e.what();
                resp.attempts.push_back(std::move(rec));
                break;
            }
            resp.attempts.push_back(std::move(rec));
            if (accepted) {
                resp.rung = static_cast<int>(i);
                resp.rung_strategy = rungs[i];
            }
        }

        if (accepted) {
            resp.status = resp.rung == 0 ? Request_status::complete
                                         : Request_status::degraded;
            if (!resp.result.multi.active &&
                !resp.result.best.datapath.empty())
                warm_store(family, resp.result.best.datapath);
            if (resp.warm_start) {
                const std::lock_guard lk(mu);
                ++stats.warm_hits;
            }
            if (p.req.rescore_fine && !resp.result.multi.active) {
                const auto before = session.cache().stats();
                resp.result.best =
                    session.rescore(resp.result.best.datapath);
                resp.result.cache_stats +=
                    session.cache().stats().minus(before);
            }
            resp.result.batch_size = batch_size;
            // Per-family service observability: the answered request's
            // cache activity and cross-request warm-start rows, folded
            // into its family's row (batch members land in the same
            // row, so the combined hit rate is one division away).
            {
                const std::lock_guard lk(mu);
                stats.dp_rows_reused_cross_request +=
                    resp.result.dp_rows_reused_cross_request;
                auto it = std::find_if(
                    stats.family_cache.begin(), stats.family_cache.end(),
                    [&](const auto& e) { return e.family == family; });
                if (it == stats.family_cache.end()) {
                    stats.family_cache.push_back({family, 0, {}});
                    it = std::prev(stats.family_cache.end());
                }
                ++it->requests;
                it->cache += resp.result.cache_stats;
            }
        }
        else {
            resp.status = Request_status::failed;
            if (resp.error.empty())
                resp.error = "every ladder rung failed";
        }
        finish_stats(resp);
        resp.solve_ms = ms_between(t_start, clock::now());
        return resp;
    }

    void finish_stats(const Response& resp)
    {
        const std::lock_guard lk(mu);
        switch (resp.status) {
        case Request_status::complete: ++stats.completed; break;
        case Request_status::degraded: ++stats.degraded; break;
        case Request_status::failed: ++stats.failed; break;
        case Request_status::shed: break;  // counted at admission
        }
    }

    // --- queue and workers ---------------------------------------------

    void worker_loop()
    {
        for (;;) {
            std::vector<std::unique_ptr<Pending>> batch;
            {
                std::unique_lock lk(mu);
                cv.wait(lk, [&] {
                    return stopping ||
                           (!paused &&
                            (!interactive.empty() || !bulk.empty()));
                });
                if (stopping)
                    return;
                auto& q = !interactive.empty() ? interactive : bulk;
                batch.push_back(std::move(q.front()));
                q.pop_front();
                if (opts.batching) {
                    // Drain every queued request with the same
                    // canonical problem key into this dequeue,
                    // interactive before bulk and in queue order within
                    // each class — exactly the order the workers would
                    // have served them anyway.
                    const std::string& key = batch.front()->key;
                    for (auto* queue : {&interactive, &bulk})
                        for (auto it = queue->begin();
                             it != queue->end();) {
                            if ((*it)->key == key) {
                                batch.push_back(std::move(*it));
                                it = queue->erase(it);
                            }
                            else {
                                ++it;
                            }
                        }
                }
                if (batch.size() > 1) {
                    ++stats.batches;
                    stats.batched_requests += batch.size();
                    stats.max_batch_size =
                        std::max<std::uint64_t>(stats.max_batch_size,
                                                batch.size());
                }
            }
            process_batch(batch);
        }
    }

    /// Serve a drained batch back-to-back on one pinned session
    /// checkout.  Members keep their own ladders; sequence numbers are
    /// taken at each member's ladder start, so the global dequeue
    /// order stays gap-free even when shutdown sheds the tail of a
    /// batch.  A checkout failure (invalid problem — shared by every
    /// member, the key encodes the whole problem) falls back to the
    /// single-request path per member, which fails each identically.
    void process_batch(std::vector<std::unique_ptr<Pending>>& batch)
    {
        const int batch_size = static_cast<int>(batch.size());
        std::unique_ptr<Session_slot> slot;
        if (batch_size > 1) {
            try {
                slot = checkout(batch.front()->req.problem,
                                batch.front()->key);
            }
            catch (const std::exception&) {
                slot = nullptr;
            }
        }
        for (auto& p : batch) {
            // Shutdown boundary: members whose ladder has not started
            // are shed individually — a batch never leaves a member's
            // promise dangling, and never returns a partial answer.
            if (master.tripped()) {
                resolve_shed(*p, "server shut down");
                continue;
            }
            std::uint64_t seq = 0;
            {
                const std::lock_guard lk(mu);
                seq = ++next_seq;
            }
            Response r =
                slot != nullptr
                    ? run_ladder(*p, *slot->session, /*attach_master=*/true,
                                 clock::now(), batch_size)
                    : process(*p, /*attach_master=*/true);
            r.sequence = seq;
            p->promise.set_value(std::move(r));
        }
        if (slot != nullptr)
            checkin(std::move(slot));
    }

    Server_options opts;
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<std::unique_ptr<Pending>> interactive;
    std::deque<std::unique_ptr<Pending>> bulk;
    bool stopping = false;
    bool paused = false;
    std::vector<std::thread> workers;
    util::Cancel_token master;  ///< parent of every queued rung's token
    std::uint64_t next_id = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t pool_tick = 0;
    Server_stats stats;
    std::vector<std::unique_ptr<Session_slot>> idle_sessions;
    std::deque<std::pair<std::uint64_t, core::Rmap>> incumbents;
};

Server::Server(Server_options options)
    : impl_(std::make_unique<Impl>(std::move(options)))
{
}

Server::~Server() = default;

std::future<Response> Server::submit(Request request)
{
    auto p = std::make_unique<Impl::Pending>();
    p->req = std::move(request);
    p->bsbs.assign(p->req.problem.bsbs.begin(), p->req.problem.bsbs.end());
    p->req.problem.bsbs = p->bsbs;
    p->key = encode_problem(p->req.problem);
    p->t_submit = clock::now();
    auto future = p->promise.get_future();

    {
        const std::lock_guard lk(impl_->mu);
        ++impl_->stats.submitted;
        p->id = ++impl_->next_id;
    }

    // Inline mode: no workers, run on the caller's thread.
    if (impl_->opts.n_workers <= 0) {
        bool stopped;
        {
            const std::lock_guard lk(impl_->mu);
            stopped = impl_->stopping;
        }
        if (stopped) {
            impl_->resolve_shed(*p, "server shut down");
            return future;
        }
        Response r = impl_->process(*p, /*attach_master=*/false);
        p->promise.set_value(std::move(r));
        return future;
    }

    std::unique_ptr<Impl::Pending> displaced;
    {
        const std::lock_guard lk(impl_->mu);
        if (impl_->stopping) {
            displaced = std::move(p);
        }
        else {
            const std::size_t size =
                impl_->interactive.size() + impl_->bulk.size();
            if (size >= impl_->opts.queue_capacity) {
                if (p->req.priority == Priority::interactive &&
                    !impl_->bulk.empty()) {
                    // Overload shedding: the newest bulk request makes
                    // room for the interactive one.
                    displaced = std::move(impl_->bulk.back());
                    impl_->bulk.pop_back();
                    impl_->interactive.push_back(std::move(p));
                }
                else {
                    displaced = std::move(p);
                }
            }
            else if (p->req.priority == Priority::interactive) {
                impl_->interactive.push_back(std::move(p));
            }
            else {
                impl_->bulk.push_back(std::move(p));
            }
        }
    }
    if (displaced)
        impl_->resolve_shed(*displaced, "queue full");
    else
        impl_->cv.notify_one();
    return future;
}

Response Server::solve(Request request)
{
    auto p = std::make_unique<Impl::Pending>();
    p->req = std::move(request);
    p->bsbs.assign(p->req.problem.bsbs.begin(), p->req.problem.bsbs.end());
    p->req.problem.bsbs = p->bsbs;
    p->key = encode_problem(p->req.problem);
    p->t_submit = clock::now();
    {
        const std::lock_guard lk(impl_->mu);
        ++impl_->stats.submitted;
        p->id = ++impl_->next_id;
    }
    return impl_->process(*p, /*attach_master=*/false);
}

void Server::resume()
{
    {
        const std::lock_guard lk(impl_->mu);
        impl_->paused = false;
    }
    impl_->cv.notify_all();
}

Server_stats Server::stats() const
{
    const std::lock_guard lk(impl_->mu);
    return impl_->stats;
}

const Server_options& Server::options() const { return impl_->opts; }

solver::Solve_result replay_rung(const Request& request,
                                 const Response& response)
{
    if (response.status != Request_status::complete &&
        response.status != Request_status::degraded)
        throw std::logic_error(
            "serve::replay_rung: response carries no accepted rung");
    solver::Session session(request.problem);
    session.exhaustive_limit = request.exhaustive_limit;
    if (response.rung_strategy == k_incumbent_rung)
        return greedy_incumbent(
            session, response.warm_start ? &response.warm_datapath : nullptr);

    solver::Solve_options o = request.options;
    o.deadline_ms = 0.0;
    o.max_evals = 0;
    o.max_dp_cells = 0;
    o.fault = {};
    o.cancel = nullptr;
    // attempts[0] always records the resolved (post-auto) strategy;
    // extras only apply when the accepted rung is that strategy.
    const std::string resolved = response.attempts.empty()
                                     ? response.rung_strategy
                                     : response.attempts.front().strategy;
    if (response.rung_strategy != resolved)
        o.extras = {};
    return session.solve(response.rung_strategy, o);
}

}  // namespace lycos::serve
