// The traced run's span recorder.
//
// Spans are taken in the benchmark's own code, around each call into a
// public lycos entry point, so tracing changes nothing inside the
// library.  Every span belongs to one operation (a design iteration, a
// solve, a served request): all spans of an operation share its id and
// each records its parent span.  Spans stay in memory and are written
// once, at the end, as Chrome trace-event JSON (viewable in Perfetto
// or chrome://tracing).  A span's layer is its name up to the first
// '.', e.g. "solver" for "solver.solve.exhaustive_bb".
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
public:
    using clock = std::chrono::steady_clock;

    struct Span {
        std::string name;
        std::uint64_t op = 0;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;  ///< 0 = the operation's root span
        double t0_us = 0.0;        ///< since the tracer was created
        double t1_us = 0.0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /// A fresh operation id (ids start at 1).
    std::uint64_t new_op();

    /// Microseconds since the tracer was created.
    double now_us() const;
    double to_us(clock::time_point t) const;

    /// Record a finished span; returns its id (0 when disabled).
    /// Thread-safe.
    std::uint64_t record(std::string_view name, std::uint64_t op,
                         std::uint64_t parent, double t0_us, double t1_us);

    /// Reserve an id for a span recorded later with record_as (so
    /// children can name their parent before it ends).
    std::uint64_t reserve_id();
    void record_as(std::uint64_t id, std::string_view name, std::uint64_t op,
                   std::uint64_t parent, double t0_us, double t1_us);

    /// A span around one call: opens at construction, records at
    /// destruction.  Does nothing on a disabled tracer.
    class Scope {
    public:
        Scope(Tracer& tracer, std::string_view name, std::uint64_t op,
              std::uint64_t parent = 0);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        std::uint64_t id() const { return id_; }

    private:
        Tracer& tracer_;
        std::string_view name_;
        std::uint64_t op_;
        std::uint64_t parent_;
        std::uint64_t id_;
        double t0_us_;
    };

    /// Durations (ms) of every span with this exact name.
    std::vector<double> durations_ms(std::string_view name) const;

    /// Per layer: the summed self time (duration minus the part of its
    /// interval the span's children cover) over all spans, in ms,
    /// divided by the number of operations.
    std::map<std::string, double> self_ms_per_op() const;

    /// Write every span as a Chrome trace-event "X" event, with the
    /// operation id, span id and parent id in its args.  Operations
    /// that overlap in time get separate tracks.  `metadata` is a JSON
    /// object embedded under "metadata".  Returns false on a write
    /// error.
    bool write_chrome(const std::string& path, const std::string& metadata) const;

private:
    const bool enabled_;
    const clock::time_point origin_ = clock::now();
    mutable std::mutex mutex_;
    // Guarded by mutex_:
    std::vector<Span> spans_;
    std::uint64_t next_op_ = 0;
    std::uint64_t next_id_ = 0;
};

}  // namespace perfbench
